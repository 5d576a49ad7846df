"""Finite quivers, dimension vectors, weight spaces, candidate walls.

General machinery stops at the weight-space level: candidate wall
hyperplanes are enumerated for any dimension vector, but stability of
arbitrary representations is out of scope.  The two quivers that matter are
the star quiver (n one-dimensional sources feeding a two-dimensional sink)
and the double-star quiver (n sources feeding two one-dimensional sinks);
their realized walls live in the chambers module.
"""
from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

DEFAULT_WORK_BOUND = 10**6


class TooLargeError(ValueError):
    """An enumeration would exceed the configured work bound."""


class OutsideConeError(ValueError):
    """Weight outside the cone over the distinguished vertex."""


class ApexError(ValueError):
    """The apex weight itself, where the projection is undefined."""


class SettingError(Exception):
    """An environment variable holds a value the program cannot use."""


def max_work() -> int:
    """The enumeration cap: QML_MAX_WORK, an integer >= 1, or the default."""
    raw = os.environ.get("QML_MAX_WORK")
    if raw is None:
        return DEFAULT_WORK_BOUND
    try:
        cap = int(raw)
        if cap >= 1:
            return cap
    except ValueError:
        pass
    raise SettingError(f"QML_MAX_WORK must be an integer >= 1, got {raw!r}")


@dataclass(frozen=True)
class Quiver:
    vertices: tuple[str, ...]
    arrows: tuple[tuple[str, str], ...]

    def __post_init__(self):
        vs = set(self.vertices)
        if len(vs) != len(self.vertices):
            raise ValueError("duplicate vertex labels")
        for s, t in self.arrows:
            if s not in vs or t not in vs:
                raise ValueError(f"arrow ({s},{t}) uses an undeclared vertex")


DimVector = Mapping[str, int]
GeneralWeight = Mapping[str, Fraction]


def in_weight_space(theta: GeneralWeight, d: DimVector) -> bool:
    """Whether sum_q d_q * theta_q = 0."""
    return sum(Fraction(theta[q]) * d[q] for q in d) == 0


def qn_quiver(n: int) -> tuple[Quiver, dict[str, int]]:
    """The star quiver with n sources q_i -> p, dimensions d_p = 2, d_qi = 1."""
    if n < 3:
        raise ValueError("the star quiver needs n >= 3")
    vertices = ("p",) + tuple(f"q{i}" for i in range(n))
    arrows = tuple((f"q{i}", "p") for i in range(n))
    d = {"p": 2, **{f"q{i}": 1 for i in range(n)}}
    return Quiver(vertices, arrows), d


def pn_quiver(n: int) -> tuple[Quiver, dict[str, int]]:
    """The double-star quiver: arrows q_i -> p1 and q_i -> p2, all dimensions 1."""
    if n < 1:
        raise ValueError("the double-star quiver needs n >= 1")
    vertices = ("p1", "p2") + tuple(f"q{i}" for i in range(n))
    arrows = tuple(
        itertools.chain.from_iterable(
            ((f"q{i}", "p1"), (f"q{i}", "p2")) for i in range(n)
        )
    )
    d = {"p1": 1, "p2": 1, **{f"q{i}": 1 for i in range(n)}}
    return Quiver(vertices, arrows), d


def _is_multiple(d: DimVector, dp: Mapping[str, int]) -> bool:
    """Whether d = m * dp for an integer m >= 1."""
    m = None
    for q, dq in d.items():
        if dp[q] == 0:
            if dq != 0:
                return False
            continue
        if dq % dp[q] != 0:
            return False
        r = dq // dp[q]
        if m is None:
            m = r
        elif m != r:
            return False
    return m is not None


def wall_hyperplanes(d: DimVector, bound: int | None = None) -> list[dict[str, int]]:
    """All candidate wall normals d' with 0 < d' < d componentwise and d not
    an integer multiple of d'.

    The enumeration is exhaustive over prod_q (d_q + 1) tuples and guarded by
    a hard work bound.
    """
    limit = bound if bound is not None else max_work()
    total = 1
    for v in d.values():
        total *= v + 1
        if total > limit:
            raise TooLargeError(f"candidate enumeration size exceeds bound {limit}")
    keys = sorted(d)
    out = []
    for combo in itertools.product(*(range(d[q] + 1) for q in keys)):
        dp = dict(zip(keys, combo))
        if all(v == 0 for v in combo):
            continue
        if dp == {q: d[q] for q in keys}:
            continue
        if _is_multiple(d, dp):
            continue
        out.append(dp)
    return out


def weight_not_on_candidate_wall(theta: GeneralWeight, d: DimVector, bound: int | None = None) -> bool:
    """The sufficient hyperplane-avoidance condition: theta misses every
    candidate wall hyperplane {sum_q theta_q d'_q = 0}.

    Which candidates are realized as genuine walls is quiver-specific and
    handled in the chambers module for the two quivers of interest.
    """
    if not in_weight_space(theta, d):
        raise ValueError("weight is not in the weight space of d")
    for dp in wall_hyperplanes(d, bound):
        if sum(Fraction(theta[q]) * dp[q] for q in dp) == 0:
            return False
    return True


def weight_map_qn2_pn(
    theta: "object", a: int, b: int
) -> tuple[Fraction, Fraction, tuple[Fraction, ...]]:
    """Project a hypersimplex weight near the vertex e_a + e_b to a
    double-star weight (eta1, eta2, theta').

    Input is a QnWeight on n+2 indices (see chambers), a != b 0-based.  The
    image satisfies eta1 + eta2 = -1, sum theta' = 1, eta <= 0 <= theta'.
    """
    th = list(theta.theta)
    n2 = len(th)
    if a == b or not (0 <= a < n2 and 0 <= b < n2):
        raise ValueError("indices a, b must be distinct and in range")
    rest = [th[i] for i in range(n2) if i != a and i != b]
    s = sum(rest)
    if s == 0:
        raise ApexError("the apex weight e_a + e_b has no image")
    if th[a] + th[b] < s:
        raise OutsideConeError("weight outside the cone over e_a + e_b")
    lam = 1 / s
    eta1 = lam * (th[a] - 1)
    eta2 = lam * (th[b] - 1)
    return eta1, eta2, tuple(lam * v for v in rest)
