"""Point configurations on the projective line and their exact stability.

A star-quiver representation at a point is a tuple of n plane vectors; up to
the group action a nonzero vector is a point of the projective line, so a
configuration stores an optional ProjPoint per index (None encodes the zero
vector, which chart operations reject).  Double-star representations are the
same with two implicit anchor points (0:1) and (1:0).

Stability verdicts come in two independent implementations: the fast rule
driven by the coincidence partition, and a definition-level oracle that
enumerates every coordinate subrepresentation.  Their agreement is a test
target, so neither may call the other.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm
from typing import Optional, Sequence, Union

from .chambers import PnWeight, QnWeight, StabPolytope, PN, QN
from .projline import (
    INF_POINT,
    IPoint,
    Moebius,
    ProjPoint,
    Section,
    ZERO_POINT,
    moebius_from_triple,
    moebius_two_point,
    pp_eq,
)

STABLE = "stable"
STRICTLY_SEMISTABLE = "strictly_semistable"
UNSTABLE = "unstable"


class ZeroSectionError(ValueError):
    """A zero section where a projective point is required."""


class DegeneratePairError(ValueError):
    """Two anchor sections coincide (or one is zero)."""


class DegenerateAnchorError(ValueError):
    """Section unusable as a rescaling anchor."""


class EquationsFailError(ValueError):
    """The cross-chart equations do not hold."""


@dataclass(frozen=True)
class QnConfig:
    """n sections, each a point of the line or None for the zero vector."""

    sections: tuple[Section, ...]

    def __post_init__(self):
        if len(self.sections) < 3:
            raise ValueError("star-quiver configurations need n >= 3")

    @property
    def n(self) -> int:
        return len(self.sections)

    @cached_property
    def dets(self) -> tuple[tuple[int, ...], ...]:
        """The table dets[i][k] = idet(s_i, s_k) of integer determinants,
        built on first use and kept outside the fields (so equality, hashing
        and repr ignore it); raises ZeroSectionError on a zero section."""
        pts = [s.ihom for s in _require_points(self)]
        return tuple(tuple(a0 * b1 - a1 * b0 for b0, b1 in pts) for a0, a1 in pts)


@dataclass(frozen=True)
class PnConfig:
    """n sections with implicit anchors (0:1) and (1:0) on the line."""

    sections: tuple[Section, ...]

    def __post_init__(self):
        if len(self.sections) < 1:
            raise ValueError("double-star configurations need n >= 1")

    @property
    def n(self) -> int:
        return len(self.sections)


Config = Union[QnConfig, PnConfig]


@dataclass(frozen=True)
class CoincidencePartition:
    """Blocks of pairwise-coinciding sections; for double-star configurations
    also the blocks sitting at the two anchors (possibly empty)."""

    blocks: tuple[tuple[int, ...], ...]
    j0: tuple[int, ...] = ()
    jinf: tuple[int, ...] = ()


def coincidence_partition(config: Config) -> CoincidencePartition:
    groups: dict[IPoint, list[int]] = {}
    for i, s in enumerate(config.sections):
        if s is None:
            raise ZeroSectionError(f"section {i} is zero and has no projective class")
        groups.setdefault(s.ihom, []).append(i)
    blocks = tuple(sorted(tuple(v) for v in groups.values()))
    if isinstance(config, PnConfig):
        j0 = tuple(groups.get(ZERO_POINT.ihom, ()))
        jinf = tuple(groups.get(INF_POINT.ihom, ()))
        return CoincidencePartition(blocks, j0, jinf)
    return CoincidencePartition(blocks)


@dataclass(frozen=True)
class Verdict:
    kind: str
    witness: object = None

    @property
    def semistable(self) -> bool:
        return self.kind != UNSTABLE


def _scaled_theta(theta: Sequence[Fraction], extra: Sequence[Fraction] = ()) -> tuple[list[int], list[int], int]:
    d = lcm(*(f.denominator for f in itertools.chain(theta, extra)))
    return [int(f * d) for f in theta], [int(f * d) for f in extra], d


@lru_cache(maxsize=8192)
def _weight_tables(weight) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Integer-scaled coordinates and subset-sum table of a weight."""
    if isinstance(weight, QnWeight):
        t, extra, d = _scaled_theta(weight.theta, (Fraction(1),))
    else:
        t, extra, d = _scaled_theta(weight.theta, (-weight.eta1, -weight.eta2, Fraction(1)))
    n = len(t)
    pre = [0] * (1 << n)
    for i in range(n):
        bit = 1 << i
        ti = t[i]
        for m in range(bit):
            pre[bit | m] = pre[m] + ti
    return tuple(t), tuple(extra), tuple(pre)


def is_semistable(config: Config, weight) -> Verdict:
    """Stability from the coincidence partition (plus boundary rules).

    A zero section with positive weight destabilizes outright; on the
    boundary of the weight polytope nothing is stable, because dropping a
    source vertex or a sink summand yields a subrepresentation of value zero.
    Sums are evaluated on cached integer tables of the weight.
    """
    if isinstance(config, QnConfig):
        if not isinstance(weight, QnWeight) or weight.n != config.n:
            raise ValueError("configuration and weight do not match")
        t, extra, pre = _weight_tables(weight)
        d = extra[0]
        zeros = [i for i, s in enumerate(config.sections) if s is None]
        for i in zeros:
            if t[i] > 0:
                return Verdict(UNSTABLE, ("zero_section", i))
        groups: dict[IPoint, int] = {}
        for i, s in enumerate(config.sections):
            if s is not None:
                groups[s.ihom] = groups.get(s.ihom, 0) | (1 << i)
        tie = None
        for mask in sorted(groups.values()):
            v = pre[mask]
            if v > d:
                return Verdict(UNSTABLE, _mask_set(mask))
            if v == d and tie is None:
                tie = _mask_set(mask)
        if tie is not None:
            return Verdict(STRICTLY_SEMISTABLE, tie)
        for i, v in enumerate(t):
            if v == 0:
                return Verdict(STRICTLY_SEMISTABLE, ("drop_source", i))
        if zeros:
            return Verdict(STRICTLY_SEMISTABLE, ("zero_section", zeros[0]))
        return Verdict(STABLE, None)

    if not isinstance(weight, PnWeight) or weight.n != config.n:
        raise ValueError("configuration and weight do not match")
    t, extra, pre = _weight_tables(weight)
    h1, h2, _d = extra
    zeros = []
    m0 = minf = 0
    for i, s in enumerate(config.sections):
        if s is None:
            zeros.append(i)
            if t[i] > 0:
                return Verdict(UNSTABLE, ("zero_section", i))
        elif s.ihom == (0, 1):
            m0 |= 1 << i
        elif s.ihom == (1, 0):
            minf |= 1 << i
    vinf = pre[minf]
    v0 = pre[m0]
    if vinf > h1:
        return Verdict(UNSTABLE, ("inf_anchor", _mask_set(minf)))
    if v0 > h2:
        return Verdict(UNSTABLE, ("zero_anchor", _mask_set(m0)))
    if vinf == h1:
        return Verdict(STRICTLY_SEMISTABLE, ("inf_anchor", _mask_set(minf)))
    if v0 == h2:
        return Verdict(STRICTLY_SEMISTABLE, ("zero_anchor", _mask_set(m0)))
    for i, v in enumerate(t):
        if v == 0:
            return Verdict(STRICTLY_SEMISTABLE, ("drop_source", i))
    if zeros:
        return Verdict(STRICTLY_SEMISTABLE, ("zero_section", zeros[0]))
    return Verdict(STABLE, None)


def _mask_set(mask: int) -> frozenset[int]:
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


def brute_force_semistable(config: Config, weight) -> Verdict:
    """Definition-level oracle: enumerate every coordinate subrepresentation,
    evaluate its weight, and apply the definition directly.

    Integer arithmetic over a common denominator keeps this fast enough to
    run in bulk; the enumeration itself stays exhaustive.
    """
    n = config.n
    full = (1 << n) - 1
    if isinstance(config, QnConfig):
        if not isinstance(weight, QnWeight) or weight.n != n:
            raise ValueError("configuration and weight do not match")
        _, extra, pre = _weight_tables(weight)
        d = extra[0]
        zero_mask = 0
        lines: dict[IPoint, int] = {}
        for i, s in enumerate(config.sections):
            if s is None:
                zero_mask |= 1 << i
            else:
                lines[s.ihom] = lines.get(s.ihom, 0) | (1 << i)
        for axis in ((0, 1), (1, 0)):
            lines.setdefault(axis, 0)
        # (dim of the sink subspace, eligible source mask)
        cands = [(0, zero_mask), (2, full)]
        for key in sorted(lines):
            cands.append((1, lines[key] | zero_mask))
        found_zero = None
        for dim, elig in cands:
            base = -dim * d
            whole = full if dim == 2 else -1
            trivial = 0 if dim == 0 else -1
            smask = elig
            while True:
                if smask != whole and smask != trivial:
                    v = base + pre[smask]
                    if v > 0:
                        return Verdict(UNSTABLE, ("subrep", dim, smask))
                    if v == 0 and found_zero is None:
                        found_zero = ("subrep", dim, smask)
                if smask == 0:
                    break
                smask = (smask - 1) & elig
        if found_zero is not None:
            return Verdict(STRICTLY_SEMISTABLE, found_zero)
        return Verdict(STABLE, None)

    if not isinstance(weight, PnWeight) or weight.n != n:
        raise ValueError("configuration and weight do not match")
    _, extra, pre = _weight_tables(weight)
    h1, h2, _d = extra
    allow1 = 0  # sources whose first coordinate vanishes
    allow2 = 0
    for i, s in enumerate(config.sections):
        if s is None:
            allow1 |= 1 << i
            allow2 |= 1 << i
        else:
            if s.ihom[0] == 0:
                allow1 |= 1 << i
            if s.ihom[1] == 0:
                allow2 |= 1 << i
    found_zero = None
    for b1, b2 in ((0, 0), (0, 1), (1, 0), (1, 1)):
        elig = (full if b1 else allow1) & (full if b2 else allow2)
        base = -b1 * h1 - b2 * h2
        whole = full if b1 and b2 else -1
        trivial = 0 if not (b1 or b2) else -1
        smask = elig
        while True:
            if smask != whole and smask != trivial:
                v = base + pre[smask]
                if v > 0:
                    return Verdict(UNSTABLE, ("subrep", (b1, b2), smask))
                if v == 0 and found_zero is None:
                    found_zero = ("subrep", (b1, b2), smask)
            if smask == 0:
                break
            smask = (smask - 1) & elig
    if found_zero is not None:
        return Verdict(STRICTLY_SEMISTABLE, found_zero)
    return Verdict(STABLE, None)


def theta_polytope(config: Config) -> StabPolytope:
    """The stability polytope of a configuration, via its partition."""
    part = coincidence_partition(config)
    if isinstance(config, QnConfig):
        return StabPolytope(QN, config.n, partition=part.blocks)
    return StabPolytope(PN, config.n, j0=part.j0, jinf=part.jinf)


def _require_points(config: Config) -> tuple[ProjPoint, ...]:
    for i, s in enumerate(config.sections):
        if s is None:
            raise ZeroSectionError(f"section {i} is zero")
    return config.sections  # type: ignore[return-value]


def normalize_chart_qn(config: QnConfig, triple: Sequence[int]) -> QnConfig:
    """Apply the Moebius sending the three chosen sections to (0:1), (1:0),
    (1:1); all other sections are transformed along."""
    secs = _require_points(config)
    i1, i2, i3 = triple
    m = moebius_from_triple(secs[i1], secs[i2], secs[i3])
    return QnConfig(tuple(m.apply(s) for s in secs))


def normalize_chart_pn(config: PnConfig, index: int) -> PnConfig:
    """Rescale by the diagonal torus fixing both anchors so that the chosen
    section lands at (1:1)."""
    secs = _require_points(config)
    s = secs[index]
    if s == ZERO_POINT or s == INF_POINT:
        raise DegenerateAnchorError(f"section {index} sits at an anchor")
    m = moebius_from_triple(ZERO_POINT, INF_POINT, s)
    return PnConfig(tuple(m.apply(p) for p in secs))


def _anchor_frame(
    config: Config, i: Optional[int], j: Optional[int]
) -> tuple[ProjPoint, ProjPoint, Sequence[int], Sequence[int]]:
    """Anchors p, q of a chart and rows x[k] = idet(p, s_k), y[k] = idet(q, s_k):
    a Moebius sending p to (0:1) and q to (1:0) sends s_k to (-x[k] : y[k])
    up to a diagonal factor.  Star-quiver anchors are the sections i and j,
    with rows from `dets`; double-star ones are (0:1) and (1:0), i, j omitted."""
    if isinstance(config, PnConfig):
        secs = _require_points(config)
        if i is not None or j is not None:
            raise ValueError("double-star configurations have fixed anchors; omit i and j")
        return ZERO_POINT, INF_POINT, [-s.ihom[0] for s in secs], [s.ihom[1] for s in secs]
    d = config.dets
    if i is None or j is None or i == j:
        raise ValueError("two distinct anchor indices are required")
    if not (0 <= i < len(d) and 0 <= j < len(d)):
        raise ValueError(f"anchor indices {i} and {j} must lie in range({len(d)})")
    if not d[i][j]:
        raise DegeneratePairError(f"anchor sections {i} and {j} coincide")
    return config.sections[i], config.sections[j], d[i], d[j]


def check_limit_equations(
    config_a: Config, config_b: Config, i: Optional[int] = None, j: Optional[int] = None
) -> bool:
    """Whether the two configurations satisfy the cross-chart equations
    for the anchor pair (i, j).

    With x, y the anchor rows of a (x[k] = D_a[i][k], y[k] = D_a[j][k],
    D_a the determinant table; the implicit anchors for double-star
    configurations) and x', y' those of b, the equations say that the
    pairs (x[k] y'[k] : y[k] x'[k]) other than (0, 0) all define one
    projective value.  Equivalently, after sending section i to (0:1) and
    section j to (1:0) in both charts, all mark pairs lie on a single
    diagonal (1,1)-curve through the two anchor corners.
    """
    if type(config_a) is not type(config_b) or config_a.n != config_b.n:
        raise ValueError("configurations must share a mode and a size")
    _, _, xa, ya = _anchor_frame(config_a, i, j)
    _, _, xb, yb = _anchor_frame(config_b, i, j)
    # a pair (0, 0) passes every comparison; the first other pair fixes r
    r0 = r1 = 0
    for p, q, s, t in zip(xa, yb, ya, xb):
        a, b = p * q, s * t
        if a * r1 != b * r0:
            return False
        if not (r0 or r1):
            r0, r1 = a, b
    return True


@dataclass(frozen=True)
class GluedFiber:
    """The fiber curve determined by two chart configurations.

    Irreducible: the charts differ by the connecting Moebius map.
    Two components: each chart is an isomorphism on one component and
    contracts the other to its node point; `marks_on_a` collects the indices
    living on the component seen by the first chart (dually `marks_on_b`),
    and indices in both sets sit at the node.
    """

    kind: str  # "irreducible" | "two_components"
    moebius: Optional[Moebius] = None
    marks_on_a: Optional[frozenset[int]] = None
    marks_on_b: Optional[frozenset[int]] = None
    node_a: Optional[ProjPoint] = None
    node_b: Optional[ProjPoint] = None


IRREDUCIBLE = "irreducible"
TWO_COMPONENTS = "two_components"


def glue_fiber(
    config_a: Config, config_b: Config, i: Optional[int] = None, j: Optional[int] = None
) -> GluedFiber:
    """Glue two equation-compatible charts into their common fiber curve."""
    if not check_limit_equations(config_a, config_b, i, j):
        raise EquationsFailError("configurations are not related by the cross-chart equations")
    pa, qa, xa, ya = _anchor_frame(config_a, i, j)
    pb, qb, xb, yb = _anchor_frame(config_b, i, j)
    n = config_a.n
    k0 = next((k for k in range(n) if xa[k] and ya[k] and xb[k] and yb[k]), None)
    if k0 is not None:
        # the connecting map takes the anchors and one common off-anchor
        # section of the first chart to those of the second
        ma = moebius_from_triple(pa, qa, config_a.sections[k0])
        mb = moebius_from_triple(pb, qb, config_b.sections[k0])
        m = mb.inverse().compose(ma)
        e00, e01, e10, e11 = m.imat
        for sa, sb in zip(config_a.sections, config_b.sections):
            (a0, a1), (b0, b1) = sa.ihom, sb.ihom
            if (e00 * a0 + e01 * a1) * b1 != (e10 * a0 + e11 * a1) * b0:
                raise EquationsFailError("the connecting map does not match every section")
        return GluedFiber(IRREDUCIBLE, moebius=m)
    # the fiber is a chain of two lines with its node at an anchor corner;
    # the corner orientation is read off where the varying sections of one
    # chart collapse in the other
    u = [(-x, y) for x, y in zip(xa, ya)]
    v = [(-x, y) for x, y in zip(xb, yb)]
    offs_a = [k for k in range(n) if 0 not in u[k]]
    offs_b = [k for k in range(n) if 0 not in v[k]]
    if not offs_a or not offs_b:
        raise EquationsFailError("fiber undetermined: one chart has only anchored sections")
    cb_vals = {v[k] for k in offs_a}
    ca_vals = {u[k] for k in offs_b}
    if len(cb_vals) != 1 or len(ca_vals) != 1:
        raise EquationsFailError("the varying sections collapse to more than one anchor")
    corner_b = next(iter(cb_vals))
    corner_a = next(iter(ca_vals))
    if corner_a == corner_b:
        raise EquationsFailError("the node corner does not mix the two anchors")
    # a corner (0 : c) is the image of the first anchor, (c : 0) of the second
    return GluedFiber(
        TWO_COMPONENTS,
        marks_on_a=frozenset(k for k in range(n) if v[k] == corner_b),
        marks_on_b=frozenset(k for k in range(n) if u[k] == corner_a),
        node_a=qa if corner_a[0] else pa,
        node_b=qb if corner_b[0] else pb,
    )


def map_config_qn2_pn(config: QnConfig, a: int, b: int) -> PnConfig:
    """Send the section at index a to (1:0) and the one at index b to (0:1),
    then drop both; the result is indexed by the remaining indices in order.
    Zero sections pass through as zero."""
    sa, sb = config.sections[a], config.sections[b]
    if sa is None or sb is None:
        raise DegeneratePairError("anchor sections must be nonzero")
    if pp_eq(sa, sb):
        raise DegeneratePairError("anchor sections coincide")
    m = moebius_two_point(sb, sa)
    out = tuple(
        (m.apply(s) if s is not None else None)
        for k, s in enumerate(config.sections)
        if k not in (a, b)
    )
    return PnConfig(out)


def moebius_equivalent(config_a: QnConfig, config_b: QnConfig) -> bool:
    """Whether one star-quiver configuration is a Moebius transform of the
    other, respecting indices.

    With sections r1, r2, r3 from three coincidence blocks, the Moebius
    sending them to (0:1), (1:0), (1:1) sends section k to
    (D[r1][k] D[r2][r3] : D[r2][k] D[r1][r3]), D the determinant table; the
    configurations are equivalent when these values agree for every k.
    """
    if not (isinstance(config_a, QnConfig) and isinstance(config_b, QnConfig)):
        raise ValueError("Moebius equivalence is defined for star-quiver configurations")
    if config_a.n != config_b.n:
        return False
    pa = coincidence_partition(config_a)
    pb = coincidence_partition(config_b)
    if pa.blocks != pb.blocks:
        return False
    if len(pa.blocks) <= 2:
        return True  # at most two distinct points on each side
    r1, r2, r3 = (block[0] for block in pa.blocks[:3])
    da, db = config_a.dets, config_b.dets
    a1, a2, b1, b2 = da[r1], da[r2], db[r1], db[r2]
    ca, cb = a2[r3] * b1[r3], b2[r3] * a1[r3]
    return all(x * y * ca == z * w * cb for x, y, z, w in zip(a1, b2, b1, a2))
