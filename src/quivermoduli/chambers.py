"""Normalized weight polytopes and their wall-and-chamber decompositions.

Two ambient polytopes appear.  For the star quiver the normalized weights
form the hypersimplex (all coordinates in [0,1], total 2); its inner walls
are the loci where a subset of coordinates sums to 1, one wall per unordered
partition {J, complement}.  For the double-star quiver the weights form a
product of simplices (eta1 + eta2 = -1 <= 0, theta >= 0 summing to 1) and
the inner walls are the loci where a subset of thetas sums to -eta1, one
ordered wall per proper nonempty subset.

Chambers are enumerated exactly: a sign vector over the walls is realized
iff the corresponding open system admits a rational point, decided by the
max-slack LP in `lp`.  One walk finds them all (`_enumerate_regions`):
starting from a point off every wall, built in closed form (`_Space.g`), it
flips one hyperplane at a time and keeps every realized neighbour.  The
symmetric group S_n permutes the marked points, the coordinates theta_i and
the walls (`_symmetry`), and the max-slack LP of a permuted region is the
permuted LP, so the walk of the wall arrangements solves one LP per
S_n-orbit: when the LP's optimal face is a single point, which
`lp.strict_interior_point` decides exactly, each orbit member's witness is
the permuted witness.  An empty flip teaches a *core*, signed rows that
with the box and the equalities alone leave nothing, and a later flip that
agrees with a core is skipped without an LP.  So the chambers and
witnesses are those of the plain walk, the one `cover_check` runs on its
facet arrangements.

The walk keeps each region as an int bitmask, bit k set where hyperplane k
reads +1, so a flip is an XOR and a transposition a bit permutation
(per-byte tables) and an XOR; and each witness as integers, a denominator
and a tuple of numerators, so an orbit member's witness is the
representative's numerators permuted.  Sign tuples are built only for the
LPs, and a `Chamber` builds its signs and its weight on first use.

Every linear constraint takes one form, the LP row (coeffs, rhs) read as
coeffs . x - rhs over the variables of `_space`, the one ambient polytope of
each size that every arrangement is built on: the box, the walls, and the
facets that cut a stability polytope or a Hassett target out of it
(`_constraints`).  `cover_check` walks the arrangement of the
members' facet rows inside the open target, from a seed built in closed
form, and reads membership off the region masks; only an uncovered witness
is decoded into a weight.
"""
from __future__ import annotations

import functools
import itertools
import os
from fractions import Fraction
from math import gcd
from operator import getitem, itemgetter
from typing import Optional, Sequence, Union

from .lp import equality_row, strict_interior_point, strict_row
from .projline import _Frozen, _rat, _scaled

_set = object.__setattr__

QN = "qn"
PN = "pn"

DEFAULT_WORK_BOUND = 10**6


class TooLargeError(ValueError):
    """An enumeration would exceed the configured work bound."""


class SettingError(Exception):
    """An environment variable holds a value the program cannot use."""


class OutsideConeError(ValueError):
    """Weight outside the cone over the distinguished vertex."""


class ApexError(ValueError):
    """The apex weight itself, where the projection is undefined."""


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


def check_work(count, what: str) -> None:
    """Raise TooLargeError if a catalogue of `count` items (`what`, a plural
    noun phrase) exceeds max_work(); an early-stopped (inf) or huge count reads "more than" it."""
    cap = max_work()
    if count > cap:
        shown = f"more than {cap}" if count >= cap << 64 else count
        raise TooLargeError(f"{shown} {what} exceed QML_MAX_WORK ({cap})")


def _field_hash_once(self) -> int:
    """The field hash, computed on first use and kept: weights key the
    cached stability tables, and hashing Fractions is slow."""
    try:
        return self._hash
    except AttributeError:
        h = hash(self._astuple(self))
        _set(self, "_hash", h)
        return h


def _check_qn(den: int, nums) -> None:
    """The checks of the hypersimplex weight nums / den (den > 0)."""
    if min(nums) < 0 or max(nums) > den:
        raise ValueError("coordinates must lie in [0, 1]")
    if sum(nums) != 2 * den:
        raise ValueError("coordinates must sum to 2")


def _check_pn(eta_den: int, a1: int, a2: int, theta_den: int, nums) -> None:
    """The checks of the double-star weight with eta (a1, a2) / eta_den and
    theta nums / theta_den (dens > 0)."""
    if a1 > 0 or a2 > 0:
        raise ValueError("eta coordinates must be <= 0")
    if a1 + a2 != -eta_den:
        raise ValueError("eta coordinates must sum to -1")
    if min(nums) < 0:
        raise ValueError("theta coordinates must be >= 0")
    if sum(nums) != theta_den:
        raise ValueError("theta coordinates must sum to 1")


class QnWeight(_Frozen):
    """A point of the hypersimplex: 0 <= theta_i <= 1, sum theta_i = 2."""

    _fields = ("theta",)
    __slots__ = ("theta", "_hash")
    __hash__ = _field_hash_once

    def __init__(self, theta: tuple[Fraction, ...]):
        th = tuple(_rat(v) for v in theta)
        _set(self, "theta", th)
        if len(th) < 3:
            raise ValueError("hypersimplex weights need n >= 3")
        _check_qn(*_scaled(th))

    @property
    def n(self) -> int:
        return len(self.theta)


class PnWeight(_Frozen):
    """A point of the product of simplices: eta <= 0 with eta1 + eta2 = -1,
    theta >= 0 with sum theta_i = 1."""

    _fields = ("eta1", "eta2", "theta")
    __slots__ = ("eta1", "eta2", "theta", "_hash")
    __hash__ = _field_hash_once

    def __init__(self, eta1: Fraction, eta2: Fraction, theta: tuple[Fraction, ...]):
        e1, e2 = _rat(eta1), _rat(eta2)
        th = tuple(_rat(v) for v in theta)
        _set(self, "eta1", e1)
        _set(self, "eta2", e2)
        _set(self, "theta", th)
        if len(th) < 1:
            raise ValueError("double-star weights need n >= 1")
        m, (a1, a2) = _scaled((e1, e2))
        _check_pn(m, a1, a2, *_scaled(th))

    @property
    def n(self) -> int:
        return len(self.theta)


Weight = Union[QnWeight, PnWeight]


class _Wall(_Frozen):
    """The fields of both wall classes."""

    __slots__ = _fields = ("n", "j")

    def __init__(self, n: int, j: tuple[int, ...]):
        _set(self, "n", n)
        _set(self, "j", j)


class QnWall(_Wall):
    """Inner wall of the hypersimplex: the locus sum_{i in j} theta_i = 1.

    Stored side is the lexicographically smaller of {J, complement}; the two
    sides define the same wall.
    """

    __slots__ = ()


class PnWall(_Wall):
    """Inner wall of the product of simplices: sum_{i in j} theta_i = -eta1.

    The stored subset is the infinity side and is not identified with its
    complement (whose equation involves -eta2 instead).
    """

    __slots__ = ()


Wall = Union[QnWall, PnWall]


def canonical_qn_wall(n: int, j) -> QnWall:
    side = tuple(sorted(j))
    comp = tuple(i for i in range(n) if i not in set(side))
    if not (2 <= len(side) <= n - 2):
        raise ValueError(f"inner walls need 2 <= |J| <= n-2, got {side}")
    return QnWall(n, min(side, comp))


def _qn_wall_sides(n: int) -> list[tuple[int, ...]]:
    """The stored side of every hypersimplex wall on n marks, in sorted
    order: the splits {J, complement} with two or more marks on each side,
    each as its lexicographically smaller side, the one that holds mark 0."""
    return sorted((0, *rest) for k in range(1, n - 2) for rest in itertools.combinations(range(1, n), k))


def enumerate_walls(mode: str, n: int) -> list[Wall]:
    """All inner walls, each exactly once, ordered by their stored sides."""
    if n > 12:
        raise TooLargeError("wall enumeration capped at n <= 12")
    if mode == QN:
        if n < 3:
            raise ValueError("hypersimplex walls need n >= 3")
        return [QnWall(n, j) for j in _qn_wall_sides(n)]
    if mode == PN:
        if n < 1:
            raise ValueError("double-star walls need n >= 1")
        sides = sorted(j for k in range(1, n) for j in itertools.combinations(range(n), k))
        return [PnWall(n, j) for j in sides]
    raise ValueError(f"unknown mode {mode!r}")


def wall_value(weight: Weight, wall: Wall) -> Fraction:
    """Signed distance surrogate: positive on the + side of the wall."""
    if isinstance(wall, QnWall):
        return sum(weight.theta[i] for i in wall.j) - 1
    return sum(weight.theta[i] for i in wall.j) + weight.eta1


class WeightClass(_Frozen):
    """Result of classifying a weight against the wall structure."""

    __slots__ = _fields = ("generic", "signs", "inner", "outer")

    def __init__(self, generic: bool, signs: Optional[tuple[int, ...]], inner: tuple[Wall, ...],
                 outer: tuple[tuple[str, int], ...]):
        _set(self, "generic", generic)
        _set(self, "signs", signs)
        _set(self, "inner", inner)
        _set(self, "outer", outer)


def classify_weight(weight: Weight) -> WeightClass:
    """Exact wall membership; generic iff interior and on no inner wall."""
    outer = []
    if isinstance(weight, QnWeight):
        mode = QN
        for i, v in enumerate(weight.theta):
            if v == 0:
                outer.append(("theta_zero", i))
            elif v == 1:
                outer.append(("theta_one", i))
    else:
        mode = PN
        for i, v in enumerate(weight.theta):
            if v == 0:
                outer.append(("theta_zero", i))
        if weight.eta1 == 0:
            outer.append(("eta_zero", 0))
        if weight.eta2 == 0:
            outer.append(("eta_zero", 1))
    walls = enumerate_walls(mode, weight.n)
    inner = []
    signs = []
    for w in walls:
        v = wall_value(weight, w)
        if v == 0:
            inner.append(w)
            signs.append(0)
        else:
            signs.append(1 if v > 0 else -1)
    if inner or outer:
        return WeightClass(False, None, tuple(inner), tuple(outer))
    return WeightClass(True, tuple(signs), (), ())


# ---------------------------------------------------------------------------
# LP encodings.  Variable vectors are theta for the hypersimplex and
# (h1, h2, theta) with h_j = -eta_j for the product of simplices; all
# variables are nonnegative by construction.


class RationalTable(dict):
    """make(num, den) at [den][num], each value and each den's table built
    on first use: the witnesses of a polytope share few coordinates (35
    distinct across the 1678 at qn 6)."""

    __slots__ = ("make", "den")

    def __init__(self, make, den=None):
        self.make = make
        self.den = den

    def __missing__(self, key):
        value = self[key] = RationalTable(self.make, key) if self.den is None else self.make(key, self.den)
        return value


class _Space:
    """One ambient polytope, built once per size by `_space(mode, n)`: the
    variable count nvars, the equality rows eqs and strict box rows box_rows
    (coeffs, rhs), the same rows prepared once for every LP as eq and box
    (`lp.equality_row`, `lp.strict_row`), and decode, which maps the integer
    witness (den, nums) of an LP point nums / den (theta, or (h1, h2, theta)
    with h_j = -eta_j) to its weight, running the weight class's checks on
    the integers and building each distinct coordinate Fraction once.

    g is a point strictly inside the polytope and on no block row, as
    integers (den, nums).  For the hypersimplex g has theta_i = 2 (2^n +
    2^i) / d, d = (n + 1) 2^n - 1: they sum to 2, and the largest is below 1
    as 2^(n+1) + 2^n + 1 < (n + 1) 2^n for n >= 3.  A block row sum_B theta
    - 1 is zero only where d sum_B theta = 2 (|B| 2^n + sum_B 2^i) is d, but
    one is even and the other odd.  For the product of simplices g has h =
    (1/2, 1/2) and theta_i = 2^i / (2^n - 1); a block row sum_J theta - h_j
    is zero only where the even 2 sum_J 2^i is the odd 2^n - 1.  Every wall
    row and every stability polytope's facet row is a block row, so g seeds
    the chamber walks and `cover_check`'s walks without a target."""

    __slots__ = ("nvars", "eqs", "box_rows", "eq", "box", "decode", "g")

    def __init__(self, mode: str, n: int):
        fractions = RationalTable(Fraction)
        top = 1 << n
        if mode == QN:
            self.nvars = n
            self.eqs = (((1,) * n, 2),)
            box = []
            for i in range(n):
                e = _indicator(n, (i,))
                box.append((e, 0))  # theta_i > 0
                box.append((tuple(-c for c in e), -1))  # theta_i < 1
            self.g = (n + 1) * top - 1, tuple(2 * (top + (1 << i)) for i in range(n))

            def decode(w):
                den, nums = w
                _check_qn(den, nums)
                # the constructor would repeat the checks on Fractions
                weight = object.__new__(QnWeight)
                _set(weight, "theta", tuple(map(fractions[den].__getitem__, nums)))
                return weight

        elif mode == PN:
            self.nvars = n + 2
            self.eqs = (((1, 1) + (0,) * n, 1), ((0, 0) + (1,) * n, 1))
            box = [(_indicator(n + 2, (i,)), 0) for i in range(n + 2)]  # h_j > 0, theta_i > 0
            self.g = 2 * (top - 1), (top - 1, top - 1, *(2 << i for i in range(n)))

            def decode(w):
                den, (h1, h2, *theta) = w
                _check_pn(den, -h1, -h2, den, theta)
                value = fractions[den].__getitem__
                weight = object.__new__(PnWeight)
                _set(weight, "eta1", value(-h1))
                _set(weight, "eta2", value(-h2))
                _set(weight, "theta", tuple(map(value, theta)))
                return weight

        else:
            raise ValueError(f"unknown mode {mode!r}")
        self.box_rows = tuple(box)
        self.eq = tuple(equality_row(c, h) for c, h in self.eqs)
        self.box = tuple(strict_row(c, h) for c, h in box)
        self.decode = decode


_space = functools.cache(_Space)


def _indicator(length: int, idxs) -> tuple[int, ...]:
    return tuple(1 if i in idxs else 0 for i in range(length))


def _wall_row(mode: str, n: int, wall: Wall) -> tuple[tuple[int, ...], int]:
    """(coeffs, rhs) with coeffs . x - rhs = wall_value."""
    if mode == QN:
        return _indicator(n, wall.j), 1
    return (-1, 0) + _indicator(n, wall.j), 0  # -h1 = eta1


def _bits_of(ks) -> int:
    """The bitmask with bit k set for each k in ks."""
    mask = 0
    for k in ks:
        mask |= 1 << k
    return mask


def _code(mask: int, m: int) -> str:
    """A region's signs over m hyperplanes as "0" (-1) and "1" (+1), hyperplane
    0 first, sorting as the sign tuples do (bit m keeps m digits, none at 0)."""
    return format(mask | 1 << m, "b")[:0:-1]


def _signs_of(mask: int, m: int) -> tuple[int, ...]:
    return tuple([1 if mask >> k & 1 else -1 for k in range(m)])


class Chamber(_Frozen):
    """A realized sign vector together with an interior witness weight.

    `mask` has bit k set where wall k reads +1.  A chamber of
    `enumerate_chambers` holds the walk's region, its `mask` and `point`,
    the integer witness (den, nums) of `_region_witness`, and builds its
    `signs` and `witness` from them on first use, kept outside the fields as
    `QnConfig` keeps `_dets`: equality, hashing and repr are those of
    Chamber(signs, witness).  A chamber made from those has no `point`."""

    _fields = ("signs", "witness")
    __slots__ = ("_signs", "_witness", "mask", "point", "_read")

    def __init__(self, signs: tuple[int, ...], witness: Weight):
        _set(self, "_signs", signs)
        _set(self, "_witness", witness)
        _set(self, "mask", _bits_of(k for k, s in enumerate(signs) if s > 0))

    @property
    def signs(self) -> tuple[int, ...]:
        try:
            return self._signs
        except AttributeError:
            signs = _signs_of(self.mask, self._read[0])
            _set(self, "_signs", signs)
            return signs

    @property
    def witness(self) -> Weight:
        try:
            return self._witness
        except AttributeError:
            witness = self._read[1](self.point)
            _set(self, "_witness", witness)
            return witness


def _walk_chamber(mask: int, point, read) -> Chamber:
    chamber = object.__new__(Chamber)  # read is (m, decode)
    _set(chamber, "mask", mask)
    _set(chamber, "point", point)
    _set(chamber, "_read", read)
    return chamber


class _Arrangement:
    """A hyperplane arrangement in an ambient polytope, prepared once for
    the LPs of every sign vector over it.

    hyps are the hyperplane rows (coeffs, rhs) in the ambient `_Space`
    `space`, cut down by box_rows and eqs, further strict box rows and
    equality rows (a Hassett target's facets, a wall).  Every row enters
    each LP as the same starting-tableau row, prepared once: eqs, eq and box
    are the space's rows followed by the added ones, prepared here, and
    rows[k][s] is hyperplane k on side s (s = 1 or -1; index 0 is unused).
    The implications (i, si, j, sj) of `_subset_implications` and their
    contrapositives (j, -sj, i, -si) are kept as masks: implied[i][b] is the
    pair (on, off) of the rows that bit b of row i (0 for sign -1, 1 for +1)
    forces to +1 and to -1.  The subset implications are already closed
    under contraposition, so the contrapositives add none.  A
    self-implication (k, s, k, -s) says that row k never reads s: the walk
    rejects each flip to that side before any LP, while row k stays in
    every LP on its other side.

    `group` lists generators of a group of symmetries of the arrangement
    that keep the box, the equalities and the hyperplane classes.  Each is
    a pair (src, vsrc) of index tuples read off the image: with m
    hyperplanes, the image of a sign vector s reads (*s, *-s)[src[k]] at
    each k, so src[k] >= m where the hyperplane's sign reverses, and the
    image of a point x reads x[vsrc[j]] at each j.  With no generators the
    walk runs without symmetry.  moves[g] is generator g on masks: (tables,
    flips, point image); tables[b][v] holds where the bits v of byte b go,
    so a mask's image is the sum of its bytes' entries XOR flips, the
    hyperplanes whose sign reverses.
    """

    __slots__ = ("space", "eqs", "hyps", "box", "eq", "rows", "implied", "group", "moves")

    def __init__(self, space, hyps, implications=(), group=(), box_rows=(), eqs=()):
        self.space = space
        self.eqs = space.eqs + eqs
        self.hyps = hyps
        self.box = space.box + tuple(strict_row(g, h) for g, h in box_rows)
        self.eq = space.eq + tuple(equality_row(g, h) for g, h in eqs)
        self.rows = [(None, strict_row(g, h), strict_row(tuple(-c for c in g), -h)) for g, h in hyps]
        self.implied = [([0, 0], [0, 0]) for _ in hyps]
        for i, si, j, sj in implications:
            self.implied[i][si > 0][sj < 0] |= 1 << j
            self.implied[j][sj < 0][si > 0] |= 1 << i
        self.group = group
        m = len(hyps)
        self.moves = []
        for src, vsrc in group:
            dest = [0] * m
            for k, j in enumerate(src):
                dest[j % m] = k
            tables = []
            for low in range(0, m, 8):
                # each entry is the entry without its lowest bit, plus that bit's image
                table = [0] * (1 << min(8, m - low))
                for v in range(1, len(table)):
                    bit = v & -v
                    table[v] = table[v ^ bit] | 1 << dest[low + bit.bit_length() - 1]
                tables.append(table)
            self.moves.append((tables, _bits_of(k for k, j in enumerate(src) if j >= m), itemgetter(*vsrc)))


def _region_witness(arr, signs, tweak=None, core=None, unique=None):
    """The LP witness of a sign vector as integers (den, nums), the point
    nums / den over the least common denominator den of its coordinates, or
    None if its region is empty.

    When it is empty, a `core` list receives the pairs (k, signs[k]) of a
    set of hyperplane rows that, with the box and the equalities alone,
    already leave nothing; when it is not, a `unique` list receives whether
    the witness is the only optimum of its LP (see
    `lp.strict_interior_point`)."""
    # rows dominated by another active row (subset side, same threshold
    # form) are redundant in the strict system and dropped before the LP
    mask = _bits_of(k for k, s in enumerate(signs) if s > 0)
    dominated = 0
    for i, s in enumerate(signs):
        on, off = arr.implied[i][s > 0]
        dominated |= on & mask | off & ~mask
    keep = [k for k in range(len(signs)) if not dominated >> k & 1]
    rows = arr.rows
    found: list[int] = []
    x = strict_interior_point(arr.space.nvars, [*arr.box, *(rows[k][signs[k]] for k in keep)],
                              arr.eq, tweak=tweak, core=found, unique=unique)
    if core is not None:
        nbox = len(arr.box)
        core.extend((keep[i - nbox], signs[keep[i - nbox]]) for i in found if i >= nbox)
    if x is None:
        return None
    den, nums = _scaled(x)
    return den, tuple(nums)


def _subset_implications(walls: Sequence[Wall], n: int):
    """Ordered-sign implications (i, si, j, sj): sign i == si forces sign j == sj.

    Each orientation of a wall is of the form "sum over a side subset exceeds
    a threshold"; within a family sharing the threshold, a smaller side
    implies a larger one.  Hypersimplex walls contribute both orientations to
    one family (threshold 1); double-star walls contribute the positive
    orientation to the h1 family and the negated one, rewritten over the
    complement, to the h2 family.
    """
    universe = set(range(n))
    oriented = []
    for idx, w in enumerate(walls):
        side = set(w.j)
        plus, minus = ("one", "one") if isinstance(w, QnWall) else ("h1", "h2")
        oriented += [(idx, 1, side, plus), (idx, -1, universe - side, minus)]
    return [
        (i, si, j, sj) for i, si, a, fa in oriented for j, sj, b, fb in oriented if i != j and fa == fb and a < b
    ]


def _row_signs(rows, m, xs) -> tuple[int, ...]:
    """The sign (1, 0 or -1) of coeffs . x - rhs for each row at the point
    x = xs / m given as integers (m > 0): m times the value is
    coeffs . xs - m rhs, an integer for integer rows."""
    signs = []
    for coeffs, rhs in rows:
        v = sum(c * xi for c, xi in zip(coeffs, xs)) - rhs * m
        signs.append((v > 0) - (v < 0))
    return tuple(signs)


def _generic_seed(arr):
    """A point strictly inside the box and off every hyperplane, as integers
    (den, nums), or None if the box is empty: the LP point of the box,
    moved off each hyperplane in turn by pinning a sign of it that the LPs
    find open.  Only `wall_relative_interior_point` uses it, and returns
    the point; the walks start from g of `_space` (`enumerate_chambers`,
    `cover_check`) or from `_cover_seed`."""
    pinned: list[tuple[int, int]] = []
    x = strict_interior_point(arr.space.nvars, arr.box, arr.eq)
    if x is None:
        return None
    while True:
        den, nums = _scaled(x)
        signs = _row_signs(arr.hyps, den, nums)
        if 0 not in signs:
            return den, nums
        zero_at = signs.index(0)
        for s in (1, -1):
            trial = pinned + [(zero_at, s)]
            rows = [*arr.box, *(arr.rows[k][sk] for k, sk in trial)]
            x2 = strict_interior_point(arr.space.nvars, rows, arr.eq)
            if x2 is not None:
                pinned, x = trial, x2
                break
        else:
            raise RuntimeError("hyperplane cannot be strictly avoided on either side")


def _hyperplane_classes(eqs, hyps) -> list[list[int]]:
    """Indices of `hyps` grouped by the hyperplane they cut from the affine
    space `eqs`, in order of first appearance.

    Each row, in homogeneous form (coeffs, -rhs) scaled to integers, is
    reduced modulo the equality rows by fraction-free elimination
    (v := b_p v - v_p b for each basis row b with pivot p, a nonzero
    multiple of the reduction over the rationals) and divided by the gcd of
    its entries, signed so that its first nonzero entry is positive; rows
    with the same reduced vector define the same hyperplane.  A row that
    reduces to a constant never changes sign and stays a class of its own.
    """
    basis: list[tuple[int, list[int]]] = []

    def reduce(v):
        for p, b in basis:
            f = v[p]
            if f:
                d = b[p]
                v = [d * a - f * c for a, c in zip(v, b)]
        return v

    for coeffs, rhs in eqs:
        v = reduce(_scaled((*coeffs, -rhs))[1])
        p = next((k for k, a in enumerate(v) if a), None)
        if p is not None:
            basis.append((p, v))
    classes: dict[tuple, list[int]] = {}
    for k, (coeffs, rhs) in enumerate(hyps):
        v = reduce(_scaled((*coeffs, -rhs))[1])
        if any(v[:-1]):
            g = gcd(*v)
            if next(a for a in v if a) < 0:
                g = -g
            key = tuple(a // g for a in v)
        else:
            key = k
        classes.setdefault(key, []).append(k)
    return list(classes.values())


def _add_orbit(arr, regions, mask, w, certified, cap):
    """Put the region `mask`, with integer witness w = (den, nums), and
    every image of it under `arr.moves` into `regions`.  If w is `certified`
    as the only optimum of its LP, an image's witness is (den, the permuted
    nums); otherwise each image gets its own LP."""
    regions[mask] = w
    if len(regions) > cap:
        raise TooLargeError("region enumeration exceeds QML_MAX_WORK")
    if not arr.moves:
        return
    m = len(arr.hyps)
    size = len(arr.moves[0][0])
    todo = [(mask, w)]
    while todo:
        mask, w = todo.pop()
        code = mask.to_bytes(size, "little")
        for tables, flips, point_image in arr.moves:
            image = sum(map(getitem, tables, code)) ^ flips
            if image in regions:
                continue
            if certified:
                y = w[0], point_image(w[1])
            else:
                y = _region_witness(arr, _signs_of(image, m))
                if y is None:
                    raise RuntimeError("a symmetry of the arrangement maps a region to nothing")
            regions[image] = y
            if len(regions) > cap:
                raise TooLargeError("region enumeration exceeds QML_MAX_WORK")
            todo.append((image, y))


def _enumerate_regions(arr, seed):
    """All realized sign vectors over the hyperplane list, with witnesses,
    as pairs (mask, (den, nums)) sorted as their sign tuples are.

    A walk from the region of `seed`, a point (den, nums) strictly inside
    the box and off every hyperplane (g of `_space`, or `_cover_seed`), or
    None for an empty box: each step flips one hyperplane class (see
    `_hyperplane_classes`) and keeps the result if it passes the
    implication filter and its strict system is feasible.  The
    walk is complete because any two regions are joined by a segment that
    meets no intersection of two distinct hyperplanes, and each crossing
    along it flips exactly one class; without merging coinciding rows a
    single-row flip could never cross a hyperplane written twice.  Every
    witness is the integer pair of `_region_witness`, so it depends only on
    the sign vector and not on the seed or the order of the walk.  A region
    is its mask (bit k set where hyperplane k reads +1), a flip is an XOR
    with its class's mask, and only the LPs read sign tuples.

    With generators in `arr.group`, a kept region brings in its whole orbit
    (`_add_orbit`), and only the region itself, the orbit's representative,
    is flipped in turn.  `regions` is then always a union of whole orbits,
    so the `flipped in regions` test drops every member of a known orbit
    and no canonical form is needed.  The walk stays complete.  Each group
    element g maps regions to regions and, as it keeps the hyperplane
    classes, flips to flips: it is an automorphism of the flip graph.  Take
    a path in that graph from the seed's region to any region, and its
    first vertex V not in `regions`, if any; its predecessor U is g(R) for
    the representative R of U's orbit, and R was flipped.  Then g^-1(V) is a
    realized flip of R, so R's step to it put its orbit, V included, into
    `regions`.

    The image under g of R's max-slack LP is g(R)'s: box and equality rows
    go to box and equality rows, each signed hyperplane row to one of g(R)
    or to one that agrees with it on the affine space of the equalities,
    and the slack objective stays; dropping dominated rows, implied by kept
    ones, changes no feasible set.  So g maps the optimal face of R's LP
    onto that of g(R)'s, and a face that `lp.strict_interior_point` finds
    to be a single point goes to the point the LP of g(R) returns: the
    orbit member's witness is the permuted one.  When the face is not a
    point, every member gets its own LP (at qn 3-7 and pn 1-6 every face is
    a point).  Either way the walk returns what the plain walk returns.

    A flip whose LP finds it empty yields a core, a set of (row, sign)
    pairs whose rows alone, with the box and the equalities, admit no point,
    kept as the masks (rows, rows on +1) under each of its pairs.  A later
    flip that agrees with a stored core is empty as well, since its strict
    system holds the core's rows (the rows `_region_witness` drops as
    dominated are implied by others it keeps), and is skipped without an
    LP.  The current region is realized and matches no core, so only the
    cores under a flipped row's new sign need checking.  The skipped flips'
    LPs would have returned None, so the result is that of the walk without
    cores, and no set of empty sign vectors is kept.

    `QML_MAX_WORK` caps the number of regions, counted as each one is
    stored, orbit members included.
    """
    if seed is None:
        return []
    m = len(arr.hyps)
    implied = arr.implied
    steps = [(_bits_of(cls), cls) for cls in _hyperplane_classes(arr.eqs, arr.hyps)]
    # the seed is off every hyperplane, so no sign is 0
    start_signs = _row_signs(arr.hyps, *seed)
    start = _bits_of(k for k, s in enumerate(start_signs) if s > 0)
    cap = max_work()
    regions: dict = {}
    # the face test matters only where there are orbits to expand
    unique = [] if arr.group else None
    _add_orbit(arr, regions, start, _region_witness(arr, start_signs, unique=unique), unique == [True], cap)
    # the cores learnt from empty flips, at cores[k][b] for each of their
    # rows k, b its bit in the core
    cores: list = [([], []) for _ in arr.hyps]
    learnt_any = False
    frontier = [start]
    while frontier:
        mask = frontier.pop()
        for flip, cls in steps:
            flipped = mask ^ flip
            if flipped in regions:
                continue
            # a region satisfies every implication, and one that a flip breaks
            # has, up to contraposition, a flipped row on its new side as
            # antecedent
            if any(flipped & off or on & ~flipped for on, off in (implied[k][flipped >> k & 1] for k in cls)):
                continue
            if learnt_any and any(
                flipped & rows == plus for k in cls for rows, plus in cores[k][flipped >> k & 1]
            ):
                continue
            learnt: list[tuple[int, int]] = []
            unique = [] if arr.group else None
            x = _region_witness(arr, _signs_of(flipped, m), core=learnt, unique=unique)
            if x is None:
                core = _bits_of(k for k, _ in learnt), _bits_of(k for k, sk in learnt if sk > 0)
                for k, sk in learnt:
                    cores[k][sk > 0].append(core)
                learnt_any = True
                continue
            _add_orbit(arr, regions, flipped, x, unique == [True], cap)
            frontier.append(flipped)
    return sorted(regions.items(), key=lambda region: _code(region[0], m))


def _symmetry(mode: str, n: int, walls: Sequence[Wall]):
    """The adjacent transpositions (i, i+1) of the indices as generators of
    S_n acting on the wall arrangement, in the form of `_Arrangement.group`;
    none when there are no walls, and so a single region.

    A transposition moves the theta coordinates and keeps h1 and h2.  It
    maps wall J onto the wall of the image side.  Where that side is the
    complement of the hypersimplex wall's stored side, the sign reverses:
    sum over the complement minus 1 is 1 minus the sum over the side,
    since the thetas sum to 2.  Each transposition is its own inverse, so
    the wall read at k of an image is the image of wall k."""
    if not walls:
        return ()
    index = {w.j: k for k, w in enumerate(walls)}
    shift = 0 if mode == QN else 2
    group = []
    for i in range(n - 1):
        tau = list(range(n))
        tau[i], tau[i + 1] = i + 1, i
        src = []
        for w in walls:
            side = tuple(sorted(tau[a] for a in w.j))
            if mode == QN:
                canon = canonical_qn_wall(n, side).j
                src.append(index[canon] + (0 if canon == side else len(walls)))
            else:
                src.append(index[side])
        group.append((tuple(src), (*range(shift), *(shift + a for a in tau))))
    return tuple(group)


_CHAMBER_BOUNDS = {QN: 7, PN: 6}


@functools.cache
def _arrangement(mode: str, n: int):
    """The inner-wall arrangement: (walls, arr), an `_Arrangement` in
    `_space(mode, n)` of one row per wall, the subset implications between
    the walls' signs and the action of S_n."""
    walls = tuple(enumerate_walls(mode, n))
    hyps = tuple(_wall_row(mode, n, w) for w in walls)
    arr = _Arrangement(_space(mode, n), hyps, _subset_implications(walls, n), _symmetry(mode, n, walls))
    return walls, arr


def enumerate_chambers(mode: str, n: int) -> list[Chamber]:
    """All chambers of the inner-wall arrangement, each with a witness, from
    a walk that starts at g of `_space`, on no wall as no block row."""
    if n > _CHAMBER_BOUNDS[mode]:
        raise TooLargeError(
            f"chamber enumeration for mode {mode} is capped at n <= {_CHAMBER_BOUNDS[mode]}"
        )
    _, arr = _arrangement(mode, n)
    read = len(arr.hyps), arr.space.decode
    return [_walk_chamber(mask, w, read) for mask, w in _enumerate_regions(arr, arr.space.g)]


def chamber_second_witness(mode: str, n: int, chamber: Chamber) -> Weight:
    """Another interior point of the same chamber (distinct when possible)."""
    _, arr = _arrangement(mode, n)
    tweak = [Fraction(1, 997 + 13 * k) for k in range(arr.space.nvars)]
    w = _region_witness(arr, chamber.signs, tweak=tweak)
    if w is None:
        raise ValueError(f"sign vector {chamber.signs} is not a chamber")
    return arr.space.decode(w)


def chamber_adjacency(mode: str, n: int, chambers: Sequence[Chamber]) -> list[tuple[int, int]]:
    """Edges between chambers sharing a full-dimensional wall facet.

    These are exactly the pairs whose sign vectors differ in one wall, so no
    LP is needed: a chamber's neighbours are its masks with one bit flipped.
    The segment between the two witnesses keeps every other wall's sign,
    since an affine function with one sign at both ends of a segment keeps
    it along the segment; the segment stays inside the open polytope, which
    is convex; so it crosses the flipped wall at a point of the wall's
    relative interior that lies on a facet of both chambers.
    """
    bits = [1 << t for t in range(len(enumerate_walls(mode, n)))]
    index = {c.mask: i for i, c in enumerate(chambers)}
    pairs = ((i, index.get(c.mask ^ bit)) for i, c in enumerate(chambers) for bit in bits)
    return sorted((i, k) for i, k in pairs if k is not None and i < k)


def wall_relative_interior_point(mode: str, n: int, wall: Wall) -> Weight:
    """A weight in the relative interior of one inner wall: equality there,
    strictly off every other wall, strictly inside the polytope."""
    walls, arr = _arrangement(mode, n)
    rest = [row for w, row in zip(walls, arr.hyps) if w != wall]
    x = _generic_seed(_Arrangement(arr.space, rest, eqs=(_wall_row(mode, n, wall),)))
    if x is None:
        raise ValueError(f"wall {wall} does not meet the polytope interior")
    return arr.space.decode(x)


# ---------------------------------------------------------------------------
# Distinguished chart weights.


def chart_weight_qn(n: int, triple: Sequence[int]) -> QnWeight:
    """The generic weight concentrating 2/3-ish mass on a 3-subset.

    Its chamber is characterized by: a configuration is stable iff the three
    distinguished sections are pairwise distinct.  For n = 3 it is the
    barycenter.  Otherwise, with e = 1/n^2, each mark of the triple weighs
    (2/3)(1 - e) and each other mark 2e/(n - 3).  No wall sum is 1: with
    one mark of the triple it lies in [(2/3)(1 - e), (2/3)(1 - e) + 2e],
    below 1 as e < 1/4; with none it is at most 2e, with two or more above
    (4/3)(1 - e) > 1.
    """
    t = sorted(triple)
    if len(t) != 3 or len(set(t)) != 3 or t[0] < 0 or t[-1] >= n:
        raise ValueError("triple must be three distinct indices in range")
    if n == 3:
        return QnWeight((Fraction(2, 3),) * 3)
    e = Fraction(1, n * n)
    heavy = Fraction(2, 3) * (1 - e)
    light = Fraction(2, n - 3) * e
    return QnWeight(tuple(heavy if i in t else light for i in range(n)))


def chart_weight_pn(n: int, index: int) -> PnWeight:
    """The generic double-star weight concentrating theta-mass at one index,
    with both eta coordinates at -1/2.  With e = 1/n^2 the index weighs
    1 - e and each other mark e/(n - 1), so a wall sum is at least 1 - e or
    at most e, never 1/2."""
    if not 0 <= index < n:
        raise ValueError("index out of range")
    half = Fraction(-1, 2)
    if n == 1:
        return PnWeight(half, half, (Fraction(1),))
    e = Fraction(1, n * n)
    return PnWeight(half, half, tuple(1 - e if i == index else e / (n - 1) for i in range(n)))


def project_weight_to_pn(w: QnWeight, a: int, b: int) -> PnWeight:
    """Project a hypersimplex weight near the vertex e_a + e_b to a
    double-star weight (eta1, eta2, theta').

    a != b are 0-based indices of w.  The image satisfies
    eta1 + eta2 = -1, sum theta' = 1, eta <= 0 <= theta'.
    """
    th = w.theta
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
    return PnWeight(lam * (th[a] - 1), lam * (th[b] - 1), tuple(lam * v for v in rest))


# ---------------------------------------------------------------------------
# Stability polytopes.


class StabPolytope(_Frozen):
    """The set of weights for which a fixed configuration is semistable.

    For the hypersimplex it is cut out by one inequality per coincidence
    class; for the product of simplices by the inequalities of the anchor
    classes (j0, jinf).
    """

    __slots__ = _fields = ("mode", "n", "partition", "j0", "jinf")

    def __init__(
        self,
        mode: str,
        n: int,
        partition: tuple[tuple[int, ...], ...] = (),
        j0: tuple[int, ...] = (),
        jinf: tuple[int, ...] = (),
    ):
        _set(self, "mode", mode)
        _set(self, "n", n)
        if mode == QN:
            partition = tuple(sorted(tuple(sorted(b)) for b in partition))
            flat = [i for b in partition for i in b]
            if sorted(flat) != list(range(n)):
                raise ValueError("partition must cover the index range disjointly")
        elif mode == PN:
            j0 = tuple(sorted(j0))
            jinf = tuple(sorted(jinf))
            if set(j0) & set(jinf):
                raise ValueError("anchor classes must be disjoint")
            if any(not 0 <= i < n for i in j0 + jinf):
                raise ValueError("anchor class index out of range")
        else:
            raise ValueError(f"unknown mode {mode!r}")
        _set(self, "partition", partition)
        _set(self, "j0", j0)
        _set(self, "jinf", jinf)


def stability_polytope(p: StabPolytope) -> list[Weight]:
    """The vertices of a stability polytope: the ambient polytope vertices
    satisfying the class inequalities."""
    n = p.n
    if p.mode == QN:
        block_of = {i: bi for bi, b in enumerate(p.partition) for i in b}
        return [
            QnWeight(tuple(Fraction(int(k in (i, j))) for k in range(n)))
            for i, j in itertools.combinations(range(n), 2)
            if block_of[i] != block_of[j]
        ]
    vertices: list[Weight] = []
    for i in range(n):
        theta = tuple(Fraction(int(k == i)) for k in range(n))  # e_i
        if i not in p.j0:
            vertices.append(PnWeight(Fraction(-1), Fraction(0), theta))
        if i not in p.jinf:
            vertices.append(PnWeight(Fraction(0), Fraction(-1), theta))
    return vertices


class HassettPolytope(_Frozen):
    """The weights below a Hassett weight vector inside the hypersimplex.

    `a` is the public Fraction view of the weights; `den` and `nums` hold
    them over their common denominator, a_i = nums[i] / den."""

    _fields = ("a",)
    # den and nums are not fields, so equality, hashing and repr read `a` only
    __slots__ = ("a", "den", "nums")

    def __init__(self, a: tuple[Fraction, ...]):
        a = tuple(_rat(v) for v in a)
        _set(self, "a", a)
        den, nums = _scaled(a)
        if any(v <= 0 or v > den for v in nums):
            raise ValueError("weights must satisfy 0 < a_i <= 1")
        if sum(nums) <= 2 * den:
            raise ValueError("weights must sum to more than 2")
        _set(self, "den", den)
        _set(self, "nums", tuple(nums))

    @property
    def n(self) -> int:
        return len(self.a)


TargetPolytope = Union[StabPolytope, HassettPolytope]


def _constraints(p: TargetPolytope) -> list[tuple[tuple[int, ...], Union[int, Fraction]]]:
    """The LP rows (coeffs, rhs) of the facet inequalities coeffs . x <= rhs
    that cut the polytope out of its ambient polytope, in the variables of
    `_space`."""
    n = p.n
    if isinstance(p, HassettPolytope):
        return [(_indicator(n, (i,)), p.a[i]) for i in range(n) if p.a[i] < 1]
    if p.mode == QN:
        return [(_indicator(n, b), 1) for b in p.partition if len(b) >= 2]
    out = []
    if p.j0:
        out.append(((0, -1) + _indicator(n, p.j0), 0))  # sum over j0 <= h2
    if p.jinf:
        out.append(((-1, 0) + _indicator(n, p.jinf), 0))  # sum over jinf <= h1
    return out


def _interior_rows(p: TargetPolytope) -> tuple[tuple[tuple[int, ...], Union[int, Fraction]], ...]:
    """The facet rows of `_constraints` negated, as box rows: a point
    satisfies them strictly (coeffs . x - rhs > 0) iff it lies strictly
    inside every facet of the polytope."""
    return tuple((tuple(-c for c in coeffs), -rhs) for coeffs, rhs in _constraints(p))


def _cover_seed(hyps, g, target):
    """The seed of a `cover_check` walk inside a Hassett target, as integers
    (den, nums): its centre c = 2a / sum(a), and while that point lies on a
    hyperplane or outside the open target, ((q - 1) c + g) / q for q = 2,
    4, ..., g the point of `_space`.  c is inside the open target
    (0 < 2a_i / sum(a) < a_i as sum(a) > 2), which is convex, so from some q
    on every point is inside; g lies on no hyperplane, so each meets the
    segment from c to g at most once; so the loop ends.  Everything is
    checked on integers."""
    gden, gnums = g
    s = sum(target.nums)
    q = 0  # c itself
    while True:
        u, v = (1, 0) if q == 0 else (q - 1, 1)
        den = (u + v) * s * gden
        nums = [2 * u * a * gden + v * y * s for a, y in zip(target.nums, gnums)]
        inside = all(x * target.den < a * den for x, a in zip(nums, target.nums))
        if inside and 0 not in _row_signs(hyps, den, nums):
            return den, nums
        q = 2 * q or 2


def cover_check(polys: Sequence[StabPolytope], mode: str, n: int,
                a: Optional[Sequence[Fraction]] = None) -> tuple[bool, Optional[Weight]]:
    """Whether the union of the given stability polytopes covers the target
    (the full ambient polytope, or the sub-polytope below a Hassett weight).

    Decided exactly: enumerate the regions that the members' facet rows cut
    from the open target, and test each region for membership in some
    member.  Returns an uncovered witness on failure.

    The open target is the ambient polytope's interior, cut down by the
    Hassett target's facet rows taken strictly (coeffs . x - rhs < 0) as
    further box rows, so the walk never leaves it; it is convex, so the walk
    still reaches every region in it.  A target row is the indicator of one
    index with rhs a_i < 1 and a member row that of a block of two or more
    with rhs 1, so no target row is also a hyperplane.  Every region's
    witness satisfies each member row strictly on the side its sign vector
    names, so a region lies in a member iff every row of the member reads
    -1: iff the region's mask and the member's share no bit.

    The walk starts from g of `_space` or from `_cover_seed`, with no LP,
    and an uncovered witness is decoded by the space's `decode`.  In
    the open target sum_B theta lies strictly between 2 - a(B^c) and a(B),
    so a member row with a(B) <= 1 always reads -1 and one with
    a(B^c) <= 1 always +1; its flip is rejected as a self-implication
    (`_Arrangement`), so every LP, region and witness is the walk's without.
    """
    if a is not None and mode != QN:
        raise ValueError("weighted targets only exist for the hypersimplex")
    if mode == QN and n < 3:
        raise ValueError("hypersimplex weights need n >= 3")
    if mode == PN and n < 1:
        raise ValueError("double-star weights need n >= 1")
    if n > 6:
        raise TooLargeError("cover check capped at n <= 6")
    target = HassettPolytope(tuple(a)) if a is not None else None
    # each distinct member row, in order of first appearance, and its index
    index: dict[tuple, int] = {}
    members = []
    for p in polys:
        if not isinstance(p, StabPolytope):
            raise ValueError("member polytopes must be stability polytopes")
        if p.n != n or p.mode != mode:
            raise ValueError("member polytope in a different ambient space")
        members.append(_bits_of(index.setdefault(row, len(index)) for row in _constraints(p)))
    hyps = list(index)
    space = _space(mode, n)
    seed, box_rows, fixed = space.g, (), []
    if target is not None:
        if target.n != n:
            raise ValueError("member polytope in a different ambient space")
        box_rows = _interior_rows(target)
        total, den = sum(target.nums), target.den
        for (coeffs, _), k in index.items():
            inside = sum(v for v, c in zip(target.nums, coeffs) if c)  # den a(B)
            if inside <= den:
                fixed.append((k, 1, k, -1))
            elif total - inside <= den:
                fixed.append((k, -1, k, 1))
        seed = _cover_seed(hyps, seed, target)
    arr = _Arrangement(space, hyps, fixed, box_rows=box_rows)
    for mask, w in _enumerate_regions(arr, seed):
        if all(mask & member for member in members):
            return False, space.decode(w)
    return True, None
