"""Point configurations on the projective line and their exact stability.

A star-quiver representation at a point is a tuple of n plane vectors; up to
the group action a nonzero vector is a point of the projective line, so a
configuration stores an optional ProjPoint per index (None encodes the zero
vector, which chart operations reject).  Double-star representations are the
same with two implicit anchor points (0:1) and (1:0), which `PnConfig.star` appends.

The coincidence partition of a star configuration is `QnConfig.first`,
for each section the first index whose section coincides with it; the
stability polytope, the chart tests of `curves` and the normal form read
it, and a double-star configuration reads all of these off its `star`.

Stability verdicts come in two independent implementations: the fast rule
driven by the coincidence classes, and a definition-level oracle that
enumerates every coordinate subrepresentation.  There is one loop per
kernel for both quivers; the quiver supplies its tests or subspaces.  Their
agreement is a test target, so neither may call the other, and the only
helper they share is the weight table.
"""
from __future__ import annotations

from functools import lru_cache
from math import gcd
from typing import Optional, Sequence, Union

from .chambers import PnWeight, QnWeight, StabPolytope, TooLargeError, PN, QN, max_work
from .projline import (
    INF_POINT,
    DegenerateTripleError,
    IPoint,
    Moebius,
    ProjPoint,
    Section,
    ZERO_POINT,
    _chart_row,
    _det_row,
    _Frozen,
    _points,
    _scaled,
    moebius_two_point,
)

STABLE = "stable"
STRICTLY_SEMISTABLE = "strictly_semistable"
UNSTABLE = "unstable"


class ZeroSectionError(ValueError):
    """A zero section where a projective point is required."""


class DegeneratePairError(ValueError):
    """Two anchor sections coincide (or one is zero)."""


class EquationsFailError(ValueError):
    """The cross-chart equations do not hold."""


_set = object.__setattr__


class QnConfig(_Frozen):
    """n sections, each a point of the line or None for the zero vector."""

    _fields = ("sections",)
    __slots__ = ("sections", "_dets", "_first", "_normal_form")

    def __init__(self, sections: tuple[Section, ...]):
        _set(self, "sections", sections)
        if len(sections) < 3:
            raise ValueError("star-quiver configurations need n >= 3")

    @property
    def n(self) -> int:
        return len(self.sections)

    @property
    def dets(self) -> tuple[tuple[int, ...], ...]:
        """The table dets[i][k] = idet(s_i, s_k) of integer determinants,
        built on first use and kept outside the fields (so equality, hashing
        and repr ignore it); raises ZeroSectionError on a zero section."""
        try:
            return self._dets
        except AttributeError:
            pts = [s.ihom for s in _require_points(self)]
            table = tuple([tuple(_det_row(a, pts)) for a in pts])
            _set(self, "_dets", table)
            return table

    @property
    def first(self) -> tuple[int, ...]:
        """The coincidence partition: first[k] is the first index whose
        section coincides with section k, so the blocks are the index sets
        of equal entries and their first indices are the k with first[k] ==
        k.  Built on first use and kept outside the fields like `dets`;
        raises ZeroSectionError on a zero section."""
        try:
            return self._first
        except AttributeError:
            leads: dict[IPoint, int] = {}
            first = tuple([leads.setdefault(s.ihom, k) for k, s in enumerate(_require_points(self))])
            _set(self, "_first", first)
            return first

    @property
    def normal_form(self) -> tuple[tuple[int, ...], Optional[tuple[IPoint, ...]]]:
        """The Moebius normal form (first, values), built on first use and
        kept outside the fields like `dets`; raises ZeroSectionError on a
        zero section.

        first is the coincidence partition `QnConfig.first` (first[k] is
        `row.index(0)` of row k of `dets`).  With r1, r2, r3 the first three
        distinct sections (the k with first[k] == k), values[k]
        is (D[r1][k] D[r2][r3] : D[r2][k] D[r1][r3]) as a coprime pair with
        positive leading entry: the image of section k under the Moebius map
        sending r1, r2, r3 to (0:1), (1:0), (1:1), read by the chart rule
        `projline._chart_row`.  With fewer than three distinct sections
        values is None.  Two configurations of one size are Moebius
        equivalent, respecting indices, exactly when their normal forms are
        equal.

        Each built form passes through `_canonical_form`, a bounded identity
        map, so equal forms built while it holds the first of them are one
        object: `_agreeing_rows` tests them with `is`.  Identity is only a
        sufficient test; after an eviction two equal forms are two objects,
        and every other reader compares forms with `==`."""
        try:
            return self._normal_form
        except AttributeError:
            first = self.first
            pts = [s.ihom for s in self.sections]
            leads = [k for k, f in enumerate(first) if f == k]
            values = None
            if len(leads) >= 3:
                r1, r2, r3 = leads[:3]
                values = []
                for x, y in _chart_row(_det_row(pts[r1], pts), _det_row(pts[r2], pts), r3):
                    # never (0, 0): section k coincides with at most one of
                    # r1 and r2
                    g = gcd(x, y)
                    if x < 0 or not x and y < 0:
                        g = -g
                    values.append((x // g, y // g))
                values = tuple(values)
            form = _canonical_form((first, values))
            _set(self, "_normal_form", form)
            return form


@lru_cache(maxsize=256)
def _canonical_form(form: tuple) -> tuple:
    """The kept form equal to `form`, or `form` itself, which is then kept:
    a bounded identity map, so equal forms are usually one object (see
    `QnConfig.normal_form`)."""
    return form


class PnConfig(_Frozen):
    """n sections with implicit anchors (0:1) and (1:0) on the line."""

    _fields = ("sections",)
    __slots__ = ("sections", "_star")

    def __init__(self, sections: tuple[Section, ...]):
        _set(self, "sections", sections)
        if len(sections) < 1:
            raise ValueError("double-star configurations need n >= 1")

    @property
    def n(self) -> int:
        return len(self.sections)

    @property
    def star(self) -> QnConfig:
        """The sections, then the anchors (0:1) and (1:0) at indices n and
        n + 1, as a star configuration kept outside the fields like
        `QnConfig.dets`.  Its `first`, `dets` and `normal_form` are the
        anchor classes, anchor rows and torus normal form: a Moebius map
        respecting indices fixes indices n and n + 1, so it fixes 0 and
        infinity and is a rescaling (x0 : x1) -> (l x0 : x1)."""
        try:
            return self._star
        except AttributeError:
            _set(self, "_star", QnConfig((*self.sections, ZERO_POINT, INF_POINT)))
            return self._star


Config = Union[QnConfig, PnConfig]


def _require_points(config: Config) -> tuple[ProjPoint, ...]:
    for i, s in enumerate(config.sections):
        if s is None:
            raise ZeroSectionError(f"section {i} is zero")
    return config.sections  # type: ignore[return-value]


class Verdict(_Frozen):
    __slots__ = _fields = ("kind", "witness")

    def __init__(self, kind: str, witness: object = None):
        _set(self, "kind", kind)
        _set(self, "witness", witness)

    @property
    def semistable(self) -> bool:
        return self.kind != UNSTABLE


@lru_cache(maxsize=8192)
def _weight_tables(weight) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Integer-scaled coordinates and subset-sum table of a weight.

    The table has 2^n entries, which count against QML_MAX_WORK."""
    cap = max_work()
    if 1 << weight.n > cap:
        raise TooLargeError(f"a stability table of 2^{weight.n} subset sums exceeds QML_MAX_WORK ({cap})")
    # the extra values end in 1, which scales to the common denominator
    extra = (1,) if isinstance(weight, QnWeight) else (-weight.eta1, -weight.eta2, 1)
    n = weight.n
    _, nums = _scaled((*weight.theta, *extra))
    t, extra = nums[:n], nums[n:]
    pre = [0] * (1 << n)
    for i in range(n):
        bit = 1 << i
        ti = t[i]
        for m in range(bit):
            pre[bit | m] = pre[m] + ti
    return tuple(t), tuple(extra), tuple(pre)


def is_semistable(config: Config, weight) -> Verdict:
    """Stability from the coincidence classes (plus boundary rules).

    The quiver supplies the classes to test, each against the weight of
    the sink it could span: for the star quiver every class against the
    2-dimensional sink, for the double-star quiver the classes at (1:0)
    and (0:1) against h1 and h2.  A zero section with positive weight
    destabilizes outright; on the boundary of the weight polytope nothing
    is stable, because dropping a source vertex or a sink summand yields a
    subrepresentation of value zero.  Sums are evaluated on cached integer
    tables of the weight.

    A zero section never reaches the STABLE verdict: every coordinate of a
    validated weight is at least 0, so a zero section weighs more than 0
    (UNSTABLE) or exactly 0, and then the `drop_source` loop returns first.
    """
    star = isinstance(config, QnConfig)
    if not isinstance(weight, QnWeight if star else PnWeight) or weight.n != config.n:
        raise ValueError("configuration and weight do not match")
    t, extra, pre = _weight_tables(weight)
    zeros = []
    # the class masks the quiver tests, the sink weight each must not
    # exceed, and the witness tags (None: the class alone)
    if star:
        classes: dict[IPoint, int] = {}
        for i, s in enumerate(config.sections):
            if s is None:
                zeros.append(i)
            else:
                classes[s.ihom] = classes.get(s.ihom, 0) | 1 << i
        masks = sorted(classes.values())
        bounds = (extra[0],) * len(masks)
        tags = None
    else:
        minf = m0 = 0
        for i, s in enumerate(config.sections):
            if s is None:
                zeros.append(i)
            elif s.ihom == (1, 0):
                minf |= 1 << i
            elif s.ihom == (0, 1):
                m0 |= 1 << i
        masks = minf, m0
        bounds = extra  # (h1, h2, d)
        tags = "inf_anchor", "zero_anchor"
    for i in zeros:
        if t[i] > 0:
            return Verdict(UNSTABLE, ("zero_section", i))
    tie = None
    for k, mask in enumerate(masks):
        v = pre[mask] - bounds[k]
        if v > 0:
            return Verdict(UNSTABLE, _class_witness(tags, k, mask))
        if v == 0 and tie is None:
            tie = k
    if tie is not None:
        return Verdict(STRICTLY_SEMISTABLE, _class_witness(tags, tie, masks[tie]))
    for i, v in enumerate(t):
        if v == 0:
            return Verdict(STRICTLY_SEMISTABLE, ("drop_source", i))
    return Verdict(STABLE, None)


def _class_witness(tags: Optional[tuple[str, ...]], k: int, mask: int) -> object:
    members = frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)
    return members if tags is None else (tags[k], members)


def brute_force_semistable(config: Config, weight) -> Verdict:
    """Definition-level oracle: enumerate every coordinate subrepresentation,
    evaluate its weight, and apply the definition directly.

    The quiver supplies its sink subspaces, each with the weight it adds
    and the sources it admits: for the star quiver 0, each line through a
    section and the whole plane (a line through none admits only zero
    sections, which weigh d less there than over 0), for the double-star
    quiver the four products of 0 or all over the two sinks.  Integer arithmetic over a common denominator keeps
    this fast enough to run in bulk; the enumeration itself stays
    exhaustive.
    """
    star = isinstance(config, QnConfig)
    n = config.n
    if not isinstance(weight, QnWeight if star else PnWeight) or weight.n != n:
        raise ValueError("configuration and weight do not match")
    _, extra, pre = _weight_tables(weight)
    full = (1 << n) - 1
    # (witness label, weight of the sink subspace, eligible source mask,
    # the source mask that makes the subrepresentation 0 or everything)
    if star:
        d = extra[0]
        zero_mask = 0
        lines: dict[IPoint, int] = {}
        for i, s in enumerate(config.sections):
            if s is None:
                zero_mask |= 1 << i
            else:
                lines[s.ihom] = lines.get(s.ihom, 0) | 1 << i
        subspaces = [(0, 0, zero_mask, 0), (2, -2 * d, full, full)]
        subspaces += [(1, -d, lines[key] | zero_mask, -1) for key in sorted(lines)]
    else:
        h1, h2, _ = extra
        # sources whose first, respectively second, coordinate vanishes
        allow1 = allow2 = 0
        for i, s in enumerate(config.sections):
            if s is None or not s.ihom[0]:
                allow1 |= 1 << i
            if s is None or not s.ihom[1]:
                allow2 |= 1 << i
        subspaces = (
            ((0, 0), 0, allow1 & allow2, 0),
            ((0, 1), -h2, allow1, -1),
            ((1, 0), -h1, allow2, -1),
            ((1, 1), -h1 - h2, full, full),
        )
    found_zero = None
    for label, base, elig, trivial in subspaces:
        smask = elig
        while True:
            if smask != trivial:
                v = base + pre[smask]
                if v > 0:
                    return Verdict(UNSTABLE, ("subrep", label, smask))
                if v == 0 and found_zero is None:
                    found_zero = ("subrep", label, smask)
            if smask == 0:
                break
            smask = (smask - 1) & elig
    if found_zero is not None:
        return Verdict(STRICTLY_SEMISTABLE, found_zero)
    return Verdict(STABLE, None)


def _blocks(first: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """The blocks of a coincidence partition `QnConfig.first`, each in
    increasing order, ordered by their first indices (so sorted)."""
    blocks: dict[int, list[int]] = {}
    for k, f in enumerate(first):
        blocks.setdefault(f, []).append(k)
    return tuple([tuple(b) for b in blocks.values()])


def theta_polytope(config: Config) -> StabPolytope:
    """The stability polytope of a configuration: for the star quiver the
    blocks of its coincidence partition `QnConfig.first`, for the
    double-star quiver the sections in the anchor blocks of `PnConfig.star`;
    raises ZeroSectionError on a zero section."""
    if isinstance(config, QnConfig):
        return StabPolytope(QN, config.n, partition=_blocks(config.first))
    *first, f0, finf = config.star.first
    j0 = tuple([k for k, f in enumerate(first) if f == f0])
    return StabPolytope(PN, config.n, j0=j0, jinf=tuple([k for k, f in enumerate(first) if f == finf]))


def normalize_chart_qn(config: QnConfig, triple: Sequence[int]) -> QnConfig:
    """The sections with the three chosen ones sent to (0:1), (1:0), (1:1):
    the chart rule `projline._chart_row` on two rows of `dets`, no map built."""
    d = config.dets
    i1, i2, i3 = triple
    for a, b in ((i1, i2), (i1, i3), (i2, i3)):
        if not d[a][b]:
            raise DegenerateTripleError(f"reference points coincide: {config.sections[a]}")
    return QnConfig(_points(_chart_row(d[i1], d[i2], i3)))


def _agreeing_rows(
    config_a: Config, config_b: Config, i: Optional[int], j: Optional[int]
) -> Optional[tuple[Sequence[int], Sequence[int], Sequence[int], Sequence[int]]]:
    """The anchor rows (xa, ya, xb, yb) of `check_limit_equations`, checked
    in the order its docstring gives, if they satisfy the equations.

    A double-star pair is read as its `PnConfig.star`s at anchors (n, n + 1),
    whose entries pair to (0, 0).  Each row of the cached `_dets` slots is
    read once, with the `dets` property as the fallback that builds them.
    After every check, charts whose `QnConfig.normal_form` is one object
    (equal forms usually are, see `_canonical_form`) are Moebius equivalent
    and satisfy the equations at every anchor pair, so their rows are
    returned without the loop; any other pair, equivalent or not, goes
    through the loop, which gives the same answer.  Proof: if g a_k = l_k b_k
    for every k, with G an integer matrix of g and the l_k nonzero
    rationals, then for the integer representatives det(b_p, b_k) =
    det(G) det(a_p, a_k) / (l_p l_k).  So xa[k] yb[k] = da[i][k] db[j][k] =
    da[i][k] da[j][k] det(G) / (l_j l_k) and ya[k] xb[k] = da[j][k] da[i][k]
    det(G) / (l_i l_k), and every pair other than (0, 0) is (l_i : l_j), one
    value.
    """
    if type(config_a) is not type(config_b) or len(config_a.sections) != len(config_b.sections):
        raise ValueError("configurations must share a mode and a size")
    pn = type(config_a) is PnConfig
    if pn:
        config_a, config_b = config_a.star, config_b.star
    try:
        da = config_a._dets
    except AttributeError:
        da = config_a.dets
    n = len(da)
    if pn:
        if i is not None or j is not None:
            raise ValueError("double-star configurations have fixed anchors; omit i and j")
        i, j = n - 2, n - 1
    if i is None or j is None or i == j:
        raise ValueError("two distinct anchor indices are required")
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"anchor indices {i} and {j} must lie in range({n})")
    xa = da[i]
    if not xa[j]:
        raise DegeneratePairError(f"anchor sections {i} and {j} coincide")
    try:
        db = config_b._dets
    except AttributeError:
        db = config_b.dets
    xb = db[i]
    if not xb[j]:
        raise DegeneratePairError(f"anchor sections {i} and {j} coincide")
    ya, yb = da[j], db[j]
    try:
        same = config_a._normal_form is config_b._normal_form
    except AttributeError:
        same = config_a.normal_form is config_b.normal_form
    if same:
        return xa, ya, xb, yb
    # the first pair other than (0, 0) fixes the value (r0 : r1); a later
    # pair (0, 0) passes the comparison
    pairs = zip(xa, yb, ya, xb)
    for p, q, s, t in pairs:
        r0, r1 = p * q, s * t
        if r0 or r1:
            break
    else:
        return xa, ya, xb, yb
    for p, q, s, t in pairs:
        if p * q * r1 != s * t * r0:
            return None
    return xa, ya, xb, yb


def check_limit_equations(
    config_a: Config, config_b: Config, i: Optional[int] = None, j: Optional[int] = None
) -> bool:
    """Whether the two configurations satisfy the cross-chart equations
    for the anchor pair (i, j).

    With anchors p, q, the anchor rows of a chart are x[k] = idet(p, s_k)
    and y[k] = idet(q, s_k): a Moebius map sending p to (0:1) and q to
    (1:0) sends s_k to (-x[k] : y[k]) up to a diagonal factor.  For
    star-quiver configurations the anchors are sections i and j, and the
    rows are rows i and j of the determinant table `dets`; double-star
    configurations are read as `PnConfig.star`, anchors n and n + 1.  With x, y
    the rows of a and x', y' those of b, the equations say that the pairs
    (x[k] y'[k] : y[k] x'[k]) other than (0, 0) all define one projective
    value.  Equivalently, after sending section i to (0:1) and section j
    to (1:0) in both charts, all mark pairs lie on a single diagonal
    (1,1)-curve through the two anchor corners.

    Checks mode and size first, then the first chart (zero sections,
    anchor indices, coinciding anchors), then the second.  Charts whose
    star configurations share one `QnConfig.normal_form` object are Moebius
    equivalent and pass at once (the proof is in `_agreeing_rows`); only
    the other pairs are compared row by row.
    """
    return _agreeing_rows(config_a, config_b, i, j) is not None


class GluedFiber(_Frozen):
    """The fiber curve determined by two chart configurations.

    Irreducible: the charts differ by the connecting Moebius map.
    Two components: each chart is an isomorphism on one component and
    contracts the other to its node point; `marks_on_a` collects the indices
    living on the component seen by the first chart (dually `marks_on_b`),
    and indices in both sets sit at the node.
    """

    __slots__ = _fields = ("kind", "moebius", "marks_on_a", "marks_on_b", "node_a", "node_b")

    def __init__(
        self,
        kind: str,  # "irreducible" | "two_components"
        moebius: Optional[Moebius] = None,
        marks_on_a: Optional[frozenset[int]] = None,
        marks_on_b: Optional[frozenset[int]] = None,
        node_a: Optional[ProjPoint] = None,
        node_b: Optional[ProjPoint] = None,
    ):
        _set(self, "kind", kind)
        _set(self, "moebius", moebius)
        _set(self, "marks_on_a", marks_on_a)
        _set(self, "marks_on_b", marks_on_b)
        _set(self, "node_a", node_a)
        _set(self, "node_b", node_b)


IRREDUCIBLE = "irreducible"
TWO_COMPONENTS = "two_components"


def _normalizing_matrix(p: ProjPoint, q: ProjPoint, x: int, y: int) -> tuple[int, int, int, int]:
    """The matrix of `moebius_from_triple(p, q, s)`, unreduced, for a
    section s with anchor rows x = idet(p, s) and y = idet(q, s): its rows
    (y p1, -y p0) and (x q1, -x q0) send p, q, s to (0:1), (1:0), (1:1)."""
    (p0, p1), (q0, q1) = p.ihom, q.ihom
    return y * p1, -y * p0, x * q1, -x * q0


def glue_fiber(
    config_a: Config, config_b: Config, i: Optional[int] = None, j: Optional[int] = None
) -> GluedFiber:
    """Glue two equation-compatible charts into their common fiber curve;
    EquationsFailError where `check_limit_equations` is False.  Double-star
    charts glue as their `PnConfig.star`s, the anchors left out of the marks."""
    rows = _agreeing_rows(config_a, config_b, i, j)
    if rows is None:
        raise EquationsFailError("configurations are not related by the cross-chart equations")
    xa, ya, xb, yb = rows
    marks = range(len(config_a.sections))
    if type(config_a) is PnConfig:
        config_a, config_b, i, j = config_a.star, config_b.star, len(marks), len(marks) + 1
    pa, qa = config_a.sections[i], config_a.sections[j]
    pb, qb = config_b.sections[i], config_b.sections[j]
    # one pass over the rows: it stops at the first section off both
    # anchors in both charts, where the fiber is irreducible, and until then
    # collects, for each section varying in one chart (both rows nonzero),
    # where it sits in the other
    corners_b, corners_a = set(), set()
    for x, y, u, v in zip(xa, ya, xb, yb):
        if x and y:
            if u and v:
                break
            corners_b.add((u, v))
        elif u and v:
            corners_a.add((x, y))
    else:
        # the fiber is a chain of two lines with its node at the anchor
        # corner where the varying sections of the other chart sit: a row
        # pair (x, y) with x = 0 is the first anchor, one with y = 0 the
        # second.  A section sits at an anchor exactly where that anchor's
        # row is 0, and its other entry is then the determinant of the two
        # anchors, so the pairs equal to a corner are the zeros of one row
        if not corners_b or not corners_a:
            raise EquationsFailError("fiber undetermined: one chart has only anchored sections")
        if len(corners_b) != 1 or len(corners_a) != 1:
            raise EquationsFailError("the varying sections collapse to more than one anchor")
        (corner_b,), (corner_a,) = corners_b, corners_a
        if corner_a == corner_b:
            raise EquationsFailError("the node corner does not mix the two anchors")
        return GluedFiber(
            TWO_COMPONENTS,
            marks_on_a=frozenset([k for k, w in zip(marks, yb if corner_b[0] else xb) if not w]),
            marks_on_b=frozenset([k for k, w in zip(marks, ya if corner_a[0] else xa) if not w]),
            node_a=qa if corner_a[0] else pa,
            node_b=qb if corner_b[0] else pb,
        )
    # the connecting map takes the anchors and the common off-anchor section
    # of the first chart to those of the second: adj(B) A for the
    # normalizing matrices A of a and B of b
    f00, f01, f10, f11 = _normalizing_matrix(pa, qa, x, y)
    g00, g01, g10, g11 = _normalizing_matrix(pb, qb, u, v)
    m = Moebius(
        g11 * f00 - g01 * f10,
        g11 * f01 - g01 * f11,
        g00 * f10 - g10 * f00,
        g00 * f11 - g10 * f01,
    )
    e00, e01, e10, e11 = m.imat
    for sa, sb in zip(config_a.sections, config_b.sections):
        (a0, a1), (b0, b1) = sa.ihom, sb.ihom
        if (e00 * a0 + e01 * a1) * b1 != (e10 * a0 + e11 * a1) * b0:
            raise EquationsFailError("the connecting map does not match every section")
    return GluedFiber(IRREDUCIBLE, moebius=m)


def map_config_qn2_pn(config: QnConfig, a: int, b: int) -> PnConfig:
    """Send the section at index a to (1:0) and the one at index b to (0:1),
    then drop both; the result is indexed by the remaining indices in order.
    Zero sections pass through as zero."""
    sa, sb = config.sections[a], config.sections[b]
    if sa is None or sb is None:
        raise DegeneratePairError("anchor sections must be nonzero")
    if sa == sb:
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
    other, respecting indices: configurations of one size whose
    `QnConfig.normal_form`s are equal.

    Sections i and k coincide iff D[i][k] = 0, D the determinant table, so
    the first zero of row k names the first section coinciding with k, and
    the coincidence partitions agree iff these first zeros do.  With r1, r2,
    r3 the first three sections that coincide with no earlier one, the
    Moebius sending them to (0:1), (1:0), (1:1) sends section k to
    (D[r1][k] D[r2][r3] : D[r2][k] D[r1][r3]); the configurations are
    equivalent when these values agree for every k, or when there are at
    most two distinct points on each side.  A zero section of the first
    configuration is named before one of the second.
    """
    if not (isinstance(config_a, QnConfig) and isinstance(config_b, QnConfig)):
        raise ValueError("Moebius equivalence is defined for star-quiver configurations")
    if len(config_a.sections) != len(config_b.sections):
        return False
    return config_a.normal_form == config_b.normal_form
