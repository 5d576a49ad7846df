"""Stable pointed trees and chains of projective lines.

A pointed tree is a tree of components, each a projective line: edges carry
one node point per incident component, marks are labelled points.  Three
stability notions act on these objects: the classical one (every component
has at least three special points, marks pairwise distinct), the weighted
one (coinciding marks may carry total weight at most 1 and every component
needs node count plus resident weight above 2), and the chain version
(path-shaped trees glued 0-to-infinity with at least one mark per
component).

Contracting a tree onto one component sends its marks to a star-quiver
configuration (`configs.QnConfig`), and `mark_images` gives one per
component.  The chart layer reads their determinant tables
(`QnConfig.dets`), and `tree_isomorphic` their Moebius normal forms
(`QnConfig.normal_form`), as `reconstruct_tree` does for chart
configurations.

Every stable object is encoded by its chart coordinates: contract the tree
onto the unique component where three chosen marks stay distinct and
normalize those marks to (0:1), (1:0), (1:1); a chain's chart normalizes
the two anchors and one mark.  Both are read off integer determinant rows by
the one chart rule `projline._chart_row`, with no Moebius map.  The
resulting family of normalized configurations satisfies exact polynomial
identities, and the tree can be rebuilt from the family alone;
`reconstruct_tree` inverts `moduli_coordinates` and `lm_moduli_coordinates`
exactly.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Sequence, Union

from .chambers import QN, HassettPolytope, cover_check
from .configs import (
    QnConfig,
    coincidence_partition,
    theta_polytope,
)
from .projline import (
    INF_POINT,
    ONE_POINT,
    ZERO_POINT,
    ProjPoint,
    _chart_row,
    _det_row,
    _Frozen,
    _points,
    moebius_two_point,
)

_set = object.__setattr__


class UnstableInputError(ValueError):
    """The tree or chain is not stable in the requested mode."""


class InconsistentFamilyError(ValueError):
    """A chart family violating the functor conditions."""

    def __init__(self, condition: str, witness=None):
        super().__init__(f"family fails condition {condition!r}")
        self.condition = condition
        self.witness = witness


class TreeEdge(_Frozen):
    __slots__ = _fields = ("ends", "nodes")

    def __init__(self, ends: tuple[str, str], nodes: tuple[ProjPoint, ProjPoint]):
        _set(self, "ends", ends)
        _set(self, "nodes", nodes)

    def node_at(self, comp: str) -> ProjPoint:
        return self.nodes[self.ends.index(comp)]

    def other(self, comp: str) -> str:
        a, b = self.ends
        return b if comp == a else a


class PointedTree(_Frozen):
    """Components, edges with node coordinates, and labelled marks."""

    __slots__ = _fields = ("components", "edges", "marks")

    def __init__(
        self,
        components: tuple[str, ...],
        edges: tuple[TreeEdge, ...],
        marks: tuple[tuple[int, str, ProjPoint], ...],  # (label, component, point)
    ):
        _set(self, "components", components)
        _set(self, "edges", edges)
        _set(self, "marks", tuple(sorted(marks, key=lambda m: m[0])))

    @property
    def labels(self) -> tuple[int, ...]:
        return tuple(m[0] for m in self.marks)

    @property
    def n(self) -> int:
        return len(self.marks)


def validate_tree(tree: PointedTree) -> None:
    comps = list(tree.components)
    if len(set(comps)) != len(comps) or not comps:
        raise ValueError("components must be nonempty and distinct")
    cset = set(comps)
    labels = [m[0] for m in tree.marks]
    if len(set(labels)) != len(labels):
        raise ValueError("mark labels must be distinct")
    adj: dict[str, list[str]] = {c: [] for c in comps}
    for e in tree.edges:
        a, b = e.ends
        if a not in cset or b not in cset or a == b:
            raise ValueError(f"bad edge {e.ends}")
        adj[a].append(b)
        adj[b].append(a)
    if len(tree.edges) != len(comps) - 1:
        raise ValueError("edge count must be component count minus one")
    seen = {comps[0]}
    stack = [comps[0]]
    while stack:
        c = stack.pop()
        for d in adj[c]:
            if d not in seen:
                seen.add(d)
                stack.append(d)
    if seen != cset:
        raise ValueError("component graph must be connected")
    for _, comp, _ in tree.marks:
        if comp not in cset:
            raise ValueError("mark on an undeclared component")
    for c in comps:
        nodes = [e.node_at(c) for e in tree.edges if c in e.ends]
        if len({p.ihom for p in nodes}) != len(nodes):
            raise ValueError(f"node points on component {c} must be pairwise distinct")
        node_set = {p.ihom for p in nodes}
        for label, comp, p in tree.marks:
            if comp == c and p.ihom in node_set:
                raise ValueError(f"mark {label} sits on a node of component {c}")


def _mark_point(tree: PointedTree, label: int) -> tuple[str, ProjPoint]:
    for lb, comp, p in tree.marks:
        if lb == label:
            return comp, p
    raise KeyError(label)


def _adjacency(tree: PointedTree) -> dict[str, list[TreeEdge]]:
    adj: dict[str, list[TreeEdge]] = {c: [] for c in tree.components}
    for e in tree.edges:
        adj[e.ends[0]].append(e)
        adj[e.ends[1]].append(e)
    return adj


def mark_images(tree: PointedTree) -> dict[str, QnConfig]:
    """For each component, the star-quiver configuration of the marks'
    images under contraction onto that component, sections in label order:
    resident marks keep their point, marks in a neighboring subtree land on
    the node point in that direction.  A tree with fewer than three marks
    has no configurations (ValueError)."""
    adj = _adjacency(tree)
    images: dict[str, QnConfig] = {}
    for c in tree.components:
        # component -> the point of c its marks land on
        toward: dict[str, Optional[ProjPoint]] = {c: None}
        stack = [c]
        while stack:
            cur = stack.pop()
            for e in adj[cur]:
                d = e.other(cur)
                if d not in toward:
                    toward[d] = e.node_at(c) if cur == c else toward[cur]
                    stack.append(d)
        images[c] = QnConfig(tuple(p if comp == c else toward[comp] for _, comp, p in tree.marks))
    return images


# ---------------------------------------------------------------------------
# Stability notions.


def is_gk_stable(tree: PointedTree) -> bool:
    """Marks pairwise distinct and every component with >= 3 special points."""
    validate_tree(tree)
    spots = set()
    for label, comp, p in tree.marks:
        key = (comp, p.ihom)
        if key in spots:
            return False
        spots.add(key)
    adj = _adjacency(tree)
    for c in tree.components:
        marks_here = sum(1 for _, comp, _ in tree.marks if comp == c)
        if marks_here + len(adj[c]) < 3:
            return False
    return True


def is_a_stable(tree: PointedTree, a: Sequence[Fraction]) -> bool:
    """Weighted stability: coinciding marks carry total weight at most 1 and
    each component has node count plus resident weight above 2.

    Both tests compare integers: the weights' numerators over their common
    denominator against that denominator."""
    validate_tree(tree)
    target = HassettPolytope(tuple(a))
    if target.n != tree.n or tree.labels != tuple(range(tree.n)):
        raise ValueError("weight vector must match the mark labels 0..n-1")
    den, nums = target.den, target.nums
    clusters: dict[tuple[str, tuple[int, int]], int] = {}
    for label, comp, p in tree.marks:
        key = (comp, p.ihom)
        clusters[key] = clusters.get(key, 0) + nums[label]
    if any(total > den for total in clusters.values()):
        return False
    adj = _adjacency(tree)
    for c in tree.components:
        resident = sum(nums[label] for label, comp, _ in tree.marks if comp == c)
        if len(adj[c]) * den + resident <= 2 * den:
            return False
    return True


class Chain(_Frozen):
    """Path of projective lines glued 0-to-infinity, ordered from the free
    zero anchor to the free infinity anchor; marks avoid 0 and infinity on
    their component.  Distinct marks may share a point."""

    __slots__ = _fields = ("components",)

    def __init__(self, components: tuple[tuple[tuple[int, ProjPoint], ...], ...]):
        comps = tuple(tuple(sorted(c, key=lambda m: m[0])) for c in components)
        _set(self, "components", comps)

    @property
    def labels(self) -> tuple[int, ...]:
        return tuple(sorted(lb for c in self.components for lb, _ in c))

    @property
    def n(self) -> int:
        return len(self.labels)


def validate_chain(chain: Chain) -> None:
    if not chain.components:
        raise ValueError("a chain needs at least one component")
    labels = [lb for c in chain.components for lb, _ in c]
    if len(set(labels)) != len(labels):
        raise ValueError("mark labels must be distinct")
    for c in chain.components:
        for lb, p in c:
            if p == ZERO_POINT or p == INF_POINT:
                raise ValueError(f"mark {lb} sits on an anchor or node point")


def is_lm_stable(chain: Chain) -> bool:
    """Every component carries at least one mark."""
    validate_chain(chain)
    return all(len(c) >= 1 for c in chain.components)


# ---------------------------------------------------------------------------
# Contractions and chart coordinates.


def contract_gamma(tree: PointedTree, keep: Iterable[int]) -> PointedTree:
    """Forget the marks outside `keep`, then contract components that drop
    below three special points; a contracted leaf deposits its residual mark
    on the attachment point of its neighbor.  The kept labels are checked
    first, then the tree (`validate_tree`)."""
    keep_set = sorted(set(keep))
    if len(keep_set) < 3:
        raise ValueError("at least three marks must be kept")
    if not set(keep_set) <= set(tree.labels):
        raise ValueError("unknown mark labels")
    validate_tree(tree)
    comps = list(tree.components)
    edges = [(e.ends[0], e.ends[1], e.nodes[0], e.nodes[1]) for e in tree.edges]
    marks = {lb: (comp, p) for lb, comp, p in tree.marks if lb in set(keep_set)}
    while True:
        deg = {c: 0 for c in comps}
        nmarks = {c: 0 for c in comps}
        for a, b, _, _ in edges:
            deg[a] += 1
            deg[b] += 1
        for comp, _ in marks.values():
            nmarks[comp] += 1
        weak = sorted(c for c in comps if deg[c] + nmarks[c] < 3)
        if not weak or len(comps) == 1:
            break
        c = weak[0]
        incident = [(k, e) for k, e in enumerate(edges) if c in (e[0], e[1])]
        if len(incident) == 1:
            k, (a, b, pa, pb) = incident[0]
            d, pd = (b, pb) if a == c else (a, pa)
            for lb in [lb for lb, (comp, _) in marks.items() if comp == c]:
                marks[lb] = (d, pd)
            edges.pop(k)
            comps.remove(c)
        elif len(incident) == 2:
            (k1, e1), (k2, e2) = incident
            d1, p1 = (e1[1], e1[3]) if e1[0] == c else (e1[0], e1[2])
            d2, p2 = (e2[1], e2[3]) if e2[0] == c else (e2[0], e2[2])
            for k in sorted((k1, k2), reverse=True):
                edges.pop(k)
            edges.append((d1, d2, p1, p2))
            comps.remove(c)
        else:
            raise AssertionError("a component below three special points has degree <= 2")
    return PointedTree(
        tuple(comps),
        tuple(TreeEdge((a, b), (pa, pb)) for a, b, pa, pb in edges),
        tuple((lb, comp, p) for lb, (comp, p) in sorted(marks.items())),
    )


def _separating_table(
    tables: list[tuple[tuple[int, ...], ...]], p: int, q: int, r: int, triple: Sequence[int]
) -> Optional[tuple[tuple[int, ...], ...]]:
    """The determinant table (`QnConfig.dets`) of the one component of
    `mark_images` where the marks at positions p, q, r separate (their three
    entries are nonzero); None when no component separates them (the chart
    of `triple`, their labels, is undefined)."""
    found = None
    for d in tables:
        dp = d[p]
        if dp[q] and dp[r] and d[q][r]:
            if found is not None:
                raise ValueError(f"marks {tuple(triple)} separate on more than one component")
            found = d
    return found


def _chart_pairs(tree: PointedTree, mode: str):
    """(ordering, integer pairs) of every chart of a tree labelled 0..n-1,
    triple by triple, each triple's orderings in `itertools.permutations`
    order.  For p < q < r only the row (x0 : x1) of (p, q, r) is read off
    the table, by `_chart_row` from rows p and q; the other five orderings
    are its images under the anharmonic S3 action on P1, integer unimodular
    maps of each pair."""
    tables = [cfg.dets for cfg in mark_images(tree).values()]
    for p, q, r in itertools.combinations(range(tree.n), 3):
        d = _separating_table(tables, p, q, r, (p, q, r))
        if d is None:
            if mode == GK:
                raise AssertionError("charts of a stable tree are total")
            continue
        xs = _chart_row(d[p], d[q], r)
        yield (p, q, r), xs
        yield (p, r, q), [(x0, x0 - x1) for x0, x1 in xs]
        yield (q, p, r), [(x1, x0) for x0, x1 in xs]
        yield (q, r, p), [(x1, x1 - x0) for x0, x1 in xs]
        yield (r, p, q), [(x0 - x1, x0) for x0, x1 in xs]
        yield (r, q, p), [(x1 - x0, x1) for x0, x1 in xs]


def contract_to_chart(
    tree: PointedTree, triple: Sequence[int]
) -> Optional[dict[int, ProjPoint]]:
    """Contract onto the component where the three chosen marks separate and
    normalize them to (0:1), (1:0), (1:1); None when no component separates
    them (the chart is undefined at this tree)."""
    labels = tree.labels
    pos = {lb: k for k, lb in enumerate(labels)}
    p, q, r = (pos[lb] for lb in triple)
    tables = [cfg.dets for cfg in mark_images(tree).values()]
    d = _separating_table(tables, p, q, r, triple)
    if d is None:
        return None
    return dict(zip(labels, _points(_chart_row(d[p], d[q], r))))


GK = "gk"
HASSETT = "hassett"
LM = "lm"


class LimitFamily(_Frozen):
    """Chart-indexed normalized configurations, an immutable value.

    For tree modes the keys are ordered triples of distinct labels and the
    values are full section tuples in label order; the active charts are
    exactly the keys.  For chains the keys are single labels.

    `charts` is a read-only snapshot of the mapping the family is built
    from, so a later change to that mapping does not reach the family.  The
    functor-condition reports are computed once, on first use, and kept
    with the instance (`verify_functor_conditions` and `reconstruct_tree`
    both read them).
    """

    _fields = ("mode", "n", "charts", "a")
    __slots__ = ("mode", "n", "charts", "a", "_report_cache")

    # charts is a mapping, so a family has no hash
    __hash__ = None

    def __init__(
        self,
        mode: str,  # "gk" | "hassett" | "lm"
        n: int,
        charts: Mapping,
        a: Optional[tuple[Fraction, ...]] = None,
    ):
        if mode not in (GK, HASSETT, LM):
            raise ValueError(f"unknown family mode {mode!r}; expected 'gk', 'hassett' or 'lm'")
        _set(self, "mode", mode)
        _set(self, "n", n)
        _set(self, "charts", MappingProxyType(dict(charts)))
        _set(self, "a", None if a is None else tuple(a))

    def __reduce__(self):
        # a read-only view does not pickle; rebuild from a plain dict
        return LimitFamily, (self.mode, self.n, self.charts.copy(), self.a)

    @property
    def _reports(self) -> tuple[ConditionReport, ...]:
        try:
            return self._report_cache
        except AttributeError:
            reports = tuple(_functor_reports(self))
            _set(self, "_report_cache", reports)
            return reports

    def active_sets(self) -> list[tuple[int, ...]]:
        if self.mode == LM:
            return sorted((k,) for k in self.charts)
        return sorted({tuple(sorted(k)) for k in self.charts})


def _chart_weights(tree: PointedTree, mode: str, a) -> Optional[tuple[Fraction, ...]]:
    """The weights a family of `tree` in `mode` carries, after its stability
    test (UnstableInputError)."""
    if tree.labels != tuple(range(tree.n)):
        raise ValueError("chart families require mark labels 0..n-1")
    if mode == GK:
        if not is_gk_stable(tree):
            raise UnstableInputError("tree is not stable")
        return None
    if mode != HASSETT:
        raise ValueError("tree charts exist in modes 'gk' and 'hassett'")
    if a is None:
        raise ValueError("weighted mode needs a weight vector")
    aw = HassettPolytope(tuple(a)).a
    if not is_a_stable(tree, aw):
        raise UnstableInputError("tree is not stable for the given weights")
    return aw


def moduli_coordinates(
    tree: PointedTree, mode: str = GK, a: Optional[Sequence[Fraction]] = None
) -> LimitFamily:
    """All chart coordinates of a stable pointed tree.

    Each unordered triple that separates on a component gives one integer
    row; its six orderings come from that row (`_chart_pairs`), and points
    at 0 and infinity are the shared ZERO_POINT and INF_POINT."""
    aw = _chart_weights(tree, mode, a)
    charts = {key: _points(pairs) for key, pairs in _chart_pairs(tree, mode)}
    return LimitFamily(mode, tree.n, charts, aw)


def _diagonal_row(pts: Sequence[tuple[int, int]], r: int) -> list[tuple[int, int]]:
    """The chart rule for the anchors (0:1), (1:0) and c = pts[r], whose
    determinant rows are (-x0) and (x1): the diagonal map x -> (x0 c1 : c0 x1)."""
    return _chart_row(_det_row(ZERO_POINT.ihom, pts), _det_row(INF_POINT.ihom, pts), r)


def _lm_chart_pairs(chain: Chain):
    """(label, integer pairs) of every chart of a chain labelled 0..n-1, in
    label order.  The chart of mark i contracts the chain onto the component
    of i, where marks of earlier components sit at (0:1) and marks of later
    ones at (1:0), and sends i to (1:1) by `_diagonal_row`."""
    places = sorted((lb, ci, p.ihom) for ci, comp in enumerate(chain.components) for lb, p in comp)
    for i, ci, _ in places:
        pts = [(0, 1) if cj < ci else (1, 0) if cj > ci else x for _, cj, x in places]
        yield i, _diagonal_row(pts, i)


def lm_moduli_coordinates(chain: Chain) -> LimitFamily:
    """Chart coordinates of a stable chain: contract onto the component of
    each mark, collapsing earlier components to (0:1) and later ones to
    (1:0), rescaled so the chart's own mark sits at (1:1)."""
    if not is_lm_stable(chain):
        raise UnstableInputError("chain is not stable")
    if chain.labels != tuple(range(chain.n)):
        raise ValueError("chart families require mark labels 0..n-1")
    charts = {i: _points(pairs) for i, pairs in _lm_chart_pairs(chain)}
    return LimitFamily(LM, chain.n, charts)


def _degree_numerator(blocks: Iterable[Iterable[int]], nums: Sequence[int], den: int) -> int:
    """den times the total weighted degree of a chart partition, for the
    weights nums[i] / den: each coincidence class contributes the smaller of
    1 and its weight sum.  Integers throughout."""
    return sum(min(den, sum(nums[i] for i in block)) for block in blocks)


# ---------------------------------------------------------------------------
# Functor conditions.


class ConditionReport(_Frozen):
    __slots__ = _fields = ("name", "passed", "witness")

    def __init__(self, name: str, passed: bool, witness: object = None):
        _set(self, "name", name)
        _set(self, "passed", passed)
        _set(self, "witness", witness)


def _check_anchor_rows(charts: dict):
    for label, row in charts.items():
        i1, i2, i3 = label
        if row[i1] != ZERO_POINT or row[i2] != INF_POINT or row[i3] != ONE_POINT:
            return (label,)
    return None


def _check_permutation_identities(charts: dict, n: int):
    for (i1, i2, i3), row in charts.items():
        swapped = charts.get((i2, i1, i3))
        flipped = charts.get((i3, i2, i1))
        for i4 in range(n):
            if i4 in (i1, i2, i3):
                continue
            x0, x1 = row[i4].ihom
            if swapped is not None:
                y0, y1 = swapped[i4].ihom
                if y0 * x0 != y1 * x1:
                    return ((i1, i2, i3), i4, "swap01")
            if flipped is not None:
                z0, z1 = flipped[i4].ihom
                if z0 * x1 != z1 * (x1 - x0):
                    return ((i1, i2, i3), i4, "swap0last")
    return None


def _check_exchange_identity(charts: dict, n: int):
    for (i1, i2, i3), row in charts.items():
        for i4 in range(n):
            if i4 in (i1, i2, i3):
                continue
            other = charts.get((i1, i2, i4))
            if other is None:
                continue
            x0, x1 = row[i4].ihom
            y0, y1 = other[i3].ihom
            if x0 * y0 != x1 * y1:
                return ((i1, i2, i3), i4)
    return None


def _check_five_term(charts: dict, n: int):
    for (i1, i2, i3), row in charts.items():
        for i4 in range(n):
            if i4 in (i1, i2, i3):
                continue
            other = charts.get((i1, i2, i4))
            if other is None:
                continue
            a0, a1 = row[i4].ihom
            for i5 in range(n):
                if i5 in (i1, i2, i3, i4):
                    continue
                b0, b1 = row[i5].ihom
                c0, c1 = other[i5].ihom
                if a0 * b1 * c0 != a1 * b0 * c1:
                    return ((i1, i2, i3), i4, i5)
    return None


def _check_row_shape(charts: dict, n: int):
    for label, row in charts.items():
        if len(row) != n:
            return (label,)
    return None


def verify_functor_conditions(family: LimitFamily) -> list[ConditionReport]:
    """Check the defining identities of a chart family, with a concrete
    witness for each failed condition.

    The conditions run once per family, on the first call (here or in
    `reconstruct_tree`); every call returns a fresh list of those reports.
    """
    return list(family._reports)


def _functor_reports(family: LimitFamily) -> list[ConditionReport]:
    """The reports of `verify_functor_conditions`, computed."""
    # the checks look up many charts, which costs more through the
    # read-only view than in a plain dict; the view's copy() is that dict's
    charts = family.charts.copy()
    n = family.n
    reports: list[ConditionReport] = []

    def add(name, witness):
        reports.append(ConditionReport(name, witness is None, witness))

    if family.mode == LM:
        w = None
        if sorted(charts) != list(range(n)):
            w = ("missing charts",)
        add("charts-complete", w)
        if w is not None:
            return reports
        w = _check_row_shape(charts, n)
        add("row-shape", w)
        if w is not None:
            return reports
        w = None
        for i in range(n):
            if charts[i][i] != ONE_POINT:
                w = (i,)
                break
        add("diagonal-normalization", w)
        w = None
        for i in range(n):
            ci = charts[i]
            for j in range(n):
                cj = charts[j]
                for k in range(n):
                    a0, a1 = cj[i].ihom
                    b0, b1 = ci[k].ihom
                    c0, c1 = cj[k].ihom
                    if a0 * b0 * c1 != a1 * b1 * c0:
                        w = (i, j, k)
                        break
                if w:
                    break
            if w:
                break
        add("triple-identity", w)
        return reports

    all_labels = set(itertools.permutations(range(n), 3))
    if family.mode == GK:
        w = None if set(charts) == all_labels else ("missing or malformed chart labels",)
        add("charts-complete", w)
        if w is not None:
            return reports
    else:
        w = None
        if not set(charts) <= all_labels:
            w = ("malformed chart labels",)
        else:
            for tset in family.active_sets():
                for order in itertools.permutations(tset):
                    if order not in charts:
                        w = (tset, order)
                        break
                if w:
                    break
        add("ordering-closure", w)
        if w is not None:
            return reports
    bad_row = _check_row_shape(charts, n)
    add("row-shape", bad_row)
    if bad_row is not None:
        return reports
    add("anchor-normalization", _check_anchor_rows(charts))
    add("permutation-identities", _check_permutation_identities(charts, n))
    add("exchange-identity", _check_exchange_identity(charts, n))
    add("five-term-identity", _check_five_term(charts, n))

    if family.mode == HASSETT:
        try:
            if family.a is None:
                raise ValueError("missing weight vector")
            if len(family.a) != n:
                raise ValueError(f"weight vector of length {len(family.a)} for {n} marks")
            target = HassettPolytope(family.a)
        except ValueError as exc:
            add("weight-data", (str(exc),))
            return reports
        active = family.active_sets()
        cfgs = [QnConfig(tuple(charts[t])) for t in active]
        w = None
        for tset, cfg in zip(active, cfgs):
            blocks = coincidence_partition(cfg).blocks
            if _degree_numerator(blocks, target.nums, target.den) <= 2 * target.den:
                w = (tset,)
                break
        add("chart-degree", w)
        polys = [theta_polytope(cfg) for cfg in cfgs]
        covered, uncovered = cover_check(polys, QN, n, target.a)
        add("covering", None if covered else (uncovered,))
        w = None
        active_set = set(active)
        for tset in active:
            row = charts[tset]
            for other in itertools.combinations(range(n), 3):
                if len({row[other[0]].ihom, row[other[1]].ihom, row[other[2]].ihom}) == 3:
                    if other not in active_set:
                        w = (tset, other)
                        break
            if w:
                break
        add("active-promotion", w)
    return reports


def family_passes(reports: Sequence[ConditionReport]) -> bool:
    return all(r.passed for r in reports)


# ---------------------------------------------------------------------------
# Reconstruction.


def reconstruct_tree(family: LimitFamily) -> Union[PointedTree, Chain]:
    """Rebuild the stable object from its chart family.

    The family must pass the functor conditions; it raises
    `InconsistentFamilyError` naming the first condition that fails.  It
    reads the family's reports through `verify_functor_conditions`, which
    runs the conditions once per family, so verifying a family and then
    reconstructing it runs them (and the covering test) once.

    Charts are grouped by Moebius equivalence of their configurations (one
    group per component) in one pass keyed by `QnConfig.normal_form`; key
    equality is an equivalence relation, so the groups and their order are
    those of a first-fit pass comparing each chart with every group.
    Adjacency is read off complementary coincidence blocks, and node
    coordinates are the block positions.  The result
    reproduces the family exactly: after the stability test ("stability"),
    the family is compared with the rebuilt tree's integer chart rows by
    cross-multiplication, without building a second family, and
    "round-trip" is raised exactly when `moduli_coordinates` of the tree
    would differ from the family.
    """
    reports = verify_functor_conditions(family)
    for r in reports:
        if not r.passed:
            raise InconsistentFamilyError(r.name, r.witness)
    if family.mode == LM:
        return _reconstruct_chain(family)
    n = family.n
    active = family.active_sets()
    configs = {t: QnConfig(tuple(family.charts[t])) for t in active}
    by_form: dict[tuple, list[tuple[int, ...]]] = {}
    for t in active:
        by_form.setdefault(configs[t].normal_form, []).append(t)
    groups = list(by_form.values())
    comp_names = tuple(f"c{k}" for k in range(len(groups)))
    rep_cfg = [configs[g[0]] for g in groups]
    parts = [coincidence_partition(cfg).blocks for cfg in rep_cfg]
    full = frozenset(range(n))
    edges = []
    direction_blocks: dict[int, set[tuple[int, ...]]] = {k: set() for k in range(len(groups))}
    for gi, gj in itertools.combinations(range(len(groups)), 2):
        pairs = [
            (p, r)
            for p in parts[gi]
            for r in parts[gj]
            if not (set(p) & set(r)) and set(p) | set(r) == full
        ]
        if not pairs:
            continue
        if len(pairs) != 1:
            raise InconsistentFamilyError("component-adjacency", (gi, gj))
        p, r = pairs[0]
        node_i = rep_cfg[gi].sections[p[0]]
        node_j = rep_cfg[gj].sections[r[0]]
        edges.append(TreeEdge((comp_names[gi], comp_names[gj]), (node_i, node_j)))
        direction_blocks[gi].add(p)
        direction_blocks[gj].add(r)
    marks = []
    for k in range(n):
        homes = []
        for gi in range(len(groups)):
            block = next(b for b in parts[gi] if k in b)
            if block not in direction_blocks[gi]:
                homes.append(gi)
        if len(homes) != 1:
            raise InconsistentFamilyError("mark-residence", (k, homes))
        gi = homes[0]
        marks.append((k, comp_names[gi], rep_cfg[gi].sections[k]))
    tree = PointedTree(comp_names, tuple(edges), tuple(marks))
    try:
        validate_tree(tree)
    except ValueError as exc:
        raise InconsistentFamilyError("tree-shape", str(exc))
    try:
        aw = _chart_weights(tree, family.mode, family.a)
    except UnstableInputError:
        raise InconsistentFamilyError("stability", None)
    if aw != family.a or not _charts_match(family.charts, _chart_pairs(tree, family.mode)):
        raise InconsistentFamilyError("round-trip", None)
    return tree


def _charts_match(charts: Mapping, rows) -> bool:
    """Whether `charts` has the keys of the (key, integer pairs) `rows` and
    for each a tuple of ProjPoints equal to the pairs by
    cross-multiplication; the row-shape condition checked the lengths."""
    count = 0
    for key, pairs in rows:
        row = charts.get(key)
        if not isinstance(row, tuple):
            return False
        for pt, (a, b) in zip(row, pairs):
            if not isinstance(pt, ProjPoint):
                return False
            x0, x1 = pt.ihom
            if x0 * b != x1 * a:
                return False
        count += 1
    return count == len(charts)


def _same_component(rep: Sequence[ProjPoint], row: Sequence[ProjPoint], i: int) -> bool:
    """Whether `row`, the chart of mark i, is `rep` rescaled by `_diagonal_row`
    to put i at (1:1), by cross-multiplication (never if rep[i] is 0 or inf)."""
    c0, c1 = rep[i].ihom
    pairs = _diagonal_row([x.ihom for x in rep], i)
    return bool(c0 and c1) and all(a * y.ihom[1] == b * y.ihom[0] for (a, b), y in zip(pairs, row))


def _reconstruct_chain(family: LimitFamily) -> Chain:
    n = family.n
    groups: list[list[int]] = []
    for i in range(n):
        for g in groups:
            if _same_component(family.charts[g[0]], family.charts[i], i):
                g.append(i)
                break
        else:
            groups.append([i])
    # order groups from the zero end: a group earlier than this one shows up
    # at (0:1) in this group's chart
    leads = [g[0] for g in groups]
    before_counts = [sum(j != i and family.charts[i][j] == ZERO_POINT for j in leads) for i in leads]
    if sorted(before_counts) != list(range(len(groups))):
        raise InconsistentFamilyError("chain-order", tuple(before_counts))
    # each group lists its marks in increasing order, its lead first
    ordered = sorted(zip(before_counts, groups))
    chain = Chain(tuple(tuple((lb, family.charts[g[0]][lb]) for lb in g) for _, g in ordered))
    try:
        validate_chain(chain)
    except ValueError as exc:
        raise InconsistentFamilyError("chain-shape", str(exc))
    if not is_lm_stable(chain):
        raise InconsistentFamilyError("stability", None)
    if family.a is not None or not _charts_match(family.charts, _lm_chart_pairs(chain)):
        raise InconsistentFamilyError("round-trip", None)
    return chain


# ---------------------------------------------------------------------------
# Isomorphism tests and weighted/chain correspondences.


def tree_isomorphic(t1: PointedTree, t2: PointedTree) -> bool:
    """Equality of marked trees up to relabelling components and a Moebius
    map on each component; marks must match exactly.

    Components are matched by the first-zero patterns of the
    `QnConfig.normal_form`s of their `mark_images` (the coincidence
    partitions of the images), and matched components must have equal
    normal forms; a component with fewer than three distinct image points,
    or a tree with fewer than three marks, is never isomorphic to
    anything."""
    if t1.labels != t2.labels or t1.n < 3:
        return False
    form1 = {c: cfg.normal_form for c, cfg in mark_images(t1).items()}
    form2 = {c: cfg.normal_form for c, cfg in mark_images(t2).items()}
    by_first = {first: c for c, (first, _) in form2.items()}
    if len({first for first, _ in form1.values()}) != len(form1) or len(by_first) != len(form2):
        raise ValueError("components of a stable tree have distinct image partitions")
    match = {}
    for c, (first, _) in form1.items():
        if first not in by_first:
            return False
        match[c] = by_first[first]
    if len(t1.edges) != len(t2.edges):
        return False
    e2 = {frozenset(e.ends) for e in t2.edges}
    for e in t1.edges:
        if frozenset(match[x] for x in e.ends) not in e2:
            return False
    for c, (_, values) in form1.items():
        # values is None for fewer than three distinct image points
        if values is None or values != form2[match[c]][1]:
            return False
    return True


def chain_canonical(chain: Chain) -> Chain:
    """Rescale each component so its least mark sits at (1:1)
    (`_diagonal_row`); a chain that `validate_chain` refuses raises."""
    validate_chain(chain)
    comps = []
    for comp in chain.components:
        pts = _points(_diagonal_row([p.ihom for _, p in comp], 0))
        comps.append(tuple(zip((lb for lb, _ in comp), pts)))
    return Chain(tuple(comps))


def chain_isomorphic(c1: Chain, c2: Chain) -> bool:
    return chain_canonical(c1) == chain_canonical(c2)


def lm_specialization_weights(n: int) -> tuple[Fraction, ...]:
    """Weight vector (1, 1, eps, ..., eps) with eps = 1/(10n)."""
    eps = Fraction(1, 10 * n)
    return (Fraction(1), Fraction(1)) + (eps,) * (n - 2)


def tree_from_chain(chain: Chain, n: int) -> PointedTree:
    """The weighted tree with heavy marks 0 and 1 at the chain anchors and
    the chain marks (labels 2..n-1) kept in place."""
    if chain.labels != tuple(range(2, n)):
        raise ValueError("chain marks must be labelled 2..n-1")
    m = len(chain.components)
    comps = tuple(f"c{k}" for k in range(m))
    edges = []
    for k in range(m - 1):
        edges.append(TreeEdge((comps[k], comps[k + 1]), (INF_POINT, ZERO_POINT)))
    marks = [(0, comps[0], ZERO_POINT), (1, comps[m - 1], INF_POINT)]
    for k, comp in enumerate(chain.components):
        for lb, p in comp:
            marks.append((lb, comps[k], p))
    return PointedTree(comps, tuple(edges), tuple(sorted(marks)))


def chain_from_tree(tree: PointedTree) -> Chain:
    """Inverse of `tree_from_chain` up to isomorphism: orient the path from
    the component of mark 0, send the two special points of each component
    to the anchors, and drop the heavy marks."""
    validate_tree(tree)
    if not {0, 1} <= set(tree.labels):
        raise ValueError("marks 0 and 1 must be present")
    adj = _adjacency(tree)
    if any(len(adj[c]) > 2 for c in tree.components):
        raise ValueError("tree is not a path")
    c0, p0 = _mark_point(tree, 0)
    c1, p1 = _mark_point(tree, 1)
    if len(tree.components) > 1:
        if c0 == c1 or len(adj[c0]) != 1 or len(adj[c1]) != 1:
            raise ValueError("marks 0 and 1 must sit on the two end components")
    order = [c0]
    prev = None
    while True:
        nxt = [e.other(order[-1]) for e in adj[order[-1]] if e.other(order[-1]) != prev]
        if not nxt:
            break
        prev = order[-1]
        order.append(nxt[0])
    if order[-1] != c1 or len(order) != len(tree.components):
        raise ValueError("marks 0 and 1 must sit on the two end components of a path")
    comps = []
    for k, c in enumerate(order):
        if k == 0:
            toward0 = p0
        else:
            e = next(e for e in adj[c] if e.other(c) == order[k - 1])
            toward0 = e.node_at(c)
        if k == len(order) - 1:
            toward1 = p1
        else:
            e = next(e for e in adj[c] if e.other(c) == order[k + 1])
            toward1 = e.node_at(c)
        m = moebius_two_point(toward0, toward1)
        row = []
        for lb, comp, p in tree.marks:
            if comp == c and lb not in (0, 1):
                row.append((lb, m.apply(p)))
        comps.append(tuple(row))
    return Chain(tuple(comps))


def charts_cover_hypersimplex(family: LimitFamily) -> tuple[bool, Optional[tuple[int, ...]]]:
    """Whether the stability polytopes of the active charts cover the whole
    weight polytope.

    For chart families this reduces to a finite combinatorial test: the
    polytopes of distinct components meet only along walls, and any
    full-dimensional uncovered region would contain the chart weight of some
    triple, so covering holds iff for every 3-subset some active chart keeps
    it separated (at most one index per coincidence class).
    """
    n = family.n
    active = family.active_sets()
    blockmaps = []
    for t in active:
        bm = {}
        for b in coincidence_partition(QnConfig(tuple(family.charts[t]))).blocks:
            for i in b:
                bm[i] = b
        blockmaps.append(bm)
    for trip in itertools.combinations(range(n), 3):
        ok = False
        for bm in blockmaps:
            if len({bm[trip[0]], bm[trip[1]], bm[trip[2]]}) == 3:
                ok = True
                break
        if not ok:
            return False, trip
    return True, None
