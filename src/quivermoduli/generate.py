"""Seeded generators: random configurations, weights, trees and chains, and
the exhaustive small catalogues used by the verification suites.

Tree shapes are encoded by pairwise-compatible split systems (one split per
edge, both sides of size at least two); every compatible system yields a
stable shape and vice versa, which makes exhaustive shape enumeration a
simple DFS.
"""
from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import comb, factorial, inf
from typing import Iterator, Optional, Sequence

from .chambers import QnWeight, _qn_wall_sides, check_work, max_work
from .curves import Chain, PointedTree, TreeEdge, is_a_stable, validate_tree
from .projline import INF_POINT, ProjPoint, affine

Rng = random.Random

# a fixed ordered pool of pairwise distinct points, infinity early so it
# shows up in small samples
_VALUE_POOL: list[ProjPoint] = [INF_POINT] + [
    affine(Fraction(p, q))
    for p, q in [
        (0, 1), (1, 1), (2, 1), (-1, 1), (3, 1), (1, 2), (-2, 1), (5, 1),
        (1, 3), (-1, 2), (7, 1), (2, 3), (-3, 1), (4, 1), (3, 2), (-1, 3),
        (5, 2), (1, 4), (-5, 1), (6, 1), (2, 5), (-3, 2), (9, 1), (1, 5),
        (7, 2), (-4, 1), (8, 1), (3, 4), (-2, 3), (11, 1), (5, 3), (1, 6),
    ]
]


def point_pool(k: int, offset: int = 0) -> list[ProjPoint]:
    """k pairwise distinct points, deterministically."""
    if offset + k > len(_VALUE_POOL):
        extra = [affine(Fraction(13 + i, 7)) for i in range(offset + k)]
        pool = _VALUE_POOL + [p for p in extra if p not in _VALUE_POOL]
    else:
        pool = _VALUE_POOL
    return pool[offset : offset + k]


def random_points(rng: Rng, k: int) -> list[ProjPoint]:
    """k pairwise distinct random points with small coordinates."""
    out: list[ProjPoint] = []
    seen = set()
    while len(out) < k:
        if rng.random() < 0.08:
            p = INF_POINT
        else:
            p = affine(Fraction(rng.randint(-12, 12), rng.randint(1, 6)))
        if p.ihom not in seen:
            seen.add(p.ihom)
            out.append(p)
    return out


# ---------------------------------------------------------------------------
# Partitions.


def set_partitions(items: Sequence[int]) -> Iterator[list[list[int]]]:
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def _partition_count(n: int, weight, cap: Optional[int]):
    """The sum over k of S(n, k) weight(k), S(n, k) the partitions of n items
    into k blocks.  With weight positive and growing in k the sum grows with
    n (add a singleton block), so once it passes `cap` at fewer items, inf."""
    row = [1]
    for _ in range(n):
        if cap is not None and sum(s * weight(k) for k, s in enumerate(row)) > cap:
            return inf
        row = [k * a + b for k, (a, b) in enumerate(zip(row + [0], [0] + row))]
    return sum(s * weight(k) for k, s in enumerate(row))


def count_set_partitions(n: int, anchored: bool = False, cap: Optional[int] = None):
    """How many partitions set_partitions(range(n)) yields; with `anchored`,
    how many (partition, pn_decorations) pairs, as k blocks take
    k^2 + k + 1 anchor choices.  With `cap`, see `_partition_count`."""
    return _partition_count(n, (lambda k: k * k + k + 1) if anchored else (lambda k: 1), cap)


def pn_decorations(blocks: Sequence[Sequence[int]]):
    """All ways to pick disjoint (possibly empty) anchor blocks j0, jinf."""
    options = [None] + list(range(len(blocks)))
    for b0 in options:
        for binf in options:
            if b0 is not None and b0 == binf:
                continue
            yield (
                tuple(blocks[b0]) if b0 is not None else (),
                tuple(blocks[binf]) if binf is not None else (),
            )


def config_points_for_partition(
    blocks: Sequence[Sequence[int]],
    n: int,
    j0: Sequence[int] = (),
    jinf: Sequence[int] = (),
) -> list[ProjPoint]:
    """A witness configuration with the prescribed coincidence structure;
    for anchor decorations the j0 block sits at (0:1) and jinf at (1:0)."""
    zero = affine(0)
    out: list[Optional[ProjPoint]] = [None] * n
    spare = [p for p in point_pool(len(blocks) + 2) if p != zero and p != INF_POINT]
    k = 0
    for block in blocks:
        if tuple(block) == tuple(j0):
            p = zero
        elif tuple(block) == tuple(jinf):
            p = INF_POINT
        else:
            p = spare[k]
            k += 1
        for i in block:
            out[i] = p
    return out  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# Split systems and tree shapes.


def all_splits(n: int) -> list[tuple[int, ...]]:
    """Every split of n marks with two or more on each side, as the side
    that holds mark 0: the sides of the hypersimplex walls.  Their number
    2^(n-1) - n - 1 counts against QML_MAX_WORK, and is not computed when n
    puts it past 2^64 times the cap."""
    cap = max_work()
    check_work(inf if n > cap.bit_length() + 66 else max(0, 2 ** (n - 1) - n - 1), f"splits on {n} marks")
    return _qn_wall_sides(n)


def splits_compatible(n: int, a: Sequence[int], b: Sequence[int]) -> bool:
    sa, sb = set(a), set(b)
    return sa <= sb or sb <= sa or not (sa & sb) or sa | sb == set(range(n))


def count_split_systems(n: int, cap: Optional[int] = None):
    """How many split systems enumerate_split_systems(n) yields; with `cap`,
    inf once t[m] passes it for some m < n - 1 (t grows with m).

    Rooted at the last mark, a shape is a rooted tree on the other
    m = n - 1 marks whose inner vertices have two or more children; t[m]
    counts these trees and f[m] the forests of them.  Splitting off the tree
    that holds the first mark, with j of the m marks,
    f[m] = sum over j of C(m-1, j-1) t[j] f[m-j].  For m >= 2 the terms with
    j < m count the forests of two or more trees, which are the top subtrees
    of the t[m] trees, and the term j = m is t[m] again, so f[m] = 2 t[m]."""
    t, f = [0, 1], [1, 1]
    for m in range(2, n):
        if cap is not None and t[m - 1] > cap:
            return inf
        t.append(sum(comb(m - 1, j - 1) * t[j] * f[m - j] for j in range(1, m)))
        f.append(2 * t[m])
    return t[max(n - 1, 1)]


def enumerate_split_systems(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """All pairwise-compatible sets of splits, i.e. all stable tree shapes;
    their number counts against QML_MAX_WORK."""
    check_work(count_split_systems(n, max_work()), f"split systems on {n} marks")
    splits = all_splits(n)
    out: list[tuple[tuple[int, ...], ...]] = []

    def extend(prefix: list[tuple[int, ...]], start: int):
        out.append(tuple(prefix))
        for k in range(start, len(splits)):
            s = splits[k]
            if all(splits_compatible(n, s, t) for t in prefix):
                prefix.append(s)
                extend(prefix, k + 1)
                prefix.pop()

    extend([], 0)
    return out


def tree_from_splits(
    n: int,
    splits: Sequence[Sequence[int]],
    rng: Optional[Rng] = None,
    clusters: Optional[Sequence[Sequence[int]]] = None,
) -> PointedTree:
    """Build a pointed tree whose edges realize the given compatible splits.

    Coordinates are fresh distinct points per component (random when a
    generator is supplied).  `clusters` optionally groups marks that should
    share a point (for weighted trees); clustered marks must be separated
    from each other by no split.
    """
    comps: dict[int, set[int]] = {0: set(range(n))}
    edges: list[list] = []  # [comp_a, comp_b, marks_on_b_side]
    next_id = 1
    for raw in splits:
        j = frozenset(raw)
        hosts = []
        for cid in comps:
            ok = True
            for e in edges:
                if cid not in (e[0], e[1]):
                    continue
                far = e[2] if e[0] == cid else frozenset(range(n)) - e[2]
                if not (far <= j or not (far & j)):
                    ok = False
                    break
            if ok:
                hosts.append(cid)
        if len(hosts) != 1:
            raise ValueError(f"split {sorted(j)} has {len(hosts)} insertion points")
        cid = hosts[0]
        cj, cjc = next_id, next_id + 1
        next_id += 2
        res = comps.pop(cid)
        comps[cj] = res & j
        comps[cjc] = res - j
        for e in edges:
            for end in (0, 1):
                if e[end] == cid:
                    far = e[2] if end == 0 else frozenset(range(n)) - e[2]
                    e[end] = cj if far <= j else cjc
        edges.append([cj, cjc, frozenset(range(n)) - j])
    names = {cid: f"c{k}" for k, cid in enumerate(sorted(comps))}
    mark_cluster = {i: (i,) for i in range(n)}
    if clusters is not None:
        for cl in clusters:
            for i in cl:
                mark_cluster[i] = tuple(sorted(cl))
    tree_edges = []
    need: dict[int, int] = {}
    for cid, res in comps.items():
        res_clusters = {mark_cluster[i] for i in res}
        need[cid] = len(res_clusters) + sum(1 for e in edges if cid in (e[0], e[1]))
    pools: dict[int, list[ProjPoint]] = {}
    for cid in comps:
        if rng is None:
            pools[cid] = point_pool(need[cid])
        else:
            pools[cid] = random_points(rng, need[cid])
    counters = {cid: 0 for cid in comps}

    def take(cid: int) -> ProjPoint:
        p = pools[cid][counters[cid]]
        counters[cid] += 1
        return p

    for a, b, _ in edges:
        tree_edges.append(TreeEdge((names[a], names[b]), (take(a), take(b))))
    marks = []
    cluster_point: dict[tuple[int, ...], ProjPoint] = {}
    for cid, res in comps.items():
        for i in sorted(res):
            cl = mark_cluster[i]
            if cl not in cluster_point:
                cluster_point[cl] = take(cid)
            marks.append((i, names[cid], cluster_point[cl]))
    tree = PointedTree(tuple(names[c] for c in sorted(comps)), tuple(tree_edges), tuple(marks))
    validate_tree(tree)
    return tree


def random_split_system(rng: Rng, n: int) -> list[tuple[int, ...]]:
    splits = all_splits(n)
    rng.shuffle(splits)
    chosen: list[tuple[int, ...]] = []
    budget = rng.randint(0, max(0, n - 3))
    for s in splits:
        if len(chosen) >= budget:
            break
        if all(splits_compatible(n, s, t) for t in chosen):
            chosen.append(s)
    return chosen


def random_gk_tree(rng: Rng, n: int) -> PointedTree:
    return tree_from_splits(n, random_split_system(rng, n), rng)


# ---------------------------------------------------------------------------
# Chains.


def count_chain_shapes(n: int, cap: Optional[int] = None):
    """How many shapes enumerate_chain_shapes yields on n labels: the
    ordered set partitions.  With `cap`, see `_partition_count`."""
    return _partition_count(n, factorial, cap)


def enumerate_chain_shapes(labels: Sequence[int]) -> list[tuple[tuple[int, ...], ...]]:
    """All ordered set partitions of the labels (chain component contents);
    their number counts against QML_MAX_WORK."""
    labels = list(labels)
    check_work(count_chain_shapes(len(labels), max_work()), f"chain shapes on {len(labels)} marks")
    out = []
    for part in set_partitions(labels):
        for perm in itertools.permutations(range(len(part))):
            out.append(tuple(tuple(sorted(part[k])) for k in perm))
    return sorted(set(out))


def chain_from_shape(
    shape: Sequence[Sequence[int]],
    rng: Optional[Rng] = None,
    coincide: bool = False,
) -> Chain:
    """A chain with the given ordered components; marks within a component
    may optionally share points."""
    comps = []
    for k, block in enumerate(shape):
        if rng is None:
            pts = [p for p in point_pool(len(block) + 2, offset=2)]
        else:
            pts = random_points(rng, len(block) + 2)
        pts = [p for p in pts if p.ihom not in ((0, 1), (1, 0))][: len(block)]
        while len(pts) < len(block):
            pts.append(affine(Fraction(17 + len(pts) + k, 3)))
        if coincide and rng is not None and len(block) > 1:
            for i in range(1, len(block)):
                if rng.random() < 0.4:
                    pts[i] = pts[0]
        comps.append(tuple((lb, pts[i]) for i, lb in enumerate(sorted(block))))
    return Chain(tuple(comps))


def random_chain(rng: Rng, labels: Sequence[int]) -> Chain:
    labels = list(labels)
    m = rng.randint(1, len(labels))
    blocks: list[list[int]] = [[] for _ in range(m)]
    for lb in labels:
        blocks[rng.randrange(m)].append(lb)
    blocks = [b for b in blocks if b]
    rng.shuffle(blocks)
    return chain_from_shape([tuple(sorted(b)) for b in blocks], rng, coincide=True)


# ---------------------------------------------------------------------------
# Weighted trees.


def random_hassett_weight(rng: Rng, n: int) -> tuple[Fraction, ...]:
    """A random admissible weight vector: entries in (0, 1], total above 2.

    Raises ValueError for n <= 2, where no such vector exists."""
    if n <= 2:
        raise ValueError(f"Hassett weights need n >= 3 entries to sum above 2, got n = {n}")
    while True:
        a = []
        for _ in range(n):
            if rng.random() < 0.3:
                a.append(Fraction(1))
            else:
                a.append(Fraction(rng.randint(1, 12), 12))
        if sum(a) > 2:
            return tuple(a)


def random_a_stable_tree(rng: Rng, n: int, a: Sequence[Fraction]) -> PointedTree:
    """Rejection-sample a weighted-stable tree: random compatible splits plus
    random coincidence clusters, validated exactly."""
    aw = tuple(Fraction(v) for v in a)
    for _ in range(400):
        splits = random_split_system(rng, n)
        # clusters must not be separated by any split
        sig = {i: tuple(i in set(s) for s in splits) for i in range(n)}
        groups: dict[tuple, list[int]] = {}
        for i in range(n):
            groups.setdefault(sig[i], []).append(i)
        clusters = []
        used = set()
        for members in groups.values():
            pool = [i for i in members if i not in used]
            rng.shuffle(pool)
            while pool:
                size = rng.randint(1, len(pool))
                cl = sorted(pool[:size])
                if size > 1 and sum(aw[i] for i in cl) <= 1 and rng.random() < 0.6:
                    clusters.append(cl)
                    pool = pool[size:]
                else:
                    pool = pool[1:]
        try:
            tree = tree_from_splits(n, splits, rng, clusters=clusters)
        except ValueError:
            continue
        if is_a_stable(tree, aw):
            return tree
    # distinct marks on one component are stable for every admissible weight
    return tree_from_splits(n, [], rng)


def heavy_tree_shapes(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """Chain shapes on labels 2..n-1, the shapes of trees with two heavy
    marks at the ends."""
    return enumerate_chain_shapes(list(range(2, n)))


# ---------------------------------------------------------------------------
# Weights.


def random_vertex_cone_weight(rng: Rng, n2: int, a: int, b: int) -> QnWeight:
    """A weight in the cone over the vertex e_a + e_b, strictly off the wall
    bounding it: the convex combination of a wall point toward the vertex."""
    rest = [i for i in range(n2) if i not in (a, b)]
    while True:
        raw = [Fraction(rng.randint(1, 9)) for _ in rest]
        s = sum(raw)
        xs = [v / s for v in raw]
        if all(v <= 1 for v in xs):
            break
    t = Fraction(rng.randint(1, 11), 12)
    mu = Fraction(rng.randint(1, 11), 12)
    theta = [Fraction(0)] * n2
    theta[a] = mu * t + (1 - mu)
    theta[b] = mu * (1 - t) + (1 - mu)
    for i, v in zip(rest, xs):
        theta[i] = mu * v
    return QnWeight(tuple(theta))
