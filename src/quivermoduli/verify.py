"""The verification suites: every acceptance property as a runnable check.

A suite is a function of (report, seed, bounds).  It counts each check on
the report with `_Report.expect`; the first failed check records its
counterexample and ends the suite by raising `_Stop`, which `run_suite`
catches before it returns the report dict: a pass flag, the check count,
and the counterexample if any.  All randomness is drawn from seeded
generators, so reports are reproducible byte for byte.

A tree's edge splits are read off its mark images (`curves.mark_images`):
the split of an edge is the set of marks whose image on one end of the
edge sits at its node there.
"""
from __future__ import annotations

import itertools
import random
import zlib
from fractions import Fraction
from math import inf
from typing import Callable, Optional

from . import chambers, configs, curves, generate
from .chambers import (
    PN,
    QN,
    PnWeight,
    QnWeight,
    chamber_adjacency,
    chamber_second_witness,
    chart_weight_pn,
    chart_weight_qn,
    check_work,
    classify_weight,
    cover_check,
    enumerate_chambers,
    enumerate_walls,
    max_work,
    project_weight_to_pn,
    wall_relative_interior_point,
    wall_value,
)
from .configs import (
    PnConfig,
    QnConfig,
    brute_force_semistable,
    check_limit_equations,
    glue_fiber,
    is_semistable,
    map_config_qn2_pn,
    moebius_equivalent,
    normalize_chart_qn,
    theta_polytope,
)
from .curves import (
    GK,
    HASSETT,
    LimitFamily,
    chain_from_tree,
    chain_isomorphic,
    charts_cover_hypersimplex,
    family_passes,
    is_a_stable,
    is_gk_stable,
    lm_moduli_coordinates,
    lm_specialization_weights,
    moduli_coordinates,
    reconstruct_tree,
    tree_from_chain,
    tree_isomorphic,
    verify_functor_conditions,
)
from .generate import (
    chain_from_shape,
    config_points_for_partition,
    count_chain_shapes,
    count_set_partitions,
    count_split_systems,
    enumerate_chain_shapes,
    enumerate_split_systems,
    heavy_tree_shapes,
    pn_decorations,
    random_a_stable_tree,
    random_chain,
    random_gk_tree,
    random_hassett_weight,
    random_points,
    random_vertex_cone_weight,
    set_partitions,
    tree_from_splits,
)

DEFAULT_SEED = 20260810


def _rng(seed: int, tag: str) -> random.Random:
    return random.Random(seed ^ zlib.crc32(tag.encode()))


class _Stop(Exception):
    """A check failed; the suite ends with its report as it stands."""


class _Report:
    def __init__(self, suite: str):
        self.suite = suite
        self.checks = 0
        self.counterexample = None

    def expect(self, condition: bool, witness: Callable[[], object]) -> None:
        """Count one check; if it failed, record witness() and end the suite."""
        self.checks += 1
        if not condition:
            self.counterexample = witness()
            raise _Stop

    def result(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.counterexample is None,
            "checks": self.checks,
            "counterexample": self.counterexample,
        }


def _qn_partition_configs(n: int):
    # not a generator, so the work check runs on the call
    check_work(count_set_partitions(n, cap=max_work()), f"set partitions of {n} marks")
    parts = ([tuple(sorted(b)) for b in part] for part in set_partitions(range(n)))
    return ((blocks, QnConfig(tuple(config_points_for_partition(blocks, n)))) for blocks in parts)


def _pn_partition_configs(n: int):
    check_work(count_set_partitions(n, anchored=True, cap=max_work()), f"anchored set partitions of {n} marks")
    for part in set_partitions(range(n)):
        blocks = [tuple(sorted(b)) for b in part]
        for j0, jinf in pn_decorations(blocks):
            pts = config_points_for_partition(blocks, n, j0, jinf)
            yield blocks, j0, jinf, PnConfig(tuple(pts))


def _random_config(rng: random.Random, mode: str, n: int):
    pts = random_points(rng, max(2, rng.randint(2, n)))
    secs = []
    for _ in range(n):
        if rng.random() < 0.06:
            secs.append(None)
        else:
            secs.append(rng.choice(pts))
    return QnConfig(tuple(secs)) if mode == QN else PnConfig(tuple(secs))


def _random_weight(rng: random.Random, mode: str, n: int):
    if mode == QN:
        if rng.random() < 0.15:
            i, j = rng.sample(range(n), 2)
            theta = [Fraction(0)] * n
            theta[i] = theta[j] = Fraction(1)
            return QnWeight(tuple(theta))
        while True:
            raw = [Fraction(rng.randint(0, 8)) for _ in range(n)]
            s = sum(raw)
            if s == 0:
                continue
            th = [2 * v / s for v in raw]
            if all(v <= 1 for v in th):
                return QnWeight(tuple(th))
    while True:
        raw = [Fraction(rng.randint(0, 8)) for _ in range(n)]
        s = sum(raw)
        if s == 0:
            continue
        th = tuple(v / s for v in raw)
        break
    e1 = -Fraction(rng.randint(0, 8), 8)
    return PnWeight(e1, -1 - e1, th)


def suite_stability_oracle(rep: _Report, seed: int, bounds: dict) -> None:
    exhaustive = bounds.get("exhaustive_n", (3, 4, 5))
    for n in exhaustive:
        weights_qn = [c.witness for c in enumerate_chambers(QN, n)]
        weights_qn += [wall_relative_interior_point(QN, n, w) for w in enumerate_walls(QN, n)]
        for blocks, cfg in _qn_partition_configs(n):
            for w in weights_qn:
                va = is_semistable(cfg, w)
                vb = brute_force_semistable(cfg, w)
                rep.expect(
                    va.kind == vb.kind,
                    lambda: {"mode": QN, "n": n, "partition": blocks, "weight": repr(w.theta), "fast": va.kind, "oracle": vb.kind},
                )
        weights_pn = [c.witness for c in enumerate_chambers(PN, n)]
        weights_pn += [wall_relative_interior_point(PN, n, w) for w in enumerate_walls(PN, n)]
        for blocks, j0, jinf, cfg in _pn_partition_configs(n):
            for w in weights_pn:
                va = is_semistable(cfg, w)
                vb = brute_force_semistable(cfg, w)
                rep.expect(
                    va.kind == vb.kind,
                    lambda: {"mode": PN, "n": n, "partition": blocks, "j0": j0, "jinf": jinf, "fast": va.kind, "oracle": vb.kind},
                )
    rng = _rng(seed, "stability-oracle")
    total = bounds.get("random_instances", 2000)
    random_n = bounds.get("random_n", (6, 7))
    cases = [(m, n) for m in (QN, PN) for n in random_n]
    per = total // len(cases)
    for mode, n in cases:
        for _ in range(per):
            cfg = _random_config(rng, mode, n)
            w = _random_weight(rng, mode, n)
            va = is_semistable(cfg, w)
            vb = brute_force_semistable(cfg, w)
            rep.expect(
                va.kind == vb.kind,
                lambda: {"mode": mode, "n": n, "config": repr(cfg), "weight": repr(w), "fast": va.kind, "oracle": vb.kind},
            )


def suite_theta_polytope(rep: _Report, seed: int, bounds: dict) -> None:
    for n in bounds.get("ns", (4, 5, 6)):
        partition_configs = _qn_partition_configs(n)
        vertex_weights = {}
        for i, j in itertools.combinations(range(n), 2):
            theta = [Fraction(0)] * n
            theta[i] = theta[j] = Fraction(1)
            vertex_weights[(i, j)] = QnWeight(tuple(theta))
        for blocks, cfg in partition_configs:
            poly = theta_polytope(cfg)
            verts = chambers.stability_polytope(poly)
            got = {
                tuple(k for k, v in enumerate(w.theta) if v == 1) for w in verts
            }
            want = {
                pair
                for pair, w in vertex_weights.items()
                if is_semistable(cfg, w).semistable
            }
            rep.expect(
                got == want,
                lambda: {"n": n, "partition": blocks, "vertices": sorted(got), "semistable_vertices": sorted(want)},
            )


def _grid(mode: str, n: int, den: int):
    """Every point of a plan's grid as (threshold, point), the key of its
    sign lookup.  The point is theta times den, each coordinate strictly
    between 0 and den; it sums to 2 * den for the hypersimplex and to den
    for the double star, whose threshold h = den * h1 runs over 1..den-1."""
    total = den if mode == PN else 2 * den
    for h in range(1, den) if mode == PN else (den,):
        for combo in itertools.product(range(1, den), repeat=n - 1):
            last = total - sum(combo)
            if 0 < last < den:
                yield h, combo + (last,)


def _grid_moves(mode: str, key):
    """The keys two grid units from `key`: two units of theta move from one
    coordinate to another; for the double star h may also move by two, or
    by one while one unit of theta moves."""
    h, pt = key
    if mode == PN:
        yield h + 2, pt
        yield h - 2, pt
    steps = ((0, 2), (1, 1), (-1, 1)) if mode == PN else ((0, 2),)
    for i, j in itertools.permutations(range(len(pt)), 2):
        for dh, step in steps:
            q = list(pt)
            q[i] += step
            q[j] -= step
            yield h + dh, tuple(q)


def _grid_signs(point: tuple[int, ...], walls, threshold: int):
    """Wall signs of a grid point (coordinates times den), or None on a
    wall.  The threshold is the walls' right-hand side on that scale: den
    for the hypersimplex (sum = 1), h = den * h1 for the double star
    (sum = -eta1)."""
    out = []
    for w in walls:
        v = sum(point[i] for i in w.j) - threshold
        if v == 0:
            return None
        out.append(1 if v > 0 else -1)
    return tuple(out)


def _distinguishing_config(mode: str, n: int, wall):
    """The configuration with the wall's marks at one point (the pn anchor
    infinity) and every other mark alone."""
    blocks = [tuple(sorted(wall.j))] + [(i,) for i in range(n) if i not in wall.j]
    if mode == QN:
        return QnConfig(tuple(config_points_for_partition(blocks, n)))
    return PnConfig(tuple(config_points_for_partition(blocks, n, j0=(), jinf=blocks[0])))


def _crosses_one_wall(a, b, walls) -> bool:
    """Whether chambers a and b differ in exactly one wall, and the segment
    between their witnesses meets that wall at an interior point lying on
    no other wall and on the same side of every other wall as a."""
    diff = [t for t, (x, y) in enumerate(zip(a.signs, b.signs)) if x != y]
    if len(diff) != 1:
        return False
    k = diff[0]
    va, vb = wall_value(a.witness, walls[k]), wall_value(b.witness, walls[k])
    if va * vb >= 0:
        return False
    t = va / (va - vb)
    wa, wb = a.witness, b.witness
    theta = tuple(x + t * (y - x) for x, y in zip(wa.theta, wb.theta))
    if isinstance(wa, QnWeight):
        q = QnWeight(theta)
    else:
        q = PnWeight(wa.eta1 + t * (wb.eta1 - wa.eta1), wa.eta2 + t * (wb.eta2 - wa.eta2), theta)
    if classify_weight(q).outer:
        return False
    signs = [(v > 0) - (v < 0) for v in (wall_value(q, w) for w in walls)]
    return signs == [0 if i == k else s for i, s in enumerate(a.signs)]


def suite_chambers_vs_grid(rep: _Report, seed: int, bounds: dict) -> None:
    plans = bounds.get(
        "plans", ((QN, 4, 8), (QN, 5, 12), (PN, 2, 8), (PN, 3, 8))
    )
    for mode, n, den in plans:
        # (den - 1)^(n - 1) candidates, and den - 1 values of h for pn; a
        # power of 2^64 times the cap or more (base >= 2^(bits - 1)) is not computed
        base, exp = max(den - 1, 0), n if mode == PN else n - 1
        far = base > 1 and exp * (base.bit_length() - 1) >= max_work().bit_length() + 64
        check_work(inf if far else base ** exp, f"grid candidates of plan {[mode, n, den]}")
        walls = enumerate_walls(mode, n)
        chs = enumerate_chambers(mode, n)
        check_work(len(chs) * (len(chs) - 1) // 2, f"chamber pairs of {mode} n = {n}")
        sign_set = {c.signs for c in chs}
        lookup = {}
        for h, pt in _grid(mode, n, den):
            sg = _grid_signs(pt, walls, h)
            if sg is not None:
                lookup[h, pt] = sg
        met = set(lookup.values())
        # every grid chamber must be enumerated; a grid too coarse to meet
        # an enumerated chamber leaves that chamber to its own witness,
        # which classify_weight must place inside it
        unmet = [
            c.signs for c in chs
            if c.signs not in met and classify_weight(c.witness).signs != c.signs
        ]
        rep.expect(
            met <= sign_set and not unmet,
            lambda: {
                "mode": mode,
                "n": n,
                "grid_only": sorted(met - sign_set)[:3],
                "enumerated_only": sorted(unmet)[:3],
            },
        )
        # adjacency: grid steps crossing exactly one wall versus the exact test
        pairs = chamber_adjacency(mode, n, chs)
        adj = {frozenset((chs[i].signs, chs[k].signs)) for i, k in pairs}
        # wall sums move by at most one grid unit per unit step, so a unit
        # step always lands on the wall it meets; steps of two units jump
        # across, and a jump changing exactly one sign crosses exactly that
        # wall in its relative interior (two walls at once would change two)
        grid_adj = set()
        for key, sg in lookup.items():
            for move in _grid_moves(mode, key):
                sg2 = lookup.get(move)
                if sg2 is not None and sum(a != b for a, b in zip(sg, sg2)) == 1:
                    grid_adj.add(frozenset((sg, sg2)))
        # an exact edge the grid steps over needs a crossing point instead
        unmet_edges = [
            (i, k) for i, k in pairs
            if frozenset((chs[i].signs, chs[k].signs)) not in grid_adj
            and not _crosses_one_wall(chs[i], chs[k], walls)
        ]
        rep.expect(
            grid_adj <= adj and not unmet_edges,
            lambda: {"mode": mode, "n": n, "grid_edges": len(grid_adj), "exact_edges": len(adj)},
        )
        # witness equivalence within a chamber, difference across chambers
        if mode == QN:
            partition_data = list(_qn_partition_configs(n))
        else:
            partition_data = [
                (blocks + [("j0", j0), ("jinf", jinf)], cfg)
                for blocks, j0, jinf, cfg in _pn_partition_configs(n)
            ]
        for c in chs:
            w2 = chamber_second_witness(mode, n, c)
            cls = classify_weight(w2)
            rep.expect(
                cls.generic and cls.signs == c.signs,
                lambda: {"mode": mode, "n": n, "signs": c.signs, "issue": "second witness leaves the chamber"},
            )
            for blocks, cfg in partition_data:
                rep.expect(
                    is_semistable(cfg, c.witness).kind == is_semistable(cfg, w2).kind,
                    lambda: {"mode": mode, "n": n, "signs": c.signs, "partition": blocks},
                )
        for ci, ck in itertools.combinations(range(len(chs)), 2):
            diffs = [
                t for t in range(len(walls)) if chs[ci].signs[t] != chs[ck].signs[t]
            ]
            wall = walls[diffs[0]]
            cfg = _distinguishing_config(mode, n, wall)
            va = is_semistable(cfg, chs[ci].witness).kind
            vb = is_semistable(cfg, chs[ck].witness).kind
            rep.expect(
                va != vb,
                lambda: {"mode": mode, "n": n, "pair": (ci, ck), "wall": list(wall.j)},
            )


def suite_chart_stability(rep: _Report, seed: int, bounds: dict) -> None:
    max_n = bounds.get("max_n", 6)
    # the whole catalogue, before its small sizes run; the counts grow with
    # n, so the first one past the cap ends the sum
    total, cap = 0, max_work()
    for n in range(1, max_n + 1):
        total += count_set_partitions(n, anchored=True, cap=cap) + (count_set_partitions(n, cap=cap) if n >= 3 else 0)
        if total == inf:
            break
    check_work(total, f"set partitions of up to {max_n} marks")
    for n in range(3, max_n + 1):
        for blocks, cfg in _qn_partition_configs(n):
            block_of = {}
            for bi, b in enumerate(blocks):
                for i in b:
                    block_of[i] = bi
            for t in itertools.combinations(range(n), 3):
                w = chart_weight_qn(n, t)
                stable = is_semistable(cfg, w).kind == configs.STABLE
                distinct = len({block_of[i] for i in t}) == 3
                rep.expect(
                    stable == distinct,
                    lambda: {"n": n, "partition": blocks, "triple": t, "stable": stable},
                )
    for n in range(1, max_n + 1):
        seen: dict[tuple, dict[int, str]] = {}
        for blocks, j0, jinf, cfg in _pn_partition_configs(n):
            key = (j0, jinf)
            verdicts = {}
            for i in range(n):
                w = chart_weight_pn(n, i)
                v = is_semistable(cfg, w)
                verdicts[i] = v.kind
                h1, h2 = -w.eta1, -w.eta2
                expected = (
                    configs.UNSTABLE
                    if sum(w.theta[k] for k in jinf) > h1 or sum(w.theta[k] for k in j0) > h2
                    else configs.STABLE
                    if sum(w.theta[k] for k in jinf) < h1 and sum(w.theta[k] for k in j0) < h2
                    else configs.STRICTLY_SEMISTABLE
                )
                rep.expect(
                    v.kind == expected,
                    lambda: {"n": n, "j0": j0, "jinf": jinf, "chart": i, "got": v.kind, "want": expected},
                )
                rep.expect(
                    not (v.kind == configs.STABLE and i in set(j0) | set(jinf)),
                    lambda: {"n": n, "issue": "chart stable although its section sits at an anchor", "chart": i},
                )
            if key in seen:
                rep.expect(
                    seen[key] == verdicts,
                    lambda: {"n": n, "key": key, "issue": "verdict depends on more than the anchor classes"},
                )
            else:
                seen[key] = verdicts


def _gk_corpus(seed: int, bounds: dict):
    """Deterministic catalogue of stable trees: exhaustive shapes for small n
    with seeded coordinates, plus random larger trees."""
    rng = _rng(seed, "gk-corpus")
    per_shape = bounds.get("per_shape", 200)
    ns = bounds.get("exhaustive_n", (3, 4, 5))
    # every tree drawn counts, before the first is built
    check_work(
        per_shape * sum(count_split_systems(n, max_work()) for n in ns),
        f"trees ({per_shape} per split system on {list(ns)} marks)",
    )
    for n in ns:
        for splits in enumerate_split_systems(n):
            for k in range(per_shape):
                if k == 0:
                    yield tree_from_splits(n, splits)
                else:
                    yield tree_from_splits(n, splits, rng)
    for n, count in sorted(bounds.get("random", {6: 300, 7: 200}).items()):
        for _ in range(count):
            yield random_gk_tree(rng, int(n))


def suite_roundtrip_gk(rep: _Report, seed: int, bounds: dict) -> None:
    for tree in _gk_corpus(seed, bounds):
        fam = moduli_coordinates(tree, GK)
        rebuilt = reconstruct_tree(fam)
        rep.expect(
            tree_isomorphic(tree, rebuilt),
            lambda: {"n": tree.n, "tree": repr(tree)},
        )
        rep.expect(
            moduli_coordinates(rebuilt, GK) == fam,
            lambda: {"n": tree.n, "issue": "family not reproduced", "tree": repr(tree)},
        )


def suite_roundtrip_lm(rep: _Report, seed: int, bounds: dict) -> None:
    rng = _rng(seed, "lm-corpus")
    per_shape = bounds.get("per_shape", 3)
    ns = bounds.get("exhaustive_n", (1, 2, 3, 4, 5))
    check_work(
        per_shape * sum(count_chain_shapes(n, max_work()) for n in ns),
        f"chains ({per_shape} per chain shape on {list(ns)} marks)",
    )
    for n in ns:
        for shape in enumerate_chain_shapes(list(range(n))):
            for k in range(per_shape):
                chain = chain_from_shape(shape, rng if k else None, coincide=k == 2)
                fam = lm_moduli_coordinates(chain)
                reports = verify_functor_conditions(fam)
                rep.expect(
                    family_passes(reports),
                    lambda: {"n": n, "shape": shape, "failed": [r.name for r in reports if not r.passed]},
                )
                rebuilt = reconstruct_tree(fam)
                rep.expect(
                    chain_isomorphic(chain, rebuilt) and lm_moduli_coordinates(rebuilt) == fam,
                    lambda: {"n": n, "shape": shape},
                )
    for _ in range(bounds.get("random_n6", 300)):
        chain = random_chain(rng, list(range(6)))
        fam = lm_moduli_coordinates(chain)
        rebuilt = reconstruct_tree(fam)
        rep.expect(
            chain_isomorphic(chain, rebuilt),
            lambda: {"n": 6, "chain": repr(chain)},
        )


def _hassett_corpus(seed: int, bounds: dict):
    rng = _rng(seed, "hassett-corpus")
    for n in bounds.get("ns", (3, 4, 5)):
        for _ in range(bounds.get("weights_per_n", 20)):
            a = random_hassett_weight(rng, n)
            for _ in range(bounds.get("trees_per_weight", 3)):
                yield a, random_a_stable_tree(rng, n, a)


def suite_roundtrip_hassett(rep: _Report, seed: int, bounds: dict) -> None:
    rng = _rng(seed, "hassett-mutations")
    for a, tree in _hassett_corpus(seed, bounds):
        fam = moduli_coordinates(tree, HASSETT, a)
        reports = verify_functor_conditions(fam)
        rep.expect(
            family_passes(reports),
            lambda: {"a": [str(v) for v in a], "failed": [r.name for r in reports if not r.passed]},
        )
        rebuilt = reconstruct_tree(fam)
        rep.expect(
            tree_isomorphic(tree, rebuilt) and moduli_coordinates(rebuilt, HASSETT, a) == fam,
            lambda: {"a": [str(v) for v in a], "tree": repr(tree)},
        )
        # deleting one active chart set must be detected
        tset = rng.choice(fam.active_sets())
        pruned = {
            lbl: row for lbl, row in fam.charts.items() if tuple(sorted(lbl)) != tset
        }
        broken = LimitFamily(HASSETT, fam.n, pruned, fam.a)
        rep.expect(
            not family_passes(verify_functor_conditions(broken)),
            lambda: {"a": [str(v) for v in a], "dropped": tset, "issue": "deletion not detected"},
        )
        # perturbing one section must be detected
        label = rng.choice(sorted(fam.charts))
        row = list(fam.charts[label])
        idx = rng.choice([k for k in range(fam.n)])
        old = row[idx]
        row[idx] = generate.affine(Fraction(31, 7)) if old != generate.affine(Fraction(31, 7)) else generate.affine(Fraction(32, 7))
        charts2 = dict(fam.charts)
        charts2[label] = tuple(row)
        mutated = LimitFamily(HASSETT, fam.n, charts2, fam.a)
        rep.expect(
            not family_passes(verify_functor_conditions(mutated)),
            lambda: {"a": [str(v) for v in a], "label": label, "index": idx, "issue": "perturbation not detected"},
        )


def suite_hassett_special(rep: _Report, seed: int, bounds: dict) -> None:
    rng = _rng(seed, "hassett-special")
    per_shape = bounds.get("per_shape", 5)
    ns = bounds.get("ns", (3, 4, 5))
    check_work(
        per_shape * sum(count_split_systems(n, max_work()) + count_chain_shapes(n - 2, max_work()) for n in ns),
        f"trees and chains ({per_shape} per split system or heavy chain shape"
        f" on {list(ns)} marks)",
    )
    for n in ns:
        ones = (Fraction(1),) * n
        for splits in enumerate_split_systems(n):
            for k in range(per_shape):
                tree = tree_from_splits(n, splits, rng if k else None)
                rep.expect(
                    is_a_stable(tree, ones) == is_gk_stable(tree),
                    lambda: {"n": n, "splits": splits},
                )
        # coincident marks: never stable for unit weights, never classically
        pts = random_points(rng, n - 1)
        secs = [(0, "c0", pts[0]), (1, "c0", pts[0])] + [
            (k, "c0", pts[k - 1]) for k in range(2, n)
        ]
        tree = curves.PointedTree(("c0",), (), tuple(secs))
        rep.expect(
            is_a_stable(tree, ones) == is_gk_stable(tree) == False,
            lambda: {"n": n, "issue": "coincident marks accepted"},
        )
        # chains versus weighted trees with two heavy marks
        a_lm = lm_specialization_weights(n)
        for shape in heavy_tree_shapes(n):
            for k in range(per_shape):
                chain = chain_from_shape(shape, rng if k else None, coincide=k == 2)
                tree = tree_from_chain(chain, n)
                rep.expect(
                    is_a_stable(tree, a_lm),
                    lambda: {"n": n, "shape": shape, "issue": "heavy tree unstable"},
                )
                back = chain_from_tree(tree)
                rep.expect(
                    chain_isomorphic(chain, back),
                    lambda: {"n": n, "shape": shape, "issue": "chain not recovered"},
                )
        for _ in range(10):
            tree = random_a_stable_tree(rng, n, a_lm)
            chain = chain_from_tree(tree)
            again = tree_from_chain(chain, n)
            rep.expect(
                tree_isomorphic(tree, again),
                lambda: {"n": n, "tree": repr(tree)},
            )


def suite_qn2_pn(rep: _Report, seed: int, bounds: dict) -> None:
    rng = _rng(seed, "qn2-pn")
    for _ in range(bounds.get("instances", 500)):
        n = rng.randint(1, bounds.get("pn_max", 5))
        n2 = n + 2
        a, b = rng.sample(range(n2), 2)
        w = random_vertex_cone_weight(rng, n2, a, b)
        cfg = _random_config(rng, QN, n2)
        vq = is_semistable(cfg, w)
        sa, sb = cfg.sections[a], cfg.sections[b]
        degenerate = sa is None or sb is None or (sa == sb)
        if degenerate:
            rep.expect(
                vq.kind == configs.UNSTABLE,
                lambda: {"n": n, "issue": "degenerate anchors but not unstable", "verdict": vq.kind},
            )
            continue
        w2 = project_weight_to_pn(w, a, b)
        cfg2 = map_config_qn2_pn(cfg, a, b)
        vp = is_semistable(cfg2, w2)
        rep.expect(
            vq.kind == vp.kind,
            lambda: {"n": n, "a": a, "b": b, "qn": vq.kind, "pn": vp.kind, "config": repr(cfg)},
        )
        vqo = brute_force_semistable(cfg, w)
        vpo = brute_force_semistable(cfg2, w2)
        rep.expect(
            vqo.kind == vq.kind and vpo.kind == vp.kind,
            lambda: {"n": n, "issue": "oracle disagrees", "config": repr(cfg)},
        )
    # wall correspondence: relative interior points map onto the matching wall
    for n in range(1, bounds.get("pn_max", 5) + 1):
        n2 = n + 2
        a, b = 0, 1
        idx = {k: i for i, k in enumerate([k for k in range(n2) if k not in (a, b)])}
        for wall in enumerate_walls(PN, n):
            wpt = wall_relative_interior_point(PN, n, wall)
            for mu_num in (1, 2):
                mu = Fraction(mu_num, 3)
                theta = [Fraction(0)] * n2
                theta[a] = mu * (wpt.eta1 + 1) + (1 - mu)
                theta[b] = mu * (wpt.eta2 + 1) + (1 - mu)
                for k in range(n2):
                    if k not in (a, b):
                        theta[k] = mu * wpt.theta[idx[k]]
                qw = QnWeight(tuple(theta))
                cls = classify_weight(qw)
                expect_wall = chambers.canonical_qn_wall(
                    n2, tuple(sorted({a} | {k for k in range(n2) if k not in (a, b) and idx[k] in wall.j}))
                )
                rep.expect(
                    cls.inner == (expect_wall,) and not cls.outer,
                    lambda: {"n": n, "wall": list(wall.j), "lifted": repr(qw.theta), "classified": repr(cls)},
                )
                back = project_weight_to_pn(qw, a, b)
                rep.expect(
                    classify_weight(back).inner == (wall,),
                    lambda: {"n": n, "wall": list(wall.j), "issue": "projection leaves the wall"},
                )


def _admissible_anchor_pairs(cfg_a: QnConfig, cfg_b: QnConfig):
    n = cfg_a.n
    for i, j in itertools.combinations(range(n), 2):
        if (
            cfg_a.sections[i] != cfg_a.sections[j]
            and cfg_b.sections[i] != cfg_b.sections[j]
        ):
            yield i, j


def _edge_splits(tree) -> list[frozenset[int]]:
    """The split of each edge of a tree labelled 0..n-1, in edge order: the
    marks whose image on the edge's first end sits at its node there."""
    images = curves.mark_images(tree)
    return [
        frozenset(k for k, s in enumerate(images[e.ends[0]].sections) if s == e.nodes[0])
        for e in tree.edges
    ]


def suite_limit_equations(rep: _Report, seed: int, bounds: dict) -> None:
    for tree in _gk_corpus(seed, bounds.get("corpus", {})):
        fam = moduli_coordinates(tree, GK)
        active = fam.active_sets()
        cfgs = {t: QnConfig(tuple(fam.charts[tuple(t)])) for t in active}
        splits = set(_edge_splits(tree))
        for ta, tb in itertools.combinations(active, 2):
            ca, cb = cfgs[ta], cfgs[tb]
            pairs = list(_admissible_anchor_pairs(ca, cb))
            rep.expect(bool(pairs), lambda: {"n": tree.n, "pair": (ta, tb), "issue": "no admissible anchors"})
            for i, j in pairs:
                rep.expect(
                    check_limit_equations(ca, cb, i, j),
                    lambda: {"n": tree.n, "charts": (ta, tb), "anchors": (i, j)},
                )
            i, j = pairs[0]
            fiber = glue_fiber(ca, cb, i, j)
            equivalent = moebius_equivalent(ca, cb)
            rep.expect(
                (fiber.kind == configs.IRREDUCIBLE) == equivalent,
                lambda: {"n": tree.n, "charts": (ta, tb), "kind": fiber.kind, "equivalent": equivalent},
            )
            if fiber.kind == configs.TWO_COMPONENTS:
                full = frozenset(range(tree.n))
                for side in (fiber.marks_on_b, fiber.marks_on_a):
                    ok = side in splits or full - side in splits
                    rep.expect(
                        ok,
                        lambda: {"n": tree.n, "charts": (ta, tb), "side": sorted(side), "issue": "collapse side is not a tree split"},
                    )


def suite_five_term(rep: _Report, seed: int, bounds: dict) -> None:
    rng = _rng(seed, "five-term")
    for _ in range(bounds.get("instances", 1000)):
        pts = random_points(rng, 5)
        cfg = QnConfig(tuple(pts))
        charts = {}
        for order in itertools.permutations(range(5), 3):
            charts[order] = normalize_chart_qn(cfg, order).sections
        fam = LimitFamily(GK, 5, charts)
        reports = verify_functor_conditions(fam)
        rep.expect(
            family_passes(reports),
            lambda: {"points": repr(pts), "failed": [r.name for r in reports if not r.passed]},
        )


def suite_covering(rep: _Report, seed: int, bounds: dict) -> None:
    for tree in _gk_corpus(seed, bounds.get("corpus", {})):
        fam = moduli_coordinates(tree, GK)
        covered, witness = charts_cover_hypersimplex(fam)
        rep.expect(covered, lambda: {"n": tree.n, "uncovered_triple": witness})
    # exact arrangement decision on the small exhaustive shapes
    for n in bounds.get("lp_ns", (3, 4, 5)):
        for splits in enumerate_split_systems(n):
            tree = tree_from_splits(n, splits)
            fam = moduli_coordinates(tree, GK)
            polys = [
                theta_polytope(QnConfig(tuple(fam.charts[tuple(t)])))
                for t in fam.active_sets()
            ]
            covered, witness = cover_check(polys, QN, n)
            rep.expect(
                covered,
                lambda: {"n": n, "splits": splits, "witness": repr(witness)},
            )
    # weighted targets
    for a, tree in _hassett_corpus(seed, bounds.get("hassett", {})):
        fam = moduli_coordinates(tree, HASSETT, a)
        polys = [
            theta_polytope(QnConfig(tuple(fam.charts[tuple(t)])))
            for t in fam.active_sets()
        ]
        covered, witness = cover_check(polys, QN, tree.n, a)
        rep.expect(
            covered,
            lambda: {"n": tree.n, "a": [str(v) for v in a], "witness": repr(witness)},
        )
        # the weighted polytopes need not cover the whole hypersimplex: a
        # two-component tree never does
        if len(tree.components) > 1:
            covered_all, _ = cover_check(polys, QN, tree.n)
            coverable, _ = charts_cover_hypersimplex(fam)
            rep.expect(
                covered_all == coverable,
                lambda: {"n": tree.n, "issue": "combinatorial and arrangement covering disagree"},
            )


SUITES = {
    "stability-oracle": suite_stability_oracle,
    "theta-polytope": suite_theta_polytope,
    "chambers-vs-grid": suite_chambers_vs_grid,
    "chart-stability": suite_chart_stability,
    "roundtrip-gk": suite_roundtrip_gk,
    "roundtrip-lm": suite_roundtrip_lm,
    "roundtrip-hassett": suite_roundtrip_hassett,
    "five-term": suite_five_term,
    "hassett-special": suite_hassett_special,
    "qn2-pn": suite_qn2_pn,
    "covering": suite_covering,
    "limit-equations": suite_limit_equations,
}


class BoundsError(ValueError):
    """Suite bounds with a key no suite reads, or a value of the wrong shape
    or below the least value its suite can run with."""


def _int_at_least(v, least: int) -> bool:
    return type(v) is int and v >= least


def _count(least: int = 0):
    return (f"an integer >= {least}", lambda v: _int_at_least(v, least))


def _sizes(least: int, nonempty: bool = False):
    what = f"a {'nonempty ' if nonempty else ''}list of integers >= {least}"
    return (what, lambda v: isinstance(v, (list, tuple)) and (bool(v) or not nonempty)
            and all(_int_at_least(k, least) for k in v))


def _size_key(k):
    # JSON object keys are strings; the corpus reads them with int()
    if isinstance(k, str) and k.isdecimal():
        try:
            return int(k)
        except ValueError:  # more digits than int() converts
            return None
    return k


def _is_counts_by_n(v) -> bool:
    return isinstance(v, dict) and all(
        _int_at_least(_size_key(k), _MIN_TREE_N) and _int_at_least(c, 0)
        for k, c in v.items()
    )


def _is_plans(v) -> bool:
    return isinstance(v, (list, tuple)) and all(
        isinstance(p, (list, tuple)) and len(p) == 3 and p[0] in (QN, PN)
        and _int_at_least(p[1], _MIN_WALL_N[p[0]]) and _int_at_least(p[2], 0)
        for p in v
    )


# the least sizes the generators and enumerators accept: stable trees and
# star-quiver walls need three marks, double-star walls and chains one
_MIN_TREE_N = 3
_MIN_WALL_N = {QN: 3, PN: 1}
_COUNT = _count()
_TREE_SIZES = _sizes(_MIN_TREE_N)
_COUNTS_BY_N = (f"an object from sizes >= {_MIN_TREE_N} to integers >= 0", _is_counts_by_n)
_PLANS = (
    f'a list of [mode, n, den] with den >= 0 and n >= {_MIN_WALL_N[QN]} for mode "qn" '
    f'or n >= {_MIN_WALL_N[PN]} for mode "pn"',
    _is_plans,
)
_GK_CORPUS = {"exhaustive_n": _TREE_SIZES, "per_shape": _COUNT, "random": _COUNTS_BY_N}
_HASSETT_CORPUS = {"ns": _TREE_SIZES, "weights_per_n": _COUNT, "trees_per_weight": _COUNT}

# the bounds each suite reads, and the shape and least value of each
BOUNDS = {
    # the random instances are shared out over random_n, so it is nonempty
    "stability-oracle": {"exhaustive_n": _TREE_SIZES, "random_instances": _COUNT,
                         "random_n": _sizes(_MIN_TREE_N, nonempty=True)},
    "theta-polytope": {"ns": _TREE_SIZES},
    "chambers-vs-grid": {"plans": _PLANS},
    "chart-stability": {"max_n": _COUNT},
    "roundtrip-gk": _GK_CORPUS,
    "roundtrip-lm": {"exhaustive_n": _sizes(1), "per_shape": _COUNT, "random_n6": _COUNT},
    "roundtrip-hassett": _HASSETT_CORPUS,
    "five-term": {"instances": _COUNT},
    "hassett-special": {"ns": _TREE_SIZES, "per_shape": _COUNT},
    "qn2-pn": {"instances": _COUNT, "pn_max": _count(1)},
    "covering": {"corpus": _GK_CORPUS, "lp_ns": _TREE_SIZES, "hassett": _HASSETT_CORPUS},
    "limit-equations": {"corpus": _GK_CORPUS},
}


def _check_shape(spec: dict, value, where: str) -> None:
    if not isinstance(value, dict):
        raise BoundsError(f"{where} must be an object")
    for key, sub in value.items():
        if key not in spec:
            raise BoundsError(f"{where} has unknown key {key!r}; choose from {sorted(spec)}")
        if isinstance(spec[key], dict):
            _check_shape(spec[key], sub, f"{where}.{key}")
        elif not spec[key][1](sub):
            raise BoundsError(f"{where}.{key} must be {spec[key][0]}")


def check_bounds(bounds) -> None:
    """Raise BoundsError unless `bounds` maps suite names to objects holding
    only keys that suite reads, each with a value of the shape it expects."""
    _check_shape(BOUNDS, bounds, "bounds")


def run_suite(name: str, seed: int = DEFAULT_SEED, bounds: Optional[dict] = None) -> dict:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    rep = _Report(name)
    try:
        SUITES[name](rep, seed, bounds or {})
    except _Stop:
        pass
    return rep.result()
