"""The three workloads: seeded inputs, the operation on one input, and the
check of its output.

An in-process workload has ``make_inputs(seed)``, ``run(item)`` (the timed
operation, calling the program's public functions through their modules so
that traced runs see every call) and ``check(item, output)`` (independent,
returns a list of problems).  The chambers-cli workload has ``commands`` and
``make_probes(seed)`` instead; its operation is one ``qml chambers`` child
process.
"""
from __future__ import annotations

import itertools
import random
from fractions import Fraction

import checks

GK_EXHAUSTIVE_N = (3, 4, 5)
# larger trees: one shape per entry, relabelled by the seed
GK_SHAPES = (
    (6, ()),
    (6, ((0, 1), (4, 5))),
    (7, ()),
    (7, ((0, 1, 2),)),
)
# (n, Hassett weights, splits, coincidence clusters), relabelled by the
# seed.  The covering enumerator tries 2^m sign vectors, m the number of
# distinct constraint rows (weights below 1 plus coincidence classes of two
# or more marks on a component), so m fixes the cost class of an item:
# m = 3, 4, 5, 4, 4, 7, 5, 7 in this order.
HASSETT_SHAPES = (
    (4, ("1", "1", "1/3", "1/2"), (), ((2, 3),)),
    (4, ("3/4", "1", "1/2", "1"), ((0, 1),), ()),
    (4, ("5/6", "7/12", "1", "3/4"), ((0, 3),), ()),
    (5, ("1", "5/6", "1/6", "1", "1"), ((0, 2, 4),), ()),
    (5, ("1", "1", "1/2", "1/4", "1/4"), (), ((3, 4),)),
    (5, ("5/6", "2/3", "1", "1", "1/6"), ((0, 1, 2), (0, 3, 4)), ()),
    (6, ("1", "2/3", "1", "5/12", "1", "5/6"), ((0, 4),), ()),
    (6, ("5/6", "1/4", "1/12", "1", "1", "5/6"), ((0, 2, 5),), ((2, 5),)),
)
HASSETT_TARGET_WEIGHTS = 3
# coordinates: the distinct special points of each component take values
# from this fixed pool in a seeded order, so every seed gives arithmetic of
# the same size
POOL = (None, "3/2", "-7/3", "5", "-1/4", "11/5", "-9/2", "4/7", "-13/6", "8/3")
CHAMBER_COMMANDS = (
    ("qn", 4, True),
    ("qn", 5, True),
    ("pn", 2, True),
    ("pn", 3, True),
    ("pn", 4, True),
    ("qn", 6, False),
)
CHAMBER_PROBES = 200


def _rng(seed: int, tag: str) -> random.Random:
    return random.Random(f"{tag}:{seed}")


def _moebius_matrix(rng: random.Random):
    while True:
        m = [[rng.randint(-4, 4) for _ in range(2)] for _ in range(2)]
        if m[0][0] * m[1][1] - m[0][1] * m[1][0] != 0:
            return m


# ---------------------------------------------------------------------------
# gk-charts


class GkCharts:
    name = "gk-charts"

    def __init__(self, qm):
        self.qm = qm

    def make_inputs(self, seed: int):
        """Every stable shape for n <= 5, then the shapes of GK_SHAPES with
        seeded labels; coordinates from the pool in a seeded order."""
        gen = self.qm.generate
        rng = _rng(seed, "gk")
        shapes = [(n, splits) for n in GK_EXHAUSTIVE_N for splits in gen.enumerate_split_systems(n)]
        shapes += [(n, _relabel_splits(splits, _permutation(rng, n))) for n, splits in GK_SHAPES]
        return [
            (k, _arrange(self.qm, gen.tree_from_splits(n, splits), rng), _moebius_matrix(rng))
            for k, (n, splits) in enumerate(shapes)
        ]

    def run(self, item):
        qm = self.qm
        _, tree, _ = item
        fam = qm.curves.moduli_coordinates(tree, "gk")
        rebuilt = qm.curves.reconstruct_tree(fam)
        iso = qm.curves.tree_isomorphic(tree, rebuilt)
        active = fam.active_sets()
        cfgs = {t: qm.configs.QnConfig(tuple(fam.charts[t])) for t in active}
        pairs = []
        for ta, tb in itertools.combinations(active, 2):
            ca, cb = cfgs[ta], cfgs[tb]
            anchors = [
                (i, j) for i, j in itertools.combinations(range(tree.n), 2)
                if ca.sections[i] != ca.sections[j] and cb.sections[i] != cb.sections[j]
            ]
            verdicts = [qm.configs.check_limit_equations(ca, cb, i, j) for i, j in anchors]
            fiber = qm.configs.glue_fiber(ca, cb, *anchors[0])
            equiv = qm.configs.moebius_equivalent(ca, cb)
            pairs.append((ta, tb, tuple(anchors), tuple(verdicts), fiber.kind, equiv))
        return fam, rebuilt, iso, pairs

    def check(self, item, out):
        _, tree, matrix = item
        fam, rebuilt, iso, pairs = out
        problems = checks.check_family(tree, fam, total=True)
        problems += checks.check_isomorphic(tree, rebuilt, total=True)
        if iso is not True:
            problems.append("reconstruction: tree_isomorphic says False")
        problems += _moved_family(self.qm, tree, fam, matrix, "gk", None)
        problems += checks.check_limit_pairs(pairs, fam)
        return problems


def _permutation(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def _relabel_splits(splits, perm):
    return [tuple(sorted(perm[i] for i in s)) for s in splits]


def _arrange(qm, tree, rng):
    """The same tree with the distinct special points of each component
    replaced by pool values in a seeded order."""
    point = qm.projline.ProjPoint
    values = [point(1, 0) if v is None else point(Fraction(v), 1) for v in POOL]
    new = {}
    for c in tree.components:
        here = [e.nodes[e.ends.index(c)] for e in tree.edges if c in e.ends]
        here += [p for _, comp, p in tree.marks if comp == c]
        keys = list(dict.fromkeys(checks.ipoint(p) for p in here))
        order = _permutation(rng, len(keys))
        for key, k in zip(keys, order):
            new[(c, key)] = values[k]
    edges = tuple(
        qm.curves.TreeEdge(e.ends, tuple(new[(c, checks.ipoint(p))] for c, p in zip(e.ends, e.nodes)))
        for e in tree.edges
    )
    marks = tuple((lb, c, new[(c, checks.ipoint(p))]) for lb, c, p in tree.marks)
    return qm.curves.PointedTree(tree.components, edges, marks)


def _moved_family(qm, tree, fam, matrix, mode, a):
    """Moving one component by a Moebius map must leave the family as it is."""
    comp = tree.components[(matrix[0][0] + 4) % len(tree.components)]
    moved = checks.moved_tree(
        tree, comp, matrix, qm.projline.ProjPoint, qm.curves.TreeEdge, qm.curves.PointedTree
    )
    if qm.curves.moduli_coordinates(moved, mode, a) != fam:
        return [f"invariance: moving component {comp} changes the family"]
    return []


# ---------------------------------------------------------------------------
# hassett-cover


class HassettCover:
    name = "hassett-cover"

    def __init__(self, qm):
        self.qm = qm

    def make_inputs(self, seed: int):
        """The weighted trees of HASSETT_SHAPES with seeded labels and
        coordinates, and for each seeded weights strictly inside its Hassett
        target for the stability kernels."""
        gen = self.qm.generate
        rng = _rng(seed, "hassett")
        chart_weights = {}
        items = []
        for k, (n, a0, splits, clusters) in enumerate(HASSETT_SHAPES):
            perm = _permutation(rng, n)
            a = [Fraction(0)] * n
            for i, v in enumerate(a0):
                a[perm[i]] = Fraction(v)
            a = tuple(a)
            tree = gen.tree_from_splits(n, _relabel_splits(splits, perm),
                                        clusters=_relabel_splits(clusters, perm))
            tree = _arrange(self.qm, tree, rng)
            if n not in chart_weights:
                chart_weights[n] = {
                    t: self.qm.chambers.chart_weight_qn(n, t)
                    for t in itertools.combinations(range(n), 3)
                }
            targets = [_below_hassett(rng, a) for _ in range(HASSETT_TARGET_WEIGHTS)]
            weights = [self.qm.chambers.QnWeight(th) for th in targets]
            items.append((k, tree, a, chart_weights[n], targets, weights, _moebius_matrix(rng)))
        return items

    def run(self, item):
        qm = self.qm
        _, tree, a, chart_weights, _, weights, _ = item
        fam = qm.curves.moduli_coordinates(tree, "hassett", a)
        reports = qm.curves.verify_functor_conditions(fam)
        rebuilt = qm.curves.reconstruct_tree(fam)
        iso = qm.curves.tree_isomorphic(tree, rebuilt)
        active = fam.active_sets()
        cfgs = [qm.configs.QnConfig(tuple(fam.charts[t])) for t in active]
        polys = [qm.configs.theta_polytope(c) for c in cfgs]
        covered, _ = qm.chambers.cover_check(polys, "qn", tree.n, a)
        verdicts = []
        for t, cfg in zip(active, cfgs):
            for w in [chart_weights[t]] + weights:
                fast = qm.configs.is_semistable(cfg, w)
                oracle = qm.configs.brute_force_semistable(cfg, w)
                verdicts.append((fast.kind, oracle.kind))
        return fam, reports, rebuilt, iso, polys, covered, verdicts

    def check(self, item, out):
        _, tree, a, chart_weights, targets, weights, matrix = item
        fam, reports, rebuilt, iso, polys, covered, verdicts = out
        problems = checks.check_family(tree, fam, total=False)
        failed = [r.name for r in reports if not r.passed]
        if failed:
            problems.append(f"functor conditions fail: {failed}")
        problems += checks.check_isomorphic(tree, rebuilt, total=False)
        if iso is not True:
            problems.append("reconstruction: tree_isomorphic says False")
        problems += _moved_family(self.qm, tree, fam, matrix, "hassett", a)
        charts = checks.program_charts(fam)
        active = sorted({tuple(sorted(k)) for k in charts})
        rows = [charts[t] for t in active]
        for row, poly in zip(rows, polys):
            if tuple(poly.partition) != checks.blocks_of(row):
                problems.append("theta polytope: partition differs from the coincidence classes")
        if covered is not True:
            problems.append("covering: cover_check reports the Hassett target uncovered")
        problems += checks.check_covering(rows, targets)
        expected = []
        for t, row in zip(active, rows):
            for theta in [chart_weights[t].theta] + targets:
                expected.append((row, theta))
        if len(expected) != len(verdicts):
            return problems + ["stability: verdict count differs"]
        problems += checks.check_verdicts(
            [(row, theta, f, o) for (row, theta), (f, o) in zip(expected, verdicts)]
        )
        return problems


def _below_hassett(rng, a):
    """A weight with 0 < theta_i < a_i and total 2: take a and remove its
    excess over 2 in random shares."""
    excess = sum(a) - 2
    while True:
        w = [Fraction(rng.randint(1, 12), 12) * v for v in a]
        total = sum(w)
        theta = tuple(v - excess * x / total for v, x in zip(a, w))
        if all(t > 0 for t in theta):
            return theta


# ---------------------------------------------------------------------------
# chambers-cli


class ChambersCli:
    name = "chambers-cli"
    commands = CHAMBER_COMMANDS

    def make_probes(self, seed: int):
        """Seeded points strictly inside each command's polytope and off
        every wall."""
        rng = _rng(seed, "chambers")
        probes = []
        for mode, n, _ in self.commands:
            walls = checks.expected_walls(mode, n)
            pts = []
            while len(pts) < CHAMBER_PROBES:
                theta, eta = _interior_point(rng, mode, n)
                if checks.sign_vector(mode, walls, theta, eta) is not None:
                    pts.append((theta, eta))
            probes.append(pts)
        return probes

    @staticmethod
    def argv(command):
        mode, n, adjacency = command
        args = ["chambers", "--mode", mode, "--n", str(n)]
        return args if adjacency else args + ["--no-adjacency"]

    def check(self, command, probes, returncode, stdout):
        mode, n, adjacency = command
        return checks.check_chamber_complex(mode, n, adjacency, returncode, stdout, probes)


def _interior_point(rng, mode, n):
    while True:
        raw = [Fraction(rng.randint(1, 60)) for _ in range(n)]
        s = sum(raw)
        if mode == "qn":
            theta = [2 * v / s for v in raw]
            if all(v < 1 for v in theta):
                return theta, None
        else:
            theta = [v / s for v in raw]
            e = Fraction(rng.randint(1, 59), 60)
            return theta, [-e, e - 1]


WORKLOADS = {"gk-charts": GkCharts, "chambers-cli": ChambersCli, "hassett-cover": HassettCover}
