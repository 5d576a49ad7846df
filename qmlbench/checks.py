"""Output checkers that work apart from the program.

Every checker takes an input and the program's output for it and returns a
list of problems (empty when the output is right).  The arithmetic here is
written from the definitions with plain ``int`` and ``Fraction``; the only
things read from the program are the fields of its data classes (points,
tree edges, marks) and, where a check is about the program's own
invariance, one more call into it that is named as such.

Points are compared as integer pairs: a point (c0 : c1) with rational
coordinates becomes the reduced pair (a, b) with a/b = c0/c1 and the first
nonzero entry positive.
"""
from __future__ import annotations

import itertools
import json
from fractions import Fraction
from math import gcd

STABLE = "stable"
STRICTLY_SEMISTABLE = "strictly_semistable"
UNSTABLE = "unstable"


# ---------------------------------------------------------------------------
# Plain projective line.


def norm(a: int, b: int) -> tuple[int, int]:
    if a == 0 and b == 0:
        raise ValueError("(0:0) is not a point")
    g = gcd(a, b)
    a, b = a // g, b // g
    if a < 0 or (a == 0 and b < 0):
        a, b = -a, -b
    return (a, b)


def ipoint(p) -> tuple[int, int]:
    """The reduced integer pair of a program point (fields c0, c1)."""
    c0, c1 = Fraction(p.c0), Fraction(p.c1)
    return norm(c0.numerator * c1.denominator, c1.numerator * c0.denominator)


def det(p, q) -> int:
    return p[0] * q[1] - p[1] * q[0]


def cross_ratio_map(p0, pinf, p1, x) -> tuple[int, int]:
    """The image of x under the map sending p0, pinf, p1 to (0:1), (1:0),
    (1:1): (d(p0,x) d(pinf,p1) : d(pinf,x) d(p0,p1))."""
    return norm(det(p0, x) * det(pinf, p1), det(pinf, x) * det(p0, p1))


def blocks_of(row) -> tuple[tuple[int, ...], ...]:
    """Coincidence classes of a tuple of reduced pairs, as sorted index tuples."""
    groups: dict = {}
    for i, p in enumerate(row):
        groups.setdefault(p, []).append(i)
    return tuple(sorted(tuple(v) for v in groups.values()))


def equivalent(row_a, row_b) -> bool:
    """Whether one configuration is a Moebius image of the other, index by
    index: same coincidence classes, and equal cross-ratios against three
    representatives of distinct classes."""
    ba, bb = blocks_of(row_a), blocks_of(row_b)
    if ba != bb:
        return False
    if len(ba) <= 2:
        return True
    r = [b[0] for b in ba[:3]]
    for x, y in zip(row_a, row_b):
        if cross_ratio_map(row_a[r[0]], row_a[r[1]], row_a[r[2]], x) != cross_ratio_map(
            row_b[r[0]], row_b[r[1]], row_b[r[2]], y
        ):
            return False
    return True


# ---------------------------------------------------------------------------
# Pointed trees and their chart families.


def mark_images(tree) -> dict:
    """component -> label -> reduced pair: a resident mark keeps its point,
    any other mark lands on the node point toward its component."""
    nbrs: dict = {c: [] for c in tree.components}
    for e in tree.edges:
        a, b = e.ends
        nbrs[a].append((b, ipoint(e.nodes[0])))
        nbrs[b].append((a, ipoint(e.nodes[1])))
    images = {}
    for c in tree.components:
        toward = {c: None}
        stack = []
        for d, node in nbrs[c]:
            toward[d] = node
            stack.append(d)
        while stack:
            d = stack.pop()
            for e, _ in nbrs[d]:
                if e not in toward:
                    toward[e] = toward[d]
                    stack.append(e)
        images[c] = {
            lb: (ipoint(p) if comp == c else toward[comp])
            for lb, comp, p in tree.marks
        }
    return images


def chart_family(tree, total: bool) -> dict:
    """Ordered triple -> tuple of reduced pairs, recomputed from the tree.

    A 3-set of marks has a chart when exactly one component separates it;
    ``total`` demands that every 3-set has one (unweighted stability).
    """
    images = mark_images(tree)
    labels = sorted(lb for lb, _, _ in tree.marks)
    out = {}
    for tset in itertools.combinations(labels, 3):
        hits = [
            c for c in tree.components
            if len({images[c][i] for i in tset}) == 3
        ]
        if len(hits) > 1:
            raise ValueError(f"3-set {tset} separates on {len(hits)} components")
        if not hits:
            if total:
                raise ValueError(f"3-set {tset} separates on no component")
            continue
        img = images[hits[0]]
        for order in itertools.permutations(tset):
            p0, pinf, p1 = (img[i] for i in order)
            out[order] = tuple(cross_ratio_map(p0, pinf, p1, img[k]) for k in labels)
    return out


def program_charts(family) -> dict:
    return {k: tuple(ipoint(p) for p in row) for k, row in family.charts.items()}


def check_family(tree, family, total: bool) -> list[str]:
    """Every chart of the program's family equals the recomputed one."""
    try:
        mine = chart_family(tree, total)
    except ValueError as exc:
        return [f"charts: {exc}"]
    theirs = program_charts(family)
    if set(mine) != set(theirs):
        return [f"charts: label sets differ ({len(mine)} recomputed, {len(theirs)} emitted)"]
    bad = [k for k in mine if mine[k] != theirs[k]]
    return [f"charts: {len(bad)} charts differ, first {bad[0]}"] if bad else []


def check_isomorphic(tree, rebuilt, total: bool) -> list[str]:
    """A stable tree is determined up to isomorphism by its chart family, so
    the rebuilt tree must have the same component and edge counts and the
    same recomputed family as the original."""
    if len(tree.components) != len(rebuilt.components) or len(tree.edges) != len(rebuilt.edges):
        return ["reconstruction: component or edge count differs"]
    try:
        same = chart_family(tree, total) == chart_family(rebuilt, total)
    except ValueError as exc:
        return [f"reconstruction: {exc}"]
    return [] if same else ["reconstruction: rebuilt tree has another chart family"]


def moved_tree(tree, component, matrix, point_cls, edge_cls, tree_cls):
    """The tree with every special point of one component moved by the
    integer matrix ((p, q), (r, s)); built from the program's data classes."""
    (p, q), (r, s) = matrix

    def move(pt):
        a, b = ipoint(pt)
        return point_cls(Fraction(p * a + q * b), Fraction(r * a + s * b))

    edges = []
    for e in tree.edges:
        nodes = tuple(move(nd) if end == component else nd for end, nd in zip(e.ends, e.nodes))
        edges.append(edge_cls(e.ends, nodes))
    marks = tuple((lb, comp, move(pt) if comp == component else pt) for lb, comp, pt in tree.marks)
    return tree_cls(tree.components, tuple(edges), marks)


def check_limit_pairs(pairs_out, family) -> list[str]:
    """For each pair of active charts: the anchors used are exactly the
    admissible ones, every limit equation holds (program verdict and a
    recomputation), and the glued fiber is irreducible exactly when the
    charts are Moebius equivalent."""
    charts = program_charts(family)
    problems = []
    for ta, tb, anchors, verdicts, kind, prog_equiv in pairs_out:
        ra, rb = charts[ta], charts[tb]
        n = len(ra)
        admissible = [
            (i, j) for i, j in itertools.combinations(range(n), 2)
            if ra[i] != ra[j] and rb[i] != rb[j]
        ]
        if list(anchors) != admissible or not admissible or len(verdicts) != len(anchors):
            problems.append(f"limit: anchors for {ta},{tb} are not the admissible pairs")
            continue
        for (i, j), verdict in zip(anchors, verdicts):
            if verdict is not True or not limit_equations_hold(ra, rb, i, j):
                problems.append(f"limit: equations fail for {ta},{tb} at anchors {(i, j)}")
        mine = equivalent(ra, rb)
        if prog_equiv != mine:
            problems.append(f"limit: equivalence of {ta},{tb} is {prog_equiv}, recomputed {mine}")
        if (kind == "irreducible") != mine:
            problems.append(f"limit: fiber of {ta},{tb} is {kind} but equivalence is {mine}")
    return problems


def limit_equations_hold(ra, rb, i, j) -> bool:
    """Send section i to (0:1) and section j to (1:0) in both charts; the
    pairs (u_k0 v_k1 : u_k1 v_k0) other than (0, 0) must all be one value."""
    ratio = None
    for x, y in zip(ra, rb):
        u0, u1 = det(ra[i], x), det(ra[j], x)
        v0, v1 = det(rb[i], y), det(rb[j], y)
        a, b = u0 * v1, u1 * v0
        if a == 0 and b == 0:
            continue
        if ratio is None:
            ratio = (a, b)
        elif a * ratio[1] != b * ratio[0]:
            return False
    return True


# ---------------------------------------------------------------------------
# Stability.


def rule_verdict(row, theta) -> str:
    """Per-coincidence-class rule at an interior weight: a class of weight
    above 1 destabilizes, a class of weight exactly 1 makes the
    configuration strictly semistable."""
    worst = max(sum((theta[i] for i in b), Fraction(0)) for b in blocks_of(row))
    if worst > 1:
        return UNSTABLE
    if worst == 1:
        return STRICTLY_SEMISTABLE
    return STABLE


def check_verdicts(verdicts) -> list[str]:
    """Each entry is (row, theta, fast kind, oracle kind)."""
    problems = []
    for row, theta, fast, oracle in verdicts:
        want = rule_verdict(row, theta)
        if fast != want or oracle != want:
            problems.append(f"stability: fast {fast}, oracle {oracle}, class rule {want}")
    return problems


def check_covering(rows, targets) -> list[str]:
    """Every weight strictly inside the Hassett target is semistable for the
    configuration of some active chart (the chart polytopes cover it)."""
    for theta in targets:
        if all(rule_verdict(row, theta) == UNSTABLE for row in rows):
            return [f"covering: weight {[str(v) for v in theta]} lies in no chart polytope"]
    return []


# ---------------------------------------------------------------------------
# Chamber complexes.


def expected_walls(mode: str, n: int) -> list[list[int]]:
    if mode == "qn":
        seen = set()
        for k in range(2, n - 1):
            for j in itertools.combinations(range(n), k):
                comp = tuple(i for i in range(n) if i not in j)
                seen.add(min(j, comp))
        return [list(w) for w in sorted(seen)]
    return sorted(list(j) for k in range(1, n) for j in itertools.combinations(range(n), k))


def wall_value(mode: str, wall, theta, eta) -> Fraction:
    s = sum((theta[i] for i in wall), Fraction(0))
    return s - 1 if mode == "qn" else s + eta[0]


def interior(mode: str, n: int, theta, eta) -> bool:
    if len(theta) != n:
        return False
    if mode == "qn":
        return all(0 < v < 1 for v in theta) and sum(theta) == 2
    return (
        eta[0] < 0 and eta[1] < 0 and eta[0] + eta[1] == -1
        and all(v > 0 for v in theta) and sum(theta) == 1
    )


def sign_vector(mode: str, walls, theta, eta):
    out = []
    for w in walls:
        v = wall_value(mode, w, theta, eta)
        if v == 0:
            return None
        out.append("+" if v > 0 else "-")
    return "".join(out)


def _permuted_signs(mode, n, walls, index, perm):
    """The images of every sign vector under a permutation of the indices."""
    images = []
    for w in walls:
        side = tuple(sorted(perm[i] for i in w))
        flip = False
        if mode == "qn":
            comp = tuple(i for i in range(n) if i not in side)
            if comp < side:
                side, flip = comp, True
        images.append((index[side], flip))
    return images


def check_chamber_complex(mode: str, n: int, adjacency: bool, returncode: int, stdout: bytes,
                          probes) -> list[str]:
    """Walls, witnesses, distinct sign vectors, closure under permutations
    of the indices, adjacency as Hamming distance one, and seeded interior
    points landing in listed chambers."""
    if returncode != 0:
        return [f"chambers: exit code {returncode}"]
    try:
        doc = json.loads(stdout)
        walls = [tuple(w) for w in doc["walls"]]
        chambers = [
            (
                c["signs"],
                [Fraction(v) for v in c["witness"]["theta"]],
                [Fraction(v) for v in c["witness"].get("eta", ("0", "0"))],
            )
            for c in doc["chambers"]
        ]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"chambers: unreadable output ({exc})"]
    problems = []
    if [list(w) for w in walls] != expected_walls(mode, n):
        return ["chambers: wall list differs from the inner walls"]
    for k, (signs, theta, eta) in enumerate(chambers):
        if not interior(mode, n, theta, eta):
            problems.append(f"chambers: witness {k} is not strictly inside the polytope")
        elif sign_vector(mode, walls, theta, eta) != signs:
            problems.append(f"chambers: witness {k} does not have the recorded signs")
    vectors = [c[0] for c in chambers]
    vset = set(vectors)
    if len(vset) != len(vectors):
        problems.append("chambers: repeated sign vectors")
    index = {w: k for k, w in enumerate(walls)}
    for perm in ([1, 0] + list(range(2, n)), list(range(1, n)) + [0]):
        if n < 2:
            break
        images = _permuted_signs(mode, n, walls, index, perm)
        for v in vectors:
            img = [""] * len(walls)
            for k, (target, flip) in enumerate(images):
                s = v[k]
                img[target] = ("-" if s == "+" else "+") if flip else s
            if "".join(img) not in vset:
                problems.append(f"chambers: set not closed under the permutation {perm}")
                break
    if adjacency:
        pos = {v: k for k, v in enumerate(vectors)}
        hamming = set()
        for k, v in enumerate(vectors):
            for t in range(len(walls)):
                u = v[:t] + ("-" if v[t] == "+" else "+") + v[t + 1:]
                if u in pos:
                    hamming.add((min(k, pos[u]), max(k, pos[u])))
        emitted = {tuple(e) for e in doc.get("adjacency", [])}
        if emitted != hamming:
            problems.append("chambers: edges are not the Hamming-distance-1 pairs")
    for theta, eta in probes:
        v = sign_vector(mode, walls, theta, eta)
        if v is not None and v not in vset:
            problems.append(f"chambers: interior point {[str(x) for x in theta]} is in no listed chamber")
            break
    return problems
