import copy
import dataclasses
import hashlib
import itertools
import math
import pickle
import random
import re
import types
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from quivermoduli import curves, projline, serialize
from quivermoduli.configs import QnConfig, check_limit_equations, glue_fiber, moebius_equivalent, normalize_chart_qn
from quivermoduli.curves import (
    Chain,
    GK,
    HASSETT,
    InconsistentFamilyError,
    LM,
    LimitFamily,
    PointedTree,
    TreeEdge,
    UnstableInputError,
    chain_canonical,
    chain_from_tree,
    chain_isomorphic,
    charts_cover_hypersimplex,
    contract_gamma,
    contract_to_chart,
    family_passes,
    is_a_stable,
    is_gk_stable,
    is_lm_stable,
    lm_moduli_coordinates,
    lm_specialization_weights,
    mark_images,
    moduli_coordinates,
    reconstruct_tree,
    tree_from_chain,
    tree_isomorphic,
    validate_tree,
    verify_functor_conditions,
)
from quivermoduli.generate import (
    chain_from_shape,
    enumerate_chain_shapes,
    enumerate_split_systems,
    random_a_stable_tree,
    random_gk_tree,
    random_chain,
    random_hassett_weight,
    tree_from_splits,
)
from quivermoduli.projline import INF_POINT, ONE_POINT, ZERO_POINT, ProjPoint, _scaled, affine, moebius_from_triple


def single(n=4, last=F(5, 2)):
    pts = [ZERO_POINT, INF_POINT, ONE_POINT, affine(last), affine(7), affine(-3), affine(F(1, 3))]
    return PointedTree(("c0",), (), tuple((k, "c0", pts[k]) for k in range(n)))


def two_comp():
    return PointedTree(
        ("a", "b"),
        (TreeEdge(("a", "b"), (affine(9), affine(-4))),),
        (
            (0, "a", affine(0)),
            (1, "a", affine(1)),
            (2, "b", affine(2)),
            (3, "b", INF_POINT),
        ),
    )


def test_validate_tree_rejects_mark_on_node():
    with pytest.raises(ValueError):
        validate_tree(
            PointedTree(
                ("a", "b"),
                (TreeEdge(("a", "b"), (affine(9), affine(-4))),),
                ((0, "a", affine(9)), (1, "a", affine(1)), (2, "b", affine(2)), (3, "b", affine(3))),
            )
        )


def test_validate_tree_rejects_cycles_and_disconnection():
    with pytest.raises(ValueError):
        validate_tree(
            PointedTree(("a", "b"), (), ((0, "a", affine(1)), (1, "b", affine(2)), (2, "a", affine(3))))
        )


def test_gk_stability():
    assert is_gk_stable(single(3))
    assert is_gk_stable(two_comp())
    # second component with two special points only
    bad = PointedTree(
        ("a", "b"),
        (TreeEdge(("a", "b"), (affine(9), affine(-4))),),
        ((0, "a", affine(0)), (1, "a", affine(1)), (2, "a", affine(2)), (3, "b", affine(3))),
    )
    assert not is_gk_stable(bad)
    # coincident marks are not classically stable
    dup = PointedTree(("c0",), (), ((0, "c0", affine(1)), (1, "c0", affine(1)), (2, "c0", affine(2))))
    assert not is_gk_stable(dup)


def test_a_stability_examples():
    one = F(1)
    t = PointedTree(
        ("c",), (),
        ((0, "c", affine(0)), (1, "c", affine(0)), (2, "c", affine(1)), (3, "c", INF_POINT)),
    )
    assert is_a_stable(t, (F(1, 2), F(1, 2), one, one))
    assert not is_a_stable(t, (F(3, 4), F(3, 4), one, one))
    assert is_a_stable(single(4), (one,) * 4) == is_gk_stable(single(4))


def test_lm_stability():
    ch = Chain((((0, affine(2)),),))
    assert is_lm_stable(ch)
    ch2 = Chain((((0, affine(2)), (1, affine(3))), ()))
    assert not is_lm_stable(ch2)


def test_mark_images_two_components():
    imgs = mark_images(two_comp())
    assert imgs["a"] == QnConfig((affine(0), affine(1), affine(9), affine(9)))
    assert imgs["b"] == QnConfig((affine(-4), affine(-4), affine(2), INF_POINT))


def _walked_images(tree):
    """component -> configuration of the mark images, sections in label
    order, by a breadth-first walk from each component: a mark elsewhere
    lands on the node of the first edge of the path toward it."""
    out = {}
    for c in tree.components:
        first = {c: None}
        queue = [c]
        for cur in queue:
            for e in tree.edges:
                if cur in e.ends and e.other(cur) not in first:
                    first[e.other(cur)] = e if cur == c else first[cur]
                    queue.append(e.other(cur))
        out[c] = QnConfig(tuple(p if comp == c else first[comp].node_at(c) for _, comp, p in tree.marks))
    return out


def test_mark_images_match_a_walk_of_the_tree():
    rng = random.Random(23)
    trees = [random_gk_tree(rng, n) for n in (3, 4, 5, 6, 7, 8) for _ in range(6)]
    for n in (4, 5, 6):
        for _ in range(6):
            trees.append(random_a_stable_tree(rng, n, random_hassett_weight(rng, n)))
    # labels other than 0..n-1 keep their sections in label order
    trees += [contract_gamma(t, [0, 2, 3, 5]) for t in trees if t.n >= 6]
    assert sum(len(t.components) > 2 for t in trees) >= 10
    assert any(_has_coincident_marks(t) for t in trees)
    for tree in trees:
        assert mark_images(tree) == _walked_images(tree), tree


def test_contract_gamma_identity_and_example():
    t = two_comp()
    assert contract_gamma(t, [0, 1, 2, 3]).n == 4
    g = contract_gamma(t, [0, 2, 3])
    assert len(g.components) == 1
    # the dropped component's mark lands on the attachment point
    imgs = {lb: p for lb, _, p in g.marks}
    assert imgs[0] == affine(-4)


def test_contract_gamma_functorial():
    rng = random.Random(3)
    for _ in range(20):
        t = random_gk_tree(rng, 6)
        inner = contract_gamma(t, [0, 1, 2, 3, 4])
        assert tree_isomorphic(contract_gamma(inner, [0, 1, 2, 3]), contract_gamma(t, [0, 1, 2, 3]))


def test_contract_to_chart():
    t = two_comp()
    chart = contract_to_chart(t, (0, 2, 3))
    assert chart is not None
    assert chart[0] == ZERO_POINT and chart[2] == INF_POINT and chart[3] == ONE_POINT
    # marks 0 and 1 collapse together on the far component
    assert chart[1] == chart[0]
    # a triple undefined when two of its marks merge everywhere
    dup = PointedTree(
        ("c",), (),
        ((0, "c", affine(0)), (1, "c", affine(0)), (2, "c", affine(1)), (3, "c", INF_POINT)),
    )
    assert contract_to_chart(dup, (0, 1, 2)) is None


def test_contraction_compatibility_with_charts():
    rng = random.Random(9)
    for _ in range(15):
        t = random_gk_tree(rng, 6)
        keep = sorted(rng.sample(range(6), 4))
        g = contract_gamma(t, keep)
        for trip in itertools.combinations(keep, 3):
            c1 = contract_to_chart(t, trip)
            c2 = contract_to_chart(g, trip)
            for k in keep:
                assert c1[k] == c2[k]


def test_moduli_coordinates_single_component():
    lam = F(5, 2)
    fam = moduli_coordinates(single(4, lam), GK)
    assert fam.charts[(0, 1, 2)][3] == affine(lam)
    assert len(fam.charts) == 24
    assert family_passes(verify_functor_conditions(fam))


def test_moduli_rejects_unstable():
    dup = PointedTree(("c0",), (), ((0, "c0", affine(1)), (1, "c0", affine(1)), (2, "c0", affine(2))))
    with pytest.raises(UnstableInputError):
        moduli_coordinates(dup, GK)


def test_reconstruct_boundary_family():
    # chart family of the two-component tree: mark 3 meets mark 0 in the
    # chart of the component carrying marks 1, 2
    fam = moduli_coordinates(two_comp(), GK)
    t = reconstruct_tree(fam)
    assert len(t.components) == 2
    sides = {
        frozenset(lb for lb, c, _ in t.marks if c == comp) for comp in t.components
    }
    assert sides == {frozenset({0, 1}), frozenset({2, 3})}


def test_reconstruct_detects_mutation():
    fam = moduli_coordinates(single(5), GK)
    charts = dict(fam.charts)
    row = list(charts[(0, 1, 2)])
    row[4] = affine(F(99))
    charts[(0, 1, 2)] = tuple(row)
    broken = LimitFamily(GK, 5, charts)
    with pytest.raises(InconsistentFamilyError):
        reconstruct_tree(broken)


def _failure(fam):
    try:
        reconstruct_tree(fam)
    except InconsistentFamilyError as exc:
        return exc.condition
    return None


def test_reconstruct_failure_names(monkeypatch):
    gk = moduli_coordinates(random_gk_tree(random.Random(4), 5), GK)
    hassett = _hassett_family()
    # a GK family carrying weights is not the family of its tree
    assert _failure(LimitFamily(GK, 5, gk.charts, (F(1),) * 5)) == "round-trip"
    # nor is a family with one row given as a list
    for fam in (gk, hassett):
        charts = dict(fam.charts)
        key = next(iter(charts))
        charts[key] = list(charts[key])
        assert _failure(LimitFamily(fam.mode, fam.n, charts, fam.a)) == "round-trip"
    # unit weights given as ints equal the family's Fractions
    ones = moduli_coordinates(random_gk_tree(random.Random(4), 5), HASSETT, (F(1),) * 5)
    assert _failure(LimitFamily(HASSETT, 5, ones.charts, (1,) * 5)) is None
    # marks 2 and 3 of the Hassett family coincide; weights above 1 on them
    # leave the tree unstable, which the covering condition finds before
    # reconstruction
    assert _failure(hassett) is None
    for a in ((F(1),) * 4, (F(1), F(1), F(3, 4), F(3, 4))):
        assert _failure(LimitFamily(HASSETT, 4, hassett.charts, a)) == "covering"
    # the stability test of the rebuilt tree is the last guard
    monkeypatch.setattr(curves, "is_a_stable", lambda tree, a: False)
    assert _failure(LimitFamily(HASSETT, 4, hassett.charts, hassett.a)) == "stability"
    # No family passes every functor condition with tuple rows of the right
    # weights and yet belongs to another tree: the tree is read off the
    # family's own rows, and the conditions are the equations whose
    # solutions are the chart families of stable trees.


def test_round_trip_comparison_refuses_extra_charts():
    # no family that passes the functor conditions has a chart its rebuilt
    # tree lacks, so reconstruction cannot show this
    tree = random_gk_tree(random.Random(4), 5)
    charts = moduli_coordinates(tree, GK).charts
    assert curves._charts_match(charts, curves._base_rows(tree, GK), 6)
    extra = {**charts, (0, 1, 5): charts[0, 1, 2]}
    assert not curves._charts_match(extra, curves._base_rows(tree, GK), 6)


def test_roundtrip_exhaustive_n4():
    for splits in enumerate_split_systems(4):
        t = tree_from_splits(4, splits)
        fam = moduli_coordinates(t, GK)
        t2 = reconstruct_tree(fam)
        assert tree_isomorphic(t, t2)
        assert moduli_coordinates(t2, GK) == fam


def test_tree_from_splits_rejects_crossing_splits():
    with pytest.raises(ValueError, match="insertion points"):
        tree_from_splits(5, [(0, 1), (0, 2)])


def test_tree_isomorphic_rejects_different_coordinates():
    t1 = single(4, F(5, 2))
    t2 = single(4, F(7, 2))
    assert not tree_isomorphic(t1, t2)
    m = two_comp()
    assert tree_isomorphic(m, m)


def test_tree_isomorphic_needs_three_image_points_and_three_marks():
    # a component whose marks land on two distinct points is isomorphic to
    # nothing, itself included, though its configuration is Moebius
    # equivalent to itself
    leaf = PointedTree(
        ("a", "b"),
        (TreeEdge(("a", "b"), (affine(9), affine(-4))),),
        ((0, "a", affine(0)), (1, "a", affine(1)), (2, "a", affine(2)), (3, "b", affine(3))),
    )
    dup = PointedTree(("c",), (), ((0, "c", affine(1)), (1, "c", affine(1)), (2, "c", affine(2))))
    for tree in (leaf, dup):
        images = mark_images(tree)
        assert any(len({s.ihom for s in cfg.sections}) == 2 for cfg in images.values())
        assert all(moebius_equivalent(cfg, cfg) for cfg in images.values())
        assert not tree_isomorphic(tree, tree)
    # fewer than three marks: no configurations, and never isomorphic, even
    # where two components repeat an image partition (the third tree)
    small = [
        PointedTree(("c",), (), ()),
        PointedTree(("c",), (), ((0, "c", affine(1)), (1, "c", affine(2)))),
        PointedTree(("a", "b"), two_comp().edges, ((0, "a", affine(0)), (1, "b", affine(2)))),
    ]
    for tree in small:
        with pytest.raises(ValueError, match="n >= 3"):
            mark_images(tree)
        assert not tree_isomorphic(tree, tree)
    # with three marks or more, a repeated image partition still raises
    path = PointedTree(
        ("a", "b", "c"),
        (TreeEdge(("a", "b"), (affine(1), affine(2))), TreeEdge(("b", "c"), (affine(3), affine(4)))),
        ((0, "a", affine(5)), (1, "c", affine(6)), (2, "c", affine(7))),
    )
    with pytest.raises(ValueError, match="distinct image partitions"):
        tree_isomorphic(path, path)


def test_lm_coordinates_and_identities():
    ch = Chain((
        ((0, affine(2)),),
        ((1, affine(1)), (2, affine(F(1, 3)))),
    ))
    fam = lm_moduli_coordinates(ch)
    for i in range(3):
        assert fam.charts[i][i] == ONE_POINT
    assert family_passes(verify_functor_conditions(fam))
    back = reconstruct_tree(fam)
    assert chain_isomorphic(ch, back)


def test_chain_canonical():
    ch = Chain((((0, affine(6)), (1, affine(3))),))
    canon = chain_canonical(ch)
    assert dict(canon.components[0])[0] == ONE_POINT
    assert dict(canon.components[0])[1] == affine(F(1, 2))


def test_hassett_chart_degree():
    # weights 3/5 over the denominator 5: degrees 1 + 3 * 3/5 and 1, times 5
    nums = (3,) * 5
    assert curves._degree_numerator([(0, 1), (2,), (3,), (4,)], nums, 5) == 14
    assert curves._degree_numerator([(0, 1, 2, 3, 4)], nums, 5) == 5
    # a family's test reads each chart's coincidence classes: marks 2 and 3
    # of `two_comp` meet at the node in the chart of (0, 1, 2), so their
    # weights count once there, and only there
    charts = moduli_coordinates(two_comp(), GK).charts
    half = F(1, 2)
    for a, witness in (((half, half, 1, 1), ((0, 1, 2),)), ((1, 1, half, half), ((0, 2, 3),)), ((F(3, 4),) * 4, None)):
        (report,) = [r for r in verify_functor_conditions(LimitFamily(HASSETT, 4, charts, a)) if r.name == "chart-degree"]
        assert (report.passed, report.witness) == (witness is None, witness), a


class _NoDraws(random.Random):
    """A generator that fails on any draw, so a sampling loop cannot spin."""

    def random(self):
        raise RuntimeError("drew a number")


def test_hassett_weight_rejects_sizes_without_admissible_weights():
    for n in (-1, 0, 1, 2):
        with pytest.raises(ValueError, match="n >= 3"):
            random_hassett_weight(_NoDraws(), n)
    a = random_hassett_weight(random.Random(5), 3)
    assert len(a) == 3 and sum(a) > 2 and all(0 < v <= 1 for v in a)


def test_heavy_tree_chain_correspondence():
    n = 5
    a = lm_specialization_weights(n)
    ch = Chain((
        ((2, affine(2)),),
        ((3, affine(1)), (4, affine(F(1, 3)))),
    ))
    t = tree_from_chain(ch, n)
    assert is_a_stable(t, a)
    assert chain_isomorphic(chain_from_tree(t), ch)
    fam = moduli_coordinates(t, HASSETT, a)
    t2 = reconstruct_tree(fam)
    assert tree_isomorphic(t, t2)


def test_covering_combinatorial():
    fam = moduli_coordinates(two_comp(), GK)
    covered, _ = charts_cover_hypersimplex(fam)
    assert covered
    # drop the charts of one component: the rest cannot cover
    partial = {
        lbl: row
        for lbl, row in fam.charts.items()
        if QnConfig(tuple(row)).sections[0] != QnConfig(tuple(row)).sections[1]
    }
    broken = LimitFamily(GK, 4, partial)
    covered, witness = charts_cover_hypersimplex(broken)
    assert not covered and witness is not None


def test_hassett_inactive_charts():
    a = (F(1), F(1), F(1, 2), F(1, 2))
    dup = PointedTree(
        ("c",), (),
        ((0, "c", affine(0)), (1, "c", INF_POINT), (2, "c", affine(1)), (3, "c", affine(1))),
    )
    assert is_a_stable(dup, a)
    fam = moduli_coordinates(dup, HASSETT, a)
    assert tuple(sorted((2, 3))) not in [t for t in fam.active_sets() if 2 in t and 3 in t]
    assert all(not (2 in t and 3 in t) for t in fam.active_sets())
    assert family_passes(verify_functor_conditions(fam))
    t2 = reconstruct_tree(fam)
    assert tree_isomorphic(dup, t2)


def _fiber_json(fiber):
    return {
        "kind": fiber.kind,
        "moebius": None if fiber.moebius is None else serialize.moebius_json(fiber.moebius),
        "marks": [None if s is None else sorted(s) for s in (fiber.marks_on_a, fiber.marks_on_b)],
        "nodes": [None if p is None else serialize.point_json(p) for p in (fiber.node_a, fiber.node_b)],
    }


def _chart_layer_text(mode, a, tree):
    """The serialized chart family of a tree, its reconstruction, and the
    fibers glued from each chart and the next (cyclically), at the first
    anchor pair admissible for both."""
    fam = moduli_coordinates(tree, mode, a)
    parts = [serialize.family_json(fam), serialize.tree_json(reconstruct_tree(fam))]
    labels = sorted(fam.charts)
    for la, lb in zip(labels, labels[1:] + labels[:1]):
        ca, cb = QnConfig(fam.charts[la]), QnConfig(fam.charts[lb])
        for i, j in itertools.combinations(range(fam.n), 2):
            if ca.sections[i] != ca.sections[j] and cb.sections[i] != cb.sections[j]:
                if check_limit_equations(ca, cb, i, j):
                    parts.append(_fiber_json(glue_fiber(ca, cb, i, j)))
                else:
                    parts.append([list(la), list(lb), i, j])
                break
    return "\n".join(serialize.dumps(p) for p in parts)


def test_chart_layer_output_pinned():
    # sha256 taken before points and Moebius maps were stored as integers
    # only; the chart layer's serialized output must not change
    rng = random.Random(20261018)
    corpus = []
    for n in (4, 5, 6, 7):
        corpus += [(GK, None, random_gk_tree(rng, n)) for _ in range(4)]
    for n in (4, 5, 6):
        for _ in range(3):
            a = random_hassett_weight(rng, n)
            corpus += [(HASSETT, a, random_a_stable_tree(rng, n, a)) for _ in range(2)]
    digest = hashlib.sha256()
    for mode, a, tree in corpus:
        digest.update(_chart_layer_text(mode, a, tree).encode())
    assert digest.hexdigest() == "f2b6ccd373588c65f3af74c51104d24fd4cb12211c3ef4d30cec3cfc5f793718"


def _moebius_reference_charts(tree):
    """The chart rows built by normalizing each ordering with a Moebius map,
    applied mark by mark, on the one component where the triple separates."""
    images = [dict(zip(tree.labels, cfg.sections)) for cfg in mark_images(tree).values()]
    charts = {}
    for tset in itertools.combinations(tree.labels, 3):
        hits = [img for img in images if len({img[i].ihom for i in tset}) == 3]
        assert len(hits) <= 1
        for img in hits:
            for order in itertools.permutations(tset):
                m = moebius_from_triple(*(img[i] for i in order))
                charts[order] = {lb: m.apply(p) for lb, p in img.items()}
    return charts


def _has_coincident_marks(tree):
    spots = [(comp, p.ihom) for _, comp, p in tree.marks]
    return len(set(spots)) < len(spots)


def _coincident_at_anchors(tree, fam):
    """How many (chart, mark) pairs put a mark outside the chart's triple at
    its 0 or infinity because it coincides with the triple's first or second
    mark on the tree."""
    spot = {lb: (comp, p.ihom) for lb, comp, p in tree.marks}
    return sum(
        1
        for p, q, r in fam.charts
        for k in tree.labels
        if k not in (p, q, r) and spot[k] in (spot[p], spot[q])
    )


def test_charts_match_the_moebius_reference():
    rng = random.Random(1717)
    corpus = [(GK, None, random_gk_tree(rng, n)) for n in (3, 4, 5, 6, 7, 8) for _ in range(6)]
    for n in (4, 5, 6):
        for _ in range(30):
            a = random_hassett_weight(rng, n)
            corpus.append((HASSETT, a, random_a_stable_tree(rng, n, a)))
    # clusters of light marks, which sit at the 0 or infinity of every chart
    # whose first or second mark they hold
    h, t, q = F(1, 2), F(1, 3), F(1, 4)
    for a, splits, clusters in (
        ((1, 1, h, h), [], [[2, 3]]),
        ((1, 1, t, t, t), [], [[2, 3, 4]]),
        ((1, 1, t, t, t), [(0, 2, 3)], [[2, 3]]),
        ((1, 1, q, q, q, q), [], [[2, 3], [4, 5]]),
        ((1, 1, q, q, q, q), [(0, 2, 3)], [[2, 3], [4, 5]]),
    ):
        for _ in range(3):
            corpus.append((HASSETT, a, tree_from_splits(len(a), splits, rng, clusters=clusters)))
    coincident = at_anchors = 0
    for mode, a, tree in corpus:
        ref = _moebius_reference_charts(tree)
        fam = moduli_coordinates(tree, mode, a)
        assert list(fam.charts) == list(ref)
        assert all(fam.charts[k] == tuple(ref[k].values()) for k in ref)
        # every point is in the normal form its constructor gives
        assert all(p == ProjPoint(*p.ihom) for row in fam.charts.values() for p in row)
        for tset in itertools.combinations(tree.labels, 3):
            for order in itertools.permutations(tset):
                assert contract_to_chart(tree, order) == ref.get(order), (tree, order)
        coincident += _has_coincident_marks(tree)
        at_anchors += _coincident_at_anchors(tree, fam)
    assert coincident >= 20, coincident
    assert at_anchors >= 500, at_anchors


def _moebius_reference_chain_charts(chain):
    """The chart rows of a chain built with a Moebius map per mark: marks of
    earlier components at (0:1), of later ones at (1:0), and the mark's own
    component rescaled to put the mark at (1:1)."""
    place = [None] * chain.n
    for ci, comp in enumerate(chain.components):
        for lb, p in comp:
            place[lb] = (ci, p)
    charts = {}
    for i, (ci, c) in enumerate(place):
        m = moebius_from_triple(ZERO_POINT, INF_POINT, c)
        charts[i] = tuple(ZERO_POINT if cj < ci else INF_POINT if cj > ci else m.apply(p) for cj, p in place)
    return charts


def test_chain_charts_match_the_moebius_reference():
    rng = random.Random(2021)
    corpus = []
    for n in (1, 2, 3, 4):
        for shape in enumerate_chain_shapes(range(n)):
            corpus += [chain_from_shape(shape), chain_from_shape(shape, rng, coincide=True)]
    corpus += [random_chain(rng, range(n)) for n in (5, 6, 7) for _ in range(20)]
    coincident = 0
    for chain in corpus:
        ref = _moebius_reference_chain_charts(chain)
        fam = lm_moduli_coordinates(chain)
        assert fam.charts == ref and list(fam.charts) == list(ref)
        assert all(p == ProjPoint(*p.ihom) for row in fam.charts.values() for p in row)
        canon = chain_canonical(chain)
        for comp, got in zip(chain.components, canon.components):
            m = moebius_from_triple(ZERO_POINT, INF_POINT, comp[0][1])
            assert got == tuple((lb, m.apply(p)) for lb, p in comp)
        coincident += any(len({p for _, p in comp}) < len(comp) for comp in chain.components)
    assert coincident >= 20, coincident
    # a chain with a mark at an anchor has no canonical form
    for anchor in (ZERO_POINT, INF_POINT):
        with pytest.raises(ValueError, match="^mark 0 sits on an anchor or node point$"):
            chain_canonical(Chain((((0, anchor), (1, affine(2))),)))


def test_chain_reconstruct_failure_names(monkeypatch):
    chain = Chain((((0, affine(2)), (1, affine(3))), ((2, affine(5)), (3, affine(7))), ((4, affine(-1)),)))
    fam = lm_moduli_coordinates(chain)
    assert _failure(fam) is None
    # a family carrying weights, or with a row given as a list, is not the
    # family of its chain
    assert _failure(LimitFamily(LM, 5, fam.charts, (F(1),) * 5)) == "round-trip"
    for i in range(5):
        charts = dict(fam.charts)
        charts[i] = list(charts[i])
        assert _failure(LimitFamily(LM, 5, charts)) == "round-trip", i
    monkeypatch.setattr(curves, "is_lm_stable", lambda chain: False)
    assert _failure(fam) == "stability"


# Reference for chain reconstruction: the grouping as it was before charts
# were keyed by the normal form of `PnConfig.star`, a first-fit pass that
# compares each chart with the first chart of every group by
# cross-multiplication.


def _same_component(rep, row, i):
    """Whether `row`, the chart of mark i, is `rep` under the diagonal map
    x -> (x0 c1 : c0 x1), c = rep[i], that puts i at (1:1) (never if rep[i]
    is 0 or inf)."""
    c0, c1 = rep[i].ihom
    return bool(c0 and c1) and all(
        x0 * c1 * y.ihom[1] == c0 * x1 * y.ihom[0] for (x0, x1), y in zip((p.ihom for p in rep), row)
    )


def _first_fit_chain(family):
    groups = []
    for i in range(family.n):
        for g in groups:
            if _same_component(family.charts[g[0]], family.charts[i], i):
                g.append(i)
                break
        else:
            groups.append([i])
    leads = [g[0] for g in groups]
    before_counts = [sum(j != i and family.charts[i][j] == ZERO_POINT for j in leads) for i in leads]
    if sorted(before_counts) != list(range(len(groups))):
        raise InconsistentFamilyError("chain-order", tuple(before_counts))
    ordered = sorted(zip(before_counts, groups))
    chain = Chain(tuple(tuple((lb, family.charts[g[0]][lb]) for lb in g) for _, g in ordered))
    try:
        curves.validate_chain(chain)
    except ValueError as exc:
        raise InconsistentFamilyError("chain-shape", str(exc))
    if not is_lm_stable(chain):
        raise InconsistentFamilyError("stability", None)
    if family.a is not None or not curves._charts_match(family.charts, curves._lm_chart_pairs(chain), 1):
        raise InconsistentFamilyError("round-trip", None)
    return chain


def _chain_outcome(charts, a=None):
    try:
        return reconstruct_tree(LimitFamily(LM, len(charts), charts, a))
    except InconsistentFamilyError as exc:
        return exc.condition, exc.witness


def _chain_families(rng):
    """(charts, weights) of random chains at n = 1-6 (coincident marks
    included), each with corrupted copies: one point off the anchors moved,
    two charts swapped, one chart rescaled (whole, and off its own mark),
    a row given as a list and weights attached; then random rows with (1:1)
    on the diagonal at n = 1-3."""
    pool = [ZERO_POINT, INF_POINT, ONE_POINT, affine(2), affine(F(1, 2)), affine(-1)]
    out = []
    for n in range(1, 7):
        for _ in range(30):
            charts = dict(lm_moduli_coordinates(random_chain(rng, range(n))).charts)
            out += [(charts, None), (charts, (F(1),) * n)]
            i = rng.randrange(n)
            row = list(charts[i])
            k = rng.choice([k for k in range(n) if row[k] not in (ZERO_POINT, INF_POINT)])
            row[k] = affine(F(rng.randint(100, 999), 7))
            out += [({**charts, i: tuple(row)}, None), ({**charts, i: list(charts[i])}, None)]
            if n >= 2:
                i, j = rng.sample(range(n), 2)
                out.append(({**charts, i: charts[j], j: charts[i]}, None))
            scale = projline.Moebius(rng.choice((2, -3, F(1, 5))), 0, 0, 1)
            i = rng.randrange(n)
            scaled = tuple(scale.apply(p) for p in charts[i])
            out += [({**charts, i: scaled}, None), ({**charts, i: scaled[:i] + (ONE_POINT,) + scaled[i + 1:]}, None)]
    for _ in range(600):
        n = rng.randint(1, 3)
        out.append(({i: tuple(ONE_POINT if k == i else rng.choice(pool) for k in range(n)) for i in range(n)}, None))
    return out


def test_chain_grouping_answers_as_the_first_fit_pass(monkeypatch):
    # the same chain, or the same failed condition and witness
    seen = {}
    for charts, a in _chain_families(random.Random(2801)):
        got = _chain_outcome(charts, a)
        with monkeypatch.context() as patch:
            patch.setattr(curves, "_reconstruct_chain", _first_fit_chain)
            assert _chain_outcome(charts, a) == got, (charts, a)
        key = "chain" if isinstance(got, Chain) else got[0]
        seen[key] = seen.get(key, 0) + 1
    assert seen.keys() == {"chain", "round-trip", "diagonal-normalization", "triple-identity"}, seen
    assert min(seen.values()) >= 150, seen


def test_contract_to_chart_reads_any_labels():
    # labels other than 0..n-1 (a contraction keeps its marks' labels)
    rng = random.Random(18)
    for _ in range(10):
        tree = contract_gamma(random_gk_tree(rng, 7), [1, 2, 4, 6])
        ref = _moebius_reference_charts(tree)
        for order in itertools.permutations(tree.labels, 3):
            assert contract_to_chart(tree, order) == ref.get(order)
    with pytest.raises(KeyError):
        contract_to_chart(tree, (1, 2, 3))


def _moved(tree, comp, m):
    """The tree with every special point of one component moved by m."""
    edges = tuple(
        TreeEdge(e.ends, tuple(m.apply(p) if end == comp else p for end, p in zip(e.ends, e.nodes)))
        for e in tree.edges
    )
    marks = tuple((lb, c, m.apply(p) if c == comp else p) for lb, c, p in tree.marks)
    return PointedTree(tree.components, edges, marks)


def test_tree_isomorphic_agrees_with_the_chart_families():
    # stable trees with the same labels are isomorphic exactly when their
    # chart families are equal
    rng = random.Random(21)
    seen = {True: 0, False: 0}
    for n in (4, 5, 6, 7):
        for _ in range(8):
            tree = random_gk_tree(rng, n)
            comp = rng.choice(tree.components)
            moved = _moved(tree, comp, projline.Moebius(3, rng.randint(-3, 3), rng.choice((2, 5)), 1))
            k = rng.randrange(n)
            lb, c, _ = tree.marks[k]
            marks = list(tree.marks)
            marks[k] = (lb, c, affine(F(rng.randint(100, 999), 7)))
            changed = PointedTree(tree.components, tree.edges, tuple(marks))
            fam = moduli_coordinates(tree, GK)
            for other in (moved, changed):
                iso = tree_isomorphic(tree, other)
                assert iso == (moduli_coordinates(other, GK) == fam), (tree, other)
                seen[iso] += 1
    assert min(seen.values()) >= 15, seen


def test_tree_charts_build_no_moebius_map(monkeypatch):
    # tree charts, chain charts, their reconstructions and the normalized
    # charts of configurations all read the integer chart rule
    made = []
    real_init = projline.Moebius.__init__

    def counting_init(self, *entries):
        made.append(entries)
        real_init(self, *entries)

    monkeypatch.setattr(projline.Moebius, "__init__", counting_init)
    rng = random.Random(19)
    for n in (4, 5, 6, 7):
        tree = random_gk_tree(rng, n)
        fam = moduli_coordinates(tree, GK)
        assert tree_isomorphic(tree, reconstruct_tree(fam))
        contract_to_chart(tree, (0, 1, 2))
    a = (F(1), F(1), F(1, 2), F(1, 2))
    moduli_coordinates(random_a_stable_tree(rng, 4, a), HASSETT, a)
    for n in (1, 3, 5, 6):
        chain = random_chain(rng, range(n))
        assert chain_isomorphic(chain, reconstruct_tree(lm_moduli_coordinates(chain)))
    cfg = QnConfig(tuple(affine(k) for k in range(5)))
    for order in itertools.permutations(range(5), 3):
        normalize_chart_qn(cfg, order)
    assert made == []
    # the counter sees maps where they are built
    projline.moebius_from_triple(ZERO_POINT, INF_POINT, affine(2))
    assert made


# ---------------------------------------------------------------------------
# LimitFamily is an immutable value whose reports are computed once.


def _hassett_family():
    """Marks 2 and 3 of weight 1/2 coincide, so the chart (2, 3, k) is not
    active for any k."""
    a = (F(1), F(1), F(1, 2), F(1, 2))
    dup = PointedTree(
        ("c",), (),
        ((0, "c", affine(0)), (1, "c", INF_POINT), (2, "c", affine(1)), (3, "c", affine(1))),
    )
    fam = moduli_coordinates(dup, HASSETT, a)
    assert fam.active_sets() == [(0, 1, 2), (0, 1, 3)]
    return fam


def test_family_is_a_snapshot_of_its_charts():
    fam = moduli_coordinates(single(5), GK)
    charts = dict(fam.charts)
    snap = LimitFamily(GK, 5, charts)
    before = dict(snap.charts)
    charts[(0, 1, 2)] = charts[(0, 2, 1)]
    del charts[(1, 2, 3)]
    assert dict(snap.charts) == before and snap == fam
    assert family_passes(verify_functor_conditions(snap))
    a = [F(1)] * 4
    weighted = LimitFamily(HASSETT, 4, {}, a)
    a[0] = F(1, 2)
    assert weighted.a == (F(1),) * 4


def test_family_rejects_mutation():
    fam = _hassett_family()
    with pytest.raises(TypeError):
        fam.charts[(0, 1, 2)] = fam.charts[(0, 2, 1)]
    with pytest.raises(TypeError):
        del fam.charts[(0, 1, 2)]
    for name, value in (("mode", GK), ("n", 5), ("charts", {}), ("a", None)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(fam, name, value)
    with pytest.raises(TypeError):
        hash(fam)


def test_family_rejects_unknown_modes():
    for mode in ("zz", "GK", "", None, "qn"):
        with pytest.raises(ValueError, match="unknown family mode"):
            LimitFamily(mode, 3, {})


def test_replaced_family_gets_fresh_reports():
    fam = moduli_coordinates(single(5), GK)
    assert family_passes(verify_functor_conditions(fam))
    charts = dict(fam.charts)
    row = list(charts[(0, 1, 2)])
    row[4] = affine(F(99))
    charts[(0, 1, 2)] = tuple(row)
    bad = LimitFamily(fam.mode, fam.n, charts, fam.a)
    assert not family_passes(verify_functor_conditions(bad))
    with pytest.raises(InconsistentFamilyError):
        reconstruct_tree(bad)
    assert family_passes(verify_functor_conditions(fam))
    assert LimitFamily(bad.mode, bad.n, fam.charts, bad.a) == fam


def test_reports_are_fresh_lists_of_one_computation():
    fam = _hassett_family()
    first = verify_functor_conditions(fam)
    first.clear()
    again = verify_functor_conditions(fam)
    assert again and family_passes(again)
    assert again == verify_functor_conditions(fam) and again is not verify_functor_conditions(fam)


def test_verify_then_reconstruct_runs_one_cover_check(monkeypatch):
    calls = []
    real = curves.cover_check

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(curves, "cover_check", counting)
    fam = _hassett_family()
    assert family_passes(verify_functor_conditions(fam))
    tree = reconstruct_tree(fam)
    assert verify_functor_conditions(fam) and len(calls) == 1
    # a new family, even an equal one, runs its own conditions
    again = moduli_coordinates(tree, HASSETT, fam.a)
    assert again == fam
    reconstruct_tree(again)
    assert len(calls) == 2


@pytest.mark.parametrize("mode, test", [
    (GK, "is_gk_stable"), (HASSETT, "is_a_stable"), ("lm", "is_lm_stable"),
])
def test_reconstruct_runs_one_stability_test(monkeypatch, mode, test):
    if mode == GK:
        fam = moduli_coordinates(random_gk_tree(random.Random(3), 5), GK)
    elif mode == HASSETT:
        fam = _hassett_family()
    else:
        fam = lm_moduli_coordinates(Chain((((0, affine(2)),), ((1, affine(3)), (2, affine(5))))))
    calls = []
    real = getattr(curves, test)

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(curves, test, counting)
    reconstruct_tree(fam)
    assert len(calls) == 1


def test_family_pickles_and_copies_without_its_reports(monkeypatch):
    fam = _hassett_family()
    reports = verify_functor_conditions(fam)
    calls = []
    real = curves._functor_reports

    def counting(family):
        calls.append(family)
        return real(family)

    monkeypatch.setattr(curves, "_functor_reports", counting)
    for other in (pickle.loads(pickle.dumps(fam)), copy.copy(fam), copy.deepcopy(fam)):
        assert other == fam and other is not fam
        assert isinstance(other.charts, types.MappingProxyType)
        # each copy runs the conditions itself, once
        assert verify_functor_conditions(other) == reports == verify_functor_conditions(other)
        assert calls.pop() is other and not calls


def _written(mode, n, charts, a=None):
    return LimitFamily(mode, n, charts, None if a is None else tuple(F(v) for v in a))


def test_short_lm_row_fails_row_shape():
    row = (ONE_POINT, ONE_POINT)
    fam = _written("lm", 2, {0: row[:1], 1: row})
    reports = verify_functor_conditions(fam)
    assert [(r.name, r.passed) for r in reports] == [("charts-complete", True), ("row-shape", False)]
    assert reports[-1].witness == (0,)
    with pytest.raises(InconsistentFamilyError, match="row-shape"):
        reconstruct_tree(fam)
    good = lm_moduli_coordinates(Chain((((0, affine(2)),), ((1, affine(3)),))))
    assert [r.name for r in verify_functor_conditions(good)] == [
        "charts-complete", "row-shape", "diagonal-normalization", "triple-identity",
    ]


@pytest.mark.parametrize("n, a, message", [
    (4, None, "missing weight vector"),
    (4, ("1", "1", "1", "-1"), "0 < a_i <= 1"),
    (4, ("1", "1", "1", "0"), "0 < a_i <= 1"),
    (4, ("1", "1", "1", "3/2"), "0 < a_i <= 1"),
    (4, ("1/2", "1/2", "1/2", "1/2"), "more than 2"),
    (3, ("1", "1"), "length 2 for 3 marks"),
    (3, ("1", "1", "1", "1"), "length 4 for 3 marks"),
    (3, (), "length 0 for 3 marks"),
])
def test_bad_weight_data_fails_its_condition(n, a, message):
    fam = _written(HASSETT, n, {}, a)
    reports = verify_functor_conditions(fam)
    assert reports[-1].name == "weight-data" and not reports[-1].passed
    assert message in reports[-1].witness[0]
    assert all(r.passed for r in reports[:-1])
    with pytest.raises(InconsistentFamilyError, match="weight-data"):
        reconstruct_tree(fam)


# ---------------------------------------------------------------------------
# The integer Hassett helpers against Fraction references.


def _degree_reference(blocks, a):
    total = F(0)
    for block in blocks:
        total += min(F(1), sum(a[i] for i in block))
    return total


def _a_stable_reference(tree, a):
    validate_tree(tree)
    aw = tuple(F(v) for v in a)
    if any(v <= 0 or v > 1 for v in aw):
        raise ValueError("weights must satisfy 0 < a_i <= 1")
    if sum(aw) <= 2:
        raise ValueError("weights must sum to more than 2")
    if len(aw) != tree.n or tree.labels != tuple(range(tree.n)):
        raise ValueError("weight vector must match the mark labels 0..n-1")
    clusters = {}
    for label, comp, p in tree.marks:
        clusters[comp, p.ihom] = clusters.get((comp, p.ihom), F(0)) + aw[label]
    if any(total > 1 for total in clusters.values()):
        return False
    for c in tree.components:
        nodes = sum(1 for e in tree.edges if c in e.ends)
        if nodes + sum(aw[lb] for lb, comp, _ in tree.marks if comp == c) <= 2:
            return False
    return True


_weights = st.lists(
    st.fractions(min_value=F(-1, 2), max_value=F(3, 2), max_denominator=24), min_size=1, max_size=7
)


@settings(max_examples=300, deadline=None)
@given(_weights, st.integers(0, 2**32))
def test_chart_degree_matches_the_fraction_reference(a, seed):
    rng = random.Random(seed)
    labels = list(range(len(a)))
    rng.shuffle(labels)
    cuts = sorted(rng.sample(range(1, len(a)), rng.randint(0, len(a) - 1))) if len(a) > 1 else []
    blocks = [labels[i:j] for i, j in zip([0, *cuts], [*cuts, len(a)])]
    den, nums = _scaled(a)
    got = curves._degree_numerator(blocks, nums, den)
    assert type(got) is int and got == den * _degree_reference(blocks, a)


@settings(max_examples=300, deadline=None)
@given(st.integers(3, 6), _weights, st.integers(0, 2**32))
def test_a_stability_matches_the_fraction_reference(n, a, seed):
    rng = random.Random(seed)
    heavy = random_hassett_weight(rng, n)
    tree = random_a_stable_tree(rng, n, heavy) if rng.random() < 0.7 else random_gk_tree(rng, n)
    for weights in (a, heavy, (*a, *heavy)[:n]):
        try:
            expected = _a_stable_reference(tree, weights)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                is_a_stable(tree, weights)
        else:
            assert is_a_stable(tree, weights) is expected


# ---------------------------------------------------------------------------
# The round trip compares one ordering per triple, and the functor checks
# read integer row tables.  References: the comparison and the three checks
# as they were before, on every ordering and on the ProjPoints of the rows.


def _all_orderings_match(charts, rows):
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


class _Duck:
    """Not a ProjPoint, but with the integer pair of one."""

    def __init__(self, ihom):
        self.ihom = ihom


def _reconstruct_outcome(fam):
    try:
        reconstruct_tree(LimitFamily(fam.mode, fam.n, fam.charts, fam.a))
    except InconsistentFamilyError as exc:
        return InconsistentFamilyError, exc.condition
    except (AttributeError, ValueError) as exc:  # the type is the result under test
        return type(exc), None
    return None


def _all_orderings_outcome(fam, monkeypatch):
    """`_reconstruct_outcome` with the round trip comparing every ordering
    of every triple of the rebuilt tree."""
    trees = []
    base_rows = curves._base_rows

    def spy(tree, mode):
        trees.append(tree)
        return base_rows(tree, mode)

    def match(charts, rows, orderings):
        assert orderings == 6
        list(rows)
        return _all_orderings_match(charts, curves._chart_pairs(trees[0], fam.mode))

    with monkeypatch.context() as patch:
        patch.setattr(curves, "_base_rows", spy)
        patch.setattr(curves, "_charts_match", match)
        return _reconstruct_outcome(fam)


def _round_trip_families(rng):
    """GK families at n = 4-7 and at least three Hassett families at n = 4-5,
    one of them with inactive triples (charts missing)."""
    fams = [moduli_coordinates(random_gk_tree(rng, n), GK) for n in (4, 5, 6, 7) for _ in range(2)]
    hassett = []
    while len(hassett) < 3 or all(len(f.active_sets()) == math.comb(f.n, 3) for f in hassett):
        n = rng.randint(4, 5)
        a = random_hassett_weight(rng, n)
        hassett.append(moduli_coordinates(random_a_stable_tree(rng, n, a), HASSETT, a))
    return fams + hassett


def test_one_ordering_round_trip_answers_as_all_six(monkeypatch):
    # each of the six orderings of a triple in turn: a moved point off the
    # anchors, the row as a list, a non-point off the anchors (with and
    # without an integer pair) and one on an anchor
    rng = random.Random(2601)
    seen = {}
    for fam in _round_trip_families(rng):
        assert _reconstruct_outcome(fam) is None
        assert _all_orderings_outcome(fam, monkeypatch) is None
        triple = rng.choice(fam.active_sets())
        for order in itertools.permutations(triple):
            row = fam.charts[order]
            k = rng.choice([k for k in range(fam.n) if k not in order])
            anchor = rng.choice(order)
            corrupt = []
            for at, value in (
                (k, affine(F(rng.randint(100, 999), 7))),
                (k, _Duck(row[k].ihom)),
                (k, None),
                (anchor, _Duck(row[anchor].ihom)),
            ):
                changed = list(row)
                changed[at] = value
                corrupt.append(tuple(changed))
            corrupt.append(list(row))
            for changed in corrupt:
                charts = {**fam.charts, order: changed}
                broken = LimitFamily(fam.mode, fam.n, charts, fam.a)
                got = _reconstruct_outcome(broken)
                assert got == _all_orderings_outcome(broken, monkeypatch), (fam.mode, order, changed)
                seen[got] = seen.get(got, 0) + 1
    assert seen.keys() == {
        (InconsistentFamilyError, "round-trip"),
        (InconsistentFamilyError, "permutation-identities"),
        (InconsistentFamilyError, "anchor-normalization"),
        (AttributeError, None),
    }, seen
    assert seen[InconsistentFamilyError, "round-trip"] >= 100, seen


def _point_permutation_identities(charts, n):
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


def _point_exchange_identity(charts, n):
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


def _point_five_term(charts, n):
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


def test_functor_witnesses_match_the_point_loops():
    # corrupted GK and Hassett families, some Hassett ones with charts
    # removed: the row-table checks return the first witness of the loops
    # over ProjPoints
    rng = random.Random(2602)
    checks = (
        (_point_permutation_identities, curves._check_permutation_identities),
        (_point_exchange_identity, curves._check_exchange_identity),
        (_point_five_term, curves._check_five_term),
    )
    seen = {}
    for fam in _round_trip_families(rng):
        n = fam.n
        for trial in range(12):
            charts = dict(fam.charts)
            keys = sorted(charts)
            for _ in range(trial % 3):
                key = rng.choice(keys)
                row = list(charts[key])
                # anchors included: no check reads them
                row[rng.randrange(n)] = affine(F(rng.randint(-30, 30), rng.randint(1, 4)))
                charts[key] = tuple(row)
            if fam.mode == HASSETT and trial % 2:
                for key in rng.sample(keys, rng.randint(1, 3)):
                    del charts[key]
            table = {key: [p.ihom for p in row] for key, row in charts.items()}
            for old, new in checks:
                want = old(charts, n)
                assert new(table, n) == want, (old.__name__, charts)
                seen[old.__name__, want is None] = seen.get((old.__name__, want is None), 0) + 1
    assert len(seen) == 6 and min(seen.values()) >= 10, seen
