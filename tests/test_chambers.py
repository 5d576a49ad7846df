import copy
import hashlib
import itertools
import random
from collections import Counter
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from quivermoduli import chambers, cli, configs, curves, generate, lp, serialize
from quivermoduli.chambers import (
    DEFAULT_WORK_BOUND,
    ApexError,
    Chamber,
    HassettPolytope,
    OutsideConeError,
    PnWeight,
    QnWall,
    QnWeight,
    SettingError,
    StabPolytope,
    TooLargeError,
    canonical_qn_wall,
    chamber_adjacency,
    chamber_second_witness,
    chart_weight_pn,
    chart_weight_qn,
    classify_weight,
    cover_check,
    enumerate_chambers,
    enumerate_walls,
    max_work,
    project_weight_to_pn,
    stability_polytope,
    wall_relative_interior_point,
    _Arrangement,
    _constraints,
    _enumerate_regions,
    _region_witness,
    _space,
    _subset_implications,
    _wall_row,
)
from quivermoduli.generate import pn_decorations, set_partitions
from quivermoduli.projline import ProjPoint


def test_weight_invariants():
    with pytest.raises(ValueError):
        QnWeight((F(1), F(1), F(1), F(-1)))
    with pytest.raises(ValueError):
        QnWeight((F(1, 2),) * 3)
    with pytest.raises(ValueError):
        PnWeight(F(-1, 2), F(-1, 2), (F(1, 2), F(1, 4)))


def test_weights_refuse_binary_floats():
    # as a float, 0.1 is 3602879701896397/36028797018963968; weights take
    # the exact rationals that points take
    for make, args in (
        (QnWeight, ((0.5, 0.5, 1.0),)),
        (PnWeight, (-0.5, -0.5, (F(1),))),
        (PnWeight, (F(-1, 2), F(-1, 2), (0.5, 0.5))),
        (HassettPolytope, ((0.1, 1, 1, 1),)),
        (ProjPoint, (0.5, 1)),
    ):
        with pytest.raises(TypeError, match="^expected an exact rational, got -?0\\.[15]$"):
            make(*args)
    assert QnWeight(("1/2", 1, F(1, 2))) == QnWeight((F(1, 2), F(1), F(1, 2)))
    assert HassettPolytope(("1/10", 1, 1, 1)).a == (F(1, 10), F(1), F(1), F(1))


def _verdict(make, *args):
    """None if make(*args) accepts, else its ValueError message."""
    try:
        make(*args)
    except ValueError as exc:
        return str(exc)
    return None


def _reference_qn(theta):
    th = [F(v) for v in theta]
    if len(th) < 3:
        return "hypersimplex weights need n >= 3"
    if any(v < 0 or v > 1 for v in th):
        return "coordinates must lie in [0, 1]"
    if sum(th) != 2:
        return "coordinates must sum to 2"
    return None


def _reference_pn(eta1, eta2, theta):
    e1, e2, th = F(eta1), F(eta2), [F(v) for v in theta]
    if len(th) < 1:
        return "double-star weights need n >= 1"
    if e1 > 0 or e2 > 0:
        return "eta coordinates must be <= 0"
    if e1 + e2 != -1:
        return "eta coordinates must sum to -1"
    if any(v < 0 for v in th):
        return "theta coordinates must be >= 0"
    if sum(th) != 1:
        return "theta coordinates must sum to 1"
    return None


_IN_RANGE = st.one_of(
    st.fractions(min_value=0, max_value=1, max_denominator=12), st.sampled_from([0, 1])
)
_ANY = st.one_of(st.integers(-1, 2), st.fractions(min_value=-1, max_value=2, max_denominator=12))


@st.composite
def _coords(draw, total):
    """Up to 7 coordinates in [0, 1], often completed to sum to `total`
    (the others rescaled to leave the last one in range), and at times one
    of them replaced by any value in [-1, 2]."""
    values = draw(st.lists(_IN_RANGE, max_size=7))
    if len(values) >= 2 and draw(st.booleans()):
        rest = sum(F(v) for v in values[:-1])
        if rest > total or 0 < rest < total - 1:
            scale = (total if rest > total else total - 1) / rest
            values[:-1] = [v * scale for v in values[:-1]]
        values[-1] = total - sum(F(v) for v in values[:-1])
    if values and draw(st.booleans()):
        values[draw(st.integers(0, len(values) - 1))] = draw(_ANY)
    return values


@settings(max_examples=400, deadline=None)
@given(_coords(2))
def test_qn_weight_checks_match_fraction_reference(theta):
    assert _verdict(QnWeight, tuple(theta)) == _reference_qn(theta)


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.fractions(min_value=-1, max_value=0, max_denominator=12), _ANY),
       _ANY, st.booleans(), _coords(1))
def test_pn_weight_checks_match_fraction_reference(eta1, eta2, exact_eta, theta):
    if exact_eta:
        eta2 = -1 - F(eta1)
    assert _verdict(PnWeight, eta1, eta2, tuple(theta)) == _reference_pn(eta1, eta2, theta)


def test_decoders_check_integer_witnesses_as_the_constructors_do():
    # every integer witness (den, nums) with den <= 3 and each num in
    # [-1, den + 1]: the decoder of `_space` raises the constructor's error
    # for nums / den, or builds the weight the constructor builds
    outcomes = Counter()
    for mode, n in (("qn", 4), ("pn", 3)):
        decode = _space(mode, n)[3]
        for den in (1, 2, 3):
            for nums in itertools.product(range(-1, den + 2), repeat=n + (mode == "pn") * 2):
                x = [F(v, den) for v in nums]
                if mode == "qn":
                    args, make = (tuple(x),), QnWeight
                else:
                    args, make = (-x[0], -x[1], tuple(x[2:])), PnWeight
                want = _verdict(make, *args)
                assert _verdict(decode, (den, nums)) == want, (mode, den, nums)
                if want is None:
                    got = decode((den, nums))
                    assert got == make(*args) and hash(got) == hash(make(*args))
                outcomes[mode, want] += 1
    assert len(outcomes) == 8 and min(outcomes.values()) >= 10, outcomes


def test_wall_counts():
    assert [tuple(w.j) for w in enumerate_walls("qn", 4)] == [(0, 1), (0, 2), (0, 3)]
    assert len(enumerate_walls("qn", 5)) == 10
    assert len(enumerate_walls("pn", 3)) == 6
    assert len(enumerate_walls("qn", 6)) == 25


def test_wall_canonicalization():
    assert canonical_qn_wall(5, (2, 3, 4)) == QnWall(5, (0, 1))
    # the stored side is the lexicographically smaller one, regardless of size
    assert canonical_qn_wall(5, (1, 2)) == QnWall(5, (0, 3, 4))
    assert canonical_qn_wall(6, (0, 2)) == QnWall(6, (0, 2))


def test_classify_center_on_all_walls():
    c = classify_weight(QnWeight((F(1, 2),) * 4))
    assert not c.generic and len(c.inner) == 3 and not c.outer


def test_classify_generic():
    c = classify_weight(QnWeight((F(5, 8), F(5, 8), F(5, 8), F(1, 8))))
    assert c.generic and c.signs is not None


def test_classify_outer():
    c = classify_weight(QnWeight((F(1), F(1, 3), F(1, 3), F(1, 3))))
    assert ("theta_one", 0) in c.outer
    c = classify_weight(PnWeight(F(0), F(-1), (F(1, 3), F(2, 3))))
    assert ("eta_zero", 0) in c.outer


def test_wall_relative_interior_points():
    for mode, n in (("qn", 4), ("qn", 5), ("pn", 3)):
        for w in enumerate_walls(mode, n):
            pt = wall_relative_interior_point(mode, n, w)
            cls = classify_weight(pt)
            assert cls.inner == (w,) and not cls.outer


def test_chamber_counts_small():
    assert len(enumerate_chambers("qn", 4)) == 8
    assert len(enumerate_chambers("pn", 2)) == 4


def test_chamber_witnesses_generic():
    for mode, n in (("qn", 4), ("pn", 3)):
        for c in enumerate_chambers(mode, n):
            cls = classify_weight(c.witness)
            assert cls.generic and cls.signs == c.signs


def test_second_witness_rejects_unrealized_signs():
    realized = {c.signs for c in enumerate_chambers("qn", 5)}
    signs = next(s for s in itertools.product((1, -1), repeat=10) if s not in realized)
    with pytest.raises(ValueError):
        chamber_second_witness("qn", 5, Chamber(signs, enumerate_chambers("qn", 5)[0].witness))


def test_adjacency_no_self_loops_and_connected():
    chs = enumerate_chambers("qn", 4)
    edges = chamber_adjacency("qn", 4, chs)
    assert all(i != k for i, k in edges)
    reach = {0}
    frontier = [0]
    adj = {}
    for i, k in edges:
        adj.setdefault(i, []).append(k)
        adj.setdefault(k, []).append(i)
    while frontier:
        c = frontier.pop()
        for d in adj.get(c, ()):
            if d not in reach:
                reach.add(d)
                frontier.append(d)
    assert reach == set(range(len(chs)))


def test_adjacency_of_chambers_made_from_signs():
    # chambers made from signs and witness give the walk's chambers' edges:
    # the pairs whose sign vectors differ in one wall
    for mode, n in (("qn", 5), ("pn", 3)):
        chs = enumerate_chambers(mode, n)
        made = [Chamber(c.signs, c.witness) for c in chs]
        pairs = [
            (i, k) for i, k in itertools.combinations(range(len(chs)), 2)
            if sum(a != b for a, b in zip(chs[i].signs, chs[k].signs)) == 1
        ]
        assert chamber_adjacency(mode, n, made) == chamber_adjacency(mode, n, chs) == pairs, (mode, n)


def test_walk_chambers_equal_the_chambers_made_from_their_fields():
    # a chamber of the walk builds its signs and witness on first use, so
    # each of ==, hash and repr is tried first on fresh chambers
    for mode, n in (("qn", 4), ("pn", 3)):
        made = [Chamber(c.signs, c.witness) for c in enumerate_chambers(mode, n)]
        checks = (
            lambda c, d: c == d and d == c,
            lambda c, d: hash(c) == hash(d),
            lambda c, d: repr(c) == repr(d),
            lambda c, d: c.mask == d.mask and copy.copy(c) == d,
        )
        for check in checks:
            fresh = enumerate_chambers(mode, n)
            assert len(fresh) == len(made) and all(map(check, fresh, made)), (mode, n)
        assert len({*made, *enumerate_chambers(mode, n)}) == len(made)


def test_chamber_text_reads_no_sign_tuple_and_no_weight(monkeypatch):
    # the qn 6 text comes from the masks and the integer witnesses: no
    # chamber builds its signs or witness, nothing is decoded, every witness
    # is checked on its integers, and the walk builds a sign tuple only for
    # each LP of a flip
    walked = []
    enumerate_ = chambers.enumerate_chambers

    def recorded(mode, n):
        walked.extend(enumerate_(mode, n))
        return walked

    space, signs_of, check = chambers._space, chambers._signs_of, chambers._check_qn
    decoded, tuples, checked = [], [], []

    def counted_space(mode, n):
        *rest, decode = space(mode, n)
        return (*rest, lambda w: decoded.append(w) or decode(w))

    monkeypatch.setattr(chambers, "enumerate_chambers", recorded)
    monkeypatch.setattr(chambers, "_space", counted_space)
    monkeypatch.setattr(chambers, "_signs_of", lambda mask, m: tuples.append(mask) or signs_of(mask, m))
    monkeypatch.setattr(chambers, "_check_qn", lambda den, nums: checked.append(den) or check(den, nums))
    lps = _count_lps(monkeypatch)
    chambers._arrangement.cache_clear()
    try:
        text = serialize.chamber_complex_json("qn", 6, with_adjacency=False)
    finally:
        chambers._arrangement.cache_clear()
    assert hashlib.sha256(text.encode()).hexdigest() == _QN6_DIGEST
    assert len(walked) == len(checked) == 1678 and decoded == []
    assert not any(hasattr(c, "_signs") or hasattr(c, "_witness") for c in walked)
    # 32 LPs: 7 to pin the seed off the walls, the seed region's and 24 flips'
    assert (len(tuples), len(lps)) == (24, 32)


def test_chamber_bound():
    with pytest.raises(TooLargeError):
        enumerate_chambers("qn", 8)


def test_chart_weight_qn_examples():
    w = chart_weight_qn(5, (0, 1, 2))
    assert w.theta == (F(16, 25), F(16, 25), F(16, 25), F(1, 25), F(1, 25))
    assert sum(w.theta) == 2
    assert classify_weight(chart_weight_qn(5, (0, 1, 2))).generic
    w4 = chart_weight_qn(4, (0, 1, 2))
    assert w4.theta[3] == 2 * F(1, 16)


def test_chart_weight_pn_examples():
    w = chart_weight_pn(3, 0)
    assert (w.eta1, w.eta2) == (F(-1, 2), F(-1, 2))
    assert w.theta == (F(8, 9), F(1, 18), F(1, 18))
    assert classify_weight(chart_weight_pn(3, 0)).generic
    assert chart_weight_pn(1, 0).theta == (F(1),)


def test_chart_weights_are_generic():
    # e = 1/n^2 keeps every chart weight off the walls
    for n in range(3, 10):
        for t in itertools.combinations(range(n), 3):
            assert classify_weight(chart_weight_qn(n, t)).generic, (n, t)
    for n in range(1, 10):
        for i in range(n):
            assert classify_weight(chart_weight_pn(n, i)).generic, (n, i)


def test_max_work_reads_a_positive_integer(monkeypatch):
    monkeypatch.delenv("QML_MAX_WORK", raising=False)
    assert max_work() == DEFAULT_WORK_BOUND
    monkeypatch.setenv("QML_MAX_WORK", "12")
    assert max_work() == 12
    for raw in ("abc", "-5", "0", "2.0", " "):
        monkeypatch.setenv("QML_MAX_WORK", raw)
        with pytest.raises(SettingError, match="QML_MAX_WORK"):
            max_work()


def test_weight_map_example():
    w = QnWeight((F(3, 4), F(3, 4), F(1, 4), F(1, 4)))
    p = project_weight_to_pn(w, 0, 1)
    assert (p.eta1, p.eta2) == (F(-1, 2), F(-1, 2))
    assert p.theta == (F(1, 2), F(1, 2))


def test_weight_map_normalization():
    w = QnWeight((F(9, 10), F(7, 10), F(1, 10), F(3, 10)))
    p = project_weight_to_pn(w, 0, 1)
    assert p.eta1 + p.eta2 == -1
    assert sum(p.theta) == 1


def test_weight_map_wall_identification():
    # on the wall bounding the cone the scale factor is 1
    w = QnWeight((F(3, 5), F(2, 5), F(1, 2), F(1, 2)))
    assert w.theta[0] + w.theta[1] == sum(w.theta[2:])
    p = project_weight_to_pn(w, 0, 1)
    assert p.eta1 == w.theta[0] - 1 and p.eta2 == w.theta[1] - 1
    assert p.theta == tuple(w.theta[2:])


def test_weight_map_errors():
    apex = QnWeight((F(1), F(1), F(0), F(0)))
    with pytest.raises(ApexError):
        project_weight_to_pn(apex, 0, 1)
    outside = QnWeight((F(1, 4), F(1, 4), F(3, 4), F(3, 4)))
    with pytest.raises(OutsideConeError):
        project_weight_to_pn(outside, 0, 1)


@given(
    st.integers(min_value=1, max_value=11),
    st.integers(min_value=1, max_value=11),
)
def test_weight_map_fibers_are_segments(mu_num, t_num):
    # moving along the segment toward the apex does not change the image
    base = QnWeight((F(3, 5), F(2, 5), F(1, 2), F(1, 2)))
    mu = F(mu_num, 12)
    apex = (F(1), F(1), F(0), F(0))
    blend = QnWeight(
        tuple(mu * b + (1 - mu) * a for b, a in zip(base.theta, apex))
    )
    assert project_weight_to_pn(blend, 0, 1) == project_weight_to_pn(base, 0, 1)


def test_stability_polytope_vertices_qn():
    p = StabPolytope("qn", 4, partition=((0, 1), (2,), (3,)))
    verts = stability_polytope(p)
    got = {tuple(i for i, v in enumerate(w.theta) if v == 1) for w in verts}
    assert got == {(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)}


def test_stability_polytope_all_singletons_full():
    p = StabPolytope("qn", 4, partition=((0,), (1,), (2,), (3,)))
    assert len(stability_polytope(p)) == 6


def test_stability_polytope_two_classes_is_wall():
    p = StabPolytope("qn", 5, partition=((0, 1), (2, 3, 4)))
    w = wall_relative_interior_point("qn", 5, QnWall(5, (0, 1)))
    assert _contains_by_definition(p, w) == "boundary"


def test_stability_polytope_pn():
    p = StabPolytope("pn", 3, j0=(0,), jinf=(1,))
    verts = stability_polytope(p)
    # vertex with eta=(-1,0) at a j0 index is excluded
    for w in verts:
        if w.eta1 == -1 and w.theta[0] == 1:
            pytest.fail("vertex at the zero anchor class should be excluded")


def test_polytope_contains_examples():
    n = 4
    bary = QnWeight((F(1, 2),) * n)
    full = StabPolytope("qn", n, partition=tuple((i,) for i in range(n)))
    assert _contains_by_definition(full, bary) == "interior"
    p = StabPolytope("qn", n, partition=((0, 1), (2,), (3,)))
    onwall = wall_relative_interior_point("qn", n, QnWall(n, (0, 1)))
    assert _contains_by_definition(p, onwall) == "boundary"
    unstable_side = QnWeight((F(7, 8), F(7, 8), F(1, 8), F(1, 8)))
    assert _contains_by_definition(p, unstable_side) == "outside"


def test_hassett_polytope():
    with pytest.raises(ValueError):
        HassettPolytope((F(1, 2), F(1, 2), F(1, 2)))
    ha = HassettPolytope((F(1),) * 4)
    assert _contains_by_definition(ha, QnWeight((F(1, 2),) * 4)) == "interior"
    hb = HassettPolytope((F(1), F(1), F(1), F(1, 3)))
    assert _contains_by_definition(hb, QnWeight((F(2, 3), F(2, 3), F(1, 3), F(1, 3)))) == "boundary"
    assert _contains_by_definition(hb, QnWeight((F(1, 2), F(1, 2), F(1, 2), F(1, 2)))) == "outside"


def test_cover_check_chart_polytopes():
    # the three boundary charts of a generic 4-point configuration
    polys = [
        StabPolytope("qn", 4, partition=tuple((i,) for i in range(4)))
    ]
    covered, _ = cover_check(polys, "qn", 4)
    assert covered
    # a single wall polytope never covers
    polys = [StabPolytope("qn", 4, partition=((0, 1), (2, 3)))]
    covered, witness = cover_check(polys, "qn", 4)
    assert not covered and witness is not None


def test_cover_check_weighted_target():
    # the single active chart of a configuration with marks 2, 3 merged
    # covers the weighted target but not the whole polytope
    a = (F(1), F(1), F(1, 2), F(1, 2), F(1))
    polys = [StabPolytope("qn", 5, partition=((2, 3), (0,), (1,), (4,)))]
    covered, _ = cover_check(polys, "qn", 5, a)
    assert covered
    covered_all, witness = cover_check(polys, "qn", 5)
    assert not covered_all and witness is not None


def test_cover_check_star_polytopes_with_complementary_blocks():
    # 16 distinct rows, several pairs of which (a block J and its complement)
    # describe the same hyperplane; a walk flipping one row at a time cannot
    # cross such a hyperplane and once reported this family as a cover
    partitions = (
        ((0, 3, 4, 5), (1,), (2,)),
        ((0, 5), (1, 2, 3), (4,)),
        ((0, 1, 4), (2,), (3,), (5,)),
        ((0, 2), (1, 3), (4,), (5,)),
        ((0, 3), (1, 5), (2,), (4,)),
        ((0, 4, 5), (1,), (2,), (3,)),
        ((0, 1), (2, 4, 5), (3,)),
        ((0, 4), (1, 5), (2,), (3,)),
        ((0, 2), (1, 5), (3,), (4,)),
        ((0, 2), (1, 3, 5), (4,)),
        ((0, 3), (1, 5), (2, 4)),
        ((0, 2), (1,), (3, 5), (4,)),
        ((0, 2), (1, 4), (3,), (5,)),
    )
    polys = [StabPolytope("qn", 6, partition=p) for p in partitions]
    covered, witness = cover_check(polys, "qn", 6)
    assert covered is False
    assert all(_contains_by_definition(p, witness) == "outside" for p in polys)
    gap = QnWeight((F(8, 9),) + (F(2, 9),) * 5)
    assert all(_contains_by_definition(p, gap) == "outside" for p in polys)


def _contains_by_definition(p, w):
    """Where w lies relative to p ("interior", "boundary" or "outside"),
    written out from the definitions: pairs (value, bound) that must satisfy
    value <= bound, plus theta > 0 for interiority."""
    if isinstance(p, HassettPolytope):
        pairs = list(zip(w.theta, p.a))
    elif p.mode == "qn":
        # each coincidence block carries total weight at most 1
        pairs = [(sum(w.theta[i] for i in b), 1) for b in p.partition]
    else:
        # the mass at the zero anchor class is at most -eta2, and at the
        # infinity anchor class at most -eta1
        pairs = [
            (sum(w.theta[i] for i in p.j0), -w.eta2),
            (sum(w.theta[i] for i in p.jinf), -w.eta1),
        ]
    if any(v > b for v, b in pairs):
        return "outside"
    if all(v < b for v, b in pairs) and all(t > 0 for t in w.theta):
        return "interior"
    return "boundary"


def _cover_cases():
    rng = random.Random(91)
    cases = []
    for n in (4, 5):
        stars = [StabPolytope("qn", n, partition=tuple(map(tuple, b))) for b in set_partitions(range(n))]
        for _ in range(24):
            polys = rng.sample(stars, rng.randint(1, 4))
            a = None
            if rng.random() < 0.5:
                while a is None or sum(a) <= 2:
                    a = tuple(F(rng.randint(1, 4), 4) for _ in range(n))
            cases.append((polys, "qn", n, a))
    for n in (2, 3):
        stars = [
            StabPolytope("pn", n, j0=j0, jinf=jinf)
            for b in set_partitions(range(n))
            for j0, jinf in pn_decorations(b)
        ]
        for _ in range(16):
            cases.append((rng.sample(stars, rng.randint(1, 4)), "pn", n, None))
    return cases


def test_cover_check_results_are_pinned():
    # verdicts and uncovered witnesses of 80 seeded families, 46 of them
    # uncovered, with and without a Hassett target
    lines = []
    for polys, mode, n, a in _cover_cases():
        covered, w = cover_check(polys, mode, n, a)
        lines.append(f"{covered} {serialize.dumps(serialize.weight_json(w)) if w is not None else None}")
    assert sum(line.startswith("False") for line in lines) == 46
    digest = "1e027ff0ef9a524e179fec6bef72931b22f1530397a51c44751d06ea24de0861"
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest


def _sign_regions(arr):
    """The regions of `_enumerate_regions`, each mask read as its sign
    tuple (bit k set where hyperplane k reads +1)."""
    m = len(arr.hyps)
    return [
        (tuple(1 if mask >> k & 1 else -1 for k in range(m)), x) for mask, x in _enumerate_regions(arr)
    ]


def _full_walk_cover_check(polys, mode, n, a=None):
    """cover_check as a walk of the whole ambient polytope: the member and
    target rows all hyperplanes of one arrangement, and the regions where a
    target row reads +1 dropped afterwards."""
    target = [HassettPolytope(a)] if a is not None else []
    index = {}
    members = [
        [index.setdefault(row, len(index)) for row in _constraints(p)] for p in [*polys, *target]
    ]
    target_rows = members.pop() if target else []
    nvars, eqs, box_rows, decode = _space(mode, n)
    for signs, x in _sign_regions(_Arrangement(nvars, eqs, box_rows, list(index))):
        if any(signs[k] > 0 for k in target_rows):
            continue
        if not any(all(signs[k] < 0 for k in ks) for ks in members):
            return False, decode(x)
    return True, None


def _hassett_cover_cases(seed=13):
    """Chart polytopes of seeded a-stable trees with their Hassett targets,
    each family whole, with each member dropped in turn and with its first
    or second member alone."""
    rng = random.Random(seed)
    cases = []
    for n in (4, 5, 6):
        for _ in range(6):
            a = generate.random_hassett_weight(rng, n)
            fam = curves.moduli_coordinates(generate.random_a_stable_tree(rng, n, a), "hassett", a)
            polys = [
                configs.theta_polytope(configs.QnConfig(tuple(fam.charts[tuple(t)])))
                for t in fam.active_sets()
            ]
            dropped = [polys[:i] + polys[i + 1:] for i in range(len(polys))]
            for members in (polys, polys[:1], polys[1:2], *dropped):
                cases.append((members, "qn", n, a))
    return cases


def test_cover_check_matches_the_full_walk():
    # the walk inside the open target finds the regions of the full walk that
    # lie in the target, with the same witnesses, and so the same answers
    verdicts = Counter()
    for polys, mode, n, a in _cover_cases() + _hassett_cover_cases():
        got = cover_check(polys, mode, n, a)
        assert got == _full_walk_cover_check(polys, mode, n, a), (polys, mode, n, a)
        verdicts[a is not None, got[0]] += 1
    assert min(verdicts.values()) >= 15 and len(verdicts) == 4, verdicts


def test_weighted_cover_check_lp_count_is_pinned(monkeypatch):
    # the walk of the whole hypersimplex took 89 LPs for the same answer
    polys = [
        StabPolytope("qn", 6, partition=((0, 1), (2, 3), (4,), (5,))),
        StabPolytope("qn", 6, partition=((0, 2), (1,), (3, 4), (5,))),
    ]
    a = (F(5, 6), F(1, 4), F(1, 12), F(1), F(1), F(5, 6))
    calls = _count_lps(monkeypatch)
    covered, witness = cover_check(polys, "qn", 6, a)
    assert not covered
    assert _contains_by_definition(HassettPolytope(a), witness) == "interior"
    assert (len(calls), sum(calls)) == (10, 3)


def test_max_work_fires_inside_a_weighted_cover_check(monkeypatch):
    # seven regions lie inside this target, many more in the hypersimplex;
    # only the regions inside the target are stored and counted
    polys = [
        StabPolytope("qn", 6, partition=((0, 1), (2, 3), (4,), (5,))),
        StabPolytope("qn", 6, partition=((0, 2), (1,), (3, 4), (5,))),
        StabPolytope("qn", 6, partition=((1, 5), (0,), (2,), (3,), (4,))),
    ]
    a = (F(1), F(1), F(1, 2), F(1, 2), F(3, 4), F(3, 4))
    monkeypatch.setenv("QML_MAX_WORK", "6")
    with pytest.raises(TooLargeError, match="QML_MAX_WORK"):
        cover_check(polys, "qn", 6, a)
    monkeypatch.setenv("QML_MAX_WORK", "7")
    assert cover_check(polys, "qn", 6, a) == (True, None)
    with pytest.raises(TooLargeError, match="QML_MAX_WORK"):
        _full_walk_cover_check(polys, "qn", 6, a)


def test_cover_check_rejects_sizes_without_an_ambient_polytope():
    for mode, n, message in (
        ("qn", 2, "hypersimplex weights need n >= 3"),
        ("qn", 0, "hypersimplex weights need n >= 3"),
        ("qn", -1, "hypersimplex weights need n >= 3"),
        ("pn", 0, "double-star weights need n >= 1"),
        ("pn", -1, "double-star weights need n >= 1"),
    ):
        with pytest.raises(ValueError, match=message):
            cover_check([], mode, n)
    # the size cap keeps its place after them
    with pytest.raises(TooLargeError):
        cover_check([], "qn", 7)


def _exhaustive_regions(arr):
    out = []
    for signs in itertools.product((1, -1), repeat=len(arr.hyps)):
        x = _region_witness(arr, signs)
        if x is not None:
            out.append((signs, x))
    return sorted(out)


def _signed(row, s):
    """The hyperplane row (coeffs, rhs) on side s: coeffs . x > rhs for s = 1."""
    coeffs, rhs = row
    return row if s > 0 else (tuple(-c for c in coeffs), -rhs)


def _cover_rows(polys):
    rows = []
    for p in polys:
        for row in _constraints(p):
            if row not in rows:
                rows.append(row)
    return rows


def _generic_row(coeffs, rhs, slack):
    """The starting-tableau row built from one constraint as the dense
    reference tableau of tests/test_lp.py builds it: scaled to integers
    through Fraction, its slack entry appended, and negated when the
    right-hand side is negative."""
    fr = [F(v) for v in (*coeffs, rhs)]
    m = lcm(*(f.denominator for f in fr))
    row = [int(f * m) for f in fr]
    row = [*row[:-1], slack, row[-1]]
    return tuple(-v for v in row) if row[-1] < 0 else tuple(row)


def _assert_prepared_rows_are_generic(arr):
    def strict(g, h):
        return _generic_row([*(-v for v in g), 1], -h, 1)

    assert arr.box == tuple(strict(g, h) for g, h in arr.box_rows)
    assert arr.eq == tuple(_generic_row([*g, 0], h, 0) for g, h in arr.eqs)
    for k, row in enumerate(arr.hyps):
        for s in (1, -1):
            assert arr.rows[k][s] == strict(*_signed(row, s)), (k, s)
    for prepared in (*arr.box, *arr.eq, *(r for pair in arr.rows for r in pair[1:])):
        assert type(prepared) is lp.TableauRow and all(type(v) is int for v in prepared)


def test_prepared_rows_match_the_generic_construction():
    for mode, ns in (("qn", (4, 5, 6)), ("pn", (1, 2, 3, 4, 5))):
        for n in ns:
            walls, _, arr = chambers._arrangement(mode, n)
            assert len(arr.rows) == len(walls)
            _assert_prepared_rows_are_generic(arr)
            # the masks of implications add no contrapositive, so the rows
            # that _region_witness drops as dominated are the ones the
            # implications name
            imps = set(_subset_implications(walls, n))
            assert imps == {(j, -sj, i, -si) for i, si, j, sj in imps}
            m = len(walls)
            assert {
                (i, 2 * b - 1, j, sj) for i in range(m) for b in (0, 1)
                for sj, mask in zip((1, -1), arr.implied[i][b]) for j in range(m) if mask >> j & 1
            } == imps
    # cover rows: a Hassett target's rows hold Fractions
    cases = (
        (4, [StabPolytope("qn", 4, partition=((0, 1), (2, 3))),
             HassettPolytope((F(1), F(1, 3), F(2, 3), F(1, 2)))]),
        (5, [StabPolytope("qn", 5, partition=((2, 3), (0, 1, 4))),
             HassettPolytope((F(1), F(1), F(1, 2), F(1, 2), F(3, 4)))]),
        (6, [StabPolytope("qn", 6, partition=((0, 1, 2), (3, 4), (5,))),
             HassettPolytope((F(5, 7), F(1, 3), F(2, 5), F(1), F(1, 2), F(3, 11)))]),
    )
    for n, polys in cases:
        nvars, eqs, box_rows, _ = _space("qn", n)
        rows = _cover_rows(polys)
        assert any(type(rhs) is F for _, rhs in rows)
        _assert_prepared_rows_are_generic(_Arrangement(nvars, eqs, box_rows, rows))


def test_enumerate_regions_matches_exhaustive_reference():
    cases = []
    for mode, n in (("qn", 4), ("qn", 5), ("pn", 3)):
        walls = enumerate_walls(mode, n)
        hyps = [_wall_row(mode, n, w) for w in walls]
        cases.append((mode, n, hyps, _subset_implications(walls, n)))
    cover_sets = (
        ("qn", 4, [StabPolytope("qn", 4, partition=((0, 1), (2, 3)))]),
        ("qn", 4, [
            StabPolytope("qn", 4, partition=((0, 2), (1, 3))),
            StabPolytope("qn", 4, partition=((0, 1), (2,), (3,))),
        ]),
        ("qn", 5, [
            StabPolytope("qn", 5, partition=((0, 1), (2, 3, 4))),
            StabPolytope("qn", 5, partition=((0, 2, 4), (1, 3))),
            StabPolytope("qn", 5, partition=((1, 2), (0,), (3,), (4,))),
        ]),
        ("qn", 5, [
            StabPolytope("qn", 5, partition=((2, 3), (0, 1, 4))),
            HassettPolytope((F(1), F(1), F(1, 2), F(1, 2), F(3, 4))),
        ]),
        ("qn", 4, [HassettPolytope((F(1), F(1, 3), F(2, 3), F(1, 2)))]),
    )
    for mode, n, polys in cover_sets:
        cases.append((mode, n, _cover_rows(polys), ()))
    for mode, n, hyps, imps in cases:
        nvars, eqs, box_rows, _ = _space(mode, n)
        arr = _Arrangement(nvars, eqs, box_rows, hyps, imps)
        # the same regions, in the order of their sign tuples, with the same witnesses
        assert _sign_regions(arr) == _exhaustive_regions(arr), (mode, n, hyps)


_COMPLEX_DIGESTS = {
    ("qn", 3): "64a530f5397e92e6f39cd8038e55a128e087e942d739a958e965dd2717e7a96c",
    ("qn", 4): "c79a8932e5717ad0be8daa7d92692e84ec0b70fe359e276de109c9ccd18719b3",
    ("qn", 5): "db7eea5dd2579e6cadfbfb474ec1f30759a3b72a4c25a9550bd724b1cdc6d11d",
    ("pn", 1): "b20204fcac0c9a1a6cff26f8807197609a57b92330ccc9db4801aa5c72da66d7",
    ("pn", 2): "b1992171d246e726fc55abf9d3fd392c511c71ebe00538ff9bcb8abd355a117b",
    ("pn", 3): "68efb2ae29a0d59350a7dfb146f70094b47b805d2356e1f480fe3fe2b8cb2f88",
    ("pn", 4): "ac613b097c32542000a85b8f537e40f87230d57461427e33c1fcce2bc3d59ebd",
    ("pn", 5): "9e384ba2286c458dede95a21c3e0a16b2f8822b8e1d9a4e3c80c86f604565690",
}
_QN6_DIGEST = "d2dbad04e9d7bb8ac9c924ab044ec950006ab70813167b833681ddee29eddb2a"


def _assert_complex_output_is_pinned():
    for (mode, n), digest in _COMPLEX_DIGESTS.items():
        text = serialize.chamber_complex_json(mode, n)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (mode, n)
    text = serialize.chamber_complex_json("qn", 6, with_adjacency=False)
    assert hashlib.sha256(text.encode()).hexdigest() == _QN6_DIGEST


def test_chamber_complex_output_is_pinned():
    _assert_complex_output_is_pinned()


def test_qn7_chamber_output_is_pinned():
    # the largest size `qml chambers` accepts for the star quiver: 122914
    # chambers in 134 orbits
    text = serialize.chamber_complex_json("qn", 7, with_adjacency=False)
    digest = "7d5ac8b4ab901ff2c43bcdb9dbe6bdb9a3dcf00e05b806b67be5186be81aedec"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_pn6_chamber_output_is_pinned(tmp_path):
    # the largest size `qml chambers` accepts for the double-star quiver:
    # 244156 chambers in 1111 orbits, 53297905 bytes
    out = tmp_path / "pn6.json"
    assert cli.main(["chambers", "--mode", "pn", "--n", "6", "--no-adjacency", "--out", str(out)]) == 0
    text = out.read_bytes()
    digest = "215fa0abec664a5f77fdb3cef36bd2290cd19dbe2ba033b3bac1ab0825081765"
    assert (len(text), hashlib.sha256(text).hexdigest()) == (53297905, digest)


def _plain_arrangement(mode, n):
    """The wall arrangement of `chambers._arrangement` without the group, as
    cover_check builds its arrangements."""
    walls, _, arr = chambers._arrangement(mode, n)
    return _Arrangement(arr.nvars, arr.eqs, arr.box_rows, arr.hyps, _subset_implications(walls, n))


_SIZES = [("qn", n) for n in (3, 4, 5, 6)] + [("pn", n) for n in (1, 2, 3, 4, 5)]


def test_orbit_walk_matches_the_walk_without_generators():
    for mode, n in _SIZES:
        _, _, arr = chambers._arrangement(mode, n)
        assert len(arr.group) == (n - 1 if arr.hyps else 0)
        assert _enumerate_regions(arr) == _enumerate_regions(_plain_arrangement(mode, n)), (mode, n)


def test_moves_permute_masks_as_the_generators_permute_signs():
    # the per-byte tables and flips of each generator against its (src,
    # vsrc) form, on the seed's region and on random sign vectors
    rng = random.Random(31)
    for mode, n in (("qn", 5), ("qn", 7), ("pn", 4), ("pn", 6)):
        walls, _, arr = chambers._arrangement(mode, n)
        m = len(walls)
        assert len(arr.moves) == len(arr.group) == n - 1
        for (src, vsrc), (tables, flips, point_image) in zip(arr.group, arr.moves):
            assert point_image(tuple(range(arr.nvars))) == vsrc
            for _ in range(40):
                signs = tuple(rng.choice((1, -1)) for _ in range(m))
                image = tuple(signs[k] if k < m else -signs[k - m] for k in src)
                mask = sum(1 << k for k, s in enumerate(signs) if s > 0)
                moved = sum(table[v] for table, v in zip(tables, mask.to_bytes(len(tables), "little")))
                assert moved ^ flips == sum(1 << k for k, s in enumerate(image) if s > 0), (mode, n)


def test_uncertified_orbits_get_one_lp_per_member(monkeypatch):
    # a strict_interior_point that never certifies its optimum unique: every
    # orbit member then gets its own LP, and the output is the same
    solve = chambers.strict_interior_point
    feasible = Counter()

    def uncertified(*args, unique=None, **kwargs):
        x = solve(*args, **kwargs)
        feasible[x is not None] += 1
        return x

    monkeypatch.setattr(chambers, "strict_interior_point", uncertified)
    _assert_complex_output_is_pinned()
    feasible.clear()
    assert len(enumerate_chambers("qn", 6)) == 1678
    assert feasible[True] >= 1678


def test_every_orbit_is_certified(monkeypatch):
    # every orbit representative's optimum is a single point, so no orbit
    # member gets an LP of its own
    add = chambers._add_orbit
    certified = Counter()

    def recorded(arr, regions, signs, w, is_certified, cap):
        certified[is_certified] += 1
        add(arr, regions, signs, w, is_certified, cap)

    monkeypatch.setattr(chambers, "_add_orbit", recorded)
    for mode, n, orbits in (("qn", 5, 6), ("qn", 6, 20), ("pn", 3, 8), ("pn", 4, 25), ("pn", 5, 117)):
        certified.clear()
        enumerate_chambers(mode, n)
        assert certified == {True: orbits}, (mode, n, certified)


def _orbit(arr, signs, x):
    """Every image of the region `signs` with integer witness x = (den, nums)
    under arr.group."""
    seen = {signs: x}
    todo = [(signs, x)]
    while todo:
        signs, (den, nums) = todo.pop()
        m = len(signs)
        for src, vsrc in arr.group:
            image = tuple(signs[k] if k < m else -signs[k - m] for k in src)
            y = den, tuple(nums[j] for j in vsrc)
            if image not in seen:
                seen[image] = y
                todo.append((image, y))
    return seen


def test_certified_witnesses_are_the_permuted_witnesses():
    for mode, n, orbits in (("qn", 5, 6), ("pn", 4, 25)):
        _, _, arr = chambers._arrangement(mode, n)
        direct = dict(_sign_regions(_plain_arrangement(mode, n)))
        certified = 0
        for signs, x in direct.items():
            unique = []
            assert _region_witness(arr, signs, unique=unique) == x
            if unique != [True]:
                continue
            certified += 1
            for image, y in _orbit(arr, signs, x).items():
                assert direct[image] == y, (mode, n, signs, image)
        assert certified > len(direct) // 2, (mode, n)
        # the orbits partition the chambers
        found = []
        rest = dict(direct)
        while rest:
            signs, x = next(iter(rest.items()))
            orbit = _orbit(arr, signs, x)
            assert orbit.keys() <= rest.keys()
            for image in orbit:
                del rest[image]
            found.append(len(orbit))
        assert len(found) == orbits, (mode, n, found)


def test_max_work_fires_inside_an_orbit(monkeypatch, capsys):
    # the qn 5 walk stores the central chamber, an orbit of one, and then an
    # orbit of ten; a cap of five is passed in the middle of that orbit
    add = chambers._add_orbit
    stored = []

    def recorded(arr, regions, *args):
        stored.append(regions)
        add(arr, regions, *args)

    monkeypatch.setattr(chambers, "_add_orbit", recorded)
    monkeypatch.setenv("QML_MAX_WORK", "5")
    with pytest.raises(TooLargeError, match="QML_MAX_WORK"):
        enumerate_chambers("qn", 5)
    assert len(stored) == 2 and len(stored[-1]) == 6
    assert cli.main(["chambers", "--mode", "qn", "--n", "5"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "QML_MAX_WORK" in err


def _count_lps(monkeypatch):
    """The calls to chambers.strict_interior_point, which the benchmark
    tracer wraps, as a list of 'region empty' flags."""
    solve = chambers.strict_interior_point
    calls = []

    def counted(*args, **kwargs):
        x = solve(*args, **kwargs)
        calls.append(x is None)
        return x

    monkeypatch.setattr(chambers, "strict_interior_point", counted)
    return calls


def test_learnt_cores_skip_empty_flips(monkeypatch):
    # each empty flip teaches a core, and a later flip that matches a
    # stored core is skipped without an LP; the walk without generators is
    # the one cover_check runs
    calls = _count_lps(monkeypatch)
    for mode, n, total, empty in (("qn", 6, 1715, 30), ("pn", 4, 161, 6)):
        calls.clear()
        _enumerate_regions(_plain_arrangement(mode, n))
        assert (len(calls), sum(calls)) == (total, empty), (mode, n)


def test_orbit_walk_lp_counts_are_pinned(monkeypatch):
    # one LP per orbit, plus the seed's and the empty flips'
    calls = _count_lps(monkeypatch)
    for mode, n, total, empty in (("qn", 6, 32, 5), ("pn", 4, 36, 4), ("pn", 5, 189, 63)):
        calls.clear()
        enumerate_chambers(mode, n)
        assert (len(calls), sum(calls)) == (total, empty), (mode, n)


def _count_pivots(monkeypatch):
    # every pivot of the exact simplex, and the unit steps among them
    # (pivot element equal to den), which update only the pivot row's
    # nonzero columns
    pivot = lp._Tableau.pivot
    counts = Counter()

    def counted(self, r, s):
        counts["all"] += 1
        counts["unit"] += self.rows[r][s] == self.den
        pivot(self, r, s)

    monkeypatch.setattr(lp._Tableau, "pivot", counted)
    return counts


def test_pivot_counts_are_pinned(monkeypatch):
    counts = _count_pivots(monkeypatch)
    for mode, n, total, unit in (("qn", 6, 18871, 15867), ("pn", 4, 1322, 975)):
        counts.clear()
        _enumerate_regions(_plain_arrangement(mode, n))
        assert (counts["all"], counts["unit"]) == (total, unit), (mode, n)


def test_orbit_walk_pivot_counts_are_pinned(monkeypatch):
    counts = _count_pivots(monkeypatch)
    # the face test adds pivots only on feasible LPs with a zero reduced
    # cost, none at pn 4 and pn 5
    for mode, n, total, unit in (("qn", 6, 367, 300), ("pn", 4, 283, 216), ("pn", 5, 1800, 1314)):
        counts.clear()
        enumerate_chambers(mode, n)
        assert (counts["all"], counts["unit"]) == (total, unit), (mode, n)


def test_region_witness_core_is_empty_on_its_own():
    mode, n = "pn", 4
    walls = enumerate_walls(mode, n)
    nvars, eqs, box_rows, _ = _space(mode, n)
    hyps = [_wall_row(mode, n, w) for w in walls]
    arr = _Arrangement(nvars, eqs, box_rows, hyps, _subset_implications(walls, n))
    seen = 0
    for signs in itertools.islice(itertools.product((1, -1), repeat=len(hyps)), 0, None, 97):
        core = []
        if _region_witness(arr, signs, core=core) is not None:
            assert core == []
            continue
        seen += 1
        assert core and all(signs[k] == s for k, s in core)
        # the core's rows as (coeffs, rhs) pairs, not the prepared rows
        rows = [_signed(hyps[k], s) for k, s in core]
        assert chambers.strict_interior_point(nvars, [*box_rows, *rows], eqs) is None
    assert seen > 100


def test_enumerate_walls_rejects_sizes_without_interior():
    for mode, n in (("qn", 2), ("qn", -1), ("pn", 0)):
        with pytest.raises(ValueError):
            enumerate_walls(mode, n)


# The weighted trees of the hassett-cover benchmark workload
# (qmlbench/workloads.py): (n, weights, splits, coincidence clusters).
_HASSETT_SHAPES = (
    (4, ("1", "1", "1/3", "1/2"), (), ((2, 3),)),
    (4, ("3/4", "1", "1/2", "1"), ((0, 1),), ()),
    (4, ("5/6", "7/12", "1", "3/4"), ((0, 3),), ()),
    (5, ("1", "5/6", "1/6", "1", "1"), ((0, 2, 4),), ()),
    (5, ("1", "1", "1/2", "1/4", "1/4"), (), ((3, 4),)),
    (5, ("5/6", "2/3", "1", "1", "1/6"), ((0, 1, 2), (0, 3, 4)), ()),
    (6, ("1", "2/3", "1", "5/12", "1", "5/6"), ((0, 4),), ()),
    (6, ("5/6", "1/4", "1/12", "1", "1", "5/6"), ((0, 2, 5),), ((2, 5),)),
)


def _row_value(row, x) -> F:
    coeffs, rhs = row
    return sum(c * xi for c, xi in zip(coeffs, x)) - rhs


def _fraction_seed(arr):
    """`chambers._generic_seed` with every row value a Fraction."""
    pinned = []
    x = chambers.strict_interior_point(arr.nvars, arr.box, arr.eq)
    if x is None:
        return None
    while True:
        zero_at = next((k for k, row in enumerate(arr.hyps) if _row_value(row, x) == 0), None)
        if zero_at is None:
            return x
        for s in (1, -1):
            trial = pinned + [(zero_at, s)]
            rows = [*arr.box, *(arr.rows[k][sk] for k, sk in trial)]
            x2 = chambers.strict_interior_point(arr.nvars, rows, arr.eq)
            if x2 is not None:
                pinned, x = trial, x2
                break
        else:
            raise AssertionError("no side of the hyperplane is open")


def _fraction_classes(eqs, hyps):
    """`chambers._hyperplane_classes` by Fraction elimination, each reduced
    row scaled so that its first nonzero entry is 1."""
    basis = []

    def reduce(v):
        for p, b in basis:
            if v[p]:
                f = v[p]
                v = [a - f * c for a, c in zip(v, b)]
        return v

    for coeffs, rhs in eqs:
        v = reduce([F(c) for c in coeffs] + [-F(rhs)])
        p = next((k for k, a in enumerate(v) if a), None)
        if p is not None:
            basis.append((p, [a / v[p] for a in v]))
    classes = {}
    for k, (coeffs, rhs) in enumerate(hyps):
        v = reduce([F(c) for c in coeffs] + [-F(rhs)])
        key = tuple(a / next(a for a in v if a) for a in v) if any(v[:-1]) else k
        classes.setdefault(key, []).append(k)
    return list(classes.values())


def _integer_helper_arrangements(monkeypatch):
    """The wall arrangements of qn 3-6 and pn 1-4, those of
    `wall_relative_interior_point` at qn 4, qn 5 and pn 3, and every
    arrangement `cover_check` walks for the Hassett families of
    _HASSETT_SHAPES (whole, and with each member dropped), with their
    full-walk forms, where the targets' rational rows are hyperplanes."""
    arrs = [_plain_arrangement(mode, n) for mode, n in _SIZES if (mode, n) != ("pn", 5)]
    for mode, n in (("qn", 4), ("qn", 5), ("pn", 3)):
        walls, _, arr = chambers._arrangement(mode, n)
        for wall in walls:
            rest = [row for w, row in zip(walls, arr.hyps) if w != wall]
            eqs = (*arr.eqs, _wall_row(mode, n, wall))
            arrs.append(_Arrangement(arr.nvars, eqs, arr.box_rows, rest))
    walked = []
    walk = chambers._enumerate_regions

    def spy(arr):
        walked.append(arr)
        return walk(arr)

    monkeypatch.setattr(chambers, "_enumerate_regions", spy)
    for n, a, splits, clusters in _HASSETT_SHAPES:
        a = tuple(F(v) for v in a)
        tree = generate.tree_from_splits(n, splits, clusters=clusters)
        fam = curves.moduli_coordinates(tree, "hassett", a)
        polys = [
            configs.theta_polytope(configs.QnConfig(tuple(fam.charts[t]))) for t in fam.active_sets()
        ]
        for members in (polys, *(polys[:i] + polys[i + 1:] for i in range(len(polys)))):
            cover_check(members, "qn", n, a)
            nvars, eqs, box_rows, _ = _space("qn", n)
            rows = list(dict.fromkeys(row for p in (*members, HassettPolytope(a)) for row in _constraints(p)))
            arrs.append(_Arrangement(nvars, eqs, box_rows, rows))
    monkeypatch.undo()
    return arrs + walked


def test_integer_seed_and_classes_match_the_fraction_reference(monkeypatch):
    arrs = _integer_helper_arrangements(monkeypatch)
    merged = pinned = 0
    for arr in arrs:
        seed = chambers._generic_seed(arr)
        assert seed == _fraction_seed(arr)
        x = chambers.strict_interior_point(arr.nvars, arr.box, arr.eq)
        for point in (seed, x):
            if point is not None:
                values = [_row_value(row, point) for row in arr.hyps]
                assert chambers._row_signs(arr.hyps, point) == tuple((v > 0) - (v < 0) for v in values)
        pinned += seed != x
        classes = chambers._hyperplane_classes(arr.eqs, arr.hyps)
        assert classes == _fraction_classes(arr.eqs, arr.hyps)
        merged += sum(len(c) > 1 for c in classes)
    # 189 arrangements, 59 seeds pinned off a hyperplane, and 162 classes of
    # two or more rows
    assert len(arrs) > 150 and pinned > 20 and merged > 100, (len(arrs), pinned, merged)


@st.composite
def _rows_and_copies(draw):
    """Equality rows and hyperplane rows over a few variables, with rows that
    are multiples of others, or differ from them by a combination of the
    equality rows."""
    nvars = draw(st.integers(2, 5))
    entry = st.integers(-3, 3)
    row = st.tuples(st.tuples(*[entry] * nvars), entry)
    eqs = draw(st.lists(row, max_size=2))
    hyps = draw(st.lists(row, min_size=1, max_size=6))
    for _ in range(draw(st.integers(0, 6))):
        coeffs, rhs = hyps[draw(st.integers(0, len(hyps) - 1))]
        s = draw(st.sampled_from([-2, -1, 1, 3]))
        coeffs, rhs = [s * c for c in coeffs], s * rhs
        for e, h in eqs:
            t = draw(st.integers(-2, 2))
            coeffs, rhs = [c + t * d for c, d in zip(coeffs, e)], rhs + t * h
        hyps.append((tuple(coeffs), rhs))
    return eqs, hyps


@settings(max_examples=400, deadline=None)
@given(_rows_and_copies())
def test_integer_classes_match_the_fraction_reference_on_any_rows(rows):
    eqs, hyps = rows
    assert chambers._hyperplane_classes(eqs, hyps) == _fraction_classes(eqs, hyps)
