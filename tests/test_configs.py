import copy
import dataclasses
import itertools
import pickle
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from quivermoduli import serialize
from quivermoduli.chambers import PnWeight, QnWeight, enumerate_chambers
from quivermoduli.configs import (
    DegeneratePairError,
    EquationsFailError,
    GluedFiber,
    IRREDUCIBLE,
    PnConfig,
    QnConfig,
    STABLE,
    STRICTLY_SEMISTABLE,
    TWO_COMPONENTS,
    UNSTABLE,
    ZeroSectionError,
    brute_force_semistable,
    check_limit_equations,
    coincidence_partition,
    glue_fiber,
    is_semistable,
    map_config_qn2_pn,
    moebius_equivalent,
    normalize_chart_pn,
    normalize_chart_qn,
    theta_polytope,
)
from quivermoduli.curves import GK, moduli_coordinates
from quivermoduli.generate import (
    random_gk_tree,
    random_points,
    random_vertex_cone_weight,
    set_partitions,
)
from quivermoduli.projline import (
    INF_POINT,
    Moebius,
    ONE_POINT,
    ProjPoint,
    ZERO_POINT,
    affine,
    cross_ratio,
    idet,
    moebius_from_triple,
    moebius_two_point,
    pp_eq,
)

HALF = F(1, 2)
W4 = QnWeight((HALF,) * 4)


def qn(*vals):
    secs = []
    for v in vals:
        if v is None:
            secs.append(None)
        elif v == "inf":
            secs.append(INF_POINT)
        else:
            secs.append(affine(F(v)))
    return QnConfig(tuple(secs))


def test_coincidence_partition():
    cfg = qn(1, 1, 2, 3)
    part = coincidence_partition(cfg)
    assert part.blocks == ((0, 1), (2,), (3,))
    with pytest.raises(ZeroSectionError):
        coincidence_partition(qn(1, None, 2, 3))


def test_coincidence_partition_pn_anchors():
    cfg = PnConfig((ZERO_POINT, affine(2), INF_POINT))
    part = coincidence_partition(cfg)
    assert part.j0 == (0,) and part.jinf == (2,)


def test_is_semistable_examples():
    assert is_semistable(qn(1, 2, 3, 4), W4).kind == STABLE
    v = is_semistable(qn(1, 1, 3, 4), W4)
    assert v.kind == STRICTLY_SEMISTABLE and v.witness == frozenset({0, 1})
    v = is_semistable(qn(1, 1, 1, 4), W4)
    assert v.kind == UNSTABLE and v.witness == frozenset({0, 1, 2})
    assert is_semistable(qn(None, 2, 3, 4), W4).kind == UNSTABLE


def test_pn_semistable_example():
    w = PnWeight(F(-3, 4), F(-1, 4), (HALF, F(1, 4), F(1, 4)))
    cfg = PnConfig((ZERO_POINT, affine(1), affine(2)))
    assert is_semistable(cfg, w).kind == UNSTABLE
    assert brute_force_semistable(cfg, w).kind == UNSTABLE


def test_whole_representation_never_destabilizes():
    # the total space always has weight zero, so a generic configuration at
    # an interior weight is stable
    assert brute_force_semistable(qn(0, 1, 2, "inf"), W4).kind == STABLE


def test_boundary_weight_is_never_stable():
    w = QnWeight((F(0), F(2, 3), F(2, 3), F(2, 3)))
    for cfg in (qn(1, 2, 3, 4), qn(0, 5, 7, "inf")):
        assert is_semistable(cfg, w).kind == STRICTLY_SEMISTABLE
        assert brute_force_semistable(cfg, w).kind == STRICTLY_SEMISTABLE


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_oracle_agreement_random(seed):
    rng = random.Random(seed)
    n = rng.choice([3, 4, 5])
    mode = rng.choice(["qn", "pn"])
    pts = random_points(rng, 3)
    secs = tuple(
        None if rng.random() < 0.1 else rng.choice(pts) for _ in range(n)
    )
    if mode == "qn":
        cfg = QnConfig(secs)
        while True:
            raw = [F(rng.randint(0, 5)) for _ in range(n)]
            if sum(raw) == 0:
                continue
            th = [2 * v / sum(raw) for v in raw]
            if all(v <= 1 for v in th):
                break
        w = QnWeight(tuple(th))
    else:
        cfg = PnConfig(secs)
        while True:
            raw = [F(rng.randint(0, 5)) for _ in range(n)]
            if sum(raw) != 0:
                break
        e1 = -F(rng.randint(0, 6), 6)
        w = PnWeight(e1, -1 - e1, tuple(v / sum(raw) for v in raw))
    assert is_semistable(cfg, w).kind == brute_force_semistable(cfg, w).kind


def test_git_class_invariance_qn4():
    # the verdict is a function of the chamber sign vector
    chambers4 = enumerate_chambers("qn", 4)
    for part in set_partitions(range(4)):
        pts = random_points(random.Random(7), len(part))
        secs = [None] * 4
        for bi, block in enumerate(part):
            for i in block:
                secs[i] = pts[bi]
        cfg = QnConfig(tuple(secs))
        by_signs = {}
        for ch in chambers4:
            kind = is_semistable(cfg, ch.witness).kind
            assert by_signs.setdefault(ch.signs, kind) == kind


def test_theta_polytope_delegates():
    p = theta_polytope(qn(1, 1, 2, 3))
    assert p.partition == ((0, 1), (2,), (3,))
    pp = theta_polytope(PnConfig((ZERO_POINT, affine(3))))
    assert pp.j0 == (0,) and pp.jinf == ()


def test_normalize_chart_qn():
    cfg = qn(0, "inf", 1, 7)
    assert normalize_chart_qn(cfg, (0, 1, 2)) == cfg
    out = normalize_chart_qn(cfg, (1, 2, 3))
    assert out.sections[1] == ZERO_POINT
    assert out.sections[2] == INF_POINT
    assert out.sections[3] == ONE_POINT
    # the moved fourth section is the cross-ratio of the originals
    assert out.sections[0] == cross_ratio(
        cfg.sections[1], cfg.sections[2], cfg.sections[3], cfg.sections[0]
    )


def test_normalize_chart_pn():
    cfg = PnConfig((affine(2), affine(3), INF_POINT))
    out = normalize_chart_pn(cfg, 0)
    assert out.sections[0] == ONE_POINT
    assert out.sections[2] == INF_POINT
    assert out.sections[1] == affine(F(3, 2))
    with pytest.raises(Exception):
        normalize_chart_pn(PnConfig((ZERO_POINT, affine(1))), 0)


def test_check_limit_equations_identity_and_diagonal():
    cfg = qn(0, "inf", 1, 7)
    assert check_limit_equations(cfg, cfg, 0, 1)
    diag = Moebius(F(3), F(0), F(0), F(1))
    moved = QnConfig(tuple(diag.apply(s) for s in cfg.sections))
    assert check_limit_equations(cfg, moved, 0, 1)


def test_check_limit_equations_symmetry_and_moebius_invariance():
    rng = random.Random(5)
    a = QnConfig(tuple(random_points(rng, 5)))
    b = QnConfig(tuple(a.sections))
    m = Moebius(F(1), F(2), F(1), F(3))
    a2 = QnConfig(tuple(m.apply(s) for s in a.sections))
    b2 = QnConfig(tuple(m.apply(s) for s in b.sections))
    for i, j in itertools.combinations(range(5), 2):
        r = check_limit_equations(a, b, i, j)
        assert check_limit_equations(b, a, i, j) == r
        assert check_limit_equations(a2, b2, i, j) == r


def test_check_limit_equations_wall_pair():
    # two charts across a wall: one merges marks 2 and 3, the other 0 and 1
    a = qn(0, "inf", 1, 1)
    b = qn(0, 0, "inf", 1)
    assert check_limit_equations(a, b, 0, 2)
    bad = qn(0, 0, "inf", 2)
    changed = QnConfig((b.sections[0], affine(9), b.sections[2], b.sections[3]))
    assert not check_limit_equations(a, changed, 0, 2)


def test_check_limit_equations_degenerate_pair():
    a = qn(0, 0, 1, 2)
    with pytest.raises(DegeneratePairError):
        check_limit_equations(a, a, 0, 1)


def test_glue_fiber_irreducible_identity():
    cfg = qn(0, "inf", 1, 7)
    fiber = glue_fiber(cfg, cfg, 0, 1)
    assert fiber.kind == IRREDUCIBLE
    assert fiber.moebius == Moebius(1, 0, 0, 1)


def test_glue_fiber_two_components():
    a = qn(0, "inf", 1, 1)
    b = qn(0, 0, "inf", 1)
    fiber = glue_fiber(a, b, 0, 2)
    assert fiber.kind == TWO_COMPONENTS
    assert fiber.marks_on_a == frozenset({0, 1})
    assert fiber.marks_on_b == frozenset({2, 3})
    # the collapse points: in chart a everything beyond sits at the merged
    # point, in chart b at the merged point of the other side
    assert pp_eq(fiber.node_a, a.sections[2])
    assert pp_eq(fiber.node_b, b.sections[0])


def test_map_config_qn2_pn():
    cfg = qn("inf", 0, 1, 2)
    out = map_config_qn2_pn(cfg, 0, 1)
    assert out.n == 2
    # anchors already in place: a drop-only operation
    assert out.sections == cfg.sections[2:]
    with pytest.raises(DegeneratePairError):
        map_config_qn2_pn(qn(1, 1, 2, 3), 0, 1)
    with pytest.raises(DegeneratePairError):
        map_config_qn2_pn(qn(None, 1, 2, 3), 0, 1)


def test_map_config_stability_transfer():
    rng = random.Random(11)
    for _ in range(200):
        n2 = rng.randint(3, 6)
        a, b = rng.sample(range(n2), 2)
        pts = random_points(rng, max(2, n2 - 1))
        secs = tuple(rng.choice(pts) for _ in range(n2))
        cfg = QnConfig(secs)
        w = random_vertex_cone_weight(rng, n2, a, b)
        vq = is_semistable(cfg, w)
        if secs[a] == secs[b]:
            assert vq.kind == UNSTABLE
            continue
        from quivermoduli.chambers import project_weight_to_pn

        vp = is_semistable(map_config_qn2_pn(cfg, a, b), project_weight_to_pn(w, a, b))
        assert vq.kind == vp.kind


def test_moebius_equivalent():
    a = qn(0, "inf", 1, 7)
    m = Moebius(F(2), F(1), F(1), F(1))
    b = QnConfig(tuple(m.apply(s) for s in a.sections))
    assert moebius_equivalent(a, b)
    c = qn(0, "inf", 1, 8)
    assert not moebius_equivalent(a, c)
    # different partitions are never equivalent
    assert not moebius_equivalent(qn(0, 0, 1, 2), qn(0, 1, 1, 2))


def test_moebius_equivalent_rejects_double_star_input():
    # no torus rescaling maps one of these onto the other
    a = PnConfig((affine(1), affine(2), affine(3)))
    b = PnConfig((affine(5), affine(7), affine(9)))
    for x, y in ((a, b), (a, a), (qn(1, 2, 3), a), (a, qn(1, 2, 3))):
        with pytest.raises(ValueError, match="star-quiver"):
            moebius_equivalent(x, y)


@pytest.mark.parametrize("i, j", [(-1, 0), (0, -1), (-4, 1), (0, 4), (5, 1)])
def test_anchor_indices_out_of_range(i, j):
    a = qn(0, "inf", 1, 7)
    b = qn(0, 1, "inf", 7)
    for call in (
        lambda: check_limit_equations(a, b, i, j),
        lambda: glue_fiber(a, a, i, j),
    ):
        with pytest.raises(ValueError, match="range") as info:
            call()
        assert type(info.value) is ValueError


def _raised(call):
    try:
        call()
    except Exception as exc:  # the type is the result under test
        return type(exc)
    return None


def test_limit_equation_errors_keep_their_order():
    good = qn(0, "inf", 1, 7)
    zero = qn(0, None, 1, 7)
    degen = qn(0, 0, 1, 7)  # anchors (0, 1) coincide
    cases = [
        # mode and size come first
        ((zero, qn(0, "inf", 1), 0, 1), ValueError),
        ((zero, PnConfig(good.sections), 0, 1), ValueError),
        # then a: zero section, missing or equal anchors, degenerate pair
        ((zero, zero, 0, 0), ZeroSectionError),
        ((good, zero, 0, 0), ValueError),
        ((good, zero, None, 1), ValueError),
        ((degen, zero, 0, 1), DegeneratePairError),
        # then b
        ((good, zero, 0, 1), ZeroSectionError),
        ((good, degen, 0, 1), DegeneratePairError),
    ]
    for args, expected in cases:
        for fn in (check_limit_equations, glue_fiber):
            got = _raised(lambda: fn(*args))
            assert got is expected, (fn.__name__, args, got)
    pn_zero = PnConfig((affine(2), None))
    pn_good = PnConfig((affine(2), affine(3)))
    assert _raised(lambda: check_limit_equations(pn_zero, pn_good, 0, 1)) is ZeroSectionError
    assert _raised(lambda: check_limit_equations(pn_good, pn_zero, 0, 1)) is ValueError
    assert _raised(lambda: check_limit_equations(pn_good, pn_zero)) is ZeroSectionError


def test_determinant_table_is_invisible():
    cfg = qn(0, "inf", 1, 7, 7, F(-2, 3))
    twin = qn(0, "inf", 1, 7, 7, F(-2, 3))

    def looks():
        return (cfg == twin, hash(cfg), repr(cfg), serialize.dumps(serialize.config_json(cfg)))

    before = looks()
    copies = [copy.copy(cfg), pickle.loads(pickle.dumps(cfg))]
    table = cfg.dets
    assert cfg.dets is table
    pts = [s.ihom for s in cfg.sections]
    assert table == tuple(tuple(idet(p, q) for q in pts) for p in pts)
    assert looks() == before == (True, hash(twin), repr(twin), before[3])
    copies += [copy.copy(cfg), pickle.loads(pickle.dumps(cfg))]
    for c in copies:
        assert (c == cfg, hash(c), repr(c)) == (True, hash(cfg), repr(cfg))
        assert c.dets == table
    assert [f.name for f in dataclasses.fields(QnConfig)] == ["sections"]
    zero = qn(0, None, 1)
    for _ in range(2):  # a failed build is not cached
        with pytest.raises(ZeroSectionError):
            zero.dets


# Reference for the cross-chart tests: both charts normalized by Moebius
# maps from projline, on the Fraction coordinates of each section.


def _image(m, p):
    return (m.m00 * p.c0 + m.m01 * p.c1, m.m10 * p.c0 + m.m11 * p.c1)


def _ref_equations(a, b, i, j):
    fa = moebius_two_point(a.sections[i], a.sections[j])
    fb = moebius_two_point(b.sections[i], b.sections[j])
    ratio = None
    for sa, sb in zip(a.sections, b.sections):
        (u0, u1), (v0, v1) = _image(fa, sa), _image(fb, sb)
        p, q = u0 * v1, u1 * v0
        if p == 0 and q == 0:
            continue
        if ratio is None:
            ratio = (p, q)
        elif p * ratio[1] != q * ratio[0]:
            return False
    return True


def _ref_glue(a, b, i, j):
    if not _ref_equations(a, b, i, j):
        raise EquationsFailError
    fa = moebius_two_point(a.sections[i], a.sections[j])
    fb = moebius_two_point(b.sections[i], b.sections[j])
    u = [_image(fa, s) for s in a.sections]
    v = [_image(fb, s) for s in b.sections]
    n = a.n
    common = [k for k in range(n) if 0 not in u[k] and 0 not in v[k]]
    if common:
        (u0, u1), (v0, v1) = u[common[0]], v[common[0]]
        m = fb.inverse().compose(Moebius(v0 * u1, 0, 0, v1 * u0)).compose(fa)
        if any(m.apply(sa) != sb for sa, sb in zip(a.sections, b.sections)):
            raise EquationsFailError
        return GluedFiber(IRREDUCIBLE, moebius=m)
    offs_a = [k for k in range(n) if 0 not in u[k]]
    offs_b = [k for k in range(n) if 0 not in v[k]]
    if not offs_a or not offs_b:
        raise EquationsFailError
    corners_b = {ProjPoint(*v[k]) for k in offs_a}
    corners_a = {ProjPoint(*u[k]) for k in offs_b}
    if len(corners_a) != 1 or len(corners_b) != 1 or corners_a == corners_b:
        raise EquationsFailError
    (corner_a,), (corner_b,) = corners_a, corners_b
    return GluedFiber(
        TWO_COMPONENTS,
        marks_on_a=frozenset(k for k in range(n) if ProjPoint(*v[k]) == corner_b),
        marks_on_b=frozenset(k for k in range(n) if ProjPoint(*u[k]) == corner_a),
        node_a=fa.inverse().apply(corner_a),
        node_b=fb.inverse().apply(corner_b),
    )


def _ref_equivalent(a, b):
    blocks = coincidence_partition(a).blocks
    if blocks != coincidence_partition(b).blocks:
        return False
    if len(blocks) <= 2:
        return True
    reps = [block[0] for block in blocks[:3]]
    ma = moebius_from_triple(*(a.sections[k] for k in reps))
    mb = moebius_from_triple(*(b.sections[k] for k in reps))
    return all(
        x0 * y1 == x1 * y0
        for (x0, x1), (y0, y1) in zip(
            (_image(ma, s) for s in a.sections), (_image(mb, s) for s in b.sections)
        )
    )


def _outcome(call):
    try:
        return call()
    except EquationsFailError:
        return EquationsFailError


def _cross_chart_pairs(rng):
    """Seeded Qn pairs: random draws from a small pool (coincident marks and
    sections on the anchors), Moebius-moved copies, moved copies with one
    section changed, and chart pairs of GK-stable trees (wall pairs)."""
    pool = [INF_POINT, ZERO_POINT, ONE_POINT, affine(-1), affine(2), affine(F(1, 2)), affine(F(-3, 2))]
    pairs = []
    while len(pairs) < 600:
        kind = len(pairs) % 4
        if kind == 3:
            fam = moduli_coordinates(random_gk_tree(rng, rng.randint(4, 6)), GK)
            cfgs = [QnConfig(tuple(fam.charts[t])) for t in fam.active_sets()]
            pairs.append(tuple(rng.sample(cfgs, 2)))
            continue
        n = rng.randint(3, 6)
        a = QnConfig(tuple(rng.choice(pool) for _ in range(n)))
        if kind == 0:
            b = QnConfig(tuple(rng.choice(pool) for _ in range(n)))
        else:
            while True:
                e = [rng.randint(-3, 3) for _ in range(4)]
                if e[0] * e[3] != e[1] * e[2]:
                    break
            m = Moebius(*e)
            secs = [m.apply(s) for s in a.sections]
            if kind == 2:
                secs[rng.randrange(n)] = rng.choice(pool)
            b = QnConfig(tuple(secs))
        pairs.append((a, b))
    return pairs


def test_cross_chart_tests_match_the_normalizing_reference():
    seen = {"equations": [0, 0], "kinds": {}, "equivalent": [0, 0]}
    for a, b in _cross_chart_pairs(random.Random(1212)):
        eq = moebius_equivalent(a, b)
        assert eq == _ref_equivalent(a, b), (a, b)
        seen["equivalent"][eq] += 1
        for i, j in itertools.combinations(range(a.n), 2):
            for x, y in ((i, j), (j, i)):
                if a.sections[x] == a.sections[y] or b.sections[x] == b.sections[y]:
                    continue
                holds = check_limit_equations(a, b, x, y)
                assert holds == _ref_equations(a, b, x, y), (a, b, x, y)
                seen["equations"][holds] += 1
                fiber = _outcome(lambda: glue_fiber(a, b, x, y))
                assert fiber == _outcome(lambda: _ref_glue(a, b, x, y)), (a, b, x, y)
                kind = getattr(fiber, "kind", fiber)
                seen["kinds"][kind] = seen["kinds"].get(kind, 0) + 1
    # every branch is exercised many times
    assert min(seen["equations"]) > 500 and min(seen["equivalent"]) > 100, seen
    assert len(seen["kinds"]) == 3 and min(seen["kinds"].values()) > 100, seen
