import copy
import hashlib
import itertools
import json
import pickle
import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from quivermoduli import configs as configs_module, serialize, verify
from quivermoduli.chambers import (
    PN,
    QN,
    PnWeight,
    QnWeight,
    enumerate_chambers,
    enumerate_walls,
    wall_relative_interior_point,
)
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
    normalize_chart_qn,
    theta_polytope,
)
from quivermoduli.curves import GK, lm_moduli_coordinates, moduli_coordinates
from quivermoduli.generate import (
    random_chain,
    random_gk_tree,
    random_points,
    random_vertex_cone_weight,
    set_partitions,
)
from quivermoduli.projline import (
    INF_POINT,
    DegenerateTripleError,
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


def _kernel_corpus():
    """Every set-partition configuration against every chamber witness and
    wall point (qn n = 3, 4; pn n = 1..3), then seeded random pairs with
    zero sections at n = 5, 6 for both quivers."""
    def weights(mode, n):
        ws = [c.witness for c in enumerate_chambers(mode, n)]
        return ws + [wall_relative_interior_point(mode, n, w) for w in enumerate_walls(mode, n)]

    for n in (3, 4):
        ws = weights(QN, n)
        for _, cfg in verify._qn_partition_configs(n):
            for w in ws:
                yield cfg, w
    for n in (1, 2, 3):
        ws = weights(PN, n)
        for *_, cfg in verify._pn_partition_configs(n):
            for w in ws:
                yield cfg, w
    rng = random.Random(2024)
    for mode in (QN, PN):
        for n in (5, 6):
            for _ in range(500):
                yield verify._random_config(rng, mode, n), verify._random_weight(rng, mode, n)


def test_kernel_verdicts_and_witnesses_are_pinned():
    # the other stability tests compare kinds only; this pins every witness
    # of both kernels, serialized as `qml stability --oracle` prints them
    digest = hashlib.sha256()
    tags = set()
    count = 0
    for cfg, w in _kernel_corpus():
        count += 1
        for name, kernel in (("fast", is_semistable), ("oracle", brute_force_semistable)):
            v = kernel(cfg, w)
            digest.update(json.dumps([name, serialize.verdict_json(v)]).encode() + b"\n")
            tag = v.witness[0] if isinstance(v.witness, tuple) else type(v.witness).__name__
            tags.add((type(cfg).__name__, name, v.kind, tag))
    assert count == 3121
    assert {
        ("QnConfig", "fast", UNSTABLE, "frozenset"),
        ("QnConfig", "fast", UNSTABLE, "zero_section"),
        ("QnConfig", "fast", STRICTLY_SEMISTABLE, "frozenset"),
        ("QnConfig", "fast", STRICTLY_SEMISTABLE, "drop_source"),
        ("PnConfig", "fast", UNSTABLE, "inf_anchor"),
        ("PnConfig", "fast", UNSTABLE, "zero_anchor"),
        ("PnConfig", "fast", UNSTABLE, "zero_section"),
        ("PnConfig", "fast", STRICTLY_SEMISTABLE, "inf_anchor"),
        ("PnConfig", "fast", STRICTLY_SEMISTABLE, "zero_anchor"),
        ("PnConfig", "fast", STRICTLY_SEMISTABLE, "drop_source"),
        ("QnConfig", "oracle", UNSTABLE, "subrep"),
        ("QnConfig", "oracle", STRICTLY_SEMISTABLE, "subrep"),
        ("PnConfig", "oracle", UNSTABLE, "subrep"),
        ("PnConfig", "oracle", STRICTLY_SEMISTABLE, "subrep"),
    } <= tags
    assert digest.hexdigest() == "3bb1a55bc65ba4726bcd384ed3bafd393abfa5c439f05c5fee3c703c1affb82b"


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
    # the errors of moebius_from_triple, checked pair by pair in its order
    for vals, triple, point in (
        ((1, 1, 2), (0, 1, 2), "(1:1)"),
        ((1, 2, 1), (0, 1, 2), "(1:1)"),
        ((2, 1, 1), (0, 1, 2), "(1:1)"),
        ((1, 1, 1), (2, 0, 1), "(1:1)"),
        ((0, "inf", "inf"), (2, 1, 0), "(1:0)"),
    ):
        with pytest.raises(DegenerateTripleError, match=re.escape(f"reference points coincide: {point}") + "$"):
            normalize_chart_qn(qn(*vals), triple)
    with pytest.raises(ZeroSectionError, match="^section 1 is zero$"):
        normalize_chart_qn(qn(0, None, 1, 1), (0, 2, 3))


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
    assert repr(cfg) == f"QnConfig(sections={cfg.sections!r})"
    zero = qn(0, None, 1)
    for _ in range(2):  # a failed build is not cached
        with pytest.raises(ZeroSectionError):
            zero.dets


# Reference for the cross-chart tests: both charts normalized by Moebius
# maps from projline, on the Fraction coordinates of each section.


def _image(m, p):
    return (m.m00 * p.c0 + m.m01 * p.c1, m.m10 * p.c0 + m.m11 * p.c1)


def _ref_frame(c, i, j):
    """A map sending the anchors of chart c to (0:1) and (1:0)."""
    if isinstance(c, PnConfig):
        return moebius_two_point(ZERO_POINT, INF_POINT)
    return moebius_two_point(c.sections[i], c.sections[j])


def _ref_equations(a, b, i, j):
    fa, fb = _ref_frame(a, i, j), _ref_frame(b, i, j)
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
    fa, fb = _ref_frame(a, i, j), _ref_frame(b, i, j)
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


def _double_star_pairs(rng):
    """Seeded Pn pairs: random draws from a small pool (zero sections and
    sections on the anchors), torus-rescaled copies, rescaled copies with
    one section changed, and chart pairs of random chains."""
    pool = [INF_POINT, ZERO_POINT, ONE_POINT, affine(-1), affine(2), affine(F(1, 2)), affine(F(-3, 2))]
    pairs = []
    while len(pairs) < 800:
        kind = len(pairs) % 4
        if kind == 3:
            fam = lm_moduli_coordinates(random_chain(rng, range(rng.randint(2, 5))))
            pairs.append(tuple(PnConfig(fam.charts[k]) for k in rng.sample(range(fam.n), 2)))
            continue
        n = rng.randint(1, 5)
        a = PnConfig(tuple(rng.choice(pool) for _ in range(n)))
        if kind == 0:
            b = PnConfig(tuple(rng.choice(pool) for _ in range(n)))
        else:
            scale = Moebius(rng.choice((1, 2, -3)), 0, 0, rng.choice((1, 5, -2)))
            secs = [scale.apply(s) for s in a.sections]
            if kind == 2:
                secs[rng.randrange(n)] = rng.choice(pool)
            b = PnConfig(tuple(secs))
        pairs.append((a, b))
    return pairs


def test_double_star_cross_chart_tests_match_the_reference():
    seen = {"equations": [0, 0], "kinds": {}}
    for a, b in _double_star_pairs(random.Random(1414)):
        holds = check_limit_equations(a, b)
        assert holds == _ref_equations(a, b, None, None), (a, b)
        seen["equations"][holds] += 1
        fiber = _outcome(lambda: glue_fiber(a, b))
        assert fiber == _outcome(lambda: _ref_glue(a, b, None, None)), (a, b)
        kind = getattr(fiber, "kind", fiber)
        seen["kinds"][kind] = seen["kinds"].get(kind, 0) + 1
    assert min(seen["equations"]) > 100, seen
    assert len(seen["kinds"]) == 3 and min(seen["kinds"].values()) > 50, seen


def _error(call):
    try:
        call()
    except Exception as exc:  # the type and message are the result under test
        return type(exc), str(exc)
    return None


def test_double_star_errors_are_as_before():
    good = PnConfig((affine(2), affine(3)))
    zero = PnConfig((affine(2), None))
    fixed = (ValueError, "double-star configurations have fixed anchors; omit i and j")
    cases = [
        ((good, PnConfig((affine(2),))), (ValueError, "configurations must share a mode and a size")),
        ((good, QnConfig((affine(2), affine(3), ONE_POINT))), (ValueError, "configurations must share a mode and a size")),
        ((zero, good, 0, 1), (ZeroSectionError, "section 1 is zero")),
        ((good, zero, 0, 1), fixed),
        ((good, good, 0), fixed),
        ((good, good, None, 1), fixed),
        ((good, zero), (ZeroSectionError, "section 1 is zero")),
        ((PnConfig((None, None)), zero), (ZeroSectionError, "section 0 is zero")),
    ]
    for args, expected in cases:
        for fn in (check_limit_equations, glue_fiber):
            assert _error(lambda: fn(*args)) == expected, (fn.__name__, args)


def test_glued_map_is_the_composed_normalization():
    # every irreducible fiber of the limit-equations corpus (small bounds,
    # every admissible anchor pair): the map is mb^-1 ma, for ma and mb
    # sending the anchors and the first section off both anchors in both
    # charts to (0:1), (1:0), (1:1)
    bounds = {"exhaustive_n": (3, 4, 5), "per_shape": 2, "random": {6: 4, 7: 2}}
    count = 0
    for tree in verify._gk_corpus(verify.DEFAULT_SEED, bounds):
        fam = moduli_coordinates(tree, GK)
        cfgs = [QnConfig(tuple(fam.charts[t])) for t in fam.active_sets()]
        for ca, cb in itertools.combinations(cfgs, 2):
            for i, j in itertools.permutations(range(ca.n), 2):
                if ca.sections[i] == ca.sections[j] or cb.sections[i] == cb.sections[j]:
                    continue
                fiber = glue_fiber(ca, cb, i, j)
                if fiber.kind != IRREDUCIBLE:
                    continue
                k0 = next(
                    k for k in range(ca.n)
                    if all(c.sections[k] not in (c.sections[i], c.sections[j]) for c in (ca, cb))
                )
                ma, mb = (moebius_from_triple(c.sections[i], c.sections[j], c.sections[k0]) for c in (ca, cb))
                assert fiber.moebius == mb.inverse().compose(ma), (ca, cb, i, j)
                count += 1
    assert count > 10000, count


def _partition_equivalent(a, b):
    """moebius_equivalent as it read the blocks off both coincidence
    partitions and took r1, r2, r3 as the first indices of the first three."""
    if a.n != b.n:
        return False
    pa, pb = coincidence_partition(a), coincidence_partition(b)
    if pa.blocks != pb.blocks:
        return False
    if len(pa.blocks) <= 2:
        return True
    r1, r2, r3 = (block[0] for block in pa.blocks[:3])
    da, db = a.dets, b.dets
    return all(
        da[r1][k] * da[r2][r3] * db[r2][k] * db[r1][r3]
        == db[r1][k] * db[r2][r3] * da[r2][k] * da[r1][r3]
        for k in range(a.n)
    )


def _verdict_or_error(call):
    try:
        return call()
    except ValueError as exc:
        return type(exc), str(exc)


def test_moebius_equivalent_matches_the_partition_reference():
    # seeded pairs with zero sections, coincident marks, Moebius-moved copies
    # and sizes that differ; verdicts, error types and messages agree
    rng = random.Random(1313)
    pool = [INF_POINT, ZERO_POINT, ONE_POINT, affine(-1), affine(2), affine(F(1, 3))]
    seen = {}
    for step in range(3000):
        n = rng.randint(3, 6)
        secs = [rng.choice(pool) for _ in range(n)]
        a = QnConfig(tuple(secs))
        kind = step % 4
        if kind == 0:
            b = QnConfig(tuple(rng.choice(pool) for _ in range(rng.choice((n, n, n, n + 1)))))
        else:
            while True:
                e = [rng.randint(-3, 3) for _ in range(4)]
                if e[0] * e[3] != e[1] * e[2]:
                    break
            moved = [Moebius(*e).apply(s) for s in secs]
            if kind == 2:
                moved[rng.randrange(n)] = rng.choice(pool)
            b = QnConfig(tuple(moved))
        if rng.random() < 0.2:
            x = rng.choice((a, b))
            secs = list(x.sections)
            secs[rng.randrange(x.n)] = None
            a, b = (QnConfig(tuple(secs)), b) if x is a else (a, QnConfig(tuple(secs)))
        for x, y in ((a, b), (b, a)):
            got = _verdict_or_error(lambda: moebius_equivalent(x, y))
            assert got == _verdict_or_error(lambda: _partition_equivalent(x, y)), (x, y)
            key = got if isinstance(got, bool) else got[0]
            seen[key] = seen.get(key, 0) + 1
    assert min(seen[True], seen[False], seen[ZeroSectionError]) > 300, seen
    # a zero section of a is named before one of b
    a = QnConfig((ONE_POINT, None, ZERO_POINT))
    b = QnConfig((None, ONE_POINT, ZERO_POINT))
    with pytest.raises(ZeroSectionError, match=r"^section 1 is zero$"):
        moebius_equivalent(a, b)
    with pytest.raises(ZeroSectionError, match=r"^section 0 is zero$"):
        moebius_equivalent(b, a)


# Reference for the normal form: the row step and `moebius_equivalent` as
# they were before `QnConfig.normal_form`, when every anchor pair went
# through the row loop.


def _looped_agreeing_rows(config_a, config_b, i, j):
    if type(config_a) is not type(config_b) or len(config_a.sections) != len(config_b.sections):
        raise ValueError("configurations must share a mode and a size")
    da = config_a.dets
    if i is None or j is None or i == j:
        raise ValueError("two distinct anchor indices are required")
    if not (0 <= i < len(da) and 0 <= j < len(da)):
        raise ValueError(f"anchor indices {i} and {j} must lie in range({len(da)})")
    if not da[i][j]:
        raise DegeneratePairError(f"anchor sections {i} and {j} coincide")
    db = config_b.dets
    if not db[i][j]:
        raise DegeneratePairError(f"anchor sections {i} and {j} coincide")
    xa, ya, xb, yb = da[i], da[j], db[i], db[j]
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


def _looped_equivalent(config_a, config_b):
    if len(config_a.sections) != len(config_b.sections):
        return False
    da, db = config_a.dets, config_b.dets
    first = [row.index(0) for row in da]
    if first != [row.index(0) for row in db]:
        return False
    leads = [k for k, i in enumerate(first) if i == k]
    if len(leads) <= 2:
        return True
    r1, r2, r3 = leads[:3]
    a1, a2, b1, b2 = da[r1], da[r2], db[r1], db[r2]
    ca, cb = a2[r3] * b1[r3], b2[r3] * a1[r3]
    return all(x * y * ca == z * w * cb for x, y, z, w in zip(a1, b2, b1, a2))


def _result(call):
    try:
        return call()
    except ValueError as exc:  # the type and message are the result under test
        return type(exc), str(exc)


def _moved(rng, cfg):
    while True:
        e = [rng.randint(-4, 4) for _ in range(4)]
        if e[0] * e[3] != e[1] * e[2]:
            break
    m = Moebius(*e)
    return QnConfig(tuple(None if s is None else m.apply(s) for s in cfg.sections))


def _normal_form_pairs(rng):
    """Random configurations (coincident sections from a small pool) with
    Moebius images, images with one section changed, and unrelated draws;
    every chart pair of GK trees with two or three components."""
    pool = [INF_POINT, ZERO_POINT, ONE_POINT, affine(-1), affine(2), affine(F(1, 3)), affine(F(-5, 2))]
    pairs = []
    for step in range(240):
        n = rng.randint(3, 7)
        if step % 2:
            a = QnConfig(tuple(rng.choice(pool) for _ in range(n)))
        else:
            a = QnConfig(tuple(random_points(rng, n)))
        b = _moved(rng, a)
        if step % 3 == 1:
            secs = list(b.sections)
            secs[rng.randrange(n)] = rng.choice(pool)
            b = QnConfig(tuple(secs))
        elif step % 3 == 2:
            b = QnConfig(tuple(rng.choice(pool) for _ in range(n)))
        pairs.append((a, b))
    trees = 0
    while trees < 6:
        tree = random_gk_tree(rng, rng.randint(4, 6))
        if len(tree.components) not in (2, 3):
            continue
        trees += 1
        fam = moduli_coordinates(tree, GK)
        cfgs = [QnConfig(tuple(fam.charts[t])) for t in fam.active_sets()]
        pairs += itertools.combinations(cfgs, 2)
    return pairs


def _answers(a, b, anchors):
    return [
        (
            _result(lambda: check_limit_equations(a, b, i, j)),
            _result(lambda: _outcome(lambda: glue_fiber(a, b, i, j))),
        )
        for i, j in anchors
    ]


def test_normal_form_answers_as_the_row_loop(monkeypatch):
    # at every anchor pair (i, j), in range or not, the equations, the glued
    # fiber (kind and map) and Moebius equivalence agree with the row loop,
    # errors by type and message
    seen = {"equivalent": [0, 0], "holds": [0, 0], "kinds": {}, "errors": set()}
    for a, b in _normal_form_pairs(random.Random(2525)):
        n = a.n
        anchors = [(i, j) for i in range(-1, n + 1) for j in range(-1, n + 1)] + [(None, 1), (0, None)]
        for x, y in ((a, b), (b, a)):
            eq = _result(lambda: moebius_equivalent(x, y))
            assert eq == _result(lambda: _looped_equivalent(x, y)), (x, y)
            if isinstance(eq, bool):
                seen["equivalent"][eq] += 1
            got = _answers(x, y, anchors)
            with monkeypatch.context() as patch:
                patch.setattr(configs_module, "_agreeing_rows", _looped_agreeing_rows)
                want = _answers(x, y, anchors)
            for (i, j), g, w in zip(anchors, got, want):
                assert g == w, (x, y, i, j)
                holds, fiber = g
                if isinstance(holds, bool):
                    seen["holds"][holds] += 1
                    kind = getattr(fiber, "kind", fiber)
                    seen["kinds"][kind] = seen["kinds"].get(kind, 0) + 1
                else:
                    seen["errors"].add(holds)
    assert min(seen["equivalent"]) > 300 and min(seen["holds"]) > 3000, seen
    assert len(seen["kinds"]) == 3 and min(seen["kinds"].values()) > 3000, seen["kinds"]
    assert {msg.split()[0] for _, msg in seen["errors"]} == {"two", "anchor"}, seen["errors"]


def test_normal_form_errors_keep_their_order():
    good = qn(0, "inf", 1, 7)
    zero_a, zero_b = qn(0, None, 1, 7), qn(None, "inf", 1, 7)
    degen_a, degen_b = qn(0, 0, 1, 7), qn(2, 5, 5, 7)
    two = (ValueError, "two distinct anchor indices are required")
    cases = [
        ((zero_a, zero_b, 0, 2), (ZeroSectionError, "section 1 is zero")),
        ((good, zero_b, 0, 2), (ZeroSectionError, "section 0 is zero")),
        ((zero_a, good, 2, 2), (ZeroSectionError, "section 1 is zero")),
        ((good, zero_b, 2, 2), two),
        ((good, good, 3, 3), two),
        ((degen_a, good, 1, 1), two),
        ((good, good, 0, 4), (ValueError, "anchor indices 0 and 4 must lie in range(4)")),
        ((degen_a, degen_b, 0, -1), (ValueError, "anchor indices 0 and -1 must lie in range(4)")),
        ((degen_a, degen_b, 0, 1), (DegeneratePairError, "anchor sections 0 and 1 coincide")),
        ((degen_a, zero_b, 0, 1), (DegeneratePairError, "anchor sections 0 and 1 coincide")),
        ((good, degen_b, 1, 2), (DegeneratePairError, "anchor sections 1 and 2 coincide")),
        ((degen_b, degen_a, 1, 0), (DegeneratePairError, "anchor sections 1 and 0 coincide")),
    ]
    for args, expected in cases:
        for fn in (check_limit_equations, glue_fiber):
            assert _result(lambda: fn(*args)) == expected, (fn.__name__, args)
        assert _result(lambda: _looped_agreeing_rows(*args)) == expected, args
    for x, y, expected in ((zero_a, zero_b, "section 1 is zero"), (zero_b, zero_a, "section 0 is zero")):
        assert _result(lambda: moebius_equivalent(x, y)) == (ZeroSectionError, expected)
        assert _result(lambda: _looped_equivalent(x, y)) == (ZeroSectionError, expected)
    # sizes are compared before any section is read
    assert moebius_equivalent(zero_a, qn(None, 1, 2)) is False


def test_normal_form_is_a_moebius_invariant():
    rng = random.Random(2526)
    pool = [INF_POINT, ZERO_POINT, ONE_POINT, affine(3), affine(F(-1, 2))]
    moved_class = 0
    for step in range(400):
        n = rng.randint(3, 7)
        if step % 2:
            cfg = QnConfig(tuple(rng.choice(pool) for _ in range(n)))
        else:
            cfg = QnConfig(tuple(random_points(rng, n)))
        form = cfg.normal_form
        assert cfg.normal_form is form
        assert _moved(rng, cfg).normal_form == form, cfg
        p, q = rng.sample(range(n), 2)
        secs = list(cfg.sections)
        secs[p], secs[q] = secs[q], secs[p]
        swapped = QnConfig(tuple(secs))
        same = _looped_equivalent(cfg, swapped)
        assert (swapped.normal_form == form) == same, (cfg, p, q)
        moved_class += not same
    assert moved_class > 150, moved_class
    # the form is invisible to equality, hashing and repr, and a failed build
    # is not cached
    cfg, twin = qn(0, "inf", 1, 7), qn(0, "inf", 1, 7)
    cfg.normal_form
    assert (cfg == twin, hash(cfg), repr(cfg)) == (True, hash(twin), repr(twin))
    zero = qn(0, None, 1)
    for _ in range(2):
        with pytest.raises(ZeroSectionError, match="^section 1 is zero$"):
            zero.normal_form
