from fractions import Fraction as F

import pytest
from hypothesis import assume, given, strategies as st

from quivermoduli.projline import (
    DegenerateTripleError,
    INF_POINT,
    IndeterminateError,
    Moebius,
    ONE_POINT,
    ProjPoint,
    ZERO_POINT,
    affine,
    cross_ratio,
    cross_ratio_invariant,
    idet,
    moebius_from_triple,
    moebius_two_point,
)

fractions = st.fractions(min_value=-20, max_value=20, max_denominator=8)


def points():
    return st.one_of(
        st.just(INF_POINT),
        fractions.map(affine),
    )


def test_canonical_form_idempotent():
    p = ProjPoint(F(2), F(4))
    q = ProjPoint(F(-3), F(-6))
    assert p == q == ProjPoint(F(1), F(2))
    assert p.c0 == 1
    assert ProjPoint(F(0), F(-7)) == ZERO_POINT


@given(points(), fractions.filter(lambda x: x != 0))
def test_scale_invariance(p, s):
    assert ProjPoint(p.c0 * s, p.c1 * s) == p


def test_point_equality_examples():
    assert ZERO_POINT == ZERO_POINT
    assert ProjPoint(1, 2) == ProjPoint(2, 4)
    assert not INF_POINT == ZERO_POINT


def test_zero_point_rejected():
    with pytest.raises(ValueError):
        ProjPoint(F(0), F(0))


def test_moebius_examples():
    ident = Moebius(1, 0, 0, 1)
    assert ident.apply(ProjPoint(3, 5)) == ProjPoint(3, 5)
    swap = Moebius(0, 1, 1, 0)
    assert swap.apply(ZERO_POINT) == INF_POINT
    m = Moebius(1, 0, -1, 1)
    assert m.apply(ONE_POINT) == INF_POINT


def test_moebius_singular_rejected():
    with pytest.raises(ValueError):
        Moebius(1, 2, 2, 4)


def test_moebius_canonical_scale():
    assert Moebius(2, 0, 0, 4) == Moebius(1, 0, 0, 2)


def test_from_triple_normalizes():
    m = moebius_from_triple(ZERO_POINT, INF_POINT, ONE_POINT)
    assert m == Moebius(1, 0, 0, 1)
    m = moebius_from_triple(ONE_POINT, INF_POINT, ZERO_POINT)
    p = m.apply(affine(2))
    assert p == cross_ratio(ONE_POINT, INF_POINT, ZERO_POINT, affine(2))
    m = moebius_from_triple(ZERO_POINT, INF_POINT, affine(2))
    assert m.apply(affine(2)) == ONE_POINT


def test_from_triple_degenerate():
    with pytest.raises(DegenerateTripleError):
        moebius_from_triple(ZERO_POINT, ZERO_POINT, ONE_POINT)
    with pytest.raises(DegenerateTripleError):
        moebius_two_point(affine(3), affine(3))


def test_cross_ratio_examples():
    assert cross_ratio(affine(0), affine(1), affine(2), affine(3)) == ProjPoint(3, 4)
    x = affine(F(7, 5))
    assert cross_ratio(ZERO_POINT, INF_POINT, ONE_POINT, x) == x
    assert cross_ratio(ZERO_POINT, INF_POINT, ONE_POINT, ONE_POINT) == ONE_POINT


def test_cross_ratio_degenerate():
    with pytest.raises(DegenerateTripleError):
        cross_ratio(ZERO_POINT, ZERO_POINT, ONE_POINT, ZERO_POINT)


@given(st.lists(points(), min_size=4, max_size=4, unique_by=lambda p: p.ihom))
def test_cross_ratio_matches_triple_normalization(ps):
    p1, p2, p3, p4 = ps
    m = moebius_from_triple(p1, p2, p3)
    assert cross_ratio(p1, p2, p3, p4) == m.apply(p4)


@given(
    st.lists(points(), min_size=4, max_size=4, unique_by=lambda p: p.ihom),
    st.lists(fractions, min_size=4, max_size=4),
)
def test_cross_ratio_moebius_invariance(ps, coeffs):
    a, b, c, d = coeffs
    if a * d - b * c == 0:
        return
    m = Moebius(a, b, c, d)
    images = [m.apply(p) for p in ps]
    assert cross_ratio(*images) == cross_ratio(*ps)


def test_cross_ratio_invariant_anchored_form():
    config = [ZERO_POINT, INF_POINT, affine(3), affine(5)]
    v = cross_ratio_invariant(config, 0, 1, 2, 3)
    # with the anchors in place the invariant reduces to (k0*l1 : k1*l0)
    assert v == ProjPoint(F(3) * 1, F(1) * 5)


def test_cross_ratio_invariant_examples():
    config = [affine(0), INF_POINT, affine(1), affine(2)]
    assert cross_ratio_invariant(config, 0, 1, 2, 3) == ProjPoint(1, 2)
    assert cross_ratio_invariant(config, 0, 1, 2, 2) == ONE_POINT
    with pytest.raises(IndeterminateError):
        cross_ratio_invariant([affine(1), affine(1), affine(2), affine(1)], 0, 1, 0, 1)


@given(st.lists(points(), min_size=4, max_size=4, unique_by=lambda p: p.ihom))
def test_cross_ratio_invariant_is_cross_ratio(ps):
    v = cross_ratio_invariant(ps, 0, 1, 2, 3)
    assert v == cross_ratio(ps[1], ps[0], ps[2], ps[3])


def test_idet_sign_convention():
    # d(p, q) = p0*q1 - p1*q0 on the integer forms; only its sign and its
    # vanishing are meaningful, since the forms are rescaled representatives
    assert idet(affine(2).ihom, affine(5).ihom) < 0
    assert idet(affine(5).ihom, affine(2).ihom) > 0
    assert idet(affine(3).ihom, affine(3).ihom) == 0
    assert idet(INF_POINT.ihom, affine(4).ihom) > 0


def test_inverse_compose():
    m = Moebius(2, 1, 1, 1)
    assert m.compose(m.inverse()) == Moebius(1, 0, 0, 1)


# exact rationals as the constructors take them: ints, Fractions, strings
coords = st.one_of(st.integers(-30, 30), fractions, fractions.map(str))
nonzero = st.one_of(st.integers(-30, 30), fractions).filter(lambda x: x != 0)
point_inputs = st.one_of(
    st.tuples(coords, coords).filter(lambda c: F(c[0]) or F(c[1])),
    st.tuples(st.just(0), nonzero),
    st.tuples(nonzero, st.just(0)),
)


def canonical_point(c0, c1):
    """The canonical Fraction form: first nonzero coordinate 1."""
    c0, c1 = F(c0), F(c1)
    return (F(1), c1 / c0) if c0 else (F(0), F(1))


def canonical_matrix(entries):
    entries = [F(v) for v in entries]
    lead = next(v for v in entries if v)
    return tuple(v / lead for v in entries)


def assert_frozen(value, names):
    for name in names:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
    with pytest.raises(AttributeError):
        value.extra = 1


@given(point_inputs, point_inputs, nonzero)
def test_point_views_are_the_canonical_fractions(a, b, scale):
    p = ProjPoint(*a)
    want = canonical_point(*a)
    assert (p.c0, p.c1) == want
    assert all(type(c) is F for c in (p.c0, p.c1))
    assert repr(p) == f"({want[0]}:{want[1]})"
    # a scaled or negated representative is the same point
    same = ProjPoint(F(a[0]) * scale, F(a[1]) * scale)
    assert same == p and hash(same) == hash(p)
    q = ProjPoint(*b)
    assert (p == q) == (want == canonical_point(*b))
    if p == q:
        assert hash(p) == hash(q)
    assert_frozen(p, ("ihom", "c0", "c1"))


@given(st.tuples(coords, coords, coords, coords), nonzero)
def test_moebius_views_are_the_canonical_fractions(entries, scale):
    m00, m01, m10, m11 = (F(v) for v in entries)
    assume(m00 * m11 != m01 * m10)
    m = Moebius(*entries)
    want = canonical_matrix(entries)
    names = ("m00", "m01", "m10", "m11")
    assert tuple(getattr(m, name) for name in names) == want
    assert all(type(getattr(m, name)) is F for name in names)
    assert repr(m) == "Moebius(" + ", ".join(f"{k}={v!r}" for k, v in zip(names, want)) + ")"
    same = Moebius(*(F(v) * scale for v in entries))
    assert same == m and hash(same) == hash(m)
    assert_frozen(m, ("imat",) + names)
