from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from quivermoduli.chambers import QnWeight, project_weight_to_pn
from quivermoduli.quiverwt import (
    DEFAULT_WORK_BOUND,
    ApexError,
    OutsideConeError,
    SettingError,
    TooLargeError,
    in_weight_space,
    max_work,
    pn_quiver,
    qn_quiver,
    wall_hyperplanes,
    weight_map_qn2_pn,
    weight_not_on_candidate_wall,
)


def test_qn_quiver_shape():
    q, d = qn_quiver(4)
    assert len(q.vertices) == 5
    assert len(q.arrows) == 4
    assert d["p"] == 2 and all(d[f"q{i}"] == 1 for i in range(4))
    q3, _ = qn_quiver(3)
    assert len(q3.vertices) == 4 and len(q3.arrows) == 3


def test_pn_quiver_shape():
    q, d = pn_quiver(2)
    assert len(q.vertices) == 4 and len(q.arrows) == 4
    q5, d5 = pn_quiver(5)
    assert len(q5.vertices) == 7 and len(q5.arrows) == 10
    assert set(d5.values()) == {1}


def test_dimension_vectors_indivisible():
    from math import gcd
    for n in (3, 4, 5, 6):
        _, d = qn_quiver(n)
        assert gcd(*d.values()) == 1
        _, dp = pn_quiver(n)
        assert gcd(*dp.values()) == 1


def test_wall_hyperplanes_two_vertices():
    d = {"a": 1, "b": 1}
    cands = wall_hyperplanes(d)
    assert sorted(tuple(sorted(c.items())) for c in cands) == [
        (("a", 0), ("b", 1)),
        (("a", 1), ("b", 0)),
    ]


def test_wall_hyperplanes_enumeration_condition():
    d = {"a": 2, "b": 1}
    cands = wall_hyperplanes(d)
    got = {tuple(c[k] for k in ("a", "b")) for c in cands}
    assert got == {(1, 0), (0, 1), (1, 1), (2, 0)}


def test_wall_hyperplanes_excludes_divisors():
    assert wall_hyperplanes({"a": 2}) == []


def test_wall_hyperplanes_bound():
    d = {f"v{i}": 9 for i in range(8)}
    with pytest.raises(TooLargeError):
        wall_hyperplanes(d, bound=1000)


def test_max_work_reads_a_positive_integer(monkeypatch):
    monkeypatch.delenv("QML_MAX_WORK", raising=False)
    assert max_work() == DEFAULT_WORK_BOUND
    monkeypatch.setenv("QML_MAX_WORK", "12")
    assert max_work() == 12
    for raw in ("abc", "-5", "0", "2.0", " "):
        monkeypatch.setenv("QML_MAX_WORK", raw)
        with pytest.raises(SettingError, match="QML_MAX_WORK"):
            max_work()


def test_candidate_wall_avoidance():
    _, d = qn_quiver(4)
    theta = {"p": F(-1), "q0": F(1, 2), "q1": F(1, 2), "q2": F(1, 2), "q3": F(1, 2)}
    assert in_weight_space(theta, d)
    assert not weight_not_on_candidate_wall(theta, d)
    theta2 = {"p": F(-1), "q0": F(5, 8), "q1": F(5, 8), "q2": F(5, 8), "q3": F(1, 8)}
    assert in_weight_space(theta2, d)
    assert weight_not_on_candidate_wall(theta2, d)


def test_zero_entry_is_on_a_candidate_wall():
    _, d = pn_quiver(3)
    theta = {"p1": F(-1, 2), "p2": F(-1, 2), "q0": F(0), "q1": F(1, 2), "q2": F(1, 2)}
    assert in_weight_space(theta, d)
    assert not weight_not_on_candidate_wall(theta, d)


def test_weight_map_example():
    w = QnWeight((F(3, 4), F(3, 4), F(1, 4), F(1, 4)))
    eta1, eta2, theta = weight_map_qn2_pn(w, 0, 1)
    assert (eta1, eta2) == (F(-1, 2), F(-1, 2))
    assert theta == (F(1, 2), F(1, 2))


def test_weight_map_normalization():
    w = QnWeight((F(9, 10), F(7, 10), F(1, 10), F(3, 10)))
    p = project_weight_to_pn(w, 0, 1)
    assert p.eta1 + p.eta2 == -1
    assert sum(p.theta) == 1


def test_weight_map_wall_identification():
    # on the wall bounding the cone the scale factor is 1
    w = QnWeight((F(3, 5), F(2, 5), F(1, 2), F(1, 2)))
    assert w.theta[0] + w.theta[1] == sum(w.theta[2:])
    eta1, eta2, theta = weight_map_qn2_pn(w, 0, 1)
    assert eta1 == w.theta[0] - 1 and eta2 == w.theta[1] - 1
    assert theta == tuple(w.theta[2:])


def test_weight_map_errors():
    apex = QnWeight((F(1), F(1), F(0), F(0)))
    with pytest.raises(ApexError):
        weight_map_qn2_pn(apex, 0, 1)
    outside = QnWeight((F(1, 4), F(1, 4), F(3, 4), F(3, 4)))
    with pytest.raises(OutsideConeError):
        weight_map_qn2_pn(outside, 0, 1)


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
