"""The value classes of chambers, configs and curves behave as frozen
dataclasses: the reprs below were printed by the dataclass versions, and
equality, hashing, ordering, immutability, copying and construction follow
the fields named here."""
import copy
import dataclasses
import pickle
from fractions import Fraction as F

import pytest

from quivermoduli.chambers import (
    Chamber,
    HassettPolytope,
    PnWall,
    PnWeight,
    QnWall,
    QnWeight,
    StabPolytope,
    classify_weight,
)
from quivermoduli.configs import GluedFiber, PnConfig, QnConfig, Verdict
from quivermoduli.curves import Chain, ConditionReport, LimitFamily, PointedTree, TreeEdge
from quivermoduli.projline import INF_POINT, ONE_POINT, ZERO_POINT, Moebius, affine

_EDGE = TreeEdge(("a", "b"), (ONE_POINT, INF_POINT))
_ROW = (ZERO_POINT, INF_POINT, ONE_POINT)

# (test id, value, field names, repr of the dataclass version); the number in
# an id stays with its case when cases are added or deleted
CASES = [
    ("QnWeight-0", QnWeight((F(1, 2), F(1, 2), 1, 0)), ("theta",),
     "QnWeight(theta=(Fraction(1, 2), Fraction(1, 2), Fraction(1, 1), Fraction(0, 1)))"),
    ("PnWeight-1", PnWeight(F(-1, 3), F(-2, 3), (F(1, 3), F(2, 3))), ("eta1", "eta2", "theta"),
     "PnWeight(eta1=Fraction(-1, 3), eta2=Fraction(-2, 3), theta=(Fraction(1, 3), Fraction(2, 3)))"),
    ("QnWall-2", QnWall(4, (0, 1)), ("n", "j"), "QnWall(n=4, j=(0, 1))"),
    ("PnWall-3", PnWall(3, (0, 2)), ("n", "j"), "PnWall(n=3, j=(0, 2))"),
    ("WeightClass-4", classify_weight(QnWeight((F(3, 5), F(3, 5), F(2, 5), F(2, 5)))),
     ("generic", "signs", "inner", "outer"),
     "WeightClass(generic=False, signs=None, inner=(QnWall(n=4, j=(0, 2)), QnWall(n=4, j=(0, 3))), outer=())"),
    ("Chamber-5", Chamber((1, -1), QnWeight((F(2, 3), F(2, 3), F(2, 3)))), ("signs", "witness"),
     "Chamber(signs=(1, -1), witness=QnWeight(theta=(Fraction(2, 3), Fraction(2, 3), Fraction(2, 3))))"),
    ("StabPolytope-6", StabPolytope("qn", 4, ((3, 1), (2, 0))), ("mode", "n", "partition", "j0", "jinf"),
     "StabPolytope(mode='qn', n=4, partition=((0, 2), (1, 3)), j0=(), jinf=())"),
    ("StabPolytope-7", StabPolytope("pn", 3, j0=(2, 0), jinf=(1,)), ("mode", "n", "partition", "j0", "jinf"),
     "StabPolytope(mode='pn', n=3, partition=(), j0=(0, 2), jinf=(1,))"),
    ("HassettPolytope-8", HassettPolytope((1, F(1, 2), "1", F(3, 4))), ("a",),
     "HassettPolytope(a=(Fraction(1, 1), Fraction(1, 2), Fraction(1, 1), Fraction(3, 4)))"),
    ("QnConfig-9", QnConfig((ZERO_POINT, INF_POINT, ONE_POINT, None)), ("sections",),
     "QnConfig(sections=((0:1), (1:0), (1:1), None))"),
    ("PnConfig-10", PnConfig((affine(F(2, 3)), None)), ("sections",), "PnConfig(sections=((1:3/2), None))"),
    ("Verdict-13", Verdict("stable"), ("kind", "witness"), "Verdict(kind='stable', witness=None)"),
    ("Verdict-14", Verdict("unstable", (0, 1)), ("kind", "witness"), "Verdict(kind='unstable', witness=(0, 1))"),
    ("GluedFiber-15", GluedFiber("irreducible", Moebius(1, 2, 3, 4)),
     ("kind", "moebius", "marks_on_a", "marks_on_b", "node_a", "node_b"),
     "GluedFiber(kind='irreducible', moebius=Moebius(m00=Fraction(1, 1), m01=Fraction(2, 1), "
     "m10=Fraction(3, 1), m11=Fraction(4, 1)), marks_on_a=None, marks_on_b=None, node_a=None, node_b=None)"),
    ("GluedFiber-16", GluedFiber("two_components", None, frozenset({0, 1}), frozenset({1, 2}), ZERO_POINT, INF_POINT),
     ("kind", "moebius", "marks_on_a", "marks_on_b", "node_a", "node_b"),
     "GluedFiber(kind='two_components', moebius=None, marks_on_a=frozenset({0, 1}), "
     "marks_on_b=frozenset({1, 2}), node_a=(0:1), node_b=(1:0))"),
    ("TreeEdge-17", _EDGE, ("ends", "nodes"), "TreeEdge(ends=('a', 'b'), nodes=((1:1), (1:0)))"),
    ("PointedTree-18", PointedTree(("a", "b"), (_EDGE,), ((2, "b", ZERO_POINT), (0, "a", ZERO_POINT), (1, "a", INF_POINT),
                                        (3, "b", affine(5)))),
     ("components", "edges", "marks"),
     "PointedTree(components=('a', 'b'), edges=(TreeEdge(ends=('a', 'b'), nodes=((1:1), (1:0))),), "
     "marks=((0, 'a', (0:1)), (1, 'a', (1:0)), (2, 'b', (0:1)), (3, 'b', (1:1/5))))"),
    ("Chain-19", Chain((((1, affine(3)), (0, affine(2))), ((2, affine(5)),))), ("components",),
     "Chain(components=(((0, (1:1/2)), (1, (1:1/3))), ((2, (1:1/5)),)))"),
    ("LimitFamily-20", LimitFamily("gk", 3, {(0, 1, 2): _ROW}), ("mode", "n", "charts", "a"),
     "LimitFamily(mode='gk', n=3, charts=mappingproxy({(0, 1, 2): ((0:1), (1:0), (1:1))}), a=None)"),
    ("LimitFamily-21", LimitFamily("hassett", 3, {(0, 1, 2): _ROW}, [1, 1, F(1, 2)]), ("mode", "n", "charts", "a"),
     "LimitFamily(mode='hassett', n=3, charts=mappingproxy({(0, 1, 2): ((0:1), (1:0), (1:1))}), "
     "a=(1, 1, Fraction(1, 2)))"),
    ("ConditionReport-22", ConditionReport("anchor-rows", True), ("name", "passed", "witness"),
     "ConditionReport(name='anchor-rows', passed=True, witness=None)"),
    ("ConditionReport-23", ConditionReport("five-term", False, ((0, 1, 2), 3)), ("name", "passed", "witness"),
     "ConditionReport(name='five-term', passed=False, witness=((0, 1, 2), 3))"),
]
_values = pytest.mark.parametrize("value, names, text", [c[1:] for c in CASES], ids=[c[0] for c in CASES])


def _fields(value, names):
    return tuple(getattr(value, name) for name in names)


def test_every_value_class_is_covered():
    assert len({type(v) for _, v, _, _ in CASES}) == 17


@_values
def test_repr_is_the_dataclass_repr(value, names, text):
    assert repr(value) == text


@_values
def test_equality_and_hash_follow_the_field_tuple(value, names, text):
    twin = type(value)(*_fields(value, names))
    assert twin == value and not twin != value and twin is not value
    # never equal to the bare field tuple
    assert value != _fields(value, names) and not value == _fields(value, names)
    if isinstance(value, LimitFamily):
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(twin) == hash(_fields(value, names))


def test_distinct_values_are_unequal():
    values = [v for _, v, _, _ in CASES]
    for i, u in enumerate(values):
        for v in values[i + 1:]:
            assert u != v and not u == v, (u, v)


@_values
def test_assignment_and_deletion_raise(value, names, text):
    for name in names + ("other",):
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot assign to field '{name}'"):
            setattr(value, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot delete field '{name}'"):
            delattr(value, name)
    assert repr(value) == text


@_values
def test_pickle_and_copies_rebuild_an_equal_value(value, names, text):
    for other in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(other) is type(value) and other == value and repr(other) == text


@_values
def test_keyword_construction_and_replace(value, names, text):
    kwargs = dict(zip(names, _fields(value, names)))
    assert type(value)(**kwargs) == value
    # dataclasses.replace reads the fields and rebuilds through the constructor
    assert dataclasses.replace(value) == value
    assert [f.name for f in dataclasses.fields(value)] == list(names)


def test_defaults():
    assert StabPolytope("qn", 2, ((0, 1),)) == StabPolytope("qn", 2, ((0, 1),), (), ())
    assert Verdict("stable") == Verdict(kind="stable", witness=None)
    assert GluedFiber("irreducible") == GluedFiber("irreducible", None, None, None, None, None)
    assert ConditionReport("x", True) == ConditionReport(name="x", passed=True, witness=None)
    assert LimitFamily("gk", 3, {}) == LimitFamily(mode="gk", n=3, charts={}, a=None)
    with pytest.raises(TypeError):
        Verdict()
    with pytest.raises(TypeError):
        QnWall(3)
    with pytest.raises(TypeError):
        TreeEdge(("a", "b"), (ZERO_POINT, INF_POINT), "extra")


def test_replace_builds_a_changed_family():
    fam = LimitFamily("gk", 3, {(0, 1, 2): _ROW})
    other = dataclasses.replace(fam, n=4)
    assert other.n == 4 and other.charts == fam.charts and other != fam


def test_classes_without_fields_are_not_dataclasses():
    assert not dataclasses.is_dataclass(ZERO_POINT)
    assert not dataclasses.is_dataclass(Moebius(1, 0, 0, 1))
    assert dataclasses.is_dataclass(QnWall) and dataclasses.is_dataclass(QnWall(3, (0, 1)))

