"""Where a failed check ends each verification suite.

Each suite runs on small bounds with its k-th check forced to fail, for the
first, second, middle and last check (and, for chambers-vs-grid, the two
grid checks of its second plan).  The suite must stop right there: its
report counts k checks and carries the counterexample pinned below, the
one that check's witness gives.
"""
import itertools
import json
from unittest import mock

import pytest

from quivermoduli import verify

_SMALL = {
    "stability-oracle": {"exhaustive_n": [3], "random_instances": 8, "random_n": [4]},
    "theta-polytope": {"ns": [4]},
    "chambers-vs-grid": {"plans": [["qn", 4, 6], ["pn", 2, 6]]},
    "chart-stability": {"max_n": 4},
    "roundtrip-gk": {"exhaustive_n": [4], "per_shape": 2, "random": {5: 2}},
    "roundtrip-lm": {"exhaustive_n": [2, 3], "per_shape": 3, "random_n6": 2},
    "roundtrip-hassett": {"ns": [4], "weights_per_n": 2, "trees_per_weight": 2},
    "five-term": {"instances": 3},
    "hassett-special": {"ns": [4], "per_shape": 2},
    "qn2-pn": {"instances": 10, "pn_max": 2},
    "covering": {"corpus": {"exhaustive_n": [4], "per_shape": 1, "random": {}}, "lp_ns": [4],
                 "hassett": {"ns": [4], "weights_per_n": 1, "trees_per_weight": 2}},
    "limit-equations": {"corpus": {"exhaustive_n": [4], "per_shape": 2, "random": {5: 1}}},
}

# suite: (checks of the passing run, {k: counterexample when check k fails,
# as sorted JSON})
_STOPS = {
    "chambers-vs-grid": (210, {
        1: '{"enumerated_only": [], "grid_only": [], "mode": "qn", "n": 4}',
        2: '{"exact_edges": 12, "grid_edges": 0, "mode": "qn", "n": 4}',
        105: '{"mode": "qn", "n": 4, "partition": [[0, 1, 2], [3]], "signs": [1, 1, -1]}',
        159: '{"enumerated_only": [], "grid_only": [], "mode": "pn", "n": 2}',
        160: '{"exact_edges": 4, "grid_edges": 4, "mode": "pn", "n": 2}',
        210: '{"mode": "pn", "n": 2, "pair": [2, 3], "wall": [1]}',
    }),
    "chart-stability": (1622, {
        1: '{"n": 3, "partition": [[0, 1, 2]], "stable": false, "triple": [0, 1, 2]}',
        2: '{"n": 3, "partition": [[0], [1, 2]], "stable": false, "triple": [0, 1, 2]}',
        811: '{"chart": 0, "issue": "chart stable although its section sits at an anchor", "n": 4}',
        1622: '{"issue": "verdict depends on more than the anchor classes", "key": [[3], [2]], "n": 4}',
    }),
    "covering": (10, {
        1: '{"n": 4, "uncovered_triple": null}',
        2: '{"n": 4, "uncovered_triple": null}',
        5: '{"n": 4, "splits": [], "witness": "None"}',
        10: '{"a": ["5/12", "5/12", "5/12", "1"], "n": 4, "witness": "None"}',
    }),
    "five-term": (3, {
        1: '{"failed": [], "points": "[(1:1/7), (1:-3/2), (1:0), (1:-3/4), (1:-5/11)]"}',
        2: '{"failed": [], "points": "[(1:0), (1:-5/7), (1:-3), (1:1/2), (1:-1/6)]"}',
        3: '{"failed": [], "points": "[(1:3/10), (1:-4/11), (1:-5/3), (1:-3/8), (1:1)]"}',
    }),
    "hassett-special": (31, {
        1: '{"n": 4, "splits": []}',
        2: '{"n": 4, "splits": []}',
        16: '{"issue": "heavy tree unstable", "n": 4, "shape": [[2, 3]]}',
        31: '{"n": 4, "tree": "PointedTree(components=(\'c0\',), edges=(), marks=((0, \'c0\', (1:1/2)), (1, \'c0\', (0:1)), (2, \'c0\', (1:-1/8)), (3, \'c0\', (1:3/5))))"}',
    }),
    "limit-equations": (798, {
        1: '{"issue": "no admissible anchors", "n": 4, "pair": [[0, 1, 2], [0, 1, 3]]}',
        2: '{"anchors": [0, 1], "charts": [[0, 1, 2], [0, 1, 3]], "n": 4}',
        399: '{"anchors": [3, 4], "charts": [[0, 1, 2], [0, 2, 3]], "n": 5}',
        798: '{"charts": [[1, 3, 4], [2, 3, 4]], "issue": "collapse side is not a tree split", "n": 5, "side": [0, 1, 4]}',
    }),
    "qn2-pn": (20, {
        1: '{"issue": "degenerate anchors but not unstable", "n": 2, "verdict": "unstable"}',
        2: '{"a": 0, "b": 1, "config": "QnConfig(sections=((1:-1/2), (1:-1/4), (1:-1/4)))", "n": 1, "pn": "unstable", "qn": "unstable"}',
        10: '{"issue": "degenerate anchors but not unstable", "n": 2, "verdict": "unstable"}',
        20: '{"issue": "projection leaves the wall", "n": 2, "wall": [1]}',
    }),
    "roundtrip-gk": (20, {
        1: '{"n": 4, "tree": "PointedTree(components=(\'c0\',), edges=(), marks=((0, \'c0\', (1:0)), (1, \'c0\', (0:1)), (2, \'c0\', (1:1)), (3, \'c0\', (1:1/2))))"}',
        2: '{"issue": "family not reproduced", "n": 4, "tree": "PointedTree(components=(\'c0\',), edges=(), marks=((0, \'c0\', (1:0)), (1, \'c0\', (0:1)), (2, \'c0\', (1:1)), (3, \'c0\', (1:1/2))))"}',
        10: '{"issue": "family not reproduced", "n": 4, "tree": "PointedTree(components=(\'c0\', \'c1\'), edges=(TreeEdge(ends=(\'c0\', \'c1\'), nodes=((1:0), (1:0))),), marks=((0, \'c0\', (0:1)), (1, \'c1\', (0:1)), (2, \'c0\', (1:1)), (3, \'c1\', (1:1))))"}',
        20: '{"issue": "family not reproduced", "n": 5, "tree": "PointedTree(components=(\'c0\', \'c1\', \'c2\'), edges=(TreeEdge(ends=(\'c1\', \'c0\'), nodes=((1:1/9), (1:5/7))), TreeEdge(ends=(\'c1\', \'c2\'), nodes=((1:0), (1:2)))), marks=((0, \'c1\', (1:-5/9)), (1, \'c2\', (1:-1/9)), (2, \'c0\', (1:-1/5)), (3, \'c0\', (1:1/2)), (4, \'c2\', (1:-1/2))))"}',
    }),
    "roundtrip-hassett": (16, {
        1: '{"a": ["5/12", "5/12", "5/12", "1"], "failed": []}',
        2: '{"a": ["5/12", "5/12", "5/12", "1"], "tree": "PointedTree(components=(\'c0\',), edges=(), marks=((0, \'c0\', (1:3/11)), (1, \'c0\', (1:-3/2)), (2, \'c0\', (1:-2/3)), (3, \'c0\', (1:1/6))))"}',
        8: '{"a": ["5/12", "5/12", "5/12", "1"], "index": 3, "issue": "perturbation not detected", "label": [3, 2, 0]}',
        16: '{"a": ["1", "2/3", "1", "7/12"], "index": 2, "issue": "perturbation not detected", "label": [0, 1, 2]}',
    }),
    "roundtrip-lm": (98, {
        1: '{"failed": [], "n": 2, "shape": [[0], [1]]}',
        2: '{"n": 2, "shape": [[0], [1]]}',
        49: '{"failed": [], "n": 3, "shape": [[0, 2], [1]]}',
        98: '{"chain": "Chain(components=(((1, (1:-5)), (4, (1:-1/9))), ((2, (1:-2)),), ((0, (1:3/5)), (3, (1:3/5)), (5, (1:-1/11)))))", "n": 6}',
    }),
    "stability-oracle": (901, {
        1: '{"fast": "unstable", "mode": "qn", "n": 3, "oracle": "unstable", "partition": [[0, 1, 2]], "weight": "(Fraction(2, 3), Fraction(2, 3), Fraction(2, 3))"}',
        2: '{"fast": "unstable", "mode": "qn", "n": 3, "oracle": "unstable", "partition": [[0], [1, 2]], "weight": "(Fraction(2, 3), Fraction(2, 3), Fraction(2, 3))"}',
        451: '{"fast": "stable", "j0": [], "jinf": [1], "mode": "pn", "n": 3, "oracle": "stable", "partition": [[1], [0, 2]]}',
        901: '{"config": "PnConfig(sections=(None, (1:1), (1:1), (1:0)))", "fast": "unstable", "mode": "pn", "n": 4, "oracle": "unstable", "weight": "PnWeight(eta1=Fraction(-7, 8), eta2=Fraction(-1, 8), theta=(Fraction(4, 15), Fraction(1, 3), Fraction(4, 15), Fraction(2, 15)))"}',
    }),
    "theta-polytope": (15, {
        1: '{"n": 4, "partition": [[0, 1, 2, 3]], "semistable_vertices": [], "vertices": []}',
        2: '{"n": 4, "partition": [[0], [1, 2, 3]], "semistable_vertices": [[0, 1], [0, 2], [0, 3]], "vertices": [[0, 1], [0, 2], [0, 3]]}',
        8: '{"n": 4, "partition": [[0], [1, 2], [3]], "semistable_vertices": [[0, 1], [0, 2], [0, 3], [1, 3], [2, 3]], "vertices": [[0, 1], [0, 2], [0, 3], [1, 3], [2, 3]]}',
        15: '{"n": 4, "partition": [[0], [1], [2], [3]], "semistable_vertices": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]], "vertices": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]}',
    }),

}


def _fail_at(name: str, k: int) -> dict:
    """The report of `name` on its small bounds with check k failing (none
    for k = 0)."""
    real = verify._Report.expect
    calls = itertools.count(1)

    def expect(self, condition, witness):
        return real(self, next(calls) != k and condition, witness)

    with mock.patch.object(verify._Report, "expect", expect):
        return verify.run_suite(name, bounds=_SMALL[name])


def test_every_suite_is_pinned():
    assert sorted(_SMALL) == sorted(_STOPS) == sorted(verify.SUITES)


@pytest.mark.parametrize("name", sorted(_STOPS))
def test_passing_run_counts_every_check(name):
    report = _fail_at(name, 0)
    assert report["passed"] and report["counterexample"] is None
    assert report["checks"] == _STOPS[name][0]


@pytest.mark.parametrize("name, k", [(name, k) for name in sorted(_STOPS) for k in _STOPS[name][1]])
def test_a_failed_check_ends_its_suite(name, k):
    report = _fail_at(name, k)
    assert not report["passed"] and report["checks"] == k
    assert json.dumps(report["counterexample"], default=str, sort_keys=True) == _STOPS[name][1][k]
