"""Acceptance suite: one test per criterion, at full size, exact tolerances.

Each test prints a PASS/FAIL line (visible with pytest -s or -v) and carries
the counterexample in its assertion message on failure.  Seeds are fixed;
suite sizes are pinned here and nowhere else.
"""
import time

import pytest

from quivermoduli.verify import BOUNDS, DEFAULT_SEED, SUITES, check_bounds, run_suite

SEED = 20260810

ACCEPTANCE_BOUNDS = {
    # 1: exhaustive partitions x chamber witnesses x wall samples for
    #    n <= 5 in both modes, 2000 random instances for n in {6, 7}
    "stability-oracle": {
        "exhaustive_n": (3, 4, 5),
        "random_n": (6, 7),
        "random_instances": 2000,
    },
    # 2: vertex sets of the stability polytopes, every partition
    "theta-polytope": {"ns": (4, 5, 6)},
    # 3: chamber sets and adjacency against dense rational grids
    "chambers-vs-grid": {"plans": (("qn", 4, 8), ("qn", 5, 12), ("pn", 2, 8), ("pn", 3, 8))},
    # 4: chart-weight characterizations for every partition up to n = 6
    "chart-stability": {"max_n": 6},
    # 5: exhaustive shapes n <= 5 with 200 coordinate draws each,
    #    500 random trees for n in {6, 7}
    "roundtrip-gk": {
        "exhaustive_n": (3, 4, 5),
        "per_shape": 200,
        "random": {6: 300, 7: 200},
    },
    # 6: exhaustive chain shapes n <= 5, random chains for n = 6
    "roundtrip-lm": {"exhaustive_n": (1, 2, 3, 4, 5), "per_shape": 3, "random_n6": 300},
    # 7: 20 random admissible weight vectors per n, random stable trees,
    #    with deletion and perturbation detection
    "roundtrip-hassett": {"ns": (3, 4, 5), "weights_per_n": 20, "trees_per_weight": 3},
    # 8: unit weights versus classical stability, and the chain
    #    correspondence at eps = 1/(10n), exhaustive shapes n <= 5
    "hassett-special": {"ns": (3, 4, 5), "per_shape": 5},
    # 9: 500 random pairs near a vertex plus the wall correspondence
    "qn2-pn": {"instances": 500, "pn_max": 5},
    # 10: cross-chart equations and gluing over the whole round-trip corpus
    "limit-equations": {
        "corpus": {"exhaustive_n": (3, 4, 5), "per_shape": 200, "random": {6: 300, 7: 200}},
    },
    # 11: chart identities on random 5-point configurations
    "five-term": {"instances": 1000},
    # 12: chart polytopes cover their targets
    "covering": {
        "corpus": {"exhaustive_n": (3, 4, 5), "per_shape": 200, "random": {6: 300, 7: 200}},
        "lp_ns": (3, 4, 5),
        "hassett": {"ns": (3, 4, 5), "weights_per_n": 20, "trees_per_weight": 3},
    },
}

# the check count of each suite at SEED and ACCEPTANCE_BOUNDS, which are
# the defaults of `qml verify`: with every suite passing, these counts fix
# its default output, so a change in a corpus draw or in what a suite checks
# shows here and not only in that output's digest
CHECKS = {
    "stability-oracle": 2266302,
    "theta-polytope": 270,
    "chambers-vs-grid": 7929,
    "chart-stability": 55063,
    "roundtrip-gk": 13400,
    "roundtrip-lm": 4098,
    "roundtrip-hassett": 720,
    "hassett-special": 358,
    "qn2-pn": 994,
    "limit-equations": 5213729,
    "five-term": 1000,
    "covering": 6975,
}

CRITERIA = [
    (1, "stability-oracle"),
    (2, "theta-polytope"),
    (3, "chambers-vs-grid"),
    (4, "chart-stability"),
    (5, "roundtrip-gk"),
    (6, "roundtrip-lm"),
    (7, "roundtrip-hassett"),
    (8, "hassett-special"),
    (9, "qn2-pn"),
    (10, "limit-equations"),
    (11, "five-term"),
    (12, "covering"),
]


@pytest.mark.parametrize("number,suite", CRITERIA, ids=[f"criterion-{k:02d}-{s}" for k, s in CRITERIA])
def test_acceptance(number, suite):
    start = time.time()
    report = run_suite(suite, seed=SEED, bounds=ACCEPTANCE_BOUNDS[suite])
    elapsed = time.time() - start
    status = "PASS" if report["passed"] else "FAIL"
    print(f"{status} criterion {number:2d} [{suite}] checks={report['checks']} time={elapsed:.1f}s")
    assert report["passed"], f"criterion {number} ({suite}) failed: {report['counterexample']}"
    assert report["checks"] == CHECKS[suite], f"criterion {number} ({suite}): {report['checks']} checks"


def test_acceptance_bounds_pass_the_bounds_check():
    assert set(BOUNDS) == set(SUITES) == set(ACCEPTANCE_BOUNDS)
    check_bounds(ACCEPTANCE_BOUNDS)


def test_acceptance_runs_the_default_verification():
    # `qml verify` with no --seed or --bounds runs every suite at
    # DEFAULT_SEED with its built-in bounds, which ACCEPTANCE_BOUNDS repeat
    assert SEED == DEFAULT_SEED
    assert set(CHECKS) == set(SUITES)
