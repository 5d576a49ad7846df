"""Cross-cutting checks: the verification machinery detects injected bugs,
double-star gluing, and small odds and ends of the JSON/CLI surface."""
import itertools
import json
import random
import subprocess
import sys

import pytest

from quivermoduli import cli
from quivermoduli import configs as configs_mod
from quivermoduli import verify
from quivermoduli.chambers import Chamber, TooLargeError, enumerate_walls
from quivermoduli.configs import (
    IRREDUCIBLE,
    PnConfig,
    TWO_COMPONENTS,
    Verdict,
    glue_fiber,
)
from quivermoduli.curves import Chain, _degree_numerator, lm_moduli_coordinates
from quivermoduli.generate import (
    all_splits,
    count_set_partitions,
    enumerate_chain_shapes,
    enumerate_split_systems,
    pn_decorations,
    random_a_stable_tree,
    random_gk_tree,
    random_hassett_weight,
    set_partitions,
)
from quivermoduli.projline import affine
from quivermoduli import serialize


def test_glue_fiber_pn_pair_from_chain():
    # charts of a two-component chain glue to a two-component fiber;
    # charts of marks on one component glue to an irreducible one
    ch = Chain((
        ((0, affine(2)), (1, affine(5))),
        ((2, affine(7)),),
    ))
    fam = lm_moduli_coordinates(ch)
    c0 = PnConfig(fam.charts[0])
    c1 = PnConfig(fam.charts[1])
    c2 = PnConfig(fam.charts[2])
    same = glue_fiber(c0, c1)
    assert same.kind == IRREDUCIBLE
    split = glue_fiber(c0, c2)
    assert split.kind == TWO_COMPONENTS
    assert split.marks_on_a == frozenset({0, 1})
    assert split.marks_on_b == frozenset({2})


def test_suite_reports_witness_on_injected_bug(monkeypatch):
    # negate the fast rule's verdict: the oracle suite must fail and carry a
    # concrete counterexample
    real = configs_mod.is_semistable

    def broken(config, weight):
        v = real(config, weight)
        if v.kind == configs_mod.STABLE:
            return Verdict(configs_mod.UNSTABLE, v.witness)
        return v

    monkeypatch.setattr(verify, "is_semistable", broken)
    report = verify.run_suite(
        "stability-oracle",
        seed=1,
        bounds={"exhaustive_n": (3,), "random_instances": 0, "random_n": (6,)},
    )
    assert not report["passed"]
    assert report["counterexample"] is not None


def test_hassett_chart_degree_unit_weights():
    assert _degree_numerator([(i,) for i in range(5)], (1,) * 5, 1) == 5


def test_cli_check_unit_weights_match_gk(tmp_path):
    rng = random.Random(17)
    for _ in range(5):
        t = random_gk_tree(rng, 5)
        tf = tmp_path / "t.json"
        tf.write_text(serialize.dumps(serialize.tree_json(t)))
        argv = [sys.executable, "-m", "quivermoduli.cli", "tree", "check", "--tree", str(tf)]
        gk = json.loads(subprocess.run(argv, capture_output=True, text=True).stdout)
        argv_h = argv + ["--hassett", "1,1,1,1,1"]
        ha = json.loads(subprocess.run(argv_h, capture_output=True, text=True).stdout)
        assert gk["stable"] == ha["stable"] is True


def _grid_suite(capsys, *plans):
    rc = cli.main(["verify", "--suite", "chambers-vs-grid", "--bounds", json.dumps({"plans": plans})])
    (report,) = json.loads(capsys.readouterr().out)["reports"]
    return rc, report


def test_chambers_vs_grid_accepts_coarse_grids(capsys):
    # these grids miss chambers (the first five) or edges (the last two);
    # what they miss is confirmed by witnesses and crossing points instead
    for plan in (("pn", 2, 2), ("pn", 2, 3), ("qn", 4, 2), ("qn", 4, 3), ("pn", 3, 4),
                 ("qn", 4, 5), ("pn", 3, 9)):
        rc, report = _grid_suite(capsys, plan)
        assert rc == 0 and report["passed"], (plan, report)


def test_chambers_vs_grid_catches_a_dropped_chamber(monkeypatch, capsys):
    real = verify.enumerate_chambers
    for drop in range(len(real("pn", 2))):
        monkeypatch.setattr(
            verify, "enumerate_chambers",
            lambda mode, n: [c for i, c in enumerate(real(mode, n)) if i != drop],
        )
        rc, report = _grid_suite(capsys, ("pn", 2, 8))
        assert rc == 1 and report["counterexample"]["grid_only"], drop


def test_chambers_vs_grid_catches_a_bogus_chamber_or_edge_on_a_coarse_grid(monkeypatch, capsys):
    real_chambers = verify.enumerate_chambers
    real_adjacency = verify.chamber_adjacency

    def with_bogus_chamber(mode, n):
        # a sign vector no chamber has, carrying a real chamber's witness
        chs = list(real_chambers(mode, n))
        realized = {c.signs for c in chs}
        fake = next(
            s for s in itertools.product((1, -1), repeat=len(chs[0].signs)) if s not in realized
        )
        return chs + [Chamber(fake, chs[0].witness)]

    monkeypatch.setattr(verify, "enumerate_chambers", with_bogus_chamber)
    rc, report = _grid_suite(capsys, ("qn", 5, 4))
    assert rc == 1 and report["counterexample"]["enumerated_only"], report
    monkeypatch.setattr(verify, "enumerate_chambers", real_chambers)

    def with_bogus_edge(mode, n, chs):
        # two chambers differing in two walls are not adjacent
        far = next(
            (i, k) for i, k in itertools.combinations(range(len(chs)), 2)
            if sum(a != b for a, b in zip(chs[i].signs, chs[k].signs)) == 2
        )
        return real_adjacency(mode, n, chs) + [far]

    monkeypatch.setattr(verify, "chamber_adjacency", with_bogus_edge)
    for plan in (("qn", 4, 5), ("qn", 4, 8)):
        rc, report = _grid_suite(capsys, plan)
        assert rc == 1 and "exact_edges" in report["counterexample"], (plan, report)


def test_catalogue_counts_match_their_enumerations(monkeypatch):
    for n in range(8):
        parts = list(set_partitions(range(n)))
        assert count_set_partitions(n) == len(parts)
        assert count_set_partitions(n, anchored=True) == sum(len(list(pn_decorations(p))) for p in parts)
    # an enumeration runs at a work bound of its size and is refused one below
    cases = [(enumerate_split_systems, n) for n in range(4, 8)]
    cases += [(lambda n: enumerate_chain_shapes(range(n)), n) for n in range(2, 7)]
    for enumerate_, n in cases:
        size = len(enumerate_(n))
        monkeypatch.setenv("QML_MAX_WORK", str(size))
        assert len(enumerate_(n)) == size
        monkeypatch.setenv("QML_MAX_WORK", str(size - 1))
        with pytest.raises(TooLargeError, match=f"^{size} .* on {n} marks exceed QML_MAX_WORK"):
            enumerate_(n)
        monkeypatch.delenv("QML_MAX_WORK")


def test_splits_count_against_the_work_bound(monkeypatch):
    # a random tree draws from the list of every split of its marks, which
    # is built at a work bound of its size and refused one below
    for n in range(3, 10):
        size = 2 ** (n - 1) - n - 1
        assert len(all_splits(n)) == size
        if size > 1:
            monkeypatch.setenv("QML_MAX_WORK", str(size))
            assert len(all_splits(n)) == size
            monkeypatch.setenv("QML_MAX_WORK", str(size - 1))
            with pytest.raises(TooLargeError, match=f"^{size} splits on {n} marks exceed QML_MAX_WORK"):
                random_gk_tree(random.Random(0), n)
            monkeypatch.delenv("QML_MAX_WORK")


def test_splits_are_the_hypersimplex_wall_sides():
    # one enumerator: the split of a tree edge and the stored side of a
    # hypersimplex wall are the same object, the side that holds mark 0
    for n in range(3, 13):
        assert all_splits(n) == [w.j for w in enumerate_walls("qn", n)]
    for n in range(1, 11):
        brute = set()
        for k in range(2, n - 1):
            for side in itertools.combinations(range(n), k):
                rest = tuple(i for i in range(n) if i not in side)
                brute.add(min(side, rest))
        assert all_splits(n) == sorted(brute), n


def _walked_edge_sides(tree):
    """For each edge, the components on the side of its first end, by a
    walk of the tree that does not cross the edge."""
    adj = {c: [] for c in tree.components}
    for e in tree.edges:
        adj[e.ends[0]].append(e)
        adj[e.ends[1]].append(e)
    for e in tree.edges:
        side = {e.ends[0]}
        stack = [e.ends[0]]
        while stack:
            c = stack.pop()
            for f in adj[c]:
                if f is e:
                    continue
                d = f.other(c)
                if d not in side:
                    side.add(d)
                    stack.append(d)
        yield side


def test_edge_splits_read_off_mark_images_match_a_walk_of_the_tree():
    # the marks landing on an edge's node at its first end are the marks
    # beyond the edge; coinciding marks (Hassett clusters) change nothing
    rng = random.Random(29)
    trees = [random_gk_tree(rng, n) for n in range(4, 9) for _ in range(10)]
    for n in (4, 5, 6):
        for _ in range(8):
            trees.append(random_a_stable_tree(rng, n, random_hassett_weight(rng, n)))
    assert sum(len(t.edges) for t in trees) >= 60
    assert any(len({(c, p.ihom) for _, c, p in t.marks}) < t.n for t in trees)
    for tree in trees:
        full = frozenset(range(tree.n))
        walked = [
            full - {lb for lb, comp, _ in tree.marks if comp in side} for side in _walked_edge_sides(tree)
        ]
        assert verify._edge_splits(tree) == walked, tree
