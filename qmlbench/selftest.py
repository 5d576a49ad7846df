"""Self-test of the benchmark: every checker must catch a corrupted output,
every workload must run clean for a moment, and the benchmark must refuse
to run outside a checkout.

    python3 qmlbench/selftest.py          # from the root of a checkout

Prints one PASS/FAIL line per case and exits 1 if any case fails.
"""
from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import checks
import run
import workloads

RESULTS = []


def case(name: str, ok: bool, detail: str = "") -> None:
    RESULTS.append(ok)
    print(f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  ({detail})" if detail and not ok else ""),
          flush=True)


def caught(name: str, problems) -> None:
    case(f"catches {name}", bool(problems), "checker reported nothing")


def clean(name: str, problems) -> None:
    case(f"accepts {name}", not problems, "; ".join(problems[:2]))


def tree_cases(qm) -> None:
    wl = workloads.GkCharts(qm)
    items = wl.make_inputs(11)
    item = next(it for it in items if it[1].n == 5 and len(it[1].components) == 2)
    _, tree, _ = item
    out = wl.run(item)
    clean("a gk-charts output", wl.check(item, out))
    fam, rebuilt, iso, pairs = out

    # a perturbed chart section
    charts = dict(fam.charts)
    key = sorted(charts)[7]
    row = list(charts[key])
    free = next(k for k in range(len(row)) if k not in key)
    row[free] = qm.projline.affine(Fraction(97, 13))
    charts[key] = tuple(row)
    bad = dataclasses.replace(fam, charts=charts)
    caught("a perturbed chart section", checks.check_family(tree, bad, total=True))

    # a reconstruction with one mark moved on a component with four special
    # points (on three points every position is the same up to Moebius)
    count = {c: sum(1 for m in rebuilt.marks if m[1] == c) for c in rebuilt.components}
    k = next(k for k, m in enumerate(rebuilt.marks) if count[m[1]] >= 3)
    lb, comp, _ = rebuilt.marks[k]
    marks = list(rebuilt.marks)
    marks[k] = (lb, comp, qm.projline.affine(Fraction(89, 11)))
    moved = qm.curves.PointedTree(rebuilt.components, rebuilt.edges, tuple(marks))
    caught("a non-isomorphic reconstruction", checks.check_isomorphic(tree, moved, total=True))

    # a family that is not invariant: compare a moved tree against a corrupt family
    matrix = [[1, 2], [3, 1]]
    caught("a family changed by moving a component",
           workloads._moved_family(qm, tree, bad, matrix, "gk", None))

    # a false limit-equation verdict and a wrong fiber kind
    ta, tb, anchors, verdicts, kind, equiv = pairs[0]
    flipped = (ta, tb, anchors, (False,) + verdicts[1:], kind, equiv)
    caught("a failed limit equation", checks.check_limit_pairs([flipped] + pairs[1:], fam))
    other = "two_components" if kind == "irreducible" else "irreducible"
    wrong = (ta, tb, anchors, verdicts, other, equiv)
    caught("a wrong glued-fiber kind", checks.check_limit_pairs([wrong] + pairs[1:], fam))
    ra, rb = (checks.program_charts(fam)[t] for t in (ta, tb))
    i, j = anchors[0]
    k = next(k for k in range(len(rb)) if k not in (i, j) and rb[k] not in (rb[i], rb[j]))
    rb = rb[:k] + (checks.norm(rb[k][0] * 3 + rb[k][1], rb[k][1] * 5 + rb[k][0]),) + rb[k + 1:]
    case("catches a limit equation that does not hold", not checks.limit_equations_hold(ra, rb, i, j))


def stability_cases(qm) -> None:
    wl = workloads.HassettCover(qm)
    items = wl.make_inputs(11)
    item = items[4]
    out = wl.run(item)
    clean("a hassett-cover output", wl.check(item, out))
    fam, reports, rebuilt, iso, polys, covered, verdicts = out
    fast, oracle = verdicts[0]
    wrong_kind = "unstable" if fast != "unstable" else "stable"
    bad = list(verdicts)
    bad[0] = (wrong_kind, oracle)
    caught("a wrong fast verdict", wl.check(item, (fam, reports, rebuilt, iso, polys, covered, bad)))
    bad[0] = (fast, wrong_kind)
    caught("a wrong oracle verdict", wl.check(item, (fam, reports, rebuilt, iso, polys, covered, bad)))
    caught("an uncovered Hassett target",
           wl.check(item, (fam, reports, rebuilt, iso, polys, False, verdicts)))
    _, tree, a, _, targets, _, _ = item
    n = tree.n
    collapsed = [tuple((1, 0) if i < n - 1 else (0, 1) for i in range(n))]
    caught("a weight in no chart polytope", checks.check_covering(collapsed, targets))


def chamber_cases() -> None:
    wl = workloads.ChambersCli()
    for mode, n in (("qn", 5), ("pn", 3)):
        command = (mode, n, True)
        probes = wl.make_probes(11)[wl.commands.index(command)]
        proc = subprocess.run(
            [sys.executable, "-m", "quivermoduli.cli"] + wl.argv(command),
            env=run.child_env(), stdout=subprocess.PIPE, check=True, cwd=run.ROOT,
        )
        good = json.loads(proc.stdout)

        def verdict(doc, code=0):
            return wl.check(command, probes, code, json.dumps(doc).encode())

        label = f"{mode} n={n}"
        clean(f"the chamber complex {label}", verdict(good))

        doc = json.loads(proc.stdout)
        del doc["chambers"][len(doc["chambers"]) // 2]
        doc["adjacency"] = []
        caught(f"a dropped chamber ({label})", verdict(doc))

        doc = json.loads(proc.stdout)
        s = doc["chambers"][1]["signs"]
        doc["chambers"][1]["signs"] = ("-" if s[0] == "+" else "+") + s[1:]
        caught(f"a flipped sign ({label})", verdict(doc))

        doc = json.loads(proc.stdout)
        doc["chambers"][2]["signs"] = doc["chambers"][3]["signs"]
        caught(f"a repeated sign vector ({label})", verdict(doc))

        doc = json.loads(proc.stdout)
        doc["adjacency"] = doc["adjacency"][1:]
        caught(f"a missing edge ({label})", verdict(doc))

        doc = json.loads(proc.stdout)
        theta = doc["chambers"][0]["witness"]["theta"]
        theta[0], theta[1] = "0/1", str(Fraction(theta[0]) + Fraction(theta[1]))
        caught(f"a witness on the boundary ({label})", verdict(doc))

        caught(f"a failed exit code ({label})", verdict(good, code=2))

    # a set that is not closed under permutations: keep the chambers whose
    # first sign is '+', which breaks the symmetry but keeps the witnesses
    command = ("pn", 3, False)
    probes = wl.make_probes(11)[wl.commands.index(("pn", 3, True))]
    proc = subprocess.run(
        [sys.executable, "-m", "quivermoduli.cli"] + wl.argv(command),
        env=run.child_env(), stdout=subprocess.PIPE, check=True, cwd=run.ROOT,
    )
    doc = json.loads(proc.stdout)
    doc["chambers"] = [c for c in doc["chambers"] if c["signs"][0] == "+"]
    problems = checks.check_chamber_complex("pn", 3, False, 0, json.dumps(doc).encode(), [])
    case("catches a set not closed under permutations",
         any("permutation" in p for p in problems), "; ".join(problems[:2]))


def smoke_runs() -> None:
    for workload, trace in (("gk-charts", 0), ("hassett-cover", 0), ("chambers-cli", 0),
                            ("hassett-cover", 1)):
        proc = subprocess.run(
            [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
             "--seed", "3", "--seconds", "1", "--trace", str(trace)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, cwd=run.ROOT, timeout=180,
        )
        lines = proc.stdout.decode().strip().splitlines()
        try:
            res = json.loads(lines[-1])
            ok = (proc.returncode == 0 and res["correct"] is True and res["failed"] == 0
                  and res["attempted"] > 0 and set(res) == {"correct", "attempted", "failed", "metrics"})
            detail = json.dumps({k: v for k, v in res.items() if k != "metrics"})
        except (IndexError, ValueError, KeyError) as exc:
            ok, detail = False, f"no result line ({exc})"
        case(f"smoke run {workload} --trace {trace}", ok, detail)


def outside_checkout() -> None:
    """Only BENCHMARK.json and this directory: the run must fail at once."""
    bare = os.path.join(run.OUT, "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copytree(run.HERE, os.path.join(bare, "qmlbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, "qmlbench/run.py", "--workload", "gk-charts", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, cwd=bare, timeout=180,
        )
        case("refuses to run outside a checkout", proc.returncode != 0 and not proc.stdout.strip(),
             f"exit {proc.returncode}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    os.makedirs(run.OUT, exist_ok=True)
    qm = run.load_program()
    tree_cases(qm)
    stability_cases(qm)
    chamber_cases()
    outside_checkout()
    smoke_runs()
    failed = RESULTS.count(False)
    print(f"{len(RESULTS) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
