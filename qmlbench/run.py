"""Benchmark of quivermoduli: one named workload from one seed.

    python3 qmlbench/run.py --workload gk-charts --seed 1 --seconds 20 --trace 0

Run from the root of a checkout (the program is imported from ``src``).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Progress goes to standard error.  See README.md in this directory.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import types

import refclock
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 7


def log(*parts) -> None:
    print(*parts, file=sys.stderr, flush=True)


def child_env(**extra) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(extra)
    return env


def load_program():
    sys.path.insert(0, SRC)
    from quivermoduli import chambers, configs, curves, generate, lp, projline, serialize

    return types.SimpleNamespace(
        chambers=chambers, configs=configs, curves=curves, generate=generate,
        lp=lp, projline=projline, serialize=serialize,
    )


def run_child(argv, env, stdout_path):
    """Run one child to its end with its standard output in a file.  The
    child finds the moment it was spawned in QMLBENCH_SPAWN.  Returns
    (spawn time, end time, exit code, peak RSS in KiB)."""
    with open(stdout_path, "wb") as out:
        t0 = time.perf_counter()
        env["QMLBENCH_SPAWN"] = repr(t0)
        proc = subprocess.Popen(argv, stdout=out, env=env, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        t1 = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return t0, t1, proc.returncode, usage.ru_maxrss


def measure_setup(args) -> float:
    """Median calibrated time from spawning a fresh benchmark process to the
    moment its inputs are ready, over SETUP_PROBES processes."""
    times = []
    path = os.path.join(OUT, f"probe-{os.getpid()}.json")
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--probe-setup"]
    try:
        for _ in range(SETUP_PROBES):
            t0, _, code, _ = run_child(argv, child_env(), path)
            if code != 0:
                raise RuntimeError(f"set-up probe failed with exit code {code}")
            with open(path) as fh:
                probe = json.load(fh)
            times.append(refclock.calibrate(probe["passes"], t0, probe["ready"]))
    finally:
        if os.path.exists(path):
            os.remove(path)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# Rounds.  A round runs every input once; `timed_round` returns the
# calibrated time of each input, the calibrated time of the round and the
# calibration scale of the round.


class InProcess:
    def __init__(self, wl, items, clock):
        self.wl = wl
        self.items = items
        self.clock = clock
        self.reference = []  # warm-up output per input
        self.problems = []   # warm-up check problems per input
        self.attempted = 0
        self.failed = 0

    def warm_up(self, check=True):
        for item in self.items:
            try:
                out = self.wl.run(item)
                problems = self.wl.check(item, out) if check else []
            except Exception as exc:  # a crash is a failed operation
                out, problems = None, [f"{type(exc).__name__}: {exc}"]
            self.reference.append(out)
            self.problems.append(problems)
            for p in problems[:3]:
                log(f"check failed on input {item[0]}: {p}")

    def run_round(self):
        gc.collect()
        stamps, outs = [], []
        for item in self.items:
            t0 = time.perf_counter()
            try:
                out = self.wl.run(item)
            except Exception:  # a crash is a failed operation
                out = None
            stamps.append((t0, time.perf_counter()))
            outs.append(out)
        return stamps, outs

    def timed_round(self):
        stamps, outs = self.run_round()
        for k, out in enumerate(outs):
            self.attempted += 1
            if out is None or self.problems[k] or out != self.reference[k]:
                self.failed += 1
        times = [self.clock.calibrate(t0, t1) for t0, t1 in stamps]
        return times, sum(times), self.clock.scale(stamps[0][0], stamps[-1][1])


class CliRounds:
    """Each command runs in a fresh child through launch.py, which samples
    the reference pass inside the child and reports the passes."""

    def __init__(self, wl, probes):
        self.wl = wl
        self.probes = probes
        self.reference = []
        self.problems = []
        self.attempted = 0
        self.failed = 0
        self.peak_kib = 0
        self.path = os.path.join(OUT, f"cli-{os.getpid()}.json")
        self.report_path = self.path + ".report"

    def run(self, command, spans="-", hashseed=None):
        """Returns (calibrated seconds, scale, exit code, stdout, report).
        A child that ends without a report counts as failed (exit code
        None) and its time stays uncalibrated."""
        argv = [sys.executable, os.path.join(HERE, "launch.py"), self.report_path, spans,
                "--"] + self.wl.argv(command)
        env = child_env(**({"PYTHONHASHSEED": str(hashseed)} if hashseed is not None else {}))
        self.cleanup()
        t0, t1, code, kib = run_child(argv, env, self.path)
        self.peak_kib = max(self.peak_kib, kib)
        with open(self.path, "rb") as fh:
            stdout = fh.read()
        try:
            with open(self.report_path) as fh:
                report = json.load(fh)
        except (OSError, ValueError):
            log(f"no launcher report from {' '.join(self.wl.argv(command))} (exit code {code})")
            return t1 - t0, 1.0, None, stdout, None
        seconds = refclock.calibrate(report["passes"], t0, t1)
        return seconds, seconds / (t1 - t0), code, stdout, report

    def warm_up(self):
        for command, probes in zip(self.wl.commands, self.probes):
            _, _, code, stdout, _ = self.run(command)
            problems = self.wl.check(command, probes, code, stdout)
            self.reference.append((code, stdout))
            self.problems.append(problems)
            for p in problems[:3]:
                log(f"check failed on {' '.join(self.wl.argv(command))}: {p}")

    def timed_round(self, traced=False, hashseed=None, spans_dir=None):
        """The third value holds (scale, launcher report, bytes out) per
        command."""
        times, reports = [], []
        for k, command in enumerate(self.wl.commands):
            spans = "-"
            if traced:
                spans = os.path.join(spans_dir, f"cmd{k}.json") if spans_dir else "trace"
            seconds, scale, code, stdout, report = self.run(command, spans, hashseed)
            times.append(seconds)
            reports.append((scale, report, len(stdout)))
            self.attempted += 1
            if self.problems[k] or (code, stdout) != self.reference[k]:
                self.failed += 1
        return times, sum(times), reports

    def cleanup(self):
        for path in (self.path, self.report_path):
            if os.path.exists(path):
                os.remove(path)


def timed_loop(runner, seconds, **kwargs):
    """Whole rounds until `seconds` have passed."""
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(runner.timed_round(**kwargs))
        log(f"round {len(rounds)}: {rounds[-1][1]:.4f} s calibrated")
    return rounds


# ---------------------------------------------------------------------------
# Metrics.


def metric_units(kind: str) -> dict:
    """Name -> unit of the `end_to_end` or `per_layer` metrics of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def end_to_end(setup_s, rounds, peak_mb) -> dict:
    per_input = list(zip(*(r[0] for r in rounds)))
    medians = [statistics.median(ts) for ts in per_input]
    log("per-input medians (ms): " + " ".join(f"{m * 1000:.1f}" for m in medians))
    values = {
        "setup_s": setup_s,
        "round_s": statistics.median(r[1] for r in rounds),
        "op_p50_ms": statistics.median(medians) * 1000,
        "op_max_ms": max(medians) * 1000,
        "peak_rss_mb": peak_mb,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in metric_units("end_to_end").items()}


def layer_result(per_round, extra) -> dict:
    """Counts from the first traced round, times as the median over rounds."""
    units = metric_units("per_layer")
    values = dict(extra)
    for name in per_round[0]:
        if units[name] == "s":
            values[name] = statistics.median(r[name] for r in per_round)
        else:
            values[name] = per_round[0][name]
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def result(correct, runner, metrics) -> dict:
    return {"correct": bool(correct), "attempted": runner.attempted,
            "failed": runner.failed, "metrics": metrics}


def repeats(signatures) -> bool:
    """Whether every count signature equals the first; logs the differences."""
    first = signatures[0]
    same = True
    for k, sig in enumerate(signatures[1:], 1):
        diff = {key: (first.get(key), sig.get(key)) for key in sorted(set(first) | set(sig))
                if first.get(key) != sig.get(key)}
        if diff:
            log(f"counts of run {k} differ from run 0: {diff}")
            same = False
    return same


def traced_rounds(seconds, one_round):
    """At least two traced rounds, for `seconds`; `one_round(k)` returns
    (layer metrics with round_s, count signature)."""
    per_round, signatures = [], []
    start = time.perf_counter()
    while len(per_round) < 2 or time.perf_counter() - start < seconds:
        metrics, signature = one_round(len(per_round))
        per_round.append(metrics)
        signatures.append(signature)
    return per_round, signatures


def overhead(per_round, plain) -> float:
    traced = statistics.median(m.pop("round_s") for m in per_round)
    return traced / statistics.median(r[1] for r in plain)


# ---------------------------------------------------------------------------
# Runs.


def run_in_process(args) -> dict:
    qm = load_program()
    wl = workloads.WORKLOADS[args.workload](qm)
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install(with_generate=True)
    with refclock.Sampler() as setup_clock:
        t0 = time.perf_counter()
        items = wl.make_inputs(args.seed)
        t1 = time.perf_counter()
        scale = setup_clock.scale(t0, t1)
    log(f"{wl.name}: {len(items)} inputs made in {t1 - t0:.2f} s")
    if tracer:
        spans = tracer.phase_summary()["spans"]
        generate_self = scale * sum(v[2] for k, v in spans.items() if k.startswith("generate."))
        tracer.uninstall()
    clock = refclock.Sampler()
    runner = InProcess(wl, items, clock)
    tables = qm.configs._weight_tables
    cache_before = tables.cache_info()
    runner.warm_up()
    share = hit_share(cache_before, tables.cache_info())
    if not args.trace:
        setup_s = measure_setup(args)
        with clock:
            rounds = timed_loop(runner, args.seconds)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return result(True, runner, end_to_end(setup_s, rounds, peak_mb))

    def one_round(k):
        _, total, scale = runner.timed_round()
        if k == 0:
            write_spans(args, tracer.raw_spans())
        summary = tracer.phase_summary()
        scaled = {}
        tracing.add_summaries(scaled, summary, scale)
        metrics = tracing.layer_metrics(scaled)
        metrics["round_s"] = total
        return metrics, tracing.count_signature(summary)

    with clock:
        plain = timed_loop(runner, args.seconds / 2)
        tracer.install()
        try:
            per_round, signatures = traced_rounds(args.seconds / 2, one_round)
        finally:
            tracer.uninstall()
    signatures += [count_child(args, hashseed) for hashseed in (1, 2)]
    same = repeats(signatures)
    log(f"{wl.name}: {len(plain)} plain and {len(per_round)} traced rounds, two more "
        f"in fresh processes with PYTHONHASHSEED 1 and 2; counts repeat: {same}")
    extra = {
        "configs.weight_tables.hit_share": share,
        "serialize.bytes_out": 0,
        "cli.startup_s": 0.0,
        "cli.main_s": 0.0,
        "generate.self_s": generate_self,
        "trace.overhead": overhead(per_round, plain),
    }
    return result(same, runner, layer_result(per_round, extra))


def hit_share(before, after) -> float:
    """Share of `_weight_tables` lookups that hit, over the warm-up round."""
    hits, misses = after.hits - before.hits, after.misses - before.misses
    return hits / (hits + misses) if hits + misses else 0.0


def count_child(args, hashseed: int) -> dict:
    """The count signature of one traced round in a fresh process."""
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--count-round"]
    out = subprocess.run(argv, env=child_env(PYTHONHASHSEED=str(hashseed)), cwd=ROOT,
                         stdout=subprocess.PIPE, check=True, timeout=170)
    return json.loads(out.stdout.decode().strip().splitlines()[-1])


def count_round(args) -> dict:
    qm = load_program()
    wl = workloads.WORKLOADS[args.workload](qm)
    runner = InProcess(wl, wl.make_inputs(args.seed), None)
    runner.warm_up(check=False)
    tracer = tracing.Tracer()
    tracer.install()
    runner.run_round()
    tracer.uninstall()
    return tracing.count_signature(tracer.phase_summary())


def write_spans(args, spans) -> None:
    with open(os.path.join(OUT, f"spans-{args.workload}-{args.seed}.json"), "w") as fh:
        json.dump(spans, fh)


def run_cli(args) -> dict:
    wl = workloads.ChambersCli()
    runner = CliRounds(wl, wl.make_probes(args.seed))
    try:
        runner.warm_up()
        if not args.trace:
            setup_s = measure_setup(args)
            rounds = timed_loop(runner, args.seconds)
            return result(True, runner, end_to_end(setup_s, rounds, runner.peak_kib / 1024))
        plain = timed_loop(runner, args.seconds / 2)
        spans_dir = os.path.join(OUT, f"spans-{args.workload}-{args.seed}")
        os.makedirs(spans_dir, exist_ok=True)

        def one_round(k):
            # alternate the hash seed of the children from round to round
            _, total, reports = runner.timed_round(
                traced=True, hashseed=1 + k % 2, spans_dir=spans_dir if k == 0 else None)
            scaled, raw = {}, {}
            startup = main = 0.0
            for scale, report, _ in reports:
                if report is None:  # counted as a failed operation
                    continue
                tracing.add_summaries(scaled, report["summary"], scale)
                tracing.add_summaries(raw, report["summary"], 1.0)
                startup += report["startup_s"] * scale
                main += report["main_s"] * scale
            metrics = tracing.layer_metrics(scaled)
            metrics.update({"serialize.bytes_out": sum(r[2] for r in reports),
                            "cli.startup_s": startup, "cli.main_s": main, "round_s": total})
            return metrics, tracing.count_signature(raw)

        per_round, signatures = traced_rounds(args.seconds / 2, one_round)
    finally:
        runner.cleanup()
    same = repeats(signatures)
    log(f"{wl.name}: {len(plain)} plain and {len(per_round)} traced rounds, children "
        f"with PYTHONHASHSEED 1 and 2 in turn; counts repeat: {same}")
    extra = {
        "configs.weight_tables.hit_share": 0.0,
        "generate.self_s": 0.0,
        "trace.overhead": overhead(per_round, plain),
    }
    return result(same, runner, layer_result(per_round, extra))


def probe_setup(args) -> dict:
    """Make the inputs as a run would, sampling the reference pass; report
    the moment they are ready and the passes."""
    with refclock.Sampler() as clock:
        if args.workload == "chambers-cli":
            workloads.ChambersCli().make_probes(args.seed)
        else:
            workloads.WORKLOADS[args.workload](load_program()).make_inputs(args.seed)
        ready = time.perf_counter()
    return {"ready": ready, "passes": clock.passes}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--count-round", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "quivermoduli", "__init__.py")):
        log("error: run from the root of a quivermoduli checkout; src/quivermoduli is missing")
        return 2
    if args.probe_setup:
        print(json.dumps(probe_setup(args)), flush=True)
        return 0
    if args.count_round:
        print(json.dumps(count_round(args)), flush=True)
        return 0
    os.makedirs(OUT, exist_ok=True)
    if not refclock.pin_to_one_cpu():
        log("warning: could not pin to one CPU; calibrated times will be noisier")
    res = run_cli(args) if args.workload == "chambers-cli" else run_in_process(args)
    print(json.dumps(res), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
