"""Run one ``qml`` command the way the console script does, measured from
inside.

    python3 qmlbench/launch.py REPORT_JSON SPANS -- chambers --mode qn --n 5

SPANS is ``-`` for an untraced run, ``trace`` to install the tracer, or a
file name to install it and also write the raw spans there.  The program's
output goes to standard output as with ``qml``, and the exit code is
``qml``'s.  A reference sampler (see refclock.py) runs in this process from
the start.  At exit REPORT_JSON receives the reference passes,
``startup_s`` (from the spawn time the parent puts in QMLBENCH_SPAWN to
the moment ``quivermoduli.cli`` is imported), ``main_s`` (the duration of
``cli.main``) and, when traced, the folded spans and counts.
"""
from __future__ import annotations

import json
import os
import sys
import time

import refclock


def main() -> int:
    report_path, spans, sep, *qml_args = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: launch.py REPORT_JSON -|trace|SPANS_JSON -- QML_ARGS...")
    with refclock.Sampler() as clock:
        from quivermoduli import cli

        startup_s = time.perf_counter() - float(os.environ["QMLBENCH_SPAWN"])
        tracer = None
        if spans != "-":
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
        t0 = time.perf_counter()
        try:
            code = cli.main(qml_args)
        finally:
            main_s = time.perf_counter() - t0
            sys.stdout.flush()
            if tracer:
                tracer.uninstall()
    report = {"passes": clock.passes, "startup_s": startup_s, "main_s": main_s}
    if tracer:
        if spans != "trace":
            with open(spans, "w") as fh:
                json.dump(tracer.raw_spans(), fh)
        report["summary"] = tracer.phase_summary()
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
