#!/usr/bin/env python3
"""Benchmark of the F-tree reproduction: greedy selection and served queries.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload select-erdos --seed 1 --seconds 20 --trace 0

Workloads (``BENCHMARK.json`` says why each was chosen):

* ``select-erdos`` -- FT+M greedy selection on an Erdős–Rényi graph;
* ``select-partitioned`` -- FT+M+CI+DS on the paper's partitioned graph;
* ``served-mixed`` -- a ReproServer child under closed-loop mixed traffic.

``--trace 0`` measures the end-to-end metrics over a fixed number of
operations sized by ``--seconds`` (about that many seconds of work on
the reference machine; ``perfbench/DESIGN.md`` gives the rates), so the
same seed always measures the same operations.
``--trace 1`` wraps each layer's public functions and reports per-layer
metrics over a fixed number of operations, plus the tracing overhead.
Either way the outputs are checked, a readable summary and a report
path are printed, and the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402

import core  # noqa: E402

WORKLOADS = ("select-erdos", "select-partitioned", "served-mixed")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--seconds", type=float, default=20.0, help="sizes the number of timed operations"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def environment() -> dict:
    from _helpers import bench_environment
    from repro.parallel.executor import get_default_executor
    from repro.reachability.backends import make_backend

    executor = get_default_executor()
    return {
        **bench_environment(),
        "resolved_backend": make_backend(None).name,
        "resolved_executor": None if executor is None else repr(executor),
    }


def _number(value):
    """A finite metric as a float; anything else as JSON null (and the run is incorrect)."""
    if value is None or not math.isfinite(value):
        return None
    return float(value)


def main(argv=None) -> int:
    args = parse_args(argv)
    core.ensure_paths()
    if args.workload == "served-mixed":
        import served_workload as workload
    else:
        import select_workloads as workload
    imported_s = time.perf_counter() - STARTED

    if args.setup_only and args.workload != "served-mixed":
        workload.setup(workload.WORKLOADS[args.workload], args.seed)
        sys.stdout.write("ready\n")
        sys.stdout.flush()
        return 0

    core.OUT_DIR.mkdir(exist_ok=True)
    if args.trace:
        if args.workload == "served-mixed":
            outcome = workload.run_traced(args.seed, core.OUT_DIR)
        else:
            outcome = workload.run_traced(args.workload, args.seed, core.OUT_DIR)
        table = core.metric_table("per_layer")
    else:
        if args.workload == "served-mixed":
            outcome = workload.run_timed(args.seed, args.seconds, imported_s)
        else:
            outcome = workload.run_timed(args.workload, args.seed, args.seconds)
        table = core.metric_table("end_to_end")

    metrics = outcome["metrics"]
    missing = sorted(set(table) - set(metrics))
    bad = sorted(name for name in table if name in metrics and _number(metrics[name]) is None)
    correct = outcome["failed"] == 0 and not missing and not bad
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "correct": correct,
        "missing_metrics": missing,
        "non_finite_metrics": bad,
        **outcome["report"],
    }
    report_path = core.OUT_DIR / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=2, default=str) + "\n")

    for name, (unit, _) in table.items():
        value = metrics.get(name)
        sys.stdout.write(f"{name:45s} {value!r:>24} {unit}\n")
    sys.stdout.write(f"report: {report_path.relative_to(core.ROOT)}\n")
    result = {
        "correct": correct,
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": {
            name: {"value": _number(metrics.get(name)), "unit": unit}
            for name, (unit, _) in table.items()
        },
    }
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
