#!/usr/bin/env python3
"""Steadiness mode: run workloads repeatedly in fresh processes and report spreads.

For each workload, runs ``perfbench/run.py`` once per seed (one process
after another, never in parallel) and prints, for every end-to-end
metric, the median, the quartiles and (Q3 - Q1) / median next to the
metric's bound from ``BENCHMARK.json``.  With ``--sets 2`` the whole
seed list runs twice and the second set's median is compared with the
first's, in the metric's worse direction.  ``setup_s`` is exempt from
the spread check but not from the set-to-set check.

    python3 perfbench/steadiness.py --workloads select-erdos --seeds 1-5
    python3 perfbench/steadiness.py --seeds 1-10 --sets 2
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

import core


def parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [
        sys.executable, str(core.ROOT / "perfbench" / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    started = time.perf_counter()
    completed = subprocess.run(command, capture_output=True, cwd=str(core.ROOT), timeout=600)
    elapsed = time.perf_counter() - started
    lines = completed.stdout.decode().strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if completed.returncode != 0 or not result.get("correct"):
        sys.stderr.write(completed.stderr.decode()[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {completed.returncode}, result {result}")
    result["elapsed_s"] = elapsed
    return result


def summarize(runs: List[dict], end_to_end: List[dict]) -> Dict[str, dict]:
    summary = {}
    for metric in end_to_end:
        values = [run["metrics"][metric["name"]]["value"] for run in runs]
        spread = core.quartile_spread(values)
        spread["bound"] = metric["bound"]
        spread["values"] = values
        summary[metric["name"]] = spread
    return summary


def main() -> int:
    spec = json.loads(core.BENCHMARK.read_text())
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--sets", type=int, default=1)
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    end_to_end = spec["end_to_end"]
    better = {metric["name"]: metric["better"] for metric in end_to_end}
    verdict = True
    record: Dict[str, object] = {"seeds": seeds, "seconds": args.seconds, "sets": {}}

    for workload in args.workloads.split(","):
        sets = []
        for set_index in range(args.sets):
            runs = []
            for seed in seeds:
                run = run_once(workload, seed, args.seconds)
                runs.append(run)
                sys.stdout.write(
                    f"{workload} set {set_index + 1} seed {seed}: {run['elapsed_s']:.1f}s "
                    + " ".join(f"{k}={v['value']:.4g}" for k, v in run["metrics"].items()) + "\n"
                )
                sys.stdout.flush()
            sets.append(summarize(runs, end_to_end))
        record["sets"][workload] = sets
        sys.stdout.write(f"\n{workload}: median [q1, q3] iqr/median (bound; target < bound/3)\n")
        for metric in end_to_end:
            name = metric["name"]
            for set_index, summary in enumerate(sets):
                row = summary[name]
                exempt = name == "setup_s"
                ok = exempt or row["iqr_over_median"] <= metric["bound"]
                steady = exempt or row["iqr_over_median"] < metric["bound"] / 3
                verdict &= ok
                verdict_word = (
                    "exempt" if exempt else "steady" if steady else "ok" if ok else "TOO NOISY"
                )
                sys.stdout.write(
                    f"  {name:14s} set {set_index + 1}: {row['median']:.5g} "
                    f"[{row['q1']:.5g}, {row['q3']:.5g}] {row['iqr_over_median']:.4f} "
                    f"(bound {metric['bound']}) "
                    f"{verdict_word}\n"
                )
            if len(sets) > 1:
                first, second = sets[0][name]["median"], sets[1][name]["median"]
                change = (second - first) / abs(first) if first else 0.0
                worse = change if better[name] == "lower" else -change
                ok = worse <= metric["bound"]
                verdict &= ok
                sys.stdout.write(
                    f"  {name:14s} set 2 vs 1: {100 * change:+.2f}% "
                    f"({'ok' if ok else 'WORSE THAN BOUND'})\n"
                )
    core.OUT_DIR.mkdir(exist_ok=True)
    out = core.OUT_DIR / f"steadiness-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    sys.stdout.write(f"\nrecord: {Path(out).relative_to(core.ROOT)}\n")
    sys.stdout.write("PASS\n" if verdict else "FAIL\n")
    return 0 if verdict else 1


if __name__ == "__main__":
    sys.exit(main())
