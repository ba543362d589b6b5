"""Shared plumbing of the benchmark: paths, statistics, metric tables.

The benchmark runs from the root of a source checkout.  It imports the
library from ``src/`` and the shared ``bench_environment`` helper from
``benchmarks/``; :func:`ensure_paths` puts both on ``sys.path`` and
fails loudly when the checkout does not hold them.
"""

from __future__ import annotations

import gc
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

#: ``BENCHMARK.json`` at the checkout root names every metric with its
#: unit and better-direction; the benchmark reports exactly those.
BENCHMARK = ROOT / "BENCHMARK.json"


def metric_table(kind: str) -> Dict[str, Tuple[str, str]]:
    """``end_to_end`` or ``per_layer`` metrics of BENCHMARK.json: name -> (unit, better)."""
    spec = json.loads(BENCHMARK.read_text())
    return {metric["name"]: (metric["unit"], metric["better"]) for metric in spec[kind]}


#: Span names whose ``calls`` / ``self_ms`` become per-layer metrics.
SPAN_METRICS: Dict[str, Tuple[str, ...]] = {
    "selection.select": ("self_ms",),
    "ftree.clone": ("calls", "self_ms"),
    "ftree.insert_edge": ("calls", "self_ms"),
    "ftree.expected_flow": ("calls", "self_ms"),
    "ftree.flow_interval": ("calls", "self_ms"),
    "ftree.sampler": ("calls", "self_ms"),
    "graph.enumerate_worlds": ("calls", "self_ms"),
    "reachability.component_reachability": ("calls", "self_ms"),
    "reachability.sample_worlds": ("calls", "self_ms"),
    "reachability.sample_flips": ("self_ms",),
    "reachability.propagate": ("self_ms",),
    "reachability.layout": ("self_ms",),
    "service.evaluate": ("calls", "self_ms"),
    "service.plan": ("self_ms",),
    "server.decode": ("self_ms",),
    "server.encode": ("self_ms",),
}


# ----------------------------------------------------------------------
# machine-speed calibration
# ----------------------------------------------------------------------
#: Nominal duration of one calibration kernel run.  Reported times are
#: scaled to a machine on which the kernel takes exactly this long.
CALIBRATION_REF_S = 0.004


class _Node:
    __slots__ = ("key", "value", "link")

    def __init__(self, key, value) -> None:
        self.key = key
        self.value = value
        self.link = None


_CALIBRATION_BASE = {
    group: {(group, item): _Node(group, item) for item in range(6)} for group in range(300)
}


_CALIBRATION_ARRAY = np.random.default_rng(0).random(100_000)


def _calibration_kernel() -> int:
    """A fixed mix of the three kinds of work the selections do.

    It copies a dict of dicts and builds small objects and a set (like
    the F-tree's clone and flow bookkeeping), runs a plain arithmetic
    loop, and makes NumPy passes over an array (like world sampling).
    On the test machine, five minutes of alternating selection passes
    and kernel runs gave a log-scale spread of 0.18 in raw selection
    time; scaled by the container part alone it was 0.11, scaled by the
    whole mix 0.05 to 0.06.
    """
    copied = {group: dict(items) for group, items in _CALIBRATION_BASE.items()}
    total = 0
    for items in copied.values():
        for key, node in items.items():
            total += _Node(node.value, key).key
    total += len({(i, i + 1) for i in range(2000)})
    for i in range(15000):
        total += i * i % 7
    mask = _CALIBRATION_ARRAY < 0.3
    return total + int(np.cumsum(mask)[-1]) + len(np.flatnonzero(mask))


def calibrate(repeats: int = 3) -> float:
    """Median seconds of ``repeats`` kernel runs: the machine's current speed.

    The garbage collector is paused while the kernel runs.  Otherwise the
    kernel's allocations would trigger collections that walk whatever
    heap the program left behind, and a program that keeps more objects
    alive would slow the kernel and so flatter its own scaled times.
    """
    samples = []
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            started = time.perf_counter()
            _calibration_kernel()
            samples.append(time.perf_counter() - started)
    finally:
        if was_enabled:
            gc.enable()
    return statistics.median(samples)


def speed_factor(calibration_s: float) -> float:
    """Multiply a measured duration by this to express it at the reference speed."""
    return CALIBRATION_REF_S / calibration_s


def ensure_paths() -> None:
    """Put ``src/`` and ``benchmarks/`` on ``sys.path`` or exit with code 2."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no library sources under {SRC}; run from a full checkout\n")
        raise SystemExit(2)
    for path in (str(ROOT / "benchmarks"), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def nearest_rank(sorted_values: Sequence[float], percentile: float) -> Tuple[float, int]:
    """Nearest-rank percentile and the number of samples strictly above its rank."""
    n = len(sorted_values)
    rank = max(1, math.ceil(percentile / 100.0 * n))
    return sorted_values[rank - 1], n - rank


#: The tail percentile keeps at least this many samples above it.
TAIL_SAMPLES_ABOVE = 10


def tail_percentile(n_ops: int) -> int:
    """The highest whole percentile with at least ten samples above its nearest rank.

    Every workload times a fixed number of operations, so the percentile
    is fixed too and does not follow the host's speed.
    """
    for percentile in range(99, 50, -1):
        if n_ops - math.ceil(percentile / 100.0 * n_ops) >= TAIL_SAMPLES_ABOVE:
            return percentile
    raise ValueError(f"{n_ops} operations leave no tail above the median")


def latency_summary(durations_ms: List[float]) -> Dict[str, float]:
    """Median and tail latency, with the tail's percentile and sample counts."""
    ordered = sorted(durations_ms)
    percentile = tail_percentile(len(ordered))
    tail, above = nearest_rank(ordered, percentile)
    return {
        "n_ops": len(ordered),
        "p50": statistics.median(ordered),
        "tail": tail,
        "tail_percentile": percentile,
        "tail_above": above,
        "min": ordered[0],
        "max": ordered[-1],
    }


def quartile_spread(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and (Q3 - Q1) / median, as ``statistics.quantiles`` gives them."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr_over_median": (q3 - q1) / abs(median) if median else float("inf"),
    }
