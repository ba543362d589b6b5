"""The two greedy-selection workloads: FT+M and FT+M+CI+DS.

Each operation is one ``select(graph, query, budget)`` call on a fixed
graph.  Query vertices come from a permutation of the graph's vertices
drawn from the benchmark seed, so every operation of a run asks about a
different vertex and the same seed always asks the same questions.  A
run times a fixed number of selections, derived from ``--seconds`` and
not from the host's speed, so a seed always measures the same queries.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

import core
from repro.experiments.harness import evaluate_flow, pick_query_vertex
from repro.graph.generators import erdos_renyi_graph, partitioned_graph
from repro.graph.uncertain_graph import UncertainGraph
from repro.selection.base import SelectionResult
from repro.selection.registry import make_selector

#: The graph is the same for every seed; the seed picks the queries.
GRAPH_SEED = 2018
SELECTOR_SEED = 7
#: ``flow`` is the mean of ``evaluate_flow`` over the first FLOW_OPS
#: queries, at the harness's fixed evaluation seed and sample count.
FLOW_OPS = 96
FLOW_SAMPLES = 1000
FLOW_SEED = 12345
#: Operations per pass of the traced run (one untraced, one traced pass).
TRACE_OPS = 16
#: Fresh-process set-ups per run; ``setup_s`` is their median (unscaled:
#: interpreter start and imports do not track the calibration kernel).
SETUP_PROBES = 5
#: Fewest timed selections, so that a tail above the median exists.
MIN_OPS = 30
#: Neighbouring selections whose calibrations set a selection's speed factor.
CALIBRATION_WINDOW = 4


@dataclass(frozen=True)
class SelectionWorkload:
    algorithm: str
    graph: str
    n_vertices: int
    degree: int
    budget: int
    n_samples: int
    #: Selections per second at the calibration's reference speed; a run
    #: of ``seconds`` times ``seconds * ops_per_s`` selections.
    ops_per_s: float

    def n_ops(self, seconds: float) -> int:
        return max(MIN_OPS, round(seconds * self.ops_per_s))

    def make_graph(self) -> UncertainGraph:
        if self.graph == "erdos":
            return erdos_renyi_graph(self.n_vertices, float(self.degree), seed=GRAPH_SEED)
        return partitioned_graph(self.n_vertices, self.degree, seed=GRAPH_SEED)


WORKLOADS: Dict[str, SelectionWorkload] = {
    "select-erdos": SelectionWorkload(
        "FT+M", "erdos", 1000, 6, budget=30, n_samples=500, ops_per_s=5.0
    ),
    "select-partitioned": SelectionWorkload(
        "FT+M+CI+DS", "partitioned", 2000, 6, budget=25, n_samples=500, ops_per_s=6.0
    ),
}


def query_order(graph: UncertainGraph, seed: int) -> List[int]:
    """Every vertex once, in a seed-derived order."""
    vertices = sorted(graph.vertices())
    rng = np.random.default_rng([seed, 1])
    return [vertices[int(index)] for index in rng.permutation(len(vertices))]


def setup(workload: SelectionWorkload, seed: int):
    """Build the graph and selector and run one untimed warm-up selection.

    The warm-up asks about the highest-degree vertex, the same for every
    seed, so the set-up does the same work whatever the seed.
    """
    graph = workload.make_graph()
    selector = make_selector(
        workload.algorithm, n_samples=workload.n_samples, seed=SELECTOR_SEED
    )
    order = query_order(graph, seed)
    selector.select(graph, pick_query_vertex(graph), workload.budget)
    return graph, selector, order


def check_selection(
    graph: UncertainGraph, query: int, budget: int, result: SelectionResult
) -> Optional[str]:
    """``None`` when the result is a valid greedy selection, else the defect.

    The edges must be distinct graph edges, each touching the component
    the earlier edges grew around the query, and exactly ``budget`` of
    them unless no candidate edge is left.
    """
    edges = result.selected_edges
    if len(set(edges)) != len(edges):
        return "duplicate edges"
    if len(edges) > budget:
        return f"{len(edges)} edges for budget {budget}"
    connected = {query}
    for edge in edges:
        if not graph.has_edge(edge.u, edge.v):
            return f"{edge} is not a graph edge"
        if edge.u not in connected and edge.v not in connected:
            return f"{edge} does not touch the query's component"
        connected.update((edge.u, edge.v))
    if len(edges) < budget:
        chosen = set(edges)
        for vertex in connected:
            for edge in graph.incident_edges(vertex):
                if edge not in chosen:
                    return f"stopped at {len(edges)} edges with candidates left"
    flow = result.expected_flow
    if not math.isfinite(flow) or flow < 0:
        return f"expected flow {flow!r}"
    return None


def fingerprint(result: SelectionResult) -> Tuple:
    """Everything a selection returns except its timings, for bit-equality."""
    return (
        tuple((edge.u, edge.v) for edge in result.selected_edges),
        result.expected_flow.hex(),
        tuple(sorted(result.extras.items())),
        tuple(
            (it.edge, it.gain.hex(), it.candidates_probed, it.candidates_pruned,
             it.candidates_delayed)
            for it in result.iterations
        ),
    )


def probe_setup(name: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter to its first timed operation."""
    command = [
        sys.executable, str(core.ROOT / "perfbench" / "run.py"),
        "--workload", name, "--seed", str(seed), "--setup-only",
    ]
    started = perf_counter()
    with subprocess.Popen(
        command, stdout=subprocess.PIPE, cwd=str(core.ROOT)
    ) as process:
        line = process.stdout.readline()
        elapsed = perf_counter() - started
        process.stdout.read()
        if process.wait(timeout=60) != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up probe failed: {line!r}")
    return elapsed


def _run_ops(graph, selector, queries, budget):
    """Select for each query.

    Returns the results, the raw seconds of each selection and the
    calibration taken right before it (see :func:`_window_factors`).
    """
    results, durations, calibrations = [], [], []
    for query in queries:
        calibrations.append(core.calibrate())
        started = perf_counter()
        result = selector.select(graph, query, budget)
        durations.append(perf_counter() - started)
        results.append((query, result))
    return results, durations, calibrations


def _window_factors(calibrations: List[float]) -> List[float]:
    """Speed factor per position: the median calibration within the window around it.

    The median of the calibrations taken before the selections within
    :data:`CALIBRATION_WINDOW` places follows the host's drift without the
    noise of a single calibration.
    """
    return [
        core.speed_factor(statistics.median(
            calibrations[max(0, i - CALIBRATION_WINDOW):i + CALIBRATION_WINDOW + 1]
        ))
        for i in range(len(calibrations))
    ]


def _gate(graph, budget, results) -> List[str]:
    defects = []
    for query, result in results:
        defect = check_selection(graph, query, budget, result)
        if defect is not None:
            defects.append(f"query {query}: {defect}")
    return defects


def run_timed(name: str, seed: int, seconds: float) -> Dict[str, object]:
    """End-to-end run: the timed phase with set-up probes between its slices, then the gates.

    Selection times are reported at the reference speed (see
    :func:`core.calibrate` and :func:`_window_factors`).
    """
    workload = WORKLOADS[name]
    graph, selector, order = setup(workload, seed)

    n_ops = workload.n_ops(seconds)
    queries = order[:n_ops]
    # One set-up probe before each of SETUP_PROBES slices of the timed
    # phase, so the probes sample the host's speed over the whole run
    # rather than over the few seconds they take back to back.
    step = math.ceil(n_ops / SETUP_PROBES)
    probes, results, durations, calibrations = [], [], [], []
    wall = 0.0
    for first in range(0, n_ops, step):
        probes.append(probe_setup(name, seed))
        started = perf_counter()
        part = _run_ops(graph, selector, queries[first:first + step], workload.budget)
        wall += perf_counter() - started
        for total, values in zip((results, durations, calibrations), part):
            total.extend(values)
    factors = _window_factors(calibrations)
    rss = core.peak_rss_mb()

    # outside the timed phase: the gates, a determinism re-run and flow
    defects = _gate(graph, workload.budget, results)
    first_query, first = results[0]
    if fingerprint(selector.select(graph, first_query, workload.budget)) != fingerprint(first):
        defects.append(f"query {first_query}: a repeated selection differs")
    flow_results = [result for _, result in results[:FLOW_OPS]]
    extra, _, _ = _run_ops(graph, selector, order[len(flow_results):FLOW_OPS], workload.budget)
    defects += _gate(graph, workload.budget, extra)
    flow_results += [result for _, result in extra]
    flows = [
        evaluate_flow(
            graph, result.selected_edges, result.query, n_samples=FLOW_SAMPLES, seed=FLOW_SEED
        )
        for result in flow_results
    ]

    scaled_ms = [1000.0 * d * f for d, f in zip(durations, factors)]
    latency = core.latency_summary(scaled_ms)
    attempted = len(results) + len(extra)
    failed = min(attempted, len(defects))
    metrics = {
        "setup_s": statistics.median(probes),
        "op_ms.p50": latency["p50"],
        "op_ms.tail": latency["tail"],
        "ops_per_s": 1000.0 * len(results) / sum(scaled_ms),
        "flow": statistics.fmean(flows),
        "success_rate": (attempted - failed) / attempted,
        "peak_rss_mb": rss,
    }
    raw = core.latency_summary([1000.0 * d for d in durations])
    report = {
        "workload": dict(workload.__dict__, graph_seed=GRAPH_SEED, selector_seed=SELECTOR_SEED),
        "n_vertices": graph.n_vertices,
        "n_edges": graph.n_edges,
        "latency_ms": latency,
        "raw": {
            "latency_ms": raw,
            "ops_per_s": len(results) / wall,
            "speed_factor": {
                "median": statistics.median(factors), "min": min(factors), "max": max(factors),
            },
        },
        "timed_wall_s": wall,
        "setup_samples_s": probes,
        "flow": {"ops": len(flows), "n_samples": FLOW_SAMPLES, "seed": FLOW_SEED,
                 "selected_after_timing": len(extra)},
        "defects": defects[:20],
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "report": report}


def run_traced(name: str, seed: int, out_dir) -> Dict[str, object]:
    """Per-layer run: each query selected once untraced and once traced.

    The two runs of a query are adjacent, and which goes first alternates,
    so neither drift nor the layout cache warmed by the first run favours
    one side in the overhead estimate.
    """
    from tracing import SELECTION_TARGETS, SpanRecorder, install_layers, layer_metrics, layer_totals

    workload = WORKLOADS[name]
    graph, selector, order = setup(workload, seed)
    recorder = SpanRecorder()
    runs = {False: [], True: []}
    calibrations, sides = [], []
    for position, query in enumerate(order[:TRACE_OPS]):
        for traced_run in ((False, True) if position % 2 == 0 else (True, False)):
            calibrations.append(core.calibrate())
            sides.append(traced_run)
            if traced_run:
                install_layers(recorder, SELECTION_TARGETS)
            try:
                started = perf_counter()
                result = selector.select(graph, query, workload.budget)
                elapsed = perf_counter() - started
            finally:
                recorder.uninstall()
            runs[traced_run].append(((query, result), elapsed))
    factors = {False: [], True: []}
    for traced_run, factor in zip(sides, _window_factors(calibrations)):
        factors[traced_run].append(factor)
    plain = [run for run, _ in runs[False]]
    traced = [run for run, _ in runs[True]]
    plain_p50 = 1000.0 * statistics.median(
        elapsed * factor for (_, elapsed), factor in zip(runs[False], factors[False])
    )
    traced_p50 = 1000.0 * statistics.median(
        elapsed * factor for (_, elapsed), factor in zip(runs[True], factors[True])
    )

    defects = _gate(graph, workload.budget, plain) + _gate(graph, workload.budget, traced)
    for (query, a), (_, b) in zip(plain, traced):
        if fingerprint(a) != fingerprint(b):
            defects.append(f"query {query}: traced selection differs from untraced")

    totals = layer_totals(recorder.spans)
    metrics = layer_metrics(totals)
    results = [result for _, result in traced]
    metrics["selection.probes"] = sum(
        it.candidates_probed for result in results for it in result.iterations
    )
    metrics["selection.pruned"] = sum(r.extras["pruned_candidates"] for r in results)
    metrics["selection.delayed"] = sum(r.extras["delayed_candidates"] for r in results)
    metrics["ftree.sampled_components"] = sum(r.extras["sampled_components"] for r in results)
    metrics["ftree.exact_components"] = sum(r.extras["exact_components"] for r in results)
    metrics["ftree.memo.hit_rate"] = statistics.fmean(
        r.extras.get("memo_hit_rate", 0.0) for r in results
    )
    metrics["trace.overhead_ms"] = traced_p50 - plain_p50
    metrics["trace.overhead_pct"] = 100.0 * (traced_p50 / plain_p50 - 1.0)

    spans_path = out_dir / f"spans-{name}-seed{seed}.json.gz"
    recorder.dump(spans_path)
    attempted = len(plain) + len(traced)
    failed = min(attempted, len(defects))
    report = {
        "workload": dict(workload.__dict__, graph_seed=GRAPH_SEED, selector_seed=SELECTOR_SEED),
        "trace_ops": TRACE_OPS,
        "untraced_p50_ms": plain_p50,
        "traced_p50_ms": traced_p50,
        "spans": len(recorder.spans),
        "spans_file": str(spans_path.relative_to(core.ROOT)),
        "layers": totals,
        "defects": defects[:20],
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "report": report}
