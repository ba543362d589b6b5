#!/usr/bin/env python3
"""Smoke tests of the benchmark itself (about half a minute).

    python3 perfbench/smoke.py            # all tests
    python3 perfbench/smoke.py -k Quick   # the ones that run no workload

The file is not named ``test_*.py`` so the library's test suite does not
collect it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import core

core.ensure_paths()

from repro.graph.uncertain_graph import UncertainGraph  # noqa: E402
from repro.selection.base import SelectionResult  # noqa: E402
from repro.types import Edge  # noqa: E402

def run_benchmark(*args: str, cwd: Path = core.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        capture_output=True, cwd=str(cwd), timeout=170,
    )


def last_json(completed: subprocess.CompletedProcess) -> dict:
    return json.loads(completed.stdout.decode().strip().splitlines()[-1])


class QuickTests(unittest.TestCase):
    def test_span_metrics_and_bounds_match_benchmark_json(self):
        per_layer = core.metric_table("per_layer")
        for span, fields in core.SPAN_METRICS.items():
            for field in fields:
                self.assertIn(f"{span}.{field}", per_layer)
        spec = json.loads(core.BENCHMARK.read_text())
        setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual(setup["bound"], max(m["bound"] for m in spec["end_to_end"]))

    def test_tail_keeps_ten_samples_above_it(self):
        summary = core.latency_summary([float(i) for i in range(67)])
        self.assertEqual((summary["tail_percentile"], summary["tail"]), (85, 56.0))
        self.assertEqual(summary["tail_above"], 10)
        self.assertEqual(core.tail_percentile(100), 90)
        summary = core.latency_summary([float(i) for i in range(1000)])
        self.assertEqual((summary["tail_percentile"], summary["tail_above"]), (99, 10))
        self.assertGreater(summary["tail"], summary["p50"])

    def test_self_time_subtracts_child_spans(self):
        from tracing import SpanRecorder, layer_totals

        recorder = SpanRecorder()
        clock = iter([0.0, 1.0, 3.0, 10.0])

        def child():
            return None

        def generate():
            yield 1
            yield 2

        traced_child = recorder.wrap("child", child)

        def parent():
            traced_child()

        import tracing

        real_clock = tracing.perf_counter
        tracing.perf_counter = lambda: next(clock)
        try:
            recorder.wrap("parent", parent)()
        finally:
            tracing.perf_counter = real_clock
        self.assertEqual(list(recorder.wrap("graph.enumerate_worlds", generate)()), [1, 2])
        totals = layer_totals(recorder.spans)
        self.assertEqual(totals["parent"]["self_ms"], 8000.0)
        self.assertEqual(totals["child"]["self_ms"], 2000.0)
        self.assertEqual(totals["graph.enumerate_worlds"]["calls"], 1)

    def test_install_patches_and_restores(self):
        from tracing import SpanRecorder

        from repro.ftree.ftree import FTree
        import repro.ftree.sampler as sampler

        clone, enumerate_worlds = FTree.clone, sampler.enumerate_worlds
        recorder = SpanRecorder()
        recorder.install([
            ("ftree.clone", "repro.ftree.ftree:FTree.clone"),
            ("graph.enumerate_worlds", "repro.ftree.sampler:enumerate_worlds"),
        ])
        self.assertIsNot(FTree.clone, clone)
        self.assertIsNot(sampler.enumerate_worlds, enumerate_worlds)
        recorder.uninstall()
        self.assertIs(FTree.clone, clone)
        self.assertIs(sampler.enumerate_worlds, enumerate_worlds)

    def test_selection_gate_rejects_invalid_selections(self):
        from select_workloads import check_selection

        graph = UncertainGraph()
        for vertex in range(4):
            graph.add_vertex(vertex)
        for u, v in ((0, 1), (1, 2), (2, 3)):
            graph.add_edge(u, v, 0.5)

        def result(*pairs):
            return SelectionResult("FT+M", 0, 2, [Edge(u, v) for u, v in pairs], 1.0, 0.0)

        self.assertIsNone(check_selection(graph, 0, 2, result((0, 1), (1, 2))))
        self.assertIn("does not touch", check_selection(graph, 0, 2, result((0, 1), (2, 3))))
        self.assertIn("duplicate", check_selection(graph, 0, 2, result((0, 1), (0, 1))))
        self.assertIn("candidates left", check_selection(graph, 0, 2, result((0, 1))))

    def test_request_stream_is_seeded_with_one_miss_per_block(self):
        from served_workload import HOT_GROUPS, MISS_PERIOD, RequestStream

        first, again, other = RequestStream(5), RequestStream(5), RequestStream(6)
        indices = range(4 * MISS_PERIOD)
        self.assertEqual([first.payload(i) for i in indices], [again.payload(i) for i in indices])
        self.assertNotEqual(
            [first.payload(i) for i in indices], [other.payload(i) for i in indices]
        )
        for block in range(4):
            block_indices = range(block * MISS_PERIOD, (block + 1) * MISS_PERIOD)
            self.assertEqual(sum(first.is_miss(i) for i in block_indices), 1)
            payloads = [first.payload(i) for i in block_indices]
            flows = [p for p in payloads if p["kind"] == "expected_flow"]
            self.assertEqual(len(flows), HOT_GROUPS)
            self.assertTrue(all(p["target"] != p["source"] for p in payloads if p not in flows))

    def test_fails_without_a_checkout(self):
        core.OUT_DIR.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=core.OUT_DIR) as bare:
            bare = Path(bare)
            shutil.copy(core.ROOT / "BENCHMARK.json", bare)
            shutil.copytree(
                core.ROOT / "perfbench", bare / "perfbench",
                ignore=shutil.ignore_patterns("__pycache__"),
            )
            completed = run_benchmark(
                "--workload", "select-erdos", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=bare,
            )
        self.assertNotEqual(completed.returncode, 0)
        self.assertNotIn(b'"metrics"', completed.stdout)


class WorkloadTests(unittest.TestCase):
    def assert_result(self, completed, table):
        self.assertEqual(completed.returncode, 0, completed.stderr.decode()[-2000:])
        result = last_json(completed)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), set(table))
        for name, (unit, _) in table.items():
            self.assertEqual(result["metrics"][name]["unit"], unit)
            self.assertIsInstance(result["metrics"][name]["value"], float)
        return result

    def test_select_partitioned_traced(self):
        result = self.assert_result(
            run_benchmark("--workload", "select-partitioned", "--seed", "3", "--trace", "1"),
            core.metric_table("per_layer"),
        )
        metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
        for name in ("ftree.clone.calls", "ftree.flow_interval.calls", "selection.delayed",
                     "graph.enumerate_worlds.calls", "reachability.sample_worlds.calls"):
            self.assertGreater(metrics[name], 0, name)
        self.assertEqual(metrics["server.batches"], 0)

    def test_served_mixed_timed(self):
        result = self.assert_result(
            run_benchmark(
                "--workload", "served-mixed", "--seed", "3", "--seconds", "2", "--trace", "0"
            ),
            core.metric_table("end_to_end"),
        )
        self.assertEqual(result["metrics"]["success_rate"]["value"], 1.0)
        self.assertGreater(
            result["metrics"]["op_ms.tail"]["value"], result["metrics"]["op_ms.p50"]["value"]
        )


if __name__ == "__main__":
    unittest.main()
