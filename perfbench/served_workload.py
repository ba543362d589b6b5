"""Served mixed traffic: a ReproServer child under a closed-loop load.

The server runs in a child process started by ``server_child.py``.  The
benchmark process drives it over loopback TCP with a closed loop: one
connection with four callers, and every caller waits for its reply
before it sends the next request.  The request stream repeats
the repository's own served mix (``benchmarks/bench_queries.py``
``build_workload``, which ``bench_server.py`` sends to ReproServer): per
hot source one ``expected_flow`` and fifteen ``pair_reachability``
queries, over four sources.  Those hit world batches warmed at server
start.  One request in each block of :data:`MISS_PERIOD` uses a fresh
seed instead, so it samples new worlds and inserts them into the world
cache (evicting older entries).  The run sends a fixed number of
requests, derived from ``--seconds`` and not from the host's speed.
The load generator times the calibration kernel of :mod:`core` before
every chunk of :data:`CHUNK` requests, while no request is in flight,
and the reported times are scaled to the reference speed by the
median of those calibrations.

Request ids are the stream indices, unique across connections, so
a traced server can say which evaluation answered which request.  Both
processes stamp times with ``time.perf_counter``, which reads the
system-wide monotonic clock on Linux, so their timestamps compare.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import math
import os
import statistics
import subprocess
import sys
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

import core
from repro.graph.generators import erdos_renyi_graph
from repro.server import protocol
from repro.service import (
    BatchEvaluator,
    QueryRequest,
    request_from_dict,
    request_to_dict,
    result_to_dict,
)

GRAPH_SEED = 2018
N_VERTICES = 1000
DEGREE = 6.0
N_SAMPLES = 1000
#: The repository's served mix: 4 sources, each with 1 expected-flow and
#: 15 pair-reachability queries per block of 64.
HOT_GROUPS = 4
PAIRS_PER_FLOW = 15
MISS_PERIOD = HOT_GROUPS * (1 + PAIRS_PER_FLOW)
#: Requests per second a run is sized by: a run of ``seconds`` sends
#: ``seconds * REQUESTS_PER_S`` requests (at least MIN_REQUESTS).
REQUESTS_PER_S = 400
MIN_REQUESTS = 256
#: One connection with four callers.  At most about one batch in three
#: then holds an expected-flow request or a miss, so the median falls
#: among the batches of hot pair queries.  With eight callers about half
#: the batches held a flow, the median fell on the step between the two
#: kinds of batch, and its IQR over median across seeds reached 0.31; a
#: second connection made the batches alternate between the connections.
CONNECTIONS = 1
CALLERS_PER_CONNECTION = 4
#: Timed requests between two calibrations of the host's speed.
CHUNK = 256
#: Requests per pass of the traced run (one untraced, one traced server).
TRACE_REQUESTS = 2048
#: ``flow`` is the mean served expected flow over the first FLOW_REQUESTS
#: distinct expected-flow requests of the stream: the 4 hot ones and the
#: first fresh-seed ones.
FLOW_REQUESTS = 32
SETUP_PROBES = 5
REPLY_TIMEOUT_S = 60.0
#: Environment pins of the server child.  One BLAS thread: the server's
#: event loop and evaluation thread plus the load generator already fill
#: two cores, and extra BLAS threads made throughput swing with the
#: host's load.  One malloc arena: in the evaluation thread's own arena,
#: whether a freed 24 MB flip block could be reused depended on timing,
#: so peak RSS landed on one of two levels 15 % apart from run to run.
SERVER_ENV = {"OPENBLAS_NUM_THREADS": "1", "MALLOC_ARENA_MAX": "1"}
#: Fresh-seed requests draw from here up, above every hot seed.
MISS_SEED_BASE = 2**31


def served_graph():
    return erdos_renyi_graph(N_VERTICES, DEGREE, seed=GRAPH_SEED)


def hot_set(seed: int) -> List[Tuple[int, int]]:
    """The warmed ``(source, seed)`` world groups."""
    rng = np.random.default_rng([seed, 2])
    sources = rng.choice(N_VERTICES, HOT_GROUPS, replace=False)
    seeds = rng.integers(0, MISS_SEED_BASE, HOT_GROUPS)
    return [(int(source), int(s)) for source, s in zip(sources, seeds)]


def warm_requests(seed: int) -> List[QueryRequest]:
    return [
        QueryRequest(kind="expected_flow", source=source, n_samples=N_SAMPLES, seed=s)
        for source, s in hot_set(seed)
    ]


class RequestStream:
    """Stream index -> request payload, the same for the same seed.

    Each block of :data:`MISS_PERIOD` indices is one shuffled copy of the
    repository's mix over the hot groups, with seed-derived pair targets.
    One slot per block is a miss: it keeps its kind but asks about a
    seed-derived source with a fresh seed.  The slot is the same
    seed-derived position in every block, so misses come exactly
    :data:`MISS_PERIOD` requests apart and every run has the same miss
    share.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.hot = hot_set(seed)
        self.miss_slot = int(np.random.default_rng([seed, 4]).integers(MISS_PERIOD))
        self._blocks: Dict[int, List[dict]] = {}

    def _block(self, block: int) -> List[dict]:
        rng = np.random.default_rng([self.seed, 3, block])
        slots = [
            (group, flow)
            for group in range(HOT_GROUPS)
            for flow in [True] + [False] * PAIRS_PER_FLOW
        ]
        order = rng.permutation(MISS_PERIOD)
        miss_source = int(rng.integers(0, N_VERTICES))
        # a target other than the source: draw from N - 1 and skip it
        offsets = rng.integers(0, N_VERTICES - 1, MISS_PERIOD)
        payloads = []
        for slot in range(MISS_PERIOD):
            group, flow = slots[int(order[slot])]
            if slot == self.miss_slot:
                source, seed = miss_source, MISS_SEED_BASE + block * MISS_PERIOD + slot
            else:
                source, seed = self.hot[group]
            target = int(offsets[slot])
            target += target >= source
            if flow:
                request = QueryRequest(
                    kind="expected_flow", source=source, n_samples=N_SAMPLES, seed=seed
                )
            else:
                request = QueryRequest(
                    kind="pair_reachability", source=source, target=target,
                    n_samples=N_SAMPLES, seed=seed,
                )
            payloads.append(request_to_dict(request))
        return payloads

    def payload(self, index: int) -> dict:
        block, slot = divmod(index, MISS_PERIOD)
        payloads = self._blocks.get(block)
        if payloads is None:
            payloads = self._blocks[block] = self._block(block)
        return payloads[slot]

    def is_miss(self, index: int) -> bool:
        return self.payload(index)["seed"] >= MISS_SEED_BASE


# ----------------------------------------------------------------------
# the server child
# ----------------------------------------------------------------------
class ServerProcess:
    """One ``server_child.py`` process: start, wait until ready, stop."""

    def __init__(self, seed: int, trace_path=None) -> None:
        command = [
            sys.executable, str(core.ROOT / "perfbench" / "server_child.py"), "--seed", str(seed)
        ]
        if trace_path is not None:
            command += ["--trace-out", str(trace_path)]
        env = dict(os.environ, **SERVER_ENV)
        started = perf_counter()
        self.process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=str(core.ROOT),
        )
        line = self.process.stdout.readline()
        self.ready_s = perf_counter() - started
        try:
            event = json.loads(line)
        except ValueError:
            self.kill()
            raise RuntimeError(f"server child did not start: {line!r}") from None
        self.port = int(event["port"])

    def stop(self) -> dict:
        """Drain the server; return its final report (peak RSS, layout cache)."""
        try:
            out, _ = self.process.communicate(input=b"stop\n", timeout=120)
        except subprocess.TimeoutExpired:
            self.kill()
            raise
        if self.process.returncode != 0:
            raise RuntimeError(f"server child exited with {self.process.returncode}")
        return json.loads(out.decode().strip().splitlines()[-1])

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()


# ----------------------------------------------------------------------
# the closed-loop client
# ----------------------------------------------------------------------
class Connection:
    """One JSONL connection; replies are matched to requests by id."""

    def __init__(self, reader, writer) -> None:
        self.reader, self.writer = reader, writer
        self.waiting: Dict[object, asyncio.Future] = {}
        self.pump = asyncio.create_task(self._pump())

    @classmethod
    async def open(cls, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        return cls(reader, writer)

    async def _pump(self) -> None:
        try:
            while True:
                line = await self.reader.readline()
                if not line:
                    break
                received = perf_counter()
                response = protocol.decode_line(line)
                future = self.waiting.pop(response.get("id"), None)
                if future is not None and not future.done():
                    future.set_result((response, received))
        finally:
            for future in self.waiting.values():
                if not future.done():
                    future.set_exception(ConnectionError("server closed the connection"))

    async def call(self, request_id, payload: dict):
        """Send one request; return ``(response, sent, received)``."""
        future = asyncio.get_running_loop().create_future()
        self.waiting[request_id] = future
        sent = perf_counter()
        self.writer.write(protocol.request_line(payload, request_id=request_id))
        await self.writer.drain()
        response, received = await asyncio.wait_for(future, REPLY_TIMEOUT_S)
        return response, sent, received

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        self.pump.cancel()
        await asyncio.gather(self.pump, return_exceptions=True)


async def _load(port: int, stream: RequestStream, indices: Optional[range]):
    """Warm up, then drive the closed loop over the stream ``indices`` (none: warm-up only).

    The calibration kernel runs before every :data:`CHUNK` requests, when
    no request is in flight; only the requests count towards ``wall``.
    """
    connections = [await Connection.open(port) for _ in range(CONNECTIONS)]
    try:
        warm_started = perf_counter()
        hot_source, hot_seed = stream.hot[0]
        warm = request_to_dict(
            QueryRequest(
                kind="expected_flow", source=hot_source, n_samples=N_SAMPLES, seed=hot_seed
            )
        )
        await connections[0].call("warm-up", warm)
        warm_s = perf_counter() - warm_started
        if indices is None:
            return {"warm_s": warm_s}
        before, _, _ = await connections[0].call("metrics-before", {"kind": protocol.KIND_METRICS})
        records: List[Tuple[int, float, float, dict]] = []
        calibrations: List[float] = []

        async def caller(connection: Connection, pending) -> None:
            for index in pending:
                response, sent, received = await connection.call(index, stream.payload(index))
                records.append((index, sent, received, response))

        started = None
        wall = 0.0
        for chunk_start in range(indices.start, indices.stop, CHUNK):
            calibrations.append(core.calibrate())
            pending = iter(range(chunk_start, min(indices.stop, chunk_start + CHUNK)))
            chunk_started = perf_counter()
            if started is None:
                started = chunk_started
            await asyncio.gather(*(
                caller(connection, pending)
                for connection in connections
                for _ in range(CALLERS_PER_CONNECTION)
            ))
            wall += perf_counter() - chunk_started
        after, _, _ = await connections[0].call("metrics-after", {"kind": protocol.KIND_METRICS})
        return {
            "warm_s": warm_s, "started": started, "wall": wall, "calibrations": calibrations,
            "records": records, "metrics_before": before, "metrics_after": after,
        }
    finally:
        for connection in connections:
            await connection.close()


def _latencies_ms(records) -> List[float]:
    return [1000.0 * (received - sent) for _, sent, received, _ in records]


def _comparable(response: dict) -> dict:
    return {
        key: value for key, value in response.items()
        if key not in ("id", "ok", "latency_ms", "from_cache")
    }


def verify(graph, stream: RequestStream, records) -> Tuple[int, List[str]]:
    """Check every served reply against an uncached in-process evaluation.

    Returns the number of failed requests and a sample of the defects.
    Identical requests must get identical replies; one reference
    evaluation per distinct request then covers them all.
    """
    defects: List[str] = []
    failed = set()
    first_reply: Dict[str, dict] = {}
    keys = {}
    for index, _, _, response in records:
        if not response.get("ok"):
            failed.add(index)
            defects.append(f"request {index}: {response.get('error')}")
            continue
        key = keys[index] = json.dumps(stream.payload(index), sort_keys=True)
        if first_reply.setdefault(key, _comparable(response)) != _comparable(response):
            failed.add(index)
            defects.append(f"request {index}: differs from an identical earlier request")
    distinct = list(first_reply)
    requests = [request_from_dict(json.loads(key), graph=graph) for key in distinct]
    with BatchEvaluator(cache=0) as reference:
        expected = reference.evaluate(graph, requests)
    wrong = set()
    for key, result in zip(distinct, expected):
        if _comparable(json.loads(json.dumps(result_to_dict(result)))) != first_reply[key]:
            wrong.add(key)
            defects.append(f"{key}: served answer differs from the uncached evaluation")
    failed.update(index for index, key in keys.items() if key in wrong)
    return len(failed), defects


def _flow(graph, stream: RequestStream, records) -> Tuple[float, int]:
    """Mean expected flow over the stream's first FLOW_REQUESTS distinct flow requests.

    Those the run did not send are evaluated in process, uncached, so the
    value depends on the seed only; the gate has already shown that
    served answers equal those evaluations.
    """
    prefix = {}
    for index in itertools.count():
        if len(prefix) == FLOW_REQUESTS:
            break
        payload = stream.payload(index)
        if payload["kind"] == "expected_flow":
            prefix.setdefault(json.dumps(payload, sort_keys=True), payload)
    flows: Dict[str, float] = {}
    for index, _, _, response in records:
        key = json.dumps(stream.payload(index), sort_keys=True)
        if key in prefix and response.get("ok"):
            flows[key] = response["expected_flow"]
    missing = [key for key in prefix if key not in flows]
    if missing:
        requests = [request_from_dict(prefix[key], graph=graph) for key in missing]
        with BatchEvaluator(cache=0) as evaluator:
            for key, result in zip(missing, evaluator.evaluate(graph, requests)):
                flows[key] = result.flow.expected_flow
    return statistics.fmean(flows[key] for key in prefix), len(prefix)


def _delta(after: dict, before: dict, *path: str) -> float:
    a, b = after, before
    for key in path:
        a, b = a.get(key, {}), b.get(key, {})
    return (a or 0) - (b or 0)


def _set_up(seed: int, stream: RequestStream, client_import_s: float):
    """Start a server and warm it up; return it and the set-up seconds."""
    server = ServerProcess(seed)
    try:
        warm = asyncio.run(_load(server.port, stream, None))
    except BaseException:
        server.kill()
        raise
    return server, client_import_s + server.ready_s + warm["warm_s"]


def n_requests(seconds: float) -> int:
    return max(MIN_REQUESTS, round(seconds * REQUESTS_PER_S))


def run_timed(seed: int, seconds: float, client_import_s: float) -> Dict[str, object]:
    stream = RequestStream(seed)
    count = n_requests(seconds)
    # The timed requests go to one server in SETUP_PROBES slices.  Before
    # each slice after the first, another server is started, warmed up and
    # stopped as one more set-up probe.  Probes and timed requests then
    # sample the host's speed over the whole run, not over a few seconds.
    step = math.ceil(count / SETUP_PROBES)
    server, first_setup = _set_up(seed, stream, client_import_s)
    setups, loads = [first_setup], []
    try:
        for start in range(0, count, step):
            if start:
                probe, setup_s = _set_up(seed, stream, client_import_s)
                probe.stop()
                setups.append(setup_s)
            indices = range(start, min(count, start + step))
            loads.append(asyncio.run(_load(server.port, stream, indices)))
    except BaseException:
        server.kill()
        raise
    final = server.stop()
    records = [record for load in loads for record in load["records"]]
    wall = sum(load["wall"] for load in loads)
    latency = core.latency_summary(_latencies_ms(records))
    calibrations = [c for load in loads for c in load["calibrations"]]
    speed = core.speed_factor(statistics.median(calibrations))

    graph = served_graph()
    failed, defects = verify(graph, stream, records)
    flow, flow_requests = _flow(graph, stream, records)
    attempted = len(records)
    metrics = {
        "setup_s": statistics.median(setups),
        "op_ms.p50": latency["p50"] * speed,
        "op_ms.tail": latency["tail"] * speed,
        "ops_per_s": attempted / wall / speed,
        "flow": flow,
        "success_rate": (attempted - failed) / attempted,
        "peak_rss_mb": final["peak_rss_kb"] / 1024.0,
    }
    after, before = loads[-1]["metrics_after"], loads[0]["metrics_before"]
    report = {
        "workload": {
            "graph": "erdos", "n_vertices": N_VERTICES, "degree": DEGREE, "graph_seed": GRAPH_SEED,
            "n_samples": N_SAMPLES, "hot_groups": HOT_GROUPS, "pairs_per_flow": PAIRS_PER_FLOW,
            "miss_period": MISS_PERIOD,
            "connections": CONNECTIONS, "callers_per_connection": CALLERS_PER_CONNECTION,
        },
        "latency_ms": latency,
        "timed_wall_s": wall,
        "speed_factor": speed,
        "calibration_ms": [1000.0 * c for c in calibrations],
        "raw": {
            "op_ms.p50": latency["p50"], "op_ms.tail": latency["tail"],
            "ops_per_s": attempted / wall,
        },
        "misses": sum(1 for index, _, _, _ in records if stream.is_miss(index)),
        "setup_samples_s": setups,
        "flow_requests": flow_requests,
        "server_metrics": {
            "coalescing": after.get("coalescing"),
            "cache": after.get("cache"),
            "executor": after.get("executor"),
            "batches_in_timed_phase": _delta(after, before, "coalescing", "batches"),
        },
        "server_final": final,
        "defects": defects[:20],
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "report": report}


def run_traced(seed: int, out_dir) -> Dict[str, object]:
    """Per-layer run: the same requests against an untraced and a traced server."""
    from tracing import layer_metrics, layer_totals, load_trace

    stream = RequestStream(seed)
    passes = {}
    trace_path = out_dir / f"spans-served-mixed-seed{seed}.json.gz"
    for traced in (False, True):
        server = ServerProcess(seed, trace_path if traced else None)
        try:
            load = asyncio.run(_load(server.port, stream, range(TRACE_REQUESTS)))
        except BaseException:
            server.kill()
            raise
        load["final"] = server.stop()
        passes[traced] = load

    plain, traced = passes[False], passes[True]
    graph = served_graph()
    failed_plain, defects = verify(graph, stream, plain["records"])
    failed_traced, traced_defects = verify(graph, stream, traced["records"])
    defects += traced_defects
    plain_replies = {index: _comparable(r) for index, _, _, r in plain["records"]}
    mismatched = sum(
        1 for index, _, _, r in traced["records"] if plain_replies.get(index) != _comparable(r)
    )
    if mismatched:
        defects.append(f"{mismatched} traced replies differ from untraced replies")

    spans, extra = load_trace(trace_path)
    evaluate_requests = {int(key): ids for key, ids in extra["evaluate_requests"].items()}
    since = traced["started"]
    totals = layer_totals(spans, since=since)
    metrics = layer_metrics(totals)
    after, before = traced["metrics_after"], traced["metrics_before"]
    hits = _delta(after, before, "cache", "hits")
    misses = _delta(after, before, "cache", "misses")
    batches = _delta(after, before, "coalescing", "batches")
    metrics["service.cache.hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
    metrics["service.batches_sampled"] = misses
    metrics["service.batches_reused"] = hits
    metrics["server.batches"] = batches
    metrics["server.batch_size.mean"] = (
        _delta(after, before, "coalescing", "batched_requests") / batches if batches else 0.0
    )
    rejected_after = sum((after.get("requests", {}).get("rejected") or {}).values())
    rejected_before = sum((before.get("requests", {}).get("rejected") or {}).values())
    metrics["server.rejections"] = rejected_after - rejected_before

    evaluations = [span for span in spans if span[2] == "service.evaluate" and span[3] >= since]
    metrics["server.eval_util"] = (
        sum(end - start for _, _, _, start, end, _ in evaluations) / traced["wall"]
    )
    answered_by = {}
    for span_id, _, _, start, end, _ in evaluations:
        for request_id in evaluate_requests.get(span_id, ()):
            answered_by[request_id] = end - start
    waits = [
        1000.0 * (received - sent - answered_by[index])
        for index, sent, received, _ in traced["records"]
        if index in answered_by
    ]
    metrics["server.wait_ms.p50"] = statistics.median(waits) if waits else 0.0

    def p50(load) -> float:
        return statistics.median(_latencies_ms(load["records"]))

    metrics["trace.overhead_ms"] = p50(traced) - p50(plain)
    metrics["trace.overhead_pct"] = 100.0 * (p50(traced) / p50(plain) - 1.0)
    attempted = len(plain["records"]) + len(traced["records"])
    failed = min(attempted, failed_plain + failed_traced + mismatched)
    report = {
        "trace_requests": TRACE_REQUESTS,
        "untraced_p50_ms": p50(plain),
        "traced_p50_ms": p50(traced),
        "waits_matched": len(waits),
        "spans": len(spans),
        "spans_file": str(trace_path.relative_to(core.ROOT)),
        "layers": totals,
        "server_metrics": {"coalescing": after.get("coalescing"), "cache": after.get("cache")},
        "defects": defects[:20],
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "report": report}
