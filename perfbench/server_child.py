#!/usr/bin/env python3
"""Launch the served-mixed workload's ReproServer (optionally traced).

Prints one JSON line ``{"port": ...}`` once the server accepts
connections (after warming the hot world groups), then serves until a
line arrives on stdin.  It then drains the server and prints a final
JSON line with its peak resident memory and layout-cache statistics.
With ``--trace-out PATH`` the layer wrappers of :mod:`tracing` are
installed before the server is built, and the spans, plus which request
ids each ``BatchEvaluator.evaluate`` call answered, go to ``PATH``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys

import core

core.ensure_paths()

import served_workload  # noqa: E402
from repro.reachability.layout import get_default_layout_cache  # noqa: E402
from repro.server import ReproServer, ServerConfig  # noqa: E402
from tracing import SERVED_TARGETS, SpanRecorder, install_layers  # noqa: E402


def emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def install_tracing() -> tuple:
    """Wrap the served layers; map each evaluate span to its request ids.

    ``ReproServer`` decodes a line, pops its ``id`` and hands the same
    dict to ``request_from_dict``, all in one synchronous step on the
    event loop; so the id of the last decoded line belongs to the next
    request built.
    """
    import repro.server.app as app

    recorder = SpanRecorder()
    last_id = [None]
    request_ids = {}
    evaluate_requests = {}

    def remember_decoded(span_id, args, payload):
        last_id[0] = payload.get("id")

    def remember_evaluated(span_id, args, results):
        evaluate_requests[span_id] = [request_ids.get(id(r.request)) for r in results]

    recorder.on_call["server.decode"] = remember_decoded
    recorder.on_call["service.evaluate"] = remember_evaluated
    install_layers(recorder, SERVED_TARGETS)
    build_request = app.request_from_dict

    def request_from_dict(*args, **kwargs):
        request = build_request(*args, **kwargs)
        request_ids[id(request)] = last_id[0]
        return request

    recorder.patch(app, "request_from_dict", request_from_dict)
    return recorder, evaluate_requests


async def serve(seed: int) -> None:
    graph = served_workload.served_graph()
    server = ReproServer(
        graph, ServerConfig(warm_requests=tuple(served_workload.warm_requests(seed)))
    )
    await server.start()
    emit({"port": server.address[1]})
    loop = asyncio.get_running_loop()
    stdin = asyncio.StreamReader()
    transport, _ = await loop.connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(stdin), sys.stdin
    )
    try:
        await stdin.readline()
    finally:
        transport.close()
        await server.stop()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()
    recorder = evaluate_requests = None
    if args.trace_out:
        recorder, evaluate_requests = install_tracing()
    asyncio.run(serve(args.seed))
    if recorder is not None:
        recorder.uninstall()
        recorder.dump(args.trace_out, extra={"evaluate_requests": evaluate_requests})
    emit({
        "peak_rss_kb": core.peak_rss_mb() * 1024.0,
        "layout_cache": get_default_layout_cache().stats(),
    })


if __name__ == "__main__":
    main()
