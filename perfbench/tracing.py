"""Outside-in tracing: wrap public functions of each layer at run time.

Nothing under ``src/`` emits these spans.  In traced mode the benchmark
replaces each public function named in :data:`SELECTION_TARGETS` or
:data:`SERVED_TARGETS` with a wrapper, patched at the place the caller
looks the name up (a class attribute, or a module global such as
``repro.ftree.sampler.enumerate_worlds``), and restores the originals
afterwards.  Spans stay in memory with parent links, one stack per
thread, and are written out once at the end.

A layer's self time is its span durations minus the time its direct
child spans cover.  Spans nest on one thread, so the children of a span
never overlap and their durations simply add up.
"""

from __future__ import annotations

import gzip
import importlib
import itertools
import json
import threading
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import core

_MISSING = object()

#: (span name, "module:attribute path" patched).  The selection workloads
#: run the F-tree, its component sampler and the sampling engine under it.
SELECTION_TARGETS: Tuple[Tuple[str, str], ...] = (
    ("selection.select", "repro.selection.ftree_greedy:FTreeGreedySelector.select"),
    ("ftree.clone", "repro.ftree.ftree:FTree.clone"),
    ("ftree.insert_edge", "repro.ftree.ftree:FTree.insert_edge"),
    ("ftree.expected_flow", "repro.ftree.ftree:FTree.expected_flow"),
    ("ftree.flow_interval", "repro.ftree.ftree:FTree.flow_interval"),
    ("ftree.sampler", "repro.ftree.sampler:ComponentSampler.reachability"),
    ("graph.enumerate_worlds", "repro.ftree.sampler:enumerate_worlds"),
    (
        "reachability.component_reachability",
        "repro.reachability.engine:SamplingEngine.component_reachability",
    ),
    ("reachability.sample_worlds", "repro.reachability.engine:SamplingEngine.sample_worlds"),
    ("reachability.layout", "repro.reachability.engine:graph_layout"),
    ("reachability.sample_flips", "repro.reachability.backends.base:sample_flips"),
    ("reachability.sample_flips", "repro.reachability.engine:sample_flips"),
)

#: The served workload runs the protocol, the batch service and the
#: sampling engine, with no F-tree involved.
SERVED_TARGETS: Tuple[Tuple[str, str], ...] = (
    ("server.decode", "repro.server.protocol:decode_line"),
    ("server.encode", "repro.server.protocol:encode_line"),
    ("service.evaluate", "repro.service.evaluator:BatchEvaluator.evaluate"),
    ("service.plan", "repro.service.planner:QueryPlanner.plan"),
    ("reachability.sample_worlds", "repro.reachability.engine:SamplingEngine.sample_worlds"),
    ("reachability.layout", "repro.reachability.engine:graph_layout"),
    ("reachability.sample_flips", "repro.reachability.backends.base:sample_flips"),
    ("reachability.sample_flips", "repro.reachability.engine:sample_flips"),
)

#: Span names whose target is a generator function: only the time spent
#: inside the generator counts, not the consumer's loop body.
GENERATOR_SPANS = frozenset({"graph.enumerate_worlds"})

#: Span name -> zero-argument callable read before and after each call;
#: the span keeps the difference (the layout cache's miss counter, so the
#: hit rate of ``graph_layout`` calls can be read off the spans).
Probe = Callable[[], int]


def _resolve(path: str):
    """``"pkg.mod:Cls.attr"`` -> (owner object, attribute name)."""
    module_name, _, attr_path = path.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = attr_path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class SpanRecorder:
    """In-memory spans ``(id, parent id, name, start, end, probe delta)``."""

    def __init__(self) -> None:
        self.spans: List[Tuple[int, Optional[int], str, float, float, int]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []
        self.on_call: Dict[str, Callable] = {}

    # ------------------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, probe: Optional[Probe] = None) -> Callable:
        """Return ``fn`` wrapped in a span named ``name``."""
        if name in GENERATOR_SPANS:
            return self._wrap_generator(name, fn)
        spans = self.spans
        ids = self._ids
        stack_of = self._stack
        on_call = self.on_call.get(name)

        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else None
            span_id = next(ids)
            stack.append(span_id)
            before = probe() if probe is not None else 0
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                delta = probe() - before if probe is not None else 0
                spans.append((span_id, parent, name, start, end, delta))
            if on_call is not None:
                on_call(span_id, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, name: str, fn: Callable) -> Callable:
        spans = self.spans
        ids = self._ids
        stack_of = self._stack

        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else None
            span_id = next(ids)
            start = perf_counter()
            busy = 0.0
            iterator = fn(*args, **kwargs)
            try:
                while True:
                    tick = perf_counter()
                    try:
                        item = next(iterator)
                    except StopIteration:
                        busy += perf_counter() - tick
                        return
                    busy += perf_counter() - tick
                    yield item
            finally:
                iterator.close()
                spans.append((span_id, parent, name, start, start + busy, 0))

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------------
    def install(
        self,
        targets: Iterable[Tuple[str, str]],
        probes: Optional[Dict[str, Probe]] = None,
    ) -> None:
        """Patch every target; :meth:`uninstall` restores the originals."""
        probes = probes or {}
        for name, path in targets:
            owner, attr = _resolve(path)
            self.patch(owner, attr, self.wrap(name, getattr(owner, attr), probes.get(name)))

    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr`` until :meth:`uninstall`.

        A class attribute the class only inherits is deleted again on
        uninstall rather than copied down into the subclass.
        """
        if isinstance(owner, type):
            original = owner.__dict__.get(attr, _MISSING)
        else:
            original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    def dump(self, path, extra: Optional[dict] = None) -> None:
        """Write every span (times in microseconds) and ``extra`` as gzipped JSON."""
        names = sorted({span[2] for span in self.spans})
        index = {name: position for position, name in enumerate(names)}
        rows = [
            [span_id, parent, index[name], round(start * 1e6), round((end - start) * 1e6), delta]
            for span_id, parent, name, start, end, delta in self.spans
        ]
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            json.dump(
                {
                    "columns": ["id", "parent", "name", "start_us", "dur_us", "probe"],
                    "names": names,
                    "spans": rows,
                    "extra": extra or {},
                },
                handle,
            )


def install_layers(recorder: SpanRecorder, targets: Iterable[Tuple[str, str]]) -> None:
    """Install ``targets``, the resolved default backend's propagation and the layout probe.

    The layout cache's miss counter rides on each ``graph_layout`` span,
    so :func:`layer_metrics` can give the layout hit rate.
    """
    from repro.reachability.backends import make_backend
    from repro.reachability.layout import get_default_layout_cache

    backend = type(make_backend(None))
    propagate = f"{backend.__module__}:{backend.__qualname__}.propagate_reachability"
    cache = get_default_layout_cache()
    recorder.install(
        tuple(targets) + (("reachability.propagate", propagate),),
        probes={"reachability.layout": lambda: cache.misses},
    )


def load_trace(path) -> Tuple[List[Tuple[int, Optional[int], str, float, float, int]], dict]:
    """Read a :meth:`SpanRecorder.dump` file back: span tuples (seconds) and ``extra``."""
    with gzip.open(path, "rt", encoding="utf-8") as handle:
        payload = json.load(handle)
    names = payload["names"]
    spans = [
        (span_id, parent, names[name], start / 1e6, (start + duration) / 1e6, delta)
        for span_id, parent, name, start, duration, delta in payload["spans"]
    ]
    return spans, payload["extra"]


def layer_totals(spans, since: float = float("-inf")) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, ``total_ms``, ``self_ms`` and summed probe deltas.

    Only spans whose root started at or after ``since`` count, so a
    server's set-up work stays out of its timed phase.
    """
    by_id = {span[0]: span for span in spans}
    child_time: Dict[int, float] = defaultdict(float)
    for span_id, parent, _, start, end, _ in spans:
        if parent is not None:
            child_time[parent] += end - start

    def root_start(span) -> float:
        while span[1] is not None and span[1] in by_id:
            span = by_id[span[1]]
        return span[3]

    totals: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0, "probe": 0}
    )
    for span in spans:
        span_id, _, name, start, end, delta = span
        if since != float("-inf") and root_start(span) < since:
            continue
        entry = totals[name]
        entry["calls"] += 1
        entry["total_ms"] += 1000.0 * (end - start)
        entry["self_ms"] += 1000.0 * (end - start - child_time[span_id])
        entry["probe"] += delta
    return dict(totals)


def layer_metrics(totals: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """Every per-layer metric: the span-derived ones filled in, the rest 0."""
    metrics: Dict[str, float] = {name: 0 for name in core.metric_table("per_layer")}
    for span, fields in core.SPAN_METRICS.items():
        entry = totals.get(span)
        for field in fields:
            metrics[f"{span}.{field}"] = entry[field] if entry else 0
    layout = totals.get("reachability.layout")
    if layout and layout["calls"]:
        metrics["reachability.layout.hit_rate"] = 1.0 - layout["probe"] / layout["calls"]
    return metrics
