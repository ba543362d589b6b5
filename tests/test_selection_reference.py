"""The F-tree greedy selector against a probe-everything reference.

The reference below is the greedy loop of Section 6.1 written out plainly:
every round it clones the F-tree for every candidate, inserts the edge
and evaluates the flow (after the optional CI screening pass), then
commits the first candidate with the highest flow and applies the DS
delay rule.  The selector answers most frontier candidates from the
committed tree instead of probing them; on random small graphs its
selections, flows and gains must equal the reference bit for bit, for
every variant and both sampling modes.  Graphs drawn with one shared
probability and weight produce exact gain ties, where the first
candidate in order has to win.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ftree.ftree import FTree
from repro.ftree.memo import MemoCache
from repro.ftree.sampler import ComponentSampler
from repro.graph.generators import star_graph
from repro.graph.uncertain_graph import UncertainGraph
from repro.rng import derive_seed, ensure_rng
from repro.selection.candidates import CandidateManager
from repro.selection.ftree_greedy import FTreeGreedySelector
from repro.types import Edge

SEED = 5
N_SAMPLES = 40
SCREENING_SAMPLES = 30
ALPHA = 0.01
DELAY_BASE = 2.0

VARIANTS = {
    "FT": {},
    "FT+M": {"memoize": True},
    "FT+M+CI": {"memoize": True, "confidence": True},
    "FT+M+DS": {"memoize": True, "delayed": True},
    "FT+M+CI+DS": {"memoize": True, "confidence": True, "delayed": True},
}


def _sampler(n_samples, exact_threshold, seed, memo, crn) -> ComponentSampler:
    return ComponentSampler(
        n_samples=n_samples,
        exact_threshold=exact_threshold,
        seed=seed,
        memo=memo,
        backend="naive",
        crn=crn,
    )


def reference_greedy(
    graph: UncertainGraph,
    budget: int,
    exact_threshold: int,
    crn: bool,
    memoize: bool = False,
    confidence: bool = False,
    delayed: bool = False,
) -> Tuple[List[Edge], List[float], List[int]]:
    """Return the selected edges, the flow after each and each round's delayed count."""
    sampler = _sampler(
        N_SAMPLES, exact_threshold, ensure_rng(SEED), MemoCache() if memoize else None, crn
    )
    screening = _sampler(SCREENING_SAMPLES, exact_threshold, derive_seed(SEED, 1), None, crn)
    ftree = FTree(graph, 0, sampler=sampler)
    candidates = CandidateManager(graph, 0)
    delays: Dict[Edge, int] = {}
    edges: List[Edge] = []
    flows: List[float] = []
    suspended: List[int] = []
    for index in range(budget):
        if not candidates.has_candidates():
            break
        sampler.begin_round(index)
        screening.begin_round(index)
        scored: List[Tuple[Edge, float, int]] = []
        for _attempt in range(2):
            best_edge, best_flow, best_lower = None, -math.inf, -math.inf
            skipped = 0
            for edge in candidates:
                if delayed and delays.get(edge, 0) > 0:
                    delays[edge] -= 1
                    skipped += 1
                    continue
                probe = ftree.clone()
                probe.insert_edge(edge.u, edge.v)
                cost = probe.pending_estimation_cost()
                if confidence and best_edge is not None and cost > 0:
                    probe.sampler = screening
                    upper = probe.flow_interval(alpha=ALPHA)[1]
                    if upper < best_lower:
                        scored.append((edge, upper, cost))
                        continue
                    for component in probe.components():
                        if getattr(component, "reach_samples", None) == SCREENING_SAMPLES:
                            component.invalidate()
                    probe.sampler = sampler
                flow = probe.expected_flow()
                scored.append((edge, flow, cost))
                if flow > best_flow:
                    best_edge, best_flow = edge, flow
                    if confidence:
                        best_lower = probe.flow_interval(alpha=ALPHA)[0]
            if scored or not delays:
                break
            delays.clear()
        if best_edge is None:
            break
        if delayed:
            for edge, flow, cost in scored:
                if edge == best_edge or cost <= 0 or best_flow <= 0:
                    continue
                potential = max(flow, 0.0) / best_flow
                if potential <= 0:
                    delay = len(scored)
                else:
                    delay = int(math.floor(math.log(cost / potential, DELAY_BASE)))
                if delay > 0:
                    delays[edge] = delay
        candidates.mark_selected(best_edge)
        ftree.insert_edge(best_edge.u, best_edge.v)
        edges.append(best_edge)
        flows.append(best_flow)
        suspended.append(skipped)
    return edges, flows, suspended


@st.composite
def uncertain_graphs(draw) -> UncertainGraph:
    """Random graphs around query 0; about half use one probability and weight (ties)."""
    n_vertices = draw(st.integers(min_value=2, max_value=9))
    uniform = draw(st.booleans())
    shared_weight = draw(st.sampled_from([1.0, 2.0]))
    shared_probability = draw(st.sampled_from([0.5, 0.8, 1.0]))
    graph = UncertainGraph()
    for vertex in range(n_vertices):
        weight = shared_weight if uniform else draw(st.sampled_from([0.0, 1.0, 2.5, 4.0]))
        graph.add_vertex(vertex, weight=weight)
    pairs = [(u, v) for u in range(n_vertices) for v in range(u + 1, n_vertices)]
    chosen = draw(
        st.lists(st.sampled_from(pairs), min_size=1, max_size=min(14, len(pairs)), unique=True)
    )
    for u, v in chosen:
        probability = (
            shared_probability
            if uniform
            else draw(st.floats(min_value=0.05, max_value=1.0, allow_nan=False))
        )
        graph.add_edge(u, v, probability)
    return graph


@pytest.mark.parametrize("crn", [True, False], ids=["crn", "resample"])
@pytest.mark.parametrize("variant", list(VARIANTS))
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    graph=uncertain_graphs(),
    budget=st.integers(min_value=1, max_value=7),
    exact_threshold=st.sampled_from([0, 3, 20]),
)
def test_selector_matches_reference(variant, crn, graph, budget, exact_threshold):
    options = VARIANTS[variant]
    selector = FTreeGreedySelector(
        n_samples=N_SAMPLES,
        exact_threshold=exact_threshold,
        alpha=ALPHA,
        delay_base=DELAY_BASE,
        seed=SEED,
        backend="naive",
        crn=crn,
        **options,
    )
    result = selector.select(graph, 0, budget)
    edges, flows, suspended = reference_greedy(graph, budget, exact_threshold, crn, **options)
    assert result.selected_edges == edges
    assert [step.candidates_delayed for step in result.iterations] == suspended
    assert [step.flow_after.hex() for step in result.iterations] == [f.hex() for f in flows]
    gains = [after - before for before, after in zip([0.0] + flows, flows)]
    assert [step.gain.hex() for step in result.iterations] == [g.hex() for g in gains]


def test_tied_frontier_candidates_are_probed_and_the_first_wins():
    # every leaf of the star adds the same gain, so no candidate provably
    # loses: all are probed and the first in order wins each round
    graph = star_graph(6, probability=0.5)
    result = FTreeGreedySelector(memoize=True, seed=SEED).select(graph, 0, 3)
    edges, _, _ = reference_greedy(graph, 3, exact_threshold=10, crn=True, memoize=True)
    assert result.selected_edges == edges == [Edge(0, 1), Edge(0, 2), Edge(0, 3)]
    assert result.extras["frontier_skipped"] == 0


def test_losing_frontier_candidates_are_skipped():
    graph = star_graph(6)
    for leaf in range(1, 7):
        graph.set_probability(0, leaf, 1.0 - 0.1 * leaf)
    result = FTreeGreedySelector(memoize=True, seed=SEED).select(graph, 0, 3)
    edges, _, _ = reference_greedy(graph, 3, exact_threshold=10, crn=True, memoize=True)
    assert result.selected_edges == edges == [Edge(0, 1), Edge(0, 2), Edge(0, 3)]
    # each round probes its first candidate and skips the others
    assert result.extras["frontier_skipped"] == 5 + 4 + 3
    assert [step.candidates_probed for step in result.iterations] == [6, 5, 4]


def test_cycle_closing_candidates_are_always_probed():
    graph = star_graph(3, probability=0.5)
    graph.set_probability(0, 3, 0.1)
    graph.add_edge(1, 2, 0.9)
    result = FTreeGreedySelector(memoize=True, seed=SEED).select(graph, 0, 3)
    edges, flows, _ = reference_greedy(graph, 3, exact_threshold=10, crn=True, memoize=True)
    # (0, 3) is skipped in the first two rounds and (1, 2) in the second,
    # where it would only hang 2 below 1; in the last round (1, 2) closes
    # a cycle, so it is probed, and it wins
    assert result.selected_edges == edges == [Edge(0, 1), Edge(0, 2), Edge(1, 2)]
    assert [step.flow_after for step in result.iterations] == flows
    assert result.extras["frontier_skipped"] == 3


def test_skipped_candidates_still_set_the_ds_suspension():
    # 1 and 2 weigh nothing, so in round 2 the cycle-closing (1, 2) has
    # flow 0 and DS suspends it for as many rounds as the round had
    # candidates, the frontier ones answered without a probe included
    graph = UncertainGraph()
    for vertex, weight in enumerate([1.0, 0.0, 0.0, 5.0, 0.5, 1.0, 1.0, 1.0]):
        graph.add_vertex(vertex, weight=weight)
    for u, v, probability in [
        (0, 1, 0.5), (0, 2, 0.5), (1, 2, 0.5), (2, 3, 0.9),
        (2, 4, 0.2), (3, 5, 0.5), (3, 6, 0.5), (3, 7, 0.5),
    ]:
        graph.add_edge(u, v, probability)
    result = FTreeGreedySelector(memoize=True, delayed=True, seed=SEED).select(graph, 0, 7)
    expected = reference_greedy(graph, 7, 10, True, memoize=True, delayed=True)
    assert result.extras["frontier_skipped"] > 0
    assert result.selected_edges == expected[0]
    assert [step.candidates_delayed for step in result.iterations] == expected[2]
    assert result.selected_edges[-1] == Edge(1, 2)
