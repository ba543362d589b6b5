"""Greedy edge selection on top of the F-tree (FT, FT+M, FT+M+CI, FT+M+DS).

Each round scores every candidate edge by the expected flow of the
F-tree with that edge inserted, and commits the edge with the highest
flow (Section 6.1).  A candidate that closes a cycle is probed: the
current F-tree is cloned, the edge inserted and the flow re-evaluated.
A *frontier* candidate ``(a, v)``, whose endpoint ``v`` is not yet
connected, only hangs ``v`` below ``a``; by Theorem 2 it adds exactly
``p(a, v) * reach(a -> Q) * W(v)`` to the committed tree's flow.  Once
the committed tree has nothing left to estimate, such a candidate is
answered from that gain and skipped when it provably loses to the best
flow found so far; selections are the same as if it had been probed.
Three optional heuristics reduce the per-iteration work further:

* **Memoization (M, Section 6.2)** — bi-connected component estimates
  are cached by component content, so probing the same cycle twice costs
  nothing.
* **Confidence-interval pruning (CI, Section 6.3)** — every candidate is
  first screened with a small sample size; if its optimistic upper bound
  cannot beat the best candidate's pessimistic lower bound the full
  estimation is skipped.
* **Delayed sampling (DS, Section 6.4)** — a candidate that was expensive
  to sample and yielded little gain is suspended for
  ``floor(log_c(cost / potential))`` iterations.
"""

from __future__ import annotations

import math
import sys
from typing import Dict, List, Optional, Tuple

from repro.ftree.ftree import FTree
from repro.ftree.memo import MemoCache
from repro.ftree.sampler import ComponentSampler
from repro.graph.uncertain_graph import UncertainGraph
from repro.parallel.executor import ExecutorLike, make_executor
from repro.reachability.backends import BackendLike
from repro.rng import SeedLike, derive_seed, ensure_rng
from repro.selection.base import EdgeSelector, SelectionIteration, SelectionResult, Stopwatch
from repro.selection.candidates import CandidateManager
from repro.types import Edge, VertexId

#: Minimum sample count before the CLT-based screening interval is trusted.
_SCREENING_SAMPLES = 30


class FTreeGreedySelector(EdgeSelector):
    """Greedy MaxFlow selection backed by the F-tree decomposition.

    Parameters
    ----------
    n_samples:
        Monte-Carlo samples per bi-connected component (paper: 1000).
    exact_threshold:
        Components with at most this many uncertain edges are evaluated
        exactly instead of sampled.
    memoize:
        Enable the component-memoization heuristic (FT+M).
    confidence:
        Enable confidence-interval pruning (FT+M+CI).
    delayed:
        Enable delayed sampling (FT+M+DS).
    delay_base:
        The penalisation parameter ``c`` of the delayed-sampling
        heuristic (paper default 2.0; must be > 1).
    alpha:
        Significance level of the pruning intervals (paper: 0.01).
    seed:
        Random seed or generator.
    include_query:
        Whether the query vertex's own weight counts towards the flow.
    backend:
        Possible-world sampling backend name or instance used by the
        component samplers (see :mod:`repro.reachability.backends`).
    crn:
        Common-random-numbers candidate scoring (the default): the
        component samplers key their streams per selection round and
        component content (see :class:`~repro.ftree.sampler.ComponentSampler`),
        so within one round every probe of the same component draws the
        same worlds and candidate comparisons are noise-free.  ``False``
        restores the sequential-stream resampling reference behaviour.
    executor:
        Sharded-sampling executor or worker count (see
        :mod:`repro.parallel`); the component samplers shard their
        Monte-Carlo streams over it.  Selections stay bit-for-bit
        identical for any worker count given
        ``(seed, n_samples, shard_size)``.
    shard_size:
        Worlds per shard for the executor path.

    Notes
    -----
    ``SelectionResult.extras["frontier_skipped"]`` counts the frontier
    candidates answered by the Theorem 2 gain instead of a probe (see
    :class:`_FrontierBound`).  They still count as probed in the
    per-iteration ``candidates_probed``.  A skipped candidate looks up no
    memoized component, so ``memo_hits`` and ``memo_hit_rate`` count only
    the lookups the remaining probes really make: they drop with no loss
    of reuse.
    """

    def __init__(
        self,
        n_samples: int = 1000,
        exact_threshold: int = 10,
        memoize: bool = False,
        confidence: bool = False,
        delayed: bool = False,
        delay_base: float = 2.0,
        alpha: float = 0.01,
        seed: SeedLike = None,
        include_query: bool = False,
        backend: BackendLike = None,
        crn: bool = True,
        executor: ExecutorLike = None,
        shard_size: Optional[int] = None,
    ) -> None:
        if delay_base <= 1.0:
            raise ValueError(f"delay_base must be greater than 1, got {delay_base!r}")
        self.n_samples = n_samples
        self.exact_threshold = exact_threshold
        self.memoize = memoize
        self.confidence = confidence
        self.delayed = delayed
        self.delay_base = delay_base
        self.alpha = alpha
        self.include_query = include_query
        self.backend = backend
        self.crn = bool(crn)
        self._executor = make_executor(executor)
        self._shard_size = shard_size
        self._seed = seed
        self.name = self._build_name()

    def _build_name(self) -> str:
        name = "FT"
        if self.memoize:
            name += "+M"
        if self.confidence:
            name += "+CI"
        if self.delayed:
            name += "+DS"
        return name

    # ------------------------------------------------------------------
    def select(self, graph: UncertainGraph, query: VertexId, budget: int) -> SelectionResult:
        self._validate(graph, query, budget)
        stopwatch = Stopwatch()
        rng = ensure_rng(self._seed)
        memo = MemoCache() if self.memoize else None
        sampler = ComponentSampler(
            n_samples=self.n_samples,
            exact_threshold=self.exact_threshold,
            seed=rng,
            memo=memo,
            backend=self.backend,
            crn=self.crn,
            executor=self._executor,
            shard_size=self._shard_size,
        )
        screening_sampler = ComponentSampler(
            n_samples=_SCREENING_SAMPLES,
            exact_threshold=self.exact_threshold,
            seed=derive_seed(self._seed, 1) if self._seed is not None else None,
            memo=None,
            backend=self.backend,
            crn=self.crn,
            executor=self._executor,
            shard_size=self._shard_size,
        )
        ftree = FTree(graph, query, sampler=sampler)
        candidates = CandidateManager(graph, query)
        delays: Dict[Edge, int] = {}
        selected: List[Edge] = []
        iterations: List[SelectionIteration] = []
        current_flow = 0.0
        total_pruned = 0
        total_delayed = 0
        total_skipped = 0

        for index in range(budget):
            if not candidates.has_candidates():
                break
            iteration_watch = Stopwatch()
            sampler.begin_round(index)
            screening_sampler.begin_round(index)
            frontier = _FrontierBound(ftree, self.include_query)
            outcome = self._probe_candidates(
                ftree, candidates, delays, screening_sampler, frontier
            )
            if outcome is None and delays:
                # every candidate was suspended: clear the delays and retry
                delays.clear()
                outcome = self._probe_candidates(
                    ftree, candidates, delays, screening_sampler, frontier
                )
            total_skipped += frontier.skipped
            if outcome is None:
                break
            best_edge, best_flow, probe_info, probed, pruned, skipped = outcome
            total_pruned += pruned
            total_delayed += skipped

            if self.delayed:
                self._update_delays(delays, probe_info, best_edge, best_flow)

            candidates.mark_selected(best_edge)
            ftree.insert_edge(best_edge.u, best_edge.v)
            selected.append(best_edge)
            gain = best_flow - current_flow
            current_flow = best_flow
            iterations.append(
                SelectionIteration(
                    index=index,
                    edge=best_edge,
                    gain=gain,
                    flow_after=current_flow,
                    candidates_probed=probed,
                    candidates_pruned=pruned,
                    candidates_delayed=skipped,
                    elapsed_seconds=iteration_watch.elapsed(),
                )
            )

        final_flow = ftree.expected_flow(include_query=self.include_query)
        extras: Dict[str, float] = {
            "sampled_components": float(sampler.sampled_components),
            "exact_components": float(sampler.exact_components),
            "sampled_edges": float(sampler.sampled_edges),
            "pruned_candidates": float(total_pruned),
            "delayed_candidates": float(total_delayed),
            "frontier_skipped": float(total_skipped),
        }
        if memo is not None:
            extras["memo_hits"] = float(memo.hits)
            extras["memo_hit_rate"] = memo.hit_rate
        return SelectionResult(
            algorithm=self.name,
            query=query,
            budget=budget,
            selected_edges=selected,
            expected_flow=final_flow,
            elapsed_seconds=stopwatch.elapsed(),
            iterations=iterations,
            extras=extras,
        )

    # ------------------------------------------------------------------
    def _probe_candidates(
        self,
        ftree: FTree,
        candidates: CandidateManager,
        delays: Dict[Edge, int],
        screening_sampler: ComponentSampler,
        frontier: "_FrontierBound",
    ) -> Optional[Tuple[Edge, float, Dict[Edge, Tuple[float, int]], int, int, int]]:
        """Probe the current candidates and return the best edge.

        Returns ``None`` if no candidate could be probed (all suspended).
        The returned tuple is ``(best edge, best flow, per-edge probe
        info, probed count, pruned count, delayed count)`` where probe
        info maps each probed edge to ``(flow estimate, sampling cost)``.
        Frontier candidates that ``frontier`` shows to lose are not
        cloned; they count as probed, with their exact gain and cost 0.
        """
        best_edge: Optional[Edge] = None
        best_flow = float("-inf")
        best_lower = float("-inf")
        probe_info: Dict[Edge, Tuple[float, int]] = {}
        probed = 0
        pruned = 0
        skipped = 0

        for edge in candidates:
            if self.delayed and delays.get(edge, 0) > 0:
                delays[edge] -= 1
                skipped += 1
                continue
            probed += 1
            if best_edge is not None:
                losing_flow = frontier.losing_flow(edge, best_flow)
                if losing_flow is not None:
                    # its probe would cost 0: never screened, never delayed
                    probe_info[edge] = (losing_flow, 0)
                    continue
            probe = ftree.clone()
            probe.insert_edge(edge.u, edge.v)
            cost = probe.pending_estimation_cost()

            if self.confidence and best_edge is not None and cost > 0:
                # screening pass with a coarse sampler; prune hopeless candidates
                probe.sampler = screening_sampler
                _, screening_upper = probe.flow_interval(alpha=self.alpha)
                if screening_upper < best_lower:
                    pruned += 1
                    probe_info[edge] = (screening_upper, cost)
                    continue
                self._invalidate_screened(probe)
                probe.sampler = ftree.sampler

            flow = probe.expected_flow(include_query=self.include_query)
            probe_info[edge] = (flow, cost)
            if flow > best_flow:
                best_flow = flow
                best_edge = edge
                if self.confidence:
                    best_lower, _ = probe.flow_interval(alpha=self.alpha)
        if best_edge is None:
            return None
        return best_edge, best_flow, probe_info, probed, pruned, skipped

    @staticmethod
    def _invalidate_screened(probe: FTree) -> None:
        """Drop coarse screening estimates so the full sampler re-evaluates them."""
        for component in probe.components():
            if component.is_mono:
                continue
            if getattr(component, "reach_samples", None) == _SCREENING_SAMPLES:
                component.invalidate()

    def _update_delays(
        self,
        delays: Dict[Edge, int],
        probe_info: Dict[Edge, Tuple[float, int]],
        best_edge: Edge,
        best_flow: float,
    ) -> None:
        """Apply the delayed-sampling rule ``d = floor(log_c(cost / potential))``."""
        for edge, (flow, cost) in probe_info.items():
            if edge == best_edge or cost <= 0:
                continue
            if best_flow <= 0:
                continue
            potential = max(flow, 0.0) / best_flow
            if potential <= 0:
                delay = len(probe_info)  # effectively suspend for a long time
            else:
                delay = int(math.floor(math.log(cost / potential, self.delay_base)))
            if delay > 0:
                delays[edge] = delay


class _FrontierBound:
    """Flow of frontier probes read off the committed F-tree (Theorem 2).

    A candidate ``(a, v)`` with exactly one connected endpoint ``a``
    attaches ``v`` as a dead end (Case IIa/IIb): no bi component is
    created or invalidated, so the probe's flow is the committed flow
    plus ``p(a, v) * reach(a -> Q) * W(v)``.  While the committed tree's
    :meth:`~repro.ftree.ftree.FTree.pending_estimation_cost` is 0 such a
    probe samples nothing and draws no random number, CI never screens it
    and DS never delays it, so skipping a provable loser changes no
    sampler call, no stream and no running best.

    One instance serves one selection round, during which the committed
    tree does not change.  Its reachability comes from one throwaway
    clone, built on first use once the cost is 0; that clone only reads
    memoized estimates.  Selections are identical to probing every
    candidate as long as the memo cache evicts nothing: skipped probes
    make no lookups, so they leave the cache's LRU order different, and
    that order decides what an eviction drops.
    """

    def __init__(self, ftree: FTree, include_query: bool) -> None:
        self._ftree = ftree
        self._include_query = include_query
        self._checked_memo_size: Optional[int] = None
        self._reach: Optional[Dict[VertexId, float]] = None
        self._base_flow = 0.0
        self._relative_margin = 0.0
        #: candidates answered by the bound instead of a probe
        self.skipped = 0

    def _ready(self) -> bool:
        if self._reach is not None:
            return True
        # the committed tree is fixed within the round, so only memo growth
        # can bring its estimation cost down: re-check after growth only
        memo = self._ftree.sampler.memo
        memo_size = len(memo) if memo is not None else 0
        if memo_size == self._checked_memo_size:
            return False
        self._checked_memo_size = memo_size
        if self._ftree.pending_estimation_cost() > 0:
            return False
        base = self._ftree.clone()
        self._reach = base.reachability_to_query()
        self._base_flow = base.flow_from_reachability(self._reach, self._include_query)
        # Rounding margin.  Each old vertex's reach is the same product in
        # the probe as here, so the probe's flow and base + gain differ by
        # summation order and the gain's own rounding only.  Summing m
        # non-negative terms errs by at most (m - 1) * u * flow (u = eps / 2).
        # With n = len(reach) (Q included), the probe sums n + 1 terms (the
        # n - 1 other old vertices, v and W(Q)) and the base n, and the gain
        # is rounded at most 6 times, so the two differ by under
        # (n + 3) * eps * flow.  Four times that covers second-order terms.
        self._relative_margin = 4.0 * (len(self._reach) + 3) * sys.float_info.epsilon
        return True

    def losing_flow(self, edge: Edge, best_flow: float) -> Optional[float]:
        """Return the flow of probing ``edge`` if it provably loses to ``best_flow``.

        ``None`` means the candidate must be probed: it is no frontier
        edge, the committed tree still has components to estimate, or its
        flow comes within the rounding margin of ``best_flow``.
        """
        ftree = self._ftree
        u_connected = ftree.is_connected_vertex(edge.u)
        if u_connected == ftree.is_connected_vertex(edge.v) or not self._ready():
            return None
        assert self._reach is not None
        anchor, vertex = (edge.u, edge.v) if u_connected else (edge.v, edge.u)
        graph = ftree.graph
        flow = self._base_flow + (
            graph.probability(edge) * self._reach[anchor] * graph.weight(vertex)
        )
        if flow >= best_flow - self._relative_margin * abs(best_flow):
            return None
        self.skipped += 1
        return flow
