"""The F-tree: incremental maintenance and expected-flow evaluation.

The F-tree represents the subgraph induced by the edges selected so far
as a tree of components anchored at the query vertex ``Q`` (Definition
9).  :meth:`FTree.insert_edge` implements the incremental insertion cases
of Section 5.4:

* **Case II** — one endpoint is new: the vertex is attached as a dead end
  (to the mono component that owns the anchor, or as a fresh
  single-vertex mono component below a bi component).
* **Case IIIa** — both endpoints live in the same bi-connected component:
  the edge joins that component, whose reachability must be re-estimated.
* **Case IIIb** — both endpoints live in the same mono-connected
  component: a cycle appears; the affected path is split off into a new
  bi-connected component and orphaned subtrees become new mono
  components (``splitTree``).
* **Case IV** — the endpoints live in different components: the new cycle
  spans a whole chain of components up to their lowest common ancestor;
  bi components on the chain are absorbed, mono components contribute
  the path towards their articulation vertex, and the ancestor is
  handled like Case III.

Cases IIIb and IV share one generic cycle-closing routine; the paper's
case labels are preserved in the returned :class:`InsertionResult` for
observability.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.exceptions import (
    DisconnectedInsertionError,
    DuplicateEdgeError,
    EdgeNotFoundError,
    FTreeInvariantError,
    VertexNotFoundError,
)
from repro.ftree.components import (
    BiConnectedComponent,
    Component,
    MonoConnectedComponent,
)
from repro.ftree.sampler import ComponentSampler
from repro.reachability.confidence import standard_normal_quantile
from repro.types import Edge, VertexId


@dataclass
class InsertionResult:
    """Describes what one edge insertion did to the F-tree."""

    edge: Edge
    #: Paper case label: "IIa", "IIb", "IIIa", "IIIb" or "IV".
    case: str
    #: Ids of components created by the insertion.
    created_components: List[int] = field(default_factory=list)
    #: Ids of components removed (absorbed or emptied) by the insertion.
    removed_components: List[int] = field(default_factory=list)
    #: Ids of bi components whose reachability must be re-estimated.
    invalidated_components: List[int] = field(default_factory=list)


class FTree:
    """Flow tree over the currently selected edge set of an uncertain graph.

    Parameters
    ----------
    graph:
        The full uncertain graph; supplies edge probabilities and vertex
        weights.  The F-tree itself only tracks the *selected* edges.
    query:
        The query vertex ``Q``; all flow is measured towards it.
    sampler:
        The :class:`ComponentSampler` used to estimate bi-connected
        components (a default sampler is created when omitted).
    """

    def __init__(
        self,
        graph,
        query: VertexId,
        sampler: Optional[ComponentSampler] = None,
    ) -> None:
        if not graph.has_vertex(query):
            raise VertexNotFoundError(query)
        self.graph = graph
        self.query = query
        self.sampler = sampler if sampler is not None else ComponentSampler()
        self._components: Dict[int, Component] = {}
        #: vertex -> id of the component that owns it (Q is never owned)
        self._owner: Dict[VertexId, int] = {}
        self._selected: Set[Edge] = set()
        self._next_id = 0
        self._root_mono_id: Optional[int] = None

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def selected_edges(self) -> Set[Edge]:
        """The set of edges inserted so far."""
        return set(self._selected)

    @property
    def n_selected(self) -> int:
        """Number of selected edges."""
        return len(self._selected)

    def components(self) -> List[Component]:
        """Return all components (arbitrary order)."""
        return list(self._components.values())

    def component(self, component_id: int) -> Component:
        """Return the component with the given id."""
        return self._components[component_id]

    def connected_vertices(self) -> Set[VertexId]:
        """Return all vertices currently connected to the query vertex (including Q)."""
        return set(self._owner) | {self.query}

    def is_connected_vertex(self, vertex: VertexId) -> bool:
        """Return True if ``vertex`` is the query vertex or reachable via selected edges."""
        return vertex == self.query or vertex in self._owner

    def owner_of(self, vertex: VertexId) -> Optional[Component]:
        """Return the component owning ``vertex`` (None for the query vertex)."""
        if vertex == self.query:
            return None
        component_id = self._owner.get(vertex)
        return None if component_id is None else self._components[component_id]

    # ------------------------------------------------------------------
    # bookkeeping helpers
    # ------------------------------------------------------------------
    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def _register(self, component: Component) -> None:
        self._components[component.component_id] = component
        for vertex in component.vertices:
            self._owner[vertex] = component.component_id

    def _unregister(self, component: Component) -> None:
        self._components.pop(component.component_id, None)
        if self._root_mono_id == component.component_id:
            self._root_mono_id = None

    def _root_mono(self) -> MonoConnectedComponent:
        """Return (creating lazily) the mono component anchored directly at Q."""
        if self._root_mono_id is not None:
            component = self._components.get(self._root_mono_id)
            if isinstance(component, MonoConnectedComponent):
                return component
        component = MonoConnectedComponent(self._new_id(), self.query)
        self._components[component.component_id] = component
        self._root_mono_id = component.component_id
        return component

    # ------------------------------------------------------------------
    # edge insertion (Section 5.4)
    # ------------------------------------------------------------------
    def insert_edge(self, u: VertexId, v: VertexId) -> InsertionResult:
        """Insert the selected edge ``(u, v)`` and update the decomposition.

        At least one endpoint must already be connected to the query
        vertex (Case I of the paper never occurs because edge selection
        grows a single connected component around ``Q``).
        """
        edge = Edge(u, v)
        if not self.graph.has_edge(u, v):
            raise EdgeNotFoundError(u, v)
        if edge in self._selected:
            raise DuplicateEdgeError(u, v)
        u_connected = self.is_connected_vertex(u)
        v_connected = self.is_connected_vertex(v)
        if not u_connected and not v_connected:
            raise DisconnectedInsertionError(u, v)
        self._selected.add(edge)
        if u_connected and not v_connected:
            return self._attach_new_vertex(u, v, edge)
        if v_connected and not u_connected:
            return self._attach_new_vertex(v, u, edge)
        return self._insert_between_connected(u, v, edge)

    # -- Case II ---------------------------------------------------------
    def _attach_new_vertex(self, anchor: VertexId, new_vertex: VertexId, edge: Edge) -> InsertionResult:
        owner = self.owner_of(anchor)
        if owner is None:
            # the anchor is the query vertex: grow the root mono component
            root = self._root_mono()
            root.add_vertex(new_vertex, anchor)
            self._owner[new_vertex] = root.component_id
            return InsertionResult(edge=edge, case="IIa", created_components=[], removed_components=[])
        if owner.is_mono:
            assert isinstance(owner, MonoConnectedComponent)
            owner.add_vertex(new_vertex, anchor)
            self._owner[new_vertex] = owner.component_id
            return InsertionResult(edge=edge, case="IIa")
        # anchor lives in a bi component: a new dead-end mono component hangs below it
        mono = MonoConnectedComponent(self._new_id(), anchor)
        mono.add_vertex(new_vertex, anchor)
        self._register(mono)
        return InsertionResult(edge=edge, case="IIb", created_components=[mono.component_id])

    # -- Cases III and IV --------------------------------------------------
    def _insert_between_connected(self, u: VertexId, v: VertexId, edge: Edge) -> InsertionResult:
        owner_u = self.owner_of(u)
        owner_v = self.owner_of(v)
        if (
            owner_u is not None
            and owner_v is not None
            and owner_u.component_id == owner_v.component_id
        ):
            if not owner_u.is_mono:
                # Case IIIa: new edge inside an existing bi component
                assert isinstance(owner_u, BiConnectedComponent)
                owner_u.add_edge(edge)
                return InsertionResult(
                    edge=edge,
                    case="IIIa",
                    invalidated_components=[owner_u.component_id],
                )
            return self._close_cycle(u, v, edge, case="IIIb")
        # the paper treats an edge between a bi component and its own articulation
        # vertex as Case IIIa as well: the edge lies entirely inside that component
        for inside, outside in ((owner_u, v), (owner_v, u)):
            if (
                inside is not None
                and not inside.is_mono
                and inside.articulation == outside
            ):
                assert isinstance(inside, BiConnectedComponent)
                inside.add_edge(edge)
                return InsertionResult(
                    edge=edge,
                    case="IIIa",
                    invalidated_components=[inside.component_id],
                )
        return self._close_cycle(u, v, edge, case="IV")

    def _anchor_chain(self, vertex: VertexId) -> List[Tuple[Component, VertexId]]:
        """Return the chain of (component, entry vertex) pairs from ``vertex`` up to Q."""
        chain: List[Tuple[Component, VertexId]] = []
        current = vertex
        guard = 0
        while current != self.query:
            component = self.owner_of(current)
            if component is None:
                raise FTreeInvariantError(
                    f"vertex {current!r} is connected but owned by no component"
                )
            chain.append((component, current))
            current = component.articulation
            guard += 1
            if guard > len(self._components) + 1:
                raise FTreeInvariantError("cycle detected in the component ancestry")
        return chain

    def _close_cycle(self, u: VertexId, v: VertexId, edge: Edge, case: str) -> InsertionResult:
        """Generic cycle-closing routine shared by Case IIIb and Case IV."""
        chain_u = self._anchor_chain(u)
        chain_v = self._anchor_chain(v)
        ids_u = {component.component_id: index for index, (component, _) in enumerate(chain_u)}
        ancestor: Optional[Component] = None
        cut_u, cut_v = len(chain_u), len(chain_v)
        for index_v, (component, _) in enumerate(chain_v):
            if component.component_id in ids_u:
                ancestor = component
                cut_u = ids_u[component.component_id]
                cut_v = index_v
                break
        below_u = chain_u[:cut_u]
        below_v = chain_v[:cut_v]
        entry_u = u if not below_u else below_u[-1][0].articulation
        entry_v = v if not below_v else below_v[-1][0].articulation

        moved_vertices: Set[VertexId] = set()
        moved_edges: Set[Edge] = {edge}
        orphans: List[Tuple[VertexId, Dict[VertexId, VertexId]]] = []
        removed: List[Component] = []

        for component, entry in below_u + below_v:
            self._consume_chain_component(
                component, entry, moved_vertices, moved_edges, orphans, removed
            )

        if ancestor is None:
            articulation: VertexId = self.query
        elif entry_u == entry_v:
            articulation = entry_u
        elif not ancestor.is_mono:
            # the lowest common ancestor is itself cyclic: it merges into the new component
            moved_vertices |= ancestor.vertices
            moved_edges |= ancestor.edges()
            removed.append(ancestor)
            articulation = ancestor.articulation
        else:
            assert isinstance(ancestor, MonoConnectedComponent)
            path_u = ancestor.path_to_articulation(entry_u)
            path_v = ancestor.path_to_articulation(entry_v)
            on_path_u = set(path_u)
            meet = next(vertex for vertex in path_v if vertex in on_path_u)
            moved_in_ancestor: List[VertexId] = []
            for vertex in path_u:
                if vertex == meet:
                    break
                moved_in_ancestor.append(vertex)
            for vertex in path_v:
                if vertex == meet:
                    break
                moved_in_ancestor.append(vertex)
            self._split_mono(
                ancestor, moved_in_ancestor, moved_vertices, moved_edges, orphans, removed
            )
            articulation = meet

        # assemble the new bi-connected component
        new_component = BiConnectedComponent(self._new_id(), articulation)
        new_component.absorb(moved_vertices - {articulation}, moved_edges)

        removed_ids: List[int] = []
        for component in removed:
            self._unregister(component)
            removed_ids.append(component.component_id)
        self._register(new_component)

        created_ids = [new_component.component_id]
        for anchor, parent_map in orphans:
            orphan = MonoConnectedComponent(self._new_id(), anchor)
            orphan.vertices = set(parent_map)
            orphan.parent_of = dict(parent_map)
            self._register(orphan)
            created_ids.append(orphan.component_id)

        return InsertionResult(
            edge=edge,
            case=case,
            created_components=created_ids,
            removed_components=removed_ids,
            invalidated_components=[new_component.component_id],
        )

    def _consume_chain_component(
        self,
        component: Component,
        entry: VertexId,
        moved_vertices: Set[VertexId],
        moved_edges: Set[Edge],
        orphans: List[Tuple[VertexId, Dict[VertexId, VertexId]]],
        removed: List[Component],
    ) -> None:
        """Merge one chain component (strictly below the ancestor) into the new cycle."""
        if component.is_mono:
            assert isinstance(component, MonoConnectedComponent)
            path = component.path_to_articulation(entry)
            moved = path[:-1]  # the articulation vertex belongs to the component above
            self._split_mono(component, moved, moved_vertices, moved_edges, orphans, removed)
        else:
            moved_vertices |= component.vertices
            moved_edges |= component.edges()
            removed.append(component)

    def _split_mono(
        self,
        component: MonoConnectedComponent,
        moved: Sequence[VertexId],
        moved_vertices: Set[VertexId],
        moved_edges: Set[Edge],
        orphans: List[Tuple[VertexId, Dict[VertexId, VertexId]]],
        removed: List[Component],
    ) -> None:
        """Move ``moved`` (a path towards the articulation) out of a mono component.

        Implements the ``splitTree`` operation: the moved vertices and
        their parent edges join the new cycle; remaining vertices whose
        path to the articulation crosses a moved vertex become orphan
        mono components anchored at the first moved vertex on their path;
        all other vertices stay in the (shrunk) original component.
        """
        moved_set = set(moved)
        for vertex in moved:
            moved_vertices.add(vertex)
            moved_edges.add(Edge(vertex, component.parent_of[vertex]))

        remaining = component.vertices - moved_set
        orphan_groups: Dict[VertexId, Set[VertexId]] = {}
        for vertex in remaining:
            current = vertex
            anchor: Optional[VertexId] = None
            while True:
                parent = component.parent_of[current]
                if parent in moved_set:
                    anchor = parent
                    break
                if parent == component.articulation:
                    break
                current = parent
            if anchor is not None:
                orphan_groups.setdefault(anchor, set()).add(vertex)

        orphaned: Set[VertexId] = set()
        for anchor, group in orphan_groups.items():
            parent_map = {vertex: component.parent_of[vertex] for vertex in group}
            orphans.append((anchor, parent_map))
            orphaned |= group

        component.remove_vertices(moved_set | orphaned)
        for vertex in moved_set | orphaned:
            # ownership is reassigned by the caller through _register;
            # drop the stale entry now so emptied components disappear cleanly
            self._owner.pop(vertex, None)
        if not component.vertices:
            self._unregister(component)
            removed.append(component)

    # ------------------------------------------------------------------
    # flow evaluation (Section 5.3)
    # ------------------------------------------------------------------
    def _topological_components(self) -> List[Component]:
        """Return components ordered so that parents precede children."""
        depth: Dict[int, int] = {}

        def component_depth(component: Component) -> int:
            cached = depth.get(component.component_id)
            if cached is not None:
                return cached
            seen: List[Component] = []
            current = component
            while True:
                if current.component_id in depth:
                    base = depth[current.component_id]
                    break
                seen.append(current)
                if current.articulation == self.query:
                    base = -1
                    break
                parent = self.owner_of(current.articulation)
                if parent is None:
                    raise FTreeInvariantError(
                        f"articulation vertex {current.articulation!r} of component "
                        f"{current.component_id} is owned by no component"
                    )
                if any(parent.component_id == c.component_id for c in seen):
                    raise FTreeInvariantError("component ancestry contains a cycle")
                current = parent
            for offset, visited in enumerate(reversed(seen), start=1):
                depth[visited.component_id] = base + offset
            return depth[component.component_id]

        ordered = sorted(self._components.values(), key=component_depth)
        return ordered

    def reachability_to_query(self) -> Dict[VertexId, float]:
        """Return the estimated probability of reaching Q for every connected vertex.

        The query vertex maps to 1.0.  Probabilities multiply along the
        component tree: a vertex's local reachability towards its
        component's articulation vertex times that articulation vertex's
        own reachability towards Q (independent components, Theorem 2).
        """
        reach: Dict[VertexId, float] = {self.query: 1.0}
        for component in self._topological_components():
            anchor_probability = reach.get(component.articulation)
            if anchor_probability is None:
                raise FTreeInvariantError(
                    f"anchor {component.articulation!r} of component "
                    f"{component.component_id} evaluated before its parent"
                )
            local = component.local_reachability(self.graph, self.sampler)
            for vertex, probability in local.items():
                reach[vertex] = probability * anchor_probability
        return reach

    def expected_flow(self, include_query: bool = False) -> float:
        """Return the expected information flow towards Q of the selected subgraph."""
        return self.flow_from_reachability(self.reachability_to_query(), include_query)

    def flow_from_reachability(
        self, reach: Dict[VertexId, float], include_query: bool = False
    ) -> float:
        """Return the flow ``sum(reach[v] * W(v))`` of a :meth:`reachability_to_query` map."""
        total = 0.0
        for vertex, probability in reach.items():
            if vertex == self.query:
                continue
            total += probability * self.graph.weight(vertex)
        if include_query:
            total += self.graph.weight(self.query)
        return total

    def flow_interval(self, alpha: float = 0.01, include_query: bool = False) -> Tuple[float, float]:
        """Return a (lower, upper) confidence interval on the expected flow.

        Mono components and exactly-evaluated bi components contribute
        with zero width; sampled bi components contribute per-vertex
        normal-approximation intervals (Definition 10) which are
        propagated multiplicatively down the component tree.
        """
        z = standard_normal_quantile(1.0 - alpha / 2.0)
        lower: Dict[VertexId, float] = {self.query: 1.0}
        upper: Dict[VertexId, float] = {self.query: 1.0}
        for component in self._topological_components():
            anchor_lower = lower.get(component.articulation)
            anchor_upper = upper.get(component.articulation)
            if anchor_lower is None or anchor_upper is None:
                raise FTreeInvariantError(
                    f"anchor {component.articulation!r} evaluated before its parent"
                )
            local = component.local_reachability(self.graph, self.sampler)
            sampled = (
                not component.is_mono
                and isinstance(component, BiConnectedComponent)
                and not component.reach_exact
                and component.reach_samples is not None
            )
            for vertex, probability in local.items():
                if sampled:
                    n = component.reach_samples or 1
                    half_width = z * (probability * (1.0 - probability) / n) ** 0.5
                    local_lower = max(0.0, probability - half_width)
                    local_upper = min(1.0, probability + half_width)
                else:
                    local_lower = local_upper = probability
                lower[vertex] = local_lower * anchor_lower
                upper[vertex] = local_upper * anchor_upper
        flow_lower = 0.0
        flow_upper = 0.0
        for vertex in lower:
            if vertex == self.query:
                continue
            weight = self.graph.weight(vertex)
            flow_lower += lower[vertex] * weight
            flow_upper += upper[vertex] * weight
        if include_query:
            query_weight = self.graph.weight(self.query)
            flow_lower += query_weight
            flow_upper += query_weight
        return flow_lower, flow_upper

    def pending_estimation_cost(self) -> int:
        """Return the number of edges in stale bi components not served by the memo cache.

        This is the ``cost(e)`` of the delayed-sampling heuristic
        (Section 6.4): zero when every stale component is either small
        enough for exact evaluation or already memoized.
        """
        cost = 0
        for component in self._components.values():
            if component.is_mono or not isinstance(component, BiConnectedComponent):
                continue
            if not component.needs_estimation:
                continue
            cost += self.sampler.estimation_cost(component.edges(), component.articulation)
        return cost

    # ------------------------------------------------------------------
    # copying and verification
    # ------------------------------------------------------------------
    def clone(self) -> "FTree":
        """Return a deep copy sharing the graph and the sampler (and its memo cache)."""
        clone = FTree(self.graph, self.query, sampler=self.sampler)
        clone._components = {
            component_id: component.clone()
            for component_id, component in self._components.items()
        }
        clone._owner = dict(self._owner)
        clone._selected = set(self._selected)
        clone._next_id = self._next_id
        clone._root_mono_id = self._root_mono_id
        return clone

    def check_invariants(self) -> None:
        """Verify the structural invariants of Definition 9; raise on violation."""
        seen_vertices: Set[VertexId] = set()
        component_edges: List[Edge] = []
        for component in self._components.values():
            if isinstance(component, MonoConnectedComponent):
                component.check_invariants()
            elif isinstance(component, BiConnectedComponent):
                component.check_invariants()
            if self.query in component.vertices:
                raise FTreeInvariantError("the query vertex must never be owned by a component")
            overlap = component.vertices & seen_vertices
            if overlap:
                raise FTreeInvariantError(
                    f"vertices {overlap!r} are owned by more than one component"
                )
            seen_vertices |= component.vertices
            for vertex in component.vertices:
                if self._owner.get(vertex) != component.component_id:
                    raise FTreeInvariantError(
                        f"ownership map disagrees with component {component.component_id} "
                        f"about vertex {vertex!r}"
                    )
            component_edges.extend(component.edges())
        if set(self._owner) != seen_vertices:
            raise FTreeInvariantError("ownership map references vertices owned by no component")
        if len(component_edges) != len(set(component_edges)):
            raise FTreeInvariantError("an edge belongs to more than one component")
        if set(component_edges) != self._selected:
            raise FTreeInvariantError(
                "the union of component edges does not equal the selected edge set"
            )
        for edge in self._selected:
            if not self.graph.has_edge(edge.u, edge.v):
                raise FTreeInvariantError(f"selected edge {edge!r} is not in the graph")
        # the ancestry must be acyclic and terminate at Q
        self._topological_components()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<FTree Q={self.query!r}: {len(self._components)} components, "
            f"{len(self._selected)} selected edges>"
        )
