"""The spreading-constraint oracle (Constraint (5) of the paper).

(P1) has a constraint for every node set; Claim 4 of Even et al. reduces
this to the O(n^2) family over shortest-path trees: for every node ``v``
and every ``k``,

    sum_{u in S(v,k)} s(u) * dist(v, u)  >=  g(s(S(v,k)))

where ``S(v, k)`` is the tree of the ``k`` nearest nodes to ``v`` under the
current metric.  (With unit sizes this is exactly the paper's form; the
size weighting generalises it via Equation (6).)

:class:`SpreadingOracle` answers, for a given metric: is everything
satisfied?  Which tree is the first / the most violated for a node?  And
what are the tree-cut coefficients ``delta(S(v,k), e)`` — the total node
size hanging below each tree edge — needed both for flow injection
(Algorithm 2) and for LP cutting planes (Equation (7)).

Two engines are provided: a vectorised ``scipy`` engine (CSR Dijkstra from
C, numpy prefix sums) and a pure-Python reference engine that grows the
tree incrementally and stops at the first violation.  They are
cross-checked in the test suite.

Batched engine
--------------
:meth:`SpreadingOracle.batch_check` / :meth:`violations_for_batch` answer
the same query for many sources with ONE ``scipy.csgraph.dijkstra`` call
(``indices=<all sources>``) and a single vectorised 2-D prefix-sum scan,
instead of one C round-trip per source.  Two exactness-preserving
optimisations make the batch cheap:

* **Distance-limited search.**  ``g`` is piecewise linear with slope at
  most ``2W`` (``W = sum of the level weights``), while every node beyond
  distance ``2W`` adds at least ``s(u) * 2W`` to the left-hand side — so
  extending a tree past radius ``2W`` can only shrink the violation gap:
  ``gap(k) <= gap(k_lim)`` for every prefix ``k`` beyond the last
  within-limit prefix ``k_lim``.  A Dijkstra stopped at ``limit = 2W``
  therefore yields the exact first/max violation, and certifies
  satisfaction, without settling the whole graph.
* **Cached floored CSR weights.**  The ``max(d, 1e-15)`` floor (scipy
  drops stored zeros) is folded into the cached CSR ``data`` array once
  per metric update — :meth:`update_lengths` rewrites only the dirty
  edges in place — instead of allocating an O(m) floored copy per source.

Per-source results are bit-identical to the serial path; the equivalence
is asserted in ``tests/test_batched_oracle.py``.

Canonical shortest-path trees
-----------------------------
Shortest-path distances are implementation-independent (every correct
Dijkstra computes the same float64 distance array for the same CSR,
because relaxation only ever takes ``min`` of left-to-right float sums),
but *predecessors* are not: among equal-length paths, scipy's heap, the
pure-Python heap and a C kernel each break ties differently.  All
engines therefore derive tree edges from the distance array alone: the
**canonical parent** of a settled node ``w`` is the neighbour ``v``
minimising ``(dist[v], v)`` lexicographically among those with
``dist[v] + d(v, w) == dist[w]`` in float arithmetic.  The Dijkstra
parent always qualifies, so a canonical parent always exists, and every
engine — scipy, pure Python, the native C kernel —
extracts the exact same tree without replicating any heap's tie order.

The batched round loop's snapshot-reuse test is built on the same
principle: an edge ``(u, w)`` repriced after a snapshot can only affect
a source's verdict when it lay on *some* shortest path of that source's
snapshot — i.e. ``dist[u] + d_snap(u, w) == dist[w]`` (or symmetric) —
because lengths only grow, so a non-shortest edge that gets longer
still cannot enter any shortest path.  :meth:`BatchCheck.may_touch`
tests exactly that predicate against the snapshot distance matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.algorithms.dijkstra import dijkstra_expansion
from repro.core.gfunc import spreading_bound_array
from repro.core.perf import PerfCounters
from repro.errors import InfeasibleError
from repro.htp.hierarchy import HierarchySpec
from repro.hypergraph.graph import Graph

#: Numerical slack when comparing constraint sides.
DEFAULT_TOL = 1e-9

#: Floor applied to edge lengths before the CSR Dijkstra: scipy's csgraph
#: drops stored zeros from sparse inputs, which would disconnect
#: zero-length edges (the LP starts from the all-zero metric).
MIN_CSR_LENGTH = 1e-15

#: Sub-round size cap for :meth:`SpreadingOracle.violations_for_batch` —
#: bounds the dense (sources x nodes) scratch matrices to ~30 MB.
MAX_BATCH_ELEMENTS = 4_000_000


@dataclass(frozen=True)
class Violation:
    """One violated spreading constraint.

    Attributes
    ----------
    source:
        The node ``v`` anchoring the shortest-path tree.
    k:
        Number of nodes in the violated tree ``S(v, k)``.
    nodes:
        The tree's nodes in nondecreasing ``(distance, id)`` order
        (``nodes[0] == source``).
    tree_edges:
        The ``k - 1`` edge ids of the canonical shortest-path tree;
        ``tree_edges[i - 1]`` joins ``nodes[i]`` to its canonical
        parent (see module docstring).
    lhs:
        ``sum s(u) dist(v, u)`` over the tree.
    rhs:
        ``g(s(S(v, k)))``.
    """

    source: int
    k: int
    nodes: Tuple[int, ...]
    tree_edges: Tuple[int, ...]
    lhs: float
    rhs: float

    @property
    def gap(self) -> float:
        """Violation magnitude ``rhs - lhs`` (> 0 for true violations)."""
        return self.rhs - self.lhs


@dataclass
class BatchCheck:
    """Snapshot result of one batched oracle sub-round.

    ``violations[i]`` is the first (or max) violation anchored at
    ``sources[i]`` under the metric at snapshot time, or None.  ``dist``
    is the ``(len(sources), num_nodes)`` distance matrix of the
    (distance-limited) Dijkstra; :meth:`may_touch` tests it against
    edges repriced *after* the snapshot: a snapshot verdict stays exact
    while no repriced edge lay on any snapshot shortest path — lengths
    only grow, so a non-shortest edge that lengthens still cannot enter
    a shortest path, and the distance array pins down exactly which
    edges were shortest.
    """

    sources: Tuple[int, ...]
    violations: List[Optional[Violation]]
    dist: np.ndarray

    def may_touch(
        self,
        index: int,
        dirty_u: np.ndarray,
        dirty_w: np.ndarray,
        dirty_len: np.ndarray,
    ) -> bool:
        """True when a repriced edge could affect source ``index``.

        ``dirty_u`` / ``dirty_w`` are parallel endpoint arrays of the
        repriced edges and ``dirty_len`` their *snapshot-time* floored
        lengths.  Edge ``(u, w)`` lay on a snapshot shortest path iff
        ``dist[u] + len == dist[w]`` (or symmetric) in exact float64 —
        the very comparison the Dijkstra relaxation performed.  The
        ``isfinite`` guards drop beyond-limit pairs, where
        ``inf + len == inf`` would match spuriously even though an edge
        between two beyond-limit nodes cannot influence a within-limit
        verdict.
        """
        row = self.dist[index]
        du = row[dirty_u]
        dw = row[dirty_w]
        return bool(
            np.any(
                (np.isfinite(du) & (du + dirty_len == dw))
                | (np.isfinite(dw) & (dw + dirty_len == du))
            )
        )


class SpreadingOracle:
    """Spreading-constraint queries for one graph and hierarchy spec.

    Answers, for the currently installed metric ``d``: is every spreading
    constraint (Constraint (5)) satisfied?  Which shortest-path tree
    ``S(v, k)`` is the first / most violated for a source ``v``?  And what
    are the tree-cut coefficients of Equation (6)?

    Parameters
    ----------
    graph : Graph
        The graph the metric lives on (shares node ids with the netlist).
    spec : HierarchySpec
        Hierarchy bounds supplying the right-hand side ``g``.
    engine : {'scipy', 'python'}, optional
        ``'scipy'`` answers queries with the CSR ``csgraph`` Dijkstra
        (vectorised, distance-limited); ``'python'`` is the incremental
        pure-Python reference.  Both produce identical verdicts.
    tol : float, optional
        Numerical slack when comparing constraint sides.
    counters : PerfCounters, optional
        Instrumentation sink; incremented on every query.

    Notes
    -----
    **Engine equivalence guarantee.**  For a fixed metric, every query
    (``violation_for``, ``batch_check``, ``violations_for_batch``) returns
    bit-identical results across the ``scipy`` and ``python`` engines, for
    any batch split — asserted in ``tests/test_batched_oracle.py``.
    """

    def __init__(
        self,
        graph: Graph,
        spec: HierarchySpec,
        engine: str = "scipy",
        tol: float = DEFAULT_TOL,
        counters: Optional[PerfCounters] = None,
    ) -> None:
        if engine not in ("scipy", "python"):
            raise ValueError(f"unknown engine {engine!r}")
        self._graph = graph
        self._spec = spec
        self._engine = engine
        self._tol = tol
        self._counters = counters
        self._lengths = np.zeros(graph.num_edges, dtype=float)
        self._floored = np.full(graph.num_edges, MIN_CSR_LENGTH, dtype=float)
        self._csr_token: Optional[int] = None
        self._version = 0
        self._sizes = graph.node_sizes()
        self._unit_sizes = bool(np.all(self._sizes == 1.0))
        # The exactness radius of the distance-limited batch Dijkstra:
        # g' <= 2 * sum(weights) everywhere (see module docstring).
        self._limit = 2.0 * float(np.sum(spec.weights))
        self._entry_edge: Optional[np.ndarray] = None
        self._unit_bounds: Optional[np.ndarray] = None
        if self._unit_sizes:
            self._unit_bounds = spreading_bound_array(
                spec, np.arange(1.0, graph.num_nodes + 1.0)
            )
        oversized = [
            v
            for v in graph.nodes()
            if graph.node_size(v) > spec.capacity(0) + tol
        ]
        if oversized:
            raise InfeasibleError(
                f"nodes {oversized[:5]} are larger than the leaf capacity "
                f"C_0 = {spec.capacity(0)}; constraint (5) at k = 1 can "
                f"never be satisfied"
            )
        if engine == "scipy":
            # Materialise the CSR cache once.
            graph.csr_structure()

    # ------------------------------------------------------------------
    @property
    def graph(self) -> Graph:
        """The underlying graph."""
        return self._graph

    @property
    def spec(self) -> HierarchySpec:
        """The hierarchy spec providing ``g``."""
        return self._spec

    @property
    def version(self) -> int:
        """Metric generation counter (bumped by every length update)."""
        return self._version

    @property
    def counters(self) -> Optional[PerfCounters]:
        """The instrumentation sink."""
        return self._counters

    @property
    def tol(self) -> float:
        """Numerical slack when comparing constraint sides."""
        return self._tol

    def set_lengths(self, lengths: Sequence[float]) -> None:
        """Install a metric (copied); lengths are indexed by edge id."""
        arr = np.asarray(lengths, dtype=float)
        if arr.shape != (self._graph.num_edges,):
            raise ValueError(
                f"expected {self._graph.num_edges} edge lengths, got "
                f"{arr.shape}"
            )
        self._lengths = arr.copy()
        # Fold the scipy zero-dropping floor in once per metric install
        # instead of once per source query.
        self._floored = np.maximum(self._lengths, MIN_CSR_LENGTH)
        self._csr_token = None  # re-install lazily on the next query
        self._version += 1

    def update_lengths(
        self, edge_ids: Sequence[int], values: Sequence[float]
    ) -> None:
        """Reprice ``edge_ids`` in place (the post-injection fast path).

        Equivalent to ``set_lengths`` with only those entries changed,
        but O(k) instead of O(m): the cached metric, its floored copy and
        the shared CSR ``data`` slots are all patched in place.
        """
        edge_ids = np.asarray(edge_ids, dtype=np.int64)
        values = np.asarray(values, dtype=float)
        self._lengths[edge_ids] = values
        floored = np.maximum(values, MIN_CSR_LENGTH)
        self._floored[edge_ids] = floored
        if (
            self._engine == "scipy"
            and self._csr_token is not None
            and self._csr_token == self._graph.csr_weights_token
        ):
            # We own the CSR cache: patch just the dirty slots.
            self._graph.update_csr_weights(edge_ids, floored)
            self._csr_token = self._graph.csr_weights_token
        if self._counters is not None:
            self._counters.edges_repriced += int(edge_ids.size)
        self._version += 1

    def lengths(self) -> np.ndarray:
        """The currently installed metric (copy)."""
        return self._lengths.copy()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def violation_for(
        self, source: int, mode: str = "first"
    ) -> Optional[Violation]:
        """The first (or most) violated tree anchored at ``source``.

        ``mode='first'`` returns the smallest violated ``k`` (what
        Algorithm 2 injects on); ``mode='max'`` returns the ``k`` with the
        largest gap (what the LP cutting plane wants).  None when all
        constraints at ``source`` hold.
        """
        if mode not in ("first", "max"):
            raise ValueError(f"unknown mode {mode!r}")
        if self._engine == "python" and mode == "first":
            return self._python_first_violation(source)
        return self._scipy_violation(source, mode)

    def all_violations(
        self, sources: Optional[Sequence[int]] = None, mode: str = "max"
    ) -> List[Violation]:
        """Violations over ``sources`` (all nodes by default), one per node."""
        result = []
        nodes = sources if sources is not None else range(self._graph.num_nodes)
        for v in nodes:
            violation = self.violation_for(v, mode=mode)
            if violation is not None:
                result.append(violation)
        return result

    def is_feasible(self, sources: Optional[Sequence[int]] = None) -> bool:
        """True when no spreading constraint is violated."""
        nodes = sources if sources is not None else range(self._graph.num_nodes)
        return all(self.violation_for(v) is None for v in nodes)

    # ------------------------------------------------------------------
    # Batched oracle (the Algorithm-2 hot path)
    # ------------------------------------------------------------------
    def violations_for_batch(
        self, sources: Sequence[int], mode: str = "first"
    ) -> List[Optional[Violation]]:
        """Per-source verdicts for ``sources``, batched.

        Issues one distance-limited CSR Dijkstra per sub-round (a bounded
        slice of ``sources``) and vectorises the violation scan across
        the whole sub-round; results are bit-identical to calling
        :meth:`violation_for` per source under the same metric.
        """
        if mode not in ("first", "max"):
            raise ValueError(f"unknown mode {mode!r}")
        sources = [int(v) for v in sources]
        chunk = max(1, MAX_BATCH_ELEMENTS // max(1, self._graph.num_nodes))
        verdicts: List[Optional[Violation]] = []
        for start in range(0, len(sources), chunk):
            check = self.batch_check(sources[start : start + chunk], mode=mode)
            verdicts.extend(check.violations)
        return verdicts

    def batch_check(
        self, sources: Sequence[int], mode: str = "first"
    ) -> BatchCheck:
        """One batched sub-round: verdicts plus the distance matrix.

        The caller sizes the batch; memory scales as
        ``len(sources) * num_nodes`` doubles.  The distance matrix is
        what the incremental round loop needs to retire sources whose
        snapshot shortest paths avoided every edge dirtied after the
        snapshot (:meth:`BatchCheck.may_touch`).
        """
        from scipy.sparse.csgraph import dijkstra as csgraph_dijkstra

        sources = [int(v) for v in sources]
        matrix = self._csr_matrix()
        dist = csgraph_dijkstra(
            matrix,
            directed=False,
            indices=sources,
            limit=self._limit,
        )
        dist = np.atleast_2d(dist)
        if self._counters is not None:
            self._counters.dijkstra_calls += 1
            self._counters.dijkstra_sources += len(sources)
            self._counters.nodes_settled += int(np.isfinite(dist).sum())
            self._counters.batch_checks += 1
            self._counters.batch_sources += len(sources)
        violations = self._scan_batch(sources, dist, mode)
        return BatchCheck(
            sources=tuple(sources),
            violations=violations,
            dist=dist,
        )

    def _scan_batch(
        self,
        sources: List[int],
        dist: np.ndarray,
        mode: str,
    ) -> List[Optional[Violation]]:
        """Vectorised violation scan over a batch's distance matrix.

        Unreachable / beyond-limit entries are ``inf``: their cumulative
        weighted distance is ``inf`` so their gap is ``-inf`` — never
        flagged, exactly matching the serial path (which drops them) plus
        the distance-limit certificate (prefixes past the limit only
        shrink the gap).
        """
        stable_order: Optional[np.ndarray] = None
        if self._unit_sizes:
            # Unit sizes: the cumulative size of the k-prefix is k
            # regardless of tie order, so plain value sorting suffices
            # for the verdict and the precomputed g(1..n) is exact.
            dist_sorted = np.sort(dist, axis=1)
            cum_weighted = np.cumsum(dist_sorted, axis=1)
            bounds = self._unit_bounds
            gaps = bounds[None, :] - cum_weighted
        else:
            stable_order = np.argsort(dist, axis=1, kind="stable")
            dist_sorted = np.take_along_axis(dist, stable_order, axis=1)
            sizes_ordered = self._sizes[stable_order]
            cum_sizes = np.cumsum(sizes_ordered, axis=1)
            cum_weighted = np.cumsum(sizes_ordered * dist_sorted, axis=1)
            bounds = spreading_bound_array(self._spec, cum_sizes)
            gaps = bounds - cum_weighted
        violated = gaps > self._tol
        any_violated = violated.any(axis=1)

        verdicts: List[Optional[Violation]] = []
        for i, source in enumerate(sources):
            if not any_violated[i]:
                verdicts.append(None)
                continue
            if mode == "first":
                pick = int(np.argmax(violated[i]))
            else:
                masked = np.where(violated[i], gaps[i], -np.inf)
                pick = int(np.argmax(masked))
            k = pick + 1
            if stable_order is None:
                order = np.argsort(dist[i], kind="stable")
            else:
                order = stable_order[i]
            nodes = tuple(int(v) for v in order[:k])
            tree_edges = self._canonical_tree_edges(nodes, dist[i])
            if self._unit_sizes:
                rhs = float(bounds[pick])
            else:
                rhs = float(bounds[i, pick])
            verdicts.append(
                Violation(
                    source=source,
                    k=k,
                    nodes=nodes,
                    tree_edges=tree_edges,
                    lhs=float(cum_weighted[i, pick]),
                    rhs=rhs,
                )
            )
        return verdicts

    def tree_cut_coefficients(
        self, violation: Violation
    ) -> List[Tuple[int, float]]:
        """``(edge_id, delta(S, e))`` pairs for a violated tree.

        ``delta(S, e)`` is the total node size of the subtree hanging below
        edge ``e`` (Equation (6)): removing ``e`` disconnects exactly those
        nodes from the source.  Satisfies the identity
        ``sum_e d(e) * delta(S, e) == lhs``.
        """
        nodes = violation.nodes
        tree_edges = violation.tree_edges
        index_of = {node: i for i, node in enumerate(nodes)}
        # parent_of[i] = index of the parent of nodes[i] in the tree.
        subtree = [float(self._sizes[node]) for node in nodes]
        coeffs: List[Tuple[int, float]] = []
        # Each tree edge connects nodes[i] (i >= 1, in settle order) to its
        # parent; accumulate subtree sizes from the farthest node inward.
        parent_index: List[int] = [0] * len(nodes)
        for i, edge_id in enumerate(tree_edges, start=1):
            u, w = self._graph.edge(edge_id)
            child = nodes[i]
            parent = w if u == child else u
            parent_index[i] = index_of[parent]
        for i in range(len(nodes) - 1, 0, -1):
            subtree[parent_index[i]] += subtree[i]
        for i, edge_id in enumerate(tree_edges, start=1):
            coeffs.append((edge_id, subtree[i]))
        return coeffs

    # ------------------------------------------------------------------
    # scipy engine
    # ------------------------------------------------------------------
    def install_weights(self):
        """Ensure the floored metric is installed in the CSR cache.

        Returns the ready-to-query CSR matrix.  The native engine calls
        this before its loop so the kernel, which reads the CSR ``data``
        array directly, sees the current metric; it is a no-op when this
        oracle's weights are already the installed generation.
        """
        return self._csr_matrix()

    def _csr_matrix(self):
        """The shared CSR matrix with this oracle's floored metric installed.

        The graph's weight token detects other writers (a second oracle,
        a test poking ``set_csr_weights``); only then is the full O(m)
        re-install paid.
        """
        if self._csr_token != self._graph.csr_weights_token:
            matrix = self._graph.set_csr_weights(self._floored)
            self._csr_token = self._graph.csr_weights_token
            return matrix
        matrix, _slots = self._graph.csr_structure()
        return matrix

    def _scipy_violation(self, source: int, mode: str) -> Optional[Violation]:
        from scipy.sparse.csgraph import dijkstra as csgraph_dijkstra

        matrix = self._csr_matrix()
        dist = csgraph_dijkstra(
            matrix,
            directed=False,
            indices=source,
        )
        if self._counters is not None:
            self._counters.dijkstra_calls += 1
            self._counters.dijkstra_sources += 1
            self._counters.nodes_settled += int(np.isfinite(dist).sum())
        reachable = np.flatnonzero(np.isfinite(dist))
        order = reachable[np.argsort(dist[reachable], kind="stable")]
        return self._violation_from_profile(source, order, dist, mode)

    def _violation_from_profile(
        self,
        source: int,
        order: np.ndarray,
        dist: np.ndarray,
        mode: str,
    ) -> Optional[Violation]:
        sizes_ordered = self._sizes[order]
        cum_sizes = np.cumsum(sizes_ordered)
        cum_weighted_dist = np.cumsum(sizes_ordered * dist[order])
        bounds = spreading_bound_array(self._spec, cum_sizes)
        gaps = bounds - cum_weighted_dist
        violated = np.flatnonzero(gaps > self._tol)
        if violated.size == 0:
            return None
        if mode == "first":
            pick = int(violated[0])
        else:
            pick = int(violated[np.argmax(gaps[violated])])
        k = pick + 1
        nodes = tuple(int(v) for v in order[:k])
        tree_edges = self._canonical_tree_edges(nodes, dist)
        return Violation(
            source=source,
            k=k,
            nodes=nodes,
            tree_edges=tree_edges,
            lhs=float(cum_weighted_dist[pick]),
            rhs=float(bounds[pick]),
        )

    def _entry_edges(self) -> np.ndarray:
        """``entry_edge[j]`` = edge id stored at CSR ``data`` position ``j``.

        The inverse of the graph's CSR slot table, built once: each
        undirected edge occupies two data slots, and both map back to
        the same edge id.  Lets the canonical-parent scan translate a
        CSR row position straight into an edge id.
        """
        if self._entry_edge is None:
            matrix, slots = self._graph.csr_structure()
            entry = np.empty(matrix.nnz, dtype=np.int64)
            ids = np.arange(slots.shape[0], dtype=np.int64)
            entry[slots[:, 0]] = ids
            entry[slots[:, 1]] = ids
            self._entry_edge = entry
        return self._entry_edge

    def _canonical_tree_edges(
        self, nodes: Tuple[int, ...], dist: np.ndarray
    ) -> Tuple[int, ...]:
        """Tree edges via canonical parents over the floored CSR metric.

        For each non-source node ``w`` the parent is the neighbour ``v``
        minimising ``(dist[v], v)`` lexicographically among those with
        ``dist[v] + d(v, w) == dist[w]`` exactly in float64; the
        Dijkstra parent always qualifies, so the candidate set is never
        empty.  Because floored lengths are strictly positive, the
        parent settles strictly before ``w`` and therefore precedes it
        in the ``(distance, id)`` node order.
        """
        matrix, _slots = self._graph.csr_structure()
        entry_edge = self._entry_edges()
        indptr = np.asarray(matrix.indptr)
        indices = np.asarray(matrix.indices)
        data = np.asarray(matrix.data)
        # One vectorised pass over the concatenated CSR neighbourhoods of
        # every non-source prefix node (a per-node Python loop here costs
        # more than the Dijkstra itself on large prefixes).
        heads = np.asarray(nodes[1:], dtype=np.int64)
        starts = indptr[heads].astype(np.int64)
        counts = (indptr[heads + 1] - starts).astype(np.int64)
        if np.any(counts == 0):  # pragma: no cover - no tree possible
            bad = heads[np.flatnonzero(counts == 0)[0]]
            raise RuntimeError(
                f"node {bad} has no incident edges; cannot be in a "
                f"shortest-path tree"
            )
        total = int(counts.sum())
        bounds = np.cumsum(counts)
        # positions[j] walks each head's CSR row in order: start + offset.
        owner = np.repeat(np.arange(heads.size), counts)
        offsets = np.arange(total) - np.repeat(bounds - counts, counts)
        positions = np.repeat(starts, counts) + offsets
        nbrs = indices[positions]
        dn = dist[nbrs]
        target = np.repeat(dist[heads], counts)
        on_path = np.isfinite(dn) & (dn + data[positions] == target)
        # Rank candidates (per owner) by the canonical (dist, id) key,
        # with off-path entries sorted behind every on-path one.
        order = np.lexsort((nbrs, dn, ~on_path, owner))
        first = np.searchsorted(owner[order], np.arange(heads.size))
        best = order[first]
        return tuple(int(e) for e in entry_edge[positions[best]])

    # ------------------------------------------------------------------
    # pure-Python engine (reference; stops at the first violation)
    # ------------------------------------------------------------------
    def _python_first_violation(self, source: int) -> Optional[Violation]:
        """Incremental first-violation scan, bit-identical to scipy.

        Nodes are consumed from the heap expansion in *plateau* buffers:
        settle order within one distance value is heap-dependent, so
        equal-distance pops are buffered and flushed in node-id order
        once a strictly larger distance pops (heap pops are
        nondecreasing, so the plateau is complete by then).  The flushed
        stream is therefore exactly the ``(distance, id)`` stable-sort
        order of the vectorised engine, and the running sums below
        reproduce its ``cumsum`` results addition for addition.  The
        expansion runs over the same floored lengths as the CSR engine
        so distances — and hence verdicts — match bitwise.
        """
        capacities = self._spec.capacities
        if self._counters is not None:
            self._counters.dijkstra_calls += 1
            self._counters.dijkstra_sources += 1
        lengths = self._floored
        dist_map: dict = {}
        processed: List[int] = []
        cum_size = 0.0
        lhs = 0.0

        def scan_plateau(plateau: List[int]) -> Optional[Violation]:
            nonlocal cum_size, lhs
            for w in sorted(plateau):
                processed.append(w)
                size = float(self._sizes[w])
                cum_size += size
                lhs += size * dist_map[w]
                if cum_size <= capacities[0]:
                    continue  # g = 0: trivially satisfied
                rhs = float(
                    spreading_bound_array(self._spec, np.array([cum_size]))[0]
                )
                if rhs - lhs > self._tol:
                    return Violation(
                        source=source,
                        k=len(processed),
                        nodes=tuple(processed),
                        tree_edges=self._canonical_tree_edges_py(
                            processed, dist_map, lengths
                        ),
                        lhs=lhs,
                        rhs=rhs,
                    )
            return None

        plateau: List[int] = []
        plateau_dist = -1.0
        for node, node_dist, _edge_id, _parent in dijkstra_expansion(
            self._graph, source, lengths
        ):
            if plateau and node_dist > plateau_dist:
                found = scan_plateau(plateau)
                if found is not None:
                    return found
                plateau = []
            plateau_dist = node_dist
            plateau.append(node)
            dist_map[node] = node_dist
        return scan_plateau(plateau)

    def _canonical_tree_edges_py(
        self,
        nodes: Sequence[int],
        dist_map: dict,
        lengths: np.ndarray,
    ) -> Tuple[int, ...]:
        """Adjacency-list twin of :meth:`_canonical_tree_edges`.

        ``dist_map`` holds the distances of every node settled so far;
        unsettled neighbours are correctly excluded because their final
        distance is at least the current plateau's, so they can never
        satisfy ``dist[v] + d(v, w) == dist[w]`` with positive lengths.
        """
        tree_edges: List[int] = []
        for w in nodes[1:]:
            target = dist_map[w]
            best: Optional[Tuple[float, int]] = None
            best_edge = -1
            for v, edge_id in self._graph.neighbors(w):
                dv = dist_map.get(v)
                if dv is None:
                    continue
                if dv + float(lengths[edge_id]) == target:
                    key = (dv, v)
                    if best is None or key < best:
                        best = key
                        best_edge = edge_id
            if best is None:  # pragma: no cover - structural invariant
                raise RuntimeError(
                    f"no canonical parent for node {w} at dist {target!r}"
                )
            tree_edges.append(int(best_edge))
        return tuple(tree_edges)
