"""Weighted undirected graphs with node sizes and edge capacities.

The spreading-metric machinery (Algorithm 2 / 3 of the paper) operates on a
graph ``G = (V, E)`` whose edges carry capacities ``c(e)`` and, during the
flow computation, mutable lengths ``d(e)`` and flows ``f(e)``.  The class
keeps a CSR (compressed sparse row) cache so that the fast
``scipy.sparse.csgraph`` Dijkstra path can mutate edge weights in place.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import HypergraphError


class Graph:
    """An undirected multigraph with sized nodes and capacitated edges.

    Parallel edges are merged at construction time by summing capacities —
    this matches how a clique expansion accumulates weight between a node
    pair covered by several nets.

    Parameters
    ----------
    num_nodes:
        Number of nodes ``0..num_nodes-1``.
    edges:
        Iterable of ``(u, v)`` or ``(u, v, capacity)`` tuples, ``u != v``.
    node_sizes:
        Optional node sizes (default unit).
    name:
        Optional label.
    """

    def __init__(
        self,
        num_nodes: int,
        edges: Iterable[Sequence[float]],
        node_sizes: Optional[Sequence[float]] = None,
        name: str = "",
    ) -> None:
        if num_nodes <= 0:
            raise HypergraphError("a graph needs at least one node")
        self._num_nodes = int(num_nodes)
        self.name = name

        merged: Dict[Tuple[int, int], float] = {}
        for edge in edges:
            if len(edge) == 2:
                u, v = edge
                cap = 1.0
            else:
                u, v, cap = edge  # type: ignore[misc]
            u, v = int(u), int(v)
            if u == v:
                raise HypergraphError(f"self-loop ({u},{v}) not allowed")
            if not (0 <= u < self._num_nodes and 0 <= v < self._num_nodes):
                raise HypergraphError(f"edge ({u},{v}) out of range")
            cap = float(cap)
            if cap <= 0:
                raise HypergraphError("edge capacities must be positive")
            key = (u, v) if u < v else (v, u)
            merged[key] = merged.get(key, 0.0) + cap

        self._edges: List[Tuple[int, int]] = sorted(merged)
        self._capacities = np.array(
            [merged[key] for key in self._edges], dtype=float
        )

        if node_sizes is None:
            self._node_sizes = np.ones(self._num_nodes, dtype=float)
        else:
            self._node_sizes = np.asarray(node_sizes, dtype=float)
            if self._node_sizes.shape != (self._num_nodes,):
                raise HypergraphError("node_sizes length != num_nodes")
            if np.any(self._node_sizes <= 0):
                raise HypergraphError("node sizes must be positive")

        # Adjacency: node -> list of (neighbor, edge_id)
        adjacency: List[List[Tuple[int, int]]] = [
            [] for _ in range(self._num_nodes)
        ]
        for edge_id, (u, v) in enumerate(self._edges):
            adjacency[u].append((v, edge_id))
            adjacency[v].append((u, edge_id))
        self._adjacency: List[Tuple[Tuple[int, int], ...]] = [
            tuple(lst) for lst in adjacency
        ]

        self._csr_cache: Optional[Tuple[object, np.ndarray]] = None
        self._csr_weights_token = 0
        self._endpoints: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return self._num_nodes

    @property
    def num_edges(self) -> int:
        """Number of (merged) edges."""
        return len(self._edges)

    def nodes(self) -> range:
        """All node ids."""
        return range(self._num_nodes)

    def edges(self) -> List[Tuple[int, int]]:
        """All edges as sorted ``(u, v)`` pairs with ``u < v`` (do not mutate)."""
        return self._edges

    def edge(self, edge_id: int) -> Tuple[int, int]:
        """Endpoints of edge ``edge_id``."""
        return self._edges[edge_id]

    def capacity(self, edge_id: int) -> float:
        """Capacity ``c(e)`` of edge ``edge_id``."""
        return float(self._capacities[edge_id])

    def capacities(self) -> np.ndarray:
        """Capacity vector indexed by edge id (do not mutate)."""
        return self._capacities

    def node_size(self, v: int) -> float:
        """Size ``s(v)``."""
        return float(self._node_sizes[v])

    def node_sizes(self) -> np.ndarray:
        """Node-size vector (do not mutate)."""
        return self._node_sizes

    def total_size(self, subset: Optional[Iterable[int]] = None) -> float:
        """Total size of ``subset`` (whole node set if None)."""
        if subset is None:
            return float(self._node_sizes.sum())
        return float(sum(self._node_sizes[v] for v in subset))

    def neighbors(self, v: int) -> Tuple[Tuple[int, int], ...]:
        """Tuples ``(neighbor, edge_id)`` incident to ``v``."""
        return self._adjacency[v]

    def degree(self, v: int) -> int:
        """Number of incident edges."""
        return len(self._adjacency[v])

    def edge_id(self, u: int, v: int) -> Optional[int]:
        """Edge id between ``u`` and ``v``, or None if absent."""
        for neighbor, edge_id in self._adjacency[u]:
            if neighbor == v:
                return edge_id
        return None

    def edge_endpoints(self) -> np.ndarray:
        """All edges as an ``(num_edges, 2)`` int array (do not mutate).

        Row ``e`` holds the endpoints ``(u, v)`` with ``u < v`` of edge
        ``e`` — the vectorised counterpart of :meth:`edge`, used by the
        batched spreading engine to test dirty edges against
        predecessor arrays without a Python loop.
        """
        if self._endpoints is None:
            self._endpoints = np.array(self._edges, dtype=np.int64).reshape(
                len(self._edges), 2
            )
        return self._endpoints

    # ------------------------------------------------------------------
    # CSR view for scipy.sparse.csgraph
    # ------------------------------------------------------------------
    def csr_structure(self) -> Tuple[object, np.ndarray]:
        """A CSR matrix of the graph plus the edge-id -> data-slot mapping.

        Returns ``(matrix, slots)`` where ``matrix`` is a
        ``scipy.sparse.csr_matrix`` whose ``data`` array can be mutated in
        place, and ``slots`` is an ``(num_edges, 2)`` integer array giving
        the two positions in ``matrix.data`` that hold each (undirected)
        edge's weight.  Weights are initialised to the edge capacities;
        callers overwrite them with metric lengths.
        """
        if self._csr_cache is None:
            from scipy.sparse import csr_matrix

            rows: List[int] = []
            cols: List[int] = []
            edge_of_entry: List[int] = []
            for edge_id, (u, v) in enumerate(self._edges):
                rows.append(u)
                cols.append(v)
                edge_of_entry.append(edge_id)
                rows.append(v)
                cols.append(u)
                edge_of_entry.append(edge_id)
            data = np.ones(len(rows), dtype=float)
            matrix = csr_matrix(
                (data, (np.array(rows), np.array(cols))),
                shape=(self._num_nodes, self._num_nodes),
            )
            # Map each edge to its two slots in matrix.data.  csr_matrix
            # construction sorts entries by (row, col); recover positions by
            # scanning the structure.
            slots = np.empty((len(self._edges), 2), dtype=np.int64)
            seen = np.zeros(len(self._edges), dtype=np.int64)
            indptr, indices = matrix.indptr, matrix.indices
            pair_to_edge = {
                pair: edge_id for edge_id, pair in enumerate(self._edges)
            }
            for row in range(self._num_nodes):
                for pos in range(indptr[row], indptr[row + 1]):
                    col = int(indices[pos])
                    key = (row, col) if row < col else (col, row)
                    edge_id = pair_to_edge[key]
                    slots[edge_id, seen[edge_id]] = pos
                    seen[edge_id] += 1
            self._csr_cache = (matrix, slots)
        matrix, slots = self._csr_cache
        return matrix, slots

    @property
    def csr_weights_token(self) -> int:
        """Generation counter of the CSR ``data`` array.

        Incremented by every :meth:`set_csr_weights` /
        :meth:`update_csr_weights` write.  Callers that cache "my weights
        are installed" state (the spreading oracle) compare tokens to
        detect that another writer has clobbered the shared cache and a
        full re-install is needed.
        """
        return self._csr_weights_token

    def set_csr_weights(self, weights: np.ndarray) -> object:
        """Write per-edge ``weights`` into the cached CSR matrix and return it."""
        matrix, slots = self.csr_structure()
        data = matrix.data  # type: ignore[attr-defined]
        data[slots[:, 0]] = weights
        data[slots[:, 1]] = weights
        self._csr_weights_token += 1
        return matrix

    def update_csr_weights(self, edge_ids: np.ndarray, values: np.ndarray) -> object:
        """Overwrite the CSR weights of ``edge_ids`` only, in place.

        The incremental counterpart of :meth:`set_csr_weights`: after a
        flow injection touches ``k`` edges, only their ``2k`` data slots
        are rewritten instead of all ``2m`` — the per-injection cost of
        keeping the Dijkstra matrix current drops from O(m) to O(k).

        Parameters
        ----------
        edge_ids : numpy.ndarray of int
            Edge ids whose weights changed.
        values : numpy.ndarray of float
            New weights, parallel to ``edge_ids``.

        Returns
        -------
        scipy.sparse.csr_matrix
            The cached matrix with the patched ``data`` array.  The
            weights token (:attr:`csr_weights_token`) is bumped so other
            cached-weight owners can detect the write.
        """
        matrix, slots = self.csr_structure()
        data = matrix.data  # type: ignore[attr-defined]
        touched = slots[edge_ids]
        data[touched[:, 0]] = values
        data[touched[:, 1]] = values
        self._csr_weights_token += 1
        return matrix

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    def subgraph(self, nodes: Iterable[int]) -> Tuple["Graph", Dict[int, int]]:
        """Induced subgraph plus the old->new node-id mapping."""
        kept = sorted(set(int(v) for v in nodes))
        if not kept:
            raise HypergraphError("cannot induce a subgraph on no nodes")
        old_to_new = {old: new for new, old in enumerate(kept)}
        sub_edges = []
        for edge_id, (u, v) in enumerate(self._edges):
            if u in old_to_new and v in old_to_new:
                sub_edges.append(
                    (old_to_new[u], old_to_new[v], float(self._capacities[edge_id]))
                )
        sub = Graph(
            num_nodes=len(kept),
            edges=sub_edges,
            node_sizes=[float(self._node_sizes[v]) for v in kept],
            name=self.name + "#sub" if self.name else "",
        )
        return sub, old_to_new

    def to_networkx(self):  # pragma: no cover - convenience bridge
        """The graph as a :class:`networkx.Graph` (capacity as 'capacity')."""
        import networkx as nx

        nx_graph = nx.Graph()
        for v in range(self._num_nodes):
            nx_graph.add_node(v, size=float(self._node_sizes[v]))
        for edge_id, (u, v) in enumerate(self._edges):
            nx_graph.add_edge(u, v, capacity=float(self._capacities[edge_id]))
        return nx_graph

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = self.name or "Graph"
        return f"<{label}: {self.num_nodes} nodes, {self.num_edges} edges>"
