"""Optional compiled metric kernel: loading, gating, and the wrapper.

The C extension ``repro.core._kernel._native`` fuses the hot loop of
Algorithm 2 — the distance-limited Dijkstra plus the in-order
first-violation scan — into one early-exiting pass (see ``_native.c``
for the bit-identity contract).  The extension is strictly optional:
it is built opportunistically by ``setup.py`` and every consumer must
keep working when it is absent.  This module is the single gate:

``available()``
    True iff the compiled module imported successfully *and* the
    ``REPRO_DISABLE_NATIVE`` environment variable is not set.  The env
    var is re-read on every call so tests (and operators) can flip it
    without reloading modules.

``unavailable_reason()``
    A human-readable reason used in degradation records when a
    ``--engine native`` request has to fall back to scipy.

``NativeMetricKernel``
    The per-(graph, spec) wrapper: pins the CSR structure into
    kernel-private int64 arrays once, then answers per-source
    first-violation queries against the *live* shared CSR ``data``
    array, so in-place metric updates (``update_csr_weights``) are
    picked up with zero copying.
"""

from __future__ import annotations

import os
from typing import Optional, Tuple

import numpy as np

from repro.core.constraints import DEFAULT_TOL, Violation
from repro.core.gfunc import spreading_bound_array
from repro.htp.hierarchy import HierarchySpec
from repro.hypergraph.graph import Graph

DISABLE_ENV = "REPRO_DISABLE_NATIVE"

try:  # pragma: no cover - exercised only when the extension is absent
    from repro.core._kernel import _native
except ImportError as exc:  # pragma: no cover
    _native = None
    _IMPORT_ERROR = repr(exc)
else:
    _IMPORT_ERROR = None


def available() -> bool:
    """True when the compiled kernel can serve queries right now."""
    if os.environ.get(DISABLE_ENV, "").strip() not in ("", "0"):
        return False
    return _native is not None


def unavailable_reason() -> str:
    """Why :func:`available` is False (for degradation records)."""
    if os.environ.get(DISABLE_ENV, "").strip() not in ("", "0"):
        return f"disabled by {DISABLE_ENV}"
    if _native is None:
        return f"extension not built: {_IMPORT_ERROR}"
    return "available"


class NativeMetricKernel:
    """Per-source first-violation queries answered by the C kernel.

    Construction pins the CSR *structure* (indptr / indices / the data-
    position-to-edge-id map) into kernel-private int64 copies.  The CSR
    *weights* are re-fetched from ``graph.csr_structure()`` on every
    call, so the kernel always sees the oracle's current metric —
    including in-place patches and re-installs.

    The kernel never prices lengths itself: ``np.expm1`` is not
    guaranteed bitwise-equal to libm's ``expm1``, so repricing stays in
    numpy and the kernel only ever *reads* the installed floored metric.
    """

    def __init__(
        self,
        graph: Graph,
        spec: HierarchySpec,
        tol: float = DEFAULT_TOL,
    ) -> None:
        if not available():  # pragma: no cover - guarded by callers
            raise RuntimeError(
                f"native kernel unavailable: {unavailable_reason()}"
            )
        self._graph = graph
        matrix, slots = graph.csr_structure()
        n = graph.num_nodes
        indptr = np.ascontiguousarray(matrix.indptr, dtype=np.int64)
        indices = np.ascontiguousarray(matrix.indices, dtype=np.int64)
        entry_edge = np.empty(matrix.nnz, dtype=np.int64)
        edge_ids = np.arange(graph.num_edges, dtype=np.int64)
        entry_edge[slots[:, 0]] = edge_ids
        entry_edge[slots[:, 1]] = edge_ids
        sizes = np.ascontiguousarray(graph.node_sizes(), dtype=np.float64)
        unit = bool(np.all(sizes == 1.0))
        unit_bounds = (
            np.ascontiguousarray(
                spreading_bound_array(spec, np.arange(1.0, n + 1.0)),
                dtype=np.float64,
            )
            if unit
            else None
        )
        caps = np.ascontiguousarray(spec.capacities, dtype=np.float64)
        weights = np.ascontiguousarray(spec.weights, dtype=np.float64)
        limit = 2.0 * float(np.sum(weights))
        # Keep every array the C state points into alive for the
        # kernel's lifetime (the capsule stores raw pointers).
        self._refs = (indptr, indices, entry_edge, sizes, unit_bounds,
                      caps, weights)
        self._state = _native.init(
            n,
            indptr,
            indices,
            entry_edge,
            None if unit else sizes,
            unit_bounds,
            caps,
            weights,
            spec.num_levels,
            limit,
            float(tol),
        )

    def check(self, source: int) -> Tuple[int, Optional[Violation]]:
        """First violated prefix anchored at ``source``.

        Returns ``(settled, violation)`` where ``settled`` is how many
        nodes the early-exiting search actually settled and ``violation``
        matches the scipy engines bit for bit (or is None).
        """
        matrix, _slots = self._graph.csr_structure()
        data = np.asarray(matrix.data)
        settled, k, nodes, tree_edges, lhs, rhs = _native.check(
            self._state, data, int(source)
        )
        if k == 0:
            return settled, None
        violation = Violation(
            source=int(source),
            k=int(k),
            nodes=tuple(int(v) for v in nodes),
            tree_edges=tuple(int(e) for e in tree_edges),
            lhs=float(lhs),
            rhs=float(rhs),
        )
        return settled, violation
