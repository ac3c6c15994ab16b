"""The paper's primary contribution.

* :mod:`repro.core.gfunc` — the spreading lower-bound function ``g``.
* :mod:`repro.core.constraints` — the spreading-constraint oracle
  (Constraint (5): shortest-path-tree form, with the tree-cut
  coefficients of Equation (6)).
* :mod:`repro.core.spreading_metric` — Algorithm 2, the stochastic flow
  injection heuristic.
* :mod:`repro.core.construct` — Algorithm 3, top-down construction with
  the Prim-based ``find_cut``.
* :mod:`repro.core.flow_htp` — Algorithm 1, the FLOW driver (plus the
  multiple-constructions-per-metric extension from the conclusions).
* :mod:`repro.core.lp` — the exact linear program (P1) solved by cutting
  planes (Lemmas 1 and 2).
* :mod:`repro.core.checkpoint` — crash-safe durability: atomic,
  CRC-stamped snapshots of the round state behind
  ``flow_htp(checkpoint_dir=..., resume_from=...)``.
"""

from repro.core.gfunc import spreading_bound, spreading_bound_array
from repro.core.checkpoint import (
    FlowCheckpointer,
    MetricCheckpoint,
    load_latest_checkpoint,
    newest_checkpoint_age,
    run_fingerprint,
)
from repro.core.constraints import SpreadingOracle, Violation
from repro.core.spreading_metric import (
    SpreadingMetricConfig,
    SpreadingMetricResult,
    compute_spreading_metric,
)
from repro.core.construct import construct_partition, find_cut
from repro.core.flow_htp import FlowHTPConfig, FlowHTPResult, flow_htp
from repro.core.lp import LPResult, solve_spreading_lp
from repro.core.separator import (
    SeparatorResult,
    multiway_from_separator,
    rho_separator,
    separator_spec,
)

__all__ = [
    "spreading_bound",
    "spreading_bound_array",
    "FlowCheckpointer",
    "MetricCheckpoint",
    "load_latest_checkpoint",
    "newest_checkpoint_age",
    "run_fingerprint",
    "SpreadingOracle",
    "Violation",
    "SpreadingMetricConfig",
    "SpreadingMetricResult",
    "compute_spreading_metric",
    "construct_partition",
    "find_cut",
    "FlowHTPConfig",
    "FlowHTPResult",
    "flow_htp",
    "LPResult",
    "solve_spreading_lp",
    "SeparatorResult",
    "rho_separator",
    "multiway_from_separator",
    "separator_spec",
]
