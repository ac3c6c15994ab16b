"""repro — reproduction of Kuo & Cheng, "A Network Flow Approach for
Hierarchical Tree Partitioning" (DAC 1997).

Public API quick tour::

    from repro import (
        Hypergraph, binary_hierarchy, flow_htp, FlowHTPConfig,
        gfm_partition, rfm_partition, htp_fm_improve, total_cost,
    )

    netlist = ...                        # a Hypergraph
    spec = binary_hierarchy(netlist.total_size(), height=4)
    result = flow_htp(netlist, spec)     # the paper's FLOW algorithm
    print(result.cost)

See ``DESIGN.md`` for the system inventory and ``EXPERIMENTS.md`` for the
reproduced tables and figures.
"""

from repro.errors import (
    ConvergenceError,
    HierarchyError,
    HypergraphError,
    InfeasibleError,
    PartitionError,
    ReproError,
)
from repro.hypergraph import (
    Graph,
    Hypergraph,
    clique_expansion,
    cycle_expansion,
    figure2_graph,
    figure2_hypergraph,
    iscas85_surrogate,
    planted_hierarchy_hypergraph,
    random_hypergraph,
    star_expansion,
    to_graph,
)
from repro.htp import (
    HierarchySpec,
    IncrementalCost,
    PartitionTree,
    binary_hierarchy,
    check_partition,
    net_cost,
    net_span,
    total_cost,
)
from repro.core import (
    FlowHTPConfig,
    FlowHTPResult,
    LPResult,
    SpreadingMetricConfig,
    SpreadingMetricResult,
    SpreadingOracle,
    compute_spreading_metric,
    construct_partition,
    find_cut,
    flow_htp,
    solve_spreading_lp,
    spreading_bound,
)
from repro.partitioning import (
    FMConfig,
    HTPFMConfig,
    fm_bipartition,
    fm_refine,
    gfm_partition,
    htp_fm_improve,
    random_partition,
    recursive_bisection,
    rfm_partition,
)

__version__ = "1.0.0"

__all__ = [
    "ReproError",
    "HypergraphError",
    "HierarchyError",
    "InfeasibleError",
    "PartitionError",
    "ConvergenceError",
    "Hypergraph",
    "Graph",
    "clique_expansion",
    "cycle_expansion",
    "star_expansion",
    "to_graph",
    "figure2_graph",
    "figure2_hypergraph",
    "iscas85_surrogate",
    "planted_hierarchy_hypergraph",
    "random_hypergraph",
    "HierarchySpec",
    "binary_hierarchy",
    "PartitionTree",
    "IncrementalCost",
    "net_cost",
    "net_span",
    "total_cost",
    "check_partition",
    "spreading_bound",
    "SpreadingOracle",
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
    "FMConfig",
    "fm_bipartition",
    "fm_refine",
    "recursive_bisection",
    "gfm_partition",
    "rfm_partition",
    "HTPFMConfig",
    "htp_fm_improve",
    "random_partition",
    "__version__",
]
