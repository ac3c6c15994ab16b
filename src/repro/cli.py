"""Command-line interface: ``htp <command>``.

Commands
--------
``htp generate``   write a surrogate/synthetic netlist to an .hgr file
``htp partition``  partition a netlist (flow | gfm | rfm) and report cost
``htp exact``      solve a small instance to proven optimality
``htp lowerbound`` compute the LP lower bound of an instance
``htp table``      regenerate a paper table (1, 2 or 3)
``htp search``     sweep tree heights and report the best hierarchy
``htp separator``  compute a rho-separator of a netlist
``htp serve``      run the partitioning service (async job server + cache)
``htp route``      run the cluster router in front of N joined workers
``htp submit``     submit a netlist to a running service and await the result

Netlists are read from hMETIS ``.hgr`` files, or from ISCAS ``.bench``
files when the path ends in ``.bench``.  Unreadable or malformed input
files exit with code 2 and a one-line error.
"""

from __future__ import annotations

import argparse
import random
import sys
from typing import List, Optional

from repro.analysis.experiments import (
    ExperimentConfig,
    run_table1,
    run_table2,
    run_table3,
    table2_to_table,
    table3_to_table,
)
from repro.errors import ReproError
from repro.core.flow_htp import FlowHTPConfig, flow_htp
from repro.core.lp import solve_spreading_lp
from repro.core.spreading_metric import SpreadingMetricConfig
from repro.htp.cost import total_cost
from repro.htp.hierarchy import binary_hierarchy
from repro.htp.validate import partition_violations
from repro.hypergraph import io as hio
from repro.hypergraph.expansion import to_graph
from repro.hypergraph.generators import (
    ISCAS85_SIZES,
    iscas85_surrogate,
    planted_hierarchy_hypergraph,
    random_hypergraph,
    rent_hypergraph,
)
from repro.partitioning.gfm import gfm_partition
from repro.partitioning.htp_fm import htp_fm_improve
from repro.partitioning.multilevel_flow import (
    SOLVER_ENGINES,
    MultilevelFlowConfig,
    multilevel_flow_htp,
)
from repro.partitioning.rfm import rfm_partition


def _positive_int(value: str) -> int:
    """argparse type for strictly positive integer options."""
    try:
        parsed = int(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"{value!r} is not an integer"
        ) from exc
    if parsed < 1:
        raise argparse.ArgumentTypeError(
            f"{value!r} must be at least 1"
        )
    return parsed


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="htp",
        description=(
            "Hierarchical tree partitioning (Kuo & Cheng, DAC 1997 "
            "reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic netlist (.hgr)")
    gen.add_argument("output", help="output .hgr path")
    gen.add_argument(
        "--kind",
        choices=sorted(ISCAS85_SIZES) + ["planted", "random", "rent"],
        default="planted",
        help="'rent' builds a Rent-rule netlist of --nodes nodes — the "
        "large-instance generator behind the multilevel scaling bench",
    )
    gen.add_argument("--nodes", type=int, default=256)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--scale", type=float, default=1.0)
    gen.add_argument(
        "--leaf-size",
        type=int,
        default=None,
        help="rent only: nodes per bottom-level leaf region (default 32; "
        "must be at least 2)",
    )

    part = sub.add_parser("partition", help="partition a netlist")
    part.add_argument("input", help="input .hgr path")
    part.add_argument(
        "--algorithm", choices=["flow", "gfm", "rfm"], default="flow"
    )
    part.add_argument("--height", type=int, default=4)
    part.add_argument("--seed", type=int, default=0)
    part.add_argument("--iterations", type=int, default=2)
    part.add_argument(
        "--engine",
        choices=SOLVER_ENGINES,
        default="scipy",
        help="spreading-metric engine (flow algorithm only); all engines "
        "produce identical results for a fixed seed ('native' needs the "
        "compiled kernel and degrades to 'scipy' without it); "
        "'multilevel-flow' switches to the coarsen/solve/refine V-cycle "
        "for large netlists (see docs/multilevel.md)",
    )
    part.add_argument(
        "--coarsest-size",
        type=_positive_int,
        default=None,
        help="multilevel-flow: stop coarsening at this many nodes "
        "(default: derived from the hierarchy's leaf count)",
    )
    part.add_argument(
        "--cluster-fraction",
        type=float,
        default=0.05,
        help="multilevel-flow: cluster-size cap as a fraction of C_0 "
        "(default 0.05)",
    )
    part.add_argument(
        "--corridor-hops",
        type=_positive_int,
        default=2,
        help="multilevel-flow: BFS rings grown around each pair boundary "
        "during refinement (default 2)",
    )
    part.add_argument(
        "--refine-passes",
        type=_positive_int,
        default=3,
        help="multilevel-flow: refinement sweeps per uncoarsening level "
        "(default 3)",
    )
    part.add_argument(
        "--improve", action="store_true", help="run FM improvement afterwards"
    )
    part.add_argument(
        "--perf",
        action="store_true",
        help="print solver perf counters (flow algorithm only)",
    )
    part.add_argument(
        "--checkpoint-dir",
        default=None,
        help="write crash-safe round checkpoints here (flow algorithm "
        "only); a killed run restarted with --resume is bit-identical "
        "to an uninterrupted one",
    )
    part.add_argument(
        "--checkpoint-every",
        type=_positive_int,
        default=1,
        help="checkpoint every N metric rounds (default 1)",
    )
    part.add_argument(
        "--resume",
        action="store_true",
        help="resume from the newest valid checkpoint in --checkpoint-dir",
    )
    part.add_argument(
        "--verify-optimal",
        action="store_true",
        help="after partitioning, solve the instance exactly (small "
        "instances only) and report the achieved optimality gap; "
        "prints SKIP when the instance is out of exact reach",
    )
    part.add_argument(
        "--exact-time-limit",
        type=float,
        default=30.0,
        help="time box for the --verify-optimal exact solve (default 30s)",
    )

    exact = sub.add_parser(
        "exact",
        help="solve a small instance to proven optimality (ground truth)",
    )
    exact.add_argument("input", help="input .hgr path")
    exact.add_argument("--height", type=int, default=2)
    exact.add_argument(
        "--method",
        choices=["auto", "dp", "ilp", "bnb"],
        default="auto",
        help="exact backend: tree-metric DP (tree instances), ILP (needs "
        "pulp), branch-and-bound (always available), or auto-pick",
    )
    exact.add_argument(
        "--time-limit",
        type=float,
        default=60.0,
        help="wall-clock box; expiry downgrades 'optimal' to 'feasible'",
    )

    lower = sub.add_parser("lowerbound", help="LP lower bound (small inputs)")
    lower.add_argument("input", help="input .hgr path")
    lower.add_argument("--height", type=int, default=4)
    lower.add_argument("--max-iterations", type=int, default=200)

    table = sub.add_parser("table", help="regenerate a paper table")
    table.add_argument("number", type=int, choices=[1, 2, 3])
    table.add_argument("--scale", type=float, default=1.0)
    table.add_argument("--seed", type=int, default=0)

    search = sub.add_parser("search", help="sweep candidate hierarchies")
    search.add_argument("input", help="input netlist path")
    search.add_argument("--heights", type=int, nargs="+", default=[2, 3, 4])
    search.add_argument(
        "--algorithm", choices=["rfm", "flow"], default="rfm"
    )
    search.add_argument("--seed", type=int, default=0)

    separator = sub.add_parser("separator", help="compute a rho-separator")
    separator.add_argument("input", help="input netlist path")
    separator.add_argument("--rho", type=float, default=0.25)
    separator.add_argument("--seed", type=int, default=0)

    serve = sub.add_parser(
        "serve", help="run the partitioning service (HTTP job server)"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=None,
        help="TCP port (default 8947; 0 binds an ephemeral port, printed "
        "on startup)",
    )
    serve.add_argument(
        "--max-concurrency",
        type=_positive_int,
        default=2,
        help="jobs solved simultaneously",
    )
    serve.add_argument(
        "--cache-capacity",
        type=_positive_int,
        default=128,
        help="in-memory result-cache entries (LRU beyond this)",
    )
    serve.add_argument(
        "--cache-dir",
        default=None,
        help="directory for durable result blobs (default: memory only)",
    )
    serve.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        help="per-job wall-clock budget in seconds (default: the "
        "FaultTolerance task deadline, 120s)",
    )
    serve.add_argument(
        "--journal",
        default=None,
        metavar="DIR",
        help="write-ahead job journal directory; a restarted server "
        "replays it (done jobs served from the cache, queued jobs "
        "requeued, running jobs resumed from their checkpoints)",
    )
    serve.add_argument(
        "--fsync",
        choices=["always", "batch", "never"],
        default="always",
        help="journal fsync policy (default always: every accepted job "
        "survives a crash)",
    )
    serve.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help="solver checkpoint root; running jobs checkpoint under "
        "DIR/<spec_hash>/ and resume from there after a crash",
    )
    serve.add_argument(
        "--checkpoint-every",
        type=_positive_int,
        default=1,
        help="solver checkpoint cadence in metric rounds (default 1)",
    )
    serve.add_argument(
        "--max-queue-depth",
        type=_positive_int,
        default=None,
        help="admission control: reject submissions beyond this many "
        "queued jobs with HTTP 429 + Retry-After (default: unbounded)",
    )
    serve.add_argument(
        "--join",
        default=None,
        metavar="URL",
        help="register this worker with a cluster router (htp route) and "
        "heartbeat until shutdown; with a private --checkpoint-dir per "
        "worker, frames replicate to peers over HTTP for bit-identical "
        "failover",
    )
    serve.add_argument(
        "--worker-id",
        default=None,
        help="stable cluster identity (default: a fresh worker-<hex>); "
        "requires --join",
    )
    serve.add_argument(
        "--weight",
        type=float,
        default=1.0,
        help="declared capacity weight for cluster placement (default 1.0); "
        "requires --join",
    )
    serve.add_argument(
        "--advertise-url",
        default=None,
        metavar="URL",
        help="base URL the router should reach this worker at (default: "
        "the bound host:port); requires --join",
    )

    route_cmd = sub.add_parser(
        "route",
        help="run the cluster router (consistent-hash job placement over "
        "joined workers)",
    )
    route_cmd.add_argument("--host", default="127.0.0.1")
    route_cmd.add_argument(
        "--port",
        type=int,
        default=None,
        help="TCP port (default 8948; 0 binds an ephemeral port, printed "
        "on startup)",
    )
    route_cmd.add_argument(
        "--policy",
        choices=["hash", "capacity"],
        default="hash",
        help="placement policy: 'hash' keeps a spec pinned to its "
        "consistent-hash owner (cache/checkpoint locality); 'capacity' "
        "greedily bin-packs by worker weight and live load",
    )
    route_cmd.add_argument(
        "--journal",
        default=None,
        metavar="DIR",
        help="write-ahead placement journal; a restarted router replays "
        "it and re-places the dead run's in-flight jobs",
    )
    route_cmd.add_argument(
        "--cache-capacity",
        type=_positive_int,
        default=256,
        help="router-side in-memory result LRU entries (default 256)",
    )
    route_cmd.add_argument(
        "--heartbeat-interval",
        type=float,
        default=2.0,
        help="seconds between expected worker heartbeats (announced to "
        "joining workers; default 2.0)",
    )
    route_cmd.add_argument(
        "--max-missed",
        type=_positive_int,
        default=3,
        help="missed heartbeat periods before a worker is probed "
        "(default 3)",
    )
    route_cmd.add_argument(
        "--probe-retries",
        type=_positive_int,
        default=2,
        help="failed probes before a suspect worker is declared dead and "
        "its jobs reroute (default 2)",
    )
    route_cmd.add_argument(
        "--replicas",
        type=int,
        default=1,
        help="result/checkpoint replica copies beyond the owning worker "
        "(0 disables replication; default 1)",
    )
    route_cmd.add_argument(
        "--standby",
        default=None,
        metavar="URL",
        help="run as a warm standby: tail URL's placement journal over "
        "/wal and take over (with a bumped fencing epoch) when the "
        "primary stops answering; requires --journal",
    )
    route_cmd.add_argument(
        "--epoch-timeout",
        type=float,
        default=None,
        help="seconds of failed /wal polls before a standby takes over "
        "(default heartbeat-interval * max-missed)",
    )

    submit = sub.add_parser(
        "submit", help="submit a netlist to a running service"
    )
    submit.add_argument("input", help="input netlist path")
    submit.add_argument(
        "--url",
        default=None,
        help="service base URL (default http://127.0.0.1:8947)",
    )
    submit.add_argument(
        "--router",
        default=None,
        metavar="URL",
        help="cluster router base URL (e.g. http://127.0.0.1:8948); the "
        "router speaks the same job dialect as a worker, so polling and "
        "results work unchanged; mutually exclusive with --url",
    )
    submit.add_argument(
        "--no-wait",
        action="store_true",
        help="fail immediately on HTTP 429 instead of honouring the "
        "server's Retry-After estimate with a bounded retry loop",
    )
    submit.add_argument(
        "--max-retry-wait",
        type=float,
        default=None,
        metavar="SECONDS",
        help="total seconds the 429 retry loop may spend sleeping before "
        "giving up (default: unbounded within the attempt limit); the "
        "last sleep is clipped to the remaining budget",
    )
    submit.add_argument("--height", type=int, default=4)
    submit.add_argument("--seed", type=int, default=0)
    submit.add_argument("--iterations", type=_positive_int, default=2)
    submit.add_argument(
        "--engine",
        choices=SOLVER_ENGINES,
        default="scipy",
    )
    submit.add_argument(
        "--timeout",
        type=float,
        default=300.0,
        help="seconds to wait for the job before giving up",
    )
    submit.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="server-side deadline in seconds: the solver aborts cleanly "
        "(final checkpoint on disk) once it expires",
    )
    submit.add_argument(
        "--perf",
        action="store_true",
        help="print the service's merged perf counters after the result",
    )

    return parser


def _load_netlist(path: str):
    """Read a netlist by extension (.bench or hMETIS .hgr).

    Unreadable or malformed files raise OSError / :class:`ReproError`;
    commands go through :func:`_load_netlist_checked` so those surface
    as exit code 2 with a one-line error, not a traceback.
    """
    if str(path).endswith(".bench"):
        from repro.hypergraph.bench_format import read_bench

        return read_bench(path)
    return hio.read_hgr(path)


def _load_netlist_checked(path: str):
    """The netlist, or None after printing a one-line error to stderr."""
    try:
        return _load_netlist(path)
    except (OSError, ValueError, ReproError) as exc:
        print(f"error: cannot read netlist {path!r}: {exc}", file=sys.stderr)
        return None


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "generate":
        return _cmd_generate(args)
    if args.command == "partition":
        return _cmd_partition(args)
    if args.command == "exact":
        return _cmd_exact(args)
    if args.command == "lowerbound":
        return _cmd_lowerbound(args)
    if args.command == "table":
        return _cmd_table(args)
    if args.command == "search":
        return _cmd_search(args)
    if args.command == "separator":
        return _cmd_separator(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "route":
        return _cmd_route(args)
    if args.command == "submit":
        return _cmd_submit(args)
    return 2  # pragma: no cover - argparse enforces the choices


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.leaf_size is not None and args.kind != "rent":
        print(
            "error: --leaf-size only applies to --kind rent",
            file=sys.stderr,
        )
        return 2
    try:
        if args.kind in ISCAS85_SIZES:
            netlist = iscas85_surrogate(
                args.kind, seed=args.seed, scale=args.scale
            )
        elif args.kind == "planted":
            netlist = planted_hierarchy_hypergraph(args.nodes, seed=args.seed)
        elif args.kind == "rent":
            rent_kwargs = {}
            if args.leaf_size is not None:
                rent_kwargs["leaf_size"] = args.leaf_size
            netlist = rent_hypergraph(
                args.nodes, seed=args.seed, **rent_kwargs
            )
        else:
            netlist = random_hypergraph(
                args.nodes, round(args.nodes * 1.2), seed=args.seed
            )
    except ReproError as exc:
        print(f"error: cannot generate netlist: {exc}", file=sys.stderr)
        return 2
    hio.write_hgr(netlist, args.output)
    print(
        f"wrote {netlist.num_nodes} nodes / {netlist.num_nets} nets / "
        f"{netlist.num_pins} pins to {args.output}"
    )
    return 0


def _cmd_partition(args: argparse.Namespace) -> int:
    if args.resume and args.checkpoint_dir is None:
        print("error: --resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    if args.checkpoint_dir is not None and args.algorithm != "flow":
        print(
            "error: --checkpoint-dir requires --algorithm flow",
            file=sys.stderr,
        )
        return 2
    netlist = _load_netlist_checked(args.input)
    if netlist is None:
        return 2
    spec = binary_hierarchy(netlist.total_size(), height=args.height)
    if args.algorithm == "flow" and args.engine == "multilevel-flow":
        if args.checkpoint_dir is not None:
            print(
                "error: --checkpoint-dir is not supported with "
                "--engine multilevel-flow",
                file=sys.stderr,
            )
            return 2
        config = MultilevelFlowConfig(
            coarsest_size=args.coarsest_size,
            cluster_fraction=args.cluster_fraction,
            corridor_hops=args.corridor_hops,
            refine_passes=args.refine_passes,
            seed=args.seed,
        )
        result = multilevel_flow_htp(netlist, spec, config)
        tree, cost = result.partition, result.cost
        print(
            f"multilevel-FLOW cost: {cost:g}  "
            f"({result.runtime_seconds:.1f}s)"
        )
        if args.perf and result.perf is not None:
            print(f"perf: {result.perf.summary()}")
    elif args.algorithm == "flow":
        config = FlowHTPConfig(
            iterations=args.iterations,
            seed=args.seed,
            metric=SpreadingMetricConfig(
                delta=0.05, max_rounds=200, engine=args.engine
            ),
        )
        result = flow_htp(
            netlist,
            spec,
            config,
            checkpoint_dir=args.checkpoint_dir,
            checkpoint_every=args.checkpoint_every,
            resume_from=(args.checkpoint_dir if args.resume else None),
        )
        tree, cost = result.partition, result.cost
        print(f"FLOW cost: {cost:g}  ({result.runtime_seconds:.1f}s)")
        if args.perf and result.perf is not None:
            print(f"perf: {result.perf.summary()}")
    elif args.algorithm == "gfm":
        tree = gfm_partition(netlist, spec, rng=random.Random(args.seed))
        cost = total_cost(netlist, tree, spec)
        print(f"GFM cost: {cost:g}")
    else:
        tree = rfm_partition(netlist, spec, rng=random.Random(args.seed))
        cost = total_cost(netlist, tree, spec)
        print(f"RFM cost: {cost:g}")
    problems = partition_violations(netlist, tree, spec)
    if problems:
        print("WARNING: constraint violations:")
        for problem in problems:
            print(" ", problem)
    if args.improve:
        improved = htp_fm_improve(netlist, tree, spec)
        print(
            f"after FM improvement: {improved.final_cost:g} "
            f"({improved.improvement:.1%} better)"
        )
        tree, cost = improved.partition, improved.final_cost
    if args.verify_optimal:
        _verify_optimal(netlist, tree, cost, spec, args.exact_time_limit)
    return 0


def _verify_optimal(netlist, tree, cost, spec, time_limit: float) -> None:
    """Report the achieved optimality gap against an exact solve.

    Informational: prints the gap, an inconclusive note (time box hit)
    or a SKIP (instance out of exact reach) — never changes the exit
    code, since the partition itself was already produced.
    """
    from repro.analysis.exact import (
        ExactBackendUnavailable,
        ExactIntractable,
        solve_exact,
    )

    try:
        exact = solve_exact(
            netlist, spec, method="auto", time_limit=time_limit, incumbent=tree
        )
    except (ExactIntractable, ExactBackendUnavailable) as exc:
        print(f"verify-optimal: SKIP ({exc})")
        return
    if exact.is_optimal:
        gap = exact.gap(cost)
        print(
            f"verify-optimal: optimum {exact.cost:g} via {exact.solver}, "
            f"achieved {cost:g} (gap {gap:.3f}x)"
        )
    else:
        print(
            f"verify-optimal: inconclusive ({exact.solver} status "
            f"{exact.status} after {exact.runtime_seconds:.1f}s)"
        )


def _cmd_exact(args: argparse.Namespace) -> int:
    from repro.analysis.exact import (
        ExactBackendUnavailable,
        ExactIntractable,
        NotTreeStructured,
        solve_exact,
    )

    netlist = _load_netlist_checked(args.input)
    if netlist is None:
        return 2
    try:
        spec = binary_hierarchy(netlist.total_size(), height=args.height)
        result = solve_exact(
            netlist, spec, method=args.method, time_limit=args.time_limit
        )
    except (
        ExactIntractable,
        ExactBackendUnavailable,
        NotTreeStructured,
        ReproError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if result.cost is None:
        print(f"exact: {result.status} via {result.solver} "
              f"({result.runtime_seconds:.1f}s)")
        return 1
    label = "optimal cost" if result.is_optimal else "best feasible cost"
    print(
        f"exact: {label} {result.cost:g} via {result.solver} "
        f"({result.runtime_seconds:.1f}s)"
    )
    return 0


def _cmd_lowerbound(args: argparse.Namespace) -> int:
    netlist = _load_netlist_checked(args.input)
    if netlist is None:
        return 2
    spec = binary_hierarchy(netlist.total_size(), height=args.height)
    graph = to_graph(netlist)
    result = solve_spreading_lp(
        graph, spec, max_iterations=args.max_iterations
    )
    print(
        f"LP lower bound: {result.lower_bound:.3f} "
        f"(iterations={result.iterations}, "
        f"constraints={result.num_constraints}, "
        f"converged={result.converged})"
    )
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    from repro.htp.hierarchy_search import search_hierarchies

    netlist = _load_netlist_checked(args.input)
    if netlist is None:
        return 2
    candidates = search_hierarchies(
        netlist,
        heights=tuple(args.heights),
        algorithm=args.algorithm,
        seed=args.seed,
    )
    for candidate in candidates:
        flag = "" if candidate.valid else "  (INVALID)"
        print(
            f"height {candidate.height}: cost {candidate.cost:g} "
            f"({candidate.seconds:.2f}s){flag}"
        )
    if candidates:
        best = min(
            (c for c in candidates if c.valid),
            key=lambda c: c.cost,
            default=None,
        )
        if best is not None:
            print(f"best: height {best.height} with cost {best.cost:g}")
    return 0


def _cmd_separator(args: argparse.Namespace) -> int:
    from repro.core.separator import rho_separator

    netlist = _load_netlist_checked(args.input)
    if netlist is None:
        return 2
    result = rho_separator(
        netlist, rho=args.rho, rng=random.Random(args.seed)
    )
    sizes = sorted(
        (round(netlist.total_size(piece), 3) for piece in result.pieces),
        reverse=True,
    )
    print(
        f"rho = {args.rho}: {len(result.pieces)} pieces, cut capacity "
        f"{result.cut_capacity:g}"
    )
    print(f"piece sizes: {sizes}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.cache import ResultCache
    from repro.service.jobs import JobManager
    from repro.service.journal import Journal
    from repro.service.server import (
        DEFAULT_PORT,
        PartitionServer,
        run_until_signalled,
    )

    port = args.port if args.port is not None else DEFAULT_PORT
    manager_kwargs = {
        "max_concurrency": args.max_concurrency,
        "cache": ResultCache(
            capacity=args.cache_capacity, cache_dir=args.cache_dir
        ),
        "job_timeout": args.job_timeout,
        "checkpoint_root": args.checkpoint_dir,
        "checkpoint_every": args.checkpoint_every,
        "max_queue_depth": args.max_queue_depth,
    }
    if args.journal is not None:
        manager_kwargs["journal"] = Journal(args.journal, fsync=args.fsync)
    join_kwargs = None
    if args.join is not None:
        join_kwargs = {"router_url": args.join, "weight": args.weight}
        if args.worker_id is not None:
            join_kwargs["worker_id"] = args.worker_id
        if args.advertise_url is not None:
            join_kwargs["advertise_url"] = args.advertise_url
    elif args.worker_id is not None or args.advertise_url is not None:
        print(
            "error: --worker-id/--advertise-url require --join",
            file=sys.stderr,
        )
        return 2

    def make_server() -> PartitionServer:
        manager = JobManager(**manager_kwargs)
        server = PartitionServer(manager, host=args.host, port=port)
        server.join_kwargs = join_kwargs
        return server

    return run_until_signalled(make_server)


def _cmd_route(args: argparse.Namespace) -> int:
    from repro.service.cluster.router import (
        DEFAULT_ROUTER_PORT,
        ClusterRouter,
        RouterServer,
    )
    from repro.service.server import run_until_signalled

    port = args.port if args.port is not None else DEFAULT_ROUTER_PORT
    if args.standby is not None and args.journal is None:
        print(
            "error: --standby needs --journal (the tailed WAL must land "
            "somewhere durable)",
            file=sys.stderr,
        )
        return 2
    router_kwargs = {
        "policy": args.policy,
        "journal_dir": args.journal,
        "cache_capacity": args.cache_capacity,
        "heartbeat_interval": args.heartbeat_interval,
        "max_missed": args.max_missed,
        "probe_retries": args.probe_retries,
        "replicas": args.replicas,
    }
    return run_until_signalled(
        lambda: RouterServer(
            ClusterRouter(**router_kwargs),
            host=args.host,
            port=port,
            standby_of=args.standby,
            epoch_timeout=args.epoch_timeout,
        )
    )


#: Bounded 429 retry budget of ``htp submit`` (without ``--no-wait``).
SUBMIT_RETRY_LIMIT = 5


def _submit_with_retry(
    client,
    spec,
    deadline: Optional[float],
    wait: bool = True,
    limit: int = SUBMIT_RETRY_LIMIT,
    max_wait: Optional[float] = None,
    announce=print,
    sleep=None,
):
    """Submit, honouring 429 Retry-After with a bounded retry loop.

    A loaded service (or a router whose chosen worker is saturated)
    answers 429 with its backlog-derived ``Retry-After`` estimate — a
    float, so sub-second hints are honoured as-is, not rounded.  The
    client sleeps that long and resubmits, at most ``limit`` times and
    (with ``max_wait``) at most that many *total* seconds asleep; a
    hint that overshoots the remaining budget is clipped to it, and a
    429 arriving with the budget exhausted re-raises.  ``wait=False``
    (``htp submit --no-wait``) re-raises immediately.  Any non-429
    failure re-raises untouched.
    """
    import time as _time

    from repro.service.client import ServiceClientError

    sleep = sleep if sleep is not None else _time.sleep
    attempt = 0
    slept = 0.0
    while True:
        try:
            return client.submit_spec(spec, deadline=deadline)
        except ServiceClientError as exc:
            if exc.status != 429 or not wait:
                raise
            attempt += 1
            if attempt > limit:
                raise
            hint = exc.retry_after if exc.retry_after is not None else 1.0
            if max_wait is not None:
                remaining = max_wait - slept
                if remaining <= 0:
                    raise
                hint = min(hint, remaining)
            announce(
                f"service busy: retrying in {hint:g}s "
                f"(attempt {attempt}/{limit}, server estimate)"
            )
            sleep(hint)
            slept += hint


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient, ServiceClientError
    from repro.service.jobs import JobSpec, JobState
    from repro.service.server import DEFAULT_PORT

    if args.url is not None and args.router is not None:
        print("error: pass --url or --router, not both", file=sys.stderr)
        return 2
    netlist = _load_netlist_checked(args.input)
    if netlist is None:
        return 2
    url = args.router or args.url or f"http://127.0.0.1:{DEFAULT_PORT}"
    spec = JobSpec.from_parts(
        netlist,
        binary_hierarchy(netlist.total_size(), height=args.height),
        {
            "iterations": args.iterations,
            "seed": args.seed,
            "engine": args.engine,
        },
    )
    client = ServiceClient(url)
    try:
        submitted = _submit_with_retry(
            client,
            spec,
            args.deadline,
            wait=not args.no_wait,
            max_wait=args.max_retry_wait,
        )
        status = client.wait(str(submitted["job_id"]), timeout=args.timeout)
        if status["state"] != JobState.DONE.value:
            print(
                f"error: job {status['job_id']} ended {status['state']}: "
                f"{status.get('error', 'no detail')}",
                file=sys.stderr,
            )
            return 1
        payload = client.result(str(status["job_id"]))
    except ServiceClientError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if exc.status == 0 else 1
    result = payload["result"]
    warmth = "warm (cache hit)" if status.get("cached") else "cold"
    placed = (
        f", worker {status['worker']}" if status.get("worker") else ""
    )
    print(
        f"FLOW cost: {result['cost']:g}  "
        f"({result['runtime_seconds']:.1f}s solver, {warmth}, "
        f"job {status['job_id']}{placed})"
    )
    if args.perf:
        from repro.core.perf import PerfCounters

        counters = client.metricsz()["perf"]
        print(f"perf: {PerfCounters.from_dict(counters).summary()}")
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    config = ExperimentConfig(scale=args.scale, seed=args.seed)
    if args.number == 1:
        print(run_table1(config).render())
    elif args.number == 2:
        print(table2_to_table(run_table2(config)).render())
    else:
        print(table3_to_table(run_table3(config)).render())
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
