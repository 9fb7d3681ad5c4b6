"""``firmament-repro simulate``: trace-driven scheduling simulation."""

from __future__ import annotations

import argparse
from typing import Optional

from repro.analysis.reporting import format_table
from repro.baselines import (
    KubernetesScheduler,
    MesosScheduler,
    SparrowScheduler,
    SwarmKitScheduler,
    make_quincy_scheduler,
)
from repro.cluster.state import ClusterState
from repro.cluster.topology import build_topology
from repro.core import FirmamentScheduler
from repro.core.policies import (
    CpuMemoryPolicy,
    LoadSpreadingPolicy,
    NetworkAwarePolicy,
    QuincyPolicy,
    RandomPlacementPolicy,
    ShortestJobFirstPolicy,
)
from repro.simulation.failures import FailureInjector
from repro.simulation.ingest import SCHEMAS, read_trace
from repro.simulation.simulator import ClusterSimulator, SimulationConfig
from repro.simulation.trace import GoogleTraceGenerator, TraceConfig
from repro.solvers import EXECUTOR_POLICIES, EXECUTORS, PRICE_REFINE_MODES

#: Scheduler names accepted by ``--scheduler``.
SCHEDULERS = ("firmament", "quincy", "sparrow", "swarmkit", "kubernetes", "mesos")

#: Policy names accepted by ``--policy`` (Firmament and Quincy only).
POLICIES = (
    "quincy",
    "load_spreading",
    "network_aware",
    "cpu_memory",
    "shortest_job_first",
    "random",
)


def register(subparsers) -> None:
    """Register the ``simulate`` subcommand."""
    parser = subparsers.add_parser(
        "simulate",
        help="replay a synthetic Google-like trace against a scheduler",
        description=(
            "Generate a synthetic Google-like workload, replay it against the "
            "chosen scheduler, and print placement latency, response time, and "
            "algorithm runtime summaries."
        ),
    )
    parser.add_argument("--machines", type=int, default=32, help="cluster size (default: 32)")
    parser.add_argument(
        "--slots-per-machine", type=int, default=4, help="task slots per machine (default: 4)"
    )
    parser.add_argument(
        "--duration", type=float, default=300.0, help="trace duration in virtual seconds"
    )
    parser.add_argument(
        "--utilization", type=float, default=0.6, help="target slot utilization (default: 0.6)"
    )
    parser.add_argument(
        "--speedup", type=float, default=1.0, help="trace speedup factor (Figure 18)"
    )
    parser.add_argument(
        "--scheduler",
        choices=SCHEDULERS,
        default="firmament",
        help="scheduler to drive (default: firmament)",
    )
    parser.add_argument(
        "--policy",
        choices=POLICIES,
        default="quincy",
        help="scheduling policy for the flow-based schedulers (default: quincy)",
    )
    parser.add_argument(
        "--executor",
        choices=EXECUTORS,
        default="sequential",
        help=(
            "firmament's dual-algorithm execution strategy: 'sequential' runs "
            "relaxation and incremental cost scaling back to back and models "
            "the race, 'parallel' races them for real (relaxation in a worker "
            "subprocess) so each round costs one solver's wall clock "
            "(default: sequential)"
        ),
    )
    parser.add_argument(
        "--price-refine",
        choices=PRICE_REFINE_MODES,
        default="auto",
        help=(
            "price-refine variant for firmament's incremental cost scaling: "
            "'spfa' is the deque-based label-correcting sweep, 'dijkstra' "
            "the heap-based incremental repair seeded from the previous "
            "round's potentials, 'auto' uses the seeded repair when the "
            "violation count is small relative to the graph and the sweep "
            "otherwise (default: auto)"
        ),
    )
    parser.add_argument(
        "--executor-policy",
        choices=EXECUTOR_POLICIES,
        default="race",
        help=(
            "firmament's speculation policy: 'race' runs both algorithms "
            "every round exactly as the paper deploys, 'auto' lets a cost "
            "model fed by recent solver statistics pick per round between "
            "solo relaxation, solo incremental cost scaling, and the full "
            "race (default: race)"
        ),
    )
    parser.add_argument(
        "--cells",
        type=int,
        default=1,
        help=(
            "partition the cluster into this many scheduling cells (racks "
            "map to cells round-robin), each solved by its own --executor "
            "with cross-cell balancing, so round wall clock tracks the "
            "slowest cell instead of the whole cluster; firmament only, "
            "1 is the monolithic scheduler (default: 1)"
        ),
    )
    parser.add_argument(
        "--cell-workers",
        action="store_true",
        help=(
            "solve each cell (also the only one) in a persistent worker "
            "subprocess instead of inline (real process parallelism); "
            "firmament only, not with --executor parallel"
        ),
    )
    parser.add_argument(
        "--round-deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "per-round wall-clock budget for the flow-based schedulers "
            "(PR 6 plumbing): the solver degrades at the budget (epsilon-"
            "ladder truncation, relaxation abort) and a round where no "
            "solver finished reuses the previous feasible placements "
            "instead of stalling; degraded-round counts are reported in "
            "the summary (firmament only, default: no deadline)"
        ),
    )
    parser.add_argument(
        "--constant-service-load",
        action="store_true",
        help=(
            "pin long-running service jobs to a fixed t=0 allotment instead "
            "of scaling their arrivals with --speedup (keeps slots available "
            "for batch work in accelerated replays, Figure 18)"
        ),
    )
    parser.add_argument(
        "--trace-csv",
        default=None,
        help=(
            "replay a CSV cluster trace instead of generating a synthetic "
            "workload (streamed; jobs must be row-contiguous and sorted by "
            "arrival time)"
        ),
    )
    parser.add_argument(
        "--trace-schema",
        choices=sorted(SCHEMAS),
        default="generic",
        help="column schema of --trace-csv (default: generic)",
    )
    parser.add_argument("--seed", type=int, default=42, help="workload seed")
    parser.add_argument(
        "--failure-mtbf",
        type=float,
        default=0.0,
        help="inject machine failures with this cluster-wide MTBF in seconds (0 disables)",
    )
    parser.add_argument(
        "--failure-mttr",
        type=float,
        default=120.0,
        help="mean machine repair time in seconds when failures are injected",
    )
    parser.set_defaults(handler=run)


def run(args: argparse.Namespace) -> int:
    """Execute the ``simulate`` subcommand."""
    if args.machines <= 0:
        raise ValueError("--machines must be positive")
    if not 0.0 < args.utilization <= 1.0:
        raise ValueError("--utilization must be in (0, 1]")

    topology = build_topology(args.machines, slots_per_machine=args.slots_per_machine)
    state = ClusterState(topology)
    scheduler = _make_scheduler(
        args.scheduler, args.policy, args.executor,
        price_refine=getattr(args, "price_refine", "auto"),
        executor_policy=getattr(args, "executor_policy", "race"),
        cells=getattr(args, "cells", 1),
        cell_workers=getattr(args, "cell_workers", False),
        round_deadline_seconds=getattr(args, "round_deadline", None),
    )

    simulator = ClusterSimulator(
        state, scheduler, SimulationConfig(max_time=args.duration)
    )
    trace_csv = getattr(args, "trace_csv", None)
    if trace_csv is not None:
        simulator.submit_job_stream(read_trace(trace_csv, SCHEMAS[args.trace_schema]))
    else:
        trace_config = TraceConfig(
            num_machines=args.machines,
            slots_per_machine=args.slots_per_machine,
            target_utilization=args.utilization,
            duration=args.duration,
            speedup=args.speedup,
            seed=args.seed,
            constant_service_load=args.constant_service_load,
        )
        generator = GoogleTraceGenerator(trace_config, topology)
        simulator.submit_job_stream(generator.iter_jobs())

    schedule = None
    if args.failure_mtbf > 0:
        injector = FailureInjector(
            mean_time_between_failures=args.failure_mtbf,
            mean_time_to_repair=args.failure_mttr,
            seed=args.seed,
        )
        schedule = injector.inject(simulator, horizon=args.duration)

    try:
        result = simulator.run()
    finally:
        simulator.close()
    metrics = result.metrics

    executor_note = f", executor: {args.executor}" if args.scheduler == "firmament" else ""
    cells = getattr(args, "cells", 1)
    if args.scheduler == "firmament" and cells > 1:
        executor_note = f", cells: {cells}" + (
            " (worker subprocesses)" if getattr(args, "cell_workers", False) else " (inline)"
        )
    print(f"scheduler: {args.scheduler} (policy: {args.policy}{executor_note})")
    print(f"jobs submitted: {len(state.jobs)}, tasks placed: {metrics.tasks_placed}, "
          f"tasks completed: {metrics.tasks_completed}")
    print(f"scheduler rounds: {len(result.schedule_records)} "
          f"(voided: {result.rounds_voided}, placements applied: "
          f"{result.placements_applied}, drift-dropped: {result.placements_dropped})")
    if schedule is not None:
        print(f"machine failures injected: {schedule.num_failures}")
    if getattr(args, "round_deadline", None) is not None:
        # Degraded rounds are the price of the budget: epsilon-truncated
        # rounds plus rounds that reused the previous feasible placements.
        stats = getattr(scheduler, "statistics", None)
        abandoned = getattr(stats, "deadline_abandoned_rounds", 0)
        print(
            f"round deadline: {args.round_deadline:.3f}s, degraded rounds: "
            f"{metrics.degraded_round_count()} "
            f"(previous placements reused: {abandoned})"
        )
    rows = [
        ["placement latency [s]",
         f"{metrics.placement_latency_percentile(50):.3f}",
         f"{metrics.placement_latency_percentile(90):.3f}",
         f"{metrics.placement_latency_percentile(99):.3f}"],
        ["task response time [s]",
         f"{metrics.response_time_percentile(50):.3f}",
         f"{metrics.response_time_percentile(90):.3f}",
         f"{metrics.response_time_percentile(99):.3f}"],
        ["algorithm runtime [s]",
         f"{metrics.algorithm_runtime_percentile(50):.3f}",
         f"{metrics.algorithm_runtime_percentile(90):.3f}",
         f"{metrics.algorithm_runtime_percentile(99):.3f}"],
    ]
    print(format_table(["metric", "p50", "p90", "p99"], rows))
    print(f"input data locality: {100 * metrics.data_locality:.1f}%")
    if metrics.cells_solved:
        stragglers = metrics.straggler_attribution()
        attribution = ", ".join(
            f"cell {cell}: {count}" for cell, count in sorted(stragglers.items())
        )
        print(
            f"cross-cell migrations: {metrics.total_cross_cell_migrations()}, "
            f"straggler rounds by cell: {attribution or 'none'}"
        )
    return 0


def _make_policy(name: str):
    if name == "quincy":
        return QuincyPolicy()
    if name == "load_spreading":
        return LoadSpreadingPolicy()
    if name == "network_aware":
        return NetworkAwarePolicy()
    if name == "cpu_memory":
        return CpuMemoryPolicy()
    if name == "shortest_job_first":
        return ShortestJobFirstPolicy()
    if name == "random":
        return RandomPlacementPolicy()
    raise ValueError(f"unknown policy {name!r}")


def _make_scheduler(
    scheduler_name: str,
    policy_name: str,
    executor: str = "sequential",
    price_refine: str = "auto",
    executor_policy: str = "race",
    cells: int = 1,
    cell_workers: bool = False,
    round_deadline_seconds: Optional[float] = None,
):
    """Build the scheduler a CLI invocation asked for.

    Knob combinations that cannot take effect are rejected loudly instead
    of silently ignored: ``cells``, ``cell_workers`` and
    ``round_deadline_seconds`` only apply to the firmament scheduler, whose
    constructor in turn rejects cell workers combined with the parallel
    executor (they are daemonic processes, which may not spawn its
    relaxation worker).  Every solver knob reaches every cell, inline or
    in a worker.
    """
    if scheduler_name == "firmament":
        return FirmamentScheduler(
            lambda: _make_policy(policy_name), executor=executor,
            price_refine=price_refine, executor_policy=executor_policy,
            round_deadline_seconds=round_deadline_seconds,
            num_cells=cells, workers=cell_workers,
        )
    for flag, given in (
        ("--cells", cells != 1),
        ("--cell-workers", cell_workers),
        ("--round-deadline", round_deadline_seconds is not None),
    ):
        if given:
            raise ValueError(
                f"{flag} only applies to the firmament scheduler, not "
                f"{scheduler_name!r}"
            )
    if scheduler_name == "quincy":
        return make_quincy_scheduler()
    if scheduler_name == "sparrow":
        return SparrowScheduler()
    if scheduler_name == "swarmkit":
        return SwarmKitScheduler()
    if scheduler_name == "kubernetes":
        return KubernetesScheduler()
    if scheduler_name == "mesos":
        return MesosScheduler()
    raise ValueError(f"unknown scheduler {scheduler_name!r}")
