"""The Firmament scheduler: policy-driven flow scheduling with fast solvers.

One call to :meth:`FirmamentScheduler.schedule` corresponds to one iteration
of the loop in Figure 2b of the paper: update the flow network from cluster
state, run the MCMF solver (by default the speculative dual-algorithm
executor), extract task placements from the optimal flow, and compute the
difference against the current assignment (placements, migrations,
preemptions).  The caller -- the simulator, the testbed harness, or an
example program -- applies the resulting decision to the cluster state.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.cluster.state import ClusterState
from repro.core.graph_manager import GraphManager
from repro.core.placement import extract_placements
from repro.core.policies.base import SchedulingPolicy
from repro.flow.graph import FlowNetwork
from repro.solvers import make_executor
from repro.solvers.base import RoundDeadlineExceeded, Solver, SolverResult


@dataclass
class SchedulingDecision:
    """Result of one scheduling iteration.

    Attributes:
        placements: Pending tasks to start, as ``{task_id: machine_id}``.
        migrations: Running tasks to move, as ``{task_id: new_machine_id}``.
        preemptions: Running tasks to stop and return to the pending state.
        unscheduled: Pending tasks left waiting this round.
        algorithm_runtime: Wall-clock seconds the winning solver needed.
        solver_result: The winning solver's full result.
        total_cost: Cost of the optimal flow (placement quality proxy).
        per_task_latency: Optional per-task scheduling delay relative to the
            start of the run; queue-based baselines fill this in because they
            place tasks one at a time, while flow-based scheduling places the
            whole batch when the solver finishes.
        degraded: True when the round could not run to full optimality:
            either the solver's epsilon ladder was truncated at the round
            deadline (``degraded_reason="epsilon_truncated"``; the flow is
            still feasible and epsilon-optimal at the coarser epsilon) or
            no solver finished in budget and the previous feasible
            placements were reused (``degraded_reason="round_deadline"``;
            running tasks stay put, pending tasks wait a round).
    """

    placements: Dict[int, int] = field(default_factory=dict)
    migrations: Dict[int, int] = field(default_factory=dict)
    preemptions: List[int] = field(default_factory=list)
    unscheduled: List[int] = field(default_factory=list)
    degraded: bool = False
    degraded_reason: str = ""
    algorithm_runtime: float = 0.0
    #: Wall-clock seconds the graph manager needed to bring the flow
    #: network up to date for this round (graph maintenance, attributed
    #: separately from the solver runtime above).
    graph_update_seconds: float = 0.0
    solver_result: Optional[SolverResult] = None
    total_cost: int = 0
    per_task_latency: Dict[int, float] = field(default_factory=dict)

    @property
    def num_assignments(self) -> int:
        """Total number of placement actions (starts plus migrations)."""
        return len(self.placements) + len(self.migrations)


@dataclass
class SchedulerStatistics:
    """Aggregate statistics over a scheduler's lifetime."""

    runs: int = 0
    total_algorithm_runtime: float = 0.0
    total_graph_update_time: float = 0.0
    total_placements: int = 0
    total_migrations: int = 0
    total_preemptions: int = 0
    #: Rounds that finished degraded (epsilon truncation or previous-
    #: placement reuse); every round is still *served* -- never a stall.
    degraded_rounds: int = 0
    #: Degraded rounds where no solver finished and the previous feasible
    #: placements were reused (a subset of ``degraded_rounds``).
    deadline_abandoned_rounds: int = 0
    #: Rounds whose decision was produced but never applied: the driver
    #: (e.g. the simulator at its ``max_time``/hard-stop boundary) voided
    #: the round via :meth:`record_void` instead of applying it, so the
    #: placement totals above stay truthful about cluster state.
    voided_rounds: int = 0
    placements_voided: int = 0
    algorithm_runtimes: List[float] = field(default_factory=list)
    graph_update_times: List[float] = field(default_factory=list)

    def record(self, decision: SchedulingDecision) -> None:
        """Account one scheduling decision."""
        self.runs += 1
        if decision.degraded:
            self.degraded_rounds += 1
            if decision.degraded_reason == "round_deadline":
                self.deadline_abandoned_rounds += 1
        self.total_algorithm_runtime += decision.algorithm_runtime
        self.total_graph_update_time += decision.graph_update_seconds
        self.total_placements += len(decision.placements)
        self.total_migrations += len(decision.migrations)
        self.total_preemptions += len(decision.preemptions)
        self.algorithm_runtimes.append(decision.algorithm_runtime)
        self.graph_update_times.append(decision.graph_update_seconds)

    def record_void(self, decision: SchedulingDecision) -> None:
        """Account a decision the driver voided instead of applying.

        :meth:`record` already counted the decision's placements when the
        scheduler produced it; a voided round backs those actions out of
        the lifetime placement totals (they never reached cluster state)
        and tallies the void itself.
        """
        self.voided_rounds += 1
        self.placements_voided += decision.num_assignments
        self.total_placements -= len(decision.placements)
        self.total_migrations -= len(decision.migrations)
        self.total_preemptions -= len(decision.preemptions)


def diff_assignments(
    state: ClusterState,
    task_ids: Iterable[int],
    assignments: Dict[int, int],
    allow_migrations: bool,
    decision: SchedulingDecision,
) -> None:
    """Fold flow assignments into placements/migrations/preemptions.

    ``task_ids`` are the tasks of the solved network; ``assignments`` maps
    each placed task to its machine (from ``extract_placements``).
    """
    tasks = state.tasks
    for task_id in task_ids:
        task = tasks.get(task_id)
        if task is None:
            continue
        assigned_machine = assignments.get(task_id)
        if task.is_running:
            if assigned_machine is None:
                if allow_migrations:
                    decision.preemptions.append(task_id)
            elif assigned_machine != task.machine_id:
                if allow_migrations:
                    decision.migrations[task_id] = assigned_machine
            # Same machine: keep running, nothing to do.
        elif assigned_machine is None:
            decision.unscheduled.append(task_id)
        else:
            decision.placements[task_id] = assigned_machine


def defer_pending(
    state: ClusterState, task_ids: Iterable[int], decision: SchedulingDecision
) -> None:
    """Degrade a dead round: previous placements stand, pending tasks wait.

    Marks the decision ``round_deadline``-degraded and lists the network's
    not-yet-running tasks as unscheduled; running tasks stay put (no
    preemptions or migrations).
    """
    decision.degraded = True
    decision.degraded_reason = "round_deadline"
    tasks = state.tasks
    for task_id in task_ids:
        task = tasks.get(task_id)
        if task is not None and not task.is_running:
            decision.unscheduled.append(task_id)


class DecisionApplier:
    """``apply`` / ``schedule_and_apply``, shared by the flow schedulers."""

    def apply(self, state: ClusterState, decision: SchedulingDecision, now: float) -> None:
        """Apply a scheduling decision to the cluster state.

        Preemptions are applied first so their slots are free for the new
        placements and migrations.
        """
        for task_id in decision.preemptions:
            state.preempt_task(task_id, now)
        for task_id, machine_id in decision.migrations.items():
            state.migrate_task(task_id, machine_id, now)
        for task_id, machine_id in decision.placements.items():
            state.place_task(task_id, machine_id, now)

    def schedule_and_apply(self, state: ClusterState, now: float = 0.0) -> SchedulingDecision:
        """Convenience wrapper: schedule and immediately apply the decision."""
        decision = self.schedule(state, now)
        self.apply(state, decision, now)
        return decision


class FirmamentScheduler(DecisionApplier):
    """Flow-based scheduler generalizing Quincy (the paper's core system)."""

    def __init__(
        self,
        policy: SchedulingPolicy,
        solver: Optional[Solver] = None,
        allow_migrations: bool = True,
        executor: Optional[str] = None,
        price_refine: Optional[str] = None,
        executor_policy: Optional[str] = None,
        round_deadline_seconds: Optional[float] = None,
        chaos=None,
    ) -> None:
        """Create a scheduler.

        Args:
            policy: Scheduling policy that shapes the flow network.
            solver: MCMF solver; defaults to the speculative dual-algorithm
                executor (relaxation plus incremental cost scaling).  Passing
                a plain cost-scaling solver reproduces Quincy's behaviour.
            allow_migrations: When False, running tasks are pinned to their
                machines and the scheduler only places pending tasks (useful
                for comparing against queue-based schedulers that never
                migrate).
            executor: Dual-executor strategy used when ``solver`` is omitted:
                ``"sequential"`` (default; runs both algorithms back to back
                and models the race) or ``"parallel"`` (races a relaxation
                worker subprocess against parent-side incremental cost
                scaling for real).  Mutually exclusive with ``solver``.
            price_refine: Price-refine variant for the default executor's
                incremental cost scaling (``"spfa"``, ``"dijkstra"``, or
                ``"auto"``); only valid when ``solver`` is omitted.
            executor_policy: Race policy for the default executor:
                ``"race"`` (default) speculates every round as the paper
                deploys, ``"auto"`` lets a cost model fed by recent solver
                statistics pick per round between solo relaxation, solo
                incremental cost scaling, and the full race.  Only valid
                when ``solver`` is omitted.
            round_deadline_seconds: Per-round wall-clock budget.  The
                solver degrades at the budget (epsilon-ladder truncation,
                relaxation abort) and a round where no solver produced a
                feasible flow reuses the previous placements instead of
                stalling; both outcomes are recorded as degraded rounds.
                Requires a solver that supports round deadlines (the dual
                executors do).
            chaos: Optional :class:`repro.chaos.ChaosPolicy` injecting
                deterministic faults into the round pipeline (tests and
                chaos benchmarks only).
        """
        if solver is not None and executor is not None:
            raise ValueError("pass either solver= or executor=, not both")
        if solver is not None and price_refine is not None:
            raise ValueError("price_refine= only applies to the default executor")
        if solver is not None and executor_policy is not None:
            raise ValueError("executor_policy= only applies to the default executor")
        self.policy = policy
        if solver is not None:
            self.solver = solver
        else:
            self.solver = make_executor(
                executor or "sequential",
                price_refine=price_refine or "auto",
                executor_policy=executor_policy or "race",
            )
        self.round_deadline_seconds = round_deadline_seconds
        if round_deadline_seconds is not None:
            if not hasattr(self.solver, "round_deadline_seconds"):
                raise ValueError(
                    "round_deadline_seconds requires a solver with deadline "
                    f"support; {type(self.solver).__name__} has none"
                )
            self.solver.round_deadline_seconds = round_deadline_seconds
        if chaos is not None and hasattr(self.solver, "chaos"):
            self.solver.chaos = chaos
        # Only pay for per-round network diffing when the solver can
        # actually consume the change batches.
        self.graph_manager = GraphManager(
            policy,
            track_changes=getattr(self.solver, "accepts_change_batches", False),
            chaos=chaos,
        )
        self.allow_migrations = allow_migrations
        self.statistics = SchedulerStatistics()
        self.last_network: Optional[FlowNetwork] = None

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #
    def schedule(self, state: ClusterState, now: float = 0.0) -> SchedulingDecision:
        """Run one scheduling iteration against the given cluster state."""
        network = self.graph_manager.update(state, now)
        self.last_network = network
        graph_seconds = self.graph_manager.last_update_stats.seconds
        if not self.graph_manager.task_nodes:
            decision = SchedulingDecision(graph_update_seconds=graph_seconds)
            self.statistics.record(decision)
            return decision

        solver_start = time.perf_counter()
        changes = self.graph_manager.last_changes
        try:
            if changes is not None and getattr(
                self.solver, "accepts_change_batches", False
            ):
                # Hand the solver the typed change batch so an incremental
                # instance can patch its persistent residual network in place
                # instead of reconstructing it from the rebuilt flow network.
                result = self.solver.solve(network, changes=changes)
            else:
                result = self.solver.solve(network)
        except RoundDeadlineExceeded:
            # No solver produced a feasible flow within the round budget.
            # Degrade gracefully instead of stalling: reuse the previous
            # feasible placements (running tasks stay where they are, no
            # preemptions or migrations) and let pending tasks wait one
            # round.  The incremental solvers notice the revision gap next
            # round and rebuild warm, so nothing stale survives.
            decision = SchedulingDecision(
                algorithm_runtime=time.perf_counter() - solver_start,
                graph_update_seconds=graph_seconds,
            )
            defer_pending(state, self.graph_manager.task_nodes, decision)
            self.statistics.record(decision)
            return decision
        wall_runtime = time.perf_counter() - solver_start
        if getattr(self.solver, "charges_wall_clock", False):
            # The parallel executor races the algorithms physically, so the
            # measured wall clock *is* the placement latency (winner's
            # runtime plus IPC overhead); charging the winner's solo runtime
            # would hide the overhead the executor exists to measure.
            algorithm_runtime = wall_runtime
        else:
            # Use the solver-reported runtime when available: for the
            # sequential dual executor that is the *winner's* runtime -- the
            # effective placement latency of the paper's concurrent
            # deployment (the two algorithms run on separate cores; the
            # sequential executor runs them back to back, so wall-clock
            # would double-charge the loser).
            algorithm_runtime = result.runtime_seconds or wall_runtime

        assignments = extract_placements(
            network,
            self.graph_manager.task_nodes,
            self.graph_manager.machine_nodes,
            self.graph_manager.sink_node,
        )
        decision = SchedulingDecision()
        diff_assignments(
            state, self.graph_manager.task_nodes, assignments,
            self.allow_migrations, decision,
        )
        decision.algorithm_runtime = algorithm_runtime
        decision.graph_update_seconds = graph_seconds
        # Attribute graph maintenance alongside the solver's own counters so
        # per-round time can be split into graph vs solver work.
        result.statistics.graph_update_seconds = graph_seconds
        decision.solver_result = result
        decision.total_cost = result.total_cost
        if not result.optimal:
            # The round deadline truncated the epsilon ladder: the flow is
            # feasible and epsilon-optimal at the coarser epsilon, but not
            # the fully-scaled optimum.
            decision.degraded = True
            decision.degraded_reason = "epsilon_truncated"
        self.statistics.record(decision)
        return decision

    def close(self) -> None:
        """Release solver resources (e.g. the parallel executor's worker)."""
        close = getattr(self.solver, "close", None)
        if callable(close):
            close()
