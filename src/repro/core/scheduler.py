"""The Firmament scheduler: policy-driven flow scheduling over one cell or many.

One call to :meth:`FirmamentScheduler.schedule` corresponds to one iteration
of the loop in Figure 2b of the paper: update the flow network from cluster
state, run the MCMF solver (by default the speculative dual-algorithm
executor), extract task placements from the optimal flow, and compute the
difference against the current assignment (placements, migrations,
preemptions).  The caller -- the simulator, the service, the testbed
harness, or an example program -- applies the resulting decision to the
cluster state.

The scheduler solves ``num_cells`` networks.  The default, one cell over the
whole cluster, is the paper's deployment; more cells partition the cluster
by rack (:mod:`repro.core.sharding`) to break the single-network scaling
ceiling.  Every round takes the same path either way:

1. with more than one cell, route the global dirty marks to the cells and
   bucket the tasks by home cell (nothing to route with one cell);
2. update each active cell's network through its own graph manager;
3. solve the cells -- inline in cell order, or shipped all at once to
   per-cell :class:`~repro.solvers.worker.SolverWorker` subprocesses and
   then gathered (a cell whose worker cannot answer is solved inline);
4. extract and diff each solved cell, or defer a cell whose solve hit the
   round deadline (its previous placements stand, its pending tasks wait);
5. merge the cells into one decision, charge the round, and run the
   cross-cell balancer.

Every cell's solver comes from one spec: a :func:`repro.solvers.make_solver`
registry name plus keyword arguments, so a cell runs the dual executor as
readily as plain incremental cost scaling, inline or in a worker.  A
caller-built solver instance is accepted for a single inline cell.

Observability: every solved round's
:class:`~repro.solvers.base.SolverStatistics` carries ``cells_solved``,
straggler-cell attribution (which cell bounded the round and by how much)
and ``cross_cell_migrations``; :meth:`FirmamentScheduler.cell_transport`
reports each worker cell's snapshot vs delta ships, fallback rounds and
respawns.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.cluster.state import ClusterState
from repro.core.graph_manager import GraphManager
from repro.core.placement import extract_placements
from repro.core.policies.base import SchedulingPolicy
from repro.flow.changes import ChangeBatch
from repro.flow.graph import FlowNetwork
from repro.solvers import EXECUTORS, make_solver
from repro.solvers.base import RoundDeadlineExceeded, SolverResult, SolverStatistics
from repro.solvers.worker import SolverWorker, result_from_payload

#: How long a worker-mode gather waits for a cell's result when no round
#: deadline is configured.  Purely a hang guard: a worker that misses it is
#: treated exactly like a dead worker (the parent-side solver serves the
#: cell, the worker is respawned), so the bound trades a pathological hang
#: for one degraded cell-round.
GATHER_TIMEOUT_SECONDS = 300.0

#: One cell's round input: ``(cell, network, change batch)``.
_Prepared = Tuple[int, FlowNetwork, Optional[ChangeBatch]]
#: One cell's round outcome: ``(cell, result or None if it died, runtime)``.
_Outcome = Tuple[int, Optional[SolverResult], float]


@dataclass
class SchedulingDecision:
    """Result of one scheduling iteration.

    Attributes:
        placements: Pending tasks to start, as ``{task_id: machine_id}``.
        migrations: Running tasks to move, as ``{task_id: new_machine_id}``.
        preemptions: Running tasks to stop and return to the pending state.
        unscheduled: Pending tasks left waiting this round.
        algorithm_runtime: Wall-clock seconds the winning solver needed.
        solver_result: The round's solver result: the one solved cell's
            own (for the dual executors, the winner's), else the cells'
            merged result; ``None`` only when there was nothing to solve.
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


class FirmamentScheduler:
    """Flow-based scheduler generalizing Quincy (the paper's core system)."""

    def __init__(
        self,
        policy,
        solver=None,
        allow_migrations: bool = True,
        executor: Optional[str] = None,
        price_refine: Optional[str] = None,
        executor_policy: Optional[str] = None,
        round_deadline_seconds: Optional[float] = None,
        chaos=None,
        num_cells: int = 1,
        workers: bool = False,
        balance: bool = True,
    ) -> None:
        """Create a scheduler.

        Args:
            policy: Scheduling policy that shapes the flow network: a
                policy instance, or a zero-argument factory (a policy class
                works) called once per cell.  More than one cell needs a
                factory, because each cell's graph manager derives its own
                network and policies must not share per-network caches.
            solver: Either a :func:`repro.solvers.make_solver` registry name
                (e.g. ``"incremental_cost_scaling"``), from which every
                cell's solver is built, or a caller-built solver instance,
                which serves a single inline cell.  Omitted, every cell
                runs the speculative dual-algorithm executor named by
                ``executor``.  Passing a plain cost-scaling solver
                reproduces Quincy's behaviour.
            allow_migrations: When False, running tasks are pinned to their
                machines and the scheduler only places pending tasks (useful
                for comparing against queue-based schedulers that never
                migrate).
            executor: Dual-executor strategy used when ``solver`` is omitted:
                ``"sequential"`` (default; runs both algorithms back to back
                and models the race) or ``"parallel"`` (races a relaxation
                worker subprocess against parent-side incremental cost
                scaling for real).  Mutually exclusive with ``solver``.
            price_refine: Price-refine variant (``"spfa"``, ``"dijkstra"``,
                or ``"auto"``) passed to every cell's solver spec; not valid
                with a solver instance.
            executor_policy: Race policy of the dual executors: ``"race"``
                (default) speculates every round as the paper deploys,
                ``"auto"`` lets a cost model fed by recent solver statistics
                pick per round between solo relaxation, solo incremental
                cost scaling, and the full race.  Only the dual executors
                take it.
            round_deadline_seconds: Per-round wall-clock budget, applied per
                cell (cells are concurrent, so each gets the full budget).
                The solver degrades at the budget (epsilon-ladder
                truncation, relaxation abort) and a cell where no solver
                produced a feasible flow reuses its previous placements
                instead of stalling; both outcomes are recorded as degraded
                rounds.  Requires a solver that supports round deadlines
                (the dual executors and incremental cost scaling do).
            chaos: Optional :class:`repro.chaos.ChaosPolicy` injecting
                deterministic faults into the round pipeline (tests and
                chaos benchmarks only).  Worker-directed faults hit cell
                ``round_index % num_cells`` only.
            num_cells: Number of cells; racks map to cells by ``rack_id %
                num_cells``.  One cell (default) is the monolithic
                scheduler.
            workers: ``True`` solves each cell in a persistent subprocess
                (ship all, then gather: wall clock ~ slowest cell).
                ``False`` (default) solves cells inline in cell order and
                charges the *maximum* cell runtime -- fully deterministic,
                modeling the concurrent deployment exactly as the
                sequential dual executor models the race.
            balance: Enable the cross-cell balancer (more than one cell).
        """
        if num_cells < 1:
            raise ValueError("a scheduler needs at least one cell")
        if isinstance(policy, SchedulingPolicy):
            if num_cells > 1:
                raise ValueError(
                    "more than one cell needs a policy factory (e.g. the "
                    "policy class), not one shared policy instance"
                )
            policies = [policy]
        else:
            policies = [policy() for _ in range(num_cells)]
        if solver is not None and not isinstance(solver, str):
            if (executor, price_refine, executor_policy) != (None, None, None):
                raise ValueError(
                    "executor=, price_refine= and executor_policy= configure "
                    "a solver spec, not a solver instance"
                )
            if num_cells > 1 or workers:
                raise ValueError(
                    "a solver instance serves one inline cell; pass a "
                    "registry name for more cells or for workers"
                )
            if round_deadline_seconds is not None:
                if not hasattr(solver, "round_deadline_seconds"):
                    raise ValueError(
                        "round_deadline_seconds requires a solver with deadline "
                        f"support; {type(solver).__name__} has none"
                    )
                solver.round_deadline_seconds = round_deadline_seconds
            self.solvers = [solver]
            self._solver_name, self._solver_kwargs = None, {}
        else:
            self._solver_name, self._solver_kwargs = _solver_spec(
                solver, executor, price_refine, executor_policy,
                round_deadline_seconds,
            )
            if workers and self._solver_name == EXECUTORS["parallel"]:
                raise ValueError(
                    "cell workers (--cell-workers) cannot run the parallel "
                    "executor (--executor parallel): they are daemonic "
                    "processes and cannot spawn its relaxation worker"
                )
            self.solvers = [
                make_solver(self._solver_name, **self._solver_kwargs)
                for _ in range(num_cells)
            ]
        if chaos is not None:
            for cell_solver in self.solvers:
                if hasattr(cell_solver, "chaos"):
                    cell_solver.chaos = chaos
        # Only pay for per-round network diffing when the solver can
        # actually consume the change batches.
        track_changes = getattr(self.solvers[0], "accepts_change_batches", False)
        self.graph_managers = [
            GraphManager(cell_policy, track_changes=track_changes, chaos=chaos)
            for cell_policy in policies
        ]
        self._workers: List[SolverWorker] = [
            SolverWorker(self._solver_name, self._solver_kwargs)
            for _ in range(num_cells)
        ] if workers else []
        self._fallback_rounds = [0] * num_cells
        self._router = None
        if num_cells > 1:
            # Deferred: repro.core.sharding imports this module.
            from repro.core.sharding import CellRouter

            self._router = CellRouter(num_cells, balance)
        self.num_cells = num_cells
        self.allow_migrations = allow_migrations
        self.round_deadline_seconds = round_deadline_seconds
        self.chaos = chaos
        self.statistics = SchedulerStatistics()
        self._round_index = 0

    # -- the first cell (the only one, when monolithic) ------------------ #
    @property
    def policy(self) -> SchedulingPolicy:
        """The first cell's policy."""
        return self.graph_managers[0].policy

    @property
    def solver(self):
        """The first cell's inline solver."""
        return self.solvers[0]

    @property
    def graph_manager(self) -> GraphManager:
        """The first cell's graph manager."""
        return self.graph_managers[0]

    @property
    def last_network(self) -> Optional[FlowNetwork]:
        """The first cell's most recent flow network."""
        return self.graph_managers[0].network

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #
    def schedule(self, state: ClusterState, now: float = 0.0) -> SchedulingDecision:
        """Run one scheduling iteration against the given cluster state."""
        self._round_index += 1
        inputs = [state] if self._router is None else self._router.route(state)

        # Graph maintenance: every active cell's network, in cell order.
        graph_seconds = 0.0
        prepared: List[_Prepared] = []
        for cell, cell_state in enumerate(inputs):
            if cell_state is None:
                continue
            manager = self.graph_managers[cell]
            network = manager.update(cell_state, now)
            graph_seconds += manager.last_update_stats.seconds
            if manager.task_nodes:
                prepared.append((cell, network, manager.last_changes))
        if not prepared:
            decision = SchedulingDecision(graph_update_seconds=graph_seconds)
            self.statistics.record(decision)
            return decision

        wall_start = time.perf_counter()
        if self._workers:
            outcomes = self._solve_workers(prepared)
        else:
            outcomes = self._solve_inline(prepared)
        round_wall = time.perf_counter() - wall_start

        # Merge per-cell outcomes into one decision.
        decision = SchedulingDecision(graph_update_seconds=graph_seconds)
        results: List[SolverResult] = []
        straggler_cell, straggler_seconds = -1, 0.0
        for cell, result, runtime in outcomes:
            manager = self.graph_managers[cell]
            if result is None:
                # No solver produced a feasible flow within the round
                # budget.  Degrade instead of stalling: the cell's previous
                # placements stand and its pending tasks wait one round.
                # The incremental solvers notice the revision gap next
                # round and rebuild warm, so nothing stale survives.
                defer_pending(state, manager.task_nodes, decision)
            else:
                results.append(result)
                assignments = extract_placements(
                    manager.network,
                    manager.task_nodes,
                    manager.machine_nodes,
                    manager.sink_node,
                )
                diff_assignments(
                    state, manager.task_nodes, assignments,
                    self.allow_migrations, decision,
                )
                decision.total_cost += result.total_cost
                if not result.optimal:
                    # The round deadline truncated the epsilon ladder: the
                    # flow is feasible and epsilon-optimal at the coarser
                    # epsilon, but not the fully-scaled optimum.
                    decision.degraded = True
                    decision.degraded_reason = (
                        decision.degraded_reason or "epsilon_truncated"
                    )
            if runtime >= straggler_seconds:
                straggler_cell, straggler_seconds = cell, runtime

        if self._workers:
            # The cells really ran concurrently: the measured ship+gather
            # wall clock is the round's placement latency.
            decision.algorithm_runtime = round_wall
        else:
            # Inline cells ran back to back; charge the slowest cell, the
            # effective latency of the concurrent deployment (same modeling
            # convention as the sequential dual executor's race).
            decision.algorithm_runtime = straggler_seconds

        migrations = 0
        if self._router is not None:
            migrations = self._router.rebalance(state, decision)

        merged = self._merged_result(
            results, len(outcomes) - len(results), decision.algorithm_runtime
        )
        stats = merged.statistics
        stats.cells_solved = len(outcomes)
        stats.straggler_cell = straggler_cell
        stats.straggler_seconds = straggler_seconds
        stats.cross_cell_migrations = migrations
        # Attribute graph maintenance alongside the solver's own counters so
        # per-round time can be split into graph vs solver work.
        stats.graph_update_seconds = graph_seconds
        if decision.degraded:
            stats.degraded_round = 1
        decision.solver_result = merged
        self.statistics.record(decision)
        return decision

    def _solve_inline(self, prepared: List[_Prepared]) -> List[_Outcome]:
        """Solve every cell in-process, in cell order (deterministic)."""
        outcomes: List[_Outcome] = []
        for cell, network, changes in prepared:
            solver = self.solvers[cell]
            start = time.perf_counter()
            try:
                if getattr(solver, "accepts_change_batches", False):
                    # Hand the solver the typed change batch so an
                    # incremental instance can patch its persistent residual
                    # network in place instead of reconstructing it.
                    result = solver.solve(network, changes=changes)
                else:
                    result = solver.solve(network)
            except RoundDeadlineExceeded:
                outcomes.append((cell, None, time.perf_counter() - start))
                continue
            wall = time.perf_counter() - start
            if getattr(solver, "charges_wall_clock", False):
                # The parallel executor races the algorithms physically, so
                # the measured wall clock *is* the placement latency
                # (winner's runtime plus IPC overhead).
                runtime = wall
            else:
                # The solver-reported runtime: for the sequential dual
                # executor that is the *winner's* runtime -- the effective
                # latency of the paper's concurrent deployment (wall clock
                # would double-charge the loser run back to back).
                runtime = result.runtime_seconds or wall
            outcomes.append((cell, result, runtime))
        return outcomes

    def _solve_workers(self, prepared: List[_Prepared]) -> List[_Outcome]:
        """Ship every cell's round, then gather: wall ~ the slowest cell."""
        round_id = self._round_index
        chaos_round = round_id - 1
        chaos_target = chaos_round % self.num_cells
        shipped: List[Optional[str]] = []
        for cell, network, changes in prepared:
            worker = self._workers[cell]
            worker.begin_round(changes)
            chaos = self.chaos if cell == chaos_target else None
            shipped.append(worker.ship(round_id, network, changes, chaos, chaos_round))

        timeout = self.round_deadline_seconds or GATHER_TIMEOUT_SECONDS
        deadline = time.monotonic() + timeout
        outcomes: List[_Outcome] = []
        for (cell, network, changes), kind in zip(prepared, shipped):
            worker = self._workers[cell]
            payload = None
            if kind is not None:
                remaining = max(deadline - time.monotonic(), 0.01)
                payload = worker.gather(round_id, remaining)
                worker.settle()
            if payload is None:
                # No worker, a dead, erroring or slow one: the parent-side
                # solver serves this cell's round so only this cell degrades
                # to fallback latency -- never to a lost round.
                self._fallback_rounds[cell] += 1
                outcomes.extend(self._solve_inline([(cell, network, changes)]))
                continue
            network.set_flows(payload["flows"])
            outcomes.append(
                (cell, result_from_payload(payload), payload["runtime_seconds"])
            )
        return outcomes

    def _merged_result(
        self, results: List[SolverResult], dead_cells: int, runtime: float
    ) -> SolverResult:
        """The round's result: one solved cell's own, else the cells merged.

        Each cell whose solve died at the deadline counts one deadline hit
        (its solver's own statistics died with the solve).
        """
        if len(results) == 1 and not dead_cells:
            return results[0]
        stats = SolverStatistics(deadline_hits=dead_cells)
        for result in results:
            stats = stats.merge(result.statistics)
        return SolverResult(
            algorithm=f"sharded[{self.num_cells}]",
            total_cost=sum(result.total_cost for result in results),
            flows={},
            potentials={},
            runtime_seconds=runtime,
            statistics=stats,
            optimal=not dead_cells and all(result.optimal for result in results),
        )

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

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def cell_transport(self) -> List[Dict[str, int]]:
        """Per-cell transport/health counters (worker mode observability).

        One dict per cell: ``snapshot_ships`` / ``delta_ships`` (the
        per-cell delta-ship ratio is ``delta / (delta + snapshot)``),
        ``fallback_rounds`` (rounds the parent served without the worker:
        a failure, a timeout, or an open circuit breaker), and
        ``respawns``.  Empty for inline cells.
        """
        return [
            {
                "snapshot_ships": worker.snapshot_ships,
                "delta_ships": worker.delta_ships,
                "fallback_rounds": fallbacks,
                "respawns": worker.respawns,
            }
            for worker, fallbacks in zip(self._workers, self._fallback_rounds)
        ]

    def close(self) -> None:
        """Shut down every cell's worker and solver resources (idempotent)."""
        for worker in self._workers:
            worker.close()
        for cell_solver in self.solvers:
            close = getattr(cell_solver, "close", None)
            if callable(close):
                close()


def _solver_spec(
    solver: Optional[str],
    executor: Optional[str],
    price_refine: Optional[str],
    executor_policy: Optional[str],
    round_deadline_seconds: Optional[float],
) -> Tuple[str, Dict[str, Any]]:
    """Resolve the constructor's solver options to ``(registry name, kwargs)``."""
    if solver is not None and executor is not None:
        raise ValueError("pass either solver= or executor=, not both")
    if solver is None:
        executor = executor or "sequential"
        if executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {executor!r}; choose from {sorted(EXECUTORS)}"
            )
        solver = EXECUTORS[executor]
    kwargs: Dict[str, Any] = {}
    if price_refine is not None:
        kwargs["price_refine"] = price_refine
    if executor_policy is not None:
        kwargs["executor_policy"] = executor_policy
    if round_deadline_seconds is not None:
        kwargs["round_deadline_seconds"] = round_deadline_seconds
    return solver, kwargs
