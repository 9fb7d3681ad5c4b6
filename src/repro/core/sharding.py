"""Sharded multi-cell scheduling: per-cell incremental solvers + balancer.

One min-cost flow network over the whole cluster is the reproduction's hard
scaling ceiling: solver work grows superlinearly with network size, so a
single network cannot reach the paper's 12,500-machine trace no matter how
incremental the per-round work is.  Production clusters answer this by
federating into *cells* (Borg-style; the paper's Firmament deployment
schedules one cell), and this module does the same:

* :class:`CellPartition` splits the cluster into cells by **rack** -- the
  failure domain of :mod:`repro.cluster.topology` -- with a pure function
  of the rack id, so the partition is deterministic, identical across
  processes, and stable under ``add_machine`` / ``remove_machine`` (a
  machine's cell follows its rack; existing machines never move).
* :class:`CellStateView` is a persistent per-cell facade over the shared
  :class:`~repro.cluster.state.ClusterState`: a filtered topology (the
  cell's racks and machines only), the round's task bucket, and a private
  :class:`~repro.cluster.events.DirtyTracker`.  Each cell's
  :class:`~repro.core.graph_manager.GraphManager` consumes its view exactly
  as the monolithic manager consumes the full state, so the entire
  incremental graph path (typed dirty sets, in-place mutation, emitted
  :class:`~repro.flow.changes.ChangeBatch`) is reused unchanged per cell.
* :class:`ShardedScheduler` drains the global dirty tracker once per round
  and *routes* each mark to the owning cell's tracker, updates every
  cell's network, and solves the cells either **inline** (deterministic;
  the round charges the *slowest* cell's runtime, modeling concurrent
  cells the same way the sequential dual executor models the race) or in
  persistent **worker subprocesses** -- one incremental cost-scaling
  solver per cell behind the shared solver-worker transport
  (:class:`~repro.solvers.worker.SolverWorker`: full snapshots on cold
  start, revision-chained deltas and resyncs otherwise, a circuit breaker
  per cell).  All cells ship before any gathers, so the round's wall clock
  approaches the slowest cell rather than the sum; a cell whose worker
  cannot answer is solved inline by the parent.
* :class:`CrossCellBalancer` runs off the hot path, after the round's
  placements are extracted: a cell whose queued tasks exceed its free
  capacity (including a task with *no* feasible machine in its home cell)
  hands excess tasks to the cell with the most spare capacity.  A
  migration is nothing but a home-table update plus ordinary dirty marks
  in both cells' trackers, so it rides the incremental graph path like
  any other churn.

Observability: every round's merged
:class:`~repro.solvers.base.SolverStatistics` carries ``cells_solved``,
straggler-cell attribution (which cell bounded the round and by how much),
and ``cross_cell_migrations``; the simulator forwards them through
:class:`~repro.simulation.simulator.ScheduleRecord` into
:class:`~repro.simulation.metrics.MetricsSummary`.  Per-cell transport
ratios (snapshot vs delta ships, fallback rounds, respawns) are exposed by
:meth:`ShardedScheduler.cell_transport`.

Chaos: the scheduler honours the same :class:`~repro.chaos.ChaosPolicy`
faults as the parallel executor, aimed at one cell per firing round
(``round_index % num_cells``), so a ``worker_kill`` degrades exactly the
affected cell -- its round is served by the parent-side fallback solver --
while every other cell's worker keeps solving undisturbed.  A cell whose
worker keeps dying backs off through its breaker and is served inline
until a probe round re-closes it.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.cluster.events import DirtyTracker
from repro.cluster.machine import Machine, Rack
from repro.cluster.state import ClusterState
from repro.cluster.task import Task
from repro.cluster.topology import ClusterTopology
from repro.core.graph_manager import GraphManager
from repro.core.placement import extract_placements
from repro.core.scheduler import (
    DecisionApplier,
    SchedulerStatistics,
    SchedulingDecision,
    defer_pending,
    diff_assignments,
)
from repro.flow.changes import ChangeBatch
from repro.flow.graph import FlowNetwork
from repro.solvers import make_solver
from repro.solvers.base import (
    RoundDeadlineExceeded,
    SolverResult,
    SolverStatistics,
)
from repro.solvers.worker import SolverWorker, result_from_payload

__all__ = [
    "CellPartition",
    "CellStateView",
    "CellTopologyView",
    "CrossCellBalancer",
    "ShardedScheduler",
]

#: Upper bound on cross-cell migrations per round.  The balancer runs off
#: the hot path and its migrations are ordinary dirty-set churn for *two*
#: cells each, so an unbounded storm (e.g. after a rack failure dumped a
#: whole cell's tasks into the queue) could make the next round's delta
#: work resemble a rebuild.  Rebalancing the tail over a few rounds keeps
#: every round incremental.
MAX_MIGRATIONS_PER_ROUND = 64

#: How long a worker-mode gather waits for a cell's result when no round
#: deadline is configured.  Purely a hang guard: a worker that misses it is
#: treated exactly like a dead worker (parent-side fallback serves the
#: cell, the worker is respawned), so the bound trades a pathological hang
#: for one degraded cell-round.
GATHER_TIMEOUT_SECONDS = 300.0

#: The registry name of every cell's solver, inline or in a worker.
CELL_SOLVER = "incremental_cost_scaling"

#: Benchmark hook: ``perfbench/tracing.py`` wraps ``_CellWorkerClient.ship``
#: and ``.gather`` by this name to time the parent's half of a cell's solve.
_CellWorkerClient = SolverWorker

#: Prune interval (in rounds) for the task-home and job-cell maps, which
#: otherwise grow with workload history rather than the live set.
HOME_PRUNE_INTERVAL = 256


class CellPartition:
    """Deterministic rack-granular partition of the cluster into cells.

    A rack -- the failure domain of the topology -- maps to cell
    ``rack_id % num_cells``.  The mapping is a pure function: two processes
    (or two rounds straddling arbitrary churn) always agree, machines never
    change cells while their rack exists, and newly added machines land in
    their rack's cell without disturbing anyone else.
    """

    def __init__(self, num_cells: int) -> None:
        if num_cells < 1:
            raise ValueError("a partition needs at least one cell")
        self.num_cells = num_cells

    def cell_of_rack(self, rack_id: int) -> int:
        """Cell owning a rack."""
        return rack_id % self.num_cells

    def cell_of_machine(self, machine: Machine) -> int:
        """Cell owning a machine (via its rack)."""
        return machine.rack_id % self.num_cells

    def cell_of_job(self, job_id: int) -> int:
        """Default home cell of a job's tasks.

        Homing by *job* keeps a job's unscheduled aggregator from
        fragmenting across every cell by default; the balancer re-homes
        individual tasks only when load or feasibility demands it.
        """
        return job_id % self.num_cells

    def assignment(self, topology: ClusterTopology) -> Dict[int, int]:
        """``{machine_id: cell}`` for every machine currently in the topology."""
        return {
            machine_id: self.cell_of_machine(machine)
            for machine_id, machine in topology.machines.items()
        }


class CellTopologyView:
    """One cell's slice of the shared topology.

    Filters ``racks`` / ``machines`` to the cell (cached against
    :attr:`ClusterTopology.version`, so steady-state rounds pay a dict
    lookup, not a re-derivation) and answers ``healthy_machines`` from the
    filtered set.  Point lookups (``machine``, ``rack``, ``rack_of``,
    ``machines_in_rack``) delegate to the global topology: the partition is
    rack-granular, so every id a cell's policy or graph manager resolves is
    already in-cell.
    """

    def __init__(self, topology: ClusterTopology, partition: CellPartition, cell: int) -> None:
        self._topology = topology
        self._partition = partition
        self._cell = cell
        self._cached_version: Optional[int] = None
        self._machines: Dict[int, Machine] = {}
        self._racks: Dict[int, Rack] = {}

    def _refresh(self) -> None:
        topology = self._topology
        if self._cached_version == topology.version:
            return
        racks = {
            rack_id: rack
            for rack_id, rack in topology.racks.items()
            if self._partition.cell_of_rack(rack_id) == self._cell
        }
        machines = {}
        all_machines = topology.machines
        for rack in racks.values():
            for machine_id in rack.machine_ids:
                machine = all_machines.get(machine_id)
                if machine is not None:
                    machines[machine_id] = machine
        self._racks = racks
        self._machines = machines
        self._cached_version = topology.version

    @property
    def machines(self) -> Dict[int, Machine]:
        """The cell's machines, keyed by id."""
        self._refresh()
        return self._machines

    @property
    def racks(self) -> Dict[int, Rack]:
        """The cell's racks, keyed by id."""
        self._refresh()
        return self._racks

    @property
    def num_machines(self) -> int:
        return len(self.machines)

    @property
    def num_racks(self) -> int:
        return len(self.racks)

    @property
    def total_slots(self) -> int:
        return sum(m.num_slots for m in self.machines.values())

    @property
    def version(self) -> int:
        return self._topology.version

    def healthy_machines(self) -> List[Machine]:
        """The cell's machines that can currently accept tasks."""
        return [m for m in self.machines.values() if m.is_available]

    def machine(self, machine_id: int) -> Machine:
        return self._topology.machine(machine_id)

    def rack(self, rack_id: int) -> Rack:
        return self._topology.rack(rack_id)

    def rack_of(self, machine_id: int) -> Rack:
        return self._topology.rack_of(machine_id)

    def machines_in_rack(self, rack_id: int) -> List[Machine]:
        return self._topology.machines_in_rack(rack_id)


class CellStateView:
    """Persistent per-cell facade over the shared :class:`ClusterState`.

    The graph manager binds to ``id(state)`` and to the continuity of the
    state's dirty-epoch chain, so the view must be a long-lived object with
    its own :class:`DirtyTracker` (fed by the scheduler's routing) -- a
    per-round throwaway wrapper would force a full rebuild every round.

    Overridden surface: ``topology`` (the cell slice), ``dirty`` (the
    private tracker), and the task scans (``schedulable_tasks`` /
    ``pending_tasks``), which serve the round's pre-bucketed task list so
    per-round cost across all cells stays O(live tasks), not
    O(cells x live tasks).  Everything else -- ``tasks``, ``jobs``, slot
    and resource queries, the monitor -- delegates to the shared state:
    those queries are keyed by in-cell ids, and policies resolving a
    *departed* task need the global ``tasks`` history.
    """

    def __init__(self, state: ClusterState, partition: CellPartition, cell: int) -> None:
        self._state = state
        self.cell = cell
        self.topology = CellTopologyView(state.topology, partition, cell)
        self.dirty = DirtyTracker()
        self._round_tasks: List[Task] = []

    def set_round_tasks(self, tasks: List[Task]) -> None:
        """Install the round's task bucket (scheduler routing step)."""
        self._round_tasks = tasks

    def schedulable_tasks(self) -> List[Task]:
        """The cell's schedulable tasks, as bucketed for this round."""
        return list(self._round_tasks)

    def pending_tasks(self) -> List[Task]:
        """The cell's pending tasks, oldest submission first."""
        pending = [t for t in self._round_tasks if t.is_pending]
        pending.sort(key=lambda t: (t.submit_time, t.task_id))
        return pending

    def __getattr__(self, name: str):
        # Anything not overridden reads through to the shared state
        # (``tasks``, ``jobs``, ``free_slots``, ``spare_resources``,
        # ``monitor``, ...).
        return getattr(self._state, name)


# --------------------------------------------------------------------- #
# Cross-cell balancer
# --------------------------------------------------------------------- #
class CrossCellBalancer:
    """Off-hot-path task migration between cells.

    After a round's placements are known, each cell's *surplus* is its
    remaining free slots minus its queued (unscheduled) demand.  Cells in
    deficit -- including the degenerate case of a task with no feasible
    machine at all in its home cell (zero free slots) -- hand excess
    unscheduled tasks to the cell with the largest surplus.  Deterministic:
    tasks move in task-id order, ties in target choice break toward the
    lowest cell id.  Migrations are bounded per round
    (:data:`MAX_MIGRATIONS_PER_ROUND`) so the next round's delta work stays
    incremental even after a storm.
    """

    def __init__(
        self,
        partition: CellPartition,
        max_migrations_per_round: int = MAX_MIGRATIONS_PER_ROUND,
    ) -> None:
        self.partition = partition
        self.max_migrations_per_round = max_migrations_per_round
        self.total_migrations = 0

    def plan(
        self,
        state: ClusterState,
        decision: SchedulingDecision,
        home_of,
    ) -> List[Tuple[int, int, int]]:
        """Plan ``(task_id, from_cell, to_cell)`` migrations for this round.

        ``home_of(task)`` maps a task to its current home cell.  Uses the
        state's free-slot index, so the cost is O(|free machines| +
        |unscheduled| + cells) -- off the hot path by construction.
        """
        if not decision.unscheduled:
            return []
        num_cells = self.partition.num_cells
        if num_cells < 2:
            return []

        # Remaining free slots per cell once this round's planned
        # placements land.
        free = [0] * num_cells
        for machine in state.machines_with_free_slots():
            free[self.partition.cell_of_machine(machine)] += state.free_slots(
                machine.machine_id
            )
        machines = state.topology.machines
        for machine_id in decision.placements.values():
            machine = machines.get(machine_id)
            if machine is not None:
                free[self.partition.cell_of_machine(machine)] -= 1
        for task_id, machine_id in decision.migrations.items():
            machine = machines.get(machine_id)
            if machine is not None:
                free[self.partition.cell_of_machine(machine)] -= 1
            task = state.tasks.get(task_id)
            if task is not None and task.machine_id is not None:
                old = machines.get(task.machine_id)
                if old is not None:
                    free[self.partition.cell_of_machine(old)] += 1

        # Queued demand per cell, and the movable tasks behind it.
        demand = [0] * num_cells
        movable: List[Tuple[int, int]] = []  # (task_id, home_cell)
        tasks = state.tasks
        for task_id in sorted(decision.unscheduled):
            task = tasks.get(task_id)
            if task is None or task.is_running:
                continue
            home = home_of(task)
            demand[home] += 1
            movable.append((task_id, home))

        surplus = [free[c] - demand[c] for c in range(num_cells)]
        moves: List[Tuple[int, int, int]] = []
        for task_id, home in movable:
            if len(moves) >= self.max_migrations_per_round:
                break
            if surplus[home] >= 0:
                continue  # the home cell can absorb its own queue
            target = max(
                range(num_cells), key=lambda c: (surplus[c], -c)
            )
            if target == home or surplus[target] <= 0:
                continue  # nowhere better to go
            surplus[home] += 1
            surplus[target] -= 1
            moves.append((task_id, home, target))
        self.total_migrations += len(moves)
        return moves


# --------------------------------------------------------------------- #
# The sharded scheduler
# --------------------------------------------------------------------- #
class ShardedScheduler(DecisionApplier):
    """Flow scheduling over a rack-partitioned cluster, one solver per cell.

    Drop-in for :class:`~repro.core.scheduler.FirmamentScheduler` (same
    ``schedule`` / ``apply`` / ``schedule_and_apply`` / ``close`` /
    ``statistics`` surface), so the simulator, CLI, and testbed drive it
    unchanged.

    Args:
        policy_factory: Zero-argument callable producing a *fresh* policy
            per cell (each cell's graph manager derives its own network, so
            policies must not share per-network caches).  A policy class
            works directly.
        num_cells: Number of cells; racks map to cells by ``rack_id %
            num_cells``.
        workers: ``True`` solves each cell in a persistent subprocess
            (ship all, then gather: wall clock ~ slowest cell).  ``False``
            (default) solves cells inline in cell order and charges the
            *maximum* cell runtime -- fully deterministic, modeling the
            concurrent deployment exactly as the sequential dual executor
            models the race.
        price_refine: Price-refine variant forwarded to every per-cell
            incremental cost scaling solver -- inline, fallback and worker
            alike (``"spfa"``, ``"dijkstra"``, or ``"auto"``; see
            :data:`repro.solvers.cost_scaling.PRICE_REFINE_MODES`).
        allow_migrations: As in :class:`FirmamentScheduler`.
        balance: Enable the cross-cell balancer.
        round_deadline_seconds: Per-round budget, applied per cell (cells
            are concurrent, so each gets the full budget).  A cell that
            misses it degrades alone: its pending tasks wait a round while
            the other cells' placements land normally.
        chaos: Optional :class:`~repro.chaos.ChaosPolicy`; worker-directed
            faults hit cell ``round_index % num_cells`` only.
    """

    def __init__(
        self,
        policy_factory,
        num_cells: int = 4,
        workers: bool = False,
        price_refine: Optional[str] = None,
        allow_migrations: bool = True,
        balance: bool = True,
        round_deadline_seconds: Optional[float] = None,
        chaos=None,
    ) -> None:
        self.partition = CellPartition(num_cells)
        self.num_cells = num_cells
        self.workers = workers
        self.allow_migrations = allow_migrations
        self.round_deadline_seconds = round_deadline_seconds
        self.chaos = chaos
        self._policy_factory = policy_factory
        # Worker subprocesses build their solvers from these kwargs, and
        # so do the inline/fallback solvers: both modes solve identically.
        self._solver_kwargs: Dict[str, Any] = {}
        if price_refine is not None:
            self._solver_kwargs["price_refine"] = price_refine
        if round_deadline_seconds is not None:
            self._solver_kwargs["round_deadline_seconds"] = round_deadline_seconds
        self.statistics = SchedulerStatistics()
        self.balancer = CrossCellBalancer(self.partition) if balance else None

        self._state_id: Optional[int] = None
        self._views: List[CellStateView] = []
        self._managers: List[GraphManager] = []
        self._solvers: List[Any] = []
        self._workers: List[SolverWorker] = []
        self._fallback_rounds: List[int] = []
        self._cell_had_tasks: List[bool] = []
        self._dirty_epoch: Optional[int] = None
        self._task_home: Dict[int, int] = {}
        self._job_cells: Dict[int, Set[int]] = {}
        self._round_index = 0
        #: Rounds in which each cell was the straggler (observability).
        self.straggler_rounds: Dict[int, int] = {}

    # ------------------------------------------------------------------ #
    # Binding and routing
    # ------------------------------------------------------------------ #
    def _bind(self, state: ClusterState) -> None:
        """(Re)attach to a cluster state: fresh views, managers, solvers."""
        self.close_cells()
        self._state_id = id(state)
        self._views = [
            CellStateView(state, self.partition, cell)
            for cell in range(self.num_cells)
        ]
        self._managers = [
            GraphManager(self._policy_factory(), track_changes=True, chaos=self.chaos)
            for _ in range(self.num_cells)
        ]
        self._solvers = [self._make_cell_solver() for _ in range(self.num_cells)]
        self._workers = [
            SolverWorker(CELL_SOLVER, self._solver_kwargs)
            for _ in range(self.num_cells)
        ]
        self._fallback_rounds = [0] * self.num_cells
        self._cell_had_tasks = [False] * self.num_cells
        self._dirty_epoch = None
        self._task_home = {}
        self._job_cells = {}
        for view in self._views:
            view.dirty.mark_all()

    def _make_cell_solver(self):
        """A cell's inline/fallback solver, configured like its worker's."""
        return make_solver(CELL_SOLVER, **self._solver_kwargs)

    def _home_cell(self, task: Task) -> int:
        """Current home cell of a task.

        A running task belongs to the cell of its machine (its continuation
        arc must resolve inside that cell's network); otherwise the
        balancer's override applies, falling back to the job-hash default.
        """
        if task.is_running and task.machine_id is not None:
            machine = self._views[0]._state.topology.machines.get(task.machine_id)
            if machine is not None:
                return self.partition.cell_of_machine(machine)
        home = self._task_home.get(task.task_id)
        if home is not None:
            return home
        return self.partition.cell_of_job(task.job_id)

    def _route_dirty(self, state: ClusterState) -> None:
        """Drain the global dirty tracker once, route marks to cell trackers."""
        snapshot = state.dirty.drain()
        chain_intact = (
            self._dirty_epoch is not None
            and snapshot.epoch == self._dirty_epoch + 1
        )
        self._dirty_epoch = snapshot.epoch
        if snapshot.full or not chain_intact:
            for view in self._views:
                view.dirty.mark_all()
            return
        tasks = state.tasks
        machines = state.topology.machines
        for task_id in snapshot.tasks:
            task = tasks.get(task_id)
            if task is None:
                # The task vanished (job removal) before it ever reached a
                # cell's round bucket; the owning cell's manager detects
                # the departure from its previous task set regardless, so
                # the mark has no one left to inform.
                home = self._task_home.get(task_id)
                if home is not None:
                    self._views[home].dirty.mark_task(task_id)
                continue
            self._views[self._home_cell(task)].dirty.mark_task(task_id)
        for job_id in snapshot.jobs:
            cells = self._job_cells.get(job_id)
            if cells is None:
                for view in self._views:
                    view.dirty.mark_job(job_id)
            else:
                for cell in cells:
                    self._views[cell].dirty.mark_job(job_id)
        for machine_id in snapshot.machines_availability:
            machine = machines.get(machine_id)
            if machine is None:
                for view in self._views:
                    view.dirty.mark_machine_availability(machine_id)
            else:
                self._views[
                    self.partition.cell_of_machine(machine)
                ].dirty.mark_machine_availability(machine_id)
        for machine_id in snapshot.machines_load:
            machine = machines.get(machine_id)
            if machine is None:
                for view in self._views:
                    view.dirty.mark_machine_load(machine_id)
            else:
                self._views[
                    self.partition.cell_of_machine(machine)
                ].dirty.mark_machine_load(machine_id)

    def _bucket_tasks(self, state: ClusterState) -> List[List[Task]]:
        """Split the schedulable set into per-cell buckets (one O(live) pass)."""
        buckets: List[List[Task]] = [[] for _ in range(self.num_cells)]
        for task in state.schedulable_tasks():
            cell = self._home_cell(task)
            # Stick the task to its resolved cell so preemption does not
            # bounce it back to the job-hash default mid-flight.
            self._task_home[task.task_id] = cell
            self._job_cells.setdefault(task.job_id, set()).add(cell)
            buckets[cell].append(task)
        if self._round_index % HOME_PRUNE_INTERVAL == 0:
            live = state.tasks
            self._task_home = {
                task_id: cell
                for task_id, cell in self._task_home.items()
                if task_id in live
            }
            jobs = state.jobs
            self._job_cells = {
                job_id: cells
                for job_id, cells in self._job_cells.items()
                if job_id in jobs
            }
        return buckets

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #
    def schedule(self, state: ClusterState, now: float = 0.0) -> SchedulingDecision:
        """Run one sharded scheduling iteration."""
        if self._state_id != id(state):
            self._bind(state)
        self._round_index += 1
        round_id = self._round_index
        self._route_dirty(state)
        buckets = self._bucket_tasks(state)

        # Graph maintenance: every active cell's network, in cell order.
        graph_seconds = 0.0
        prepared: List[Tuple[int, FlowNetwork, Optional[ChangeBatch]]] = []
        for cell in range(self.num_cells):
            bucket = buckets[cell]
            if not bucket and not self._cell_had_tasks[cell]:
                continue  # an idle cell's tracker just accumulates marks
            view = self._views[cell]
            view.set_round_tasks(bucket)
            manager = self._managers[cell]
            network = manager.update(view, now)
            graph_seconds += manager.last_update_stats.seconds
            self._cell_had_tasks[cell] = bool(bucket)
            if manager.task_nodes:
                prepared.append((cell, network, manager.last_changes))

        if not prepared:
            decision = SchedulingDecision(graph_update_seconds=graph_seconds)
            decision.solver_result = self._merged_result([], 0.0)
            self.statistics.record(decision)
            return decision

        wall_start = time.perf_counter()
        if self.workers:
            cell_results = self._solve_cells_workers(round_id, prepared)
        else:
            cell_results = self._solve_cells_inline(prepared)
        round_wall = time.perf_counter() - wall_start

        # Merge per-cell outcomes into one decision.
        decision = SchedulingDecision()
        straggler_cell, straggler_seconds = -1, 0.0
        results: List[SolverResult] = []
        for cell, result, runtime in cell_results:
            manager = self._managers[cell]
            if result is None:
                # The cell's round died at its deadline: previous
                # placements stand, its pending tasks wait one round.
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
                    decision.degraded = True
                    decision.degraded_reason = (
                        decision.degraded_reason or "epsilon_truncated"
                    )
            if runtime >= straggler_seconds:
                straggler_cell, straggler_seconds = cell, runtime

        if self.workers:
            # The cells really ran concurrently: the measured ship+gather
            # wall clock is the round's placement latency.
            algorithm_runtime = round_wall
        else:
            # Inline cells ran back to back; charge the slowest cell, the
            # effective latency of the concurrent deployment (same modeling
            # convention as the sequential dual executor's race).
            algorithm_runtime = straggler_seconds
        decision.algorithm_runtime = algorithm_runtime
        decision.graph_update_seconds = graph_seconds

        migrations = 0
        if self.balancer is not None:
            migrations = self._apply_rebalance(state, decision)

        merged = self._merged_result(results, algorithm_runtime)
        merged.statistics.cells_solved = len(cell_results)
        merged.statistics.straggler_cell = straggler_cell
        merged.statistics.straggler_seconds = straggler_seconds
        merged.statistics.cross_cell_migrations = migrations
        merged.statistics.graph_update_seconds = graph_seconds
        if decision.degraded:
            merged.statistics.degraded_round = 1
        if straggler_cell >= 0:
            self.straggler_rounds[straggler_cell] = (
                self.straggler_rounds.get(straggler_cell, 0) + 1
            )
        decision.solver_result = merged
        self.statistics.record(decision)
        return decision

    def _solve_cells_inline(
        self, prepared: List[Tuple[int, FlowNetwork, Optional[ChangeBatch]]]
    ) -> List[Tuple[int, Optional[SolverResult], float]]:
        """Solve every cell in-process, in cell order (deterministic)."""
        outcomes: List[Tuple[int, Optional[SolverResult], float]] = []
        for cell, network, changes in prepared:
            start = time.perf_counter()
            try:
                result = self._solvers[cell].solve(network, changes=changes)
            except RoundDeadlineExceeded:
                outcomes.append((cell, None, time.perf_counter() - start))
                continue
            runtime = result.runtime_seconds or (time.perf_counter() - start)
            outcomes.append((cell, result, runtime))
        return outcomes

    def _solve_cells_workers(
        self,
        round_id: int,
        prepared: List[Tuple[int, FlowNetwork, Optional[ChangeBatch]]],
    ) -> List[Tuple[int, Optional[SolverResult], float]]:
        """Ship every cell's round, then gather: wall ~ the slowest cell."""
        chaos_round = self._round_index - 1
        chaos_target = chaos_round % self.num_cells
        shipped: List[Optional[str]] = []
        for cell, network, changes in prepared:
            worker = self._workers[cell]
            worker.begin_round(changes)
            chaos = self.chaos if cell == chaos_target else None
            shipped.append(worker.ship(round_id, network, changes, chaos, chaos_round))

        timeout = self.round_deadline_seconds or GATHER_TIMEOUT_SECONDS
        deadline = time.monotonic() + timeout
        outcomes: List[Tuple[int, Optional[SolverResult], float]] = []
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
                outcomes.extend(self._solve_cells_inline([(cell, network, changes)]))
                continue
            network.set_flows(payload["flows"])
            outcomes.append(
                (cell, result_from_payload(payload), payload["runtime_seconds"])
            )
        return outcomes

    def _apply_rebalance(self, state: ClusterState, decision: SchedulingDecision) -> int:
        """Run the balancer; re-homes are ordinary dirty-set mutations."""
        moves = self.balancer.plan(state, decision, self._home_cell)
        tasks = state.tasks
        for task_id, source, target in moves:
            self._task_home[task_id] = target
            task = tasks.get(task_id)
            self._views[source].dirty.mark_task(task_id)
            self._views[target].dirty.mark_task(task_id)
            if task is not None:
                self._job_cells.setdefault(task.job_id, set()).add(target)
                self._views[source].dirty.mark_job(task.job_id)
                self._views[target].dirty.mark_job(task.job_id)
        return len(moves)

    def _merged_result(
        self, results: List[SolverResult], runtime: float
    ) -> SolverResult:
        """Combine per-cell solver results into the round's merged result."""
        stats = SolverStatistics()
        total_cost = 0
        optimal = True
        for result in results:
            stats = stats.merge(result.statistics)
            total_cost += result.total_cost
            optimal = optimal and result.optimal
        return SolverResult(
            algorithm=f"sharded[{self.num_cells}]",
            total_cost=total_cost,
            flows={},
            potentials={},
            runtime_seconds=runtime,
            statistics=stats,
            optimal=optimal,
        )

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def cell_transport(self) -> List[Dict[str, int]]:
        """Per-cell transport/health counters (worker mode observability).

        One dict per cell: ``snapshot_ships`` / ``delta_ships`` (the
        per-cell delta-ship ratio is ``delta / (delta + snapshot)``),
        ``fallback_rounds`` (rounds the parent served without the worker:
        a failure, a timeout, or an open circuit breaker), and
        ``respawns``.
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

    def close_cells(self) -> None:
        """Release per-cell resources (workers, solver state)."""
        for worker in self._workers:
            worker.close()
        self._workers = []
        self._solvers = []

    def close(self) -> None:
        """Shut down every cell's worker and solver (idempotent)."""
        self.close_cells()
