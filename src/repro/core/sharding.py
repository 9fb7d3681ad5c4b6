"""Cells: the rack-granular partition behind a multi-cell Firmament scheduler.

One min-cost flow network over the whole cluster is the reproduction's hard
scaling ceiling: solver work grows superlinearly with network size, so a
single network cannot reach the paper's 12,500-machine trace no matter how
incremental the per-round work is.  Production clusters answer this by
federating into *cells* (Borg-style; the paper's Firmament deployment
schedules one cell).  :class:`~repro.core.scheduler.FirmamentScheduler`
does the same when built with ``num_cells > 1``; this module holds the
pieces it routes through:

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
  as a one-cell scheduler's manager consumes the full state, so the entire
  incremental graph path (typed dirty sets, in-place mutation, emitted
  :class:`~repro.flow.changes.ChangeBatch`) is reused unchanged per cell.
* :class:`CellRouter` drains the global dirty tracker once per round,
  *routes* each mark to the owning cell's tracker, and buckets the
  schedulable tasks by home cell; the scheduler then updates, solves,
  extracts and diffs every active cell on its one round path.
* :class:`CrossCellBalancer` runs off the hot path, after the round's
  placements are extracted: a cell whose queued tasks exceed its free
  capacity (including a task with *no* feasible machine in its home cell)
  hands excess tasks to the cell with the most spare capacity.  A
  migration is nothing but a home-table update plus ordinary dirty marks
  in both cells' trackers, so it rides the incremental graph path like
  any other churn.

:class:`ShardedScheduler` is the pre-unification spelling of a multi-cell
scheduler with incremental cost scaling cells, kept as a thin subclass.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.cluster.events import DirtyTracker
from repro.cluster.machine import Machine, Rack
from repro.cluster.state import ClusterState
from repro.cluster.task import Task
from repro.cluster.topology import ClusterTopology
from repro.core.placement import extract_placements  # noqa: F401 - benchmark hook
from repro.core.scheduler import FirmamentScheduler, SchedulingDecision
from repro.solvers.worker import SolverWorker

__all__ = [
    "CellPartition",
    "CellRouter",
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

#: The registry name of every :class:`ShardedScheduler` cell's solver.
CELL_SOLVER = "incremental_cost_scaling"

#: Benchmark hook: ``perfbench/tracing.py`` wraps ``_CellWorkerClient.ship``
#: and ``.gather`` by this name to time the parent's half of a cell's solve.
#: It also wraps this module's ``extract_placements``, so the name stays
#: importable here; rounds call the one in :mod:`repro.core.scheduler`.
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
# Routing
# --------------------------------------------------------------------- #
class CellRouter:
    """Splits each round of one cluster into per-cell inputs.

    Owns the partition, the persistent per-cell views, the task-home and
    job-cell tables, the global dirty-epoch chain and the balancer.  A new
    cluster state gets fresh views whose trackers start fully dirty, so
    every cell's graph manager rebuilds once and then runs incrementally.
    """

    def __init__(self, num_cells: int, balance: bool = True) -> None:
        self.partition = CellPartition(num_cells)
        self.num_cells = num_cells
        self.balancer = CrossCellBalancer(self.partition) if balance else None
        self.views: List[CellStateView] = []
        self._state: Optional[ClusterState] = None
        self._cell_had_tasks: List[bool] = []
        self._dirty_epoch: Optional[int] = None
        self._task_home: Dict[int, int] = {}
        self._job_cells: Dict[int, Set[int]] = {}
        self._round_index = 0

    def _bind(self, state: ClusterState) -> None:
        self._state = state
        self.views = [
            CellStateView(state, self.partition, cell)
            for cell in range(self.num_cells)
        ]
        self._cell_had_tasks = [False] * self.num_cells
        self._dirty_epoch = None
        self._task_home = {}
        self._job_cells = {}
        for view in self.views:
            view.dirty.mark_all()

    def route(self, state: ClusterState) -> List[Optional[CellStateView]]:
        """The round's per-cell inputs: a cell's view, or None when idle.

        A cell is idle when it has no tasks this round and had none last
        round; its tracker just accumulates marks until it wakes.
        """
        if self._state is not state:
            self._bind(state)
        self._round_index += 1
        self._route_dirty(state)
        inputs: List[Optional[CellStateView]] = []
        for cell, bucket in enumerate(self._bucket_tasks(state)):
            if not bucket and not self._cell_had_tasks[cell]:
                inputs.append(None)
                continue
            view = self.views[cell]
            view.set_round_tasks(bucket)
            self._cell_had_tasks[cell] = bool(bucket)
            inputs.append(view)
        return inputs

    def home_cell(self, task: Task) -> int:
        """Current home cell of a task.

        A running task belongs to the cell of its machine (its continuation
        arc must resolve inside that cell's network); otherwise the
        balancer's override applies, falling back to the job-hash default.
        """
        if task.is_running and task.machine_id is not None:
            machine = self._state.topology.machines.get(task.machine_id)
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
            for view in self.views:
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
                    self.views[home].dirty.mark_task(task_id)
                continue
            self.views[self.home_cell(task)].dirty.mark_task(task_id)
        for job_id in snapshot.jobs:
            cells = self._job_cells.get(job_id)
            if cells is None:
                for view in self.views:
                    view.dirty.mark_job(job_id)
            else:
                for cell in cells:
                    self.views[cell].dirty.mark_job(job_id)
        for machine_id in snapshot.machines_availability:
            machine = machines.get(machine_id)
            if machine is None:
                for view in self.views:
                    view.dirty.mark_machine_availability(machine_id)
            else:
                self.views[
                    self.partition.cell_of_machine(machine)
                ].dirty.mark_machine_availability(machine_id)
        for machine_id in snapshot.machines_load:
            machine = machines.get(machine_id)
            if machine is None:
                for view in self.views:
                    view.dirty.mark_machine_load(machine_id)
            else:
                self.views[
                    self.partition.cell_of_machine(machine)
                ].dirty.mark_machine_load(machine_id)

    def _bucket_tasks(self, state: ClusterState) -> List[List[Task]]:
        """Split the schedulable set into per-cell buckets (one O(live) pass)."""
        buckets: List[List[Task]] = [[] for _ in range(self.num_cells)]
        for task in state.schedulable_tasks():
            cell = self.home_cell(task)
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

    def rebalance(self, state: ClusterState, decision: SchedulingDecision) -> int:
        """Run the balancer; re-homes are ordinary dirty-set mutations."""
        if self.balancer is None:
            return 0
        moves = self.balancer.plan(state, decision, self.home_cell)
        tasks = state.tasks
        for task_id, source, target in moves:
            self._task_home[task_id] = target
            task = tasks.get(task_id)
            self.views[source].dirty.mark_task(task_id)
            self.views[target].dirty.mark_task(task_id)
            if task is not None:
                self._job_cells.setdefault(task.job_id, set()).add(target)
                self.views[source].dirty.mark_job(task.job_id)
                self.views[target].dirty.mark_job(task.job_id)
        return len(moves)


# --------------------------------------------------------------------- #
# The pre-unification spelling
# --------------------------------------------------------------------- #
class ShardedScheduler(FirmamentScheduler):
    """A multi-cell :class:`FirmamentScheduler` with incremental cost scaling cells.

    Only an ``__init__`` that maps the old arguments onto the one
    scheduler.  It stays because the committed benchmark constructs it and
    wraps its ``schedule`` by name (``perfbench/sim_child.py``,
    ``perfbench/tracing.py``); new code passes ``num_cells`` (and
    ``solver="incremental_cost_scaling"``) to :class:`FirmamentScheduler`.
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
        super().__init__(
            policy_factory,
            solver=CELL_SOLVER,
            allow_migrations=allow_migrations,
            price_refine=price_refine,
            round_deadline_seconds=round_deadline_seconds,
            chaos=chaos,
            num_cells=num_cells,
            workers=workers,
            balance=balance,
        )
