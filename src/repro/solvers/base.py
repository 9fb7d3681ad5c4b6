"""Common solver interface, result types, and the paper's static tables.

Every MCMF solver implements :class:`Solver`: it receives a
:class:`~repro.flow.graph.FlowNetwork`, computes a minimum-cost maximum
flow, assigns the flow onto the network's arcs, and returns a
:class:`SolverResult` describing the solution and runtime statistics.

The module also records Table 1 (worst-case complexities) and Table 2
(per-iteration preconditions) from the paper as data so benchmarks and
documentation can render them.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.flow.graph import FlowNetwork


@dataclass
class SolverStatistics:
    """Counters collected by a solver during one run.

    Not every solver populates every counter; unused counters stay zero.
    """

    iterations: int = 0
    augmentations: int = 0
    pushes: int = 0
    relabels: int = 0
    potential_updates: int = 0
    negative_cycles_canceled: int = 0
    arcs_scanned: int = 0
    epsilon_phases: int = 0
    warm_start: bool = False
    #: Change-application counters of the delta path: arcs and nodes the
    #: solver patched in its persistent residual from the round's change
    #: batch (zero on rebuild rounds).
    arcs_patched: int = 0
    nodes_touched: int = 0
    #: Wall-clock seconds spent inside price refine during this run, and the
    #: number of label-queue pops its sweeps performed (SPFA dequeues plus
    #: Dijkstra heap settles).  Price refine dominates warm-rebuild rounds,
    #: so both are surfaced through ``ScheduleRecord`` and ``MetricsSummary``
    #: to attribute per-round time; the pop count doubles as the
    #: degeneration detector (a label-correcting pathology shows up as a
    #: pop count orders of magnitude above the node count).
    price_refine_seconds: float = 0.0
    price_refine_passes: int = 0
    #: Relaxation observability (Section 4 / Figure 7-9 attribution): nodes
    #: added across all zero-reduced-cost trees and the number of dual
    #: ascent steps performed.  Zero for the other algorithms.  The dual
    #: executors fold the relaxation leg's counters into the round's
    #: winning result (like ``price_refine_seconds``), so timelines show
    #: the relaxation work every round paid regardless of who won.
    relaxation_tree_nodes: int = 0
    dual_ascents: int = 0
    #: Worker transport accounting of the round (parallel executor only):
    #: whether the relaxation worker was fed a full DIMACS snapshot or an
    #: incremental delta/resync payload this round (at most one of the two
    #: is 1; both zero when the worker was not consulted).
    snapshot_ships: int = 0
    delta_ships: int = 0
    #: Wall-clock seconds the graph manager spent producing this round's
    #: network (filled in by the scheduler, not the solver), so fig14-style
    #: runs can attribute per-round time to graph maintenance vs solving.
    graph_update_seconds: float = 0.0
    #: Self-healing round pipeline attribution.  ``deadline_hits`` counts
    #: deadline firings that truncated or aborted work this round;
    #: ``degraded_round`` flags a round whose result is deliberately
    #: non-optimal (epsilon-truncated ladder or previous-placement reuse);
    #: ``worker_respawns`` counts relaxation-worker respawns performed
    #: during the round; ``breaker_open`` flags a round served while the
    #: worker circuit breaker was not closed (sequential fallback rounds).
    deadline_hits: int = 0
    degraded_round: int = 0
    worker_respawns: int = 0
    breaker_open: int = 0
    #: Cell attribution of a scheduler round (:mod:`repro.core.scheduler`):
    #: how many cells solved this round, which cell's solve took longest
    #: (the round's wall clock in concurrent gather is the straggler's time,
    #: so tail latency is attributed to a specific cell rather than "the
    #: cluster"), that cell's solve seconds, and how many queued/unscheduled
    #: tasks the cross-cell balancer re-homed after the round.  A one-cell
    #: round reports one cell, straggler cell 0, and no migrations; a bare
    #: solver leaves them zero (straggler cell ``-1``).
    cells_solved: int = 0
    straggler_cell: int = -1
    straggler_seconds: float = 0.0
    cross_cell_migrations: int = 0

    def merge(self, other: "SolverStatistics") -> "SolverStatistics":
        """Return statistics summing this run with another."""
        return SolverStatistics(
            iterations=self.iterations + other.iterations,
            augmentations=self.augmentations + other.augmentations,
            pushes=self.pushes + other.pushes,
            relabels=self.relabels + other.relabels,
            potential_updates=self.potential_updates + other.potential_updates,
            negative_cycles_canceled=(
                self.negative_cycles_canceled + other.negative_cycles_canceled
            ),
            arcs_scanned=self.arcs_scanned + other.arcs_scanned,
            epsilon_phases=self.epsilon_phases + other.epsilon_phases,
            warm_start=self.warm_start or other.warm_start,
            arcs_patched=self.arcs_patched + other.arcs_patched,
            nodes_touched=self.nodes_touched + other.nodes_touched,
            price_refine_seconds=self.price_refine_seconds
            + other.price_refine_seconds,
            price_refine_passes=self.price_refine_passes
            + other.price_refine_passes,
            relaxation_tree_nodes=self.relaxation_tree_nodes
            + other.relaxation_tree_nodes,
            dual_ascents=self.dual_ascents + other.dual_ascents,
            snapshot_ships=self.snapshot_ships + other.snapshot_ships,
            delta_ships=self.delta_ships + other.delta_ships,
            graph_update_seconds=self.graph_update_seconds
            + other.graph_update_seconds,
            deadline_hits=self.deadline_hits + other.deadline_hits,
            degraded_round=max(self.degraded_round, other.degraded_round),
            worker_respawns=self.worker_respawns + other.worker_respawns,
            breaker_open=max(self.breaker_open, other.breaker_open),
            cells_solved=self.cells_solved + other.cells_solved,
            # The slower side's cell keeps the straggler attribution.
            straggler_cell=(
                self.straggler_cell
                if self.straggler_seconds >= other.straggler_seconds
                else other.straggler_cell
            ),
            straggler_seconds=max(self.straggler_seconds, other.straggler_seconds),
            cross_cell_migrations=(
                self.cross_cell_migrations + other.cross_cell_migrations
            ),
        )


@dataclass
class SolverResult:
    """Outcome of a solver run.

    Attributes:
        algorithm: Name of the algorithm that produced the solution.
        total_cost: Cost of the computed min-cost flow.
        flows: Sparse ``{(src, dst): flow}`` mapping of non-zero arc flows.
        potentials: Node potentials (dual variables) keyed by node id.
        runtime_seconds: Wall-clock algorithm runtime.
        statistics: Low-level operation counters.
        optimal: Whether the solution is optimal (False only when a solver
            was deliberately terminated early, Section 5.1).
    """

    algorithm: str
    total_cost: int
    flows: Dict[Tuple[int, int], int]
    potentials: Dict[int, int]
    runtime_seconds: float
    statistics: SolverStatistics = field(default_factory=SolverStatistics)
    optimal: bool = True

    @property
    def total_flow_out_of_sources(self) -> int:
        """Return total flow leaving source nodes (for sanity checks)."""
        return sum(self.flows.values())


class Solver(abc.ABC):
    """Abstract base class for min-cost max-flow solvers."""

    #: Human-readable algorithm name; overridden by subclasses.
    name: str = "abstract"

    @abc.abstractmethod
    def solve(self, network: FlowNetwork) -> SolverResult:
        """Compute a min-cost max-flow and assign it to ``network``'s arcs."""

    def _timed(self, start_time: float) -> float:
        """Return elapsed wall-clock seconds since ``start_time``."""
        return time.perf_counter() - start_time


class SolverError(RuntimeError):
    """Raised when a solver cannot produce a feasible solution."""


class InfeasibleProblemError(SolverError):
    """Raised when the network admits no feasible flow routing all supply."""


class RoundDeadlineExceeded(SolverError):
    """Raised when a round's latency budget expired with no usable result.

    Soft deadline expiry degrades gracefully (cost scaling stops its
    epsilon ladder at the current coarser epsilon, relaxation caps its
    ascents); this error is the last resort — the hard deadline passed and
    *no* solver produced a feasible flow, so the scheduler must reuse the
    previous round's placements and record a degraded round rather than
    stall (ROADMAP item 5's latency-budget half, fig10's approximation
    claim applied to latency).
    """


#: Floor for the deadline watchdog period: the granularity at which
#: cooperative checks are expected to observe an expired budget.
DEFAULT_WATCHDOG_PERIOD = 0.05


class RoundDeadline:
    """Wall-clock budget for one scheduling round, with a grace watchdog.

    ``expired()`` is the *soft* deadline: cooperative ``deadline_check``
    hooks poll it to stop doing optional work (finish the current epsilon
    phase, skip the polish).  ``hard_expired()`` adds one watchdog period
    of grace and is wired into the existing ``abort_check`` machinery to
    cancel a solver outright — so no round overruns its budget by more
    than the watchdog period plus one cooperative-check interval.

    Args:
        budget_seconds: The round's latency budget (> 0).
        watchdog_period: Grace period between the soft and hard deadlines;
            defaults to ``max(DEFAULT_WATCHDOG_PERIOD, 0.25 * budget)``.
        clock: Monotonic clock, injectable for tests.
    """

    def __init__(
        self,
        budget_seconds: float,
        watchdog_period: Optional[float] = None,
        clock=time.monotonic,
    ) -> None:
        if budget_seconds <= 0:
            raise ValueError("budget_seconds must be > 0")
        self.budget_seconds = float(budget_seconds)
        if watchdog_period is None:
            watchdog_period = max(DEFAULT_WATCHDOG_PERIOD, 0.25 * self.budget_seconds)
        if watchdog_period < 0:
            raise ValueError("watchdog_period must be >= 0")
        self.watchdog_period = float(watchdog_period)
        self._clock = clock
        self.started_at = clock()

    def elapsed(self) -> float:
        return self._clock() - self.started_at

    def remaining(self) -> float:
        """Seconds left until the soft deadline (negative once expired)."""
        return self.budget_seconds - self.elapsed()

    def expired(self) -> bool:
        return self.elapsed() >= self.budget_seconds

    def hard_expired(self) -> bool:
        return self.elapsed() >= self.budget_seconds + self.watchdog_period

    def __call__(self) -> bool:
        """Alias for :meth:`expired`, so a deadline is a ``deadline_check``."""
        return self.expired()


class SolveAborted(Exception):
    """Raised when a cooperative abort check cancelled a solver run.

    The speculative parallel executor (Section 6.1 deployed for real,
    :mod:`repro.solvers.parallel_executor`) installs an abort check on the
    parent-side cost scaling run; when the relaxation worker subprocess
    delivers its solution first, the check fires and the losing run is
    cancelled mid-flight instead of finishing pointless work.  A solver
    whose run was aborted makes no guarantee about its internal state;
    stateful wrappers must discard or re-seed their warm state.
    """


#: Table 1 of the paper: worst-case time complexities.  ``N`` is the number of
#: nodes, ``M`` the number of arcs, ``C`` the largest arc cost and ``U`` the
#: largest arc capacity.  In scheduling graphs ``M > N > C > U``.
COMPLEXITY_TABLE: Dict[str, str] = {
    "relaxation": "O(M^3 * C * U^2)",
    "cycle_canceling": "O(N * M^2 * C * U)",
    "cost_scaling": "O(N^2 * M * log(N * C))",
    "successive_shortest_path": "O(N^2 * U * log(N))",
}

#: Table 2 of the paper: invariants each algorithm maintains before every
#: internal iteration.  Cost scaling requires both feasibility and
#: epsilon-optimality, which is what makes it hard to incrementalize.
PRECONDITION_TABLE: Dict[str, Dict[str, bool]] = {
    "relaxation": {
        "feasibility": False,
        "reduced_cost_optimality": True,
        "epsilon_optimality": False,
    },
    "cycle_canceling": {
        "feasibility": True,
        "reduced_cost_optimality": False,
        "epsilon_optimality": False,
    },
    "cost_scaling": {
        "feasibility": True,
        "reduced_cost_optimality": False,
        "epsilon_optimality": True,
    },
    "successive_shortest_path": {
        "feasibility": False,
        "reduced_cost_optimality": True,
        "epsilon_optimality": False,
    },
}


def expected_total_supply(network: FlowNetwork) -> int:
    """Return the total positive supply that a feasible solution must route."""
    return sum(node.supply for node in network.nodes() if node.supply > 0)
