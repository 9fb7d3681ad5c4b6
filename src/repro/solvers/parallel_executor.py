"""True parallel speculative dual-algorithm execution (Section 6.1).

:class:`ParallelDualExecutor` is a drop-in
:class:`~repro.solvers.base.Solver` that races the paper's two algorithms
for real instead of modeling the race:

* **Relaxation** runs in a persistent worker subprocess behind the shared
  solver-worker transport (:class:`~repro.solvers.worker.SolverWorker`):
  one request per round, usually an O(|changes|) delta or resync payload,
  with full DIMACS snapshots only on cold starts, respawns and worker
  errors.
* **Incremental cost scaling** runs in the parent process, patching its
  persistent residual network from the round's
  :class:`~repro.flow.changes.ChangeBatch` exactly as in the sequential
  executor.

First finisher wins:

* If the parent's cost scaling run completes while the worker is still
  solving, cost scaling wins and the worker's round is **abandoned** -- the
  parent returns immediately and the transport discards the stale answer
  whenever it eventually drains from the pipe.
* While cost scaling runs, it polls the worker through the cooperative
  :attr:`~repro.solvers.cost_scaling.CostScalingSolver.abort_check` hook;
  when the worker's solution arrives first, the parent-side run is
  **cancelled** mid-flight (:class:`~repro.solvers.base.SolveAborted`) and
  relaxation wins.  The winning relaxation solution then seeds the
  incremental solver's warm state, as in the sequential executor.

Speculation is adaptive: when the incremental solver holds a
revision-chained persistent residual and the round's change batch is small
(:data:`DELTA_SOLO_THRESHOLD`), the parent solves solo -- a bounded
O(|changes|) repair cannot lose to a from-scratch relaxation run, so racing
would only waste a core (and on oversubscribed hosts would actively slow
the guaranteed winner).  Under ``executor_policy="auto"`` the shared
:class:`~repro.solvers.dual_executor.RaceCostModel` additionally skips the
predictable loser on the remaining rounds (solo relaxation ships the round
to the worker and waits; solo cost scaling leaves the worker idle and the
transport's revision history covers the gap).  The full race runs on
exactly the rounds where Section 6.1's insurance matters: cold starts,
post-seed rebuilds, oversized batches, and whenever the cost model is
unsure.

When the worker is unavailable (spawn failure, a tripped circuit breaker,
platforms without multiprocessing) the round is served by the sequential
:class:`~repro.solvers.dual_executor.DualAlgorithmExecutor`, sharing the
same component solver instances so warm state carries over.
"""

from __future__ import annotations

import os
import time
from typing import Optional

from repro.flow.changes import ChangeBatch
from repro.flow.graph import FlowNetwork
from repro.solvers.base import (
    RoundDeadline,
    RoundDeadlineExceeded,
    SolveAborted,
    SolverResult,
    SolverStatistics,
)
from repro.solvers.dual_executor import (
    DualAlgorithmExecutor,
    DualExecutionResult,
    RaceCostModel,
    SpeculativeDualExecutor,
)
from repro.solvers.incremental import IncrementalCostScalingSolver
from repro.solvers.relaxation import RelaxationSolver
from repro.solvers.worker import SolverWorker, result_from_payload
from repro.solvers.worker_health import WorkerCircuitBreaker

#: Change-batch size up to which a *delta-armed* round skips speculation.
#: When the incremental solver holds a revision-chained persistent residual,
#: its round costs O(|changes| + repair) -- for batches this small that is
#: far below any from-scratch relaxation run, so racing the worker cannot
#: change the winner; it only burns a second core (or, on shared cores,
#: steals scheduling quanta from the guaranteed winner).  Rebuild rounds --
#: first round, post-seed rounds, oversized batches -- always race, which
#: is where Section 6.1's tail-latency insurance actually pays.
DELTA_SOLO_THRESHOLD = 1024

#: How long the parent waits for the worker after the parent-side solver
#: *failed* (e.g. infeasibility) before re-raising the parent's error.
LOSER_GRACE_SECONDS = 30.0


class ParallelDualExecutor(SpeculativeDualExecutor):
    """Race relaxation (worker subprocess) against incremental cost scaling
    (parent process); the first finisher's solution is installed."""

    name = "firmament_dual_parallel"

    @property
    def charges_wall_clock(self) -> bool:
        """Tell the scheduler to charge real measured wall clock per round.

        True while racing for real: the race is physical, so the modeled
        ``min()`` of the sequential executor would under-report.  On a
        round served by the sequential fallback the legs run back to back
        again, and charging wall clock would double-charge the loser --
        such rounds revert to the winner's modeled runtime.  The flag is
        per-round because the circuit breaker makes fallback temporary:
        a probe round that re-closes the breaker resumes real racing.
        """
        return not self._last_round_fallback

    def __init__(
        self,
        relaxation: Optional[RelaxationSolver] = None,
        incremental: Optional[IncrementalCostScalingSolver] = None,
        delta_solo_threshold: int = DELTA_SOLO_THRESHOLD,
        price_refine: str = "auto",
        executor_policy: str = "race",
        cost_model: Optional[RaceCostModel] = None,
        breaker: Optional[WorkerCircuitBreaker] = None,
        round_deadline_seconds: Optional[float] = None,
        relaxation_ascent_cap: Optional[int] = None,
        chaos=None,
    ) -> None:
        """Create the executor.

        Args:
            relaxation: Relaxation configuration template; its settings (not
                the instance) are shipped to the worker subprocess.  The
                instance itself only solves when the executor has fallen
                back to sequential mode.
            incremental: Incremental cost scaling instance run in the parent.
            delta_solo_threshold: Skip speculation on delta-armed rounds
                whose change batch is at most this large (0 races every
                round); see :data:`DELTA_SOLO_THRESHOLD`.
            price_refine: Price-refine variant for the default parent-side
                incremental instance; ignored when ``incremental`` is
                passed explicitly.  Faster price refine shifts the
                solo-vs-race crossover: warm rebuilds the parent used to
                lose (racing pays) become rounds it wins solo.
            executor_policy: ``"race"`` (default) races every non-solo-delta
                round; ``"auto"`` lets the cost model skip the predictable
                loser (see :class:`~repro.solvers.dual_executor.
                RaceCostModel`).
            cost_model: Model instance driving ``"auto"``.
            breaker: Worker health state machine; defaults to a
                :class:`~repro.solvers.worker_health.WorkerCircuitBreaker`
                (two consecutive process failures trip it).
            round_deadline_seconds: Per-round wall-clock budget.  When set,
                the parent-side cost scaling leg truncates its epsilon
                ladder at the budget (still feasible and epsilon-optimal
                at the coarser epsilon) and both legs are hard-aborted one
                watchdog period later; a round where *no* leg produced a
                feasible flow raises :class:`RoundDeadlineExceeded` so the
                scheduler can degrade to the previous placements.
            relaxation_ascent_cap: Cap on dual ascents per relaxation run
                (shipped to the worker); the leg aborts past the cap.
            chaos: Optional :class:`repro.chaos.ChaosPolicy` injecting
                deterministic faults into the round pipeline (tests only;
                None keeps every hook a no-op).
        """
        super().__init__(
            relaxation=relaxation, incremental=incremental,
            price_refine=price_refine, executor_policy=executor_policy,
            cost_model=cost_model,
            round_deadline_seconds=round_deadline_seconds,
            relaxation_ascent_cap=relaxation_ascent_cap,
            chaos=chaos,
        )
        self.delta_solo_threshold = delta_solo_threshold
        #: The relaxation worker subprocess and its transport counters.
        self.worker = SolverWorker(
            "relaxation",
            {
                "arc_prioritization": self.relaxation.arc_prioritization,
                "priority_probe_limit": self.relaxation.priority_probe_limit,
            },
            {"ascent_cap": self.relaxation.ascent_cap},
            breaker=breaker,
        )
        self._round_id = 0
        self._fallback: Optional[DualAlgorithmExecutor] = None
        self._closed = False
        self._last_round_fallback = False
        self._respawns_at_round_start = 0
        #: Rounds served by the sequential fallback (observability).
        self.fallback_rounds: int = 0
        #: Rounds where the worker was skipped because it lagged too far.
        self.skipped_worker_rounds: int = 0
        #: Delta-armed rounds solved solo (speculation skipped as futile).
        self.solo_delta_rounds: int = 0

    @property
    def breaker(self) -> WorkerCircuitBreaker:
        """The worker's circuit breaker."""
        return self.worker.breaker

    def reset_counters(self) -> None:
        """Zero race and transport counters; worker and warm state persist."""
        super().reset_counters()
        self.fallback_rounds = 0
        self.skipped_worker_rounds = 0
        self.solo_delta_rounds = 0
        self.worker.reset_counters()

    def close(self) -> None:
        """Shut the worker down gracefully; idempotent and terminal.

        Safe to call twice and safe when the worker already died.  After
        close the executor refuses further rounds instead of hanging on a
        dead pipe -- see :meth:`solve_detailed`.
        """
        self._closed = True
        self.worker.close()

    # ------------------------------------------------------------------ #
    # The race
    # ------------------------------------------------------------------ #
    def solve_detailed(
        self, network: FlowNetwork, changes: Optional[ChangeBatch] = None
    ) -> DualExecutionResult:
        """Race the two algorithms; return the first finisher's result.

        The winning flow is the one left assigned on the network's arcs.
        """
        if self._closed:
            raise RuntimeError(
                "ParallelDualExecutor is closed; create a new executor "
                "(a solve after close would hang on the dead worker pipe)"
            )
        chaos, chaos_round = self._begin_chaos_round()
        worker = self.worker
        # Every revision-chained batch is remembered -- including the rounds
        # solved solo below, which is exactly when the worker's chain would
        # otherwise break and force a full snapshot.
        worker.begin_round(changes)
        self._respawns_at_round_start = worker.respawns
        if not worker.ensure():
            return self._solve_fallback(network, changes)

        started = time.perf_counter()
        deadline: Optional[RoundDeadline] = None
        if self.round_deadline_seconds is not None:
            deadline = RoundDeadline(self.round_deadline_seconds)
        strategy = "race"
        if (
            changes is not None
            and len(changes) <= self.delta_solo_threshold
            and self.incremental.can_solve_delta(changes)
        ):
            # Delta-armed round with a bounded batch: cost scaling's repair
            # is O(|changes|) and cannot lose to a from-scratch relaxation
            # run, so speculation would only burn CPU.  Solve solo.
            self.solo_delta_rounds += 1
            strategy = "cost_scaling"
        else:
            strategy = self._choose_strategy(changes)
            if strategy == "cost_scaling":
                self.solo_cost_scaling_rounds += 1

        ship_kind: Optional[str] = None
        if strategy != "cost_scaling":
            if worker.busy:
                # The worker is still chewing on an older (abandoned) round;
                # do not pile on (the transport's answered-up guard).  Cost
                # scaling runs this round unopposed; the revision history
                # lets the *next* shipped round resync the worker.
                self.skipped_worker_rounds += 1
            else:
                self._round_id += 1
                ship_kind = worker.ship(
                    self._round_id, network, changes, chaos, chaos_round
                )
                # Yield the timeslice so the worker starts on the request
                # immediately.  On a multi-core box this costs nothing; on
                # a shared core it stops the parent from sitting on the CPU
                # for a full scheduling quantum before the race even starts.
                if ship_kind is not None and hasattr(os, "sched_yield"):
                    os.sched_yield()
        round_id = self._round_id

        def finish_relaxation(payload, **kwargs) -> DualExecutionResult:
            worker.settle()
            return self._finish_round(
                network, started, None, result_from_payload(payload),
                winner_is_relaxation=True, ship_kind=ship_kind, **kwargs,
            )

        if ship_kind is not None and strategy == "relaxation":
            # The cost model picked solo relaxation: wait for the worker
            # instead of burning the parent core on the predicted loser.
            # The wait is bounded by the *cost-scaling* estimate (with
            # slack), not the failure-grace bound: if the worker has not
            # answered within a few multiples of what the skipped leg
            # would have taken, the prediction was wrong (e.g. a
            # contention spike) and the parent-side solver takes over.
            self.solo_relaxation_rounds += 1
            scaling_estimate = self.cost_model.cost_scaling_seconds
            timeout = LOSER_GRACE_SECONDS
            if scaling_estimate is not None:
                timeout = min(timeout, max(0.05, 4.0 * scaling_estimate))
            if deadline is not None:
                timeout = min(
                    timeout,
                    max(0.01, deadline.remaining() + deadline.watchdog_period),
                )
            payload = worker.gather(round_id, timeout)
            if payload is not None:
                return finish_relaxation(payload, parent_ran=False)
            # The worker failed or timed out; degrade to the parent-side
            # solver (the race below, with the worker round still pending,
            # simply runs cost scaling unopposed).  A broken pipe is
            # recorded once, by the end-of-round settle.

        cost_scaling_result: Optional[SolverResult] = None
        parent_error: Optional[BaseException] = None
        abort_check = None
        if ship_kind is not None:
            if deadline is not None:
                hard_expired = deadline.hard_expired
                abort_check = lambda: worker.poll(round_id) or hard_expired()  # noqa: E731
            else:
                abort_check = lambda: worker.poll(round_id)  # noqa: E731
        elif deadline is not None:
            abort_check = deadline.hard_expired
        if abort_check is not None:
            self.incremental.abort_check = abort_check
        if deadline is not None:
            self.incremental.deadline_check = deadline
        try:
            cost_scaling_result = self.incremental.solve(network, changes=changes)
        except SolveAborted:
            pass
        except Exception as error:
            parent_error = error
        finally:
            self.incremental.abort_check = None
            self.incremental.deadline_check = None
        parent_finished_at = time.monotonic()

        if ship_kind is None:
            if parent_error is not None:
                raise parent_error
            if cost_scaling_result is None:
                # The deadline hard-aborted the only leg before it produced
                # a feasible flow (no worker to fall back on either).
                self.deadline_exceeded_rounds += 1
                raise RoundDeadlineExceeded(
                    "no solver produced a feasible flow within the round "
                    f"budget ({self.round_deadline_seconds:.3f}s)"
                )
            return self._finish_round(
                network, started, cost_scaling_result, None,
                winner_is_relaxation=False,
            )

        if cost_scaling_result is not None:
            # Parent finished un-aborted; one last drain settles the photo
            # finish (the worker may have crossed the line between the last
            # abort check and now).
            payload = worker.gather(round_id, 0.0)
            worker.settle()
            return self._finish_round(
                network,
                started,
                cost_scaling_result,
                None if payload is None else result_from_payload(payload),
                winner_is_relaxation=(
                    payload is not None
                    and payload["finished_at"] <= parent_finished_at
                ),
                ship_kind=ship_kind,
            )

        if parent_error is None:
            # Cost scaling was cancelled -- by the worker's finish, or (with
            # a budget set) by the hard deadline.  One drain disambiguates.
            payload = worker.gather(round_id, 0.0)
            if payload is not None:
                return finish_relaxation(payload)
            if deadline is not None:
                # Deadline abort with the worker still in flight: grant one
                # watchdog period of grace (the worker may be mid-send), then
                # give up on the round entirely.
                payload = worker.gather(round_id, deadline.watchdog_period)
                if payload is not None:
                    return finish_relaxation(payload, deadline_hit=True)
                worker.settle()
                self.deadline_exceeded_rounds += 1
                raise RoundDeadlineExceeded(
                    "no solver produced a feasible flow within the round "
                    f"budget ({self.round_deadline_seconds:.3f}s)"
                )
            worker.settle()
            raise RuntimeError(
                "cost scaling aborted without a worker result or deadline"
            )  # pragma: no cover - abort sources are exactly those two

        # The parent-side solver failed (e.g. infeasibility).  Give the
        # worker a bounded grace period to disagree; if it cannot produce a
        # solution either, surface the parent's error.
        payload = worker.gather(round_id, LOSER_GRACE_SECONDS)
        if payload is not None:
            return finish_relaxation(payload)
        worker.settle()
        raise parent_error

    # ------------------------------------------------------------------ #
    # Round assembly
    # ------------------------------------------------------------------ #
    def _solve_fallback(
        self, network: FlowNetwork, changes: Optional[ChangeBatch]
    ) -> DualExecutionResult:
        if self._fallback is None:
            self._fallback = DualAlgorithmExecutor(
                relaxation=self.relaxation, incremental=self.incremental,
                executor_policy=self.executor_policy, cost_model=self.cost_model,
                round_deadline_seconds=self.round_deadline_seconds,
            )
        result = self._fallback.solve_detailed(network, changes)
        result.executor = "sequential_fallback"
        self.fallback_rounds += 1
        self._last_round_fallback = True
        self._stamp_health_stats(result.winner.statistics)
        # Tally only: the inner sequential executor's _record_round already
        # folded the loser's stats and fed the (shared) cost model.
        self._tally_round(result)
        return result

    def _stamp_health_stats(self, stats: SolverStatistics) -> None:
        """Surface this round's breaker/respawn state on the winner's stats."""
        stats.breaker_open = 0 if self.breaker.is_closed else 1
        stats.worker_respawns += (
            self.worker.respawns - self._respawns_at_round_start
        )

    def _finish_round(
        self,
        network: FlowNetwork,
        started: float,
        cost_scaling_result: Optional[SolverResult],
        relaxation_result: Optional[SolverResult],
        winner_is_relaxation: bool,
        ship_kind: Optional[str] = None,
        parent_ran: bool = True,
        deadline_hit: bool = False,
    ) -> DualExecutionResult:
        wall_clock = time.perf_counter() - started
        if winner_is_relaxation:
            winner = relaxation_result
            self._install_relaxation_win(network, relaxation_result)
        else:
            winner = cost_scaling_result
        # A cancelled parent run consumed roughly the whole round's wall
        # clock before it stopped (a solo-relaxation round's idle parent
        # consumed nothing); an abandoned worker round is accounted only
        # when its runtime is known (the stale result may never drain).
        work = 0.0
        if cost_scaling_result is not None:
            work += cost_scaling_result.runtime_seconds
        elif parent_ran:
            work += wall_clock
        if relaxation_result is not None:
            work += relaxation_result.runtime_seconds
        if ship_kind == "full":
            winner.statistics.snapshot_ships = 1
        elif ship_kind == "delta":
            winner.statistics.delta_ships = 1
        if deadline_hit:
            winner.statistics.deadline_hits += 1
        if not winner.optimal:
            # A deadline-truncated epsilon ladder degraded this round.
            winner.statistics.degraded_round = 1
        self._stamp_health_stats(winner.statistics)
        self._last_round_fallback = False
        result = DualExecutionResult(
            winner=winner,
            relaxation=relaxation_result,
            cost_scaling=cost_scaling_result,
            effective_runtime_seconds=wall_clock,
            total_work_seconds=work,
            wall_clock_seconds=wall_clock,
            executor="parallel",
            # A round raced only when the worker was consulted *and* the
            # parent leg ran; solo rounds must not feed the cost model
            # censored loser samples (the skipped leg never started).
            raced=ship_kind is not None and parent_ran,
        )
        return self._record_round(result)
