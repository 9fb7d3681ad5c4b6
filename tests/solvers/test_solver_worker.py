"""The shared solver-worker transport (``repro.solvers.worker``).

One subprocess entry point and one parent-side :class:`SolverWorker` serve
both the racing executor's relaxation worker and the sharded cells'
incremental cost scaling workers, so every transport behaviour is checked
for both solver kinds:

* full snapshot -> direct delta -> composed resync of missed rounds;
* answers to abandoned rounds are discarded;
* the answered-up guard refuses a ship while a round is outstanding;
* a worker ``error`` reply forces the next payload to be a full snapshot;
* the flat payload carries every :class:`SolverStatistics` field, so
  worker-mode statistics match in-process ones;
* a sharded cell's circuit breaker trips after consecutive worker kills,
  serves the cell inline without spawn attempts, and re-closes on a probe.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import fields

import pytest

from repro.chaos import ChaosPolicy
from repro.core import ShardedScheduler
from repro.core.policies import QuincyPolicy
from repro.flow.changes import ChangeBatch
from repro.flow.dimacs import read_dimacs
from repro.flow.validation import check_feasibility
from repro.solvers import make_solver
from repro.solvers.base import SolverStatistics
from repro.solvers.dual_executor import RaceCostModel
from repro.solvers.parallel_executor import ParallelDualExecutor
from repro.solvers.relaxation import RelaxationSolver
from repro.solvers.worker import SolverWorker, result_from_payload, result_payload
from repro.solvers.worker_health import (
    BREAKER_CLOSED,
    BREAKER_OPEN,
    WorkerCircuitBreaker,
)
from tests.conftest import (
    build_scheduling_network,
    make_cluster_state,
    make_job,
    reference_min_cost,
)

SOLVER_KINDS = ["relaxation", "incremental_cost_scaling"]


def chained_rounds(seed: int, rounds: int):
    """Yield ``(network, changes, expected_cost)`` revision-chained rounds."""
    previous = build_scheduling_network(seed=seed, num_tasks=10)
    yield previous, None, reference_min_cost(previous)
    for index in range(rounds):
        network = previous.copy()
        arc = next(a for a in network.arcs() if a.cost > 0)
        network.set_arc_cost(arc.src, arc.dst, arc.cost + index + 1)
        network.revision = previous.revision + 1
        changes = ChangeBatch.diff(previous, network)
        changes.base_revision = previous.revision
        changes.target_revision = network.revision
        yield network, changes, reference_min_cost(network)
        previous = network


@pytest.fixture(params=SOLVER_KINDS)
def worker(request):
    instance = SolverWorker(request.param)
    yield instance
    instance.close()


def solve_round(worker, round_id, network, changes, **ship_kwargs):
    """Ship one round and wait for it; return ``(kind, payload)``."""
    worker.begin_round(changes)
    kind = worker.ship(round_id, network, changes, **ship_kwargs)
    payload = worker.gather(round_id, 30.0) if kind is not None else None
    if kind is not None:
        worker.settle()
    return kind, payload


class TestTransport:
    def test_full_then_delta_then_composed_resync(self, worker):
        rounds = list(chained_rounds(seed=70, rounds=4))
        kinds = []
        for round_id, (network, changes, expected) in enumerate(rounds, 1):
            if round_id == 3:
                # The round is solved elsewhere: the worker's chain breaks.
                worker.begin_round(changes)
                continue
            kind, payload = solve_round(worker, round_id, network, changes)
            kinds.append(kind)
            assert payload["total_cost"] == expected
            assert payload["algorithm"] == worker.solver_name
        assert kinds == ["full", "delta", "delta", "delta"]
        assert worker.snapshot_ships == 1
        assert worker.delta_ships == 3
        # Round 4's payload composed round 3's missed batch with its own.
        assert worker.resync_ships == 1
        assert worker.breaker.state == BREAKER_CLOSED

    def test_error_reply_forces_full_resnapshot(self, worker):
        rounds = list(chained_rounds(seed=71, rounds=2))
        network, changes, expected = rounds[0]
        assert solve_round(worker, 1, network, changes)[1]["total_cost"] == expected
        # Corrupt round 2's delta: the worker's parser rejects it, answers
        # with an error and drops its shadow network.
        network, changes, _ = rounds[1]
        chaos = ChaosPolicy(schedule={"corrupt_message": [1]})
        kind, payload = solve_round(
            worker, 2, network, changes, chaos=chaos, chaos_round=1
        )
        assert kind == "delta" and payload is None
        assert chaos.injected == {"corrupt_message": 1}
        network, changes, expected = rounds[2]
        kind, payload = solve_round(worker, 3, network, changes)
        assert kind == "full"
        assert payload["total_cost"] == expected
        # An error reply is not a process failure.
        assert worker.respawns == 0
        assert worker.breaker.failures == 0

    def test_payload_round_trips_every_statistic(self):
        network = build_scheduling_network(seed=72, num_tasks=8)
        result = RelaxationSolver().solve(network)
        rebuilt = result_from_payload(result_payload(result))
        assert rebuilt.statistics == result.statistics
        assert rebuilt.total_cost == result.total_cost
        assert rebuilt.flows == result.flows
        assert rebuilt.algorithm == result.algorithm


class _InstantWorkerConn:
    """Pipe stand-in whose 'worker' answers each request synchronously.

    ``held=True`` keeps the answers back until :meth:`release`, standing in
    for a worker still busy with the round.  Answers are stamped
    ``finished_at=-inf`` so an answered relaxation leg deterministically
    wins a race against the parent.
    """

    def __init__(self, solver_name: str = "relaxation", held: bool = False):
        self.solver_name = solver_name
        self.held = held
        self.responses = deque()
        self.pending = deque()
        self.requests = 0

    def send(self, message):
        kind, round_id, text = message[0], message[1], message[2]
        assert kind == "full"  # no revision chain exists in these tests
        self.requests += 1
        result = make_solver(self.solver_name).solve(read_dimacs(text))
        payload = result_payload(result)
        payload["finished_at"] = float("-inf")
        (self.pending if self.held else self.responses).append(
            ("result", round_id, payload)
        )

    def release(self):
        self.responses.extend(self.pending)
        self.pending.clear()

    def poll(self, timeout=0):
        return bool(self.responses)

    def recv(self):
        return self.responses.popleft()

    def close(self):
        pass


def fake_worker(solver_name: str, conn: _InstantWorkerConn) -> SolverWorker:
    worker = SolverWorker(solver_name)
    worker._conn = conn  # process None: treated as alive
    return worker


@pytest.mark.parametrize("solver_name", SOLVER_KINDS)
class TestAnswerBookkeeping:
    def test_stale_answers_are_discarded(self, solver_name):
        conn = _InstantWorkerConn(solver_name)
        worker = fake_worker(solver_name, conn)
        # Queue a stale round-1 answer ahead of the current round-2 one.
        conn.responses.append(("result", 1, {"finished_at": 0.0}))
        payload = {"finished_at": 1.0}
        conn.responses.append(("result", 2, payload))
        worker._unanswered = {1, 2}
        assert worker.poll(2) is True
        assert worker.gather(2, 0.0) is payload
        assert not worker.busy

    def test_worker_error_is_no_answer(self, solver_name):
        conn = _InstantWorkerConn(solver_name)
        worker = fake_worker(solver_name, conn)
        worker._revision = 5
        conn.responses.append(("error", 7, "InfeasibleProblemError: nope"))
        worker._unanswered = {7}
        assert worker.poll(7) is False
        assert worker.gather(7, 5.0) is None  # returns at once, not at 5 s
        assert worker._revision is None  # next payload is a full snapshot

    def test_gather_times_out(self, solver_name):
        worker = fake_worker(solver_name, _InstantWorkerConn(solver_name))
        start = time.perf_counter()
        assert worker.gather(1, 0.05) is None
        assert time.perf_counter() - start < 2.0

    def test_answered_up_guard(self, solver_name):
        conn = _InstantWorkerConn(solver_name, held=True)
        worker = fake_worker(solver_name, conn)
        network = build_scheduling_network(seed=73, num_tasks=6)
        assert worker.ship(1, network, None) == "full"
        # Round 1 is unanswered: round 2 must not be queued behind it.
        assert worker.ship(2, network.copy(), None) is None
        assert conn.requests == 1
        conn.release()
        # The next ship drains the stale answer first, then goes out.
        assert worker.ship(3, network.copy(), None) == "full"
        assert conn.requests == 2
        conn.release()
        assert worker.gather(3, 0.0)["total_cost"] == reference_min_cost(network)


class TestExecutorOnFakeWorker:
    def test_relaxation_win_cancels_parent_and_seeds_warm_start(self):
        instance = ParallelDualExecutor()
        instance.worker._conn = _InstantWorkerConn()
        try:
            network = build_scheduling_network(seed=51, num_tasks=10)
            expected = reference_min_cost(network)
            detailed = instance.solve_detailed(network)
            assert detailed.winning_algorithm == "relaxation"
            assert detailed.winner.total_cost == expected
            assert check_feasibility(network) == []
            # The winning relaxation solution seeded the warm-start state.
            assert instance.incremental.has_state
            assert instance.relaxation_wins == 1
        finally:
            instance.worker._conn = None
            instance.close()


# --------------------------------------------------------------------- #
# Worker-mode statistics (every counter crosses the process boundary)
# --------------------------------------------------------------------- #
def assert_counters_survive(in_process: SolverStatistics, worker: SolverStatistics):
    """Nonzero in-process counters stay nonzero; ``warm_start`` matches.

    Exact counts may differ: the worker solves a DIMACS reparse, whose node
    order differs from the parent's network.
    """
    for field in fields(SolverStatistics):
        if field.name == "straggler_cell":
            continue  # an attribution (which cell ran longest), not a counter
        local = getattr(in_process, field.name)
        remote = getattr(worker, field.name)
        if field.name == "warm_start":
            assert remote == local, field.name
        elif local:
            assert remote, f"{field.name}: {local} in process, {remote} in worker"


def test_sharded_worker_statistics_match_inline():
    def run(workers):
        state = make_cluster_state(num_machines=8, machines_per_rack=2)
        state.submit_job(make_job(job_id=0, num_tasks=3))
        state.submit_job(make_job(job_id=1, num_tasks=3))
        scheduler = ShardedScheduler(QuincyPolicy, num_cells=2, workers=workers)
        statistics = []
        try:
            for round_index in range(4):
                if round_index == 2:
                    state.submit_job(make_job(job_id=2, num_tasks=2, submit_time=10.0))
                decision = scheduler.schedule_and_apply(state, now=round_index * 5.0)
                statistics.append(decision.solver_result.statistics)
            if workers:
                assert all(t["fallback_rounds"] == 0 for t in scheduler.cell_transport())
        finally:
            scheduler.close()
        return statistics

    for inline, worker in zip(run(False), run(True)):
        assert_counters_survive(inline, worker)


def test_relaxation_leg_statistics_match_in_process():
    network = build_scheduling_network(seed=74, num_tasks=10)
    in_process = RelaxationSolver().solve(network.copy())
    # A cost model sure that relaxation wins: the round is served by the
    # worker alone, so its leg result always arrives.
    model = RaceCostModel()
    model.relaxation_seconds = 0.0001
    model.cost_scaling_seconds = 10.0
    model.relaxation_observations = 5
    model.cost_scaling_observations = 5
    executor = ParallelDualExecutor(executor_policy="auto", cost_model=model)
    try:
        batch = ChangeBatch(changes=[], base_revision=7, target_revision=8)
        detailed = executor.solve_detailed(network, changes=batch)
        assert detailed.relaxation is not None
        assert detailed.relaxation.total_cost == in_process.total_cost
        assert_counters_survive(in_process.statistics, detailed.relaxation.statistics)
    finally:
        executor.close()


# --------------------------------------------------------------------- #
# A cell's circuit breaker
# --------------------------------------------------------------------- #
def test_cell_breaker_trips_serves_inline_then_recloses_on_probe():
    state = make_cluster_state(num_machines=4, machines_per_rack=2)
    state.submit_job(make_job(job_id=0, num_tasks=3, duration=None))
    # One cell, so every round's chaos targets its worker: rounds with
    # chaos index 1 and 2 kill it mid-round.  The worker sleeps before
    # serving those rounds, so the kill always lands before its answer.
    chaos = ChaosPolicy(
        schedule={"worker_kill": [1, 2], "worker_delay": [1, 2]},
        delay_seconds=0.5,
    )
    scheduler = ShardedScheduler(QuincyPolicy, num_cells=1, workers=True, chaos=chaos)
    try:
        scheduler.schedule_and_apply(state, now=0.0)
        worker = scheduler._workers[0]
        breaker = worker.breaker = WorkerCircuitBreaker(
            failure_threshold=2, probe_interval_rounds=2
        )

        def round_at(now):
            decision = scheduler.schedule_and_apply(state, now=now)
            assert not decision.unscheduled, "the cell's round must be served"
            return scheduler.cell_transport()[0]

        # Two consecutive kills (the first one respawned at once) trip it.
        round_at(1.0)
        assert breaker.consecutive_failures == 1 and breaker.is_closed
        round_at(2.0)
        assert breaker.state == BREAKER_OPEN and breaker.trips == 1
        assert chaos.injected["worker_kill"] == 2

        # Open: the cell is served inline with no spawn attempt.
        transport = round_at(3.0)
        assert worker.process is None
        assert transport["fallback_rounds"] == 3
        assert transport["respawns"] == 1
        assert breaker.probes == 0

        # The probe round respawns, the worker answers, the breaker closes.
        transport = round_at(4.0)
        assert breaker.probes == 1 and breaker.reclosures == 1
        assert breaker.is_closed
        assert transport["respawns"] == 2
        assert transport["fallback_rounds"] == 3
        assert worker.process is not None and worker.process.is_alive()
        assert all(task.is_running for task in state.tasks.values())
    finally:
        scheduler.close()
