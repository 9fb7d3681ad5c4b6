"""Unit tests for the subprocess-racing speculative dual executor."""

from __future__ import annotations

import time

import pytest

from repro.chaos import ChaosPolicy
from repro.flow.changes import ChangeBatch
from repro.flow.validation import check_feasibility
from repro.solvers.base import SolveAborted
from repro.solvers.cost_scaling import CostScalingSolver
from repro.solvers.parallel_executor import ParallelDualExecutor
from repro.solvers.worker_health import BREAKER_OPEN, WorkerCircuitBreaker
from tests.conftest import build_scheduling_network, reference_min_cost


@pytest.fixture
def executor():
    """A real ParallelDualExecutor, shut down after the test."""
    instance = ParallelDualExecutor()
    yield instance
    instance.close()


def perturbed_rounds(seed: int, rounds: int):
    """Yield ``(network, changes, expected_cost)`` rounds of small edits."""
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


class TestParallelRace:
    def test_winner_is_optimal_and_applied_to_network(self, executor):
        network = build_scheduling_network(seed=41, num_tasks=10)
        expected = reference_min_cost(network)
        detailed = executor.solve_detailed(network)
        assert detailed.executor == "parallel"
        assert detailed.winner.total_cost == expected
        assert check_feasibility(network) == []
        assert executor.rounds == 1
        assert executor.relaxation_wins + executor.cost_scaling_wins == 1

    def test_multi_round_with_change_batches_stays_optimal(self, executor):
        solo_armed_rounds = 0
        for network, changes, expected in perturbed_rounds(seed=45, rounds=4):
            if changes is not None and executor.incremental.can_solve_delta(changes):
                solo_armed_rounds += 1
            result = executor.solve(network, changes=changes)
            assert result.total_cost == expected
            assert check_feasibility(network) == []
        assert executor.rounds == 5
        assert executor.fallback_rounds == 0
        assert executor.worker.snapshot_ships >= 1
        # Delta-armed rounds with small batches skip speculation entirely.
        assert executor.solo_delta_rounds == solo_armed_rounds

    def test_delta_wire_protocol_used_when_every_round_races(self):
        # Forcing every round to race (threshold 0) exercises the
        # incremental wire protocol: revision-chained rounds must cross the
        # process boundary as deltas, not full snapshots.
        instance = ParallelDualExecutor(delta_solo_threshold=0)
        try:
            for network, changes, expected in perturbed_rounds(seed=44, rounds=4):
                result = instance.solve(network, changes=changes)
                assert result.total_cost == expected
            assert instance.worker.snapshot_ships >= 1
            assert (
                instance.worker.delta_ships >= 1
                or instance.skipped_worker_rounds > 0
            )
        finally:
            instance.close()

    def test_wall_clock_is_measured_not_summed(self, executor):
        network = build_scheduling_network(seed=46, num_tasks=10)
        detailed = executor.solve_detailed(network)
        assert detailed.wall_clock_seconds > 0
        assert detailed.effective_runtime_seconds == detailed.wall_clock_seconds
        # The race returns when the first finisher is done, so the round can
        # never have cost the sum of two full solo runs plus slack.
        if detailed.relaxation is not None and detailed.cost_scaling is not None:
            total = (
                detailed.relaxation.runtime_seconds
                + detailed.cost_scaling.runtime_seconds
            )
            assert detailed.wall_clock_seconds < total + 1.0

    def test_close_terminates_worker_and_is_idempotent(self):
        instance = ParallelDualExecutor()
        network = build_scheduling_network(seed=47)
        instance.solve(network)
        process = instance.worker.process
        assert process is not None and process.is_alive()
        instance.close()
        assert not process.is_alive()
        instance.close()  # idempotent

    def test_worker_death_triggers_transparent_respawn(self):
        instance = ParallelDualExecutor()
        try:
            network = build_scheduling_network(seed=48, num_tasks=8)
            expected = reference_min_cost(network)
            assert instance.solve(network.copy()).total_cost == expected

            # Kill the worker; the next round must respawn transparently
            # (the breaker backs an isolated first failure off zero rounds).
            instance.worker.process.terminate()
            instance.worker.process.join(timeout=5.0)
            assert instance.solve(network.copy()).total_cost == expected
            assert instance.fallback_rounds == 0
            assert instance.worker.respawns == 1
            assert instance.breaker.is_closed

            # A second isolated death respawns again: the served round in
            # between reset the consecutive-failure count.  (The old
            # one-shot spawn budget fell back permanently here.)
            instance.worker.process.terminate()
            instance.worker.process.join(timeout=5.0)
            result = instance.solve_detailed(network.copy())
            assert result.executor == "parallel"
            assert result.winner.total_cost == expected
            assert instance.worker.respawns == 2
            assert instance.fallback_rounds == 0
            assert instance.breaker.is_closed
        finally:
            instance.close()


def drain_until_idle(instance, timeout=5.0):
    """Wait until the worker has answered every shipped round."""
    deadline = time.perf_counter() + timeout
    while instance.worker.busy and time.perf_counter() < deadline:
        time.sleep(0.01)
        instance.worker.drain()
    assert not instance.worker.busy


class TestRecoveryPaths:
    """Worker death mid-round, broken pipe during delta ship, and the
    breaker's fallback -> probe respawn -> recovery cycle."""

    def test_chaos_worker_kill_mid_round_recovers(self):
        chaos = ChaosPolicy(schedule={"worker_kill": [0]})
        instance = ParallelDualExecutor(chaos=chaos, delta_solo_threshold=0)
        try:
            for network, changes, expected in perturbed_rounds(seed=60, rounds=3):
                result = instance.solve(network, changes=changes)
                assert result.total_cost == expected
                assert check_feasibility(network) == []
            assert chaos.injected.get("worker_kill") == 1
            # One injected kill is an isolated failure: respawn, never
            # fallback, breaker stays closed.
            assert instance.worker.respawns >= 1
            assert instance.fallback_rounds == 0
            assert instance.breaker.is_closed
        finally:
            instance.close()

    def test_chaos_pipe_break_during_delta_ship_recovers(self):
        # Draining between rounds keeps the worker's revision chain intact,
        # so round 2's payload is an incremental delta -- and the injected
        # fault breaks the pipe out from under exactly that send.
        chaos = ChaosPolicy(schedule={"pipe_break": [2]})
        instance = ParallelDualExecutor(chaos=chaos, delta_solo_threshold=0)
        try:
            for index, (network, changes, expected) in enumerate(
                perturbed_rounds(seed=61, rounds=4)
            ):
                result = instance.solve(network, changes=changes)
                assert result.total_cost == expected
                drain_until_idle(instance)
            assert chaos.injected.get("pipe_break") == 1
            assert instance.worker.delta_ships >= 1
            # The respawned worker has no shadow; the post-break round
            # ships a full snapshot (cold start's plus the resync's).
            assert instance.worker.snapshot_ships >= 2
            assert instance.fallback_rounds == 0
            assert instance.breaker.is_closed
        finally:
            instance.close()

    def test_breaker_trips_to_fallback_then_probe_recovers(self, monkeypatch):
        import multiprocessing

        real_get_context = multiprocessing.get_context
        broken = {"on": True}

        def flaky_get_context(*args, **kwargs):
            if broken["on"]:
                raise OSError("spawn refused")
            return real_get_context(*args, **kwargs)

        monkeypatch.setattr(multiprocessing, "get_context", flaky_get_context)
        breaker = WorkerCircuitBreaker(failure_threshold=1, probe_interval_rounds=2)
        instance = ParallelDualExecutor(breaker=breaker)
        try:
            network = build_scheduling_network(seed=62, num_tasks=8)
            expected = reference_min_cost(network)

            # Round 1: the spawn fails, the breaker (threshold 1) trips
            # open, and the round is served by the sequential fallback.
            result = instance.solve_detailed(network.copy())
            assert result.executor == "sequential_fallback"
            assert result.winner.total_cost == expected
            assert breaker.state == BREAKER_OPEN
            assert result.winner.statistics.breaker_open == 1
            assert instance.charges_wall_clock is False

            # Round 2: still open, not yet the probe window -- fallback
            # again, with no spawn attempt burned.
            result = instance.solve_detailed(network.copy())
            assert result.executor == "sequential_fallback"
            assert breaker.probes == 0

            # Round 3: probe window.  The environment recovered, the probe
            # respawn succeeds, and the served round re-closes the breaker.
            broken["on"] = False
            result = instance.solve_detailed(network.copy())
            assert result.executor == "parallel"
            assert result.winner.total_cost == expected
            assert breaker.is_closed
            assert breaker.trips == 1
            assert breaker.probes == 1
            assert breaker.reclosures == 1
            assert instance.fallback_rounds == 2
            assert instance.charges_wall_clock is True
        finally:
            instance.close()

    def test_close_with_already_dead_worker(self):
        instance = ParallelDualExecutor()
        instance.solve(build_scheduling_network(seed=63))
        instance.worker.process.terminate()
        instance.worker.process.join(timeout=5.0)
        instance.close()  # must not raise on the dead pipe
        instance.close()  # and stays idempotent

    def test_solve_after_close_raises_instead_of_hanging(self):
        instance = ParallelDualExecutor()
        network = build_scheduling_network(seed=64)
        instance.solve(network)
        instance.close()
        with pytest.raises(RuntimeError, match="closed"):
            instance.solve(network.copy())


class TestAdaptivePolicy:
    def test_auto_solo_relaxation_waits_on_worker(self):
        from repro.solvers.dual_executor import RaceCostModel

        model = RaceCostModel()
        model.relaxation_seconds = 0.0001
        model.cost_scaling_seconds = 10.0
        model.relaxation_observations = 5
        model.cost_scaling_observations = 5
        instance = ParallelDualExecutor(executor_policy="auto", cost_model=model)
        try:
            network = build_scheduling_network(seed=54, num_tasks=10)
            expected = reference_min_cost(network)
            batch = ChangeBatch(changes=[], base_revision=7, target_revision=8)
            detailed = instance.solve_detailed(network, changes=batch)
            assert detailed.winner.total_cost == expected
            assert detailed.winning_algorithm == "relaxation"
            assert detailed.cost_scaling is None
            assert instance.solo_relaxation_rounds == 1
            assert check_feasibility(network) == []
            # The idle parent contributed no speculation work.
            assert detailed.total_work_seconds == pytest.approx(
                detailed.relaxation.runtime_seconds
            )
        finally:
            instance.close()

    def test_auto_solo_cost_scaling_leaves_worker_idle(self):
        from repro.solvers.dual_executor import RaceCostModel

        model = RaceCostModel()
        model.relaxation_seconds = 10.0
        model.cost_scaling_seconds = 0.0001
        model.relaxation_observations = 5
        model.cost_scaling_observations = 5
        instance = ParallelDualExecutor(executor_policy="auto", cost_model=model)
        try:
            network = build_scheduling_network(seed=55, num_tasks=10)
            expected = reference_min_cost(network)
            batch = ChangeBatch(changes=[], base_revision=7, target_revision=8)
            detailed = instance.solve_detailed(network, changes=batch)
            assert detailed.winner.total_cost == expected
            assert detailed.relaxation is None
            assert instance.solo_cost_scaling_rounds == 1
            assert instance.worker.snapshot_ships + instance.worker.delta_ships == 0
        finally:
            instance.close()

    def test_equal_revision_hand_built_networks_both_ship_full(self):
        """Two unrelated networks sharing the default revision must not be
        bridged by an empty delta: without a revision-chained batch the
        worker's shadow lineage is unproven and the round ships full."""
        net_a = build_scheduling_network(seed=101, num_tasks=8)
        net_b = build_scheduling_network(seed=202, num_tasks=12)
        assert net_a.revision == net_b.revision
        instance = ParallelDualExecutor()
        try:
            assert instance.solve(net_a).total_cost == reference_min_cost(net_a)
            assert instance.solve(net_b).total_cost == reference_min_cost(net_b)
            # The second round may be skipped entirely when the worker's
            # first answer has not drained yet (the documented busy-worker
            # path); what must never happen is an incremental bridge
            # between the two unrelated graphs.
            assert instance.worker.delta_ships == 0
            assert instance.worker.snapshot_ships >= 1
            assert (
                instance.worker.snapshot_ships + instance.skipped_worker_rounds == 2
            )
        finally:
            instance.close()

    def test_fallback_rounds_keep_solo_counters_live(self, monkeypatch):
        import multiprocessing

        from repro.solvers.dual_executor import RaceCostModel

        monkeypatch.setattr(
            multiprocessing,
            "get_context",
            lambda *a, **k: (_ for _ in ()).throw(OSError("unavailable")),
        )
        model = RaceCostModel()
        model.relaxation_seconds = 0.0001
        model.cost_scaling_seconds = 1.0
        model.relaxation_observations = 5
        model.cost_scaling_observations = 5
        instance = ParallelDualExecutor(executor_policy="auto", cost_model=model)
        try:
            network = build_scheduling_network(seed=57, num_tasks=8)
            batch = ChangeBatch(changes=[], base_revision=7, target_revision=8)
            detailed = instance.solve_detailed(network, changes=batch)
            assert detailed.executor == "sequential_fallback"
            # The inner sequential executor served the round solo; the
            # outer executor's documented counters must reflect it.
            assert instance.solo_relaxation_rounds == 1
            assert instance.rounds == 1
        finally:
            instance.close()

    def test_race_policy_is_default_and_unchanged(self):
        instance = ParallelDualExecutor()
        try:
            assert instance.executor_policy == "race"
            network = build_scheduling_network(seed=56, num_tasks=8)
            instance.solve(network)
            assert instance.solo_relaxation_rounds == 0
            assert instance.solo_cost_scaling_rounds == 0
        finally:
            instance.close()


class TestSequentialFallback:
    def test_fallback_when_multiprocessing_unavailable(self, monkeypatch):
        import multiprocessing

        def broken_get_context(*args, **kwargs):
            raise OSError("no process support in this environment")

        monkeypatch.setattr(multiprocessing, "get_context", broken_get_context)
        instance = ParallelDualExecutor()
        try:
            network = build_scheduling_network(seed=49, num_tasks=8)
            expected = reference_min_cost(network)
            detailed = instance.solve_detailed(network)
            assert detailed.executor == "sequential_fallback"
            assert detailed.winner.total_cost == expected
            # Both component results exist on the sequential path.
            assert detailed.relaxation is not None
            assert detailed.cost_scaling is not None
        finally:
            instance.close()

    def test_fallback_reverts_to_modeled_runtime_charging(self, monkeypatch):
        import multiprocessing

        monkeypatch.setattr(
            multiprocessing,
            "get_context",
            lambda *a, **k: (_ for _ in ()).throw(OSError("unavailable")),
        )
        instance = ParallelDualExecutor()
        try:
            # While racing for real the scheduler must charge measured wall
            # clock; once sequential fallback kicks in the rounds run back
            # to back again and wall clock would double-charge the loser.
            assert instance.charges_wall_clock is True
            instance.solve(build_scheduling_network(seed=53))
            assert instance.charges_wall_clock is False
        finally:
            instance.close()

    def test_fallback_shares_component_solvers(self, monkeypatch):
        import multiprocessing

        monkeypatch.setattr(
            multiprocessing,
            "get_context",
            lambda *a, **k: (_ for _ in ()).throw(OSError("unavailable")),
        )
        instance = ParallelDualExecutor()
        try:
            instance.solve(build_scheduling_network(seed=50))
            assert instance._fallback is not None
            assert instance._fallback.incremental is instance.incremental
            assert instance._fallback.relaxation is instance.relaxation
        finally:
            instance.close()


class TestLoserCancellation:
    def test_abort_check_cancels_cost_scaling_run(self):
        solver = CostScalingSolver()
        solver.abort_check = lambda: True
        network = build_scheduling_network(seed=52, num_tasks=10)
        with pytest.raises(SolveAborted):
            solver.solve(network)
        # Clearing the hook restores normal operation.
        solver.abort_check = None
        result = solver.solve(network)
        assert result.total_cost == reference_min_cost(network)
