"""Unit tests for the Firmament scheduler loop."""

import pytest

from repro.core import FirmamentScheduler, LoadSpreadingPolicy, QuincyPolicy
from repro.core.scheduler import SchedulingDecision
from repro.solvers import CostScalingSolver, DualAlgorithmExecutor, RelaxationSolver
from tests.conftest import make_cluster_state, make_job


class TestSchedulingDecisions:
    def test_places_all_tasks_when_capacity_allows(self, small_state):
        small_state.submit_job(make_job(job_id=1, num_tasks=6))
        scheduler = FirmamentScheduler(QuincyPolicy())
        decision = scheduler.schedule_and_apply(small_state, now=0.0)
        assert len(decision.placements) == 6
        assert decision.unscheduled == []
        assert decision.algorithm_runtime > 0
        assert decision.solver_result is not None
        assert small_state.slot_utilization() == pytest.approx(6 / 16)

    def test_leaves_tasks_unscheduled_when_cluster_full(self):
        state = make_cluster_state(num_machines=2, slots_per_machine=1)
        state.submit_job(make_job(job_id=1, num_tasks=5))
        scheduler = FirmamentScheduler(QuincyPolicy())
        decision = scheduler.schedule_and_apply(state, now=0.0)
        assert len(decision.placements) == 2
        assert len(decision.unscheduled) == 3

    def test_empty_workload_short_circuits(self, small_state):
        scheduler = FirmamentScheduler(QuincyPolicy())
        decision = scheduler.schedule(small_state, now=0.0)
        assert decision.placements == {}
        assert decision.solver_result is None
        assert scheduler.statistics.runs == 1

    def test_running_tasks_keep_their_machines_by_default(self, loaded_state):
        scheduler = FirmamentScheduler(QuincyPolicy())
        decision = scheduler.schedule(loaded_state, now=1.0)
        assert decision.migrations == {}
        assert decision.preemptions == []

    def test_migrations_disabled_pins_running_tasks(self):
        state = make_cluster_state(num_machines=4, slots_per_machine=2)
        job = make_job(job_id=1, num_tasks=2)
        state.submit_job(job)
        # Both tasks on machine 0: the load-spreading policy would prefer to
        # move one, but migrations are disabled.
        state.place_task(job.tasks[0].task_id, 0, 0.0)
        state.place_task(job.tasks[1].task_id, 0, 0.0)
        scheduler = FirmamentScheduler(
            LoadSpreadingPolicy(), solver=CostScalingSolver(), allow_migrations=False
        )
        decision = scheduler.schedule(state, now=1.0)
        assert decision.migrations == {}
        assert decision.preemptions == []

    def test_statistics_accumulate(self, small_state):
        small_state.submit_job(make_job(job_id=1, num_tasks=3))
        scheduler = FirmamentScheduler(QuincyPolicy())
        scheduler.schedule_and_apply(small_state, now=0.0)
        scheduler.schedule_and_apply(small_state, now=1.0)
        stats = scheduler.statistics
        assert stats.runs == 2
        assert stats.total_placements == 3
        assert stats.total_algorithm_runtime > 0

    def test_default_solver_is_dual_executor(self):
        scheduler = FirmamentScheduler(QuincyPolicy())
        assert isinstance(scheduler.solver, DualAlgorithmExecutor)

    def test_decision_num_assignments(self):
        decision = SchedulingDecision(placements={1: 0, 2: 1}, migrations={3: 2})
        assert decision.num_assignments == 3


class TestApply:
    def test_apply_performs_preemptions_before_placements(self):
        state = make_cluster_state(num_machines=1, slots_per_machine=1)
        running = make_job(job_id=1, num_tasks=1)
        pending = make_job(job_id=2, num_tasks=1)
        state.submit_job(running)
        state.submit_job(pending)
        state.place_task(running.tasks[0].task_id, 0, 0.0)
        decision = SchedulingDecision(
            placements={pending.tasks[0].task_id: 0},
            preemptions=[running.tasks[0].task_id],
        )
        FirmamentScheduler(QuincyPolicy()).apply(state, decision, now=5.0)
        assert state.tasks[pending.tasks[0].task_id].is_running
        assert state.tasks[running.tasks[0].task_id].is_pending

    def test_apply_migration(self):
        state = make_cluster_state(num_machines=2, slots_per_machine=1)
        job = make_job(job_id=1, num_tasks=1)
        state.submit_job(job)
        state.place_task(job.tasks[0].task_id, 0, 0.0)
        decision = SchedulingDecision(migrations={job.tasks[0].task_id: 1})
        FirmamentScheduler(QuincyPolicy()).apply(state, decision, now=3.0)
        assert state.tasks[job.tasks[0].task_id].machine_id == 1


class TestContinuousRescheduling:
    def test_multiple_rounds_with_arrivals_and_departures(self):
        """Drive several rounds through the full scheduler with the dual
        solver, checking that state stays consistent throughout."""
        state = make_cluster_state(num_machines=6, slots_per_machine=2)
        scheduler = FirmamentScheduler(QuincyPolicy())
        state.submit_job(make_job(job_id=1, num_tasks=5, submit_time=0.0))
        scheduler.schedule_and_apply(state, now=0.0)

        for round_index in range(1, 4):
            # A few tasks finish, a new job arrives.
            running = state.running_tasks()
            for task in running[:2]:
                state.complete_task(task.task_id, now=float(round_index))
            state.submit_job(
                make_job(job_id=1 + round_index, num_tasks=3, submit_time=float(round_index))
            )
            decision = scheduler.schedule_and_apply(state, now=float(round_index))
            # Slot capacity is never violated.
            for machine_id in state.topology.machines:
                assert (
                    state.task_count_on_machine(machine_id)
                    <= state.topology.machine(machine_id).num_slots
                )
        assert scheduler.statistics.runs == 4

    def test_quincy_configuration_equivalence(self):
        """Firmament restricted to cost scaling behaves like Quincy: same
        total cost as the dual-algorithm configuration on the same state."""
        state_a = make_cluster_state(num_machines=6, slots_per_machine=2)
        state_b = make_cluster_state(num_machines=6, slots_per_machine=2)
        for state in (state_a, state_b):
            state.submit_job(
                make_job(job_id=1, num_tasks=8, input_size_gb=4.0, input_locality={2: 0.5})
            )
        firmament = FirmamentScheduler(QuincyPolicy())
        quincy = FirmamentScheduler(QuincyPolicy(), solver=CostScalingSolver())
        cost_firmament = firmament.schedule(state_a, now=0.0).total_cost
        cost_quincy = quincy.schedule(state_b, now=0.0).total_cost
        assert cost_firmament == cost_quincy
