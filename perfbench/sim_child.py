"""Replay a CSV trace through the sharded simulator (the system under test).

Usage: ``python3 perfbench/sim_child.py TRACE.csv SEED SIM_SECONDS OUT.json
[--trace-out PREFIX]``

The process builds everything it needs, prints ``ready``, and starts the
replay only when a line arrives on stdin, so the parent can read this
process's CPU counters right before the measured work.
"""

from __future__ import annotations

import os
import sys
import time

from common import write_json
from sim import MACHINES, QUIET_TAIL_S, SLOTS, WARMUP_S

MACHINES_PER_RACK = 16
CELLS = 2
MTBF_S = 30.0
REPAIR_S = 120.0


def main(argv) -> int:
    trace_csv, seed, sim_seconds, out_path = argv[:4]
    seed, sim_seconds = int(seed), float(sim_seconds)
    prefix = argv[5] if argv[4:5] == ["--trace-out"] else None

    import tracing

    recorder = tracing.install_sim_hooks() if prefix else None

    from repro.cluster import ClusterState, build_topology
    from repro.core import ShardedScheduler
    from repro.core.policies import QuincyPolicy
    from repro.simulation import (
        ClusterSimulator,
        FailureInjector,
        SimulationConfig,
        read_trace,
        verify_placement_conservation,
    )

    state = ClusterState(build_topology(
        MACHINES, machines_per_rack=MACHINES_PER_RACK, slots_per_machine=SLOTS
    ))
    scheduler = ShardedScheduler(QuincyPolicy, num_cells=CELLS, workers=True)
    simulator = ClusterSimulator(state, scheduler, SimulationConfig(
        max_time=sim_seconds, min_scheduler_interval=0.0, drain=False,
    ))
    failures = FailureInjector(MTBF_S, REPAIR_S, seed=seed).inject(
        simulator, horizon=sim_seconds - QUIET_TAIL_S
    )
    # (simulated time, wall clock) at the start of every round: one clock
    # read per round, so that wall_per_hour_s can be taken per slice.
    progress = []
    schedule = scheduler.schedule

    def clocked_schedule(cluster, now):
        progress.append((now, time.perf_counter()))
        return schedule(cluster, now)

    scheduler.schedule = clocked_schedule
    jobs = read_trace(trace_csv)
    if recorder is not None:
        jobs = recorder.timed_iter(jobs, "simulation.ingest")
    simulator.submit_job_stream(jobs)

    print("ready", flush=True)
    sys.stdin.readline()
    start = time.perf_counter()
    try:
        result = simulator.run()
        wall_s = time.perf_counter() - start
        transport = scheduler.cell_transport()
    finally:
        simulator.close()
    times = os.times()

    try:
        verify_placement_conservation(result)
        conserved = True
    except AssertionError as error:
        print(f"conservation violated: {error}", file=sys.stderr)
        conserved = False
    out = {
        "wall_s": wall_s,
        "virtual_s": result.virtual_time,
        "progress": (
            [(0.0, 0.0)]
            + [(now, wall - start) for now, wall in progress]
            + [(result.virtual_time, wall_s)]
        ),
        # Batch tasks past the warm-up only: the never-ending t=0 service
        # jobs are set-up load, and the first rounds place them and start
        # the cell workers cold.
        "latencies": [
            (t.submit_time, t.placement_latency()) for t in state.tasks.values()
            if t.placement_time is not None and t.duration is not None
            and t.submit_time >= WARMUP_S
        ],
        "tasks_submitted": len(state.tasks),
        "tasks_placed": sum(
            1 for t in state.tasks.values() if t.placement_time is not None
        ),
        "tasks_pending": sum(1 for t in state.tasks.values() if t.is_pending),
        "timed_tasks": sum(
            1 for t in state.tasks.values()
            if t.duration is not None and t.submit_time >= WARMUP_S
        ),
        "machine_failures": failures.num_failures,
        "events": result.events_processed,
        "conserved": conserved,
        "workers": len(transport),
    }
    if recorder is not None:
        layers = tracing.sim_summary(recorder, transport, wall_s, result.events_processed)
        checked, mismatched = recorder.resolve_check()
        layers["solvers.resolve_checks"] = float(checked)
        layers["trace.spans"] = float(len(recorder.spans))
        out["resolve_mismatches"] = mismatched
        out["cpu_s_before_check"] = (
            times.user + times.system + times.children_user + times.children_system
        )
        out["layers"] = layers
        recorder.dump(prefix + ".spans.jsonl")
    write_json(out_path, out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
