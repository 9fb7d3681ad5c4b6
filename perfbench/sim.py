"""The ``sim-cells`` workload: a sharded trace replay in a child process.

Set-up writes a seeded Google-like trace to CSV.  The child streams it
back through ``read_trace`` into a ``ClusterSimulator`` driving a
``ShardedScheduler`` with two cells, each solved in its own worker
subprocess, while a seeded ``FailureInjector`` fails and repairs
machines.  Rounds are eager (``min_scheduler_interval=0``).  There is no
TCP and no write-ahead log on this path.

The trace covers 512 machines at 60% slot utilization.  Most of that load
is never-ending service jobs submitted at t=0, so every round solves
networks of steady-state size; the rest is batch jobs of exponentially
distributed size (no large-job tail, which would make a run's percentiles
hinge on whether one huge job arrived).  Its simulated length scales with
``--seconds``.
"""

from __future__ import annotations

import bisect
import os
import time
from typing import Dict, Optional

from common import SLICES, Child, median, read_json, sliced_median, work_path

MACHINES = 512
SLOTS = 4
UTILIZATION = 0.6
SERVICE_SHARE = 0.7
BATCH_TASK_S = 20.0
#: Mean tasks per batch job the trace generator draws (``int`` of an
#: exponential with mean 8, plus one).
BATCH_JOB_TASKS = 8.5
#: Simulated seconds of trace per second of ``--seconds``.
SIM_PER_WALL = 7.5
#: No arrivals or failures in the run's last simulated seconds, so every
#: task that arrives is placed before it ends.
QUIET_TAIL_S = 5.0
#: Latencies count only for tasks arriving after this many simulated
#: seconds: the first rounds place the t=0 service load and start the
#: cell workers cold.
WARMUP_S = 5.0
SLO_MS = 500.0
EXIT_SECONDS = 170.0


def write_trace(seed: int, sim_seconds: float, path: str) -> int:
    """Generate the seeded trace and write it as CSV; returns task rows.

    The batch stream is cut at a fixed job count and its arrival times
    are stretched so the last arrival lands at the end of the arrival
    window: a seed changes which jobs arrive when and their sizes, not how
    many rounds the run holds.  Every arrival starts a round of about the
    same cost, because the never-ending service load sets the network's
    size, so ``wall_per_hour_s`` and ``cpu_ms_per_task`` compare like with
    like; cut at a fixed task count instead, the job count varied by 17%
    over five seeds and both metrics with it.
    """
    from repro.simulation import GoogleTraceGenerator, TraceConfig, write_jobs_csv

    arrival_window = sim_seconds - QUIET_TAIL_S
    config = TraceConfig(
        num_machines=MACHINES,
        slots_per_machine=SLOTS,
        target_utilization=UTILIZATION,
        duration=10.0 * arrival_window,
        mean_batch_task_duration=BATCH_TASK_S,
        service_job_fraction=SERVICE_SHARE,
        large_job_fraction=0.0,
        constant_service_load=True,
        seed=seed,
    )
    batch_slots = MACHINES * SLOTS * UTILIZATION - config.service_task_allotment()
    batch_jobs = round(batch_slots / BATCH_TASK_S * arrival_window / BATCH_JOB_TASKS)
    service, batch = [], []
    for job in GoogleTraceGenerator(config).iter_jobs():
        if job.submit_time == 0.0 and not batch:
            service.append(job)
            continue
        batch.append(job)
        if len(batch) == batch_jobs:
            break
    stretch = arrival_window / batch[-1].submit_time
    for job in batch:
        job.submit_time *= stretch
        for task in job.tasks:
            task.submit_time = job.submit_time
    return write_jobs_csv(service + batch, path)


def wall_per_hour(progress, virtual_s: float) -> float:
    """Replay wall seconds per simulated hour, as the median over equal
    slices of simulated time (see ``sliced_median``).

    ``progress`` holds ``(simulated time, wall seconds)`` marks from the
    replay's start to its end; a slice's wall time runs from the last mark
    at or before its start to the last mark at or before its end.
    """
    times = [at for at, _ in progress]

    def wall_at(at: float) -> float:
        return progress[bisect.bisect_right(times, at) - 1][1]

    width = virtual_s / SLICES
    return median([
        (wall_at((k + 1) * width) - wall_at(k * width)) / width
        for k in range(SLICES)
    ]) * 3600.0


def run(seed: int, seconds: float, setups: int,
        trace_prefix: Optional[str] = None) -> Dict:
    """One timed replay; returns metrics and checks."""
    sim_seconds = SIM_PER_WALL * seconds
    csv_path = work_path("trace.csv")
    setup_s = []
    for _ in range(setups):
        start = time.perf_counter()
        write_trace(seed, sim_seconds, csv_path)
        setup_s.append(time.perf_counter() - start)

    out_path = work_path("sim-out.json")
    if os.path.exists(out_path):
        os.remove(out_path)
    argv = [os.path.join(os.path.dirname(__file__), "sim_child.py"),
            csv_path, str(seed), str(sim_seconds), out_path]
    if trace_prefix:
        argv += ["--trace-out", trace_prefix]
    child = Child(argv, work_path("sim.log"), stdin=-1)
    try:
        if child.proc.stdout.readline().strip() != "ready":
            raise RuntimeError("simulator child did not start")
        cpu_before = child.cpu_so_far()
        child.proc.stdin.write("go\n")
        child.proc.stdin.flush()
        usage = child.wait(EXIT_SECONDS)
    finally:
        child.stop()
    if usage.returncode != 0 or not os.path.exists(out_path):
        raise RuntimeError(f"simulator child failed ({usage.returncode})")
    out = read_json(out_path)

    timed = out["latencies"]
    latency = [value for _, value in timed]
    attempted = out["tasks_submitted"]
    failed = out["tasks_pending"]
    cpu_s = out.get("cpu_s_before_check", usage.cpu_s)
    checks = {
        "conserved": out["conserved"],
        "all_placed": failed == 0 and out["tasks_placed"] == attempted,
        "cell_workers": out["workers"] == 2,
        "machines_failed": out["machine_failures"] > 0,
    }
    if trace_prefix:
        checks["resolve_matches"] = out["resolve_mismatches"] == 0
    metrics = {
        "place_p50_ms": sliced_median(
            timed, WARMUP_S, sim_seconds - QUIET_TAIL_S
        ) * 1e3,
        "slo_ok_frac": (
            sum(1 for v in latency if v * 1e3 <= SLO_MS) / out["timed_tasks"]
        ),
        "wall_per_hour_s": wall_per_hour(out["progress"], out["virtual_s"]),
        "ok_frac": 1.0 - failed / attempted,
        "cpu_ms_per_task": (cpu_s - cpu_before) * 1e3 / max(out["tasks_placed"], 1),
        "peak_rss_mb": usage.peak_rss_mb,
        "setup_s": median(setup_s),
    }
    return {
        "metrics": metrics,
        "per_layer": out.get("layers", {}),
        "checks": checks,
        "attempted": attempted,
        "failed": failed,
        "samples": len(latency),
        "latencies": latency,
    }
