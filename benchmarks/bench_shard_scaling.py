"""Sharded multi-cell scheduling: round throughput vs the monolithic solver.

The sharding layer's claim is architectural: cutting the cluster into
rack-granular cells makes each round cost the *slowest cell's* solve on a
network of |cluster|/cells -- and MCMF solve cost is superlinear in
network size, so per-cell solves shrink faster than the cell count grows.
This benchmark pins the claim on a cells x machines x churn grid: a
prefilled cluster runs a sequence of scheduling rounds under sustained
churn, and each configuration reports its median steady-state round time
(``decision.algorithm_runtime`` -- the same per-round latency yardstick
the simulator charges, i.e. the straggler cell's solve for the sharded
scheduler) and the resulting round throughput.

The acceptance gate: at the largest cluster on low-churn rounds, 4 cells
must deliver >= 3x the monolithic round throughput.  Low churn is the
honest case for the gate -- it isolates the per-round incremental solve
(delta path everywhere) from cold-build effects; the high-churn column is
reported so regressions in the dirty-routing path stay visible too.

Run directly (``python benchmarks/bench_shard_scaling.py``) or through
pytest; ``REPRO_BENCH_SCALE`` scales the cluster sizes.
"""

from __future__ import annotations

import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.common import bench_scale, build_cluster_state, make_job  # noqa: E402
from repro.core import FirmamentScheduler  # noqa: E402
from repro.core.policies import QuincyPolicy  # noqa: E402

MACHINE_GRID = tuple(m * bench_scale() for m in (256, 512))
CELL_GRID = (1, 2, 4, 8)  # 1 = the monolithic scheduler
MACHINES_PER_RACK = 16
SLOTS_PER_MACHINE = 4
PREFILL_UTILIZATION = 0.5
ROUNDS = 8

#: Churn profiles: jobs submitted per round x tasks per job.  Low churn is
#: the steady-state case the >=3x gate runs on; high churn stresses the
#: dirty-routing and per-cell delta paths with an order of magnitude more
#: graph change per round.
CHURN_PROFILES = {"low": (1, 4), "high": (8, 4)}

#: Acceptance gate (ISSUE PR 8): 4+ cells at the largest cluster on
#: low-churn rounds must beat the monolithic round throughput >= 3x.
GATE_CELLS = 4
GATE_SPEEDUP = 3.0


def make_scheduler(num_cells: int):
    return FirmamentScheduler(
        QuincyPolicy, solver="incremental_cost_scaling", num_cells=num_cells
    )


def median_round_seconds(num_machines: int, num_cells: int, churn: str) -> float:
    """Median steady-state round latency for one grid configuration."""
    jobs_per_round, tasks_per_job = CHURN_PROFILES[churn]
    state = build_cluster_state(
        num_machines,
        slots_per_machine=SLOTS_PER_MACHINE,
        machines_per_rack=MACHINES_PER_RACK,
        utilization=PREFILL_UTILIZATION,
    )
    scheduler = make_scheduler(num_cells)
    job_id, task_id = 900_000, 90_000_000
    samples = []
    try:
        scheduler.schedule_and_apply(state, now=0.0)  # cold build, excluded
        for round_index in range(1, ROUNDS):
            now = round_index * 5.0
            for _ in range(jobs_per_round):
                state.submit_job(
                    make_job(job_id, tasks_per_job, task_id, submit_time=now)
                )
                job_id += 1
                task_id += tasks_per_job
            decision = scheduler.schedule_and_apply(state, now=now)
            samples.append(decision.algorithm_runtime)
    finally:
        scheduler.close()
    return statistics.median(samples)


def run_grid():
    """Sweep the grid; returns {(machines, cells, churn): median_seconds}."""
    results = {}
    print()
    print("shard scaling: median steady-state round latency "
          f"({ROUNDS - 1} churn rounds, prefill {PREFILL_UTILIZATION:.0%})")
    header = f"{'machines':>9} {'churn':>6} " + "".join(
        f"{('mono' if c == 1 else f'{c} cells'):>12}" for c in CELL_GRID
    )
    print(header)
    for num_machines in MACHINE_GRID:
        for churn in CHURN_PROFILES:
            row = f"{num_machines:>9} {churn:>6} "
            for num_cells in CELL_GRID:
                median = median_round_seconds(num_machines, num_cells, churn)
                results[(num_machines, num_cells, churn)] = median
                row += f"{median * 1000:>10.2f}ms"
            print(row)
    print()
    print("round-throughput speedup vs monolithic (same machines, same churn):")
    for num_machines in MACHINE_GRID:
        for churn in CHURN_PROFILES:
            mono = results[(num_machines, 1, churn)]
            speedups = ", ".join(
                f"{c} cells {mono / results[(num_machines, c, churn)]:.1f}x"
                for c in CELL_GRID[1:]
            )
            print(f"  {num_machines} machines, {churn} churn: {speedups}")
    return results


def test_shard_scaling_round_throughput(benchmark):
    """Grid sweep + the >=3x gate at 4 cells on the largest cluster."""
    holder = {}

    def run():
        holder["results"] = run_grid()

    benchmark.pedantic(run, rounds=1, iterations=1)
    results = holder["results"]

    largest = MACHINE_GRID[-1]
    mono = results[(largest, 1, "low")]
    sharded = results[(largest, GATE_CELLS, "low")]
    speedup = mono / sharded
    print(f"gate: {GATE_CELLS} cells at {largest} machines, low churn: "
          f"{speedup:.1f}x (required >= {GATE_SPEEDUP:.0f}x)")
    assert speedup >= GATE_SPEEDUP, (
        f"{GATE_CELLS} cells delivered only {speedup:.2f}x round throughput "
        f"at {largest} machines (gate: {GATE_SPEEDUP}x)"
    )
    # Sanity on the grid's shape: more cells never makes rounds slower on
    # low churn at the largest size.
    assert results[(largest, 8, "low")] <= results[(largest, 2, "low")]


if __name__ == "__main__":
    results = run_grid()
    largest = MACHINE_GRID[-1]
    speedup = results[(largest, 1, "low")] / results[(largest, GATE_CELLS, "low")]
    print(f"gate speedup: {speedup:.1f}x")
