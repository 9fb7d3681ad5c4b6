"""The repository's benchmark: one command per workload, seed and mode.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload {svc-light,sim-cells} \\
        --seed N --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace
1`` runs the workload twice with the same seed for half of ``--seconds``
each, untraced and then traced, and reports the per-layer metrics of the
traced pass together with the difference between the two passes'
end-to-end numbers (the tracing overhead).  Every pass checks the program's outputs; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``, and the exit code is non-zero when a check
failed.  See README.md for the workloads, the metrics and which layer
should move which metric.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

#: End-to-end metrics: name -> unit.  Every workload reports all of them.
END_TO_END = {
    "place_p50_ms": "ms",
    "slo_ok_frac": "frac",
    "wall_per_hour_s": "s",
    "ok_frac": "frac",
    "cpu_ms_per_task": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
#: Set-ups per timed run (``setup_s`` is their median): enough that a
#: set-up of a tenth of a second still yields a steady median.
SETUPS = 9
WORKLOADS = ("svc-light", "sim-cells")


def _run_pass(workload: str, seed: int, seconds: float, setups: int,
              trace_prefix=None):
    if workload == "sim-cells":
        import sim

        return sim.run(seed, seconds, setups, trace_prefix)
    import svc

    return svc.run(seed, seconds, setups, trace_prefix)


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "repro", "cli", "main.py")):
        print("error: run from the root of a source checkout (src/repro missing)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    sys.path.insert(0, HERE)
    from common import percentile, work_path
    from tracing import PER_LAYER

    if args.trace:
        # Two half-length passes keep a traced run as long as an untraced one.
        seconds = args.seconds / 2
        base = _run_pass(args.workload, args.seed, seconds, 1)
        result = _run_pass(args.workload, args.seed, seconds, 1,
                           trace_prefix=work_path(f"trace-{args.workload}"))
        result["checks"].update(
            {f"untraced.{k}": v for k, v in base["checks"].items()}
        )
        values = dict(result["per_layer"])
        for name in ("place_p50_ms", "cpu_ms_per_task", "wall_per_hour_s"):
            values[f"trace.overhead.{name}"] = (
                result["metrics"][name] - base["metrics"][name]
            )
        units = {name: unit for name, unit, _ in PER_LAYER}
        values = {name: float(values.get(name, 0.0)) for name in units}
    else:
        result = _run_pass(args.workload, args.seed, args.seconds, SETUPS)
        units = END_TO_END
        values = result["metrics"]

    for name, ok in sorted(result["checks"].items()):
        print(f"check {name}: {'ok' if ok else 'FAILED'}")
    print(f"tasks attempted {result['attempted']}, failed {result['failed']}, "
          f"latency samples {result['samples']}")
    for pct in (95, 99):
        # Set by a handful of jobs or stalls per run: reported, not bounded.
        value = percentile(result["latencies"], pct) * 1e3
        print(f"place_p{pct}_ms = {value:.6g} ms (not bounded)")
    for name in units:
        print(f"{name} = {values[name]:.6g} {units[name]}")
    correct = all(result["checks"].values())
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": values[name], "unit": units[name]} for name in units
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
