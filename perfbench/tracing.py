"""Outside-in tracing: spans around the calls into each layer's functions.

Nothing in the program under test knows it is traced.  A benchmark-owned
launcher imports the program, replaces a fixed list of its public
functions with timing wrappers (:func:`install_service_hooks`,
:func:`install_sim_hooks`), runs it, and at exit writes the spans and a
per-layer summary.  Each span is ``[name, start, end, parent, round]``:
``parent`` is the index of the enclosing span on the same thread (-1 at
top level) and ``round`` is the scheduling round the span belongs to, so
the spans of one round share an id.  Spans stay in memory until the end.

A layer's self time is its span minus the time its child spans cover.

The traced run also re-solves a sample of the rounds' flow networks from
scratch with :class:`~repro.solvers.cost_scaling.CostScalingSolver`, after
the program has exited its timed work, and counts any round whose optimal
cost differs from the one the scheduler used.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from common import mean, percentile

#: Every per-layer metric, its unit, and which way is better.  The traced
#: run reports all of them on every workload; a layer the workload never
#: calls reads 0.  README.md maps each to the end-to-end metric it should
#: move.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("loadgen.lag_ms.p99", "ms", "lower"),
    ("service.queue_wait_ms.p50", "ms", "lower"),
    ("service.queue_wait_ms.p99", "ms", "lower"),
    ("service.delivery_ms.p50", "ms", "lower"),
    ("service.delivery_ms.p99", "ms", "lower"),
    ("service.tasks_per_round", "count", "higher"),
    ("service.rounds_per_s", "1/s", "lower"),
    ("durability.admit_ms.mean", "ms", "lower"),
    ("durability.admit_ms.p99", "ms", "lower"),
    ("durability.round_ms.mean", "ms", "lower"),
    ("durability.round_ms.p99", "ms", "lower"),
    ("durability.snapshot_ms.max", "ms", "lower"),
    ("durability.snapshots", "count", "lower"),
    ("core.schedule_ms.p50", "ms", "lower"),
    ("core.schedule_ms.p99", "ms", "lower"),
    ("core.graph_update_ms.p50", "ms", "lower"),
    ("core.graph_update_ms.p99", "ms", "lower"),
    ("core.extract_ms.p50", "ms", "lower"),
    ("core.apply_ms.p50", "ms", "lower"),
    ("core.schedule_self_ms.p50", "ms", "lower"),
    ("core.schedule_accounted_frac", "frac", "higher"),
    ("core.arcs_patched.mean", "count", "lower"),
    ("solvers.relaxation_ms.p50", "ms", "lower"),
    ("solvers.relaxation_ms.p99", "ms", "lower"),
    ("solvers.cost_scaling_ms.p50", "ms", "lower"),
    ("solvers.cost_scaling_ms.p99", "ms", "lower"),
    ("solvers.price_refine_ms.mean", "ms", "lower"),
    ("solvers.epsilon_phases.mean", "count", "lower"),
    ("solvers.dual_ascents.mean", "count", "lower"),
    ("solvers.relaxation_win_frac", "frac", "higher"),
    ("solvers.race_waste_frac", "frac", "lower"),
    ("solvers.resolve_checks", "count", "higher"),
    ("sharding.round_ms.p50", "ms", "lower"),
    ("sharding.round_ms.p99", "ms", "lower"),
    ("sharding.straggler_ratio", "ratio", "lower"),
    ("sharding.cells_solved.mean", "count", "lower"),
    ("sharding.cross_cell_migrations", "count", "lower"),
    ("sharding.delta_ship_frac", "frac", "higher"),
    ("simulation.ingest_ms", "ms", "lower"),
    ("simulation.events_per_s", "1/s", "higher"),
    ("simulation.engine_self_s", "s", "lower"),
    ("cluster.submit_job_us.mean", "us", "lower"),
    ("cluster.fail_machine_ms.mean", "ms", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead.place_p50_ms", "ms", "lower"),
    ("trace.overhead.cpu_ms_per_task", "ms", "lower"),
    ("trace.overhead.wall_per_hour_s", "s", "lower"),
]

#: Re-solve every ``_RESOLVE_EVERY``-th round, at most ``_RESOLVE_MAX`` times.
_RESOLVE_EVERY = 16
_RESOLVE_MAX = 8


class Recorder:
    """In-memory spans plus per-call observations for one process."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        #: name -> [(span index, value), ...] read off returned results.
        self.observed: Dict[str, List[Tuple[int, Any]]] = defaultdict(list)
        self.totals: Dict[str, float] = defaultdict(float)
        self.round = 0
        self._round_open = False
        self._local = threading.local()
        #: (flow network copy, cost the scheduler used) for sampled rounds.
        self.resolve_samples: List[Tuple[List[Any], int]] = []
        self._resolve_seen = 0

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open_span(self, name: str, opens_round: bool = False) -> int:
        if opens_round and not self._round_open:
            self.round += 1
            self._round_open = True
        stack = self._stack()
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.round])
        stack.append(index)
        self.spans[index][1] = time.perf_counter()
        return index

    def close_span(self, index: int, closes_round: bool = False) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()
        if closes_round:
            self._round_open = False

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        observe: Optional[Callable[["Recorder", int, tuple, Any], None]] = None,
        opens_round: bool = False,
        closes_round: bool = False,
    ) -> None:
        """Replace ``owner.attr`` with a wrapper that records a span."""
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = recorder.open_span(name, opens_round)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder.close_span(index, closes_round)
            if observe is not None:
                observe(recorder, index, args, result)
            return result

        setattr(owner, attr, traced)

    def timed_iter(self, iterable: Iterable, name: str) -> Iterator:
        """Yield from ``iterable``, adding the time spent in it to ``name``."""
        iterator = iter(iterable)
        while True:
            start = time.perf_counter()
            try:
                item = next(iterator)
            except StopIteration:
                self.totals[name] += time.perf_counter() - start
                return
            self.totals[name] += time.perf_counter() - start
            yield item

    def want_resolve(self) -> bool:
        """True for the rounds whose network gets re-solved at exit."""
        self._resolve_seen += 1
        return (
            self._resolve_seen % _RESOLVE_EVERY == _RESOLVE_EVERY // 2
            and len(self.resolve_samples) < _RESOLVE_MAX
        )

    def sample_networks(self, networks: List[Any], cost: int) -> None:
        """Copy a round's networks (as a child span) for the exit check."""
        index = self.open_span("bench.copy")
        try:
            self.resolve_samples.append(([n.copy() for n in networks], cost))
        finally:
            self.close_span(index)

    def resolve_check(self) -> Tuple[int, int]:
        """Re-solve the sampled networks from scratch; (checked, mismatched)."""
        from repro.solvers.cost_scaling import CostScalingSolver

        mismatched = 0
        for networks, cost in self.resolve_samples:
            fresh = sum(CostScalingSolver().solve(n).total_cost for n in networks)
            mismatched += fresh != cost
        return len(self.resolve_samples), mismatched

    # ------------------------------------------------------------------ #
    # Summaries
    # ------------------------------------------------------------------ #
    def durations(self, name: str) -> List[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def self_times(self, name: str) -> List[float]:
        """Per-span duration minus the time its direct children cover."""
        children = defaultdict(float)
        for span in self.spans:
            if span[3] >= 0:
                children[span[3]] += span[2] - span[1]
        return [
            (s[2] - s[1]) - children[i]
            for i, s in enumerate(self.spans)
            if s[0] == name
        ]

    def children_of(self, name: str) -> Dict[int, Dict[str, float]]:
        """parent span index -> {child name: summed duration}."""
        parents = {i for i, s in enumerate(self.spans) if s[0] == name}
        out: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for span in self.spans:
            if span[3] in parents:
                out[span[3]][span[0]] += span[2] - span[1]
        return out

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w") as handle:
            for name, start, end, parent, round_id in self.spans:
                handle.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "round": round_id,
                }) + "\n")


def _ms(values: List[float], pct: float) -> float:
    return percentile(values, pct) * 1000.0


def _observe_decision(recorder: Recorder, index: int, args: tuple, decision) -> None:
    result = decision.solver_result
    if result is not None:
        recorder.observed["decision"].append((index, result.statistics))


def _core_summary(recorder: Recorder, schedule_name: str) -> Dict[str, float]:
    """The ``core.*`` metrics around whichever scheduler's ``schedule`` ran."""
    schedule = recorder.durations(schedule_name)
    self_times = recorder.self_times(schedule_name)
    children = recorder.children_of(schedule_name)
    child_total = sum(
        seconds
        for parts in children.values()
        for name, seconds in parts.items()
    )
    stats = [s for _, s in recorder.observed["decision"]]
    return {
        "core.schedule_ms.p50": _ms(schedule, 50),
        "core.schedule_ms.p99": _ms(schedule, 99),
        "core.graph_update_ms.p50": _ms(recorder.durations("core.graph_update"), 50),
        "core.graph_update_ms.p99": _ms(recorder.durations("core.graph_update"), 99),
        "core.extract_ms.p50": _ms(recorder.durations("core.extract"), 50),
        "core.apply_ms.p50": _ms(recorder.durations("core.apply"), 50),
        "core.schedule_self_ms.p50": _ms(self_times, 50),
        "core.schedule_accounted_frac": (
            (child_total + sum(self_times)) / sum(schedule) if schedule else 0.0
        ),
        "core.arcs_patched.mean": mean([s.arcs_patched for s in stats]),
        "cluster.submit_job_us.mean": mean(recorder.durations("cluster.submit_job")) * 1e6,
        "cluster.fail_machine_ms.mean": mean(recorder.durations("cluster.fail_machine")) * 1e3,
    }


# ---------------------------------------------------------------------- #
# The service process: monolithic scheduler, dual executor, WAL
# ---------------------------------------------------------------------- #
def install_service_hooks() -> Recorder:
    """Wrap the layers a ``serve`` process calls; return the recorder."""
    import repro.core.scheduler as scheduler_module
    from repro.cluster.state import ClusterState
    from repro.core.graph_manager import GraphManager
    from repro.service.durability import DurabilityLayer
    from repro.solvers.dual_executor import DualAlgorithmExecutor
    from repro.solvers.incremental import IncrementalCostScalingSolver
    from repro.solvers.relaxation import RelaxationSolver

    recorder = Recorder()

    def observe_leg(name):
        def observe(recorder, index, args, result):
            recorder.observed[name].append((index, result.statistics))
        return observe

    def observe_race(recorder, index, args, result):
        recorder.observed["race"].append((index, result.winning_algorithm))
        if recorder.want_resolve():
            recorder.sample_networks([args[1]], result.winner.total_cost)

    recorder.wrap(DurabilityLayer, "log_admission", "durability.admit", opens_round=True)
    recorder.wrap(DurabilityLayer, "log_round", "durability.round")
    recorder.wrap(DurabilityLayer, "write_snapshot", "durability.snapshot")
    recorder.wrap(ClusterState, "submit_job", "cluster.submit_job")
    recorder.wrap(ClusterState, "fail_machine", "cluster.fail_machine")
    recorder.wrap(scheduler_module.FirmamentScheduler, "schedule", "core.schedule",
                  observe=_observe_decision, opens_round=True)
    recorder.wrap(scheduler_module.FirmamentScheduler, "apply", "core.apply",
                  closes_round=True)
    recorder.wrap(GraphManager, "update", "core.graph_update")
    recorder.wrap(scheduler_module, "extract_placements", "core.extract")
    recorder.wrap(DualAlgorithmExecutor, "solve_detailed", "solvers.race",
                  observe=observe_race)
    recorder.wrap(RelaxationSolver, "solve", "solvers.relaxation",
                  observe=observe_leg("relaxation"))
    recorder.wrap(IncrementalCostScalingSolver, "solve", "solvers.cost_scaling",
                  observe=observe_leg("cost_scaling"))
    return recorder


def service_summary(recorder: Recorder) -> Dict[str, float]:
    """Per-layer metrics of a traced ``serve`` process."""
    out = _core_summary(recorder, "core.schedule")
    admit = recorder.durations("durability.admit")
    logged = recorder.durations("durability.round")
    snapshots = recorder.durations("durability.snapshot")
    out.update({
        "durability.admit_ms.mean": mean(admit) * 1e3,
        "durability.admit_ms.p99": _ms(admit, 99),
        "durability.round_ms.mean": mean(logged) * 1e3,
        "durability.round_ms.p99": _ms(logged, 99),
        "durability.snapshot_ms.max": max(snapshots, default=0.0) * 1e3,
        "durability.snapshots": float(len(snapshots)),
    })
    relaxation_stats = [s for _, s in recorder.observed["relaxation"]]
    cost_scaling_stats = [s for _, s in recorder.observed["cost_scaling"]]
    relaxation = recorder.durations("solvers.relaxation")
    cost_scaling = recorder.durations("solvers.cost_scaling")
    # Race accounting from the two legs' spans under each race span: the
    # loser's leg is the work the round paid for and threw away.
    legs_by_race = recorder.children_of("solvers.race")
    wins = waste = spent = 0.0
    for index, winner in recorder.observed["race"]:
        parts = legs_by_race.get(index, {})
        rel = parts.get("solvers.relaxation", 0.0)
        cs = parts.get("solvers.cost_scaling", 0.0)
        relaxation_won = winner == "relaxation"
        wins += relaxation_won
        if rel and cs:
            waste += cs if relaxation_won else rel
            spent += rel + cs
    races = len(recorder.observed["race"])
    out.update({
        "solvers.relaxation_ms.p50": _ms(relaxation, 50),
        "solvers.relaxation_ms.p99": _ms(relaxation, 99),
        "solvers.cost_scaling_ms.p50": _ms(cost_scaling, 50),
        "solvers.cost_scaling_ms.p99": _ms(cost_scaling, 99),
        "solvers.price_refine_ms.mean": mean(
            [s.price_refine_seconds for s in cost_scaling_stats]
        ) * 1e3,
        "solvers.epsilon_phases.mean": mean(
            [s.epsilon_phases for s in cost_scaling_stats]
        ),
        "solvers.dual_ascents.mean": mean(
            [s.dual_ascents for s in relaxation_stats]
        ),
        "solvers.relaxation_win_frac": wins / races if races else 0.0,
        "solvers.race_waste_frac": waste / spent if spent else 0.0,
    })
    return out


# ---------------------------------------------------------------------- #
# The simulator process: sharded scheduler with cell workers
# ---------------------------------------------------------------------- #
def install_sim_hooks() -> Recorder:
    """Wrap the layers a sharded simulator replay calls."""
    import repro.core.sharding as sharding
    from repro.cluster.state import ClusterState
    from repro.core.graph_manager import GraphManager

    recorder = Recorder()
    shipped: List[Any] = []

    def observe_ship(recorder, index, args, ok):
        shipped.append(args[2])

    def observe_gather(recorder, index, args, payload):
        # Keep the scalars only: a payload also carries the cell's whole
        # flow and potential maps.
        if payload is not None:
            recorder.observed["cell"].append((recorder.round, {
                key: payload[key] for key in
                ("runtime_seconds", "price_refine_seconds", "epsilon_phases")
            }))

    def observe_round(recorder, index, args, decision):
        _observe_decision(recorder, index, args, decision)
        networks = list(shipped)
        shipped.clear()
        if networks and not decision.degraded and recorder.want_resolve():
            recorder.sample_networks(networks, decision.total_cost)

    recorder.wrap(ClusterState, "submit_job", "cluster.submit_job")
    recorder.wrap(ClusterState, "fail_machine", "cluster.fail_machine")
    recorder.wrap(sharding.ShardedScheduler, "schedule", "sharding.schedule",
                  observe=observe_round, opens_round=True, closes_round=True)
    recorder.wrap(GraphManager, "update", "core.graph_update")
    recorder.wrap(sharding, "extract_placements", "core.extract")
    # The cell worker transport: the parent's half of each cell's solve.
    recorder.wrap(sharding._CellWorkerClient, "ship", "sharding.ship",
                  observe=observe_ship)
    recorder.wrap(sharding._CellWorkerClient, "gather", "sharding.gather",
                  observe=observe_gather)
    return recorder


def sim_summary(recorder: Recorder, transport: List[Dict[str, int]],
                wall_s: float, events: int) -> Dict[str, float]:
    """Per-layer metrics of a traced sharded replay."""
    out = _core_summary(recorder, "sharding.schedule")
    rounds = recorder.durations("sharding.schedule")
    by_round: Dict[int, List[dict]] = defaultdict(list)
    for round_id, payload in recorder.observed["cell"]:
        by_round[round_id].append(payload)
    ratios = []
    for payloads in by_round.values():
        runtimes = [p["runtime_seconds"] for p in payloads]
        if len(runtimes) > 1 and mean(runtimes) > 0:
            ratios.append(max(runtimes) / mean(runtimes))
    payloads = [p for _, p in recorder.observed["cell"]]
    cell_ms = [p["runtime_seconds"] for p in payloads]
    stats = [s for _, s in recorder.observed["decision"]]
    deltas = sum(t["delta_ships"] for t in transport)
    ships = deltas + sum(t["snapshot_ships"] for t in transport)
    ingest = recorder.totals["simulation.ingest"]
    out.update({
        "solvers.cost_scaling_ms.p50": _ms(cell_ms, 50),
        "solvers.cost_scaling_ms.p99": _ms(cell_ms, 99),
        "solvers.price_refine_ms.mean": mean(
            [p["price_refine_seconds"] for p in payloads]
        ) * 1e3,
        "solvers.epsilon_phases.mean": mean([p["epsilon_phases"] for p in payloads]),
        "sharding.round_ms.p50": _ms(rounds, 50),
        "sharding.round_ms.p99": _ms(rounds, 99),
        "sharding.straggler_ratio": mean(ratios),
        "sharding.cells_solved.mean": mean([s.cells_solved for s in stats]),
        "sharding.cross_cell_migrations": float(
            sum(s.cross_cell_migrations for s in stats)
        ),
        "sharding.delta_ship_frac": deltas / ships if ships else 0.0,
        "simulation.ingest_ms": ingest * 1e3,
        "simulation.events_per_s": events / wall_s if wall_s else 0.0,
        "simulation.engine_self_s": wall_s - sum(rounds) - ingest,
    })
    return out
