"""The out-of-process solver transport (Section 6's solver process).

Firmament runs its min-cost flow solver out of process and feeds it
incremental graph changes every round.  Both users of that arrangement here
-- the racing :class:`~repro.solvers.parallel_executor.ParallelDualExecutor`
(a relaxation worker) and the cells of a
:class:`~repro.core.scheduler.FirmamentScheduler` built with
``workers=True`` (one worker per cell, running the cell's solver spec) --
share this one transport:

* :func:`serve` is the subprocess entry point.  It builds its solver by
  registry name (:func:`repro.solvers.make_solver`) plus keyword arguments
  and keeps a persistent *shadow* copy of the parent's network.  A
  ``("full", round_id, dimacs_text, revision)`` request replaces the
  shadow; a ``("delta", round_id, incremental_text, base, target)`` request
  patches it in place (O(|changes|)) and hands the same batch to the
  solver, whose persistent residual is patched rather than rebuilt.  Every
  answer carries its round id, so the parent can discard answers to rounds
  it has abandoned.
* :class:`SolverWorker` is the parent-side handle.  It owns the spawn, the
  answered-up deadlock guard, delta/resync encoding through a
  :class:`RevisionChainCache`, stale-answer draining, the send-path chaos
  hooks, the :class:`~repro.solvers.worker_health.WorkerCircuitBreaker`,
  teardown, and the ship counters.  A round is :meth:`SolverWorker.ship`,
  then either the non-blocking :meth:`SolverWorker.poll` (the race's abort
  check) or the blocking :meth:`SolverWorker.gather`, then
  :meth:`SolverWorker.settle`.
* The answer is one flat payload: the result's scalars (``algorithm``,
  ``total_cost``, ``flows``, ``potentials``, ``runtime_seconds``,
  ``optimal``), every :class:`~repro.solvers.base.SolverStatistics` field
  by name, and a ``finished_at`` stamp from ``time.monotonic`` (system-wide
  on Linux, so the parent can settle photo finishes).
  :func:`result_from_payload` rebuilds the :class:`SolverResult`.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import fields
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.flow.changes import ChangeBatch, GraphChange, apply_changes
from repro.flow.dimacs import (
    read_dimacs,
    read_incremental,
    write_dimacs,
    write_incremental,
)
from repro.flow.graph import FlowNetwork
from repro.solvers.base import SolverResult, SolverStatistics
from repro.solvers.worker_health import WorkerCircuitBreaker

__all__ = [
    "BATCH_HISTORY_LIMIT",
    "RESYNC_MAX_SNAPSHOT_MULTIPLE",
    "RevisionChainCache",
    "SolverWorker",
    "result_from_payload",
    "result_payload",
    "serve",
]

#: How many revision-chained change batches the parent remembers for
#: worker resync.  At one batch per scheduling round this covers every
#: realistic solo/skip streak; a worker further behind than this gets a
#: full snapshot.
BATCH_HISTORY_LIMIT = 256

#: A resync payload is worth shipping while it stays within this multiple
#: of the full snapshot's line count (one line per change vs one line per
#: node/arc): even at equal line counts the delta wins, because the worker
#: patches its shadow and persistent residual in place instead of reparsing
#: the whole document and rebuilding the residual from scratch -- roughly
#: half of a cold round's cost.  Beyond ~2x, a churn-heavy history (adds
#: later removed again) makes the composed payload pure overhead and the
#: full document takes over.
RESYNC_MAX_SNAPSHOT_MULTIPLE = 2

_STATISTICS_FIELDS = tuple(f.name for f in fields(SolverStatistics))


class RevisionChainCache:
    """Recent revision-chained change batches, for worker-side resync.

    The parent records every revision-chained batch it sees (including the
    rounds it solves without the worker, which is precisely when the
    worker's chain breaks) keyed by base revision.  :meth:`compose` then
    rebuilds the change sequence from the worker's last known revision to
    the current one by walking the recorded chain, so a broken chain
    resyncs with an O(|missed changes|) incremental payload instead of a
    full DIMACS snapshot and reparse.
    """

    def __init__(self, max_entries: int = BATCH_HISTORY_LIMIT) -> None:
        self.max_entries = max_entries
        #: base_revision -> (target_revision, changes)
        self._by_base: "OrderedDict[int, Tuple[int, List[GraphChange]]]" = (
            OrderedDict()
        )

    def __len__(self) -> int:
        return len(self._by_base)

    def record(self, batch: ChangeBatch) -> None:
        """Remember one revision-chained batch (unrevisioned ones are not
        resyncable and are ignored)."""
        base = batch.base_revision
        target = batch.target_revision
        if base is None or target is None or base == target:
            return
        self._by_base[base] = (target, list(batch))
        self._by_base.move_to_end(base)
        while len(self._by_base) > self.max_entries:
            self._by_base.popitem(last=False)

    def compose(
        self, from_revision: int, to_revision: int, max_changes: Optional[int] = None
    ) -> Optional[List[GraphChange]]:
        """Return the concatenated changes leading ``from_revision`` to
        ``to_revision``, or ``None`` when the recorded chain has a gap (or
        the composition exceeds ``max_changes``)."""
        if from_revision == to_revision:
            return []
        changes: List[GraphChange] = []
        revision = from_revision
        for _ in range(len(self._by_base)):
            entry = self._by_base.get(revision)
            if entry is None:
                return None
            target, recorded = entry
            changes.extend(recorded)
            if max_changes is not None and len(changes) > max_changes:
                return None
            if target == to_revision:
                return changes
            revision = target
        return None


# --------------------------------------------------------------------- #
# The payload
# --------------------------------------------------------------------- #
def result_payload(result: SolverResult) -> Dict[str, Any]:
    """Flatten a result for the pipe: its scalars plus every statistic."""
    payload = dict(vars(result.statistics))
    payload.update(
        algorithm=result.algorithm,
        total_cost=result.total_cost,
        flows=result.flows,
        potentials=result.potentials,
        runtime_seconds=result.runtime_seconds,
        optimal=result.optimal,
        finished_at=time.monotonic(),
    )
    return payload


def result_from_payload(payload: Dict[str, Any]) -> SolverResult:
    """Rebuild the :class:`SolverResult` a worker answered with."""
    return SolverResult(
        algorithm=payload["algorithm"],
        total_cost=payload["total_cost"],
        flows=payload["flows"],
        potentials=payload["potentials"],
        runtime_seconds=payload["runtime_seconds"],
        statistics=SolverStatistics(
            **{name: payload[name] for name in _STATISTICS_FIELDS}
        ),
        optimal=payload["optimal"],
    )


# --------------------------------------------------------------------- #
# The subprocess
# --------------------------------------------------------------------- #
def _build_solver(name: str, kwargs: Dict[str, Any], attrs: Dict[str, Any]):
    from repro.solvers import make_solver  # the package imports this module

    solver = make_solver(name, **kwargs)
    for attr, value in attrs.items():
        setattr(solver, attr, value)
    return solver


def serve(
    conn, solver_name: str, solver_kwargs: Dict[str, Any], solver_attrs: Dict[str, Any]
) -> None:
    """Entry point of a persistent solver subprocess.

    Serves ``full`` / ``delta`` requests until a ``("shutdown",)`` message
    or pipe closure, answering each with ``("result", round_id, payload)``
    or ``("error", round_id, message)``.  ``("chaos_delay", seconds)`` is a
    one-way "sleep before the next round" message from the chaos harness.
    After an error the shadow and the solver may be half-patched, so both
    are dropped; the parent ships a full snapshot next.
    """
    solver = _build_solver(solver_name, solver_kwargs, solver_attrs)
    shadow: Optional[FlowNetwork] = None
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        kind = message[0]
        if kind == "shutdown":
            break
        if kind == "chaos_delay":
            time.sleep(message[1])
            continue
        round_id, text = message[1], message[2]
        try:
            if kind == "full":
                shadow = read_dimacs(text)
                shadow.revision = message[3]
                result = solver.solve(shadow)
            elif shadow is None:
                raise RuntimeError("delta request but no shadow network")
            else:
                base_revision, target_revision = message[3], message[4]
                parsed = read_incremental(text)
                apply_changes(shadow, parsed)
                shadow.revision = target_revision
                batch = ChangeBatch(
                    changes=parsed,
                    base_revision=base_revision,
                    target_revision=target_revision,
                )
                result = solver.solve(shadow, changes=batch)
            response = ("result", round_id, result_payload(result))
        except Exception as error:
            shadow = None
            solver = _build_solver(solver_name, solver_kwargs, solver_attrs)
            response = ("error", round_id, f"{type(error).__name__}: {error}")
        try:
            conn.send(response)
        except (BrokenPipeError, OSError):  # pragma: no cover - parent died
            break
    try:
        conn.close()
    except OSError:  # pragma: no cover
        pass


# --------------------------------------------------------------------- #
# The parent side
# --------------------------------------------------------------------- #
class SolverWorker:
    """Parent-side handle of one persistent solver subprocess.

    A request is only shipped to a worker that has answered every previous
    one.  Besides keeping a slow worker from falling ever further behind on
    abandoned rounds, this is a deadlock guard: an answered-up worker is
    parked in ``recv``, so the parent's blocking ``send`` always finds a
    reader.  Shipping while an abandoned round is still in flight could
    wedge both processes on large graphs -- parent blocked writing a request
    bigger than the pipe buffer, worker blocked writing the abandoned
    round's answer, neither reading.

    (Re)spawns are gated by the circuit breaker: process-level failures
    (spawn errors, worker death, broken pipes) back off and eventually trip
    it open, after which :meth:`ship` declines the round -- the caller
    solves it in-process -- until a probe round re-closes it.  Error
    *replies* are not failures: the process is alive; they only force the
    next payload to be a full snapshot.

    Args:
        solver_name: :func:`repro.solvers.make_solver` registry name of
            the worker's solver (e.g. ``"relaxation"`` for the racing
            executor, any cell solver spec for the scheduler's cells).
        solver_kwargs: Constructor arguments for that solver.
        solver_attrs: Attributes set on the solver after construction
            (e.g. relaxation's ``ascent_cap``).
        breaker: Health state machine; a default
            :class:`WorkerCircuitBreaker` when omitted.
    """

    def __init__(
        self,
        solver_name: str,
        solver_kwargs: Optional[Dict[str, Any]] = None,
        solver_attrs: Optional[Dict[str, Any]] = None,
        breaker: Optional[WorkerCircuitBreaker] = None,
    ) -> None:
        self.solver_name = solver_name
        self._solver_kwargs = dict(solver_kwargs or {})
        self._solver_attrs = dict(solver_attrs or {})
        self.breaker = breaker or WorkerCircuitBreaker()
        self.process = None
        self._conn = None
        self._unanswered: Set[int] = set()
        self._history = RevisionChainCache()
        #: Revision the worker's shadow mirrors (None forces a full snapshot).
        self._revision: Optional[int] = None
        #: The awaited round's answer, once it arrived.
        self._answer: Optional[Tuple[int, Dict[str, Any]]] = None
        self._error: Optional[str] = None
        self._broken = False
        self._spawned = False
        #: Payloads shipped as full DIMACS snapshots vs incremental deltas;
        #: ``resync_ships`` counts the deltas that bridged rounds the worker
        #: missed (a subset of ``delta_ships``).
        self.snapshot_ships = 0
        self.delta_ships = 0
        self.resync_ships = 0
        #: Worker processes spawned after the first.
        self.respawns = 0

    def reset_counters(self) -> None:
        """Zero the ship and respawn counters; the worker itself persists."""
        self.snapshot_ships = 0
        self.delta_ships = 0
        self.resync_ships = 0
        self.respawns = 0

    @property
    def busy(self) -> bool:
        """True while a shipped round is still unanswered."""
        return bool(self._unanswered)

    # -- lifecycle ----------------------------------------------------- #
    def begin_round(self, changes: Optional[ChangeBatch]) -> None:
        """Advance the breaker's round clock and remember the round's batch.

        Call once per round, including rounds that will not consult the
        worker: their batches are what a later resync payload composes.
        """
        self.breaker.note_round()
        if changes is not None:
            self._history.record(changes)

    def ensure(self) -> bool:
        """Return True when a live worker exists, spawning one if allowed."""
        if self._conn is not None:
            if self.process is None or self.process.is_alive():
                self.drain()
                if self._conn is not None:
                    return True
            else:
                self._fail()  # the worker died between rounds
        if not self.breaker.allow_attempt():
            return False
        try:
            import multiprocessing

            context = multiprocessing.get_context()
            parent_conn, child_conn = context.Pipe(duplex=True)
            process = context.Process(
                target=serve,
                args=(
                    child_conn, self.solver_name,
                    self._solver_kwargs, self._solver_attrs,
                ),
                daemon=True,
                name=f"repro-{self.solver_name}-worker",
            )
            process.start()
            child_conn.close()
        except Exception:
            self.breaker.record_failure()
            return False
        self._conn = parent_conn
        self.process = process
        self._unanswered = set()
        self._revision = None
        if self._spawned:
            self.respawns += 1
        self._spawned = True
        return True

    def drain(self) -> None:
        """Consume queued answers to abandoned rounds (non-blocking)."""
        self._broken = False
        self.poll(None)
        if self._broken:
            self._fail()

    def settle(self) -> None:
        """End-of-round health bookkeeping for a shipped round.

        Exactly one breaker update per round: mid-round sites that find the
        pipe broken only flag it, so one bad round cannot count twice
        against the breaker's threshold.
        """
        if self._broken:
            self._fail()
        else:
            self.breaker.record_success()

    def kill(self) -> None:
        """Terminate the worker process (chaos hook / tests)."""
        if self.process is not None and self.process.is_alive():
            self.process.terminate()

    def _fail(self) -> None:
        self.breaker.record_failure()
        self._teardown()

    def _teardown(self) -> None:
        conn, process = self._conn, self.process
        self._conn = None
        self.process = None
        self._unanswered = set()
        self._revision = None
        if conn is not None:
            try:
                conn.close()
            except OSError:
                pass
        if process is not None:
            if process.is_alive():
                process.terminate()
            process.join(timeout=2.0)

    def close(self) -> None:
        """Shut the worker down; idempotent, safe on a dead worker."""
        if self._conn is not None and not self._unanswered:
            try:
                self._conn.send(("shutdown",))
            except (BrokenPipeError, OSError):
                pass
            else:
                if self.process is not None:
                    self.process.join(timeout=2.0)
        self._teardown()

    # -- one round ----------------------------------------------------- #
    def ship(
        self,
        round_id: int,
        network: FlowNetwork,
        changes: Optional[ChangeBatch],
        chaos=None,
        chaos_round: int = 0,
    ) -> Optional[str]:
        """Send the round; return the payload kind (``"full"``/``"delta"``).

        ``None`` means the worker cannot take the round -- no worker (the
        breaker declined a spawn), still busy with an earlier round, or the
        send failed -- and the caller solves it in-process.
        """
        if not self.ensure() or self._unanswered:
            return None
        message, kind = self._encode(round_id, network, changes)
        if chaos is not None:
            message = self._send_chaos(chaos, chaos_round, message)
        try:
            self._conn.send(message)
        except (BrokenPipeError, OSError):
            self._fail()
            return None
        self._unanswered.add(round_id)
        self._answer = None
        self._error = None
        self._broken = False
        if kind == "full":
            self.snapshot_ships += 1
            self._revision = message[3]
        else:
            self.delta_ships += 1
            self._revision = message[4]
        if chaos is not None and chaos.fires("worker_kill", chaos_round):
            # The worker dies mid-round; poll/gather see the broken pipe.
            self.kill()
        return kind

    def _encode(
        self, round_id: int, network: FlowNetwork, changes: Optional[ChangeBatch]
    ) -> Tuple[tuple, str]:
        """Serialize the round: a delta whenever the revision chain connects.

        An incremental payload is legal when the history can compose the
        recorded batches from the exact revision the worker's shadow
        mirrors to the round's target revision -- the directly-chained case
        is a one-batch composition.  Anything else (cold start, respawn or
        error, a gap older than the history, unserializable batches,
        unrevisioned hand-built networks) ships a full snapshot.
        """
        # Only a revision-*tracked* round may ship incrementally: without a
        # batch whose revisions vouch for the graph's lineage, two
        # different networks could share a revision number (hand-built
        # networks default to 0) and an "empty delta" would make the
        # worker solve its stale shadow as if it were the new problem.
        # Full snapshots still stamp the network's own revision so the
        # next tracked round can chain onto them.
        target = None
        if (
            changes is not None
            and changes.base_revision is not None
            and changes.target_revision is not None
        ):
            target = changes.target_revision
        base = self._revision
        if base is not None and target is not None:
            composed = self._history.compose(
                base,
                target,
                max_changes=RESYNC_MAX_SNAPSHOT_MULTIPLE
                * (network.num_arcs + network.num_nodes),
            )
            if composed is not None:
                try:
                    text = write_incremental(
                        composed, base_revision=base, target_revision=target
                    )
                except (ValueError, TypeError):
                    pass  # e.g. a NodeAddition without an explicit node id
                else:
                    if base != changes.base_revision:
                        # The payload bridges rounds beyond this round's
                        # own batch: a resync of a broken chain.
                        self.resync_ships += 1
                    return ("delta", round_id, text, base, target), "delta"
        text = write_dimacs(network, include_node_types=False)
        revision = getattr(network, "revision", None)
        return ("full", round_id, text, revision), "full"

    def _send_chaos(self, chaos, chaos_round: int, message: tuple) -> tuple:
        """Deliver the round's send-path faults just before the ship.

        ``pipe_break`` closes the transport under the send (which then
        fails exactly like a real broken pipe); ``corrupt_message`` appends
        garbage the worker's parser rejects (the error-reply path);
        ``worker_delay`` slips a sleep request in front of the round.
        """
        if chaos.fires("pipe_break", chaos_round):
            self._conn.close()
            return message
        if chaos.fires("corrupt_message", chaos_round):
            message = (
                message[:2] + (message[2] + "\nthis is not DIMACS\n",) + message[3:]
            )
        if chaos.fires("worker_delay", chaos_round):
            self._conn.send(("chaos_delay", chaos.delay_seconds))
        return message

    def poll(self, round_id: Optional[int]) -> bool:
        """Drain the pipe without blocking; True once ``round_id`` answered.

        Answers to other rounds are stale and dropped.  Any error reply
        (this round's or a stale one) means the worker dropped its shadow,
        so the next payload is a full snapshot.  A broken pipe is flagged
        for :meth:`settle`.
        """
        if self._answer is not None and self._answer[0] == round_id:
            return True
        if self._broken:
            return False
        try:
            while self._conn.poll(0):
                kind, answered, body = self._conn.recv()
                self._unanswered.discard(answered)
                if kind == "error":
                    self._revision = None
                if answered != round_id:
                    continue
                if kind == "result":
                    self._answer = (answered, body)
                    return True
                self._error = body
        except (EOFError, OSError):
            self._broken = True
        return False

    def gather(self, round_id: int, timeout: float) -> Optional[Dict[str, Any]]:
        """Wait up to ``timeout`` seconds for the round's payload.

        ``None`` means the caller serves the round itself: the worker
        answered with an error, its pipe broke, or it is too slow (the
        round then stays unanswered, and the answered-up guard keeps the
        next ship away until it drains).
        """
        deadline = time.monotonic() + timeout
        while not self.poll(round_id):
            remaining = deadline - time.monotonic()
            if self._broken or self._error is not None or remaining <= 0:
                return None
            try:
                self._conn.poll(min(remaining, 0.05))
            except (EOFError, OSError):
                self._broken = True
                return None
        return self._answer[1]
