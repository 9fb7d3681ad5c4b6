"""Open-loop load generator for the scheduler service's JSON-lines API.

Arrivals follow a seeded Poisson schedule fixed before the run, and each
submission goes out at its due time whether or not earlier ones were
answered: the offered load does not slow down when the server does.  All
submissions are pipelined on one connection, which also carries the
service's placement, completion and preemption stream for those tasks; a
second connection is used only for ``stats`` and ``shutdown``.

A task's latency runs from its submission's *due* time to the moment this
client reads its ``placement`` event, so a stall in the server, the
network or the generator itself is charged to every task due during it.
How late the generator actually sent is reported separately as lag.

The client also checks the stream from outside: no task is placed twice,
and no machine ever holds more tasks than it has slots.
"""

from __future__ import annotations

import asyncio
import json
import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional


def poisson_schedule(seed: str, rate: float, seconds: float) -> List[float]:
    """Due times (seconds from the start) of a Poisson arrival process.

    The process is conditioned on its expected count: exactly ``rate *
    seconds`` arrivals, placed uniformly at random and sorted.  A seed then
    changes when the jobs come, not how many there are, so the offered load
    is the same on every seed.
    """
    rng = random.Random(seed)
    return sorted(rng.uniform(0.0, seconds) for _ in range(round(rate * seconds)))


@dataclass
class StreamCheck:
    """Outside-in invariants over the notification stream."""

    slots_per_machine: int
    machine_load: Dict[int, int] = field(default_factory=dict)
    task_machine: Dict[int, int] = field(default_factory=dict)
    double_placements: int = 0
    oversubscriptions: int = 0

    def placed(self, task_id: int, machine_id: int) -> bool:
        """Record a placement; False if the task was already placed."""
        if task_id in self.task_machine:
            self.double_placements += 1
            return False
        self.task_machine[task_id] = machine_id
        load = self.machine_load.get(machine_id, 0) + 1
        self.machine_load[machine_id] = load
        if load > self.slots_per_machine:
            self.oversubscriptions += 1
        return True

    def left(self, task_id: int) -> None:
        """A task completed or was preempted: its slot is free again."""
        machine_id = self.task_machine.get(task_id)
        if machine_id is not None and self.machine_load.get(machine_id, 0) > 0:
            self.machine_load[machine_id] -= 1

    @property
    def violations(self) -> int:
        return self.double_placements + self.oversubscriptions


class ServiceClient:
    """One submission connection plus one control connection."""

    def __init__(self, host: str, port: int, slots_per_machine: int) -> None:
        self.host = host
        self.port = port
        self.check = StreamCheck(slots_per_machine)
        self._next_id = 0
        #: request id -> (due time, tasks requested), until acked.
        self._pending_acks: Dict[int, tuple] = {}
        #: task_id -> due time of the submission that created it.
        self.task_due: Dict[int, float] = {}
        #: task_id -> (client receipt time, server-reported latency field).
        self.placements: Dict[int, tuple] = {}
        self.tasks_sent = 0
        self.tasks_refused = 0
        self.tasks_rejected = 0
        self.errors = 0
        self.lags: List[float] = []
        self._progress = asyncio.Event()

    async def connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port, limit=1 << 22
        )
        self._ctl_reader, self._ctl_writer = await asyncio.open_connection(
            self.host, self.port, limit=1 << 22
        )
        self._pump = asyncio.create_task(self._read_stream())

    async def _read_stream(self) -> None:
        while True:
            line = await self._reader.readline()
            if not line:
                return
            received = time.perf_counter()
            event = json.loads(line)
            kind = event.get("event")
            if kind == "placement":
                task_id = event["task_id"]
                if self.check.placed(task_id, event["machine_id"]):
                    self.placements[task_id] = (received, event["latency"])
            elif kind in ("completion", "preemption"):
                self.check.left(event["task_id"])
            elif kind == "ack":
                request = self._pending_acks.pop(event.get("id"), None)
                if request is not None:
                    due, requested = request
                    task_ids = event.get("task_ids") or []
                    if event.get("accepted", 0) != requested:
                        self.tasks_refused += requested
                        task_ids = []
                    for task_id in task_ids:
                        self.task_due[task_id] = due
            elif kind == "rejected":
                self.tasks_rejected += len(event.get("task_ids", []))
            elif kind == "error":
                self.errors += 1
            self._progress.set()

    def _submit(self, due: float, tasks: int, job_type: str,
                duration: Optional[float]) -> None:
        self._next_id += 1
        self._pending_acks[self._next_id] = (due, tasks)
        request: Dict[str, Any] = {
            "op": "submit", "id": self._next_id, "tasks": tasks,
            "job_type": job_type,
        }
        if duration is not None:
            request["duration"] = duration
        self._writer.write(json.dumps(request).encode() + b"\n")
        self.tasks_sent += tasks

    async def run_schedule(self, start: float, schedule: List[float], tasks: int,
                           job_type: str, duration: Optional[float]) -> None:
        """Send one job per due time (offsets from ``start``), open loop."""
        for offset in schedule:
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            self.lags.append(time.perf_counter() - due)
            self._submit(due, tasks, job_type, duration)
            await self._writer.drain()

    def unplaced(self) -> int:
        """Tasks sent that have not been placed yet."""
        return self.tasks_sent - len(self.placements)

    async def settle(self, timeout: float) -> bool:
        """Wait until every task sent so far is acked and placed."""
        deadline = time.perf_counter() + timeout
        while self._pending_acks or self.unplaced() > (
            self.tasks_refused + self.tasks_rejected
        ):
            remaining = deadline - time.perf_counter()
            if remaining <= 0 or self._pump.done():
                return False
            self._progress.clear()
            try:
                await asyncio.wait_for(self._progress.wait(), remaining)
            except asyncio.TimeoutError:
                return False
        return True

    async def control(self, op: str) -> Dict[str, Any]:
        """Send a control op on the second connection; return its reply."""
        self._ctl_writer.write(json.dumps({"op": op, "id": op}).encode() + b"\n")
        await self._ctl_writer.drain()
        while True:
            line = await self._ctl_reader.readline()
            if not line:
                raise ConnectionError(f"server closed during {op}")
            event = json.loads(line)
            if event.get("id") == op:
                return event

    async def close(self, timeout: float) -> None:
        """After ``shutdown``: read the stream to its end, then hang up."""
        try:
            await asyncio.wait_for(self._pump, timeout)
        except asyncio.TimeoutError:
            self._pump.cancel()
        for writer in (self._writer, self._ctl_writer):
            writer.close()
