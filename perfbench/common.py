"""Helpers shared by the benchmark's workloads.

Everything here runs from the root of a source checkout: the program under
test is imported from ``src/`` and every file the benchmark writes goes to
``.perfbench/`` beside it.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench")

#: Clock ticks per second for the CPU columns of /proc/<pid>/stat.
_CLK_TCK = os.sysconf("SC_CLK_TCK")


def work_path(*parts: str) -> str:
    """A path under the benchmark's scratch directory (created on demand)."""
    os.makedirs(WORK_DIR, exist_ok=True)
    return os.path.join(WORK_DIR, *parts)


def fresh_dir(*parts: str) -> str:
    """An empty directory under the scratch directory."""
    path = work_path(*parts)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile; 0.0 for an empty sequence."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = (len(ordered) - 1) * pct / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


#: Equal parts of the measured window that ``sliced_median`` splits it into.
SLICES = 5


def sliced_median(samples: Sequence[Tuple[float, float]], lo: float,
                  hi: float) -> float:
    """The median over equal slices of ``[lo, hi)`` of each slice's median.

    ``samples`` are ``(time, value)`` pairs; a sample falls in the slice
    its time lies in.  A burst of host contention that slows one slice of
    five moves that slice's median but hardly the median of the slices;
    over the pooled samples it would move the median up to the other
    samples' 62.5th percentile.
    """
    width = (hi - lo) / SLICES
    parts: List[List[float]] = [[] for _ in range(SLICES)]
    for at, value in samples:
        index = int((at - lo) // width)
        if 0 <= index < SLICES:
            parts[index].append(value)
    return median([median(part) for part in parts if part])


@dataclass
class ChildUsage:
    """Resource use of a finished child, from ``wait4`` at its exit.

    Linux folds the CPU time and peak RSS of every descendant the child
    itself reaped (its cell workers) into the figures ``wait4`` returns.
    """

    returncode: int
    cpu_s: float
    peak_rss_mb: float


class Child:
    """A subprocess of the program under test, accounted from outside."""

    def __init__(
        self, argv: List[str], log_path: str, stdin=subprocess.DEVNULL
    ) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC
        # One hash seed for every run, so set iteration orders inside the
        # program do not add their own run-to-run variation.
        env["PYTHONHASHSEED"] = "0"
        self.log_path = log_path
        with open(log_path, "w") as log:
            self.proc = subprocess.Popen(
                [sys.executable] + argv,
                stdin=stdin,
                stdout=subprocess.PIPE,
                stderr=log,
                text=True,
                env=env,
                cwd=ROOT,
            )
        self.usage: Optional[ChildUsage] = None

    @property
    def pid(self) -> int:
        return self.proc.pid

    def cpu_so_far(self) -> float:
        """CPU seconds the live child and its reaped children used so far."""
        with open(f"/proc/{self.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        # utime, stime, cutime, cstime are fields 14-17 (1-based) of the
        # whole line, i.e. 11-14 after the ")" that ends the command name.
        return sum(int(value) for value in fields[11:15]) / _CLK_TCK

    def wait(self, timeout: float) -> ChildUsage:
        """Reap the child with ``wait4``; kill it first if it overstays."""
        deadline = time.monotonic() + timeout
        while True:
            pid, status, rusage = os.wait4(self.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                self.proc.kill()
                pid, status, rusage = os.wait4(self.pid, 0)
                break
            time.sleep(0.02)
        code = os.waitstatus_to_exitcode(status)
        self.proc.returncode = code
        self.usage = ChildUsage(
            returncode=code,
            cpu_s=rusage.ru_utime + rusage.ru_stime,
            peak_rss_mb=rusage.ru_maxrss / 1024.0,
        )
        return self.usage

    def stop(self) -> None:
        """Kill and reap the child if it is still running (error paths)."""
        if self.usage is None and self.proc.returncode is None:
            self.proc.kill()
            self.wait(10.0)


def read_json(path: str) -> Dict:
    with open(path) as handle:
        return json.load(handle)


def write_json(path: str, payload: Dict) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as handle:
        json.dump(payload, handle)
    os.replace(tmp, path)
