"""Run ``firmament-repro serve`` as the benchmark's system under test.

Usage: ``python3 perfbench/serve_child.py [--trace-out PREFIX] <serve args>``

With ``--trace-out`` the layers are wrapped by :mod:`tracing` before the
service starts; after it drains, the sampled rounds are re-solved from
scratch and ``PREFIX.spans.jsonl`` plus ``PREFIX.layers.json`` are
written.  The exit code is the ``serve`` command's own.
"""

from __future__ import annotations

import os
import sys

import tracing
from common import write_json


def main(argv) -> int:
    prefix = None
    if argv[:1] == ["--trace-out"]:
        prefix, argv = argv[1], argv[2:]
    recorder = tracing.install_service_hooks() if prefix else None

    from repro.cli.main import main as cli_main

    code = cli_main(["serve"] + argv)
    if recorder is not None:
        times = os.times()
        summary = tracing.service_summary(recorder)
        checked, mismatched = recorder.resolve_check()
        summary["solvers.resolve_checks"] = float(checked)
        summary["trace.spans"] = float(len(recorder.spans))
        summary["resolve_mismatches"] = mismatched
        # CPU up to the drain, before the re-solve check adds its own.
        summary["cpu_s_before_check"] = times.user + times.system
        recorder.dump(prefix + ".spans.jsonl")
        write_json(prefix + ".layers.json", summary)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
