"""``repro serve`` with a probe that records each request's CPU time.

Usage: ``python3 perfbench/serve_main.py SPAN_DIR [repro serve args...]``

Runs the same daemon as ``python -m repro serve``; the only additions
are a ``time.thread_time`` span around ``ServeDaemon.handle_optimize``
and speed probes (``probe.py``) just before and after it, both
labelled by the client's ``X-Bench-Id`` header (requests without one
are not probed) and written to ``SPAN_DIR`` when the daemon exits
(after its SIGTERM drain).
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import tracer


def main() -> int:
    span_dir, args = sys.argv[1], sys.argv[2:]
    recorder = tracer.Recorder(Path(span_dir), clock=time.thread_time)
    tracer.install_handler_probe(recorder)
    from repro.cli import main as repro_main

    try:
        return repro_main(["serve", *args])
    finally:
        recorder.flush()


if __name__ == "__main__":
    sys.exit(main())
