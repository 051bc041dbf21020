"""Wrapper liveness: every layer a workload mostly exercises must fire.

Runs each workload's traced mode on a short slice (one kernel, a
30-example corpus) and asserts calls > 0 for the wrappers the
benchmark reads on that workload, so a rename under ``src/`` cannot
silently zero a layer.  Run with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent / "run.py"

#: workload -> layers that must record calls on it
MOSTLY_ON = {
    "polybench-cold": (
        "synthesis.synthesize", "compilers.pluto", "analysis.dependences",
        "analysis.legality", "analysis.parallel", "retrieval.index",
        "retrieval.rank", "llm.generate", "ir.validate",
        "testing.ground_truth", "testing.check", "runtime.execute",
        "machine.estimate", "storage.read", "storage.append"),
    "tsvc-served": (
        "retrieval.rank", "llm.generate", "ir.validate",
        "testing.ground_truth", "testing.check", "runtime.execute",
        "storage.read", "storage.append", "serve.admission_wait",
        "serve.journal", "serve.handle"),
    "lore-batch": (
        "compilers.pluto", "analysis.dependences", "retrieval.rank",
        "llm.generate", "ir.validate", "testing.check",
        "runtime.execute", "machine.estimate", "storage.append"),
}


def traced_slice(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "1", "--limit", "1",
         "--dataset-size", "30"],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(MOSTLY_ON))
def test_wrappers_fire(workload):
    result = traced_slice(workload)
    assert result["correct"] and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    silent = [layer for layer in MOSTLY_ON[workload]
              if not metrics[f"{layer}.calls"] > 0]
    assert not silent, f"wrappers recorded no calls: {silent}"
    assert "trace.overhead_s" in metrics
    if workload == "lore-batch":
        assert metrics["evaluation.pool.utilization"] > 0
        assert metrics["analysis.dependences.hit_ratio"] > 0
