"""End-to-end LOOPRAG benchmark: one workload per invocation.

    python3 perfbench/run.py --workload polybench-cold --seed 0 \\
        --seconds 10 --trace 0

Workloads (BENCHMARK.json says why each exists; README.md has details):

* ``polybench-cold`` — in-process, from an empty cache dir: cold start
  (corpus synthesis + PLuTo + store append + retriever index), then the
  30 PolyBench kernels as LOOPRAG/deepseek misses.
* ``tsvc-served`` — ``repro serve`` (default config) as a subprocess
  over a pre-seeded corpus; closed loop of two client threads sending
  84 TSVC kernels x {deepseek, gpt4} as misses, then as journal hits.
* ``lore-batch`` — in-process ``optimize_many`` with two forked jobs
  over 49 LORE kernels x {LOOPRAG/deepseek, LOOPRAG/gpt4,
  basellm/deepseek, compiler/pluto}; batches repeat (at least three)
  until ``--seconds`` have passed, each on a fresh result store.

Store hits of the in-process workloads run in a fresh process against
the store a measuring process left behind.  ``setup_s`` is the median
over three fresh processes.  Every timing is CPU time, rescaled by a
speed probe timed next to it to a reference host's speed (probe.py).

The seed sets the request order of the served and batch workloads and
the inputs of the reference-engine re-run; polybench-cold keeps suite
order (see worker.py).  Corpus and sessions keep the defaults a user
gets.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
measuring pass untraced and then traced (same configuration; the
served daemon runs inside the bench process so the wrappers see it)
and prints the per-layer metrics plus the tracing overhead.  Every run
checks outputs and exits 1 if a check fails.  The last stdout line is
the JSON result.
"""

from __future__ import annotations

import argparse
import fcntl
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

WORKLOADS = ("polybench-cold", "tsvc-served", "lore-batch")
#: probe.REFERENCE_S, which run.py reports but does not need to import
REFERENCE_PROBE_S = 0.005
#: fresh processes whose set-up time gives the median `setup_s`; the
#: first also runs the measured phases (a miss phase runs once per
#: process: memo caches are warm after it)
SETUPS = 3
DATASET_SIZE = 400
#: ambient knobs that would change what is measured
CLEARED_PREFIX = "REPRO_"

#: end-to-end metric -> unit; every timing is CPU time rescaled to the
#: reference host's speed (README.md, "Timings")
UNITS = {
    "setup_s": "s",
    "request_cpu_p50_ms": "ms",
    "request_cpu_tail_ms": "ms",
    "requests_per_cpu_s": "1/s",
    "hit_cpu_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "pass_rate": "ratio",
    "speedup_geomean": "x",
}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def clean_env(cache_dir: Path) -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(CLEARED_PREFIX)}
    env["PYTHONPATH"] = str(SRC)
    # results never depend on it; timings vary less with it fixed
    env["PYTHONHASHSEED"] = "0"
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    return env


def run_child(spec: Dict[str, Any], tmp: Path, timeout: float) -> dict:
    """Run worker.py in its own session; kill the whole group on exit."""
    name = f"{spec['role']}-{len(list(tmp.glob('spec-*.json')))}"
    spec_path = tmp / f"spec-{name}.json"
    spec["out"] = str(tmp / f"out-{name}.json")
    spec_path.write_text(json.dumps(spec))
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), str(spec_path)],
        env=clean_env(Path(spec["cache_dir"])), cwd=str(tmp),
        start_new_session=True)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        code = None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if code != 0:
        raise RuntimeError(f"{spec['role']} child for {spec['workload']} "
                           f"{'timed out' if code is None else f'exited {code}'}")
    return json.loads(Path(spec["out"]).read_text())


def source_key() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def prepared(dataset_size: int, limit: Optional[int]) -> Path:
    """Corpus + expected documents for this source tree, built once."""
    WORK.mkdir(exist_ok=True)
    kind = f"prep-n{dataset_size}-l{limit}-"
    prep = WORK / f"{kind}{source_key()}"
    with open(WORK / "prep.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if (prep / "expected.json").exists():
            return prep
        for stale in WORK.glob(f"{kind}*"):  # older source trees
            shutil.rmtree(stale, ignore_errors=True)
        (prep / "cache").mkdir(parents=True)
        log(f"preparing corpus and expected documents in {prep.name} "
            f"(once per source tree)")
        spec = {"role": "prepare", "workload": "prepare",
                "dataset_size": dataset_size, "limit": limit,
                "cache_dir": str(prep / "cache")}
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            expected = run_child(spec, Path(tmp), timeout=800)
        (prep / "expected.tmp").write_text(json.dumps(expected))
        (prep / "expected.tmp").rename(prep / "expected.json")
    return prep


def seeded_cache(prep: Path, dest: Path) -> Path:
    """A fresh cache dir holding only the prepared corpus stream."""
    shutil.copytree(prep / "cache" / "store" / "datasets",
                    dest / "store" / "datasets")
    return dest


def tail(latencies: List[float]):
    """(value, percentile): the highest percentile with >= 10 beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    idx = n - 11 if n > 10 else n - 1
    return ordered[idx], 100.0 * (idx + 1) / n


def per_request(samples, pick=min) -> List[float]:
    """Each request's ``pick`` over its (request id, seconds) samples;
    infinite if any sample failed."""
    grouped: Dict[str, List[float]] = {}
    for rid, seconds in samples:
        grouped.setdefault(rid, []).append(seconds)
    return [max(v) if math.inf in v else pick(v) for v in grouped.values()]


def combine(full: dict, hit_runs: List[dict]) -> dict:
    """One run's figures from its measuring child and hit children.

    Timings are CPU seconds rescaled to the reference host (README.md,
    "Timings").  A miss's time is the least of its samples (one per
    lore batch), and the throughput is the fastest batch's; a hit's
    time is the median of its many samples, which the noise of the
    probes that rescale them would pull down if the least were kept.
    A failed sample makes a request's time infinite.
    """
    run = dict(full)
    run["miss"] = dict(full["miss"],
                       latencies=per_request(full["miss"]["latencies"]))
    run["rate"] = max(ok / cpu for ok, cpu in full["passes"])
    run["hit"] = {k: sum(h["hit"][k] for h in hit_runs)
                  for k in ("sent", "ok", "failed", "wall")}
    hits = per_request((sample for h in hit_runs
                        for sample in h["hit"]["latencies"]),
                       statistics.median)
    run["hit_p50_s"] = statistics.median(hits) if hits else 0.0
    run["errors"] = full["errors"] + [e for h in hit_runs if h is not full
                                      for e in h["errors"]]
    return run


def end_to_end(setups: List[float], run: dict) -> Dict[str, float]:
    latencies = run["miss"]["latencies"]
    return {
        "setup_s": statistics.median(setups),
        "request_cpu_p50_ms": 1000 * statistics.median(latencies),
        "request_cpu_tail_ms": 1000 * tail(latencies)[0],
        "requests_per_cpu_s": run["rate"],
        "hit_cpu_p50_ms": 1000 * run["hit_p50_s"],
        "peak_rss_mb": run["rss_mb"],
        "pass_rate": run["pass_rate"],
        "speedup_geomean": run["speedup_geomean"],
    }


def report(workload: str, seed: int, run: dict) -> None:
    """Human-readable lines (stdout, before the JSON result)."""
    miss, hit = run["miss"], run["hit"]
    _, pct = tail(miss["latencies"])
    sent = miss["sent"] + hit["sent"]
    failed = miss["failed"] + hit["failed"]
    print(f"# {workload} seed={seed} digest={run['digest']} "
          f"reference_reruns={run['reference_checked']}")
    print(f"# request_cpu_tail_ms is p{pct:.1f} of "
          f"{len(miss['latencies'])} requests")
    print(f"# median speed probe {1000 * run['probe_s']:.3f} ms "
          f"(reference {1000 * REFERENCE_PROBE_S:g} ms); wall clock of "
          f"the same process (not a metric: it varies with the host's "
          f"load): " + ", ".join(
              f"{k} {v:.4g}" for k, v in sorted(run["wall"].items())))
    for name in ("miss", "hit"):
        p = run[name]
        print(f"# phase {name}: sent={p['sent']} succeeded={p['ok']} "
              f"failed={p['failed']} wall={p['wall']:.3f}s")
    print(f"# error_rate {failed / sent if sent else 0.0:.4f} ratio")
    if run.get("aliased"):
        print(f"# known defect: {len(run['aliased'])} served documents "
              f"carry the event log of another kernel with the same "
              f"fingerprint: {' '.join(sorted(run['aliased']))}")
    for error in run["errors"][:20]:
        print(f"# CHECK FAILED: {error}")


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # a short slice for the benchmark's own tests
    ap.add_argument("--limit", type=int, default=None,
                    help=argparse.SUPPRESS)
    ap.add_argument("--dataset-size", type=int, default=DATASET_SIZE,
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    # a SIGTERM unwinds through the `finally` blocks that stop children
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "repro" / "__init__.py").is_file():
        log(f"no repro sources under {SRC}; run from a full checkout")
        return 2

    prep = prepared(args.dataset_size, args.limit)
    expected = prep / "expected.json"
    jobs = min(2, len(os.sched_getaffinity(0)))  # never more than nproc
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                dir=WORK / "tmp"))
    try:
        def spec(role: str, trace: bool, n: int,
                 cache: Optional[Path] = None) -> Dict[str, Any]:
            if cache is None:
                cache = tmp / f"cache-{role}-{n}-{int(trace)}"
                if args.workload == "polybench-cold":
                    cache.mkdir()
                else:
                    seeded_cache(prep, cache)
            return {"role": role, "workload": args.workload,
                    "seed": args.seed, "seconds": args.seconds,
                    "trace": trace, "jobs": jobs, "limit": args.limit,
                    "dataset_size": args.dataset_size,
                    "cache_dir": str(cache), "tmp": str(tmp),
                    "span_dir": str(tmp / f"spans-{role}-{n}-{int(trace)}"),
                    "expected_path": str(expected),
                    "in_process_daemon": bool(args.trace)}

        if args.trace:
            plain = run_child(spec("full", False, 0), tmp, timeout=170)
            traced = run_child(spec("full", True, 0), tmp, timeout=170)
            # the in-process workloads' hits run untraced, in their own
            # process: the traced run reports misses only
            run = combine(traced, [traced] if "hit" in traced else [])
            metrics = dict(traced["layers"])
            overhead = traced["miss"]["wall"] - plain["miss"]["wall"]
            metrics["trace.overhead_s"] = overhead
            metrics["trace.overhead_ratio"] = overhead / plain["miss"]["wall"]
            units = {k: layer_unit(k) for k in metrics}
        else:
            full = run_child(spec("full", False, 0), tmp, timeout=170)
            setups, hit_runs = [full["setup_s"]], []
            for n in range(SETUPS):
                if n:
                    setups.append(run_child(spec("setup", False, n), tmp,
                                            timeout=120)["setup_s"])
                # the served workload's journal hits ran in the full
                # child; in-process store hits run in a fresh process
                # after every step, on the full child's store
                if "hit" in full:
                    hit_runs = [full]
                else:
                    hit_runs.append(run_child(
                        spec("hits", False, n, Path(full["store_dir"])),
                        tmp, timeout=120))
            run = combine(full, hit_runs)
            metrics = end_to_end(setups, run)
            units = UNITS
    except RuntimeError as exc:
        log(f"benchmark failed: {exc}")
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    report(args.workload, args.seed, run)
    miss, hit = run["miss"], run["hit"]
    correct = not run["errors"]
    print(json.dumps({
        "correct": correct,
        "attempted": miss["sent"] + hit["sent"],
        "failed": miss["failed"] + hit["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }), flush=True)
    return 0 if correct else 1


def layer_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith("_s"):
        return "s"
    return "ratio"


if __name__ == "__main__":
    sys.exit(main())
