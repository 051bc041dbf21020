"""One workload (or one preparation step) in a fresh child process.

Usage: ``python3 perfbench/worker.py SPEC.json`` where the spec names
the role (``prepare``, ``setup`` or ``full``), the workload, seed,
seconds, trace flag, cache dir and output path; ``run.py`` writes the
spec and reads the JSON result back.  The environment arrives already
cleaned (no ambient ``REPRO_*`` knobs) with ``REPRO_CACHE_DIR`` set.

Every workload drives only public entry points —
``OptimizerSession.optimize``/``optimize_many`` and ``repro serve``
over HTTP — and measures layers through the wrappers of ``tracer.py``.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import checks
import probe
import tracer

HERE = Path(__file__).resolve().parent

#: the session default a `repro serve` request gets
DEFAULT_DATASET_SIZE = 400
#: the serve workload's priming request (outside the measured set)
PRIME_KERNEL = "jacobi-1d"
#: workload -> (suite, [(system, persona, optimizer)])
MIXES = {
    "polybench-cold": ("polybench", [("looprag", "deepseek", None)]),
    "tsvc-served": ("tsvc", [("looprag", "deepseek", None),
                             ("looprag", "gpt4", None)]),
    "lore-batch": ("lore", [("looprag", "deepseek", None),
                            ("looprag", "gpt4", None),
                            ("basellm", "deepseek", None),
                            ("compiler", None, "pluto")]),
}


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_s() -> float:
    """CPU seconds of this process and its reaped children (pool
    workers).  Timings are CPU time: on a shared host, wall time
    mostly measures how long the scheduler kept the process waiting."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def suite_sources(suite: str) -> Dict[str, Tuple[str, dict, dict]]:
    """Kernel name -> (SCoP source, perf, test) as a client sends it.

    The suite functions re-exported by ``repro.suites`` shadow their
    modules, so the module is looked up in ``sys.modules``.
    """
    import repro.suites  # noqa: F401

    module = sys.modules[f"repro.suites.{suite}"]
    return {name: (source, dict(perf), dict(test))
            for name, source, perf, test in module._K}


def build_requests(workload: str, limit: Optional[int] = None):
    """[(request id, OptimizationRequest, Benchmark)] in suite order."""
    from repro.api import OptimizationRequest
    from repro.suites import SUITES

    suite_name, mix = MIXES[workload]
    benches = list(SUITES[suite_name]())[:limit]
    out = []
    for bench in benches:
        for system, persona, optimizer in mix:
            request = OptimizationRequest.make(
                bench.program, bench.perf, bench.test, system=system,
                persona=persona or "deepseek", optimizer=optimizer)
            out.append((request_id(request), request, bench))
    return out


def serve_body(entry: dict, spec: dict) -> dict:
    """The POST body: the daemon's default session unless sliced."""
    body: Dict[str, Any] = {"request": entry}
    if spec["dataset_size"] != DEFAULT_DATASET_SIZE:
        body["session"] = {"dataset_size": spec["dataset_size"]}
    return body


def serve_entries(limit: Optional[int] = None):
    """[(request id, request entry)] for the served workload."""
    _, mix = MIXES["tsvc-served"]
    entries = []
    for name, (source, perf, test) in list(
            suite_sources("tsvc").items())[:limit]:
        for system, persona, _ in mix:
            entries.append((f"{name}/{system}/{persona}", {
                "source": source, "system": system, "persona": persona,
                "perf": perf, "test": test}))
    return entries


def prime_entry() -> dict:
    source, perf, test = suite_sources("polybench")[PRIME_KERNEL]
    return {"source": source, "system": "looprag", "persona": "deepseek",
            "perf": perf, "test": test}


def request_id(request) -> str:
    """The id :func:`build_requests` gives a request (kernel names are
    unique per suite, so the program name stands for the benchmark)."""
    who = request.optimizer if request.system == "compiler" \
        else request.persona_name()
    return f"{request.program.name}/{request.system}/{who}"


def shuffled(items: List, seed: int) -> List:
    items = list(items)
    random.Random(seed).shuffle(items)
    return items


def result_failed(result) -> bool:
    return result.failure is not None


def quality(results) -> Tuple[float, float]:
    """(pass rate, geometric-mean speedup over passed requests)."""
    passed = [r.speedup for r in results if r.passed]
    rate = len(passed) / len(results) if results else 0.0
    geo = (math.exp(sum(math.log(s) for s in passed) / len(passed))
           if passed and all(s > 0 for s in passed) else 0.0)
    return rate, geo


# ----------------------------------------------------------------------
# preparation: the warm corpus and the in-process reference documents
# ----------------------------------------------------------------------
def prepare(spec: dict) -> dict:
    """Build the corpus once and record every expected document.

    Expected documents come from plain serial
    ``OptimizerSession.optimize`` calls (store off); the served
    workload's come from ``ServeDaemon.materialize_request(entry)``,
    and keep the best program's exact serialization so each served
    answer can be re-run under the reference engine.
    """
    from repro.api import OptimizerSession
    from repro.serve.daemon import ServeDaemon

    limit = spec.get("limit")
    session = OptimizerSession(dataset_size=spec["dataset_size"],
                               use_store=False)
    _ = session.retriever
    expected: Dict[str, Dict[str, Any]] = {}
    for workload in ("polybench-cold", "lore-batch"):
        docs = {}
        for rid, request, _bench in build_requests(workload, limit):
            docs[rid] = checks.doc_bytes(
                session.optimize(request).to_json_dict()).decode()
        expected[workload] = {"docs": docs}
    docs, programs = {}, {}
    for rid, entry in serve_entries(limit):
        result = session.optimize(ServeDaemon.materialize_request(entry))
        docs[rid] = checks.doc_bytes(result.to_json_dict()).decode()
        programs[rid] = result.to_payload()["best_program"]
    expected["tsvc-served"] = {"docs": docs, "programs": programs}
    return expected


# ----------------------------------------------------------------------
# shared helpers for the in-process workloads
# ----------------------------------------------------------------------
def timed_setup(spec: dict):
    """(session, out): imports, corpus (built cold or loaded), index and
    session; ``out`` holds their CPU seconds, rescaled by probes taken
    before and after, and, for information, their wall seconds."""
    before = probe.calibrate()
    wall, cpu = time.perf_counter(), cpu_s()
    from repro.api import OptimizerSession

    session = OptimizerSession(dataset_size=spec["dataset_size"])
    _ = session.retriever
    cpu, wall = cpu_s() - cpu, time.perf_counter() - wall
    speed = (before + probe.calibrate()) / 2
    return session, {"setup_s": probe.rescale(cpu, speed),
                     "wall": {"setup_s": wall}}


def check_docs(label: str, got: Dict[str, bytes],
               want: Dict[str, str], errors: List[str]) -> None:
    for rid, body in got.items():
        if body != want[rid].encode():
            errors.append(f"{label}: {rid} differs from the in-process "
                          f"document")


def phase(sent: int, ok: int, latencies: List[float], wall: float) -> dict:
    return {"sent": sent, "ok": ok, "failed": sent - ok,
            "latencies": latencies, "wall": wall}


# ----------------------------------------------------------------------
# polybench-cold
# ----------------------------------------------------------------------
def run_polybench_cold(spec: dict, rec: Optional[tracer.Recorder]) -> dict:
    session, out = timed_setup(spec)
    if spec["role"] == "setup":
        return out
    # suite order, whatever the seed: serial in-process requests return
    # the same results in any order, but the order decides which memo
    # entries are resident at the memory peak (peak RSS moved 18% across
    # seeds); the seed still picks the reference re-run's inputs
    requests = build_requests("polybench-cold", spec.get("limit"))
    miss_docs: Dict[str, bytes] = {}
    results, cpus, wall_lat, probes, ok = [], [], [], [], 0
    window = time.perf_counter()
    for rid, request, bench in requests:
        probes.append(probe.probe_s())
        start, cpu = time.perf_counter(), time.thread_time()
        try:
            with tracer.request_scope(rec):
                result = session.optimize(request)
        except Exception as exc:  # counted, never fatal
            out.setdefault("errors", []).append(f"{rid} raised {exc!r}")
            cpus.append((rid, math.inf))
            continue
        cpus.append((rid, time.thread_time() - cpu))
        wall_lat.append(time.perf_counter() - start)
        results.append((rid, result, bench))
        miss_docs[rid] = checks.doc_bytes(result.to_json_dict())
        ok += 0 if result_failed(result) else 1
    miss_end = time.perf_counter()
    probes.append(probe.probe_s())
    lat = [(rid, probe.rescale(cpu, speed)) for (rid, cpu), speed
           in zip(cpus, probe.bracketed(probes))]
    out["miss"] = phase(len(requests), ok, lat, miss_end - window)
    out["miss_window"] = (window, miss_end)
    out["probe_s"] = statistics.median(probes)
    out["busy_s"] = sum(wall_lat)  # the traced shares' denominator
    # throughput: passed requests over the CPU time all of them took
    out["passes"] = [(ok, sum(x for _, x in lat if x != math.inf))]
    out["wall"].update(
        request_p50_ms=1000 * statistics.median(wall_lat) if wall_lat else 0,
        requests_per_s=ok / (miss_end - window))
    out["store_dir"] = os.environ["REPRO_CACHE_DIR"]
    finish_in_process(out, results, miss_docs, spec)
    return out


#: a hit phase lasts at least this long, so its median has samples
HIT_SECONDS = 2.0


def run_hits(spec: dict, rec: Optional[tracer.Recorder]) -> dict:
    """Identical requests against a store a full child left behind.

    Hits run in a fresh process: measured in the process that had just
    run the misses, their median moved by a third between runs.  A hit
    never loads the corpus.
    """
    from repro.api import OptimizerSession

    requests = build_requests(spec["workload"], spec.get("limit"))
    expected = spec["expected"]["docs"]
    session = OptimizerSession(dataset_size=spec["dataset_size"])
    errors: List[str] = []
    lat, sent, ok = [], 0, 0
    start_phase = time.perf_counter()
    while True:
        # hits are short: probes around each round of them
        before, cpus = probe.probe_s(), []
        for rid, request, _bench in requests:
            cpu = time.thread_time()
            result = session.optimize(request)
            cpus.append((rid, time.thread_time() - cpu))
            sent += 1
            if not result.from_cache:
                errors.append(f"hit phase: {rid} was not a store hit")
            elif checks.doc_bytes(result.to_json_dict()) != \
                    expected[rid].encode():
                errors.append(f"hit phase: {rid} differs from its miss")
            else:
                ok += 1
        speed = (before + probe.probe_s()) / 2
        lat += [(rid, probe.rescale(cpu, speed)) for rid, cpu in cpus]
        if time.perf_counter() - start_phase >= HIT_SECONDS:
            break
    return {"hit": phase(sent, ok, lat, time.perf_counter() - start_phase),
            "errors": errors[:20]}


def finish_in_process(out: dict, results, miss_docs, spec) -> None:
    """Quality numbers, digest and the correctness checks."""
    errors = out.setdefault("errors", [])
    expected = spec["expected"]["docs"]
    check_docs("miss phase", miss_docs, expected, errors)
    if len(miss_docs) != len(expected):
        errors.append(f"{len(expected) - len(miss_docs)} requests "
                      f"returned no document")
    out["pass_rate"], out["speedup_geomean"] = quality(
        [r for _, r, _ in results])
    out["digest"] = checks.digest(miss_docs)
    pairs = [(rid, bench.program, r.best_program, bench.test)
             for rid, r, bench in results if r.best_program is not None]
    checked, mismatches = checks.rerun_reference(pairs, spec["seed"])
    out["reference_checked"] = checked
    errors.extend(mismatches)
    out["rss_mb"] = rss_mb()


# ----------------------------------------------------------------------
# lore-batch
# ----------------------------------------------------------------------
#: lore batches repeat until --seconds have passed, and at least this
#: often, so each request has several latency samples
MIN_BATCHES = 3


def run_lore_batch(spec: dict, rec: Optional[tracer.Recorder]) -> dict:
    session, out = timed_setup(spec)
    if spec["role"] == "setup":
        return out
    # untraced, each request's CPU time inside its pool worker, with
    # speed probes around it in the same worker; each batch's workers
    # write their spans to the batch's own directory
    service = rec or tracer.Recorder(Path(spec["span_dir"]),
                                     clock=time.thread_time)
    if rec is None:
        tracer.install_service_probe(service, request_id, probed=True)
    jobs = spec["jobs"]
    requests = shuffled(build_requests("lore-batch", spec.get("limit")),
                        spec["seed"])
    plain = [r for _, r, _ in requests]
    errors = out.setdefault("errors", [])
    batches, lat, probes, first, raised = [], [], [], None, 0
    window = time.perf_counter()
    root = Path(os.environ["REPRO_CACHE_DIR"])
    while len(batches) < MIN_BATCHES or \
            time.perf_counter() - window < spec["seconds"]:
        # each batch writes a fresh result store, so every request of
        # every batch misses; forked workers start from the parent's
        # (untouched) memo caches, so batches cost the same
        os.environ["REPRO_CACHE_DIR"] = str(root / f"batch-{len(batches)}")
        if rec is None:
            service.out_dir = Path(spec["span_dir"]) / f"b{len(batches)}"
            service.out_dir.mkdir()
        start, cpu = time.perf_counter(), cpu_s()
        try:
            results = session.optimize_many(plain, jobs=jobs)
        except Exception as exc:
            errors.append(f"batch {len(batches)} raised {exc!r}")
            raised = 1
            break
        # the pool's workers are reaped when optimize_many returns, so
        # their CPU time (and their spans) are in by now
        end, cpu = time.perf_counter(), cpu_s() - cpu
        if rec is None:
            spans = tracer.load_spans(service.out_dir)
            lat += tracer.rescaled(spans, "api.execute")
            speed = [s[3] for s in spans if s[0] == "speed.probe"]
            probes += speed
            # two probes, noted as their mean, ran around each request
            cpu = probe.rescale(cpu - 2 * sum(speed),
                                statistics.median(speed))
        batches.append((start, end, cpu))
        docs = {rid: checks.doc_bytes(r.to_json_dict())
                for (rid, _, _), r in zip(requests, results)}
        if first is None:
            first = (results, docs)
        elif docs != first[1]:
            errors.append(f"batch {len(batches)} differs from batch 1")
        results = docs = None  # only the first batch is kept
    miss_end = time.perf_counter()
    if rec is not None:
        rec.flush()
        lat = [(s[8], s[2] - s[1])
               for s in tracer.load_spans(Path(spec["span_dir"]))
               if s[0] == "api.execute"]
    results, miss_docs = first if first else ([], {})
    sent = len(requests) * (len(batches) + raised)
    ok = sum(not result_failed(r) for r in results) * len(batches)
    out["miss"] = phase(sent, ok, lat, miss_end - window)
    out["miss_window"] = (window, miss_end)
    out["pool_wall_s"] = sum(b - a for a, b, _ in batches)
    out["passes"] = [(ok // len(batches), cpu) for _, _, cpu in batches]
    out["probe_s"] = statistics.median(probes) if probes else 0.0
    out["wall"]["requests_per_s"] = max(
        (ok // len(batches) / (b - a) for a, b, _ in batches), default=0)
    out["store_dir"] = os.environ["REPRO_CACHE_DIR"]
    finish_in_process(out, [(rid, r, b) for (rid, _, b), r
                            in zip(requests, results)], miss_docs, spec)
    return out


# ----------------------------------------------------------------------
# tsvc-served
# ----------------------------------------------------------------------
class Daemon:
    """``repro serve`` as a subprocess, or in this process when traced.

    The subprocess runs through ``serve_main.py``, which records each
    request's CPU time in the daemon, and speed probes around it, under
    the ``X-Bench-Id`` header a client sends (:meth:`timings` reads them
    once the daemon has stopped).
    """

    def __init__(self, spec: dict) -> None:
        self.in_process = spec["in_process_daemon"]
        self.proc: Optional[subprocess.Popen] = None
        self.daemon = None
        self.cpu0 = time.process_time()
        self.span_dir = Path(spec["span_dir"])
        if self.in_process:
            from repro.serve import ServeConfig, ServeDaemon

            self.daemon = ServeDaemon(ServeConfig.from_env(port=0))
            self.host, self.port = self.daemon.start()
            return
        log = open(Path(spec["tmp"]) / "serve.log", "ab")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "serve_main.py"),
             str(self.span_dir), "--port", "0"],
            stdout=subprocess.PIPE, stderr=log, cwd=spec["tmp"])
        log.close()
        line = self.proc.stdout.readline().decode()
        if "listening on http://" not in line:
            self.stop()
            raise RuntimeError(f"repro serve did not start: {line!r}")
        address = line.split("http://", 1)[1].split()[0]
        self.host, port = address.rsplit(":", 1)
        self.port = int(port)

    def post(self, body: dict, client: str,
             bench_id: Optional[str] = None) -> Tuple[int, bytes]:
        headers = {"Content-Type": "application/json", "X-Client-Id": client}
        if bench_id is not None:
            headers["X-Bench-Id"] = bench_id
        conn = http.client.HTTPConnection(self.host, self.port, timeout=120)
        try:
            conn.request("POST", "/v1/optimize", json.dumps(body), headers)
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def healthy(self) -> bool:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
        try:
            conn.request("GET", "/healthz")
            return conn.getresponse().status == 200
        finally:
            conn.close()

    def cpu_s(self) -> float:
        """CPU seconds the daemon has used (all its threads)."""
        if self.proc is None:
            return time.process_time() - self.cpu0
        stat = Path(f"/proc/{self.proc.pid}/stat").read_text()
        fields = stat.rsplit(")", 1)[1].split()  # fields 14, 15: utime, stime
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def timings(self, samples, phase_cpu: float = 0.0):
        """For (request id, bench id, wall seconds or infinite) samples:
        ([(request id, seconds)], phase seconds, median probe seconds).

        From the subprocess: each request's CPU time in the daemon and
        the phase's daemon CPU time less its probes, rescaled by the
        probes the daemon took around each request.  In process
        (traced): wall times, unscaled.  A failed request stays
        infinite.
        """
        if self.proc is None:
            return [(rid, wall) for rid, _, wall in samples], phase_cpu, 0.0
        spans = tracer.load_spans(self.span_dir)
        cpu = dict(tracer.rescaled(spans, "serve.request"))
        ids = {bench_id for _, bench_id, _ in samples}
        speed = [s[3] for s in spans
                 if s[0] == "speed.probe" and s[8] in ids]
        median = statistics.median(speed)
        # two probes, noted as their mean, ran around each request
        return ([(rid, wall if wall == math.inf else cpu[bench_id])
                 for rid, bench_id, wall in samples],
                probe.rescale(phase_cpu - 2 * sum(speed), median), median)

    def peak_rss_mb(self) -> float:
        if self.proc is None:
            return rss_mb()
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the daemon")

    def stop(self) -> Optional[int]:
        if self.daemon is not None:
            self.daemon.stop()
            return 0
        if self.proc is None:
            return None
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self.proc.stdout.close()
        return code


def closed_loop(daemon: Daemon, entries, clients: int, spec: dict,
                record: Dict[str, Tuple[int, bytes]], tag: str
                ) -> Tuple[List[Tuple[str, str, float]], float]:
    """``clients`` threads, each sending its next request on a reply.

    Returns (request id, bench id, wall seconds or infinite if it
    failed) per request, and the wall time of the loop; the bench id
    is ``tag:request id``.
    """
    lock = threading.Lock()
    queue = list(entries)
    latencies: List[Tuple[str, str, float]] = []

    def client(name: str) -> None:
        while True:
            with lock:
                if not queue:
                    return
                rid, entry = queue.pop(0)
            bench_id = f"{tag}:{rid}"
            start = time.perf_counter()
            try:
                status, body = daemon.post(serve_body(entry, spec), name,
                                           bench_id)
            except OSError as exc:
                status, body = 0, repr(exc).encode()
            elapsed = time.perf_counter() - start
            with lock:
                latencies.append((rid, bench_id, elapsed if status == 200
                                  else math.inf))
                record[rid] = (status, body)

    start = time.perf_counter()
    threads = [threading.Thread(target=client, args=(f"bench-{i}",))
               for i in range(clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return latencies, time.perf_counter() - start


def run_tsvc_served(spec: dict, rec: Optional[tracer.Recorder]) -> dict:
    prime = prime_entry()
    entries = shuffled(serve_entries(spec.get("limit")), spec["seed"])
    out: Dict[str, Any] = {}
    errors = out.setdefault("errors", [])
    miss: Dict[str, Tuple[int, bytes]] = {}
    # the client's probes, before the spawn and after priming, stand for
    # the host's speed during set-up: the daemon runs beside the client
    before = probe.calibrate()
    start = time.perf_counter()
    daemon = Daemon(spec)
    try:
        status, _ = daemon.post(serve_body(prime, spec), "bench-prime")
        if status != 200 or not daemon.healthy():
            raise RuntimeError(f"priming request answered {status}")
        wall, cpu = time.perf_counter() - start, daemon.cpu_s()
        out["setup_s"] = probe.rescale(cpu, (before + probe.calibrate()) / 2)
        out["wall"] = {"setup_s": wall}
        if spec["role"] == "setup":
            return out
        clients = spec["jobs"]
        window, cpu = time.perf_counter(), daemon.cpu_s()
        miss_lat, wall = closed_loop(daemon, entries, clients, spec, miss,
                                     "miss")
        out["miss_window"] = (window, window + wall)
        ok = sum(status == 200 for status, _ in miss.values())
        miss_cpu = daemon.cpu_s() - cpu
        walls = [x for _, _, x in miss_lat if x != math.inf]
        out["wall"].update(
            request_p50_ms=1000 * statistics.median(walls) if walls else 0,
            requests_per_s=ok / wall)
        hit_lat, hit_sent, hit_ok, hit_wall = [], 0, 0, 0.0
        hits_start = time.perf_counter()
        while True:
            hits: Dict[str, Tuple[int, bytes]] = {}
            lat, wall = closed_loop(daemon, entries, clients, spec, hits,
                                    f"hit{hit_sent}")
            hit_lat += lat
            hit_wall += wall
            hit_sent += len(entries)
            for rid, (status, body) in hits.items():
                if status == 200 and body == miss[rid][1]:
                    hit_ok += 1
                else:
                    errors.append(f"hit phase: {rid} answered {status} "
                                  f"or differs from its miss")
            if time.perf_counter() - hits_start >= HIT_SECONDS:
                break
        out["rss_mb"] = daemon.peak_rss_mb()
    finally:
        code = daemon.stop()
    if spec["role"] == "full" and code != 0:
        errors.append(f"repro serve exited with {code} after SIGTERM")
    miss_lat, miss_cpu, out["probe_s"] = daemon.timings(miss_lat, miss_cpu)
    out["passes"] = [(ok, miss_cpu)]
    out["miss"] = phase(len(entries), ok, miss_lat,
                        out["miss_window"][1] - window)
    out["hit"] = phase(hit_sent, hit_ok, daemon.timings(hit_lat)[0],
                       hit_wall)
    finish_served(out, miss, spec)
    return out


def finish_served(out: dict, miss: Dict[str, Tuple[int, bytes]],
                  spec: dict) -> None:
    from repro.ir.serialize import program_from_json
    from repro.serve.daemon import ServeDaemon

    errors = out["errors"]
    expected = spec["expected"]
    docs = {rid: body for rid, (status, body) in miss.items()
            if status == 200}
    for rid, (status, body) in miss.items():
        if status != 200:
            errors.append(f"{rid}: answered {status}: {body[:200]!r}")
    out["aliased"] = []
    for rid, body in docs.items():
        want = expected["docs"][rid].encode()
        if body == want:
            continue
        if checks.aliased_event_log(body, want):
            out["aliased"].append(rid)
        else:
            errors.append(f"served: {rid} differs from the in-process "
                          f"document")
    parsed = {rid: json.loads(body) for rid, body in docs.items()}
    results = [doc["result"] for doc in parsed.values()]
    passed = [r["speedup"] for r in results if r["passed"]]
    out["pass_rate"] = len(passed) / len(miss) if miss else 0.0
    out["speedup_geomean"] = (
        math.exp(sum(math.log(s) for s in passed) / len(passed))
        if passed else 0.0)
    out["failures_set"] = sum(r["failure"] is not None for r in results)
    # aliased documents enter the digest as the in-process bytes, so the
    # digest does not depend on which twin kernel the store saw first
    out["digest"] = checks.digest({
        rid: expected["docs"][rid].encode() if rid in out["aliased"]
        else body for rid, body in docs.items()})
    entries = dict(serve_entries(spec.get("limit")))
    pairs = []
    for rid in docs:
        best = expected["programs"].get(rid)
        if best is None:
            continue
        request = ServeDaemon.materialize_request(entries[rid])
        pairs.append((rid, request.program, program_from_json(best),
                      request.test()))
    checked, mismatches = checks.rerun_reference(pairs, spec["seed"])
    out["reference_checked"] = checked
    errors.extend(mismatches)


def layers(spec: dict, result: dict) -> Dict[str, float]:
    """Per-layer metrics and miss-phase shares from every span file."""
    spans = tracer.load_spans(Path(spec["span_dir"]))
    jobs = spec["jobs"] if spec["workload"] == "lore-batch" else 1
    out = tracer.layer_metrics(spans, spec["dataset_size"],
                               result.get("pool_wall_s", 0.0), jobs)
    # shares compare wall-clock spans with the misses' wall time
    busy = result.get("busy_s") or sum(
        x for _, x in result["miss"]["latencies"] if x != math.inf)
    out.update(tracer.layer_shares(spans, result["miss_window"], busy))
    return out


WORKLOADS = {
    "polybench-cold": run_polybench_cold,
    "tsvc-served": run_tsvc_served,
    "lore-batch": run_lore_batch,
}


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    if spec["role"] == "prepare":
        result: Dict[str, Any] = prepare(spec)
    else:
        if spec.get("expected_path"):
            spec["expected"] = json.loads(
                Path(spec["expected_path"]).read_text())[spec["workload"]]
        rec = None
        if spec["trace"]:
            rec = tracer.Recorder(Path(spec["span_dir"]))
            tracer.install_layers(rec)
            tracer.install_service_probe(rec, request_id)
        run = (run_hits if spec["role"] == "hits"
               else WORKLOADS[spec["workload"]])
        result = run(spec, rec)
        if rec is not None:
            rec.flush()
            result["layers"] = layers(spec, result)
    Path(spec["out"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
