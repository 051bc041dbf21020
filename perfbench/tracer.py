"""Span recorder that wraps repro's layer functions from the outside.

The benchmark adds no code under ``src/``: every span is recorded by a
wrapper this module installs at the place the caller looks the name up
(a class attribute, or each module global bound to the function).
Modules are resolved through ``sys.modules`` because several package
``__init__`` files re-export same-named functions that shadow their
submodules (``repro.analysis.dependences``, ``repro.suites.tsvc``...).

Spans live in memory and are written once per process when it ends:
the bench process calls :meth:`Recorder.flush`, forked pool workers
flush from a multiprocessing finalizer.  A layer's self time is its
span's duration minus the time its child spans cover; the per-thread
span stack is a ``contextvars`` variable, so handler threads and pool
workers each keep their own.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import itertools
import json
import os
import sys
import time
from multiprocessing import util as mp_util
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional

import probe

#: the innermost open span of this thread/context:
#: (name, request id, [child seconds])
_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None)

_REQUEST_IDS = itertools.count(1)


def _ok_result(result: Any) -> Optional[bool]:
    return getattr(result, "ok", None)


def _ok_passed(result: Any) -> Optional[bool]:
    return getattr(result, "passed", None)


def _ok_no_errors(result: Any) -> Optional[bool]:
    return not result


def _payload_bytes(args: tuple, kwargs: dict) -> int:
    payload = kwargs.get("payload", args[3] if len(args) > 3 else None)
    return len(json.dumps(payload, sort_keys=True, separators=(",", ":")))


class Recorder:
    """In-memory spans of one process (and its forked pool workers)."""

    def __init__(self, out_dir: Path,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self.out_dir = Path(out_dir)
        #: span start/end clock; ``time.thread_time`` makes a span's
        #: duration the CPU time its thread spent in it
        self.clock = clock
        self.out_dir.mkdir(parents=True, exist_ok=True)
        #: (name, start, end, self_s, request, parent name, ok, bytes,
        #: label)
        self.spans: List[tuple] = []
        # forked pool workers start with an empty buffer and write it
        # when they exit (multiprocessing runs its finalizers then)
        mp_util.register_after_fork(self, Recorder._in_forked_worker)

    def _in_forked_worker(self) -> None:
        self.spans = []
        mp_util.Finalize(self, self.flush, exitpriority=10)

    # ------------------------------------------------------------------
    def wrap(self, name: str, fn: Callable, outcome=None, size=None,
             label=None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = _CURRENT.get()
            request = parent[1] if parent is not None else 0
            child = [0.0]
            token = _CURRENT.set((name, request, child))
            ok = None
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
                if outcome is not None:
                    ok = outcome(result)
                return result
            except BaseException:
                ok = False
                raise
            finally:
                end = self.clock()
                _CURRENT.reset(token)
                duration = end - start
                if parent is not None:
                    parent[2][0] += duration
                nbytes = size(args, kwargs) if size is not None else 0
                self.spans.append((
                    name, start, end, duration - child[0], request,
                    parent[0] if parent else None, ok, nbytes,
                    label(args, kwargs) if label is not None else None))
        return wrapper

    @contextlib.contextmanager
    def request(self, label: str = "request"):
        """A root span: every span it causes shares its request id."""
        child = [0.0]
        request = next(_REQUEST_IDS)
        token = _CURRENT.set((label, request, child))
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            _CURRENT.reset(token)
            self.spans.append((label, start, end, end - start - child[0],
                               request, None, None, 0, None))

    # ------------------------------------------------------------------
    def patch_attr(self, owner: Any, attr: str, name: str,
                   **kw: Any) -> None:
        """Wrap ``owner.attr`` (a class method or one module global)."""
        original = owner.__dict__[attr]
        setattr(owner, attr, self.wrap(name, original, **kw))

    def patch_everywhere(self, module: str, attr: str, name: str,
                         **kw: Any) -> int:
        """Wrap a function in every ``repro`` module that binds it."""
        original = getattr(sys.modules[module], attr)
        wrapper = self.wrap(name, original, **kw)
        bound = 0
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    bound += 1
        return bound

    def note(self, name: str, seconds: float, label: Any) -> None:
        """A measurement taken outside any span, kept with the spans."""
        self.spans.append((name, 0.0, seconds, seconds, 0, None, None, 0,
                           label))

    def flush(self) -> None:
        path = self.out_dir / f"spans-{os.getpid()}.json"
        path.write_text(json.dumps(self.spans))


# ----------------------------------------------------------------------
# the wrapped layers (span name -> where the caller looks it up)
# ----------------------------------------------------------------------
def request_scope(recorder: Optional[Recorder]):
    """A root request span when tracing, else nothing."""
    return recorder.request() if recorder is not None else \
        contextlib.nullcontext()


def install_layers(recorder: Recorder) -> None:
    """Wrap every layer function the per-layer metrics read."""
    import repro.api.session  # noqa: F401  (imports the request path)
    import repro.evaluation.harness  # noqa: F401
    import repro.serve.daemon  # noqa: F401
    import repro.storage.local  # noqa: F401
    import repro.synthesis.dataset  # noqa: F401

    mods = sys.modules
    deps = "repro.analysis.dependences"
    recorder.patch_attr(mods["repro.synthesis.generator"].ExampleSynthesizer,
                        "synthesize", "synthesis.synthesize")
    recorder.patch_attr(mods["repro.compilers.pluto"].Pluto, "optimize",
                        "compilers.pluto", outcome=_ok_result)
    recorder.patch_everywhere(deps, "compute_dependences",
                              "analysis.dependences")
    recorder.patch_everywhere(deps, "dependences", "analysis.dep_query")
    recorder.patch_everywhere(deps, "schedule_violations",
                              "analysis.legality")
    recorder.patch_everywhere(deps, "parallel_violations",
                              "analysis.parallel")
    retriever = mods["repro.retrieval.retriever"].Retriever
    recorder.patch_attr(retriever, "__init__", "retrieval.index")
    recorder.patch_attr(retriever, "rank", "retrieval.rank")
    recorder.patch_attr(mods["repro.llm.simulated"].SimulatedLLM,
                        "generate", "llm.generate")
    recorder.patch_attr(mods["repro.pipeline.generation"], "check_program",
                        "ir.validate", outcome=_ok_no_errors)
    checker = mods["repro.testing.equivalence"].EquivalenceChecker
    recorder.patch_attr(checker, "__init__", "testing.ground_truth")
    recorder.patch_attr(checker, "check", "testing.check",
                        outcome=_ok_passed)
    recorder.patch_attr(mods["repro.testing.equivalence"], "execute",
                        "runtime.execute")
    analytical = "repro.machine.analytical"
    recorder.patch_everywhere(analytical, "estimate", "machine.estimate")
    recorder.patch_everywhere(analytical, "estimate_cached",
                              "machine.estimate_query")
    local = mods["repro.storage.local"].LocalShardedStore
    recorder.patch_attr(local, "read", "storage.read")
    recorder.patch_attr(local, "append", "storage.append",
                        size=_payload_bytes)
    recorder.patch_attr(mods["repro.serve.admission"].AdmissionController,
                        "acquire", "serve.admission_wait")
    journal = mods["repro.serve.journal"].RequestJournal
    for method in ("admitted", "started", "completed"):
        recorder.patch_attr(journal, method, "serve.journal")
    recorder.patch_attr(mods["repro.serve.daemon"].ServeDaemon,
                        "handle_optimize", "serve.handle")


def install_service_probe(recorder: Recorder, label: Callable[[Any], str],
                          probed: bool = False) -> None:
    """Time each request's execution, wherever the session runs it.

    ``optimize_many`` returns a whole batch at once, so a batch
    request's latency is its service time inside the (possibly
    forked) worker; both traced and untraced runs record it, labelled
    with ``label(request)``; ``probed`` adds speed probes around each.
    """
    import repro.api.session  # noqa: F401

    session = sys.modules["repro.api.session"].OptimizerSession

    def name(args, kwargs):
        return label(args[1])

    recorder.patch_attr(session, "_execute", "api.execute", label=name)
    if probed:
        install_speed_probe(recorder, session, "_execute", name)


def install_speed_probe(recorder: Recorder, owner: Any, attr: str,
                        label: Callable[[tuple, dict], Any]) -> None:
    """Around each call of ``owner.attr`` with a label, time
    :func:`probe.probe_s` in the calling thread just before and just
    after it, and note the mean as a ``speed.probe`` under that label.
    Install it over the span that times the call, so the probes stay
    outside it."""
    inner = owner.__dict__[attr]

    @functools.wraps(inner)
    def probed(*args, **kwargs):
        name = label(args, kwargs)
        if name is None:
            return inner(*args, **kwargs)
        before = probe.probe_s()
        try:
            return inner(*args, **kwargs)
        finally:
            recorder.note("speed.probe", (before + probe.probe_s()) / 2,
                          name)

    setattr(owner, attr, probed)


def rescaled(spans: List[tuple], name: str) -> List[tuple]:
    """(label, seconds) of each ``name`` span, its duration rescaled to
    the reference host by the ``speed.probe`` noted under its label
    (labels must be unique within ``spans``)."""
    probes = {s[8]: s[3] for s in spans if s[0] == "speed.probe"}
    return [(s[8], probe.rescale(s[2] - s[1], probes[s[8]]))
            for s in spans if s[0] == name and s[8] in probes]


def install_handler_probe(recorder: Recorder) -> None:
    """Time each served request, labelled by its ``X-Bench-Id`` header,
    with speed probes around each one that carries the header.

    With the default ``workers=0`` a request runs in its handler
    thread, so a ``time.thread_time`` recorder gives its CPU time.
    """
    import repro.serve.daemon  # noqa: F401

    daemon = sys.modules["repro.serve.daemon"].ServeDaemon

    def bench_id(args, kwargs):
        return args[1].headers.get("X-Bench-Id")

    recorder.patch_attr(daemon, "handle_optimize", "serve.request",
                        label=bench_id)
    install_speed_probe(recorder, daemon, "handle_optimize", bench_id)


# ----------------------------------------------------------------------
# reading spans back
# ----------------------------------------------------------------------
def load_spans(out_dir: Path) -> List[tuple]:
    spans: List[tuple] = []
    for path in sorted(Path(out_dir).glob("spans-*.json")):
        spans.extend(tuple(s) for s in json.loads(path.read_text()))
    return spans


def _sum(spans: Iterable[tuple], name: str, parent: Optional[str] = None,
         ok: Optional[bool] = None) -> Dict[str, float]:
    calls = self_s = nbytes = 0.0
    for s in spans:
        if s[0] != name:
            continue
        if parent is not None and s[5] != parent:
            continue
        if ok is not None and s[6] is not ok:
            continue
        calls += 1
        self_s += s[3]
        nbytes += s[7]
    return {"calls": calls, "self_s": self_s, "bytes": nbytes}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


#: the wrapped layers; each span is named after its layer
LAYERS = (
    "synthesis.synthesize", "compilers.pluto", "analysis.dependences",
    "analysis.legality", "analysis.parallel", "retrieval.index",
    "retrieval.rank", "llm.generate", "ir.validate",
    "testing.ground_truth", "testing.check", "runtime.execute",
    "machine.estimate", "storage.read", "storage.append",
    "serve.admission_wait", "serve.journal", "serve.handle",
)


def layer_metrics(spans: List[tuple], corpus_entries: int,
                  pool_wall_s: float, jobs: int) -> Dict[str, float]:
    """Every per-layer metric, computed from one workload's spans."""
    out: Dict[str, float] = {}
    for layer in LAYERS:
        agg = _sum(spans, layer)
        out[f"{layer}.calls"] = agg["calls"]
        out[f"{layer}.self_s"] = agg["self_s"]
    synth = _sum(spans, "synthesis.synthesize")
    out["synthesis.yield_ratio"] = _ratio(corpus_entries, synth["calls"])
    pluto = _sum(spans, "compilers.pluto")
    out["compilers.pluto.ok_ratio"] = _ratio(
        _sum(spans, "compilers.pluto", ok=True)["calls"], pluto["calls"])
    queries = _sum(spans, "analysis.dep_query")["calls"]
    computed = _sum(spans, "analysis.dependences",
                    parent="analysis.dep_query")["calls"]
    out["analysis.dependences.hit_ratio"] = (1.0 - _ratio(computed, queries)
                                             if queries else 0.0)
    validate = _sum(spans, "ir.validate")
    out["ir.validate.ok_ratio"] = _ratio(
        _sum(spans, "ir.validate", ok=True)["calls"], validate["calls"])
    check = _sum(spans, "testing.check")
    out["testing.pass_ratio"] = _ratio(
        _sum(spans, "testing.check", ok=True)["calls"], check["calls"])
    lookups = _sum(spans, "machine.estimate_query")["calls"]
    misses = _sum(spans, "machine.estimate",
                  parent="machine.estimate_query")["calls"]
    out["machine.estimate.hit_ratio"] = (1.0 - _ratio(misses, lookups)
                                         if lookups else 0.0)
    out["storage.append.bytes"] = _sum(spans, "storage.append")["bytes"]
    busy = sum(s[2] - s[1] for s in spans if s[0] == "api.execute")
    out["evaluation.pool.utilization"] = (
        _ratio(busy, pool_wall_s * jobs) if jobs > 1 else 0.0)
    return out


def layer_shares(spans: List[tuple], window: tuple,
                 busy_s: float) -> Dict[str, float]:
    """Each layer's self time inside the miss phase over request time."""
    lo, hi = window
    out: Dict[str, float] = {}
    for layer in LAYERS:
        inside = sum(s[3] for s in spans
                     if s[0] == layer and lo <= s[1] <= hi)
        out[f"{layer}.share"] = _ratio(inside, busy_s)
    return out
