"""Span recording around the library's public layer boundaries.

The traced run never edits the library: :func:`install` replaces each
layer's public function or method *at the name its callers look up*
(``repro.core.analyzer.characterize_blods``, ``ArtifactCache.get``, ...)
with a wrapper that records a span and the layer's counters, then calls
the original.  Spans live in memory and are written once, at exit, as
one JSON document per process: ``name``, ``start``, ``end``, ``parent``
and ``run`` (the top-level request the span belongs to).

:func:`layer_metrics` turns the span documents of every traced process
of a run into the per-layer metrics the benchmark reports.  A layer's
self time is its span durations minus the intervals its child spans
cover.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import pickle
import threading
import time
from collections import defaultdict
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import Any


class Recorder:
    """In-memory span store with a per-thread parent stack."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def run(self) -> str:
        return getattr(self._local, "run", "main")

    @contextmanager
    def run_scope(self, run_id: str) -> Iterator[None]:
        previous = self.run
        self._local.run = run_id
        try:
            yield
        finally:
            self._local.run = previous

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.add(span_id, parent, name, start, end)

    def leaf(self, name: str, start: float, end: float) -> None:
        """A span recorded after the fact, parented to the open span."""
        stack = self._stack()
        self.add(next(self._ids), stack[-1] if stack else None, name, start, end)

    def add(
        self, span_id: int, parent: int | None, name: str,
        start: float, end: float,
    ) -> None:
        with self._lock:
            self.spans.append(
                {
                    "id": span_id,
                    "parent": parent,
                    "name": name,
                    "start": start,
                    "end": end,
                    "run": self.run,
                    "thread": threading.get_ident(),
                }
            )

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += amount

    def write(self, path: Path) -> None:
        with self._lock:
            document = {
                "pid": os.getpid(),
                "spans": list(self.spans),
                "counts": dict(self.counts),
            }
        path.write_text(json.dumps(document), encoding="utf-8")


def _timed(recorder: Recorder, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        recorder.count(f"{name}.calls")
        with recorder.span(name):
            return fn(*args, **kwargs)

    return wrapper


def _patch(target: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
    setattr(target, attr, make(getattr(target, attr)))


def _file_size(path: Path) -> int:
    try:
        return path.stat().st_size
    except OSError:
        return 0


def install(recorder: Recorder, service: bool = False) -> None:
    """Wrap every measured layer boundary.

    The service modules are wrapped (and so imported) only for a traced
    server, to keep their import out of the other traced processes.
    """
    analyzer_mod = importlib.import_module("repro.core.analyzer")
    batch_mod = importlib.import_module("repro.exec.batch")
    payloads_mod = importlib.import_module("repro.payloads")
    hotspot = importlib.import_module("repro.thermal.hotspot")
    correlation = importlib.import_module("repro.variation.correlation")
    pca = importlib.import_module("repro.variation.pca")
    ensemble = importlib.import_module("repro.core.ensemble")
    hybrid = importlib.import_module("repro.core.hybrid")
    montecarlo = importlib.import_module("repro.core.montecarlo")
    backends = importlib.import_module("repro.exec.backends")
    cache_mod = importlib.import_module("repro.exec.cache")
    artifacts = importlib.import_module("repro.kernels.artifacts")
    scenario_engine = importlib.import_module("repro.scenario.engine")

    def timed(name: str) -> Callable[[Callable], Callable]:
        return lambda fn: _timed(recorder, name, fn)

    _patch(hotspot.HotSpotLite, "analyze", timed("thermal.analyze"))
    _patch(
        correlation.SpatialCorrelationModel,
        "correlation_matrix",
        timed("variation.correlation"),
    )
    canonical = _timed(
        recorder, "variation.canonical", pca.build_canonical_model
    )
    analyzer_mod.build_canonical_model = canonical
    pca.build_canonical_model = canonical
    analyzer_mod.characterize_blods = _timed(
        recorder, "blod.characterize", analyzer_mod.characterize_blods
    )
    _patch(ensemble.StFastAnalyzer, "__init__", timed("st_fast.rules"))
    _patch(ensemble.StFastAnalyzer, "reliability", timed("st_fast.reliability"))
    _patch(hybrid.HybridAnalyzer, "__init__", timed("hybrid.build"))
    _patch(ensemble.StMcAnalyzer, "__init__", timed("st_mc.build"))
    _patch(
        scenario_engine.ScenarioAnalyzer, "lifetime", timed("scenario.lifetime")
    )

    def solve(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(reliability_fn: Callable, *args: Any, **kwargs: Any) -> Any:
            def probe(t: float) -> float:
                recorder.count("lifetime.probes")
                return reliability_fn(t)

            recorder.count("lifetime.solve.calls")
            with recorder.span("lifetime.solve"):
                return fn(probe, *args, **kwargs)

        return wrapper

    for module in (analyzer_mod, batch_mod, scenario_engine):
        _patch(module, "solve_lifetime", solve)

    for builder in ("lifetime_payload", "curve_payload", "scenario_payload"):
        _patch(payloads_mod, builder, timed("payloads.build"))

    def dump(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(payload: Any) -> str:
            with recorder.span("payloads.dump"):
                text = fn(payload)
            recorder.count("payloads.bytes", len(text.encode("utf-8")))
            return text

        return wrapper

    dumped = dump(payloads_mod.dump_payload)
    payloads_mod.dump_payload = dumped

    def curve(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(self: Any, times: Any, n_chips: int, *args: Any, **kw: Any) -> Any:
            recorder.count("montecarlo.chips", n_chips)
            with recorder.span("montecarlo.curve"):
                return fn(self, times, n_chips, *args, **kw)

        return wrapper

    _patch(montecarlo.MonteCarloEngine, "reliability_curve", curve)

    process_backend = backends.ProcessBackend

    def imap(fn_orig: Callable) -> Callable:
        @functools.wraps(fn_orig)
        def wrapper(self: Any, fn: Callable, items: Any) -> Iterator[Any]:
            recorder.count("exec.tasks", len(items))
            if isinstance(self, process_backend):
                # What a process pool pickles per task: the callable and
                # the item.  The callable is the same object for every
                # task of one map, so its size is computed once.
                fn_bytes = len(pickle.dumps(fn, pickle.HIGHEST_PROTOCOL))
                item_bytes = sum(
                    len(pickle.dumps(item, pickle.HIGHEST_PROTOCOL))
                    for item in items
                )
                recorder.count("exec.task_bytes", fn_bytes * len(items) + item_bytes)
            # A generator: recorded as a leaf, because the consumer's own
            # spans run between its yields.
            start = time.perf_counter()
            try:
                yield from fn_orig(self, fn, items)
            finally:
                recorder.leaf("exec.map", start, time.perf_counter())

        return wrapper

    _patch(backends.SerialBackend, "imap_unordered", imap)
    _patch(backends._PoolBackend, "imap_unordered", imap)

    def ensure_pool(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(self: Any) -> Any:
            if self._pool is not None:
                return fn(self)
            with recorder.span("exec.pool_start"):
                return fn(self)

        return wrapper

    _patch(backends._PoolBackend, "_ensure_pool", ensure_pool)

    result_get = cache_mod.ResultCache.get
    result_put = cache_mod.ResultCache.put

    def artifact_get(self: Any, key: str) -> Any:
        with recorder.span("artifacts.load"):
            value = result_get(self, key)
        if value is None:
            recorder.count("artifacts.miss")
        else:
            recorder.count("artifacts.hit")
            recorder.count("artifacts.bytes_read", _file_size(self.path_for(key)))
        return value

    def artifact_put(self: Any, key: str, *args: Any, **kwargs: Any) -> Any:
        with recorder.span("artifacts.store"):
            path = result_put(self, key, *args, **kwargs)
        recorder.count("artifacts.bytes_written", _file_size(Path(path)))
        return path

    def cache_get(self: Any, key: str) -> Any:
        value = result_get(self, key)
        recorder.count("result_cache.miss" if value is None else "result_cache.hit")
        return value

    artifacts.ArtifactCache.get = artifact_get
    artifacts.ArtifactCache.put = artifact_put
    cache_mod.ResultCache.get = cache_get

    if not service:
        return
    service_app = importlib.import_module("repro.service.app")
    service_jobs = importlib.import_module("repro.service.jobs")
    service_app.dump_payload = dumped

    def run_job(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(request: Any, *args: Any, **kwargs: Any) -> Any:
            with recorder.run_scope(request.key[:16]):
                with recorder.span("service.run_job"):
                    return fn(request, *args, **kwargs)

        return wrapper

    # JobManager binds run_job as its ``compute`` default when the class
    # is defined, so the name its caller looks up is that default.
    traced_run_job = run_job(service_jobs.run_job)
    manager_init = service_jobs.JobManager.__init__

    @functools.wraps(manager_init)
    def init(self: Any, *args: Any, **kwargs: Any) -> None:
        kwargs.setdefault("compute", traced_run_job)
        manager_init(self, *args, **kwargs)

    service_jobs.JobManager.__init__ = init


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------

#: Layers whose metric is their self time, not their total.
_SELF_LAYERS = {
    "variation.canonical": "variation.canonical_s",
    "blod.characterize": "blod.characterize_s",
    "lifetime.solve": "lifetime.solve_s",
    "payloads.build": "payloads.build_s",
}

#: Layers whose metric is their total (inclusive) time.
_TOTAL_LAYERS = {
    "import.repro_cli": "import.repro_cli_s",
    "thermal.analyze": "thermal.analyze_s",
    "variation.correlation": "variation.correlation_s",
    "artifacts.load": "artifacts.load_s",
    "artifacts.store": "artifacts.store_s",
    "st_fast.rules": "st_fast.rules_s",
    "st_fast.reliability": "st_fast.reliability_s",
    "hybrid.build": "hybrid.build_s",
    "scenario.lifetime": "scenario.lifetime_s",
    "payloads.dump": "payloads.dump_s",
    "exec.map": "exec.map_s",
    "exec.pool_start": "exec.pool_start_s",
    "montecarlo.curve": "montecarlo.curve_s",
    "st_mc.build": "st_mc.build_s",
}

#: Counters reported as they are.
_COUNTS = {
    "thermal.analyze.calls": "thermal.analyze_calls",
    "variation.canonical.calls": "variation.canonical_calls",
    "blod.characterize.calls": "blod.characterize_calls",
    "st_fast.reliability.calls": "st_fast.reliability_calls",
    "scenario.lifetime.calls": "scenario.calls",
    "payloads.bytes": "payloads.bytes",
    "artifacts.bytes_read": "artifacts.bytes_read",
    "artifacts.bytes_written": "artifacts.bytes_written",
    "exec.tasks": "exec.tasks",
    "exec.task_bytes": "exec.task_bytes",
    "montecarlo.chips": "montecarlo.chips",
}


def _self_times(spans: list[dict[str, Any]]) -> dict[int, float]:
    """Self time of every span: duration minus its children's union."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    out = {}
    for span in spans:
        covered = 0.0
        cursor = span["start"]
        for start, end in sorted(children.get(span["id"], ())):
            start = max(start, cursor)
            end = min(end, span["end"])
            if end > start:
                covered += end - start
                cursor = end
        out[span["id"]] = max(0.0, span["end"] - span["start"] - covered)
    return out


def layer_metrics(documents: list[dict[str, Any]]) -> dict[str, float]:
    """Per-layer totals, self times and counters over a run's processes."""
    totals: dict[str, float] = defaultdict(float)
    selfs: dict[str, float] = defaultdict(float)
    counts: dict[str, float] = defaultdict(float)
    for document in documents:
        spans = document["spans"]
        own = _self_times(spans)
        for span in spans:
            totals[span["name"]] += span["end"] - span["start"]
            selfs[span["name"]] += own[span["id"]]
        for name, value in document["counts"].items():
            counts[name] += value
    out: dict[str, float] = {}
    for layer, metric in _SELF_LAYERS.items():
        out[metric] = selfs[layer]
    for layer, metric in _TOTAL_LAYERS.items():
        out[metric] = totals[layer]
    for counter, metric in _COUNTS.items():
        out[metric] = counts[counter]
    lookups = counts["artifacts.hit"] + counts["artifacts.miss"]
    out["artifacts.hit_ratio"] = counts["artifacts.hit"] / lookups if lookups else 0.0
    solves = counts["lifetime.solve.calls"]
    out["lifetime.probes_per_solve"] = counts["lifetime.probes"] / solves if solves else 0.0
    gets = counts["result_cache.hit"] + counts["result_cache.miss"]
    out["result_cache.hit_ratio"] = counts["result_cache.hit"] / gets if gets else 0.0
    return out


def self_time_table(documents: list[dict[str, Any]]) -> dict[str, float]:
    """Self time of every recorded span name (for the printed report)."""
    selfs: dict[str, float] = defaultdict(float)
    for document in documents:
        own = _self_times(document["spans"])
        for span in document["spans"]:
            selfs[span["name"]] += own[span["id"]]
    return dict(sorted(selfs.items()))


def load_documents(paths: list[Path]) -> list[dict[str, Any]]:
    documents = []
    for path in paths:
        if path.is_file():
            documents.append(json.loads(path.read_text(encoding="utf-8")))
    return documents


#: Every per-layer metric, with its unit, in the order BENCHMARK.json
#: lists them.  The ``service.*`` latencies and counts come from the
#: open-loop client (job status timestamps), not from spans.
PER_LAYER_UNITS = {
    "import.repro_cli_s": "s",
    "thermal.analyze_s": "s",
    "thermal.analyze_calls": "count",
    "variation.correlation_s": "s",
    "variation.canonical_s": "s",
    "variation.canonical_calls": "count",
    "blod.characterize_s": "s",
    "blod.characterize_calls": "count",
    "artifacts.load_s": "s",
    "artifacts.store_s": "s",
    "artifacts.hit_ratio": "ratio",
    "artifacts.bytes_read": "B",
    "artifacts.bytes_written": "B",
    "st_fast.rules_s": "s",
    "st_fast.reliability_s": "s",
    "st_fast.reliability_calls": "count",
    "hybrid.build_s": "s",
    "lifetime.solve_s": "s",
    "lifetime.probes_per_solve": "count",
    "scenario.lifetime_s": "s",
    "scenario.calls": "count",
    "payloads.build_s": "s",
    "payloads.dump_s": "s",
    "payloads.bytes": "B",
    "exec.tasks": "count",
    "exec.map_s": "s",
    "exec.pool_start_s": "s",
    "exec.task_bytes": "B",
    "montecarlo.curve_s": "s",
    "montecarlo.chips": "count",
    "st_mc.build_s": "s",
    "result_cache.hit_ratio": "ratio",
    "service.coalesced": "count",
    "service.submit_p50_s": "s",
    "service.submit_tail_s": "s",
    "service.queue_wait_p50_s": "s",
    "service.queue_wait_tail_s": "s",
    "service.run_p50_s": "s",
    "service.run_tail_s": "s",
    "service.shed": "count",
    "service.generator_late_s": "s",
}


def per_layer(
    documents: list[dict[str, Any]], client: dict[str, float] | None = None
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of one traced run, zero where a layer idled."""
    values = layer_metrics(documents)
    values.update(client or {})
    return {
        name: (float(values.get(name, 0.0)), unit)
        for name, unit in PER_LAYER_UNITS.items()
    }


def report(outcome: Any, paths: list[Path], client: dict[str, float] | None = None) -> None:
    """Set a traced run's per-layer metrics and print every self time."""
    documents = load_documents(paths)
    outcome.metrics = per_layer(documents, client)
    for name, seconds in self_time_table(documents).items():
        outcome.named(f"self.{name}", seconds, "s")
