"""Stage metrics: named counters, gauges and histograms.

Counters accumulate (``inc("mc.chips", 100)``); gauges record the latest
value (``gauge("pca.factors", 37)``); histograms bucket observed samples
(``observe("service.latency.jobs_submit", 0.012)``).  All live in one
process-wide thread-safe registry that :func:`metrics_snapshot` serialises
alongside the trace tree.

Like spans, metrics are **no-ops while observability is disabled** (the
default), so instrumented hot loops pay only a module-attribute load.

Naming convention (see ``docs/observability.md``): dotted
``<stage>.<quantity>`` names — e.g. ``pca.factors``, ``blod.blocks``,
``mc.chips``, ``hybrid.lut_hits``, ``integration.subdomain_evals``,
``thermal.solves``.  The execution layer (``repro.exec``, see
``docs/execution.md``) reports ``exec.tasks``, ``exec.shards``, the
``exec.jobs`` gauge, the result-cache accounting counters
``exec.cache.{hit,miss,corrupt,store}`` and the resume counters
``exec.checkpoint.{resumed_shards,stale}``.  The numerical kernels
(``repro.kernels``, see ``docs/performance.md``) report the thermal
factorization-cache accounting ``thermal.factor_cache.{hit,miss}`` and
the fused-evaluation workload counters ``kernels.rule_nodes``,
``kernels.sample_evals`` and ``kernels.imhof_nodes`` (survival-integral
quadrature nodes, Monte-Carlo sample evaluations and Imhof inversion
nodes processed by the batched kernels).  The HTTP service
(``repro.service``, see ``docs/service.md``) reports
``service.requests``, the job-lifecycle counters ``service.jobs.*``, the
admission counters ``service.admission.{allowed,rejected}`` and the
``service.jobs.{queued,running}``/``service.accepting`` gauges, all of
which ``GET /metrics`` renders in Prometheus text format.

Histograms (``docs/observability.md``) use fixed log-spaced bucket upper
bounds plus an exact count/sum, which is everything the Prometheus
``_bucket``/``_sum``/``_count`` exposition and the :meth:`Histogram.quantile`
estimator need.  The service records ``service.latency.<endpoint>``
per-endpoint request latency and the ``service.job.{queue_wait,run}``
seconds split; the execution layer records ``exec.shard.seconds`` per-shard
durations and ``exec.cache.lookup_seconds``.
"""

from __future__ import annotations

import bisect
import math
import threading
from typing import Any

from repro.errors import ConfigurationError
from repro.obs import trace as _trace

__all__ = [
    "DEFAULT_BUCKETS",
    "Histogram",
    "gauge",
    "get_counter",
    "get_gauge",
    "get_histogram",
    "histograms",
    "inc",
    "log_buckets",
    "metrics_snapshot",
    "observe",
    "reset_metrics",
]

_lock = threading.Lock()
_counters: dict[str, float] = {}
_gauges: dict[str, float] = {}
_histograms: dict[str, "Histogram"] = {}


def log_buckets(lo: float, hi: float, per_decade: int = 3) -> tuple[float, ...]:
    """Log-spaced histogram bucket upper bounds covering ``[lo, hi]``.

    ``per_decade`` bounds per factor of ten, rounded to 6 significant
    digits so rendered ``le`` labels are stable across platforms.
    """
    if not (0.0 < lo < hi):
        raise ConfigurationError(f"need 0 < lo < hi, got lo={lo} hi={hi}")
    steps = int(round(math.log10(hi / lo) * per_decade))
    bounds = [
        float(f"{lo * 10 ** (i / per_decade):.6g}") for i in range(steps + 1)
    ]
    # Rounding can collapse neighbours for coarse spacing; de-duplicate.
    out: list[float] = []
    for bound in bounds:
        if not out or bound > out[-1]:
            out.append(bound)
    return tuple(out)


#: Default bounds: 100 microseconds to ~17 minutes, 3 buckets per decade —
#: wide enough for a cache lookup and a full Monte-Carlo service job alike.
DEFAULT_BUCKETS = log_buckets(1e-4, 1e3, per_decade=3)


class Histogram:
    """Fixed-bucket histogram with exact count and sum.

    ``bounds`` are finite ascending bucket *upper* bounds; one implicit
    overflow bucket (``+Inf``) catches everything above the last bound.
    ``counts[i]`` is the number of samples with ``value <= bounds[i]``
    exclusive of lower buckets (i.e. *non*-cumulative; the Prometheus
    renderer accumulates).  Mutation happens under the registry lock via
    :func:`observe`.
    """

    __slots__ = ("name", "bounds", "counts", "count", "sum")

    def __init__(
        self, name: str, bounds: tuple[float, ...] | None = None
    ) -> None:
        chosen = tuple(bounds) if bounds is not None else DEFAULT_BUCKETS
        if not chosen or list(chosen) != sorted(set(chosen)):
            raise ConfigurationError(f"bucket bounds must ascend, got {chosen!r}")
        if not all(math.isfinite(b) for b in chosen):
            raise ConfigurationError("bucket bounds must be finite (+Inf is implicit)")
        self.name = name
        self.bounds = chosen
        self.counts = [0] * (len(chosen) + 1)  # last slot = +Inf overflow
        self.count = 0
        self.sum = 0.0

    def _observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value

    def cumulative(self) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs ending at ``+Inf``."""
        out: list[tuple[float, int]] = []
        running = 0
        for bound, bucket in zip(self.bounds, self.counts, strict=False):
            running += bucket
            out.append((bound, running))
        out.append((math.inf, self.count))
        return out

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile by linear interpolation in-bucket.

        Samples beyond the last finite bound clamp to that bound (the
        estimator cannot see past it); an empty histogram returns NaN.
        """
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return math.nan
        target = q * self.count
        running = 0
        for i, bucket in enumerate(self.counts[:-1]):
            if bucket == 0:
                running += bucket
                continue
            if running + bucket >= target:
                lo = self.bounds[i - 1] if i > 0 else 0.0
                hi = self.bounds[i]
                frac = (target - running) / bucket
                return lo + (hi - lo) * min(max(frac, 0.0), 1.0)
            running += bucket
        return self.bounds[-1]

    def snapshot(self) -> dict[str, Any]:
        """JSON-ready summary (bounds, bucket counts, count/sum, quantiles)."""
        return {
            "buckets": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


def inc(name: str, value: float = 1.0) -> None:
    """Add ``value`` to counter ``name`` (no-op while disabled)."""
    if not _trace._enabled:
        return
    with _lock:
        _counters[name] = _counters.get(name, 0.0) + value


def gauge(name: str, value: float) -> None:
    """Set gauge ``name`` to ``value`` (no-op while disabled)."""
    if not _trace._enabled:
        return
    with _lock:
        _gauges[name] = float(value)


def observe(
    name: str, value: float, buckets: tuple[float, ...] | None = None
) -> None:
    """Record ``value`` into histogram ``name`` (no-op while disabled).

    The histogram is created on first observation; ``buckets`` overrides
    the default log-spaced bounds at creation time only.
    """
    if not _trace._enabled:
        return
    with _lock:
        hist = _histograms.get(name)
        if hist is None:
            hist = Histogram(name, buckets)
            _histograms[name] = hist
        hist._observe(float(value))


def get_histogram(name: str) -> Histogram | None:
    """The live histogram for ``name`` (``None`` when never observed)."""
    with _lock:
        return _histograms.get(name)


def histograms() -> dict[str, Histogram]:
    """A point-in-time copy of the histogram registry."""
    with _lock:
        return dict(_histograms)


def get_counter(name: str, default: float = 0.0) -> float:
    """Current value of a counter (``default`` when never incremented)."""
    with _lock:
        return _counters.get(name, default)


def get_gauge(name: str, default: float | None = None) -> float | None:
    """Current value of a gauge (``default`` when never set)."""
    with _lock:
        return _gauges.get(name, default)


def metrics_snapshot() -> dict[str, dict[str, Any]]:
    """All counters, gauges and histogram summaries as a JSON-ready dict."""
    with _lock:
        return {
            "counters": dict(_counters),
            "gauges": dict(_gauges),
            "histograms": {
                name: hist.snapshot() for name, hist in _histograms.items()
            },
        }


def reset_metrics() -> None:
    """Clear every counter, gauge and histogram."""
    with _lock:
        _counters.clear()
        _gauges.clear()
        _histograms.clear()
