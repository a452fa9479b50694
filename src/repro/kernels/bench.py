"""Kernel benchmark harness.

Times every production kernel against its loop-per-element oracle in
:mod:`repro.kernels.reference` (or, for the batched Imhof inversion, the
per-point adaptive fallback) — the same pairs the equivalence tests
compare numerically — plus the warm-artifact analyzer build and a
power-thermal sweep that records factorization-cache reuse.

Used two ways:

- ``repro bench kernels`` (CLI) runs :func:`run_kernel_benchmarks` and
  writes ``BENCH_kernels.json``;
- ``benchmarks/test_kernels.py`` wraps the same entry points in the
  pytest benchmark harness and enforces the cache-reuse and regression
  gates.

All timings are best-of-``repeats`` wall clock.  Results are reported as
raw seconds plus the dimensionless production-vs-reference speedup; the
CI regression gate compares *speedups* (machine-portable), never
absolute times.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time
from collections.abc import Callable
from contextlib import contextmanager
from pathlib import Path
from typing import Any

import numpy as np

from repro.chip.benchmarks import make_benchmark
from repro.chip.geometry import GridSpec
from repro.core.analyzer import AnalysisConfig, ReliabilityAnalyzer
from repro.core.ensemble import (
    BlockReliability,
    StFastAnalyzer,
    StMcAnalyzer,
    sweep_reliabilities,
)
from repro.core.hybrid import HybridAnalyzer
from repro.errors import NumericalError
from repro.kernels import reference
from repro.kernels.artifacts import use_artifacts
from repro.power.activity import ActivityProfile
from repro.power.loop import solve_power_thermal
from repro.thermal.factor_cache import clear_factor_cache, factor_cache_stats
from repro.thermal.grid import PackageModel
from repro.thermal.hotspot import HotSpotLite
from repro.thermal.solver import _build_conductance_matrix

__all__ = [
    "DEFAULT_BENCH_PATH",
    "format_kernel_report",
    "run_kernel_benchmarks",
    "write_bench_json",
]

#: Committed baseline location (repo root).
DEFAULT_BENCH_PATH = "BENCH_kernels.json"

#: Workload knobs per scale; "quick" keeps the whole suite under ~2 min.
_SCALES: dict[str, dict[str, Any]] = {
    "quick": {
        "design": "C2",
        "mesh": 64,
        "conductance_mesh": 96,
        "repeats": 3,
        "curve_points": 100,
        "st_mc_samples": 4000,
        "hybrid_table": 60,
        "imhof_points": 16,
    },
    "full": {
        "design": "C3",
        "mesh": 96,
        "conductance_mesh": 192,
        "repeats": 5,
        "curve_points": 200,
        "st_mc_samples": 20000,
        "hybrid_table": 100,
        "imhof_points": 32,
    },
}


def _best_of(fn: Callable[[], Any], repeats: int) -> float:
    """Best-of-``repeats`` wall time of ``fn`` in seconds."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _entry(reference_s: float, fast_s: float, **extra: Any) -> dict[str, Any]:
    speedup = reference_s / fast_s if fast_s > 0.0 else float("inf")
    return {
        "reference_s": round(reference_s, 6),
        "fast_s": round(fast_s, 6),
        "speedup": round(speedup, 3),
        **extra,
    }


def _bench_conductance(mesh: int, repeats: int) -> dict[str, Any]:
    """Conductance-matrix assembly: per-cell loop vs index arithmetic."""
    grid = GridSpec(nx=mesh, ny=mesh, width=0.016, height=0.016)
    package = PackageModel()
    ref = _best_of(
        lambda: reference.build_conductance_matrix(grid, package), repeats
    )
    fast = _best_of(lambda: _build_conductance_matrix(grid, package), repeats)
    return _entry(ref, fast, cells=grid.n_cells)


def _bench_factor_cache(design: str, mesh: int) -> dict[str, Any]:
    """Factorization-cache reuse over a multi-mode power-thermal sweep.

    Three activity modes of one design share a grid and package, so the
    fixed point factors the conductance system once and every later
    solve — across iterations and modes — is a cached back-substitution.
    """
    floorplan = make_benchmark(design)
    thermal_model = HotSpotLite(mesh_resolution=mesh)
    clear_factor_cache()
    iterations = 0
    start = time.perf_counter()
    for mode in ("typical", "int_heavy", "memory_bound"):
        solution = solve_power_thermal(
            floorplan,
            ActivityProfile.preset(mode, floorplan),
            thermal_model=thermal_model,
        )
        iterations += solution.iterations
    elapsed = time.perf_counter() - start
    stats = factor_cache_stats()
    return {
        "sweep_s": round(elapsed, 6),
        "profiles": 3,
        "power_loop_iterations": iterations,
        "cache_hits": stats["hits"],
        "cache_misses": stats["misses"],
    }


def _bench_ensemble(
    analyzer: ReliabilityAnalyzer,
    times: np.ndarray,
    st_mc_samples: int,
    repeats: int,
) -> dict[str, dict[str, Any]]:
    """Fused all-blocks kernels vs the per-block ``block_expectation`` loop."""
    st_fast = StFastAnalyzer(analyzer.blocks, l0=analyzer.config.l0)
    ref = _best_of(
        lambda: reference.block_failure_probabilities(st_fast, times), repeats
    )
    fast = _best_of(lambda: st_fast.block_failure_probabilities(times), repeats)
    out = {
        "st_fast_curve": _entry(
            ref, fast, blocks=len(analyzer.blocks), times=int(times.size)
        )
    }

    st_mc = StMcAnalyzer(analyzer.blocks, n_samples=st_mc_samples, seed=0)
    ref = _best_of(
        lambda: reference.block_failure_probabilities(st_mc, times), repeats
    )
    fast = _best_of(lambda: st_mc.block_failure_probabilities(times), repeats)
    out["st_mc_curve"] = _entry(
        ref, fast, samples=st_mc_samples, times=int(times.size)
    )
    return out


def _bench_hybrid(
    analyzer: ReliabilityAnalyzer,
    times: np.ndarray,
    table: int,
    repeats: int,
) -> dict[str, dict[str, Any]]:
    """Fused table build and batched query vs their per-block loops."""
    l0 = analyzer.config.l0
    # Artifacts off: the timed builds below call the table kernels
    # directly, so this construction should not read or store the cache
    # (the artifact warm path has its own benchmark, artifact_warm_build).
    with use_artifacts(False):
        hybrid = HybridAnalyzer(analyzer.blocks, n_alpha=table, n_b=table, l0=l0)
    ref_build = _best_of(
        lambda: [
            reference.hybrid_block_table(hybrid, block, l0=l0)
            for block in hybrid.blocks
        ],
        repeats,
    )
    fast_build = _best_of(
        lambda: hybrid._build_tables_batched(l0, 1e-6, True), repeats
    )
    query_times = times[times < 0.3 * min(b.alpha for b in analyzer.blocks)]
    ref_query = _best_of(
        lambda: reference.hybrid_block_failure_probabilities(hybrid, query_times),
        repeats,
    )
    fast_query = _best_of(
        lambda: hybrid.block_failure_probabilities(query_times), repeats
    )
    return {
        "hybrid_build": _entry(
            ref_build, fast_build, blocks=len(analyzer.blocks), table=table
        ),
        "hybrid_query": _entry(
            ref_query, fast_query, times=int(query_times.size)
        ),
    }


def _bench_batch_fusion(
    analyzer: ReliabilityAnalyzer, repeats: int
) -> dict[str, Any]:
    """Fused temperature-axis sweep vs per-analyzer kernel dispatch.

    Models the ``repro batch`` bracketing ladder: many same-design
    ensembles (here Weibull rescalings standing in for temperatures,
    sharing the per-block quadrature tables) each probed at a handful of
    times.  Both sides run the fast kernels; the entry isolates the
    dispatch-fusion win of :func:`repro.core.ensemble.sweep_reliabilities`
    over one kernel call per ensemble.
    """
    factors = np.linspace(0.8, 1.6, 16, dtype=np.float64)
    subs = [
        StFastAnalyzer(
            [
                BlockReliability(
                    blod=block.blod,
                    alpha=block.alpha * float(factor),
                    b=block.b,
                )
                for block in analyzer.blocks
            ],
            l0=analyzer.config.l0,
        )
        for factor in factors
    ]
    alpha_min = min(block.alpha for block in analyzer.blocks)
    # A couple of probe times per ensemble, like the bracketing ladder:
    # short time axes keep the workload dispatch-bound, which is the
    # regime fusion targets (long curves amortise dispatch on their own).
    times = np.geomspace(0.05 * alpha_min, 0.5 * alpha_min, 2)
    times_list = [times] * len(subs)

    def fused() -> None:
        if sweep_reliabilities(subs, times_list) is None:
            raise NumericalError("fused sweep unexpectedly declined")

    def per_analyzer() -> None:
        for sub in subs:
            sub.reliability(times)

    per_analyzer()  # prime the lazily built rule tables
    ref = _best_of(per_analyzer, repeats)
    fast = _best_of(fused, repeats)
    return _entry(
        ref, fast, profiles=len(subs), times=int(times.size)
    )


@contextmanager
def _artifact_dir(path: str | Path) -> Any:
    """Point the artifact cache at ``path`` for the duration."""
    previous = os.environ.get("REPRO_ARTIFACT_CACHE_DIR")
    os.environ["REPRO_ARTIFACT_CACHE_DIR"] = str(path)
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop("REPRO_ARTIFACT_CACHE_DIR", None)
        else:
            os.environ["REPRO_ARTIFACT_CACHE_DIR"] = previous


def _clear_dir(path: str | Path) -> None:
    root = Path(path)
    for child in root.iterdir():
        if child.is_dir():
            shutil.rmtree(child)
        else:
            child.unlink()


def _bench_artifacts(design: str, repeats: int) -> dict[str, Any]:
    """Analyzer preparation from a cold vs a warm artifact cache.

    ``reference`` is the cold build (empty artifact directory, so the
    timing includes the store overhead); ``fast`` is the identical build
    served from the warm cache — the cross-request path of a service
    worker or a repeated CLI invocation.
    """
    floorplan = make_benchmark(design)

    def build() -> ReliabilityAnalyzer:
        return ReliabilityAnalyzer(
            floorplan, config=AnalysisConfig(exec_backend="serial")
        )

    with tempfile.TemporaryDirectory() as tmp:
        with _artifact_dir(tmp):
            cold = float("inf")
            for _ in range(repeats):
                _clear_dir(tmp)
                start = time.perf_counter()
                build()
                cold = min(cold, time.perf_counter() - start)
            build()  # ensure the cache is warm before timing hits
            warm = _best_of(build, repeats)
    return _entry(cold, warm, design=design, blocks=floorplan.n_blocks)


def _widest_form(analyzer: ReliabilityAnalyzer):
    """The quadratic form of the BLOD spanning the most grid cells."""
    spans = [a.grid_indices.size for a in analyzer.sampler.assignments]
    return analyzer.blods[int(np.argmax(spans))].v_quadratic_form()


def _bench_imhof(
    analyzer: ReliabilityAnalyzer, n_points: int, repeats: int
) -> dict[str, Any]:
    """Batched composite-rule Imhof inversion vs per-point adaptive quad."""
    form = _widest_form(analyzer)
    match = form.chi2_match()
    xs = np.asarray(match.ppf(np.linspace(0.05, 0.98, n_points, dtype=np.float64)))
    lam, scale = form._imhof_spectrum
    shifted = (xs - form.offset) / scale
    ref = _best_of(
        lambda: [form._imhof_sf_adaptive(lam, s, 200) for s in shifted], repeats
    )
    form.imhof_sf(xs)  # build + cache the node tables once
    fast = _best_of(lambda: form.imhof_sf(xs), repeats)
    return _entry(ref, fast, points=n_points)


def run_kernel_benchmarks(scale: str = "quick") -> dict[str, Any]:
    """Run every kernel benchmark at the given scale; returns the report.

    The report is JSON-serialisable and shaped for ``BENCH_kernels.json``:
    ``{"schema": 2, "scale": ..., "micro": {...}, "factor_cache": {...}}``.
    """
    from repro.errors import ConfigurationError

    if scale not in _SCALES:
        raise ConfigurationError(
            f"unknown benchmark scale {scale!r}; expected one of "
            f"{sorted(_SCALES)}"
        )
    knobs = _SCALES[scale]
    repeats = knobs["repeats"]

    analyzer = ReliabilityAnalyzer(
        make_benchmark(knobs["design"]),
        config=AnalysisConfig(exec_backend="serial"),
    )
    alpha_min = min(b.alpha for b in analyzer.blocks)
    times = np.concatenate(
        [
            [0.0],
            np.geomspace(
                1e-3 * alpha_min, 0.8 * alpha_min, knobs["curve_points"] - 1
            ),
        ]
    )

    micro: dict[str, Any] = {}
    micro["conductance_build"] = _bench_conductance(
        knobs["conductance_mesh"], repeats
    )
    micro.update(
        _bench_ensemble(analyzer, times, knobs["st_mc_samples"], repeats)
    )
    micro.update(_bench_hybrid(analyzer, times, knobs["hybrid_table"], repeats))
    micro["imhof_batch"] = _bench_imhof(
        analyzer, knobs["imhof_points"], repeats
    )
    micro["batch_fusion"] = _bench_batch_fusion(analyzer, repeats)
    micro["artifact_warm_build"] = _bench_artifacts(knobs["design"], repeats)
    return {
        "schema": 2,
        "scale": scale,
        "design": knobs["design"],
        "micro": micro,
        "factor_cache": _bench_factor_cache(knobs["design"], knobs["mesh"]),
    }


def write_bench_json(
    results: dict[str, Any], path: str | Path = DEFAULT_BENCH_PATH
) -> Path:
    """Persist a benchmark report as pretty-printed JSON."""
    target = Path(path)
    target.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    return target


def format_kernel_report(results: dict[str, Any]) -> str:
    """Human-readable table of a :func:`run_kernel_benchmarks` report."""
    lines = [
        f"kernel benchmarks (scale={results['scale']}, "
        f"design={results['design']})",
        "",
        f"{'benchmark':<22} {'reference':>12} {'fast':>12} {'speedup':>9}",
        "-" * 58,
    ]
    for name, entry in results["micro"].items():
        lines.append(
            f"{name:<22} {entry['reference_s']:>10.4f}s "
            f"{entry['fast_s']:>10.4f}s {entry['speedup']:>8.2f}x"
        )
    cache = results["factor_cache"]
    lines += [
        "",
        f"factor cache (power-thermal sweep): {cache['cache_hits']} hits / "
        f"{cache['cache_misses']} misses over "
        f"{cache['power_loop_iterations']} power-loop iterations",
    ]
    return "\n".join(lines)
