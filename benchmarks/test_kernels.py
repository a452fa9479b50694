"""Kernel benchmark and regression gate.

Runs the :mod:`repro.kernels.bench` harness (each production kernel
timed against its :mod:`repro.kernels.reference` oracle, plus a
power-thermal sweep that records factorization-cache reuse), writes the
machine-local report to ``BENCH_kernels.json`` at the repo root, and
enforces these gates:

- the factorization cache must be *reused* during the power-thermal
  sweep (every solve after the first is a hit),
- with ``REPRO_KERNELS_ASSERT_SPEEDUP=1`` on a multi-core machine, the
  fused batch axis must beat per-ensemble kernel dispatch, and no
  micro-benchmark speedup may regress more than 25% below the committed
  baseline.

Timing on single-core or oversubscribed runners is noise, so the speedup
assertions are opt-in via the environment flag; the structural checks
(cache reuse, report schema) always run.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from benchmarks.conftest import bench_scale
from repro.kernels.bench import (
    DEFAULT_BENCH_PATH,
    format_kernel_report,
    run_kernel_benchmarks,
    write_bench_json,
)

_REPO_ROOT = Path(__file__).resolve().parent.parent

#: Largest tolerated slowdown vs the committed baseline speedups.
_REGRESSION_FRACTION = 0.25

#: The fused batch axis must beat per-ensemble kernel dispatch.
_BATCH_FUSION_MIN_SPEEDUP = 1.0


def _assert_speedups() -> bool:
    return (
        os.environ.get("REPRO_KERNELS_ASSERT_SPEEDUP") == "1"
        and (os.cpu_count() or 1) >= 2
    )


def _load_baseline(path: Path) -> dict | None:
    if not path.exists():
        return None
    baseline = json.loads(path.read_text())
    if baseline.get("schema") != 2:
        return None
    return baseline


def test_kernel_benchmarks(report):
    baseline_path = _REPO_ROOT / DEFAULT_BENCH_PATH
    baseline = _load_baseline(baseline_path)

    results = run_kernel_benchmarks(bench_scale())
    write_bench_json(results, baseline_path)
    report.line(format_kernel_report(results))

    cache = results["factor_cache"]
    # The power-thermal loop re-solves one sparse system per iteration;
    # every solve after the first must come from the factorization cache.
    assert cache["cache_hits"] >= 1, "factorization cache never reused"
    assert cache["cache_hits"] >= cache["power_loop_iterations"] - (
        cache["cache_misses"]
    ), "factorization cache missed a repeat solve"

    if not _assert_speedups():
        report.line("speedup gates: skipped (REPRO_KERNELS_ASSERT_SPEEDUP off)")
        return

    fusion = results["micro"]["batch_fusion"]
    assert fusion["speedup"] >= _BATCH_FUSION_MIN_SPEEDUP, (
        f"fused batch axis {fusion['speedup']:.2f}x does not beat "
        f"per-ensemble dispatch"
    )

    if baseline is None or baseline.get("scale") != results["scale"]:
        report.line("regression gate: no comparable committed baseline")
        return
    floor = 1.0 - _REGRESSION_FRACTION
    failures = []
    pairs = [
        (name, baseline["micro"][name], entry)
        for name, entry in results["micro"].items()
        if name in baseline.get("micro", {})
    ]
    for name, base_entry, entry in pairs:
        if entry["speedup"] < floor * base_entry["speedup"]:
            failures.append(
                f"{name}: {entry['speedup']:.2f}x vs baseline "
                f"{base_entry['speedup']:.2f}x"
            )
    assert not failures, "kernel speedup regressions >25%: " + "; ".join(
        failures
    )
