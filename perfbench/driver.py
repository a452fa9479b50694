"""In-process driver the benchmark runs as a child process.

Modes (``python perfbench/driver.py MODE ...``):

``fill PLAN``
    Build each design's analyzer once so the artifact cache under
    ``REPRO_ARTIFACT_CACHE_DIR`` holds its PCA, BLOD and look-up-table
    entries (the warm state of a designer who ran these designs before).
``main SPANS -- ARGV...``
    Traced ``repro.cli.main(ARGV)``: a CLI command or ``serve``.  Times
    ``import repro.cli``, wraps the layer boundaries, runs the command,
    and writes the spans when it returns.
``sweep PLAN OUT [SPANS]``
    Seeded ``run_batch`` sweeps, each spec timed, then every cell checked
    against a serial per-cell ``ReliabilityAnalyzer.lifetime``.
``mc PLAN OUT [SPANS]``
    ``mc_lifetime`` and ``lifetime(method="st_mc")`` on a two-worker
    process backend, then each result checked against one worker.

``SPANS`` of ``-`` means untraced.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import Any

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Recorder, install  # noqa: E402


def _start(spans: str, service: bool = False) -> Recorder | None:
    """Import the CLI stack (timed when traced) and install the wraps."""
    if spans == "-":
        import repro.cli  # noqa: F401

        return None
    recorder = Recorder()
    with recorder.span("import.repro_cli"):
        import repro.cli  # noqa: F401
    install(recorder, service=service)
    return recorder


def _finish(recorder: Recorder | None, spans: str) -> None:
    if recorder is not None:
        recorder.write(Path(spans))


def cmd_fill(plan: dict[str, Any]) -> int:
    from repro.chip.benchmarks import make_benchmark
    from repro.core.analyzer import AnalysisConfig, ReliabilityAnalyzer

    for design in plan["designs"]:
        analyzer = ReliabilityAnalyzer(
            make_benchmark(design),
            config=AnalysisConfig(grid_size=plan["grid"], st_mc_samples=128),
        )
        for touch in plan.get("touch", ()):
            if touch == "hybrid":
                analyzer.hybrid  # noqa: B018 - builds and stores the tables
            elif touch == "st_mc":
                # A serial st_mc stores each block's v-eigensystem.
                analyzer.lifetime(10.0, method="st_mc")
    return 0


def cmd_main(spans: str, argv: list[str]) -> int:
    recorder = _start(spans, service=argv[:1] == ["serve"])
    import repro.cli

    try:
        if recorder is None:
            return repro.cli.main(argv)
        with recorder.run_scope(" ".join(argv[:3])), recorder.span("cli.main"):
            return repro.cli.main(argv)
    finally:
        sys.stdout.flush()
        _finish(recorder, spans)


def cmd_sweep(plan: dict[str, Any], out: str, spans: str) -> int:
    recorder = _start(spans)
    import numpy as np

    from repro.chip.benchmarks import make_benchmark
    from repro.core.analyzer import AnalysisConfig, ReliabilityAnalyzer
    from repro.exec.batch import SweepSpec, run_batch

    ready_wall = time.time()
    records = []
    reports = []
    for index, raw in enumerate(plan["specs"]):
        spec = SweepSpec(
            designs=tuple(raw["designs"]),
            methods=tuple(raw["methods"]),
            temperatures_c=tuple(raw["temperatures_c"]),
            ppm=raw["ppm"],
            grid_size=raw["grid_size"],
        )
        started = time.perf_counter()
        if recorder is None:
            report = run_batch(spec, use_cache=False)
        else:
            with recorder.run_scope(f"spec{index}"), recorder.span("exec.batch"):
                report = run_batch(spec, use_cache=False)
        records.append(
            {
                "design": raw["designs"][0],
                "wall_s": time.perf_counter() - started,
                "cells": report["totals"]["cells"],
                "fused_cells": report["execution"]["fused_cells"],
            }
        )
        reports.append((spec, report))
    _finish(recorder, spans)

    # Reference: a fresh serial analyzer per (design, temperature) cell
    # group, evaluated method by method (no fused axis, no batch layer).
    mismatches = []
    checked = 0
    for spec, report in reports:
        analyzers: dict[tuple[str, float], ReliabilityAnalyzer] = {}
        for cell in report["cells"]:
            key = (cell["design"], cell["temperature_c"])
            if key not in analyzers:
                floorplan = make_benchmark(cell["design"])
                analyzers[key] = ReliabilityAnalyzer(
                    floorplan,
                    config=AnalysisConfig(grid_size=spec.grid_size),
                    block_temperatures=np.full(
                        floorplan.n_blocks, float(cell["temperature_c"])
                    ),
                )
            expected = analyzers[key].lifetime(spec.ppm, method=cell["method"])
            checked += 1
            if expected != cell["lifetime_hours"]:
                mismatches.append(
                    {"cell": cell, "expected": expected, "grid": spec.grid_size}
                )
    Path(out).write_text(
        json.dumps(
            {
                "ready_wall": ready_wall,
                "specs": records,
                "checked": checked,
                "mismatches": mismatches,
            }
        ),
        encoding="utf-8",
    )
    return 0


def _mc_op(op: dict[str, Any], jobs: int) -> dict[str, Any]:
    from repro.chip.benchmarks import make_benchmark
    from repro.core.analyzer import AnalysisConfig, ReliabilityAnalyzer

    started = time.perf_counter()
    analyzer = ReliabilityAnalyzer(
        make_benchmark(op["design"]),
        config=AnalysisConfig(
            exec_jobs=jobs,
            st_mc_samples=op["st_mc_samples"],
            seed=op["st_mc_seed"],
        ),
    )
    try:
        mc_started = time.perf_counter()
        mc = analyzer.mc_lifetime(op["ppm"], n_chips=op["chips"], seed=op["mc_seed"])
        st_started = time.perf_counter()
        st_mc = analyzer.lifetime(op["ppm"], method="st_mc")
        finished = time.perf_counter()
    finally:
        analyzer.exec_backend.close()
    return {
        "wall_s": time.perf_counter() - started,
        "mc_s": st_started - mc_started,
        "st_mc_s": finished - st_started,
        "mc_lifetime": mc,
        "st_mc_lifetime": st_mc,
    }


def cmd_mc(plan: dict[str, Any], out: str, spans: str) -> int:
    recorder = _start(spans)
    ready_wall = time.time()
    results = []
    for index, op in enumerate(plan["ops"]):
        if recorder is None:
            results.append(_mc_op(op, plan["jobs"]))
        else:
            with recorder.run_scope(f"op{index}"), recorder.span("mc.op"):
                results.append(_mc_op(op, plan["jobs"]))
    _finish(recorder, spans)

    mismatches = []
    for op, result in zip(plan["ops"], results, strict=True):
        expected = _mc_op(op, 1)
        for field in ("mc_lifetime", "st_mc_lifetime"):
            if expected[field] != result[field]:
                mismatches.append(
                    {"op": op, "field": field, "expected": expected[field],
                     "got": result[field]}
                )
    Path(out).write_text(
        json.dumps(
            {
                "ready_wall": ready_wall,
                "ops": [dict(op, **res) for op, res in zip(plan["ops"], results, strict=True)],
                "checked": len(results),
                "mismatches": mismatches,
            }
        ),
        encoding="utf-8",
    )
    return 0


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "main":
        sep = argv.index("--")
        return cmd_main(argv[1], argv[sep + 1 :])
    plan = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    if mode == "fill":
        return cmd_fill(plan)
    spans = argv[3] if len(argv) > 3 else "-"
    if mode == "sweep":
        return cmd_sweep(plan, argv[2], spans)
    if mode == "mc":
        return cmd_mc(plan, argv[2], spans)
    print(f"unknown driver mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
