"""sweep_cold: a design-space sweep from a cold start.

Each sweep is a fresh interpreter (``driver.py sweep``) with an empty
artifact cache and the result cache off.  It calls ``run_batch`` once per
seeded spec: one design at one grid size, SWEEP_TEMPS uniform
temperatures, the four closed-form methods.  Every design appears at
every grid size, so a sweep pays cold correlation/PCA, BLOD compute and
artifact writes, plus many lifetime root-finds.  Interpreter start and
import are its set-up, outside the timed region; every cell is then
checked against a serial per-cell ``ReliabilityAnalyzer.lifetime``.
"""

from __future__ import annotations

import json
import random

import tracer
from common import (
    Context, Outcome, driver_argv, dump_json, median, run_process, settle,
    tail,
)
from spec import (
    CLOSED_FORM, DESIGNS, PPMS, SWEEP_GRIDS, SWEEP_PROCESSES,
    SWEEP_TEMP_RANGE_C, SWEEP_TEMPS,
)


def _design_groups(rng: random.Random) -> list[list[str]]:
    """SWEEP_PROCESSES groups of distinct designs; each design in two.

    Splitting one seeded permutation, doubled, into equal slices keeps
    every run's total work the same whatever the seed.
    """
    order = rng.sample(DESIGNS, len(DESIGNS))
    slots = order + order
    size = len(slots) // SWEEP_PROCESSES
    return [slots[i * size:(i + 1) * size] for i in range(SWEEP_PROCESSES)]


def _plan(rng: random.Random, designs: list[str]) -> dict:
    specs = []
    for grid in rng.sample(SWEEP_GRIDS, len(SWEEP_GRIDS)):
        for design in rng.sample(designs, len(designs)):
            temps = sorted(
                round(rng.uniform(*SWEEP_TEMP_RANGE_C), 1)
                for _ in range(SWEEP_TEMPS)
            )
            specs.append(
                {
                    "designs": [design],
                    "methods": list(CLOSED_FORM),
                    "temperatures_c": temps,
                    "ppm": rng.choice(PPMS),
                    "grid_size": grid,
                }
            )
    return {"specs": specs}


def run(ctx: Context) -> Outcome:
    out = Outcome()
    rng = random.Random(ctx.seed)

    setups: list[float] = []
    spec_walls: list[float] = []
    design_walls: list[float] = []
    cells = 0
    rss: list[float] = []
    span_files = []
    groups = _design_groups(rng)
    for index, designs in enumerate(groups):
        tag = f"sweep{index}"
        plan_path = ctx.work / f"{tag}.plan.json"
        result_path = ctx.work / f"{tag}.result.json"
        dump_json(plan_path, _plan(rng, designs))
        spans = "-"
        if ctx.trace:
            spans = str(ctx.work / f"{tag}.spans.json")
            span_files.append(ctx.work / f"{tag}.spans.json")
        done = run_process(
            driver_argv("sweep", str(plan_path), str(result_path), spans),
            ctx.env(tag), ctx.root, ctx.work / f"{tag}.out",
        )
        ctx.drop(tag)
        settle(ctx.work)
        rss.append(done.maxrss_mb)
        if done.returncode != 0:
            out.attempted += 1
            out.fail(f"sweep {index}: exit {done.returncode}: "
                     f"{done.stderr.decode(errors='replace')[-300:]}")
            continue
        result = json.loads(result_path.read_text(encoding="utf-8"))
        setups.append(result["ready_wall"] - done.started_wall)
        per_design: dict[str, float] = {}
        for record in result["specs"]:
            spec_walls.append(record["wall_s"])
            per_design[record["design"]] = per_design.get(record["design"], 0.0) + record["wall_s"]
            cells += record["cells"]
        design_walls.extend(per_design.values())
        out.attempted += result["checked"]
        for mismatch in result["mismatches"]:
            out.fail(f"sweep cell {mismatch['cell']} != serial "
                     f"{mismatch['expected']!r} (grid {mismatch['grid']})")

    # A design's latency is its specs at every grid size together: one
    # spec per grid would split the samples into one cluster per grid,
    # with the median falling in the gap between them.
    design_tail = tail(design_walls)
    out.e2e = {
        "setup_s": median(setups),
        "peak_rss_mb": max(rss),
        "latency_p50_s": median(design_walls),
        "latency_tail_s": design_tail.value,
        "throughput_per_s": cells / sum(spec_walls),
    }
    out.named("setup_s", out.e2e["setup_s"], "s",
              f"median of {len(setups)} interpreter starts + import")
    out.named("peak_rss_mb", out.e2e["peak_rss_mb"], "MB", "largest sweep process")
    out.named("sweep.design_p50_s", out.e2e["latency_p50_s"], "s",
              f"one design's run_batch specs at all grid sizes, n={len(design_walls)}")
    out.named("sweep.design_tail_s", design_tail.value, "s", design_tail.describe())
    out.named("sweep.cells_per_s", out.e2e["throughput_per_s"], "cells/s",
              f"{cells} cells in {len(groups)} cold sweeps")
    if ctx.trace:
        tracer.report(out, span_files)
    return out
