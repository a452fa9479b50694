"""mc_parallel: the paper's Monte-Carlo references on a process pool.

Closed loop, one client.  A driver process (``driver.py mc``) builds
``ReliabilityAnalyzer(config=AnalysisConfig(exec_jobs=MC_JOBS))`` per
operation and runs ``mc_lifetime`` then ``lifetime(method="st_mc")`` on
it; every design of MC_DESIGNS appears equally often per run.  These are
the only users of the ``repro.exec`` process pools.  The default
``mc_shard_size`` is kept, so the per-task shipping cost stays visible.
Each result must equal the one-worker result bit for bit.

Set-up fills the artifact cache for MC_DESIGNS (PCA, BLOD and each
block's v-eigensystem), SETUP_REPS times.  After each fill one driver
process runs every SETUP_REPS-th operation against that cache, so the
measured operations spread over the whole run.
"""

from __future__ import annotations

import json
import random

import tracer
from common import (
    Context, Outcome, driver_argv, dump_json, median, run_process, tail,
    timed_fills,
)
from spec import (
    MC_CHIPS, MC_DESIGNS, MC_EST_OP_S, MC_JOBS, MC_ST_MC_SAMPLES, PPMS,
    SETUP_REPS,
)


def _ops(rng: random.Random, count: int) -> list[dict]:
    designs: list[str] = []
    while len(designs) < count:
        designs += rng.sample(MC_DESIGNS, len(MC_DESIGNS))
    return [
        {
            "design": design,
            "ppm": rng.choice(PPMS),
            "chips": MC_CHIPS,
            "mc_seed": rng.randrange(2**31),
            "st_mc_samples": MC_ST_MC_SAMPLES,
            "st_mc_seed": rng.randrange(2**31),
        }
        for design in designs[:count]
    ]


def run(ctx: Context) -> Outcome:
    out = Outcome()
    rng = random.Random(ctx.seed)
    # Whole rounds over MC_DESIGNS, so every run has the same design mix.
    rounds = max(1, round(ctx.seconds / (MC_EST_OP_S * len(MC_DESIGNS))))
    ops = _ops(rng, rounds * len(MC_DESIGNS))

    plan = {"designs": list(MC_DESIGNS), "grid": 25, "touch": ["st_mc"]}
    setup_walls: list[float] = []
    rss: list[float] = []
    span_files = []
    measured: list[dict] = []
    for rep, tag, wall in timed_fills(ctx, "mc", plan):
        setup_walls.append(wall)
        plan_path = ctx.work / f"mc{rep}.plan.json"
        result_path = ctx.work / f"mc{rep}.result.json"
        spans_path = ctx.work / f"mc{rep}.spans.json"
        span_files.append(spans_path)
        dump_json(plan_path, {"ops": ops[rep::SETUP_REPS], "jobs": MC_JOBS})
        done = run_process(
            driver_argv(
                "mc", str(plan_path), str(result_path),
                str(spans_path) if ctx.trace else "-",
            ),
            ctx.env(tag), ctx.root, ctx.work / f"mc{rep}.out",
        )
        if done.returncode != 0:
            raise RuntimeError(
                f"mc driver failed ({done.returncode}): "
                f"{done.stderr.decode(errors='replace')[-2000:]}"
            )
        rss.append(done.maxrss_mb)
        result = json.loads(result_path.read_text(encoding="utf-8"))
        measured.extend(result["ops"])
        out.attempted += 2 * result["checked"]
        for mismatch in result["mismatches"]:
            out.fail(f"{mismatch['op']['design']} {mismatch['field']}: "
                     f"{mismatch['got']!r} != one-worker {mismatch['expected']!r}")

    walls = [op["wall_s"] for op in measured]
    chips = sum(op["chips"] for op in measured)
    samples = sum(op["st_mc_samples"] for op in measured)
    mc_s = sum(op["mc_s"] for op in measured)
    st_mc_s = sum(op["st_mc_s"] for op in measured)
    op_tail = tail(walls)
    out.e2e = {
        "setup_s": median(setup_walls),
        "peak_rss_mb": max(rss),
        "latency_p50_s": median(walls),
        "latency_tail_s": op_tail.value,
        "throughput_per_s": chips / mc_s,
    }
    out.named("setup_s", out.e2e["setup_s"], "s",
              f"median of {len(setup_walls)} artifact fills")
    out.named("peak_rss_mb", out.e2e["peak_rss_mb"], "MB",
              "largest driver process, incl. its reaped pool workers")
    out.named("mc.op_p50_s", out.e2e["latency_p50_s"], "s",
              f"analyzer build + mc_lifetime + st_mc lifetime, n={len(walls)}")
    out.named("mc.op_tail_s", op_tail.value, "s", op_tail.describe())
    out.named("mc.chips_per_s", chips / mc_s, "chips/s", f"{chips} chips")
    out.named("mc.st_mc_samples_per_s", samples / st_mc_s, "samples/s",
              f"{samples} samples")
    if ctx.trace:
        tracer.report(out, span_files)
    return out
