"""cli_warm: the designer's wait at the terminal.

Closed loop, one client: a seeded sequence of fresh ``python -m repro``
processes runs ``lifetime`` (1-4 closed-form methods), ``curve`` and
``scenario run`` over C1-C6 at ppm 1/10/100, against an artifact cache
filled during set-up.  Set-up fills the cache SETUP_REPS times; every
SETUP_REPS-th invocation runs after each fill, so the measured calls
spread over the whole run.  Each invocation is timed from spawn to exit,
and its stdout must be byte-identical to the in-process payload document.
"""

from __future__ import annotations

import json
import random
import sys

import tracer
from common import (
    Context, Finished, Outcome, driver_argv, median, run_process, tail,
    timed_fills, use_env,
)
from jobdocs import References, balanced_requests, cli_argv
from spec import CLI_EST_INVOCATION_S, CLI_GRID, DESIGNS, SETUP_REPS


def run(ctx: Context) -> Outcome:
    out = Outcome()
    rng = random.Random(ctx.seed)
    count = max(3, round(ctx.seconds / CLI_EST_INVOCATION_S))
    docs = balanced_requests(rng, count, CLI_GRID)

    plan = {"designs": list(DESIGNS), "grid": CLI_GRID, "touch": ["hybrid"]}
    setup_walls: list[float] = []
    results: dict[int, Finished] = {}
    span_files = []
    for rep, tag, wall in timed_fills(ctx, "cli", plan):
        setup_walls.append(wall)
        env = ctx.env(tag)
        for index in range(rep, len(docs), SETUP_REPS):
            doc = docs[index]
            scenario_path = None
            if doc["kind"] == "scenario":
                scenario_path = ctx.work / f"scenario{index}.json"
                scenario_path.write_text(json.dumps(doc["scenario"]), encoding="utf-8")
            argv = cli_argv(doc, scenario_path)
            if ctx.trace:
                spans = ctx.work / f"cli{index}.spans.json"
                span_files.append(spans)
                command = driver_argv("main", str(spans), "--", *argv)
            else:
                command = [sys.executable, "-m", "repro", *argv]
            results[index] = run_process(command, env, ctx.root, ctx.work / f"cli{index}.out")
    walls = [results[index].wall_s for index in range(len(docs))]
    rss = [results[index].maxrss_mb for index in range(len(docs))]

    use_env(env)
    refs = References()
    for index, doc in enumerate(docs):
        done = results[index]
        out.attempted += 1
        if done.returncode != 0:
            out.fail(f"{doc['kind']} {doc['design']}: exit {done.returncode}: "
                     f"{done.stderr.decode(errors='replace')[-300:]}")
        elif done.stdout != refs.expected(doc):
            out.fail(f"{doc['kind']} {doc['design']}: stdout differs from payload")

    wall_tail = tail(walls)
    out.e2e = {
        "setup_s": median(setup_walls),
        "peak_rss_mb": max(rss),
        "latency_p50_s": median(walls),
        "latency_tail_s": wall_tail.value,
        "throughput_per_s": len(walls) / sum(walls),
    }
    out.named("setup_s", out.e2e["setup_s"], "s", f"median of {len(setup_walls)} artifact fills")
    out.named("peak_rss_mb", out.e2e["peak_rss_mb"], "MB", "largest CLI process")
    out.named("cli.wall_p50_s", out.e2e["latency_p50_s"], "s", f"n={len(walls)}")
    out.named("cli.wall_tail_s", wall_tail.value, "s", wall_tail.describe())
    out.named("cli.invocations_per_s", out.e2e["throughput_per_s"], "1/s")
    if ctx.trace:
        tracer.report(out, span_files)
    return out
