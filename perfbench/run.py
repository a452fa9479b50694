"""Repository benchmark: end-to-end and per-layer timing of repro.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload cli_warm --seed 1 --seconds 10 --trace 0

Workloads: ``cli_warm``, ``sweep_cold``, ``service_open``, ``mc_parallel``
(see BENCHMARK.json and perfbench/NOTES.md).  Every line but the last
names one metric with its unit; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` every measured
process runs through perfbench/driver.py with the layer wraps installed
and the metrics are the per-layer ones.  Exit status is non-zero when
any output check fails or the checkout holds no ``src/repro``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import shutil
import sys
from pathlib import Path

from common import Context, Outcome, environment_record

WORKLOADS = ("cli_warm", "sweep_cold", "service_open", "mc_parallel")

#: End-to-end metrics every workload reports (see BENCHMARK.json for
#: what each means on each workload).
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("throughput_per_s", "1/s"),
)


def _overhead_lines(name: str, traced: Outcome, stash: Path) -> list[str]:
    """Traced minus untraced value of each end-to-end metric.

    The untraced values come from the most recent untraced run of the
    same workload in this checkout (stashed under ``.perfbench_work``).
    """
    path = stash / f"{name}.json"
    if not path.is_file():
        return ["tracing overhead: no untraced run of this workload yet"]
    untraced = json.loads(path.read_text(encoding="utf-8"))
    lines = []
    for metric, unit in END_TO_END:
        if metric in traced.e2e and metric in untraced:
            delta = traced.e2e[metric] - untraced[metric]
            lines.append(f"trace_overhead.{metric} = {delta!r} {unit}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(
            "error: no src/repro here; run from the root of a repro checkout",
            file=sys.stderr,
        )
        return 2
    base = root / ".perfbench_work"
    work = base / f"{args.workload}-{args.seed}-{'t' if args.trace else 'u'}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ctx = Context(root=root, work=work, seed=args.seed,
                  seconds=args.seconds, trace=bool(args.trace))
    try:
        outcome = importlib.import_module(args.workload).run(ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    stash = base / "untraced"
    print(f"environment = {json.dumps(environment_record(), sort_keys=True)}")
    for line in outcome.lines:
        print(line)
    ratio = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"fail_ratio = {ratio!r} ratio  ({outcome.failed}/{outcome.attempted})")
    for reason in outcome.failures:
        print(f"failure: {reason}")
    if ctx.trace:
        for line in _overhead_lines(args.workload, outcome, stash):
            print(line)
    else:
        stash.mkdir(parents=True, exist_ok=True)
        (stash / f"{args.workload}.json").write_text(
            json.dumps(outcome.e2e), encoding="utf-8"
        )
        outcome.metrics = {
            name: (outcome.e2e[name], unit) for name, unit in END_TO_END
        }
    correct = outcome.failed == 0 and outcome.attempted > 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
