"""Measure ``repro serve`` capacity for service_open's job mix.

    python3 perfbench/capacity.py [--jobs 150] [--seeds 1 2 3]

Starts the server exactly as service_open does (own caches, warm-up),
submits every job of a seeded service_open mix at once, and reports
completed jobs per second from first submit to last finish.  The frozen
rates in perfbench/spec.py (SERVICE_RATES) are ~25 % and ~90 % of the
median of these figures (spec.py says why not 50 %); re-run this after a
change of machine.
"""

from __future__ import annotations

import argparse
import random
import shutil
from pathlib import Path

from common import Context, median
from service_open import Client, Poller, make_jobs, run_phase, start_server, warm_up


def measure(root: Path, seed: int, count: int) -> float:
    work = root / ".perfbench_work" / f"capacity-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ctx = Context(root=root, work=work, seed=seed, seconds=0.0, trace=False)
    server = start_server(ctx, "capacity", None)
    try:
        warm_up(server)
        docs = make_jobs(random.Random(seed), [("all", count, 0)])["all"]
        client = Client(server.host, server.port)
        poller = Poller(server)
        poller.start()
        try:
            phase = run_phase(client, poller, docs, [0.0] * count)
        finally:
            poller.stopping.set()
            poller.join(timeout=30)
    finally:
        server.stop()
        shutil.rmtree(work, ignore_errors=True)
    finished = [s["finished_s"] for s in phase.statuses.values() if s["state"] == "done"]
    return len(phase.submissions) / (max(finished) - phase.start_wall)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=150)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = parser.parse_args()
    rates = [measure(Path.cwd(), seed, args.jobs) for seed in args.seeds]
    for seed, rate in zip(args.seeds, rates, strict=True):
        print(f"seed {seed}: {rate:.2f} jobs/s")
    print(f"capacity (median) = {median(rates):.2f} jobs/s")


if __name__ == "__main__":
    main()
