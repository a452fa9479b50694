"""Frozen workload definitions: input sizes, rates, limits.

Every run derives its inputs from ``--seed`` and these constants only.
Work per run is fixed from ``--seconds`` and the per-unit estimates
below (not from a clock), so the same seed always does the same work.
"""

from __future__ import annotations

DESIGNS = ("C1", "C2", "C3", "C4", "C5", "C6")
CLOSED_FORM = ("st_fast", "hybrid", "temp_unaware", "guard")
PPMS = (1.0, 10.0, 100.0)

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPS = 3

#: cli_warm: closed loop, one client, fresh ``python -m repro`` per call.
CLI_GRID = 25
CLI_EST_INVOCATION_S = 1.7

#: sweep_cold: SWEEP_PROCESSES fresh interpreters per run, each with an
#: empty artifact cache and the result cache off.  Each sweeps four
#: designs at each grid size (every design twice per run), one
#: ``run_batch`` spec per (grid, design) with SWEEP_TEMPS temperatures.
SWEEP_PROCESSES = 3
SWEEP_GRIDS = (25, 12)
SWEEP_TEMPS = 2
SWEEP_TEMP_RANGE_C = (60.0, 110.0)

#: service_open: open loop (Poisson arrivals, conditioned on the count).
#: ``low`` is measured in one window on each of the SETUP_REPS servers
#: set-up starts, each SERVICE_LOW_WINDOW_SHARE of ``--seconds`` long;
#: ``high`` runs for SERVICE_HIGH_SHARE of ``--seconds`` on the last
#: server.  perfbench/capacity.py measured 12.5 jobs/s for this mix on a
#: 2-core machine (default 2 workers; median of three seeds, which gave
#: 10.5-14.2).  ``high`` is ~90 % of that.  ``low`` is ~25 %, not 50 %:
#: the shared host runs up to 2x slower for tens of seconds at a time,
#: and at 50 % such a spell saturates the server and the latencies jump
#: several-fold; at 25 % a slow spell still leaves it half idle.
SERVICE_GRID = 25
SERVICE_RATES = {"low": 3.125, "high": 11.25}
SERVICE_LOW_WINDOW_SHARE = 0.8
SERVICE_HIGH_SHARE = 0.5
#: The end-to-end ``latency_tail_s`` of service_open is this percentile
#: of the non-repeat ``low`` latencies.  A fixed percentile rests on a
#: fifth of the samples; "ten samples beyond" would rest on the ten
#: slowest jobs, i.e. on the two or three tightest bursts of the run.
SERVICE_TAIL_PERCENTILE = 80.0
#: Goodput counts high-rate jobs finished within this latency.
SERVICE_LATENCY_LIMIT_S = 1.0
SERVICE_REPEAT_SHARE = 0.3
#: Large enough that no submission is shed at these rates: a 429 would
#: be a failure, and the workload is chosen so that none fails.
SERVICE_MAX_QUEUE = 1000
#: Status polling only detects the end of a job (latency comes from the
#: server's own finished_s stamp), so it can be slow and cheap.
SERVICE_POLL_S = 0.5
WARM_UP_POLL_S = 0.02

#: mc_parallel: closed loop, one client, two-worker process backend.
#: The default ``mc_shard_size`` (64) is kept, so every st_mc shard task
#: still ships the full block tuple.
MC_DESIGNS = ("C1", "C2", "C3")
MC_JOBS = 2
MC_CHIPS = 128
MC_ST_MC_SAMPLES = 512
MC_EST_OP_S = 2.5
