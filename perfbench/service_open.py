"""service_open: ``repro serve`` under open-loop arrivals at two rates.

Set-up starts ``repro serve`` (default workers, ``--rate 0``, its own
cache directories) SETUP_REPS times, each with a fresh cache, and warms
it up.  Every one of those servers then receives one ``low``-rate
window of lifetime, curve and scenario jobs over C1-C6; the last one
also receives the ``high``-rate window.  Measuring ``low`` on every
server spreads it over the whole run, so one slow spell of the shared
host moves a third of the samples, not all of them.  Arrivals are
Poisson conditioned on their count: each window gets exactly
``rate * span`` jobs at uniformly drawn times, so every run offers the
same load (see :func:`arrival_offsets`).  30 % of each window's jobs
repeat an earlier request to the same server, which exercises
coalescing and the result cache.

The generator is one process with two threads: this thread sends, one
thread polls job status.  A job's latency is its status ``finished_s``
minus the time it was due, so a stalled sender is charged to the jobs it
delayed; how late the sender ran is reported too.  Every result must be
byte-identical to the in-process payload document.
"""

from __future__ import annotations

import http.client
import json
import random
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any

import tracer
from common import (
    Context, Outcome, driver_argv, median, percentile, reap, settle, tail,
    use_env,
)
from jobdocs import References, RequestMaker
from spec import (
    DESIGNS, SERVICE_GRID, SERVICE_HIGH_SHARE, SERVICE_LATENCY_LIMIT_S,
    SERVICE_LOW_WINDOW_SHARE, SERVICE_MAX_QUEUE, SERVICE_POLL_S,
    SERVICE_RATES, SERVICE_REPEAT_SHARE, SERVICE_TAIL_PERCENTILE,
    SETUP_REPS, WARM_UP_POLL_S,
)

TERMINAL = ("done", "failed", "cancelled")


class Client:
    """HTTP client that opens one connection per request.

    This is how the repository's own client (``repro fleet``, urllib)
    talks to the service.  On a kept-alive connection every response
    stalls ~40 ms (headers and body go out as two writes, which meet the
    client's delayed ACK); see perfbench/NOTES.md.
    """

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port

    def request(self, method: str, path: str, body: bytes | None = None) -> tuple[int, bytes]:
        headers = {"Connection": "close"}
        if body:
            headers["Content-Type"] = "application/json"
        conn = http.client.HTTPConnection(self.host, self.port, timeout=60)
        try:
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()


@dataclass
class Server:
    proc: subprocess.Popen
    host: str
    port: int
    started_wall: float

    def stop(self) -> float:
        """SIGTERM, then reap; returns the server's peak RSS in MB."""
        self.proc.terminate()
        code, rss = reap(self.proc)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        if code != 0:
            raise RuntimeError(f"repro serve exited {code}")
        return rss


def start_server(ctx: Context, tag: str, spans: str | None) -> Server:
    """Spawn ``repro serve`` on an ephemeral port; wait for its banner."""
    env = ctx.env(tag)
    args = [
        "serve", "--port", "0", "--rate", "0",
        "--max-queue", str(SERVICE_MAX_QUEUE),
        "--cache-dir", env["REPRO_CACHE_DIR"],
    ]
    if spans is None:
        command = [sys.executable, "-m", "repro", *args]
    else:
        command = driver_argv("main", spans, "--", *args)
    started_wall = time.time()
    err = open(ctx.work / f"{tag}.server.err", "wb")  # noqa: SIM115 - child owns it
    try:
        proc = subprocess.Popen(
            command, env=env, cwd=ctx.root, stdout=subprocess.PIPE,
            stderr=err, stdin=subprocess.DEVNULL,
        )
    finally:
        err.close()
    # A server that never prints its banner is killed, ending the read.
    watchdog = threading.Timer(60.0, proc.kill)
    watchdog.start()
    try:
        banner = proc.stdout.readline().decode().strip()
    finally:
        watchdog.cancel()
    if not banner.startswith("serving on http://"):
        proc.kill()
        reap(proc)
        raise RuntimeError(f"repro serve did not start: {banner!r}")
    host, port = banner.removeprefix("serving on http://").rsplit(":", 1)
    return Server(proc, host, int(port), started_wall)


def warm_up(server: Server) -> None:
    """One closed-loop lifetime job per design, outside the measured mix.

    ppm 2 never occurs in the measured requests, so warm-up fills the
    artifact cache (PCA, BLOD, hybrid tables) but not the result cache.
    """
    client = Client(server.host, server.port)
    for design in DESIGNS:
        body = json.dumps({
            "kind": "lifetime", "design": design, "grid": SERVICE_GRID,
            "ppm": 2.0, "methods": ["st_fast", "hybrid"],
        }).encode()
        status, data = client.request("POST", "/v1/jobs", body)
        if status not in (200, 201):
            raise RuntimeError(f"warm-up submit failed: {status} {data[:200]!r}")
        job_id = json.loads(data)["id"]
        while True:
            status, data = client.request("GET", f"/v1/jobs/{job_id}")
            state = json.loads(data)["state"]
            if state in TERMINAL:
                break
            time.sleep(WARM_UP_POLL_S)
        if state != "done":
            raise RuntimeError(f"warm-up job {design} ended {state}")


@dataclass(frozen=True)
class Window:
    """One measured stretch of open-loop load on one server."""

    name: str
    rate: str
    server: int
    span: float
    count: int


def plan_windows(seconds: float) -> list[Window]:
    """One ``low`` window per set-up server, then ``high`` on the last."""
    low_span = SERVICE_LOW_WINDOW_SHARE * seconds
    low_count = max(2, round(SERVICE_RATES["low"] * low_span))
    windows = [
        Window(f"low.{rep}", "low", rep, low_span, low_count)
        for rep in range(SETUP_REPS)
    ]
    high_span = SERVICE_HIGH_SHARE * seconds
    high_count = max(2, round(SERVICE_RATES["high"] * high_span))
    windows.append(Window("high", "high", SETUP_REPS - 1, high_span, high_count))
    return windows


def make_jobs(
    rng: random.Random, windows: list[tuple[str, int, int]]
) -> dict[str, list[tuple[dict[str, Any], bool]]]:
    """Each window's ``(request, is_repeat)`` pairs.

    ``windows`` lists ``(name, count, server)`` in sending order.  Fresh
    requests come in balanced proportions, and each window gets the
    same share of repeats at seeded positions, so the work every run
    computes has the same make-up whatever the seed.  A repeat copies a
    uniformly chosen earlier request sent to the same server, so it can
    meet that server's result cache or coalesce with a running job.
    """
    maker = RequestMaker(rng, SERVICE_GRID)
    jobs: list[tuple[dict[str, Any], bool]] = []
    server_first: dict[int, int] = {}
    phases = {}
    for name, count, server in windows:
        first = len(jobs)
        lo = server_first.setdefault(server, first)
        n_repeat = round(SERVICE_REPEAT_SHARE * count)
        repeat_at = set(rng.sample(range(max(lo + 1, first), first + count), n_repeat))
        for index in range(first, first + count):
            if index in repeat_at:
                jobs.append((jobs[rng.randrange(lo, index)][0], True))
            else:
                jobs.append((maker.make(), False))
        phases[name] = jobs[first:]
    return phases


@dataclass
class Submission:
    doc: dict[str, Any]
    repeat: bool
    due_wall: float
    late_s: float = 0.0
    submit_s: float = 0.0
    status: int = 0
    job_id: str = ""
    cached: bool = False
    coalesced: bool = False


@dataclass
class PhaseResult:
    submissions: list[Submission]
    start_wall: float
    statuses: dict[str, dict[str, Any]] = field(default_factory=dict)


class Poller(threading.Thread):
    """The generator's one status thread: polls unfinished jobs."""

    def __init__(self, server: Server) -> None:
        super().__init__(daemon=True)
        self.client = Client(server.host, server.port)
        self.lock = threading.Lock()
        self.outstanding: set[str] = set()
        self.statuses: dict[str, dict[str, Any]] = {}
        self.stopping = threading.Event()
        self.error: Exception | None = None

    def watch(self, job_id: str) -> None:
        with self.lock:
            if job_id not in self.statuses:
                self.outstanding.add(job_id)

    def done(self) -> bool:
        with self.lock:
            return not self.outstanding

    def run(self) -> None:
        try:
            while not self.stopping.is_set():
                with self.lock:
                    pending = sorted(self.outstanding)
                for job_id in pending:
                    status, data = self.client.request("GET", f"/v1/jobs/{job_id}")
                    if status != 200:
                        raise RuntimeError(f"job status failed: {status}")
                    doc = json.loads(data)
                    if doc["state"] in TERMINAL:
                        with self.lock:
                            self.statuses[job_id] = doc
                            self.outstanding.discard(job_id)
                time.sleep(SERVICE_POLL_S)
        except Exception as exc:  # reported by the sender thread
            self.error = exc


def run_phase(
    client: Client, poller: Poller, jobs: list[tuple[dict[str, Any], bool]],
    offsets: list[float], drain_timeout: float = 90.0,
) -> PhaseResult:
    """Send ``jobs`` at their due offsets, then wait for every job to end."""
    start_mono = time.monotonic()
    start_wall = time.time()
    result = PhaseResult([], start_wall)
    for (doc, repeat), offset in zip(jobs, offsets, strict=True):
        due = start_mono + offset
        delay = due - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        sent = time.monotonic()
        sub = Submission(doc, repeat, start_wall + offset, late_s=sent - due)
        sub.status, data = client.request("POST", "/v1/jobs", json.dumps(doc).encode())
        sub.submit_s = time.monotonic() - sent
        if sub.status in (200, 201):
            envelope = json.loads(data)
            sub.job_id = envelope["id"]
            sub.cached = bool(envelope["cached"])
            sub.coalesced = sub.status == 200 and not sub.cached
            if envelope["state"] in TERMINAL:
                with poller.lock:
                    poller.statuses.setdefault(sub.job_id, envelope)
            else:
                poller.watch(sub.job_id)
        result.submissions.append(sub)
    deadline = time.monotonic() + drain_timeout
    while not poller.done() and time.monotonic() < deadline and poller.error is None:
        time.sleep(SERVICE_POLL_S)
    if poller.error is not None:
        raise RuntimeError(f"status poller failed: {poller.error!r}")
    with poller.lock:
        result.statuses = dict(poller.statuses)
    return result


def _latencies(phase: PhaseResult, fresh_only: bool = False) -> list[float]:
    """Due-to-finish latencies of the phase's completed submissions."""
    latencies = []
    for sub in phase.submissions:
        status = phase.statuses.get(sub.job_id)
        if (fresh_only and sub.repeat) or status is None or status["state"] != "done":
            continue
        latencies.append(status["finished_s"] - sub.due_wall)
    return latencies


def arrival_offsets(window: str, count: int, span: float) -> list[float]:
    """A frozen Poisson arrival pattern: ``count`` uniform times in ``span``.

    Conditioned on its count, a Poisson process places its arrivals
    uniformly.  The pattern is drawn from a fixed per-window stream, not
    from ``--seed``: the seed chooses the jobs, and every run (and every
    commit) meets the same bursts, so a latency change is the service's
    and not the arrival draw's.
    """
    rng = random.Random(f"service_open.arrivals.{window}")
    return sorted(rng.uniform(0.0, span) for _ in range(count))


def measure(
    server: Server, windows: list[Window],
    jobs: dict[str, list[tuple[dict[str, Any], bool]]], results: dict[str, bytes],
) -> dict[str, PhaseResult]:
    """Run ``windows`` on ``server`` in turn; collect every finished result."""
    client = Client(server.host, server.port)
    poller = Poller(server)
    poller.start()
    measured: dict[str, PhaseResult] = {}
    try:
        for window in windows:
            offsets = arrival_offsets(window.name, window.count, window.span)
            measured[window.name] = run_phase(client, poller, jobs[window.name], offsets)
        for phase in measured.values():
            for job_id, status in phase.statuses.items():
                if status["state"] == "done" and job_id not in results:
                    code, body = client.request("GET", f"/v1/jobs/{job_id}/result")
                    results[job_id] = body if code == 200 else b""
    finally:
        poller.stopping.set()
        poller.join(timeout=30)
    return measured


def run(ctx: Context) -> Outcome:
    out = Outcome()
    rng = random.Random(ctx.seed)
    windows = plan_windows(ctx.seconds)
    jobs = make_jobs(rng, [(w.name, w.count, w.server) for w in windows])

    setups: list[float] = []
    rss: list[float] = []
    phases: dict[str, PhaseResult] = {}
    results: dict[str, bytes] = {}
    span_files = []
    tag = ""
    for rep in range(SETUP_REPS):
        if tag:
            ctx.drop(tag)
        tag = f"svc-setup{rep}"
        spans_path = ctx.work / f"serve{rep}.spans.json"
        server = start_server(ctx, tag, str(spans_path) if ctx.trace else None)
        try:
            warm_up(server)
            setups.append(time.time() - server.started_wall)
            settle(ctx.work)
            mine = [w for w in windows if w.server == rep]
            phases.update(measure(server, mine, jobs, results))
        finally:
            rss.append(server.stop())
        span_files.append(spans_path)

    use_env(ctx.env(tag))
    refs = References()
    for phase in phases.values():
        for sub in phase.submissions:
            out.attempted += 1
            status = phase.statuses.get(sub.job_id)
            if sub.status not in (200, 201):
                out.fail(f"submit {sub.doc['kind']} {sub.doc['design']}: HTTP {sub.status}")
            elif status is None or status["state"] != "done":
                state = status["state"] if status else "unfinished"
                out.fail(f"job {sub.job_id} ({sub.doc['kind']}): {state}")
            elif results.get(sub.job_id) != refs.expected(sub.doc):
                out.fail(f"job {sub.job_id} ({sub.doc['kind']}): result differs from payload")

    by_rate: dict[str, list[PhaseResult]] = {}
    for window in windows:
        by_rate.setdefault(window.rate, []).append(phases[window.name])
    for rate, results_at in by_rate.items():
        latencies = [x for phase in results_at for x in _latencies(phase)]
        rate_tail = tail(latencies)
        out.named(f"service.{rate}.latency_p50_s", median(latencies), "s",
                  f"n={len(latencies)}, offered {SERVICE_RATES[rate]} jobs/s")
        out.named(f"service.{rate}.latency_tail_s", rate_tail.value, "s",
                  rate_tail.describe())
    fresh = [x for phase in by_rate["low"] for x in _latencies(phase, fresh_only=True)]
    fresh_tail = tail(fresh)
    fresh_pct = percentile(fresh, SERVICE_TAIL_PERCENTILE)
    out.named("service.low.fresh_latency_p50_s", median(fresh), "s",
              f"non-repeat jobs, n={len(fresh)}")
    out.named("service.low.fresh_latency_tail_s", fresh_tail.value, "s",
              fresh_tail.describe())
    out.named(f"service.low.fresh_latency_p{SERVICE_TAIL_PERCENTILE:.0f}_s",
              fresh_pct, "s", f"non-repeat jobs, n={len(fresh)}")
    high = phases["high"]
    latencies = _latencies(high)
    good = sum(1 for latency in latencies if latency <= SERVICE_LATENCY_LIMIT_S)
    last_finish = max(
        high.statuses[sub.job_id]["finished_s"] for sub in high.submissions
        if high.statuses.get(sub.job_id, {}).get("finished_s") is not None
    )
    goodput = good / (last_finish - high.start_wall)
    completed = len(latencies) / (last_finish - high.start_wall)
    out.named("service.high.goodput_jobs_per_s", goodput, "jobs/s",
              f"{good}/{len(high.submissions)} within {SERVICE_LATENCY_LIMIT_S} s")
    out.named("service.high.completed_jobs_per_s", completed, "jobs/s",
              f"{len(latencies)} jobs, first due to last finished")

    out.e2e = {
        "setup_s": median(setups),
        "peak_rss_mb": median(rss),
        "latency_p50_s": median(fresh),
        "latency_tail_s": fresh_pct,
        "throughput_per_s": completed,
    }
    out.named("setup_s", out.e2e["setup_s"], "s",
              f"median of {len(setups)} server starts + warm-up")
    out.named("peak_rss_mb", out.e2e["peak_rss_mb"], "MB",
              f"median of {len(rss)} repro serve processes' peaks")

    client_metrics = _client_metrics(phases)
    for name, value in client_metrics.items():
        out.named(name, value, tracer.PER_LAYER_UNITS[name])
    if ctx.trace:
        tracer.report(out, span_files, client_metrics)
    return out


def _client_metrics(phases: dict[str, PhaseResult]) -> dict[str, float]:
    """Service-layer figures from submit round trips and status stamps."""
    submits, lates, waits, runs = [], [], [], []
    shed = coalesced = 0
    for phase in phases.values():
        seen: set[str] = set()
        for sub in phase.submissions:
            submits.append(sub.submit_s)
            lates.append(sub.late_s)
            shed += sub.status in (429, 503)
            coalesced += sub.coalesced
            status = phase.statuses.get(sub.job_id)
            if status is None or sub.job_id in seen or status.get("started_s") is None:
                continue
            seen.add(sub.job_id)
            waits.append(status["started_s"] - status["created_s"])
            runs.append(status["finished_s"] - status["started_s"])
    return {
        "service.coalesced": float(coalesced),
        "service.submit_p50_s": median(submits),
        "service.submit_tail_s": tail(submits).value,
        "service.queue_wait_p50_s": median(waits),
        "service.queue_wait_tail_s": tail(waits).value,
        "service.run_p50_s": median(runs),
        "service.run_tail_s": tail(runs).value,
        "service.shed": float(shed),
        "service.generator_late_s": tail(lates).value,
    }
