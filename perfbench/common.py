"""Shared plumbing for the benchmark: isolation, processes, statistics.

Nothing here imports ``repro``; the harness only imports the library
after a workload's timed region, to build reference documents.
"""

from __future__ import annotations

import json
import math
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
DRIVER = HERE / "driver.py"

#: Variables that select execution paths inside the library.  A measured
#: process never inherits them: a CI matrix's ``REPRO_EXEC_BACKEND=process``
#: would otherwise turn every workload into the pool path.
_STRIPPED_ENV_PREFIX = "REPRO_"

_BLAS_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


@dataclass
class Context:
    """Everything a workload needs to run once."""

    root: Path
    work: Path
    seed: int
    seconds: float
    trace: bool

    def env(self, tag: str) -> dict[str, str]:
        """An isolated environment whose caches live under ``work/tag``.

        Every ``REPRO_*`` variable is dropped, then the three cache roots
        are pointed at benchmark-owned directories, so neither a user's
        ``~/.cache/repro`` nor a CI backend switch leaks into a run.
        """
        env = {
            key: value
            for key, value in os.environ.items()
            if not key.startswith(_STRIPPED_ENV_PREFIX)
        }
        base = self.work / tag
        env["REPRO_CACHE_DIR"] = str(base / "results")
        env["REPRO_ARTIFACT_CACHE_DIR"] = str(base / "artifacts")
        env["REPRO_SHARED_CACHE_DIR"] = str(base / "shared")
        env["PYTHONPATH"] = str(self.root / "src")
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        return env

    def drop(self, tag: str) -> None:
        """Delete one tag's cache tree (artifact fills are ~260 MB)."""
        shutil.rmtree(self.work / tag, ignore_errors=True)


def use_env(env: dict[str, str]) -> None:
    """Make the harness process itself see ``env`` (reference builds)."""
    for key in [k for k in os.environ if k.startswith(_STRIPPED_ENV_PREFIX)]:
        del os.environ[key]
    os.environ.update(
        {k: v for k, v in env.items() if k.startswith(_STRIPPED_ENV_PREFIX)}
    )
    src = env["PYTHONPATH"]
    if src not in sys.path:
        sys.path.insert(0, src)


@dataclass
class Finished:
    """One measured child process."""

    returncode: int
    wall_s: float
    maxrss_mb: float
    stdout: bytes
    stderr: bytes
    started_wall: float


def reap(proc: subprocess.Popen, timeout: float = 150.0) -> tuple[int, float]:
    """Reap ``proc`` with ``wait4``; returns (exit code, its peak RSS in MB).

    The child is killed if it has not ended within ``timeout`` seconds.
    """
    timer = threading.Timer(timeout, _kill, args=(proc,))
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def _kill(proc: subprocess.Popen) -> None:
    try:
        os.kill(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_process(
    argv: list[str],
    env: dict[str, str],
    cwd: Path,
    out_path: Path,
    timeout: float = 150.0,
) -> Finished:
    """Run one child to completion; stdout/stderr go to files, not pipes.

    Files (not pipes) let the harness reap the child with ``wait4`` and
    read its peak RSS without risking a full-pipe deadlock.
    """
    err_path = out_path.with_suffix(".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started_wall = time.time()
        started = time.perf_counter()
        proc = subprocess.Popen(
            argv, env=env, cwd=cwd, stdout=out, stderr=err,
            stdin=subprocess.DEVNULL,
        )
        code, rss = reap(proc, timeout)
        wall = time.perf_counter() - started
    return Finished(
        returncode=code,
        wall_s=wall,
        maxrss_mb=rss,
        stdout=out_path.read_bytes(),
        stderr=err_path.read_bytes(),
        started_wall=started_wall,
    )


def settle(root: Path) -> None:
    """Flush the benchmark's pending file writes before a timed region.

    Set-up writes hundreds of MB of artifacts and deletes earlier copies.
    Left alone, the kernel writes them back (and discards the deleted
    blocks) some 30 s later, in the middle of whatever is then being
    timed.  Syncing every file and directory under ``root`` moves that
    work out of the measurement; it only touches the benchmark's files.
    """
    for dirpath, _, filenames in os.walk(root):
        for name in filenames:
            _fsync(os.path.join(dirpath, name))
        _fsync(dirpath)


def _fsync(path: str) -> None:
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return  # removed meanwhile
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def driver_argv(mode: str, *args: str) -> list[str]:
    """Command line of the benchmark's in-process driver."""
    return [sys.executable, str(DRIVER), mode, *args]


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def median(values: list[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return math.nan
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


@dataclass(frozen=True)
class Tail:
    """The highest percentile with at least ten samples beyond it."""

    value: float
    percentile: float
    n: int

    def describe(self) -> str:
        return f"p{self.percentile:.0f} of n={self.n}"


def percentile(values: list[float], q: float) -> float:
    """The ``q``-th percentile, interpolated between order statistics."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    pos = (len(ordered) - 1) * q / 100.0
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def tail(values: list[float]) -> Tail:
    """Order statistic with exactly ten larger samples.

    Below 21 samples no percentile at or above the median has ten
    samples beyond it; the maximum is reported instead and labelled
    p100, so a reader sees the sample is too small for a tail.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return Tail(math.nan, math.nan, 0)
    if n < 21:
        return Tail(ordered[-1], 100.0, n)
    k = n - 11
    return Tail(ordered[k], 100.0 * (k + 1) / n, n)


# ----------------------------------------------------------------------
# Result
# ----------------------------------------------------------------------


@dataclass
class Outcome:
    """What one workload run reports.

    ``e2e`` holds the end-to-end metrics (traced runs measure them too,
    for the tracing overhead); ``metrics`` holds the per-layer metrics of
    a traced run; ``lines`` holds every named metric of the workload,
    printed by name with its unit.
    """

    attempted: int = 0
    failed: int = 0
    e2e: dict[str, float] = field(default_factory=dict)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    lines: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(reason)

    def named(self, name: str, value: float, unit: str, note: str = "") -> None:
        suffix = f"  ({note})" if note else ""
        self.lines.append(f"{name} = {value!r} {unit}{suffix}")


def environment_record() -> dict[str, Any]:
    """nproc, interpreter/library versions and BLAS thread settings."""
    record: dict[str, Any] = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "blas_env": {key: os.environ.get(key) for key in _BLAS_ENV},
    }
    for module in ("numpy", "scipy"):
        try:
            record[module] = __import__(module).__version__
        except ImportError:
            record[module] = None
    return record


def timed_fills(
    ctx: Context, prefix: str, plan: dict[str, Any]
) -> Iterator[tuple[int, str, float]]:
    """Fill a fresh artifact cache SETUP_REPS times.

    Yields ``(rep, tag, wall_s)`` after each fill, with its writes
    flushed, so the caller can time work against that cache before the
    next fill deletes it.  Spreading the measured work over every fill
    samples the shared host at several moments, not one.
    """
    from spec import SETUP_REPS

    plan_path = ctx.work / f"{prefix}-fill.json"
    dump_json(plan_path, plan)
    tag = ""
    for rep in range(SETUP_REPS):
        if tag:
            ctx.drop(tag)
        tag = f"{prefix}-setup{rep}"
        done = run_process(
            driver_argv("fill", str(plan_path)),
            ctx.env(tag),
            ctx.root,
            ctx.work / f"{tag}.out",
        )
        if done.returncode != 0:
            raise RuntimeError(
                f"set-up fill failed ({done.returncode}): "
                f"{done.stderr.decode(errors='replace')[-2000:]}"
            )
        settle(ctx.work)
        yield rep, tag, done.wall_s


def dump_json(path: Path, document: Any) -> None:
    path.write_text(json.dumps(document), encoding="utf-8")
