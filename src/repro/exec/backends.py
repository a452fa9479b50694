"""Execution backends: where shard tasks actually run.

Three interchangeable backends execute task lists:

- :class:`SerialBackend` — in-process, in-order; the default and the
  reference semantics.
- :class:`ThreadBackend` — a ``ThreadPoolExecutor``; effective when the
  task bodies release the GIL (large NumPy kernels).
- :class:`ProcessBackend` — a ``ProcessPoolExecutor``; true parallelism
  for Python-loop-heavy tasks.  Task callables and their arguments must be
  picklable (module-level functions / ``functools.partial`` of them).

Because the engines built on top reduce per-shard results in shard-index
order (see :mod:`repro.exec.sharding`), **the backend choice never changes
numerical results** — only wall-clock time.

Selection follows config > environment > default: pass an explicit name,
or set ``REPRO_EXEC_BACKEND`` (``serial``/``thread``/``process``) and
``REPRO_JOBS``; with a worker count but no name, :func:`resolve_backend`
picks ``process``, the backend that helps the Monte-Carlo loops most.

Pools are created lazily and reused across calls; they are shut down on
:meth:`ExecBackend.close` or interpreter exit.
"""

from __future__ import annotations

import os
import weakref
from collections.abc import Callable, Iterator, Sequence
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures import as_completed as _as_completed
from typing import Any

from repro.errors import ConfigurationError
from repro.obs import metrics
from repro.obs.trace import span

__all__ = [
    "BACKEND_NAMES",
    "ExecBackend",
    "ProcessBackend",
    "SerialBackend",
    "ThreadBackend",
    "resolve_backend",
    "resolve_jobs",
]

#: Recognised backend names, in the order shown to users.
BACKEND_NAMES = ("serial", "thread", "process")


class ExecBackend:
    """Abstract task executor.

    Subclasses implement :meth:`imap_unordered`; everything else (ordered
    ``map``, instrumentation, lifecycle) is shared.
    """

    name: str = "base"

    def __init__(self, jobs: int = 1) -> None:
        if not isinstance(jobs, int) or isinstance(jobs, bool) or jobs < 1:
            raise ConfigurationError(f"jobs must be a positive int, got {jobs!r}")
        self.jobs = jobs

    def imap_unordered(
        self, fn: Callable[[Any], Any], items: Sequence[Any]
    ) -> Iterator[tuple[int, Any]]:
        """Yield ``(index, fn(item))`` pairs as tasks complete.

        Completion order is backend-dependent; callers that care about
        determinism must reduce by index.
        """
        raise NotImplementedError

    def map(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> list[Any]:
        """Ordered results of ``fn`` over ``items``."""
        out: list[Any] = [None] * len(items)
        for index, result in self.imap_unordered(fn, items):
            out[index] = result
        return out

    def close(self) -> None:
        """Release any pooled workers (idempotent)."""

    def _record(self, n_tasks: int) -> None:
        metrics.inc("exec.tasks", n_tasks)
        metrics.gauge("exec.jobs", self.jobs)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(jobs={self.jobs})"


class SerialBackend(ExecBackend):
    """Run every task inline, in submission order."""

    name = "serial"

    def __init__(self) -> None:
        super().__init__(jobs=1)

    def imap_unordered(
        self, fn: Callable[[Any], Any], items: Sequence[Any]
    ) -> Iterator[tuple[int, Any]]:
        self._record(len(items))
        with span("exec.map", backend=self.name, tasks=len(items), jobs=1):
            for index, item in enumerate(items):
                yield index, fn(item)


class _PoolBackend(ExecBackend):
    """Shared lazy-pool machinery for the executor-based backends."""

    def __init__(self, jobs: int) -> None:
        super().__init__(jobs=jobs)
        self._pool: Executor | None = None
        self._finalizer: weakref.finalize | None = None

    def _make_pool(self) -> Executor:
        raise NotImplementedError

    def _ensure_pool(self) -> Executor:
        if self._pool is None:
            self._pool = self._make_pool()
            self._finalizer = weakref.finalize(
                self, _shutdown_pool, self._pool
            )
        return self._pool

    def imap_unordered(
        self, fn: Callable[[Any], Any], items: Sequence[Any]
    ) -> Iterator[tuple[int, Any]]:
        self._record(len(items))
        pool = self._ensure_pool()
        with span(
            "exec.map", backend=self.name, tasks=len(items), jobs=self.jobs
        ):
            futures = {
                pool.submit(fn, item): index
                for index, item in enumerate(items)
            }
            try:
                for future in _as_completed(futures):
                    yield futures[future], future.result()
            finally:
                for future in futures:
                    future.cancel()

    def close(self) -> None:
        if self._finalizer is not None:
            self._finalizer()
            self._finalizer = None
        self._pool = None


def _shutdown_pool(pool: Executor) -> None:
    pool.shutdown(wait=True, cancel_futures=True)


class ThreadBackend(_PoolBackend):
    """A thread pool; best when tasks spend their time in NumPy kernels."""

    name = "thread"

    def _make_pool(self) -> Executor:
        return ThreadPoolExecutor(
            max_workers=self.jobs, thread_name_prefix="repro-exec"
        )


class ProcessBackend(_PoolBackend):
    """A process pool; tasks and arguments must be picklable."""

    name = "process"

    def _make_pool(self) -> Executor:
        return ProcessPoolExecutor(max_workers=self.jobs)


def resolve_jobs(jobs: int | None = None) -> int:
    """Worker count from argument > ``REPRO_JOBS`` env > CPU count."""
    if jobs is None:
        raw = os.environ.get("REPRO_JOBS", "").strip()
        if raw:
            try:
                jobs = int(raw)
            except ValueError:
                raise ConfigurationError(
                    f"REPRO_JOBS must be an integer, got {raw!r}"
                ) from None
        else:
            jobs = os.cpu_count() or 1
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    return jobs


def resolve_backend(
    name: str | None = None, jobs: int | None = None
) -> ExecBackend:
    """Build a backend from explicit arguments and the environment.

    ``name`` falls back to ``REPRO_EXEC_BACKEND``; with no name anywhere,
    a requested ``jobs > 1`` implies ``process`` and the default otherwise
    is ``serial``.  ``jobs`` falls back to ``REPRO_JOBS``, then CPU count
    (parallel backends only — ``serial`` always runs one-wide).
    """
    if name is None:
        env = os.environ.get("REPRO_EXEC_BACKEND", "").strip().lower()
        if env:
            name = env
        elif jobs is not None and jobs > 1:
            name = "process"
        else:
            name = "serial"
    name = name.strip().lower()
    if name not in BACKEND_NAMES:
        raise ConfigurationError(
            f"unknown execution backend {name!r}; expected one of "
            f"{', '.join(BACKEND_NAMES)}"
        )
    if name == "serial":
        if jobs is not None and jobs > 1:
            raise ConfigurationError(
                f"serial backend cannot run {jobs} jobs; pick thread/process"
            )
        return SerialBackend()
    resolved = resolve_jobs(jobs)
    if name == "thread":
        return ThreadBackend(resolved)
    return ProcessBackend(resolved)
