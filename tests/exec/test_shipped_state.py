"""What a Monte-Carlo shard task pickles on its way to a pool worker.

A process backend pickles every task's callable and shard group.  The
callables must carry only the arrays their shards read: the MC chip
kernel and the st_mc sampling records — never BLOD models (each holds a
dense ``C_j``), per-block analyzer records, engines or backends.
"""

import io
import pickle

import numpy as np
import pytest

from repro import obs
from repro.core.blod import BlodModel
from repro.core.ensemble import BlockReliability, StMcAnalyzer
from repro.core.montecarlo import MonteCarloEngine
from repro.exec import ExecBackend, SerialBackend, ThreadBackend

FORBIDDEN = (
    BlodModel,
    BlockReliability,
    MonteCarloEngine,
    StMcAnalyzer,
    ExecBackend,
)


class _RecordingBackend(SerialBackend):
    """Runs inline, remembering each ``(callable, items)`` it was handed."""

    def __init__(self):
        super().__init__()
        self.shipped = []

    def imap_unordered(self, fn, items):
        self.shipped.append((fn, list(items)))
        return super().imap_unordered(fn, items)


class _ReachPickler(pickle.Pickler):
    """Records the type of every object the pickle reaches."""

    def __init__(self, file):
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self.reached = []

    def reducer_override(self, obj):
        self.reached.append(type(obj))
        return NotImplemented


def _pickle(obj):
    """``(types reached, pickled size)`` of ``obj``."""
    buffer = io.BytesIO()
    pickler = _ReachPickler(buffer)
    pickler.dump(obj)
    return pickler.reached, buffer.tell()


def _mc_curve(analyzer, backend):
    MonteCarloEngine(
        analyzer.sampler, analyzer.blocks, backend=backend
    ).reliability_curve(np.array([1e5, 1e6]), 96, 1)


def _mc_failure_times(analyzer, backend):
    MonteCarloEngine(
        analyzer.sampler, analyzer.blocks, backend=backend
    ).failure_times(96, 1)


def _st_mc(analyzer, backend):
    StMcAnalyzer(analyzer.blocks, n_samples=200, seed=1, backend=backend)


def _shipped(analyzer, run):
    backend = _RecordingBackend()
    run(analyzer, backend)
    assert backend.shipped
    return backend.shipped


@pytest.mark.parametrize("run", [_mc_curve, _mc_failure_times, _st_mc])
def test_tasks_reach_no_models_engines_or_backends(small_analyzer, run):
    for fn, items in _shipped(small_analyzer, run):
        reached, _ = _pickle((fn, items))
        leaked = sorted(
            {cls.__name__ for cls in reached if issubclass(cls, FORBIDDEN)}
        )
        assert leaked == []


def test_st_mc_task_is_its_arrays(small_analyzer):
    """The st_mc callable pickles to little more than the arrays it reads."""
    needed = sum(
        record.u_sensitivities.nbytes
        + record.eigvals.nbytes
        + record.eigvecs.nbytes
        for record in (block.blod.sampling() for block in small_analyzer.blocks)
    )
    for fn, _ in _shipped(small_analyzer, _st_mc):
        _, size = _pickle(fn)
        assert size <= 1.2 * needed


@pytest.mark.parametrize(
    ("n_samples", "jobs", "tasks"),
    [(450, 3, 3), (450, 2, 2), (100, 3, 2), (2000, 1, 1)],
)
def test_st_mc_sends_one_group_per_worker(
    small_analyzer, n_samples, jobs, tasks
):
    backend = SerialBackend() if jobs == 1 else ThreadBackend(jobs)
    try:
        with obs.enabled():
            StMcAnalyzer(
                small_analyzer.blocks, n_samples=n_samples, backend=backend
            )
            assert obs.get_counter("exec.shards") == -(-n_samples // 64)
            assert obs.get_counter("exec.tasks") == tasks
    finally:
        backend.close()
