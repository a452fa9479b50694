"""Unit tests for the execution backends and their selection logic."""

import pytest

from repro import obs
from repro.errors import ConfigurationError
from repro.exec import (
    BACKEND_NAMES,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    resolve_backend,
    resolve_jobs,
)


def _square(x):
    """Module-level so the process backend can pickle it."""
    return x * x


ITEMS = list(range(12))
EXPECTED = [x * x for x in ITEMS]


class TestSerialBackend:
    def test_map_is_ordered(self):
        assert SerialBackend().map(_square, ITEMS) == EXPECTED

    def test_imap_yields_index_result_pairs(self):
        pairs = list(SerialBackend().imap_unordered(_square, ITEMS))
        assert pairs == [(i, i * i) for i in ITEMS]

    def test_records_metrics(self):
        with obs.enabled():
            SerialBackend().map(_square, ITEMS)
            assert obs.get_counter("exec.tasks") == len(ITEMS)


class TestPoolBackends:
    @pytest.mark.parametrize("cls", [ThreadBackend, ProcessBackend])
    def test_map_matches_serial(self, cls):
        backend = cls(2)
        try:
            assert backend.map(_square, ITEMS) == EXPECTED
        finally:
            backend.close()

    def test_pool_reused_across_calls(self):
        backend = ThreadBackend(2)
        try:
            backend.map(_square, ITEMS)
            pool = backend._pool
            backend.map(_square, ITEMS)
            assert backend._pool is pool
        finally:
            backend.close()

    def test_close_is_idempotent(self):
        backend = ThreadBackend(2)
        backend.map(_square, [1, 2])
        backend.close()
        backend.close()
        assert backend._pool is None

    def test_worker_exception_propagates(self):
        backend = ThreadBackend(2)
        try:
            with pytest.raises(ZeroDivisionError):
                backend.map(lambda x: 1 // x, [1, 0, 2])
        finally:
            backend.close()

    @pytest.mark.parametrize("bad", [0, -1, True, 1.5])
    def test_rejects_bad_jobs(self, bad):
        with pytest.raises(ConfigurationError, match="jobs"):
            ThreadBackend(bad)


class TestResolveJobs:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs() == 5

    def test_cpu_count_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs() >= 1

    def test_bad_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ConfigurationError, match="REPRO_JOBS"):
            resolve_jobs()

    def test_nonpositive_rejected(self):
        with pytest.raises(ConfigurationError, match="jobs"):
            resolve_jobs(0)


class TestResolveBackend:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXEC_BACKEND", raising=False)
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert isinstance(resolve_backend(), SerialBackend)

    def test_jobs_imply_process(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXEC_BACKEND", raising=False)
        backend = resolve_backend(jobs=3)
        assert isinstance(backend, ProcessBackend)
        assert backend.jobs == 3

    def test_env_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_BACKEND", "thread")
        monkeypatch.setenv("REPRO_JOBS", "2")
        backend = resolve_backend()
        assert isinstance(backend, ThreadBackend)
        assert backend.jobs == 2

    def test_explicit_name_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_BACKEND", "process")
        assert isinstance(resolve_backend("serial"), SerialBackend)

    def test_name_is_case_insensitive(self):
        assert isinstance(resolve_backend("Thread", jobs=1), ThreadBackend)

    def test_serial_with_jobs_rejected(self):
        with pytest.raises(ConfigurationError, match="serial"):
            resolve_backend("serial", jobs=4)

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown execution"):
            resolve_backend("cluster")

    def test_backend_names_constant(self):
        assert BACKEND_NAMES == ("serial", "thread", "process")
