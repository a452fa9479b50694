"""Property-based tests: execution scheduling never changes results.

The deterministic-sharding contract (see ``docs/execution.md``) promises
that Monte-Carlo results are a function of the seed and the shard size
alone — never of the chunk size, the backend, or the worker count.  These
tests let hypothesis hunt for scheduling parameters that break that.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ensemble import StMcAnalyzer
from repro.core.montecarlo import MonteCarloEngine
from repro.exec import ProcessBackend, SerialBackend, ThreadBackend

TIMES = np.logspace(5.0, 7.0, 4)


def _engine(analyzer, *, chunk_size, backend):
    return MonteCarloEngine(
        analyzer.sampler,
        analyzer.blocks,
        device_mode=analyzer.config.mc_device_mode,
        chunk_size=chunk_size,
        backend=backend,
    )


class TestSchedulingInvariance:
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        chunk_a=st.integers(min_value=1, max_value=97),
        chunk_b=st.integers(min_value=98, max_value=400),
    )
    @settings(max_examples=8, deadline=None)
    def test_curve_independent_of_chunk_size(
        self, small_analyzer, seed, chunk_a, chunk_b
    ):
        first = _engine(
            small_analyzer, chunk_size=chunk_a, backend=SerialBackend()
        ).reliability_curve(TIMES, 96, seed)
        second = _engine(
            small_analyzer, chunk_size=chunk_b, backend=SerialBackend()
        ).reliability_curve(TIMES, 96, seed)
        np.testing.assert_array_equal(first.reliability, second.reliability)
        np.testing.assert_array_equal(first.std_error, second.std_error)

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        jobs=st.integers(min_value=2, max_value=4),
        n_chips=st.integers(min_value=2, max_value=200),
    )
    @settings(max_examples=8, deadline=None)
    def test_thread_backend_matches_serial(
        self, small_analyzer, seed, jobs, n_chips
    ):
        serial = _engine(
            small_analyzer, chunk_size=64, backend=SerialBackend()
        ).reliability_curve(TIMES, n_chips, seed)
        threaded_backend = ThreadBackend(jobs)
        try:
            threaded = _engine(
                small_analyzer, chunk_size=64, backend=threaded_backend
            ).reliability_curve(TIMES, n_chips, seed)
        finally:
            threaded_backend.close()
        np.testing.assert_array_equal(serial.reliability, threaded.reliability)
        np.testing.assert_array_equal(serial.std_error, threaded.std_error)

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        chunk=st.integers(min_value=1, max_value=300),
    )
    @settings(max_examples=8, deadline=None)
    def test_failure_times_independent_of_chunk_size(
        self, small_analyzer, seed, chunk
    ):
        baseline = _engine(
            small_analyzer, chunk_size=128, backend=SerialBackend()
        ).failure_times(64, seed)
        varied = _engine(
            small_analyzer, chunk_size=chunk, backend=SerialBackend()
        ).failure_times(64, seed)
        np.testing.assert_array_equal(baseline, varied)


def _st_mc_clouds(analyzer, n_samples, seed, backend):
    """Every block's st_mc ``(u, v)`` cloud, drawn on ``backend``."""
    try:
        st_mc = StMcAnalyzer(
            analyzer.blocks, n_samples=n_samples, seed=seed, backend=backend
        )
    finally:
        backend.close()
    return [
        st_mc.block_moment_samples(j) for j in range(len(analyzer.blocks))
    ]


def _assert_same_clouds(first, second):
    assert len(first) == len(second)
    for (u_a, v_a), (u_b, v_b) in zip(first, second, strict=True):
        np.testing.assert_array_equal(u_a, u_b)
        np.testing.assert_array_equal(v_a, v_b)


class TestStMcExecutionPlans:
    """st_mc clouds depend on the seed and shard size, not the plan.

    st_mc submits one shard group per worker, so these cases cover a
    shard count that is not a multiple of the worker count (450 samples:
    8 shards on 3 jobs) and more workers than shards (100 samples: 2
    shards on 3 jobs).
    """

    @pytest.mark.parametrize("n_samples", [450, 100])
    @pytest.mark.parametrize(
        "make_backend",
        [lambda: ThreadBackend(3), lambda: ProcessBackend(2)],
        ids=["thread3", "process2"],
    )
    def test_pool_matches_serial(self, small_analyzer, n_samples, make_backend):
        serial = _st_mc_clouds(small_analyzer, n_samples, 5, SerialBackend())
        pooled = _st_mc_clouds(small_analyzer, n_samples, 5, make_backend())
        _assert_same_clouds(serial, pooled)

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        jobs=st.integers(min_value=2, max_value=5),
        n_samples=st.integers(min_value=100, max_value=700),
    )
    @settings(max_examples=8, deadline=None)
    def test_thread_backend_matches_serial(
        self, small_analyzer, seed, jobs, n_samples
    ):
        serial = _st_mc_clouds(
            small_analyzer, n_samples, seed, SerialBackend()
        )
        threaded = _st_mc_clouds(
            small_analyzer, n_samples, seed, ThreadBackend(jobs)
        )
        _assert_same_clouds(serial, threaded)


class TestPinnedValues:
    """Fixed-seed results of the sampled methods, pinned to the last bit.

    The execution layout may change how shard tasks are shipped and
    grouped, never what they compute: these literals must stay equal.
    """

    def test_mc_lifetime(self, small_analyzer):
        value = small_analyzer.mc_lifetime(10.0, n_chips=200, seed=3)
        assert value == 1040455.1766517224

    def test_st_mc_lifetime(self, small_analyzer):
        assert small_analyzer.lifetime(10.0, method="st_mc") == 1040201.9948622853

    def test_first_mc_failure_time(self, small_analyzer):
        first = small_analyzer.mc_failure_times(100, seed=4)[0]
        assert first == 26827393.201202743
