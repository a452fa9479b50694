"""Unit tests for the Monte-Carlo reference engines."""

import logging

import numpy as np
import pytest

from repro import obs
from repro.core.montecarlo import (
    ChipKernel,
    MonteCarloEngine,
    ResidualBinning,
)
from repro.errors import ConfigurationError, NumericalError
from repro.exec import ProcessBackend, SerialBackend, ThreadBackend


@pytest.fixture(scope="module")
def engine(request):
    return request.getfixturevalue("small_analyzer").mc_engine


@pytest.fixture(scope="module")
def times(request):
    analyzer = request.getfixturevalue("small_analyzer")
    center = analyzer.lifetime(10, method="st_fast")
    return np.logspace(np.log10(center) - 0.6, np.log10(center) + 0.8, 8)


class TestResidualBinning:
    def test_probabilities_sum_to_one(self):
        binning = ResidualBinning(n_bins=64, z_max=5.0)
        assert binning.probabilities.sum() == pytest.approx(1.0, abs=1e-12)
        assert binning.centers.shape == (64,)

    def test_centers_symmetric(self):
        binning = ResidualBinning(n_bins=100)
        np.testing.assert_allclose(
            binning.centers, -binning.centers[::-1], atol=1e-12
        )

    def test_moments_of_binned_normal(self):
        binning = ResidualBinning(n_bins=256, z_max=6.0)
        mean = binning.probabilities @ binning.centers
        var = binning.probabilities @ binning.centers**2
        assert mean == pytest.approx(0.0, abs=1e-12)
        assert var == pytest.approx(1.0, abs=1e-3)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ResidualBinning(n_bins=2)
        with pytest.raises(ConfigurationError):
            ResidualBinning(z_max=0.0)


class TestReliabilityCurve:
    def test_curve_shape_and_monotonicity(self, engine, times, rng):
        curve = engine.reliability_curve(times, 200, rng)
        assert curve.reliability.shape == times.shape
        assert np.all((0.0 <= curve.reliability) & (curve.reliability <= 1.0))
        assert np.all(np.diff(curve.reliability) <= 1e-12)
        assert curve.n_chips == 200

    def test_std_error_shrinks_with_chips(self, engine, times):
        small = engine.reliability_curve(times, 100, np.random.default_rng(0))
        large = engine.reliability_curve(times, 800, np.random.default_rng(0))
        # Compare where failure is resolvable.
        idx = -1
        assert large.std_error[idx] < small.std_error[idx]

    def test_matches_st_fast(self, engine, times, small_analyzer, rng):
        """The paper's core accuracy claim at design scale."""
        curve = engine.reliability_curve(times, 600, rng)
        f_mc = curve.failure_probability()
        f_fast = np.asarray(small_analyzer.st_fast.failure_probability(times))
        mask = f_fast > 1e-10
        np.testing.assert_allclose(f_mc[mask], f_fast[mask], rtol=0.15)

    def test_failure_probability_complement(self, engine, times, rng):
        curve = engine.reliability_curve(times, 100, rng)
        np.testing.assert_allclose(
            curve.failure_probability(), 1.0 - curve.reliability
        )

    def test_time_zero_included(self, engine, rng):
        curve = engine.reliability_curve(np.array([0.0, 1e5]), 50, rng)
        assert curve.reliability[0] == pytest.approx(1.0)

    def test_rejects_too_few_chips(self, engine, times, rng):
        with pytest.raises(ConfigurationError):
            engine.reliability_curve(times, 1, rng)

    def test_rejects_negative_times(self, engine, rng):
        with pytest.raises(ConfigurationError):
            engine.reliability_curve(np.array([-1.0]), 10, rng)


class TestExactVsBinned:
    def test_modes_agree(self, small_analyzer, times):
        binned = MonteCarloEngine(
            small_analyzer.sampler,
            small_analyzer.blocks,
            device_mode="binned",
            chunk_size=50,
        )
        exact = MonteCarloEngine(
            small_analyzer.sampler,
            small_analyzer.blocks,
            device_mode="exact",
            chunk_size=50,
        )
        c_binned = binned.reliability_curve(
            times, 400, np.random.default_rng(3)
        )
        c_exact = exact.reliability_curve(times, 400, np.random.default_rng(3))
        f_b = c_binned.failure_probability()
        f_e = c_exact.failure_probability()
        mask = f_e > 1e-10
        np.testing.assert_allclose(f_b[mask], f_e[mask], rtol=0.25)

    def test_unknown_mode_rejected(self, small_analyzer):
        with pytest.raises(ConfigurationError):
            MonteCarloEngine(
                small_analyzer.sampler,
                small_analyzer.blocks,
                device_mode="quantum",
            )

    def test_block_order_mismatch_rejected(self, small_analyzer):
        with pytest.raises(ConfigurationError):
            MonteCarloEngine(
                small_analyzer.sampler, small_analyzer.blocks[::-1]
            )


class TestNonFiniteRecovery:
    """A pathological chunk must be survived, not silently poisoned."""

    @pytest.fixture()
    def engine(self, request):
        # Monkeypatched kernels cannot cross a process boundary, so these
        # tests always run the shard tasks in-process.
        analyzer = request.getfixturevalue("small_analyzer")
        return MonteCarloEngine(
            analyzer.sampler,
            analyzer.blocks,
            device_mode=analyzer.config.mc_device_mode,
            chunk_size=analyzer.config.mc_chunk_size,
            backend=SerialBackend(),
        )

    @staticmethod
    def _poison_first_chunk(monkeypatch, engine, bad_rows):
        """Make the first chunk's first ``len(bad_rows)`` chips non-finite."""
        original = ChipKernel.exponents
        state = {"first": True}

        def poisoned(self, times, n_chips, rng):
            exponents = original(self, times, n_chips, rng)
            if state["first"]:
                state["first"] = False
                for row, value in zip(range(exponents.shape[0]), bad_rows, strict=False):
                    exponents[row, 0] = value
            return exponents

        monkeypatch.setattr(ChipKernel, "exponents", poisoned)

    def test_partial_curve_from_valid_chips(
        self, engine, times, rng, monkeypatch, caplog
    ):
        self._poison_first_chunk(monkeypatch, engine, [np.nan, np.inf])
        with obs.enabled(), caplog.at_level(
            logging.WARNING, logger="repro.core.montecarlo"
        ):
            curve = engine.reliability_curve(times, 120, rng)
            assert obs.get_counter("mc.nonfinite_chunks") == 1.0
            assert obs.get_counter("mc.nonfinite_chips") == 2.0
        assert curve.n_chips == 118
        assert np.all(np.isfinite(curve.reliability))
        assert np.all((0.0 <= curve.reliability) & (curve.reliability <= 1.0))
        assert any(
            "dropping 2 of" in record.getMessage()
            for record in caplog.records
        )

    def test_close_to_clean_estimate(self, engine, times, monkeypatch):
        clean = engine.reliability_curve(times, 400, np.random.default_rng(9))
        self._poison_first_chunk(monkeypatch, engine, [np.nan])
        partial = engine.reliability_curve(
            times, 400, np.random.default_rng(9)
        )
        assert partial.n_chips == 399
        np.testing.assert_allclose(
            partial.reliability, clean.reliability, atol=0.05
        )

    def test_all_invalid_raises(self, engine, times, rng, monkeypatch):
        monkeypatch.setattr(
            ChipKernel,
            "exponents",
            lambda self, t, n, r: np.full((n, np.size(t)), np.nan),
        )
        with pytest.raises(NumericalError, match="non-finite"):
            engine.reliability_curve(times, 100, rng)


class TestFailureTimes:
    def test_all_positive_finite(self, engine, rng):
        ft = engine.failure_times(300, rng)
        assert ft.shape == (300,)
        assert np.all(ft > 0.0)
        assert np.all(np.isfinite(ft))

    def test_quantiles_match_reliability_curve(self, engine, rng):
        """Weakest-link sampling and conditional-reliability averaging are
        two estimators of the same distribution."""
        ft = engine.failure_times(3000, rng)
        for q in (0.05, 0.25, 0.5):
            t_q = float(np.quantile(ft, q))
            curve = engine.reliability_curve(
                np.array([t_q]), 400, np.random.default_rng(17)
            )
            assert 1.0 - curve.reliability[0] == pytest.approx(q, abs=0.05)

    def test_exact_mode_agrees(self, small_analyzer, rng):
        exact = MonteCarloEngine(
            small_analyzer.sampler,
            small_analyzer.blocks,
            device_mode="exact",
            chunk_size=50,
        )
        ft_binned = small_analyzer.mc_engine.failure_times(
            1500, np.random.default_rng(5)
        )
        ft_exact = exact.failure_times(1500, np.random.default_rng(6))
        assert np.median(ft_exact) == pytest.approx(
            np.median(ft_binned), rel=0.1
        )

    def test_rejects_zero_chips(self, engine, rng):
        with pytest.raises(ConfigurationError):
            engine.failure_times(0, rng)


def _variant(engine, **overrides):
    """A sibling engine sharing the model but with scheduling overrides."""
    kwargs = dict(
        sampler=engine.sampler,
        blocks=engine.blocks,
        device_mode=engine.device_mode,
        binning=engine.binning,
        chunk_size=engine.chunk_size,
        shard_size=engine.shard_size,
        backend=SerialBackend(),
    )
    kwargs.update(overrides)
    return MonteCarloEngine(**kwargs)


class TestDeterminism:
    """Results are a function of the seed alone, never of scheduling."""

    def test_chunk_size_does_not_change_curve(self, engine, times):
        curves = [
            _variant(engine, chunk_size=size).reliability_curve(times, 300, 7)
            for size in (17, 100, 1000)
        ]
        for other in curves[1:]:
            np.testing.assert_array_equal(
                curves[0].reliability, other.reliability
            )
            np.testing.assert_array_equal(curves[0].std_error, other.std_error)

    def test_chunk_size_does_not_change_failure_times(self, engine):
        a = _variant(engine, chunk_size=33).failure_times(200, 11)
        b = _variant(engine, chunk_size=640).failure_times(200, 11)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("cls", [ThreadBackend, ProcessBackend])
    def test_backends_bit_identical(self, engine, times, cls):
        serial = _variant(engine).reliability_curve(times, 200, 3)
        backend = cls(2)
        try:
            parallel = _variant(engine, backend=backend).reliability_curve(
                times, 200, 3
            )
        finally:
            backend.close()
        np.testing.assert_array_equal(serial.reliability, parallel.reliability)
        np.testing.assert_array_equal(serial.std_error, parallel.std_error)
        np.testing.assert_array_equal(serial.n_chips, parallel.n_chips)

    def test_shard_size_defines_the_stream(self, engine, times):
        a = _variant(engine, shard_size=32).reliability_curve(times, 200, 5)
        b = _variant(engine, shard_size=64).reliability_curve(times, 200, 5)
        assert not np.array_equal(a.reliability, b.reliability)

    def test_seed_sequence_matches_int_seed(self, engine, times):
        a = _variant(engine).reliability_curve(times, 100, 9)
        b = _variant(engine).reliability_curve(
            times, 100, np.random.SeedSequence(9)
        )
        np.testing.assert_array_equal(a.reliability, b.reliability)


class TestCheckpointResume:
    """A killed run resumed from its checkpoint matches an unbroken one."""

    def test_killed_curve_resumes_bit_identical(
        self, engine, times, tmp_path, monkeypatch
    ):
        path = tmp_path / "mc.ckpt.npz"
        baseline = _variant(engine, chunk_size=16, shard_size=16).reliability_curve(
            times, 96, 5
        )

        broken = _variant(engine, chunk_size=16, shard_size=16)
        real = ChipKernel.exponents
        calls = {"n": 0}

        def dying(kernel, chunk_times, n_chips, rng):
            calls["n"] += 1
            if calls["n"] > 2:
                raise KeyboardInterrupt
            return real(kernel, chunk_times, n_chips, rng)

        with monkeypatch.context() as patch, pytest.raises(KeyboardInterrupt):
            patch.setattr(ChipKernel, "exponents", dying)
            broken.reliability_curve(
                times, 96, 5, checkpoint_path=path, checkpoint_every=1
            )
        assert path.exists()

        resumed_engine = _variant(engine, chunk_size=16, shard_size=16)
        with obs.enabled():
            resumed = resumed_engine.reliability_curve(
                times, 96, 5, checkpoint_path=path, checkpoint_every=1
            )
            assert obs.get_counter("exec.checkpoint.resumed_shards") >= 1.0
        np.testing.assert_array_equal(resumed.reliability, baseline.reliability)
        np.testing.assert_array_equal(resumed.std_error, baseline.std_error)
        assert not path.exists()  # cleared once the run completes

    def test_killed_failure_times_resume_bit_identical(
        self, engine, tmp_path, monkeypatch
    ):
        path = tmp_path / "ft.ckpt.npz"
        baseline = _variant(engine, chunk_size=16, shard_size=16).failure_times(80, 21)

        broken = _variant(engine, chunk_size=16, shard_size=16)
        real = ChipKernel.failure_times
        calls = {"n": 0}

        def dying(kernel, n_chips, rng):
            calls["n"] += 1
            if calls["n"] > 2:
                raise KeyboardInterrupt
            return real(kernel, n_chips, rng)

        with monkeypatch.context() as patch, pytest.raises(KeyboardInterrupt):
            patch.setattr(ChipKernel, "failure_times", dying)
            broken.failure_times(
                80, 21, checkpoint_path=path, checkpoint_every=1
            )
        assert path.exists()

        resumed = _variant(engine, chunk_size=16, shard_size=16).failure_times(
            80, 21, checkpoint_path=path, checkpoint_every=1
        )
        np.testing.assert_array_equal(resumed, baseline)

    def test_stale_checkpoint_rejected_on_seed_change(
        self, engine, tmp_path, monkeypatch
    ):
        """A checkpoint for one seed must not resurrect into another run."""
        path = tmp_path / "stale.ckpt.npz"
        broken = _variant(engine, chunk_size=16, shard_size=16)
        real = ChipKernel.failure_times
        calls = {"n": 0}

        def dying(kernel, n_chips, rng):
            calls["n"] += 1
            if calls["n"] > 1:
                raise KeyboardInterrupt
            return real(kernel, n_chips, rng)

        with monkeypatch.context() as patch, pytest.raises(KeyboardInterrupt):
            patch.setattr(ChipKernel, "failure_times", dying)
            broken.failure_times(
                80, 21, checkpoint_path=path, checkpoint_every=1
            )

        fresh = _variant(engine, chunk_size=16, shard_size=16).failure_times(
            80, 22, checkpoint_path=path, checkpoint_every=1
        )
        baseline = _variant(engine, chunk_size=16, shard_size=16).failure_times(80, 22)
        np.testing.assert_array_equal(fresh, baseline)
