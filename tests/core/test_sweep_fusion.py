"""Bit-identity tests for the fused temperature-axis sweep kernel.

``sweep_reliabilities`` fuses several same-design ensemble grids into one
kernel dispatch.  The contract is strict: either the fused result is
**bitwise identical** to evaluating each analyzer separately, or the
function returns ``None`` and the caller dispatches per analyzer.  These
tests pin both halves — exact equality on the fusable shapes, and every
documented decline condition.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import AnalysisConfig, ReliabilityAnalyzer
from repro.core.ensemble import sweep_reliabilities
from repro.errors import ConfigurationError
from repro.kernels.survival import sweep_rule_expectations

TEMPS = (40.0, 60.0, 80.0, 100.0)


@pytest.fixture(scope="module")
def temp_analyzers(request):
    """One analyzer per uniform temperature, sharing BLOD tables."""
    floorplan = request.getfixturevalue("small_floorplan")
    config = request.getfixturevalue("fast_config")
    out = []
    for temp in TEMPS:
        out.append(
            ReliabilityAnalyzer(
                floorplan,
                config=config,
                block_temperatures=np.full(floorplan.n_blocks, temp),
            )
        )
    return out


@pytest.fixture(scope="module")
def times(request):
    analyzer = request.getfixturevalue("small_analyzer")
    center = analyzer.lifetime(10.0, method="guard")
    return np.geomspace(center / 20.0, 20.0 * center, 8)


class TestBitIdentity:
    @pytest.mark.parametrize("attr", ["st_fast", "temp_unaware"])
    def test_equal_length_grids(self, temp_analyzers, times, attr):
        subs = [getattr(a, attr) for a in temp_analyzers]
        fused = sweep_reliabilities(subs, [times] * len(subs))
        assert fused is not None
        for sub, values in zip(subs, fused, strict=True):
            reference = sub.reliability(times)
            assert np.array_equal(values, reference)  # bitwise, not approx

    def test_scalar_rungs(self, temp_analyzers, times):
        """The batch ladder shape: one probe time per analyzer."""
        subs = [a.st_fast for a in temp_analyzers]
        probes = [float(t) for t in times[: len(subs)]]
        fused = sweep_reliabilities(subs, probes)
        assert fused is not None
        for sub, probe, values in zip(subs, probes, fused, strict=True):
            assert values.shape == (1,)
            assert values[0] == sub.reliability(np.asarray([probe]))[0]

    def test_mixed_length_grids(self, temp_analyzers, times):
        subs = [a.st_fast for a in temp_analyzers]
        times_list = [times[: 2 + k] for k in range(len(subs))]
        fused = sweep_reliabilities(subs, times_list)
        assert fused is not None
        for sub, ts, values in zip(subs, times_list, fused, strict=True):
            assert np.array_equal(values, sub.reliability(ts))

    def test_zero_time_column_exact(self, temp_analyzers):
        subs = [a.st_fast for a in temp_analyzers]
        fused = sweep_reliabilities(subs, [np.array([0.0, 1e4])] * len(subs))
        assert fused is not None
        for values in fused:
            assert values[0] == 1.0


class TestDeclines:
    def test_empty_and_mismatched_inputs(self, temp_analyzers, times):
        subs = [a.st_fast for a in temp_analyzers]
        assert sweep_reliabilities([], []) is None
        assert sweep_reliabilities(subs, [times]) is None

    def test_mismatched_quadrature_tables(
        self, small_floorplan, temp_analyzers, times
    ):
        other = ReliabilityAnalyzer(
            small_floorplan,
            config=AnalysisConfig(grid_size=8),
            block_temperatures=np.full(small_floorplan.n_blocks, TEMPS[0]),
        )
        subs = [temp_analyzers[0].st_fast, other.st_fast]
        assert sweep_reliabilities(subs, [times, times]) is None

    def test_oversized_grid_declines(self, temp_analyzers):
        """Fusion requires the concatenated axis to fit one chunk."""
        subs = [a.st_fast for a in temp_analyzers]
        big = np.geomspace(1e2, 1e8, 5000)
        assert sweep_reliabilities(subs, [big] * len(subs)) is None
        # ... and the per-analyzer fallback still agrees with itself.
        assert subs[0].reliability(big).shape == big.shape

    def test_negative_times_rejected(self, temp_analyzers):
        subs = [a.st_fast for a in temp_analyzers]
        with pytest.raises(ConfigurationError, match="non-negative"):
            sweep_reliabilities(subs, [np.array([-1.0, 1.0])] * len(subs))


class TestSweepRuleExpectations:
    def test_empty_profile_list(self, temp_analyzers):
        base = temp_analyzers[0].st_fast
        assert (
            sweep_rule_expectations(
                [],
                base._log_areas,
                base._u_points,
                base._u_weights,
                base._v_points,
                base._v_weights,
            )
            == []
        )

    def test_shape_validation(self, temp_analyzers):
        base = temp_analyzers[0].st_fast
        n_blocks = base._log_areas.shape[0]
        good = np.zeros((n_blocks, 2), dtype=np.float64)
        bad = np.zeros((n_blocks + 1, 2), dtype=np.float64)
        with pytest.raises(ConfigurationError, match="shape"):
            sweep_rule_expectations(
                [good, bad],
                base._log_areas,
                base._u_points,
                base._u_weights,
                base._v_points,
                base._v_weights,
            )

    def test_overflow_prone_profile_declines(self, temp_analyzers):
        """A profile that would overflow the separable exp branch."""
        base = temp_analyzers[0].st_fast
        n_blocks = base._log_areas.shape[0]
        hot = np.full((n_blocks, 2), 1e6, dtype=np.float64)
        assert (
            sweep_rule_expectations(
                [hot],
                base._log_areas,
                base._u_points,
                base._u_weights,
                base._v_points,
                base._v_weights,
            )
            is None
        )
