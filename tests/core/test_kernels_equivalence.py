"""Equivalence regression tests for the ``repro.kernels`` production kernels.

Every vectorised kernel must reproduce its loop-per-element oracle in
:mod:`repro.kernels.reference`: the batched ensemble/hybrid kernels to
floating-point round-off, the vectorized geometry and conductance
assembly bit for bit.
"""

import numpy as np
import pytest

from repro.chip.geometry import GridSpec, Rect
from repro.core.ensemble import StFastAnalyzer, StMcAnalyzer
from repro.core.hybrid import HybridAnalyzer
from repro.errors import ConfigurationError
from repro.kernels import pad_rule_tables, reference
from repro.thermal.grid import PackageModel
from repro.thermal.solver import _build_conductance_matrix


@pytest.fixture(scope="module")
def blocks(request):
    analyzer = request.getfixturevalue("small_analyzer")
    return analyzer.blocks


@pytest.fixture(scope="module")
def times(request):
    analyzer = request.getfixturevalue("small_analyzer")
    center = analyzer.lifetime(10, method="guard")
    times = np.logspace(np.log10(center) - 0.8, np.log10(center) + 1.2, 15)
    # Include the t = 0 corner the kernels special-case.
    return np.concatenate([[0.0], times])


class TestPadRuleTables:
    def test_pads_with_zero_weight(self):
        points, weights = pad_rule_tables(
            [np.array([1.0, 2.0]), np.array([5.0])],
            [np.array([0.5, 0.5]), np.array([1.0])],
        )
        np.testing.assert_array_equal(points, [[1.0, 2.0], [5.0, 5.0]])
        np.testing.assert_array_equal(weights, [[0.5, 0.5], [1.0, 0.0]])

    def test_rejects_mismatched_lists(self):
        with pytest.raises(ConfigurationError):
            pad_rule_tables([np.array([1.0])], [])
        with pytest.raises(ConfigurationError):
            pad_rule_tables([], [])


class TestEnsembleEquivalence:
    def test_st_fast_batched_matches_loop(self, blocks, times):
        analyzer = StFastAnalyzer(blocks)
        expected = reference.block_failure_probabilities(analyzer, times)
        fast = analyzer.block_failure_probabilities(times)
        np.testing.assert_allclose(fast, expected, rtol=0.0, atol=1e-13)

    def test_st_mc_samples_batched_matches_loop(self, blocks, times):
        analyzer = StMcAnalyzer(blocks, n_samples=2000, seed=7)
        expected = reference.block_failure_probabilities(analyzer, times)
        fast = analyzer.block_failure_probabilities(times)
        np.testing.assert_allclose(fast, expected, rtol=0.0, atol=1e-13)

    def test_st_mc_histogram_has_no_fast_path(self, blocks, times):
        analyzer = StMcAnalyzer(
            blocks, n_samples=2000, seed=7, estimator="histogram"
        )
        expected = reference.block_failure_probabilities(analyzer, times)
        fast = analyzer.block_failure_probabilities(times)
        np.testing.assert_array_equal(fast, expected)


class TestHybridEquivalence:
    def test_tables_and_queries_match(self, blocks, times):
        fast = HybridAnalyzer(blocks, n_alpha=40, n_b=40)
        expected = np.stack(
            [reference.hybrid_block_table(fast, block) for block in blocks]
        )
        np.testing.assert_allclose(fast.tables, expected, rtol=0.0, atol=1e-12)
        alpha_min = min(block.alpha for block in blocks)
        query_times = np.concatenate(
            [[0.0], np.geomspace(1e-4 * alpha_min, 0.2 * alpha_min, 20)]
        )
        ref_probs = reference.hybrid_block_failure_probabilities(
            fast, query_times
        )
        fast_probs = fast.block_failure_probabilities(query_times)
        np.testing.assert_allclose(
            fast_probs, ref_probs, rtol=0.0, atol=1e-13
        )

    def test_out_of_range_error_matches(self, blocks):
        analyzer = HybridAnalyzer(blocks, n_alpha=40, n_b=40)
        alpha_max = max(block.alpha for block in blocks)
        bad = np.array([alpha_max * 2.0])
        with pytest.raises(ConfigurationError) as ref_exc:
            reference.hybrid_block_failure_probabilities(analyzer, bad)
        with pytest.raises(ConfigurationError) as fast_exc:
            analyzer.block_failure_probabilities(bad)
        assert str(fast_exc.value) == str(ref_exc.value)


class TestGeometryEquivalence:
    def test_overlap_fractions_bit_identical(self):
        grid = GridSpec(nx=13, ny=9, width=2.0, height=1.5)
        rng = np.random.default_rng(3)
        rects = [
            Rect(0.0, 0.0, 2.0, 1.5),  # whole die
            Rect(0.3, 0.2, 0.05, 0.04),  # interior, sub-cell
            Rect(-0.4, -0.3, 0.8, 0.6),  # straddles the die corner
            Rect(5.0, 5.0, 1.0, 1.0),  # fully off-die
        ] + [
            Rect(
                rng.uniform(-0.5, 2.0),
                rng.uniform(-0.5, 1.5),
                rng.uniform(0.01, 1.0),
                rng.uniform(0.01, 0.8),
            )
            for _ in range(50)
        ]
        for rect in rects:
            np.testing.assert_array_equal(
                grid.overlap_fractions(rect),
                reference.overlap_fractions(grid, rect),
            )


class TestConductanceEquivalence:
    def test_matrix_bit_identical(self):
        grid = GridSpec(nx=11, ny=7, width=0.016, height=0.012)
        package = PackageModel()
        fast = _build_conductance_matrix(grid, package).toarray()
        expected = reference.build_conductance_matrix(grid, package).toarray()
        np.testing.assert_array_equal(fast, expected)
