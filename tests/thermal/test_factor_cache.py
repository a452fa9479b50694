"""Tests for the per-(grid, package) sparse-factorization cache."""

from functools import partial

import numpy as np
import pytest
from scipy.sparse.linalg import spsolve

from repro import obs
from repro.chip.geometry import GridSpec
from repro.kernels import reference
from repro.thermal.factor_cache import (
    _MAX_ENTRIES,
    cached_factorization,
    clear_factor_cache,
    factor_cache_stats,
)
from repro.thermal.grid import PackageModel
from repro.thermal.solver import _build_conductance_matrix, solve_steady_state


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_factor_cache()
    yield
    clear_factor_cache()


@pytest.fixture()
def grid():
    return GridSpec(nx=10, ny=8, width=6.0, height=5.0)


@pytest.fixture()
def package():
    return PackageModel(ambient_temperature=45.0)


def _power(grid, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 0.5, grid.n_cells)


class TestCachedFactorization:
    def test_hit_on_second_lookup(self, grid, package):
        build = partial(_build_conductance_matrix, grid, package)
        _solve, hit = cached_factorization(grid, package, build)
        assert not hit
        solve, hit = cached_factorization(grid, package, build)
        assert hit
        stats = factor_cache_stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["entries"] == 1
        # The cached back-substitution is an actual solver.
        rhs = _power(grid)
        matrix = build()
        np.testing.assert_allclose(matrix @ solve(rhs), rhs, atol=1e-9)

    def test_distinct_keys_do_not_collide(self, grid, package):
        other_grid = GridSpec(nx=6, ny=6, width=6.0, height=5.0)
        other_package = PackageModel(ambient_temperature=60.0)
        for g, p in [
            (grid, package),
            (other_grid, package),
            (grid, other_package),
        ]:
            _solve, hit = cached_factorization(
                g, p, partial(_build_conductance_matrix, g, p)
            )
            assert not hit
        assert factor_cache_stats()["entries"] == 3

    def test_lru_bound(self, package):
        for n in range(_MAX_ENTRIES + 3):
            g = GridSpec(nx=3 + n, ny=3, width=2.0, height=1.0)
            cached_factorization(
                g, package, partial(_build_conductance_matrix, g, package)
            )
        assert factor_cache_stats()["entries"] == _MAX_ENTRIES

    def test_clear_resets(self, grid, package):
        cached_factorization(
            grid, package, partial(_build_conductance_matrix, grid, package)
        )
        clear_factor_cache()
        stats = factor_cache_stats()
        assert stats == {"hits": 0, "misses": 0, "entries": 0}


class TestSolverIntegration:
    def test_cached_solution_matches_direct_spsolve(self, grid, package):
        power = _power(grid)
        rhs = power + package.vertical_conductance(grid) * package.ambient_temperature
        direct = spsolve(reference.build_conductance_matrix(grid, package), rhs)
        cold = solve_steady_state(grid, power, package)
        warm = solve_steady_state(grid, power, package)
        np.testing.assert_allclose(cold.values, direct, rtol=1e-12, atol=0.0)
        # The warm solve reuses the factors, bit-identically.
        np.testing.assert_array_equal(warm.values, cold.values)
        stats = factor_cache_stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1

    def test_obs_counters_mirror_stats(self, grid, package):
        obs.reset()
        obs.enable()
        try:
            solve_steady_state(grid, _power(grid), package)
            solve_steady_state(grid, _power(grid, seed=1), package)
            from repro.obs import metrics

            assert metrics.get_counter("thermal.factor_cache.miss") == 1
            assert metrics.get_counter("thermal.factor_cache.hit") == 1
        finally:
            obs.disable()
            obs.reset()
