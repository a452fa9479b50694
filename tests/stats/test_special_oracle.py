"""``scipy.special`` distributions vs ``scipy.stats``, bit for bit.

``NormalDist``, ``Chi2Match`` and the Monte-Carlo residual binning
evaluate ``scipy.special`` directly so the CLI never imports
``scipy.stats``.  ``scipy.stats`` is the oracle here: every value,
including the edges of the support, ``+-inf`` and NaN, must be equal
(NaN positions included).
"""

import numpy as np
import pytest
from scipy import stats as sps

from repro.core.montecarlo import ResidualBinning
from repro.stats.integration import NormalDist
from repro.stats.quadform import Chi2Match

EDGE_X = np.array(
    [-np.inf, -1e300, -3.0, -0.0, 0.0, 1e-300, 3.0, 1e300, np.inf, np.nan]
)
EDGE_Q = np.array([0.0, 1e-300, 1e-12, 0.5, 1.0 - 1e-12, 1.0, -0.1, 1.1, np.nan])


def _same(actual, expected):
    actual = np.asarray(actual)
    expected = np.asarray(expected)
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected, equal_nan=True), (actual, expected)


@pytest.fixture(params=[0, 1, 2])
def grid_rng(request):
    return np.random.default_rng(1000 + request.param)


class TestNormalDist:
    @pytest.mark.parametrize(
        "mean, sigma", [(0.0, 1.0), (1.7, 0.03), (-250.0, 42.0), (2.0, 1e-300)]
    )
    def test_pdf_matches_scipy(self, grid_rng, mean, sigma):
        dist = NormalDist(mean, sigma)
        x = mean + sigma * 8.0 * (grid_rng.random(500) - 0.5)
        x = np.concatenate([x, EDGE_X, [mean]])
        with np.errstate(over="ignore"):  # both square +-1e300
            _same(dist.pdf(x), sps.norm.pdf(x, loc=mean, scale=sigma))

    @pytest.mark.parametrize("mean, sigma", [(0.0, 1.0), (1.7, 0.03), (2.0, 1e-300)])
    def test_ppf_matches_scipy(self, grid_rng, mean, sigma):
        dist = NormalDist(mean, sigma)
        q = np.concatenate([grid_rng.random(500), EDGE_Q])
        _same(dist.ppf(q), sps.norm.ppf(q, loc=mean, scale=sigma))

    def test_scalars_match_scipy(self):
        dist = NormalDist(1.7, 0.03)
        _same(dist.pdf(1.71), sps.norm.pdf(1.71, loc=1.7, scale=0.03))
        _same(dist.ppf(1e-6), sps.norm.ppf(1e-6, loc=1.7, scale=0.03))

    def test_degenerate_sigma_is_a_point_mass(self):
        dist = NormalDist(1.7, 0.0)
        _same(dist.pdf(EDGE_X), np.zeros_like(EDGE_X))
        _same(dist.ppf(EDGE_Q), np.full_like(EDGE_Q, 1.7))


class TestChi2Match:
    MATCHES = [
        Chi2Match(offset=0.0, scale=1.0, dof=3.0),
        Chi2Match(offset=1.8e-4, scale=2.5e-6, dof=17.3),
        Chi2Match(offset=-2.0, scale=0.7, dof=0.6),
        Chi2Match(offset=5.0, scale=3.0, dof=2.0),
        Chi2Match(offset=0.1, scale=1e-3, dof=1.5),
    ]

    def _x(self, match, rng):
        spread = match.scale * (match.dof + 6.0 * np.sqrt(2.0 * match.dof))
        x = match.offset + spread * (1.2 * rng.random(500) - 0.1)
        edges = match.offset + match.scale * EDGE_X
        below = match.offset - match.scale * np.array([1e-12, 1.0, 1e6])
        return np.concatenate([x, edges, below, [match.offset]])

    @pytest.mark.parametrize("match", MATCHES)
    def test_cdf_matches_scipy(self, grid_rng, match):
        x = self._x(match, grid_rng)
        z = (x - match.offset) / match.scale
        _same(match.cdf(x), sps.chi2.cdf(z, match.dof))

    @pytest.mark.parametrize("match", MATCHES)
    def test_pdf_matches_scipy(self, grid_rng, match):
        x = self._x(match, grid_rng)
        z = (x - match.offset) / match.scale
        with np.errstate(invalid="ignore"):
            expected = sps.chi2.pdf(z, match.dof) / match.scale
            actual = match.pdf(x)
        _same(actual, expected)

    @pytest.mark.parametrize("match", MATCHES)
    def test_ppf_matches_scipy(self, grid_rng, match):
        q = np.concatenate([grid_rng.random(500), EDGE_Q])
        expected = match.offset + match.scale * sps.chi2.ppf(q, match.dof)
        _same(match.ppf(q), expected)

    def test_below_offset_is_zero_not_nan(self):
        match = self.MATCHES[1]
        below = match.offset - match.scale * np.array([1e-9, 1.0])
        _same(match.cdf(below), [0.0, 0.0])
        _same(match.pdf(below), [0.0, 0.0])

    def test_scalars_match_scipy(self):
        match = self.MATCHES[1]
        x = match.offset + 3.0 * match.scale
        z = (x - match.offset) / match.scale
        assert isinstance(match.cdf(x), float)
        assert match.cdf(x) == sps.chi2.cdf(z, match.dof)
        assert match.pdf(x) == sps.chi2.pdf(z, match.dof) / match.scale
        assert match.ppf(1e-10) == (
            match.offset + match.scale * sps.chi2.ppf(1e-10, match.dof)
        )
        assert match.support() == (
            match.offset + match.scale * sps.chi2.ppf(1e-10, match.dof),
            match.offset + match.scale * sps.chi2.ppf(1.0 - 1e-10, match.dof),
        )


class TestResidualBinning:
    @pytest.mark.parametrize(
        "n_bins, z_max", [(128, 5.0), (8, 3.0), (9, 0.5), (4096, 40.0)]
    )
    def test_probabilities_match_scipy(self, n_bins, z_max):
        edges = np.linspace(-z_max, z_max, n_bins + 1)
        cdf = sps.norm.cdf(edges)
        expected = np.diff(cdf)
        expected[0] += cdf[0]
        expected[-1] += 1.0 - cdf[-1]
        binning = ResidualBinning(n_bins=n_bins, z_max=z_max)
        _same(binning.probabilities, expected)
