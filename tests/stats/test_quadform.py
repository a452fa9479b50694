"""Unit tests for quadratic-form distributions (eq. (29)-(30), Imhof)."""

import numpy as np
import pytest
from scipy import stats as sps

from repro.errors import ConfigurationError, NumericalError
from repro.stats.quadform import Chi2Match, QuadraticForm


def _random_psd(rng, dim, scale=1.0):
    a = rng.standard_normal((dim, dim))
    return scale * (a @ a.T) / dim


class TestMoments:
    def test_mean_is_offset_plus_trace(self, rng):
        matrix = _random_psd(rng, 5)
        form = QuadraticForm(offset=2.0, matrix=matrix)
        assert form.mean() == pytest.approx(2.0 + np.trace(matrix))

    def test_variance_is_two_trace_squared(self, rng):
        matrix = _random_psd(rng, 5)
        form = QuadraticForm(offset=0.0, matrix=matrix)
        assert form.var() == pytest.approx(2.0 * np.sum(matrix * matrix))

    def test_moments_match_sampling(self, rng):
        matrix = _random_psd(rng, 4)
        form = QuadraticForm(offset=1.0, matrix=matrix)
        samples = form.sample(rng, 200000)
        assert samples.mean() == pytest.approx(form.mean(), rel=0.02)
        assert samples.var() == pytest.approx(form.var(), rel=0.05)

    def test_skewness_positive_for_psd(self, rng):
        form = QuadraticForm(offset=0.0, matrix=_random_psd(rng, 4))
        assert form.skewness() > 0.0

    def test_identity_matrix_is_chi2(self):
        dim = 6
        form = QuadraticForm(offset=0.0, matrix=np.eye(dim))
        assert form.mean() == pytest.approx(dim)
        assert form.var() == pytest.approx(2.0 * dim)
        assert form.skewness() == pytest.approx(sps.chi2.stats(dim, moments="s"))

    def test_degenerate_detection(self):
        form = QuadraticForm(offset=3.0, matrix=np.zeros((3, 3)))
        assert form.is_degenerate
        assert form.mean() == 3.0

    def test_rejects_non_square(self):
        with pytest.raises(ConfigurationError):
            QuadraticForm(offset=0.0, matrix=np.ones((2, 3)))


class TestChi2Match:
    def test_exact_for_scaled_identity(self):
        # z' (c I) z = c * chi2(dim): the two-moment match is exact.
        dim, c = 5, 0.3
        form = QuadraticForm(offset=1.0, matrix=c * np.eye(dim))
        match = form.chi2_match()
        assert match.scale == pytest.approx(c)
        assert match.dof == pytest.approx(dim)
        x = np.linspace(1.0, 6.0, 30)
        np.testing.assert_allclose(
            match.cdf(x), sps.chi2.cdf((x - 1.0) / c, dim), rtol=1e-12
        )

    def test_preserves_mean_and_variance(self, rng):
        form = QuadraticForm(offset=0.5, matrix=_random_psd(rng, 6))
        match = form.chi2_match()
        assert match.mean() == pytest.approx(form.mean())
        assert match.var() == pytest.approx(form.var())

    def test_paper_formula(self, rng):
        # a = tr(C^2)/tr(C), b = tr(C)^2/tr(C^2) (eq. (30)).
        matrix = _random_psd(rng, 4)
        form = QuadraticForm(offset=0.0, matrix=matrix)
        match = form.chi2_match()
        tr = np.trace(matrix)
        tr2 = np.sum(matrix * matrix)
        assert match.scale == pytest.approx(tr2 / tr)
        assert match.dof == pytest.approx(tr**2 / tr2)

    def test_cdf_close_to_empirical(self, rng):
        form = QuadraticForm(offset=0.0, matrix=_random_psd(rng, 8))
        match = form.chi2_match()
        samples = form.sample(rng, 100000)
        for q in (0.1, 0.5, 0.9):
            x = np.quantile(samples, q)
            assert match.cdf(x) == pytest.approx(q, abs=0.03)

    def test_ppf_cdf_round_trip(self, rng):
        match = QuadraticForm(offset=1.0, matrix=_random_psd(rng, 5)).chi2_match()
        q = np.array([0.01, 0.5, 0.99])
        np.testing.assert_allclose(match.cdf(match.ppf(q)), q, rtol=1e-9)

    def test_support_brackets_mass(self, rng):
        match = QuadraticForm(offset=1.0, matrix=_random_psd(rng, 5)).chi2_match()
        lo, hi = match.support(tail=1e-6)
        assert match.cdf(lo) == pytest.approx(1e-6, rel=1e-3)
        assert match.cdf(hi) == pytest.approx(1.0 - 1e-6, rel=1e-3)

    def test_pdf_integrates_to_one(self, rng):
        match = QuadraticForm(offset=0.0, matrix=_random_psd(rng, 6)).chi2_match()
        lo, hi = match.support(tail=1e-12)
        x = np.linspace(lo, hi, 40001)
        assert np.trapezoid(match.pdf(x), x) == pytest.approx(1.0, abs=1e-4)

    def test_degenerate_raises(self):
        form = QuadraticForm(offset=0.0, matrix=np.zeros((2, 2)))
        with pytest.raises(NumericalError):
            form.chi2_match()


class TestHbeMatch:
    def test_matches_three_moments(self, rng):
        form = QuadraticForm(offset=0.0, matrix=_random_psd(rng, 5))
        match = form.hbe_match()
        assert match.mean() == pytest.approx(form.mean())
        assert match.var() == pytest.approx(form.var())
        # Skewness of offset + a*chi2(b) is sqrt(8/b).
        assert np.sqrt(8.0 / match.dof) == pytest.approx(form.skewness())

    def test_hbe_at_least_as_good_in_tail(self, rng):
        # One dominant eigenvalue: strongly skewed, where HBE helps.
        matrix = np.diag([1.0, 0.05, 0.05, 0.05])
        form = QuadraticForm(offset=0.0, matrix=matrix)
        samples = form.sample(rng, 400000)
        x = np.quantile(samples, 0.99)
        err_chi2 = abs(form.chi2_match().cdf(x) - 0.99)
        err_hbe = abs(form.hbe_match().cdf(x) - 0.99)
        assert err_hbe <= err_chi2 + 5e-4


class TestImhof:
    def test_matches_chi2_exactly(self):
        dim = 4
        form = QuadraticForm(offset=0.0, matrix=np.eye(dim))
        for x in (1.0, 4.0, 9.0):
            assert form.imhof_cdf(x) == pytest.approx(
                sps.chi2.cdf(x, dim), abs=1e-6
            )

    def test_offset_shifts_cdf(self):
        form_a = QuadraticForm(offset=0.0, matrix=np.eye(3))
        form_b = QuadraticForm(offset=2.0, matrix=np.eye(3))
        assert form_b.imhof_cdf(5.0) == pytest.approx(
            form_a.imhof_cdf(3.0), abs=1e-6
        )

    def test_matches_empirical_cdf(self, rng):
        form = QuadraticForm(offset=0.0, matrix=_random_psd(rng, 5))
        samples = form.sample(rng, 200000)
        for q in (0.1, 0.5, 0.9):
            x = float(np.quantile(samples, q))
            assert form.imhof_cdf(x) == pytest.approx(q, abs=0.01)

    def test_degenerate_step_function(self):
        form = QuadraticForm(offset=2.0, matrix=np.zeros((2, 2)))
        assert form.imhof_cdf(1.0) == 0.0
        assert form.imhof_cdf(3.0) == 1.0

    def test_chi2_match_close_to_imhof(self, rng):
        # The paper's Fig. 8 claim: the cheap chi-square approximation
        # agrees well with the exact distribution.
        form = QuadraticForm(offset=0.0, matrix=_random_psd(rng, 8))
        match = form.chi2_match()
        xs = np.linspace(match.ppf(0.02), match.ppf(0.98), 9)
        for x in xs:
            assert match.cdf(float(x)) == pytest.approx(
                form.imhof_cdf(float(x)), abs=0.03
            )


class TestImhofBatched:
    """The vectorized ``imhof_sf`` kernel (shared eigendecomposition, one
    batched oscillatory quadrature) vs the per-point adaptive inversion.

    The adaptive integrator itself carries ~1e-5 error on very small
    spectra, so tolerances compare against its accuracy, not round-off.
    """

    def test_array_input_matches_per_point_adaptive(self, rng):
        form = QuadraticForm(offset=0.0, matrix=_random_psd(rng, 8))
        lam, _scale = form._imhof_spectrum
        xs = np.linspace(form.mean() * 0.2, form.mean() * 2.5, 12)
        batched = form.imhof_sf(xs)
        adaptive = np.array(
            [
                form._imhof_sf_adaptive(lam, (x - form.offset) / _scale, 200)
                for x in xs
            ]
        )
        assert isinstance(batched, np.ndarray)
        np.testing.assert_allclose(batched, adaptive, atol=1e-6)

    def test_scalar_input_returns_float(self, rng):
        form = QuadraticForm(offset=0.0, matrix=_random_psd(rng, 5))
        out = form.imhof_sf(form.mean())
        assert isinstance(out, float)
        assert out == pytest.approx(float(form.imhof_sf(np.array([form.mean()]))[0]))

    def test_fast_path_off_matches(self, rng):
        # Offset form: the batched inversion against the per-point
        # adaptive path, which stays in production as its fallback.
        form = QuadraticForm(offset=0.5, matrix=_random_psd(rng, 6))
        xs = np.linspace(form.mean() * 0.3, form.mean() * 2.0, 6)
        lam, scale = form._imhof_spectrum
        fast = form.imhof_sf(xs)
        reference = np.array(
            [
                form._imhof_sf_adaptive(lam, (x - form.offset) / scale, 200)
                for x in xs
            ]
        )
        np.testing.assert_allclose(fast, reference, atol=5e-5)

    def test_chi2_reference_values(self):
        dim = 6
        form = QuadraticForm(offset=0.0, matrix=np.eye(dim))
        xs = sps.chi2.ppf(np.linspace(0.05, 0.95, 11), dim)
        np.testing.assert_allclose(
            form.imhof_sf(xs), sps.chi2.sf(xs, dim), atol=1e-7
        )

    def test_rank_one_falls_back_to_adaptive(self):
        # A single eigenvalue decays too slowly for the truncated
        # oscillatory quadrature; the adaptive fallback still answers
        # (with the legacy integrator's own ~1e-3 rank-one accuracy).
        form = QuadraticForm(offset=0.0, matrix=np.diag([1.0, 0.0, 0.0]))
        xs = np.array([0.5, 1.0, 4.0])
        np.testing.assert_allclose(
            form.imhof_sf(xs), sps.chi2.sf(xs, 1), atol=1e-3
        )

    def test_survival_monotone_and_bounded(self, rng):
        form = QuadraticForm(offset=1.0, matrix=_random_psd(rng, 7))
        xs = np.linspace(form.offset, form.mean() * 3.0, 60)
        sf = form.imhof_sf(xs)
        assert np.all((sf >= 0.0) & (sf <= 1.0))
        assert np.all(np.diff(sf) <= 1e-8)

    def test_degenerate_array_step(self):
        form = QuadraticForm(offset=2.0, matrix=np.zeros((2, 2)))
        np.testing.assert_array_equal(
            form.imhof_sf(np.array([1.0, 2.0, 3.0])), [1.0, 0.0, 0.0]
        )

    def test_rejects_non_finite_x(self, rng):
        form = QuadraticForm(offset=0.0, matrix=_random_psd(rng, 4))
        with pytest.raises(ConfigurationError):
            form.imhof_sf(np.array([1.0, np.nan]))
        with pytest.raises(ConfigurationError):
            form.imhof_sf(np.inf)

    def test_cdf_complements_sf(self, rng):
        form = QuadraticForm(offset=0.0, matrix=_random_psd(rng, 5))
        xs = np.linspace(form.mean() * 0.5, form.mean() * 1.5, 7)
        np.testing.assert_allclose(
            form.imhof_cdf(xs) + form.imhof_sf(xs), 1.0, atol=1e-12
        )


class TestSampling:
    def test_sample_from_factors_matches_definition(self, rng):
        matrix = _random_psd(rng, 4)
        form = QuadraticForm(offset=1.5, matrix=matrix)
        z = rng.standard_normal((10, 4))
        values = form.sample_from_factors(z)
        expected = 1.5 + np.einsum("ni,ij,nj->n", z, matrix, z)
        np.testing.assert_allclose(values, expected)

    def test_sample_from_factors_single_vector(self, rng):
        form = QuadraticForm(offset=0.0, matrix=np.eye(3))
        z = np.array([1.0, 2.0, 2.0])
        assert form.sample_from_factors(z)[0] == pytest.approx(9.0)

    def test_sample_from_factors_dim_check(self, rng):
        form = QuadraticForm(offset=0.0, matrix=np.eye(3))
        with pytest.raises(ConfigurationError):
            form.sample_from_factors(np.zeros((5, 4)))

    def test_sample_rejects_zero(self, rng):
        form = QuadraticForm(offset=0.0, matrix=np.eye(3))
        with pytest.raises(ConfigurationError):
            form.sample(rng, 0)
