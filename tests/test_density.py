"""Score coefficients, hard thresholding, and the assembled density."""

import math

import numpy as np
import pytest
from scipy import integrate as sp_integrate

from cdfdr.betafit import BetaFit, fit_beta_mle, smooth_pvalues
from cdfdr.density import (
    DEFAULT_FLOOR,
    ComparisonDensityModel,
    CoefficientSet,
    clipped_measure,
    comparison_density_raw_many,
    comparison_density_raw_reflected_many,
    eval_comparison_density_many,
    eval_smooth_density_many,
    integrate_comparison_density,
    score_coefficients,
)
from cdfdr.errors import DomainError, InsufficientDataError
from cdfdr.legendre import basis_matrix
from cdfdr.special import beta_cdf_many, normal_cdf_many, normal_pdf_many


def _manual_fit(alpha, beta):
    return BetaFit(alpha=alpha, beta=beta, log_likelihood=0.0, n=1000,
                   iterations=0, converged=True)


def _manual_coeffs(theta_hat, n=1000):
    theta = np.asarray(theta_hat, dtype=float)
    return CoefficientSet(
        m=theta.size, theta_tilde=theta.copy(), theta_hat=theta,
        n=n, threshold=2.0 * math.log(n) / n,
    )


def _manual_model(alpha, beta, theta_hat):
    return ComparisonDensityModel(fit=_manual_fit(alpha, beta), coeffs=_manual_coeffs(theta_hat))


class TestScoreCoefficients:
    def test_uniform_grid_is_orthogonal_to_basis(self):
        n = 10_000
        v = (np.arange(n) + 0.5) / n
        coeffs = score_coefficients(v, 6)
        assert np.max(np.abs(coeffs.theta_tilde)) < 1e-3
        assert np.all(coeffs.theta_hat == 0.0)

    def test_threshold_arithmetic_expression_study(self):
        # N = 7129: threshold = 2 ln(7129)/7129 ~ 0.0024890, so a coefficient
        # of magnitude 0.16 survives and one of 0.04 is zeroed.
        n = 7129
        threshold = 2.0 * math.log(n) / n
        assert threshold == pytest.approx(0.002489, abs=2e-6)
        assert 0.16 ** 2 > threshold
        assert 0.04 ** 2 < threshold

    def test_thresholding_rule_applied_exactly(self):
        rng = np.random.Generator(np.random.Philox(15))
        v = rng.beta(0.8, 1.3, 7129)
        coeffs = score_coefficients(v, 6)
        for j in range(6):
            if coeffs.theta_tilde[j] ** 2 > coeffs.threshold:
                assert coeffs.theta_hat[j] == coeffs.theta_tilde[j]
            else:
                assert coeffs.theta_hat[j] == 0.0

    def test_threshold_log_base_sensitivity(self):
        # With log10 instead of ln the threshold shrinks by x2.303 and a
        # coefficient of 0.04 at N=7129 would survive; under ln it is zeroed.
        n = 7129
        thr_ln = 2.0 * math.log(n) / n
        thr_log10 = 2.0 * math.log10(n) / n
        assert thr_ln / thr_log10 == pytest.approx(math.log(10.0), rel=1e-12)
        assert 0.04 ** 2 < thr_ln
        assert 0.04 ** 2 > thr_log10

    def test_coefficients_bounded_by_basis_sup_norm(self):
        rng = np.random.Generator(np.random.Philox(16))
        coeffs = score_coefficients(rng.random(500), 10)
        for j in range(1, 11):
            assert abs(coeffs.theta_tilde[j - 1]) <= math.sqrt(2 * j + 1)

    def test_exact_sample_mean(self):
        rng = np.random.Generator(np.random.Philox(18))
        v = rng.random(200)
        coeffs = score_coefficients(v, 4)
        for j in range(1, 5):
            mean = np.mean([basis_matrix(4, vi)[0, j - 1] for vi in v])
            assert coeffs.theta_tilde[j - 1] == pytest.approx(mean, rel=1e-12)

    def test_threshold_decreasing_in_n(self):
        ns = np.arange(8, 100_000, 97)
        thresholds = 2.0 * np.log(ns) / ns
        assert np.all(np.diff(thresholds) < 0.0)

    def test_null_calibration(self):
        # Uniform samples: the 2 log N rule is ~4.3 sigma per coefficient,
        # so essentially no replicate should select anything.
        zero_count = 0
        for seed in range(50):
            rng = np.random.Generator(np.random.Philox(seed))
            coeffs = score_coefficients(rng.random(10_000), 6)
            if np.all(coeffs.theta_hat == 0.0):
                zero_count += 1
        assert zero_count >= 45

    def test_plugin_consistency_via_acceptance_rejection(self):
        # Oracle sampler for the density 1 + 0.3 S_2(v); the recovered
        # second coefficient must be 0.3 within Monte Carlo error.
        sqrt5 = math.sqrt(5.0)
        density = lambda v: 1.0 + 0.3 * sqrt5 * (6.0 * v * v - 6.0 * v + 1.0)
        bound = density(0.0)
        rng = np.random.Generator(np.random.Philox(2024))
        proposals = rng.random(300_000)
        accepts = rng.random(300_000) * bound < density(proposals)
        v = proposals[accepts][:100_000]
        assert v.size == 100_000
        coeffs = score_coefficients(v, 6)
        assert coeffs.theta_tilde[1] == pytest.approx(0.3, abs=0.02)
        assert coeffs.theta_hat[1] == coeffs.theta_tilde[1]

    def test_validation(self):
        with pytest.raises(InsufficientDataError):
            score_coefficients(np.array([]), 6)
        with pytest.raises(InsufficientDataError):
            score_coefficients(np.full(5, 0.5), 6)
        for m in (17, 6.5, True):
            with pytest.raises(DomainError):
                score_coefficients(np.full(100, 0.5), m)

    def test_selected_indices(self):
        coeffs = _manual_coeffs([0.0, 0.0, -0.16, 0.0, 0.0, 0.0])
        assert coeffs.selected() == [3]


class TestSmoothDensityEval:
    def test_null_series(self):
        coeffs = _manual_coeffs(np.zeros(6))
        v = np.linspace(0.0, 1.0, 21)
        assert eval_smooth_density_many(coeffs, v).tolist() == [1.0] * 21
        assert eval_smooth_density_many(coeffs, 0.3).tolist() == [1.0]

    def test_rejects_points_outside_unit_interval(self):
        for theta in (np.zeros(6), [0.0, 0.0, -0.16, 0.0, 0.0, 0.0]):
            with pytest.raises(DomainError):
                eval_smooth_density_many(_manual_coeffs(theta), [2.0, -5.0])

    @staticmethod
    def _assert_matches_basis(theta):
        v = np.concatenate([[0.0, 0.5, 1.0], np.linspace(0.0, 1.0, 31),
                            np.random.Generator(np.random.Philox(19)).random(200)])
        expected = 1.0 + basis_matrix(6, v) @ np.asarray(theta)
        np.testing.assert_allclose(eval_smooth_density_many(_manual_coeffs(theta), v),
                                   expected, rtol=1e-14)

    def test_expression_study_series(self):
        # Single surviving third coefficient of -0.16.
        self._assert_matches_basis([0.0, 0.0, -0.16, 0.0, 0.0, 0.0])

    def test_prostate_series(self):
        self._assert_matches_basis([0.0, 0.0, 0.0, 0.0, 0.0, 0.057])

    def test_every_coefficient_selected(self):
        # sum |theta_j| sqrt(2j + 1) is 0.77, so the density stays above 0.23.
        self._assert_matches_basis([0.1, -0.05, 0.03, 0.02, -0.04, 0.06])

    def test_zero_coefficients_bitwise(self):
        # Zero coefficients before, between and after nonzero ones: the
        # series trimmed after the last nonzero one gives the bits of a sum
        # that adds every term.
        theta = np.array([0.0, 0.12, 0.0, 0.0, -0.07, 0.0, 0.03, 0.0, 0.0, 0.0])
        v = np.concatenate([[0.0, 0.5, 1.0], np.random.Generator(np.random.Philox(23)).random(999)])
        series = np.zeros(v.size)
        for theta_j, column in zip(theta, basis_matrix(theta.size, v).T):
            series += column * theta_j
        actual = eval_smooth_density_many(_manual_coeffs(theta), v)
        assert np.array_equal(actual.view(np.int64), (series + 1.0).view(np.int64))


class TestComparisonDensityEval:
    def test_uniform_model_is_one(self):
        model = _manual_model(1.0, 1.0, np.zeros(6))
        u = np.linspace(0.01, 0.99, 33)
        np.testing.assert_allclose(
            eval_comparison_density_many(model, u), 1.0, rtol=1e-12
        )

    def test_prostate_full_display(self):
        # Assembled estimate against the published display with its rounded
        # normalizer 0.68 and exponents -0.19/-0.18.
        model = _manual_model(0.81, 0.82, [0.0, 0.0, 0.0, 0.0, 0.0, 0.057])
        for u in np.arange(0.1, 0.95, 0.1):
            v = beta_cdf_many(u, 0.81, 0.82)[0]
            display = 0.68 * (1.0 + 0.057 * basis_matrix(6, v)[0, 5]) \
                * u ** (-0.19) * (1.0 - u) ** (-0.18)
            assert eval_comparison_density_many(model, u)[0] == pytest.approx(display, abs=1e-2)

    def test_endpoints_evaluate_at_clamp(self):
        model = _manual_model(0.81, 0.82, np.zeros(6))
        d = [eval_comparison_density_many(model, u)[0] for u in (0.0, 1e-10, 1.0, 1.0 - 1e-10)]
        assert d[0] == d[1]
        assert d[2] == d[3]
        assert d[0] > 0.0

    def test_floor_applied(self):
        # A large negative first coefficient drives the series negative over
        # a set of positive measure; evaluation must clip at the floor.
        model = _manual_model(1.0, 1.0, [1.5, 0.0, 0.0, 0.0, 0.0, 0.0])
        values = eval_comparison_density_many(model, np.linspace(0.01, 0.99, 99))
        assert np.min(values) == DEFAULT_FLOOR
        assert np.all(values >= DEFAULT_FLOOR)
        assert clipped_measure(model) > 0.1

    def test_clipped_measure_zero_for_positive_model(self):
        model = _manual_model(0.81, 0.82, np.zeros(6))
        assert clipped_measure(model) == 0.0

    @pytest.mark.parametrize("alpha,beta,theta", [
        (1.0, 1.0, [0.0] * 6),
        (0.81, 0.82, [0.0, 0.0, 0.0, 0.0, 0.0, 0.057]),
        (0.32, 0.75, [0.0, 0.0, -0.16, 0.0, 0.0, 0.0]),
        (2.0, 0.5, [0.1, -0.05, 0.0, 0.02, 0.0, 0.0]),
    ])
    def test_raw_density_integrates_to_one(self, alpha, beta, theta):
        model = _manual_model(alpha, beta, theta)
        assert integrate_comparison_density(model) == pytest.approx(1.0, abs=1e-4)

    def test_integral_against_scipy_oracle(self):
        model = _manual_model(0.81, 0.82, [0.0, 0.0, 0.0, 0.0, 0.0, 0.057])
        oracle, _ = sp_integrate.quad(
            lambda u: float(comparison_density_raw_many(model, np.array([u]))[0]),
            0.0, 1.0, limit=200,
        )
        assert oracle == pytest.approx(1.0, abs=1e-4)
        assert integrate_comparison_density(model) == pytest.approx(oracle, abs=1e-4)

    def test_fitted_model_integrates_to_one(self):
        rng = np.random.Generator(np.random.Philox(31))
        u = np.concatenate([rng.random(4500), rng.beta(0.15, 1.0, 500)])
        fit = fit_beta_mle(u)
        coeffs = score_coefficients(smooth_pvalues(u, fit), 6)
        model = ComparisonDensityModel(fit=fit, coeffs=coeffs)
        assert integrate_comparison_density(model) == pytest.approx(1.0, abs=1e-4)

    def test_domain_validation(self):
        model = _manual_model(1.0, 1.0, np.zeros(6))
        with pytest.raises(DomainError):
            eval_comparison_density_many(model, -0.2)
        with pytest.raises(DomainError):
            eval_comparison_density_many(model, 1.2)
        with pytest.raises(DomainError):
            comparison_density_raw_many(model, np.array([0.0]))
        with pytest.raises(DomainError, match="w strictly inside"):
            comparison_density_raw_reflected_many(model, np.array([0.0]))


def _reconstruct(model, x):
    """The density reconstruction f(x) = f0(x) * d(F0(x)) under a standard normal null."""
    return normal_pdf_many(x) * eval_comparison_density_many(model, normal_cdf_many(x))


class TestReconstructDensity:
    def test_identity_reconstruction(self):
        model = _manual_model(1.0, 1.0, np.zeros(6))
        x = np.linspace(-3.0, 3.0, 13)
        assert _reconstruct(model, x) == \
            pytest.approx(normal_pdf_many(x), rel=1e-12)

    def test_skewed_sample_normalization(self):
        # Standard-normal pre-whitening of a skewed sample; the x-space
        # integral of the reconstruction must still be ~1.
        rng = np.random.Generator(np.random.Philox(41))
        x = np.concatenate([rng.normal(0, 1, 6000), rng.normal(1.2, 1.4, 2000)])
        u = normal_cdf_many(x)
        fit = fit_beta_mle(u)
        coeffs = score_coefficients(smooth_pvalues(u, fit), 6)
        model = ComparisonDensityModel(fit=fit, coeffs=coeffs)
        total, _ = sp_integrate.quad(
            lambda t: _reconstruct(model, t)[0],
            -12.0, 12.0, limit=300,
        )
        assert total == pytest.approx(1.0, abs=1e-3)

    def test_floor_lower_bound(self):
        model = _manual_model(1.0, 1.0, [1.5, 0.0, 0.0, 0.0, 0.0, 0.0])
        x = np.linspace(-4.0, 4.0, 17)
        assert np.all(_reconstruct(model, x) >= DEFAULT_FLOOR * normal_pdf_many(x))
