"""Beta MLE: parameter recovery, stationarity, and the smooth transform."""

import math

import numpy as np
import pytest
from scipy import optimize as sp_optimize
from scipy import special as sp_special
from scipy import stats as sp_stats

from cdfdr.betafit import CLAMP, fit_beta_mle, smooth_pvalues
from cdfdr.errors import DegenerateSampleError, InsufficientDataError
from cdfdr.simulate import MixtureUniformDesign, gen_mixture_uniform
from cdfdr.special import beta_cdf_many, digamma, log_gamma


def _total_loglik(u, a, b):
    uc = np.clip(u, CLAMP, 1.0 - CLAMP)
    ln_b = log_gamma(a) + log_gamma(b) - log_gamma(a + b)
    return float(np.sum((a - 1.0) * np.log(uc) + (b - 1.0) * np.log1p(-uc)) - u.size * ln_b)


def _moment_estimate(u):
    m, v = float(np.mean(u)), float(np.var(u))
    scale = m * (1.0 - m) / v - 1.0
    if scale <= 0.0:
        return 1.0, 1.0
    return max(m * scale, 1e-3), max((1.0 - m) * scale, 1e-3)


class TestFitRecovery:
    def test_expression_study_regeneration(self):
        # Shape regime reported for the 7129-gene two-sample analysis.
        rng = np.random.Generator(np.random.Philox(42))
        u = rng.beta(0.32, 0.75, 7129)
        fit = fit_beta_mle(u)
        assert fit.converged
        assert fit.alpha == pytest.approx(0.32, abs=0.05)
        assert fit.beta == pytest.approx(0.75, abs=0.05)
        assert fit.n == 7129

    def test_uniform_sample(self):
        rng = np.random.Generator(np.random.Philox(1234))
        u = rng.random(100_000)
        fit = fit_beta_mle(u)
        assert fit.converged
        assert fit.alpha == pytest.approx(1.0, abs=0.02)
        assert fit.beta == pytest.approx(1.0, abs=0.02)

    @pytest.mark.parametrize("a,b,seed", [(2.5, 1.5, 5), (0.5, 0.5, 6), (5.0, 8.0, 7)])
    def test_other_shapes(self, a, b, seed):
        rng = np.random.Generator(np.random.Philox(seed))
        u = rng.beta(a, b, 50_000)
        fit = fit_beta_mle(u)
        assert fit.converged
        assert fit.alpha == pytest.approx(a, rel=0.05)
        assert fit.beta == pytest.approx(b, rel=0.05)

    def test_ascent_over_moment_start(self):
        rng = np.random.Generator(np.random.Philox(99))
        for sample in (rng.beta(0.4, 0.9, 2000), rng.random(2000), rng.beta(3, 2, 500)):
            fit = fit_beta_mle(sample)
            a0, b0 = _moment_estimate(np.clip(sample, CLAMP, 1 - CLAMP))
            assert fit.log_likelihood >= _total_loglik(sample, a0, b0)

    def test_log_likelihood_recomputable(self):
        rng = np.random.Generator(np.random.Philox(3))
        u = rng.beta(0.7, 1.3, 5000)
        fit = fit_beta_mle(u)
        assert fit.log_likelihood == pytest.approx(
            _total_loglik(u, fit.alpha, fit.beta), rel=1e-12
        )

    def test_stationarity(self):
        # Total-gradient sup-norm at the fit must be below 1e-6 * n.
        rng = np.random.Generator(np.random.Philox(21))
        for sample in (rng.beta(0.32, 0.75, 7129), rng.random(4000), rng.beta(4, 2, 1500)):
            n = sample.size
            fit = fit_beta_mle(sample)
            uc = np.clip(sample, CLAMP, 1.0 - CLAMP)
            grad_a = n * (digamma(fit.alpha + fit.beta) - digamma(fit.alpha)) \
                + float(np.sum(np.log(uc)))
            grad_b = n * (digamma(fit.alpha + fit.beta) - digamma(fit.beta)) \
                + float(np.sum(np.log1p(-uc)))
            assert max(abs(grad_a), abs(grad_b)) <= 1e-6 * n

    def test_determinism(self):
        rng = np.random.Generator(np.random.Philox(17))
        u = rng.beta(0.9, 1.1, 3000)
        f1 = fit_beta_mle(u)
        f2 = fit_beta_mle(u.copy())
        assert (f1.alpha, f1.beta, f1.log_likelihood) == (f2.alpha, f2.beta, f2.log_likelihood)

    def test_boundary_values_are_clamped_not_fatal(self):
        # Two-sided test p-values can round to exactly 0 or 1; the 1e-10
        # clamp keeps the likelihood finite and barely moves the fit.
        rng = np.random.Generator(np.random.Philox(8))
        u = rng.random(10_000)
        u[:10] = 0.0
        u[10:20] = 1.0
        fit = fit_beta_mle(u)
        assert fit.converged
        assert fit.alpha == pytest.approx(1.0, abs=0.1)
        assert fit.beta == pytest.approx(1.0, abs=0.1)


def _hard_inputs():
    # Point masses and extreme shapes.  An exact-Hessian step (not always
    # uphill) fails to converge on some of these, and so does a scoring step
    # accepted only when the log-likelihood rises.
    ones = np.random.default_rng(5).random(5000)
    ones[:1500] = 1.0
    return {
        "30% exact ones": ones,
        "half 0, half 1": np.r_[np.zeros(2500), np.ones(2500)],
        "4999 zeros, one 1": np.r_[np.zeros(4999), 1.0],
        "all at the clamp, one 0.5": np.r_[np.full(4999, CLAMP), 0.5],
        "Beta(0.005, 0.005)": np.random.default_rng(6).beta(0.005, 0.005, 5000),
    }


def _score_root(u):
    """Root of the mean score equations by scipy (Levenberg-Marquardt from the
    uniform start)."""
    uc = np.clip(u, CLAMP, 1.0 - CLAMP)
    s1, s2 = float(np.mean(np.log(uc))), float(np.mean(np.log1p(-uc)))

    def score(log_ab):
        a, b = np.exp(log_ab)
        d_ab = sp_special.digamma(a + b)
        return [d_ab - sp_special.digamma(a) + s1, d_ab - sp_special.digamma(b) + s2]

    sol = sp_optimize.root(score, [0.0, 0.0], method="lm", tol=1e-13)
    assert max(abs(g) for g in score(sol.x)) <= 1e-10
    return np.exp(sol.x)


class TestConvergence:
    @pytest.mark.parametrize("seed,replicate", [(0, 13), (1, 19)])
    def test_mixture_uniform_fits_converge_quickly(self, seed, replicate):
        # Near the optimum the log-likelihood gain of a step is below the
        # rounding of the lgamma sums; the falling gradient still accepts it.
        design = MixtureUniformDesign(pi0=0.9, a=0.05, n=5000, seed=seed)
        fit = fit_beta_mle(gen_mixture_uniform(design, replicate))
        assert fit.converged
        assert fit.iterations <= 10

    @pytest.mark.parametrize("name", list(_hard_inputs()))
    def test_hard_inputs_match_the_score_root(self, name):
        u = _hard_inputs()[name]
        fit = fit_beta_mle(u)
        assert fit.converged
        assert math.isfinite(fit.log_likelihood)
        alpha, beta = _score_root(u)
        assert fit.alpha == pytest.approx(alpha, rel=1e-7)
        assert fit.beta == pytest.approx(beta, rel=1e-7)


class TestFitValidation:
    def test_too_few_values(self):
        with pytest.raises(InsufficientDataError):
            fit_beta_mle(np.full(9, 0.5))

    def test_degenerate_sample(self):
        with pytest.raises(DegenerateSampleError):
            fit_beta_mle(np.full(100, 0.25))

    def test_degenerate_after_clamping(self):
        # Mixture of exact zeros only: all equal after the clamp.
        with pytest.raises(DegenerateSampleError):
            fit_beta_mle(np.zeros(50))

    def test_out_of_range_rejected(self):
        with pytest.raises(InsufficientDataError):
            fit_beta_mle(np.linspace(-0.1, 0.5, 100))
        with pytest.raises(InsufficientDataError):
            fit_beta_mle(np.full(100, np.nan))


class TestSmoothPvalues:
    def test_identity_under_uniform_fit(self):
        from cdfdr.betafit import BetaFit

        fit = BetaFit(alpha=1.0, beta=1.0, log_likelihood=0.0, n=100,
                      iterations=0, converged=True)
        u = np.linspace(0.01, 0.99, 50)
        v = smooth_pvalues(u, fit)
        np.testing.assert_allclose(v, u, rtol=1e-12)

    def test_matches_beta_cdf(self):
        from cdfdr.betafit import BetaFit

        fit = BetaFit(alpha=0.81, beta=0.82, log_likelihood=0.0, n=100,
                      iterations=0, converged=True)
        v = smooth_pvalues(np.array([0.5]), fit)[0]
        assert v == beta_cdf_many(0.5, 0.81, 0.82)[0]
        # Frozen quadrature oracle of the fitted-beta CDF at 0.5.
        assert v == pytest.approx(0.5040070337036162534395, rel=1e-12)

    def test_rank_preservation(self):
        # Order preservation holds on the clamp range [1e-10, 1 - 1e-10];
        # inputs outside it merge onto the boundary by design.
        rng = np.random.Generator(np.random.Philox(55))
        u = np.clip(rng.beta(0.32, 0.75, 7129), CLAMP, 1.0 - CLAMP)
        fit = fit_beta_mle(u)
        v = smooth_pvalues(u, fit)
        assert np.array_equal(
            sp_stats.rankdata(u, method="ordinal"),
            sp_stats.rankdata(v, method="ordinal"),
        )
        tau = sp_stats.kendalltau(u, v).statistic
        assert tau == 1.0

    @pytest.mark.parametrize("bad", [-0.25, 1.5, np.nan])
    def test_out_of_range_rejected(self, bad):
        from cdfdr.betafit import BetaFit

        fit = BetaFit(alpha=0.5, beta=1.0, log_likelihood=0.0, n=100,
                      iterations=0, converged=True)
        with pytest.raises(InsufficientDataError, match=r"lie in \[0, 1\]"):
            smooth_pvalues(np.array([0.5, bad]), fit)

    def test_subclamp_values_merge(self):
        from cdfdr.betafit import BetaFit

        fit = BetaFit(alpha=0.5, beta=1.0, log_likelihood=0.0, n=100,
                      iterations=0, converged=True)
        v = smooth_pvalues(np.array([1e-13, 1e-11, 1e-10]), fit)
        assert v[0] == v[1] == v[2]

    def test_refit_on_smooth_pvalues_is_flat(self):
        # The point of pre-flattening: smooth p-values are near-uniform.
        rng = np.random.Generator(np.random.Philox(77))
        u = np.concatenate([rng.random(9000), rng.beta(0.2, 1.0, 1000)])
        fit = fit_beta_mle(u)
        refit = fit_beta_mle(smooth_pvalues(u, fit))
        assert refit.alpha == pytest.approx(1.0, abs=0.05)
        assert refit.beta == pytest.approx(1.0, abs=0.05)
