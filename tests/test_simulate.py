"""Simulation harness: generators, closed-form oracles, replicate aggregation."""

import math
import warnings

import numpy as np
import pytest

from cdfdr.errors import CdfdrError, ConfigError, SimulationError
from cdfdr.simulate import (
    EstimatorConfig,
    MixtureNormalDesign,
    MixtureUniformDesign,
    gen_mixture_normal,
    gen_mixture_uniform,
    normal_grid,
    replicate_rng,
    run_replicates,
    true_fdr_mixture_normal,
    true_fdr_mixture_uniform,
    uniform_grid,
)
from cdfdr.special import normal_pdf_many

# 99%-level Kolmogorov-Smirnov critical constant (K such that
# P(sqrt(n) D_n > K) = 0.01 asymptotically).
KS_CRIT_99 = 1.628


class TestDesignValidation:
    def test_mixture_normal(self):
        with pytest.raises(ConfigError):
            MixtureNormalDesign(mu=1.0, n=100, n_null=200)
        with pytest.raises(ConfigError):
            MixtureNormalDesign(mu=1.0, replicates=0)
        with pytest.raises(ConfigError):
            MixtureNormalDesign(mu=1.0, mu_redraw="sometimes")
        # No fit takes fewer than 100 cases, so no replicate of such a design could run.
        with pytest.raises(ConfigError, match="n must be at least 100"):
            MixtureNormalDesign(mu=2.0, n=0, n_null=0)
        with pytest.raises(ConfigError, match="seed must be non-negative"):
            MixtureNormalDesign(mu=2.0, seed=-1)
        for mu in (math.nan, math.inf, -math.inf):
            with pytest.raises(ConfigError, match="mu must be finite"):
                MixtureNormalDesign(mu=mu)

    def test_mixture_uniform(self):
        with pytest.raises(ConfigError):
            MixtureUniformDesign(pi0=1.5, a=0.02)
        with pytest.raises(ConfigError):
            MixtureUniformDesign(pi0=0.9, a=0.0)
        with pytest.raises(ConfigError):
            MixtureUniformDesign(pi0=0.9, a=1.0)
        with pytest.raises(ConfigError, match="replicates must be at least 1"):
            MixtureUniformDesign(pi0=0.9, a=0.05, replicates=0)
        for n in (-1, 50, 99):
            with pytest.raises(ConfigError, match="n must be at least 100"):
                MixtureUniformDesign(pi0=0.9, a=0.05, n=n)
        with pytest.raises(ConfigError, match="seed must be non-negative"):
            MixtureUniformDesign(pi0=0.9, a=0.05, seed=-1)
        # The smallest study that passes: 100 cases, seed 0.
        assert MixtureUniformDesign(pi0=0.9, a=0.05, n=100, seed=0).n == 100

    @pytest.mark.parametrize("tuning", [
        {"m_density": 17}, {"m_mdc": 0}, {"grid_step": 0.0}, {"grid_step": math.nan},
        {"grid_step": 1e-5}, {"m_density": 6.5}, {"m_mdc": "10"}, {"m_mdc": True},
        {"grid_step": "0.01"},
    ], ids=["m_density-17", "m_mdc-0", "grid_step-0", "grid_step-nan", "grid_step-1e-5",
            "m_density-6.5", "m_mdc-str", "m_mdc-bool", "grid_step-str"])
    def test_estimator_config(self, tuning):
        with pytest.raises(ConfigError):
            EstimatorConfig(**tuning)


class TestGenMixtureNormal:
    def test_degenerate_all_null(self):
        design = MixtureNormalDesign(mu=0.0, n=5000, n_null=5000, seed=4)
        stats = gen_mixture_normal(design)
        assert stats.size == 5000
        assert abs(stats.mean()) <= 3.0 / math.sqrt(5000)

    def test_nonnull_block_marginal_variance(self):
        # Means redrawn per replicate: the non-null block is N(mu, 2)
        # marginally (convolution of two unit-variance normals).
        design = MixtureNormalDesign(mu=2.0, seed=10, mu_redraw="per_replicate")
        stats = gen_mixture_normal(design, replicate=3)
        block = stats[design.n_null:]
        assert block.size == 500
        assert block.var() == pytest.approx(2.0, abs=0.2)
        assert block.mean() == pytest.approx(2.0, abs=0.2)

    def test_determinism(self):
        design = MixtureNormalDesign(mu=1.0, seed=123)
        assert np.array_equal(gen_mixture_normal(design, 2), gen_mixture_normal(design, 2))

    def test_means_shared_across_replicates_when_once(self):
        design = MixtureNormalDesign(mu=3.0, seed=5, mu_redraw="once")
        r0 = gen_mixture_normal(design, 0)
        r1 = gen_mixture_normal(design, 1)
        # Same underlying means, different noise: the non-null blocks are
        # correlated through the shared means but not equal.
        b0, b1 = r0[design.n_null:], r1[design.n_null:]
        assert not np.array_equal(b0, b1)
        assert np.corrcoef(b0, b1)[0, 1] > 0.2
        # Per-replicate mode decorrelates the blocks.
        redraw = MixtureNormalDesign(mu=3.0, seed=5, mu_redraw="per_replicate")
        c0 = gen_mixture_normal(redraw, 0)[design.n_null:]
        c1 = gen_mixture_normal(redraw, 1)[design.n_null:]
        assert abs(np.corrcoef(c0, c1)[0, 1]) < 0.2

    def test_replicate_streams_differ(self):
        design = MixtureNormalDesign(mu=1.0, seed=123)
        assert not np.array_equal(gen_mixture_normal(design, 0), gen_mixture_normal(design, 1))


class TestTrueFdrMixtureNormal:
    def test_direct_formula_at_zero(self):
        # Even at mu=0 the fdr is not pi0: the non-null component has
        # variance 2, so the densities differ at the origin.
        assert true_fdr_mixture_normal(0.0, 0.9, 0.0)[0] == pytest.approx(
            0.9271557635940506, rel=1e-12
        )

    def test_tail_limit(self):
        assert true_fdr_mixture_normal(8.0, 0.9, 3.0)[0] < 1e-4
        assert true_fdr_mixture_normal(12.0, 0.9, 1.0)[0] < 1e-2

    def test_symmetry_at_mu_zero(self):
        z = np.array([0.5, 1.7, 3.3])
        assert true_fdr_mixture_normal(z, 0.9, 0.0) == pytest.approx(
            true_fdr_mixture_normal(-z, 0.9, 0.0), rel=1e-12
        )

    def test_where_both_densities_underflow(self):
        # At |z| = 60 both parts underflow to 0; the ratio is taken in log
        # space there, where the non-null part (variance 2) dominates.
        z = np.array([-60.0, -40.0, 40.0, 60.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fdr = true_fdr_mixture_normal(z, 0.9, 2.0)
            assert fdr.tolist() == [0.0, 0.0, 0.0, 0.0]
            # A single component gives its own limit.
            assert true_fdr_mixture_normal(z, 1.0, 2.0).tolist() == [1.0] * 4
            assert true_fdr_mixture_normal(z, 0.0, 2.0).tolist() == [0.0] * 4
            # Far from mu the null part dominates: the limit is 1.
            assert true_fdr_mixture_normal(40.0, 0.9, -40.0).tolist() == [1.0]

    def test_direct_ratio_where_densities_are_positive(self):
        # Out to |z| = 50, where the null part has underflowed but the other has not.
        z = np.linspace(-50.0, 50.0, 10_001)
        null = 0.9 * normal_pdf_many(z)
        alt = (1.0 - 0.9) * normal_pdf_many((z - 2.0) / math.sqrt(2.0)) / math.sqrt(2.0)
        assert np.array_equal(true_fdr_mixture_normal(z, 0.9, 2.0), null / (null + alt))

    def test_array_matches_one_element_calls(self):
        z = np.linspace(-12.0, 12.0, 4801)
        for pi0, mu in ((0.9, 2.0), (0.5, -1.0), (1.0, 0.0)):
            batch = true_fdr_mixture_normal(z, pi0, mu)
            assert batch.shape == z.shape
            assert batch.tolist() == [true_fdr_mixture_normal(zi, pi0, mu)[0] for zi in z]

    def test_monte_carlo_classifier(self):
        # Brute-force verification: bin z, compare the empirical fraction of
        # nulls per bin with the exactly bin-integrated closed form (the
        # pointwise fdr is recovered as bins shrink).
        from cdfdr.special import normal_cdf_many

        rng = replicate_rng(900, 7)
        n = 1_000_000
        pi0, mu = 0.9, 2.0
        is_null = rng.random(n) < pi0
        z = np.where(is_null, rng.normal(0, 1, n),
                     rng.normal(mu, math.sqrt(2.0), n))
        sqrt2 = math.sqrt(2.0)
        edges = np.linspace(-3.0, 5.0, 17)
        for lo, hi in zip(edges[:-1], edges[1:]):
            mask = (z >= lo) & (z < hi)
            if mask.sum() < 5000:
                continue
            empirical = is_null[mask].mean()
            null_cdf = normal_cdf_many([lo, hi])
            alt_cdf = normal_cdf_many([(lo - mu) / sqrt2, (hi - mu) / sqrt2])
            null_mass = pi0 * (null_cdf[1] - null_cdf[0])
            alt_mass = (1.0 - pi0) * (alt_cdf[1] - alt_cdf[0])
            assert empirical == pytest.approx(
                null_mass / (null_mass + alt_mass), abs=0.01
            )
        # In a narrow bin the empirical rate matches the pointwise formula.
        mask = np.abs(z - 1.0) < 0.05
        assert is_null[mask].mean() == pytest.approx(
            true_fdr_mixture_normal(1.0, pi0, mu)[0], abs=0.01
        )


class TestGenMixtureUniform:
    def test_pure_null_is_uniform(self):
        design = MixtureUniformDesign(pi0=1.0, a=0.02, n=5000, seed=3)
        u = gen_mixture_uniform(design)
        sorted_u = np.sort(u)
        n = u.size
        ecdf_hi = np.arange(1, n + 1) / n
        ecdf_lo = np.arange(0, n) / n
        ks = max(np.max(np.abs(ecdf_hi - sorted_u)), np.max(np.abs(sorted_u - ecdf_lo)))
        assert ks < KS_CRIT_99 / math.sqrt(n)

    def test_signal_mass(self):
        # Expected fraction below a: pi0 * a + (1 - pi0).
        design = MixtureUniformDesign(pi0=0.9, a=0.02, n=200_000, seed=8)
        u = gen_mixture_uniform(design)
        assert np.mean(u <= 0.02) == pytest.approx(0.118, abs=0.005)

    def test_determinism(self):
        design = MixtureUniformDesign(pi0=0.9, a=0.002, n=1000, seed=21)
        assert np.array_equal(gen_mixture_uniform(design, 5), gen_mixture_uniform(design, 5))


class TestTrueFdrMixtureUniform:
    def test_signal_region_closed_form(self):
        assert true_fdr_mixture_uniform(0.01, 0.9, 0.02)[0] == pytest.approx(
            0.9 / 5.9, rel=1e-12
        )
        assert true_fdr_mixture_uniform(0.001, 0.99, 0.002)[0] == pytest.approx(
            0.99 / 5.99, rel=1e-12
        )

    def test_null_region_is_one(self):
        u = np.array([0.03, 0.5, 0.999])
        assert true_fdr_mixture_uniform(u, 0.9, 0.02).tolist() == [1.0, 1.0, 1.0]

    def test_monte_carlo_classifier(self):
        rng = replicate_rng(901, 7)
        n = 1_000_000
        pi0, a = 0.9, 0.02
        is_null = rng.random(n) < pi0
        u = np.where(is_null, rng.random(n), a * rng.random(n))
        inside = u <= a
        assert is_null[inside].mean() == pytest.approx(pi0 / 5.9, abs=0.01)
        assert is_null[~inside].mean() == pytest.approx(1.0, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ConfigError):
            true_fdr_mixture_uniform(0.0, 0.9, 0.02)
        for bad in (1.0, -0.1, math.nan):
            with pytest.raises(ConfigError):
                true_fdr_mixture_uniform([0.01, 0.5, bad], 0.9, 0.02)


class TestGrids:
    def test_normal_grid_shape(self):
        grid = normal_grid()
        assert grid.size == 241
        assert grid[0] == -6.0 and grid[-1] == 6.0
        assert np.allclose(np.diff(grid), 0.05)

    def test_uniform_grid_refinement(self):
        grid, n_tail = uniform_grid(0.02)
        assert n_tail == 100
        assert np.all(grid[:n_tail] <= 0.02)
        assert grid[n_tail - 1] == 0.02
        assert 0.0 < grid[0] and grid[-1] < 1.0
        assert np.all(np.diff(grid) > 0.0)


class TestRunReplicates:
    def test_single_replicate_zero_sd(self):
        design = MixtureNormalDesign(mu=2.0, replicates=1, seed=42)
        report = run_replicates(design, workers=1)
        assert np.all(report.sd_fdr == 0.0)
        assert report.n_replicates == 1
        assert report.pi0_estimates.size == 1
        assert report.tail_mise is None

    def test_mixture_normal_small_run(self):
        # Accuracy is checked over |z| <= 3, inside the sampled support; at
        # z = -4 the pit p-value is ~3e-5 (0-2 observations at N=5000) and
        # the fitted beta's left-endpoint behavior is pure extrapolation.
        design = MixtureNormalDesign(mu=2.0, replicates=5, seed=7)
        report = run_replicates(design, workers=1)
        window = np.abs(report.grid) <= 3.0
        err = np.abs(report.mean_fdr - report.true_fdr)[window]
        assert np.max(err) <= 0.15
        assert report.mise >= 0.0

    def test_mixture_uniform_report(self):
        design = MixtureUniformDesign(pi0=0.9, a=0.02, replicates=5, seed=11)
        report = run_replicates(design, workers=1)
        assert report.tail_mise is not None
        assert 0.0 <= report.tail_mise <= report.mise
        assert np.all(report.true_fdr[report.grid > 0.02] == 1.0)

    def test_uniform_pi0_recovery(self):
        design = MixtureUniformDesign(pi0=0.9, a=0.002, n=5000, replicates=20, seed=2)
        report = run_replicates(design, workers=1)
        assert 0.85 <= float(np.median(report.pi0_estimates)) <= 0.95

    def test_seed_determinism(self):
        design = MixtureNormalDesign(mu=1.0, replicates=3, seed=99, n=2000, n_null=1800)
        r1 = run_replicates(design, workers=1)
        r2 = run_replicates(design, workers=1)
        assert np.array_equal(r1.mean_fdr, r2.mean_fdr)
        assert np.array_equal(r1.sd_fdr, r2.sd_fdr)
        assert r1.mise == r2.mise
        assert np.array_equal(r1.pi0_estimates, r2.pi0_estimates)

    def test_replicate_depends_only_on_seed_and_index(self):
        # Adding a replicate to the study leaves the earlier ones' fits unchanged.
        three = run_replicates(MixtureNormalDesign(mu=2.0, replicates=3, seed=17, n=2000,
                                                   n_null=1800), workers=1)
        four = run_replicates(MixtureNormalDesign(mu=2.0, replicates=4, seed=17, n=2000,
                                                  n_null=1800), workers=1)
        assert four.pi0_estimates.size == 4
        assert np.array_equal(three.pi0_estimates, four.pi0_estimates[:3])

    def test_failures_recorded_and_excluded(self, monkeypatch):
        import cdfdr.simulate as sim

        real_fit = sim.fit_cdfdr
        calls = {"count": 0}

        def flaky(*args, **kwargs):
            calls["count"] += 1
            if calls["count"] == 2:
                raise CdfdrError("synthetic failure")
            return real_fit(*args, **kwargs)

        monkeypatch.setattr(sim, "fit_cdfdr", flaky)
        design = MixtureNormalDesign(mu=1.0, replicates=20, seed=31, n=1500, n_null=1350)
        report = run_replicates(design, workers=1)
        assert report.failed_replicates == [1]
        assert report.n_replicates == 19
        assert report.pi0_estimates.size == 19

    @pytest.mark.parametrize("workers", [0, -1, 2])
    def test_worker_count_below_one_rejected(self, workers):
        design = MixtureNormalDesign(mu=2.0, replicates=2, seed=17, n=2000, n_null=1800)
        with pytest.raises(ConfigError, match="replicates run in one process, so workers must be 1"):
            run_replicates(design, workers=workers)

    def test_unknown_design_rejected(self):
        with pytest.raises(ConfigError, match="unknown design type EstimatorConfig"):
            run_replicates(EstimatorConfig(), workers=1)

    def test_too_many_failures_abort(self, monkeypatch):
        import cdfdr.simulate as sim

        def always_fail(*args, **kwargs):
            raise CdfdrError("synthetic failure")

        monkeypatch.setattr(sim, "fit_cdfdr", always_fail)
        design = MixtureNormalDesign(mu=1.0, replicates=5, seed=37, n=1500, n_null=1350)
        with pytest.raises(SimulationError, match="synthetic failure") as info:
            run_replicates(design, workers=1)
        assert str(info.value).endswith("replicate 0 raised CdfdrError: synthetic failure")
