"""Minimum-deviance pi0: null behavior, recovery, and determinism."""

import numpy as np
import pytest

from cdfdr.betafit import BetaFit
from cdfdr.density import ComparisonDensityModel, CoefficientSet, eval_comparison_density_many
from cdfdr.errors import DomainError, EstimationError
from cdfdr.legendre import basis_matrix
from cdfdr.pi0 import _SCAN_CHUNK, estimate_pi0
from cdfdr.pipeline import NullSpec, fit_cdfdr


def _unit_model():
    fit = BetaFit(alpha=1.0, beta=1.0, log_likelihood=0.0, n=1000,
                  iterations=0, converged=True)
    theta = np.zeros(6)
    coeffs = CoefficientSet(m=6, theta_tilde=theta.copy(), theta_hat=theta,
                            n=1000, threshold=0.0017)
    return ComparisonDensityModel(fit=fit, coeffs=coeffs)


def _unit_density(u):
    return eval_comparison_density_many(_unit_model(), u)


def _reference_path(u, dens, m):
    """The scan over the whole N x m basis: lexsort, one cumsum, prefix rows."""
    order = np.lexsort((u, dens))
    prefix = np.cumsum(basis_matrix(m, u[order]), axis=0)
    lambdas = 1.0 + 0.01 * np.arange(251)
    counts = np.searchsorted(dens[order], lambdas, side="left")
    deviances = np.full(lambdas.size, np.nan)
    valid = counts > 0
    theta = prefix[counts[valid] - 1] / counts[valid, None]
    deviances[valid] = np.sum(theta ** 2, axis=1)
    valid_dev = deviances[valid]
    flat = bool(np.max(valid_dev) - np.min(valid_dev) <= 1e-12)
    star = int(np.flatnonzero(valid)[0]) if flat else int(np.nanargmin(deviances))
    return deviances, counts, float(lambdas[star]), float(counts[star]) / u.size, flat


def _assert_matches_reference(u, dens, m):
    path = estimate_pi0(u, dens, m=m)
    deviances, counts, lambda_star, pi0_hat, flat = _reference_path(u, dens, m)
    assert np.array_equal(path.deviances.view(np.uint64), deviances.view(np.uint64))
    assert np.array_equal(path.n_lambda, counts)
    assert (path.lambda_star, path.pi0_hat, path.flat) == (lambda_star, pi0_hat, flat)


class TestAllNull:
    def test_unit_model_gives_pi0_exactly_one(self):
        # d = 1 everywhere: lambda = 1.00 has an empty (skipped) set, every
        # larger lambda captures the full sample, the path is flat, and the
        # tie-break lands on the smallest valid lambda.
        rng = np.random.Generator(np.random.Philox(5))
        u = rng.random(10_000)
        path = estimate_pi0(u, _unit_density(u))
        assert path.pi0_hat == 1.0
        assert path.flat
        assert path.lambda_star == pytest.approx(1.01)
        assert path.n_lambda[0] == 0
        assert np.isnan(path.deviances[0])
        assert np.all(path.n_lambda[1:] == u.size)

    def test_uniform_grid_deviance_profile(self):
        n = 10_000
        u = (np.arange(n) + 0.5) / n
        path = estimate_pi0(u, _unit_density(u))
        assert path.pi0_hat == 1.0
        # An exactly uniform grid has essentially zero deviance.
        assert np.nanmax(path.deviances) < 1e-6


class TestRecovery:
    def test_mixture_normal_replicates(self):
        # 50 seeded replicates of the mu=3 two-group design: the estimate
        # must land within 0.05 of the true 0.9 in at least 90% of them.
        hits = 0
        for seed in range(50):
            rng = np.random.Generator(np.random.Philox(seed))
            stats = np.concatenate([
                rng.normal(0.0, 1.0, 4500),
                rng.normal(3.0, 1.0, 500) + rng.normal(0.0, 1.0, 500),
            ])
            model = fit_cdfdr(stats, NullSpec.standard_normal())
            if abs(model.pi0 - 0.9) <= 0.05:
                hits += 1
        assert hits >= 45

    def test_pi0_is_a_sample_fraction(self):
        rng = np.random.Generator(np.random.Philox(23))
        u = np.concatenate([rng.random(900), rng.beta(0.2, 1.0, 100)])
        model = fit_cdfdr(u, NullSpec.precomputed())
        path = model.deviance_path
        assert 0.0 < path.pi0_hat <= 1.0
        assert path.pi0_hat * u.size == pytest.approx(round(path.pi0_hat * u.size))


class TestInvariants:
    def test_permutation_invariance_bitwise(self):
        rng = np.random.Generator(np.random.Philox(29))
        u = np.concatenate([rng.random(2000), rng.beta(0.3, 1.0, 300)])
        d_hat = fit_cdfdr(u, NullSpec.precomputed()).d_hat
        path_a = estimate_pi0(u, d_hat)
        perm = rng.permutation(u.size)
        path_b = estimate_pi0(u[perm], d_hat[perm])
        assert np.array_equal(path_a.deviances, path_b.deviances, equal_nan=True)
        assert path_a.lambda_star == path_b.lambda_star
        assert path_a.pi0_hat == path_b.pi0_hat

    def test_determinism_bitwise(self):
        rng = np.random.Generator(np.random.Philox(31))
        u = rng.random(3000)
        d_hat = fit_cdfdr(u, NullSpec.precomputed()).d_hat
        a = estimate_pi0(u, d_hat)
        b = estimate_pi0(u.copy(), d_hat.copy())
        assert np.array_equal(a.deviances, b.deviances, equal_nan=True)
        assert np.array_equal(a.n_lambda, b.n_lambda)
        assert (a.lambda_star, a.pi0_hat, a.flat) == (b.lambda_star, b.pi0_hat, b.flat)

    def test_grid_layout(self):
        rng = np.random.Generator(np.random.Philox(37))
        u = rng.random(500)
        path = estimate_pi0(u, _unit_density(u), grid_step=0.01)
        assert path.lambdas.size == 251
        assert path.lambdas[0] == 1.0
        assert path.lambdas[-1] == pytest.approx(3.5)
        assert np.all(np.diff(path.lambdas) > 0.0)

    def test_lambda_star_attains_minimum(self):
        rng = np.random.Generator(np.random.Philox(43))
        u = np.concatenate([rng.random(1500), rng.beta(0.25, 1.0, 500)])
        path = estimate_pi0(u, fit_cdfdr(u, NullSpec.precomputed()).d_hat)
        star = int(round((path.lambda_star - 1.0) / 0.01))
        assert path.deviances[star] == np.nanmin(path.deviances)
        # Tie-break toward the smallest lambda.
        earlier = path.deviances[:star]
        assert not np.any(earlier[~np.isnan(earlier)] <= path.deviances[star])


class TestChunkedScan:
    """The scan builds its basis in chunks; the result equals the whole-array scan bit for bit."""

    @pytest.mark.parametrize("n", [_SCAN_CHUNK - 1, _SCAN_CHUNK, _SCAN_CHUNK + 1,
                                   2 * _SCAN_CHUNK + 7])
    @pytest.mark.parametrize("m", [1, 10, 16])
    def test_matches_whole_array_scan(self, n, m):
        # Rounded values give ties in both sort keys.
        rng = np.random.Generator(np.random.Philox(n + m))
        u = np.round(np.concatenate([rng.random(n - n // 10), rng.beta(0.3, 1.0, n // 10)]), 4)
        dens = np.round(np.where(u < 0.1, 4.0 - 25.0 * u, 0.8 + 0.4 * rng.random(n)), 3)
        _assert_matches_reference(u, dens, m)

    @pytest.mark.parametrize("m", [1, 16])
    def test_prefix_rows_on_chunk_boundaries(self, m):
        # Density levels put 1, C, C + 1 and 2C cases below successive lambdas
        # (C the chunk size), so the needed prefix rows are the first and the
        # last row of a chunk.
        n = 2 * _SCAN_CHUNK + 7
        rng = np.random.Generator(np.random.Philox(97))
        rank = rng.permutation(n)
        dens = np.select(
            [rank == 0, rank < _SCAN_CHUNK, rank == _SCAN_CHUNK, rank < 2 * _SCAN_CHUNK],
            [1.05, 1.2, 1.5, 1.7], 3.0)
        u = rng.random(n)
        path = estimate_pi0(u, dens, m=m)
        assert {1, _SCAN_CHUNK, _SCAN_CHUNK + 1, 2 * _SCAN_CHUNK, n} <= set(path.n_lambda.tolist())
        _assert_matches_reference(u, dens, m)


class TestErrors:
    def test_all_grid_points_empty(self):
        # A density sitting above the whole grid leaves every level set
        # empty and must raise rather than crash or fabricate a value.
        fit = BetaFit(alpha=40.0, beta=40.0, log_likelihood=0.0, n=100,
                      iterations=0, converged=True)
        theta = np.zeros(6)
        coeffs = CoefficientSet(m=6, theta_tilde=theta.copy(), theta_hat=theta,
                                n=100, threshold=0.09)
        model = ComparisonDensityModel(fit=fit, coeffs=coeffs)
        u = np.linspace(0.495, 0.505, 100)
        with pytest.raises(EstimationError):
            estimate_pi0(u, eval_comparison_density_many(model, u))

    def test_validation(self):
        u = np.full(100, 0.5)
        with pytest.raises(DomainError):
            estimate_pi0(u, _unit_density(u), m=17)
        with pytest.raises(DomainError):
            estimate_pi0(u, _unit_density(u), grid_step=0.0)

    def test_density_length_must_match(self):
        u = np.full(100, 0.5)
        with pytest.raises(DomainError):
            estimate_pi0(u, _unit_density(u)[:-1])
