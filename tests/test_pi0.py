"""Minimum-deviance pi0: null behavior, recovery, and determinism."""

import math

import numpy as np
import pytest

from cdfdr.betafit import BetaFit
from cdfdr.density import ComparisonDensityModel, CoefficientSet, eval_comparison_density_many
from cdfdr.errors import DomainError, EstimationError, InsufficientDataError
from cdfdr.legendre import basis_matrix
from cdfdr.pi0 import _SCAN_CHUNK, _prefix_sums, _scan_order, estimate_pi0
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


# The scan's prefix sums may differ from exact ones by this much, relative to
# the sum of the terms' magnitudes.  The sequential whole-N cumulative sum
# that the segment sums replaced read 4.3e-16 to 1.1e-14 on TestChunkedScan's
# inputs; the segment sums read at most 2.2e-16.
_SCAN_REL_BOUND = 3e-16


def _reference_path(u, dens, m):
    """The scan with exact prefix sums at the canonical order.

    For each column, ``math.fsum`` sums every segment between consecutive
    distinct counts, as its rounded sum and the rounded rest, and then all
    pieces up to each count; the prefix sums of the terms' magnitudes come
    with them.  Returns the order, the distinct counts, both prefix sums, and
    the deviances, counts, lambda*, pi0_hat and flatness they give.
    """
    order = np.lexsort((u, dens))
    basis = basis_matrix(m, u[order])
    lambdas = 1.0 + 0.01 * np.arange(251)
    counts = np.searchsorted(dens[order], lambdas, side="left")
    valid = counts > 0
    ends = np.unique(counts[valid])
    prefix, magnitude = np.empty((ends.size, m)), np.empty((ends.size, m))
    for j in range(m):
        column = basis[:, j].tolist()
        pieces, magnitudes, begin = [], [], 0
        for k, end in enumerate(ends.tolist()):
            segment = column[begin:end]
            total = math.fsum(segment)
            pieces += [total, math.fsum(segment + [-total])]
            magnitudes.append(math.fsum(map(abs, segment)))
            prefix[k, j], magnitude[k, j] = math.fsum(pieces), math.fsum(magnitudes)
            begin = end
    theta = prefix[np.searchsorted(ends, counts[valid])] / counts[valid, None]
    deviances = np.full(lambdas.size, np.nan)
    deviances[valid] = np.sum(theta ** 2, axis=1)
    valid_dev = deviances[valid]
    flat = bool(np.max(valid_dev) - np.min(valid_dev) <= 1e-12)
    star = int(np.flatnonzero(valid)[0]) if flat else int(np.nanargmin(deviances))
    return (order, ends, prefix, magnitude, deviances, counts, float(lambdas[star]),
            float(counts[star]) / u.size, flat)


def _assert_matches_reference(u, dens, m):
    path = estimate_pi0(u, dens, m=m)
    (order, ends, prefix, magnitude, deviances, counts, lambda_star, pi0_hat,
     flat) = _reference_path(u, dens, m)
    error = np.abs(_prefix_sums(m, u, order, ends) - prefix) / magnitude
    assert np.max(error) <= _SCAN_REL_BOUND
    np.testing.assert_allclose(path.deviances, deviances, rtol=1e-12)
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
        d_hat = fit_cdfdr(u, NullSpec.precomputed()).fitted.d
        path_a = estimate_pi0(u, d_hat)
        perm = rng.permutation(u.size)
        path_b = estimate_pi0(u[perm], d_hat[perm])
        assert np.array_equal(path_a.deviances, path_b.deviances, equal_nan=True)
        assert path_a.lambda_star == path_b.lambda_star
        assert path_a.pi0_hat == path_b.pi0_hat

    def test_determinism_bitwise(self):
        rng = np.random.Generator(np.random.Philox(31))
        u = rng.random(3000)
        d_hat = fit_cdfdr(u, NullSpec.precomputed()).fitted.d
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
        # The level range is the paper's, not a parameter.
        with pytest.raises(TypeError):
            estimate_pi0(u, _unit_density(u), lambda_max=4.0)

    @pytest.mark.parametrize("step, n_levels", [
        (0.01, 251), (1e-4, 25_001), (0.3, 9), (2.5, 2), (0.7, 4), (1.5, 2),
    ])
    def test_grid_stops_at_three_and_a_half(self, step, n_levels):
        # The levels run from 1 in steps of ``step`` up to the last at most
        # 3.5; a step that does not divide 2.5 stops short of it (0.7 at 3.1,
        # 1.5 at 2.5), and one that does ends on it.
        rng = np.random.Generator(np.random.Philox(41))
        u = rng.random(500)
        lambdas = estimate_pi0(u, _unit_density(u), grid_step=step).lambdas
        assert np.array_equal(lambdas, 1.0 + step * np.arange(n_levels))
        assert lambdas[-1] <= 3.5 < lambdas[-1] + step * (1.0 - 1e-9)

    def test_lambda_star_attains_minimum(self):
        rng = np.random.Generator(np.random.Philox(43))
        u = np.concatenate([rng.random(1500), rng.beta(0.25, 1.0, 500)])
        path = estimate_pi0(u, fit_cdfdr(u, NullSpec.precomputed()).fitted.d)
        star = int(round((path.lambda_star - 1.0) / 0.01))
        assert path.deviances[star] == np.nanmin(path.deviances)
        # Tie-break toward the smallest lambda.
        earlier = path.deviances[:star]
        assert not np.any(earlier[~np.isnan(earlier)] <= path.deviances[star])


class TestChunkedScan:
    """The scan builds its basis in chunks and sums it over the segments
    between the counts: its prefix sums are within ``_SCAN_REL_BOUND`` of
    exact ones, and its counts, lambda*, pi0_hat and flatness equal the exact
    scan's."""

    @pytest.mark.parametrize("n", [_SCAN_CHUNK - 1, _SCAN_CHUNK, _SCAN_CHUNK + 1,
                                   2 * _SCAN_CHUNK + 7])
    @pytest.mark.parametrize("m", [1, 10, 16])
    def test_matches_whole_array_scan(self, n, m):
        # Rounded values give ties in both sort keys.
        rng = np.random.Generator(np.random.Philox(n + m))
        u = np.round(np.concatenate([rng.random(n - n // 10), rng.beta(0.3, 1.0, n // 10)]), 4)
        dens = np.round(np.where(u < 0.1, 4.0 - 25.0 * u, 0.8 + 0.4 * rng.random(n)), 3)
        _assert_matches_reference(u, dens, m)

    @pytest.mark.parametrize("m", [1, 10])
    def test_runs_of_tied_densities(self, m):
        # Long runs of equal densities, -0.0 beside 0.0 in the density and in
        # the p-values, between distinct levels: the canonical order within a
        # run decides the order of the prefix sums.
        n = _SCAN_CHUNK + 5000
        rng = np.random.Generator(np.random.Philox(211 + m))
        u = np.where(rng.random(n) < 0.05, rng.choice([-0.0, 0.0], n), np.round(rng.random(n), 3))
        levels = np.array([-0.0, 0.0, 1.005, 1.5, 2.25, 3.0])
        dens = np.where(rng.random(n) < 0.6, rng.choice(levels, n), 0.5 + 3.0 * rng.random(n))
        assert np.any(np.signbit(dens[dens == 0.0])) and not np.all(np.signbit(dens[dens == 0.0]))
        _assert_matches_reference(u, dens, m)

    @pytest.mark.parametrize("m", [1, 16])
    def test_prefix_rows_on_chunk_boundaries(self, m):
        # Density levels put 1, C - 1, C, C + 1 and 2C cases below successive
        # lambdas (C the chunk size), so segments end at the first row of a
        # chunk, at its last two rows and at the first row of the next.
        n = 2 * _SCAN_CHUNK + 7
        rng = np.random.Generator(np.random.Philox(97))
        rank = rng.permutation(n)
        dens = np.select(
            [rank == 0, rank < _SCAN_CHUNK - 1, rank == _SCAN_CHUNK - 1, rank == _SCAN_CHUNK,
             rank < 2 * _SCAN_CHUNK],
            [1.05, 1.2, 1.3, 1.5, 1.7], 3.0)
        u = rng.random(n)
        path = estimate_pi0(u, dens, m=m)
        assert {1, _SCAN_CHUNK - 1, _SCAN_CHUNK, _SCAN_CHUNK + 1, 2 * _SCAN_CHUNK,
                n} <= set(path.n_lambda.tolist())
        _assert_matches_reference(u, dens, m)


def _lexsort_scan(u, dens, m):
    """The deviances, lambda* and pi0_hat of the scan's own sums at the
    order ``np.lexsort((u, dens))``, for the default grid."""
    order = np.lexsort((u, dens))
    lambdas = 1.0 + 0.01 * np.arange(251)
    counts = np.searchsorted(dens[order], lambdas, side="left")
    valid = counts > 0
    sizes = counts[valid]
    ends = np.unique(sizes)
    theta = _prefix_sums(m, u, order, ends)[np.searchsorted(ends, sizes)] / sizes[:, None]
    deviances = np.full(lambdas.size, np.nan)
    deviances[valid] = np.sum(theta ** 2, axis=1)
    valid_dev = deviances[valid]
    star = (int(np.flatnonzero(valid)[0]) if np.max(valid_dev) - np.min(valid_dev) <= 1e-12
            else int(np.nanargmin(deviances)))
    return deviances, float(lambdas[star]), float(counts[star]) / u.size


def _near_tie_input(n, seed):
    """p-values and densities whose packed sort keys collide once the case
    index takes their low bits: runs of one-ulp steps above 1.7 and below
    -0.3, and equal densities around the levels 1.0 and 1.5, exact ties,
    -0.0 beside 0.0, negative densities and rounded (tied) p-values among
    N(1.5, 1) densities."""
    rng = np.random.Generator(np.random.Philox(seed))
    u = np.where(rng.random(n) < 0.3, np.round(rng.random(n), 2), rng.random(n))
    steps = rng.integers(0, 64, n).astype(float)
    kind = rng.integers(0, 6, n)
    dens = np.select(
        [kind == 0, kind == 1, kind == 2, kind == 3, kind == 4],
        [1.7 + steps * np.spacing(1.7), -0.3 - steps * np.spacing(0.3),
         rng.choice([1.0 - np.spacing(0.5), 1.0, 1.5, 1.5 + np.spacing(1.5)], n),
         rng.choice([-0.0, 0.0, -1.25, 2.0], n), np.round(rng.normal(1.5, 1.0, n), 1)],
        rng.normal(1.5, 1.0, n))
    return u, dens


class TestScanOrder:
    """The scan orders its cases by one integer sort of packed keys; the
    order, and so the deviance path, lambda* and pi0_hat, equal those of the
    order ``np.lexsort((u, dens))`` bit for bit, also where keys collide
    once truncated, for negative densities and for -0.0."""

    # Each pair straddles a power of two, where the index field widens.
    @pytest.mark.parametrize("n", [1, 2, 3, 1024, 1025, 2 * _SCAN_CHUNK, 2 * _SCAN_CHUNK + 1])
    def test_order_is_lexsort(self, n):
        u, dens = _near_tie_input(n, n)
        assert np.array_equal(_scan_order(dens, u), np.lexsort((u, dens)))

    @pytest.mark.parametrize("n", [1024, 1025, _SCAN_CHUNK, _SCAN_CHUNK + 1])
    @pytest.mark.parametrize("m", [1, 10])
    def test_path_equals_lexsort_scan(self, n, m):
        u, dens = _near_tie_input(n, n + m)
        assert np.any(dens < 0.0) and np.any(np.signbit(dens) & (dens == 0.0))
        path = estimate_pi0(u, dens, m=m)
        deviances, lambda_star, pi0_hat = _lexsort_scan(u, dens, m)
        assert np.array_equal(path.deviances.view(np.int64), deviances.view(np.int64))
        assert (path.lambda_star, path.pi0_hat) == (lambda_star, pi0_hat)

    def test_negative_densities_in_order(self):
        # The key's sign map: without it, -2.0 would sort above -1.0.
        dens = np.array([-1.0, 2.0, -2.0, 1.5, -1e-300, 0.5])
        u = np.linspace(0.1, 0.6, dens.size)
        assert _scan_order(dens, u).tolist() == [2, 0, 4, 5, 3, 1]


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
        for m in (17, 6.5, True):
            with pytest.raises(DomainError):
                estimate_pi0(u, _unit_density(u), m=m)
        with pytest.raises(DomainError):
            estimate_pi0(u, _unit_density(u), grid_step=True)
        with pytest.raises(DomainError):
            estimate_pi0(u, _unit_density(u), grid_step=0.0)
        with pytest.raises(DomainError):
            estimate_pi0(u, _unit_density(u), grid_step=2.6)
        # The finest step is 1e-4 (25,001 levels); the scan's arrays grow with the levels.
        with pytest.raises(DomainError):
            estimate_pi0(u, _unit_density(u), grid_step=1e-5)
        assert estimate_pi0(u, _unit_density(u), grid_step=1e-4).lambdas.size == 25_001

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_density_rejected(self, bad):
        # Such cases would sit in no candidate set (NaN, +inf) or in all of
        # them (-inf), and move pi0 without a word.
        rng = np.random.Generator(np.random.Philox(53))
        u = rng.random(5000)
        dens = _unit_density(u)
        dens[::10] = bad
        with pytest.raises(DomainError, match=r"density must be finite, got .* at index 0"):
            estimate_pi0(u, dens)

    @pytest.mark.parametrize("bad", [-0.25, 1.5, math.nan, math.inf])
    def test_pvalue_above_every_level_rejected(self, bad):
        # The case's density sits above every level, so it sorts after the
        # last row any level reads; its p-value is checked all the same.
        rng = np.random.Generator(np.random.Philox(59))
        u = rng.random(_SCAN_CHUNK + 7)
        dens = _unit_density(u)
        u[7], dens[7] = bad, 4.0
        with pytest.raises(DomainError, match=r"must lie in \[0, 1\]"):
            estimate_pi0(u, dens)

    def test_no_pvalues(self):
        with pytest.raises(InsufficientDataError, match="no p-values supplied"):
            estimate_pi0(np.array([]), np.array([]))

    def test_density_length_must_match(self):
        u = np.full(100, 0.5)
        with pytest.raises(DomainError):
            estimate_pi0(u, _unit_density(u)[:-1])
