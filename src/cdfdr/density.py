"""Comparison-density estimation on smooth p-values.

The density of smooth p-values is modeled as 1 + sum_j theta_j S_j(v) with
hard-thresholded score coefficients; composing with the fitted beta density
gives the assembled estimate on the original p-value scale.  The truncated
series can dip below zero, so evaluation clips at a small positive floor
(coefficients are never modified) rather than renormalizing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .betafit import CLAMP, BetaFit, smooth_pvalues
from .errors import DomainError, InsufficientDataError
from .legendre import basis_matrix
from .quadrature import integrate_unit
from .special import beta_cdf_many, beta_pdf_many

__all__ = [
    "CoefficientSet",
    "ComparisonDensityModel",
    "score_coefficients",
    "eval_smooth_density_many",
    "eval_comparison_density_many",
    "comparison_density_raw_many",
    "comparison_density_raw_reflected_many",
    "reconstruct_density",
    "integrate_comparison_density",
    "clipped_measure",
]

DEFAULT_FLOOR = 1e-3
_CLIP_GRID = 4096  # midpoints on which clipped_measure counts the clipped set


@dataclass(frozen=True)
class CoefficientSet:
    """Raw and hard-thresholded score coefficients of the smooth series.

    ``theta_hat[j]`` keeps ``theta_tilde[j]`` exactly when its square exceeds
    the selection threshold ``2 ln(n) / n`` and is zero otherwise.
    """

    m: int
    theta_tilde: np.ndarray
    theta_hat: np.ndarray
    n: int
    threshold: float

    def selected(self) -> list[int]:
        """1-based indices of the surviving coefficients."""
        return [j + 1 for j in range(self.m) if self.theta_hat[j] != 0.0]


@dataclass(frozen=True)
class ComparisonDensityModel:
    """Assembled beta-preflattened comparison-density estimate.

    Immutable after construction; evaluation is pure and clips at
    ``DEFAULT_FLOOR``.
    """

    fit: BetaFit
    coeffs: CoefficientSet


def score_coefficients(smooth_pvalues, m: int = 6) -> CoefficientSet:
    """Sample-mean score coefficients of S_1..S_m with hard thresholding.

    theta_tilde[j] is the exact mean of S_j over the input; coefficients with
    theta^2 <= 2 ln(n)/n are zeroed (natural logarithm).
    """
    return _score_with_basis(smooth_pvalues, m)[0]


def _score_with_basis(smooth_pvalues, m: int) -> tuple[CoefficientSet, np.ndarray]:
    """:func:`score_coefficients` and the N x m basis on v it averaged."""
    v = np.asarray(smooth_pvalues, dtype=float).ravel()
    if v.size == 0:
        raise InsufficientDataError("no smooth p-values supplied")
    if v.size < 10:
        raise InsufficientDataError(f"need at least 10 values, got {v.size}")
    n = int(v.size)
    basis = basis_matrix(int(m), v)
    theta_tilde = basis.mean(axis=0)
    threshold = 2.0 * math.log(n) / n
    theta_hat = np.where(theta_tilde ** 2 > threshold, theta_tilde, 0.0)
    theta_tilde.setflags(write=False)
    theta_hat.setflags(write=False)
    return CoefficientSet(
        m=int(m),
        theta_tilde=theta_tilde,
        theta_hat=theta_hat,
        n=n,
        threshold=threshold,
    ), basis


def _fit_series(fit: BetaFit, u, v, m: int) -> tuple[ComparisonDensityModel, np.ndarray]:
    """Step 4 on the fitted sample: the model and its floored density at each u.

    ``v`` is ``smooth_pvalues(u, fit)``.  One N x m basis on v serves both the
    coefficients and the series at v, bit for bit what
    :func:`score_coefficients` and :func:`eval_comparison_density_many` give.
    """
    coeffs, basis = _score_with_basis(v, m)
    model = ComparisonDensityModel(fit=fit, coeffs=coeffs)
    return model, _floored(model, u, 1.0 + basis @ coeffs.theta_hat)


def eval_smooth_density_many(coeffs: CoefficientSet, v) -> np.ndarray:
    """Series density 1 + sum_j theta_hat[j] S_j(v) at each point of v.

    May be negative; the floor applies downstream.  A one-point query is
    padded to two rows, because numpy takes a one-row matrix-vector product
    down another path, with other rounding, than the product for a batch.
    """
    v = np.atleast_1d(np.asarray(v, dtype=float))
    rows = v.ravel() if v.size != 1 else np.repeat(v.ravel(), 2)
    series = basis_matrix(coeffs.m, rows) @ coeffs.theta_hat
    return 1.0 + series[:v.size].reshape(v.shape)


def comparison_density_raw_many(model: ComparisonDensityModel, u) -> np.ndarray:
    """Unclipped assembled density f_B(u) * d(F_B(u)) for u in the open (0,1).

    Used by normalization diagnostics; no clamp and no floor, so the exact
    integral over (0, 1) is 1 (the basis has zero mean and f_B has unit mass).
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if np.any(u <= 0.0) or np.any(u >= 1.0):
        raise DomainError("raw evaluation requires u strictly inside (0, 1)")
    fb = beta_pdf_many(u, model.fit.alpha, model.fit.beta)
    v = beta_cdf_many(u, model.fit.alpha, model.fit.beta)
    return fb * eval_smooth_density_many(model.coeffs, v)


def comparison_density_raw_reflected_many(model: ComparisonDensityModel, w) -> np.ndarray:
    """Raw assembled density at u = 1 - w, computed without forming 1 - w.

    Swapping the beta shape parameters evaluates the density and CDF exactly
    at the reflected point, keeping the right-endpoint singularity resolvable
    below the 2**-53 spacing of doubles near 1.
    """
    w = np.atleast_1d(np.asarray(w, dtype=float))
    if np.any(w <= 0.0) or np.any(w >= 1.0):
        raise DomainError("raw evaluation requires w strictly inside (0, 1)")
    fb = beta_pdf_many(w, model.fit.beta, model.fit.alpha)
    v = 1.0 - beta_cdf_many(w, model.fit.beta, model.fit.alpha)
    return fb * eval_smooth_density_many(model.coeffs, v)


def _floored(model: ComparisonDensityModel, u, series) -> np.ndarray:
    """max(DEFAULT_FLOOR, f_B(u) * series), u clamped as in :func:`smooth_pvalues`."""
    uc = np.clip(np.asarray(u, dtype=float), CLAMP, 1.0 - CLAMP)
    fb = beta_pdf_many(uc, model.fit.alpha, model.fit.beta)
    return np.maximum(DEFAULT_FLOOR, fb * series)


def eval_comparison_density_many(model: ComparisonDensityModel, u) -> np.ndarray:
    """Floored assembled density at each u, strictly positive by the floor policy.

    u is clamped to the fit's range (the beta fit's 1e-10 clamp), so an
    endpoint evaluates at its clamped point.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if np.any(~np.isfinite(u)) or np.any(u < 0.0) or np.any(u > 1.0):
        raise DomainError("u must lie in [0, 1]")
    v = smooth_pvalues(u, model.fit)
    return _floored(model, u, eval_smooth_density_many(model.coeffs, v))


def reconstruct_density(null_pdf, null_cdf, model: ComparisonDensityModel, x) -> np.ndarray:
    """Density reconstruction f(x) = f0(x) * d(F0(x)) on the statistic scale, at each x.

    ``null_pdf``/``null_cdf`` are the array density and distribution function
    of the pre-whitening model (such as ``NullSpec.pdf_many`` and
    ``NullSpec.cdf_many``); any distribution with a valid CDF works.  The
    result has the shape of the query, with at least one dimension.
    """
    return null_pdf(x) * eval_comparison_density_many(model, null_cdf(x))


def integrate_comparison_density(model: ComparisonDensityModel) -> float:
    """Integral over (0,1) of the raw assembled density (should be ~1)."""
    return integrate_unit(
        lambda u: comparison_density_raw_many(model, u),
        lambda w: comparison_density_raw_reflected_many(model, w),
    )


def clipped_measure(model: ComparisonDensityModel) -> float:
    """Lebesgue measure of {u : raw density < DEFAULT_FLOOR}, on a midpoint grid.

    Diagnostic-grade accuracy (resolution 1/4096); deterministic.
    """
    u = (np.arange(_CLIP_GRID) + 0.5) / _CLIP_GRID
    raw = comparison_density_raw_many(model, u)
    return float(np.mean(raw < DEFAULT_FLOOR))
