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
from .legendre import _terms
from .quadrature import integrate_unit
from .special import _blocks, _within, beta_cdf_many, beta_pdf_many

__all__ = [
    "CoefficientSet",
    "ComparisonDensityModel",
    "score_coefficients",
    "eval_smooth_density_many",
    "eval_comparison_density_many",
    "comparison_density_raw_many",
    "comparison_density_raw_reflected_many",
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

    theta_tilde[j] is the mean of S_j over the input, each term averaged on
    its own; coefficients with theta^2 <= 2 ln(n)/n are zeroed (natural
    logarithm).
    """
    v = np.asarray(smooth_pvalues, dtype=float).ravel()
    if v.size == 0:
        raise InsufficientDataError("no smooth p-values supplied")
    if v.size < 10:
        raise InsufficientDataError(f"need at least 10 values, got {v.size}")
    n = int(v.size)
    theta_tilde = np.array([term.mean() for term in _terms(m, v)])
    threshold = 2.0 * math.log(n) / n
    theta_hat = np.where(theta_tilde ** 2 > threshold, theta_tilde, 0.0)
    theta_tilde.setflags(write=False)
    theta_hat.setflags(write=False)
    return CoefficientSet(m=int(m), theta_tilde=theta_tilde, theta_hat=theta_hat, n=n,
                          threshold=threshold)


def eval_smooth_density_many(coeffs: CoefficientSet, v) -> np.ndarray:
    """Series density 1 + sum_j theta_hat[j] S_j(v) at each point of v.

    May be negative; the floor applies downstream.  The sum runs elementwise
    up to the last nonzero coefficient, so each point's value is the same in
    any batch.
    """
    v = np.atleast_1d(np.asarray(v, dtype=float))
    series = np.zeros(v.shape)
    for theta_j, term in zip(np.trim_zeros(coeffs.theta_hat, "b"), _terms(coeffs.m, v)):
        term *= theta_j
        series += term
    return np.add(series, 1.0, out=series)


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


def _floored_density(model: ComparisonDensityModel, u, v) -> np.ndarray:
    """max(DEFAULT_FLOOR, f_B(u) * d(v)) at each u of the array ``u``, where the
    array v = F_B(u) and u is clamped as in :func:`smooth_pvalues`.

    Runs a block at a time (``special._blocks``): only the result has u's length.
    """
    out = np.empty(u.shape)
    for ub, vb, ob in _blocks(u, v, out):
        d = eval_smooth_density_many(model.coeffs, vb)
        d *= beta_pdf_many(np.clip(ub, CLAMP, 1.0 - CLAMP), model.fit.alpha, model.fit.beta)
        np.maximum(d, DEFAULT_FLOOR, out=ob)
    return out


def eval_comparison_density_many(model: ComparisonDensityModel, u) -> np.ndarray:
    """Floored assembled density at each u, strictly positive by the floor policy.

    u is clamped to the fit's range (the beta fit's 1e-10 clamp), so an
    endpoint evaluates at its clamped point.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if not _within(u):
        raise DomainError("u must lie in [0, 1]")
    return _floored_density(model, u, smooth_pvalues(u, model.fit))


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
