"""Beta maximum-likelihood fit of p-values and the smooth p-value transform.

P-values entering the fit are clamped to [1e-10, 1 - 1e-10] (two-sided test
p-values can round to exactly 0 or 1, where the beta log-likelihood
diverges).  The same clamp constant applies when transforming to smooth
p-values, so fitting and transforming see identical data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSampleError, EstimationError, InsufficientDataError
from .special import beta_cdf_many, digamma, log_gamma, trigamma

__all__ = ["CLAMP", "BetaFit", "fit_beta_mle", "smooth_pvalues"]

# Named clamp point for p-values entering the beta fit and transform.
CLAMP = 1e-10

_GRAD_TOL = 1e-8
_MAX_ITER = 200


@dataclass(frozen=True)
class BetaFit:
    """Fitted pre-flattening beta parameters.

    ``log_likelihood`` is the total log density of the clamped sample at the
    fitted parameters.  ``iterations`` counts the accepted scoring steps.
    ``converged`` is False when the fit stopped with the mean-gradient
    sup-norm above 1e-8 (never silent).
    """

    alpha: float
    beta: float
    log_likelihood: float
    n: int
    iterations: int
    converged: bool


def _mean_loglik(a: float, b: float, s1: float, s2: float) -> float:
    return log_gamma(a + b) - log_gamma(a) - log_gamma(b) + (a - 1.0) * s1 + (b - 1.0) * s2


def _mean_gradient(a: float, b: float, s1: float, s2: float) -> tuple[float, float]:
    d_ab = digamma(a + b)
    return d_ab - digamma(a) + s1, d_ab - digamma(b) + s2


def _moment_start(uc: np.ndarray) -> tuple[float, float]:
    m = float(np.mean(uc))
    v = float(np.var(uc))
    scale = m * (1.0 - m) / v - 1.0 if v > 0.0 else 0.0
    if scale <= 0.0:
        return 1.0, 1.0
    return max(m * scale, 1e-3), max((1.0 - m) * scale, 1e-3)


def fit_beta_mle(pvalues) -> BetaFit:
    """Maximum-likelihood beta fit to a vector of p-values.

    Fisher scoring on (log alpha, log beta) from a method-of-moments start.
    The scoring matrix is the Hessian without its gradient terms, which is
    negative definite for all positive shapes, so every step points uphill.
    A step is halved until the log-likelihood rises or the gradient's
    sup-norm falls.  Stops when the sup-norm of the per-observation gradient
    is at most 1e-8, or flags ``converged=False`` when 200 steps, 60 halvings
    or a singular scoring matrix leave it above that.
    """
    u = np.asarray(pvalues, dtype=float)
    if u.ndim != 1:
        u = u.ravel()
    if u.size < 10:
        raise InsufficientDataError(f"beta fit needs at least 10 p-values, got {u.size}")
    if np.any(~np.isfinite(u)) or np.any(u < 0.0) or np.any(u > 1.0):
        raise InsufficientDataError("p-values must be finite and lie in [0, 1]")
    uc = np.clip(u, CLAMP, 1.0 - CLAMP)
    if np.all(uc == uc[0]):
        raise DegenerateSampleError("all p-values identical after clamping")
    n = int(u.size)
    s1 = float(np.mean(np.log(uc)))
    s2 = float(np.mean(np.log1p(-uc)))

    a, b = _moment_start(uc)
    ll = _mean_loglik(a, b, s1, s2)
    ga, gb = _mean_gradient(a, b, s1, s2)
    iterations = 0
    while (norm := max(abs(ga), abs(gb))) > _GRAD_TOL and iterations < _MAX_ITER:
        # Scoring matrix in log-parameters (keeps positivity without bounds).
        t_ab = trigamma(a + b)
        h_aa = a * a * (t_ab - trigamma(a))
        h_bb = b * b * (t_ab - trigamma(b))
        h_ab = a * b * t_ab
        det = h_aa * h_bb - h_ab * h_ab
        if not (math.isfinite(det) and det > 0.0):
            break
        d_la = -(h_bb * a * ga - h_ab * b * gb) / det
        d_lb = -(h_aa * b * gb - h_ab * a * ga) / det
        step = 1.0
        for _ in range(60):
            a_new = a * math.exp(step * d_la)
            b_new = b * math.exp(step * d_lb)
            if 0.0 < a_new < math.inf and 0.0 < b_new < math.inf:
                ll_new = _mean_loglik(a_new, b_new, s1, s2)
                ga_new, gb_new = _mean_gradient(a_new, b_new, s1, s2)
                if ll_new > ll or max(abs(ga_new), abs(gb_new)) < norm:
                    break
            step *= 0.5
        else:
            break
        a, b, ll, ga, gb = a_new, b_new, ll_new, ga_new, gb_new
        iterations += 1

    return BetaFit(
        alpha=float(a),
        beta=float(b),
        log_likelihood=float(n * ll),
        n=n,
        iterations=iterations,
        converged=norm <= _GRAD_TOL,
    )


def smooth_pvalues(pvalues, fit: BetaFit) -> np.ndarray:
    """Map p-values to smooth p-values through the fitted beta CDF.

    The transform is strictly increasing, so ranks are preserved exactly
    (up to the clamp at the extreme 1e-10 boundaries).  Shapes so large that
    the incomplete beta leaves [0, 1] raise :class:`EstimationError`.
    """
    u = np.asarray(pvalues, dtype=float)
    if np.any(~np.isfinite(u)) or np.any(u < 0.0) or np.any(u > 1.0):
        raise InsufficientDataError("p-values must be finite and lie in [0, 1]")
    uc = np.clip(u, CLAMP, 1.0 - CLAMP)
    v = beta_cdf_many(uc, fit.alpha, fit.beta)
    if not np.all((v >= 0.0) & (v <= 1.0)):
        raise EstimationError(f"beta CDF left [0, 1] (range [{float(v.min())!r}, "
                              f"{float(v.max())!r}]) at alpha = {fit.alpha!r}, beta = {fit.beta!r}")
    return v
