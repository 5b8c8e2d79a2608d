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
    fitted parameters.  ``converged`` is False when the iteration cap was hit
    before the mean-gradient sup-norm dropped below 1e-8 (never silent).
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


def _solve_coordinate(target: float, other: float, lo: float = 1e-8) -> float:
    """Solve digamma(x) - digamma(x + other) = target for x by bisection.

    The left side increases strictly from -inf (x -> 0) to 0 (x -> inf), and
    target < 0 always holds for clamped data, so a root exists and is unique.
    """
    hi = max(1.0, lo * 2.0)
    while digamma(hi) - digamma(hi + other) < target:
        hi *= 2.0
        if hi > 1e12:
            raise EstimationError("coordinate solve failed to bracket the root")
    while digamma(lo) - digamma(lo + other) > target:
        lo *= 0.5
        if lo < 1e-290:
            raise EstimationError("coordinate solve failed to bracket the root")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if digamma(mid) - digamma(mid + other) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def fit_beta_mle(pvalues) -> BetaFit:
    """Maximum-likelihood beta fit to a vector of p-values.

    Newton iteration on (log alpha, log beta) from a method-of-moments start,
    with step halving; if Newton stalls, falls back to exact coordinate
    ascent (bisection per parameter).  Stops when the sup-norm of the
    per-observation gradient is at most 1e-8, or flags ``converged=False``
    after 200 iterations.
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
    iterations = 0
    converged = False

    # Newton phase in log-parameters (keeps positivity without bounds).
    newton_ok = True
    while iterations < _MAX_ITER:
        ga, gb = _mean_gradient(a, b, s1, s2)
        if max(abs(ga), abs(gb)) <= _GRAD_TOL:
            converged = True
            break
        if not newton_ok:
            break
        iterations += 1
        t_ab = trigamma(a + b)
        g_la = a * ga
        g_lb = b * gb
        h_aa = a * a * (t_ab - trigamma(a)) + g_la
        h_bb = b * b * (t_ab - trigamma(b)) + g_lb
        h_ab = a * b * t_ab
        det = h_aa * h_bb - h_ab * h_ab
        if not math.isfinite(det) or det == 0.0:
            newton_ok = False
            continue
        d_la = -(h_bb * g_la - h_ab * g_lb) / det
        d_lb = -(h_aa * g_lb - h_ab * g_la) / det
        step = 1.0
        improved = False
        for _ in range(60):
            a_new = a * math.exp(step * d_la)
            b_new = b * math.exp(step * d_lb)
            if a_new > 0.0 and b_new > 0.0 and math.isfinite(a_new) and math.isfinite(b_new):
                ll_new = _mean_loglik(a_new, b_new, s1, s2)
                if math.isfinite(ll_new) and ll_new >= ll:
                    a, b, ll = a_new, b_new, ll_new
                    improved = True
                    break
            step *= 0.5
        if not improved:
            newton_ok = False

    # Coordinate-ascent fallback: exact one-dimensional solves.
    while not converged and iterations < _MAX_ITER:
        iterations += 1
        a = _solve_coordinate(s1, b)
        b = _solve_coordinate(s2, a)
        ga, gb = _mean_gradient(a, b, s1, s2)
        if max(abs(ga), abs(gb)) <= _GRAD_TOL:
            converged = True
    ll = _mean_loglik(a, b, s1, s2)

    return BetaFit(
        alpha=float(a),
        beta=float(b),
        log_likelihood=float(n * ll),
        n=n,
        iterations=iterations,
        converged=converged,
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
