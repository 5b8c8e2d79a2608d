"""True-null proportion estimation by minimum deviance over density levels.

For each level lambda on a fine grid over [1, 3.5], the p-values whose
estimated comparison density sits below lambda form a candidate null set;
its deviance from uniformity is the sum of squared score coefficients of the
raw p-values in the set.  The level with minimum deviance defines pi0 as the
fraction of p-values it captures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EstimationError, InsufficientDataError
from .legendre import M_MAX, basis_matrix

__all__ = ["DeviancePath", "estimate_pi0"]

_FLAT_TOL = 1e-12

_LAMBDA_MIN, _LAMBDA_MAX = 1.0, 3.5  # the density levels the scan covers
# The finest grid step: 25,001 levels.  The scan's arrays grow with the number
# of levels, and a finer step than the data's density levels buys nothing.
_STEP_MIN = 1e-4

# Rows of the basis the scan builds at a time, so its memory does not grow
# with the number of p-values.
_SCAN_CHUNK = 32_768


@dataclass(frozen=True)
class DeviancePath:
    """Deviance profile over the lambda grid.

    Grid points whose candidate set is empty are recorded as missing
    (``deviances`` NaN, ``n_lambda`` 0) rather than raising.  ``flat`` marks
    paths whose valid deviances all agree within 1e-12, in which case
    ``lambda_star`` is the smallest valid grid point.
    """

    lambdas: np.ndarray
    deviances: np.ndarray
    n_lambda: np.ndarray
    lambda_star: float
    pi0_hat: float
    m: int
    flat: bool


def estimate_pi0(pvalues, density, m: int = 10, grid_step: float = 0.01) -> DeviancePath:
    """Minimum-deviance estimate of the true-null proportion.

    ``density`` holds the floored comparison density at each p-value, as
    fitted on these same p-values (``CdfrModel.fitted.d``); it must be finite.
    ``grid_step`` lies in [1e-4, 2.5].  Ties at the
    minimum break toward the smallest lambda (most conservative null set);
    the scan is performed in ascending lambda order, so the result is
    deterministic bit for bit.
    """
    if not 1 <= int(m) <= M_MAX:
        raise DomainError(f"m must lie in [1, {M_MAX}], got {m}")
    if not _STEP_MIN <= grid_step <= _LAMBDA_MAX - _LAMBDA_MIN:
        raise DomainError(f"invalid grid step {grid_step!r}")
    u = np.asarray(pvalues, dtype=float).ravel()
    if u.size == 0:
        raise InsufficientDataError("no p-values supplied")
    dens = np.asarray(density, dtype=float).ravel()
    if dens.size != u.size:
        raise DomainError(f"density has {dens.size} values for {u.size} p-values")
    finite = np.isfinite(dens)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise DomainError(f"density must be finite, got {float(dens[bad])!r} at index {bad}")
    n = int(u.size)

    # Canonical (density, p-value) ordering makes the prefix sums, and hence
    # every deviance, invariant under permutation of the input.  Only runs of
    # tied densities need the p-value as a second key.
    order = np.argsort(dens)
    sorted_dens = dens[order]
    tied = np.flatnonzero(sorted_dens[1:] == sorted_dens[:-1])
    if tied.size:
        in_run = np.zeros(n, dtype=bool)
        in_run[tied] = in_run[tied + 1] = True
        runs = np.flatnonzero(in_run)
        members = order[runs]
        order[runs] = members[np.lexsort((u[members], dens[members]))]

    n_grid = int(round((_LAMBDA_MAX - _LAMBDA_MIN) / grid_step)) + 1
    lambdas = _LAMBDA_MIN + grid_step * np.arange(n_grid)
    counts = np.searchsorted(sorted_dens, lambdas, side="left")
    deviances = np.full(n_grid, np.nan)
    n_lambda = counts.astype(int)
    valid = counts > 0
    # Built before the empty-set check: the basis rejects p-values outside [0, 1].
    prefix = _prefix_rows(int(m), u, order, counts[valid] - 1)
    if not np.any(valid):
        raise EstimationError("every lambda grid point produced an empty null set")
    theta = prefix / counts[valid, None]
    deviances[valid] = np.sum(theta ** 2, axis=1)

    valid_dev = deviances[valid]
    flat = bool(np.max(valid_dev) - np.min(valid_dev) <= _FLAT_TOL)
    if flat:
        star_idx = int(np.flatnonzero(valid)[0])
    else:
        star_idx = int(np.nanargmin(deviances))
    lambda_star = float(lambdas[star_idx])
    pi0_hat = float(counts[star_idx]) / n

    lambdas.setflags(write=False)
    deviances.setflags(write=False)
    n_lambda.setflags(write=False)
    return DeviancePath(
        lambdas=lambdas,
        deviances=deviances,
        n_lambda=n_lambda,
        lambda_star=lambda_star,
        pi0_hat=pi0_hat,
        m=int(m),
        flat=flat,
    )


def _prefix_rows(m: int, u: np.ndarray, order: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Rows ``rows`` (ascending) of ``np.cumsum(basis_matrix(m, u[order]), axis=0)``.

    The basis is built one chunk at a time below a carry row that holds the
    sum so far, so a cumsum down the chunk adds in the same sequence as the
    cumsum over all N rows and every row is bit-identical to it.
    """
    n = order.size
    out = np.empty((rows.size, m))
    # Column-major, so the basis writes whole columns and the cumsum runs
    # down contiguous memory.
    buf = np.empty((m, min(n, _SCAN_CHUNK) + 1)).T
    buf[0] = -0.0  # -0.0 + x is x for every x, signed zeros included
    for start in range(0, n, _SCAN_CHUNK):
        stop = min(start + _SCAN_CHUNK, n)
        block = buf[: stop - start + 1]
        basis_matrix(m, u[order[start:stop]], out=block[1:])
        np.cumsum(block, axis=0, out=block)
        lo, hi = np.searchsorted(rows, (start, stop))
        out[lo:hi] = block[rows[lo:hi] - start + 1]
        buf[0] = block[-1]
    return out
