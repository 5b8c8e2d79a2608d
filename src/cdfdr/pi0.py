"""True-null proportion estimation by minimum deviance over density levels.

For each level lambda on a fine grid over [1, 3.5], the p-values whose
estimated comparison density sits below lambda form a candidate null set;
its deviance from uniformity is the sum of squared score coefficients of the
raw p-values in the set.  The level with minimum deviance defines pi0 as the
fraction of p-values it captures.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EstimationError, InsufficientDataError
from .legendre import _check_m, basis_matrix
from .special import _FLOAT_MAX, _within

__all__ = ["DeviancePath", "estimate_pi0"]

_FLAT_TOL = 1e-12

_LAMBDA_MIN, _LAMBDA_MAX = 1.0, 3.5  # the density levels the scan covers
# The finest grid step: 25,001 levels.  The scan's arrays grow with the number
# of levels, and a finer step than the data's density levels buys nothing.
_STEP_MIN = 1e-4

# Rows of the basis the scan builds at a time, so its memory does not grow
# with the number of p-values.
_SCAN_CHUNK = 32_768


def _check_grid_step(step, error: type[Exception] = DomainError) -> None:
    """``error`` unless ``step`` is a real number, not a bool, in [1e-4, 2.5]."""
    span = _LAMBDA_MAX - _LAMBDA_MIN
    if isinstance(step, bool) or not (isinstance(step, numbers.Real) and _STEP_MIN <= step <= span):
        raise error(f"grid_step must lie in [{_STEP_MIN}, {span}], got {step!r}")


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
    ``m`` is an integer in [1, M_MAX] and ``grid_step`` a real number (not a bool)
    in [1e-4, 2.5]; the levels are 1, 1 + step, ..., up to the last that is at
    most 3.5 (3.1 at step 0.7).  Ties at the minimum break toward the smallest lambda
    (most conservative null set); the scan is performed in ascending lambda
    order, so the result is deterministic bit for bit.
    """
    m = _check_m(m)
    _check_grid_step(grid_step)
    u = np.asarray(pvalues, dtype=float).ravel()
    if u.size == 0:
        raise InsufficientDataError("no p-values supplied")
    dens = np.asarray(density, dtype=float).ravel()
    if dens.size != u.size:
        raise DomainError(f"density has {dens.size} values for {u.size} p-values")
    if not _within(dens, -_FLOAT_MAX, _FLOAT_MAX):
        bad = int(np.argmin(np.isfinite(dens)))
        raise DomainError(f"density must be finite, got {float(dens[bad])!r} at index {bad}")
    # Every p-value, also of a case whose density sits above every level.
    if not _within(u):
        raise DomainError("evaluation points must lie in [0, 1]")
    n = int(u.size)

    order = _scan_order(dens, u)
    sorted_dens = dens[order]

    # The most levels whose top, 1 + (n - 1) step, is at most 3.5: a step that
    # divides 2.5 up to the rounding of the quotient ends there.
    n_grid = math.floor((_LAMBDA_MAX - _LAMBDA_MIN) / grid_step + 1e-9) + 1
    lambdas = _LAMBDA_MIN + grid_step * np.arange(n_grid)
    counts = np.searchsorted(sorted_dens, lambdas, side="left")
    del sorted_dens
    deviances = np.full(n_grid, np.nan)
    n_lambda = counts.astype(int)
    valid = counts > 0
    if not np.any(valid):
        raise EstimationError("every lambda grid point produced an empty null set")
    # The counts ascend with lambda; each distinct count ends one segment.
    sizes = counts[valid]
    ends = sizes[np.concatenate(([True], sizes[1:] != sizes[:-1]))]
    prefix = _prefix_sums(m, u, order, ends)[np.searchsorted(ends, sizes)]
    theta = prefix / sizes[:, None]
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
        m=m,
        flat=flat,
    )


def _scan_order(dens: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The cases in canonical (density, p-value) order, which makes the prefix
    sums, and hence every deviance, invariant under permutation of the input.

    One in-place sort of one int64 key per case: the density's bits, mapped
    so that they ascend with every finite density (-0.0 taken as +0.0, so
    that zeros tie), with the low ``bits`` bits holding the case index.  The
    key array then becomes the order.  Only runs of equal truncated keys
    (exact ties and densities that differ in those low bits alone) need the
    full density and the p-value as keys.
    """
    n = dens.size
    bits = max(1, (n - 1).bit_length())
    mask = (1 << bits) - 1
    keys = np.add(dens, 0.0).view(np.int64)
    keys ^= (keys >> 63) & 0x7FFF_FFFF_FFFF_FFFF
    keys &= ~mask
    keys |= np.arange(n)
    keys.sort()
    high = keys >> bits
    tied = np.flatnonzero(high[1:] == high[:-1])
    del high
    order = np.bitwise_and(keys, mask, out=keys)
    if tied.size:
        in_run = np.zeros(n, dtype=bool)
        in_run[tied] = in_run[tied + 1] = True
        runs = np.flatnonzero(in_run)
        members = order[runs]
        order[runs] = members[np.lexsort((u[members], dens[members]))]
    return order


def _prefix_sums(m: int, u: np.ndarray, order: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Sums of the basis over the rows ``[0, e)`` of ``basis_matrix(m, u[order])``,
    one row for each e of ``ends`` (distinct, ascending, positive).

    The basis is built one chunk of rows at a time, up to the last end only;
    ``np.add.reduceat`` sums each chunk's part of every segment between
    consecutive ends, and one cumulative sum over the segment sums gives the
    prefix sums, so no sum runs sequentially down the rows.
    """
    sums = np.zeros((ends.size, m))
    last = int(ends[-1])
    # Column-major, so the basis writes whole columns and each segment sum
    # runs down contiguous memory.
    buf = np.empty((m, min(last, _SCAN_CHUNK))).T
    for start in range(0, last, _SCAN_CHUNK):
        stop = min(start + _SCAN_CHUNK, last)
        block = basis_matrix(m, u[order[start:stop]], out=buf[: stop - start])
        # Segments ``lo`` to ``hi`` overlap the chunk (the last one ends at or
        # after its end), and the ends between them start its later pieces:
        # distinct starts, as ``reduceat`` needs.
        lo = int(np.searchsorted(ends, start, side="right"))
        hi = int(np.searchsorted(ends, stop, side="left"))
        starts = np.concatenate(([0], ends[lo:hi] - start))
        sums[lo:hi + 1] += np.add.reduceat(block, starts, axis=0)
    return np.cumsum(sums, axis=0)
