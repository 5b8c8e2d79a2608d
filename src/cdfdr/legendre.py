"""Shifted orthonormal Legendre polynomials on [0, 1].

The series basis is S_j(v) = sqrt(2j+1) * P_j(2v - 1) with P_j the classical
Legendre polynomial, evaluated by the three-term recurrence.  The S_j are
orthonormal on [0, 1], have zero mean for j >= 1, and satisfy
max |S_j| = sqrt(2j+1), attained at the endpoints.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

__all__ = ["M_MAX", "basis_matrix"]

# Hard cap on the basis size; leaves headroom over the default series lengths
# without inviting overfitting.
M_MAX = 16


def _check_order(m: int) -> int:
    m = int(m)
    if not 1 <= m <= M_MAX:
        raise DomainError(f"basis size must lie in [1, {M_MAX}], got {m}")
    return m


def basis_matrix(m: int, v) -> np.ndarray:
    """Evaluate S_1..S_m at each point of ``v``; returns shape (len(v), m).

    One recurrence pass in x = 2v - 1 produces the classical P_j, scaled by
    sqrt(2j+1) at the end.
    """
    m = _check_order(m)
    v = np.asarray(v, dtype=float)
    if v.ndim == 0:
        v = v.reshape(1)
    if np.any(~np.isfinite(v)) or np.any(v < 0.0) or np.any(v > 1.0):
        raise DomainError("evaluation points must lie in [0, 1]")
    x = 2.0 * v - 1.0
    p_prev = np.ones_like(x)
    p_cur = x.copy()
    cols = [p_cur]
    for k in range(1, m):
        p_next = ((2 * k + 1) * x * p_cur - k * p_prev) / (k + 1)
        cols.append(p_next)
        p_prev, p_cur = p_cur, p_next
    basis = np.column_stack(cols)
    # Scaled in place: a second n-by-m array would set the pi0 scan's peak memory.
    basis *= np.sqrt(2.0 * np.arange(1, m + 1) + 1.0)
    return basis

