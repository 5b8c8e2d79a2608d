"""Shifted orthonormal Legendre polynomials on [0, 1].

The series basis is S_j(v) = sqrt(2j+1) * P_j(2v - 1) with P_j the classical
Legendre polynomial, evaluated by the three-term recurrence.  The S_j are
orthonormal on [0, 1], have zero mean for j >= 1, and satisfy
max |S_j| = sqrt(2j+1), attained at the endpoints.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

from .errors import DomainError
from .special import _within

__all__ = ["M_MAX", "basis_matrix"]

# Hard cap on the basis size; leaves headroom over the default series lengths
# without inviting overfitting.
M_MAX = 16


def _terms(m: int, v) -> Iterator[np.ndarray]:
    """S_1(v), ..., S_m(v) in turn, each of v's shape; m and v are checked here.

    One recurrence pass writes each term into one array, which the next step
    overwrites, and keeps P_{k-1} and P_k in two reused buffers, so memory
    does not grow with m.  Every operation is elementwise.
    """
    m = int(m)
    if not 1 <= m <= M_MAX:
        raise DomainError(f"basis size must lie in [1, {M_MAX}], got {m}")
    v = np.asarray(v, dtype=float)
    if not _within(v):
        raise DomainError("evaluation points must lie in [0, 1]")
    return _recurrence(m, 2.0 * v - 1.0)


def _recurrence(m: int, x: np.ndarray) -> Iterator[np.ndarray]:
    term, spare = np.empty_like(x), (np.empty_like(x), np.empty_like(x))
    p_prev, p_cur = 1.0, x
    for k in range(m):
        if k:
            # ((2k+1) x P_k - k P_{k-1}) / (k+1), one operation at a time in that
            # order; k P_{k-1} goes into ``term`` first, freeing its buffer.
            np.multiply(p_prev, k, out=term)
            p_next = np.multiply(x, 2 * k + 1, out=spare[k % 2])
            p_next *= p_cur
            p_next -= term
            p_next /= k + 1
            p_prev, p_cur = p_cur, p_next
        yield np.multiply(p_cur, math.sqrt(2.0 * k + 3.0), out=term)


def basis_matrix(m: int, v, out=None) -> np.ndarray:
    """Evaluate S_1..S_m at each point of ``v``; returns shape (len(v), m).

    The columns go into ``out`` when given: a float (len(v), m) array or view,
    such as a chunk of a caller's buffer.
    """
    v = np.atleast_1d(np.asarray(v, dtype=float))
    terms = _terms(m, v)  # checks m before it sizes ``out``
    out = np.empty((v.size, int(m))) if out is None else out
    for j, term in enumerate(terms):
        out[:, j] = term
    return out
