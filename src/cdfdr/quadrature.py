"""Gauss-Legendre quadrature on (0, 1) with endpoint-singularity grading.

Densities appearing in this package can carry integrable power singularities
at 0 and 1 (beta shapes below one).  ``integrate_unit`` splits (0, 1/2] into
dyadic panels shrinking geometrically toward 0 and integrates the right half
through the reflection w = 1 - u, so both endpoints get the full grading
depth; near 1 a direct grid would collapse onto 1.0 in double precision at
spacing 2**-53.  With panels down to 2**-256 the unresolved endpoint mass of
u**(a-1) is negligible for any a >= 0.1, far below the tolerances used here.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np

__all__ = ["integrate_unit"]

_ORDER = 32  # Gauss-Legendre points per panel
_DEPTH = 256  # dyadic panels toward each endpoint; the innermost is (0, 2**-256]


@lru_cache(maxsize=1)
def _half_panel_points() -> tuple[np.ndarray, np.ndarray]:
    """Quadrature points and weights covering (0, 1/2] with dyadic grading."""
    breaks = np.array([0.0] + [2.0 ** -k for k in range(_DEPTH, 0, -1)])
    nodes, weights = np.polynomial.legendre.leggauss(_ORDER)
    mids = 0.5 * (breaks[:-1] + breaks[1:])
    halves = 0.5 * (breaks[1:] - breaks[:-1])
    points = (mids[:, None] + halves[:, None] * nodes[None, :]).ravel()
    scaled = (halves[:, None] * weights[None, :]).ravel()
    return points, scaled


def integrate_unit(f: Callable[[np.ndarray], np.ndarray],
                   f_reflected: Callable[[np.ndarray], np.ndarray]) -> float:
    """Integrate f over (0, 1) with full grading toward both endpoints.

    ``f_reflected(w)`` must equal f(1 - w) for w in (0, 1/2], computed
    without forming 1 - w (that difference is exact only down to 2**-53).

    Evaluation is batched: each callable receives one array of all nodes.
    """
    points, weights = _half_panel_points()
    total = float(np.sum(weights * np.asarray(f(points), dtype=float)))
    return total + float(np.sum(weights * np.asarray(f_reflected(points), dtype=float)))
