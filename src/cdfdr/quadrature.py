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

__all__ = ["gauss_legendre", "integrate_unit"]


@lru_cache(maxsize=16)
def gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the order-point Gauss-Legendre rule on [-1, 1]."""
    nodes, weights = np.polynomial.legendre.leggauss(int(order))
    return nodes, weights


_ORDER = 32  # Gauss-Legendre points per panel
_DEPTH = 256  # dyadic panels toward each endpoint; the innermost is (0, 2**-256]


@lru_cache(maxsize=2)
def _half_panel_points(depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature points and weights covering (0, 1/2] with dyadic grading."""
    breaks = np.array([0.0] + [2.0 ** -k for k in range(depth, 0, -1)])
    nodes, weights = gauss_legendre(_ORDER)
    mids = 0.5 * (breaks[:-1] + breaks[1:])
    halves = 0.5 * (breaks[1:] - breaks[:-1])
    points = (mids[:, None] + halves[:, None] * nodes[None, :]).ravel()
    scaled = (halves[:, None] * weights[None, :]).ravel()
    return points, scaled


def integrate_unit(f: Callable[[np.ndarray], np.ndarray],
                   f_reflected: Callable[[np.ndarray], np.ndarray] | None = None) -> float:
    """Integrate f over (0, 1) with full grading toward both endpoints.

    ``f_reflected(w)`` must equal f(1 - w) for w in (0, 1/2], computed
    without forming 1 - w (that difference is exact only down to 2**-53);
    when omitted, it is synthesized as ``f(1 - w)`` with the right-hand
    grading capped at the representable depth 53, which is adequate only for
    integrands without a strong right-endpoint singularity.

    Evaluation is batched: each callable receives one array of all nodes.
    """
    points, weights = _half_panel_points(_DEPTH)
    total = float(np.sum(weights * np.asarray(f(points), dtype=float)))
    if f_reflected is None:
        # Only nodes with w >= 2**-53 keep 1 - w strictly below 1.0, so the
        # innermost panel is dropped; its mass (~(2**-53)**p for a (1-u)**-q
        # integrand, p = 1 - q) is the documented resolution limit here.
        r_points, r_weights = _half_panel_points(53)
        r_points, r_weights = r_points[_ORDER:], r_weights[_ORDER:]
        total += float(np.sum(
            r_weights * np.asarray(f(1.0 - r_points), dtype=float)
        ))
    else:
        total += float(np.sum(
            weights * np.asarray(f_reflected(points), dtype=float)
        ))
    return total
