"""Integrator accuracy, including endpoint-singular integrands."""

import math

import numpy as np
import pytest

from cdfdr.quadrature import gauss_legendre, integrate_unit
from cdfdr.special import log_beta


class TestGaussLegendre:
    def test_polynomial_exactness(self):
        # An n-point rule is exact through degree 2n - 1.
        nodes, weights = gauss_legendre(8)
        for k in range(0, 16):
            exact = 0.0 if k % 2 else 2.0 / (k + 1)
            assert np.sum(weights * nodes ** k) == pytest.approx(exact, abs=1e-14)

    def test_weights_sum_to_interval_length(self):
        for order in (4, 32, 64):
            _, weights = gauss_legendre(order)
            assert np.sum(weights) == pytest.approx(2.0, rel=1e-14)


class TestIntegrateUnit:
    def test_constant(self):
        assert integrate_unit(lambda u: np.ones_like(u)) == pytest.approx(1.0, rel=1e-14)

    def test_polynomial(self):
        assert integrate_unit(lambda u: 3.0 * u ** 2) == pytest.approx(1.0, rel=1e-13)

    def test_left_singularity(self):
        # int u^(-0.7) du = 1/0.3, singular only at 0 so no reflection needed.
        assert integrate_unit(lambda u: u ** -0.7) == pytest.approx(1.0 / 0.3, rel=1e-12)

    def test_double_singularity_with_reflection(self):
        # int u^(-0.7) (1-u)^(-0.5) du = B(0.3, 0.5); the reflected integrand
        # swaps the exponents so the right endpoint is resolved exactly.
        exact = math.exp(log_beta(0.3, 0.5))
        got = integrate_unit(
            lambda u: u ** -0.7 * (1.0 - u) ** -0.5,
            lambda w: w ** -0.5 * (1.0 - w) ** -0.7,
        )
        assert got == pytest.approx(exact, rel=1e-12)

    def test_right_singularity_without_reflection_is_cruder(self):
        # The fallback path (forming 1 - w directly) cannot grade past
        # 2**-53; for beta(1, 0.3) the unresolved right-endpoint mass is
        # ~1.6e-5, which the reflected form resolves fully.
        exact = math.exp(log_beta(1.0, 0.3))
        crude = integrate_unit(lambda u: (1.0 - u) ** -0.7)
        sharp = integrate_unit(lambda u: (1.0 - u) ** -0.7, lambda w: w ** -0.7)
        assert sharp == pytest.approx(exact, rel=1e-12)
        assert abs(crude - exact) > abs(sharp - exact)
        assert crude == pytest.approx(exact, abs=1e-4)

    def test_nodes_strictly_interior(self):
        seen = {}

        def probe(u):
            seen["min"] = float(np.min(u))
            seen["max"] = float(np.max(u))
            return np.ones_like(u)

        integrate_unit(probe, probe)
        assert 0.0 < seen["min"] and seen["max"] < 1.0
