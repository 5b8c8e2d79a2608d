"""Integrator accuracy, including endpoint-singular integrands."""

import math

import numpy as np
import pytest

from cdfdr.quadrature import integrate_unit
from cdfdr.special import log_beta


class TestIntegrateUnit:
    def test_constant(self):
        assert integrate_unit(lambda u: np.ones_like(u), lambda w: np.ones_like(w)) \
            == pytest.approx(1.0, rel=1e-14)

    def test_polynomial(self):
        assert integrate_unit(lambda u: 3.0 * u ** 2, lambda w: 3.0 * (1.0 - w) ** 2) \
            == pytest.approx(1.0, rel=1e-13)

    def test_left_singularity(self):
        # int u^(-0.7) du = 1/0.3, singular only at 0.
        assert integrate_unit(lambda u: u ** -0.7, lambda w: (1.0 - w) ** -0.7) \
            == pytest.approx(1.0 / 0.3, rel=1e-12)

    def test_double_singularity_with_reflection(self):
        # int u^(-0.7) (1-u)^(-0.5) du = B(0.3, 0.5); the reflected integrand
        # swaps the exponents so the right endpoint is resolved exactly.
        exact = math.exp(log_beta(0.3, 0.5))
        got = integrate_unit(
            lambda u: u ** -0.7 * (1.0 - u) ** -0.5,
            lambda w: w ** -0.5 * (1.0 - w) ** -0.7,
        )
        assert got == pytest.approx(exact, rel=1e-12)

    def test_nodes_strictly_interior(self):
        seen = {}

        def probe(u):
            seen["min"] = float(np.min(u))
            seen["max"] = float(np.max(u))
            return np.ones_like(u)

        integrate_unit(probe, probe)
        assert 0.0 < seen["min"] and seen["max"] < 1.0
