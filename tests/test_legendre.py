"""Shifted Legendre basis: orthonormality, endpoint values, consistency."""

import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from cdfdr.errors import DomainError
from cdfdr.legendre import M_MAX, basis_matrix


def _gl_nodes_unit(order=64):
    nodes, weights = leggauss(order)
    return 0.5 * (nodes + 1.0), 0.5 * weights


class TestPointValues:
    def test_odd_about_midpoint(self):
        assert basis_matrix(1, 0.5)[0, 0] == 0.0
        assert basis_matrix(3, 0.5)[0, 2] == 0.0

    def test_gram_schmidt_endpoint(self):
        # Orthonormalizing {1, v} on [0,1] gives sqrt(12)(v - 1/2), which is
        # sqrt(3) at v = 1.
        assert basis_matrix(1, 1.0)[0, 0] == pytest.approx(math.sqrt(3.0), rel=1e-14)

    def test_endpoint_alternation(self):
        # S_j(0) = (-1)^j sqrt(2j+1), S_j(1) = sqrt(2j+1)
        row = basis_matrix(3, 0.0)[0]
        expected = [-math.sqrt(3.0), math.sqrt(5.0), -math.sqrt(7.0)]
        assert row == pytest.approx(expected, rel=1e-14)
        at_one = basis_matrix(M_MAX, 1.0)[0]
        for j in range(1, M_MAX + 1):
            assert at_one[j - 1] == pytest.approx(math.sqrt(2 * j + 1), rel=1e-12)

    def test_single_element_row(self):
        assert basis_matrix(1, 0.5).tolist() == [[0.0]]


class TestConsistency:
    def test_row_matches_scalar(self):
        # A one-point call equals its row of a batch call, and column j does
        # not depend on how many columns were requested.
        rng = np.random.Generator(np.random.Philox(11))
        v = rng.random(100)
        batch = basis_matrix(6, v)
        for i, vi in enumerate(v):
            row = basis_matrix(6, vi)[0]
            assert np.array_equal(row, batch[i])
            for j in range(1, 7):
                assert basis_matrix(j, vi)[0, j - 1] == row[j - 1]

    def test_matrix_matches_rows(self):
        v = np.linspace(0.0, 1.0, 17)
        mat = basis_matrix(10, v)
        for i, vi in enumerate(v):
            assert np.array_equal(mat[i], basis_matrix(10, vi)[0])


class TestFill:
    def test_matches_column_stack_recurrence(self):
        # The in-place fill performs the recurrence's operations in the same
        # order as building each column and stacking them.
        rng = np.random.Generator(np.random.Philox(13))
        v = np.concatenate([[0.0, 0.5, 1.0], rng.random(997)])
        x = 2.0 * v - 1.0
        p_prev, p_cur, cols = np.ones_like(x), x.copy(), [x.copy()]
        for k in range(1, M_MAX):
            p_next = ((2 * k + 1) * x * p_cur - k * p_prev) / (k + 1)
            cols.append(p_next)
            p_prev, p_cur = p_cur, p_next
        for m in range(1, M_MAX + 1):
            expected = np.column_stack(cols[:m]) * np.sqrt(2.0 * np.arange(1, m + 1) + 1.0)
            assert np.array_equal(basis_matrix(m, v).view(np.uint64), expected.view(np.uint64))

    def test_fills_out_view(self):
        v = np.linspace(0.0, 1.0, 33)
        buf = np.full((v.size + 1, 6), 7.0)
        result = basis_matrix(6, v, out=buf[1:])
        assert np.shares_memory(result, buf)
        assert np.all(buf[0] == 7.0)
        assert np.array_equal(buf[1:], basis_matrix(6, v))


class TestOrthonormality:
    def test_gram_identity(self):
        # 64-point Gauss-Legendre is exact for polynomial degree <= 127,
        # covering all products S_j S_k with j, k <= 10.
        nodes, weights = _gl_nodes_unit()
        mat = basis_matrix(10, nodes)
        gram = (mat * weights[:, None]).T @ mat
        assert np.max(np.abs(gram - np.eye(10))) < 1e-10

    def test_zero_mean(self):
        nodes, weights = _gl_nodes_unit()
        mat = basis_matrix(M_MAX, nodes)
        means = weights @ mat
        assert np.max(np.abs(means)) < 1e-12

    def test_sup_norm_at_endpoints(self):
        v = np.linspace(0.0, 1.0, 20_001)
        mat = basis_matrix(10, v)
        for j in range(1, 11):
            bound = math.sqrt(2 * j + 1)
            col = np.abs(mat[:, j - 1])
            assert np.max(col) == pytest.approx(bound, rel=1e-12)
            assert np.argmax(col) in (0, v.size - 1)
            assert np.all(col <= bound + 1e-12)


class TestValidation:
    def test_index_bounds(self):
        for m in (0, -1, M_MAX + 1):
            with pytest.raises(DomainError):
                basis_matrix(m, 0.5)
            with pytest.raises(DomainError):
                basis_matrix(m, np.array([0.5]))

    def test_point_bounds(self):
        with pytest.raises(DomainError):
            basis_matrix(1, -0.01)
        with pytest.raises(DomainError):
            basis_matrix(3, np.array([0.2, 1.01]))
        with pytest.raises(DomainError):
            basis_matrix(3, math.nan)
