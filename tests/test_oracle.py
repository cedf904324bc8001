import numpy as np
import pytest

from hardydual import GridMismatch
from oracle import (
    NotHermitian,
    constrained_minimum,
    dense_psd_check,
    fd_derivative,
    gram_entry_quadrature,
    quad_inner,
)


def _nodes(n):
    return np.exp(2j * np.pi * np.arange(n) / n)


def test_quad_inner_constants():
    ones = np.ones(128, dtype=complex)
    assert quad_inner(ones, ones) == pytest.approx(1.0)


def test_quad_inner_character_orthogonality():
    t = _nodes(128)
    assert abs(quad_inner(t, t ** 2)) < 1e-14
    assert quad_inner(t ** 3, t ** 3) == pytest.approx(1.0)


def test_quad_inner_weighted():
    t = _nodes(64)
    weight = 2.0 + np.real(t)
    value = quad_inner(np.ones(64), np.ones(64), weight)
    assert abs(value - 2.0) < 1e-14  # mean of 2 + cos


def test_quad_inner_matrix_weight():
    t = _nodes(64)
    r = 0.5 * np.conj(t)
    weight = np.empty((2, 2, 64), dtype=complex)
    weight[0, 0] = 1.0
    weight[0, 1] = np.conj(r)
    weight[1, 0] = r
    weight[1, 1] = 1.0
    f = np.stack([np.ones(64, dtype=complex), np.zeros(64, dtype=complex)])
    assert quad_inner(f, f, weight) == pytest.approx(1.0)


def test_quad_inner_mismatch():
    with pytest.raises(GridMismatch):
        quad_inner(np.ones(8), np.ones(16))


def test_gram_entry_two_routes_agree():
    t = _nodes(1024)
    values = 0.6 * np.conj(t)
    entry = gram_entry_quadrature(values, t, [], [], 0, 0, 64)
    assert abs(entry - 0.64) < 1e-12
    off = gram_entry_quadrature(values, t, [], [], 2, 1, 64)
    assert abs(off) < 1e-12


def test_fd_derivative_blaschke_factor():
    b = lambda z: (0.5 - z) / (1 - 0.5 * z)
    assert abs(fd_derivative(b, 0.5) - (-4.0 / 3.0)) < 1e-8


def test_fd_derivative_polynomial():
    assert abs(fd_derivative(lambda z: z ** 2, 1 / 3) - 2.0 / 3.0) < 1e-10
    assert abs(fd_derivative(lambda z: 5.0 + 0j, 0.2)) < 1e-12


def test_dense_psd_check():
    assert dense_psd_check(np.eye(3)) == pytest.approx(1.0)
    assert dense_psd_check(np.diag([0.64, 1.0])) == pytest.approx(0.64)
    with pytest.raises(NotHermitian):
        dense_psd_check(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_constrained_minimum_matches_inverse_entry():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    gram = a @ a.conj().T + 6 * np.eye(6)
    assert abs(constrained_minimum(gram)
               - 1.0 / np.linalg.inv(gram)[0, 0].real) < 1e-12
