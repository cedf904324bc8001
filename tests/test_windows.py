"""One Gram per data pair: shifts are windows, regularizations recombine Gamma.

Each property compares the one-Gram route against a route that builds the
same matrix directly, on random trigonometric-polynomial symbols with
sup|R| <= 0.8 and 0-3 masses with |zeta| <= 0.7, at grid/degree 1024/16.
Each Gram takes its own Hankel truncation J = grid/2 minus its top exponent,
so the two routes truncate differently; the negative coefficients of a
symbol with |p| <= 4 all lie inside every such J, so the difference is
immaterial.  Matrices agree to 1e-14 relative to the largest Gram entry
involved (at least 1): a mass near the origin makes negative-shift entries
of order nu/|zeta|^2, where 1e-14 is below one ulp.
The grouped asymptotic sweep is compared with one solve per window, to
1e-14 relative, on the same data and on one symbol with sup|R| = 0.999.
The orthonormal system's kernel vectors, all read from one solve of their
covering Gram, are compared with one solve per window on the corpus, to
1e-13 relative.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hardydual import (
    CircleGrid,
    MassSet,
    SpaceData,
    asymptotic_sweep,
    build_gram_analytic,
    build_gram_laurent,
    dual_of,
    duality_identity,
    effective_data,
    kernel_at_origin,
    orthonormal_system,
    regularized,
    sandwich_check,
    shifted,
    symbol_from_coefficients,
    symbol_from_expression,
)
from hardydual.corpus import CASES
from hardydual.kernels import _covering_kernels
from hardydual.spaces import analytic_hankel, assemble_gram, hankel_block

GRID = CircleGrid(1024)
DEGREE = 16
TOL = 1e-14


@st.composite
def data_pairs(draw):
    powers = draw(st.lists(st.integers(-4, 4), min_size=1, max_size=3, unique=True))
    parts = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
    coeffs = [complex(draw(parts), draw(parts)) for _ in powers]
    assume(any(abs(c) > 1e-3 for c in coeffs))
    raw = symbol_from_coefficients(GRID, dict(zip(powers, coeffs)))
    scale = draw(st.floats(0.05, 0.8)) / raw.sup_modulus
    symbol = symbol_from_coefficients(GRID, {p: c * scale for p, c in zip(powers, coeffs)})

    count = draw(st.integers(0, 3))
    radii = [draw(st.floats(0.1, 0.7)) for _ in range(count)]
    angles = [draw(st.floats(0.0, 2 * np.pi)) for _ in range(count)]
    points = np.array([r * np.exp(1j * a) for r, a in zip(radii, angles)], dtype=complex)
    weights = np.array([draw(st.floats(0.5, 3.0)) for _ in range(count)])
    if count > 1:
        gaps = np.abs(points[:, None] - points[None, :]) + np.eye(count)
        assume(gaps.min() > 0.05)
    return SpaceData(symbol, MassSet(points, weights))


regularizations = st.tuples(st.floats(0.1, 0.95), st.integers(0, 3))


def _assert_close(a, b, gram_entries):
    scale = max(1.0, float(np.abs(gram_entries).max()))
    assert np.abs(a - b).max() <= TOL * scale


def _data_side_gram(space, degree):
    """The metric with shift, rho and cutoff applied to the data, not the exponents."""
    symbol, masses = effective_data(space)
    exponents = np.arange(degree + 1)
    gamma = hankel_block(symbol, exponents, GRID.size // 2 - degree)
    v = masses.points[:, None] ** exponents[None, :]
    return np.eye(degree + 1) - gamma + v.conj().T @ (masses.weights[:, None] * v)


def _variants(space, rho, cutoff):
    cutoff = min(cutoff, space.masses.count)
    return (regularized(space, mass_cutoff=cutoff), regularized(space, rho=rho),
            regularized(space, rho=rho, mass_cutoff=cutoff))


@given(data_pairs())
@settings(deadline=None, max_examples=30)
def test_shift_windows_equal_direct_builds(space):
    gram = build_gram_analytic(shifted(space, -1), DEGREE + 5)
    for n in range(-1, 5):
        rows = slice(n + 1, n + DEGREE + 2)
        window = gram[rows, rows]
        direct = build_gram_analytic(shifted(space, n), DEGREE)
        _assert_close(window, direct, gram)
        data_side = _data_side_gram(shifted(space, n), DEGREE)
        _assert_close(window, data_side, gram)


@given(data_pairs(), regularizations, st.integers(0, 3))
@settings(deadline=None, max_examples=30)
def test_regularizations_recombine_one_hankel_gram(space, regularization, n):
    base = shifted(space, n)
    gram = build_gram_analytic(base, DEGREE)
    gamma = analytic_hankel(base, DEGREE)
    for variant in _variants(base, *regularization):
        combined = assemble_gram(variant, gamma)
        direct = build_gram_analytic(variant, DEGREE)
        _assert_close(combined, direct, gram)
        _assert_close(combined, _data_side_gram(variant, DEGREE), gram)


@given(data_pairs())
@settings(deadline=None, max_examples=30)
def test_negative_shift_system_matches_laurent_route(space):
    shifts = range(-2, 3)
    system = orthonormal_system(space, shifts, DEGREE)
    assert system.shifts[0] < 0

    # kernels embedded in Laurent + mass coordinates, measured by the two-sided Gram
    half_band = DEGREE + 2
    laurent = build_gram_laurent(space, half_band)
    points = space.masses.points
    columns = np.zeros((laurent.shape[0], len(shifts)), dtype=complex)
    grams = [build_gram_analytic(shifted(space, n), DEGREE) for n in shifts]
    for i, (n, gram) in enumerate(zip(shifts, grams)):
        coeffs = kernel_at_origin(gram).normalized()
        columns[half_band + n: half_band + n + DEGREE + 1, i] = coeffs
        columns[2 * half_band + 1:, i] = points ** n * np.polynomial.polynomial.polyval(
            points, coeffs)
    expected = columns.conj().T @ laurent @ columns
    _assert_close(system.gram, expected, grams[0])  # shift -2: the largest entries


@given(data_pairs(), regularizations)
@settings(deadline=None, max_examples=20)
def test_sandwich_residuals_equal_duality_identity(space, regularization):
    rho, cutoff = regularization
    report = sandwich_check(space, cutoff, rho, 0, DEGREE)
    for label, variant in zip(("cutoff", "scaled", "both"), _variants(space, rho, cutoff)):
        up = shifted(variant, 1)
        expected = duality_identity(up, dual_of(up), DEGREE).residual
        assert abs(report.identity_residuals[label] - expected) <= TOL


def _assert_sweep_matches_windows(space, n_max):
    trace = asymptotic_sweep(space, n_max, DEGREE)
    gram = build_gram_analytic(space, DEGREE + n_max)
    size = DEGREE + 1
    expected = np.array([kernel_at_origin(gram[n:n + size, n:n + size]).norm
                         for n in range(n_max + 1)])
    assert np.all(np.abs(trace.values - expected) <= TOL * expected)


@given(data_pairs(), st.integers(1, 3 * (DEGREE + 1)))
@settings(deadline=None, max_examples=30)
def test_grouped_sweep_equals_window_solves(space, n_max):
    # groups hold (DEGREE + 1) // 4 = 4 shifts, so up to 13 groups run
    _assert_sweep_matches_windows(space, n_max)


def test_grouped_sweep_near_unit_symbol():
    symbol = symbol_from_expression(GRID, "0.999*conj(t)*0.3/(1-0.7*conj(t))")
    assert abs(symbol.sup_modulus - 0.999) < 1e-6
    space = SpaceData(symbol, MassSet(np.array([0.9j, -0.5]), np.array([1.0, 2.0])))
    _assert_sweep_matches_windows(space, 3 * (DEGREE + 1))


# (grid, degree, shifts); the last four have more windows than the window size
COVERING = [(4096, 48, range(5)), (16384, 256, range(5)), (4096, 32, range(-3, 6)),
            (4096, 48, (0, 3)), (1024, 0, range(5)), (1024, 0, range(9)),
            (1024, 2, range(5)), (1024, 2, range(9))]


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
def test_covering_kernels_equal_window_solves(case):
    for grid, degree, shifts in COVERING:
        space = case.space(grid)
        starts = np.asarray(shifts) - shifts[0]
        gram = build_gram_analytic(shifted(space, shifts[0]), degree + starts[-1])
        kernels = _covering_kernels(gram, starts, degree + 1)
        e_0 = np.eye(degree + 1, 1, dtype=complex)[:, 0]
        for n, kernel in zip(starts, kernels):
            window = gram[n:n + degree + 1, n:n + degree + 1]
            expected = np.linalg.solve(window, e_0)
            assert np.abs(kernel - expected).max() <= 1e-13 * np.abs(expected).max()
