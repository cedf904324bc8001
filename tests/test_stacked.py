"""Stacked two-sided vectors: one code path for one vector and for many.

Every vector function of the duality layer takes a stack along leading
axes.  Row i of a stacked call must equal the single-vector call on row i.
Grid-length arrays go through the same arithmetic either way (FFTs,
elementwise products, re-indexing, the per-row matrix-vector products of
``evaluate_analytic`` and the per-row dots of ``np.vecdot``), so they must
agree bit for bit.  The mass-value blocks need not: numpy multiplies a
one-element complex array by another through a scalar path that rounds
differently from its array loop, so a single mass gives results one ulp
apart.  Those blocks, and the inner products and residuals they enter,
agree to 1e-15 relative to max(1, |value|).  The block-wise theorem check
is compared with the per-column reference of
``oracle.theorem_check_per_column`` on data drawn like the benchmark's
random pairs (sup|R| = 0.8, 0-3 masses) at 1024/16.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracle
from hardydual import (
    CircleGrid,
    MassSet,
    SpaceData,
    TauVector,
    apply_tau,
    canonical_vector,
    check_hat_membership,
    dual_of,
    embed_analytic_vector,
    evaluate_analytic,
    l2_inner,
    l2_norm,
    riesz_project_values,
    symbol_from_coefficients,
    theorem_check,
)
from hardydual.duality import _THEOREM_BLOCK, _blocks

GRID = CircleGrid(1024)
DEGREE = 16
MASS_TOL = 1e-15


@st.composite
def random_pairs(draw):
    """A trigonometric symbol scaled to sup|R| = 0.8 and 0-3 masses, as in
    the benchmark's ``random_pairs`` workload."""
    powers = draw(st.lists(st.integers(-4, 4), min_size=1, max_size=3, unique=True))
    parts = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
    coeffs = [complex(draw(parts), draw(parts)) for _ in powers]
    assume(any(abs(c) > 1e-3 for c in coeffs))
    raw = symbol_from_coefficients(GRID, dict(zip(powers, coeffs)))
    scale = 0.8 / raw.sup_modulus
    symbol = symbol_from_coefficients(GRID, {p: c * scale for p, c in zip(powers, coeffs)})

    count = draw(st.integers(0, 3))
    radii = [draw(st.floats(0.1, 0.7)) for _ in range(count)]
    angles = [draw(st.floats(0.0, 2 * np.pi)) for _ in range(count)]
    points = np.array([r * np.exp(1j * a) for r, a in zip(radii, angles)], dtype=complex)
    weights = np.array([draw(st.floats(0.5, 3.0)) for _ in range(count)])
    if count > 1:
        gaps = np.abs(points[:, None] - points[None, :]) + np.eye(count)
        assume(gaps.min() >= 0.1)
    return SpaceData(symbol, MassSet(points, weights))


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _row(vector, i):
    return TauVector(vector.f1[i], vector.f2[i], vector.mass_values[i])


def _assert_rows_equal(stacked, singles, tol=0.0):
    assert len(stacked) == len(singles)
    for row, single in zip(stacked, singles):
        if tol:
            assert np.all(np.abs(row - single) <= tol * np.maximum(1.0, np.abs(single)))
        else:
            assert np.array_equal(row, single)


def _assert_vectors_equal(stacked, singles):
    for name in ("f1", "f2"):
        _assert_rows_equal(getattr(stacked, name), [getattr(v, name) for v in singles])
    _assert_rows_equal(stacked.mass_values, [v.mass_values for v in singles], MASS_TOL)


@given(random_pairs(), st.integers(1, 4), st.integers(0, 2**32 - 1))
@settings(deadline=None, max_examples=25)
def test_stacked_rows_equal_single_calls(space, rows, seed):
    rng = np.random.default_rng(seed)
    symbol, masses = space.symbol, space.masses
    grid = symbol.grid
    dual = dual_of(space)
    samples = _complex(rng, (rows, grid.size))

    for method in (grid.check, grid.values, grid.coefficients, grid.conjugate_reindex):
        _assert_rows_equal(method(samples), [method(row) for row in samples])
    _assert_rows_equal(riesz_project_values(samples),
                       [riesz_project_values(row) for row in samples])
    points = 0.7 * np.exp(2j * np.pi * rng.uniform(size=3))
    _assert_rows_equal(evaluate_analytic(samples, points),
                       [evaluate_analytic(row, points) for row in samples])

    band = _complex(rng, (rows, 2 * DEGREE + 1))
    _assert_rows_equal(oracle.laurent_values(grid, band, DEGREE),
                       [oracle.laurent_values(grid, row, DEGREE) for row in band])
    values = _complex(rng, (rows, masses.count))
    vec = canonical_vector(symbol, samples, values)
    singles = [canonical_vector(symbol, f1, v) for f1, v in zip(samples, values)]
    _assert_vectors_equal(vec, singles)
    coeffs = _complex(rng, (rows, DEGREE + 1))
    _assert_vectors_equal(embed_analytic_vector(symbol, masses, coeffs),
                          [embed_analytic_vector(symbol, masses, c) for c in coeffs])

    image = apply_tau(vec, dual)
    images = [apply_tau(v, dual) for v in singles]
    _assert_vectors_equal(image, images)

    other = canonical_vector(symbol, samples[::-1], values[::-1])
    _assert_rows_equal(l2_inner(vec, other, symbol, masses),
                       [l2_inner(u, _row(other, i), symbol, masses)
                        for i, u in enumerate(singles)], MASS_TOL)
    _assert_rows_equal(l2_norm(vec, symbol, masses),
                       [l2_norm(u, symbol, masses) for u in singles], MASS_TOL)
    # the same image rows in both calls, so the residuals' own arithmetic is compared
    images = [_row(image, i) for i in range(rows)]
    report = check_hat_membership(image, dual.back)
    reports = [check_hat_membership(v, dual.back) for v in images]
    _assert_rows_equal(report.antianalytic_residual,
                       [r.antianalytic_residual for r in reports])
    _assert_rows_equal(report.mass_mismatch, [r.mass_mismatch for r in reports], MASS_TOL)


def test_single_vectors_give_python_scalars(mass_space):
    dual = dual_of(mass_space)
    symbol, masses = dual.symbol, dual.masses
    vec = embed_analytic_vector(symbol, masses, [1.0, 0.5])
    assert type(l2_inner(vec, vec, symbol, masses)) is complex
    assert type(l2_norm(vec, symbol, masses)) is float
    report = check_hat_membership(apply_tau(vec, dual), dual.back)
    assert type(report.antianalytic_residual) is float
    assert type(report.mass_mismatch) is float


@pytest.mark.parametrize("count", range(12))
def test_blocks_cover_every_row_once(count):
    rows = [i for block in _blocks(count) for i in range(count)[block]]
    assert rows == list(range(count))
    assert all(block.stop - block.start <= _THEOREM_BLOCK for block in _blocks(count))


@given(random_pairs())
@settings(deadline=None, max_examples=20)
def test_block_theorem_check_equals_per_column(space):
    dual = dual_of(space)
    report = theorem_check(space, dual, DEGREE)
    reference = oracle.theorem_check_per_column(space, dual, DEGREE)
    assert report.complement_dimension == reference.complement_dimension
    for name in ("forward_hardy_residual", "forward_mass_residual",
                 "converse_orthogonality"):
        assert abs(getattr(report, name) - getattr(reference, name)) <= 1e-14, name
