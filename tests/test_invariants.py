"""The paper's invariants on random data, against closed forms, and under
rotation of the corpus data.

For the zero symbol with masses nu_k at zeta_k, the metric on z^0..z^M is
I + V^H diag(nu) V with V_kp = zeta_k^p, and the Woodbury identity gives the
normalized kernel value of the shift alpha_n in closed form:

    K_n(0)^2 = 1 - 1^T (diag(1/(nu_k |zeta_k|^{2n})) + S)^{-1} 1,
    S_jk = sum_{p=0..M} (conj(zeta_j) zeta_k)^p.

Over the infinite monomial basis S_jk = 1/(1 - conj(zeta_j) zeta_k); the
truncated basis differs from it by up to max |zeta|^{2(M+1)}, about 2.7e-11
at |zeta| = 0.78, so the finite sum is the reference that leaves only
roundoff.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardydual import (
    CircleGrid,
    MassSet,
    SpaceData,
    asymptotic_sweep,
    build_gram_analytic,
    dual_of,
    duality_identity,
    kernel_at_origin,
    symbol_from_samples,
    zero_symbol,
)
from hardydual.corpus import CASES, mass_single_trace

GRID = CircleGrid(4096)
DEGREE = 48
N_MAX = 16
CLOSED_FORM_TOL = 2.5e-12


def woodbury_kernel_values(points, weights, n_max, terms):
    """K_n(0), n = 0..n_max, of the zero symbol with masses, on ``terms``
    monomials (None: the infinite basis)."""
    x = np.conj(points)[:, None] * points[None, :]
    s = (1.0 - (x ** terms if terms is not None else 0.0)) / (1.0 - x)
    ones = np.ones(points.size)
    values = []
    for n in range(n_max + 1):
        system = s + np.diag(1.0 / (weights * np.abs(points) ** (2 * n)))
        values.append(np.sqrt(1.0 - (ones @ np.linalg.solve(system, ones)).real))
    return np.array(values)


@st.composite
def mass_sets(draw):
    """1-4 masses with 0.01 <= |zeta| <= 0.78, at least 0.1 apart, weights
    in [0.1, 10]."""
    count = draw(st.integers(1, 4))
    points = []
    while len(points) < count:
        z = draw(st.floats(0.01, 0.78)) * np.exp(1j * draw(st.floats(0.0, 2 * np.pi)))
        if all(abs(z - q) >= 0.1 for q in points):
            points.append(z)
    weights = draw(st.lists(st.floats(0.1, 10.0), min_size=count, max_size=count))
    return MassSet(np.array(points), np.array(weights))


@given(mass_sets())
@settings(deadline=None, max_examples=40)
def test_zero_symbol_sweep_matches_woodbury_closed_form(masses):
    trace = asymptotic_sweep(SpaceData(zero_symbol(GRID), masses), N_MAX, DEGREE)
    expected = woodbury_kernel_values(masses.points, masses.weights, N_MAX, DEGREE + 1)
    assert np.abs(trace.values - expected).max() <= CLOSED_FORM_TOL


def test_woodbury_single_mass_is_the_rank_one_trace():
    # on the infinite basis one mass gives corpus.mass_single_trace
    values = woodbury_kernel_values(np.array([0.5]), np.array([3.0]), N_MAX, None)
    expected = [mass_single_trace(n) for n in range(N_MAX + 1)]
    assert np.abs(values - expected).max() < 1e-15


# --- rotation --------------------------------------------------------------------

ROTATION_TOL = 1e-14


def _rotated(space, k):
    """The data turned by k grid steps: R(t) -> R(t w^k), zeta -> zeta w^-k,
    w = e^{2 pi i/size}.  Every kernel value, T(0) and the identity are
    invariant, since rotation is unitary in every metric of the pair."""
    grid = space.grid
    symbol = symbol_from_samples(grid, np.roll(space.symbol.values, -k))
    turn = np.exp(-2j * np.pi * k / grid.size)
    return SpaceData(symbol, MassSet(space.masses.points * turn, space.masses.weights))


def _rotation_invariants(space):
    dual = dual_of(space)
    identity = duality_identity(space, dual, DEGREE)
    return (kernel_at_origin(build_gram_analytic(space, DEGREE)).norm,
            asymptotic_sweep(space, N_MAX, DEGREE).values,
            dual.T_at_zero, identity.product)


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
def test_rotation_leaves_the_invariants_unchanged(case):
    space = case.space(GRID.size)
    k0, sweep, t0, product = _rotation_invariants(space)
    for k in (1, 37, 1024):
        k0_rot, sweep_rot, t0_rot, product_rot = _rotation_invariants(_rotated(space, k))
        assert abs(k0_rot - k0) <= ROTATION_TOL, k
        assert np.abs(sweep_rot - sweep).max() <= ROTATION_TOL, k
        assert abs(t0_rot - t0) <= ROTATION_TOL * t0, k
        assert abs(product_rot - product) <= ROTATION_TOL, k
