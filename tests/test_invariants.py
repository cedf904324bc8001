"""The paper's invariants on random data, against closed forms, and under
rotation of the corpus data and of random data.

Random data pairs are drawn as the benchmark's ``random_pairs`` workload
draws them, on a 1024 grid, and each must pass the library's own gates: the dual of the dual
is the pair, the duality identity holds, tau is a unitary involution, the
complement-mapping theorem holds, and the regularization sandwich keeps its
order; pairs with the zero symbol keep its lower chain too.

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

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardydual import (
    PRINTED,
    UNITARY,
    CircleGrid,
    MassSet,
    SpaceData,
    TauVector,
    apply_tau,
    asymptotic_sweep,
    build_gram_analytic,
    dual_of,
    duality_identity,
    effective_data,
    kernel_at_origin,
    l2_norm,
    sandwich_check,
    shifted,
    symbol_from_coefficients,
    symbol_from_samples,
    theorem_check,
    zero_symbol,
)
from hardydual.cli import _DEFAULT_GATES, _random_vector
from hardydual.corpus import CASES, mass_single_trace
from hardydual.tolerances import TOL_ORDER

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


@given(mass_sets(), st.sampled_from([N_MAX, 40]))
@settings(deadline=None, max_examples=40)
def test_zero_symbol_sweep_matches_woodbury_closed_form(masses, n_max):
    # the sweep reads its windows in runs of (DEGREE + 1) // 4 = 12 shifts:
    # n_max 16 takes two runs, n_max 40 four
    trace = asymptotic_sweep(SpaceData(zero_symbol(GRID), masses), n_max, DEGREE)
    expected = woodbury_kernel_values(masses.points, masses.weights, n_max, DEGREE + 1)
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


def _assert_rotation_invariant(space, turns):
    k0, sweep, t0, product = _rotation_invariants(space)
    for k in turns:
        k0_rot, sweep_rot, t0_rot, product_rot = _rotation_invariants(_rotated(space, k))
        assert abs(k0_rot - k0) <= ROTATION_TOL, k
        assert np.abs(sweep_rot - sweep).max() <= ROTATION_TOL, k
        assert abs(t0_rot - t0) <= ROTATION_TOL * t0, k
        assert abs(product_rot - product) <= ROTATION_TOL, k


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
def test_rotation_leaves_the_invariants_unchanged(case):
    _assert_rotation_invariant(case.space(GRID.size), (1, 37, 1024))


# --- random data pairs -------------------------------------------------------------

PAIR_GRID = CircleGrid(1024)
# at degree 24 the basis is too short for a sup|R| = 0.8 term at |p| = 4: the
# identity residual of R = 0.4 (t^4 + t^-4) with masses 1 at 0.25 and 0.5 is
# 3.9e-6, 2.4e-7, 9.6e-10 and 3.7e-12 at degrees 24, 32, 48 and 64
PAIR_DEGREE = 48
TAU_VECTORS = 3


@st.composite
def random_pairs(draw, zero=False):
    """1-3 symbol coefficients at |p| <= 4, scaled to sup|R| = 0.8 (the zero
    symbol with ``zero``), and 0-3 masses with 0.1 <= |zeta| <= 0.7, at
    least 0.1 apart, weights in [0.5, 3]."""
    if zero:
        symbol = zero_symbol(PAIR_GRID)
    else:
        powers = draw(st.lists(st.integers(-4, 4), min_size=1, max_size=3, unique=True))
        coeffs = np.array([draw(st.floats(0.1, 1.0))
                           * np.exp(1j * draw(st.floats(0.0, 2 * np.pi))) for _ in powers])
        scale = 0.8 / symbol_from_coefficients(PAIR_GRID, dict(zip(powers, coeffs))).sup_modulus
        symbol = symbol_from_coefficients(PAIR_GRID, dict(zip(powers, coeffs * scale)))
    count = draw(st.integers(0, 3))
    points = []
    while len(points) < count:
        z = draw(st.floats(0.1, 0.7)) * np.exp(1j * draw(st.floats(0.0, 2 * np.pi)))
        if all(abs(z - q) >= 0.1 for q in points):
            points.append(z)
    weights = draw(st.lists(st.floats(0.5, 3.0), min_size=count, max_size=count))
    return SpaceData(symbol, MassSet(np.array(points, dtype=complex), np.array(weights)))


@given(random_pairs(), st.integers(1, PAIR_GRID.size - 1))
@settings(deadline=None, max_examples=30)
def test_random_pair_rotation_leaves_the_invariants_unchanged(space, k):
    _assert_rotation_invariant(space, (k,))


@given(random_pairs())
@settings(deadline=None, max_examples=100)
def test_random_pair_dual_of_the_dual_is_the_pair(space):
    # the tolerances of test_duality.test_dual_is_involution_on_data
    sym, masses = effective_data(space)
    for convention in (UNITARY, PRINTED):
        back = dual_of(dual_of(space, convention).dual_space(), convention)
        assert np.abs(back.dual_symbol.values - sym.values).max() < 1e-13, convention
        assert np.array_equal(back.dual_masses.points, masses.points), convention
        assert np.all(np.abs(back.dual_masses.weights - masses.weights)
                      <= 1e-14 * masses.weights), convention


@given(random_pairs(), st.integers(0, 2 ** 32 - 1))
@settings(deadline=None, max_examples=100)
def test_random_pair_passes_the_identity_and_tau_gates(space, seed):
    dual = dual_of(space)
    identity = duality_identity(space, dual, PAIR_DEGREE)
    assert identity.residual < _DEFAULT_GATES["identity"]
    rng = random.Random(seed)
    band = min(PAIR_DEGREE, PAIR_GRID.size // 8)
    for _ in range(TAU_VECTORS):
        vec = _random_vector(rng, dual.symbol, dual.masses, band)
        norm = l2_norm(vec, dual.symbol, dual.masses)
        image = apply_tau(vec, dual)
        norm_image = l2_norm(image, dual.dual_symbol, dual.dual_masses)
        assert abs(norm_image ** 2 - norm ** 2) / norm ** 2 < _DEFAULT_GATES["tau"]
        back = apply_tau(image, dual.back)
        diff = TauVector(back.f1 - vec.f1, back.f2 - vec.f2,
                         back.mass_values - vec.mass_values)
        assert l2_norm(diff, dual.symbol, dual.masses) / norm < _DEFAULT_GATES["tau"]


@given(random_pairs())
@settings(deadline=None, max_examples=60)
def test_shifted_random_pair_passes_the_identity_gate(space):
    # the shift alpha_n moves the primal Gram's exponents and, through
    # effective_data, the dual's data: t^n R and the weights nu |zeta|^(2n)
    # must agree with them (worst residual seen 1.9e-9 over 180 draws)
    for n in (1, 2, 3):
        up = shifted(space, n)
        assert duality_identity(up, dual_of(up), PAIR_DEGREE).residual \
            < _DEFAULT_GATES["identity"], n


@given(random_pairs(), st.integers(0, 3), st.sampled_from([0.5, 0.9, 1.0]))
@settings(deadline=None, max_examples=60)
def test_random_pair_sandwich_keeps_its_order(space, cutoff, rho):
    # the five ordering margins, the upper chain's among them
    report = sandwich_check(space, cutoff, rho, 0, PAIR_DEGREE)
    assert report.worst_margin >= -report.tolerance, report


@given(random_pairs(zero=True), st.integers(0, 3), st.sampled_from([0.5, 0.9, 1.0]))
@settings(deadline=None, max_examples=60)
def test_zero_symbol_pair_keeps_the_lower_chain(space, cutoff, rho):
    """K(scaled) >= (B(0)/B^N(0)) K(both), with B/B^N = b the Blaschke
    product of the masses the cutoff drops.

    For g in the "both" metric, f = b g has |f(0)| = |b(0) g(0)|, the same
    H^2 norm (|b| = 1 on the circle) and no larger mass part (f vanishes at
    the dropped masses and |b| < 1 at the kept ones).  Its Hankel term reads
    P_-(rho R b g), not P_-(rho R g), so the bound follows for R = 0 only;
    sandwich_check does not check it.  The zero symbol makes "scaled" alpha
    and "both" the cutoff.  Where the cutoff drops a mass, the slack on
    these draws has stayed above 7e-3, far from truncation and roundoff."""
    report = sandwich_check(space, cutoff, rho, 0, PAIR_DEGREE)
    dropped = space.masses.points[min(cutoff, space.masses.count):]
    slack = report.k_scaled - float(np.prod(np.abs(dropped))) * report.k_both
    assert slack >= -TOL_ORDER


@given(random_pairs())
@settings(deadline=None, max_examples=50)
def test_random_pair_passes_the_theorem_gates(space):
    report = theorem_check(space, dual_of(space), PAIR_DEGREE)
    assert report.forward_hardy_residual < _DEFAULT_GATES["theorem"]
    assert report.forward_mass_residual < _DEFAULT_GATES["theorem"]
    assert report.converse_orthogonality < _DEFAULT_GATES["theorem"]
