import numpy as np
import pytest

from hardydual import (
    MassSet,
    OrderViolation,
    RejectBoundary,
    SpaceData,
    asymptotic_sweep,
    build_gram_analytic,
    kernel_at_origin,
    kernel_at_point,
    orthonormal_system,
    sandwich_check,
    symbol_from_expression,
    zero_symbol,
)
from hardydual.corpus import CASES, mass_single_trace
from hardydual.kernels import _require_order
from oracle import constrained_minimum


def test_kernel_identity_gram(grid512):
    space = SpaceData(zero_symbol(grid512), MassSet.empty())
    kernel = kernel_at_origin(build_gram_analytic(space, 8))
    assert kernel.norm == pytest.approx(1.0)
    assert kernel.value_at_zero == pytest.approx(1.0)
    assert kernel.value_at_zero / kernel.norm == pytest.approx(1.0)


def test_kernel_single_mass_closed_form(mass_space):
    kernel = kernel_at_origin(build_gram_analytic(mass_space, 40))
    assert abs(kernel.norm - np.sqrt(2.0 / 5.0)) < 1e-10
    # reproducing property at 0: k(0) = ||k||^2
    assert abs(kernel.value_at_zero - kernel.norm ** 2) < 1e-10 * kernel.norm ** 2


def test_kernel_rank_one_hankel(hankel_space):
    kernel = kernel_at_origin(build_gram_analytic(hankel_space, 12))
    assert abs(kernel.norm - 1.25) < 1e-12


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
def test_reproducing_residual(case):
    space = case.space(1024)
    gram = build_gram_analytic(space, 20)
    kernel = kernel_at_origin(gram)
    rhs = np.zeros(21, dtype=complex)
    rhs[0] = 1.0
    residual = np.abs(gram.entries @ kernel.coefficients - rhs).max()
    assert residual < 1e-10


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
def test_extremal_characterization(case):
    # 1/K(0)^2 equals the minimum of the quadratic form over f(0) = 1
    space = case.space(1024)
    gram = build_gram_analytic(space, 20)
    kernel = kernel_at_origin(gram)
    minimum = constrained_minimum(gram.entries)
    assert abs(1.0 / kernel.norm ** 2 - minimum) < 1e-10


def test_kernel_at_point_matches_origin(mass_space):
    gram = build_gram_analytic(mass_space, 24)
    at_zero = kernel_at_origin(gram)
    at_point = kernel_at_point(gram, 0.0)
    assert np.abs(at_zero.coefficients - at_point.coefficients).max() == 0


def test_kernel_at_point_szego_norm(grid512):
    # free space: ||k_{1/2}||^2 -> 1/(1 - 1/4) = 4/3
    space = SpaceData(zero_symbol(grid512), MassSet.empty())
    kernel = kernel_at_point(build_gram_analytic(space, 60), 0.5)
    assert abs(kernel.norm ** 2 - 4.0 / 3.0) < 1e-10


def test_kernel_at_point_reproduces_monomial(mass_space):
    gram = build_gram_analytic(mass_space, 40)
    kernel = kernel_at_point(gram, 0.5)
    # <z, k_{1/2}> = value of z at 1/2
    z_coeffs = np.zeros(41, dtype=complex)
    z_coeffs[1] = 1.0
    inner = np.vdot(kernel.coefficients, gram.entries @ z_coeffs)
    assert abs(inner - 0.5) < 1e-10


def test_kernel_at_point_rejects_boundary(mass_space):
    gram = build_gram_analytic(mass_space, 8)
    with pytest.raises(RejectBoundary):
        kernel_at_point(gram, 1.0)


# --- orthonormal system ---------------------------------------------------------

def test_orthonormal_system_free_space(grid512):
    space = SpaceData(zero_symbol(grid512), MassSet.empty())
    system = orthonormal_system(space, range(0, 5), 12)
    assert system.basis_kind == "analytic"
    assert system.orthonormality_defect < 1e-14


def test_orthonormal_system_single_mass(mass_space):
    system = orthonormal_system(mass_space, range(0, 4), 40)
    assert system.orthonormality_defect < 1e-8


def test_orthonormal_system_rank_one_hankel(hankel_space):
    system = orthonormal_system(hankel_space, range(0, 2), 16)
    assert abs(system.gram[0, 1]) < 1e-10


def test_orthonormal_system_negative_shifts(mass_space):
    system = orthonormal_system(mass_space, range(-3, 5), 24)
    assert system.basis_kind == "laurent"
    assert system.orthonormality_defect < 1e-10


# --- asymptotics ----------------------------------------------------------------

def test_sweep_closed_form_trace(mass_space):
    trace = asymptotic_sweep(mass_space, 8, 40)
    expected = np.array([mass_single_trace(n) for n in range(9)])
    assert np.abs(trace.values - expected).max() < 1e-10
    assert trace.tail_monotone()
    assert abs(trace.values[0] - 0.63246) < 1e-5
    assert abs(trace.values[1] - 0.79057) < 1e-5
    assert abs(trace.values[2] - 0.92195) < 1e-5


def test_sweep_rank_one_hankel(hankel_space):
    trace = asymptotic_sweep(hankel_space, 4, 12)
    assert abs(trace.values[0] - 1.25) < 1e-12
    assert np.abs(trace.values[1:] - 1.0).max() < 1e-12


def test_sweep_trivial_space(grid512):
    space = SpaceData(zero_symbol(grid512), MassSet.empty())
    trace = asymptotic_sweep(space, 4, 8)
    assert np.abs(trace.values - 1.0).max() == 0


def test_sweep_monotone_for_pure_mass_data(grid512):
    masses = MassSet(np.array([0.5, 0.25j]), np.array([2.0, 1.0]))
    space = SpaceData(zero_symbol(grid512), masses)
    trace = asymptotic_sweep(space, 10, 24)
    assert np.all(np.diff(trace.values) > -1e-14)
    assert np.all(trace.values > 0)


def test_sweep_converged_at(mass_space):
    trace = asymptotic_sweep(mass_space, 16, 40)
    n0 = trace.converged_at(1e-3)
    assert n0 is not None and n0 <= 16
    deviations = np.abs(np.array([mass_single_trace(n) for n in range(17)]) - 1)
    assert deviations[n0] < 1e-3


# --- sandwich bounds -------------------------------------------------------------

def test_sandwich_rank_one_hankel_values(hankel_space):
    report = sandwich_check(hankel_space, 0, 0.5, 0, 16)
    assert abs(report.k_alpha - 1.25) < 1e-12
    assert abs(report.k_scaled - 1.0 / np.sqrt(1.0 - 0.09)) < 1e-12
    # no masses: the cutoff side degenerates to alpha itself
    assert abs(report.k_cutoff - report.k_alpha) < 1e-14
    assert report.margin_scaled > 0


def test_sandwich_two_mass_case(grid4096):
    masses = MassSet(np.array([0.5, 1 / 3]), np.array([3.0, 1.0]))
    space = SpaceData(zero_symbol(grid4096), masses)
    report = sandwich_check(space, 1, 0.5, 0, 40)
    assert report.k_cutoff >= report.k_alpha >= report.k_scaled
    assert report.psd_margin_cutoff >= -1e-12
    assert report.psd_margin_scaled >= -1e-12
    assert report.chain_upper_slack >= -1e-10
    assert report.chain_lower_slack >= -1e-10
    assert max(report.identity_residuals.values()) < 1e-8


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
def test_sandwich_across_corpus(case):
    space = case.space(2048)
    cutoff = min(1, space.masses.count)
    report = sandwich_check(space, cutoff, 0.6, 1, 24)
    assert report.margin_cutoff >= -1e-10
    assert report.margin_scaled >= -1e-10
    assert max(report.identity_residuals.values()) < 1e-6


def test_monotonicity_of_inverse_under_psd_growth(grid512):
    # enlarging the Gram in PSD order never increases the (0,0) entry of
    # the inverse, the mechanism behind both sandwich chains
    rng = np.random.default_rng(5)
    space = SpaceData(symbol_from_expression(grid512, "0.4*conj(t)"),
                      MassSet(np.array([0.3]), np.array([1.0])))
    gram = build_gram_analytic(space, 10).entries
    for _ in range(10):
        direction = rng.standard_normal((11, 3)) + 1j * rng.standard_normal((11, 3))
        bump = direction @ direction.conj().T
        before = np.linalg.inv(gram)[0, 0].real
        after = np.linalg.inv(gram + bump)[0, 0].real
        assert after <= before + 1e-12


def test_order_gate_raises():
    with pytest.raises(OrderViolation):
        _require_order("synthetic", -1e-3, 1e-10)


def test_sandwich_degenerate_regularization_is_equality(mass_space):
    # rho = 1 and N = all masses: both sides collapse onto K(alpha)
    report = sandwich_check(mass_space, mass_space.masses.count, 1.0, 0, 24)
    assert report.k_cutoff == pytest.approx(report.k_alpha, abs=1e-14)
    assert report.k_scaled == pytest.approx(report.k_alpha, abs=1e-14)
    assert abs(report.chain_upper_slack) < 1e-12
    assert abs(report.chain_lower_slack) < 1e-12


def test_sandwich_rejects_bad_rho(mass_space):
    with pytest.raises(ValueError):
        sandwich_check(mass_space, 1, 1.5, 0, 8)
    with pytest.raises(ValueError):
        sandwich_check(mass_space, 1, 0.0, 0, 8)
