from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    regularized,
    sandwich_check,
    symbol_from_expression,
    zero_symbol,
)
from hardydual import kernels
from hardydual.corpus import BY_NAME, CASES, MIXED_NAMES, mass_single_trace
from hardydual.kernels import _require_order
from hardydual.spaces import analytic_hankel, assemble_gram
from hardydual.tolerances import TOL_ORDER
from oracle import constrained_minimum, sandwich_check_four_grams


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
    residual = np.abs(gram @ kernel.coefficients - rhs).max()
    assert residual < 1e-10


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
def test_extremal_characterization(case):
    # 1/K(0)^2 equals the minimum of the quadratic form over f(0) = 1
    space = case.space(1024)
    gram = build_gram_analytic(space, 20)
    kernel = kernel_at_origin(gram)
    minimum = constrained_minimum(gram)
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
    inner = np.vdot(kernel.coefficients, gram @ z_coeffs)
    assert abs(inner - 0.5) < 1e-10


def test_kernel_at_point_rejects_boundary(mass_space):
    gram = build_gram_analytic(mass_space, 8)
    with pytest.raises(RejectBoundary):
        kernel_at_point(gram, 1.0)


# --- orthonormal system ---------------------------------------------------------

def test_orthonormal_system_free_space(grid512):
    space = SpaceData(zero_symbol(grid512), MassSet.empty())
    system = orthonormal_system(space, range(0, 5), 12)
    assert system.shifts[0] >= 0
    assert system.orthonormality_defect < 1e-14


def test_orthonormal_system_single_mass(mass_space):
    system = orthonormal_system(mass_space, range(0, 4), 40)
    assert system.orthonormality_defect < 1e-8


def test_orthonormal_system_rank_one_hankel(hankel_space):
    system = orthonormal_system(hankel_space, range(0, 2), 16)
    assert abs(system.gram[0, 1]) < 1e-10


def test_orthonormal_system_negative_shifts(mass_space):
    system = orthonormal_system(mass_space, range(-3, 5), 24)
    assert system.shifts[0] < 0
    assert system.orthonormality_defect < 1e-10


def test_orthonormal_system_rejects_a_repeated_shift():
    space = BY_NAME["mixed_basic"].space(1024)
    with pytest.raises(ValueError, match="shift 0 is repeated"):
        orthonormal_system(space, [0, 0, 1], 16)


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


def _report_fields(report):
    fields = dict(vars(report))
    residuals = fields.pop("identity_residuals")
    fields.update({f"identity_residual_{label}": value for label, value in residuals.items()})
    return {name: np.float64(value).tobytes() for name, value in fields.items()}


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
def test_sandwich_equals_the_four_gram_reference(case):
    # bit for bit, where the cutoff keeps every mass or rho is 1 too
    space = case.space(1024)
    for cutoff in range(space.masses.count + 1):
        for rho in (0.5, 0.9, 1.0):
            report = sandwich_check(space, cutoff, rho, 0, 24)
            expected = sandwich_check_four_grams(space, cutoff, rho, 0, 24)
            assert _report_fields(report) == _report_fields(expected)


@pytest.mark.parametrize("name", [name for name in MIXED_NAMES
                                  if len(BY_NAME[name].masses) > 1])
def test_sandwich_equals_the_four_gram_reference_where_differences_have_zero_rows(
        monkeypatch, name):
    # at 4096/128 the dropped mass's Gram falls below the roundoff of the
    # entries it is added to, so Gram(alpha) - Gram(cutoff) has exact zero
    # rows and its margin is read from the nonzero block alone
    space = BY_NAME[name].space(4096)
    degree = 128
    orders = []
    eigvalsh = np.linalg.eigvalsh

    def recorded(matrix):
        orders.append(matrix.shape[0])
        return eigvalsh(matrix)

    monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
    report = sandwich_check(space, 1, 0.5, 0, degree)
    monkeypatch.undo()
    expected = sandwich_check_four_grams(space, 1, 0.5, 0, degree)
    assert _report_fields(report) == _report_fields(expected)
    assert min(orders) < degree + 1


@given(st.integers(1, 40), st.integers(0, 40), st.booleans(), st.integers(0, 2 ** 32 - 1))
@settings(deadline=None, max_examples=60)
def test_psd_margin_of_a_difference_with_zero_rows(size, zeros, semidefinite, seed):
    # a Hermitian block scattered over random rows and columns of a larger
    # zero matrix: its margin is the smallest eigenvalue of the whole
    rng = np.random.default_rng(seed)
    block = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    block = block @ block.conj().T if semidefinite else block + block.conj().T
    order = size + zeros
    support = np.sort(rng.choice(order, size, replace=False))
    full = np.zeros((order, order), dtype=complex)
    full[np.ix_(support, support)] = block
    expected = float(np.linalg.eigvalsh(full)[0])
    lower = np.zeros_like(full)
    margin = kernels._psd_margin(full.copy(), lower, out=lower)
    # both are eigvalsh outputs, of D and of D[S, S], whose 2-norms agree; a
    # backward-stable Hermitian eigensolver gets each eigenvalue within
    # p(n) eps ||D||_2 for a modest p(n), so the two differ by at most
    # 2 p(n) eps ||D||_2, taken here with p(n) = order / 2.  max|D| can be
    # several times smaller than ||D||_2, and a bound on it failed by 2%
    bound = order * np.finfo(float).eps * np.linalg.norm(full, 2)
    assert abs(margin - expected) <= bound
    if semidefinite and zeros:
        assert margin <= 0.0


def test_a_heavier_kept_mass_fails_the_cutoff_order():
    # a broken Gram(cutoff), the kept mass's weight doubled, is not below
    # Gram(alpha) in PSD order, and the margin of their difference says so
    space = BY_NAME["mixed_two_mass"].space(4096)
    degree = 128
    kept = regularized(space, mass_cutoff=1).masses
    broken = replace(space, masses=MassSet(kept.points, 2.0 * kept.weights))
    gamma = analytic_hankel(space, degree)
    g_alpha, g_broken = assemble_gram(space, gamma), assemble_gram(broken, gamma)
    expected = float(np.linalg.eigvalsh(g_alpha - g_broken)[0])
    margin = kernels._psd_margin(g_alpha, g_broken, out=g_broken)
    assert margin < -TOL_ORDER
    assert abs(margin - expected) <= (degree + 1) * np.finfo(float).eps * abs(expected)
    with pytest.raises(OrderViolation, match=r"Gram\(alpha\) - Gram\(cutoff\) PSD"):
        _require_order("Gram(alpha) - Gram(cutoff) PSD", margin, TOL_ORDER)


def _count_sandwich_calls(monkeypatch, space, cutoff):
    counts = {"assemble_gram": 0, "eigvalsh": 0, "_dual_parts": 0}

    def counted(name, call):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return call(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(kernels, "assemble_gram", counted("assemble_gram", kernels.assemble_gram))
    monkeypatch.setattr(kernels, "_dual_parts", counted("_dual_parts", kernels._dual_parts))
    monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
    sandwich_check(space, cutoff, 0.5, 0, 24)
    return counts


def test_sandwich_keeping_every_mass_builds_two_variants(monkeypatch, mass_space):
    space = BY_NAME["mixed_rational"].space(1024)
    counts = _count_sandwich_calls(monkeypatch, space, space.masses.count)
    assert counts["assemble_gram"] == 2 and counts["_dual_parts"] == 2
    assert counts["eigvalsh"] <= 1
    # the zero symbol: Gram(scaled) - Gram(alpha) is exactly zero
    counts = _count_sandwich_calls(monkeypatch, mass_space, 1)
    assert counts == {"assemble_gram": 2, "eigvalsh": 0, "_dual_parts": 2}


def test_sandwich_dropping_a_mass_builds_four_variants(monkeypatch):
    space = BY_NAME["mixed_two_mass"].space(1024)
    counts = _count_sandwich_calls(monkeypatch, space, 1)
    assert counts == {"assemble_gram": 4, "eigvalsh": 2, "_dual_parts": 3}


def test_monotonicity_of_inverse_under_psd_growth(grid512):
    # enlarging the Gram in PSD order never increases the (0,0) entry of
    # the inverse, the mechanism behind both sandwich chains
    rng = np.random.default_rng(5)
    space = SpaceData(symbol_from_expression(grid512, "0.4*conj(t)"),
                      MassSet(np.array([0.3]), np.array([1.0])))
    gram = build_gram_analytic(space, 10)
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
