from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardydual import (
    CircleGrid,
    MassSet,
    NotPositiveDefinite,
    RejectBoundary,
    SpaceData,
    asymptotic_sweep,
    build_gram_analytic,
    dual_of,
    duality_identity,
    kernel_at_origin,
    kernel_at_point,
    orthonormal_system,
    regularized,
    sandwich_check,
    shifted,
    symbol_from_expression,
    zero_symbol,
)
from hardydual import kernels, spaces
from hardydual.corpus import BY_NAME, CASES, MIXED_NAMES, mass_single_trace
from hardydual.kernels import AsymptoticTrace, SandwichReport, largest_rise
from hardydual.spaces import analytic_hankel, assemble_gram
from hardydual.tolerances import TOL_ORDER
from contract import report_fields
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


def test_point_kernels_and_window_runs_refuse_a_nonpositive_norm_alike():
    # one rule for a kernel norm, on the single solve and on the window runs
    gram = -np.eye(6, dtype=complex)
    message = "^kernel norm came out nonpositive; Gram unusable$"
    with pytest.raises(NotPositiveDefinite, match=message):
        kernel_at_point(gram, 0.3)
    with pytest.raises(NotPositiveDefinite, match=message):
        kernels._window_runs(gram, np.arange(3), 4)


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


def test_largest_rise_counts_a_slow_rise_in_full():
    # every step rises by 0.6e-12, within a tolerance of 1e-12; from shift 4
    # to 9 the deviation rises by 3e-12, and that is what is judged
    tol = 1e-12
    shifts = np.arange(10)
    deviations = 1e-6 + 0.6 * tol * shifts
    assert np.all(np.diff(deviations) < tol)
    assert largest_rise(deviations[4:]) == pytest.approx(3 * tol, rel=1e-3)
    assert not AsymptoticTrace(shifts, 1.0 - deviations, tol).tail_monotone()
    assert AsymptoticTrace(shifts, 1.0 - deviations, 10 * tol).tail_monotone()
    # the rise may start anywhere before its top, and a fall is no rise
    assert largest_rise([1.0, 0.5, 0.9, 0.2, 0.6]) == pytest.approx(0.4)
    assert largest_rise(deviations[::-1]) == 0.0
    assert largest_rise([3.0]) == 0.0
    assert largest_rise([]) == 0.0


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
    assert report.worst_margin >= -report.tolerance


def test_sandwich_two_mass_case(grid4096):
    masses = MassSet(np.array([0.5, 1 / 3]), np.array([3.0, 1.0]))
    space = SpaceData(zero_symbol(grid4096), masses)
    report = sandwich_check(space, 1, 0.5, 0, 40)
    assert report.k_cutoff >= report.k_alpha >= report.k_scaled
    assert report.psd_margin_cutoff >= -1e-12
    assert report.psd_margin_scaled >= -1e-12
    assert report.chain_upper_slack >= -1e-10
    assert report.tolerance == TOL_ORDER
    assert max(report.identity_residuals.values()) < 1e-8


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
def test_sandwich_across_corpus(case):
    space = case.space(2048)
    cutoff = min(1, space.masses.count)
    report = sandwich_check(space, cutoff, 0.6, 1, 24)
    assert report.margin_cutoff >= -1e-10
    assert report.margin_scaled >= -1e-10
    assert report.worst_margin >= -report.tolerance
    assert max(report.identity_residuals.values()) < 1e-6


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
def test_sandwich_equals_the_four_gram_reference(case):
    # bit for bit, where the cutoff keeps every mass or rho is 1 too
    space = case.space(1024)
    for cutoff in range(space.masses.count + 1):
        for rho in (0.5, 0.9, 1.0):
            report = sandwich_check(space, cutoff, rho, 0, 24)
            expected = sandwich_check_four_grams(space, cutoff, rho, 0, 24)
            assert report_fields(report) == report_fields(expected)


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
    assert report_fields(report) == report_fields(expected)
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


def _double_the_kept_masses(monkeypatch):
    """Make sandwich_check's Gram(cutoff) carry its kept masses at twice
    their weight, so that it is not below Gram(alpha) in PSD order.  The
    stub replaces ``spaces.regularized``, which ``spaces.regularized_grams``
    calls for each primal Gram; alpha's cutoff is every mass, so only a
    cutoff below the mass count is doubled."""
    def doubled(space, rho=1.0, mass_cutoff=None):
        out = regularized(space, rho=rho, mass_cutoff=mass_cutoff)
        if mass_cutoff is None or mass_cutoff >= space.masses.count or rho != 1.0:
            return out
        kept = out.masses
        return replace(out, masses=MassSet(kept.points, 2.0 * kept.weights))

    monkeypatch.setattr(spaces, "regularized", doubled)


def test_a_heavier_kept_mass_fails_the_cutoff_order(monkeypatch):
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
    _double_the_kept_masses(monkeypatch)
    report = sandwich_check(space, 1, 0.5, 0, degree)
    assert report.tolerance == TOL_ORDER
    assert report.psd_margin_cutoff == margin
    assert report.worst_margin < -report.tolerance


def _heavy_pair():
    # the zero symbol with masses 0.5 (weight 3) and -0.3+0.4i (weight 1e8)
    return SpaceData(zero_symbol(CircleGrid(4096)),
                     MassSet(np.array([0.5, -0.3 + 0.4j]), np.array([3.0, 1e8])))


def test_sandwich_tolerance_is_the_roundoff_of_its_largest_diagonal():
    # dropping the weight-1e8 mass leaves a PSD difference whose eigvalsh
    # reads -1.2e-8 in roundoff, beyond TOL_ORDER but within the roundoff
    # order * eps * s of Grams whose largest diagonal entry s is 1 + 3 + 1e8
    space = _heavy_pair()
    report = sandwich_check(space, 1, 0.5, 0, 48)
    scale = build_gram_analytic(space, 48).diagonal().real.max()
    assert report.tolerance == 49 * np.finfo(float).eps * scale
    assert report.tolerance == pytest.approx(1.09e-6, rel=1e-2)
    assert -report.tolerance < report.psd_margin_cutoff < -TOL_ORDER


def test_sweep_and_identity_carry_the_tolerance_of_their_grams():
    # the weight-1e8 pair, whose Grams' roundoff lies far above TOL_PSD
    space = _heavy_pair()
    eps = np.finfo(float).eps
    trace = asymptotic_sweep(space, 8, 40)
    assert trace.tolerance == 49 * eps * build_gram_analytic(space, 48).diagonal().real.max()
    assert trace.tolerance == pytest.approx(1.09e-6, rel=1e-2)
    dual = dual_of(space)
    grams = (build_gram_analytic(shifted(space, -1), 48),
             build_gram_analytic(dual.dual_space(), 48))
    report = duality_identity(space, dual, 48)
    assert report.tolerance == max(49 * eps * gram.diagonal().real.max() for gram in grams)


def test_a_heavier_kept_mass_still_fails_at_a_heavy_weight(monkeypatch):
    # a broken Gram(cutoff) that carries the kept mass at twice its weight is
    # not below Gram(alpha) in PSD order; the roundoff tolerance of the
    # weight-1e8 pair must not hide it
    _double_the_kept_masses(monkeypatch)
    report = sandwich_check(_heavy_pair(), 1, 0.5, 0, 48)
    assert report.tolerance > TOL_ORDER
    assert report.psd_margin_cutoff < -report.tolerance
    assert report.worst_margin == report.psd_margin_cutoff


def _count_sandwich_calls(monkeypatch, space, cutoff):
    counts = {"primal_grams": 0, "eigvalsh": 0, "_dual_parts": 0}

    def counted(name, call):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return call(*args, **kwargs)
        return wrapper

    def primal_grams(*args):
        for item in spaces.regularized_grams(*args):
            counts["primal_grams"] += 1
            yield item

    monkeypatch.setattr(kernels, "regularized_grams", primal_grams)
    monkeypatch.setattr(kernels, "_dual_parts", counted("_dual_parts", kernels._dual_parts))
    monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
    report = sandwich_check(space, cutoff, 0.5, 0, 24)
    assert report.worst_margin >= -report.tolerance
    return counts


def test_sandwich_keeping_every_mass_builds_two_variants(monkeypatch, mass_space):
    space = BY_NAME["mixed_rational"].space(1024)
    counts = _count_sandwich_calls(monkeypatch, space, space.masses.count)
    assert counts["primal_grams"] == 2 and counts["_dual_parts"] == 2
    assert counts["eigvalsh"] <= 1
    # the zero symbol: Gram(scaled) - Gram(alpha) is exactly zero
    counts = _count_sandwich_calls(monkeypatch, mass_space, 1)
    assert counts == {"primal_grams": 2, "eigvalsh": 0, "_dual_parts": 2}


def test_sandwich_dropping_a_mass_builds_four_variants(monkeypatch):
    space = BY_NAME["mixed_two_mass"].space(1024)
    counts = _count_sandwich_calls(monkeypatch, space, 1)
    assert counts == {"primal_grams": 4, "eigvalsh": 2, "_dual_parts": 3}


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


def test_worst_margin_is_the_smallest_ordering_margin():
    # each of the five orderings alone decides it, the upper chain too
    names = ("margin_cutoff", "margin_scaled", "psd_margin_cutoff",
             "psd_margin_scaled", "chain_upper_slack")
    for name in names:
        margins = {other: 1e-2 for other in names} | {name: -1e-3}
        report = SandwichReport(k_alpha=1.0, k_cutoff=1.0, k_scaled=1.0, k_both=1.0,
                                tolerance=TOL_ORDER, identity_residuals={}, **margins)
        assert report.worst_margin == -1e-3 < -report.tolerance, name


def test_sandwich_degenerate_regularization_is_equality(mass_space):
    # rho = 1 and N = all masses: both sides collapse onto K(alpha)
    report = sandwich_check(mass_space, mass_space.masses.count, 1.0, 0, 24)
    assert report.k_cutoff == pytest.approx(report.k_alpha, abs=1e-14)
    assert report.k_scaled == pytest.approx(report.k_alpha, abs=1e-14)
    assert abs(report.chain_upper_slack) < 1e-12
    assert report.worst_margin >= -report.tolerance


def test_sandwich_rejects_bad_rho(mass_space):
    with pytest.raises(ValueError):
        sandwich_check(mass_space, 1, 1.5, 0, 8)
    with pytest.raises(ValueError):
        sandwich_check(mass_space, 1, 0.0, 0, 8)
