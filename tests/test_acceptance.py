"""Acceptance gates.

Each test prints one PASS/FAIL line; tolerances are pinned, not calibrated.
Run with ``pytest -s tests/test_acceptance.py`` to see every line.
"""

import time

import numpy as np
import pytest

from hardydual import (
    MassSet,
    SpaceData,
    TauVector,
    apply_tau,
    asymptotic_sweep,
    build_gram_analytic,
    canonical_vector,
    dual_of,
    duality_identity,
    l2_inner,
    l2_norm,
    orthonormal_system,
    regularized,
    sandwich_check,
    theorem_check,
    zero_symbol,
)
from hardydual.cli import monotone_improvement
from hardydual.corpus import CASES, MIXED_NAMES, mass_single_trace
from hardydual.kernels import kernel_at_origin
from oracle import (
    QuadratureContext,
    blaschke_value,
    dense_psd_check,
    fd_derivative,
    gram_entry_quadrature,
    quad_inner,
    symbol_values,
)
from hardydual.spaces import assemble_gram, effective_data, hankel_block

GRID = 4096


def _gate(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}" + (f"  ({detail})" if detail else "")
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def corpus_spaces():
    return {case.name: case.space(GRID) for case in CASES}


def test_criterion_1_closed_form_kernel(corpus_spaces):
    start = time.perf_counter()
    kernel = kernel_at_origin(build_gram_analytic(corpus_spaces["mass_single"], 40))
    elapsed = time.perf_counter() - start
    error = abs(kernel.norm - np.sqrt(2.0 / 5.0))
    _gate("criterion 1: closed-form kernel value sqrt(2/5) within 1e-9, < 1 s",
          error < 1e-9 and elapsed < 1.0,
          f"error={error:.3e}, {elapsed:.3f}s")


def test_criterion_2_duality_identity(corpus_spaces):
    start = time.perf_counter()
    worst_closed = 0.0
    for name in ("mass_single", "hankel_rank1"):
        space = corpus_spaces[name]
        report = duality_identity(space, dual_of(space), 48)
        worst_closed = max(worst_closed, report.residual)
    worst_mixed = 0.0
    for name in MIXED_NAMES:
        space = corpus_spaces[name]
        report = duality_identity(space, dual_of(space), 48)
        worst_mixed = max(worst_mixed, report.residual)
    elapsed = time.perf_counter() - start
    _gate("criterion 2: duality identity residual (closed < 1e-9, mixed < 1e-6, < 10 s)",
          worst_closed < 1e-9 and worst_mixed < 1e-6 and elapsed < 10.0,
          f"closed={worst_closed:.3e}, mixed={worst_mixed:.3e}, {elapsed:.2f}s")


def test_criterion_3_asymptotics(corpus_spaces):
    ok = True
    details = []
    for name, space in corpus_spaces.items():
        trace = asymptotic_sweep(space, 16, 48)
        final = float(trace.deviations[-1])
        monotone = trace.tail_monotone()
        ok = ok and final < 1e-3 and monotone
        details.append(f"{name}:{final:.1e}{'' if monotone else '!mono'}")
    closed = asymptotic_sweep(corpus_spaces["mass_single"], 16, 48)
    expected = np.array([mass_single_trace(n) for n in range(17)])
    exact = float(np.abs(closed.values - expected).max())
    ok = ok and exact < 1e-10
    _gate("criterion 3: |K^(n)(0)-1| < 1e-3 by n=16, monotone tail, exact trace 1e-10",
          ok, f"trace_err={exact:.1e}; " + ", ".join(details))


def test_criterion_4_sandwich_ordering(corpus_spaces):
    worst_margin = np.inf
    worst_psd = np.inf
    for name, space in corpus_spaces.items():
        cutoff = min(1, space.masses.count)
        report = sandwich_check(space, cutoff, 0.5, 0, 40)
        worst_margin = min(worst_margin, report.margin_cutoff, report.margin_scaled)
        base = build_gram_analytic(space, 40)
        cut = build_gram_analytic(regularized(space, mass_cutoff=cutoff), 40)
        rho = build_gram_analytic(regularized(space, rho=0.5), 40)
        worst_psd = min(worst_psd, dense_psd_check(base - cut),
                        dense_psd_check(rho - base))
    _gate("criterion 4: sandwich inequalities and Gram PSD orderings (>= -1e-10)",
          worst_margin >= -1e-10 and worst_psd >= -1e-10,
          f"margin={worst_margin:.3e}, psd={worst_psd:.3e}")


def test_criterion_5_tau_unitarity_involution(corpus_spaces):
    rng = np.random.default_rng(20260809)
    worst_unit = 0.0
    worst_inv = 0.0
    for name, space in corpus_spaces.items():
        dual = dual_of(space)
        dual_back = dual_of(dual.dual_space())
        symbol, masses = dual.symbol, dual.masses
        exponents = np.arange(-64, 65)
        for _ in range(20):
            coeffs = (rng.standard_normal(exponents.size)
                      + 1j * rng.standard_normal(exponents.size))
            coeffs *= 0.8 ** np.abs(exponents)
            full = np.zeros(GRID, dtype=complex)
            full[exponents % GRID] = coeffs
            values = rng.standard_normal(masses.count) \
                + 1j * rng.standard_normal(masses.count)
            vec = canonical_vector(symbol, symbol.grid.values(full), values)
            norm = l2_norm(vec, symbol, masses)
            image = apply_tau(vec, dual)
            norm_image = l2_norm(image, dual.dual_symbol, dual.dual_masses)
            worst_unit = max(worst_unit, abs(norm_image ** 2 - norm ** 2) / norm ** 2)
            back = apply_tau(image, dual_back)
            diff = TauVector(back.f1 - vec.f1, back.f2 - vec.f2,
                             back.mass_values - vec.mass_values)
            worst_inv = max(worst_inv, l2_norm(diff, symbol, masses) / norm)
    _gate("criterion 5: tau unitarity and involution < 1e-8 on 20 seeded vectors/case",
          worst_unit < 1e-8 and worst_inv < 1e-8,
          f"unitarity={worst_unit:.3e}, involution={worst_inv:.3e}")


def test_criterion_6_theorem_residual(corpus_spaces):
    classical = SpaceData(zero_symbol(corpus_spaces["mass_single"].symbol.grid),
                          MassSet.empty())
    rep0 = theorem_check(classical, dual_of(classical), 32)
    classical_worst = max(rep0.forward_hardy_residual, rep0.forward_mass_residual)
    worst = 0.0
    for name, space in corpus_spaces.items():
        rep = theorem_check(space, dual_of(space), 32)
        worst = max(worst, rep.forward_hardy_residual, rep.forward_mass_residual)
    _gate("criterion 6: complement tau-images satisfy membership (< 1e-6 at M=32)",
          worst < 1e-6 and classical_worst < 1e-12,
          f"corpus={worst:.3e}, classical={classical_worst:.3e}")


def test_criterion_7_orthonormal_system(corpus_spaces):
    worst = 0.0
    for name, space in corpus_spaces.items():
        system = orthonormal_system(space, range(0, 9), 48)
        worst = max(worst, system.orthonormality_defect)
    _gate("criterion 7: Gram of {e_n: 0 <= n <= 8} within 1e-7 of identity",
          worst < 1e-7, f"defect={worst:.3e}")


def test_criterion_8_oracle_equivalence(corpus_spaces):
    worst_entry = 0.0
    worst_deriv = 0.0
    worst_inner = 0.0
    refined = QuadratureContext(GRID).nodes
    rng = np.random.default_rng(5)
    for case in CASES:
        space = corpus_spaces[case.name]
        # the oracle sums the same 96 Hankel terms as the Gram
        gram = assemble_gram(space, hankel_block(space.symbol, np.arange(13), 96))
        values = symbol_values(case, refined)
        _, masses = effective_data(space)
        for row, col in [(0, 0), (2, 1), (5, 5), (0, 12)]:
            oracle_entry = gram_entry_quadrature(values, refined, masses.points,
                                                 masses.weights, row, col, 96)
            worst_entry = max(worst_entry,
                              abs(gram[row, col] - oracle_entry))
        r = dual_of(space)
        for k, point in enumerate(r.masses.points):
            fd = fd_derivative(lambda z: complex(blaschke_value(r.masses.points, z)),
                               point, step=1e-5)
            worst_deriv = max(worst_deriv,
                              abs(r.blaschke.derivative_at_zeros[k] - fd))
        # production inner product vs trapezoid oracle with the matrix weight
        sym = r.symbol
        weight = np.empty((2, 2, GRID), dtype=complex)
        weight[0, 0] = 1.0
        weight[0, 1] = np.conj(sym.values)
        weight[1, 0] = sym.values
        weight[1, 1] = 1.0
        coeffs = (rng.standard_normal(10) + 1j * rng.standard_normal(10)) * 0.7 ** np.arange(10)
        u = canonical_vector(sym, np.polynomial.polynomial.polyval(sym.grid.nodes, coeffs),
                             np.zeros(r.masses.count))
        production = l2_inner(u, u, sym, r.masses).real
        oracle_value = quad_inner(np.stack([u.f1, u.f2]), np.stack([u.f1, u.f2]),
                                  weight).real
        if r.masses.count:
            oracle_value += float(np.sum(r.masses.weights
                                         * np.abs(u.mass_values) ** 2))
        worst_inner = max(worst_inner, abs(production - oracle_value))
    _gate("criterion 8: oracle equivalence (entries/inners 1e-8, derivatives 1e-7)",
          worst_entry < 1e-8 and worst_inner < 1e-8 and worst_deriv < 1e-7,
          f"entry={worst_entry:.1e}, deriv={worst_deriv:.1e}, inner={worst_inner:.1e}")


def test_criterion_9_convergence(corpus_spaces):
    ladder = [(1024, 24), (2048, 36), (4096, 48)]
    ok = True
    details = []
    for case in CASES:
        residuals = []
        for grid_size, degree in ladder:
            space = case.space(grid_size)
            residuals.append(duality_identity(space, dual_of(space), degree).residual)
        good = monotone_improvement(residuals)
        ok = ok and good
        details.append(f"{case.name}:{residuals[0]:.0e}->{residuals[-1]:.0e}")
    _gate("criterion 9: identity residual improves under grid/degree refinement",
          ok, "; ".join(details))
