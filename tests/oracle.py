"""Slow, independent reference routes used only by the tests.

Apart from :func:`theorem_check_per_column`, nothing here shares code with
the production paths: inner products are plain trapezoid sums, Fourier
coefficients come from Vandermonde-style quadrature instead of the FFT,
derivatives from Richardson-extrapolated central differences, and PSD
checks from a dense eigensolve.  Agreement with the production numbers is
evidence, not tautology.  :func:`theorem_check_per_column` is the theorem
check one vector at a time, built on the library's single-vector calls
(``apply_tau``, ``check_hat_membership``) and on :func:`laurent_values`: a
reference for the fused grid map and block layout of the stacked check,
not for the maths of the single-vector calls.  :func:`sandwich_check_four_grams`
is the sandwich check with every variant built on its own, a reference for
the merging of equal variants, not for the maths of the Grams and kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hardydual.duality import (
    CONVERSE_POWERS,
    TauVector,
    TheoremReport,
    apply_tau,
    canonical_vector,
    check_hat_membership,
    embed_analytic_vector,
    l2_inner,
    l2_norm,
)
from hardydual.circle import evaluate_formula
from hardydual.errors import GridMismatch, HardyDualError
from hardydual.kernels import SandwichReport, _dual_parts, kernel_at_origin
from hardydual.spaces import (
    analytic_hankel,
    assemble_gram,
    build_gram_analytic,
    build_gram_laurent,
    effective_data,
    regularized,
    shifted,
)
from hardydual.tolerances import TOL_ORDER


class NotHermitian(HardyDualError):
    """Matrix expected to be Hermitian is not."""


@dataclass(frozen=True)
class QuadratureContext:
    """Refined-grid settings for oracle cross-checks.

    The oracle always integrates on a grid at least twice as fine as the
    production one, so agreement is not an aliasing artifact.
    """

    base_size: int
    refinement: int = 2

    def __post_init__(self):
        if self.refinement < 2:
            raise ValueError("oracle refinement must be >= 2x the production grid")

    @property
    def size(self) -> int:
        return self.base_size * self.refinement

    @property
    def nodes(self) -> np.ndarray:
        return np.exp(2j * np.pi * np.arange(self.size) / self.size)


def quad_inner(f, g, weight=None):
    """Trapezoid approximation of the circle inner product int w f conj(g) dm.

    On the uniform periodic grid the trapezoid rule is the plain mean.
    ``weight`` may be None (Lebesgue), a per-node array, or a (2, 2, N)
    matrix field acting on stacked pairs f, g of shape (2, N).
    """
    f = np.asarray(f, dtype=complex)
    g = np.asarray(g, dtype=complex)
    if f.shape != g.shape:
        raise GridMismatch(f"shape mismatch {f.shape} vs {g.shape}")
    if weight is None:
        return complex(np.mean(f * np.conj(g)))
    weight = np.asarray(weight, dtype=complex)
    if weight.ndim == 1:
        if weight.shape != f.shape:
            raise GridMismatch("weight length does not match the samples")
        return complex(np.mean(weight * f * np.conj(g)))
    if weight.shape != (2, 2, f.shape[-1]) or f.ndim != 2:
        raise GridMismatch("matrix weight needs (2,2,N) weight and (2,N) samples")
    wf = np.einsum("abn,bn->an", weight, f)
    return complex(np.mean(np.sum(wf * np.conj(g), axis=0)))


def riesz_project(coeffs, sign):
    """Riesz projection acting on FFT-layout coefficients (last axis).

    ``analytic`` keeps frequencies p >= 0, the lower half of the array;
    ``antianalytic`` keeps p <= -1, the upper half with the shared +-size/2
    bin, so the two projections are exactly complementary.
    """
    out = np.array(coeffs, dtype=complex)
    half = out.shape[-1] // 2
    if sign == "analytic":
        out[..., half:] = 0
    elif sign == "antianalytic":
        out[..., :half] = 0
    else:
        raise ValueError(f"sign must be 'analytic' or 'antianalytic', got {sign!r}")
    return out


def symbol_values(case, nodes):
    """A corpus case's symbol evaluated on arbitrary unit-circle nodes."""
    nodes = np.asarray(nodes, dtype=complex)
    if case.formula is None:
        return np.zeros_like(nodes)
    return np.broadcast_to(
        np.asarray(evaluate_formula(case.formula, nodes), dtype=complex),
        nodes.shape).copy()


def laurent_values(grid, coeffs_band, half_band):
    """Grid samples of Laurent polynomials given coefficients on -M..M (last axis)."""
    coeffs_band = np.asarray(coeffs_band)
    full = np.zeros(coeffs_band.shape[:-1] + (grid.size,), dtype=complex)
    full[..., (np.arange(coeffs_band.shape[-1]) - half_band) % grid.size] = coeffs_band
    return np.fft.ifft(full, norm="forward", out=full)


def fd_derivative(fn, point, step=1e-6):
    """Central difference with one Richardson extrapolation step."""
    point = complex(point)
    d1 = (fn(point + step) - fn(point - step)) / (2 * step)
    d2 = (fn(point + step / 2) - fn(point - step / 2)) / step
    return (4 * d2 - d1) / 3


def blaschke_value(points, z):
    """Blaschke product prod_k (|zeta_k|/zeta_k)(zeta_k - z)/(1 - conj(zeta_k) z).

    A zero at the origin contributes the factor z.  Evaluated point by point
    at any z (inside the disk, on the circle, or arrays of either), for
    finite-difference checks of the production derivatives.
    """
    z = np.asarray(z, dtype=complex)
    value = np.ones_like(z)
    for point in np.atleast_1d(np.asarray(points, dtype=complex)):
        if point == 0:
            value = value * z
        else:
            value = value * (abs(point) / point) * (point - z) / (1.0 - np.conj(point) * z)
    return value


def golden_angle_points(count):
    """``count`` mass points at radii 0.2 to 0.9, evenly stepped, each turned
    by the golden angle from the last: a separated Blaschke family."""
    k = np.arange(count)
    radii = 0.2 + 0.7 * k / max(count - 1, 1)
    return radii * np.exp(1j * np.pi * (3 - np.sqrt(5)) * k)


def blaschke_derivative_at_zeros(points):
    """B'(zeta_k) by the product rule, one factor at a time in Python complex
    arithmetic: the derivative -(|zeta_k|/zeta_k) / (1 - |zeta_k|^2) of the
    k-th factor at its zero (1 for the origin's factor z) times every other
    factor at zeta_k, multiplied in index order.  O(m^2) scalar operations.
    """
    points = [complex(p) for p in np.atleast_1d(points)]
    deriv = []
    for k, point in enumerate(points):
        rest = 1.0 + 0j
        for j, other in enumerate(points):
            if j == k:
                continue
            if other == 0:
                rest *= point
            else:
                rest *= (other - point) / (1.0 - other.conjugate() * point) * (abs(other) / other)
        slope = -(abs(point) / point) / (1.0 - abs(point) ** 2) if point else 1.0
        deriv.append(slope * rest)
    return np.array(deriv, dtype=complex)


def dense_psd_check(matrix, tol_herm=1e-12):
    """Smallest eigenvalue of a Hermitian matrix (full dense eigensolve)."""
    matrix = np.asarray(matrix, dtype=complex)
    scale = max(np.abs(matrix).max(), 1.0)
    if np.abs(matrix - matrix.conj().T).max() > tol_herm * scale:
        raise NotHermitian("matrix is not Hermitian within tolerance")
    return float(np.linalg.eigvalsh(matrix)[0])


def negative_coefficients_by_quadrature(symbol_values, nodes, exponent, j_count):
    """Coefficients of t^{-j}, j = 1..j_count, of R(t) t^exponent by trapezoid sums."""
    symbol_values = np.asarray(symbol_values, dtype=complex)
    nodes = np.asarray(nodes, dtype=complex)
    if symbol_values.shape != nodes.shape:
        raise GridMismatch("samples and nodes differ in length")
    js = np.arange(1, j_count + 1)
    return np.mean(symbol_values[None, :] * nodes[None, :] ** (exponent + js[:, None]),
                   axis=1)


def gram_entry_quadrature(symbol_values, nodes, mass_points, mass_weights,
                          row, col, j_count):
    """Metric Gram entry (row, col) on monomials, via quadrature only.

    delta - sum_j conj(c_j(row)) c_j(col) + sum_k conj(zeta_k)^row
    zeta_k^col nu_k, where c_j(m) is the t^{-j} coefficient of R t^m computed
    by trapezoid sums (no FFT).
    """
    q_row = negative_coefficients_by_quadrature(symbol_values, nodes, row, j_count)
    q_col = q_row if col == row else \
        negative_coefficients_by_quadrature(symbol_values, nodes, col, j_count)
    entry = (1.0 if row == col else 0.0) - complex(np.sum(np.conj(q_row) * q_col))
    mass_points = np.asarray(mass_points, dtype=complex)
    mass_weights = np.asarray(mass_weights, dtype=float)
    if mass_points.size:
        entry += complex(np.sum(mass_weights * np.conj(mass_points) ** row
                                * mass_points ** col))
    return entry


def constrained_minimum(matrix):
    """min x^H G x over x with x_0 = 1, by eliminating the free block.

    Equals the reciprocal of the (0,0) entry of G^{-1} (Schur complement),
    but computed from the trailing submatrix, so it cross-checks the kernel
    route without sharing its solve.
    """
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape[0] == 1:
        return float(matrix[0, 0].real)
    g = matrix[1:, 0]
    block = matrix[1:, 1:]
    y = np.linalg.solve(block, g)
    return float((matrix[0, 0] - np.vdot(y, g).conjugate()).real)


def theorem_check_per_column(space, dual, degree, gram_norms=False):
    """The complement-mapping check with one vector per call.

    Each complement column is solved from its own column of null(E^H),
    normalized by its norm on the grid (not from the solve) and mapped by the
    full ``apply_tau`` on its own; the converse pairs every normalized
    condition vector, mapped back, with every normalized test vector by one
    ``l2_inner`` call each.  With ``gram_norms`` a column is normalized by
    sqrt(x^H G x) instead, the norm in the metric the production check
    reads off its solve: on a grid where the symbol's coefficients alias
    visibly, the grid norm differs from it at the aliasing level.
    """
    def scaled(vec, factor):
        return TauVector(vec.f1 * factor, vec.f2 * factor, vec.mass_values * factor)

    symbol, masses = effective_data(space)
    grid = symbol.grid
    gram_l = build_gram_laurent(space, degree)
    band = 2 * degree + 1
    # null(E^H), one column at a time: the unit vectors at exponents
    # -degree..-1, then per mass the vector with 1 at its coordinate and
    # -conj(zeta)^p at exponent p = 0..degree
    nulls = []
    for index in range(degree):
        column = np.zeros(gram_l.shape[0], dtype=complex)
        column[index] = 1.0
        nulls.append(column)
    for k, point in enumerate(masses.points):
        column = np.zeros(gram_l.shape[0], dtype=complex)
        column[band + k] = 1.0
        for p in range(degree + 1):
            column[degree + p] = -np.conj(point) ** p
        nulls.append(column)
    complement = [np.linalg.solve(gram_l, column) for column in nulls]
    fwd_hardy = fwd_mass = 0.0
    for col in complement:
        vec = canonical_vector(symbol, laurent_values(grid, col[:band], degree),
                               col[band:])
        norm = np.sqrt(np.vdot(col, gram_l @ col).real) if gram_norms \
            else l2_norm(vec, symbol, masses)
        vec = scaled(vec, 1.0 / norm)
        report = check_hat_membership(apply_tau(vec, dual), dual.back)
        fwd_hardy = max(fwd_hardy, report.antianalytic_residual)
        fwd_mass = max(fwd_mass, report.mass_mismatch)

    tests = []
    for q in range(CONVERSE_POWERS + 1):
        tests.append(canonical_vector(symbol, dual.blaschke.values * grid.nodes ** q,
                                      np.zeros(masses.count, dtype=complex)))
    for k in range(masses.count):
        values = np.zeros(masses.count, dtype=complex)
        values[k] = dual.blaschke.derivative_at_zeros[k]
        tests.append(canonical_vector(
            symbol, dual.blaschke.values / (grid.nodes - masses.points[k]), values))
    tests = [scaled(v, 1.0 / l2_norm(v, symbol, masses)) for v in tests]
    converse = 0.0
    for p in range(CONVERSE_POWERS + 1):
        coeffs = np.zeros(p + 1, dtype=complex)
        coeffs[p] = 1.0
        cond = embed_analytic_vector(dual.dual_symbol, dual.dual_masses, coeffs)
        cond = scaled(cond, 1.0 / l2_norm(cond, dual.dual_symbol, dual.dual_masses))
        back = apply_tau(cond, dual.back)
        for test in tests:
            converse = max(converse, abs(l2_inner(back, test, symbol, masses)))
    return TheoremReport(fwd_hardy, fwd_mass, converse, len(complement))


def sandwich_check_four_grams(space, cutoff, rho, n, degree):
    """The sandwich check with its four primal Grams, their kernels, two PSD
    eigensolves and three variant duals each built on its own, also where
    two variants are equal; the tolerance from the largest diagonal entry
    of the four.  It asserts that every ordering holds within that
    tolerance, margin by margin."""
    if not 0.0 < rho <= 1.0:
        raise ValueError("rho must lie in (0, 1]; 1 gives the degenerate equalities")
    base = shifted(space, n)
    sp_cut = regularized(base, mass_cutoff=cutoff)
    sp_rho = regularized(base, rho=rho)
    sp_both = regularized(base, rho=rho, mass_cutoff=cutoff)

    gamma = analytic_hankel(base, degree)
    g_alpha = assemble_gram(base, gamma)
    g_cut = assemble_gram(sp_cut, gamma)
    g_rho = assemble_gram(sp_rho, gamma)
    g_both = assemble_gram(sp_both, gamma)
    scale = max(float(np.diag(g).real.max()) for g in (g_alpha, g_cut, g_rho, g_both))
    tol = max(TOL_ORDER, (degree + 1) * np.finfo(float).eps * scale)

    k_alpha = kernel_at_origin(g_alpha).norm
    k_cut = kernel_at_origin(g_cut).norm
    k_rho = kernel_at_origin(g_rho).norm
    k_both = kernel_at_origin(g_both).norm

    margin_cutoff = k_cut - k_alpha
    margin_scaled = k_alpha - k_rho

    psd_cut = float(np.linalg.eigvalsh(g_alpha - g_cut)[0])
    psd_rho = float(np.linalg.eigvalsh(g_rho - g_alpha)[0])

    variants = {"cutoff": (sp_cut, k_cut), "scaled": (sp_rho, k_rho),
                "both": (sp_both, k_both)}
    duals, te0 = {}, {}
    for label, (sp, _) in variants.items():
        duals[label], te0[label] = _dual_parts(shifted(sp, 1))

    chain_upper = (te0["scaled"] / te0["cutoff"]) * k_both - k_cut

    residuals = {}
    for label, (_, k_variant) in variants.items():
        t_at_zero, dual_space = duals[label]
        k_dual = kernel_at_origin(build_gram_analytic(dual_space, degree)).norm
        residuals[label] = abs(t_at_zero * k_variant * k_dual - 1.0)

    margins = {"K(cutoff) >= K(alpha)": margin_cutoff,
               "K(alpha) >= K(scaled)": margin_scaled,
               "Gram(alpha) - Gram(cutoff) PSD": psd_cut,
               "Gram(scaled) - Gram(alpha) PSD": psd_rho,
               "K(cutoff) <= (T_e^rho(0)/T_e(0)) K(both)": chain_upper}
    failed = {name: margin for name, margin in margins.items() if margin < -tol}
    assert not failed, f"orderings violated beyond tolerance {tol:.2g}: {failed}"
    return SandwichReport(
        k_alpha=k_alpha, k_cutoff=k_cut, k_scaled=k_rho, k_both=k_both,
        margin_cutoff=margin_cutoff, margin_scaled=margin_scaled,
        psd_margin_cutoff=psd_cut, psd_margin_scaled=psd_rho,
        chain_upper_slack=chain_upper, tolerance=tol,
        identity_residuals=residuals,
    )
