"""The scattering dual data and the unitary involution between the two spaces.

Given regular data (symbol R, masses nu) with outer factor T_e, Blaschke
product B over the mass points, and T = T_e/B, the dual symbol is

    R~(conj t) = -R(t) conj(T_e(t)) B(t) / T_e(t),

supported on the conjugated grid, and the dual masses sit at conj(zeta_k).
The printed pairing nu~ * nu = |(1/T)'(zeta_k)|^2 is *not* compatible with
unitarity of the point-mass component of the involution; the default
convention here is the unitarity-consistent

    nu~ = 1 / (nu * |(1/T)'(zeta_k)|^2),

with (1/T)'(zeta_k) = B'(zeta_k)/T_e(zeta_k) evaluated in closed form.  Both
conventions are selectable and the choice is recorded in ``provenance``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .circle import (
    BlaschkeData,
    MassSet,
    OuterData,
    SymbolData,
    build_blaschke,
    build_outer,
    evaluate_analytic,
    riesz_project,
    riesz_project_values,
    symbol_from_samples,
)
from .errors import DegenerateDerivative, GridMismatch
from .kernels import kernel_at_origin
from .spaces import (
    SpaceData,
    build_gram_analytic,
    build_gram_laurent,
    effective_data,
    embed_h2,
    shifted,
)
from .tolerances import TOL_DERIV

UNITARY = "unitary"
PRINTED = "printed"


@dataclass(frozen=True, eq=False)
class DualData:
    """Dual symbol/masses plus the primal grid data needed to apply the map.

    The dual outer function ``outer_dual`` is built on first use.
    """

    dual_symbol: SymbolData
    dual_masses: MassSet
    T_at_zero: float
    provenance: str
    # primal context
    symbol: SymbolData
    masses: MassSet
    outer: OuterData
    blaschke: BlaschkeData
    inv_T_deriv: np.ndarray  # (1/T)'(zeta_k) = B'(zeta_k)/T_e(zeta_k)

    @cached_property
    def outer_dual(self) -> OuterData:
        return build_outer(self.dual_symbol)

    def dual_space(self) -> SpaceData:
        return SpaceData(self.dual_symbol, self.dual_masses)


def build_dual(space: SpaceData, convention: str = UNITARY) -> DualData:
    """Construct the dual data of the space's effective data.

    The effective symbol and masses are resolved once, together with their
    outer function T_e and Blaschke product B.
    """
    if convention not in (UNITARY, PRINTED):
        raise ValueError(f"convention must be 'unitary' or 'printed', got {convention!r}")
    symbol, masses = effective_data(space)
    outer = build_outer(symbol)
    blaschke = build_blaschke(masses, outer)
    grid = symbol.grid

    # dual symbol on the conjugated variable, resampled onto the standard grid
    vals_t = -symbol.values * np.conj(outer.values) * blaschke.values / outer.values
    dual_symbol = symbol_from_samples(grid, grid.conjugate_reindex(vals_t))

    if masses.count:
        deriv = blaschke.derivative_at_zeros
        if np.any(np.abs(deriv) < TOL_DERIV):
            raise DegenerateDerivative(
                "Blaschke derivative vanishes at a mass point (coinciding points?)"
            )
        te_at_points = outer.value_at(masses.points)
        inv_t_deriv = deriv / te_at_points
        if convention == UNITARY:
            dual_weights = 1.0 / (masses.weights * np.abs(inv_t_deriv) ** 2)
        else:
            dual_weights = np.abs(inv_t_deriv) ** 2 / masses.weights
        dual_masses = MassSet(np.conj(masses.points), dual_weights)
    else:
        inv_t_deriv = np.empty(0, dtype=complex)
        dual_masses = MassSet.empty()

    return DualData(
        dual_symbol=dual_symbol,
        dual_masses=dual_masses,
        T_at_zero=blaschke.T_at_zero,
        provenance=convention,
        symbol=symbol,
        masses=masses,
        outer=outer,
        blaschke=blaschke,
        inv_T_deriv=inv_t_deriv,
    )


dual_of = build_dual  # the same function, under the name the CLI and README use


# ---------------------------------------------------------------------------
# vectors of the two-sided space and the involution


@dataclass(frozen=True, eq=False)
class TauVector:
    """An element of the two-sided space: circle pair plus point-mass values."""

    f1: np.ndarray
    f2: np.ndarray
    mass_values: np.ndarray


def canonical_vector(symbol: SymbolData, f1, mass_values=None) -> TauVector:
    """Vector with the canonical second component f2 = -P_-(R f1).

    ``mass_values`` defaults to an empty block; spaces with masses need the
    point values supplied explicitly (they are free coordinates).
    """
    grid = symbol.grid
    f1 = grid.check(f1)
    f2 = -riesz_project_values(symbol.values * f1, "antianalytic")
    if mass_values is None:
        mass_values = np.empty(0, dtype=complex)
    return TauVector(f1, f2, np.asarray(mass_values, dtype=complex))


def _analytic_layout(grid, coeffs) -> np.ndarray:
    """FFT-layout array of the polynomial sum_p coeffs[p] t**p.

    The polynomial must fit the analytic half of the grid's band, so its
    grid samples are ``grid.values`` of the result and its values inside the
    disk are ``evaluate_analytic`` of it.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.size > grid.size // 2:
        raise ValueError(f"polynomial of degree {coeffs.size - 1} exceeds the "
                         f"analytic band of a {grid.size}-point grid")
    full = np.zeros(grid.size, dtype=complex)
    full[: coeffs.size] = coeffs
    return full


def embed_analytic_vector(symbol: SymbolData, masses: MassSet, coeffs) -> TauVector:
    """Embed an analytic polynomial (coefficient vector) with its mass values."""
    grid = symbol.grid
    full = _analytic_layout(grid, coeffs)
    return canonical_vector(symbol, grid.values(full),
                            evaluate_analytic(full, masses.points))


def l2_inner(u: TauVector, v: TauVector, symbol: SymbolData,
             masses: MassSet) -> complex:
    """Inner product of the two-sided space, conjugate-linear in ``v``.

    Circle part: the 2x2 weight [[1, conj R], [R, 1]] integrated over the
    grid; mass part: sum nu_k u_k conj(v_k).
    """
    grid = symbol.grid
    r = symbol.values
    circle = np.mean(
        np.conj(v.f1) * (u.f1 + np.conj(r) * u.f2)
        + np.conj(v.f2) * (r * u.f1 + u.f2)
    )
    if masses.count:
        if u.mass_values.size != masses.count or v.mass_values.size != masses.count:
            raise GridMismatch("mass value blocks do not match the mass set")
        circle = circle + np.sum(masses.weights * u.mass_values * np.conj(v.mass_values))
    return complex(circle)


def l2_norm(u: TauVector, symbol: SymbolData, masses: MassSet) -> float:
    return float(np.sqrt(max(l2_inner(u, u, symbol, masses).real, 0.0)))


def apply_tau(vector: TauVector, dual: DualData) -> TauVector:
    """The involution: L^2(alpha) -> L^2(alpha~), unitary on regular data.

    Circle part (evaluated at conj t, then resampled onto the standard grid):

        f1~(conj t) = t (conj B / conj T_e) (f1 + conj(R) f2)(t)
        f2~(conj t) = t (1 / T_e) (R f1 + f2)(t)

    Mass part: f~(conj zeta_k) = -conj((1/T)'(zeta_k)) f(zeta_k) nu_k.  The
    vector map itself is convention-independent; only the dual weights that
    measure the image differ between the two pairing conventions.
    """
    symbol, outer, blaschke = dual.symbol, dual.outer, dual.blaschke
    grid = symbol.grid
    f1 = grid.check(vector.f1)
    f2 = grid.check(vector.f2)
    t = grid.nodes
    r = symbol.values
    a = f1 + np.conj(r) * f2
    b = r * f1 + f2
    f1_tau = grid.conjugate_reindex(t * np.conj(blaschke.values) / np.conj(outer.values) * a)
    f2_tau = grid.conjugate_reindex(t * b / outer.values)
    if dual.masses.count:
        if vector.mass_values.size != dual.masses.count:
            raise GridMismatch("mass value block does not match the primal mass set")
        mass_tau = -np.conj(dual.inv_T_deriv) * vector.mass_values * dual.masses.weights
    else:
        mass_tau = np.empty(0, dtype=complex)
    return TauVector(f1_tau, f2_tau, mass_tau)


# ---------------------------------------------------------------------------
# Hardy-subspace membership on the condition side


@dataclass(frozen=True, eq=False)
class HatMembershipReport:
    """Residuals of the membership conditions g = T_e f1 in H^2 and
    f(zeta_k) = g(zeta_k)/T_e(zeta_k)."""

    antianalytic_residual: float
    mass_mismatch: float


def check_hat_membership(vector: TauVector, outer: OuterData,
                         masses: MassSet) -> HatMembershipReport:
    return _hat_membership(vector, outer, masses, outer.value_at(masses.points))


def _hat_membership(vector: TauVector, outer: OuterData, masses: MassSet,
                    te_at_points: np.ndarray) -> HatMembershipReport:
    """:func:`check_hat_membership` with T_e already evaluated at the mass points."""
    grid = outer.grid
    g = outer.values * grid.check(vector.f1)
    g_coeffs = grid.coefficients(g)
    anti = float(np.sqrt(np.sum(np.abs(riesz_project(g_coeffs, "antianalytic")) ** 2)))
    if masses.count:
        g_at_points = evaluate_analytic(g_coeffs, masses.points)
        mismatch = float(np.abs(vector.mass_values - g_at_points / te_at_points).max())
    else:
        mismatch = 0.0
    return HatMembershipReport(anti, mismatch)


# ---------------------------------------------------------------------------
# the duality theorem and its scalar corollary


def _laurent_values(grid, coeffs_band, half_band):
    """Grid samples of a Laurent polynomial given coefficients on -M..M."""
    full = np.zeros(grid.size, dtype=complex)
    full[(np.arange(len(coeffs_band)) - half_band) % grid.size] = coeffs_band
    return grid.values(full)


def _scaled(vector: TauVector, factor: float) -> TauVector:
    return TauVector(vector.f1 * factor, vector.f2 * factor,
                     vector.mass_values * factor)


@dataclass(frozen=True, eq=False)
class TheoremReport:
    """Residuals for the complement-mapping theorem.

    forward_*: worst membership residuals of tau-images of an orthonormal
    basis of L^2(alpha) minus the embedded analytic polynomials.
    converse_orthogonality: worst |<tau-image of a condition-side vector,
    test vector>| against B h and B/(t - zeta_k).
    """

    forward_hardy_residual: float
    forward_mass_residual: float
    converse_orthogonality: float
    complement_dimension: int


def _null_space(a: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning the null space of ``a``, by a full SVD.

    Singular values up to ``s.max() * eps * max(a.shape)`` count as zero.
    """
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    rank = int(np.sum(s > s.max(initial=0.0) * np.finfo(float).eps * max(a.shape)))
    return vh[rank:].conj().T


def theorem_check(space: SpaceData, dual: DualData, degree: int,
                  hankel: Optional[int] = None,
                  converse_powers: int = 8) -> TheoremReport:
    symbol, masses = effective_data(space)
    grid = symbol.grid
    half_band = degree
    gram_l = build_gram_laurent(space, half_band, hankel)
    embed = embed_h2(space, degree, half_band)

    # orthogonal complement of the embedded analytic columns
    complement = _null_space(embed.conj().T @ gram_l.entries)

    fwd_hardy = 0.0
    fwd_mass = 0.0
    band = 2 * half_band + 1
    # T~_e at the dual masses conj(zeta_k), shared by every column
    te_dual = dual.outer_dual.value_at(dual.dual_masses.points)
    for col in complement.T:
        f1 = _laurent_values(grid, col[:band], half_band)
        vec = canonical_vector(symbol, f1, col[band:])
        vec = _scaled(vec, 1.0 / l2_norm(vec, symbol, masses))
        image = apply_tau(vec, dual)
        report = _hat_membership(image, dual.outer_dual, dual.dual_masses, te_dual)
        fwd_hardy = max(fwd_hardy, report.antianalytic_residual)
        fwd_mass = max(fwd_mass, report.mass_mismatch)

    # converse: condition-side vectors mapped back must annihilate B h and
    # B/(t - zeta_k), which span the closure-side subspace
    dual_back = build_dual(dual.dual_space(), dual.provenance)

    tests = []
    for q in range(converse_powers + 1):
        f1 = dual.blaschke.values * grid.nodes ** q
        tests.append(canonical_vector(symbol, f1,
                                      np.zeros(masses.count, dtype=complex)))
    for k in range(masses.count):
        # B/(t - zeta_k): the zero at zeta_k divides out, value B'(zeta_k)
        f1 = dual.blaschke.values / (grid.nodes - masses.points[k])
        values = np.zeros(masses.count, dtype=complex)
        values[k] = dual.blaschke.derivative_at_zeros[k]
        tests.append(canonical_vector(symbol, f1, values))
    tests = [_scaled(v, 1.0 / l2_norm(v, symbol, masses)) for v in tests]

    converse = 0.0
    for p in range(converse_powers + 1):
        back = apply_tau(
            _unit_condition_vector(dual, p), dual_back
        )
        for test in tests:
            converse = max(converse, abs(l2_inner(back, test, symbol, masses)))

    return TheoremReport(fwd_hardy, fwd_mass, converse, complement.shape[1])


def _unit_condition_vector(dual: DualData, power: int) -> TauVector:
    """Unit-norm embedded monomial u^p of the dual space (a condition-side vector)."""
    coeffs = np.zeros(power + 1, dtype=complex)
    coeffs[power] = 1.0
    vec = embed_analytic_vector(dual.dual_symbol, dual.dual_masses, coeffs)
    return _scaled(vec, 1.0 / l2_norm(vec, dual.dual_symbol, dual.dual_masses))


@dataclass(frozen=True, eq=False)
class IdentityReport:
    """The scalar duality identity T(0) K^{alpha_{-1}}(0) K^{alpha~}(0) = 1."""

    product: float
    residual: float
    t_at_zero: float
    kernel_shifted: float
    kernel_dual: float
    vector_residual: float


def duality_identity(space: SpaceData, dual: DualData, degree: int,
                     hankel: Optional[int] = None) -> IdentityReport:
    """Evaluate the identity and its vector form on the given truncation.

    The vector form checks that the involution carries z^{-1} K^{alpha_{-1}}
    onto the normalized dual kernel.
    """
    symbol, masses = effective_data(space)
    grid = symbol.grid

    down = shifted(space, -1)
    gram_down = build_gram_analytic(down, degree, hankel)
    kernel_down = kernel_at_origin(gram_down)

    gram_dual = build_gram_analytic(dual.dual_space(), degree, hankel)
    kernel_dual = kernel_at_origin(gram_dual)

    product = dual.T_at_zero * kernel_down.norm * kernel_dual.norm
    residual = abs(product - 1.0)

    # vector form: tau(z^{-1} K^{alpha_{-1}}) against the dual kernel
    k_full = _analytic_layout(grid, kernel_down.normalized())
    f1 = np.conj(grid.nodes) * grid.values(k_full)
    mass_values = masses.points ** (-1) * evaluate_analytic(k_full, masses.points)
    vec = canonical_vector(symbol, f1, mass_values)
    image = apply_tau(vec, dual)

    khat = kernel_dual.normalized()
    expected = embed_analytic_vector(dual.dual_symbol, dual.dual_masses, khat)
    diff = TauVector(image.f1 - expected.f1, image.f2 - expected.f2,
                     image.mass_values - expected.mass_values)
    vector_residual = l2_norm(diff, dual.dual_symbol, dual.dual_masses)

    return IdentityReport(product, residual, dual.T_at_zero,
                          kernel_down.norm, kernel_dual.norm, vector_residual)
