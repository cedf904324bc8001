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
    chunked_vecdot,
    evaluate_analytic,
    riesz_project_values,
    symbol_from_samples,
)
from .errors import DegenerateDerivative, GridMismatch
from .kernels import kernel_at_origin
from .spaces import (
    GramMatrix,
    SpaceData,
    build_gram_analytic,
    build_gram_laurent,
    effective_data,
    shifted,
)
from .tolerances import TOL_DERIV

UNITARY = "unitary"
PRINTED = "printed"

# rows per block of the theorem check's stacked vectors: at 16384/64 blocks of
# 2 to 8 rows are equally fast and a fifth faster than single rows, and 2 has
# the smallest peak memory of them
_THEOREM_BLOCK = 2


@dataclass(frozen=True, eq=False)
class DualData:
    """Dual symbol/masses plus the primal grid data needed to apply the map.

    The duality is an involution, so the dual side is itself the primal side
    of dual data: ``back``, the dual data of :meth:`dual_space`, carries its
    outer function, masses and T~_e at those masses.  It and the grid
    factors of the involution, ``tau_multipliers``, are built on first use.
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
    outer_at_masses: np.ndarray  # T_e(zeta_k)
    inv_T_deriv: np.ndarray  # (1/T)'(zeta_k) = B'(zeta_k)/T_e(zeta_k)

    @cached_property
    def back(self) -> "DualData":
        """The dual data of the dual space, in the same convention."""
        return build_dual(self.dual_space(), self.provenance)

    @cached_property
    def tau_multipliers(self) -> tuple[np.ndarray, np.ndarray]:
        """The grid factors t conj(B)/conj(T_e) and t/T_e of :func:`apply_tau`."""
        t = self.symbol.grid.nodes
        return (t * np.conj(self.blaschke.values) / np.conj(self.outer.values),
                t / self.outer.values)

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
        outer_at_masses = outer.value_at(masses.points)
        inv_t_deriv = deriv / outer_at_masses
        if convention == UNITARY:
            dual_weights = 1.0 / (masses.weights * np.abs(inv_t_deriv) ** 2)
        else:
            dual_weights = np.abs(inv_t_deriv) ** 2 / masses.weights
        dual_masses = MassSet(np.conj(masses.points), dual_weights)
    else:
        outer_at_masses = inv_t_deriv = np.empty(0, dtype=complex)
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
        outer_at_masses=outer_at_masses,
        inv_T_deriv=inv_t_deriv,
    )


dual_of = build_dual  # the same function, under the name the CLI and README use


# ---------------------------------------------------------------------------
# vectors of the two-sided space and the involution
#
# Every function here takes one vector or a stack of them: grid samples and
# mass values lie along the last axis, and leading axes index the vectors.
# A single vector gives Python scalars, a stack gives arrays of its shape.


@dataclass(frozen=True, eq=False)
class TauVector:
    """An element of the two-sided space: circle pair plus point-mass values.

    ``f1`` and ``f2`` have the grid along their last axis and ``mass_values``
    the masses; leading axes, the same on all three, make a stack.
    """

    f1: np.ndarray
    f2: np.ndarray
    mass_values: np.ndarray


def _unstacked(x):
    """A 0-d result as a Python scalar; results of a stack stay arrays."""
    return x.item() if np.ndim(x) == 0 else x


def canonical_vector(symbol: SymbolData, f1, mass_values=None) -> TauVector:
    """Vector with the canonical second component f2 = -P_-(R f1).

    ``mass_values`` defaults to an empty block; spaces with masses need the
    point values supplied explicitly (they are free coordinates).
    """
    grid = symbol.grid
    f1 = grid.check(f1)
    f2 = riesz_project_values(symbol.values * f1, "antianalytic")
    np.negative(f2, out=f2)
    if mass_values is None:
        mass_values = np.empty(f1.shape[:-1] + (0,), dtype=complex)
    return TauVector(f1, f2, np.asarray(mass_values, dtype=complex))


def _analytic_layout(grid, coeffs) -> np.ndarray:
    """FFT-layout array of the polynomial sum_p coeffs[..., p] t**p.

    The polynomial must fit the analytic half of the grid's band, so its
    grid samples are ``grid.values`` of the result and its values inside the
    disk are ``evaluate_analytic`` of it.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    degree = coeffs.shape[-1] - 1
    if degree >= grid.size // 2:
        raise ValueError(f"polynomial of degree {degree} exceeds the "
                         f"analytic band of a {grid.size}-point grid")
    full = np.zeros(coeffs.shape[:-1] + (grid.size,), dtype=complex)
    full[..., : degree + 1] = coeffs
    return full


def embed_analytic_vector(symbol: SymbolData, masses: MassSet, coeffs) -> TauVector:
    """Embed an analytic polynomial (coefficient vector) with its mass values."""
    grid = symbol.grid
    full = _analytic_layout(grid, coeffs)
    return canonical_vector(symbol, grid.values(full),
                            evaluate_analytic(full, masses.points))


def _weighted_pair(vector: TauVector, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(f1 + conj(R) f2, R f1 + f2): the 2x2 weight [[1, conj R], [R, 1]]
    of the two-sided space applied to the circle pair."""
    a = np.conj(r) * vector.f2
    a += vector.f1
    b = r * vector.f1
    b += vector.f2
    return a, b


def _check_mass_block(vector: TauVector, masses: MassSet, message: str) -> None:
    if vector.mass_values.shape[-1] != masses.count:
        raise GridMismatch(message)


def l2_inner(u: TauVector, v: TauVector, symbol: SymbolData, masses: MassSet):
    """Inner product of the two-sided space, conjugate-linear in ``v``.

    Circle part: the 2x2 weight [[1, conj R], [R, 1]] integrated over the
    grid; mass part: sum nu_k u_k conj(v_k).  Stacks pair row by row.
    """
    a, b = _weighted_pair(u, symbol.values)
    inner = (chunked_vecdot(v.f1, a) + chunked_vecdot(v.f2, b)) / symbol.grid.size
    if masses.count:
        message = "mass value blocks do not match the mass set"
        _check_mass_block(u, masses, message)
        _check_mass_block(v, masses, message)
        inner += np.vecdot(v.mass_values, masses.weights * u.mass_values)
    return _unstacked(inner)


def l2_norm(u: TauVector, symbol: SymbolData, masses: MassSet):
    """sqrt <u, u>, with the circle part ||f1||^2 + ||f2||^2 + 2 Re<f2, R f1>:
    one grid product and no weighted pair (see :func:`l2_inner`)."""
    square = (chunked_vecdot(u.f1, u.f1).real + chunked_vecdot(u.f2, u.f2).real
              + 2.0 * chunked_vecdot(u.f2, symbol.values * u.f1).real) / symbol.grid.size
    if masses.count:
        _check_mass_block(u, masses, "mass value blocks do not match the mass set")
        square += np.vecdot(u.mass_values, masses.weights * u.mass_values).real
    return _unstacked(np.sqrt(np.maximum(square, 0.0)))


def _l2_gram(u: TauVector, v: TauVector, symbol: SymbolData,
             masses: MassSet) -> np.ndarray:
    """Inner products <u_i, v_j> of two stacks, as one matrix product.

    The weight is Hermitian, so <u, v> = sum conj(W v) . u.
    """
    a, b = _weighted_pair(v, symbol.values)
    gram = u.f1 @ np.conj(a, out=a).T
    gram += u.f2 @ np.conj(b, out=b).T
    gram /= symbol.grid.size
    if masses.count:
        gram += (masses.weights * u.mass_values) @ np.conj(v.mass_values).T
    return gram


def _tau_f1_and_masses(vector: TauVector, dual: DualData) -> TauVector:
    """f1 and the mass values of the tau image of ``vector``; its f2 is None.

    The membership check reads only these two parts, so the theorem check
    maps its complement columns through this half of :func:`apply_tau`.
    """
    grid = dual.symbol.grid
    f1 = grid.check(vector.f1)
    f2 = grid.check(vector.f2)
    _check_mass_block(vector, dual.masses,
                      "mass value block does not match the primal mass set")
    work = np.conj(dual.symbol.values) * f2
    work += f1
    work *= dual.tau_multipliers[0]
    mass_tau = -np.conj(dual.inv_T_deriv) * vector.mass_values * dual.masses.weights
    return TauVector(grid.conjugate_reindex(work), None, mass_tau)


def apply_tau(vector: TauVector, dual: DualData) -> TauVector:
    """The involution: L^2(alpha) -> L^2(alpha~), unitary on regular data.

    Circle part (evaluated at conj t, then resampled onto the standard grid):

        f1~(conj t) = t (conj B / conj T_e) (f1 + conj(R) f2)(t)
        f2~(conj t) = t (1 / T_e) (R f1 + f2)(t)

    with both grid factors cached on ``dual`` (``tau_multipliers``).
    Mass part: f~(conj zeta_k) = -conj((1/T)'(zeta_k)) f(zeta_k) nu_k.  The
    vector map itself is convention-independent; only the dual weights that
    measure the image differ between the two pairing conventions.
    """
    image = _tau_f1_and_masses(vector, dual)
    work = dual.symbol.values * vector.f1
    work += vector.f2
    work *= dual.tau_multipliers[1]
    return TauVector(image.f1, dual.symbol.grid.conjugate_reindex(work), image.mass_values)


# ---------------------------------------------------------------------------
# Hardy-subspace membership on the condition side


@dataclass(frozen=True, eq=False)
class HatMembershipReport:
    """Residuals of the membership conditions g = T_e f1 in H^2 and
    f(zeta_k) = g(zeta_k)/T_e(zeta_k); arrays for a stack of vectors."""

    antianalytic_residual: float
    mass_mismatch: float


def check_hat_membership(vector: TauVector, data: DualData) -> HatMembershipReport:
    """Membership residuals of ``vector`` on the primal side of ``data``.

    Reads T_e, the masses zeta_k and T_e(zeta_k) from ``data``; for a
    tau-image, which lives on the dual side, pass ``dual.back``.
    """
    outer, masses = data.outer, data.masses
    grid = outer.grid
    g = outer.values * grid.check(vector.f1)
    g_coeffs = np.fft.fft(g, norm="forward", out=g)
    anti = g_coeffs[..., grid.size // 2:]  # frequencies p <= -1
    anti = np.sqrt(chunked_vecdot(anti, anti).real)
    if masses.count:
        g_at_points = evaluate_analytic(g_coeffs, masses.points)
        mismatch = np.abs(vector.mass_values
                          - g_at_points / data.outer_at_masses).max(axis=-1)
    else:
        mismatch = np.zeros(g.shape[:-1])
    return HatMembershipReport(_unstacked(anti), _unstacked(mismatch))


# ---------------------------------------------------------------------------
# the duality theorem and its scalar corollary


def _laurent_values(grid, coeffs_band, half_band):
    """Grid samples of Laurent polynomials given coefficients on -M..M (last axis)."""
    coeffs_band = np.asarray(coeffs_band)
    full = np.zeros(coeffs_band.shape[:-1] + (grid.size,), dtype=complex)
    full[..., (np.arange(coeffs_band.shape[-1]) - half_band) % grid.size] = coeffs_band
    return np.fft.ifft(full, norm="forward", out=full)


@dataclass(frozen=True, eq=False)
class TheoremReport:
    """Residuals for the complement-mapping theorem.

    forward_*: worst membership residuals, each relative to its vector's
    norm, of tau-images of a basis of the complement of the embedded
    analytic polynomials in L^2(alpha).
    converse_orthogonality: worst |<tau-image of a condition-side vector,
    test vector>| against B h and B/(t - zeta_k).
    """

    forward_hardy_residual: float
    forward_mass_residual: float
    converse_orthogonality: float
    complement_dimension: int


def _complement(gram_l: GramMatrix, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Columns N spanning null(E^H) and X = G^{-1} N, the complement of the
    embedded analytic polynomials E in the metric G of ``gram_l``.

    E maps z^p, p = 0..M, to exponent p plus the values zeta_k^p at the
    masses, so null(E^H) is explicit: the unit vectors at exponents -M..-1,
    and per mass k the vector that is 1 at mass coordinate k and
    -conj(zeta_k)^p at exponent p.  Then E^H G X = E^H N = 0, and the
    complement has dimension M + m with no rank threshold.
    """
    half_band = int(gram_l.exponents[-1])
    band = 2 * half_band + 1
    null = np.zeros((gram_l.order, half_band + points.size), dtype=complex)
    null[np.arange(half_band), np.arange(half_band)] = 1.0
    k = np.arange(points.size)
    null[half_band:band, half_band + k] = -np.conj(points) ** np.arange(half_band + 1)[:, None]
    null[band + k, half_band + k] = 1.0
    return null, np.linalg.solve(gram_l.entries, null)


def _blocks(count: int):
    """Slices of ``_THEOREM_BLOCK`` consecutive rows covering 0..count-1."""
    return (slice(start, min(start + _THEOREM_BLOCK, count))
            for start in range(0, count, _THEOREM_BLOCK))


def theorem_check(space: SpaceData, dual: DualData, degree: int,
                  hankel: Optional[int] = None,
                  converse_powers: int = 8) -> TheoremReport:
    """Residuals of the complement-mapping theorem on the given truncation.

    Forward: the complement of the embedded H^2 is one solve with the
    Laurent Gram, G^{-1} null(E^H) (:func:`_complement`), and each column's
    norm comes from that solve.  The columns go through the map in blocks of
    ``_THEOREM_BLOCK`` rows, computing only the f1 and mass parts of their
    images, which is all the membership check reads; each residual is
    divided by its vector's norm.  Converse: the condition vectors are
    mapped back in blocks into one stack, and one Gram of that stack against
    the test vectors, also built in blocks, gives every pairing, with both
    norms applied to its entries.  Besides that stack, no more than a block
    of vectors is alive at once.
    """
    symbol, masses = dual.symbol, dual.masses
    grid = symbol.grid
    half_band = degree
    gram_l = build_gram_laurent(space, half_band, hankel)

    # complement of the embedded analytic columns, one vector per row; its
    # norms are x^H G x = n^H x, read off the solve
    null, complement = (part.T for part in _complement(gram_l, masses.points))
    norms = np.sqrt(np.vecdot(null, complement).real)

    fwd_hardy = 0.0
    fwd_mass = 0.0
    band = 2 * half_band + 1
    for rows in _blocks(complement.shape[0]):
        cols = complement[rows]
        vec = canonical_vector(symbol, _laurent_values(grid, cols[:, :band], half_band),
                               cols[:, band:])
        report = check_hat_membership(_tau_f1_and_masses(vec, dual), dual.back)
        fwd_hardy = max(fwd_hardy, float((report.antianalytic_residual / norms[rows]).max()))
        fwd_mass = max(fwd_mass, float((report.mass_mismatch / norms[rows]).max()))

    # converse: condition-side vectors (the embedded monomials u^p of the
    # dual space) mapped back must annihilate B h and B/(t - zeta_k), which
    # span the closure-side subspace
    count = converse_powers + 1
    monomials = np.eye(count, dtype=complex)
    back = TauVector(np.empty((count, grid.size), dtype=complex),
                     np.empty((count, grid.size), dtype=complex),
                     np.empty((count, masses.count), dtype=complex))
    condition_norms = np.empty(count)
    for rows in _blocks(count):
        condition = embed_analytic_vector(dual.dual_symbol, dual.dual_masses,
                                          monomials[rows])
        condition_norms[rows] = l2_norm(condition, dual.dual_symbol, dual.dual_masses)
        image = apply_tau(condition, dual.back)
        back.f1[rows], back.f2[rows], back.mass_values[rows] = \
            image.f1, image.f2, image.mass_values

    converse = 0.0
    for rows in _blocks(count + masses.count):
        tests = _converse_tests(symbol, masses, dual.blaschke, converse_powers, rows)
        gram = _l2_gram(back, tests, symbol, masses)
        gram /= condition_norms[:, None] * l2_norm(tests, symbol, masses)
        converse = max(converse, float(np.abs(gram).max()))

    return TheoremReport(fwd_hardy, fwd_mass, converse, complement.shape[0])


def _converse_tests(symbol: SymbolData, masses: MassSet, blaschke: BlaschkeData,
                    powers: int, rows: slice) -> TauVector:
    """Rows ``rows`` of the converse test vectors: B t^q for q = 0..powers,
    then B/(t - zeta_k), whose zero at zeta_k divides out (value B'(zeta_k))."""
    t = symbol.grid.nodes
    index = np.arange(rows.start, rows.stop)
    q = index[index <= powers]
    k = index[index > powers] - (powers + 1)
    f1 = np.concatenate((blaschke.values * t ** q[:, None],
                         blaschke.values / (t - masses.points[k, None])))
    values = np.zeros((index.size, masses.count), dtype=complex)
    values[q.size + np.arange(k.size), k] = blaschke.derivative_at_zeros[k]
    return canonical_vector(symbol, f1, values)


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
    symbol, masses = dual.symbol, dual.masses
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
