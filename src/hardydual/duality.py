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

The complement-mapping theorem (:func:`theorem_check`) does not go through
:func:`apply_tau` and :func:`check_hat_membership` column by column: its
columns are Laurent polynomials, for which P_-(R f1) splits exactly into a
grid product and a short convolution (:class:`_LaurentProjection`), so the
membership residuals of a column's tau image are one linear grid map of
it, with factors built once per check.  Kernels come from ``spaces``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .circle import (
    BlaschkeData,
    MassSet,
    OuterData,
    SymbolData,
    _band_top,
    _integer,
    build_blaschke,
    build_outer,
    chunked_vecdot,
    evaluate_analytic,
    evaluate_with_table,
    power_table,
    riesz_project_values,
    symbol_from_samples,
)
from .errors import GridMismatch
from .spaces import (
    KernelVector,
    SpaceData,
    _roundoff,
    build_gram_analytic,
    build_gram_laurent,
    effective_data,
    kernel_at_point,
    shifted,
)

UNITARY = "unitary"
PRINTED = "printed"

# the theorem check's converse maps the dual monomials u^0..u^CONVERSE_POWERS back
CONVERSE_POWERS = 8

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


def _pairing(convention) -> str:
    """``convention`` if it names a dual-mass pairing, else one ValueError."""
    if convention in (UNITARY, PRINTED):
        return convention
    raise ValueError(f"convention must be '{UNITARY}' or '{PRINTED}', got {convention!r}")


def build_dual(space: SpaceData, convention: str = UNITARY) -> DualData:
    """Construct the dual data of the space's effective data.

    The effective symbol and masses are resolved once, together with their
    outer function T_e and Blaschke product B.
    """
    convention = _pairing(convention)
    symbol, masses = effective_data(space)
    outer = build_outer(symbol)
    blaschke = build_blaschke(masses, outer)
    grid = symbol.grid

    # dual symbol on the conjugated variable, resampled onto the standard grid
    vals_t = -symbol.values * np.conj(outer.values) * blaschke.values / outer.values
    dual_symbol = symbol_from_samples(grid, grid.conjugate_reindex(vals_t))

    if masses.count:
        outer_at_masses = outer.value_at(masses.points)
        inv_t_deriv = blaschke.derivative_at_zeros / outer_at_masses
        # |(1/T)'(zeta_k)|^2 may leave double range, and a weight with it
        with np.errstate(all="ignore"):
            if convention == UNITARY:
                dual_weights = 1.0 / (masses.weights * np.abs(inv_t_deriv) ** 2)
            else:
                dual_weights = np.abs(inv_t_deriv) ** 2 / masses.weights
        beyond = np.flatnonzero(~((dual_weights > 0) & (dual_weights < np.inf)))
        if beyond.size:
            k = beyond[0]
            raise ValueError(f"the dual weight at mass point {masses.points[k]:.9g} is beyond "
                             f"double range: |(1/T)'(zeta_k)| is {abs(inv_t_deriv[k]):.3e}")
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
    f2 = riesz_project_values(symbol.values * f1)
    np.negative(f2, out=f2)
    if mass_values is None:
        mass_values = np.empty(f1.shape[:-1] + (0,), dtype=complex)
    return TauVector(f1, f2, np.asarray(mass_values, dtype=complex))


def _analytic_layout(grid, coeffs) -> np.ndarray:
    """FFT-layout array of the polynomial sum_p coeffs[..., p] t**p.

    The polynomial (zero for an empty array) must fit the analytic half of
    the grid's band, so its grid samples are ``grid.values`` of the result
    and its values inside the disk are ``evaluate_analytic`` of it.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    _band_top(max(coeffs.shape[-1] - 1, 0), f"degree on a size-{grid.size} grid", grid.size)
    full = np.zeros(coeffs.shape[:-1] + (grid.size,), dtype=complex)
    full[..., : coeffs.shape[-1]] = coeffs
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


def apply_tau(vector: TauVector, dual: DualData) -> TauVector:
    """The involution: L^2(alpha) -> L^2(alpha~), unitary on regular data.

    Circle part (evaluated at conj t, then resampled onto the standard grid):

        f1~(conj t) = t (conj B / conj T_e) (f1 + conj(R) f2)(t)
        f2~(conj t) = t (1 / T_e) (R f1 + f2)(t)

    the weighted pair (:func:`_weighted_pair`) times the grid factors cached
    on ``dual`` (``tau_multipliers``).  Mass part: f~(conj zeta_k) =
    -conj((1/T)'(zeta_k)) f(zeta_k) nu_k.  The vector map itself is
    convention-independent; only the dual weights that measure the image
    differ between the two pairing conventions.
    """
    grid = dual.symbol.grid
    grid.check(vector.f1)
    grid.check(vector.f2)
    _check_mass_block(vector, dual.masses,
                      "mass value block does not match the primal mass set")
    a, b = _weighted_pair(vector, dual.symbol.values)
    a *= dual.tau_multipliers[0]
    b *= dual.tau_multipliers[1]
    mass_tau = -np.conj(dual.inv_T_deriv) * vector.mass_values * dual.masses.weights
    return TauVector(grid.conjugate_reindex(a), grid.conjugate_reindex(b), mass_tau)


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


def _complement(gram_l: np.ndarray, half_band: int,
                points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Columns N spanning null(E^H) and X = G^{-1} N, the complement of the
    embedded analytic polynomials E in the Laurent Gram G = ``gram_l`` on
    z^-M..z^M, M = ``half_band``, and the masses at ``points``.

    E maps z^p, p = 0..M, to exponent p plus the values zeta_k^p at the
    masses, so null(E^H) is explicit: the unit vectors at exponents -M..-1,
    and per mass k the vector that is 1 at mass coordinate k and
    -conj(zeta_k)^p at exponent p.  Then E^H G X = E^H N = 0, and the
    complement has dimension M + m with no rank threshold.
    """
    band = 2 * half_band + 1
    null = np.zeros((gram_l.shape[0], half_band + points.size), dtype=complex)
    null[np.arange(half_band), np.arange(half_band)] = 1.0
    k = np.arange(points.size)
    null[half_band:band, half_band + k] = -np.conj(points) ** np.arange(half_band + 1)[:, None]
    null[band + k, half_band + k] = 1.0
    return null, np.linalg.solve(gram_l, null)


def _blocks(count: int):
    """Slices of ``_THEOREM_BLOCK`` consecutive rows covering 0..count-1."""
    return (slice(start, min(start + _THEOREM_BLOCK, count))
            for start in range(0, count, _THEOREM_BLOCK))


class _LaurentProjection:
    """P_-(R f1) for Laurent polynomials f1 of exponents -M..M, split as
    R_core f1 plus a boundary correction.

    In FFT layout on N bins, a coefficient r_s with s in N/2+M..N-1-M moves
    every exponent -M..M into the antianalytic half, so its part of
    P_-(R f1) is R_core f1, ``core`` the grid samples of those coefficients.
    Every other coefficient that reaches the antianalytic half lies in one
    of two runs of 2M: the zero run s = -M..M-1 and the Nyquist run
    s = N/2-M..N/2+M-1, less the bins the zero run holds (the runs meet
    when M > N/4, and R_core is then empty).  Their part, the boundary
    correction, is the linear convolution of each run with the 2M+1
    coefficients of f1, by FFTs of a power-of-two length >= 4M: 4M terms
    per run, of which those on antianalytic bins are added onto their bins
    mod N, as the FFT round trip aliases them, the shared N/2 bin included.
    """

    def __init__(self, symbol: SymbolData, half_band: int):
        size, half, m = symbol.grid.size, symbol.grid.size // 2, half_band
        core = np.zeros(size, dtype=complex)
        core[half + m:size - m] = symbol.coeffs[half + m:size - m]
        self.core = np.fft.ifft(core, norm="forward", out=core)
        offsets = np.arange(-m, m)
        runs = np.stack((offsets % size, (offsets + half) % size))
        run_coeffs = symbol.coeffs[runs]
        run_coeffs[1, (runs[1] + m) % size < 2 * m] = 0.0  # bins of the zero run
        self._terms = 4 * m
        self._run_spectra = np.fft.fft(run_coeffs, n=1 << max(4 * m - 1, 0).bit_length())
        # term i of a run's convolution is the coefficient of t^(first bin - M + i)
        bins = (runs[:, :1] - m + np.arange(4 * m)) % size
        self._kept = np.flatnonzero(bins >= half)
        self._targets = bins.ravel()[self._kept]

    def add_correction(self, coeffs: np.ndarray, out: np.ndarray) -> None:
        """Add the FFT-layout spectra of the boundary corrections of the rows
        of ``coeffs`` (exponents -M..M along the last axis) onto ``out``."""
        length = self._run_spectra.shape[-1]
        terms = np.fft.ifft(np.fft.fft(coeffs[:, None, :], n=length) * self._run_spectra)
        terms = terms[..., :self._terms].reshape(coeffs.shape[0], 2 * self._terms)
        np.add.at(out, (slice(None), self._targets), terms[:, self._kept])


def _rolled_antianalytic(spectrum: np.ndarray, shifts: np.ndarray, out=None) -> np.ndarray:
    """Row i: the antianalytic half (bins N/2..N-1, the shared N/2 bin
    included) of the spectrum of t^q F for q = shifts[i], given the
    FFT-layout spectrum of F.  Multiplying by t^q rolls a spectrum by q."""
    half = spectrum.shape[-1] // 2
    return spectrum.take(np.arange(half, 2 * half) - shifts[:, None], mode="wrap", out=out)


def _antianalytic_shifts(spectrum: np.ndarray, shifts: np.ndarray,
                         out: np.ndarray) -> np.ndarray:
    """Grid samples of P_-(t^q F) into row i of ``out`` for q = shifts[i],
    from the forward-normalized FFT-layout spectrum of F: one inverse FFT
    of :func:`_rolled_antianalytic` per row, as :func:`riesz_project_values`
    would give from the samples of t^q F."""
    half = spectrum.shape[-1] // 2
    out[:, :half] = 0.0
    _rolled_antianalytic(spectrum, shifts, out[:, half:])
    return np.fft.ifft(out, norm="forward", out=out)


def _monomials(grid, powers: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Grid samples of t^p into row i of ``out`` for p = powers[i]:
    t_j^p = t_{pj mod N}."""
    return grid.nodes.take(np.multiply.outer(powers, np.arange(grid.size)),
                           mode="wrap", out=out)


def theorem_check(space: SpaceData, dual: DualData, degree: int) -> TheoremReport:
    """Residuals of the complement-mapping theorem on the given truncation.

    Forward: the complement of the embedded H^2 is one solve with the
    Laurent Gram, G^{-1} null(E^H) (:func:`_complement`), and each column's
    norm comes from that solve.  A column is a Laurent polynomial f1 of
    exponents -M..M with mass values, and its tau image's membership
    residuals read only g = T~_e f1~.  On the grid, g(conj t) is one linear
    map of f1 and of the boundary correction c of P_-(R f1)
    (:class:`_LaurentProjection`), h = w1 f1 + w2 c, whose factors fold
    together t conj(B)/conj(T_e), conj(R), R_core and T~_e(conj t) and are
    built once.  Per column, one stacked inverse FFT gives f1 and c from
    their coefficients, and one inverse FFT of h gives the spectrum of g:
    three transforms of grid length, where mapping the column by
    :func:`apply_tau` and testing it by :func:`check_hat_membership` takes
    four.  The antianalytic residual is the norm of g's coefficients at
    -N/2..-1, the mass mismatch evaluates its analytic ones at the masses
    of ``dual.back``, and each is divided by its vector's norm.  The
    columns go in blocks of ``_THEOREM_BLOCK`` rows through two buffers
    reused by every block.

    Converse: the condition vectors, the embedded monomials u^p of the
    dual space, p = 0..CONVERSE_POWERS, are mapped back in blocks, each to
    the one grid vector its pairings with canonical test vectors read
    (:func:`_converse_orthogonality`), and one matrix product of those
    against the test vectors B t^q and B/(t - zeta_k), built in blocks,
    gives every pairing, with both norms applied to its entries.
    Multiplying by t^q rolls a spectrum, so P_-(R~ u^p) takes one inverse
    FFT of a roll of the spectrum of R~, and the norm of B t^q is read off
    a roll of the spectrum of R B.  u^CONVERSE_POWERS must lie in the grid's band.
    """
    _band_top(CONVERSE_POWERS, f"converse power on a size-{space.grid.size} grid", space.grid.size)
    # two calls, so that the Laurent Gram, the complement and the forward
    # buffers are gone before the converse stack
    fwd_hardy, fwd_mass, dimension = _forward_residuals(space, dual, _integer(degree, "degree", 0))
    converse = _converse_orthogonality(dual)
    return TheoremReport(fwd_hardy, fwd_mass, converse, dimension)


def _forward_residuals(space: SpaceData, dual: DualData,
                       half_band: int) -> tuple[float, float, int]:
    """Worst membership residuals, each relative to its vector's norm, of
    the tau images of the complement rows, and the complement's dimension
    (see :func:`theorem_check`)."""
    gram_l = build_gram_laurent(space, half_band)
    # complement of the embedded analytic columns, one vector per row; its
    # norms are x^H G x = n^H x, read off the solve
    symbol, masses, back = dual.symbol, dual.masses, dual.back
    null, complement = (part.T for part in _complement(gram_l, half_band, masses.points))
    norms = np.sqrt(np.vecdot(null, complement).real)
    grid = symbol.grid
    band = 2 * half_band + 1
    projection = _LaurentProjection(symbol, half_band)
    # f1~(conj t) = t conj(B)/conj(T_e) (f1 - conj(R) (R_core f1 + c)), so
    # g(conj t) = T~_e(conj t) f1~(conj t) = w1 f1 + w2 c
    w1 = grid.conjugate_reindex(back.outer.values) * dual.tau_multipliers[0]
    w2 = -np.conj(symbol.values) * w1
    w1 += w2 * projection.core
    layout = (np.arange(band) - half_band) % grid.size
    # powers of the dual masses, one table for every block
    powers = power_table(back.masses.points, grid.size // 2)
    stacked = np.empty((_THEOREM_BLOCK, 2, grid.size), dtype=complex)
    mapped = np.empty((_THEOREM_BLOCK, grid.size), dtype=complex)

    fwd_hardy = 0.0
    fwd_mass = 0.0
    for rows in _blocks(complement.shape[0]):
        cols = complement[rows]
        pair = stacked[:cols.shape[0]]
        pair.fill(0.0)
        pair[:, 0, layout] = cols[:, :band]
        projection.add_correction(cols[:, :band], pair[:, 1])
        f1, c = np.fft.ifft(pair, norm="forward", out=pair).transpose(1, 0, 2)
        h = np.multiply(f1, w1, out=mapped[:cols.shape[0]])
        c *= w2
        h += c
        # h(t) = g(conj t), so the inverse FFT of h is the spectrum of g
        g_coeffs = np.fft.ifft(h, out=h)
        anti = g_coeffs[:, grid.size // 2:]
        anti = np.sqrt(chunked_vecdot(anti, anti).real)
        fwd_hardy = max(fwd_hardy, float((anti / norms[rows]).max()))
        if masses.count:
            g_at_points = evaluate_with_table(g_coeffs, powers)
            mass_tau = -np.conj(dual.inv_T_deriv) * cols[:, band:] * masses.weights
            mismatch = np.abs(mass_tau - g_at_points / back.outer_at_masses).max(axis=-1)
            fwd_mass = max(fwd_mass, float((mismatch / norms[rows]).max()))
    return fwd_hardy, fwd_mass, complement.shape[0]


def _converse_orthogonality(dual: DualData) -> float:
    """Worst normalized |<tau-image of a condition vector, test vector>|:
    the embedded monomials u^p of the dual space, mapped back, must
    annihilate B t^q and B/(t - zeta_k), which span the closure-side
    subspace (see :func:`theorem_check`).

    A test vector v is canonical, v.f2 = -P_-(R v.f1), and P_- is an
    orthogonal projection on the grid, so the circle part of <u, v> is
    sum conj(v.f1) (a - conj(R) P_-(b)) / N with (a, b) the weighted pair
    of u: one grid vector per condition, and no f2 for the tests.
    """
    symbol, masses = dual.symbol, dual.masses
    grid = symbol.grid
    count = CONVERSE_POWERS + 1
    paired = np.empty((count, grid.size), dtype=complex)
    paired_masses = np.empty((count, masses.count), dtype=complex)
    condition_norms = np.empty(count)
    for rows in _blocks(count):
        paired[rows], paired_masses[rows], condition_norms[rows] = _paired_conditions(
            dual, np.arange(rows.start, rows.stop))

    rb_spectrum = grid.coefficients(symbol.values * dual.blaschke.values)
    converse = 0.0
    for rows in _blocks(count + masses.count):
        f1, values, norms = _converse_tests(symbol, masses, dual.blaschke, rb_spectrum, rows)
        gram = paired @ np.conj(f1).T
        gram /= grid.size
        if masses.count:
            gram += paired_masses @ np.conj(values).T
        gram /= condition_norms[:, None] * norms
        converse = max(converse, float(np.abs(gram).max()))
    return converse


def _paired_conditions(dual: DualData, powers: np.ndarray):
    """The grid vectors a - conj(R) P_-(b), the mass parts and the norms of
    the condition vectors u^p, p in ``powers``, mapped back (see
    :func:`_converse_orthogonality`).  Each grid array dies at its last
    read: the conditions once mapped, their images once weighted."""
    symbol, grid = dual.symbol, dual.symbol.grid
    f1 = _monomials(grid, powers, np.empty((powers.size, grid.size), dtype=complex))
    f2 = _antianalytic_shifts(dual.dual_symbol.coeffs, powers, np.empty_like(f1))
    condition = TauVector(f1, np.negative(f2, out=f2),
                          dual.dual_masses.points ** powers[:, None])
    del f1, f2
    norms = l2_norm(condition, dual.dual_symbol, dual.dual_masses)
    image = apply_tau(condition, dual.back)
    del condition
    a, b = _weighted_pair(image, symbol.values)
    mass_part = dual.masses.weights * image.mass_values
    del image
    a -= np.conj(symbol.values) * riesz_project_values(b)
    return a, mass_part, norms


def _converse_tests(symbol: SymbolData, masses: MassSet, blaschke: BlaschkeData,
                    rb_spectrum: np.ndarray, rows: slice):
    """Rows ``rows`` of the converse test vectors: B t^q, q <= CONVERSE_POWERS,
    then B/(t - zeta_k), whose zero at zeta_k divides out (value B'(zeta_k)).

    Returns their f1 rows, mass values and norms.  A canonical vector has
    ||v||^2 = ||f1||^2 - ||P_-(R f1)||^2 plus its mass part, and the
    spectrum of R B t^q is that of R B (``rb_spectrum``) rolled by q.
    """
    grid = symbol.grid
    index = np.arange(rows.start, rows.stop)
    q = index[index <= CONVERSE_POWERS]
    k = index[index > CONVERSE_POWERS] - (CONVERSE_POWERS + 1)
    f1 = np.empty((index.size, grid.size), dtype=complex)
    _monomials(grid, q, f1[:q.size])
    f1[:q.size] *= blaschke.values
    np.divide(blaschke.values, grid.nodes - masses.points[k, None], out=f1[q.size:])
    anti = np.concatenate((_rolled_antianalytic(rb_spectrum, q),
                           grid.coefficients(symbol.values * f1[q.size:])[:, grid.size // 2:]))
    values = np.zeros((index.size, masses.count), dtype=complex)
    values[q.size + np.arange(k.size), k] = blaschke.derivative_at_zeros[k]
    square = (chunked_vecdot(f1, f1).real / grid.size - chunked_vecdot(anti, anti).real
              + np.vecdot(values, masses.weights * values).real)
    return f1, values, np.sqrt(square)


@dataclass(frozen=True, eq=False)
class IdentityReport:
    """The identity T(0) K^{alpha_{-1}}(0) K^{alpha~}(0) = 1; ``tolerance`` is its Grams'."""

    product: float
    residual: float
    t_at_zero: float
    kernel_shifted: float
    kernel_dual: float
    vector_residual: float
    tolerance: float


def _down_kernel_vector(symbol: SymbolData, masses: MassSet,
                        kernel: KernelVector) -> TauVector:
    """Canonical vector of z^{-1} K, K the normalized kernel of alpha_{-1}."""
    grid = symbol.grid
    k_full = _analytic_layout(grid, kernel.normalized())
    f1 = np.conj(grid.nodes) * grid.values(k_full)
    mass_values = masses.points ** (-1) * evaluate_analytic(k_full, masses.points)
    return canonical_vector(symbol, f1, mass_values)


def duality_identity(space: SpaceData, dual: DualData, degree: int) -> IdentityReport:
    """Evaluate the identity and its vector form on the given truncation.

    The vector form checks that the involution carries z^{-1} K^{alpha_{-1}}
    onto the normalized dual kernel.
    """
    symbol, masses = dual.symbol, dual.masses

    # each Gram is released once its kernel and tolerance are read
    gram = build_gram_analytic(shifted(space, -1), degree)
    kernel_down, tol_down = kernel_at_point(gram, 0.0), _roundoff(gram)
    del gram
    gram = build_gram_analytic(dual.dual_space(), degree)
    kernel_dual, tol_dual = kernel_at_point(gram, 0.0), _roundoff(gram)
    del gram

    product = dual.T_at_zero * kernel_down.norm * kernel_dual.norm
    residual = abs(product - 1.0)

    # vector form: tau(z^{-1} K^{alpha_{-1}}) against the dual kernel; the
    # difference overwrites the image, read for the last time
    image = apply_tau(_down_kernel_vector(symbol, masses, kernel_down), dual)
    expected = embed_analytic_vector(dual.dual_symbol, dual.dual_masses,
                                     kernel_dual.normalized())
    diff = TauVector(np.subtract(image.f1, expected.f1, out=image.f1),
                     np.subtract(image.f2, expected.f2, out=image.f2),
                     np.subtract(image.mass_values, expected.mass_values,
                                 out=image.mass_values))
    vector_residual = l2_norm(diff, dual.dual_symbol, dual.dual_masses)

    return IdentityReport(product, residual, dual.T_at_zero, kernel_down.norm,
                          kernel_dual.norm, vector_residual, max(tol_down, tol_dual))
