"""Quadratic-form Gram matrices of the perturbed Hardy metric.

The metric on analytic polynomials is

    ||f||^2  -  ||P_-(R f)||^2  +  sum_k |f(zeta_k)|^2 nu_k,

realized on the monomial basis z^0..z^M as I - (Hankel Gram) + (mass Gram).
The same Hankel expression extends to Laurent monomials z^-M..z^M, giving
the circle block of the two-sided space; point-mass coordinates are
appended as a direct summand diag(nu).  The Hankel sum runs over
j = 1..J with J = size/2 minus the Gram's top exponent, all of R's
negative band the grid resolves; the windows of one Gram share its J.

A shift alpha_n (symbol times t^n, weights times |zeta|^{2n}) only moves
exponents: its Gram on z^0..z^M is the unshifted metric on z^n..z^{n+M}, a
principal window of one Gram over a longer exponent range.  A SpaceData
keeps shift and rho lazy for that reason; a mass cutoff is a shorter MassSet
(:func:`regularized`).  Symbol scaling by rho and mass truncation recombine
the same Hankel Gram Gamma as I - rho^2 Gamma + (mass Gram of the masses):
Gamma is a plain array from :func:`analytic_hankel`, held by the caller that
recombines it, and every Gram is a plain Hermitian array of its entries.

Gamma is assembled by its displacement recurrence, except over a window of
exact zeros (the zero symbol's), where the recurrence could give only zeros
and Gamma is filled with its bytes (:func:`_zero_gram`).  A Gram is certified
positive definite by a Gershgorin floor on its smallest eigenvalue, which
the contraction R makes 1 - rho^2 (Gamma's largest absolute row sum) less a
rounding slack (:func:`_eig_floor`).  The check's threshold is the Gram's
tolerance tol = max(TOL_PSD, order * eps * (largest diagonal entry))
(:func:`_roundoff`, the one rule for every ordering a run judges); only a
Gram whose floor falls short of tol is checked by one Cholesky of G - tol I.
Its windows inherit the check: by Cauchy interlacing a window's smallest
eigenvalue is at least its Gram's, and a window's tol is at most its Gram's.
Every factorization goes through numpy.linalg, so one LAPACK serves the
whole process.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .circle import CircleGrid, MassSet, SymbolData, chunked_sum
from .errors import NotPositiveDefinite
from .tolerances import TOL_PSD


@dataclass(frozen=True, eq=False)
class SpaceData:
    """A data pair alpha = {R, nu} plus shift and symbol scaling.

    shift n multiplies the symbol by t^n and the weights by |zeta_k|^{2n};
    rho scales the symbol uniformly.
    """

    symbol: SymbolData
    masses: MassSet
    shift: int = 0
    rho: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.rho <= 1.0:
            raise ValueError(f"rho must lie in (0, 1], got {self.rho}")

    @property
    def grid(self) -> CircleGrid:
        return self.symbol.grid


def shifted(space: SpaceData, dn: int) -> SpaceData:
    return replace(space, shift=space.shift + dn)


def regularized(space: SpaceData, rho: float = 1.0,
                mass_cutoff: Optional[int] = None) -> SpaceData:
    """Scale the symbol by rho and/or keep the first ``mass_cutoff`` masses."""
    out = space
    if rho != 1.0:
        out = replace(out, rho=out.rho * rho)
    if mass_cutoff is not None:
        out = replace(out, masses=out.masses.truncated(min(mass_cutoff, out.masses.count)))
    return out


def effective_data(space: SpaceData) -> tuple[SymbolData, MassSet]:
    """Resolve shift and rho-scaling into concrete data.

    The shifted symbol has coefficients r_p -> r_{p-n} (a circular roll in
    FFT layout) and values R(t) -> t^n R(t); weights become |zeta_k|^{2n} nu_k.
    """
    sym = space.symbol
    grid = sym.grid
    values = sym.values
    coeffs = sym.coeffs
    if space.shift != 0:
        values = values * grid.nodes ** space.shift
        coeffs = np.roll(coeffs, space.shift)
    if space.rho != 1.0:
        values = values * space.rho
        coeffs = coeffs * space.rho
    eff_symbol = SymbolData(grid, np.ascontiguousarray(values),
                            np.ascontiguousarray(coeffs))

    masses = space.masses
    if space.shift != 0 and masses.count:
        if space.shift < 0 and masses.has_origin:
            raise ValueError("negative shift undefined for a mass at the origin")
        weights = masses.weights * np.abs(masses.points) ** (2 * space.shift)
        if not np.all(weights > 0):
            raise ValueError(f"a mass weight nu |zeta|^{2 * space.shift} underflows to 0")
        masses = MassSet(masses.points, weights)
    return eff_symbol, masses


# ---------------------------------------------------------------------------
# Hankel and Gram construction


def _lagged_gram(c: np.ndarray, truncation: int, order: int) -> np.ndarray:
    """G[m, l] = sum_{j<J} conj(c[j+m]) c[j+l] for m, l < order.

    ``c`` needs J + order - 1 terms.  The first row is ``np.correlate``, one
    length-J dot per column, summed by ``circle.chunked_sum`` (one call up
    to ``circle.SUM_CHUNK`` terms); the rest follows down the
    diagonals by the displacement recurrence
    G[m+1, l+1] = G[m, l] - conj(c[m]) c[l] + conj(c[J+m]) c[J+l],
    each row mirrored into its column as it is made.  A ``c`` of zeros gives
    :func:`_zero_gram`, which :func:`hankel_block` returns without this call.
    """
    J = truncation
    gram = np.empty((order, order), dtype=c.dtype)
    gram[0] = chunked_sum(
        lambda s: np.correlate(c[s.start:s.stop + order - 1], c[s], "valid"), J)
    gram[1:, 0] = np.conj(gram[0, 1:])
    head = np.conj(c[:order - 1])
    tail = np.conj(c[J:J + order - 1])
    work = np.empty(order - 1, dtype=c.dtype)
    for m in range(1, order):
        row = gram[m, m:]
        term = work[:order - m]
        np.multiply(head[m - 1], c[m - 1:order - 1], out=term)
        np.subtract(gram[m - 1, m - 1:-1], term, out=row)
        np.multiply(tail[m - 1], c[J + m - 1:J + order - 1], out=term)
        row += term
        np.conjugate(row[1:], out=gram[m + 1:, m])
    return gram


def _zero_gram(order: int) -> np.ndarray:
    """The bytes :func:`_lagged_gram` gives for an all-zero window.

    Whatever the signs of the zeros it reads, its first row sums products
    into +0 and each later row is +0 - (+-0) + (+-0) = +0, so every entry on
    and above the diagonal is +0+0j and every mirrored entry below it is
    +0-0j.  The array is allocated as the recurrence allocates it.
    """
    gram = np.empty((order, order), dtype=complex)
    gram.fill(0)
    mirrored = complex(0.0, -0.0)
    for m in range(1, order):
        gram[m, :m] = mirrored
    return gram


def hankel_block(symbol: SymbolData, exponents, truncation: int) -> np.ndarray:
    """Hankel Gram Gamma of the unscaled symbol on the consecutive exponents
    e0..e0+order-1.

    With a_k = r_{-(e0+k)}, Gamma[m, l] = sum_{j=1..J} conj(a_{j+m}) a_{j+l},
    assembled in O(J order + order^2) by :func:`_lagged_gram`; rho enters as
    rho^2 when the metric is assembled.  When a_1..a_{J+order-1} are all
    zero, Gamma is :func:`_zero_gram`, the same bytes with neither the first
    row's correlation nor the recurrence run.
    """
    exponents = np.asarray(exponents, dtype=int)
    n = symbol.grid.size
    order = exponents.size
    first = int(exponents[0])
    if not np.array_equal(exponents, np.arange(first, first + order)):
        raise ValueError("Hankel exponents must be consecutive and increasing")
    if truncation < 1:
        raise ValueError(f"Hankel truncation must be >= 1, got {truncation}")
    top = first + order - 1
    if truncation + top > n // 2:
        raise ValueError(
            f"Hankel truncation {truncation} exceeds the resolvable band for "
            f"degree {top} on a size-{n} grid"
        )
    # a[k - 1] = a_k for k = 1..size/2 - first, i.e. r_{-first-1} down to r_{-size/2}
    a = symbol.coeffs[-(first + 1 + np.arange(n // 2 - first)) % n]
    if not a[:truncation + order - 1].any():
        return _zero_gram(order)
    return _lagged_gram(a, truncation, order)


def analytic_hankel(space: SpaceData, degree: int) -> np.ndarray:
    """Gamma of ``space.symbol`` on z^n..z^{n+degree}, n = ``space.shift``.

    J = size/2 - (n + degree), all the band the grid resolves, so no Hankel
    row wraps.  It serves :func:`assemble_gram` for every rho and mass
    cutoff of ``space``.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    top = space.shift + degree
    return hankel_block(space.symbol, np.arange(space.shift, top + 1),
                        space.grid.size // 2 - top)


def _mass_gram(masses: MassSet, exponents: np.ndarray) -> np.ndarray:
    v = masses.points[:, None] ** exponents[None, :]
    return v.conj().T @ (masses.weights[:, None] * v)


def _roundoff(entries, floor: float = TOL_PSD) -> float:
    """A Gram's tolerance, max(floor, order * eps * (largest diagonal entry)):
    the second term is how finely the eigenvalues of a PD Gram, whose largest
    entry lies on its diagonal, are resolved in double precision."""
    scale = float(entries.diagonal().real.max())
    return max(floor, entries.shape[0] * np.finfo(float).eps * scale)


def _finalize_gram(entries, weights=(), floor=-np.inf) -> np.ndarray:
    """Symmetrize ``entries`` in place, check min eig >= tol, and return them.

    tol = :func:`_roundoff`: an eigenvalue below the Gram's own roundoff
    cannot be told from zero.  ``floor`` is a lower bound on the symmetrized
    Gram's smallest eigenvalue that already counts the Cholesky's own
    rounding (:func:`_eig_floor`).  A floor above tol
    certifies the Gram; otherwise the check is a Cholesky of G - tol I.
    Only a failed Cholesky runs the eigensolver, to report the minimum
    eigenvalue; ``weights`` are the mass weights in the Gram, quoted when its
    scale is the cause.
    """
    entries += entries.conj().T
    entries *= 0.5
    tol = _roundoff(entries)
    if floor > tol:
        return entries
    # G - tol I in place: the saved diagonal goes back after the check
    diag = np.diag_indices_from(entries)
    diagonal = entries[diag]
    entries[diag] -= tol
    try:
        np.linalg.cholesky(entries)
    except np.linalg.LinAlgError:
        passed = False
    else:
        passed = True
    entries[diag] = diagonal
    if not passed:
        min_eig = float(np.linalg.eigvalsh(entries)[0])
        if min_eig < tol:
            raise NotPositiveDefinite(_pd_failure(entries, min_eig, tol, weights)) from None
    return entries


def _eig_floor(gamma, rho2: float, mass_rows: float, dim: int) -> float:
    """Lower bound on the smallest eigenvalue of I - rho2 Gamma + (mass Gram)
    as assembled and symmetrized in floating point, of size ``dim``.

    The mass Gram V^H diag(nu) V is PSD, and by Gershgorin lambda_max(Gamma)
    is at most Gamma's largest absolute row sum.  The slack
    16 dim^2 eps (1 + rho2 rowsum + mass_rows) covers the rounding of the
    mass Gram's product, of the assembly and of the symmetrization, and the
    Cholesky's own completion threshold (about dim^2 eps times the largest
    diagonal entry); ``mass_rows`` bounds the mass Gram's absolute row sums
    (:func:`_mass_rows`).  An overflow gives a non-finite floor, which
    certifies nothing.
    """
    with np.errstate(all="ignore"):
        rows = rho2 * float(np.abs(gamma).sum(axis=1).max())
        slack = 16 * dim * dim * np.finfo(float).eps * (1.0 + rows + mass_rows)
        return 1.0 - rows - slack


def _mass_rows(masses: MassSet, exponents: np.ndarray) -> float:
    """sum_k nu_k max_e |zeta_k|^e sum_e |zeta_k|^e, a bound on the absolute
    row sums of the mass Gram on ``exponents``."""
    if not masses.count:
        return 0.0
    with np.errstate(all="ignore"):
        powers = np.abs(masses.points)[:, None] ** exponents[None, :]
        return float(masses.weights @ (powers.max(axis=1) * powers.sum(axis=1)))


def _pd_failure(entries, min_eig: float, tol: float, weights) -> str:
    """One-line cause of a failed PD check, whose tolerance was ``tol``.

    When ``tol`` (:func:`_roundoff`) is above TOL_PSD, the Gram's own
    roundoff, and the minimum eigenvalue lies within it, the check cannot be decided
    in double precision: the Gram's scale is the cause, and only mass
    weights make it large.  When the minimum eigenvalue is, within ``tol``,
    a mass weight below TOL_PSD (the diag(nu) block of a Laurent Gram), the
    weight is the cause.  Otherwise the metric is nearly degenerate, i.e.
    |R| is too close to 1 for the truncation.
    """
    if tol > TOL_PSD and abs(min_eig) <= tol:
        scale = float(entries.diagonal().real.max())
        cause = (f"Gram minimum eigenvalue {min_eig:.3e} is within the roundoff "
                 f"{tol:.1e} of the Gram's scale {scale:.3e}, so tolerance "
                 f"{TOL_PSD:.0e} cannot be resolved in double precision")
        if len(weights):
            cause += (f"; the largest mass weight, {np.max(weights):.3e}, sets that scale "
                      "(a dual weight 1/(nu |(1/T)'(zeta_k)|^2) grows as "
                      "nu |(1/T)'(zeta_k)|^2 shrinks)")
        return cause
    smallest = np.min(weights, initial=np.inf)
    if smallest < TOL_PSD and abs(min_eig - smallest) <= tol:
        return (f"Gram minimum eigenvalue {min_eig:.3e} is the mass weight "
                f"{smallest:.3e}, below tolerance {TOL_PSD:.0e}")
    return (f"Gram minimum eigenvalue {min_eig:.3e} below tolerance {TOL_PSD:.0e}; "
            "|R| too close to 1 for this truncation (try rho < 1 or a larger grid)")


def assemble_gram(space: SpaceData, gamma: np.ndarray) -> np.ndarray:
    """I - rho^2 Gamma + (mass Gram of the masses) on z^n..z^{n+order-1}.

    ``gamma`` is :func:`analytic_hankel` of ``space``, n = ``space.shift``;
    rho and the masses are read from ``space``, so one Gamma serves every
    regularization of the same data pair.
    """
    masses = space.masses
    if space.shift < 0 and masses.has_origin:
        raise ValueError("negative shift undefined for a mass at the origin")
    order = gamma.shape[0]
    exponents = space.shift + np.arange(order)
    floor = _eig_floor(gamma, space.rho ** 2, _mass_rows(masses, exponents),
                       order + masses.count)
    entries = np.multiply(gamma, -space.rho ** 2)
    entries[np.diag_indices_from(entries)] += 1.0
    # adding 0.0 without masses keeps the signs of zeros of I - rho^2 Gamma
    entries += _mass_gram(masses, exponents) if masses.count else 0.0
    return _finalize_gram(entries, masses.weights, floor)


def build_gram_analytic(space: SpaceData, degree: int) -> np.ndarray:
    """Gram entries of the metric on z^0..z^degree.

    For shift n the entries are the unshifted metric on z^{n+m}, z^{n+l}:
    delta_{ml} - rho^2 sum_{j<=J} conj(r_{-j-n-m}) r_{-j-n-l}
    + sum_k conj(zeta_k)^{n+m} zeta_k^{n+l} nu_k, J as in
    :func:`analytic_hankel`.
    """
    return assemble_gram(space, analytic_hankel(space, degree))


def build_gram_laurent(space: SpaceData, half_band: int) -> np.ndarray:
    """Gram entries of the two-sided metric on z^-M..z^M plus mass coordinates.

    The circle block uses the same Hankel expression as the analytic Gram
    (the norm identity ||f||^2 - ||P_-(R f)||^2 holds for every Laurent
    polynomial), with J = size/2 - M; the mass block is diag(nu) with zero
    coupling.
    """
    if half_band < 0:
        raise ValueError("half_band must be >= 0")
    symbol, masses = effective_data(space)
    exponents = np.arange(-half_band, half_band + 1)
    # Gamma is made before the entries: in the other order, glibc's heap
    # placement raised the peak RSS of repeated theorem checks by 2.4 MB
    gamma = hankel_block(symbol, exponents, symbol.grid.size // 2 - half_band)
    dim = exponents.size + masses.count
    # the mass block diag(nu) is uncoupled: its pivots are nu - tol exactly
    floor = min(_eig_floor(gamma, 1.0, 0.0, dim), np.min(masses.weights, initial=np.inf))
    entries = np.zeros((dim, dim), dtype=complex)
    np.subtract(np.eye(exponents.size, dtype=complex), gamma,
                out=entries[: exponents.size, : exponents.size])
    del gamma
    if masses.count:
        entries[exponents.size:, exponents.size:] = np.diag(masses.weights)
    return _finalize_gram(entries, masses.weights, floor)


def embed_h2(space: SpaceData, degree: int, half_band: int) -> np.ndarray:
    """Columns embedding z^0..z^degree into Laurent + mass coordinates.

    z^p maps to the unit Laurent coefficient at exponent p together with its
    values zeta_k^p at the mass points.
    """
    if degree > half_band:
        raise ValueError("embedding degree must not exceed the Laurent half band")
    _, masses = effective_data(space)
    rows = 2 * half_band + 1 + masses.count
    out = np.zeros((rows, degree + 1), dtype=complex)
    for p in range(degree + 1):
        out[half_band + p, p] = 1.0
        if masses.count:
            out[2 * half_band + 1:, p] = masses.points ** p
    return out

