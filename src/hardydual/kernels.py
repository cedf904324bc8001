"""Reproducing kernels, the normalized orthonormal system, and kernel bounds.

For the Gram matrix G of the metric on z^0..z^M, a plain Hermitian array,
the reproducing kernel at the origin solves G k = e_0, so k(0) = (G^{-1})_{00}
= ||k||^2 and the normalized value is K(0) = sqrt((G^{-1})_{00}).  Every
routine that needs several Grams of one data pair assembles one Gram and
reads the others from it: shifts are principal windows, and regularizations
recombine the one Hankel Gram Gamma it was assembled from (see
:func:`sandwich_check`, which builds each distinct variant once).  The
orthonormal system reads every window's kernel vector from one solve with
its covering Gram (:func:`_covering_kernels`).

The asymptotic sweep takes its windows max(1, (degree + 1) // 4) at a time:
the sub-Gram covering a group is factored once by a reversed Cholesky
G = U U^H, and each window's K(0) follows from U and the last columns of
U^{-1} (see :func:`_window_kernels`).  The groups are factored as one stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import NotPositiveDefinite, OrderViolation, RejectBoundary
from .spaces import (
    SpaceData,
    _pd_failure,
    analytic_hankel,
    assemble_gram,
    build_gram_analytic,
    regularized,
    shifted,
)
from .tolerances import TOL_ORDER


@dataclass(frozen=True, eq=False)
class KernelVector:
    """Reproducing kernel of the truncated space at a disk point.

    ``norm`` is the metric norm; the kernel value at its own base point
    equals norm^2, so the normalized kernel K = k/||k|| has K(point) = norm.
    """

    coefficients: np.ndarray
    norm: float

    @property
    def value_at_zero(self) -> complex:
        return complex(self.coefficients[0])

    def normalized(self) -> np.ndarray:
        return self.coefficients / self.norm


def kernel_at_point(gram: np.ndarray, point: complex) -> KernelVector:
    """Solve G k = (conj(point)^m)_m, the evaluation functional at ``point``.

    One LU solve with G: numpy has no triangular solve, so a Cholesky
    factor would only add a factorization."""
    point = complex(point)
    if abs(point) >= 1.0:
        raise RejectBoundary(f"evaluation point {point} not inside the open disk")
    rhs = np.conj(point) ** np.arange(gram.shape[0])
    coeffs = np.linalg.solve(gram, rhs)
    norm_sq = np.vdot(coeffs, rhs)
    if norm_sq.real <= 0:
        raise OrderViolation("kernel norm came out nonpositive; Gram unusable")
    return KernelVector(coeffs, float(np.sqrt(norm_sq.real)))


def kernel_at_origin(gram: np.ndarray) -> KernelVector:
    """Kernel for evaluation at 0; K(0) = sqrt of the (0,0) entry of G^{-1}."""
    return kernel_at_point(gram, 0.0)


# ---------------------------------------------------------------------------
# the orthonormal system e_n = z^n K^{alpha_n}


@dataclass(frozen=True, eq=False)
class OrthonormalSystem:
    """Coefficient vectors of e_n = z^n K^{alpha_n} and their pairwise Gram.

    The vectors live on the monomials z^{min n}..z^{max n + M}; with a
    negative shift (shifts[0] < 0) these are Laurent monomials, measured by
    the same metric, whose mass part conj(zeta)^a zeta^b nu extends to a < 0.
    """

    shifts: np.ndarray
    vectors: np.ndarray  # column n holds e_{shifts[n]}
    gram: np.ndarray

    @property
    def orthonormality_defect(self) -> float:
        return float(np.abs(self.gram - np.eye(self.gram.shape[0])).max())


def _covering_kernels(entries: np.ndarray, starts, size: int) -> np.ndarray:
    """Kernel vectors k_n = G_n^{-1} e_0 of the windows G_n = G[n:n+s, n:n+s].

    Row i holds k_n for n = starts[i], s = ``size``; G = ``entries`` covers
    every window, of order c + s - 1.  One solve gives H = G^{-1} on the unit
    columns {0..c-1} and {s..c+s-2}: the first index of every window and
    every index outside one.  With I = n..n+s-1 and C the c - 1 indices
    outside window n, the inverse of G[I, I] is the Schur complement of
    H[C, C] in H, so

        k_n = H[I, n] - H[I, C] H[C, C]^{-1} H[C, n].

    The small systems go through numpy as one stack.
    """
    order = entries.shape[0]
    count = order - size + 1
    cols = np.union1d(np.arange(count), np.arange(size, order))
    unit = np.zeros((order, cols.size), dtype=complex)
    unit[cols, np.arange(cols.size)] = 1.0
    inv = np.linalg.solve(entries, unit)
    starts = np.asarray(starts, dtype=int)
    outside = np.arange(count - 1)[None, :]
    outside = np.where(outside < starts[:, None], outside, outside + size)
    at_n = np.searchsorted(cols, starts)[:, None]
    at_out = np.searchsorted(cols, outside)
    rows = starts[:, None] + np.arange(size)
    coupling = np.linalg.solve(inv[outside[:, :, None], at_out[:, None, :]],
                               inv[outside, at_n][..., None])
    return inv[rows, at_n] - (inv[rows[:, :, None], at_out[:, None, :]] @ coupling)[..., 0]


def orthonormal_system(space: SpaceData, shifts: Sequence[int],
                       degree: int) -> OrthonormalSystem:
    """e_n = z^n K^{alpha_n} for each shift n, from one Gram on
    z^(min n)..z^(max n + degree) and one solve with it
    (:func:`_covering_kernels`)."""
    shifts = np.asarray(sorted(int(n) for n in shifts), dtype=int)
    if shifts.size == 0:
        raise ValueError("need at least one shift")
    repeated = shifts[1:][shifts[1:] == shifts[:-1]]
    if repeated.size:
        raise ValueError(f"shift {int(repeated[0])} is repeated; each e_n is one vector")
    n_min, n_max = int(shifts[0]), int(shifts[-1])

    gram = build_gram_analytic(shifted(space, n_min), degree + n_max - n_min)
    kernels = _covering_kernels(gram, shifts - n_min, degree + 1)
    norm_sq = kernels[:, 0].real
    if np.any(norm_sq <= 0):
        raise OrderViolation("kernel norm came out nonpositive; Gram unusable")
    columns = np.zeros((gram.shape[0], shifts.size), dtype=complex)
    for i, n in enumerate(shifts - n_min):
        columns[n: n + degree + 1, i] = kernels[i] / np.sqrt(norm_sq[i])
    system_gram = columns.conj().T @ gram @ columns
    return OrthonormalSystem(shifts, columns, system_gram)


# ---------------------------------------------------------------------------
# asymptotics of K^{alpha_n}(0)


@dataclass(frozen=True, eq=False)
class AsymptoticTrace:
    """Values K^{alpha_n}(0) for n = 0..n_max."""

    shifts: np.ndarray
    values: np.ndarray

    @property
    def deviations(self) -> np.ndarray:
        return np.abs(self.values - 1.0)

    def converged_at(self, tol: float = 1e-3) -> Optional[int]:
        """First shift opening three consecutive deviations below ``tol``."""
        dev = self.deviations
        for i in range(dev.size - 2):
            if np.all(dev[i: i + 3] < tol):
                return int(self.shifts[i])
        return None

    def tail_monotone(self) -> bool:
        """|K - 1| nonincreasing from shift 4 on, with a roundoff floor of 1e-13."""
        dev = self.deviations[self.shifts >= 4]
        return bool(np.all(dev[1:] <= dev[:-1] * (1 + 1e-9) + 1e-13))


def _window_kernels(entries: np.ndarray, starts, count: int,
                    size: int) -> np.ndarray:
    """K(0) of the order-``size`` windows of ``entries`` in groups of ``count``.

    Row k holds the windows at starts[k]..starts[k]+count-1.  Each group's
    sub-Gram factors once as G = U U^H with U upper triangular (a Cholesky of
    G with rows and columns reversed); the groups go through numpy as one
    stack.  With s = size, window n is A A^H + B B^H, where
    A = U[n:n+s, n:n+s] and B = U[n:n+s, n+s:].  A^{-1} has first column
    e_0 / U[n, n], so with Y = A^{-1} B and y = Y[0],

        K_n(0)^2 = (1 - y (I + Y^H Y)^{-1} y^H) / |U[n, n]|^2.

    Y = -(U^{-1})[n:n+s, n+s:] U[n+s:, n+s:] needs only the last count - 1
    columns of U^{-1}, from one solve; the sign of Y drops out.  The loop
    over n corrects window n of every group at once.
    """
    order = count + size - 1
    starts = np.asarray(starts, dtype=int)
    subs = sliding_window_view(entries, (order, order))[starts, starts]
    u = np.linalg.cholesky(subs[:, ::-1, ::-1])[:, ::-1, ::-1]
    norm_sq = 1.0 / np.abs(np.diagonal(u, axis1=1, axis2=2)[:, :count]) ** 2
    inv_cols = np.linalg.solve(u, np.eye(order, count - 1, -size))
    tail = u[:, size:, size:]
    for n in range(count - 1):
        y_block = inv_cols[:, n:n + size, n:] @ tail[:, n:, n:]
        system = y_block.conj().transpose(0, 2, 1) @ y_block + np.eye(count - 1 - n)
        y = y_block[:, 0]
        solved = np.linalg.solve(system, y.conj()[..., None])[..., 0]
        norm_sq[:, n] *= 1.0 - np.sum(y * solved, axis=1).real
    if np.any(norm_sq <= 0):
        raise OrderViolation("kernel norm came out nonpositive; Gram unusable")
    return np.sqrt(norm_sq)


def asymptotic_sweep(space: SpaceData, n_max: int, degree: int) -> AsymptoticTrace:
    """K^{alpha_n}(0) for n = 0..n_max from one Gram on z^0..z^{degree + n_max}.

    Shifts go in groups of max(1, (degree + 1) // 4); each group reads its
    windows from one factorization (:func:`_window_kernels`).
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    gram = build_gram_analytic(space, degree + n_max)
    size = degree + 1
    group = max(1, size // 4)
    full, rest = divmod(n_max + 1, group)
    parts = []
    try:
        if full:
            parts.append(_window_kernels(gram, group * np.arange(full), group, size))
        if rest:
            parts.append(_window_kernels(gram, [group * full], rest, size))
    except np.linalg.LinAlgError:
        # the Gram passed its PD check, so a group's reversed Cholesky failed
        # in roundoff: report it as the Gram's own check would
        min_eig = float(np.linalg.eigvalsh(gram)[0])
        raise NotPositiveDefinite(_pd_failure(gram, min_eig, space.masses.weights)) from None
    values = np.concatenate([part.ravel() for part in parts])
    return AsymptoticTrace(np.arange(n_max + 1), values)


# ---------------------------------------------------------------------------
# two-sided regularization bounds


@dataclass(frozen=True, eq=False)
class SandwichReport:
    """Kernel values and margins for the mass-cutoff / symbol-scaling bounds.

    The scalar chain is  K(cutoff) >= K(alpha) >= K(scaled), checked together
    with the positive-semidefinite orderings of the underlying Grams and the
    duality-transported equalities tying each regularized kernel to the dual
    kernel at the complementary shift.
    """

    k_alpha: float
    k_cutoff: float
    k_scaled: float
    k_both: float
    margin_cutoff: float          # k_cutoff - k_alpha
    margin_scaled: float          # k_alpha - k_scaled
    psd_margin_cutoff: float      # min eig of Gram(alpha) - Gram(cutoff)
    psd_margin_scaled: float      # min eig of Gram(scaled) - Gram(alpha)
    chain_upper_slack: float      # (T_e^rho(0)/T_e(0)) k_both - k_cutoff
    chain_lower_slack: float      # k_scaled - (B(0)/B^N(0)) k_both
    identity_residuals: dict


def _require_order(name: str, margin: float, tol: float):
    if margin < -tol:
        raise OrderViolation(
            f"{name} violated by {-margin:.3e} (tolerance {tol:.0e}); "
            "truncations are inconsistent"
        )


def _dual_parts(space: SpaceData):
    """(T(0), dual space) and T_e(0) of the dual data of ``space``; the rest
    of the dual data is released on return."""
    from .duality import dual_of  # cycle: duality uses kernels

    dual = dual_of(space)
    return (dual.T_at_zero, dual.dual_space()), dual.outer.value_at_zero


def _psd_margin(upper: np.ndarray, lower: np.ndarray, out: np.ndarray) -> float:
    """Smallest eigenvalue of upper - lower, written over ``out`` (one of the
    two, read for the last time).

    The difference D is Hermitian, so its support S (the columns with a
    nonzero entry) is also the rows with one.  With S a proper subset, D has
    the eigenvalues of D[S, S] and zeros, and only D[S, S] is solved.  Equal
    Grams, or a difference that comes out exactly zero, give 0.0 with no
    eigensolve: the eigensolve of a zero matrix gives +0.0 too."""
    if upper is lower:
        return 0.0
    diff = np.subtract(upper, lower, out=out)
    support = np.flatnonzero(diff.any(axis=0))
    if support.size == diff.shape[0]:
        return float(np.linalg.eigvalsh(diff)[0])
    if not support.size:
        return 0.0
    return min(float(np.linalg.eigvalsh(diff[np.ix_(support, support)])[0]), 0.0)


def sandwich_check(space: SpaceData, cutoff: int, rho: float, n: int,
                   degree: int, tol_order: float = TOL_ORDER) -> SandwichReport:
    """The variants (rho', N') in {1, rho} x {m, min(N, m)} of the shifted
    pair; each distinct one is assembled, solved and dualized once.  With
    N >= m the cutoff is alpha itself and "both" is "scaled"; with rho = 1
    "scaled" is alpha and "both" is the cutoff."""
    if not 0.0 < rho <= 1.0:
        raise ValueError("rho must lie in (0, 1]; 1 gives the degenerate equalities")
    base = shifted(space, n)
    spaces = {"alpha": base,
              "cutoff": regularized(base, mass_cutoff=cutoff),
              "scaled": regularized(base, rho=rho),
              "both": regularized(base, rho=rho, mass_cutoff=cutoff)}
    # a Gram and a dual read only rho and the masses kept, so equal pairs
    # give equal bits
    pair = {label: (sp.rho, sp.masses.count) for label, sp in spaces.items()}

    gamma = analytic_hankel(base, degree)
    grams = {}
    for label, sp in spaces.items():
        if pair[label] not in grams:
            grams[pair[label]] = assemble_gram(sp, gamma)
    del gamma
    k = {key: kernel_at_origin(gram).norm for key, gram in grams.items()}
    g_alpha, g_cut, g_rho = (grams[pair[label]] for label in ("alpha", "cutoff", "scaled"))
    del grams
    k_alpha, k_cut, k_rho, k_both = (k[pair[label]] for label in spaces)

    margin_cutoff = k_cut - k_alpha
    margin_scaled = k_alpha - k_rho
    _require_order("K(cutoff) >= K(alpha)", margin_cutoff, tol_order)
    _require_order("K(alpha) >= K(scaled)", margin_scaled, tol_order)

    # each difference overwrites the entries of the Gram other than alpha's
    psd_cut = _psd_margin(g_alpha, g_cut, out=g_cut)
    psd_rho = _psd_margin(g_rho, g_alpha, out=g_rho)
    _require_order("Gram(alpha) - Gram(cutoff) PSD", psd_cut, tol_order)
    _require_order("Gram(scaled) - Gram(alpha) PSD", psd_rho, tol_order)

    # the dual of each variant shifted up by one, kept as (T(0), dual space),
    # and the value at 0 of its outer factor: a shift leaves |R| alone and a
    # mass cutoff leaves R alone, so "cutoff" gives T_e(0), "scaled" T_e^rho(0)
    labels = ("cutoff", "scaled", "both")
    duals = {}
    for label in labels:
        if pair[label] not in duals:
            duals[pair[label]] = _dual_parts(shifted(spaces[label], 1))
    # the primal Grams go only now: released before the duals, they would
    # lie at the top of the heap and be handed back to the system, and the
    # dual phase would fault their pages in again; released here, below the
    # dual spaces, they are reused by the dual Grams
    del g_alpha, g_cut, g_rho
    te0_cut, te0_rho = (duals[pair[label]][1] for label in ("cutoff", "scaled"))
    b0 = float(np.prod(np.abs(base.masses.points)))
    b0_cut = float(np.prod(np.abs(spaces["cutoff"].masses.points)))

    chain_upper = (te0_rho / te0_cut) * k_both - k_cut
    chain_lower = k_rho - (b0 / b0_cut) * k_both
    _require_order("K(cutoff) <= (T_e^rho(0)/T_e(0)) K(both)", chain_upper, tol_order)
    _require_order("K(scaled) >= (B(0)/B^N(0)) K(both)", chain_lower, tol_order)

    # the identity T(0) K^{alpha_{-1}}(0) K~(0) = 1 for each variant shifted
    # up by one; its shifted-down kernel is the variant's own kernel
    residual = {}
    for key, ((t_at_zero, dual_space), _) in duals.items():
        k_dual = kernel_at_origin(build_gram_analytic(dual_space, degree)).norm
        residual[key] = abs(t_at_zero * k[key] * k_dual - 1.0)

    return SandwichReport(
        k_alpha=k_alpha, k_cutoff=k_cut, k_scaled=k_rho, k_both=k_both,
        margin_cutoff=margin_cutoff, margin_scaled=margin_scaled,
        psd_margin_cutoff=psd_cut, psd_margin_scaled=psd_rho,
        chain_upper_slack=chain_upper, chain_lower_slack=chain_lower,
        identity_residuals={label: residual[pair[label]] for label in labels},
    )
