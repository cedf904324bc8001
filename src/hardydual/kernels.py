"""Reproducing kernels, the normalized orthonormal system, and kernel bounds.

For the Gram matrix G of the metric on z^0..z^M, a plain Hermitian array,
the reproducing kernel at the origin solves G k = e_0, so k(0) = (G^{-1})_{00}
= ||k||^2 and the normalized value is K(0) = sqrt((G^{-1})_{00})
(``spaces.kernel_at_point``).  Every routine that needs several Grams of one
data pair assembles one Gram and reads the others from it: shifts are
principal windows, and the Grams of its regularizations come from
``spaces.regularized_grams``; the sandwich's duals come from ``duality``, the
layer below this one.  The asymptotic sweep and the orthonormal system read
their windows' kernel vectors the same way (:func:`_window_runs`): runs of
max(1, (degree + 1) // 4) windows, each run from one solve with the sub-Gram
covering it (:func:`_covering_kernels`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .circle import _integer
from .duality import UNITARY, dual_of
from .spaces import (
    KernelVector,
    SpaceData,
    _positive_norms,
    _rho,
    _roundoff,
    build_gram_analytic,
    kernel_at_point,
    regularized,
    regularized_grams,
    shifted,
)
from .tolerances import TOL_ORDER


def kernel_at_origin(gram: np.ndarray) -> KernelVector:
    """Kernel for evaluation at 0; K(0) = sqrt of the (0,0) entry of G^{-1}."""
    return kernel_at_point(gram, 0.0)


def largest_rise(values) -> float:
    """The largest rise from any value to a later one, 0.0 when there is none;
    a sequence is nonincreasing when it is at most its Grams' tolerance."""
    values = np.asarray(values, dtype=float)
    return float(np.max(values - np.minimum.accumulate(values), initial=0.0))


def order_tolerance(gram: np.ndarray) -> float:
    """The roundoff of ``gram`` with the floor TOL_ORDER (:func:`sandwich_check`)."""
    return _roundoff(gram, TOL_ORDER)


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
    # a mask, not np.union1d, which imports numpy.ma (about 11 ms)
    index = np.arange(order)
    cols = index[(index < count) | (index >= size)]
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


def _window_runs(entries: np.ndarray, starts: np.ndarray, size: int) -> np.ndarray:
    """Kernel vectors of the order-``size`` windows of ``entries`` at the
    sorted ``starts``, row i for starts[i].

    The starts go in runs that span fewer than max(1, size // 4) of them;
    each run reads its windows from the sub-Gram that covers it
    (:func:`_covering_kernels`).  Unbroken, the covering solve's stack of
    Schur systems grows as the cube of the window count.  Row i's entry 0 is
    K(0)^2 of its window, which must come out positive.
    """
    span = max(1, size // 4)
    kernels = np.empty((starts.size, size), dtype=complex)
    i = 0
    while i < starts.size:
        first = starts[i]
        stop = i + int(np.searchsorted(starts[i:], first + span))
        end = starts[stop - 1] + size
        kernels[i:stop] = _covering_kernels(entries[first:end, first:end],
                                            starts[i:stop] - first, size)
        i = stop
    _positive_norms(kernels[:, 0])
    return kernels


def orthonormal_system(space: SpaceData, shifts: Sequence[int],
                       degree: int) -> OrthonormalSystem:
    """e_n = z^n K^{alpha_n} for each shift n, from one Gram on
    z^(min n)..z^(max n + degree) (:func:`_window_runs`)."""
    shifts = np.asarray(sorted(_integer(n, "shift") for n in shifts), dtype=int)
    if shifts.size == 0:
        raise ValueError("need at least one shift")
    repeated = shifts[1:][shifts[1:] == shifts[:-1]]
    if repeated.size:
        raise ValueError(f"shift {int(repeated[0])} is repeated; each e_n is one vector")
    n_min, n_max, degree = int(shifts[0]), int(shifts[-1]), _integer(degree, "degree", 0)

    gram = build_gram_analytic(shifted(space, n_min), degree + n_max - n_min)
    kernels = _window_runs(gram, shifts - n_min, degree + 1)
    norm = np.sqrt(kernels[:, 0].real)
    columns = np.zeros((gram.shape[0], shifts.size), dtype=complex)
    for i, n in enumerate(shifts - n_min):
        columns[n: n + degree + 1, i] = kernels[i] / norm[i]
    system_gram = columns.conj().T @ gram @ columns
    return OrthonormalSystem(shifts, columns, system_gram)


# ---------------------------------------------------------------------------
# asymptotics of K^{alpha_n}(0)


@dataclass(frozen=True, eq=False)
class AsymptoticTrace:
    """Values K^{alpha_n}(0) for n = 0..n_max and their Gram's tolerance."""

    shifts: np.ndarray
    values: np.ndarray
    tolerance: float

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
        """|K - 1| nonincreasing from shift 4 on, within ``tolerance``."""
        return bool(largest_rise(self.deviations[self.shifts >= 4]) <= self.tolerance)


def asymptotic_sweep(space: SpaceData, n_max: int, degree: int) -> AsymptoticTrace:
    """K^{alpha_n}(0) for n = 0..n_max from one Gram on z^0..z^{degree + n_max},
    read from its windows in runs of max(1, (degree + 1) // 4) shifts
    (:func:`_window_runs`)."""
    n_max = _integer(n_max, "n_max", low=1)
    gram = build_gram_analytic(space, _integer(degree, "degree", low=0) + n_max)
    kernels = _window_runs(gram, np.arange(n_max + 1), degree + 1)
    return AsymptoticTrace(np.arange(n_max + 1), np.sqrt(kernels[:, 0].real), _roundoff(gram))


# ---------------------------------------------------------------------------
# two-sided regularization bounds


@dataclass(frozen=True, eq=False)
class SandwichReport:
    """Kernel values and margins for the mass-cutoff / symbol-scaling bounds.

    The scalar chain is  K(cutoff) >= K(alpha) >= K(scaled), reported with
    the positive-semidefinite orderings of the underlying Grams, the upper
    chain and the duality-transported equalities tying each regularized
    kernel to the dual kernel at the complementary shift.  Each ordering is
    a margin, nonnegative when it holds; all hold when
    ``worst_margin >= -tolerance``.
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
    tolerance: float              # every ordering's, from the Grams' roundoff
    identity_residuals: dict

    @property
    def worst_margin(self) -> float:
        """The smallest of the five ordering margins."""
        return min(self.margin_cutoff, self.margin_scaled, self.psd_margin_cutoff,
                   self.psd_margin_scaled, self.chain_upper_slack)


def _dual_parts(space: SpaceData, convention: str):
    """(T(0), dual space) and T_e(0) of the dual data of ``space`` in the
    pairing ``convention``; the rest of the dual data is released on return."""
    dual = dual_of(space, convention)
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
                   degree: int, convention: str = UNITARY) -> SandwichReport:
    """The variants (rho', N') in {1, rho} x {m, min(N, m)} of the shifted
    pair; each distinct one is assembled, solved and dualized once.  With
    N >= m the cutoff is alpha itself and "both" is "scaled"; with rho = 1
    "scaled" is alpha and "both" is the cutoff.  No ordering raises: the
    caller judges ``worst_margin`` against -``tolerance``, the largest
    tolerance of the primal Grams with the floor TOL_ORDER (spaces._roundoff,
    as in their own PD checks); only an unusable Gram raises.  No lower chain
    K(scaled) >= (B(0)/B^N(0)) K(both) is reported: f = b g, b the Blaschke
    product of the dropped masses, gives it only for R = 0, since
    P_-(rho R b g) is not P_-(rho R g).  The variant duals, and so the
    identity residuals, take the dual-mass pairing ``convention``, as
    ``duality.dual_of`` does.
    """
    base, rho = shifted(space, n), _rho(rho)  # judged before equal pairs merge
    m = base.masses.count
    # the (rho', N') of each variant: a Gram and a dual read only these, so
    # equal pairs give equal bits
    alpha, cut = (1.0, m), (1.0, min(_integer(cutoff, "mass cutoff", low=0), m))
    scaled, both = (rho, m), (rho, min(cutoff, m))

    grams = dict(regularized_grams(base, degree, (alpha, cut, scaled, both)))
    tol = max(order_tolerance(gram) for gram in grams.values())
    k = {pair: kernel_at_origin(gram).norm for pair, gram in grams.items()}
    g_alpha, g_cut, g_rho = grams[alpha], grams[cut], grams[scaled]
    del grams

    # each difference overwrites the entries of the Gram other than alpha's
    psd_cut = _psd_margin(g_alpha, g_cut, out=g_cut)
    psd_rho = _psd_margin(g_rho, g_alpha, out=g_rho)

    # the dual of each variant shifted up by one, kept as (T(0), dual space),
    # and the value at 0 of its outer factor: a shift leaves |R| alone and a
    # mass cutoff leaves R alone, so "cutoff" gives T_e(0), "scaled" T_e^rho(0)
    duals = {pair: _dual_parts(shifted(regularized(base, *pair), 1), convention)
             for pair in dict.fromkeys((cut, scaled, both))}
    # the primal Grams go only now: released before the duals, they would
    # lie at the top of the heap and be handed back to the system, and the
    # dual phase would fault their pages in again; released here, below the
    # dual spaces, they are reused by the dual Grams
    del g_alpha, g_cut, g_rho

    chain_upper = (duals[scaled][1] / duals[cut][1]) * k[both] - k[cut]

    # the identity T(0) K^{alpha_{-1}}(0) K~(0) = 1 for each variant shifted
    # up by one; its shifted-down kernel is the variant's own kernel
    residual = {}
    for pair, ((t_at_zero, dual_space), _) in duals.items():
        k_dual = kernel_at_origin(build_gram_analytic(dual_space, degree)).norm
        residual[pair] = abs(t_at_zero * k[pair] * k_dual - 1.0)

    return SandwichReport(
        k_alpha=k[alpha], k_cutoff=k[cut], k_scaled=k[scaled], k_both=k[both],
        margin_cutoff=k[cut] - k[alpha], margin_scaled=k[alpha] - k[scaled],
        psd_margin_cutoff=psd_cut, psd_margin_scaled=psd_rho,
        chain_upper_slack=chain_upper, tolerance=tol,
        identity_residuals={"cutoff": residual[cut], "scaled": residual[scaled],
                            "both": residual[both]},
    )
