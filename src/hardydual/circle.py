"""Function theory on the unit circle.

Everything downstream (metrics, kernels, the duality map) is built from the
primitives collected here: equispaced grids with FFT-backed Fourier data,
the Riesz projection onto antianalytic frequencies, outer functions
recovered from a boundary modulus, and Blaschke products with their
derivatives at the prescribed zeros.

Conventions.  Grid nodes are ``t_j = exp(2*pi*i*j/size)``.  Fourier
coefficient arrays use the FFT layout of length ``size``: the coefficient of
``t**p`` lives at index ``p % size``, so the lower half of the array holds
analytic frequencies (p >= 0) and the upper half antianalytic ones (p <= -1,
including the shared +-size/2 bin).  The L^2 norm on the circle is the
quadrature norm ``sqrt(mean |f(t_j)|^2)``, i.e. integration against
normalized Lebesgue measure.

Integers.  Every count and index the library takes is judged by one rule,
:func:`_integer`: a Python or numpy integer, never a bool, within its caller's
bounds, or else one ValueError, ``<name> must be an integer, got <repr>``.
The grid's limits: :func:`_grid_size`, :func:`_band_top`, :func:`_coefficient_index`.
"""

from __future__ import annotations

import ast
import operator
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from .errors import DuplicatePoint, GridMismatch, SzegoViolation
from .tolerances import TOL_BLASCHKE, TOL_TOUCH, TOL_UNIT

# inner block b of the two-level power table in evaluate_analytic
_POWER_BLOCK = 128

# longest sum handed to BLAS in one call.  OpenBLAS splits a complex dot of
# more than 10000 elements over its threads, and the bits of the split sum
# depend on the thread count; partial sums of fixed chunks, added in a fixed
# order, do not.  A sum of at most this length is one call.
SUM_CHUNK = 8192


def _integer(value, name: str, low=None, high=None) -> int:
    """``value`` as an int if it is a Python or numpy integer, not a bool, in
    low..high (``high`` only with ``low``); else one ValueError naming ``name``."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool) \
            and (low is None or value >= low) and (high is None or value <= high):
        return int(value)
    bounds = "" if low is None else f" >= {low}" if high is None else f" in {low}..{high}"
    raise ValueError(f"{name} must be an integer{bounds}, got {value!r}")


def _grid_size(value, name: str) -> int:
    """``value`` as an int if it is a power of two >= 8, else one ValueError."""
    n = _integer(value, name, low=8)
    if n & (n - 1):
        raise ValueError(f"{name} must be a power of two >= 8, got {n}")
    return n


def _band_top(value, name: str, size: int, low=0) -> int:
    """``value`` as an int if it is in low..size // 2 - 1, the top exponents a
    ``size``-point grid resolves (J = size/2 - top >= 1), by :func:`_integer`;
    a first exponent takes low = -size/2, so its Hankel run reads no bin twice."""
    return _integer(value, name, low, size // 2 - 1)


def _coefficient_index(value, size: int) -> int:
    """``value`` as an int if it indexes a coefficient r_p, |p| < size/2, of the grid."""
    return _integer(value, "coefficient index", 1 - size // 2, size // 2 - 1)


@dataclass(frozen=True)
class CircleGrid:
    """Equispaced nodes exp(2*pi*i*j/size), size a power of two >= 8."""

    size: int

    def __post_init__(self):
        object.__setattr__(self, "size", _grid_size(self.size, "grid size"))

    @cached_property
    def nodes(self) -> np.ndarray:
        j = np.arange(self.size)
        return np.exp(2j * np.pi * j / self.size)

    def monomials(self, powers, out=None) -> np.ndarray:
        """Samples of t^p, one row per p of ``powers`` (an integer or an
        integer array): t_j^p = t_{(p mod size) j mod size}, a re-indexing of
        the nodes, so no power loses modulus, however large p is.  p is
        reduced first, as a Python int past int64 may be."""
        return self.nodes.take(np.multiply.outer(powers % self.size, np.arange(self.size)),
                               mode="wrap", out=out)

    def check(self, values) -> np.ndarray:
        """Grid samples as a complex array: one vector, or a stack of them
        along leading axes, with the grid along the last axis."""
        values = np.asarray(values, dtype=complex)
        if values.ndim == 0 or values.shape[-1] != self.size:
            raise GridMismatch(
                f"expected {self.size} grid samples, got shape {values.shape}"
            )
        return values

    def coefficients(self, values) -> np.ndarray:
        """Fourier coefficients of grid samples, FFT layout (last axis)."""
        return np.fft.fft(self.check(values), norm="forward")

    def values(self, coeffs) -> np.ndarray:
        """Grid samples from FFT-layout coefficients (last axis)."""
        return np.fft.ifft(self.check(coeffs), norm="forward")

    def conjugate_reindex(self, values) -> np.ndarray:
        """Samples of F(conj(t_j)) from samples of F(t_j), along the last axis.

        conj(t_j) = t_{(size-j) % size}, so this is a pure re-indexing.
        """
        v = self.check(values)
        return np.concatenate((v[..., :1], v[..., :0:-1]), axis=-1)


def chunked_sum(contract, length: int):
    """Sum of ``contract(chunk)`` over slices of at most ``SUM_CHUNK``
    consecutive terms covering 0..length-1, added in order.  A sum of at most
    ``SUM_CHUNK`` terms is one call (an empty one too)."""
    first, *rest = range(0, max(length, 1), SUM_CHUNK)
    total = contract(slice(first, min(first + SUM_CHUNK, length)))
    for start in rest:
        total += contract(slice(start, min(start + SUM_CHUNK, length)))
    return total


def chunked_vecdot(a, b):
    """``np.vecdot(a, b)`` along the last axis by :func:`chunked_sum`, so its
    bits do not depend on BLAS threads."""
    return chunked_sum(lambda s: np.vecdot(a[..., s], b[..., s]), a.shape[-1])


def evaluate_analytic(coeffs, z):
    """Evaluate sum_{p >= 0} c_p z**p from an FFT-layout coefficient array.

    Only the analytic half of the array is used, every coefficient of it;
    valid for |z| < 1.  The powers of all points come from one
    :func:`power_table` and meet the coefficients in one matrix product
    (:func:`evaluate_with_table`).  Scalar in, scalar out; an array of
    points gives an array of its shape.  A stack of coefficient arrays
    (leading axes) gives the stack of those results, each row by the same
    matrix-vector product as alone.
    """
    c = np.asarray(coeffs, dtype=complex)
    z = np.asarray(z, dtype=complex)
    values = evaluate_with_table(c, power_table(z, c.shape[-1] // 2))
    return values.reshape(c.shape[:-1] + z.shape)[()]


def power_table(z, count: int) -> np.ndarray:
    """Rows z**0 .. z**(count-1), one per point of ``z`` (flattened).

    The powers are built in two levels, z**(b*j + i) = z**(b*j) * z**i with
    0 <= i < b, each level by running products.  A caller that evaluates
    many series at the same points builds the table once.
    """
    block = min(_POWER_BLOCK, max(_integer(count, "power count", low=0), 1))
    rows = -(-max(count, 1) // block)
    flat = np.asarray(z, dtype=complex).reshape(-1, 1)
    inner = _running_powers(flat, block)  # z**i
    outer = _running_powers(inner[:, -1:] * flat, rows)  # z**(b*j)
    powers = (outer[:, :, None] * inner[:, None, :]).reshape(len(flat), rows * block)
    return powers[:, :count]


def evaluate_with_table(coeffs, table: np.ndarray) -> np.ndarray:
    """sum_p c_p z**p at the points of a :func:`power_table` of as many
    powers as the analytic half of the FFT-layout ``coeffs``.

    Leading axes of ``coeffs`` make a stack; the result has the points
    along its last axis.
    """
    c = np.asarray(coeffs, dtype=complex)
    return (table @ c[..., : c.shape[-1] // 2, None])[..., 0]


def _running_powers(base: np.ndarray, count: int) -> np.ndarray:
    """Columns base**0 .. base**(count-1) of a column of bases, by products."""
    steps = np.repeat(base, count, axis=1)
    steps[:, 0] = 1.0
    return np.multiply.accumulate(steps, axis=1)


def riesz_project_values(values) -> np.ndarray:
    """The antianalytic Riesz projection P_- on grid samples (FFT round trip,
    last axis): it keeps the frequencies p <= -1, with the shared +-size/2
    bin, so ``values - riesz_project_values(values)`` is P_+.
    """
    c = np.fft.fft(np.asarray(values, dtype=complex))
    c[..., : c.shape[-1] // 2] = 0
    return np.fft.ifft(c, out=c)


# ---------------------------------------------------------------------------
# symbols


@dataclass(frozen=True, eq=False)
class SymbolData:
    """A contractive symbol R: grid samples plus Fourier coefficients.

    The two representations are kept consistent by construction; only the
    negative-index coefficients enter Hankel matrices downstream.
    """

    grid: CircleGrid
    values: np.ndarray
    coeffs: np.ndarray

    @cached_property
    def sup_modulus(self) -> float:
        return float(np.abs(self.values).max())


def symbol_from_samples(grid: CircleGrid, values) -> SymbolData:
    values = grid.check(values)
    if values.ndim != 1:
        raise GridMismatch(f"a symbol takes one vector of {grid.size} samples, "
                           f"got shape {values.shape}")
    return SymbolData(grid, values, grid.coefficients(values))


def symbol_from_coefficients(grid: CircleGrid, entries: Mapping[int, complex]) -> SymbolData:
    """Symbol from a sparse mapping {index p: coefficient r_p}, |p| < size/2."""
    coeffs = np.zeros(grid.size, dtype=complex)
    for p, value in entries.items():
        coeffs[_coefficient_index(p, grid.size) % grid.size] = complex(value)
    return SymbolData(grid, grid.values(coeffs), coeffs)


_FORMULA_FUNCS = {
    "conj": np.conj,
    "abs": np.abs,
    "exp": np.exp,
    "sqrt": np.sqrt,
    "cos": np.cos,
    "sin": np.sin,
}
_FORMULA_UNARY = {ast.UAdd: operator.pos, ast.USub: operator.neg}
_FORMULA_BINARY = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.Pow: operator.pow,
}
# an integer power of at least this many bits is refused before Python builds it
_FORMULA_MAX_BITS = 1100


def evaluate_formula(formula: str, t):
    """Evaluate a symbol formula at the points ``t``.

    The formula is parsed, never executed: it may hold numeric constants,
    the names ``t`` and ``pi``, unary ``+ -``, binary ``+ - * / **`` and
    calls to conj, abs, exp, sqrt, cos and sin with positional arguments.
    Anything else, and any failure while evaluating, raises ValueError.
    """
    try:
        return _formula_node(ast.parse(formula, mode="eval").body, t)
    except Exception as exc:
        raise ValueError(f"cannot evaluate symbol expression {formula!r}: {exc}") from exc


def _formula_node(node, t):
    if isinstance(node, ast.Constant) and type(node.value) in (int, float, complex):
        return node.value
    if isinstance(node, ast.Name) and node.id in ("t", "pi"):
        return t if node.id == "t" else np.pi
    if isinstance(node, ast.UnaryOp) and type(node.op) in _FORMULA_UNARY:
        return _FORMULA_UNARY[type(node.op)](_formula_node(node.operand, t))
    if isinstance(node, ast.BinOp) and type(node.op) in _FORMULA_BINARY:
        left = _formula_node(node.left, t)
        right = _formula_node(node.right, t)
        if isinstance(node.op, ast.Pow) and type(left) is int and type(right) is int \
                and (abs(left).bit_length() - 1) * right > _FORMULA_MAX_BITS:
            raise ValueError(f"integer power with exponent {right} out of range")
        return _FORMULA_BINARY[type(node.op)](left, right)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id in _FORMULA_FUNCS and not node.keywords:
        args = [_formula_node(arg, t) for arg in node.args]
        return _FORMULA_FUNCS[node.func.id](*args)
    raise ValueError(f"{type(node).__name__} not allowed in a formula")


def symbol_from_expression(grid: CircleGrid, formula: str) -> SymbolData:
    """Symbol from an expression in ``t`` and ``conj(t)``, e.g. ``"0.6*conj(t)"``.

    Evaluated on the grid by :func:`evaluate_formula`.
    """
    raw = evaluate_formula(formula, grid.nodes)
    values = np.broadcast_to(np.asarray(raw, dtype=complex), (grid.size,)).copy()
    return symbol_from_samples(grid, values)


def zero_symbol(grid: CircleGrid) -> SymbolData:
    return symbol_from_coefficients(grid, {})


# ---------------------------------------------------------------------------
# Szego validation


def validate_szego(symbol: SymbolData) -> None:
    """Check that the symbol is a contraction: finite, sup |R| <= 1 + TOL_UNIT.

    Raises SzegoViolation otherwise.  A contraction may still touch |R| = 1;
    only :func:`build_outer` needs it strictly below, and checks that itself.
    """
    if not np.isfinite(symbol.sup_modulus):
        raise SzegoViolation("symbol has non-finite samples (NaN or inf)")
    if symbol.sup_modulus > 1.0 + TOL_UNIT:
        raise SzegoViolation(
            f"sup |R| = {symbol.sup_modulus:.6g} exceeds 1 (not a contraction)"
        )


# ---------------------------------------------------------------------------
# mass sets


@dataclass(frozen=True, eq=False)
class MassSet:
    """Point masses: zeros zeta_k in the open disk, each pair at a
    pseudo-hyperbolic separation |zeta_j - zeta_k| / |1 - conj(zeta_j) zeta_k|
    of at least TOL_BLASCHKE, with weights nu_k > 0."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        points = np.atleast_1d(np.asarray(self.points, dtype=complex))
        weights = np.atleast_1d(np.asarray(self.weights, dtype=float))
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", weights)
        if points.shape != weights.shape:
            raise ValueError("points and weights must have matching lengths")
        if not (np.isfinite(points).all() and np.isfinite(weights).all()):
            raise ValueError("mass points and weights must be finite")
        if np.any(weights <= 0):
            raise ValueError("all mass weights must be strictly positive")
        if np.any(np.abs(points) >= 1):
            raise ValueError("all mass points must lie strictly inside the unit disk")
        if len(points) > 1:
            separation = np.abs(_pairwise_factors(points))
            np.fill_diagonal(separation, np.inf)
            if separation.min() < TOL_BLASCHKE:
                k, j = sorted(np.unravel_index(np.argmin(separation), separation.shape))
                raise DuplicatePoint(f"mass points {points[k]:.9g} and {points[j]:.9g} are at "
                                     f"pseudo-hyperbolic separation {separation.min():.2e}, "
                                     f"below {TOL_BLASCHKE:g}")

    @classmethod
    def empty(cls) -> "MassSet":
        return cls(np.empty(0, dtype=complex), np.empty(0, dtype=float))

    @property
    def count(self) -> int:
        return int(self.points.size)

    @property
    def has_origin(self) -> bool:
        return bool(np.any(self.points == 0))

    def truncated(self, n: int) -> "MassSet":
        """Keep the first n masses (in the order supplied)."""
        n = _integer(n, "mass cutoff", 0, self.count)
        return MassSet(self.points[:n], self.weights[:n])


# ---------------------------------------------------------------------------
# outer function


@dataclass(frozen=True, eq=False)
class OuterData:
    """Outer function T_e with |T_e|^2 = 1 - |R|^2 and T_e(0) > 0."""

    grid: CircleGrid
    values: np.ndarray
    coeffs: np.ndarray
    value_at_zero: float

    def value_at(self, z):
        """Analytic continuation into the disk via the power series."""
        return evaluate_analytic(self.coeffs, z)


def build_outer(symbol: SymbolData) -> OuterData:
    """Outer function from the boundary modulus 1 - |R|^2.

    T_e = exp(v) where v is the analytic completion of u = log sqrt(1-|R|^2)
    on the grid: keep u's mean, double the positive frequencies, drop the
    negative ones.  Then |T_e| = exp(u) on the boundary while T_e stays
    analytic and zero-free, with T_e(0) = exp(mean u) > 0.

    Raises SzegoViolation when the symbol is not a contraction, or when
    1 - |R| < TOL_TOUCH at a node (the log blows up); scale the symbol down
    explicitly instead.
    """
    validate_szego(symbol)
    touching = np.nonzero(1.0 - np.abs(symbol.values) < TOL_TOUCH)[0]
    if touching.size:
        raise SzegoViolation(
            f"|R| touches 1 at node(s) {touching[:8].tolist()}; "
            "outer function undefined (pass rho < 1 to regularize)"
        )
    grid = symbol.grid
    u = 0.5 * np.log(1.0 - np.abs(symbol.values) ** 2)
    uh = np.fft.fft(u) / grid.size
    half = grid.size // 2
    vh = np.zeros_like(uh)
    vh[0] = uh[0]
    vh[1:half] = 2.0 * uh[1:half]  # shared +-half bin dropped: aliasing level
    te = np.exp(np.fft.ifft(vh * grid.size))
    return OuterData(grid, te, grid.coefficients(te), float(np.exp(uh[0].real)))


# ---------------------------------------------------------------------------
# Blaschke products


def _factor_values(point: complex, z: np.ndarray) -> np.ndarray:
    # zeta_k = 0 uses the limit convention: the factor is z itself
    if point == 0:
        return z
    return (point - z) / (1.0 - np.conj(point) * z) * (abs(point) / point)


def _pairwise_factors(points: np.ndarray) -> np.ndarray:
    """b_j(zeta_k) at [k, j] (:func:`_factor_values`), zero on the diagonal; the
    modulus of an entry is the pseudo-hyperbolic separation of its two points."""
    factors = np.empty((points.size, points.size), dtype=complex)
    for j, point in enumerate(points.tolist()):
        factors[:, j] = _factor_values(point, points)
    return factors


@dataclass(frozen=True, eq=False)
class BlaschkeData:
    """Blaschke product over a mass set, with T(0) for T = T_e / B.

    ``derivative_at_zeros[k]`` is B'(zeta_k) = b_k'(zeta_k) times the row
    product of the other factors b_j(zeta_k) (:func:`_pairwise_factors`), each
    of modulus below 1, so no partial product underflows unless the row's does.
    ``T_at_zero`` is +inf when a mass sits at the origin (B(0) = 0).
    """

    values: np.ndarray
    derivative_at_zeros: np.ndarray
    value_at_zero: float
    T_at_zero: float


def build_blaschke(masses: MassSet, outer: OuterData) -> BlaschkeData:
    """Blaschke product for the mass points on the grid, plus T(0) = T_e(0)/B(0)."""
    points = masses.points
    grid = outer.grid
    nodes = grid.nodes

    b_values = np.ones(grid.size, dtype=complex)
    for point in points:
        b_values *= _factor_values(complex(point), nodes)

    others = _pairwise_factors(points)
    np.fill_diagonal(others, 1.0)
    # b_k'(zeta_k): -(|zeta_k|/zeta_k) / (1 - |zeta_k|^2), and 1 for the limit factor z
    slopes = np.array([-(abs(p) / p) / (1.0 - abs(p) ** 2) if p else 1.0
                       for p in points.tolist()], dtype=complex)
    deriv = slopes * np.prod(others, axis=1)

    value_at_zero = float(np.prod(np.abs(points)))
    if masses.has_origin:
        warnings.warn("mass at the origin: B(0) = 0, T(0) undefined", stacklevel=2)
        t_at_zero = float("inf")
    else:
        t_at_zero = outer.value_at_zero / value_at_zero
    return BlaschkeData(
        values=b_values,
        derivative_at_zeros=deriv,
        value_at_zero=value_at_zero,
        T_at_zero=t_at_zero,
    )
