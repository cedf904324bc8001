import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hardydual import (
    CircleGrid,
    DuplicatePoint,
    GridMismatch,
    MassSet,
    SzegoViolation,
    build_blaschke,
    build_outer,
    evaluate_analytic,
    riesz_project_values,
    symbol_from_coefficients,
    symbol_from_expression,
    symbol_from_samples,
    validate_szego,
    zero_symbol,
)
from hardydual.circle import _POWER_BLOCK, evaluate_formula
from hardydual.corpus import CASES
from oracle import (
    blaschke_derivative_at_zeros,
    blaschke_value,
    fd_derivative,
    golden_angle_points,
    riesz_project,
    symbol_values,
)


def test_grid_nodes_unit_modulus_increasing_angle():
    grid = CircleGrid(64)
    assert np.abs(np.abs(grid.nodes) - 1).max() < 1e-15
    angles = np.angle(grid.nodes * np.exp(-1j * 1e-12))  # avoid branch wrap at -pi
    assert np.all(np.diff(np.unwrap(angles)) > 0)


@pytest.mark.parametrize("size", [7, 12, 100, 4])
def test_grid_rejects_non_power_of_two(size):
    with pytest.raises(ValueError):
        CircleGrid(size)


def test_fft_roundtrip(grid512):
    rng = np.random.default_rng(0)
    values = rng.standard_normal(512) + 1j * rng.standard_normal(512)
    coeffs = grid512.coefficients(values)
    assert np.abs(grid512.values(coeffs) - values).max() < 1e-12


def test_conjugate_reindex(grid512):
    f = grid512.nodes ** 3 + 2.0 * grid512.nodes ** (-1)
    expected = np.conj(grid512.nodes) ** 3 + 2.0 * np.conj(grid512.nodes) ** (-1)
    assert np.abs(grid512.conjugate_reindex(f) - expected).max() < 1e-13
    rng = np.random.default_rng(3)
    for size in 2 ** np.arange(3, 15):
        grid = CircleGrid(int(size))
        v = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
        assert np.array_equal(grid.conjugate_reindex(v), np.roll(v[::-1], 1))


def test_grid_shape_check_is_on_the_last_axis(grid512):
    # stacks pass along leading axes; a wrong last axis, a scalar and a
    # stacked symbol do not
    stack = np.ones((3, 2, 512), dtype=complex)
    assert grid512.check(stack).shape == (3, 2, 512)
    for bad in (np.ones((512, 3)), np.ones(256), 1.0):
        with pytest.raises(GridMismatch):
            grid512.check(bad)
    with pytest.raises(GridMismatch):
        symbol_from_samples(grid512, np.zeros((2, 512)))


# --- Riesz projections ------------------------------------------------------

complex_lists = st.lists(
    st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
    min_size=8, max_size=8,
)


@given(complex_lists)
@settings(deadline=None, max_examples=50)
def test_riesz_projections_complementary_and_idempotent(coeffs):
    grid = CircleGrid(8)
    v = grid.values(np.asarray(coeffs))
    tol = 1e-14 * (1.0 + np.abs(v).max())
    plus = riesz_project_values(v, "analytic")
    minus = riesz_project_values(v, "antianalytic")
    assert np.abs(plus + minus - v).max() <= tol
    assert np.abs(riesz_project_values(plus, "analytic") - plus).max() <= tol
    assert np.abs(riesz_project_values(minus, "antianalytic") - minus).max() <= tol
    assert np.abs(riesz_project_values(plus, "antianalytic")).max() <= tol
    # the shared +-size/2 bin goes to the antianalytic half
    assert np.abs(grid.coefficients(plus)[4:]).max() <= tol
    assert np.abs(grid.coefficients(minus)[:4]).max() <= tol


def test_riesz_antianalytic_keeps_negative_index():
    grid = CircleGrid(16)
    coeffs = np.zeros(16, dtype=complex)
    coeffs[-1 % 16] = 2.5 + 1j
    coeffs[8] = 0.75j  # the shared +-8 bin
    coeffs[0] = -1.0
    out = grid.coefficients(riesz_project_values(grid.values(coeffs), "antianalytic"))
    assert abs(out[-1 % 16] - (2.5 + 1j)) < 1e-15
    assert abs(out[8] - 0.75j) < 1e-15
    assert np.abs(out[:8]).max() < 1e-15


def test_riesz_grid_route_matches_coefficient_shift(grid512):
    # P_-(R z^n) two ways: sample-and-filter vs shift-the-coefficients
    symbol = symbol_from_expression(grid512, "0.6*conj(t) + 0.25*conj(t)**2")
    n = 1
    sampled = riesz_project_values(symbol.values * grid512.nodes ** n, "antianalytic")
    shifted_coeffs = riesz_project(np.roll(symbol.coeffs, n), "antianalytic")
    assert np.abs(grid512.coefficients(sampled) - shifted_coeffs).max() < 1e-14


def test_riesz_rejects_unknown_sign():
    with pytest.raises(ValueError):
        riesz_project_values(np.zeros(8, dtype=complex), "sideways")


# --- series evaluation inside the disk ---------------------------------------

@st.composite
def analytic_series(draw):
    """FFT-layout coefficients with a drawn decay and spikes up to the band edge."""
    size = 2 ** draw(st.integers(3, 14))
    half = size // 2
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coeffs = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    coeffs[:half] *= np.exp(-draw(st.floats(0.0, 1.0)) * np.arange(half))
    spikes = st.tuples(st.floats(0.0, 1.0),
                       st.complex_numbers(max_magnitude=1e6, allow_nan=False,
                                          allow_infinity=False))
    for where, value in draw(st.lists(spikes, max_size=3)):
        coeffs[int(where * (half - 1))] += value
    return coeffs


disk_points = st.lists(
    st.builds(lambda r, a: r * np.exp(1j * a),
              st.floats(0.0, 0.999), st.floats(0.0, 2 * np.pi)),
    max_size=4,
)


def _horner_longdouble(coeffs, z):
    c = np.asarray(coeffs[: coeffs.size // 2], dtype=np.clongdouble)
    z = np.asarray(z, dtype=np.clongdouble)
    out = np.zeros_like(z)
    for cp in c[::-1]:
        out = out * z + cp
    return out


def _rounding_bounds(coeffs, z):
    """Rounding bounds, at each point of ``z``, of ``evaluate_analytic``, of
    Horner's rule in double, and of Horner's rule in long double.

    Let u be the unit roundoff (eps / 2).  A complex product is off by at
    most mu |a b| with mu = sqrt(5) u (Brent, Percival and Zimmermann,
    2007), a complex sum by u |a + b|, and gamma_k = k u / (1 - k u).

    ``evaluate_analytic`` forms z**p, p = b j + i (b = _POWER_BLOCK), as
    outer[j] * inner[i]: inner[i] is a running product of i factors z,
    w = inner[b-1] z takes b products, and outer[j] is a running product
    of j factors w.  So the table entry t_p carries at most p + j + 1
    complex roundings, |t_p - z**p| <= ((1 + mu)^(p+j+1) - 1) |z|^p.  The
    n table entries then meet the coefficients in one BLAS product, whose
    summation order (blocking, accumulators, FMA) is not known.  Its real
    and imaginary parts are each a sum of 2n real products, so in any order
    every product passes through at most 2n roundings: each part is off by
    at most gamma_2n sum_p |c_p| |t_p|, the modulus by sqrt(2) times that.
    Every coefficient, the constant term included, is carried through the
    whole sum; an allowance weighting c_p by p + 1, as Horner's rule does,
    undercounts c_0.  Together,

        |error| <= sum_p |c_p| |z|^p ((1 + sqrt(2) gamma_2n) (1 + mu)^(p+j+1) - 1).

    In Horner's rule c_p passes through p products and p + 1 sums, so

        |error| <= sum_p |c_p| |z|^p ((1 + mu)^p (1 + u)^(p+1) - 1).

    The factors are formed through log1p and expm1, since 1 + u is 1 in
    double for the long-double u.
    """
    c = np.abs(coeffs[: coeffs.size // 2])
    p = np.arange(c.size)

    def horner(eps):
        u = eps / 2
        return np.expm1(p * np.log1p(np.sqrt(5) * u) + (p + 1) * np.log1p(u))

    u = np.finfo(float).eps / 2
    gamma = 2 * c.size * u / (1 - 2 * c.size * u)
    table = np.expm1(np.log1p(np.sqrt(2) * gamma)
                     + (p + p // _POWER_BLOCK + 1) * np.log1p(np.sqrt(5) * u))

    def bound(factor):
        return np.array([np.sum(factor * c * abs(point) ** p)
                         for point in np.atleast_1d(z)]).reshape(np.shape(z))

    return (bound(table), bound(horner(np.finfo(float).eps)),
            bound(horner(np.finfo(np.longdouble).eps)))


def _spiked_series():
    """1024 coefficients with a spike of 1.3e5j at index 0: a draw on which
    an allowance weighting c_0 by 1 once failed."""
    rng = np.random.default_rng(0)
    coeffs = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
    coeffs[0] += 1.3e5j
    return coeffs


@given(analytic_series(), disk_points)
@example(_spiked_series(), [0.984375 * np.exp(1.375j)])
@settings(deadline=None, max_examples=60)
def test_evaluate_analytic_within_horner_rounding(coeffs, points):
    horner = np.polynomial.polynomial.polyval
    forms = [np.array(points, dtype=complex)] + [complex(z) for z in points]
    for z in forms:
        ref = _horner_longdouble(coeffs, z)
        bound_table, bound_horner, bound_ref = _rounding_bounds(coeffs, z)
        new = evaluate_analytic(coeffs, z)
        old = horner(z, coeffs[: coeffs.size // 2])
        assert np.shape(new) == np.shape(old)
        assert np.all(np.abs(new - ref) <= bound_table + bound_ref)
        assert np.all(np.abs(old - ref) <= bound_horner + bound_ref)


def test_evaluate_analytic_at_origin_is_constant_term():
    rng = np.random.default_rng(3)
    coeffs = rng.standard_normal(4096) + 1j * rng.standard_normal(4096)
    assert evaluate_analytic(coeffs, 0.0) == coeffs[0]
    assert np.ndim(evaluate_analytic(coeffs, 0.0)) == 0
    at = evaluate_analytic(coeffs, np.array([[0.0, 0.5j], [0.0, -0.3]]))
    assert at.shape == (2, 2) and at[0, 0] == coeffs[0] and at[1, 0] == coeffs[0]


# --- symbols and Szego validation -------------------------------------------

def test_symbol_encodings_agree(grid512):
    by_expr = symbol_from_expression(grid512, "0.3*conj(t) + 0.1*t")
    by_coeff = symbol_from_coefficients(grid512, {-1: 0.3, 1: 0.1})
    by_sample = symbol_from_samples(grid512, by_expr.values)
    assert np.abs(by_expr.values - by_coeff.values).max() < 1e-14
    assert np.abs(by_expr.coeffs - by_sample.coeffs).max() < 1e-14


# each symbol formula the corpus and the README use, written in numpy
NUMPY_FORMULAS = {
    "0.6*conj(t)": lambda t: 0.6 * np.conj(t),
    "0.3*conj(t)": lambda t: 0.3 * np.conj(t),
    "0.25*conj(t) + 0.15*conj(t)**3":
        lambda t: 0.25 * np.conj(t) + 0.15 * np.conj(t) ** 3,
    "0.5*conj(t)**2": lambda t: 0.5 * np.conj(t) ** 2,
    "(0.2+0.1j)*conj(t) + 0.2*conj(t)**2 + 0.1*t":
        lambda t: (0.2 + 0.1j) * np.conj(t) + 0.2 * np.conj(t) ** 2 + 0.1 * t,
    "0.55*conj(t)/(1 - 0.35*conj(t))":
        lambda t: 0.55 * np.conj(t) / (1 - 0.35 * np.conj(t)),
}


def test_formula_samples_match_numpy_bit_for_bit(grid512):
    corpus = {case.formula for case in CASES if case.formula is not None}
    assert corpus <= set(NUMPY_FORMULAS)
    for case in CASES:
        if case.formula is not None:
            expected = NUMPY_FORMULAS[case.formula](grid512.nodes)
            assert np.array_equal(symbol_values(case, grid512.nodes), expected)
    for formula, numpy_form in NUMPY_FORMULAS.items():
        expected = numpy_form(grid512.nodes)
        assert np.array_equal(symbol_from_expression(grid512, formula).values, expected)


def test_formula_whitelist():
    t = np.exp(1j * np.linspace(0.0, 6.0, 7))
    assert np.array_equal(evaluate_formula("-exp(sqrt(abs(cos(t)))) + +sin(pi/t)**2", t),
                          -np.exp(np.sqrt(np.abs(np.cos(t)))) + np.sin(np.pi / t) ** 2)
    for formula in [
        "().__class__.__base__.__subclasses__()[0].__name__ and 0.1",
        "t.real", "t[0]", "x * t", "conj(t=t)", "conj(*[t])", "__import__('os')",
        "True * t", "'t'", "[t][0]", "t if 1 else 0", "lambda: t", "t // 2",
        "t % 2", "~t", "9**9**9", "conj(t", "",
    ]:
        with pytest.raises(ValueError):
            evaluate_formula(formula, t)


def test_symbol_rejects_out_of_band_coefficient(grid512):
    with pytest.raises(ValueError):
        symbol_from_coefficients(grid512, {300: 1.0})


def test_validate_szego_rejects_expansion(grid512):
    with pytest.raises(SzegoViolation):
        validate_szego(symbol_from_expression(grid512, "1.5*conj(t)"))
    values = np.full(grid512.size, 0.1, dtype=complex)
    values[3] = np.nan
    with pytest.raises(SzegoViolation, match="non-finite"):
        validate_szego(symbol_from_samples(grid512, values))


def test_validate_szego_accepts_touching_node(grid512):
    # |R| = 1 exactly at t = 1, below elsewhere: a contraction, accepted
    # silently; only the outer function needs |R| < 1
    values = 0.5 * (grid512.nodes + 1.0) * np.conj(grid512.nodes)
    symbol = symbol_from_samples(grid512, values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert validate_szego(symbol) is None


# --- outer functions ---------------------------------------------------------

def test_outer_zero_symbol_is_one(grid512):
    outer = build_outer(zero_symbol(grid512))
    assert np.abs(outer.values - 1.0).max() < 1e-14
    assert outer.value_at_zero == 1.0


def test_outer_constant_modulus(grid512):
    outer = build_outer(symbol_from_expression(grid512, "0.6*conj(t)"))
    assert np.abs(outer.values - 0.8).max() < 1e-13
    assert abs(outer.value_at_zero - 0.8) < 1e-14


def test_outer_smooth_symbol_properties(grid512):
    symbol = symbol_from_expression(grid512, "0.5*conj(t)/(1 - 0.3*conj(t))")
    outer = build_outer(symbol)
    # boundary modulus identity
    defect = np.abs(np.abs(outer.values) ** 2 + np.abs(symbol.values) ** 2 - 1.0)
    assert defect.max() < 1e-8
    # analyticity: negative-index coefficients below tolerance
    negative = outer.coeffs[grid512.size // 2:]
    assert np.abs(negative).max() < 1e-8
    assert outer.value_at_zero > 0
    # interior evaluation matches the grid values through the Poisson limit:
    # check against direct series evaluation at a point well inside
    assert abs(outer.value_at(0.0) - outer.value_at_zero) < 1e-12


def test_outer_rejects_touching_symbol(grid512):
    values = 0.5 * (grid512.nodes + 1.0) * np.conj(grid512.nodes)
    symbol = symbol_from_samples(grid512, values)
    with pytest.raises(SzegoViolation, match=r"node\(s\) \[0\]"):
        build_outer(symbol)


# --- mass sets and Blaschke products -----------------------------------------

def test_mass_set_validation():
    with pytest.raises(ValueError):
        MassSet(np.array([0.5]), np.array([-1.0]))
    with pytest.raises(ValueError):
        MassSet(np.array([1.2]), np.array([1.0]))
    with pytest.raises(DuplicatePoint):
        MassSet(np.array([0.5, 0.5]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="finite"):
        MassSet(np.array([np.nan]), np.array([1.0]))
    with pytest.raises(ValueError, match="finite"):
        MassSet(np.array([0.5]), np.array([np.inf]))
    masses = MassSet(np.array([0.5, 0.25j]), np.array([1.0, 2.0]))
    assert not masses.has_origin
    assert MassSet(np.array([0.0]), np.array([1.0])).has_origin


def test_blaschke_single_zero(grid512):
    outer = build_outer(zero_symbol(grid512))
    masses = MassSet(np.array([0.5]), np.array([3.0]))
    bl = build_blaschke(masses, outer)
    assert abs(bl.value_at_zero - 0.5) < 1e-15
    assert abs(bl.derivative_at_zeros[0] - (-4.0 / 3.0)) < 1e-12
    assert np.abs(np.abs(bl.values) - 1.0).max() < 1e-12
    assert np.abs(bl.values - blaschke_value(masses.points, grid512.nodes)).max() < 1e-12
    assert abs(bl.T_at_zero - 2.0) < 1e-14


def test_blaschke_product_of_zeros(grid512):
    outer = build_outer(zero_symbol(grid512))
    masses = MassSet(np.array([0.5, 1 / 3]), np.array([1.0, 1.0]))
    bl = build_blaschke(masses, outer)
    assert abs(bl.value_at_zero - 1.0 / 6.0) < 1e-14
    assert np.abs(bl.values - blaschke_value(masses.points, grid512.nodes)).max() < 1e-12


@pytest.mark.parametrize("point", [0.5, -0.7, 0.3 + 0.4j, 0.9, 0.85j])
def test_blaschke_derivative_matches_finite_differences(grid512, point):
    outer = build_outer(zero_symbol(grid512))
    masses = MassSet(np.array([point, 0.1]), np.array([1.0, 1.0]))
    bl = build_blaschke(masses, outer)
    fd = fd_derivative(lambda z: complex(blaschke_value(masses.points, z)), point,
                       step=1e-5)
    assert abs(bl.derivative_at_zeros[0] - fd) / abs(fd) < 1e-6


def test_blaschke_origin_point_uses_limit_factor(grid512):
    outer = build_outer(zero_symbol(grid512))
    masses = MassSet(np.array([0.0, 0.5]), np.array([1.0, 1.0]))
    with pytest.warns(UserWarning):
        bl = build_blaschke(masses, outer)
    assert bl.value_at_zero == 0.0
    assert np.isinf(bl.T_at_zero)
    # the origin factor is z
    assert np.abs(bl.values - blaschke_value(masses.points, grid512.nodes)).max() < 1e-12


def test_mass_set_rejects_near_duplicates():
    # pairs at a pseudo-hyperbolic separation below TOL_BLASCHKE never reach
    # a Blaschke product: the mass set refuses them
    with pytest.raises(DuplicatePoint):
        MassSet(np.array([0.5, 0.5 + 1e-10]), np.array([1.0, 1.0]))
    # 1e-7 apart at 0.5: separation 1e-7 / (1 - 0.5 (0.5 + 1e-7)) = 1.33e-7
    with pytest.raises(DuplicatePoint, match=r"at pseudo-hyperbolic separation 1\.33e-07, "
                                             r"below 1e-06"):
        MassSet(np.array([0.5, 0.5 + 1e-7]), np.array([1.0, 1.0]))
    # the origin's factor is z, so its separation from a point is that point's modulus
    with pytest.raises(DuplicatePoint, match=r"separation 5\.00e-07"):
        MassSet(np.array([0.0, 5e-7j]), np.array([1.0, 1.0]))
    # near the circle a Euclidean distance of 5e-9 is a separation of 2.5e-6
    near_circle = np.array([0.999, 0.999 + 5e-9])
    assert abs(near_circle[1] - near_circle[0]) < 1e-8
    assert MassSet(near_circle, np.array([1.0, 1.0])).count == 2


@pytest.mark.parametrize("points", [golden_angle_points(2), golden_angle_points(8),
                                    golden_angle_points(64), golden_angle_points(256),
                                    np.concatenate(([0.0], golden_angle_points(8)))],
                         ids=["2", "8", "64", "256", "8-and-origin"])
def test_blaschke_derivative_matches_the_product_rule_loop(grid512, points):
    # the row products against one factor at a time in Python complex
    # arithmetic.  Each path rounds every factor of the m-term product (the
    # vectorised one with fused multiply-adds), so they agree to a relative
    # 4 m eps, not bit for bit; measured at most 0.4 m eps on these sets
    outer = build_outer(zero_symbol(grid512))
    masses = MassSet(points, np.ones(len(points)))
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "mass at the origin", UserWarning)
        deriv = build_blaschke(masses, outer).derivative_at_zeros
    reference = blaschke_derivative_at_zeros(points)
    assert np.all(np.abs(deriv - reference) <= 4 * len(points) * np.finfo(float).eps
                  * np.abs(reference))
