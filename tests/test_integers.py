"""One integer rule: every count and index the library takes is judged by
``circle._integer``, and the grid's band by ``circle._band_top``.

Each public count is listed once, as (name, call, bounds): ``call`` takes
the count and hands it to the library, and ``bounds`` is (low, high), either
of them None.  A float, a bool, a numpy float with an integer value and an
int out of bounds each raise one ValueError that names the count.  Each
library entry that builds a Gram or a polynomial on the grid refuses a top
exponent past the band, size/2 - 1, with one ValueError naming it, the grid
size and the bound, and runs at the band's last exponent; a Hankel Gram's
first exponent is judged by the same band rule in ``hankel_block``, down to
-size/2.  A symbol scaling rho has one rule too, ``spaces._rho``: a real
number, not a bool, in (0, 1], stored as a float.
"""

import math

import re

import numpy as np
import pytest

from hardydual import (
    CircleGrid,
    MassSet,
    SpaceData,
    asymptotic_sweep,
    build_gram_analytic,
    build_gram_laurent,
    dual_of,
    duality_identity,
    embed_analytic_vector,
    embed_h2,
    orthonormal_system,
    regularized,
    sandwich_check,
    shifted,
    symbol_from_coefficients,
    symbol_from_expression,
    theorem_check,
)
from hardydual.circle import power_table
from hardydual.corpus import BY_NAME
from hardydual.spaces import analytic_hankel, hankel_block, kernel_at_point
from hardydual.errors import RejectBoundary

GRID = 256
SPACE = BY_NAME["mixed_rational"].space(GRID)
DUAL = dual_of(SPACE)

COUNTS = [
    ("grid size", lambda v: CircleGrid(v), (8, None)),
    ("coefficient index", lambda v: symbol_from_coefficients(SPACE.grid, {v: 0.1}),
     (1 - GRID // 2, GRID // 2 - 1)),
    ("mass cutoff", lambda v: SPACE.masses.truncated(v), (0, SPACE.masses.count)),
    ("mass cutoff", lambda v: regularized(SPACE, mass_cutoff=v), (0, None)),
    ("mass cutoff", lambda v: sandwich_check(SPACE, v, 0.5, 0, 4), (0, None)),
    ("shift", lambda v: SpaceData(SPACE.symbol, SPACE.masses, shift=v), (None, None)),
    ("shift", lambda v: shifted(SPACE, v), (None, None)),
    ("shift", lambda v: orthonormal_system(SPACE, [v], 4), (None, None)),
    ("shift", lambda v: sandwich_check(SPACE, 1, 0.5, v, 4), (None, None)),
    ("Hankel exponent", lambda v: hankel_block(SPACE.symbol, [v, v + 1], 8), (None, None)),
    ("Hankel truncation", lambda v: hankel_block(SPACE.symbol, np.arange(3), v),
     (1, GRID // 2 - 2)),
    ("degree", lambda v: analytic_hankel(SPACE, v), (0, None)),
    ("degree", lambda v: build_gram_analytic(SPACE, v), (0, None)),
    ("degree", lambda v: asymptotic_sweep(SPACE, 4, v), (0, None)),
    ("degree", lambda v: orthonormal_system(SPACE, [0, 1], v), (0, None)),
    ("degree", lambda v: theorem_check(SPACE, DUAL, v), (0, None)),
    ("degree", lambda v: duality_identity(SPACE, DUAL, v), (0, None)),
    ("degree", lambda v: sandwich_check(SPACE, 1, 0.5, 0, v), (0, None)),
    ("degree", lambda v: embed_h2(SPACE, v, 8), (0, 8)),
    ("n_max", lambda v: asymptotic_sweep(SPACE, v, 4), (1, None)),
    ("half_band", lambda v: build_gram_laurent(SPACE, v), (0, None)),
    ("half_band", lambda v: embed_h2(SPACE, 0, v), (0, None)),
    ("power count", lambda v: power_table(np.array([0.5]), v), (0, None)),
]


def _refused(low, high):
    """The values every count refuses: not integers, or out of its bounds."""
    values = [1.5, True, np.float64(2.0)]
    values += [low - 1] if low is not None else []
    values += [high + 1] if high is not None else []
    return values


def _bounds_text(low, high):
    if low is None:
        return ""
    return f" >= {low}" if high is None else f" in {low}..{high}"


@pytest.mark.parametrize("name, call, bounds", COUNTS,
                         ids=[f"{i}-{name}" for i, (name, _, _) in enumerate(COUNTS)])
def test_every_count_refuses_what_is_not_an_integer_in_bounds(name, call, bounds):
    for value in _refused(*bounds):
        message = f"{name} must be an integer{_bounds_text(*bounds)}, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(value)


@pytest.mark.parametrize("case", ["mixed_rational", "mass_single"])
def test_numpy_integer_counts_build_the_int_counts_bits(case):
    def run(count):
        space = BY_NAME[case].space(count(512))
        dual = dual_of(space)
        return [
            asymptotic_sweep(space, count(6), count(16)).values,
            orthonormal_system(space, [count(0), count(2)], count(16)).vectors,
            build_gram_laurent(space, count(8)),
            regularized(shifted(space, count(1)), mass_cutoff=count(1)).masses.weights,
            hankel_block(space.symbol, np.arange(count(2), count(6)), count(40)),
            theorem_check(space, dual, count(8)).forward_hardy_residual,
            duality_identity(space, dual, count(16)).residual,
            sandwich_check(space, count(1), 0.5, count(1), count(16)).k_both,
        ]

    for plain, numpy_count in zip(run(int), run(np.int64)):
        assert np.asarray(plain).tobytes() == np.asarray(numpy_count).tobytes()


def test_numpy_grid_size_is_stored_as_an_int():
    grid = CircleGrid(np.int64(64))
    assert type(grid.size) is int and grid == CircleGrid(64)


@pytest.mark.parametrize("point", [float("nan"), complex(0.0, float("nan")), 1.0, 2.0j])
def test_kernel_at_a_nan_or_boundary_point_is_refused(point):
    gram = build_gram_analytic(SPACE, 4)
    with pytest.raises(RejectBoundary, match="not inside the open disk"):
        kernel_at_point(gram, point)


@pytest.mark.parametrize("exponents, value", [
    ([0, 1.0, 2.0], 1.0),
    ([0, True], True),
    (np.array([0.0, 1.0]), np.float64(0.0)),
], ids=["float", "bool", "float-array"])
def test_every_hankel_exponent_is_judged(exponents, value):
    # np.asarray([0, True]) is an int array: each entry is judged, not the dtype
    message = f"Hankel exponent must be an integer, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        hankel_block(SPACE.symbol, exponents, 8)


def test_integer_hankel_exponents_give_the_same_block_as_an_array():
    block = hankel_block(SPACE.symbol, np.arange(2, 7), 40)
    for exponents in ([2, 3, 4, 5, 6], [np.int64(e) for e in range(2, 7)], range(2, 7)):
        assert hankel_block(SPACE.symbol, exponents, 40).tobytes() == block.tobytes()


TOP = GRID // 2 - 1
# (name, call, value at the band's last exponent, values past it): the top
# exponent is the value plus what the call adds to it
BAND = [
    ("top exponent", lambda v: asymptotic_sweep(SPACE, v, 48), TOP - 48, [TOP - 47, 120]),
    ("top exponent", lambda v: orthonormal_system(SPACE, range(v), 48), TOP - 47, [TOP - 46, 100]),
    ("top exponent", lambda v: build_gram_analytic(SPACE, v), TOP, [TOP + 1]),
    ("half_band", lambda v: build_gram_laurent(SPACE, v), TOP, [TOP + 1]),
    ("half_band", lambda v: theorem_check(SPACE, DUAL, v), TOP, [TOP + 1, 200]),
    ("top exponent", lambda v: duality_identity(SPACE, DUAL, v), TOP, [TOP + 1]),
    ("top exponent", lambda v: sandwich_check(SPACE, 1, 0.5, 0, v), TOP, [TOP + 1]),
    ("degree", lambda v: embed_analytic_vector(SPACE.symbol, SPACE.masses, np.ones(v)),
     TOP + 1, [TOP + 2]),
]


@pytest.mark.parametrize("name, call, inside, past", BAND,
                         ids=["asymptotic_sweep", "orthonormal_system", "build_gram_analytic",
                              "build_gram_laurent", "theorem_check", "duality_identity",
                              "sandwich_check", "embed_analytic_vector"])
def test_every_entry_judges_its_top_exponent_by_the_band(name, call, inside, past):
    call(inside)
    for value in past:
        top = value + TOP - inside
        message = f"{name} on a size-{GRID} grid must be an integer in 0..{TOP}, got {top}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(value)


def test_an_empty_coefficient_array_embeds_the_zero_polynomial():
    vector = embed_analytic_vector(SPACE.symbol, SPACE.masses, np.ones(0))
    assert not (vector.f1.any() or vector.f2.any() or vector.mass_values.any())


# a contraction with a slowly decaying antianalytic part: a first exponent
# below -size/2 would read r_(p + size) for r_p, an aliased coefficient
_BOTTOM_SYMBOL = "0.03*conj(t)/(1-0.9*conj(t)) + 0.2*t/(1-0.5*t)"


def _bottom_space(grid, shift=0):
    symbol = symbol_from_expression(CircleGrid(grid), _BOTTOM_SYMBOL)
    return SpaceData(symbol, MassSet.empty(), shift=shift)


BOTTOM = [
    lambda grid, n: build_gram_analytic(_bottom_space(grid, n), 4),
    lambda grid, n: asymptotic_sweep(_bottom_space(grid, n), 4, 4).values,
    lambda grid, n: orthonormal_system(_bottom_space(grid), [n, n + 1], 4).vectors,
]


@pytest.mark.parametrize("call", BOTTOM,
                         ids=["build_gram_analytic", "asymptotic_sweep", "orthonormal_system"])
def test_every_entry_judges_its_first_exponent_by_the_band(call):
    # at -size/2 the run of coefficients fills the grid once, and the result
    # is the finer grid's; one step below, it is refused
    bottom = -(GRID // 2)
    assert np.abs(call(GRID, bottom) - call(4 * GRID, bottom)).max() < 1e-12
    message = (f"first exponent on a size-{GRID} grid must be an integer in "
               f"{bottom}..{TOP}, got {bottom - 1}")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(GRID, bottom - 1)


def test_hankel_block_judges_its_first_exponent_by_the_band():
    # a direct caller's run of coefficients from below -size/2 once read
    # wrapped ones: r_(p + size) for r_p
    symbol = _bottom_space(GRID).symbol
    message = (f"first exponent on a size-{GRID} grid must be an integer in "
               f"{-(GRID // 2)}..{TOP}, got -200")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        hankel_block(symbol, np.arange(-200, -195), 324)
    bottom = np.arange(-(GRID // 2), 5 - GRID // 2)
    assert hankel_block(symbol, bottom, GRID // 2 - int(bottom[-1])).shape == (5, 5)


RHO = [
    lambda v: SpaceData(SPACE.symbol, SPACE.masses, rho=v).rho,
    lambda v: regularized(SPACE, rho=v).rho,
    lambda v: sandwich_check(SPACE, 1, v, 0, 4).k_scaled,
]


@pytest.mark.parametrize("call", RHO, ids=["SpaceData", "regularized", "sandwich_check"])
def test_every_rho_takes_one_rule(call):
    for value in [True, False, "0.5", 1 + 0j, None, 0, 0.0, -0.5, 1.5, 1 + 1e-15,
                  math.nan, math.inf, np.float64(2.0)]:
        message = f"rho must be a real number in (0, 1], got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(value)
    # a numpy real and an int give the bits of the equal float
    for plain, other in [(0.5, np.float64(0.5)), (0.5, np.float32(0.5)), (1.0, 1)]:
        assert np.float64(call(plain)).tobytes() == np.float64(call(other)).tobytes()


def test_rho_is_stored_as_a_float():
    for value in (1, np.float64(0.5), np.int64(1)):
        space = SpaceData(SPACE.symbol, SPACE.masses, rho=value)
        assert type(space.rho) is float and space.rho == value
        assert type(regularized(SPACE, rho=value).rho) is float
