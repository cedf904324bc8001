"""Peak memory of the Gram paths, in Gram sizes.

A Gram size is the (degree + 1)^2 complex entries of one analytic Gram.
``sandwich_check`` builds the distinct primal Grams of one data pair from
one Hankel Gram Gamma (four, or two when the cutoff keeps every mass) and
then a dual Gram per distinct variant; ``orthonormal_system`` builds one
Gram covering its windows and reads them from one solve; ``duality_identity``
builds two Grams and then works on grid vectors; ``theorem_check`` builds
the Laurent Gram, of order 2 degree + 1 + m, and its complement;
``asymptotic_sweep`` reads every shift from one Gram on
z^0..z^(degree + n_max).  Their peaks (tracemalloc, numpy's arrays
included) count the Gram-sized and grid-sized arrays alive at once.  The
PSD checks write their differences into Grams read for the last time, the
primal Grams are gone before the first dual Gram, each dual data before the
next, and each Gram of the identity once its kernel is solved.  A Gram
holds only its entries: Gamma is dropped once assembled, which the
sandwich, theorem and sweep bounds would miss by about 0.9, 2.7 and 1.3
Gram sizes."""

import tracemalloc

import pytest

import hardydual as hd
from hardydual.corpus import BY_NAME

GRID, DEGREE = 4096, 128
GRAM_BYTES = (DEGREE + 1) ** 2 * 16
SANDWICH_GRAMS = 7
IDENTITY_GRAMS = 5
THEOREM_GRAMS = 13.5
SWEEP_GRAMS = 5
SYSTEM_GRAMS = 4
SANDWICH_ALL_MASSES_GRAMS = 5.5
N_MAX = 16
CASES = ("mixed_two_mass", "mixed_rational", "mass_single")


def _peak_grams(call) -> float:
    """Traced peak of ``call()`` above its start, in Gram sizes.  A first
    call fills the caches (grid nodes, the involution's grid factors), which
    are not part of the peak."""
    call()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        call()
        return (tracemalloc.get_traced_memory()[1] - start) / GRAM_BYTES
    finally:
        if not tracing:
            tracemalloc.stop()


@pytest.mark.parametrize("name", CASES)
def test_sandwich_check_peak(name):
    space = BY_NAME[name].space(GRID)
    peak = _peak_grams(lambda: hd.sandwich_check(space, 1, 0.5, 0, DEGREE))
    assert peak <= SANDWICH_GRAMS


@pytest.mark.parametrize("name", CASES)
def test_sandwich_check_keeping_every_mass_peak(name):
    space = BY_NAME[name].space(GRID)
    cutoff = space.masses.count
    peak = _peak_grams(lambda: hd.sandwich_check(space, cutoff, 0.5, 0, DEGREE))
    assert peak <= SANDWICH_ALL_MASSES_GRAMS


@pytest.mark.parametrize("name", CASES)
def test_orthonormal_system_peak(name):
    space = BY_NAME[name].space(GRID)
    peak = _peak_grams(lambda: hd.orthonormal_system(space, range(5), DEGREE))
    assert peak <= SYSTEM_GRAMS


@pytest.mark.parametrize("name", CASES)
def test_duality_identity_peak(name):
    space = BY_NAME[name].space(GRID)
    dual = hd.dual_of(space)
    peak = _peak_grams(lambda: hd.duality_identity(space, dual, DEGREE))
    assert peak <= IDENTITY_GRAMS


@pytest.mark.parametrize("name", CASES)
def test_theorem_check_peak(name):
    space = BY_NAME[name].space(GRID)
    dual = hd.dual_of(space)
    peak = _peak_grams(lambda: hd.theorem_check(space, dual, DEGREE))
    assert peak <= THEOREM_GRAMS


@pytest.mark.parametrize("name", CASES)
def test_asymptotic_sweep_peak(name):
    space = BY_NAME[name].space(GRID)
    peak = _peak_grams(lambda: hd.asymptotic_sweep(space, N_MAX, DEGREE))
    assert peak <= SWEEP_GRAMS
