"""Peak memory of the Gram paths, in Gram sizes.

A Gram size is the (degree + 1)^2 complex entries of one analytic Gram.
``sandwich_check`` builds the distinct primal Grams of one data pair from
one Hankel Gram Gamma (four, or two when the cutoff keeps every mass) and
then a dual Gram per distinct variant; ``duality_identity`` builds two Grams
and then works on grid vectors; ``theorem_check`` builds the Laurent Gram,
of order 2 degree + 1 + m, and its complement.  ``orthonormal_system``
builds one Gram covering its windows, and ``asymptotic_sweep`` one Gram on
z^0..z^(degree + n_max).  Both read their windows in runs of
(degree + 1) // 4, each from one solve with the sub-Gram covering it, so
many windows cost a few sizes of the Gram that covers them all; read in one
run, the stack of Schur systems would grow as the cube of the window count.
Their peaks
(tracemalloc, numpy's arrays included) count the Gram-sized and grid-sized
arrays alive at once.  The PSD checks write their differences into Grams
read for the last time, the primal Grams are gone before the first dual
Gram, each dual data before the next, and each Gram of the identity once its
kernel is solved.  A Gram holds only its entries: Gamma is dropped once
assembled, which the sandwich, theorem and sweep bounds would miss by about
0.9, 2.7 and 1.3 Gram sizes."""

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
# many windows: n_max 256, and 256 shifts, against the covering Gram
LONG_N_MAX = 256
COVERING_GRAMS = 4
CASES = ("mixed_two_mass", "mixed_rational", "mass_single")


def _peak_grams(call, gram_bytes=GRAM_BYTES) -> float:
    """Traced peak of ``call()`` above its start, in sizes of ``gram_bytes``.
    A first call fills the caches (grid nodes, the involution's grid
    factors), which are not part of the peak."""
    call()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        call()
        return (tracemalloc.get_traced_memory()[1] - start) / gram_bytes
    finally:
        if not tracing:
            tracemalloc.stop()


@pytest.mark.parametrize("name", CASES)
def test_sandwich_check_peak(name):
    space = BY_NAME[name].space(GRID)
    reports = []
    peak = _peak_grams(lambda: reports.append(hd.sandwich_check(space, 1, 0.5, 0, DEGREE)))
    assert peak <= SANDWICH_GRAMS
    assert reports[0].worst_margin >= -reports[0].tolerance


@pytest.mark.parametrize("name", CASES)
def test_sandwich_check_keeping_every_mass_peak(name):
    space = BY_NAME[name].space(GRID)
    cutoff = space.masses.count
    reports = []
    peak = _peak_grams(lambda: reports.append(hd.sandwich_check(space, cutoff, 0.5, 0, DEGREE)))
    assert peak <= SANDWICH_ALL_MASSES_GRAMS
    assert reports[0].worst_margin >= -reports[0].tolerance


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


@pytest.mark.parametrize("name", CASES)
def test_long_asymptotic_sweep_peak(name):
    space = BY_NAME[name].space(GRID)
    covering = (DEGREE + LONG_N_MAX + 1) ** 2 * 16
    peak = _peak_grams(lambda: hd.asymptotic_sweep(space, LONG_N_MAX, DEGREE), covering)
    assert peak <= COVERING_GRAMS


@pytest.mark.parametrize("name", CASES)
def test_many_shift_orthonormal_system_peak(name):
    space = BY_NAME[name].space(GRID)
    covering = (DEGREE + LONG_N_MAX) ** 2 * 16
    peak = _peak_grams(lambda: hd.orthonormal_system(space, range(LONG_N_MAX), DEGREE),
                       covering)
    assert peak <= COVERING_GRAMS
