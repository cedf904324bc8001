import contextlib
import json
import re
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from hardydual import (
    CircleGrid,
    MassSet,
    NotPositiveDefinite,
    SpaceData,
    SymbolData,
    asymptotic_sweep,
    build_gram_analytic,
    build_gram_laurent,
    build_outer,
    dual_of,
    duality_identity,
    effective_data,
    embed_h2,
    kernel_at_origin,
    orthonormal_system,
    regularized,
    sandwich_check,
    shifted,
    symbol_from_coefficients,
    symbol_from_expression,
    zero_symbol,
)
from hardydual import cli, spaces
from hardydual.circle import riesz_project_values
from hardydual.corpus import BY_NAME, CASES
from hardydual.tolerances import TOL_PSD
from oracle import dense_psd_check, gram_entry_quadrature, symbol_values
from hardydual.spaces import _finalize_gram, hankel_block

REPO = Path(__file__).resolve().parents[1]


# --- effective data -----------------------------------------------------------

def test_effective_data_identity(grid512):
    masses = MassSet(np.array([0.5]), np.array([3.0]))
    space = SpaceData(symbol_from_expression(grid512, "0.3*conj(t)"), masses)
    sym, m = effective_data(space)
    assert np.abs(sym.values - space.symbol.values).max() == 0
    assert np.array_equal(m.weights, masses.weights)


def test_effective_data_shift_moves_coefficients(grid512):
    c = 0.45
    space = SpaceData(symbol_from_coefficients(grid512, {-1: c}), MassSet.empty(),
                      shift=1)
    sym, _ = effective_data(space)
    assert abs(sym.coeffs[0] - c) < 1e-14
    assert abs(sym.coeffs[-1 % grid512.size]) < 1e-14
    # shifted symbol has no negative coefficients: zero Hankel part
    gamma = hankel_block(sym, np.arange(4), 32)
    assert np.abs(gamma).max() < 1e-26


def test_effective_data_shift_scales_weights(grid512):
    masses = MassSet(np.array([0.5]), np.array([3.0]))
    space = SpaceData(zero_symbol(grid512), masses, shift=2)
    _, m = effective_data(space)
    assert abs(m.weights[0] - 3.0 / 16.0) < 1e-15


def test_effective_data_rho_scales_symbol(grid512):
    space = SpaceData(symbol_from_expression(grid512, "0.6*conj(t)"),
                      MassSet.empty(), rho=0.5)
    sym, _ = effective_data(space)
    assert abs(sym.sup_modulus - 0.3) < 1e-14


def test_negative_shift_rejects_origin_mass(grid512):
    # the rule lives in SpaceData, so the shifted pair is refused when it is
    # made, on every route that makes one
    masses = MassSet(np.array([0.0, 0.5]), np.array([1.0, 2.0]))
    space = SpaceData(zero_symbol(grid512), masses)
    with pytest.raises(ValueError, match="negative shift undefined"):
        SpaceData(zero_symbol(grid512), masses, shift=-1)
    with pytest.raises(ValueError, match="negative shift undefined"):
        shifted(space, -1)
    with pytest.raises(ValueError, match="negative shift undefined"):
        orthonormal_system(space, [-1, 0], 4)
    # a shift >= 0 still builds, and so does a negative one off the origin
    assert np.isfinite(kernel_at_origin(build_gram_analytic(shifted(space, 1), 4)).norm)
    off_origin = SpaceData(zero_symbol(grid512), MassSet(np.array([0.5]), np.array([2.0])))
    assert effective_data(shifted(off_origin, -1))[1].weights == pytest.approx([8.0])


def test_a_shift_that_is_not_an_integer_is_refused():
    # SpaceData states the rule, so every route that makes a shifted pair,
    # and orthonormal_system's shifts, refuse a float before numpy sees it
    space = BY_NAME["mixed_rational"].space(1024)
    refused = [
        lambda: orthonormal_system(space, [0.5, 1.7], 8),
        lambda: build_gram_analytic(shifted(space, 1.5), 8),
        lambda: sandwich_check(space, 1, 0.5, 0.5, 8),
        lambda: shifted(space, 1.0),
        lambda: SpaceData(space.symbol, space.masses, shift=np.float64(2.0)),
    ]
    for build in refused:
        with pytest.raises(ValueError, match=r"^shift must be an integer, got "):
            build()


def test_numpy_integer_shifts_build_the_int_shifts_bits():
    space = BY_NAME["mixed_rational"].space(1024)
    gram = build_gram_analytic(shifted(space, np.int64(2)), 8)
    assert gram.tobytes() == build_gram_analytic(shifted(space, 2), 8).tobytes()
    system = orthonormal_system(space, np.array([0, 2], dtype=np.int64), 8)
    assert system.shifts.tolist() == [0, 2]
    assert system.vectors.tobytes() == orthonormal_system(space, [0, 2], 8).vectors.tobytes()
    with pytest.raises(ValueError, match=r"^shift must be an integer, got np\.float64\(0\.5\)$"):
        orthonormal_system(space, np.array([0.5, 1.0]), 8)


def test_mass_cutoff(grid512):
    masses = MassSet(np.array([0.5, 1 / 3]), np.array([3.0, 1.0]))
    space = regularized(SpaceData(zero_symbol(grid512), masses), mass_cutoff=1)
    _, m = effective_data(space)
    assert m.count == 1 and m.points[0] == 0.5


# --- analytic Gram -------------------------------------------------------------

def test_gram_identity_for_trivial_data(grid512):
    space = SpaceData(zero_symbol(grid512), MassSet.empty())
    gram = build_gram_analytic(space, 3)
    assert np.abs(gram - np.eye(4)).max() == 0
    assert np.linalg.eigvalsh(gram)[0] == pytest.approx(1.0)


def test_gram_rank_one_hankel(grid512):
    space = SpaceData(symbol_from_expression(grid512, "0.6*conj(t)"), MassSet.empty())
    gram = build_gram_analytic(space, 3)
    expected = np.diag([0.64, 1.0, 1.0, 1.0])
    assert np.abs(gram - expected).max() < 1e-14


def test_gram_single_mass_closed_form(grid512):
    masses = MassSet(np.array([0.5]), np.array([3.0]))
    space = SpaceData(zero_symbol(grid512), masses)
    gram = build_gram_analytic(space, 2)
    m, l = np.meshgrid([0, 1, 2], [0, 1, 2], indexing="ij")
    expected = np.eye(3) + 3.0 * 2.0 ** (-(m + l)).astype(float)
    assert np.abs(gram - expected).max() < 1e-14


def test_gram_hermitian_and_factorized(grid4096):
    space = CASES[-1].space(4096)  # rational symbol, two masses
    gram = build_gram_analytic(space, 24)
    assert np.abs(gram - gram.conj().T).max() == 0
    rhs = np.zeros(25, dtype=complex)
    rhs[0] = 1.0
    solution = np.linalg.solve(gram, rhs)
    assert np.abs(gram @ solution - rhs).max() < 1e-12


def test_gram_rejects_unimodular_symbol(grid512):
    space = SpaceData(symbol_from_expression(grid512, "conj(t)"), MassSet.empty())
    with pytest.raises(NotPositiveDefinite):
        build_gram_analytic(space, 4)


def test_hankel_contraction_bound():
    for case in CASES:
        space = case.space(1024)
        sym, _ = effective_data(space)
        gamma = hankel_block(sym, np.arange(17), 128)
        top = np.linalg.eigvalsh(gamma)[-1]
        assert top <= sym.sup_modulus ** 2 + 1e-10, case.name


def test_hankel_positive_coefficients_are_ignored(grid512):
    only_negative = symbol_from_coefficients(grid512, {-1: 0.4, -2: 0.2})
    with_positive = symbol_from_coefficients(grid512, {-1: 0.4, -2: 0.2, 1: 0.3, 3: 0.1})
    a = hankel_block(only_negative, np.arange(6), 64)
    b = hankel_block(with_positive, np.arange(6), 64)
    assert np.abs(a - b).max() < 1e-15


def test_hankel_truncation_stability(grid4096):
    # growing J by 50% moves entries by at most the entrywise tail bound
    space = CASES[-1].space(4096)
    sym, _ = effective_data(space)
    exponents = np.arange(9)
    short = hankel_block(sym, exponents, 40)
    long = hankel_block(sym, exponents, 60)
    _, tail = _reference_hankel(sym, exponents, 40)
    change = np.abs(long - short).max()
    assert change <= tail + 1e-15
    assert tail < 1e-6


# --- Hankel Gram by the displacement recurrence ------------------------------

RECURRENCE_GRID = 1024


@st.composite
def symbols(draw):
    """Trigonometric polynomials of degree <= 4 with 0.05 <= sup|R| <= 0.8."""
    powers = draw(st.lists(st.integers(-4, 4), min_size=1, max_size=3, unique=True))
    parts = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
    coeffs = [complex(draw(parts), draw(parts)) for _ in powers]
    assume(any(abs(c) > 1e-3 for c in coeffs))
    grid = CircleGrid(RECURRENCE_GRID)
    raw = symbol_from_coefficients(grid, dict(zip(powers, coeffs)))
    scale = draw(st.floats(0.05, 0.8)) / raw.sup_modulus
    return symbol_from_coefficients(grid, {p: c * scale for p, c in zip(powers, coeffs)})


def _reference_hankel(symbol, exponents, truncation):
    """rows^H rows with rows[j-1, m] = r_{-j-e_m}, and the entrywise tail bound."""
    n = symbol.grid.size

    def gram(js):
        rows = symbol.coeffs[(-js[:, None] - exponents[None, :]) % n]
        return rows.conj().T @ rows, np.abs(rows).T @ np.abs(rows)

    gamma, _ = gram(np.arange(1, truncation + 1))
    j_max = n // 2 - exponents.max()
    tail = 0.0
    if j_max > truncation:
        tail = gram(np.arange(truncation + 1, j_max + 1))[1].max()
    return gamma, tail


@given(symbols(), st.integers(-3, 4), st.integers(1, 40), st.floats(0.0, 1.0))
@settings(deadline=None, max_examples=60)
def test_hankel_recurrence_matches_matmul(symbol, first, order, fraction):
    exponents = np.arange(first, first + order)
    j_max = RECURRENCE_GRID // 2 - int(exponents[-1])
    truncation = 1 + int(fraction * (j_max - 1))
    gamma, tail = _reference_hankel(symbol, exponents, truncation)
    bound = 1e-14 * max(1.0, float(np.abs(gamma).max()))
    assert np.abs(hankel_block(symbol, exponents, truncation) - gamma).max() <= bound
    # the terms beyond J up to the end of the band move no entry by more than the tail
    full = hankel_block(symbol, exponents, j_max)
    assert np.abs(full - gamma).max() <= tail + bound


def test_hankel_requires_consecutive_exponents(grid512):
    symbol = symbol_from_expression(grid512, "0.3*conj(t)")
    with pytest.raises(ValueError):
        hankel_block(symbol, np.array([0, 2, 3]), 32)


@contextlib.contextmanager
def _counted_recurrences():
    """Patch ``spaces._lagged_gram`` to count its calls into the yielded list."""
    calls = []
    recurrence = spaces._lagged_gram

    def counted(*args):
        calls.append(args[2])
        return recurrence(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spaces, "_lagged_gram", counted)
        yield calls


def _signed_zero_symbol(grid, seed):
    """A symbol whose coefficients are zeros of random signs."""
    rng = np.random.default_rng(seed)
    coeffs = np.zeros(grid.size, dtype=complex)
    coeffs.real = np.where(rng.random(grid.size) < 0.5, -0.0, 0.0)
    coeffs.imag = np.where(rng.random(grid.size) < 0.5, -0.0, 0.0)
    return SymbolData(grid, np.zeros(grid.size, dtype=complex), coeffs)


@pytest.mark.parametrize("first, order, truncation", [
    (0, 1, 1), (0, 17, 40), (-3, 9, 200), (5, 33, 1), (-8, 64, 448), (0, 300, 212)])
def test_zero_window_gives_the_recurrence_bytes_without_running_it(first, order, truncation):
    # a window of zeros, whatever their signs, gives a Gamma of +0 with no
    # recurrence run; it equals the recurrence's, whose zeros may be signed
    grid = CircleGrid(1024)
    exponents = np.arange(first, first + order)
    for symbol in (zero_symbol(grid), _signed_zero_symbol(grid, order)):
        window = symbol.coeffs[-(first + 1 + np.arange(truncation + order - 1)) % grid.size]
        assert not window.any()
        with _counted_recurrences() as calls:
            gamma = hankel_block(symbol, exponents, truncation)
        assert calls == []
        assert gamma.tobytes() == np.zeros((order, order), dtype=complex).tobytes()
        assert np.array_equal(gamma, spaces._lagged_gram(window, truncation, order))


def test_analytic_symbol_skips_the_recurrence_only_where_its_window_is_zero(grid512):
    # R = 0.5 t: at shift 0 the window r_{-1}, r_{-2}, ... is zero; at shift
    # -2 it starts r_1, r_0, r_{-1}, ..., so Gamma[0, 0] = |r_1|^2
    space = SpaceData(symbol_from_coefficients(grid512, {1: 0.5}), MassSet.empty())
    with _counted_recurrences() as calls:
        gamma = spaces.analytic_hankel(space, 12)
    assert calls == [] and not gamma.any()
    with _counted_recurrences() as calls:
        gamma = spaces.analytic_hankel(spaces.shifted(space, -2), 12)
    assert calls == [13]
    assert gamma[0, 0] == 0.25 and np.count_nonzero(gamma) == 1


@pytest.mark.parametrize("name, recurrences", [("mass_single", 0), ("mixed_rational", 8)])
def test_shift_sweep_op_runs_a_recurrence_per_nonzero_window(name, recurrences):
    # the op of the benchmark's shift_sweep workload, at 1024/16
    space = BY_NAME[name].space(1024)
    degree = 16
    with _counted_recurrences() as calls:
        asymptotic_sweep(space, 16, degree)
        report = sandwich_check(space, 1, 0.5, 0, degree)
        duality_identity(space, dual_of(space), degree)
        orthonormal_system(space, range(5), degree)
    assert len(calls) == recurrences
    assert report.worst_margin >= -report.tolerance


def test_regularized_grams_are_the_direct_grams_from_one_recurrence():
    # each distinct (rho', N') of a shifted two-mass pair once, in order,
    # repeats dropped, every Gram the direct build's bits, one Gamma for all
    space = spaces.shifted(BY_NAME["mixed_two_mass"].space(1024), 2)
    degree = 24
    pairs = [(1.0, 2), (1.0, 1), (0.5, 2), (0.5, 1), (1.0, 2), (0.9, 0), (0.5, 1)]
    with _counted_recurrences() as calls:
        grams = list(spaces.regularized_grams(space, degree, pairs))
    assert calls == [degree + 1]
    assert [pair for pair, _ in grams] == list(dict.fromkeys(pairs))
    for pair, gram in grams:
        direct = build_gram_analytic(regularized(space, *pair), degree)
        assert gram.tobytes() == direct.tobytes(), pair


# --- PD check: the floor certifies, or one eigensolve decides -----------------------

def test_pd_threshold_unchanged():
    with pytest.raises(NotPositiveDefinite, match="5.000e-13"):
        _finalize_gram(np.diag([1.0, 5e-13]).astype(complex))
    gram = _finalize_gram(np.diag([1.0, 2e-12]).astype(complex))
    assert np.linalg.eigvalsh(gram)[0] == pytest.approx(2e-12)


CERTIFICATE_GRID = 256


@st.composite
def metric_data(draw):
    """A trigonometric symbol with 0 < sup|R| <= 1, 0-3 masses of weight
    1e-20..1e20 at least 45 degrees apart, a shift in -1..3 and rho in (0, 1]."""
    grid = CircleGrid(CERTIFICATE_GRID)
    powers = draw(st.lists(st.integers(-6, 4), min_size=1, max_size=4, unique=True))
    parts = st.floats(-1.0, 1.0)
    coeffs = [complex(draw(parts), draw(parts)) for _ in powers]
    assume(any(abs(c) > 1e-3 for c in coeffs))
    raw = symbol_from_coefficients(grid, dict(zip(powers, coeffs)))
    scale = draw(st.floats(0.0, 1.0, exclude_min=True)) / raw.sup_modulus
    symbol = symbol_from_coefficients(grid, {p: c * scale for p, c in zip(powers, coeffs)})
    slots = draw(st.lists(st.integers(0, 7), max_size=3, unique=True))
    masses = MassSet.empty()
    if slots:
        radii = [draw(st.floats(0.05, 0.95)) for _ in slots]
        points = np.array(radii) * np.exp(2j * np.pi * np.array(slots) / 8)
        weights = np.array([10.0 ** draw(st.floats(-20.0, 20.0)) for _ in slots])
        masses = MassSet(points, weights)
    return SpaceData(symbol, masses, shift=draw(st.integers(-1, 3)),
                     rho=draw(st.floats(0.0, 1.0, exclude_min=True)))


def _checked(build, *args):
    """The entries ``build`` returns and the eigenvalue floor it passed to
    ``_finalize_gram``."""
    floors = []
    finalize = spaces._finalize_gram

    def spy(entries, weights=(), floor=-np.inf):
        floors.append(floor)
        return finalize(entries, weights, floor)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spaces, "_finalize_gram", spy)
        gram = build(*args)
    return getattr(gram, "entries", gram), floors[0]


@given(metric_data(), st.integers(0, 16))
@settings(deadline=None, max_examples=80)
def test_certified_gram_passes_the_cholesky_check(space, degree):
    # a floor above TOL_PSD skips the Cholesky, so it must be one that succeeds
    for build in (build_gram_analytic, build_gram_laurent):
        try:
            entries, floor = _checked(build, space, degree)
        except NotPositiveDefinite:
            continue
        event(f"{build.__name__}: {'certified' if floor > TOL_PSD else 'factored'}")
        if floor > TOL_PSD:
            np.linalg.cholesky(entries - TOL_PSD * np.eye(entries.shape[0]))
            assert np.linalg.eigvalsh(entries)[0] >= floor


def test_certified_grams_skip_the_eigensolve(tmp_path, monkeypatch):
    eigensolves, factorizations = [], []
    eigvalsh, cholesky = np.linalg.eigvalsh, np.linalg.cholesky

    def counted_eigvalsh(a, *args, **kwargs):
        if sys._getframe(1).f_code.co_name == "_finalize_gram":
            eigensolves.append(a.shape[0])
        return eigvalsh(a, *args, **kwargs)

    def counted_cholesky(a, *args, **kwargs):
        factorizations.append(sys._getframe(1).f_code.co_name)
        return cholesky(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
    monkeypatch.setattr(np.linalg, "cholesky", counted_cholesky)
    # every Gram of the README config is certified, and nothing factors
    readme = REPO / "perfbench" / "readme_config.json"
    assert cli.main(["run", str(readme), "--out", str(tmp_path / "o")]) == 0
    assert (eigensolves, factorizations) == ([], [])
    grid = CircleGrid(CERTIFICATE_GRID)
    # Gamma's row sums of this inner symbol reach 1.5 sup|R|^2: Gershgorin falls short
    near_one = symbol_from_expression(grid, "0.999999*conj((t-0.5)/(1-0.5*t))")
    build_gram_analytic(SpaceData(near_one, MassSet.empty()), 16)
    heavy = MassSet(np.array([0.5]), np.array([1e16]))
    with contextlib.suppress(NotPositiveDefinite):  # the roundoff of a 1e16 Gram decides
        build_gram_analytic(SpaceData(zero_symbol(grid), heavy), 16)
    _finalize_gram(np.eye(2, dtype=complex))  # no floor: the eigensolve decides
    assert (eigensolves, factorizations) == ([17, 17, 2], [])


def _rotated(eigenvalues, seed):
    """Q diag(eigenvalues) Q^H for a seeded unitary Q."""
    rng = np.random.default_rng(seed)
    size = len(eigenvalues)
    q, _ = np.linalg.qr(rng.standard_normal((size, size))
                        + 1j * rng.standard_normal((size, size)))
    return (q * np.asarray(eigenvalues)) @ q.conj().T


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("side", [1.0, -1.0], ids=["above", "below"])
def test_the_eigensolve_decides_at_the_tolerance(seed, side):
    # with no floor, a Gram is judged by its smallest eigenvalue against
    # tol = TOL_PSD alone; its norm, 1e-2, keeps eigvalsh's rounding near
    # 1e-17, far inside the 1e-15 between lam_min and tol
    lam_min = TOL_PSD * (1.0 + side * 1e-3)
    eigenvalues = [1e-2, lam_min, 5e-3, 1e-3, 2e-3][: 3 + seed % 3]
    entries = _rotated(eigenvalues, seed)
    assert spaces._roundoff(entries) == TOL_PSD
    if side > 0:
        assert _finalize_gram(entries) is entries
        assert np.linalg.eigvalsh(entries)[0] == pytest.approx(lam_min, rel=1e-4)
    else:
        with pytest.raises(NotPositiveDefinite,
                           match=r"^Gram minimum eigenvalue 9\.990e-13 below tolerance 1e-12;"):
            _finalize_gram(entries)


def _judged(build, *args):
    """The entries ``build`` passed to ``_finalize_gram``, symmetrized by it,
    the eigenvalue floor it passed, and whether the Gram was accepted."""
    calls = []
    finalize = spaces._finalize_gram

    def spy(entries, weights=(), floor=-np.inf):
        calls.append((entries, floor))
        return finalize(entries, weights, floor)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spaces, "_finalize_gram", spy)
        try:
            build(*args)
        except NotPositiveDefinite:
            return (*calls[0], False)
    return (*calls[0], True)


@given(metric_data(), st.integers(0, 16))
@settings(deadline=None, max_examples=80)
def test_a_gram_is_refused_only_when_floor_and_eigensolve_both_fall_short(space, degree):
    for build in (build_gram_analytic, build_gram_laurent):
        entries, floor, accepted = _judged(build, space, degree)
        tol = spaces._roundoff(entries)
        min_eig = np.linalg.eigvalsh(entries)[0]
        event(f"{build.__name__}: "
              f"{'certified' if floor > tol else 'accepted' if accepted else 'refused'}")
        if accepted:
            assert floor > tol or min_eig >= tol
        else:
            assert floor <= tol and min_eig < tol


def _scale_line(roundoff: str, weight: float) -> str:
    """``_pd_failure``'s line for a Gram whose scale hides TOL_PSD, raised in
    the asymptotics study; the eigenvalue's digits are roundoff and match any
    number."""
    return (r"data failure: Gram minimum eigenvalue -?[0-9]\.[0-9]{3}e[+-][0-9]+ "
            + re.escape(f"is within the roundoff {roundoff} of the Gram's scale "
                        f"{weight:.3e}, so tolerance 1e-12 cannot be resolved in "
                        f"double precision; the largest mass weight, {weight:.3e}, "
                        "sets that scale (a dual weight 1/(nu |(1/T)'(zeta_k)|^2) grows "
                        "as nu |(1/T)'(zeta_k)|^2 shrinks) (asymptotics study)"))


@pytest.mark.parametrize("weight, line", [
    (1e305, _scale_line("6.4e+290", 1e305)),
    (1e307, _scale_line("6.4e+292", 1e307)),
    (1e308, re.escape("data failure: overflow encountered in add: the data's scale is "
                      "beyond double range; the largest mass weight is 1.000e+308 "
                      "(asymptotics study)")),
], ids=["1e305", "1e307", "1e308"])
def test_huge_weight_messages_do_not_depend_on_the_floor(tmp_path, capsys, weight, line):
    # the floor overflows silently; the Gram's own overflow or PD check speaks
    config = {"grid": 256, "degree": 16, "n_max": 12, "studies": list(cli.STUDY_ORDER),
              "masses": [{"point": [0.5, 0.0], "weight": weight}],
              "convergence": {"grids": [128, 256], "degrees": [8, 16]}}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["run", str(path), "--out", str(tmp_path / "o")]) == 3
    assert not caught, [str(w.message) for w in caught]
    err = capsys.readouterr().err
    assert err.endswith("\n") and re.fullmatch(line, err[:-1]), err


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
def test_windows_run_no_eigensolve(case):
    def no_eigensolve(*args, **kwargs):
        raise AssertionError("eigvalsh called")

    space = case.space(1024)
    degree, n_max = 12, 6
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "eigvalsh", no_eigensolve)
        master = build_gram_analytic(space, degree + n_max)
        windows = [master[n:n + degree + 1, n:n + degree + 1] for n in range(n_max + 1)]
        for window in windows:
            kernel_at_origin(window)
    floor = np.linalg.eigvalsh(master)[0]
    for window in windows:
        assert np.linalg.eigvalsh(window)[0] >= floor - 1e-14


# --- Laurent Gram and embedding ------------------------------------------------

def test_laurent_gram_trivial(grid512):
    masses = MassSet(np.array([0.5, 0.25]), np.array([2.0, 1.0]))
    space = SpaceData(zero_symbol(grid512), masses)
    gram = build_gram_laurent(space, 3)
    expected = np.diag([1.0] * 7 + [2.0, 1.0])
    assert np.abs(gram - expected).max() == 0


def test_laurent_gram_rank_one_entries(grid512):
    space = SpaceData(symbol_from_expression(grid512, "0.6*conj(t)"), MassSet.empty())
    gram = build_gram_laurent(space, 2)
    exps = list(range(-2, 3))
    i0, im1, i1 = exps.index(0), exps.index(-1), exps.index(1)
    assert abs(gram[i0, i0] - 0.64) < 1e-14
    assert abs(gram[im1, im1] - 0.64) < 1e-14
    assert abs(gram[i1, i1] - 1.0) < 1e-14


def test_embedding_columns(grid512):
    masses = MassSet(np.array([0.5, 1 / 3]), np.array([1.0, 1.0]))
    space = SpaceData(zero_symbol(grid512), masses)
    embed = embed_h2(space, 1, 3)
    # z^0: Laurent e_0 and mass coordinates all one
    assert embed[3, 0] == 1.0
    assert np.array_equal(embed[7:, 0], np.ones(2))
    # z^1: mass coordinates are the points themselves
    assert embed[4, 1] == 1.0
    assert np.abs(embed[7:, 1] - np.array([0.5, 1 / 3])).max() < 1e-15


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
def test_embedded_gram_congruence(case):
    # Gram of the embedded analytic columns == analytic Gram: a Laurent half
    # band M and an analytic degree M share the truncation J = grid/2 - M
    space = case.space(1024)
    degree = half_band = 16
    laurent = build_gram_laurent(space, half_band)
    embed = embed_h2(space, degree, half_band)
    analytic = build_gram_analytic(space, degree)
    congruence = embed.conj().T @ laurent @ embed
    assert np.abs(congruence - analytic).max() < 1e-13


def test_embedded_vector_norms_match(grid512):
    # ||z^p||_{L^2(alpha)} equals the analytic-Gram norm for p <= half band
    masses = MassSet(np.array([0.4]), np.array([2.0]))
    space = SpaceData(symbol_from_expression(grid512, "0.5*conj(t)"), masses)
    laurent = build_gram_laurent(space, 8)
    analytic = build_gram_analytic(space, 8)
    embed = embed_h2(space, 8, 8)
    for p in range(5):
        col = embed[:, p]
        laurent_norm = np.vdot(col, laurent @ col).real
        assert abs(laurent_norm - analytic[p, p].real) < 1e-13


# --- PSD ordering of regularizations -------------------------------------------

@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
def test_gram_psd_ordering(case):
    space = case.space(1024)
    degree = 16
    g_alpha = build_gram_analytic(space, degree)
    g_cut = build_gram_analytic(
        regularized(space, mass_cutoff=min(1, space.masses.count)), degree)
    g_rho = build_gram_analytic(regularized(space, rho=0.7), degree)
    assert dense_psd_check(g_alpha - g_cut) >= -1e-12
    assert dense_psd_check(g_rho - g_alpha) >= -1e-12


# --- oracle agreement -----------------------------------------------------------

@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
def test_gram_entries_match_quadrature_oracle(case):
    # the oracle sums the same 64 Hankel terms as the Gram
    space = case.space(512)
    gram = spaces.assemble_gram(space, hankel_block(space.symbol, np.arange(9), 64))
    refined = np.exp(2j * np.pi * np.arange(2048) / 2048)
    values = symbol_values(case, refined)
    _, masses = effective_data(space)
    for row, col in [(0, 0), (1, 1), (3, 1), (0, 5), (8, 8)]:
        expected = gram_entry_quadrature(values, refined, masses.points,
                                         masses.weights, row, col, 64)
        assert abs(gram[row, col] - expected) < 1e-8, case.name


# --- membership diagnostics ------------------------------------------------------

@dataclass(frozen=True)
class L2RMembershipReport:
    """Diagnostics for a circle pair (f1, f2) claimed to lie in the R-twisted L^2.

    hardy_defect: L^2 mass of the negative frequencies of R f1 + f2.
    antianalytic_defect: L^2 mass of the nonnegative frequencies of conj(T_e) f2.
    reconstruction_residual: ||f2 + P_-(R f1)|| (the first component
    determines the second).
    """

    hardy_defect: float
    antianalytic_defect: float
    reconstruction_residual: float

    def max_residual(self) -> float:
        return max(self.hardy_defect, self.antianalytic_defect,
                   self.reconstruction_residual)


def _grid_norm(values) -> float:
    """Quadrature L^2 norm on the circle, sqrt(mean |f(t_j)|^2)."""
    return float(np.sqrt(np.mean(np.abs(values) ** 2)))


def check_l2r_membership(symbol, outer, f1, f2) -> L2RMembershipReport:
    grid = symbol.grid
    f1 = grid.check(f1)
    f2 = grid.check(f2)
    hardy = _grid_norm(riesz_project_values(symbol.values * f1 + f2))
    weighted = np.conj(outer.values) * f2
    anti = _grid_norm(weighted - riesz_project_values(weighted))  # P_+ = I - P_-
    recon = _grid_norm(f2 + riesz_project_values(symbol.values * f1))
    return L2RMembershipReport(hardy, anti, recon)


def test_l2r_membership_of_canonical_pair(grid4096):
    symbol = symbol_from_expression(grid4096, "0.6*conj(t)")
    outer = build_outer(symbol)
    rng = np.random.default_rng(1)
    coeffs = (rng.standard_normal(40) + 1j * rng.standard_normal(40)) * 0.8 ** np.arange(40)
    f1 = np.polynomial.polynomial.polyval(grid4096.nodes, coeffs)
    f2 = -riesz_project_values(symbol.values * f1)
    report = check_l2r_membership(symbol, outer, f1, f2)
    assert report.max_residual() < 1e-10


def test_l2r_membership_detects_perturbation(grid512):
    symbol = symbol_from_expression(grid512, "0.6*conj(t)")
    outer = build_outer(symbol)
    f1 = grid512.nodes ** 2
    f2 = -riesz_project_values(symbol.values * f1)
    eps = 3e-5
    report = check_l2r_membership(symbol, outer, f1, f2 + eps * grid512.nodes ** (-1))
    assert abs(report.hardy_defect - eps) < 1e-12
