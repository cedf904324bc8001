import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings

from hardydual import (
    CircleGrid,
    DuplicatePoint,
    GridMismatch,
    MassSet,
    SpaceData,
    TauVector,
    apply_tau,
    build_dual,
    build_outer,
    canonical_vector,
    check_hat_membership,
    dual_of,
    duality_identity,
    embed_analytic_vector,
    evaluate_analytic,
    l2_inner,
    l2_norm,
    riesz_project_values,
    symbol_from_expression,
    symbol_from_samples,
    theorem_check,
    zero_symbol,
)
from hardydual.corpus import BY_NAME, CASES
from hardydual.duality import (
    CONVERSE_POWERS,
    PRINTED,
    UNITARY,
    _antianalytic_shifts,
    _complement,
    _LaurentProjection,
)
from hardydual.spaces import build_gram_laurent, effective_data, embed_h2
import oracle
from oracle import laurent_values
from test_stacked import random_pairs


def _random_vector(rng, symbol, masses, band=50):
    grid = symbol.grid
    exponents = np.arange(-band, band + 1)
    coeffs = (rng.standard_normal(exponents.size)
              + 1j * rng.standard_normal(exponents.size)) * 0.8 ** np.abs(exponents)
    full = np.zeros(grid.size, dtype=complex)
    full[exponents % grid.size] = coeffs
    f1 = grid.values(full)
    values = rng.standard_normal(masses.count) + 1j * rng.standard_normal(masses.count)
    return canonical_vector(symbol, f1, values)


# --- dual data -------------------------------------------------------------------

def test_dual_single_mass_closed_form(mass_space):
    dual = dual_of(mass_space)
    assert dual.dual_symbol.sup_modulus < 1e-12
    assert abs(dual.dual_masses.weights[0] - 3.0 / 16.0) < 1e-12
    assert abs(dual.dual_masses.points[0] - 0.5) < 1e-15
    assert abs(dual.T_at_zero - 2.0) < 1e-13


def test_dual_rank_one_hankel(hankel_space):
    dual = dual_of(hankel_space)
    # R~(u) = -0.6 u: analytic, so the dual Hankel part vanishes
    assert abs(dual.dual_symbol.coeffs[1] + 0.6) < 1e-12
    others = dual.dual_symbol.coeffs.copy()
    others[1] = 0.0
    assert np.abs(others).max() < 1e-12


def test_dual_printed_convention(mass_space):
    dual = dual_of(mass_space, convention=PRINTED)
    # printed pairing: nu~ = |(1/T)'|^2 / nu = (16/9)/3
    assert abs(dual.dual_masses.weights[0] - 16.0 / 27.0) < 1e-12
    assert dual.provenance == PRINTED
    # the closed-form identity then fails by a visible amount
    report = duality_identity(mass_space, dual, 40)
    assert report.residual > 0.05


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
def test_dual_modulus_preservation(case):
    space = case.space(1024)
    dual = dual_of(space)
    grid = space.symbol.grid
    sym, _ = effective_data(space)
    primal_mod = np.abs(grid.conjugate_reindex(sym.values))
    assert np.abs(np.abs(dual.dual_symbol.values) - primal_mod).max() < 1e-10


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
def test_dual_outer_is_conjugate_reflection(case):
    space = case.space(1024)
    dual = build_dual(space)
    grid = space.symbol.grid
    expected = np.conj(grid.conjugate_reindex(dual.outer.values))
    assert np.abs(dual.back.outer.values - expected).max() < 1e-10


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
def test_dual_is_involution_on_data(case):
    # worst over the corpus in both conventions at 1024, 4096 and 16384:
    # symbol 5.9e-15, points exactly 0, relative weights 4.4e-16
    for convention in (UNITARY, PRINTED):
        for size in (1024, 4096, 16384):
            space = case.space(size)
            dual = dual_of(space, convention)
            back = dual_of(dual.dual_space(), convention)
            sym, masses = effective_data(space)
            where = f"{convention} at {size}"
            assert np.abs(back.dual_symbol.values - sym.values).max() < 1e-13, where
            assert np.array_equal(back.dual_masses.points, masses.points), where
            assert np.all(np.abs(back.dual_masses.weights - masses.weights)
                          <= 1e-14 * masses.weights), where


def _array_fields(obj, prefix=""):
    """(path, array) for every array reachable through dataclass fields."""
    for field in dataclasses.fields(obj):
        value = getattr(obj, field.name)
        path = prefix + field.name
        if isinstance(value, np.ndarray):
            yield path, value
        elif dataclasses.is_dataclass(value):
            yield from _array_fields(value, path + ".")


@pytest.mark.parametrize("convention", [UNITARY, PRINTED])
@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
def test_back_is_the_dual_of_the_dual_space(case, convention):
    space = case.space(1024)
    dual = build_dual(space, convention)
    assert dual.back is dual.back
    rebuilt = build_dual(dual.dual_space(), dual.provenance)
    pairs = list(zip(_array_fields(dual.back), _array_fields(rebuilt)))
    assert pairs
    for (path, got), (_, expected) in pairs:
        assert got.tobytes() == expected.tobytes(), path

    # the dual outer function and T~_e at the dual masses, built directly
    outer_dual = build_outer(dual.dual_symbol)
    te_dual = evaluate_analytic(outer_dual.coeffs, dual.dual_masses.points)
    assert dual.back.outer.values.tobytes() == outer_dual.values.tobytes()
    assert dual.back.outer_at_masses.tobytes() == np.asarray(te_dual).tobytes()

    # membership of a tau-image, against the residuals written out from them
    vec = _random_vector(np.random.default_rng(5), dual.symbol, dual.masses, band=16)
    image = apply_tau(vec, dual)
    report = check_hat_membership(image, dual.back)
    grid = space.symbol.grid
    g_coeffs = np.fft.fft(outer_dual.values * image.f1, norm="forward")
    anti = g_coeffs[grid.size // 2:]
    assert report.antianalytic_residual == np.sqrt(np.vecdot(anti, anti).real)
    if dual.dual_masses.count:
        g_at_points = evaluate_analytic(g_coeffs, dual.dual_masses.points)
        assert report.mass_mismatch == np.abs(image.mass_values
                                              - g_at_points / te_dual).max()
    else:
        assert report.mass_mismatch == 0.0


def test_dual_rejects_degenerate_derivative():
    # points 1e-7 apart, where |B'| would be 1.8e-7, never reach build_dual:
    # their separation 1.33e-7 is below TOL_BLASCHKE, so the mass set refuses them
    with pytest.raises(DuplicatePoint, match="separation 1.33e-07"):
        MassSet(np.array([0.5, 0.5 + 1e-7]), np.array([1.0, 1.0]))


@pytest.mark.parametrize("convention", [UNITARY, PRINTED])
def test_dual_weight_beyond_double_range_names_its_point(convention):
    # at 640 masses |(1/T)'(zeta_0)| is 2.1e-166, so its square underflows:
    # the dual weight is refused at its point, in either pairing, with no
    # numpy warning on the way
    points = oracle.sunflower_points(640)
    space = SpaceData(symbol_from_expression(CircleGrid(4096), "0.3*conj(t)"),
                      MassSet(points, np.ones(points.size)))
    with pytest.raises(ValueError, match=re.escape(
            "the dual weight at mass point 0.0355756237+0j is beyond double range: "
            "|(1/T)'(zeta_k)| is 2.125e-166")):
        dual_of(space, convention)


def test_dual_rejects_unknown_convention(mass_space):
    with pytest.raises(ValueError):
        build_dual(mass_space, convention="guess")


# --- the involution on vectors ----------------------------------------------------

def test_tau_classical_flip_shift(grid512):
    # R = 0, no masses: z^p maps to u^{-p-1}
    space = SpaceData(zero_symbol(grid512), MassSet.empty())
    dual = dual_of(space)
    for p in [-3, 0, 2]:
        vec = canonical_vector(space.symbol, grid512.nodes ** p)
        image = apply_tau(vec, dual)
        expected = grid512.nodes ** (-p - 1)
        assert np.abs(image.f1 - expected).max() < 1e-12


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
def test_tau_unitary_and_involutive(case):
    space = case.space(4096)
    dual = dual_of(space)
    dual_back = dual_of(dual.dual_space())
    symbol, masses = dual.symbol, dual.masses
    rng = np.random.default_rng(42)
    for _ in range(5):
        vec = _random_vector(rng, symbol, masses)
        norm = l2_norm(vec, symbol, masses)
        image = apply_tau(vec, dual)
        norm_image = l2_norm(image, dual.dual_symbol, dual.dual_masses)
        assert abs(norm_image ** 2 - norm ** 2) / norm ** 2 < 1e-8
        back = apply_tau(image, dual_back)
        diff = TauVector(back.f1 - vec.f1, back.f2 - vec.f2,
                         back.mass_values - vec.mass_values)
        assert l2_norm(diff, symbol, masses) / norm < 1e-8


def test_tau_involution_fails_under_printed_convention(mass_space):
    dual = dual_of(mass_space, convention=PRINTED)
    dual_back = dual_of(dual.dual_space(), convention=PRINTED)
    vec = canonical_vector(dual.symbol, dual.symbol.grid.nodes ** 0,
                           np.array([1.0 + 0j]))
    back = apply_tau(apply_tau(vec, dual), dual_back)
    # |(1/T)'|^4 nu nu~ != 1: the mass value comes back scaled
    assert abs(back.mass_values[0] - vec.mass_values[0]) > 0.5


def test_tau_grid_mismatch(mass_space, grid512):
    dual = dual_of(mass_space)
    bad = TauVector(np.zeros(512, dtype=complex), np.zeros(512, dtype=complex),
                    np.zeros(1, dtype=complex))
    with pytest.raises(GridMismatch):
        apply_tau(bad, dual)


def test_l2_inner_matches_laurent_gram(grid512):
    # quadrature inner product vs the Laurent-Gram value on canonical vectors
    from hardydual import build_gram_laurent
    masses = MassSet(np.array([0.4]), np.array([2.0]))
    space = SpaceData(symbol_from_expression(grid512, "0.5*conj(t)"), masses)
    gram = build_gram_laurent(space, 6)
    sym, m = effective_data(space)
    rng = np.random.default_rng(9)
    coeffs = rng.standard_normal(13) + 1j * rng.standard_normal(13)
    mass_values = rng.standard_normal(1) + 1j * rng.standard_normal(1)
    full = np.zeros(grid512.size, dtype=complex)
    full[(np.arange(-6, 7)) % grid512.size] = coeffs
    vec = canonical_vector(sym, grid512.values(full), mass_values)
    coords = np.concatenate([coeffs, mass_values])
    gram_norm = np.vdot(coords, gram @ coords).real
    quad_norm = l2_norm(vec, sym, m) ** 2
    assert abs(gram_norm - quad_norm) < 1e-12


# --- membership on the condition side ----------------------------------------------

def test_hat_membership_of_embedded_polynomial(mass_space):
    r = dual_of(mass_space)
    vec = embed_analytic_vector(r.symbol, r.masses, [1.0, -0.3, 0.2j])
    report = check_hat_membership(vec, r)
    assert report.antianalytic_residual < 1e-12
    assert report.mass_mismatch < 1e-12


def test_hat_membership_detects_mass_perturbation(mass_space):
    r = dual_of(mass_space)
    vec = embed_analytic_vector(r.symbol, r.masses, [1.0, 0.5])
    delta = 2e-6
    bumped = TauVector(vec.f1, vec.f2, vec.mass_values + delta)
    report = check_hat_membership(bumped, r)
    assert abs(report.mass_mismatch - delta) < 1e-12


def test_hat_membership_of_tau_image(mass_space):
    # a two-sided vector orthogonal to the embedded polynomials maps to a
    # member of the condition-side space
    report = theorem_check(mass_space, dual_of(mass_space), 32)
    assert report.forward_hardy_residual < 1e-7
    assert report.forward_mass_residual < 1e-7


# --- theorem and corollary -----------------------------------------------------------

def test_theorem_classical_case(grid4096):
    space = SpaceData(zero_symbol(grid4096), MassSet.empty())
    report = theorem_check(space, dual_of(space), 32)
    assert report.forward_hardy_residual < 1e-13
    assert report.forward_mass_residual == 0.0
    assert report.converse_orthogonality < 1e-13
    assert report.complement_dimension == 32


def test_theorem_mixed_case(grid4096):
    masses = MassSet(np.array([1 / 3]), np.array([1.0]))
    space = SpaceData(symbol_from_expression(grid4096, "0.6*conj(t)"), masses)
    report = theorem_check(space, dual_of(space), 48)
    assert max(report.forward_hardy_residual, report.forward_mass_residual) < 1e-6
    assert report.converse_orthogonality < 1e-8


@pytest.mark.parametrize("size", [8, 16])
def test_theorem_check_refuses_grid_too_small_for_the_converse(size):
    # the converse maps u^0..u^CONVERSE_POWERS back; a grid whose analytic
    # band cannot hold them read a converse near 1 (0.99993 at 8, 0.99932 at 16)
    masses = MassSet(np.array([0.5]), np.array([3.0]))
    space = SpaceData(symbol_from_expression(CircleGrid(size), "0.3*conj(t)"), masses)
    message = (f"converse power on a size-{size} grid must be an integer in "
               f"0..{size // 2 - 1}, got {CONVERSE_POWERS}")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        theorem_check(space, dual_of(space), 2)


def test_theorem_check_runs_on_the_smallest_grid_for_the_converse():
    masses = MassSet(np.array([0.5]), np.array([3.0]))
    space = SpaceData(symbol_from_expression(CircleGrid(32), "0.3*conj(t)"), masses)
    assert theorem_check(space, dual_of(space), 2).converse_orthogonality < 1e-9


THEOREM_FIELDS = ("forward_hardy_residual", "forward_mass_residual", "converse_orthogonality")


def _assert_matches_per_column(space, degree, gram_norms=False):
    """theorem_check against the per-column reference: 1e-9 relative, over a
    1e-15 floor for residuals at roundoff."""
    dual = dual_of(space)
    report = theorem_check(space, dual, degree)
    reference = oracle.theorem_check_per_column(space, dual, degree, gram_norms=gram_norms)
    assert report.complement_dimension == reference.complement_dimension
    for name in THEOREM_FIELDS:
        value, expected = getattr(report, name), getattr(reference, name)
        assert abs(value - expected) <= 1e-9 * abs(expected) + 1e-15, (name, value, expected)


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.name)
def test_theorem_check_matches_per_column_on_corpus(case):
    _assert_matches_per_column(case.space(256), 16)


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.name)
def test_theorem_check_matches_per_column_where_runs_meet(case):
    # degree 20 > 64/4: the zero and Nyquist runs of the projection overlap
    # and R_core is empty.  On so coarse a grid the corpus symbols alias
    # visibly, so both sides normalize by the Gram norm
    _assert_matches_per_column(case.space(64), 20, gram_norms=True)


@pytest.mark.parametrize("size, degree", [(256, 16), (64, 20)])
def test_theorem_check_matches_per_column_on_jump_symbol(size, degree):
    # a jump: coefficients decay like 1/p, so the Nyquist run is far from zero
    grid = CircleGrid(size)
    values = np.where(np.arange(size) < size // 2, 0.5, -0.3 + 0.2j)
    masses = MassSet(np.array([0.3j, -0.4]), np.array([1.0, 2.0]))
    space = SpaceData(symbol_from_samples(grid, values), masses)
    assert abs(space.symbol.coeffs[size // 2 - 1]) > 1e-3
    _assert_matches_per_column(space, degree, gram_norms=True)


@pytest.mark.parametrize("size, half_band",
                         [(8, 3), (64, 0), (64, 5), (64, 15), (64, 16), (64, 17),
                          (64, 31), (1024, 16)])
def test_laurent_projection_equals_fft_round_trip(size, half_band):
    # R_core f1 plus the boundary correction is P_-(R f1) as the FFT round
    # trip computes it, for a symbol with every coefficient nonzero
    grid = CircleGrid(size)
    rng = np.random.default_rng(size + half_band)
    symbol = symbol_from_samples(grid, rng.standard_normal(size)
                                 + 1j * rng.standard_normal(size))
    coeffs = rng.standard_normal((3, 2 * half_band + 1)) \
        + 1j * rng.standard_normal((3, 2 * half_band + 1))
    f1 = laurent_values(grid, coeffs, half_band)
    projection = _LaurentProjection(symbol, half_band)
    correction = np.zeros((3, size), dtype=complex)
    projection.add_correction(coeffs, correction)
    expected = riesz_project_values(symbol.values * f1)
    error = projection.core * f1 + grid.values(correction) - expected
    assert np.abs(error).max() <= 2e-15 * np.abs(expected).max()


@pytest.mark.parametrize("size", [8, 64, 1024, 16384])
def test_antianalytic_shifts_roll_the_spectrum(size):
    grid = CircleGrid(size)
    rng = np.random.default_rng(size)
    samples = (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / 3
    shifts = np.arange(12)
    rolled = _antianalytic_shifts(grid.coefficients(samples), shifts,
                                  np.empty((shifts.size, size), dtype=complex))
    for q, row in zip(shifts, rolled):
        t_q = grid.nodes[q * np.arange(size) % size]  # t_j^q = t_{qj mod N}
        expected = riesz_project_values(t_q * samples)
        assert np.abs(row - expected).max() <= 1e-15


def test_theorem_forward_takes_three_grid_ffts_per_column(monkeypatch):
    space = BY_NAME["mixed_two_mass"].space(1024)
    assert space.masses.count == 2
    dual = dual_of(space)
    dual.back, dual.tau_multipliers  # built once, outside the count
    rows = []

    def counting(transform):
        def counted(a, *args, **kwargs):
            a = np.asarray(a)
            if a.shape[-1] == space.symbol.grid.size:
                rows.append(a.size // a.shape[-1])
            return transform(a, *args, **kwargs)
        return counted

    for name in ("fft", "ifft"):
        monkeypatch.setattr(np.fft, name, counting(getattr(np.fft, name)))

    def grid_rows(degree):
        rows.clear()
        report = theorem_check(space, dual, degree)
        assert report.complement_dimension == degree + 2
        return sum(rows)

    # the degrees differ by 8 complement columns and share everything else
    assert grid_rows(16) - grid_rows(8) == 3 * 8


def test_identity_single_mass(mass_space):
    report = duality_identity(mass_space, dual_of(mass_space), 40)
    # closed form: 2 * sqrt(5/17) * sqrt(17/20) = 1
    assert abs(report.t_at_zero - 2.0) < 1e-13
    assert abs(report.kernel_shifted - np.sqrt(5.0 / 17.0)) < 1e-12
    assert abs(report.kernel_dual - np.sqrt(17.0 / 20.0)) < 1e-12
    assert report.residual < 1e-9
    assert report.vector_residual < 1e-9


def test_identity_rank_one_hankel(hankel_space):
    report = duality_identity(hankel_space, dual_of(hankel_space), 40)
    assert abs(report.t_at_zero - 0.8) < 1e-13
    assert abs(report.kernel_shifted - 1.25) < 1e-12
    assert abs(report.kernel_dual - 1.0) < 1e-12
    assert report.residual < 1e-10


def test_identity_trivial_space(grid512):
    space = SpaceData(zero_symbol(grid512), MassSet.empty())
    report = duality_identity(space, dual_of(space), 16)
    assert abs(report.product - 1.0) < 1e-13


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
def test_identity_across_corpus(case):
    space = case.space(4096)
    report = duality_identity(space, dual_of(space), 48)
    assert report.residual < 1e-6, case.name
    assert report.vector_residual < 1e-6, case.name


def _assert_complement_relations(space, degree):
    # the theorem's complement basis X = G^{-1} N against its defining
    # relations, and its span against the null space of E^H G from numpy's SVD
    embed = embed_h2(space, degree, degree)
    gram = build_gram_laurent(space, degree)
    null, complement = _complement(gram, degree, effective_data(space)[1].points)
    assert complement.shape[1] == degree + space.masses.count
    assert np.abs(embed.conj().T @ null).max() <= 1e-15
    relative = (np.linalg.norm(embed.conj().T @ gram @ complement)
                / (np.linalg.norm(embed) * np.linalg.norm(gram)
                   * np.linalg.norm(complement)))
    assert relative <= 1e-13
    a = embed.conj().T @ gram
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    rank = int(np.sum(s > s.max() * np.finfo(float).eps * max(a.shape)))
    ref = vh[rank:].conj().T
    q, _ = np.linalg.qr(complement)
    assert q.shape == ref.shape
    assert np.abs(q @ q.conj().T - ref @ ref.conj().T).max() < 1e-12


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
def test_complement_basis_relations(case):
    _assert_complement_relations(case.space(2048), 24)


@given(random_pairs())
@settings(deadline=None, max_examples=20)
def test_complement_basis_relations_on_random_pairs(space):
    _assert_complement_relations(space, 16)


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
def test_complement_vectors_annihilate_test_functions(case):
    # spot check of the orthogonality relation driving the theorem: the
    # embedded Blaschke multiples have zero inner product with complement
    # vectors; theorem_check reports the converse direction
    space = case.space(2048)
    report = theorem_check(space, dual_of(space), 24)
    assert report.converse_orthogonality < 1e-8, case.name


def test_complement_orthogonal_to_blaschke_multiples(mass_space):
    # complement basis vectors against B z^p directly, in the two-sided metric
    half_band = 32
    r = dual_of(mass_space)
    _, complement = _complement(build_gram_laurent(mass_space, half_band), half_band,
                                r.masses.points)
    grid = r.symbol.grid
    band = 2 * half_band + 1

    worst = 0.0
    for col in complement.T[:8]:
        full = np.zeros(grid.size, dtype=complex)
        full[(np.arange(-half_band, half_band + 1)) % grid.size] = col[:band]
        vec = canonical_vector(r.symbol, grid.values(full), col[band:])
        vec_norm = l2_norm(vec, r.symbol, r.masses)
        for p in range(6):
            test = canonical_vector(r.symbol, r.blaschke.values * grid.nodes ** p,
                                    np.zeros(r.masses.count))
            inner = l2_inner(vec, test, r.symbol, r.masses)
            worst = max(worst, abs(inner) / vec_norm)
    assert worst < 1e-8


@pytest.mark.parametrize("name", ["mass_single", "mixed_two_mass", "mixed_rational"])
def test_inner_product_transport_identity(name):
    # the mechanism behind the complement mapping: pairing a two-sided vector
    # against B z^q in the full metric equals the plain circle pairing of
    # conj(T_e) conj(t) f1~(conj t) against z^q
    from hardydual.corpus import BY_NAME

    space = BY_NAME[name].space(2048)
    r = dual_of(space)
    sym, masses = r.symbol, r.masses
    grid = sym.grid
    rng = np.random.default_rng(11)
    worst = 0.0
    for q in range(4):
        vec = _random_vector(rng, sym, masses, band=40)
        test = canonical_vector(sym, r.blaschke.values * grid.nodes ** q,
                                np.zeros(masses.count))
        lhs = l2_inner(vec, test, sym, masses)
        composite = vec.f1 + np.conj(sym.values) * vec.f2
        image_at_conj = grid.nodes * np.conj(r.blaschke.values) \
            / np.conj(r.outer.values) * composite
        rhs = np.mean(np.conj(r.outer.values) * np.conj(grid.nodes)
                      * image_at_conj * np.conj(grid.nodes ** q))
        worst = max(worst, abs(lhs - rhs))
    assert worst < 1e-12


def test_identity_residual_drops_with_degree(mass_space):
    # geometric truncation tail: doubling the degree cuts the residual by >= 4x
    small = duality_identity(mass_space, dual_of(mass_space), 6).residual
    large = duality_identity(mass_space, dual_of(mass_space), 12).residual
    assert small > 1e-7  # tail visible at the small degree
    assert large <= small / 4.0


def test_no_horner_path_left(monkeypatch):
    # every series evaluation goes through the FFT or evaluate_analytic
    def refuse(*args, **kwargs):
        raise AssertionError("Horner polyval reached")

    monkeypatch.setattr(np.polynomial.polynomial, "polyval", refuse)
    space = BY_NAME["mixed_two_mass"].space(1024)
    assert space.masses.count == 2
    dual = dual_of(space)
    identity = duality_identity(space, dual, 16)
    theorem = theorem_check(space, dual, 16)
    vec = embed_analytic_vector(space.symbol, space.masses, [1.0, 0.5j, 0.25])
    assert np.isfinite(dual.dual_masses.weights).all()
    assert np.isfinite([identity.residual, identity.vector_residual,
                        theorem.forward_hardy_residual,
                        theorem.forward_mass_residual]).all()
    assert np.allclose(vec.mass_values, 1.0 + 0.5j * space.masses.points
                       + 0.25 * space.masses.points ** 2, rtol=0, atol=1e-15)


@pytest.mark.parametrize("size, half_band", [(64, 0), (64, 5), (64, 31), (1024, 16)])
def test_laurent_values_scatter_matches_loop(size, half_band):
    grid = CircleGrid(size)
    rng = np.random.default_rng(size + half_band)
    band = np.array([1.0, 1j]) @ rng.standard_normal((2, 2 * half_band + 1))
    full = np.zeros(size, dtype=complex)
    for i, c in enumerate(band):
        full[(i - half_band) % size] = c
    assert np.array_equal(laurent_values(grid, band, half_band), grid.values(full))
