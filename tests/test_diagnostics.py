"""Perturbation fields, potentials, weighted norms, and temporal decay fits."""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import twophase as tp
from twophase.diagnostics import _phi_closed_form

from helpers import (assert_shortest_round_trip, flat_profile, per_value_csv,
                     rng_for)

UNIT = tp.FluidConstants(A1=1.0, A2=1.0, gamma=1.0, alpha=1.0, mu=1.0)


def make_grid(length, cells):
    # deliberately not the evolution module's Grid1D: the norm and
    # perturbation routines only rely on the duck attributes used here
    dx = length / cells
    return SimpleNamespace(length=length, cells=cells, dx=dx,
                           centers=(np.arange(cells) + 0.5) * dx)


def state_from(profile, grid, drho=0.0, du=0.0, dn=0.0, dv=0.0):
    rho_t, u_t, n_t, v_t = profile.interp(grid.centers)
    return SimpleNamespace(rho=rho_t + drho, u=u_t + du,
                           n=n_t + dn, v=v_t + dv)


@pytest.fixture(scope="module")
def unit_setup():
    spec = tp.ModelSpec(fluids=UNIT,
                        far=tp.FarFieldState(rho_plus=1.0, n_plus=1.0,
                                             u_plus=-2.0),
                        u_minus=-2.0)
    grid = make_grid(20.0, 2000)
    return spec, flat_profile(spec), grid


# ---------------------------------------------------------------------------
# perturbation fields
# ---------------------------------------------------------------------------

def test_perturbation_zero_and_roundtrip(unit_setup):
    spec, profile, grid = unit_setup
    field = tp.perturbation(state_from(profile, grid), profile, grid)
    for comp in (field.phi, field.psi, field.phi_bar, field.psi_bar):
        np.testing.assert_array_equal(comp, 0.0)

    bump = 0.01 * np.exp(-((grid.centers - 5.0) / 2.0) ** 2)
    state = state_from(profile, grid, drho=bump, du=2 * bump,
                       dn=3 * bump, dv=4 * bump)
    field = tp.perturbation(state, profile, grid)
    # linearity up to absorption: bump tails below one ulp of the profile
    # values vanish when they are added on
    np.testing.assert_allclose(field.phi, bump, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(field.psi, 2 * bump, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(field.phi_bar, 3 * bump, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(field.psi_bar, 4 * bump, rtol=0.0, atol=1e-15)
    # the round trip profile + perturbation is bit-exact
    rho_t, u_t, n_t, v_t = profile.interp(grid.centers)
    np.testing.assert_array_equal(rho_t + field.phi, state.rho)
    np.testing.assert_array_equal(u_t + field.psi, state.u)
    np.testing.assert_array_equal(n_t + field.phi_bar, state.n)
    np.testing.assert_array_equal(v_t + field.psi_bar, state.v)


def test_perturbation_and_energy_keep_the_full_interpolation_bits():
    # a profile whose four sample columns and two derived densities all
    # differ, on a grid whose centers fall between the profile nodes
    fluids = tp.FluidConstants(A1=1.3, A2=0.7, gamma=1.4, alpha=2.1, mu=0.6)
    far = tp.FarFieldState(rho_plus=1.2, n_plus=0.8, u_plus=-2.0)
    spec = tp.ModelSpec(fluids=fluids, far=far, u_minus=-2.0)
    flat = flat_profile(spec, x_max=30.0, points=301)
    x = flat.x
    profile = dataclasses.replace(
        flat, u_t=-2.0 - 0.05 * np.exp(-x),
        v_t=-2.0 - 0.1 * np.exp(-0.5 * x), ux_t=0.05 * np.exp(-x),
        vx_t=0.05 * np.exp(-0.5 * x))
    grid = make_grid(30.0, 997)
    bump = 0.01 * np.exp(-((grid.centers - 7.0) / 2.0) ** 2)
    state = state_from(profile, grid, drho=bump, du=-bump, dn=2 * bump,
                       dv=3 * bump)
    rho_t, u_t, n_t, v_t = (np.interp(grid.centers, x, c) for c in (
        profile.rho_t, profile.u_t, profile.n_t, profile.v_t))
    field = tp.perturbation(state, profile, grid)
    np.testing.assert_array_equal(field.phi, state.rho - rho_t)
    np.testing.assert_array_equal(field.psi, state.u - u_t)
    np.testing.assert_array_equal(field.phi_bar, state.n - n_t)
    np.testing.assert_array_equal(field.psi_bar, state.v - v_t)
    e1 = state.rho * (0.5 * field.psi ** 2 + _phi_closed_form(
        fluids.A1, fluids.gamma, state.rho, rho_t))
    e2 = state.n * (0.5 * field.psi_bar ** 2 + _phi_closed_form(
        fluids.A2, fluids.alpha, state.n, n_t))
    assert tp.energy_total(state, profile, grid) == \
        float(grid.dx * np.sum(e1 + e2))


def test_perturbation_grid_mismatch(unit_setup):
    spec, profile, grid = unit_setup
    short = make_grid(20.0, 1999)
    with pytest.raises(tp.DomainError):
        tp.perturbation(state_from(profile, grid), profile, short)
    long_grid = make_grid(80.0, 128)
    state = state_from(profile, make_grid(80.0, 128))
    with pytest.raises(tp.DomainError):
        tp.perturbation(state, profile, long_grid)


# ---------------------------------------------------------------------------
# pressure potential and energy
# ---------------------------------------------------------------------------

def test_phi_potential_frozen_isothermal_value():
    # A = 1, exponent 1, density 2 against reference 1: ln 2 - 1/2
    val = tp.phi_potential(UNIT, 2.0, 1.0, 1)
    assert val == pytest.approx(0.1931471805599453, rel=1e-14)
    assert tp.phi_potential(UNIT, 1.7, 1.7, 2) == 0.0


def test_phi_potential_validation():
    with pytest.raises(tp.DomainError):
        tp.phi_potential(UNIT, -1.0, 1.0, 1)
    with pytest.raises(tp.DomainError):
        tp.phi_potential(UNIT, 1.0, 0.0, 2)
    with pytest.raises(tp.DomainError):
        tp.phi_potential(UNIT, 1.0, 1.0, 3)


def test_phi_potential_against_quadrature():
    rng = rng_for("phi-quadrature")
    for trial in range(1000):
        A = float(rng.uniform(0.3, 3.0))
        g = 1.0 if trial % 4 == 0 else float(rng.uniform(1.0, 3.0))
        fluids = tp.FluidConstants(A1=A, A2=1.0, gamma=g, alpha=1.0, mu=1.0)
        rho = float(rng.uniform(0.1, 5.0))
        ref = float(rng.uniform(0.1, 5.0))
        closed = tp.phi_potential(fluids, rho, ref, 1)
        oracle, _ = quad(lambda s: (A * s ** g - A * ref ** g) / s ** 2,
                         ref, rho)
        assert closed == pytest.approx(oracle, rel=1e-9, abs=1e-9)
        if abs(rho - ref) > 1e-3:
            assert closed > 0.0


def test_energy_zero_iff_zero_perturbation(unit_setup):
    spec, profile, grid = unit_setup
    assert tp.energy_total(state_from(profile, grid), profile, grid) == 0.0
    bump = 1e-3 * np.exp(-((grid.centers - 8.0) / 1.5) ** 2)
    state = state_from(profile, grid, du=bump)
    assert tp.energy_total(state, profile, grid) > 0.0


def test_energy_constant_velocity_perturbation(unit_setup):
    spec, profile, grid = unit_setup
    eps = 2.5e-3
    state = state_from(profile, grid, du=eps)
    # densities untouched, so the energy is exactly rho_plus eps^2 L / 2
    expected = spec.far.rho_plus * eps ** 2 * grid.length / 2.0
    assert tp.energy_total(state, profile, grid) == \
        pytest.approx(expected, rel=1e-12)


def test_energy_phase_swap_symmetry():
    fluids = tp.FluidConstants(A1=0.7, A2=0.7, gamma=1.4, alpha=1.4, mu=2.0)
    far = tp.FarFieldState(rho_plus=1.3, n_plus=1.3, u_plus=-2.0)
    spec = tp.ModelSpec(fluids=fluids, far=far, u_minus=-2.0)
    profile = flat_profile(spec)
    grid = make_grid(30.0, 600)
    bump = 0.02 * np.exp(-((grid.centers - 10.0) / 3.0) ** 2)
    on_first = state_from(profile, grid, drho=bump, du=2 * bump)
    on_second = state_from(profile, grid, dn=bump, dv=2 * bump)
    e1 = tp.energy_total(on_first, profile, grid)
    e2 = tp.energy_total(on_second, profile, grid)
    assert e1 == e2


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def exp_field(grid, components=(0, 1, 2, 3)):
    f = np.exp(-grid.centers)
    zeros = np.zeros_like(f)
    parts = [f if i in components else zeros for i in range(4)]
    return tp.PerturbationField(*parts)


def test_norms_zero_field(unit_setup):
    spec, profile, grid = unit_setup
    zeros = np.zeros(grid.cells)
    rec = tp.norms(tp.PerturbationField(zeros, zeros, zeros, zeros), grid,
                   weights=(tp.AlgebraicNu(2.0), tp.ExponentialLambda(1.0)))
    assert rec.l2 == rec.h1 == rec.linf == rec.drag_l2 == 0.0
    assert all(v == 0.0 for v in rec.weighted.values())


def test_norms_exponential_profile_oracle():
    grid = make_grid(20.0, 2000)
    rec = tp.norms(exp_field(grid), grid)
    # each component integrates to 1/2; truncation at x = 20 is invisible
    assert rec.l2 == pytest.approx(math.sqrt(2), rel=1e-4)
    assert rec.h1 == pytest.approx(2.0, rel=1e-2)
    assert rec.linf == pytest.approx(math.exp(-grid.dx / 2), rel=1e-15)
    assert rec.drag_l2 == 0.0
    single = tp.norms(exp_field(grid, components=(1,)), grid)
    assert single.drag_l2 == single.l2


def test_norms_consistency_identities():
    rng = rng_for("norm-consistency")
    grid = make_grid(12.0, 300)
    comps = [rng.standard_normal(grid.cells) for _ in range(4)]
    rec = tp.norms(tp.PerturbationField(*comps), grid)
    assert rec.h1 >= rec.l2 >= 0.0
    diff_sq = sum(float(np.sum(((c[1:] - c[:-1]) / grid.dx) ** 2))
                  for c in comps)
    assert rec.h1 ** 2 == pytest.approx(rec.l2 ** 2 + grid.dx * diff_sq,
                                        rel=1e-12)
    assert rec.linf <= rec.l2 / math.sqrt(grid.dx) + 1e-12


def test_norms_algebraic_weight_monotbackstop():
    grid = make_grid(15.0, 400)
    field = exp_field(grid)
    tags = [tp.AlgebraicNu(nu) for nu in (0.0, 1.0, 2.5)]
    rec = tp.norms(field, grid, weights=tags)
    vals = [rec.weighted[tag] for tag in tags]
    # weights (1+x)^nu dominate pointwise in nu, and nu = 0 is the plain norm
    assert vals[0] == pytest.approx(rec.l2, rel=1e-14)
    assert vals[0] < vals[1] < vals[2]


def test_norms_refuses_a_label_in_place_of_a_tag():
    # norms takes tags; weight_tag reads a label into one
    grid = make_grid(15.0, 400)
    with pytest.raises(tp.DomainError, match="unknown weight tag 'alg1'"):
        tp.norms(exp_field(grid), grid, weights=("alg1",))


def test_norms_sigma_weight_matches_direct_formula():
    grid = make_grid(15.0, 400)
    field = exp_field(grid, components=(0,))
    a, sigma0 = 0.8, 0.05
    tag = tp.SigmaNu(1.5)
    rec = tp.norms(field, grid, weights=(tag,), sigma_params=(a, sigma0))
    x = grid.centers
    weight = ((1.0 + a * sigma0 * x) / sigma0) ** 1.5
    direct = math.sqrt(float(np.sum(weight * field.phi ** 2 * grid.dx)))
    assert rec.weighted[tag] == pytest.approx(direct, rel=1e-12)
    with pytest.raises(tp.DomainError):
        tp.norms(field, grid, weights=(tag,))


def test_norms_exponential_weight_log_space():
    grid = make_grid(20.0, 2000)
    field = exp_field(grid, components=(0,))
    tag = tp.ExponentialLambda(1.0)
    rec = tp.norms(field, grid, weights=(tag,))
    # e^{x} e^{-2x} integrates to 1 - e^{-20}
    assert rec.weighted[tag] == pytest.approx(1.0, rel=1e-4)
    direct = math.sqrt(float(np.sum(
        np.exp(grid.centers) * field.phi ** 2 * grid.dx)))
    assert rec.weighted[tag] == pytest.approx(direct, rel=1e-12)


def test_norms_exponential_weight_overflow():
    grid = make_grid(2000.0, 500)
    field = exp_field(grid, components=(0,))
    with pytest.raises(tp.WeightOverflowError) as err:
        tp.norms(field, grid, weights=(tp.ExponentialLambda(0.5),))
    lam_max = math.log(np.finfo(float).max) / grid.centers[-1]
    assert err.value.lam == 0.5
    assert err.value.lam_max == pytest.approx(lam_max, rel=1e-12)
    assert f"{lam_max:.6g}" in str(err.value)


def test_norms_exponential_weight_sum_overflow():
    # at lam_max the two last cells' terms e^(lam x) |w|^2 dx are each
    # finite and their sum is not; dx = 2 keeps sum |w|^2 finite
    grid = make_grid(2000.0, 1000)
    phi = np.zeros(grid.cells)
    phi[-2:] = math.sqrt(0.45 * np.finfo(float).max)
    zeros = np.zeros(grid.cells)
    field = tp.PerturbationField(phi=phi, psi=zeros, phi_bar=zeros,
                                 psi_bar=zeros)
    lam_max = math.log(np.finfo(float).max) / grid.centers[-1]
    with pytest.raises(tp.WeightOverflowError) as err:
        tp.norms(field, grid, weights=(tp.ExponentialLambda(lam_max),))
    assert err.value.lam == lam_max


def test_weight_tag_labels_and_validation():
    assert tp.AlgebraicNu(1.0).label == "alg1"
    assert tp.SigmaNu(2.5).label == "sig2.5"
    assert tp.ExponentialLambda(0.5).label == "exp0.5"
    for cls in (tp.AlgebraicNu, tp.SigmaNu, tp.ExponentialLambda):
        for bad in (-0.1, math.nan, math.inf, -math.inf):
            with pytest.raises(tp.DomainError, match=f"finite .* {bad}"):
                cls(bad)


@pytest.mark.parametrize("label", [
    "alg1_0", "alg 1", "alg1 ", "exp\t0.5", "sig2\n", "alg\u0661",
    "exp\u00a00.5", "algx"])
def test_weight_tag_refuses_text_that_no_label_spells(label):
    # Python's float reads each of these but the last, which it refuses
    with pytest.raises(tp.DomainError, match="unknown weight tag"):
        tp.weight_tag(label)


def test_weight_tag_aliases_and_non_finite_parameters():
    assert tp.weight_tag("alg1.0") == tp.AlgebraicNu(1.0)
    assert tp.weight_tag("exp1e0") == tp.ExponentialLambda(1.0)
    with pytest.raises(tp.DomainError, match="finite nu >= 0, got nan"):
        tp.weight_tag("algnan")
    with pytest.raises(tp.DomainError, match="finite lam >= 0, got inf"):
        tp.weight_tag("expinf")


TAG_CLASSES = (tp.AlgebraicNu, tp.SigmaNu, tp.ExponentialLambda)


@settings(max_examples=300, deadline=None)
@given(cls=st.sampled_from(TAG_CLASSES),
       value=st.floats(min_value=0.0, allow_nan=False, allow_infinity=False))
def test_weight_tag_label_parses_back_to_the_tag(cls, value):
    tag = cls(value)
    assert tp.weight_tag(tag.label) == tag


def test_weight_labels_keep_the_digits_that_tell_weights_apart(tmp_path):
    # with six significant digits both labels read alg1, and the CSV held
    # one w_alg1 column with the second weight's values only
    tags = (tp.AlgebraicNu(1.000001), tp.AlgebraicNu(1.000002))
    assert [tag.label for tag in tags] == ["alg1.000001", "alg1.000002"]
    grid = make_grid(10.0, 100)
    records = [tp.norms(exp_field(grid), grid, weights=tags, t=t)
               for t in (0.0, 1.0)]
    path = tmp_path / "norms.csv"
    series = tp.NormSeries(records=tuple(records))
    tp.save_norm_series_csv(series, path)
    assert path.read_text().splitlines()[0].endswith(
        ",w_alg1.000001,w_alg1.000002")
    assert tp.load_norm_series_csv(path) == series


def test_norm_series_requires_increasing_times():
    grid = make_grid(5.0, 50)
    recs = [tp.norms(exp_field(grid), grid, t=t) for t in (0.0, 1.0, 1.0)]
    with pytest.raises(tp.DomainError, match="strictly increasing"):
        tp.NormSeries(records=tuple(recs))
    tp.NormSeries(records=tuple(recs[:2]))
    # NaN compares false, so the ordering check alone would pass it
    for t in (math.nan, math.inf):
        with pytest.raises(tp.DomainError, match="times must be finite"):
            tp.NormSeries(records=(recs[0], dataclasses.replace(recs[1], t=t)))


# ---------------------------------------------------------------------------
# temporal decay fits
# ---------------------------------------------------------------------------

def series_from(times, values, tag=None):
    records = []
    for t, v in zip(times, values):
        weighted = {} if tag is None else {tag: 2.0 * v}
        records.append(tp.NormRecord(t=float(t), l2=float(v),
                                     h1=1.5 * float(v), linf=float(v),
                                     drag_l2=0.5 * float(v),
                                     weighted=weighted))
    return tp.NormSeries(records=tuple(records))


def test_fit_temporal_algebraic_exact():
    t = np.linspace(0.0, 100.0, 101)
    series = series_from(t, 5.0 * (1.0 + t) ** -1.5)
    fit = tp.fit_temporal_decay(series, "l2", "algebraic")
    assert fit.law == "algebraic"
    assert fit.rate == pytest.approx(1.5, abs=1e-10)
    assert fit.prefactor == pytest.approx(5.0, rel=1e-9)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    # default window is the later half of the records
    assert fit.window == (t[50], t[-1])


def test_fit_temporal_exponential_exact():
    t = np.linspace(0.0, 40.0, 81)
    series = series_from(t, 2.0 * np.exp(-0.3 * t))
    fit = tp.fit_temporal_decay(series, "h1", "exponential",
                                window=(5.0, 40.0))
    assert fit.rate == pytest.approx(0.3, abs=1e-10)
    # h1 carries the 1.5x scaling of the synthetic records
    assert fit.prefactor == pytest.approx(3.0, rel=1e-9)
    assert fit.window == (5.0, 40.0)


def test_fit_temporal_mixed_law_tail():
    t = np.arange(0.0, 201.0)
    series = series_from(t, (1.0 + t) ** -1.0 + np.exp(-t))
    fit = tp.fit_temporal_decay(series, "linf", "algebraic",
                                window=(50.0, 200.0))
    assert fit.rate == pytest.approx(1.0, abs=0.05)


def test_fit_temporal_noise_stability():
    rng = rng_for("fit-noise")
    t = np.linspace(0.0, 100.0, 101)
    clean = 5.0 * (1.0 + t) ** -1.5
    noisy = clean * (1.0 + 0.01 * rng.standard_normal(t.size))
    fit = tp.fit_temporal_decay(series_from(t, noisy), "l2", "algebraic")
    assert fit.rate == pytest.approx(1.5, rel=0.1)


def test_fit_temporal_weighted_selector():
    t = np.linspace(0.0, 60.0, 61)
    tag = tp.AlgebraicNu(1.0)
    series = series_from(t, 3.0 * np.exp(-0.2 * t), tag=tag)
    by_tag = tp.fit_temporal_decay(series, tag, "exponential")
    by_label = tp.fit_temporal_decay(series, "alg1", "exponential")
    assert by_tag == by_label
    assert by_tag.rate == pytest.approx(0.2, abs=1e-10)


def test_fit_temporal_rejections():
    t = np.linspace(0.0, 10.0, 21)
    series = series_from(t, np.exp(-t))
    with pytest.raises(tp.InsufficientDataError):
        tp.fit_temporal_decay(series, "l2", "algebraic", window=(9.0, 10.0))
    with pytest.raises(tp.DomainError):
        tp.fit_temporal_decay(series, "l2", "power-law")
    with pytest.raises(tp.DomainError):
        tp.fit_temporal_decay(series, "enstrophy", "algebraic")
    short = series_from(t[:5], np.exp(-t[:5]))
    with pytest.raises(tp.InsufficientDataError):
        tp.fit_temporal_decay(short, "l2", "algebraic")
    dying = np.exp(-t).copy()
    dying[15] = 0.0
    with pytest.raises(tp.DomainError):
        tp.fit_temporal_decay(series_from(t, dying), "l2", "exponential",
                              window=(0.0, 10.0))


# ---------------------------------------------------------------------------
# norm series CSV
# ---------------------------------------------------------------------------

def test_norm_series_csv_roundtrip(tmp_path):
    rng = rng_for("norm-csv")
    grid = make_grid(10.0, 100)
    tags = (tp.AlgebraicNu(1.0), tp.ExponentialLambda(0.5))
    records = []
    for i, t in enumerate(np.linspace(0.0, 3.0, 7)):
        comps = [np.exp(-grid.centers) * float(rng.uniform(0.5, 2.0))
                 for _ in range(4)]
        records.append(tp.norms(tp.PerturbationField(*comps), grid,
                                weights=tags, t=float(t)))
    series = tp.NormSeries(records=tuple(records))
    path = tmp_path / "norms.csv"
    tp.save_norm_series_csv(series, path)

    header = path.read_text().splitlines()[0]
    assert header == "t,l2,h1,linf,drag_l2,w_alg1,w_exp0.5"
    assert tp.load_norm_series_csv(path) == series


def test_norm_series_csv_rows_match_per_value_format(tmp_path):
    grid = make_grid(10.0, 100)
    tags = (tp.AlgebraicNu(1.0), tp.ExponentialLambda(0.5))
    records = [tp.norms(exp_field(grid), grid, weights=tags, t=t)
               for t in (0.0, 1.0 / 3.0, 2.5)]
    path = tmp_path / "norms.csv"
    tp.save_norm_series_csv(tp.NormSeries(records=tuple(records)), path)
    rows = [[r.t, r.l2, r.h1, r.linf, r.drag_l2]
            + [r.weighted[tag] for tag in tags] for r in records]
    text = path.read_text()
    assert text == per_value_csv("t,l2,h1,linf,drag_l2,w_alg1,w_exp0.5", rows)
    assert_shortest_round_trip(text, rows)


def test_norm_series_csv_rejects_mixed_tags(tmp_path):
    grid = make_grid(5.0, 50)
    a = tp.norms(exp_field(grid), grid, weights=(tp.AlgebraicNu(1.0),), t=0.0)
    b = tp.norms(exp_field(grid), grid, weights=(tp.AlgebraicNu(2.0),), t=1.0)
    series = tp.NormSeries(records=(a, b))
    with pytest.raises(tp.DomainError):
        tp.save_norm_series_csv(series, tmp_path / "bad.csv")


def test_norm_series_csv_header_guard(tmp_path):
    path = tmp_path / "wrong.csv"
    path.write_text("time,l2\n0,1\n")
    with pytest.raises(tp.DomainError):
        tp.load_norm_series_csv(path)
