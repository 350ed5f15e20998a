"""End-to-end steady construction: collocation, decay fits, CSV."""

import dataclasses
import decimal
import importlib.util
import math
import time
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import twophase as tp
from twophase.steady import (PROFILE_HEADER, load_profile_csv,
                             read_csv_columns, save_profile_csv)
from helpers import (assert_shortest_round_trip, flat_profile, per_value_csv,
                     random_spec, rng_for)

UNIT = tp.FluidConstants(A1=1.0, A2=1.0, gamma=1.0, alpha=1.0, mu=1.0)


def unit_spec(u_plus, u_minus):
    far = tp.FarFieldState(rho_plus=1.0, n_plus=1.0, u_plus=u_plus)
    return tp.ModelSpec(fluids=UNIT, far=far, u_minus=u_minus)


@pytest.fixture(scope="module")
def supersonic_case():
    spec = unit_spec(-2.0, -2.05)
    return spec, tp.solve_steady(spec)


@pytest.fixture(scope="module")
def sonic_case():
    spec = unit_spec(-1.0, -1.05)
    return spec, tp.solve_steady(spec)


# ---------------------------------------------------------------------------
# supersonic and subsonic collocation
# ---------------------------------------------------------------------------

def test_supersonic_boundary_and_fluxes(supersonic_case):
    spec, prof = supersonic_case
    assert prof.regime.is_supersonic
    assert prof.boundary_compatible
    assert abs(prof.u_t[0] - spec.u_minus) <= 1e-8
    assert abs(prof.v_t[0] - spec.u_minus) <= 1e-8
    assert prof.spec == spec
    # recovered densities keep the mass fluxes pointwise
    assert np.max(np.abs(prof.rho_t * prof.u_t - spec.mass_flux_1)) <= 1e-10
    assert np.max(np.abs(prof.n_t * prof.v_t - spec.mass_flux_2)) <= 1e-10
    assert np.all(prof.rho_t > 0) and np.all(prof.n_t > 0)
    assert np.all(prof.u_t < 0) and np.all(prof.v_t < 0)


def test_supersonic_residual(supersonic_case):
    spec, prof = supersonic_case
    assert tp.steady_residual(spec, prof) <= 1e-6


def test_supersonic_tail_is_slow_stable_mode(supersonic_case):
    spec, prof = supersonic_case
    eig = tp.eigensystem(tp.farfield_jacobian(spec))
    slow = max(lam.real for lam in eig.lambdas if lam.real < 0)
    X = prof.x[-1]
    fit = tp.fit_spatial_decay(prof, "u", "exponential", (X / 2, X))
    assert fit.r_squared >= 0.999
    assert fit.rate_or_slope == pytest.approx(-slow, rel=1e-4)


@pytest.mark.parametrize("regime", ["supersonic", "subsonic"])
def test_random_specs_converge(regime):
    rng = rng_for("solve-random", regime)
    for _ in range(5):
        spec = random_spec(rng, regime, delta=0.02)
        prof = tp.solve_steady(spec)
        assert np.max(np.abs(prof.rho_t * prof.u_t - spec.mass_flux_1)) <= 1e-12
        assert np.max(np.abs(prof.n_t * prof.v_t - spec.mass_flux_2)) <= 1e-12
        assert abs(prof.u_t[0] - spec.u_minus) <= 1e-8
        if regime == "supersonic":
            assert prof.boundary_compatible
            assert abs(prof.v_t[0] - spec.u_minus) <= 1e-8
        else:
            # only u(0) is imposed; the trajectory sets v(0)
            assert not prof.boundary_compatible
            assert abs(prof.v_t[0] - spec.u_minus) > 1e-6
        # the residual is a truncation measurement, so its absolute size
        # tracks the stiffest boundary layer; require refinement improvement
        # unless the profile already sits below a small absolute floor
        # (off the sonic point solve_steady refines any grid to 1e-6)
        scale = max(1.0, abs(spec.far.u_plus))
        res = tp.steady_residual(spec, prof)
        coarse = tp.solve_steady(spec, tp.SteadySolveOptions(points=1024))
        res_coarse = tp.steady_residual(spec, coarse)
        assert res <= max(0.5 * res_coarse, 1e-5 * scale)


def assert_criterion_03_checks(spec, prof, seconds):
    """The profile checks of acceptance criterion 03, at any grid size."""
    assert tp.steady_residual(spec, prof) <= 1e-6
    assert np.max(np.abs(prof.rho_t * prof.u_t - spec.mass_flux_1)) <= 1e-10
    assert np.max(np.abs(prof.n_t * prof.v_t - spec.mass_flux_2)) <= 1e-10
    assert abs(prof.u_t[0] - spec.u_minus) <= 1e-8
    assert abs(prof.v_t[0] - spec.u_minus) <= 1e-8
    assert seconds < 10.0


@pytest.mark.parametrize("mach", [1.001, 1.01, 1.1, 1.2])
def test_near_sonic_supersonic_solves(mach):
    # the near-sonic supersonic band; at Mach 1.001 and delta 0.05 the
    # output grid refines to ~16k points
    for delta in (0.005, 0.05):
        spec = unit_spec(-mach, -mach - delta)
        t0 = time.perf_counter()
        prof = tp.solve_steady(spec)
        seconds = time.perf_counter() - t0
        assert prof.regime.is_supersonic
        assert_criterion_03_checks(spec, prof, seconds)


def test_residual_above_bound_at_node_cap_raises(monkeypatch):
    # at 3000 nodes Mach 1.001, delta 0.05 stops at residual 5.5e-6, which
    # the refinement loop must report rather than return
    monkeypatch.setattr(tp.steady, "BVP_MAX_NODES", 3000)
    with pytest.raises(tp.ShootingError,
                       match=r"on 3000 points.*last residual 5\.5\d\de-06"):
        tp.solve_steady(unit_spec(-1.001, -1.051))


def test_stiff_layer_refines_output_grid():
    # a fast stable rate of -29 at mu = 0.21: on the default 2048 points the
    # stencil truncation error alone is ~2e-6, so the grid must grow
    fluids = tp.FluidConstants(A1=0.6138539680279791, A2=0.491004154086113,
                               gamma=1.5907902382314205,
                               alpha=1.7562191896140575,
                               mu=0.21455399692058563)
    far = tp.FarFieldState(rho_plus=2.9934076021425424,
                           n_plus=2.0950827095657587,
                           u_plus=-2.760773385132042)
    spec = tp.ModelSpec(fluids=fluids, far=far, u_minus=-2.783639781132651)
    t0 = time.perf_counter()
    prof = tp.solve_steady(spec)
    seconds = time.perf_counter() - t0
    assert prof.regime.is_supersonic
    assert len(prof.x) > 2048
    assert_criterion_03_checks(spec, prof, seconds)


def test_steady_failures_spec_612_solves():
    # index 612 of the tools/steady_failures.py draw: a fast stable mode
    # near -63 at mu = 0.55 and u_plus = -16.4, where a second difference
    # of u_t in the audit had a rounding floor at the residual bound
    path = Path(__file__).resolve().parents[1] / "tools" / "steady_failures.py"
    module_spec = importlib.util.spec_from_file_location("steady_failures",
                                                         path)
    tool = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(tool)
    regime, spec = tool.specs()[612]
    t0 = time.perf_counter()
    prof = tp.solve_steady(spec)
    seconds = time.perf_counter() - t0
    assert regime == "supersonic" and prof.regime.is_supersonic
    assert_criterion_03_checks(spec, prof, seconds)


@pytest.mark.parametrize("u_plus", [-2.0, -1.0, -0.5])
def test_acceptance_specs_solve_in_at_most_two_passes(u_plus):
    # the criterion 03/04/05 specs: the graded start mesh resolves each
    # profile, so solve_bvp refines at most once
    spec = unit_spec(u_plus, u_plus - 0.05)
    prof = tp.solve_steady(spec)
    stats = prof.stats
    assert stats.passes <= 2
    assert stats.start_nodes <= stats.nodes <= tp.steady.BVP_MAX_NODES
    assert stats.points == len(prof.x)
    assert stats.seconds > 0.0
    if prof.regime.is_sonic:
        assert stats.residual is None
    else:
        assert stats.residual == tp.steady_residual(spec, prof)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1),
       regime=st.sampled_from(["supersonic", "subsonic", "sonic"]),
       delta=st.floats(0.005, 0.05))
def test_start_mesh_spans_the_interval(seed, regime, delta):
    spec = random_spec(np.random.default_rng(seed), regime, delta=delta)
    meshes = []

    def recording(fun, bc, x, y, **kwargs):
        meshes.append(x)
        return solve_bvp(fun, bc, x, y, **kwargs)

    solve_bvp = tp.steady.solve_bvp
    with mock.patch.object(tp.steady, "solve_bvp", recording):
        try:
            prof = tp.solve_steady(spec)
        except (tp.ShootingError, tp.SingularityError):
            prof = None
    (x,) = meshes
    assert x[0] == 0.0
    assert np.all(np.diff(x) > 0.0)
    assert len(x) <= tp.steady.BVP_MAX_NODES
    if prof is not None:
        assert x[-1] == prof.x[-1]
        assert prof.stats.start_nodes == len(x)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(A1=st.floats(0.3, 3.0), A2=st.floats(0.3, 3.0),
       gamma=st.floats(1.0, 3.0), alpha=st.floats(1.0, 3.0),
       mu=st.floats(0.2, 5.0), rho_plus=st.floats(0.3, 3.0),
       n_plus=st.floats(0.3, 3.0),
       mach=st.one_of(st.floats(1.01, 3.0), st.floats(0.15, 0.99)),
       delta=st.floats(0.005, 0.05))
# subsonic with v(0) - u_plus ~ 1.08: collocation drives v through zero
# (SingularityError); shooting returned a profile of residual 9.8e-6
@example(A1=2.3823, A2=1.4612, gamma=2.35, alpha=2.6702, mu=1.6191,
         rho_plus=2.6615, n_plus=0.6374, mach=0.5925954914397469,
         delta=0.03998)
def test_random_specs_solve_or_raise_documented_errors(
        A1, A2, gamma, alpha, mu, rho_plus, n_plus, mach, delta):
    fluids = tp.FluidConstants(A1=A1, A2=A2, gamma=gamma, alpha=alpha, mu=mu)
    u_plus = mach * tp.sonic_velocity(fluids, rho_plus, n_plus)
    far = tp.FarFieldState(rho_plus=rho_plus, n_plus=n_plus, u_plus=u_plus)
    spec = tp.ModelSpec(fluids=fluids, far=far, u_minus=u_plus - delta)
    try:
        prof = tp.solve_steady(spec)
    except (tp.DomainError, tp.ShootingError, tp.SingularityError,
            tp.NumericsError):
        return
    assert abs(prof.u_t[0] - spec.u_minus) <= 1e-8


def test_subsonic_reports_second_boundary_velocity():
    spec = unit_spec(-0.5, -0.55)
    prof = tp.solve_steady(spec)
    assert prof.regime.is_subsonic
    assert abs(prof.u_t[0] - spec.u_minus) <= 1e-10
    assert not prof.boundary_compatible
    X = prof.x[-1]
    fit = tp.fit_spatial_decay(prof, "u", "exponential", (X / 2, X))
    assert fit.r_squared >= 0.99
    assert fit.rate_or_slope > 0


# ---------------------------------------------------------------------------
# sonic collocation
# ---------------------------------------------------------------------------

def test_sonic_boundary_enforced(sonic_case):
    spec, prof = sonic_case
    assert prof.regime.is_sonic
    assert prof.boundary_compatible
    assert abs(prof.u_t[0] - spec.u_minus) <= 1e-8
    assert abs(prof.v_t[0] - spec.u_minus) <= 1e-8
    assert prof.sigma0 == spec.delta


def test_sonic_algebraic_slope(sonic_case):
    spec, prof = sonic_case
    X = prof.x[-1]
    fit = tp.fit_spatial_decay(prof, "u", "algebraic", (X / 2, X))
    assert fit.rate_or_slope == pytest.approx(-1.0, abs=0.1)
    assert fit.r_squared >= 0.99


def test_sonic_curvature_prefactor(sonic_case):
    # u~_x / sigma^2 flattens to the curvature constant a on the far half
    spec, prof = sonic_case
    a = tp.derived_constants(spec).a
    X = prof.x[-1]
    fit = tp.fit_spatial_decay(prof, "ux_over_sigma2", "algebraic", (X / 2, X))
    assert abs(fit.rate_or_slope) <= 0.05
    assert fit.prefactor == pytest.approx(a, rel=0.1)


def test_sonic_rejects_outflow_faster_than_farfield():
    # sonic decay runs through u~ < u_plus only
    with pytest.raises(tp.DomainError):
        tp.solve_steady(unit_spec(-1.0, -0.95))


# ---------------------------------------------------------------------------
# guards and the trivial branch
# ---------------------------------------------------------------------------

def test_zero_delta_returns_constant_profile():
    spec = unit_spec(-2.0, -2.0)
    prof = tp.solve_steady(spec)
    assert np.all(prof.rho_t == 1.0)
    assert np.all(prof.u_t == -2.0)
    assert np.all(prof.n_t == 1.0)
    assert np.all(prof.v_t == -2.0)
    assert np.all(prof.ux_t == 0.0) and np.all(prof.vx_t == 0.0)
    assert tp.steady_residual(spec, prof) == 0.0
    assert prof.stats is None


def test_large_delta_returns_verified_profiles():
    # no cap on delta: a profile comes back only when it passes the checks
    for spec in (unit_spec(-2.0, -2.2), unit_spec(-1.0, -1.2)):
        prof = tp.solve_steady(spec)
        assert prof.spec.delta == pytest.approx(0.2)
        assert abs(prof.u_t[0] - spec.u_minus) <= 1e-8
        assert abs(prof.v_t[0] - spec.u_minus) <= 1e-8
        assert (np.max(np.abs(prof.rho_t * prof.u_t - spec.mass_flux_1))
                <= 1e-10)
        assert (np.max(np.abs(prof.n_t * prof.v_t - spec.mass_flux_2))
                <= 1e-10)
        if prof.regime.is_supersonic:
            assert tp.steady_residual(spec, prof) <= 1e-6
        else:
            assert prof.regime.is_sonic


def test_interp_is_linear(supersonic_case):
    _, prof = supersonic_case
    columns = (prof.rho_t, prof.u_t, prof.n_t, prof.v_t)
    at_nodes = prof.interp(prof.x[:10])
    assert len(at_nodes) == 4
    for got, col in zip(at_nodes, columns):
        np.testing.assert_array_equal(got, col[:10])
    mid = 0.5 * (prof.x[3] + prof.x[4])
    vals = prof.interp(mid)
    assert len(vals) == 4
    for got, col in zip(vals, columns):
        assert got == pytest.approx(0.5 * (col[3] + col[4]), rel=1e-12)


def test_replaced_columns_carry_no_stale_boundary_data(supersonic_case):
    # the boundary velocities and boundary_compatible follow the samples,
    # so initialize takes those of a profile whose columns were replaced
    _, prof = supersonic_case
    shifted = dataclasses.replace(prof, u_t=prof.u_t + 1e-3,
                                  v_t=prof.v_t + 1e-3)
    state = tp.initialize(shifted, tp.make_grid(10.0, 64),
                          tp.PerturbationSpec())
    assert state.u_bc == shifted.u_t[0] != prof.u_t[0]
    assert state.v_bc == shifted.v_t[0] != prof.v_t[0]
    assert prof.boundary_compatible and not shifted.boundary_compatible


# ---------------------------------------------------------------------------
# the far-field end-gap check
# ---------------------------------------------------------------------------

def test_sonic_end_gap_measures_densities_in_velocity_units():
    # the n gap at L exceeded 3 sigma(L) (3.189e-3 > 3.000e-3) while u and
    # v met it; through the mass flux, |n~ - n_plus| |u_plus| / n_plus is
    # the gap in velocity units, and the profile passes
    fluids = tp.FluidConstants(A1=0.3208, A2=0.3243, gamma=1.4423,
                               alpha=2.2497, mu=0.4870)
    u_plus = tp.sonic_velocity(fluids, 2.5549, 0.5630)
    far = tp.FarFieldState(rho_plus=2.5549, n_plus=0.5630, u_plus=u_plus)
    spec = tp.ModelSpec(fluids=fluids, far=far, u_minus=u_plus - 0.0305)
    prof = tp.solve_steady(spec)
    assert prof.regime.is_sonic
    assert abs(prof.u_t[0] - spec.u_minus) <= 1e-8
    assert abs(prof.v_t[0] - spec.u_minus) <= 1e-8
    assert np.max(np.abs(prof.rho_t * prof.u_t - spec.mass_flux_1)) <= 1e-10
    assert np.max(np.abs(prof.n_t * prof.v_t - spec.mass_flux_2)) <= 1e-10


def test_end_gap_rejects_a_profile_cut_off_early():
    spec = unit_spec(-2.0, -2.05)
    with pytest.raises(tp.ShootingError,
                       match=r"end gap 2\.449e-03 > 2\.000e-08"):
        tp.solve_steady(spec, tp.SteadySolveOptions(x_domain=2.0))


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------

def test_profile_csv_roundtrip(tmp_path, supersonic_case):
    _, prof = supersonic_case
    path = tmp_path / "profile.csv"
    save_profile_csv(prof, path)
    cols = load_profile_csv(path)
    assert list(cols) == PROFILE_HEADER.split(",")
    # %.17g prints doubles exactly, so the round trip is bit-identical
    np.testing.assert_array_equal(cols["x"], prof.x)
    np.testing.assert_array_equal(cols["rho_t"], prof.rho_t)
    np.testing.assert_array_equal(cols["u_t"], prof.u_t)
    np.testing.assert_array_equal(cols["n_t"], prof.n_t)
    np.testing.assert_array_equal(cols["v_t"], prof.v_t)
    np.testing.assert_array_equal(cols["ux_t"], prof.ux_t)
    np.testing.assert_array_equal(cols["vx_t"], prof.vx_t)


def test_profile_csv_rows_match_per_value_format(tmp_path,
                                                 supersonic_case):
    _, prof = supersonic_case
    path = tmp_path / "profile.csv"
    save_profile_csv(prof, path)
    rows = list(zip(prof.x, prof.rho_t, prof.u_t, prof.n_t, prof.v_t,
                    prof.ux_t, prof.vx_t))
    text = path.read_text()
    assert text == per_value_csv(PROFILE_HEADER, rows)
    assert_shortest_round_trip(text, rows)


# the edges of binary64, and values whose shortest spelling is not %.17g's
SPECIAL = (math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
           1.7976931348623157e308, -1.7976931348623157e308, 1e16, 1e-05,
           0.1, -2.05, 2.2250738585072014e-308)


def _special_column(n, shift):
    return np.roll(np.resize(np.array(SPECIAL), n), shift)


def _special_profile():
    prof = flat_profile(unit_spec(-2.0, -2.0), points=40)
    return dataclasses.replace(prof, **{
        name: _special_column(40, i) for i, name in enumerate(
            ("rho_t", "u_t", "n_t", "v_t", "ux_t", "vx_t"))})


def _special_state(grid):
    ones = np.ones(grid.cells)
    U = np.array(((ones, ones), (_special_column(grid.cells, 0),
                                 _special_column(grid.cells, 5))))
    return tp.EvolutionState(t=0.0, U=U, u_bc=-2.0, v_bc=-2.0,
                             right_ghost=(1.0, -2.0, 1.0, -2.0))


def _special_series():
    tag = tp.AlgebraicNu(1.0)
    return tp.NormSeries(records=tuple(
        tp.NormRecord(t=float(k), l2=SPECIAL[k], h1=SPECIAL[k - 1],
                      linf=SPECIAL[k - 2], drag_l2=SPECIAL[k - 3],
                      weighted={tag: SPECIAL[k - 4]})
        for k in range(len(SPECIAL))))


@pytest.mark.parametrize("writer", ["profile", "state", "norm_series"])
def test_csv_writers_spell_every_edge_value(tmp_path, writer):
    # NaN, +-inf, +-0.0, the smallest subnormal and the largest double go
    # through each writer: bytes as the per-value reference spells them,
    # shortest round-trip digits, and the same bits read back
    path = tmp_path / "edges.csv"
    if writer == "profile":
        prof = _special_profile()
        save_profile_csv(prof, path)
        header = PROFILE_HEADER
        table = np.column_stack([prof.x, prof.rho_t, prof.u_t, prof.n_t,
                                 prof.v_t, prof.ux_t, prof.vx_t])
    elif writer == "state":
        grid = tp.make_grid(10.0, 30)
        state = _special_state(grid)
        tp.save_state_csv(state, grid, path)
        header = "x,rho,n,mom1,mom2"
        table = np.column_stack([grid.centers, state.rho, state.n,
                                 state.mom1, state.mom2])
    else:
        series = _special_series()
        tp.save_norm_series_csv(series, path)
        header = "t,l2,h1,linf,drag_l2,w_alg1"
        table = np.array([[r.t, r.l2, r.h1, r.linf, r.drag_l2,
                           *r.weighted.values()] for r in series.records])
    assert not np.isfinite(table).all()
    text = path.read_text()
    assert text == per_value_csv(header, table)
    assert_shortest_round_trip(text, table)
    cols = read_csv_columns(path, writer, header.__eq__)
    back = np.column_stack(list(cols.values()))
    assert np.array_equal(np.isnan(back), np.isnan(table))
    finite = ~np.isnan(table)
    assert (back[finite].view(np.uint64)
            == table[finite].view(np.uint64)).all()


def test_header_only_csv_loads_as_empty_columns(tmp_path):
    # save_norm_series_csv writes just the header for an empty series;
    # it loads back as the empty series and a header-only profile as
    # zero-length columns, without numpy's no-data warning
    path = tmp_path / "empty.csv"
    tp.save_norm_series_csv(tp.NormSeries(records=()), path)
    assert path.read_text() == "t,l2,h1,linf,drag_l2\n"
    profile = tmp_path / "profile.csv"
    profile.write_text(PROFILE_HEADER + "\n\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        series = tp.load_norm_series_csv(path)
        prof_cols = load_profile_csv(profile)
    assert series == tp.NormSeries(records=())
    assert list(prof_cols) == PROFILE_HEADER.split(",")
    assert all(col.shape == (0,) for col in prof_cols.values())


def _midpoint(v):
    """The exact decimal halfway between v and the next double up: a
    correctly rounded reader must round it to the even neighbour."""
    with decimal.localcontext() as ctx:
        ctx.prec = 1200
        return str((decimal.Decimal(v)
                    + decimal.Decimal(math.nextafter(v, math.inf))) / 2)


_finite = st.floats(allow_nan=False, allow_infinity=False)
_number = st.one_of(
    _finite.map(repr), _finite.map("%.17g".__mod__),
    _finite.map("%.3e".__mod__), st.integers(-10**30, 10**30).map(str),
    _finite.filter(lambda v: abs(v) < 1.7e308).map(_midpoint))
_token = st.one_of(_number, st.sampled_from([
    "-0", "-0.0", "0", "nan", "inf", "-inf", "+1", ".5", "1.", "01", "-0e0",
    "1e-0", "1e400", "1e-400", "1e309", "-1e-400", "1E+5", "", "oops"]))
_separator = st.sampled_from([",", ", ", " ,", ",\t"])
_newline = st.sampled_from(["\n", "\r\n", "\n\n", " \n"])


@st.composite
def _csv_body(draw):
    width = draw(st.integers(1, 4))
    # plain bodies mostly take the fast path, mixed ones mostly fall back
    tokens = draw(st.sampled_from([_number, _token]))
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        ragged = draw(st.integers(0, 9)) == 0
        count = draw(st.integers(1, 5)) if ragged else width
        row = draw(st.lists(tokens, min_size=count, max_size=count))
        lines.append(draw(_separator).join(row) + draw(_newline))
    return width, "".join(lines)


def _loadtxt_columns(path, width):
    """read_csv_columns as numpy.loadtxt alone reads the body."""
    with open(path) as fh:
        fh.readline()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as err:
            raise tp.DomainError(f"{path}: {err}") from None
    if data.size and data.shape[1] != width:
        raise tp.DomainError(f"{path}: rows hold {data.shape[1]} values, "
                             f"the header names {width}")
    return data.reshape(-1, width)


def _outcome(read):
    try:
        return read(), None
    except tp.DomainError as err:
        return None, str(err)


@settings(max_examples=300, deadline=None)
@given(_csv_body())
@example((1, "-0\n"))
@example((2, "1e309,-0\r\n2,3\n"))
@example((1, _midpoint(5e-324) + "\n"))
@example((1, "1\n \n"))
@example((2, " \n\t\n"))
def test_csv_reader_matches_loadtxt(tmp_path_factory, case):
    # the orjson fast path returns loadtxt's bits or falls back to it,
    # so every body reads as loadtxt reads it, errors included
    width, body = case
    path = tmp_path_factory.getbasetemp() / "reader_body.csv"
    header = ",".join(f"c{i}" for i in range(width))
    path.write_bytes((header + "\n" + body).encode())
    want, want_err = _outcome(lambda: _loadtxt_columns(path, width))
    got, got_err = _outcome(lambda: np.column_stack(list(
        read_csv_columns(path, "test", header.__eq__).values())))
    assert got_err == want_err
    if want is not None:
        assert got.shape == want.shape
        assert (got.view(np.uint64) == want.view(np.uint64)).all()


def test_csv_header_guard(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,rho,u\n0,1,2\n")
    with pytest.raises(tp.DomainError):
        load_profile_csv(path)


def test_csv_header_naming_a_column_twice_is_refused(tmp_path):
    # a dict of columns would keep only the later one, without a word
    path = tmp_path / "twice.csv"
    path.write_text("a,b,a\n1,2,3\n")
    with pytest.raises(tp.DomainError) as err:
        read_csv_columns(path, "test", lambda header: True)
    assert str(err.value) == f"{path}: test header names column 'a' twice"


@pytest.mark.parametrize("load, header", [
    (load_profile_csv, PROFILE_HEADER),
    (tp.load_state_csv, "x,rho,u,n,v"),
    (tp.load_norm_series_csv, "t,l2,h1,linf,drag_l2"),
], ids=["profile", "state", "norm_series"])
@pytest.mark.parametrize("fault", ["unparsable", "short_row"])
def test_csv_body_guard_names_the_file(tmp_path, load, header, fault):
    # a bad body is a DomainError naming the file, like a bad header
    values = ["1"] * len(header.split(","))
    if fault == "unparsable":
        values[-1] = "oops"
    else:
        values.pop()
    path = tmp_path / "bad_body.csv"
    path.write_text(header + "\n" + ",".join(values) + "\n")
    with pytest.raises(tp.DomainError, match="bad_body.csv"):
        load(path)


# ---------------------------------------------------------------------------
# decay fits on synthetic data
# ---------------------------------------------------------------------------

def synthetic_profile(x, u_dev, delta):
    """Flat unit-supersonic profile with a prescribed deviation in u~."""
    spec = unit_spec(-2.0, -2.0 - delta)
    ones = np.ones_like(x)
    return tp.SteadyProfile(
        x=x, rho_t=ones, u_t=-2.0 + u_dev, n_t=ones.copy(),
        v_t=np.full_like(x, -2.0), ux_t=np.zeros_like(x),
        vx_t=np.zeros_like(x), spec=spec)


def test_fit_recovers_synthetic_exponential():
    # keep the smallest deviation far above the 4.4e-16 resolution of
    # doubles near u_plus = -2, or the log regression sees cancellation
    x = np.linspace(0.0, 10.0, 600)
    prof = synthetic_profile(x, -0.07 * np.exp(-1.37 * x), 0.07)
    fit = tp.fit_spatial_decay(prof, "u", "exponential", (0.0, 10.0))
    assert fit.law == "exponential"
    assert fit.rate_or_slope == pytest.approx(1.37, rel=1e-8)
    assert fit.prefactor == pytest.approx(0.07, rel=1e-8)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-10)


def test_fit_recovers_synthetic_algebraic():
    x = np.linspace(0.0, 400.0, 900)
    delta = 0.05
    prof = synthetic_profile(x, -delta * (1.0 + delta * x) ** -1.0, delta)
    fit = tp.fit_spatial_decay(prof, "u", "algebraic", (0.0, 400.0))
    assert fit.law == "algebraic"
    assert fit.rate_or_slope == pytest.approx(-1.0, rel=1e-8)
    assert fit.prefactor == pytest.approx(delta, rel=1e-8)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-10)


def test_fit_rejections(supersonic_case):
    _, prof = supersonic_case
    X = prof.x[-1]
    with pytest.raises(tp.DomainError):
        tp.fit_spatial_decay(prof, "entropy", "exponential", (0.0, X))
    with pytest.raises(tp.DomainError):
        tp.fit_spatial_decay(prof, "u", "logarithmic", (0.0, X))
    with pytest.raises(tp.InsufficientDataError):
        tp.fit_spatial_decay(prof, "u", "exponential", (0.0, prof.x[3]))


def test_fit_rejects_zero_deviation():
    x = np.linspace(0.0, 10.0, 64)
    prof = synthetic_profile(x, np.zeros_like(x), 0.0)
    with pytest.raises(tp.DomainError):
        tp.fit_spatial_decay(prof, "u", "exponential", (0.0, 10.0))


def test_residual_needs_enough_points(supersonic_case):
    spec, prof = supersonic_case
    short = dataclasses.replace(
        prof, x=prof.x[:5], rho_t=prof.rho_t[:5], u_t=prof.u_t[:5],
        n_t=prof.n_t[:5], v_t=prof.v_t[:5], ux_t=prof.ux_t[:5],
        vx_t=prof.vx_t[:5])
    with pytest.raises(tp.InsufficientDataError):
        tp.steady_residual(spec, short)
