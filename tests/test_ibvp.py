"""Grid, initialization, time stepping, and evolution bookkeeping."""

import dataclasses
import json
import math

import numpy as np
import pytest

import twophase as tp
from twophase.ibvp import (_block, _faces, _forward_euler, _ghost_cells,
                           _ghosted, _implicit_momenta, _pad, _rates,
                           _viscosity_drag)

from helpers import flat_profile, per_value_csv, rng_for

UNIT = tp.FluidConstants(A1=1.0, A2=1.0, gamma=1.0, alpha=1.0, mu=1.0)
# non-isothermal: the only fluid whose steps run the pressure powers
HOT = tp.FluidConstants(A1=1.3, A2=0.7, gamma=1.4, alpha=2.1, mu=0.6)
SUP = tp.ModelSpec(fluids=UNIT,
                   far=tp.FarFieldState(rho_plus=1.0, n_plus=1.0,
                                        u_plus=-2.0),
                   u_minus=-2.0)
FLUIDS = pytest.mark.parametrize("fluids", [UNIT, HOT],
                                 ids=["unit", "non_isothermal"])


def sup_spec(fluids):
    return tp.ModelSpec(fluids=fluids, far=SUP.far, u_minus=SUP.u_minus)


def homogeneous_state(cells, rho, u, n, v, t=0.0):
    full = np.full(cells, 1.0)
    return tp.EvolutionState(t=t, rho=rho * full, n=n * full,
                             mom1=rho * u * full, mom2=n * v * full, u_bc=u,
                             v_bc=v, right_ghost=(rho, u, n, v))


# ---------------------------------------------------------------------------
# grid and perturbation plumbing
# ---------------------------------------------------------------------------

def test_make_grid_fields():
    grid = tp.make_grid(10.0, 100)
    assert grid.dx == pytest.approx(0.1, rel=1e-15)
    assert grid.cells == 100
    assert grid.centers[0] == pytest.approx(grid.dx / 2, rel=1e-15)
    assert grid.centers[-1] == pytest.approx(10.0 - grid.dx / 2, rel=1e-14)
    assert np.all(np.diff(grid.centers) > 0)
    assert grid.dx * grid.cells == pytest.approx(grid.length, rel=1e-15)
    with pytest.raises(tp.DomainError):
        tp.make_grid(0.0, 10)
    with pytest.raises(tp.DomainError):
        tp.make_grid(5.0, 0)


def test_perturbation_spec_validation():
    with pytest.raises(tp.DomainError):
        tp.PerturbationSpec(shape="sine")
    with pytest.raises(tp.DomainError):
        tp.PerturbationSpec(width=0.0)
    with pytest.raises(tp.DomainError):
        tp.PerturbationSpec(components=("rho", "w"))
    with pytest.raises(tp.DomainError):
        tp.PerturbationSpec(shape="from_file")
    for name in ("amplitude", "center", "width"):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(tp.DomainError, match=f"{name} must be finite"):
                tp.PerturbationSpec(**{name: bad})


def test_perturbation_values_taper_and_support():
    x = np.array([0.0, 0.5, 5.0, 10.0, 14.9, 15.1, 30.0])
    pert = tp.PerturbationSpec(shape="compact_bump", amplitude=2e-3,
                               center=10.0, width=5.0,
                               components=("rho", "u", "v"))
    vals = tp.perturbation_values(pert, x)
    # velocity components vanish identically at the boundary point
    assert vals["u"][0] == 0.0 and vals["v"][0] == 0.0
    assert vals["n"].max() == 0.0
    # compact support: exactly zero outside [center - width, center + width]
    assert vals["rho"][-1] == 0.0 and vals["rho"][-2] == 0.0
    assert vals["rho"][4] > 0.0
    # the mollifier is normalized to hit the amplitude at its center
    assert vals["rho"][3] == pytest.approx(2e-3, rel=1e-15)

    gauss = tp.PerturbationSpec(shape="gaussian", amplitude=1e-3, center=10.0,
                                width=2.0, components=("u",))
    gvals = tp.perturbation_values(gauss, x)
    assert gvals["u"][0] == 0.0
    assert gvals["u"][3] == pytest.approx(1e-3, rel=1e-6)
    with pytest.raises(tp.DomainError):
        tp.perturbation_values(
            tp.PerturbationSpec(shape="from_file", path="x.csv"), x)


def test_initialize_zero_perturbation_matches_profile():
    profile = flat_profile(SUP)
    grid = tp.make_grid(10.0, 100)
    state = tp.initialize(profile, grid, tp.PerturbationSpec(amplitude=0.0))
    np.testing.assert_array_equal(state.rho, 1.0)
    np.testing.assert_array_equal(state.u, -2.0)
    np.testing.assert_array_equal(state.n, 1.0)
    np.testing.assert_array_equal(state.v, -2.0)
    assert state.t == 0.0
    assert state.u_bc == -2.0 and state.v_bc == -2.0
    assert state.right_ghost == (1.0, -2.0, 1.0, -2.0)
    # conserved arrays consistent with primitives
    np.testing.assert_allclose(state.mom1, state.rho * state.u, rtol=1e-12)
    np.testing.assert_allclose(state.mom2, state.n * state.v, rtol=1e-12)


def test_initialize_rejections():
    profile = flat_profile(SUP, x_max=20.0)
    grid = tp.make_grid(25.0, 100)
    with pytest.raises(tp.DomainError):
        tp.initialize(profile, grid, tp.PerturbationSpec())
    deep = tp.PerturbationSpec(amplitude=-2.0, center=5.0, width=1.0,
                               components=("rho",))
    with pytest.raises(tp.DomainError):
        tp.initialize(profile, tp.make_grid(10.0, 100), deep)


# ---------------------------------------------------------------------------
# stability step
# ---------------------------------------------------------------------------

def test_stable_dt_frozen_example():
    grid = tp.make_grid(10.0, 100)
    state = tp.initialize(flat_profile(SUP), grid,
                          tp.PerturbationSpec(amplitude=0.0))
    # |u| + c = 3 gives 0.1/3; the diffusive bound 0.01/2 wins
    assert tp.stable_dt(state, grid, SUP, cfl=0.4) == \
        pytest.approx(0.002, rel=1e-12)


def test_stable_dt_scaling_with_dx():
    profile = flat_profile(SUP)
    fine = tp.make_grid(10.0, 200)
    state_f = tp.initialize(profile, fine, tp.PerturbationSpec())
    coarse = tp.make_grid(10.0, 100)
    state_c = tp.initialize(profile, coarse, tp.PerturbationSpec())
    # diffusion-limited here, so doubling dx quadruples the step
    assert tp.stable_dt(state_c, coarse, SUP) == \
        pytest.approx(4.0 * tp.stable_dt(state_f, fine, SUP), rel=1e-12)


def test_stable_dt_cfl_validation():
    grid = tp.make_grid(10.0, 100)
    state = tp.initialize(flat_profile(SUP), grid, tp.PerturbationSpec())
    for cfl in (0.0, 1.0, -0.5):
        with pytest.raises(tp.DomainError):
            tp.stable_dt(state, grid, SUP, cfl=cfl)


def with_momentum(state, name, cell, value):
    mom = getattr(state, name).copy()
    mom[cell] = value
    return dataclasses.replace(state, **{name: mom})


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("name", ["mom1", "mom2"])
@pytest.mark.parametrize("imex", [False, True], ids=["heun", "imex"])
def test_stable_dt_rejects_non_finite_velocity(bad, name, imex):
    # NaN and infinite velocities alike leave no stable step
    grid = tp.make_grid(10.0, 100)
    state = with_momentum(homogeneous_state(100, 1.0, -2.0, 1.0, -2.0,
                                            t=1.5), name, 40, bad)
    with pytest.raises(tp.BlowUpError, match=r"non-finite .* at t=1\.5$"):
        tp.stable_dt(state, grid, SUP, imex=imex)


def test_evolve_reports_infinite_velocity_as_blow_up():
    # a blow-up (exit 4), not the DomainError of a zero step (exit 3)
    grid = tp.make_grid(10.0, 100)
    state = with_momentum(homogeneous_state(100, 1.0, -2.0, 1.0, -2.0),
                          "mom1", 40, math.inf)
    with pytest.raises(tp.BlowUpError, match="t=0$"):
        tp.evolve(state, grid, SUP, t_end=1.0)


@pytest.mark.parametrize("u_plus, cells", [(-2.0, 512), (-2.0, 128),
                                           (-3.0, 128)])
def test_heun_is_stable_at_every_cfl_stable_dt_accepts(u_plus, cells):
    # Heun is stable while dt (a/dx + 2 kappa/dx^2) <= 1; stable_dt's
    # min(cfl dx/a, cfl dx^2/(2 kappa)) meets that at any cfl <= 1/2. The
    # three setups put the limit at cfl 0.872, 0.631 and 0.561, so cfl 0.6
    # and 0.9 march unstably on at least one of them and must be refused
    spec = tp.ModelSpec(fluids=UNIT,
                        far=tp.FarFieldState(rho_plus=1.0, n_plus=1.0,
                                             u_plus=u_plus),
                        u_minus=u_plus)
    profile = flat_profile(spec)
    grid = tp.make_grid(50.0, cells)
    bump = tp.PerturbationSpec(shape="compact_bump", amplitude=1e-3,
                               center=25.0, width=5.0,
                               components=("rho", "u", "n", "v"))
    state0 = tp.initialize(profile, grid, bump)
    for cfl in (0.3, 0.4, 0.5):
        state = state0
        dt = tp.stable_dt(state, grid, spec, cfl=cfl)
        energy = tp.energy_total(state, profile, grid, UNIT)
        for _ in range(600):
            state = tp.step(state, grid, spec, dt)
            after = tp.energy_total(state, profile, grid, UNIT)
            assert after <= energy
            energy = after
    for cfl in (0.6, 0.9):
        with pytest.raises(tp.DomainError, match="cfl <= 0.5"):
            tp.stable_dt(state0, grid, spec, cfl=cfl)
    # the implicit viscosity leaves IMEX the advective bound alone
    assert tp.stable_dt(state0, grid, spec, cfl=0.9, imex=True) > 0.0


# ---------------------------------------------------------------------------
# stepping: fixed points, drag relaxation, budgets
# ---------------------------------------------------------------------------

@FLUIDS
def test_constant_state_is_fixed_point(fluids):
    spec = sup_spec(fluids)
    grid = tp.make_grid(10.0, 100)
    state = tp.initialize(flat_profile(spec), grid, tp.PerturbationSpec())
    rho0, m10 = state.rho.copy(), state.mom1.copy()
    n0, m20 = state.n.copy(), state.mom2.copy()
    for _ in range(20):
        state = tp.step(state, grid, spec, 0.002)
    # flux differences of identical doubles cancel exactly, so the state
    # must come back bit for bit, not merely close
    np.testing.assert_array_equal(state.rho, rho0)
    np.testing.assert_array_equal(state.mom1, m10)
    np.testing.assert_array_equal(state.n, n0)
    np.testing.assert_array_equal(state.mom2, m20)
    assert state.t == pytest.approx(0.04, rel=1e-12)


def test_drag_relaxation_matches_heun_closed_form():
    # spatially homogeneous state: every flux difference vanishes and the
    # update reduces to the drag ODE d(v-u)/dt = -(1 + n/rho)(v-u)
    grid = tp.make_grid(6.4, 64)
    rho, n, u, v = 1.2, 0.8, -2.0, -1.5
    state = homogeneous_state(64, rho, u, n, v)
    dt = 1e-3
    rate = n * (1.0 / rho + 1.0 / n)
    stepped = tp.step(state, grid, SUP, dt)
    j = 32
    gap0 = v - u
    heun = gap0 * (1.0 - rate * dt + (rate * dt) ** 2 / 2.0)
    assert stepped.v[j] - stepped.u[j] == pytest.approx(heun, rel=1e-12)
    exact = gap0 * math.exp(-rate * dt)
    assert stepped.v[j] - stepped.u[j] == pytest.approx(exact, abs=1e-8)
    # a single Euler stage only gets the first-order term
    (rho1, n1), (m1, m2) = _forward_euler(_block(state), state, grid, SUP,
                                          dt)
    gap_euler = m2[j] / n1[j] - m1[j] / rho1[j]
    assert gap_euler == pytest.approx(gap0 * (1.0 - rate * dt), rel=1e-12)
    assert abs(gap_euler - exact) > abs(
        (stepped.v[j] - stepped.u[j]) - exact)


def test_drag_sign_mirrors_under_phase_swap():
    grid = tp.make_grid(6.4, 64)
    dt = 1e-3
    ahead = tp.step(homogeneous_state(64, 1.0, -2.0, 1.0, -1.5),
                    grid, SUP, dt)
    behind = tp.step(homogeneous_state(64, 1.0, -1.5, 1.0, -2.0),
                     grid, SUP, dt)
    j = 32
    # equal densities make the coupling symmetric: swapping which phase
    # leads just flips the sign of the velocity gap
    assert ahead.v[j] - ahead.u[j] == pytest.approx(
        -(behind.v[j] - behind.u[j]), rel=1e-12)


def smooth_state(grid):
    """Smooth non-uniform data near the flat supersonic state."""
    x = grid.centers
    rho = 1.0 + 0.1 * np.sin(0.5 * x)
    u = -2.0 + 0.05 * np.cos(0.3 * x)
    n = 1.0 + 0.08 * np.cos(0.4 * x)
    v = -2.0 + 0.04 * np.sin(0.6 * x)
    return tp.EvolutionState(t=0.0, rho=rho, n=n, mom1=rho * u, mom2=n * v,
                             u_bc=-2.0, v_bc=-2.0,
                             right_ghost=(1.0, -2.0, 1.0, -2.0))


@FLUIDS
def test_euler_stage_mass_budget(fluids):
    # smooth non-uniform data; restate the boundary mass fluxes of the
    # scheme independently and check dx * d(total mass) + dt * (F_R - F_L)
    # cancels to rounding for both phases
    spec = sup_spec(fluids)
    grid = tp.make_grid(12.8, 64)
    state = smooth_state(grid)
    rho, u, n, v = state.rho, state.u, state.n, state.v
    dt = 1e-3
    (rho1, n1), _ = _forward_euler(_block(state), state, grid, spec, dt)

    def rusanov_mass(rl, ul, cl, rr, ur, cr):
        a = max(abs(ul) + cl, abs(ur) + cr)
        return 0.5 * (rl * ul + rr * ur) - 0.5 * a * (rr - rl)

    def budget(r0, u0, r1, gl_r, gl_u, gr_r, gr_u, phase):
        def c(dens):
            return math.sqrt(tp.pressure_derivative(spec.fluids, dens, phase))
        f_left = rusanov_mass(gl_r, gl_u, c(gl_r), r0[0], u0[0], c(r0[0]))
        f_right = rusanov_mass(r0[-1], u0[-1], c(r0[-1]),
                               gr_r, gr_u, c(gr_r))
        dmass = grid.dx * (r1.sum() - r0.sum())
        return dmass + dt * (f_right - f_left)

    scale = grid.dx * rho.sum()
    res1 = budget(rho, u, rho1, rho[0], state.u_bc, 1.0, -2.0, phase=1)
    res2 = budget(n, v, n1, n[0], state.v_bc, 1.0, -2.0, phase=2)
    assert abs(res1) <= 1e-12 * scale
    assert abs(res2) <= 1e-12 * scale


@FLUIDS
def test_euler_stage_momentum_budget(fluids):
    # the drag cancels between the phases and both viscous terms telescope,
    # so the total momentum changes only through the boundary fluxes: the
    # Rusanov momentum fluxes, pressure included, and the viscous stresses
    # at the two ghost faces
    spec = sup_spec(fluids)
    f = spec.fluids
    grid = tp.make_grid(12.8, 64)
    dx, dt = grid.dx, 1e-3
    state = smooth_state(grid)
    _, (mom1, mom2) = _forward_euler(_block(state), state, grid, spec, dt)

    def rusanov_momentum(left, right, phase):
        def parts(r, w):
            p = tp.pressure(f, r, phase)
            c = math.sqrt(tp.pressure_derivative(f, r, phase))
            return r * w * w + p, abs(w) + c, r * w
        (fl, sl, ml), (fr, sr, mr) = parts(*left), parts(*right)
        return 0.5 * (fl + fr) - 0.5 * max(sl, sr) * (mr - ml)

    g_rho, g_u, g_n, g_v = state.right_ghost
    boundary = 0.0
    for phase, r, w, w_bc, g_r, g_w in (
            (1, state.rho, state.u, state.u_bc, g_rho, g_u),
            (2, state.n, state.v, state.v_bc, g_n, g_v)):
        boundary += (rusanov_momentum((r[-1], w[-1]), (g_r, g_w), phase)
                     - rusanov_momentum((r[0], w_bc), (r[0], w[0]), phase))
        # face coefficients of mu u_x and n v_x at the two ghost faces
        coef_l, coef_r = ((f.mu, f.mu) if phase == 1
                          else (r[0], 0.5 * (r[-1] + g_r)))
        boundary -= (coef_r * (g_w - w[-1]) - coef_l * (w[0] - w_bc)) / dx
    dmom = dx * ((mom1.sum() + mom2.sum())
                 - (state.mom1.sum() + state.mom2.sum()))
    scale = dx * np.abs(state.mom1).sum()
    assert abs(dmom + dt * boundary) <= 1e-12 * scale


def test_step_detects_vacuum():
    grid = tp.make_grid(10.0, 100)
    full = np.full(100, 1.0)
    rho = np.full(100, 1e-8)
    u = -5.0 + 0.4 * grid.centers
    state = tp.EvolutionState(t=0.0, rho=rho, n=full, mom1=rho * u,
                              mom2=-2.0 * full, u_bc=-5.0, v_bc=-2.0,
                              right_ghost=(1e-8, -1.0, 1.0, -2.0))
    with pytest.raises(tp.VacuumError) as err:
        tp.step(state, grid, SUP, 1e-3)
    assert err.value.phase == 1
    assert err.value.cell == 0
    assert err.value.t == pytest.approx(1e-3, rel=1e-12)


def test_step_detects_blowup():
    grid = tp.make_grid(10.0, 100)
    state = homogeneous_state(100, 1.0, -2.0, 1.0, -2.0, t=0.25)
    mom1 = state.mom1.copy()
    mom1[7] = 1e308
    state = tp.EvolutionState(t=state.t, rho=state.rho, n=state.n,
                              mom1=mom1, mom2=state.mom2, u_bc=state.u_bc,
                              v_bc=state.v_bc, right_ghost=state.right_ghost)
    with pytest.raises(tp.BlowUpError) as err:
        tp.step(state, grid, SUP, 1e-3)
    assert err.value.t == pytest.approx(0.251, rel=1e-12)


def patched_state(**patches):
    """Homogeneous 100-cell state with rho, n or mom2 overwritten on the
    given cell slices; the velocities stay -2 where a density is patched."""
    base = homogeneous_state(100, 1.0, -2.0, 1.0, -2.0, t=0.25)
    rho, n, mom2 = base.rho.copy(), base.n.copy(), base.mom2.copy()
    for name, (cells, value) in patches.items():
        {"rho": rho, "n": n, "mom2": mom2}[name][cells] = value
    mom1 = -2.0 * rho
    if "mom2" not in patches:
        mom2 = -2.0 * n
    return tp.EvolutionState(t=base.t, rho=rho, n=n, mom1=mom1, mom2=mom2,
                             u_bc=base.u_bc, v_bc=base.v_bc,
                             right_ghost=base.right_ghost)


# A patch at density 1e-12 spanning cells lo..hi-1: the Rusanov stencil
# reaches one neighbour per stage, so the stage check sees the patch's
# edge cells refilled and its second cell, lo + 1, still at the floor.
STAGE_FAILURES = {
    "phase2_interior_vacuum": (
        {"n": (slice(40, 60), 1e-12)}, tp.VacuumError, 2, 41),
    "phase1_reported_first": (
        {"n": (slice(20, 40), 1e-12), "rho": (slice(60, 80), 1e-12)},
        tp.VacuumError, 1, 61),
    "blowup_before_vacuum": (
        {"rho": (slice(20, 40), 1e-12), "mom2": (slice(70, 71), np.nan)},
        tp.BlowUpError, None, None),
}


@pytest.mark.parametrize("imex", [False, True], ids=["heun", "imex"])
@pytest.mark.parametrize("case", sorted(STAGE_FAILURES))
def test_stage_check_error_order(case, imex):
    patches, error, phase, cell = STAGE_FAILURES[case]
    grid = tp.make_grid(10.0, 100)
    with pytest.raises(error) as err:
        tp.step(patched_state(**patches), grid, SUP, 1e-3, imex=imex)
    assert err.value.t == pytest.approx(0.251, rel=1e-12)
    if phase is not None:
        assert (err.value.phase, err.value.cell) == (phase, cell)


@pytest.mark.parametrize("name, factor", [("rho", 0.5), ("mom1", 2.0),
                                          ("n", 0.5), ("mom2", 2.0)])
def test_replaced_arrays_move_the_velocities(name, factor):
    # a state stores only densities and momenta: replacing one of them
    # moves the velocity read from it, and the step stable_dt takes
    grid = tp.make_grid(10.0, 100)
    base = homogeneous_state(100, 1.0, -2.0, 1.0, -2.0)
    state = dataclasses.replace(base, **{name: factor * getattr(base, name)})
    np.testing.assert_array_equal(state.u, state.mom1 / state.rho)
    np.testing.assert_array_equal(state.v, state.mom2 / state.n)
    # the changed phase now moves at |velocity| 4; unit sound speeds add 1
    assert max(np.max(np.abs(state.u)), np.max(np.abs(state.v))) == 4.0
    assert tp.stable_dt(state, grid, SUP, imex=True) == 0.4 * (grid.dx / 5.0)


def test_step_rejects_nonpositive_dt():
    grid = tp.make_grid(10.0, 100)
    state = tp.initialize(flat_profile(SUP), grid, tp.PerturbationSpec())
    with pytest.raises(tp.DomainError):
        tp.step(state, grid, SUP, 0.0)
    with pytest.raises(tp.DomainError):
        tp.step(state, grid, SUP, -1e-3)


@pytest.mark.parametrize("imex", [False, True], ids=["heun", "imex"])
def test_step_reuses_its_own_block_only(imex):
    spec = sup_spec(HOT)
    grid = tp.make_grid(10.0, 64)
    pert = tp.PerturbationSpec(shape="compact_bump", amplitude=1e-3,
                               center=5.0, width=2.0,
                               components=("rho", "u", "n", "v"))
    state = tp.initialize(flat_profile(spec), grid, pert)
    s1 = tp.step(state, grid, spec, 1e-3, imex=imex)
    U = _block(s1)
    assert U.shape == (2, 2, 64)
    np.testing.assert_array_equal(
        U, np.array(((s1.rho, s1.n), (s1.mom1, s1.mom2))))
    # the block of a stepped state is the one its rows live in
    assert _block(s1) is U and s1.rho.base is U
    # a replaced or caller-built state gets a fresh block of equal bits
    fields = {k: getattr(s1, k) for k in ("t", "rho", "n", "mom1", "mom2",
                                          "u_bc", "v_bc", "right_ghost")}
    for other in (dataclasses.replace(s1, t=0.5), tp.EvolutionState(**fields),
                  dataclasses.replace(s1, rho=s1.n, n=s1.rho)):
        fresh = _block(other)
        assert fresh is not U
        np.testing.assert_array_equal(
            fresh, np.array(((other.rho, other.n),
                             (other.mom1, other.mom2))))
    # and stepping a replaced copy gives the same bits as stepping s1
    s2 = tp.step(s1, grid, spec, 1e-3, imex=imex)
    s2_copy = tp.step(dataclasses.replace(s1), grid, spec, 1e-3, imex=imex)
    for name in ("rho", "u", "n", "v", "mom1", "mom2"):
        np.testing.assert_array_equal(getattr(s2, name),
                                      getattr(s2_copy, name))
    # the step read its start block without writing into it
    np.testing.assert_array_equal(
        U, np.array(((s1.rho, s1.n), (s1.mom1, s1.mom2))))


# ---------------------------------------------------------------------------
# IMEX stepping: implicit solve, order, failure
# ---------------------------------------------------------------------------

def implicit_momenta(dens, R, bc, h, mu, dx):
    """`_implicit_momenta` at the densities and ghosts of a block."""
    ghosts = _ghost_cells(dens, *bc)
    return _implicit_momenta(_pad(dens, ghosts[0]), ghosts[1] / ghosts[0], R,
                             h, mu, dx, t=0.0)


def test_implicit_solve_matches_viscous_drag_terms():
    # the banded solve must invert exactly m - h G(m), with G the viscous
    # and drag terms _rates adds: a lost term, a wrong sign or a wrong
    # ghost row shows as an O(h) residual here
    grid = tp.make_grid(12.8, 64)
    x = grid.centers
    mu = 0.6
    rho = 1.0 + 0.1 * np.sin(0.5 * x)
    n = 1.0 + 0.08 * np.cos(0.4 * x)
    r1 = rho * (-2.0 + 0.05 * np.cos(0.3 * x))
    r2 = n * (-1.9 + 0.04 * np.sin(0.6 * x))
    bc = (-2.01, -1.97, (1.02, -2.0, 0.99, -2.03))
    h = 0.05
    m1, m2 = implicit_momenta(np.array((rho, n)), np.array((r1, r2)), bc, h,
                              mu, grid.dx)
    (visc1, visc2), drag = _viscosity_drag(
        *_ghosted(np.array(((rho, n), (m1, m2))), *bc), mu, grid.dx)
    res1 = m1 - h * (visc1 + drag) - r1
    res2 = m2 - h * (visc2 - drag) - r2
    assert np.max(np.abs(res1)) <= 1e-12 * np.max(np.abs(r1))
    assert np.max(np.abs(res2)) <= 1e-12 * np.max(np.abs(r2))
    # and the implicit terms are not negligible at this h
    assert np.max(np.abs(m1 - r1)) > 1e-3


def dense_implicit_momenta(dens, R, bc, h, mu, dx):
    """The implicit stage solved with the assembled 2N x 2N matrix over
    the interleaved velocities (u_0, v_0, u_1, v_1, ...)."""
    cells = dens.shape[1]
    ghosts = _ghost_cells(dens, *bc)
    wg = ghosts[1] / ghosts[0]
    kappa = _faces(_pad(dens, ghosts[0])[1], mu)
    k = h / dx ** 2
    A = np.zeros((2 * cells, 2 * cells))
    b = np.zeros(2 * cells)
    for p in (0, 1):
        for i in range(cells):
            r = 2 * i + p
            A[r, r] = (dens[p, i] + k * (kappa[p, i] + kappa[p, i + 1])
                       + h * dens[1, i])
            A[r, r + 1 - 2 * p] = -h * dens[1, i]
            if i > 0:
                A[r, r - 2] = -k * kappa[p, i]
            if i < cells - 1:
                A[r, r + 2] = -k * kappa[p, i + 1]
            b[r] = R[p, i]
        b[p] += k * kappa[p, 0] * wg[p, 0]
        b[2 * cells - 2 + p] += k * kappa[p, -1] * wg[p, 1]
    return dens * np.linalg.solve(A, b).reshape(-1, 2).T


@FLUIDS
@pytest.mark.parametrize("cells", [1, 2, 3, 4, 5, 64])
def test_reduced_implicit_solve_matches_dense_solve(fluids, cells):
    # the red-black elimination is exact: odd and even N, from a weak to a
    # dominant coupling h, against the assembled matrix
    rng = rng_for(f"reduced-solve-{cells}")
    dx = 12.8 / cells
    for h in (1e-4, 1e-2, 1.0, 100.0):
        dens = 1.0 + 0.3 * rng.random((2, cells))
        R = dens * (-2.0 + 0.1 * rng.standard_normal((2, cells)))
        bc = (-2.01, -1.97, (1.02, -2.0, 0.99, -2.03))
        got = implicit_momenta(dens, R, bc, h, fluids.mu, dx)
        want = dense_implicit_momenta(dens, R, bc, h, fluids.mu, dx)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_imex_drag_relaxation_second_order():
    # homogeneous state: the interior velocity gap obeys
    # d(v-u)/dt = -(1 + n/rho)(v-u); the boundary cells are 12.8 length
    # units from the sampled one, far outside what reaches it by t = 1
    grid = tp.make_grid(25.6, 256)
    rho, n, u, v = 1.2, 0.8, -2.0, -1.5
    rate = n * (1.0 / rho + 1.0 / n)
    exact = (v - u) * math.exp(-rate)
    j = 128

    def gap_error(cfl):
        res = tp.evolve(homogeneous_state(256, rho, u, n, v), grid, SUP,
                        t_end=1.0, cfl=cfl)
        return abs(res.state.v[j] - res.state.u[j] - exact)

    assert gap_error(0.4) >= 3.0 * gap_error(0.2)


def test_imex_agrees_with_heun_reference():
    # the drift spec of test_steady_drift_shrinks_first_order: evolve's
    # IMEX norms at its own dt match an explicit Heun march at stable_dt,
    # and approach them at second order in dt
    spec = tp.ModelSpec(fluids=UNIT,
                        far=tp.FarFieldState(rho_plus=1.0, n_plus=1.0,
                                             u_plus=-2.0),
                        u_minus=-1.95)
    profile = tp.solve_steady(spec, tp.SteadySolveOptions(x_domain=16.0))
    grid = tp.make_grid(12.8, 256)
    start = tp.initialize(profile, grid, tp.PerturbationSpec())

    def final_norms(state):
        rec = tp.norms(tp.perturbation(state, profile, grid), grid, t=1.0)
        return np.array([rec.l2, rec.h1, rec.linf])

    heun = start
    while 1.0 - heun.t > 1e-12:
        heun = tp.step(heun, grid, spec,
                       min(tp.stable_dt(heun, grid, spec), 1.0 - heun.t))
    reference = final_norms(heun)
    errors = []
    for cfl in (0.4, 0.2):
        res = tp.evolve(start, grid, spec, t_end=1.0, cfl=cfl)
        errors.append(np.abs(final_norms(res.state) / reference - 1.0))
    assert np.all(errors[0] <= 1e-4)
    assert np.all(errors[0] >= 3.0 * errors[1])


def test_imex_settles_on_the_semi_discrete_steady_state():
    # evolve's fixed point must be F + G = 0 of the semi-discrete scheme,
    # not a dt-dependent neighbour: at the settled state the residual is
    # tiny while the viscous and drag part G alone is O(0.1)
    spec = tp.ModelSpec(fluids=UNIT,
                        far=tp.FarFieldState(rho_plus=1.0, n_plus=1.0,
                                             u_plus=-2.0),
                        u_minus=-1.95)
    profile = tp.solve_steady(spec, tp.SteadySolveOptions(x_domain=16.0))
    grid = tp.make_grid(12.8, 64)
    start = tp.initialize(profile, grid, tp.PerturbationSpec())
    s = tp.evolve(start, grid, spec, t_end=40.0).state
    bc = (s.u_bc, s.v_bc, s.right_ghost)
    rates = _rates(_block(s), spec, grid.dx, *bc)
    (visc1, visc2), drag = _viscosity_drag(*_ghosted(_block(s), *bc),
                                           UNIT.mu, grid.dx)
    implicit = max(np.max(np.abs(visc1 + drag)), np.max(np.abs(visc2 - drag)))
    assert implicit > 0.01
    assert max(np.max(np.abs(r)) for r in rates) <= 1e-6 * implicit
    after = tp.step(s, grid, spec, tp.stable_dt(s, grid, spec, imex=True),
                    imex=True)
    np.testing.assert_allclose(after.u, s.u, rtol=1e-9)
    np.testing.assert_allclose(after.v, s.v, rtol=1e-9)


def test_evolve_failed_implicit_solve_raises_blowup():
    # a negative right-ghost density makes the implicit matrix indefinite;
    # the failure surfaces as the documented BlowUpError. In the last cell
    # the phase-2 unknown is black at 999 cells, where a black pivot fails,
    # and red at 1000, where the factorization of the reduced system fails
    for cells in (999, 1000):
        grid = tp.make_grid(10.0, cells)
        state = dataclasses.replace(
            homogeneous_state(cells, 1.0, -2.0, 1.0, -2.0, t=0.5),
            right_ghost=(1.0, -2.0, -5.0, -2.0))
        with pytest.raises(tp.BlowUpError,
                           match="not positive definite") as err:
            tp.evolve(state, grid, SUP, t_end=1.0)
        assert err.value.t > 0.5


# ---------------------------------------------------------------------------
# evolve loop semantics
# ---------------------------------------------------------------------------

def observer_for(profile, grid):
    def observe(state):
        field = tp.perturbation(state, profile, grid)
        return tp.norms(field, grid, t=state.t)
    return observe


def test_evolve_zero_duration():
    grid = tp.make_grid(10.0, 100)
    state = tp.initialize(flat_profile(SUP), grid, tp.PerturbationSpec())
    calls = []
    result = tp.evolve(state, grid, SUP, t_end=0.0,
                       observers=(lambda s: calls.append(s.t),))
    assert result.state is state
    assert not result.truncated
    assert len(result.series.records) == 0
    assert calls == []


def test_evolve_observer_stride_and_final_record():
    profile = flat_profile(SUP)
    grid = tp.make_grid(20.0, 200)
    pert = tp.PerturbationSpec(amplitude=1e-3, center=10.0, width=2.0)
    state = tp.initialize(profile, grid, pert)
    result = tp.evolve(state, grid, SUP, t_end=1.0, observer_stride=50,
                       observers=(observer_for(profile, grid),))
    times = result.series.times()
    assert times[0] == 0.0
    assert times[-1] == pytest.approx(1.0, abs=1e-9)
    assert np.all(np.diff(times) > 0)
    assert not result.truncated
    assert result.state.t == pytest.approx(1.0, abs=1e-9)


def test_evolve_validation():
    grid = tp.make_grid(10.0, 100)
    state = tp.initialize(flat_profile(SUP), grid, tp.PerturbationSpec())
    with pytest.raises(tp.DomainError):
        tp.evolve(state, grid, SUP, t_end=-1.0)
    with pytest.raises(tp.DomainError):
        tp.evolve(state, grid, SUP, t_end=1.0, observer_stride=0)
    for t_end in (math.inf, math.nan):
        with pytest.raises(tp.DomainError, match="t_end must be finite"):
            tp.evolve(state, grid, SUP, t_end=t_end)


def test_evolve_wall_clock_truncation():
    profile = flat_profile(SUP)
    grid = tp.make_grid(10.0, 100)
    state = tp.initialize(profile, grid,
                          tp.PerturbationSpec(amplitude=1e-3, center=5.0))
    result = tp.evolve(state, grid, SUP, t_end=10.0,
                       observers=(observer_for(profile, grid),),
                       wall_clock_budget=0.0)
    assert result.truncated
    assert result.state.t == state.t
    assert len(result.series.records) == 1


def test_evolve_reports_steps_and_dt_range():
    profile = flat_profile(SUP)
    grid = tp.make_grid(10.0, 100)
    pert = tp.PerturbationSpec(amplitude=1e-4, center=5.0, width=1.0)
    calls = []
    result = tp.evolve(tp.initialize(profile, grid, pert), grid, SUP,
                       t_end=0.3, observers=(lambda s: calls.append(s.t),))
    assert isinstance(result.steps, int)
    assert isinstance(result.dt_min, float)
    assert isinstance(result.dt_max, float)
    assert result.steps == len(calls) - 1
    assert 0.0 < result.dt_min <= result.dt_max
    # implicit viscosity leaves only the advective bound: |u| + c = 3 gives
    # 0.4 * 0.1 / 3, about 7x the explicit step of stable_dt
    assert result.dt_max == pytest.approx(0.4 * grid.dx / 3.0, rel=1e-3)
    zero = tp.evolve(result.state, grid, SUP, t_end=result.state.t)
    assert (zero.steps, zero.dt_min, zero.dt_max) == (0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# snapshots
# ---------------------------------------------------------------------------

def test_state_snapshot_roundtrip(tmp_path):
    profile = flat_profile(SUP)
    grid = tp.make_grid(10.0, 100)
    pert = tp.PerturbationSpec(amplitude=1e-3, center=5.0, width=1.0,
                               components=("rho", "u"))
    state = tp.initialize(profile, grid, pert)
    for _ in range(5):
        state = tp.step(state, grid, SUP, 0.002)
    path = tmp_path / "snap.csv"
    tp.save_state_csv(state, grid, path, spec_hash="abc123def456")

    x, cols, meta = tp.load_state_csv(path)
    np.testing.assert_array_equal(x, grid.centers)
    np.testing.assert_array_equal(cols["rho"], state.rho)
    np.testing.assert_array_equal(cols["u"], state.u)
    np.testing.assert_array_equal(cols["n"], state.n)
    np.testing.assert_array_equal(cols["v"], state.v)
    assert meta["t"] == state.t
    assert meta["spec_hash"] == "abc123def456"
    assert meta["cells"] == 100

    resume = tp.PerturbationSpec(shape="from_file", path=str(path))
    restored = tp.initialize(profile, grid, resume)
    assert restored.t == state.t
    assert restored.u_bc == state.u_bc
    assert restored.v_bc == state.v_bc
    assert restored.right_ghost == state.right_ghost
    np.testing.assert_array_equal(restored.rho, state.rho)
    np.testing.assert_array_equal(restored.mom1, state.mom1)
    # resuming then stepping agrees with stepping straight through
    np.testing.assert_array_equal(
        tp.step(restored, grid, SUP, 0.002).rho,
        tp.step(state, grid, SUP, 0.002).rho)


def test_state_snapshot_rows_match_per_value_format(tmp_path):
    # more cells than one conversion chunk of the writer
    grid = tp.make_grid(10.0, 2500)
    state = tp.initialize(flat_profile(SUP), grid, tp.PerturbationSpec(
        amplitude=1e-3, center=5.0, width=1.0, components=("rho", "u")))
    path = tmp_path / "snap.csv"
    tp.save_state_csv(state, grid, path)
    rows = zip(grid.centers, state.rho, state.u, state.n, state.v)
    assert path.read_text() == per_value_csv("x,rho,u,n,v", rows)


def test_state_snapshot_header_guard(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("x,rho,u,n\n0.05,1,1,1\n")
    with pytest.raises(tp.DomainError):
        tp.load_state_csv(bad)


def test_state_snapshot_sidecar_guard(tmp_path):
    path = tmp_path / "snap.csv"
    path.write_text("x,rho,u,n,v\n0.05,1,-2,1,-2\n")
    (tmp_path / "snap.csv.meta.json").write_text('{"t": 1.0,')
    with pytest.raises(tp.DomainError, match="snap.csv.meta.json"):
        tp.load_state_csv(path)


def test_snapshot_grid_mismatch_rejected(tmp_path):
    profile = flat_profile(SUP)
    grid = tp.make_grid(10.0, 100)
    state = tp.initialize(profile, grid, tp.PerturbationSpec())
    path = tmp_path / "snap.csv"
    tp.save_state_csv(state, grid, path)
    other = tp.make_grid(10.0, 50)
    resume = tp.PerturbationSpec(shape="from_file", path=str(path))
    with pytest.raises(tp.DomainError):
        tp.initialize(profile, other, resume)


# ---------------------------------------------------------------------------
# discretization error against the genuine steady profile
# ---------------------------------------------------------------------------

def test_steady_drift_shrinks_first_order():
    # the steady profile is an equilibrium of the PDE, not of the scheme;
    # the residual drift it excites must scale like dx for this stencil
    spec = tp.ModelSpec(fluids=UNIT,
                        far=tp.FarFieldState(rho_plus=1.0, n_plus=1.0,
                                             u_plus=-2.0),
                        u_minus=-1.95)
    profile = tp.solve_steady(spec, tp.SteadySolveOptions(x_domain=16.0))

    def drift(cells):
        grid = tp.make_grid(12.8, cells)
        state = tp.initialize(profile, grid, tp.PerturbationSpec())
        result = tp.evolve(state, grid, spec, t_end=1.0,
                           observer_stride=10 ** 9,
                           observers=(observer_for(profile, grid),))
        return result.series.records[-1].l2

    coarse, fine = drift(128), drift(256)
    assert fine < coarse
    assert 0.3 < fine / coarse < 0.7


def test_perturbation_decays_on_flat_profile():
    profile = flat_profile(SUP)
    grid = tp.make_grid(20.0, 200)
    pert = tp.PerturbationSpec(amplitude=1e-3, center=10.0, width=2.0,
                               components=("u", "v"))
    state = tp.initialize(profile, grid, pert)
    result = tp.evolve(state, grid, SUP, t_end=20.0, observer_stride=200,
                       observers=(observer_for(profile, grid),))
    records = result.series.records
    assert records[-1].linf < 0.2 * records[0].linf
    assert records[-1].l2 < records[0].l2
