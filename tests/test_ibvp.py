"""Grid, initialization, time stepping, and evolution bookkeeping."""

import dataclasses
import hashlib
import json
import math
import re
import sys
import threading
import warnings

import numpy as np
import pytest

import twophase as tp
from twophase.ibvp import (_convection, _faces, _fill_ghosts,
                           _implicit_momenta, _load, _rates,
                           _viscosity_drag, _workspace)

from helpers import (MACH2_UNIT_BOUNDARY, assert_shortest_round_trip,
                     flat_profile, per_value_csv, rng_for)

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


# where each conserved row lives in the block U = ((rho, n), (mom1, mom2))
ROW = {"rho": (0, 0), "n": (0, 1), "mom1": (1, 0), "mom2": (1, 1)}


def forward_euler(state, grid, spec, dt):
    """The Euler stage U + dt R(U) of the state's block and boundary."""
    return state.U + dt * _rates(state.U, spec, grid.dx, state.boundary)


def padded_densities(dens, boundary):
    """The (2, N+2) densities with the boundary's ghost cells, and the
    (2, 2, 2) ghost cells, from the kernel's workspace."""
    ws = _workspace(dens.shape[1])
    ws.dens_interior[...] = dens
    ghosts = _fill_ghosts(ws, boundary)
    return ws.padded[0].copy(), ghosts


def viscosity_drag(U, boundary, fluids, dx):
    """The viscous terms and the drag of the block with the boundary's
    ghost cells, as the kernel computes them after its convection."""
    ws = _load(U, boundary)
    _convection(ws, fluids, dx)
    visc, drag = _viscosity_drag(ws, fluids.mu, dx)
    return visc.copy(), drag.copy()


def homogeneous_state(cells, rho, u, n, v, t=0.0):
    U = np.array(((rho, n), (rho * u, n * v)))[:, :, None] * np.ones(cells)
    return tp.EvolutionState(t=t, U=U,
                             boundary=tp.Boundary(u, v, (rho, u, n, v)))


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


@pytest.mark.parametrize("make, cells", [
    (tp.Grid1D, 2.5), (tp.Grid1D, True), (tp.make_grid, 2.9)],
    ids=["fraction", "bool", "make_grid"])
def test_grid_cells_must_be_an_integer(make, cells):
    # 2.5 cells once put a center on the boundary, and make_grid cut 2.9
    # down to 2
    with pytest.raises(tp.DomainError,
                       match=f"^grid cells must be an integer, got {cells}$"):
        make(10.0, cells)


def test_grid_is_its_length_and_cell_count():
    a, b = tp.make_grid(10.0, 8), tp.make_grid(10.0, 8)
    assert a == b and hash(a) == hash(b)
    assert {a: "grid"}[b] == "grid"
    assert a != tp.make_grid(10.0, 9) and a != tp.make_grid(10.5, 8)
    assert [f.name for f in dataclasses.fields(tp.Grid1D)] == ["length",
                                                               "cells"]
    # a grid built directly is checked as make_grid checks it
    with pytest.raises(tp.DomainError,
                       match="^grid length must be finite and positive, "
                             "got -1.0$"):
        tp.Grid1D(-1.0, 8)
    # a length that is not a real number, a bool among them
    for length, shown in ((True, "True"), ("10", "'10'"), (None, "None"),
                          (1j, "1j"), (np.True_, "np.True_")):
        with pytest.raises(tp.DomainError,
                           match=re.escape("grid length must be a real "
                                           f"number, got {shown}") + "$"):
            tp.Grid1D(length, 8)
    with pytest.raises(tp.DomainError,
                       match="^grid needs at least one cell$"):
        tp.Grid1D(10.0, 0)
    # dx and the centers are the expressions make_grid stored, bit for bit
    for length, cells in ((10.0, 8), (100.0, 2048), (30.000000000000004, 512),
                          (7.3, 997)):
        grid = tp.make_grid(length, cells)
        dx = length / cells
        assert grid.dx == dx
        np.testing.assert_array_equal(grid.centers,
                                      (np.arange(cells) + 0.5) * dx)
        assert grid.centers is grid.centers


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


@pytest.mark.parametrize("kwargs, message", [
    (dict(shape="sine"), "unknown perturbation shape 'sine'; accepted: "
                         "gaussian, compact_bump, from_file"),
    (dict(components=("rho", "w")), "unknown perturbation components "
                                    "['w']; accepted: rho, u, n, v"),
    (dict(amplitude=math.nan), "amplitude must be finite, got nan"),
    (dict(center=-math.inf), "center must be finite, got -inf"),
    (dict(width=0.0), "width must be positive, got 0.0"),
    (dict(width=-1.5), "width must be positive, got -1.5"),
])
def test_perturbation_refusals_name_the_field(kwargs, message):
    with pytest.raises(tp.DomainError, match=f"^{re.escape(message)}$"):
        tp.PerturbationSpec(**kwargs)


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
    assert state.boundary == MACH2_UNIT_BOUNDARY
    # conserved arrays consistent with primitives
    np.testing.assert_allclose(state.mom1, state.rho * state.u, rtol=1e-12)
    np.testing.assert_allclose(state.mom2, state.n * state.v, rtol=1e-12)


def test_grid_inside_profile_is_one_check():
    # a length computed from the profile's end may round one ulp past it;
    # initialize and both observers accept it alike, and refuse alike a
    # grid that reaches past the profile
    profile = flat_profile(SUP, x_max=30.0)
    grid = tp.make_grid(30.000000000000004, 512)
    assert grid.length > profile.x[-1]
    state = tp.initialize(profile, grid, tp.PerturbationSpec(amplitude=1e-3))
    assert tp.perturbation(state, profile, grid).psi.size == 512
    assert tp.energy_total(state, profile, grid) > 0.0
    past = tp.make_grid(30.001, 512)
    for call in (lambda: tp.initialize(profile, past, tp.PerturbationSpec()),
                 lambda: tp.perturbation(state, profile, past),
                 lambda: tp.energy_total(state, profile, past)):
        with pytest.raises(tp.DomainError,
                           match="grid length 30.001 exceeds the profile "
                                 "domain 30"):
            call()


def test_initialize_rejections():
    profile = flat_profile(SUP, x_max=20.0)
    grid = tp.make_grid(25.0, 100)
    with pytest.raises(tp.DomainError):
        tp.initialize(profile, grid, tp.PerturbationSpec())
    deep = tp.PerturbationSpec(amplitude=-2.0, center=5.0, width=1.0,
                               components=("rho",))
    with pytest.raises(tp.DomainError,
                       match=r"^initial phase-1 density at or below the floor "
                             r"at cell \d+; perturbation rejected$"):
        tp.initialize(profile, tp.make_grid(10.0, 100), deep)


def test_initialize_refuses_a_non_finite_block():
    # finite parameters whose momentum rho u overflows: refused by name
    # before any step, with no overflow warning
    huge = tp.PerturbationSpec(amplitude=1e308, components=("rho", "u"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(tp.DomainError,
                           match=r"^initial mom1 at cell 0 is not finite; "
                                 r"perturbation rejected$"):
            tp.initialize(flat_profile(SUP, x_max=20.0),
                          tp.make_grid(10.0, 100), huge)


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
    U = state.U.copy()
    U[ROW[name]][cell] = value
    return dataclasses.replace(state, U=U)


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
        energy = tp.energy_total(state, profile, grid)
        for _ in range(600):
            state = tp.step(state, grid, spec, dt)
            after = tp.energy_total(state, profile, grid)
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
    (rho1, n1), (m1, m2) = forward_euler(state, grid, SUP, dt)
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
    return tp.EvolutionState(t=0.0, U=np.array(((rho, n), (rho * u, n * v))),
                             boundary=MACH2_UNIT_BOUNDARY)


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
    (rho1, n1), _ = forward_euler(state, grid, spec, dt)

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
    u_bc, v_bc, _ = state.boundary
    res1 = budget(rho, u, rho1, rho[0], u_bc, 1.0, -2.0, phase=1)
    res2 = budget(n, v, n1, n[0], v_bc, 1.0, -2.0, phase=2)
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
    _, (mom1, mom2) = forward_euler(state, grid, spec, dt)

    def rusanov_momentum(left, right, phase):
        def parts(r, w):
            p = tp.pressure(f, r, phase)
            c = math.sqrt(tp.pressure_derivative(f, r, phase))
            return r * w * w + p, abs(w) + c, r * w
        (fl, sl, ml), (fr, sr, mr) = parts(*left), parts(*right)
        return 0.5 * (fl + fr) - 0.5 * max(sl, sr) * (mr - ml)

    u_bc, v_bc, (g_rho, g_u, g_n, g_v) = state.boundary
    boundary = 0.0
    for phase, r, w, w_bc, g_r, g_w in (
            (1, state.rho, state.u, u_bc, g_rho, g_u),
            (2, state.n, state.v, v_bc, g_n, g_v)):
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
    U = np.array(((rho, full), (rho * u, -2.0 * full)))
    state = tp.EvolutionState(t=0.0, U=U, boundary=tp.Boundary(
        u_bc=-5.0, v_bc=-2.0, right_ghost=(1e-8, -1.0, 1.0, -2.0)))
    with pytest.raises(tp.VacuumError) as err:
        tp.step(state, grid, SUP, 1e-3)
    assert err.value.phase == 1
    assert err.value.cell == 0
    assert err.value.t == pytest.approx(1e-3, rel=1e-12)


def test_step_detects_blowup():
    grid = tp.make_grid(10.0, 100)
    state = homogeneous_state(100, 1.0, -2.0, 1.0, -2.0, t=0.25)
    U = state.U.copy()
    U[1, 0, 7] = 1e308
    state = tp.EvolutionState(t=state.t, U=U, boundary=state.boundary)
    with pytest.raises(tp.BlowUpError) as err:
        tp.step(state, grid, SUP, 1e-3)
    assert err.value.t == pytest.approx(0.251, rel=1e-12)


def patched_state(**patches):
    """Homogeneous 100-cell state with rho, n or mom2 overwritten on the
    given cell slices; the velocities stay -2 where a density is patched."""
    base = homogeneous_state(100, 1.0, -2.0, 1.0, -2.0, t=0.25)
    U = base.U.copy()
    for name, (cells, value) in patches.items():
        U[ROW[name]][cells] = value
    U[1, 0] = -2.0 * U[0, 0]
    if "mom2" not in patches:
        U[1, 1] = -2.0 * U[0, 1]
    return dataclasses.replace(base, U=U)


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
    U = base.U.copy()
    U[ROW[name]] *= factor
    state = dataclasses.replace(base, U=U)
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


@pytest.mark.parametrize("dt", [math.nan, math.inf])
@pytest.mark.parametrize("imex", [False, True], ids=["heun", "imex"])
def test_step_rejects_non_finite_dt(imex, dt):
    # not a blow-up at t=nan or t=inf, nor a numpy warning from the kernel
    grid = tp.make_grid(10.0, 100)
    state = tp.initialize(flat_profile(SUP), grid, tp.PerturbationSpec())
    with pytest.raises(tp.DomainError, match=f"dt={dt}$"):
        tp.step(state, grid, SUP, dt, imex=imex)


def test_the_boundary_record_is_carried_not_copied():
    # a state is its time, its block and one Boundary, which every step of
    # a run hands on as the same object
    grid = tp.make_grid(10.0, 100)
    start = tp.initialize(flat_profile(SUP), grid, tp.PerturbationSpec(
        amplitude=1e-3, center=5.0, width=1.0))
    assert [f.name for f in dataclasses.fields(start)] == ["t", "U",
                                                           "boundary"]
    assert type(start.boundary) is tp.Boundary
    seen = []
    run = tp.evolve(start, grid, SUP, t_end=0.05,
                    observers=(lambda s: seen.append(s.boundary),))
    assert run.steps > 1 and len(seen) == run.steps + 1
    for state in (tp.step(start, grid, SUP, 1e-3),
                  tp.step(start, grid, SUP, 1e-3, imex=True), run.state):
        assert state.boundary is start.boundary
    assert all(boundary is start.boundary for boundary in seen)


@pytest.mark.parametrize("imex", [False, True], ids=["heun", "imex"])
def test_stepped_rows_are_views_of_a_new_block(imex):
    spec = sup_spec(HOT)
    grid = tp.make_grid(10.0, 64)
    pert = tp.PerturbationSpec(shape="compact_bump", amplitude=1e-3,
                               center=5.0, width=2.0,
                               components=("rho", "u", "n", "v"))
    state = tp.initialize(flat_profile(spec), grid, pert)
    U0 = state.U.copy()
    s1 = tp.step(state, grid, spec, 1e-3, imex=imex)
    U1 = s1.U.copy()
    assert s1.U.shape == (2, 2, 64) and s1.U is not state.U
    # a stepped state's four rows are views of its block
    for name, cell in ROW.items():
        assert getattr(s1, name).base is s1.U
        np.testing.assert_array_equal(getattr(s1, name), s1.U[cell])
    # stepping a replaced copy gives the same bits as stepping s1
    s2 = tp.step(s1, grid, spec, 1e-3, imex=imex)
    s2_copy = tp.step(dataclasses.replace(s1, U=U1.copy()), grid, spec,
                      1e-3, imex=imex)
    for name in ("rho", "u", "n", "v", "mom1", "mom2"):
        np.testing.assert_array_equal(getattr(s2, name),
                                      getattr(s2_copy, name))
    # neither step wrote into the block it started from
    np.testing.assert_array_equal(state.U, U0)
    np.testing.assert_array_equal(s1.U, U1)


def bumped_state(cells, center):
    """A non-isothermal state with all four components bumped, on a grid
    of the given number of 0.1-wide cells."""
    grid = tp.make_grid(0.1 * cells, cells)
    pert = tp.PerturbationSpec(shape="compact_bump", amplitude=1e-2,
                               center=center, width=2.0,
                               components=("rho", "u", "n", "v"))
    profile = flat_profile(sup_spec(HOT), x_max=grid.length)
    return tp.initialize(profile, grid, pert), grid


def march(state, grid, steps=5, imex=False):
    for _ in range(steps):
        state = tp.step(state, grid, sup_spec(HOT), 1e-3, imex=imex)
    return state


def alternating_cell_counts():
    # each change of cell count replaces the thread's workspace
    (big, big_grid), (small, small_grid) = (bumped_state(1024, 50.0),
                                            bumped_state(64, 3.0))
    for imex in (False, True):
        alone = (march(big, big_grid, imex=imex),
                 march(small, small_grid, imex=imex))
        a, b = big, small
        for _ in range(5):
            a = march(a, big_grid, steps=1, imex=imex)
            b = march(b, small_grid, steps=1, imex=imex)
        np.testing.assert_array_equal(a.U, alone[0].U)
        np.testing.assert_array_equal(b.U, alone[1].U)


def concurrent_threads():
    # states of one cell count stepped at once, one per thread, with more
    # threads than the two cores of a small machine
    starts = [bumped_state(1024, c) for c in (30.0, 50.0, 70.0)]
    serial = [march(s, g, steps=40) for s, g in starts]
    got = [None] * len(starts)
    barrier = threading.Barrier(len(starts), timeout=60.0)

    def run(k):
        barrier.wait()
        got[k] = march(*starts[k], steps=40)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(k,))
                   for k in range(len(starts))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for mine, want in zip(got, serial):
        np.testing.assert_array_equal(mine.U, want.U)


def returned_arrays_stay_put():
    # what step and _rates return is the caller's: later steps and rate
    # calls at the same cell count leave it as it was
    state, grid = bumped_state(1024, 50.0)
    spec = sup_spec(HOT)
    kept = [march(state, grid, steps=1, imex=imex) for imex in (False, True)]
    rates = _rates(state.U, spec, grid.dx, state.boundary)
    copies = [s.U.copy() for s in kept] + [rates.copy()]
    for stepped, imex in zip(kept, (False, True)):
        march(stepped, grid, steps=2, imex=imex)
    _rates(kept[0].U, spec, grid.dx, state.boundary)
    for array, copy in zip([s.U for s in kept] + [rates], copies):
        np.testing.assert_array_equal(array, copy)


@pytest.mark.parametrize("case", [alternating_cell_counts, concurrent_threads,
                                  returned_arrays_stay_put],
                         ids=lambda case: case.__name__)
def test_the_kernel_workspace_is_never_shared(case):
    case()


def test_a_row_given_by_keyword_replaces_it_in_a_copy():
    # dataclasses.replace(state, rho=...) passes the row by keyword: the
    # new state holds a copy of the block with that row replaced, and the
    # state it was replaced from keeps its block and bits
    base = homogeneous_state(10, 1.0, -2.0, 1.0, -2.0)
    U0 = base.U.copy()
    rho = np.linspace(1.0, 2.0, 10)
    state = dataclasses.replace(base, rho=rho, mom2=3.0)
    assert dataclasses.fields(state) == dataclasses.fields(base)
    assert len(dataclasses.fields(state)) == 3
    assert state.U is not base.U and state.rho.base is state.U
    np.testing.assert_array_equal(state.rho, rho)
    np.testing.assert_array_equal(state.mom2, 3.0)
    np.testing.assert_array_equal(state.n, base.n)
    np.testing.assert_array_equal(state.mom1, base.mom1)
    np.testing.assert_array_equal(base.U, U0)
    # without a row the block is the one passed in
    assert dataclasses.replace(base, t=1.0).U is base.U


# ---------------------------------------------------------------------------
# IMEX stepping: implicit solve, order, failure
# ---------------------------------------------------------------------------

# outflow velocities and a right ghost that differ between the phases
SKEWED_BOUNDARY = tp.Boundary(u_bc=-2.01, v_bc=-1.97,
                              right_ghost=(1.02, -2.0, 0.99, -2.03))


def implicit_momenta(dens, R, boundary, h, mu, dx):
    """`_implicit_momenta` at the densities and ghosts of a block."""
    D, ghosts = padded_densities(dens, boundary)
    return _implicit_momenta(D, ghosts[1] / ghosts[0], R, h, mu, dx, t=0.0)


def test_implicit_solve_matches_viscous_drag_terms():
    # the banded solve must invert exactly m - h G(m), with G the viscous
    # and drag terms _rates adds: a lost term, a wrong sign or a wrong
    # ghost row shows as an O(h) residual here
    grid = tp.make_grid(12.8, 64)
    x = grid.centers
    mu = HOT.mu
    rho = 1.0 + 0.1 * np.sin(0.5 * x)
    n = 1.0 + 0.08 * np.cos(0.4 * x)
    r1 = rho * (-2.0 + 0.05 * np.cos(0.3 * x))
    r2 = n * (-1.9 + 0.04 * np.sin(0.6 * x))
    h = 0.05
    m1, m2 = implicit_momenta(np.array((rho, n)), np.array((r1, r2)),
                              SKEWED_BOUNDARY, h, mu, grid.dx)
    (visc1, visc2), drag = viscosity_drag(
        np.array(((rho, n), (m1, m2))), SKEWED_BOUNDARY, HOT, grid.dx)
    res1 = m1 - h * (visc1 + drag) - r1
    res2 = m2 - h * (visc2 - drag) - r2
    assert np.max(np.abs(res1)) <= 1e-12 * np.max(np.abs(r1))
    assert np.max(np.abs(res2)) <= 1e-12 * np.max(np.abs(r2))
    # and the implicit terms are not negligible at this h
    assert np.max(np.abs(m1 - r1)) > 1e-3


def dense_implicit_momenta(dens, R, boundary, h, mu, dx):
    """The implicit stage solved with the assembled 2N x 2N matrix over
    the interleaved velocities (u_0, v_0, u_1, v_1, ...)."""
    cells = dens.shape[1]
    D, ghosts = padded_densities(dens, boundary)
    wg = ghosts[1] / ghosts[0]
    kappa = _faces(D[1], mu)
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
        got = implicit_momenta(dens, R, SKEWED_BOUNDARY, h, fluids.mu, dx)
        want = dense_implicit_momenta(dens, R, SKEWED_BOUNDARY, h, fluids.mu,
                                      dx)
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
    rates = _rates(s.U, spec, grid.dx, s.boundary)
    (visc1, visc2), drag = viscosity_drag(s.U, s.boundary, UNIT, grid.dx)
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
        state = homogeneous_state(cells, 1.0, -2.0, 1.0, -2.0, t=0.5)
        state = dataclasses.replace(state, boundary=state.boundary._replace(
            right_ghost=(1.0, -2.0, -5.0, -2.0)))
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


@pytest.mark.parametrize("name, value", [
    ("observer_stride", 2.5), ("observer_stride", math.nan),
    ("observer_stride", True), ("wall_clock_budget", math.nan),
    ("wall_clock_budget", -1.0)])
def test_evolve_refuses_what_it_would_misread(name, value):
    # a nan budget never truncated the run, and a nan stride observed only
    # the first and last states
    grid = tp.make_grid(10.0, 100)
    state = tp.initialize(flat_profile(SUP), grid, tp.PerturbationSpec())
    with pytest.raises(tp.DomainError,
                       match=f"^{name} must be .*, got {value}$"):
        tp.evolve(state, grid, SUP, t_end=1.0, **{name: value})


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
    meta_path = tp.save_state_csv(state, grid, path,
                                  spec_hash="abc123def456")

    x, U, t = tp.load_state_csv(path)
    np.testing.assert_array_equal(x, grid.centers)
    assert U.shape == (2, 2, grid.cells)
    np.testing.assert_array_equal(U[0, 0], state.rho)
    np.testing.assert_array_equal(U[0, 1], state.n)
    np.testing.assert_array_equal(U[1, 0], state.mom1)
    np.testing.assert_array_equal(U[1, 1], state.mom2)
    assert t == state.t
    assert meta_path == str(path) + ".meta.json"
    with open(meta_path) as fh:
        assert json.load(fh) == {"t": state.t, "spec_hash": "abc123def456"}

    resume = tp.PerturbationSpec(shape="from_file", path=str(path))
    restored = tp.initialize(profile, grid, resume)
    assert restored.t == state.t
    assert restored.boundary == state.boundary
    np.testing.assert_array_equal(restored.rho, state.rho)
    np.testing.assert_array_equal(restored.mom1, state.mom1)
    # resuming then stepping agrees with stepping straight through
    np.testing.assert_array_equal(
        tp.step(restored, grid, SUP, 0.002).rho,
        tp.step(state, grid, SUP, 0.002).rho)


def _state_digest(state):
    h = hashlib.sha256(np.float64(state.t).tobytes())
    for name in ("rho", "n", "mom1", "mom2"):
        h.update(np.ascontiguousarray(getattr(state, name)).tobytes())
    return h.hexdigest()


def test_snapshot_resume_is_exact(tmp_path):
    # a non-isothermal run, where a snapshot of velocities came back
    # rounded in some cells and the resumed run drifted off the straight one
    spec = tp.ModelSpec(fluids=HOT,
                        far=tp.FarFieldState(rho_plus=1.2, n_plus=0.8,
                                             u_plus=-2.0),
                        u_minus=-2.05)
    profile = tp.solve_steady(spec, tp.SteadySolveOptions(x_domain=101.0))
    grid = tp.make_grid(100.0, 1024)
    state = tp.initialize(profile, grid, tp.PerturbationSpec(
        shape="compact_bump", amplitude=1e-3, center=50.0, width=10.0))
    dt = tp.stable_dt(state, grid, spec)
    for _ in range(20):
        state = tp.step(state, grid, spec, dt)
    path = tmp_path / "snap.csv"
    tp.save_state_csv(state, grid, path)
    resumed = tp.initialize(profile, grid, tp.PerturbationSpec(
        shape="from_file", path=str(path)))
    assert resumed.t == state.t
    for name in ("rho", "n", "mom1", "mom2"):
        np.testing.assert_array_equal(getattr(resumed, name),
                                      getattr(state, name))

    def march(s, steps, imex):
        for _ in range(steps):
            h = tp.stable_dt(s, grid, spec, imex=True) if imex else dt
            s = tp.step(s, grid, spec, h, imex=imex)
        return _state_digest(s)

    # Heun at the fixed dt, as criterion 08 marches; IMEX at its own
    # stable step, as evolve marches
    for steps, imex in ((200, False), (50, True)):
        assert march(resumed, steps, imex) == march(state, steps, imex)


def test_snapshot_resume_takes_boundary_data_from_profile(tmp_path):
    def profile_for(u_minus):
        spec = tp.ModelSpec(fluids=UNIT, far=SUP.far, u_minus=u_minus)
        return tp.solve_steady(spec, tp.SteadySolveOptions(x_domain=101.0))

    # short enough that the two profiles differ at the right ghost
    grid = tp.make_grid(10.0, 256)
    old, new = profile_for(-2.05), profile_for(-2.04)
    path = tmp_path / "snap.csv"
    tp.save_state_csv(tp.initialize(old, grid, tp.PerturbationSpec()), grid,
                      path)
    resumed = tp.initialize(new, grid, tp.PerturbationSpec(
        shape="from_file", path=str(path)))
    ghost = tuple(float(g) for g in new.interp(grid.length + 0.5 * grid.dx))
    assert resumed.boundary == tp.Boundary(-2.04, new.v_t[0], ghost)
    assert ghost != tuple(float(g) for g in
                          old.interp(grid.length + 0.5 * grid.dx))


def test_state_snapshot_rows_match_per_value_format(tmp_path):
    grid = tp.make_grid(10.0, 2500)
    state = tp.initialize(flat_profile(SUP), grid, tp.PerturbationSpec(
        amplitude=1e-3, center=5.0, width=1.0, components=("rho", "u")))
    path = tmp_path / "snap.csv"
    tp.save_state_csv(state, grid, path)
    rows = list(zip(grid.centers, state.rho, state.n, state.mom1,
                    state.mom2))
    text = path.read_text()
    assert text == per_value_csv("x,rho,n,mom1,mom2", rows)
    assert_shortest_round_trip(text, rows)


def test_state_snapshot_header_guard(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("x,rho,u,n\n0.05,1,1,1\n")
    with pytest.raises(tp.DomainError):
        tp.load_state_csv(bad)


def test_state_snapshot_sidecar_guard(tmp_path):
    path = tmp_path / "snap.csv"
    path.write_text("x,rho,n,mom1,mom2\n0.05,1,1,-2,-2\n")
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
