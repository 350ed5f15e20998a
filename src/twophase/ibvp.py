"""Finite-volume evolution of the time-dependent system on a truncated
half-line.

The semi-discrete scheme is first order and deliberately plain: Rusanov
fluxes per phase, centered second differences for the two viscous terms,
pointwise drag. `step` advances it either with the explicit SSP-RK2 (Heun)
reference scheme, for callers that choose a fixed dt, or with the IMEX
scheme ARS(2,2,2) (Ascher, Ruuth & Spiteri, 1997): convection explicit,
viscosity and drag implicit through one banded solve per stage, so dt
follows the advective bound alone. `evolve` marches with the IMEX scheme.
The left ghost cell prescribes the outflow velocities, the right ghost
continues the steady profile past the truncation point so that a converged
profile is (up to truncation error) a fixed point of the semi-discrete
scheme and of both steppers.
"""

import json
import math
import os
import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, solveh_banded

from .diagnostics import NormSeries
from .errors import BlowUpError, DomainError, VacuumError
from .steady import SteadyProfile, write_csv_rows

DENSITY_FLOOR = 1e-10

GAUSSIAN = "gaussian"
COMPACT_BUMP = "compact_bump"
FROM_FILE = "from_file"

_SHAPES = (GAUSSIAN, COMPACT_BUMP, FROM_FILE)
_COMPONENTS = ("rho", "u", "n", "v")

STATE_HEADER = "x,rho,u,n,v"


@dataclass(frozen=True)
class Grid1D:
    """Uniform cell-centered grid on [0, length]."""

    length: float
    cells: int
    dx: float
    centers: np.ndarray


def make_grid(length: float, cells: int) -> Grid1D:
    if length <= 0.0:
        raise DomainError("grid length must be positive")
    if cells < 1:
        raise DomainError("grid needs at least one cell")
    dx = length / cells
    centers = (np.arange(cells) + 0.5) * dx
    return Grid1D(length=float(length), cells=int(cells), dx=dx,
                  centers=centers)


@dataclass(frozen=True)
class PerturbationSpec:
    """Initial deviation from the steady profile.

    Velocity components are tapered by 1 - exp(-(x/width)^2) so the boundary
    values at x = 0 stay exactly at the prescribed outflow velocities.
    weight_tag optionally names the weighted class the initial data is meant
    to represent; it is carried along for bookkeeping, never enforced.
    from_file ignores the shape parameters and loads a full state snapshot.
    """

    shape: str = GAUSSIAN
    amplitude: float = 0.0
    center: float = 10.0
    width: float = 2.0
    components: tuple = ("u",)
    weight_tag: object = None
    path: str = ""

    def __post_init__(self):
        if self.shape not in _SHAPES:
            raise DomainError(f"unknown perturbation shape {self.shape!r}")
        if self.width <= 0.0:
            raise DomainError("perturbation width must be positive")
        unknown = [c for c in self.components if c not in _COMPONENTS]
        if unknown:
            raise DomainError(f"unknown perturbation components {unknown}")
        if self.shape == FROM_FILE and not self.path:
            raise DomainError("file-based perturbation needs a path")


def perturbation_values(pert: PerturbationSpec, x) -> dict:
    """Closed-form perturbation per component on the given coordinates."""
    if pert.shape == FROM_FILE:
        raise DomainError("file-based initial data has no closed-form values")
    x = np.asarray(x, dtype=float)
    s = (x - pert.center) / pert.width
    if pert.shape == GAUSSIAN:
        base = pert.amplitude * np.exp(-s * s)
    else:
        base = np.zeros_like(x)
        inside = np.abs(s) < 1.0
        si = s[inside]
        # mollifier normalized to hit amplitude exactly at the center
        base[inside] = pert.amplitude * np.exp(1.0 - 1.0 / (1.0 - si * si))
    taper = -np.expm1(-((x / pert.width) ** 2))
    out = {}
    for comp in _COMPONENTS:
        if comp not in pert.components:
            out[comp] = np.zeros_like(x)
        elif comp in ("u", "v"):
            out[comp] = base * taper
        else:
            out[comp] = base.copy()
    return out


@dataclass(frozen=True)
class EvolutionState:
    """Cell-averaged primitives plus the conserved momenta.

    u_bc and v_bc are the outflow velocities the left ghost enforces;
    right_ghost holds (rho, u, n, v) of the steady profile continued one
    half-cell past x = length.
    """

    t: float
    rho: np.ndarray
    u: np.ndarray
    n: np.ndarray
    v: np.ndarray
    mom1: np.ndarray
    mom2: np.ndarray
    u_bc: float
    v_bc: float
    right_ghost: tuple


def initialize(profile: SteadyProfile, grid: Grid1D,
               pert: PerturbationSpec) -> EvolutionState:
    """Steady profile interpolated to the cell centers plus a perturbation."""
    if grid.length > profile.x[-1] * (1.0 + 1e-12):
        raise DomainError(
            f"grid length {grid.length:.6g} exceeds the profile domain "
            f"{profile.x[-1]:.6g}")
    ghost = profile.interp(grid.length + 0.5 * grid.dx)
    right_ghost = (float(ghost[0]), float(ghost[1]),
                   float(ghost[2]), float(ghost[3]))
    u_bc = float(profile.achieved_u_minus)
    v_bc = float(profile.achieved_v_minus)
    if pert.shape == FROM_FILE:
        x, cols, meta = load_state_csv(pert.path)
        if not np.array_equal(x, grid.centers):
            raise DomainError("snapshot coordinates differ from the grid")
        rho0, u0, n0, v0 = cols["rho"], cols["u"], cols["n"], cols["v"]
        t0 = float(meta.get("t", 0.0))
        u_bc = float(meta.get("u_bc", u_bc))
        v_bc = float(meta.get("v_bc", v_bc))
        if "right_ghost" in meta:
            right_ghost = tuple(float(g) for g in meta["right_ghost"])
    else:
        rho_t, u_t, n_t, v_t, _, _ = profile.interp(grid.centers)
        vals = perturbation_values(pert, grid.centers)
        rho0 = rho_t + vals["rho"]
        u0 = u_t + vals["u"]
        n0 = n_t + vals["n"]
        v0 = v_t + vals["v"]
        t0 = 0.0
    for phase, dens in ((1, rho0), (2, n0)):
        low = np.nonzero(dens <= DENSITY_FLOOR)[0]
        if low.size:
            raise DomainError(
                f"initial phase-{phase} density at or below the floor "
                f"at cell {int(low[0])}; perturbation rejected")
    return EvolutionState(t=t0, rho=rho0, u=u0, n=n0, v=v0,
                          mom1=rho0 * u0, mom2=n0 * v0,
                          u_bc=u_bc, v_bc=v_bc, right_ghost=right_ghost)


def _sound_speeds(f, rho, n):
    """Sound speeds sqrt(p'(rho)) and sqrt(p'(n)) of the two phases."""
    return (np.sqrt(f.A1 * f.gamma * rho ** (f.gamma - 1.0)),
            np.sqrt(f.A2 * f.alpha * n ** (f.alpha - 1.0)))


def _advective_dt(state: EvolutionState, grid: Grid1D, spec, cfl: float
                  ) -> float:
    """cfl times the advective bound dx / max(|velocity| + sound speed),
    taken over both phases."""
    if not 0.0 < cfl < 1.0:
        raise DomainError(f"cfl must lie in (0, 1), got {cfl}")
    c1, c2 = _sound_speeds(spec.fluids, state.rho, state.n)
    adv1 = grid.dx / float(np.max(np.abs(state.u) + c1))
    adv2 = grid.dx / float(np.max(np.abs(state.v) + c2))
    return cfl * min(adv1, adv2)


def stable_dt(state: EvolutionState, grid: Grid1D, spec, cfl: float = 0.4,
              imex: bool = False) -> float:
    """Stability step of `step`. For the explicit Heun reference it is the
    advective bound plus the diffusive bound dx^2 / (2 max(mu/rho, 1)); the
    phase-2 viscosity n cancels against its density, leaving the unit
    coefficient. With imex=True viscosity and drag are implicit, which
    leaves only the advective bound; this is the step `evolve` takes."""
    adv = _advective_dt(state, grid, spec, cfl)
    if imex:
        return adv
    diff = grid.dx ** 2 / (2.0 * max(float(np.max(spec.fluids.mu
                                                  / state.rho)), 1.0))
    return min(adv, cfl * diff)


def _pad(arr, left, right):
    return np.concatenate(([left], arr, [right]))


def _padded(rho, m1, n, m2, u_bc, v_bc, right_ghost):
    """Conserved arrays with one ghost cell on each side, then the padded
    velocities. The left ghost copies the interior densities and carries the
    prescribed outflow velocities; the right ghost is the frozen profile
    continuation."""
    g_rho, g_u, g_n, g_v = right_ghost
    rho_p = _pad(rho, rho[0], g_rho)
    m1_p = _pad(m1, rho[0] * u_bc, g_rho * g_u)
    n_p = _pad(n, n[0], g_n)
    m2_p = _pad(m2, n[0] * v_bc, g_n * g_v)
    return rho_p, m1_p, n_p, m2_p, m1_p / rho_p, m2_p / n_p


def _convective_rhs(padded, f, dx):
    """Rusanov flux differences of the conserved quadruple."""
    rho_p, m1_p, n_p, m2_p, u_p, v_p = padded
    p1 = f.A1 * rho_p ** f.gamma
    p2 = f.A2 * n_p ** f.alpha
    c1, c2 = _sound_speeds(f, rho_p, n_p)
    s1 = np.abs(u_p) + c1
    s2 = np.abs(v_p) + c2
    a1 = np.maximum(s1[:-1], s1[1:])
    a2 = np.maximum(s2[:-1], s2[1:])

    flux_rho = (0.5 * (m1_p[:-1] + m1_p[1:])
                - 0.5 * a1 * (rho_p[1:] - rho_p[:-1]))
    f_m1 = m1_p * u_p + p1
    flux_m1 = (0.5 * (f_m1[:-1] + f_m1[1:])
               - 0.5 * a1 * (m1_p[1:] - m1_p[:-1]))
    flux_n = (0.5 * (m2_p[:-1] + m2_p[1:])
              - 0.5 * a2 * (n_p[1:] - n_p[:-1]))
    f_m2 = m2_p * v_p + p2
    flux_m2 = (0.5 * (f_m2[:-1] + f_m2[1:])
               - 0.5 * a2 * (m2_p[1:] - m2_p[:-1]))

    d_rho = -(flux_rho[1:] - flux_rho[:-1]) / dx
    d_m1 = -(flux_m1[1:] - flux_m1[:-1]) / dx
    d_n = -(flux_n[1:] - flux_n[:-1]) / dx
    d_m2 = -(flux_m2[1:] - flux_m2[:-1]) / dx
    return d_rho, d_m1, d_n, d_m2


def _viscous_drag_terms(padded, mu, dx):
    """mu u_xx, (n v_x)_x and the drag n (v - u), per cell; the drag enters
    the phase-1 momentum with a plus sign and the phase-2 one with a minus."""
    _, _, n_p, _, u_p, v_p = padded
    visc1 = mu * (u_p[:-2] - 2.0 * u_p[1:-1] + u_p[2:]) / dx ** 2
    n_iface = 0.5 * (n_p[:-1] + n_p[1:])
    v_grad = (v_p[1:] - v_p[:-1]) / dx
    visc2 = (n_iface[1:] * v_grad[1:] - n_iface[:-1] * v_grad[:-1]) / dx
    drag = n_p[1:-1] * (v_p[1:-1] - u_p[1:-1])
    return visc1, visc2, drag


def _stage_rhs(rho, m1, n, m2, spec, dx, u_bc, v_bc, right_ghost):
    """Semi-discrete right-hand side for the conserved quadruple: the
    convective part plus the viscous and drag terms."""
    # let non-finite values propagate silently; the stage check after the
    # update turns them into a loud abort
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        padded = _padded(rho, m1, n, m2, u_bc, v_bc, right_ghost)
        d_rho, d_m1, d_n, d_m2 = _convective_rhs(padded, spec.fluids, dx)
        visc1, visc2, drag = _viscous_drag_terms(padded, spec.fluids.mu, dx)
        return d_rho, d_m1 + visc1 + drag, d_n, d_m2 + visc2 - drag


def _check_stage(rho, m1, n, m2, t):
    for arr in (rho, m1, n, m2):
        if not np.all(np.isfinite(arr)):
            raise BlowUpError(t)
    for phase, dens in ((1, rho), (2, n)):
        low = np.nonzero(dens <= DENSITY_FLOOR)[0]
        if low.size:
            raise VacuumError(phase, int(low[0]), t)


def _with_arrays(state, t, rho, m1, n, m2):
    return EvolutionState(t=t, rho=rho, u=m1 / rho, n=n, v=m2 / n,
                          mom1=m1, mom2=m2, u_bc=state.u_bc,
                          v_bc=state.v_bc, right_ghost=state.right_ghost)


def _euler_stage(state: EvolutionState, grid: Grid1D, spec, dt: float
                 ) -> EvolutionState:
    """Single forward-Euler stage; the budget tests address it directly."""
    rates = _stage_rhs(state.rho, state.mom1, state.n, state.mom2, spec,
                       grid.dx, state.u_bc, state.v_bc, state.right_ghost)
    rho, m1, n, m2 = (u + dt * r for u, r in
                      zip((state.rho, state.mom1, state.n, state.mom2), rates))
    _check_stage(rho, m1, n, m2, state.t + dt)
    return _with_arrays(state, state.t + dt, rho, m1, n, m2)


def step(state: EvolutionState, grid: Grid1D, spec, dt: float,
         imex: bool = False) -> EvolutionState:
    """One step of the full right-hand side; aborts loudly on blow-up or
    vacuum. By default this is the explicit SSP-RK2 (Heun) reference scheme,
    stable up to `stable_dt`. imex=True takes one ARS(2,2,2) step instead,
    stable up to `stable_dt(..., imex=True)`; `evolve` marches with it."""
    if dt <= 0.0:
        raise DomainError("step needs dt > 0")
    if imex:
        return _imex_step(state, grid, spec, dt)
    mid = _euler_stage(state, grid, spec, dt)
    rates = _stage_rhs(mid.rho, mid.mom1, mid.n, mid.mom2, spec, grid.dx,
                       state.u_bc, state.v_bc, state.right_ghost)
    olds = (state.rho, state.mom1, state.n, state.mom2)
    mids = (mid.rho, mid.mom1, mid.n, mid.mom2)
    rho, m1, n, m2 = (0.5 * (u0 + u1 + dt * r)
                      for u0, u1, r in zip(olds, mids, rates))
    _check_stage(rho, m1, n, m2, state.t + dt)
    return _with_arrays(state, state.t + dt, rho, m1, n, m2)


# ---------------------------------------------------------------------------
# IMEX time stepping
# ---------------------------------------------------------------------------

# Ascher, Ruuth & Spiteri's ARS(2,2,2). Implicit part: c = (g, 1),
# a = ((g, 0), (1 - g, g)). Explicit part: c = (0, g, 1), a21 = g,
# (a31, a32) = (d, 1 - d). Both parts are stiffly accurate, so the last
# stage is the new state, and a state with F + G = 0 is an exact fixed
# point. d < 0, so the explicit part is not SSP.
IMEX_GAMMA = 1.0 - 1.0 / math.sqrt(2.0)
IMEX_DELTA = 1.0 - 1.0 / (2.0 * IMEX_GAMMA)


def _implicit_momenta(rho, n, r1, r2, h, mu, dx, u_bc, v_bc, right_ghost,
                      t):
    """Solve m - h G(m) = r for the momenta at fixed densities, where G is
    the viscous-plus-drag part of `_stage_rhs` with the same ghosts.

    Unknowns are the velocities interleaved as (u_0, v_0, u_1, v_1, ...):
        rho u - h [mu D2 u + n (v - u)] = r1,
        n v - h [D(n_iface D v) - n (v - u)] = r2.
    The matrix is symmetric with lower bandwidth 2 and, for positive
    densities, strictly diagonally dominant, hence positive definite.
    """
    g_rho, g_u, g_n, g_v = right_ghost
    # the ghost velocities and interface densities of `_padded`
    u_left, v_left = rho[0] * u_bc / rho[0], n[0] * v_bc / n[0]
    u_right, v_right = g_rho * g_u / g_rho, g_n * g_v / g_n
    n_p = _pad(n, n[0], g_n)
    face = 0.5 * (n_p[:-1] + n_p[1:])
    k = h / dx ** 2
    hn = h * n
    ab = np.empty((3, 2 * rho.size), order="F")
    ab[0, 0::2] = rho + 2.0 * k * mu + hn
    ab[0, 1::2] = n + k * (face[:-1] + face[1:]) + hn
    ab[1, 0::2] = -hn
    ab[1, 1::2] = 0.0
    ab[2, 0::2] = -k * mu
    ab[2, 1::2] = -k * face[1:]
    rhs = np.empty(2 * rho.size)
    rhs[0::2] = r1
    rhs[1::2] = r2
    rhs[0] += k * mu * u_left
    rhs[1] += k * face[0] * v_left
    rhs[-2] += k * mu * u_right
    rhs[-1] += k * face[-1] * v_right
    try:
        vel = solveh_banded(ab, rhs, lower=True, overwrite_ab=True,
                            overwrite_b=True, check_finite=False)
    except LinAlgError:
        raise BlowUpError(
            t, "implicit stage matrix not positive definite") from None
    return rho * vel[0::2], n * vel[1::2]


def _imex_step(state: EvolutionState, grid: Grid1D, spec, dt: float
               ) -> EvolutionState:
    """One ARS(2,2,2) step: explicit Rusanov convection F, implicit
    viscosity and drag G. Densities change only through F; each implicit
    stage solves for the momenta, and G of the middle stage is recovered
    from its solve as (m - rhs) / (gamma dt), never evaluated a second
    time."""
    t = state.t + dt
    h = IMEX_GAMMA * dt
    f, dx = spec.fluids, grid.dx
    bc = (state.u_bc, state.v_bc, state.right_ghost)
    rho0, m10, n0, m20 = state.rho, state.mom1, state.n, state.mom2
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        fa = _convective_rhs(_padded(rho0, m10, n0, m20, *bc), f, dx)
        rho_b = rho0 + h * fa[0]
        n_b = n0 + h * fa[2]
        r1 = m10 + h * fa[1]
        r2 = m20 + h * fa[3]
    _check_stage(rho_b, r1, n_b, r2, t)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        m1b, m2b = _implicit_momenta(rho_b, n_b, r1, r2, h, f.mu, dx, *bc, t)
        g1b, g2b = (m1b - r1) / h, (m2b - r2) / h
        fb = _convective_rhs(_padded(rho_b, m1b, n_b, m2b, *bc), f, dx)
        wa, wb, wg = IMEX_DELTA * dt, (1.0 - IMEX_DELTA) * dt, dt - h
        rho = rho0 + wa * fa[0] + wb * fb[0]
        n = n0 + wa * fa[2] + wb * fb[2]
        r1 = m10 + wa * fa[1] + wb * fb[1] + wg * g1b
        r2 = m20 + wa * fa[3] + wb * fb[3] + wg * g2b
    _check_stage(rho, r1, n, r2, t)
    m1, m2 = _implicit_momenta(rho, n, r1, r2, h, f.mu, dx, *bc, t)
    _check_stage(rho, m1, n, m2, t)
    return _with_arrays(state, t, rho, m1, n, m2)


@dataclass(frozen=True)
class EvolveResult:
    """What `evolve` produced: the observer records, the final state,
    whether the wall-clock budget cut the run short, and the steps taken
    with the smallest and largest dt among them (both 0.0 when no step was
    taken; the last step may be clipped to land on t_end)."""

    series: NormSeries
    state: EvolutionState
    truncated: bool
    steps: int
    dt_min: float
    dt_max: float


def evolve(state: EvolutionState, grid: Grid1D, spec, t_end: float,
           observer_stride: int = 1, observers=(), cfl: float = 0.4,
           wall_clock_budget: float = None, drag_substeps: int = 1
           ) -> EvolveResult:
    """March the state to t_end, collecting observer records along the way.

    Each step is `step(..., imex=True)` at `stable_dt(..., imex=True)`:
    ARS(2,2,2) with explicit Rusanov convection and implicit viscosity and
    drag, so dt is cfl times the advective bound alone.
    Observers are called with the current state: any NormRecord they return
    is appended to the series (at most one observer should record norms so
    the series stays strictly time-ordered; the others can write snapshots
    or just watch). The step is clipped to land exactly on t_end.
    drag_substeps divides the step; the drag is implicit, so this only
    refines dt to resolve a fast relaxation in time, it is never needed for
    stability. A wall-clock budget in seconds turns an overlong run into a
    truncated result instead of an error.
    """
    if t_end < state.t:
        raise DomainError("t_end lies before the state time")
    if observer_stride < 1:
        raise DomainError("observer_stride must be a positive integer")
    if drag_substeps < 1:
        raise DomainError("drag_substeps must be a positive integer")
    records = []

    def observe(current):
        for obs in observers:
            rec = obs(current)
            if rec is not None:
                records.append(rec)

    if t_end == state.t:
        return EvolveResult(series=NormSeries(records=()), state=state,
                            truncated=False, steps=0, dt_min=0.0,
                            dt_max=0.0)
    observe(state)
    start = time.monotonic()
    truncated = False
    steps = 0
    dt_min, dt_max = math.inf, 0.0
    observed = True
    tiny = 1e-12 * max(1.0, abs(t_end))
    while t_end - state.t > tiny:
        if (wall_clock_budget is not None
                and time.monotonic() - start > wall_clock_budget):
            truncated = True
            break
        dt = stable_dt(state, grid, spec, cfl, imex=True) / drag_substeps
        dt = min(dt, t_end - state.t)
        state = step(state, grid, spec, dt, imex=True)
        steps += 1
        dt_min, dt_max = min(dt_min, dt), max(dt_max, dt)
        observed = steps % observer_stride == 0
        if observed:
            observe(state)
    if not observed:
        observe(state)
    return EvolveResult(series=NormSeries(records=tuple(records)),
                        state=state, truncated=truncated, steps=steps,
                        dt_min=dt_min if steps else 0.0, dt_max=dt_max)


# ---------------------------------------------------------------------------
# state snapshots
# ---------------------------------------------------------------------------

def _meta_path(path):
    return str(path) + ".meta.json"


def save_state_csv(state: EvolutionState, grid: Grid1D, path,
                   spec_hash: str = None):
    """Write the primitive fields plus a JSON sidecar with the metadata
    needed to resume (time, boundary velocities, right ghost)."""
    cols = np.column_stack((grid.centers, state.rho, state.u, state.n,
                            state.v))
    with open(path, "w") as fh:
        fh.write(STATE_HEADER + "\n")
        write_csv_rows(fh, cols)
    meta = {
        "t": state.t,
        "spec_hash": spec_hash,
        "length": grid.length,
        "cells": grid.cells,
        "u_bc": state.u_bc,
        "v_bc": state.v_bc,
        "right_ghost": list(state.right_ghost),
    }
    with open(_meta_path(path), "w") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")


def load_state_csv(path):
    """Read a snapshot back: coordinates, primitive columns, metadata dict."""
    with open(path) as fh:
        header = fh.readline().strip()
        if header != STATE_HEADER:
            raise DomainError(f"unexpected snapshot header {header!r}")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    meta = {}
    if os.path.exists(_meta_path(path)):
        with open(_meta_path(path)) as fh:
            meta = json.load(fh)
    cols = {name: data[:, i + 1] for i, name in enumerate(_COMPONENTS)}
    return data[:, 0], cols, meta
