"""Finite-volume evolution of the time-dependent system on a truncated
half-line.

The semi-discrete scheme is first order and deliberately plain: Rusanov
fluxes, pointwise drag, and for both viscous terms one face-flux form
D(kappa D w), kappa = mu or the face density of phase 2. One kernel
evaluates it for both steppers on the block an `EvolutionState` is, its
conserved variables as one (2, 2, N) array U = ((rho, n), (m1, m2)) (its
velocities are derived from them), padded into a (2, 2(N+2)) array whose
rows hold phase 1's padded cells followed by phase 2's, so each pad, flux
and difference runs once over both phases. The kernel writes into one
workspace per thread and cell count, whose buffers and views are built
once and reused by every stage of both steppers; a different cell count
replaces it. The workspace only changes where the temporaries live: the
element operations are those of a kernel that allocates each one, and
give the same bits. Each step returns a new block, and no array that
`_rates`, `step` or `evolve` returns is part of the workspace.
An isothermal phase (exponent 1) takes p = A rho and c = sqrt(A gamma)
with no power, the same bits as the power.

`step` advances the scheme either with the explicit SSP-RK2 (Heun)
reference scheme, for callers that choose a fixed dt, or with the IMEX
scheme ARS(2,2,2) (Ascher, Ruuth & Spiteri, 1997): convection explicit,
viscosity and drag implicit, so dt follows the advective bound alone.
Each implicit stage eliminates half of the 2N velocities exactly (one
red-black reduction of the two velocity chains joined by the drag) and
makes one banded Cholesky solve over the other N. `evolve` marches with
the IMEX scheme.
A state's `Boundary` sets the ghost cells: the left one prescribes the
outflow velocities, the right one continues the steady profile past the
truncation point so that a converged profile is (up to truncation error)
a fixed point of the semi-discrete scheme and of both steppers.
"""

import json
import math
import os
import threading
import time
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.linalg import LinAlgError, solveh_banded

from .diagnostics import NormSeries, _check_covers
from .errors import BlowUpError, DomainError, VacuumError
from .model import _is_integer, _is_real, _require
from .steady import SteadyProfile, read_csv_columns, write_csv_rows

DENSITY_FLOOR = 1e-10

GAUSSIAN = "gaussian"
COMPACT_BUMP = "compact_bump"
FROM_FILE = "from_file"

_SHAPES = (GAUSSIAN, COMPACT_BUMP, FROM_FILE)
_COMPONENTS = ("rho", "u", "n", "v")

STATE_HEADER = "x,rho,n,mom1,mom2"


@dataclass(frozen=True)
class Grid1D:
    """Uniform cell-centered grid on [0, length]; the spacing dx and the
    cell centers follow from length and cells."""

    length: float
    cells: int

    def __post_init__(self):
        if not _is_real(self.length):
            raise DomainError(f"grid length must be a real number, got "
                              f"{self.length!r}")
        if not 0.0 < self.length < math.inf:
            raise DomainError(f"grid length must be finite and positive, "
                              f"got {self.length}")
        if not _is_integer(self.cells):
            raise DomainError(
                f"grid cells must be an integer, got {self.cells!r}")
        if self.cells < 1:
            raise DomainError("grid needs at least one cell")

    dx = property(lambda self: self.length / self.cells)
    centers = cached_property(
        lambda self: (np.arange(self.cells) + 0.5) * self.dx)


def make_grid(length: float, cells: int) -> Grid1D:
    return Grid1D(float(length), cells)


@dataclass(frozen=True)
class PerturbationSpec:
    """Initial deviation from the steady profile.

    Velocity components are tapered by 1 - exp(-(x/width)^2) so the boundary
    values at x = 0 stay exactly at the prescribed outflow velocities.
    from_file ignores the shape parameters and loads a full state snapshot.
    """

    shape: str = GAUSSIAN
    amplitude: float = 0.0
    center: float = 10.0
    width: float = 2.0
    components: tuple = ("u",)
    path: str = ""

    def __post_init__(self):
        if self.shape not in _SHAPES:
            raise DomainError(f"unknown perturbation shape {self.shape!r}; "
                              f"accepted: {', '.join(_SHAPES)}")
        _require(self, "finite", names=("amplitude", "center", "width"))
        _require(self, "positive", lambda v: v > 0.0, ("width",))
        unknown = [c for c in self.components if c not in _COMPONENTS]
        if unknown:
            raise DomainError(f"unknown perturbation components {unknown}; "
                              f"accepted: {', '.join(_COMPONENTS)}")
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


class Boundary(NamedTuple):
    """A profile's boundary data on a grid: u_bc and v_bc, the outflow
    velocities the left ghost enforces, and right_ghost, (rho, u, n, v) of
    the steady profile continued one half-cell past x = length."""

    u_bc: float
    v_bc: float
    right_ghost: tuple


@dataclass(frozen=True, init=False)
class EvolutionState:
    """The cell-averaged conserved variables as one (2, 2, N) block
    U = ((rho, n), (mom1, mom2)) at time t, plus the `Boundary` they are
    stepped with. rho, n, mom1 and mom2 are views of U's rows; u and v are
    derived from them. Both steppers hand the record on as it is.

    A row given by keyword, as `dataclasses.replace(state, rho=rho)` gives
    it, replaces that row in a copy of U; the block passed in is left as
    it is.
    """

    t: float
    U: np.ndarray
    boundary: Boundary

    def __init__(self, t, U, boundary, *, rho=None, n=None, mom1=None,
                 mom2=None):
        rows = (rho, n, mom1, mom2)
        if any(row is not None for row in rows):
            U = np.array(U, dtype=float)
            for dst, row in zip(U.reshape(4, -1), rows):
                if row is not None:
                    dst[...] = row
        # every step constructs one: three direct writes, no loop
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "boundary", boundary)

    # the rows of U, as views
    rho = property(lambda self: self.U[0, 0])
    n = property(lambda self: self.U[0, 1])
    mom1 = property(lambda self: self.U[1, 0])
    mom2 = property(lambda self: self.U[1, 1])

    @property
    def u(self):
        return self.mom1 / self.rho

    @property
    def v(self):
        return self.mom2 / self.n


def initialize(profile: SteadyProfile, grid: Grid1D,
               pert: PerturbationSpec) -> EvolutionState:
    """Steady profile interpolated to the cell centers plus a perturbation,
    or a snapshot read back, as the block of its densities and momenta.
    The `Boundary` always comes from the profile: the outflow velocities
    u_t[0] and v_t[0], and the right ghost one half-cell past the grid.
    A snapshot gives its block and time as `load_state_csv` reads them,
    bit for bit, so a run resumed under its own profile continues the run
    exactly. A non-finite entry or a density at or below the floor raises
    DomainError naming the first such quantity or phase and its cell."""
    _check_covers(profile, grid)
    if pert.shape == FROM_FILE:
        x, U, t0 = load_state_csv(pert.path)
        if not np.array_equal(x, grid.centers):
            raise DomainError(
                f"{pert.path}: the snapshot's {x.size} cell centers differ "
                f"from the grid's {grid.cells}")
    else:
        vals = perturbation_values(pert, grid.centers)
        with np.errstate(over="ignore", invalid="ignore"):
            rho0, u0, n0, v0 = (col + vals[c] for c, col in
                                zip(_COMPONENTS, profile.interp(grid.centers)))
            U = np.array(((rho0, n0), (rho0 * u0, n0 * v0)))
        t0 = 0.0
    try:
        _check(_workspace(grid.cells), U, t0)
    except BlowUpError:
        row, cell = np.argwhere(~np.isfinite(U.reshape(4, -1)))[0]
        raise DomainError(
            f"initial {STATE_HEADER.split(',')[1 + row]} at cell {cell} is "
            "not finite; perturbation rejected") from None
    except VacuumError as err:
        raise DomainError(
            f"initial phase-{err.phase} density at or below the floor "
            f"at cell {err.cell}; perturbation rejected") from None
    right_ghost = tuple(float(g) for g in
                        profile.interp(grid.length + 0.5 * grid.dx))
    return EvolutionState(t=t0, U=U, boundary=Boundary(
        float(profile.u_t[0]), float(profile.v_t[0]), right_ghost))


def _sound_speed(coef, expo, dens, out=None):
    """sqrt(p'(dens)) for p = coef dens^expo, in out if given; a float for
    an isothermal phase, where pow(x, 0) = 1 exactly makes the constant
    sqrt(coef) the same bits as the power."""
    if expo == 1.0:
        return math.sqrt(coef * expo)
    out = np.power(dens, expo - 1.0, out=out)
    out *= coef * expo
    return np.sqrt(out, out=out)


def _check_cfl(cfl, imex):
    """The cfl rule of `stable_dt`: (0, 1) with imex, (0, 1/2] without."""
    if not 0.0 < cfl < 1.0:
        raise DomainError(f"cfl must lie strictly between 0 and 1, got {cfl}")
    if not imex and cfl > 0.5:
        raise DomainError(f"the Heun step needs cfl <= 0.5, got {cfl}")


def stable_dt(state: EvolutionState, grid: Grid1D, spec, cfl: float = 0.4,
              imex: bool = False) -> float:
    """Stability step of `step`: cfl times the advective bound
    dx / max(|velocity| + sound speed) over both phases. With imex=True
    viscosity and drag are implicit, which leaves only this bound; this is
    the step `evolve` takes. The explicit Heun reference also takes the
    diffusive bound dx^2 / (2 max(mu/rho, 1)); the phase-2 viscosity n
    cancels against its density, leaving the unit coefficient.

    Heun is stable while dt (a/dx + 2 kappa/dx^2) <= 1, a the largest
    |velocity| + sound speed and kappa = max(mu/rho, 1). At cfl <= 1/2 the
    smaller of the two bounds meets it whatever their ratio, so Heun
    accepts cfl in (0, 1/2] only; IMEX accepts (0, 1).

    A state whose largest wave speed is not finite has no stable step:
    BlowUpError at the state's time."""
    _check_cfl(cfl, imex)
    f = spec.fluids
    c1 = _sound_speed(f.A1, f.gamma, state.rho)
    c2 = _sound_speed(f.A2, f.alpha, state.n)
    a1 = float(np.max(np.abs(state.u) + c1))
    a2 = float(np.max(np.abs(state.v) + c2))
    # both are NaN or nonnegative, so the sum is finite iff both are
    if not math.isfinite(a1 + a2):
        raise BlowUpError(state.t)
    # one division: dx / max(a, b) is min(dx / a, dx / b) exactly
    adv = cfl * (grid.dx / max(a1, a2))
    if imex:
        return adv
    diff = grid.dx ** 2 / (2.0 * max(float(np.max(f.mu / state.rho)), 1.0))
    return min(adv, cfl * diff)


# ---------------------------------------------------------------------------
# the stacked-phase kernel
# ---------------------------------------------------------------------------

def _ghost_cells(dens, boundary):
    """The ghost cells of a block with densities dens, as a (2, 2, 2) array
    ((densities, momenta), phase, (left, right)). The left ghost copies the
    first cell's densities and carries the boundary's outflow velocities;
    the right ghost is its frozen profile continuation."""
    u_bc, v_bc, (g_rho, g_u, g_n, g_v) = boundary
    rho_0, n_0 = dens[:, 0].tolist()
    return np.array((((rho_0, g_rho), (n_0, g_n)),
                     ((rho_0 * u_bc, g_rho * g_u), (n_0 * v_bc, g_n * g_v))))


def _left_right(a):
    """The views of a's last axis left and right of each face."""
    return a[..., :-1], a[..., 1:]


class _Workspace:
    """The kernel's buffers at one cell count N, and every view of them it
    slices, built once.

    `padded` is the (2, 2, N+2) block with one ghost cell on each side of
    each phase: `interior` its cells, `pads` its ghost cells. `P` is the
    same memory as one (2, 2(N+2)) array, row 0 the densities and row 1
    the momenta, each row phase 1's padded cells followed by phase 2's, so
    that each flux and difference runs once over both phases. `flux` holds
    the physical fluxes (m, m u + p); its first row is P's momentum row.
    Each pair named `*_lr` holds the values left and right of the faces.
    `rates` is the (2, 2, N) block `_convection` and `_stage_rates` fill.
    """

    def __init__(self, cells):
        half = cells + 2
        width = 2 * half
        self.cells = cells
        rows = np.empty((3, width))
        self.P, self.flux = rows[:2], rows[1:]
        self.dens, self.mom = self.P
        self.padded = self.P.reshape(2, 2, half)
        self.interior = self.padded[..., 1:-1]
        self.dens_interior = self.interior[0]
        self.pads = self.padded[..., ::half - 1]
        self.finite = np.empty((2, 2, cells), dtype=bool)
        # convection
        self.vel = np.empty(width)
        self.speed = np.empty(width)
        scratch = np.empty(width)
        self.phases = tuple(
            (self.dens[part], self.flux[1, part], self.speed[part],
             scratch[part])
            for part in (slice(None, half), slice(half, None)))
        self.a = np.empty(width - 1)
        self.num = np.empty((2, width - 1))
        self.jump = np.empty((2, width - 1))
        self.mom_flux = self.flux[1]
        self.speed_lr = _left_right(self.speed)
        self.flux_lr = _left_right(self.flux)
        self.P_lr = _left_right(self.P)
        self.num_lr = _left_right(self.num)
        rates = np.empty((2, width))
        self.differences = rates[:, :-2]
        self.rates = rates.reshape(2, 2, half)[..., :cells]
        self.momentum_rates = self.rates[1]
        self.mom1_rates, self.mom2_rates = self.momentum_rates
        # viscosity and drag
        w = self.vel.reshape(2, half)
        n_p = self.padded[0, 1]
        self.w_lr = _left_right(w)
        self.n_lr = _left_right(n_p)
        self.n_cells = n_p[1:-1]
        self.u_cells, self.v_cells = w[:, 1:-1]
        self.dw = np.empty((2, half - 1))
        self.dw_1, self.dw_2 = self.dw
        self.dw_lr = _left_right(self.dw)
        self.n_face = np.empty(half - 1)
        self.visc = np.empty((2, cells))
        self.drag = np.empty(cells)


class _PerThread(threading.local):
    workspace = None


_PER_THREAD = _PerThread()


def _workspace(cells):
    """The calling thread's workspace for a cell count. A thread holds one;
    a different cell count replaces it."""
    ws = _PER_THREAD.workspace
    if ws is None or ws.cells != cells:
        ws = _PER_THREAD.workspace = _Workspace(cells)
    return ws


def _fill_ghosts(ws, boundary):
    """Write the ghost cells of the workspace's interior, those of
    `_ghost_cells`, into its pads; returns them."""
    ghosts = _ghost_cells(ws.dens_interior, boundary)
    ws.pads[...] = ghosts
    return ghosts


def _load(U, boundary):
    """The calling thread's workspace, holding the block U with the
    boundary's ghost cells."""
    ws = _workspace(U.shape[-1])
    ws.interior[...] = U
    _fill_ghosts(ws, boundary)
    return ws


def _convection(ws, f, dx):
    """Rusanov flux differences of the workspace's padded block, as its
    (2, 2, N) rates; its velocities are left in ws.vel. Every operation
    runs once over both phases; the one interface between phase 1's right
    ghost and phase 2's left ghost mixes the phases and its flux is
    discarded."""
    vel, speed, a, num, jump = ws.vel, ws.speed, ws.a, ws.num, ws.jump
    np.divide(ws.mom, ws.dens, out=vel)
    np.multiply(ws.mom, vel, out=ws.mom_flux)
    np.abs(vel, out=speed)
    for (dens, mom_flux, phase_speed, scratch), coef, expo in zip(
            ws.phases, (f.A1, f.A2), (f.gamma, f.alpha)):
        # an isothermal phase skips the power: pow(x, 1) = x exactly
        if expo == 1.0:
            np.multiply(dens, coef, out=scratch)
        else:
            np.power(dens, expo, out=scratch)
            scratch *= coef
        mom_flux += scratch
        phase_speed += _sound_speed(coef, expo, dens, out=scratch)
    np.maximum(*ws.speed_lr, out=a)
    # twice the Rusanov flux, (f_L + f_R) - a (U_R - U_L); the division by
    # -2 dx takes the two halves, bit for bit
    np.add(*ws.flux_lr, out=num)
    P_l, P_r = ws.P_lr
    np.subtract(P_r, P_l, out=jump)
    jump *= a
    num -= jump
    num_l, num_r = ws.num_lr
    # x / (-2 dx) is -(x / (2 dx)) bit for bit, signed zeros included
    np.subtract(num_r, num_l, out=ws.differences)
    ws.differences /= -2.0 * dx
    return ws.rates


def _faces(n_p, mu):
    """The (2, N+1) viscous coefficients on the faces of the padded phase-2
    densities n_p: mu for phase 1, the face density 0.5 (n_i + n_{i+1})
    for phase 2."""
    kappa = np.full((2, n_p.size - 1), mu, dtype=float)
    np.multiply(n_p[:-1] + n_p[1:], 0.5, out=kappa[1])
    return kappa


def _viscosity_drag(ws, mu, dx):
    """The viscous terms D(kappa D w) with the coefficients of `_faces`,
    mu u_xx and (n v_x)_x, as a (2, N) block, and the drag n (v - u) per
    cell, which enters the phase-1 momentum with a plus sign and the
    phase-2 one with a minus; both from the velocities `_convection` left
    in the workspace, and both held there."""
    dw, n_face, visc, drag = ws.dw, ws.n_face, ws.visc, ws.drag
    w_l, w_r = ws.w_lr
    np.subtract(w_r, w_l, out=dw)
    dw /= dx
    ws.dw_1 *= mu
    np.add(*ws.n_lr, out=n_face)
    n_face *= 0.5
    ws.dw_2 *= n_face
    dw_l, dw_r = ws.dw_lr
    np.subtract(dw_r, dw_l, out=visc)
    visc /= dx
    np.subtract(ws.v_cells, ws.u_cells, out=drag)
    drag *= ws.n_cells
    return visc, drag


def _stage_rates(ws, f, dx):
    """Semi-discrete right-hand side of the workspace's padded block: the
    convective part plus the viscous and drag terms, as its rates."""
    rates = _convection(ws, f, dx)
    visc, drag = _viscosity_drag(ws, f.mu, dx)
    # (convection + viscosity) + drag: the order of the sums fixes the bits
    # of the Heun reference
    ws.momentum_rates += visc
    ws.mom1_rates += drag
    ws.mom2_rates -= drag
    return rates


# non-finite values propagate silently; the stage checks abort on them
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _rates(U, spec, dx, boundary):
    """Semi-discrete right-hand side of the block with the boundary's ghost
    cells, as a new (2, 2, N) array."""
    return _stage_rates(_load(U, boundary), spec.fluids, dx).copy()


def _check(ws, U, t):
    """Abort on a non-finite entry (BlowUpError) or a density at or below
    the floor (VacuumError naming the first such phase and cell)."""
    finite = np.isfinite(U, out=ws.finite).all()
    if finite and U[0].min() > DENSITY_FLOOR:
        return
    if not finite:
        raise BlowUpError(t)
    for phase in (0, 1):
        low = np.nonzero(U[0, phase] <= DENSITY_FLOOR)[0]
        if low.size:
            raise VacuumError(phase + 1, int(low[0]), t)


def step(state: EvolutionState, grid: Grid1D, spec, dt: float,
         imex: bool = False) -> EvolutionState:
    """One step of the full right-hand side; aborts loudly on blow-up or
    vacuum. By default this is the explicit SSP-RK2 (Heun) reference scheme,
    stable up to `stable_dt`. imex=True takes one ARS(2,2,2) step instead,
    stable up to `stable_dt(..., imex=True)`; `evolve` marches with it.
    Neither stepper writes into the block of the state it starts from."""
    if not 0.0 < dt < math.inf:
        raise DomainError(f"step needs a finite dt > 0, got dt={dt}")
    return (_imex_step if imex else _heun_step)(state, grid, spec, dt)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _heun_step(state, grid, spec, dt):
    """The Euler stage U1 = U + dt R(U), then (U + U1 + dt R(U1)) / 2, both
    checked at t + dt. U1 is the workspace's interior; the new block is
    the one array the step allocates."""
    t = state.t + dt
    f, dx = spec.fluids, grid.dx
    U0, boundary = state.U, state.boundary
    ws = _load(U0, boundary)
    rates = _stage_rates(ws, f, dx)
    rates *= dt
    U1 = ws.interior
    U1 += rates
    _check(ws, U1, t)
    _fill_ghosts(ws, boundary)
    rates = _stage_rates(ws, f, dx)
    rates *= dt
    U = np.add(U0, U1)
    U += rates
    U *= 0.5
    _check(ws, U, t)
    return EvolutionState(t, U, boundary)


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


def _swap_odd(a):
    """Swap the two rows of a (2, M) array in its odd columns, in place:
    this maps the phase layout to the red/black layout and back."""
    a[:, 1::2] = a[::-1, 1::2]
    return a


def _implicit_momenta(D, wg, R, h, mu, dx, t):
    """Solve m - h G(m) = R for the (2, N) momenta at the (2, N+2) ghosted
    densities D, where G is the viscous-plus-drag part of `_rates` with the
    (2, 2) ghost velocities wg (phase, (left, right)) and the face
    coefficients of `_faces`.

    The unknowns are the velocities:
        rho u - h [D(mu D u) + n (v - u)] = R[0],
        n v - h [D(n_face D v) - n (v - u)] = R[1].
    The symmetric matrix is a ladder: two velocity chains joined by the
    drag rungs. Colour the unknowns red (phase i % 2 in cell i) and black
    (the other phase). Each black unknown couples only to red ones, the
    rung of its cell and its own phase in the two neighbouring cells, and
    the same holds for red; with the rows swapped in the odd columns
    (`_swap_odd`) the matrix is [[D_R, B], [B^T, D_E]] with D_R and D_E
    diagonal and B tridiagonal. One exact red-black elimination (the first
    level of cyclic reduction) leaves the Schur complement
    S = D_R - B D_E^-1 B^T, pentadiagonal on N unknowns, which
    `solveh_banded` factors; the black velocities follow from
    x_E = D_E^-1 (b_E - B^T x_R). The full matrix is positive definite
    exactly when D_E is and S is, that is when every black pivot is
    positive and the Cholesky factorization of S succeeds; for positive
    densities it is strictly diagonally dominant, hence both hold.
    """
    dens = D[:, 1:-1]
    kappa = _faces(D[1], mu)
    kappa *= h / dx ** 2
    hn = h * dens[1]
    # the diagonal, then the Dirichlet ghosts on the right-hand side
    diag = kappa[:, :-1] + kappa[:, 1:]
    diag += dens
    diag += hn
    rhs = R.copy()
    rhs[:, 0] += kappa[:, 0] * wg[:, 0]
    rhs[:, -1] += kappa[:, -1] * wg[:, 1]
    d_red, d_black = _swap_odd(diag)
    b_red, b_black = _swap_odd(rhs)
    # B holds minus these: the rung hn, and on each interior face up, which
    # joins the red unknown on its left to the black one on its right, and
    # lo, which joins the red unknown on its right to the black on its left
    up, lo = _swap_odd(kappa[:, 1:-1])
    if not d_black.min() > 0.0:
        raise BlowUpError(t, "implicit stage matrix not positive definite")
    e = np.divide(1.0, d_black, out=d_black)
    he = hn * e
    ue = up * e[1:]
    le = lo * e[:-1]
    # the band of S (diagonal, then two subdiagonals) and y = b_R - B e b_E
    ab = np.zeros((3, dens.shape[1]), order="F")
    np.multiply(hn, he, out=ab[0])
    ab[0, :-1] += up * ue
    ab[0, 1:] += lo * le
    np.subtract(d_red, ab[0], out=ab[0])
    np.multiply(he[:-1], lo, out=ab[1, :-1])
    ab[1, :-1] += ue * hn[1:]
    ab[1] *= -1.0
    np.multiply(ue[:-1], lo[1:], out=ab[2, :-2])
    ab[2] *= -1.0
    b_red += he * b_black
    b_red[:-1] += ue * b_black[1:]
    b_red[1:] += le * b_black[:-1]
    try:
        x_red = solveh_banded(ab, b_red, lower=True, overwrite_ab=True,
                              overwrite_b=True, check_finite=False)
    except LinAlgError:
        raise BlowUpError(
            t, "implicit stage matrix not positive definite") from None
    # x_E = e (b_E - B^T x_R), then both back in the phase layout
    rhs[0] = x_red
    b_black += hn * x_red
    b_black[1:] += up * x_red[:-1]
    b_black[:-1] += lo * x_red[1:]
    b_black *= e
    _swap_odd(rhs)
    rhs *= dens
    return rhs


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _imex_step(state: EvolutionState, grid: Grid1D, spec, dt: float
               ) -> EvolutionState:
    """One ARS(2,2,2) step: explicit Rusanov convection F, implicit
    viscosity and drag G. Densities change only through F; each implicit
    stage solves for the momenta, and G of the middle stage is recovered
    from its solve as (m - rhs) / (gamma dt), never evaluated a second
    time. Ghosts depend on densities only, so each stage is ghosted once;
    the solves read only the ghosted densities and the ghost velocities.
    Fa and the middle stage have arrays of their own, and the middle
    stage's becomes the new block."""
    t = state.t + dt
    h = IMEX_GAMMA * dt
    f, dx = spec.fluids, grid.dx
    U0, boundary = state.U, state.boundary
    ws = _load(U0, boundary)
    Fa = _convection(ws, f, dx).copy()
    # densities of the middle stage, then its momenta's right-hand sides
    U = np.multiply(Fa, h)
    U += U0
    _check(ws, U, t)
    ws.dens_interior[...] = U[0]
    ghosts = _fill_ghosts(ws, boundary)
    M = _implicit_momenta(ws.padded[0], ghosts[1] / ghosts[0], U[1], h,
                          f.mu, dx, t)
    ws.interior[1] = M
    Fb = _convection(ws, f, dx)
    # the solved momenta become G of the middle stage in place
    M -= U[1]
    M /= h
    # the last stage, in the middle stage's array
    Fa *= IMEX_DELTA * dt
    np.add(U0, Fa, out=U)
    Fb *= (1.0 - IMEX_DELTA) * dt
    U += Fb
    M *= dt - h
    U[1] += M
    _check(ws, U, t)
    ws.dens_interior[...] = U[0]
    ghosts = _fill_ghosts(ws, boundary)
    U[1] = _implicit_momenta(ws.padded[0], ghosts[1] / ghosts[0], U[1], h,
                             f.mu, dx, t)
    _check(ws, U, t)
    return EvolutionState(t, U, boundary)


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


def _check_evolve(t, t_end, observer_stride, wall_clock_budget, cfl):
    """The rules of `evolve`'s arguments, for a start at time t."""
    if not (math.isfinite(t_end) and t_end >= t):
        raise DomainError(f"t_end must be finite and not before the start "
                          f"time {t}, got {t_end}")
    if not _is_integer(observer_stride) or observer_stride < 1:
        raise DomainError("observer_stride must be an integer of at least 1, "
                          f"got {observer_stride!r}")
    if wall_clock_budget is not None and not wall_clock_budget >= 0.0:
        raise DomainError("wall_clock_budget must be nonnegative, got "
                          f"{wall_clock_budget}")
    _check_cfl(cfl, imex=True)


def evolve(state: EvolutionState, grid: Grid1D, spec, t_end: float,
           observer_stride: int = 1, observers=(), cfl: float = 0.4,
           wall_clock_budget: float = None) -> EvolveResult:
    """March the state to t_end, collecting observer records along the way.

    Each step is `step(..., imex=True)` at `stable_dt(..., imex=True)`:
    ARS(2,2,2) with explicit Rusanov convection and implicit viscosity and
    drag, so dt is cfl times the advective bound alone.
    Observers are called with the current state: any NormRecord they return
    is appended to the series (at most one observer should record norms so
    the series stays strictly time-ordered; the others can write snapshots
    or just watch). The step is clipped to land exactly on t_end. The drag
    is implicit, so a fast relaxation never limits stability; a smaller
    cfl resolves it in time. A wall-clock budget in seconds turns an
    overlong run into a truncated result instead of an error (0.0
    truncates at once, inf is no budget). The arguments are checked
    before any observer runs: t_end finite and not before the state's
    time, observer_stride an integer >= 1, wall_clock_budget None or >= 0,
    cfl as `stable_dt(..., imex=True)` takes it; else DomainError naming
    the argument and the value.
    """
    _check_evolve(state.t, t_end, observer_stride, wall_clock_budget, cfl)
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
        dt = min(stable_dt(state, grid, spec, cfl, imex=True),
                 t_end - state.t)
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
    """Write the state as it is held: the cell centers beside the rows of
    U.reshape(4, N), the conserved columns rho, n, mom1 and mom2, which
    read back to the same bits, plus a JSON sidecar with the time t and
    spec_hash. Returns the sidecar's path. The boundary data are the
    profile's, so `initialize` takes them from the profile it resumes
    under."""
    cols = np.column_stack((grid.centers, state.U.reshape(4, -1).T))
    write_csv_rows(path, STATE_HEADER, cols)
    meta_path = _meta_path(path)
    with open(meta_path, "w") as fh:
        json.dump({"t": state.t, "spec_hash": spec_hash}, fh, indent=2)
        fh.write("\n")
    return meta_path


def load_state_csv(path):
    """Read a snapshot back as (x, U, t): the cell centers, the (2, 2, N)
    block of `EvolutionState.U` and the sidecar's time, 0.0 without a
    sidecar. Every value must be finite; else DomainError naming the file,
    the column and the first row that holds one. A header other than
    STATE_HEADER, which an older snapshot of velocities has, raises
    DomainError naming the file. The sidecar must be a JSON object whose
    t, where present, is a finite number; no other key is read."""
    names, table = read_csv_columns(path, "snapshot", STATE_HEADER.__eq__)
    bad = np.argwhere(~np.isfinite(table))
    if len(bad):
        row, col = bad[0]
        raise DomainError(f"{path}: non-finite {names[col]} value "
                          f"{table[row, col]} in data row {row + 1}")
    meta_path = _meta_path(path)
    t = 0.0
    if os.path.exists(meta_path):
        with open(meta_path) as fh:
            try:
                meta = json.load(fh)
            except ValueError as err:
                raise DomainError(f"{meta_path}: {err}") from None
        if not isinstance(meta, dict):
            raise DomainError(f"{meta_path}: expected a JSON object")
        raw = meta.get("t", t)
        try:
            t = float(raw) if type(raw) in (int, float) else math.nan
        except OverflowError:
            t = math.nan
        if not math.isfinite(t):
            raise DomainError(
                f"{meta_path}: t must be a finite number, got {raw!r}")
    U = np.ascontiguousarray(table.T[1:]).reshape(2, 2, -1)
    return table[:, 0], U, t
