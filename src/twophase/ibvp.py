"""Finite-volume evolution of the time-dependent system on a truncated
half-line.

The semi-discrete scheme is first order and deliberately plain: Rusanov
fluxes, pointwise drag, and for both viscous terms one face-flux form
D(kappa D w), kappa = mu or the face density of phase 2. One kernel
evaluates it for both steppers on a stacked block: the conserved variables,
all that an `EvolutionState` stores (its velocities are derived from them),
form one (2, 2, N) array ((rho, n), (m1, m2)), padded into a (2, 2(N+2))
array whose rows hold phase 1's padded cells followed by phase 2's, so
each pad, flux and difference runs once over both phases.
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
The left ghost cell prescribes the outflow velocities, the right ghost
continues the steady profile past the truncation point so that a converged
profile is (up to truncation error) a fixed point of the semi-discrete
scheme and of both steppers.
"""

import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgError, solveh_banded

from .diagnostics import NormSeries
from .errors import BlowUpError, DomainError, VacuumError
from .steady import SteadyProfile, read_csv_columns, write_csv_rows

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
            raise DomainError(f"unknown perturbation shape {self.shape!r}")
        for name in ("amplitude", "center", "width"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"perturbation {name} must be finite, "
                                  f"got {getattr(self, name)}")
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
    """Cell-averaged densities and momenta; u and v are derived from them.

    u_bc and v_bc are the outflow velocities the left ghost enforces;
    right_ghost holds (rho, u, n, v) of the steady profile continued one
    half-cell past x = length.
    """

    t: float
    rho: np.ndarray
    n: np.ndarray
    mom1: np.ndarray
    mom2: np.ndarray
    u_bc: float
    v_bc: float
    right_ghost: tuple
    # the (2, 2, N) block that `step` returned rho, n, mom1 and mom2 as rows
    # of; not an init argument, so a state built or replaced by a caller
    # carries none
    _stack: np.ndarray = field(default=None, init=False, repr=False,
                               compare=False)

    @property
    def u(self):
        return self.mom1 / self.rho

    @property
    def v(self):
        return self.mom2 / self.n


def initialize(profile: SteadyProfile, grid: Grid1D,
               pert: PerturbationSpec) -> EvolutionState:
    """Steady profile interpolated to the cell centers plus a perturbation,
    or a snapshot read back, as the state of its densities and momenta."""
    if grid.length > profile.x[-1] * (1.0 + 1e-12):
        raise DomainError(
            f"grid length {grid.length:.6g} exceeds the profile domain "
            f"{profile.x[-1]:.6g}")
    right_ghost = tuple(float(g) for g in
                        profile.interp(grid.length + 0.5 * grid.dx))
    u_bc, v_bc = float(profile.u_t[0]), float(profile.v_t[0])
    if pert.shape == FROM_FILE:
        x, cols, meta = load_state_csv(pert.path)
        if not np.array_equal(x, grid.centers):
            raise DomainError(
                f"{pert.path}: the snapshot's {x.size} cell centers differ "
                f"from the grid's {grid.cells}")
        rho0, u0, n0, v0 = cols["rho"], cols["u"], cols["n"], cols["v"]
        t0 = meta.get("t", 0.0)
        u_bc = meta.get("u_bc", u_bc)
        v_bc = meta.get("v_bc", v_bc)
        right_ghost = meta.get("right_ghost", right_ghost)
    else:
        vals = perturbation_values(pert, grid.centers)
        rho0, u0, n0, v0 = (col + vals[c] for c, col in
                            zip(_COMPONENTS, profile.interp(grid.centers)))
        t0 = 0.0
    for phase, dens in ((1, rho0), (2, n0)):
        low = np.nonzero(dens <= DENSITY_FLOOR)[0]
        if low.size:
            raise DomainError(
                f"initial phase-{phase} density at or below the floor "
                f"at cell {int(low[0])}; perturbation rejected")
    return EvolutionState(t=t0, rho=rho0, n=n0, mom1=rho0 * u0,
                          mom2=n0 * v0, u_bc=u_bc, v_bc=v_bc,
                          right_ghost=right_ghost)


def _sound_speed(coef, expo, dens):
    """sqrt(p'(dens)) for p = coef dens^expo; a float for an isothermal
    phase, where pow(x, 0) = 1 exactly makes the constant sqrt(coef) the
    same bits as the power."""
    if expo == 1.0:
        return math.sqrt(coef * expo)
    return np.sqrt(coef * expo * dens ** (expo - 1.0))


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
    if not 0.0 < cfl < 1.0:
        raise DomainError(f"cfl must lie in (0, 1), got {cfl}")
    if not imex and cfl > 0.5:
        raise DomainError(f"the Heun step needs cfl <= 0.5, got {cfl}")
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

def _block(state):
    """The conserved variables as one (2, 2, N) block ((rho, n), (m1, m2)):
    the block that `step` returned them as rows of while they still are its
    rows, else a copy. Neither stepper writes into the block it starts
    from."""
    U = state._stack
    if (U is not None and state.rho.base is U and state.n.base is U
            and state.mom1.base is U and state.mom2.base is U):
        return U
    return np.array(((state.rho, state.n), (state.mom1, state.mom2)))


def _ghost_cells(dens, u_bc, v_bc, right_ghost):
    """The ghost cells of a block with densities dens, as a (2, 2, 2) array
    ((densities, momenta), phase, (left, right)). The left ghost copies the
    first cell's densities and carries the prescribed outflow velocities;
    the right ghost is the frozen profile continuation."""
    g_rho, g_u, g_n, g_v = right_ghost
    rho_0, n_0 = dens[:, 0].tolist()
    return np.array((((rho_0, g_rho), (n_0, g_n)),
                     ((rho_0 * u_bc, g_rho * g_u), (n_0 * v_bc, g_n * g_v))))


def _pad(rows, ghosts):
    """The rows with their ghost cells at both ends: rows (..., N) and
    ghosts (..., 2) make one (..., N+2) array."""
    P = np.empty(rows.shape[:-1] + (rows.shape[-1] + 2,))
    P[..., 1:-1] = rows
    P[..., ::rows.shape[-1] + 1] = ghosts
    return P


def _ghosted(U, u_bc, v_bc, right_ghost):
    """The block with one ghost cell on each side of each phase, laid out
    as one (2, 2(N+2)) array: row 0 the densities, row 1 the momenta, each
    row phase 1's padded cells followed by phase 2's. Returns it with its
    velocities; the ghost cells are those of `_ghost_cells`."""
    P = _pad(U, _ghost_cells(U[0], u_bc, v_bc, right_ghost)).reshape(2, -1)
    return P, P[1] / P[0]


def _convection(P, vel, f, dx):
    """Rusanov flux differences of the ghosted block, as a (2, 2, N) block
    of rates. Every operation runs once over both phases; the one interface
    between phase 1's right ghost and phase 2's left ghost mixes the phases
    and its flux is discarded."""
    dens, mom = P
    half = dens.size // 2
    flux = np.empty_like(P)  # the physical fluxes (m, m u + p)
    flux[0] = mom
    np.multiply(mom, vel, out=flux[1])
    speed = np.abs(vel)
    for cells, coef, expo in ((slice(None, half), f.A1, f.gamma),
                              (slice(half, None), f.A2, f.alpha)):
        # an isothermal phase skips the power: pow(x, 1) = x exactly
        flux[1, cells] += (coef * dens[cells] if expo == 1.0
                           else coef * dens[cells] ** expo)
        speed[cells] += _sound_speed(coef, expo, dens[cells])
    a = np.maximum(speed[:-1], speed[1:])
    num = flux[:, :-1] + flux[:, 1:]
    num *= 0.5
    jump = P[:, 1:] - P[:, :-1]
    jump *= 0.5 * a
    num -= jump
    # the flux differences reuse the physical fluxes' buffer; x / (-dx) is
    # -(x / dx) bit for bit, signed zeros included
    rates = np.subtract(num[:, 1:], num[:, :-1], out=flux[:, :-2])
    rates /= -dx
    return flux.reshape(2, 2, half)[:, :, :half - 2]


def _faces(n_p, mu):
    """The (2, N+1) viscous coefficients on the faces of the padded phase-2
    densities n_p: mu for phase 1, the face density 0.5 (n_i + n_{i+1})
    for phase 2."""
    kappa = np.full((2, n_p.size - 1), mu, dtype=float)
    np.multiply(n_p[:-1] + n_p[1:], 0.5, out=kappa[1])
    return kappa


def _viscosity_drag(P, vel, mu, dx):
    """The viscous terms D(kappa D w), mu u_xx and (n v_x)_x, as a (2, N)
    block, and the drag n (v - u) per cell, which enters the phase-1
    momentum with a plus sign and the phase-2 one with a minus."""
    w = vel.reshape(2, -1)
    flux = _faces(P[0, w.shape[1]:], mu) * ((w[:, 1:] - w[:, :-1]) / dx)
    visc = (flux[:, 1:] - flux[:, :-1]) / dx
    drag = P[0, w.shape[1] + 1:-1] * (w[1, 1:-1] - w[0, 1:-1])
    return visc, drag


# non-finite values propagate silently; the stage checks abort on them
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _rates(U, spec, dx, u_bc, v_bc, right_ghost):
    """Semi-discrete right-hand side of the block: the convective part plus
    the viscous and drag terms."""
    P, vel = _ghosted(U, u_bc, v_bc, right_ghost)
    rates = _convection(P, vel, spec.fluids, dx)
    visc, drag = _viscosity_drag(P, vel, spec.fluids.mu, dx)
    # (convection + viscosity) + drag: the order of the sums fixes the bits
    # of the Heun reference
    rates[1] += visc
    rates[1, 0] += drag
    rates[1, 1] -= drag
    return rates


def _check(U, t):
    """Abort on a non-finite entry (BlowUpError) or a density at or below
    the floor (VacuumError naming the first such phase and cell)."""
    finite = np.isfinite(U).all()
    if finite and U[0].min() > DENSITY_FLOOR:
        return
    if not finite:
        raise BlowUpError(t)
    for phase in (0, 1):
        low = np.nonzero(U[0, phase] <= DENSITY_FLOOR)[0]
        if low.size:
            raise VacuumError(phase + 1, int(low[0]), t)


def _with_block(state, t, U):
    """The state at time t whose conserved arrays are the rows of U."""
    new = EvolutionState(t=t, rho=U[0, 0], n=U[0, 1], mom1=U[1, 0],
                         mom2=U[1, 1], u_bc=state.u_bc, v_bc=state.v_bc,
                         right_ghost=state.right_ghost)
    object.__setattr__(new, "_stack", U)
    return new


def _forward_euler(U, state, grid, spec, dt):
    """U + dt R(U) with the state's boundary data, checked at t + dt."""
    bc = (state.u_bc, state.v_bc, state.right_ghost)
    U1 = U + dt * _rates(U, spec, grid.dx, *bc)
    _check(U1, state.t + dt)
    return U1


def step(state: EvolutionState, grid: Grid1D, spec, dt: float,
         imex: bool = False) -> EvolutionState:
    """One step of the full right-hand side; aborts loudly on blow-up or
    vacuum. By default this is the explicit SSP-RK2 (Heun) reference scheme,
    stable up to `stable_dt`. imex=True takes one ARS(2,2,2) step instead,
    stable up to `stable_dt(..., imex=True)`; `evolve` marches with it.
    The returned state's four arrays are the rows of one (2, 2, N) block."""
    if dt <= 0.0:
        raise DomainError("step needs dt > 0")
    if imex:
        return _imex_step(state, grid, spec, dt)
    t = state.t + dt
    bc = (state.u_bc, state.v_bc, state.right_ghost)
    U0 = _block(state)
    U1 = _forward_euler(U0, state, grid, spec, dt)
    U = 0.5 * (U0 + U1 + dt * _rates(U1, spec, grid.dx, *bc))
    _check(U, t)
    return _with_block(state, t, U)


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
    the solves read only the ghosted densities and the ghost velocities."""
    t = state.t + dt
    h = IMEX_GAMMA * dt
    f, dx = spec.fluids, grid.dx
    bc = (state.u_bc, state.v_bc, state.right_ghost)
    U0 = _block(state)
    Fa = _convection(*_ghosted(U0, *bc), f, dx)
    # densities of the middle stage, then its momenta's right-hand sides
    U = U0 + h * Fa
    _check(U, t)
    ghosts = _ghost_cells(U[0], *bc)
    P = _pad(U, ghosts)
    M = _implicit_momenta(P[0], ghosts[1] / ghosts[0], U[1], h, f.mu, dx, t)
    P[1, :, 1:-1] = M
    P = P.reshape(2, -1)
    Fb = _convection(P, P[1] / P[0], f, dx)
    # the solved momenta become G of the middle stage in place
    M -= U[1]
    M /= h
    # the last stage; rebinding U and P frees the middle stage's arrays
    U = U0 + IMEX_DELTA * dt * Fa
    U += (1.0 - IMEX_DELTA) * dt * Fb
    U[1] += (dt - h) * M
    _check(U, t)
    ghosts = _ghost_cells(U[0], *bc)
    U[1] = _implicit_momenta(_pad(U[0], ghosts[0]), ghosts[1] / ghosts[0],
                             U[1], h, f.mu, dx, t)
    _check(U, t)
    return _with_block(state, t, U)


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
    overlong run into a truncated result instead of an error.
    """
    if not math.isfinite(t_end):
        raise DomainError(f"t_end must be finite, got {t_end}")
    if t_end < state.t:
        raise DomainError("t_end lies before the state time")
    if observer_stride < 1:
        raise DomainError("observer_stride must be a positive integer")
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


def _finite_numbers(value, count, name):
    """value as a float (count 1) or a tuple of count floats, if it is
    that many finite JSON numbers; else DomainError naming it."""
    items = value if count > 1 and isinstance(value, list) else [value]
    try:
        nums = tuple(float(v) for v in items if type(v) in (int, float))
    except OverflowError:
        nums = ()
    if not (len(items) == len(nums) == count
            and all(map(math.isfinite, nums))):
        want = "a finite number" if count == 1 else f"{count} finite numbers"
        raise DomainError(f"{name} must be {want}, got {value!r}")
    return nums[0] if count == 1 else nums


def load_state_csv(path):
    """Read a snapshot back: coordinates, primitive columns, metadata dict.
    Every value must be finite; else DomainError naming the file, the
    column and the first row that holds one. The sidecar's resume fields,
    where present, come back checked: t, u_bc and v_bc as finite floats,
    right_ghost as a tuple of four."""
    cols = read_csv_columns(path, "snapshot", STATE_HEADER.__eq__)
    names = list(cols)
    table = np.column_stack([cols[name] for name in names])
    bad = np.argwhere(~np.isfinite(table))
    if len(bad):
        row, col = bad[0]
        raise DomainError(f"{path}: non-finite {names[col]} value "
                          f"{table[row, col]} in data row {row + 1}")
    meta_path = _meta_path(path)
    meta = {}
    if os.path.exists(meta_path):
        with open(meta_path) as fh:
            try:
                meta = json.load(fh)
            except ValueError as err:
                raise DomainError(f"{meta_path}: {err}") from None
        if not isinstance(meta, dict):
            raise DomainError(f"{meta_path}: expected a JSON object")
        for key, count in (("t", 1), ("u_bc", 1), ("v_bc", 1),
                           ("right_ghost", 4)):
            if key in meta:
                meta[key] = _finite_numbers(meta[key], count,
                                            f"{meta_path}: {key}")
    return cols.pop("x"), cols, meta
