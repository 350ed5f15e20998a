"""Steady outflow profiles by eigensystem analysis and projection collocation.

The steady equations integrate once to a 3-dimensional autonomous system for
U = (u_bar, w_bar, v_bar) = (u~ - u_plus, u~_x, v~ - u_plus):

    u_bar_x = w_bar
    w_bar_x = [ m1 (1 - p1'(rho~)/u~^2) w_bar - m2 (1 - u~/v~) ] / mu
    v_bar_x = (v~/m2) [ m1 u_bar + p1(rho~) - p1(rho_plus)
                        + m2 v_bar + p2(n~) - p2(n_plus) - mu w_bar ]

with constant mass fluxes m1 = rho_plus u_plus, m2 = n_plus u_plus and the
densities recovered from them, rho~ = m1/u~, n~ = m2/v~. The far field is the
fixed point U = 0; profiles are trajectories that approach it as x grows and
meet the prescribed boundary velocity at x = 0.

The linearization at the fixed point has one eigenvalue pattern per regime
(two stable directions when supersonic, one when subsonic, and a genuine
center direction at sonic); its eigenpairs, right and left, come from one
LAPACK call. Every regime is solved the same way: one collocation solve on
a truncated interval [0, L] with the boundary velocities at x = 0 and, at
x = L, projection conditions that kill each unstable far-field mode (Lentini
& Keller, SIAM J. Numer. Anal. 1980; Beyn, IMA J. Numer. Anal. 1990). The
regime sets only how many boundary velocities are imposed (and so how many
modes are kept), the initial guess and the decay laws of the start mesh.
The solve gets the closed-form Jacobians of the system and of the linear
boundary rows, so solve_bvp (Kierzenka & Shampine, ACM TOMS 2001)
estimates neither by finite differences; the right-hand side and its
Jacobian share one evaluation of each phase's pressure.

The start mesh equidistributes the collocation error that the
linearization at the far field predicts (Ascher, Mattheij & Russell 1995,
section 9.3): exponential layers off the sonic point, at the rates and
amplitudes of the stable modes, and at sonic the algebraic tail
sigma(x) = delta / (1 + a delta x) with a stable layer at x = 0 and an
unstable one at x = L. solve_bvp then seldom needs a second pass.
"""

import io
import math
import re
import time
from dataclasses import dataclass, field, replace
from itertools import chain

import numpy as np
import scipy.linalg
from scipy.integrate import solve_bvp
from scipy.interpolate import make_interp_spline

from . import model
from .errors import (DomainError, InsufficientDataError, NumericsError,
                     ShootingError, SingularityError)

EXPONENTIAL = "exponential"
ALGEBRAIC = "algebraic"
#: the decay laws that fit_spatial_decay and fit_temporal_decay accept
DECAY_LAWS = (EXPONENTIAL, ALGEBRAIC)

NEG, ZERO, POS = "neg", "zero", "pos"

# bound on steady_residual that acceptance criterion 03 sets and that
# solve_steady refines its output grid to meet off the sonic point
RESIDUAL_BOUND = 1e-6

# eigenvalues with |real part| below this are center directions
ZERO_TOLERANCE = 1e-8
# solve_bvp's tolerance and mesh cap; the cap also bounds the output grid
BVP_TOL = 1e-8
BVP_MAX_NODES = 100_000
# default interval: to where d e^{slow x} is TAIL_FLOOR max(1, |u_plus|)
# off the sonic point, and to where sigma is SIGMA_END at it
TAIL_FLOOR = 1e-12
SIGMA_END = 1e-3
# largest phase-2 boundary miss of a boundary-compatible profile
MATCH_TOLERANCE = 1e-6
# uniform floor of the start mesh density, in nodes per interval
MESH_FLOOR = 80


# no longer raised by the package; bench/tests/test_bench.py still raises it
class _TrialDiverged(Exception):
    pass


# ---------------------------------------------------------------------------
# linear algebra at the far field
# ---------------------------------------------------------------------------

def farfield_jacobian(spec: model.ModelSpec) -> np.ndarray:
    """Closed-form linearization of the steady system at the far field.

    Row 1: (0, 1, 0)
    Row 2: (n+/mu, (rho+ u+^2 - A1 g rho+^g)/(mu u+), -n+/mu)
    Row 3: ((rho+ u+^2 - A1 g rho+^g)/(n+ u+), -mu/n+,
            (n+ u+^2 - A2 al n+^al)/(n+ u+))

    Assembled entrywise, never fitted.
    """
    f, far = spec.fluids, spec.far
    rp, np_, up, mu = far.rho_plus, far.n_plus, far.u_plus, f.mu
    e1 = rp * up ** 2 - f.A1 * f.gamma * rp ** f.gamma
    e2 = np_ * up ** 2 - f.A2 * f.alpha * np_ ** f.alpha
    return np.array([
        [0.0, 1.0, 0.0],
        [np_ / mu, e1 / (mu * up), -np_ / mu],
        [e1 / (np_ * up), -mu / np_, e2 / (np_ * up)],
    ])


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvalues (sorted by real part), eigenvectors, and sign pattern."""

    lambdas: tuple
    vectors: np.ndarray  # columns vectors[:, i] match lambdas[i]
    left: np.ndarray  # columns left[:, i] match lambdas[i]

    sign_pattern = property(lambda self: tuple(
        ZERO if abs(lam.real) < ZERO_TOLERANCE else (NEG if lam.real < 0 else POS)
        for lam in self.lambdas))


def eigensystem(J) -> EigenSystem:
    """Eigen-decomposition of the far-field matrix by LAPACK (geev).

    Eigenvalues are sorted by (real, imaginary) part and the right and left
    eigenvectors are unit-norm columns in that order; a residual
    |J r - lam r| above 1e-8 (relative to max(|J|, 1)) is treated as a
    numerical failure rather than silently returned.
    """
    J = np.asarray(J, dtype=float)
    w, vl, vr = scipy.linalg.eig(J, left=True, right=True)
    order = np.lexsort((w.imag, w.real))
    w, vectors, left = w[order], vr[:, order].astype(complex), vl[:, order]
    # the residual of J / scale, in which no product overflows
    scale = max(np.max(np.abs(J)), 1.0)
    scaled = J / scale
    for lam, r in zip(w, vectors.T):
        res = np.linalg.norm(scaled @ r - (lam / scale) * r)
        if res > 1e-8:
            raise NumericsError(f"relative eigenvector residual {res:.3e} "
                                f"for eigenvalue {lam:.6g}")
    return EigenSystem(tuple(complex(lam) for lam in w), vectors, left)


def _projection_rows(eig, k):
    """Rows ell with ell @ y(L) = 0, one for each far-field mode past the
    first k, that kill it.

    ell is the mode's left eigenvector, orthogonal to the eigenvectors of
    every other eigenvalue, so the rows pin exactly those components of
    y(L). A complex pair (sorted negative imaginary part first) gives the
    real and imaginary parts of the left eigenvector of one member.
    """
    rows = [ell.imag if lam.imag > 0 else ell.real
            for lam, ell in zip(eig.lambdas[k:], eig.left.T[k:])]
    return np.array([r / np.linalg.norm(r) for r in rows]).reshape(-1, 3)


# ---------------------------------------------------------------------------
# the reduced steady system
# ---------------------------------------------------------------------------

def _rhs_params(spec):
    f, far = spec.fluids, spec.far
    return (f.A1, f.A2, f.gamma, f.alpha, f.mu,
            far.rho_plus, far.n_plus, far.u_plus,
            spec.mass_flux_1, spec.mass_flux_2)


def _terms(params, U):
    """The pieces that the right-hand side and its Jacobian share, at a
    (3, m) stack of states: the velocities u~ and v~, the phase-2 density
    n~, both pressures, q1 = p1'(rho~) / u~^2 and the phase-2 bracket. The
    two pressures are the only fractional powers: p'(rho) = gam p / rho and
    rho~ u~ = m1 give q1 = gam p1 / (m1 u~)."""
    A1, A2, gam, alp, mu, rp, np_, up, m1, m2 = params
    u_bar, w_bar, v_bar = U
    ut = up + u_bar
    vt = up + v_bar
    if np.any(ut >= 0.0):
        raise SingularityError(1)
    if np.any(vt >= 0.0):
        raise SingularityError(2)
    nt = m2 / vt
    p1 = A1 * (m1 / ut) ** gam
    p2 = A2 * nt ** alp
    bracket = (m1 * u_bar + (p1 - A1 * rp ** gam)
               + m2 * v_bar + (p2 - A2 * np_ ** alp) - mu * w_bar)
    return ut, vt, nt, p1, p2, gam * p1 / (m1 * ut), bracket


def _rhs_vectorized(params, U):
    """Vectorized right-hand side on a (3, m) stack of states."""
    A1, A2, gam, alp, mu, rp, np_, up, m1, m2 = params
    w_bar = U[1]
    ut, vt, nt, _, _, q1, bracket = _terms(params, U)
    w_dot = (m1 * (1.0 - q1) * w_bar - m2 * (1.0 - ut / vt)) / mu
    return np.vstack((w_bar, w_dot, bracket / nt))


def _rhs_jacobian(params, U):
    """Closed-form Jacobian of _rhs_vectorized on a (3, m) stack of states,
    a (3, 3, m) stack; at U = 0 it is farfield_jacobian.

    With p'(rho) = gam p / rho and rho~ u~ = m1, dp1/du_bar = -gam p1 / u~
    and dq1/du_bar = -(gam + 1) q1 / u~; dp2/dv_bar = -alp p2 / v~.
    """
    A1, A2, gam, alp, mu, rp, np_, up, m1, m2 = params
    ut, vt, nt, p1, p2, q1, bracket = _terms(params, U)
    J = np.zeros((3, 3, U.shape[1]))
    J[0, 1] = 1.0
    J[1, 0] = (m1 * (gam + 1.0) * q1 * U[1] / ut + m2 / vt) / mu
    J[1, 1] = m1 * (1.0 - q1) / mu
    J[1, 2] = -m2 * ut / (mu * vt * vt)
    J[2, 0] = (m1 - gam * p1 / ut) / nt
    J[2, 1] = -mu / nt
    J[2, 2] = (bracket - alp * p2) / m2 + vt
    return J


def sigma_profile(a: float, sigma0: float, x):
    """Exact solution sigma0 / (1 + a sigma0 x) of sigma_x = -a sigma^2."""
    if a <= 0 or sigma0 <= 0:
        raise DomainError("sigma_profile needs a > 0 and sigma0 > 0")
    return sigma0 / (1.0 + a * sigma0 * np.asarray(x, dtype=float))


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolveStats:
    """What one solve_steady call did: the start mesh size, solve_bvp's
    final node count and passes (Newton solves, one per mesh), the output
    grid size, the last steady_residual of the refinement loop (None at
    sonic, where none is taken) and the wall time of the whole call in
    seconds."""

    start_nodes: int
    nodes: int
    passes: int
    points: int
    residual: float | None
    seconds: float


@dataclass(frozen=True)
class SteadyProfile:
    """Discrete steady profile of `spec` on a uniform half-line grid
    starting at 0.

    u_t, v_t are the velocity samples, ux_t and vx_t their first
    derivatives. Everything else follows from these and the spec: the
    densities rho_t and n_t are the mass fluxes over the velocities, so
    they never go stale; delta and the far field are the spec's; the
    boundary velocities the construction realized are u_t[0] and v_t[0].
    v_t[0] can differ from spec.u_minus in the subsonic regime, where the
    admissible boundary set is one-dimensional; boundary_compatible says
    whether it meets it.
    stats records how solve_steady built the profile (None for profiles
    built otherwise, and for delta = 0, which needs no solve); it takes no
    part in comparisons.
    """

    x: np.ndarray
    u_t: np.ndarray
    v_t: np.ndarray
    ux_t: np.ndarray
    vx_t: np.ndarray
    spec: model.ModelSpec
    stats: SolveStats | None = field(default=None, compare=False)

    rho_t = property(lambda self: self.spec.mass_flux_1 / self.u_t)
    n_t = property(lambda self: self.spec.mass_flux_2 / self.v_t)

    @property
    def regime(self) -> model.Regime:
        return model.classify_regime(self.spec)

    @property
    def sigma0(self) -> float:
        """Boundary value of the slow decay scale: delta (meaningful in
        the sonic regime)."""
        return self.spec.delta

    @property
    def boundary_compatible(self) -> bool:
        """Whether v_t[0] meets spec.u_minus to MATCH_TOLERANCE."""
        return bool(abs(self.v_t[0] - self.spec.u_minus) <= MATCH_TOLERANCE)

    def interp(self, x_new):
        """rho~, u~, n~ and v~ linearly interpolated onto new coordinates."""
        return tuple(np.interp(x_new, self.x, c)
                     for c in (self.rho_t, self.u_t, self.n_t, self.v_t))


@dataclass(frozen=True)
class SpatialDecayFit:
    law: str
    rate_or_slope: float
    prefactor: float
    r_squared: float
    window: tuple


@dataclass(frozen=True)
class SteadySolveOptions:
    """x_domain is the profile interval length (None: derived from the
    spec); points is the output grid size before refinement, an integer
    of at least 2."""

    x_domain: float = None
    points: int = 2048

    def __post_init__(self):
        if self.x_domain is not None and not 0.0 < self.x_domain < math.inf:
            raise DomainError("steady x_domain must be finite and positive, "
                              f"got {self.x_domain}")
        if not model._is_integer(self.points) or self.points < 2:
            raise DomainError("steady points must be an integer of at least "
                              f"2, got {self.points!r}")


def _build_profile(spec, x, states):
    u_bar, w_bar, v_bar = states
    # the RHS raises SingularityError unless both velocities are negative;
    # with both mass fluxes negative the recovered densities are then
    # automatically positive
    rhs_values = _rhs_vectorized(_rhs_params(spec), states)
    return SteadyProfile(x=x, u_t=spec.far.u_plus + u_bar,
                         v_t=spec.far.u_plus + v_bar, ux_t=w_bar,
                         vx_t=rhs_values[2], spec=spec)


def _start_mesh(density, x_domain, width):
    """Nodes 0 = x_0 < ... < x_n = x_domain, one per unit of the integral
    of the node density: the inverse of its cumulative integral. The
    integral is taken by the trapezoid rule on an auxiliary grid of 1000
    points on each half of the interval, graded geometrically from spacing
    `width` at the end, so it resolves layers as thin as `width` at either
    end."""
    s = width * np.expm1(np.linspace(0.0, math.log1p(0.5 * x_domain / width),
                                     1000))
    aux = np.concatenate((s, x_domain - s[-2::-1]))
    rho = density(aux)
    cum = np.concatenate(([0.0], np.cumsum(0.5 * (rho[1:] + rho[:-1])
                                           * np.diff(aux))))
    if not math.isfinite(cum[-1]):
        raise DomainError(f"the start mesh on [0, {x_domain:.6g}] would "
                          f"need {cum[-1]} nodes, not a finite count")
    n = min(BVP_MAX_NODES, math.ceil(cum[-1]) + 1)
    return np.interp(np.linspace(0.0, cum[-1], n), cum, aux)


def _solve_small(M, rhs):
    """M^-1 rhs for a 1x1 or 2x2 matrix M, by Cramer's rule. The first
    LAPACK solve in a process pages in about 1 MB of library code (peak
    RSS), which a system of two unknowns does not need."""
    if len(M) == 1:
        return rhs / M[0, 0]
    det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
    return np.array([M[1, 1] * rhs[0] - M[0, 1] * rhs[1],
                     M[0, 0] * rhs[1] - M[1, 0] * rhs[0]]) / det


def _collocate(spec, x_domain, regime):
    """Projection-boundary collocation, one construction for every regime.

    Boundary rows at x = 0 impose u_bar = d, and v_bar = d unless the far
    field is subsonic: there the single stable direction leaves the phase-2
    boundary velocity to the trajectory. For k boundary velocities the
    first k modes of the sorted spectrum are kept: the stable ones and, at
    sonic, the center mode. At x = L each other mode is killed by its left
    eigenvector, which leaves y(L) on the kept subspace. No eigenvalue is
    thresholded, so the rows match the regime at the sonic band's edges too.

    Sonic: the guess is the center asymptotics u_bar = v_bar = -sigma,
    w_bar = a sigma^2 with the closed-form sigma. Otherwise: an interval
    long enough for the slow stable mode to fall to TAIL_FLOOR, with that
    mode's decay as the guess.

    The start mesh equidistributes the error of the fourth-order
    collocation that the linearization at the far field predicts,
    h^4 |y^(5)| = BVP_TOL. That keeps the profile accurate to about
    BVP_TOL, and it leaves the residual that solve_bvp checks, which is
    third order (about 0.006 h^3 |y^(4)| on an interval of length h),
    below BVP_TOL wherever h |lambda| > 0.006, so solve_bvp seldom refines
    the mesh. The node density is (|y^(5)| / BVP_TOL)^(1/4) plus a uniform
    floor of MESH_FLOOR nodes on the interval. The floor bounds the error
    that accumulates along the tail, where the residual is small but
    decays slowly or, at sonic, not at all, and it keeps the spline
    through the nodes accurate relative to the tail that the decay fits
    read. |y^(5)| is the sum of
    - each stable mode's |c_k| |lambda_k|^5 e^{Re lambda_k x}, with the
      amplitudes c_k from the boundary rows at x = 0;
    - at sonic, the algebraic tail, |sigma^(5)| = 120 a^5 sigma^6;
    - at sonic, a layer of the unstable mode at x = L. The center manifold
      is curved, y = -sigma r_0 + sigma^2 q with r_0 = (1, 0, 1) and
      q = a (0, 1, J11 / J10) from the w row of the linearization J, so the
      linear projection rows leave that mode an amplitude of about
      sigma(L)^2 |q|; the same term at x = 0 excites the fast stable mode.

    solve_bvp gets fun_jac = _rhs_jacobian and the constant Jacobians of
    the boundary rows as bc_jac.

    Returns a quintic spline through the collocation nodes, which keeps the
    derivatives that steady_residual's stencils see smooth, the interval
    length L, and the collocation's SolveStats fields: the start mesh size
    and solve_bvp's node count and passes.
    """
    params = _rhs_params(spec)
    d = spec.u_minus - spec.far.u_plus
    delta = spec.delta
    lead = np.eye(3)[[0] if regime.is_subsonic else [0, 2]]
    k = len(lead)
    J = farfield_jacobian(spec)
    eig = eigensystem(J)
    ells = _projection_rows(eig, k)
    lams = np.array(eig.lambdas)
    stable = slice(1 if regime.is_sonic else k)
    if regime.is_sonic:
        if d >= 0.0:
            raise DomainError("sonic profiles decay through u~ < u_plus; "
                              "require u_minus < u_plus")
        a = model.derived_constants(spec).a
        if x_domain is None:
            sigma_end = SIGMA_END if SIGMA_END < delta else 0.1 * delta
            x_domain = (1.0 / sigma_end - 1.0 / delta) / a if a else math.inf
        curve = a * np.array([0.0, 1.0, J[1, 1] / J[1, 0]])
        rhs = d - delta ** 2 * (lead @ curve)
        unstable = lams[2]
        end_weight = (sigma_profile(a, delta, x_domain) ** 2
                      * np.linalg.norm(curve) * abs(unstable) ** 5)

        def sonic_fifth(x):
            return (120.0 * a ** 5 * sigma_profile(a, delta, x) ** 6
                    + end_weight * np.exp(unstable.real * (x - x_domain)))

        def guess(x):
            sig = sigma_profile(a, delta, x)
            return np.vstack((-sig, a * sig * sig, -sig))
    else:
        slow = lams[k - 1].real
        if x_domain is None:
            scale = max(1.0, abs(spec.far.u_plus))
            # a float division overflows to inf; a zero rate has no interval
            x_domain = (math.log(delta / (TAIL_FLOOR * scale))
                        / abs(float(slow)) if slow else math.inf)
        rhs = np.full(k, d)

        def sonic_fifth(x):
            return 0.0

        def guess(x):
            return d * np.exp(slow * x) * np.array([[1.0], [slow], [1.0]])
    if not math.isfinite(x_domain):
        raise DomainError(f"the profile interval length L = {x_domain} is "
                          "not finite")
    amps = _solve_small(lead @ eig.vectors[:, :k], rhs)
    weights = np.abs(amps[stable]) * np.abs(lams[stable]) ** 5
    rates = lams[stable].real

    def density(x):
        fifth = weights @ np.exp(np.outer(rates, x)) + sonic_fifth(x)
        return (fifth / BVP_TOL) ** 0.25 + MESH_FLOOR / x_domain
    x_nodes = _start_mesh(density, x_domain, 1.0 / np.max(np.abs(lams)))

    # the boundary rows are linear, so their Jacobians are constant
    bc_a = np.vstack((lead, np.zeros((len(ells), 3))))
    bc_b = np.vstack((np.zeros((len(lead), 3)), ells))
    sol = solve_bvp(lambda x, y: _rhs_vectorized(params, y),
                    lambda ya, yb: np.concatenate((lead @ ya - d, ells @ yb)),
                    x_nodes, guess(x_nodes),
                    fun_jac=lambda x, y: _rhs_jacobian(params, y),
                    bc_jac=lambda ya, yb: (bc_a, bc_b),
                    tol=BVP_TOL, max_nodes=BVP_MAX_NODES)
    if not sol.success:
        raise ShootingError(f"collocation failed: {sol.message}",
                            residual=float(np.max(sol.rms_residuals)))
    counts = {"start_nodes": len(x_nodes), "nodes": len(sol.x),
              "passes": sol.niter}
    return make_interp_spline(sol.x, sol.y, k=5, axis=1), x_domain, counts


def solve_steady(spec: model.ModelSpec,
                 options: SteadySolveOptions = None) -> SteadyProfile:
    """Construct the steady profile meeting u(0) = v(0) = u_minus.

    Every regime is one projection-boundary collocation solve (see
    _collocate) in model.classify_regime's regime, sampled on a uniform grid
    of `points` nodes. Supersonic and sonic: both boundary velocities are
    imposed.
    Subsonic: only u(0) is; the phase-2 boundary velocity is then determined
    by the trajectory and reported as v_t[0] and boundary_compatible
    instead of being enforced.
    Off the sonic point the grid is refined past `points` (up to
    BVP_MAX_NODES) until steady_residual, a fourth-order stencil
    truncation error, is at most RESIDUAL_BOUND; a stiff boundary layer
    needs more nodes than `points` to resolve.

    Every delta is accepted: the result is a profile that met these
    checks, or a SingularityError (a velocity reached zero), a
    ShootingError (no convergence, a far-field miss, or a residual still
    above RESIDUAL_BOUND at BVP_MAX_NODES) or a DomainError (also when the
    interval or the start mesh would not be finite; NumericsError only for
    far-field pressure laws near the binary64 range).
    """
    started = time.perf_counter()
    opts = options or SteadySolveOptions()
    far, delta = spec.far, spec.delta
    if delta == 0.0:
        x_domain = opts.x_domain if opts.x_domain is not None else 20.0
        x = np.linspace(0.0, x_domain, opts.points)
        zero = np.zeros_like(x)
        return SteadyProfile(x=x, u_t=np.full_like(x, far.u_plus),
                             v_t=np.full_like(x, far.u_plus), ux_t=zero,
                             vx_t=zero.copy(), spec=spec)

    regime = model.classify_regime(spec)
    spline, x_domain, counts = _collocate(spec, opts.x_domain, regime)

    def sample(n):
        x = np.linspace(0.0, x_domain, n)
        return _build_profile(spec, x, spline(x))

    # off the sonic point steady_residual certifies the grid, and its
    # stencils need 6 nodes
    n = opts.points if regime.is_sonic else max(opts.points, 6)
    profile = sample(n)

    if regime.is_sonic:
        tol = 3.0 * sigma_profile(model.derived_constants(spec).a,
                                  delta, x_domain)
    else:
        tol = max(1e-8 * max(1.0, abs(far.u_plus)), 100.0 * TAIL_FLOOR)
    # the gaps in velocity units: the mass fluxes give, to first order,
    # |rho~ - rho_plus| = (rho_plus / |u_plus|) |u~ - u_plus|, and the
    # same for n~; the end densities are m / u_t[-1], without the columns
    speed = abs(far.u_plus)
    end_gap = max(abs(spec.mass_flux_1 / profile.u_t[-1] - far.rho_plus)
                  * speed / far.rho_plus,
                  abs(profile.u_t[-1] - far.u_plus),
                  abs(spec.mass_flux_2 / profile.v_t[-1] - far.n_plus)
                  * speed / far.n_plus,
                  abs(profile.v_t[-1] - far.u_plus))
    if end_gap > tol:
        raise ShootingError(
            f"far-field convergence failed: end gap {end_gap:.3e} > {tol:.3e}")
    res = None if regime.is_sonic else steady_residual(spec, profile)
    while res is not None and res > RESIDUAL_BOUND:
        if n >= BVP_MAX_NODES:
            raise ShootingError(
                f"steady residual above {RESIDUAL_BOUND:.0e} on {n} "
                "points, the node cap", residual=res)
        # size the next grid from the fourth-order error scaling, with a
        # 10% margin, and at least halve the node spacing
        n = min(BVP_MAX_NODES,
                max(2 * n - 1, 1 + math.ceil(
                    (n - 1) * 1.1 * (res / RESIDUAL_BOUND) ** 0.25)))
        profile = sample(n)
        res = steady_residual(spec, profile)
    return replace(profile, stats=SolveStats(
        **counts, points=n, residual=res,
        seconds=time.perf_counter() - started))


# ---------------------------------------------------------------------------
# residual and decay diagnostics
# ---------------------------------------------------------------------------

# integer numerators, division by 12 dx deferred so that stencils of a
# constant cancel exactly
_D1_EDGE = np.array([
    [-25.0, 48.0, -36.0, 16.0, -3.0],
    [-3.0, -10.0, 18.0, -6.0, 1.0],
])

def _deriv1(f, dx):
    """Fourth-order first derivative: 5-point centered stencil inside,
    one-sided variants on the two cells nearest each end."""
    f = np.asarray(f, dtype=float)
    out = np.empty_like(f)
    out[2:-2] = f[:-4] - 8.0 * f[1:-3] + 8.0 * f[3:-1] - f[4:]
    out[0] = _D1_EDGE[0] @ f[:5]
    out[1] = _D1_EDGE[1] @ f[:5]
    out[-1] = -(_D1_EDGE[0] @ f[-1:-6:-1])
    out[-2] = -(_D1_EDGE[1] @ f[-1:-6:-1])
    return out / (12.0 * dx)


def steady_residual(spec: model.ModelSpec, profile: SteadyProfile) -> float:
    """Max pointwise residual of the two steady momentum balances.

    Fluxes are differentiated with a fourth-order centered stencil
    (one-sided at the endpoints). Both viscous terms differentiate a stored
    derivative column once, ux_t and vx_t, since the construction provides
    those columns exactly and u_t, v_t are still pinned through the flux and
    drag terms. A second difference of u_t would amplify its rounding,
    about eps |u_plus|, by the one-sided stencil's 640 / (12 dx^2): at
    |u_plus| = 16 and dx = 1.8e-4 that alone reaches RESIDUAL_BOUND, so no
    grid would certify an exact profile. The mass equations hold exactly by
    construction and are checked separately through the mass-flux identity.
    """
    if len(profile.x) < 6:
        raise InsufficientDataError("need at least 6 grid points for the stencils")
    f = spec.fluids
    dx = float(profile.x[1] - profile.x[0])
    m1, m2 = spec.mass_flux_1, spec.mass_flux_2
    n_t = profile.n_t
    p1 = f.A1 * profile.rho_t ** f.gamma
    p2 = f.A2 * n_t ** f.alpha
    drag = n_t * (profile.v_t - profile.u_t)
    res1 = (_deriv1(m1 * profile.u_t + p1, dx)
            - f.mu * _deriv1(profile.ux_t, dx) - drag)
    res2 = (_deriv1(m2 * profile.v_t + p2, dx)
            - _deriv1(n_t * profile.vx_t, dx) + drag)
    return float(max(np.max(np.abs(res1)), np.max(np.abs(res2))))


# far-field limits; the profile holds each but the last as <quantity>_t
_FARFIELD_LIMITS = {
    "rho": lambda far: far.rho_plus,
    "u": lambda far: far.u_plus,
    "n": lambda far: far.n_plus,
    "v": lambda far: far.u_plus,
    "ux": lambda far: 0.0,
    "vx": lambda far: 0.0,
    "ux_over_sigma2": lambda far: 0.0,
}


def _log_linear_fit(abscissa, values):
    """Least-squares line through (abscissa, log values): the slope, the
    intercept and the R^2 of the fit (1 when log values are constant)."""
    logv = np.log(values)
    slope, intercept = np.polyfit(abscissa, logv, 1)
    fitted = slope * abscissa + intercept
    ss_res = float(np.sum((logv - fitted) ** 2))
    ss_tot = float(np.sum((logv - logv.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return slope, intercept, r2


def fit_spatial_decay(profile: SteadyProfile, quantity: str, law: str,
                      window: tuple) -> SpatialDecayFit:
    """Least-squares decay fit of |q(x) - q_inf| on a window.

    Exponential law regresses log|q - q_inf| on x (rate_or_slope is the decay
    rate, positive for decay); algebraic law regresses on log(1 + delta x)
    (rate_or_slope is the power, about -1 for the leading sonic deviation).
    quantity "ux_over_sigma2" divides u~_x by the closed-form sigma^2, whose
    algebraic fit has slope about 0 and prefactor about the curvature
    constant, with sigma's a and sigma0 the spec's curvature constant and
    delta.
    """
    if quantity not in _FARFIELD_LIMITS:
        raise DomainError(f"unknown quantity {quantity!r}")
    if law not in DECAY_LAWS:
        raise DomainError(f"unknown law {law!r}")
    x = profile.x
    if quantity == "ux_over_sigma2":
        sigma = sigma_profile(model.derived_constants(profile.spec).a,
                              profile.spec.delta, x)
        q = profile.ux_t / sigma ** 2
    else:
        q = getattr(profile, f"{quantity}_t")
    x_lo, x_hi = window
    mask = (x >= x_lo) & (x <= x_hi)
    if int(mask.sum()) < 8:
        raise InsufficientDataError(
            f"decay window [{x_lo:.6g}, {x_hi:.6g}] holds only "
            f"{int(mask.sum())} samples (need 8)")
    dev = np.abs(q[mask] - _FARFIELD_LIMITS[quantity](profile.spec.far))
    if np.any(dev <= 0.0):
        raise DomainError("quantity touches its far-field limit inside the window")
    exponential = law == EXPONENTIAL
    abscissa = (x[mask] if exponential
                else np.log1p(profile.spec.delta * x[mask]))
    slope, intercept, r2 = _log_linear_fit(abscissa, dev)
    rate = -slope if exponential else slope
    return SpatialDecayFit(law=law, rate_or_slope=float(rate),
                           prefactor=float(np.exp(intercept)),
                           r_squared=float(r2), window=(x_lo, x_hi))


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

PROFILE_HEADER = "x,rho_t,u_t,n_t,v_t,ux_t,vx_t"


def write_csv_rows(path, header, cols):
    """Write a CSV file: the header line, then the rows of the 2-D float
    array cols as lines of shortest round-trip decimals. Each value is
    the fewest significant digits that read back to its bits, as orjson
    (Ryu; Adams, PLDI 2018) spells a float64, so 0.1 is "0.1", 1e-05 is
    "0.00001" and an integral value keeps its ".0". NaN, inf and -inf are
    written "nan", "inf" and "-inf", which numpy.loadtxt reads back. One
    orjson call formats the whole array; the profile, state and
    norm-series writers all use it."""
    # imported here: it loads json, uuid and zoneinfo, 0.4 MB that a
    # process doing no CSV I/O does not need
    import orjson

    cols = np.ascontiguousarray(cols, dtype=np.float64)
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        if not cols.size:
            return
        text = orjson.dumps(cols, option=orjson.OPT_SERIALIZE_NUMPY)
        text = text[2:-2].replace(b"],[", b"\n")
        values = cols.ravel()
        bad = np.flatnonzero(~np.isfinite(values))
        if len(bad):
            # orjson writes each non-finite value as null, in row-major order
            spelled = [b"nan" if math.isnan(v) else b"inf" if v > 0
                       else b"-inf" for v in values[bad].tolist()]
            text = b"".join(chain.from_iterable(
                zip(text.split(b"null"), spelled + [b""])))
        fh.write(text)
        fh.write(b"\n")


# the bytes a body of plain decimal numbers, commas and whitespace holds
_NUMBER_BYTES = b"0123456789.,eE+- \t\r\n"
# a bare -0, which JSON reads as the integer 0 and so loses its sign
_BARE_MINUS_ZERO = re.compile(rb"-0(?![0-9.eE])")


def _parse_numbers(body):
    """The body as a 2-D float64 array if orjson reads it as one, else
    None. Only plain decimals get here; a bare -0 does not, and neither
    does any byte that is not part of a number, a comma or whitespace."""
    import orjson

    raw = body.encode()
    if raw.translate(None, _NUMBER_BYTES) or _BARE_MINUS_ZERO.search(raw):
        return None
    try:
        data = np.array(orjson.loads(
            b"[[" + raw.rstrip(b"\n").replace(b"\n", b"],[") + b"]]"),
            dtype=np.float64)
    except ValueError:  # orjson.JSONDecodeError, ragged rows
        return None
    return data if data.ndim == 2 and data.size else None


def read_csv_columns(path, kind, accepts):
    """A CSV file as its column names, in header order, and one (rows,
    columns) float64 table. The body reads as numpy.loadtxt(delimiter=",")
    reads it, bit for bit; a body of plain decimals (all that
    write_csv_rows writes, bar non-finite values) goes through orjson,
    about 2x faster, and anything else through loadtxt itself. A header
    alone gives a table of no rows. A header that names a column twice or
    that accepts(header) rejects, a value that does not parse or a row of
    another width raises DomainError naming the file."""
    with open(path) as fh:
        header = fh.readline().strip()
        names = header.split(",")
        for i, name in enumerate(names):
            if name in names[:i]:
                raise DomainError(
                    f"{path}: {kind} header names column {name!r} twice")
        if not accepts(header):
            raise DomainError(f"{path}: unexpected {kind} header {header!r}")
        body = fh.read()
    data = (np.empty((0, len(names))) if not body.strip("\n")
            else _parse_numbers(body))
    if data is None:
        try:
            data = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
        except ValueError as err:
            raise DomainError(f"{path}: {err}") from None
    if data.size and data.shape[1] != len(names):
        raise DomainError(f"{path}: rows hold {data.shape[1]} values, the "
                          f"header names {len(names)}")
    return names, data.reshape(-1, len(names))


def save_profile_csv(profile: SteadyProfile, path):
    cols = np.column_stack([getattr(profile, name)
                            for name in PROFILE_HEADER.split(",")])
    write_csv_rows(path, PROFILE_HEADER, cols)


def load_profile_csv(path):
    """Read a profile CSV back as a dict of named columns."""
    names, table = read_csv_columns(path, "profile", PROFILE_HEADER.__eq__)
    return dict(zip(names, table.T))
