"""Physical parameters and the closed-form scalar quantities of the model.

Two barotropic phases on the half-line x > 0 share the velocity u_+ < 0 at
the far field. Pressures are power laws

    p1(rho) = A1 * rho**gamma,     p2(n) = A2 * n**alpha,

with A1, A2 > 0 and gamma, alpha >= 1. Phase 1 carries a constant viscosity
mu > 0, phase 2 a density-proportional one. Everything here is a pure
function of the parameter set; no state, no arrays.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import DomainError

SUPERSONIC = "supersonic"
SONIC = "sonic"
SUBSONIC = "subsonic"

#: half-width of the sonic band in Mach number
SONIC_TOLERANCE = 1e-9


@dataclass(frozen=True)
class FluidConstants:
    """Pressure-law coefficients and exponents plus the phase-1 viscosity."""

    A1: float
    A2: float
    gamma: float
    alpha: float
    mu: float

    def __post_init__(self):
        if not (self.A1 > 0 and self.A2 > 0 and self.mu > 0):
            raise DomainError("pressure coefficients and viscosity must be positive")
        if not (self.gamma >= 1 and self.alpha >= 1):
            raise DomainError("adiabatic exponents must be >= 1")


@dataclass(frozen=True)
class FarFieldState:
    """End state (rho_plus, u_plus, n_plus, u_plus) at x -> infinity."""

    rho_plus: float
    n_plus: float
    u_plus: float

    def __post_init__(self):
        if not (self.rho_plus > 0 and self.n_plus > 0):
            raise DomainError("far-field densities must be positive")
        if not self.u_plus < 0:
            raise DomainError("far-field velocity must be negative (outflow)")


@dataclass(frozen=True)
class ModelSpec:
    """Complete parameter set: fluids, far field, and boundary velocity u_minus.

    delta = |u_minus - u_plus| is always recomputed from the stored
    velocities so it can never go stale.
    """

    fluids: FluidConstants
    far: FarFieldState
    u_minus: float

    def __post_init__(self):
        if not self.u_minus < 0:
            raise DomainError("boundary velocity u_minus must be negative (outflow)")
        # every far-field quantity (sound speed, Jacobian, a) is built from
        # A g density^g; binary64 must hold it as a positive finite number
        f, far = self.fluids, self.far
        for name, A, g, density in (("rho_plus", f.A1, f.gamma, far.rho_plus),
                                    ("n_plus", f.A2, f.alpha, far.n_plus)):
            try:
                law = A * g * float(density) ** g
            except OverflowError:
                law = math.inf
            if not 0.0 < law < math.inf:
                raise DomainError(
                    f"{name}={density:.6g}: the far-field pressure law "
                    f"A g {name}^g = {law:.3g} is not a positive finite "
                    "binary64 number")

    @property
    def delta(self):
        return abs(self.u_minus - self.far.u_plus)

    # signed mass fluxes rho~ u~ and n~ v~, constant along any steady profile
    @property
    def mass_flux_1(self):
        return self.far.rho_plus * self.far.u_plus

    @property
    def mass_flux_2(self):
        return self.far.n_plus * self.far.u_plus


@dataclass(frozen=True)
class Regime:
    """Far-field Mach number and its classification."""

    mach: float
    label: str

    @property
    def is_supersonic(self):
        return self.label == SUPERSONIC

    @property
    def is_sonic(self):
        return self.label == SONIC

    @property
    def is_subsonic(self):
        return self.label == SUBSONIC


@dataclass(frozen=True)
class DerivedConstants:
    """Sound speed plus the center-manifold constants (c_plus, a, b, lambda_star).

    b is stored as a magnitude: every downstream use (a, lambda_star, the
    weighted-estimate matrices) depends on b only through b**2, and the sign
    of the defining ratio is not otherwise meaningful here.
    lambda_star = 2 + sqrt(8 + 1/(1+b^2)) lies in (2+sqrt(8), 5], hitting 5
    exactly when b = 0.
    """

    c_plus: float
    a: float
    b: float
    lambda_star: float


class SonicConditionResult(NamedTuple):
    holds: bool
    margin: float


def pressure(fluids: FluidConstants, density: float, phase: int) -> float:
    """Power-law pressure of one phase: A * density**exponent."""
    if density <= 0:
        raise DomainError(f"nonpositive density {density} in pressure")
    if phase == 1:
        return fluids.A1 * density ** fluids.gamma
    if phase == 2:
        return fluids.A2 * density ** fluids.alpha
    raise DomainError(f"phase must be 1 or 2, got {phase}")


def pressure_derivative(fluids: FluidConstants, density: float, phase: int) -> float:
    """dp/d(density) = A * g * density**(g-1); the squared phase sound speed."""
    if density <= 0:
        raise DomainError(f"nonpositive density {density} in pressure_derivative")
    if phase == 1:
        return fluids.A1 * fluids.gamma * density ** (fluids.gamma - 1.0)
    if phase == 2:
        return fluids.A2 * fluids.alpha * density ** (fluids.alpha - 1.0)
    raise DomainError(f"phase must be 1 or 2, got {phase}")


def sound_speed(spec: ModelSpec) -> float:
    """Mixture sound speed at the far field.

    c_plus = sqrt((A1 gamma rho_plus^gamma + A2 alpha n_plus^alpha)
                  / (rho_plus + n_plus))
    """
    return -sonic_velocity(spec.fluids, spec.far.rho_plus, spec.far.n_plus)


def sonic_velocity(fluids: FluidConstants, rho_plus: float, n_plus: float) -> float:
    """The u_plus that makes a far field exactly sonic: -c_plus.

    c_plus does not depend on u_plus, so exact sonic specs are constructed
    by plugging this value in.
    """
    num = (fluids.A1 * fluids.gamma * rho_plus ** fluids.gamma
           + fluids.A2 * fluids.alpha * n_plus ** fluids.alpha)
    return -math.sqrt(num / (rho_plus + n_plus))


def classify_regime(spec: ModelSpec) -> Regime:
    """Mach number M = |u_plus|/c_plus, classified against the sonic band.

    supersonic iff M > 1 + SONIC_TOLERANCE, sonic iff
    |M - 1| <= SONIC_TOLERANCE, subsonic otherwise.
    """
    mach = abs(spec.far.u_plus) / sound_speed(spec)
    if mach > 1.0 + SONIC_TOLERANCE:
        label = SUPERSONIC
    elif abs(mach - 1.0) <= SONIC_TOLERANCE:
        label = SONIC
    else:
        label = SUBSONIC
    return Regime(mach=mach, label=label)


def derived_constants(spec: ModelSpec) -> DerivedConstants:
    """Evaluate the center-manifold constants a, b and the ceiling lambda_star.

        b = rho_plus (u_plus^2 - p1'(rho_plus)) / (|u_plus| sqrt((mu+n_plus) n_plus))
        a = (A1 g(g+1) rho_plus^g + A2 al(al+1) n_plus^al)
            / (2 u_plus^2 (1+b^2)(mu+n_plus))
        lambda_star = 2 + sqrt(8 + 1/(1+b^2))

    b is reported as a magnitude (see DerivedConstants).
    """
    f, far = spec.fluids, spec.far
    u2 = far.u_plus ** 2
    p1p = pressure_derivative(f, far.rho_plus, 1)
    b = abs(far.rho_plus * (u2 - p1p)
            / (abs(far.u_plus) * math.sqrt((f.mu + far.n_plus) * far.n_plus)))
    curvature_num = (f.A1 * f.gamma * (f.gamma + 1.0) * far.rho_plus ** f.gamma
                     + f.A2 * f.alpha * (f.alpha + 1.0) * far.n_plus ** f.alpha)
    a = curvature_num / (2.0 * u2 * (1.0 + b * b) * (f.mu + far.n_plus))
    lambda_star = 2.0 + math.sqrt(8.0 + 1.0 / (1.0 + b * b))
    return DerivedConstants(c_plus=sound_speed(spec), a=a, b=b,
                            lambda_star=lambda_star)


def sonic_pressure_condition(spec: ModelSpec) -> SonicConditionResult:
    """Admissibility condition on the far-field pressure derivatives.

    Checks
        |p1'(rho_plus) - p2'(n_plus)|
            <= sqrt(2) |u_plus| min{ (1 + rho_plus/n_plus) sqrt((gamma-1) p1'),
                                     (1 + n_plus/rho_plus) sqrt((alpha-1) p2') }

    and returns the verdict together with the signed margin (rhs - lhs).
    gamma = 1 or alpha = 1 legally zeroes the corresponding bracket, in which
    case the condition demands p1'(rho_plus) = p2'(n_plus).
    """
    f, far = spec.fluids, spec.far
    p1p = pressure_derivative(f, far.rho_plus, 1)
    p2p = pressure_derivative(f, far.n_plus, 2)
    lhs = abs(p1p - p2p)
    bracket1 = (1.0 + far.rho_plus / far.n_plus) * math.sqrt((f.gamma - 1.0) * p1p)
    bracket2 = (1.0 + far.n_plus / far.rho_plus) * math.sqrt((f.alpha - 1.0) * p2p)
    rhs = math.sqrt(2.0) * abs(far.u_plus) * min(bracket1, bracket2)
    margin = rhs - lhs
    return SonicConditionResult(holds=lhs <= rhs, margin=margin)
