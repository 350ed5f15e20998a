"""Physical parameters and the closed-form scalar quantities of the model.

Two barotropic phases on the half-line x > 0 share the velocity u_+ < 0 at
the far field. Pressures are power laws

    p1(rho) = A1 * rho**gamma,     p2(n) = A2 * n**alpha,

with A1, A2 > 0 and gamma, alpha >= 1. Phase 1 carries a constant viscosity
mu > 0, phase 2 a density-proportional one. Everything here is a pure
function of the parameter set; no state, no arrays.
"""

import math
from dataclasses import dataclass, fields
from numbers import Integral, Real
from typing import NamedTuple

from .errors import DomainError

SUPERSONIC = "supersonic"
SONIC = "sonic"
SUBSONIC = "subsonic"

#: half-width of the sonic band in Mach number
SONIC_TOLERANCE = 1e-9


def _require(obj, what, test=math.isfinite, names=None):
    """DomainError "<name> must be <what>, got <value>" for the first of
    obj's fields `names` (default: all) whose value fails `test`, or
    "<name> must be a real number" for one that is not a real number."""
    for name in names or [f.name for f in fields(obj)]:
        value = getattr(obj, name)
        if not _is_real(value):
            raise DomainError(f"{name} must be a real number, got {value!r}")
        if not test(value):
            raise DomainError(f"{name} must be {what}, got {value}")


def _is_integer(value):
    """True for a Python or numpy integer; a bool is an int to Python but
    never a count."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def _is_real(value):
    """True for a Python or numpy real number; a bool is an int to Python
    but never a measure."""
    return isinstance(value, Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class FluidConstants:
    """Pressure-law coefficients and exponents plus the phase-1 viscosity."""

    A1: float
    A2: float
    gamma: float
    alpha: float
    mu: float

    def __post_init__(self):
        _require(self, "finite")
        _require(self, "positive", lambda v: v > 0, ("A1", "A2", "mu"))
        _require(self, "at least 1", lambda v: v >= 1, ("gamma", "alpha"))

    def law(self, phase):
        """(A, g) of phase 1 (A1, gamma) or phase 2 (A2, alpha)."""
        if phase == 1:
            return self.A1, self.gamma
        if phase == 2:
            return self.A2, self.alpha
        raise DomainError(f"phase must be 1 or 2, got {phase!r}")


@dataclass(frozen=True)
class FarFieldState:
    """End state (rho_plus, u_plus, n_plus, u_plus) at x -> infinity."""

    rho_plus: float
    n_plus: float
    u_plus: float

    def __post_init__(self):
        _require(self, "finite")
        _require(self, "positive", lambda v: v > 0, ("rho_plus", "n_plus"))
        _require(self, "negative (outflow)", lambda v: v < 0, ("u_plus",))


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
        _require(self, "finite", names=("u_minus",))
        _require(self, "negative (outflow)", lambda v: v < 0, ("u_minus",))
        # every far-field quantity (sound speed, Jacobian, a) is built from
        # A g density^g and density u_plus^2; binary64 must hold each as a
        # positive finite number
        f, far = self.fluids, self.far
        laws = []
        for name, A, g, density in (("rho_plus", f.A1, f.gamma, far.rho_plus),
                                    ("n_plus", f.A2, f.alpha, far.n_plus)):
            flux = density * (far.u_plus * far.u_plus)
            if flux == math.inf:
                raise DomainError(
                    f"u_plus={far.u_plus:.6g}: the far-field momentum flux "
                    f"{name} u_plus^2 overflows binary64")
            try:
                law = A * g * float(density) ** g
            except OverflowError:
                law = math.inf
            if not 0.0 < law < math.inf:
                raise DomainError(
                    f"{name}={density:.6g}: the far-field pressure law "
                    f"A g {name}^g = {law:.3g} is not a positive finite "
                    "binary64 number")
            laws.append(law)
        # the mixture sound speed adds the two laws
        if sum(laws) == math.inf:
            raise DomainError(
                f"rho_plus={far.rho_plus:.6g}, n_plus={far.n_plus:.6g}: the "
                "sum of the far-field pressure laws A1 gamma rho_plus^gamma "
                "+ A2 alpha n_plus^alpha overflows binary64")
        # the Mach number divides by c_plus, and a and b by |u_plus|,
        # u_plus^2, (mu + n_plus) n_plus and 1 + b^2
        c = derived_constants(self)
        for name, value, word in (("c_plus", c.c_plus, "positive "),
                                  ("b", c.b, ""), ("a", c.a, "")):
            if not (math.isfinite(value) and (value > 0.0 or not word)):
                source = ", ".join(f"{k.name}={getattr(obj, k.name):.6g}"
                                   for obj in (f, far) for k in fields(obj))
                raise DomainError(f"the far-field constant {name} = "
                                  f"{value:.3g} of {source} is not a {word}"
                                  "finite binary64 number")

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
    """Far-field Mach number and its classification against the two
    rounded band edges: supersonic iff M > 1 + SONIC_TOLERANCE, subsonic
    iff M < 1 - SONIC_TOLERANCE, sonic otherwise, so the sonic band is
    every double between them."""

    mach: float

    @property
    def label(self):
        if self.mach > 1.0 + SONIC_TOLERANCE:
            return SUPERSONIC
        return SUBSONIC if self.mach < 1.0 - SONIC_TOLERANCE else SONIC

    is_supersonic = property(lambda self: self.label == SUPERSONIC)
    is_sonic = property(lambda self: self.label == SONIC)
    is_subsonic = property(lambda self: self.label == SUBSONIC)


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

    lambda_star = property(
        lambda self: 2.0 + math.sqrt(8.0 + 1.0 / (1.0 + self.b * self.b)))


class SonicConditionResult(NamedTuple):
    holds: bool
    margin: float


def pressure(fluids: FluidConstants, density: float, phase: int) -> float:
    """Power-law pressure of one phase: A * density**exponent."""
    if density <= 0:
        raise DomainError(f"nonpositive density {density} in pressure")
    A, g = fluids.law(phase)
    return A * density ** g


def pressure_derivative(fluids: FluidConstants, density: float, phase: int) -> float:
    """dp/d(density) = A * g * density**(g-1); the squared phase sound speed."""
    if density <= 0:
        raise DomainError(f"nonpositive density {density} in pressure_derivative")
    A, g = fluids.law(phase)
    return A * g * density ** (g - 1.0)


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
    """The far field's Mach number M = |u_plus|/c_plus and its regime."""
    return Regime(abs(spec.far.u_plus) / sound_speed(spec))


def curvature_numerator(spec: ModelSpec) -> float:
    """The numerator A1 g(g+1) rho_plus^g + A2 al(al+1) n_plus^al of a."""
    f, far = spec.fluids, spec.far
    return (f.A1 * f.gamma * (f.gamma + 1.0) * far.rho_plus ** f.gamma
            + f.A2 * f.alpha * (f.alpha + 1.0) * far.n_plus ** f.alpha)


def derived_constants(spec: ModelSpec) -> DerivedConstants:
    """Evaluate the center-manifold constants a, b and the ceiling lambda_star.

        b = rho_plus (u_plus^2 - p1'(rho_plus)) / (|u_plus| sqrt((mu+n_plus) n_plus))
        a = (A1 g(g+1) rho_plus^g + A2 al(al+1) n_plus^al)
            / (2 u_plus^2 (1+b^2)(mu+n_plus))
        lambda_star = 2 + sqrt(8 + 1/(1+b^2))

    b is reported as a magnitude (see DerivedConstants). A denominator
    that underflows to 0 gives the constant inf, which ModelSpec refuses.
    """
    f, far = spec.fluids, spec.far
    u2 = far.u_plus ** 2
    p1p = pressure_derivative(f, far.rho_plus, 1)
    den = abs(far.u_plus) * math.sqrt((f.mu + far.n_plus) * far.n_plus)
    b = abs(far.rho_plus * (u2 - p1p) / den) if den else math.inf
    den = 2.0 * u2 * (1.0 + b * b) * (f.mu + far.n_plus)
    a = curvature_numerator(spec) / den if den else math.inf
    return DerivedConstants(c_plus=sound_speed(spec), a=a, b=b)


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
