"""Exception types shared across the package.

The CLI maps them onto exit codes: ConfigError 2; DomainError (also a
malformed input file), ShootingError, SingularityError,
InsufficientDataError and WeightOverflowError 3; VacuumError, BlowUpError
and NumericsError 4; OSError 5. Any other exception is a fault of the
program and exits 1 ("error: internal <Type>: <message>"), so raise the
most specific type that applies, never bare ValueError/RuntimeError.
"""


class DomainError(ValueError):
    """Input outside the mathematical domain (nonpositive density, bad exponent)."""


class ConfigError(ValueError):
    """Malformed or contradictory experiment configuration."""


class SingularityError(RuntimeError):
    """A steady trajectory drove a phase velocity through zero."""

    def __init__(self, phase, x=None):
        self.phase = phase
        self.x = x
        where = "" if x is None else f" near x={x:.6g}"
        super().__init__(f"phase-{phase} velocity crossed zero{where}; "
                         "densities are no longer recoverable from the mass flux")


class ShootingError(RuntimeError):
    """The steady boundary-value solve failed: the collocation did not
    converge, the profile missed the far field, or its residual stayed
    above the bound at the node cap. Carries the last residual when there
    is one. (The name predates the collocation
    solver and is kept for callers.)"""

    def __init__(self, message, residual=None):
        self.residual = residual
        if residual is not None:
            message = f"{message} (last residual {residual:.3e})"
        super().__init__(message)


class VacuumError(RuntimeError):
    """A density fell below the positivity floor."""

    def __init__(self, phase, cell=None, t=None):
        self.phase = phase
        self.cell = cell
        self.t = t
        loc = []
        if cell is not None:
            loc.append(f"cell {cell}")
        if t is not None:
            loc.append(f"t={t:.6g}")
        where = " at " + ", ".join(loc) if loc else ""
        super().__init__(f"phase-{phase} density below floor{where}")


class BlowUpError(RuntimeError):
    """NaN or Inf detected during time stepping, or an implicit stage whose
    matrix is not positive definite (which only non-finite data or a
    non-positive ghost density can cause)."""

    def __init__(self, t=None, what="non-finite state detected"):
        self.t = t
        where = "" if t is None else f" at t={t:.6g}"
        super().__init__(f"{what}{where}")


class NumericsError(RuntimeError):
    """Floating-point machinery failed a self-check (a LAPACK eigenpair
    whose residual |J r - lam r| is too large, boundary rows that do not
    match the far-field spectrum)."""


class InsufficientDataError(ValueError):
    """A fit window contains too few samples."""


class WeightOverflowError(ValueError):
    """An exponential weight overflows binary64 on this grid."""

    def __init__(self, lam, lam_max, x_max):
        self.lam = lam
        self.lam_max = lam_max
        super().__init__(
            f"exponential weight rate {lam:.6g} overflows on [0, {x_max:.6g}]; "
            f"largest admissible rate is {lam_max:.6g}")
