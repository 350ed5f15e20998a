"""Perturbation fields, energies, weighted norms, quadratic forms, decay fits.

Everything here is pure algebra on arrays and specs: the evolution module
produces states, this module measures them. Weighted norms follow the three
weight families used in the decay statements (polynomial in x, inverse powers
of the slow sonic scale, exponential), and the quadratic forms M1..M6 are the
symmetric matrices whose definiteness drives the energy estimates.
"""

import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import model
from .errors import DomainError, InsufficientDataError, WeightOverflowError
from .steady import (ALGEBRAIC, EXPONENTIAL, SteadyProfile, _log_linear_fit,
                     read_csv_columns, sigma_profile, write_csv_rows)

POSITIVE_DEFINITE = "positive_definite"
POSITIVE_SEMIDEFINITE = "positive_semidefinite"
INDEFINITE = "indefinite"

_MAX_LOG = math.log(sys.float_info.max)


# ---------------------------------------------------------------------------
# weight tags
# ---------------------------------------------------------------------------

class _Weight:
    """A weight with one parameter, finite and >= 0. Each family declares
    its label prefix and the word its messages use. The label is the prefix
    plus the parameter in `g` format where that reads back to it, else its
    repr, so weight_tag parses every label back to its weight."""

    def __post_init__(self):
        (field,) = fields(self)
        value = getattr(self, field.name)
        if not (math.isfinite(value) and value >= 0):
            raise DomainError(f"{self.word} weight needs a finite "
                              f"{field.name} >= 0, got {value}")

    @property
    def label(self):
        value = getattr(self, fields(self)[0].name)
        text = f"{value:g}"
        return self.prefix + (text if float(text) == value else repr(value))


@dataclass(frozen=True)
class AlgebraicNu(_Weight):
    """Weight (1+x)^nu on the squared integrand."""

    prefix, word = "alg", "algebraic"
    nu: float


@dataclass(frozen=True)
class SigmaNu(_Weight):
    """Weight sigma(x)^(-nu) tied to the slow decay scale of a sonic solve."""

    prefix, word = "sig", "sigma"
    nu: float


@dataclass(frozen=True)
class ExponentialLambda(_Weight):
    """Weight e^(lam x) on the squared integrand."""

    prefix, word = "exp", "exponential"
    lam: float


def weight_tag(label):
    """The weight whose label is label, as diagnostics.weights and the
    w_<label> columns of a norm series spell it."""
    for cls in (AlgebraicNu, ExponentialLambda, SigmaNu):
        if label.startswith(cls.prefix):
            try:
                return cls(float(label[len(cls.prefix):]))
            except DomainError as err:
                raise DomainError(f"weight tag {label!r}: {err}") from None
            except ValueError:
                break
    examples = ", ".join(tag.label for tag in (
        AlgebraicNu(1.0), ExponentialLambda(0.5), SigmaNu(2.0)))
    raise DomainError(
        f"unknown weight tag {label!r} (expected e.g. {examples})")


# ---------------------------------------------------------------------------
# perturbation fields and their norms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PerturbationField:
    """Deviations from the steady profile at the cell centers.

    phi and psi are the phase-1 density and velocity deviations, phi_bar and
    psi_bar the phase-2 ones.
    """

    phi: np.ndarray
    psi: np.ndarray
    phi_bar: np.ndarray
    psi_bar: np.ndarray


@dataclass(frozen=True)
class NormRecord:
    """Norm snapshot at one instant; weighted maps each requested weight
    tag to its norm value."""

    t: float
    l2: float
    h1: float
    linf: float
    drag_l2: float
    weighted: dict


@dataclass(frozen=True)
class NormSeries:
    records: tuple

    def __post_init__(self):
        times = [r.t for r in self.records]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise DomainError("norm series times must be strictly increasing")

    def times(self) -> np.ndarray:
        return np.array([r.t for r in self.records])


def _check_covers(profile: SteadyProfile, grid):
    """DomainError unless the grid lies inside the profile's domain, up to
    a relative 1e-12 that absorbs the rounding of a length computed from
    the profile's own end; past the end the profile is held constant."""
    if grid.length > profile.x[-1] * (1.0 + 1e-12):
        raise DomainError(
            f"grid length {grid.length:.6g} exceeds the profile domain "
            f"{profile.x[-1]:.6g}")


def _profile_at_centers(state, profile: SteadyProfile, grid):
    """rho~, u~, n~ and v~ linearly interpolated to the cell centers, the
    four columns a perturbation needs, after checking that the state fits
    the grid and the grid the profile."""
    if len(state.rho) != grid.cells:
        raise DomainError(
            f"state has {len(state.rho)} cells, grid {grid.cells}")
    _check_covers(profile, grid)
    return profile.interp(grid.centers)


def perturbation(state, profile: SteadyProfile, grid) -> PerturbationField:
    """Componentwise deviation of an evolution state from the steady profile."""
    rho_t, u_t, n_t, v_t = _profile_at_centers(state, profile, grid)
    return PerturbationField(phi=state.rho - rho_t, psi=state.u - u_t,
                             phi_bar=state.n - n_t, psi_bar=state.v - v_t)


def _phi_closed_form(A, g, density, ref):
    if g == 1.0:
        return A * (np.log(density / ref) + ref / density - 1.0)
    return A * ((density ** (g - 1.0) - ref ** (g - 1.0)) / (g - 1.0)
                + ref ** g * (1.0 / density - 1.0 / ref))


def phi_potential(fluids: model.FluidConstants, density: float,
                  ref_density: float, phase: int) -> float:
    """Pressure potential: integral of (p(s) - p(ref)) / s^2 from ref to density.

    Nonnegative, vanishing only at density = ref_density; this is the
    potential-energy density of a single phase relative to its profile value.
    """
    if density <= 0.0 or ref_density <= 0.0:
        raise DomainError("phi_potential needs positive densities")
    if phase == 1:
        A, g = fluids.A1, fluids.gamma
    elif phase == 2:
        A, g = fluids.A2, fluids.alpha
    else:
        raise DomainError(f"phase must be 1 or 2, got {phase!r}")
    return float(_phi_closed_form(A, g, density, ref_density))


def energy_total(state, profile: SteadyProfile, grid,
                 fluids: model.FluidConstants) -> float:
    """Midpoint quadrature of the relative energy of both phases."""
    rho_t, u_t, n_t, v_t = _profile_at_centers(state, profile, grid)
    e1 = state.rho * (0.5 * (state.u - u_t) ** 2
                      + _phi_closed_form(fluids.A1, fluids.gamma,
                                         state.rho, rho_t))
    e2 = state.n * (0.5 * (state.v - v_t) ** 2
                    + _phi_closed_form(fluids.A2, fluids.alpha,
                                       state.n, n_t))
    return float(grid.dx * np.sum(e1 + e2))


def _weighted_l2(weight_tag, sq_times_dx, x, sigma_params):
    if isinstance(weight_tag, AlgebraicNu):
        return math.sqrt(float(np.sum((1.0 + x) ** weight_tag.nu
                                      * sq_times_dx)))
    if isinstance(weight_tag, SigmaNu):
        if sigma_params is None:
            raise DomainError("sigma weights need sigma_params = (a, sigma0)")
        a, sigma0 = sigma_params
        sig = sigma_profile(a, sigma0, x)
        return math.sqrt(float(np.sum(sig ** -weight_tag.nu * sq_times_dx)))
    if isinstance(weight_tag, ExponentialLambda):
        x_max = float(x[-1])
        lam_max = _MAX_LOG / x_max
        if weight_tag.lam > lam_max:
            raise WeightOverflowError(weight_tag.lam, lam_max, x_max)
        # log-space accumulation: the individual weights stay representable
        # by the guard above, but their sum need not be
        mask = sq_times_dx > 0.0
        if not np.any(mask):
            return 0.0
        logs = weight_tag.lam * x[mask] + np.log(sq_times_dx[mask])
        m = float(np.max(logs))
        total = m + math.log(float(np.sum(np.exp(logs - m))))
        if total > 2.0 * _MAX_LOG:
            raise WeightOverflowError(weight_tag.lam, lam_max, x_max)
        return math.exp(0.5 * total)
    raise DomainError(f"unknown weight tag {weight_tag!r}")


def norms(field: PerturbationField, grid, weights=(), sigma_params=None,
          t: float = 0.0) -> NormRecord:
    """Plain and weighted norms of a perturbation field.

    l2 and the weighted norms use the midpoint rule; h1 adds the L2 norm of
    one-sided forward differences (last cell dropped); weights is an iterable
    of weight tags and sigma weights additionally need sigma_params.
    """
    comps = (field.phi, field.psi, field.phi_bar, field.psi_bar)
    dx = grid.dx
    x = grid.centers
    sq = sum(c * c for c in comps)
    l2 = math.sqrt(dx * float(np.sum(sq)))
    dsq = sum(((c[1:] - c[:-1]) / dx) ** 2 for c in comps)
    h1 = math.sqrt(l2 * l2 + dx * float(np.sum(dsq)))
    linf = float(max(np.max(np.abs(c)) for c in comps))
    drag = field.psi_bar - field.psi
    drag_l2 = math.sqrt(dx * float(np.sum(drag * drag)))
    weighted = {w: _weighted_l2(w, sq * dx, x, sigma_params) for w in weights}
    return NormRecord(t=t, l2=l2, h1=h1, linf=linf, drag_l2=drag_l2,
                      weighted=weighted)


# ---------------------------------------------------------------------------
# quadratic forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadraticFormReport:
    name: str
    matrix: np.ndarray
    eigenvalues: tuple
    verdict: str
    context: dict

    def as_dict(self):
        return {
            "name": self.name,
            "matrix": [list(row) for row in self.matrix],
            "eigenvalues": list(self.eigenvalues),
            "verdict": self.verdict,
            "context": dict(self.context),
        }


def _symmetric_eigenvalues(M):
    # the closed form keeps an exact zero of a semidefinite 2x2 form exact,
    # where eigvalsh can return a tiny negative
    if M.shape == (2, 2):
        p, q, r = M[0, 0], M[0, 1], M[1, 1]
        mid = 0.5 * (p + r)
        rad = math.hypot(0.5 * (p - r), q)
        return (mid - rad, mid + rad)
    return tuple(np.linalg.eigvalsh(M).tolist())


# |smallest eigenvalue| below which a form is semidefinite, not definite
VERDICT_ZERO_TOLERANCE = 1e-10
# relative size below which an eigenvalue of M4 counts as its kernel
HAT_ZERO_TOLERANCE = 1e-8


def _verdict(eigenvalues):
    lo = min(eigenvalues)
    if lo > VERDICT_ZERO_TOLERANCE:
        return POSITIVE_DEFINITE
    if lo > -VERDICT_ZERO_TOLERANCE:
        return POSITIVE_SEMIDEFINITE
    return INDEFINITE


def assemble_quadratic_form(name: str, spec: model.ModelSpec, nu=None,
                            sigma_value=None, k=None) -> QuadraticFormReport:
    """Assemble one of the energy-estimate matrices M1..M6 and classify it.

    M1/M2 are the per-phase convexity blocks in (velocity, density)
    coordinates; M3 (supersonic) and M4 (sonic) share the same entries in
    (phi, phi_bar, psi_bar) coordinates; M5/M6 are the sigma-scaled blocks of
    the weighted sonic estimate and need nu and sigma_value (M6 also needs
    the free parameter k).
    """
    f = spec.fluids
    far = spec.far
    rho, n, up = far.rho_plus, far.n_plus, far.u_plus
    dp1 = model.pressure_derivative(f, rho, 1)
    dp2 = model.pressure_derivative(f, n, 2)
    context = {}
    if name == "M1":
        off = (up * up - dp1) / (2.0 * up)
        M = np.array([[rho, off],
                      [off, 0.5 * f.A1 * f.gamma * (f.gamma - 1.0)
                       * rho ** (f.gamma - 2.0)]])
    elif name == "M2":
        off = (up * up - dp2) / (2.0 * up)
        M = np.array([[n, off],
                      [off, 0.5 * f.A2 * f.alpha * (f.alpha - 1.0)
                       * n ** (f.alpha - 2.0)]])
    elif name in ("M3", "M4"):
        M = np.array([
            [-dp1 * up / rho, 0.0, -dp1],
            [0.0, -dp2 * up / n, -dp2],
            [-dp1, -dp2, -(rho + n) * up],
        ])
    elif name in ("M5", "M6"):
        if nu is None or sigma_value is None:
            raise DomainError(f"{name} needs nu and sigma_value")
        consts = model.derived_constants(spec)
        a, b = consts.a, consts.b
        gfac = (f.A1 * f.gamma * (f.gamma + 1.0) * rho ** f.gamma
                + f.A2 * f.alpha * (f.alpha + 1.0) * n ** f.alpha) / (2.0 * up * up)
        off = 0.5 * math.sqrt((f.mu + n) * n) * a * b * nu * sigma_value
        if name == "M5":
            bracket = (1.0 + nu) - nu * (nu - 1.0) / (2.0 * (1.0 + b * b))
            M = np.array([[0.75 * n, off],
                          [off, 0.75 * a * gfac * bracket * sigma_value ** 2]])
        else:
            if k is None:
                raise DomainError("M6 needs the free parameter k")
            if not 0.0 < k < 1.0:
                raise DomainError(f"M6 parameter k must lie in (0, 1), got {k}")
            bracket = (1.0 + nu - nu * (nu - 1.0) / (2.0 * (1.0 + b * b))
                       + (nu - 1.0) ** 2 / (4.0 * (1.0 + b * b)))
            M = np.array([[k * n, off],
                          [off, k * a * gfac * bracket * sigma_value ** 2]])
            context["k"] = k
        context["nu"] = nu
        context["sigma_value"] = sigma_value
    else:
        raise DomainError(f"unknown quadratic form {name!r}")
    eigenvalues = _symmetric_eigenvalues(M)
    return QuadraticFormReport(name=name, matrix=M, eigenvalues=eigenvalues,
                               verdict=_verdict(eigenvalues),
                               context=context)


def hat_transform(spec: model.ModelSpec, field_values):
    """Coordinates diagonalizing the sonic form M4.

    Returns (rho_hat, n_hat, v_hat) with rho_hat along the largest
    eigenvalue and v_hat along the kernel, so that the M4 quadratic form of
    (phi, phi_bar, psi_bar) equals lam1 rho_hat^2 + lam2 n_hat^2 with
    lam1 >= lam2 the two positive eigenvalues. Inputs may be scalars or
    arrays of equal shape; M4 must have a kernel (HAT_ZERO_TOLERANCE).
    """
    M = assemble_quadratic_form("M4", spec).matrix
    w, Q = np.linalg.eigh(M)
    scale = max(1.0, float(np.max(np.abs(w))))
    if abs(w[0]) > HAT_ZERO_TOLERANCE * scale:
        raise DomainError(
            "hat_transform needs a sonic spec (M4 kernel missing; "
            f"smallest eigenvalue {w[0]:.3e})")
    if w[1] <= HAT_ZERO_TOLERANCE * scale:
        raise DomainError("M4 positive eigenvalues are degenerate")
    Q = Q[:, [2, 1, 0]]
    for j in range(3):
        col = Q[:, j]
        if col[np.argmax(np.abs(col))] < 0:
            Q[:, j] = -col
    triple = np.asarray(field_values, dtype=float)
    coords = Q.T @ triple
    return coords[0], coords[1], coords[2]


# ---------------------------------------------------------------------------
# temporal decay fits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TemporalDecayFit:
    model: str
    rate: float
    prefactor: float
    r_squared: float
    window: tuple


_PLAIN_NORMS = ("l2", "h1", "linf", "drag_l2")


def _select_norm(record: NormRecord, which):
    if which in _PLAIN_NORMS:
        return getattr(record, which)
    if which in record.weighted:
        return record.weighted[which]
    for tag, value in record.weighted.items():
        if tag.label == which:
            return value
    raise DomainError(f"norm selector {which!r} not present in the series")


def fit_temporal_decay(series: NormSeries, which_norm, law: str,
                       window=None) -> TemporalDecayFit:
    """Least-squares decay fit of a recorded norm against time.

    Algebraic law regresses log N on log(1+t) (rate is the power, positive
    for decay); exponential law regresses log N on t. window defaults to the
    final half of the records. A non-finite value inside the window raises
    DomainError naming the record's time.
    """
    if law not in (EXPONENTIAL, ALGEBRAIC):
        raise DomainError(f"unknown law {law!r}")
    if len(series.records) < 8:
        raise InsufficientDataError(
            f"norm series holds {len(series.records)} records (need 8)")
    times = series.times()
    values = np.array([_select_norm(r, which_norm) for r in series.records])
    if window is None:
        window = (float(times[len(times) // 2]), float(times[-1]))
    t_lo, t_hi = window
    mask = (times >= t_lo) & (times <= t_hi)
    if int(mask.sum()) < 8:
        raise InsufficientDataError(
            f"fit window [{t_lo:.6g}, {t_hi:.6g}] holds only "
            f"{int(mask.sum())} records (need 8)")
    vals = values[mask]
    finite = np.isfinite(vals)
    if not np.all(finite):
        k = int(np.argmin(finite))
        raise DomainError(f"non-finite {which_norm} value {float(vals[k])!r} "
                          f"in the record at t={times[mask][k]:.6g}")
    if np.any(vals <= 0.0):
        raise DomainError("norm values must be positive inside the window")
    abscissa = times[mask] if law == EXPONENTIAL else np.log1p(times[mask])
    slope, intercept, r2 = _log_linear_fit(abscissa, vals)
    return TemporalDecayFit(model=law, rate=float(-slope),
                            prefactor=float(math.exp(intercept)),
                            r_squared=float(r2), window=(float(t_lo),
                                                         float(t_hi)))


# ---------------------------------------------------------------------------
# norm series CSV
# ---------------------------------------------------------------------------

NORM_SERIES_BASE_COLUMNS = ("t", "l2", "h1", "linf", "drag_l2")


def save_norm_series_csv(series: NormSeries, path):
    """Write the series with one w_<tag> column per weight of the records."""
    tags = ()
    if series.records:
        tags = tuple(series.records[0].weighted)
        for r in series.records:
            if tuple(r.weighted) != tags:
                raise DomainError("records carry inconsistent weight tags")
    header = ",".join(NORM_SERIES_BASE_COLUMNS
                      + tuple(f"w_{tag.label}" for tag in tags))
    cols = np.array([(r.t, r.l2, r.h1, r.linf, r.drag_l2,
                      *(r.weighted[tag] for tag in tags))
                     for r in series.records], dtype=float)
    write_csv_rows(path, header, cols.reshape(-1, 5 + len(tags)))


def load_norm_series_csv(path) -> NormSeries:
    """Read back the NormSeries that save_norm_series_csv wrote. The header
    must be t,l2,h1,linf,drag_l2 followed by w_<label> columns of distinct
    weights; every error is a DomainError naming the file."""
    cols = read_csv_columns(
        path, "norm series",
        lambda head: tuple(head.split(",")[:5]) == NORM_SERIES_BASE_COLUMNS)
    try:
        names = {}
        for name in list(cols)[5:]:
            if not name.startswith("w_"):
                raise DomainError(f"norm series column {name!r} is not "
                                  "w_<label>")
            tag = weight_tag(name[2:])
            if tag in names:
                raise DomainError(f"columns {names[tag]!r} and {name!r} "
                                  "name one weight")
            names[tag] = name
        rows = np.column_stack(list(cols.values())).tolist()
        return NormSeries(tuple(
            NormRecord(*row[:5], weighted=dict(zip(names, row[5:])))
            for row in rows))
    except DomainError as err:
        raise DomainError(f"{path}: {err}") from None
