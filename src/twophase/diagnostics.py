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
from .steady import (EXPONENTIAL, SteadyProfile, _check_fit, _log_linear_fit,
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
        if not (model._is_real(value) and math.isfinite(value)
                and value >= 0):
            raise DomainError(f"{self.word} weight needs a finite "
                              f"{field.name} >= 0, got {value!r}")

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
            text = label[len(cls.prefix):]
            # float also reads "1_0", " 1" and non-ASCII digits; no label does
            if "_" in text or not text.isascii() or text.strip() != text:
                break
            try:
                return cls(float(text))
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


# a NormRecord's time and plain norms, the first columns of a norm series
NORM_SERIES_BASE_COLUMNS = ("t", "l2", "h1", "linf", "drag_l2")


@dataclass(frozen=True)
class NormSeries:
    records: tuple

    def __post_init__(self):
        times = [r.t for r in self.records]
        if not all(map(math.isfinite, times)):
            raise DomainError("norm series times must be finite")
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
    return float(_phi_closed_form(*fluids.law(phase), density, ref_density))


def energy_total(state, profile: SteadyProfile, grid) -> float:
    """Midpoint quadrature of the relative energy of both phases, under
    the pressure laws of the fluids the profile was solved for."""
    rho_t, u_t, n_t, v_t = _profile_at_centers(state, profile, grid)
    fluids = profile.spec.fluids
    e1 = state.rho * (0.5 * (state.u - u_t) ** 2
                      + _phi_closed_form(*fluids.law(1), state.rho, rho_t))
    e2 = state.n * (0.5 * (state.v - v_t) ** 2
                    + _phi_closed_form(*fluids.law(2), state.n, n_t))
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
    """A form's matrix and parameters; eigenvalues and verdict follow."""

    name: str
    matrix: np.ndarray
    context: dict

    eigenvalues = property(lambda self: _symmetric_eigenvalues(self.matrix))
    verdict = property(lambda self: _verdict(self.eigenvalues))

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
    # where eigvalsh can return a tiny negative; with mid > 0 the small
    # eigenvalue is det / (mid + rad), since mid - rad cancels
    if M.shape == (2, 2):
        (p, q), (_, r) = M.tolist()
        mid = 0.5 * (p + r)
        rad = math.hypot(0.5 * (p - r), q)
        det = p * r - q * q
        if mid > 0.0 and math.isfinite(det):
            return (det / (mid + rad), mid + rad)
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


#: the energy-estimate forms that _form_matrix assembles
QUADRATIC_FORMS = ("M1", "M2", "M3", "M4", "M5", "M6")


def _check_forms(names, nu, sigma_value, k):
    """The rules of `assemble_quadratic_form`'s arguments: each name known
    and each parameter given within its rule, whatever the form."""
    for name in names:
        if name not in QUADRATIC_FORMS:
            raise DomainError(f"unknown matrix {name!r}; accepted: "
                              f"{', '.join(QUADRATIC_FORMS)}")
    for label, value, what, test in (
            ("nu", nu, "be finite and nonnegative",
             lambda v: 0.0 <= v < math.inf),
            ("sigma_value", sigma_value, "be finite and positive",
             lambda v: 0.0 < v < math.inf),
            ("k", k, "lie strictly between 0 and 1",
             lambda v: 0.0 < v < 1.0)):
        if value is not None and not test(value):
            raise DomainError(f"{label} must {what}, got {value}")


def assemble_quadratic_form(name: str, spec: model.ModelSpec, nu=None,
                            sigma_value=None, k=None) -> QuadraticFormReport:
    """Assemble one of the energy-estimate matrices M1..M6 and classify it.

    M1/M2 are the per-phase convexity blocks in (velocity, density)
    coordinates; M3 (supersonic) and M4 (sonic) share the same entries in
    (phi, phi_bar, psi_bar) coordinates; M5/M6 are the sigma-scaled blocks of
    the weighted sonic estimate and need nu and sigma_value (M6 also needs
    the free parameter k). Each parameter given must meet the rule of the
    weights the energy estimate uses, whatever the form: nu finite and
    >= 0, sigma_value finite and > 0, 0 < k < 1. An unknown name or a
    parameter outside its rule raises DomainError naming it and its value,
    and so does a matrix whose entries overflow (a large finite nu or
    sigma_value), naming the form, nu and sigma_value.
    """
    _check_forms((name,), nu, sigma_value, k)
    try:
        M, context = _form_matrix(name, spec, nu, sigma_value, k)
        finite = np.isfinite(M).all()
    except OverflowError:  # a float power past the largest double
        finite = False
    if not finite:
        raise DomainError(f"{name} matrix has a non-finite entry at "
                          f"nu={nu}, sigma_value={sigma_value}")
    return QuadraticFormReport(name=name, matrix=M, context=context)


def _form_matrix(name, spec, nu, sigma_value, k):
    """The entries of form `name`, one of QUADRATIC_FORMS, and the
    parameters that set them."""
    f = spec.fluids
    far = spec.far
    rho, n, up = far.rho_plus, far.n_plus, far.u_plus
    dp1 = model.pressure_derivative(f, rho, 1)
    dp2 = model.pressure_derivative(f, n, 2)
    context = {}
    if name in ("M1", "M2"):
        density, dp = (rho, dp1) if name == "M1" else (n, dp2)
        A, g = f.law(int(name[1]))
        off = (up * up - dp) / (2.0 * up)
        M = np.array([[density, off],
                      [off, 0.5 * A * g * (g - 1.0) * density ** (g - 2.0)]])
    elif name in ("M3", "M4"):
        M = np.array([
            [-dp1 * up / rho, 0.0, -dp1],
            [0.0, -dp2 * up / n, -dp2],
            [-dp1, -dp2, -(rho + n) * up],
        ])
    else:
        if nu is None or sigma_value is None:
            raise DomainError(f"{name} needs nu and sigma_value")
        consts = model.derived_constants(spec)
        a, b = consts.a, consts.b
        gfac = model.curvature_numerator(spec) / (2.0 * up * up)
        off = 0.5 * math.sqrt((f.mu + n) * n) * a * b * nu * sigma_value
        bracket = (1.0 + nu) - nu * (nu - 1.0) / (2.0 * (1.0 + b * b))
        weight = 0.75
        if name == "M6":
            if k is None:
                raise DomainError("M6 needs the free parameter k")
            bracket += (nu - 1.0) ** 2 / (4.0 * (1.0 + b * b))
            weight = context["k"] = k
        M = np.array([[weight * n, off],
                      [off, weight * a * gfac * bracket * sigma_value ** 2]])
        context["nu"] = nu
        context["sigma_value"] = sigma_value
    return M, context


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
    law: str
    rate: float
    prefactor: float
    r_squared: float
    window: tuple


def _select_norm(record: NormRecord, which):
    if which in NORM_SERIES_BASE_COLUMNS[1:]:
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
    final half of the records. An unknown law or a window whose low end is
    not below its high end raises DomainError (the rule both fits share)
    first, and so does a non-finite value in the window, naming its time.
    """
    _check_fit(law, window)
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
    return TemporalDecayFit(law=law, rate=float(-slope),
                            prefactor=float(math.exp(intercept)),
                            r_squared=float(r2), window=(float(t_lo),
                                                         float(t_hi)))


# ---------------------------------------------------------------------------
# norm series CSV
# ---------------------------------------------------------------------------

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
    cols = np.array([[getattr(r, name) for name in NORM_SERIES_BASE_COLUMNS]
                     + [r.weighted[tag] for tag in tags]
                     for r in series.records], dtype=float)
    write_csv_rows(path, header, cols.reshape(-1, 5 + len(tags)))


def load_norm_series_csv(path) -> NormSeries:
    """Read back the NormSeries that save_norm_series_csv wrote. The header
    must be t,l2,h1,linf,drag_l2 followed by w_<label> columns of distinct
    weights; every error is a DomainError naming the file."""
    columns, table = read_csv_columns(
        path, "norm series",
        lambda head: tuple(head.split(",")[:5]) == NORM_SERIES_BASE_COLUMNS)
    try:
        names = {}
        for name in columns[5:]:
            if not name.startswith("w_"):
                raise DomainError(f"norm series column {name!r} is not "
                                  "w_<label>")
            tag = weight_tag(name[2:])
            if tag in names:
                raise DomainError(f"columns {names[tag]!r} and {name!r} "
                                  "name one weight")
            names[tag] = name
        return NormSeries(tuple(
            NormRecord(*row[:5], weighted=dict(zip(names, row[5:])))
            for row in table.tolist()))
    except DomainError as err:
        raise DomainError(f"{path}: {err}") from None
