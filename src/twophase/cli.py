"""Configuration-driven experiment runner.

Flat ``section.key = value`` configs drive six subcommands (steady, evolve,
decay-fit, matrix-check, regime, sweep). Every run writes the effective
configuration and a JSON run record next to its outputs, keyed by a short
hash of the canonical config text, so a result directory is always
self-describing and sweep outputs can be indexed deterministically.
"""

import argparse
import csv
import hashlib
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__, model
from .diagnostics import (SigmaNu, assemble_quadratic_form,
                          fit_temporal_decay, load_norm_series_csv, norms,
                          perturbation, save_norm_series_csv, weight_tag)
from .errors import (BlowUpError, ConfigError, DomainError,
                     InsufficientDataError, NumericsError, ShootingError,
                     SingularityError, VacuumError, WeightOverflowError)
from .ibvp import (COMPACT_BUMP, FROM_FILE, GAUSSIAN, PerturbationSpec,
                   evolve, initialize, make_grid, save_state_csv)
from .steady import (ALGEBRAIC, EXPONENTIAL, SteadySolveOptions, eigensystem,
                     farfield_jacobian, fit_spatial_decay, save_profile_csv,
                     solve_steady, steady_residual)

_VERSION = f"twophase {__version__}"
_MATRIX_NAMES = ("M1", "M2", "M3", "M4", "M5", "M6")
_RUN_SUBCOMMANDS = ("steady", "evolve", "decay-fit", "matrix-check", "regime")


# ---------------------------------------------------------------------------
# config schema
# ---------------------------------------------------------------------------

_REQUIRED = object()


@dataclass(frozen=True)
class _Key:
    kind: str            # float, optfloat, int, str, list
    default: object
    check: object = None  # value -> error message or None


def _positive(v):
    return None if v > 0 else "must be positive"


def _negative(v):
    return None if v < 0 else "must be negative (outflow)"


def _nonnegative(v):
    return None if v >= 0 else "must be nonnegative"


def _finite_nonnegative(v):
    return None if 0 <= v < math.inf else "must be finite and nonnegative"


def _at_least_one(v):
    return None if v >= 1 else "must be at least 1"


def _unit_open(v):
    return None if 0.0 < v < 1.0 else "must lie strictly between 0 and 1"


def _choice(*options):
    def check(v):
        if v in options:
            return None
        return "must be one of " + ", ".join(options)
    return check


def _component_list(items):
    bad = [c for c in items if c not in ("rho", "u", "n", "v")]
    if bad:
        return f"unknown component(s) {', '.join(bad)}"
    return None


def _matrix_list(items):
    bad = [m for m in items if m not in _MATRIX_NAMES]
    if bad:
        return f"unknown matrix name(s) {', '.join(bad)}"
    return None


_SCHEMA = {
    "spec.A1": _Key("float", _REQUIRED, _positive),
    "spec.A2": _Key("float", _REQUIRED, _positive),
    "spec.gamma": _Key("float", _REQUIRED, _at_least_one),
    "spec.alpha": _Key("float", _REQUIRED, _at_least_one),
    "spec.mu": _Key("float", _REQUIRED, _positive),
    "spec.rho_plus": _Key("float", _REQUIRED, _positive),
    "spec.n_plus": _Key("float", _REQUIRED, _positive),
    "spec.u_plus": _Key("float", _REQUIRED, _negative),
    "spec.u_minus": _Key("float", _REQUIRED, _negative),
    "grid.length": _Key("float", 100.0, _positive),
    "grid.cells": _Key("int", 1024, _at_least_one),
    "steady.x_domain": _Key("optfloat", None, _positive),
    "steady.points": _Key("int", 2048, _at_least_one),
    "evolve.t_end": _Key("float", 10.0, _finite_nonnegative),
    "evolve.cfl": _Key("float", 0.4, _unit_open),
    "evolve.observer_stride": _Key("int", 10, _at_least_one),
    "evolve.wall_clock_budget": _Key("optfloat", None, _positive),
    "evolve.pert_shape": _Key("str", GAUSSIAN,
                              _choice(GAUSSIAN, COMPACT_BUMP, FROM_FILE)),
    "evolve.pert_amplitude": _Key("float", 0.0),
    "evolve.pert_center": _Key("float", 10.0),
    "evolve.pert_width": _Key("float", 2.0, _positive),
    "evolve.pert_components": _Key("list", ("u",), _component_list),
    "evolve.pert_path": _Key("str", ""),
    "diagnostics.weights": _Key("list", ()),
    "diagnostics.fit_norm": _Key("str", "l2"),
    "diagnostics.fit_law": _Key("str", EXPONENTIAL,
                                _choice(EXPONENTIAL, ALGEBRAIC)),
    "diagnostics.fit_window": _Key("str", ""),
    "diagnostics.series_path": _Key("str", ""),
    "diagnostics.matrix_names": _Key("list", ("M1", "M2", "M3", "M4"),
                                     _matrix_list),
    "diagnostics.matrix_nu": _Key("optfloat", None, _nonnegative),
    "diagnostics.matrix_sigma": _Key("optfloat", None, _positive),
    "diagnostics.matrix_k": _Key("optfloat", None, _unit_open),
    "output.directory": _Key("str", ""),
    "output.prefix": _Key("str", "run"),
    "sweep.parameter": _Key("str", ""),
    "sweep.values": _Key("list", ()),
    "sweep.subcommand": _Key("str", "steady", _choice(*_RUN_SUBCOMMANDS)),
}


def _parse_value(key, raw, kind):
    raw = raw.strip()
    try:
        if kind == "float":
            return float(raw)
        if kind == "optfloat":
            return None if raw == "" else float(raw)
        if kind == "int":
            return int(raw, 10)
        if kind == "list":
            return tuple(item.strip() for item in raw.split(",")
                         if item.strip())
        return raw
    except ValueError:
        raise ConfigError(f"{key}: cannot parse {raw!r} as {kind}") from None


def _format_value(value, kind):
    if kind == "float":
        return repr(value)
    if kind == "optfloat":
        return "" if value is None else repr(value)
    if kind == "list":
        return ",".join(value)
    return str(value)


# ---------------------------------------------------------------------------
# config object
# ---------------------------------------------------------------------------

def canonical_config_text(values):
    lines = [f"{key} = {_format_value(values[key], _SCHEMA[key].kind)}"
             for key in sorted(values)]
    return "\n".join(lines) + "\n"


def config_hash(values):
    """First 12 hex digits of the sha256 of the canonical config text."""
    text = canonical_config_text(values)
    return hashlib.sha256(text.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class ExperimentConfig:
    values: dict

    @property
    def hash(self):
        return config_hash(self.values)

    def canonical_text(self):
        return canonical_config_text(self.values)

    def model_spec(self):
        v = self.values
        fluids = model.FluidConstants(A1=v["spec.A1"], A2=v["spec.A2"],
                                      gamma=v["spec.gamma"],
                                      alpha=v["spec.alpha"], mu=v["spec.mu"])
        far = model.FarFieldState(rho_plus=v["spec.rho_plus"],
                                  n_plus=v["spec.n_plus"],
                                  u_plus=v["spec.u_plus"])
        return model.ModelSpec(fluids=fluids, far=far,
                               u_minus=v["spec.u_minus"])

    def grid(self):
        return make_grid(self.values["grid.length"],
                         self.values["grid.cells"])

    def steady_options(self, x_domain=None):
        v = self.values
        if x_domain is None:
            x_domain = v["steady.x_domain"]
        return SteadySolveOptions(x_domain=x_domain,
                                  points=v["steady.points"])

    def perturbation_spec(self):
        v = self.values
        return PerturbationSpec(shape=v["evolve.pert_shape"],
                                amplitude=v["evolve.pert_amplitude"],
                                center=v["evolve.pert_center"],
                                width=v["evolve.pert_width"],
                                components=v["evolve.pert_components"],
                                path=v["evolve.pert_path"])

    def weight_tags(self):
        return tuple(weight_tag(label)
                     for label in self.values["diagnostics.weights"])

    def fit_window(self):
        text = self.values["diagnostics.fit_window"]
        if not text:
            return None
        parts = text.split(":")
        if len(parts) != 2:
            raise ConfigError(
                "diagnostics.fit_window: expected 't_lo:t_hi'")
        try:
            lo, hi = float(parts[0]), float(parts[1])
        except ValueError:
            raise ConfigError(
                f"diagnostics.fit_window: cannot parse {text!r}") from None
        if not lo < hi:
            raise ConfigError("diagnostics.fit_window: t_lo must be below "
                              "t_hi")
        return (lo, hi)


def _values_from_lines(lines, source="config"):
    raw = {}
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if "=" not in text:
            raise ConfigError(f"{source} line {lineno}: expected "
                              f"'key = value', got {text!r}")
        key, _, value = text.partition("=")
        key = key.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"{source} line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"{source} line {lineno}: duplicate key "
                              f"{key!r}")
        raw[key] = value.strip()
    return raw


def _build_values(raw):
    missing = sorted(key for key, meta in _SCHEMA.items()
                     if meta.default is _REQUIRED and key not in raw)
    if missing:
        raise ConfigError("missing required key(s): " + ", ".join(missing))
    values = {}
    for key, meta in _SCHEMA.items():
        if key in raw:
            value = _parse_value(key, raw[key], meta.kind)
        else:
            value = meta.default
        if meta.check is not None and value is not None:
            message = meta.check(value)
            if message:
                raise ConfigError(
                    f"{key}: {message} "
                    f"(got {_format_value(value, meta.kind)})")
        values[key] = value
    return values


def _cross_validate(config):
    # re-run the module-level invariant gates so a bad config dies with
    # exit code 2 instead of surfacing later as a solver error
    try:
        config.model_spec()
        config.perturbation_spec()
        config.weight_tags()
        config.fit_window()
    except DomainError as err:
        raise ConfigError(str(err)) from err


def parse_config(path, overrides=()) -> ExperimentConfig:
    """Load, override, default-fill, and validate an experiment config."""
    with open(path) as fh:
        raw = _values_from_lines(fh.read().splitlines(),
                                 source=os.path.basename(str(path)))
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r}: expected key=value")
        key, _, value = item.partition("=")
        key = key.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"override: unknown key {key!r}")
        raw[key] = value.strip()
    config = ExperimentConfig(_build_values(raw))
    _cross_validate(config)
    return config


# ---------------------------------------------------------------------------
# run records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunRecord:
    config_hash: str
    version: str
    subcommand: str
    started: str
    ended: str
    status: str          # completed, aborted, truncated
    reason: str
    files: tuple

    def as_dict(self):
        payload = asdict(self)
        payload["files"] = list(self.files)
        return payload


def _utc_now():
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# subcommand bodies (each returns (emitted files, status, reason))
# ---------------------------------------------------------------------------

def _steady_body(config, out_dir, workers):
    spec = config.model_spec()
    profile = solve_steady(spec, config.steady_options())
    prefix = config.values["output.prefix"]
    profile_name = f"{prefix}_profile.csv"
    save_profile_csv(profile, os.path.join(out_dir, profile_name))
    regime = profile.regime
    report = {
        "regime": regime.label,
        "mach": float(regime.mach),
        "delta": float(spec.delta),
        "residual": float(steady_residual(spec, profile)),
        "mass_flux_error_1": float(np.max(np.abs(
            profile.rho_t * profile.u_t - spec.mass_flux_1))),
        "mass_flux_error_2": float(np.max(np.abs(
            profile.n_t * profile.v_t - spec.mass_flux_2))),
        "achieved_u_minus": float(profile.u_t[0]),
        "achieved_v_minus": float(profile.v_t[0]),
        "boundary_compatible": profile.boundary_compatible,
        "sigma0": float(profile.sigma0),
        "x_domain": float(profile.x[-1]),
        "solve": None if profile.stats is None else asdict(profile.stats),
    }
    if spec.delta > 0.0:
        law = ALGEBRAIC if regime.is_sonic else EXPONENTIAL
        x_hi = float(profile.x[-1])
        fit = fit_spatial_decay(profile, "u", law,
                                (0.25 * x_hi, 0.75 * x_hi))
        report["decay_fit"] = {"law": fit.law,
                               "rate_or_slope": float(fit.rate_or_slope),
                               "prefactor": float(fit.prefactor),
                               "r_squared": float(fit.r_squared),
                               "window": list(fit.window)}
    else:
        report["decay_fit"] = None
    report_name = f"{prefix}_steady.json"
    _write_json(os.path.join(out_dir, report_name), report)
    return ([profile_name, report_name], "completed", "")


def _evolve_body(config, out_dir, workers):
    v = config.values
    spec = config.model_spec()
    grid = config.grid()
    # unless pinned in the config, the profile domain must cover the grid
    # (plus the ghost cell); the solver's own default is usually shorter
    x_domain = v["steady.x_domain"] or (grid.length + 1.0)
    profile = solve_steady(spec, config.steady_options(x_domain=x_domain))
    state = initialize(profile, grid, config.perturbation_spec())
    weights = config.weight_tags()
    sigma_params = None
    if any(isinstance(tag, SigmaNu) for tag in weights):
        sigma_params = (model.derived_constants(spec).a, profile.sigma0)

    def observe(snapshot):
        field = perturbation(snapshot, profile, grid)
        return norms(field, grid, weights=weights,
                     sigma_params=sigma_params, t=snapshot.t)

    result = evolve(state, grid, spec, t_end=v["evolve.t_end"],
                    observer_stride=v["evolve.observer_stride"],
                    observers=(observe,), cfl=v["evolve.cfl"],
                    wall_clock_budget=v["evolve.wall_clock_budget"])
    prefix = v["output.prefix"]
    norms_name = f"{prefix}_norms.csv"
    save_norm_series_csv(result.series, os.path.join(out_dir, norms_name))
    final_name = f"{prefix}_final.csv"
    save_state_csv(result.state, grid, os.path.join(out_dir, final_name),
                   spec_hash=config.hash)
    files = [norms_name, final_name, final_name + ".meta.json"]
    if result.truncated:
        return (files, "truncated",
                f"wall clock budget exhausted at t={result.state.t:.6g}")
    return (files, "completed", "")


def _decay_fit_body(config, out_dir, workers):
    v = config.values
    path = v["diagnostics.series_path"]
    if not path:
        raise ConfigError(
            "diagnostics.series_path is required for decay-fit")
    series = load_norm_series_csv(path)
    try:
        fit = fit_temporal_decay(series, v["diagnostics.fit_norm"],
                                 v["diagnostics.fit_law"],
                                 window=config.fit_window())
    except (DomainError, InsufficientDataError) as err:
        raise type(err)(f"{path}: {err}") from None
    prefix = v["output.prefix"]
    fit_name = f"{prefix}_fit.json"
    _write_json(os.path.join(out_dir, fit_name),
                {"law": fit.model, "norm": v["diagnostics.fit_norm"],
                 "rate": float(fit.rate),
                 "prefactor": float(fit.prefactor),
                 "r_squared": float(fit.r_squared),
                 "window": [float(fit.window[0]), float(fit.window[1])],
                 "records": len(series.records), "source": str(path)})
    return ([fit_name], "completed", "")


def _matrix_check_body(config, out_dir, workers):
    v = config.values
    names = v["diagnostics.matrix_names"]
    if not names:
        raise ConfigError("diagnostics.matrix_names is empty")
    spec = config.model_spec()
    reports = [assemble_quadratic_form(name, spec,
                                       nu=v["diagnostics.matrix_nu"],
                                       sigma_value=v[
                                           "diagnostics.matrix_sigma"],
                                       k=v["diagnostics.matrix_k"]).as_dict()
               for name in names]
    prefix = v["output.prefix"]
    report_name = f"{prefix}_matrices.json"
    _write_json(os.path.join(out_dir, report_name), {"reports": reports})
    return ([report_name], "completed", "")


def _regime_body(config, out_dir, workers):
    spec = config.model_spec()
    regime = model.classify_regime(spec)
    constants = model.derived_constants(spec)
    condition = model.sonic_pressure_condition(spec)
    eig = eigensystem(farfield_jacobian(spec))
    payload = {
        "regime": regime.label,
        "mach": float(regime.mach),
        "delta": float(spec.delta),
        "c_plus": float(constants.c_plus),
        "a": float(constants.a),
        "b": float(constants.b),
        "lambda_star": float(constants.lambda_star),
        "eigenvalues": [[float(lam.real), float(lam.imag)]
                        for lam in eig.lambdas],
        "sign_pattern": list(eig.sign_pattern),
        "sonic_condition": {"holds": bool(condition.holds),
                            "margin": float(condition.margin)},
    }
    prefix = config.values["output.prefix"]
    report_name = f"{prefix}_regime.json"
    _write_json(os.path.join(out_dir, report_name), payload)
    return ([report_name], "completed", "")


def _sweep_child(job):
    name, config, child_dir = job
    try:
        record = run_subcommand(name, config, child_dir)
        return (record.status, record.reason)
    except Exception as err:  # noqa: BLE001 - worker boundary
        return ("aborted", f"{type(err).__name__}: {err}")


def _sweep_body(config, out_dir, workers):
    v = config.values
    param = v["sweep.parameter"]
    raw_values = v["sweep.values"]
    if not param:
        raise ConfigError("sweep.parameter is required for sweep")
    if param not in _SCHEMA or param.startswith("sweep."):
        raise ConfigError(f"cannot sweep over {param!r}")
    if not raw_values:
        raise ConfigError("sweep.values must list at least one value")
    name = v["sweep.subcommand"]

    # a child: the parent's values, the swept one in, sweep.* at default
    base = {key: _format_value(value, _SCHEMA[key].kind)
            for key, value in v.items() if not key.startswith("sweep.")}
    children = []
    for raw in raw_values:
        try:
            child = ExperimentConfig(_build_values({**base, param: raw}))
        except ConfigError as err:
            raise ConfigError(f"sweep value {raw!r}: {err}") from None
        _cross_validate(child)
        children.append((raw, child))
    if len({child.hash for _, child in children}) < len(children):
        raise ConfigError(
            "sweep.values contains duplicates (identical configurations)")

    jobs = [(name, child, os.path.join(out_dir, child.hash))
            for _, child in children]
    if workers <= 1:
        outcomes = [_sweep_child(job) for job in jobs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_sweep_child, jobs))

    rows = sorted(
        (child.hash, param,
         _format_value(child.values[param], _SCHEMA[param].kind),
         status, reason)
        for (_, child), (status, reason) in zip(children, outcomes))
    prefix = v["output.prefix"]
    index_name = f"{prefix}_index.csv"
    with open(os.path.join(out_dir, index_name), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["hash", "parameter", "value", "status", "reason"])
        writer.writerows(rows)
    return ([index_name], "completed", "")


_RUNNERS = {"steady": _steady_body, "evolve": _evolve_body,
            "decay-fit": _decay_fit_body, "matrix-check": _matrix_check_body,
            "regime": _regime_body, "sweep": _sweep_body}


def run_subcommand(name, config, out_dir, workers=1) -> RunRecord:
    """Run one subcommand, always leaving an echo and a run record behind."""
    if name not in _RUNNERS:
        raise ConfigError(f"unknown subcommand {name!r}")
    os.makedirs(out_dir, exist_ok=True)
    prefix = config.values["output.prefix"]
    started = _utc_now()
    echo_name = f"{prefix}_config.txt"
    with open(os.path.join(out_dir, echo_name), "w") as fh:
        fh.write(config.canonical_text())
    files = [echo_name]

    def record_with(status, reason, extra=()):
        return RunRecord(config_hash=config.hash, version=_VERSION,
                         subcommand=name, started=started, ended=_utc_now(),
                         status=status, reason=reason,
                         files=tuple(files) + tuple(extra))

    record_path = os.path.join(out_dir, f"{prefix}_run.json")
    try:
        emitted, status, reason = _RUNNERS[name](config, out_dir, workers)
    except Exception as err:
        record = record_with("aborted", f"{type(err).__name__}: {err}")
        _write_json(record_path, record.as_dict())
        raise
    record = record_with(status, reason, emitted)
    _write_json(record_path, record.as_dict())
    return record


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _exit_code_for(err):
    if isinstance(err, ConfigError):
        return 2
    if isinstance(err, (DomainError, ShootingError, SingularityError,
                        InsufficientDataError, WeightOverflowError)):
        return 3
    if isinstance(err, (VacuumError, BlowUpError, NumericsError)):
        return 4
    if isinstance(err, OSError):
        return 5
    return 1


def _resolve_out_dir(flag, config):
    return (flag or config.values["output.directory"]
            or os.environ.get("TWOPHASE_OUT", "") or os.getcwd())


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="twophase",
        description="Steady profiles, evolutions, and decay diagnostics "
                    "for the two-phase outflow problem on the half line.")
    parser.add_argument("--version", action="version", version=_VERSION)
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "steady": "construct a steady profile and report its residuals",
        "evolve": "run the time-dependent problem from a perturbed profile",
        "decay-fit": "fit a decay law to a recorded norm series",
        "matrix-check": "evaluate the energy-estimate quadratic forms",
        "regime": "classify the far field and report derived constants",
        "sweep": "fan one parameter over a list of values",
    }
    for name in (*_RUN_SUBCOMMANDS, "sweep"):
        p = sub.add_parser(name, help=helps[name])
        p.add_argument("--config", required=True,
                       help="path to a section.key = value config file")
        p.add_argument("--out", default=None,
                       help="output directory (default: output.directory, "
                            "then $TWOPHASE_OUT, then the working "
                            "directory)")
        p.add_argument("--override", action="append", default=[],
                       metavar="KEY=VALUE",
                       help="override one config key (repeatable)")
        if name == "sweep":
            p.add_argument("--workers", type=int, default=1,
                           help="parallel worker processes")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = parse_config(args.config, tuple(args.override))
    except (ConfigError, OSError) as err:
        # an unreadable config file counts as a config error, not I/O
        print(f"error: {err}", file=sys.stderr)
        return 2
    try:
        out_dir = _resolve_out_dir(args.out, config)
        record = run_subcommand(args.command, config, out_dir,
                                workers=max(1, getattr(args, "workers", 1)))
    except Exception as err:  # noqa: BLE001 - process boundary
        code = _exit_code_for(err)
        internal = f"internal {type(err).__name__}: " if code == 1 else ""
        print(f"error: {internal}{err}", file=sys.stderr)
        return code
    print(f"{args.command}: {record.status} [{record.config_hash}] "
          f"-> {out_dir}")
    for name in record.files:
        print(f"  {name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
