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
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass

import numpy as np

from . import __version__, model
from .diagnostics import (QUADRATIC_FORMS, _check_forms,
                          assemble_quadratic_form, fit_temporal_decay,
                          load_norm_series_csv, norms, perturbation,
                          save_norm_series_csv, weight_tag)
from .errors import (BlowUpError, ConfigError, DomainError,
                     InsufficientDataError, NumericsError, ShootingError,
                     SingularityError, VacuumError, WeightOverflowError)
from .ibvp import (Grid1D, PerturbationSpec, _check_evolve, evolve,
                   initialize, save_state_csv)
from .steady import (ALGEBRAIC, EXPONENTIAL, SteadySolveOptions, _check_fit,
                     eigensystem, farfield_jacobian, fit_spatial_decay,
                     save_profile_csv, solve_steady, steady_residual)

_VERSION = f"twophase {__version__}"


# ---------------------------------------------------------------------------
# config schema
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Key:
    kind: type            # what a value parses to: float, int, str, tuple
    default: object       # MISSING: the key is required


def _object_keys(cls, prefix, **defaults):
    # the keys of an object built from a config: <prefix><field> of the
    # field's declared type and default, or the one given here; a field
    # that holds an object gives that object's keys under the same prefix
    keys = {}
    for f in fields(cls):
        if is_dataclass(f.type):
            keys.update(_object_keys(f.type, prefix))
        else:
            keys[prefix + f.name] = _Key(f.type,
                                         defaults.get(f.name, f.default))
    return keys


# each value is checked by the object built from it or by the function
# that takes it (see _cross_validate)
_SCHEMA = {
    **_object_keys(model.ModelSpec, "spec."),
    **_object_keys(Grid1D, "grid.", length=100.0, cells=1024),
    **_object_keys(SteadySolveOptions, "steady."),
    "evolve.t_end": _Key(float, 10.0),
    "evolve.cfl": _Key(float, 0.4),
    "evolve.observer_stride": _Key(int, 10),
    "evolve.wall_clock_budget": _Key(float, None),
    **_object_keys(PerturbationSpec, "evolve.pert_"),
    "diagnostics.weights": _Key(tuple, ()),
    "diagnostics.fit_norm": _Key(str, "l2"),
    "diagnostics.fit_law": _Key(str, EXPONENTIAL),
    "diagnostics.fit_window": _Key(str, ""),
    "diagnostics.series_path": _Key(str, ""),
    "diagnostics.matrix_names": _Key(tuple, QUADRATIC_FORMS[:4]),
    "diagnostics.matrix_nu": _Key(float, None),
    "diagnostics.matrix_sigma": _Key(float, None),
    "diagnostics.matrix_k": _Key(float, None),
    "output.directory": _Key(str, ""),
    "output.prefix": _Key(str, "run"),
    "sweep.parameter": _Key(str, ""),
    "sweep.values": _Key(tuple, ()),
    "sweep.subcommand": _Key(str, "steady"),
}


def _parse_value(key, raw, meta):
    raw, kind = raw.strip(), meta.kind
    if kind is tuple:
        return tuple(item.strip() for item in raw.split(",") if item.strip())
    if raw == "" and meta.default is None:
        return None
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(
            f"{key}: cannot parse {raw!r} as {kind.__name__}") from None


def _format_value(value, kind):
    if kind is float:
        return "" if value is None else repr(value)
    if kind is tuple:
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

    def _build(self, cls, prefix, **overrides):
        # cls from the values of its keys (see _object_keys), but for the
        # fields given here
        kwargs = {f.name: (self._build(f.type, prefix) if is_dataclass(f.type)
                           else self.values[prefix + f.name])
                  for f in fields(cls)}
        return cls(**(kwargs | overrides))

    def model_spec(self):
        return self._build(model.ModelSpec, "spec.")

    def grid(self):
        return self._build(Grid1D, "grid.")

    def steady_options(self, **overrides):
        return self._build(SteadySolveOptions, "steady.", **overrides)

    def perturbation_spec(self):
        return self._build(PerturbationSpec, "evolve.pert_")

    def weight_tags(self):
        return tuple(weight_tag(label)
                     for label in self.values["diagnostics.weights"])

    def fit_window(self):
        text = self.values["diagnostics.fit_window"]
        if not text:
            return None
        try:
            lo, hi = map(float, text.split(":"))
        except ValueError:
            raise ConfigError(f"diagnostics.fit_window: cannot parse "
                              f"{text!r} as 't_lo:t_hi'") from None
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
                     if meta.default is MISSING and key not in raw)
    if missing:
        raise ConfigError("missing required key(s): " + ", ".join(missing))
    return {key: _parse_value(key, raw[key], meta) if key in raw
            else meta.default for key, meta in _SCHEMA.items()}


def _cross_validate(config):
    # build every object a subcommand builds from the config and check
    # each call argument by the rule of the function that takes it (an
    # evolve from time 0), so a bad config exits 2 before any work
    v = config.values
    try:
        config.model_spec()
        config.grid()
        config.steady_options()
        config.perturbation_spec()
        config.weight_tags()
        _check_fit(v["diagnostics.fit_law"], config.fit_window())
        _check_evolve(0.0, v["evolve.t_end"], v["evolve.observer_stride"],
                      v["evolve.wall_clock_budget"], v["evolve.cfl"])
        _check_forms(v["diagnostics.matrix_names"],
                     v["diagnostics.matrix_nu"],
                     v["diagnostics.matrix_sigma"], v["diagnostics.matrix_k"])
    except DomainError as err:
        raise ConfigError(str(err)) from err
    # a sweep runs any subcommand but itself
    children = [name for name in _RUNNERS if name != "sweep"]
    if v["sweep.subcommand"] not in children:
        raise ConfigError(f"sweep.subcommand: must be one of "
                          f"{', '.join(children)} "
                          f"(got {v['sweep.subcommand']})")


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
    """construct a steady profile and report its residuals"""
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
        report["decay_fit"] = asdict(fit)
    else:
        report["decay_fit"] = None
    report_name = f"{prefix}_steady.json"
    _write_json(os.path.join(out_dir, report_name), report)
    return ([profile_name, report_name], "completed", "")


def _evolve_body(config, out_dir, workers):
    """run the time-dependent problem from a perturbed profile"""
    v = config.values
    spec = config.model_spec()
    grid = config.grid()
    # unless pinned in the config, the profile domain must cover the grid
    # (plus the ghost cell); the solver's own default is usually shorter
    x_domain = v["steady.x_domain"] or (grid.length + 1.0)
    profile = solve_steady(spec, config.steady_options(x_domain=x_domain))
    state = initialize(profile, grid, config.perturbation_spec())
    weights = config.weight_tags()
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
    meta_path = save_state_csv(result.state, grid,
                               os.path.join(out_dir, final_name),
                               spec_hash=config.hash)
    files = [norms_name, final_name, os.path.basename(meta_path)]
    if result.truncated:
        return (files, "truncated",
                f"wall clock budget exhausted at t={result.state.t:.6g}")
    return (files, "completed", "")


def _decay_fit_body(config, out_dir, workers):
    """fit a decay law to a recorded norm series"""
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
                {**asdict(fit), "norm": v["diagnostics.fit_norm"],
                 "records": len(series.records), "source": str(path)})
    return ([fit_name], "completed", "")


def _matrix_check_body(config, out_dir, workers):
    """evaluate the energy-estimate quadratic forms"""
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
    """classify the far field and report derived constants"""
    spec = config.model_spec()
    regime = model.classify_regime(spec)
    constants = model.derived_constants(spec)
    condition = model.sonic_pressure_condition(spec)
    eig = eigensystem(farfield_jacobian(spec))
    payload = {
        "regime": regime.label,
        "mach": float(regime.mach),
        "delta": float(spec.delta),
        **asdict(constants),
        "lambda_star": constants.lambda_star,
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
    """fan one parameter over a list of values"""
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
            _cross_validate(child)
        except ConfigError as err:
            raise ConfigError(f"sweep value {raw!r}: {err}") from None
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
        _write_json(record_path, asdict(record))
        raise
    record = record_with(status, reason, emitted)
    _write_json(record_path, asdict(record))
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
    for name, body in _RUNNERS.items():
        p = sub.add_parser(name, help=body.__doc__)
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
