"""The benchmark's three workloads: inputs made from a seed, one operation
each, and the checks every output of the package must pass.

Each workload calls only the public twophase API, in the order the CLI's
steady and evolve subcommands use, and wraps every call in a span named
after the called function. With tracing off the span is a shared no-op
context manager.
"""

import hashlib
import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import qmc

import twophase as tp
from twophase import ibvp
from twophase.diagnostics import AlgebraicNu, ExponentialLambda, SigmaNu

UNIT_FLUIDS = tp.FluidConstants(A1=1.0, A2=1.0, gamma=1.0, alpha=1.0, mu=1.0)

REGIMES = ("supersonic", "subsonic", "sonic")

# spec ranges of the test suite's random_spec, with the Mach bands widened
# to 1.01 and 0.99 so that the near-sonic shooting failures stay in
MACH_RANGE = {"supersonic": (1.01, 3.0), "subsonic": (0.15, 0.99)}
FLUID_RANGES = (("A1", 0.3, 3.0), ("A2", 0.3, 3.0), ("gamma", 1.0, 3.0),
                ("alpha", 1.0, 3.0), ("mu", 0.2, 5.0))
FAR_RANGES = (("rho_plus", 0.3, 3.0), ("n_plus", 0.3, 3.0))
DELTA_RANGE = (0.005, 0.05)
SPECS_PER_REGIME = 16

RESIDUAL_BOUND = 1e-6       # acceptance criterion 03
BOUNDARY_TOL = 1e-8
MASS_FLUX_TOL = 1e-10
SONIC_SLOPE, SONIC_SLOPE_TOL, SONIC_R2 = -1.0, 0.1, 0.99   # criterion 05

DEFAULT_SEED = 0
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")


def input_hash(record):
    """sha256 of the canonical JSON of an input record; floats print with
    repr, so equal hashes mean bit-identical inputs."""
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Outcome:
    """What one operation did: useful work done (0 when it failed) and,
    when it failed, the exception type or the names of the failed checks."""

    work: float = 0.0
    failures: list = field(default_factory=list)
    residual: float = None
    detail: str = ""

    @property
    def ok(self):
        return not self.failures

    def need(self, holds, check):
        if not holds:
            self.failures.append(check)


def _draw(unit, lo, hi):
    return float(lo + (hi - lo) * unit)


def steady_specs(seed):
    """A fixed design of SPECS_PER_REGIME specs per regime, in an order
    drawn from the seed, interleaved supersonic, subsonic, sonic; each
    entry is (regime, index in the regime's design, spec).

    Each regime's design is a scrambled Sobol sequence over the fluid
    constants, far-field densities, Mach number and delta, which spreads
    the points over the whole box. The specs do not depend on the seed:
    the cost of a shooting solve changes several-fold under small changes
    of a spec, so specs drawn per seed made throughput depend on the seed
    more than on the program.
    """
    rng = np.random.default_rng(seed)
    per_regime = {}
    for k, regime in enumerate(REGIMES):
        design = qmc.Sobol(d=9, scramble=True,
                           rng=np.random.default_rng(k)).random(
                               SPECS_PER_REGIME)
        specs = []
        for k in rng.permutation(SPECS_PER_REGIME):
            p = design[k]
            fluids = tp.FluidConstants(**{
                name: _draw(p[j], lo, hi)
                for j, (name, lo, hi) in enumerate(FLUID_RANGES)})
            rho_plus, n_plus = (_draw(p[5 + j], lo, hi)
                                for j, (_, lo, hi) in enumerate(FAR_RANGES))
            c = tp.sonic_velocity(fluids, rho_plus, n_plus)
            mach = (_draw(p[7], *MACH_RANGE[regime])
                    if regime in MACH_RANGE else 1.0)
            u_plus = mach * c
            far = tp.FarFieldState(rho_plus=rho_plus, n_plus=n_plus,
                                   u_plus=u_plus)
            specs.append((regime, int(k), tp.ModelSpec(
                fluids=fluids, far=far,
                u_minus=u_plus - _draw(p[8], *DELTA_RANGE))))
        per_regime[regime] = specs
    return [per_regime[regime][i]
            for i in range(SPECS_PER_REGIME) for regime in REGIMES]


def _spec_record(spec):
    f, far = spec.fluids, spec.far
    return {"A1": f.A1, "A2": f.A2, "gamma": f.gamma, "alpha": f.alpha,
            "mu": f.mu, "rho_plus": far.rho_plus, "n_plus": far.n_plus,
            "u_plus": far.u_plus, "u_minus": spec.u_minus}


def _bump(seed, salt):
    """Compact bump near amplitude 1e-3, centre 50 and width 10, jittered
    by up to 10% (2 length units for the centre) from the seed."""
    rng = np.random.default_rng([seed, salt])
    ja, jc, jw = rng.uniform(-1.0, 1.0, 3)
    return tp.PerturbationSpec(shape="compact_bump",
                               amplitude=1e-3 * (1.0 + 0.1 * ja),
                               center=50.0 + 2.0 * jc,
                               width=10.0 * (1.0 + 0.1 * jw),
                               components=("u",))


def _pert_record(pert):
    return {"shape": pert.shape, "amplitude": pert.amplitude,
            "center": pert.center, "width": pert.width,
            "components": list(pert.components)}


def _fields_ok(out, state, label=""):
    fields = (state.rho, state.u, state.n, state.v)
    out.need(all(bool(np.all(np.isfinite(a))) for a in fields),
             f"finite{label}")
    out.need(bool(np.all(state.rho > ibvp.DENSITY_FLOOR))
             and bool(np.all(state.n > ibvp.DENSITY_FLOOR)),
             f"density_floor{label}")


def _lines(path):
    with open(path, "rb") as fh:
        return fh.read().count(b"\n")


def _reference(name):
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)[name]


def _record_values(record):
    values = {"l2": record.l2, "h1": record.h1, "linf": record.linf,
              "drag_l2": record.drag_l2}
    values.update({tag.label: value for tag, value in record.weighted.items()})
    return values


class _Workload:
    """Shared pieces: the seed, a scratch directory and the reference
    comparison for the default seed."""

    states = 1
    ops_per_pass = 1

    def __init__(self, seed, scratch):
        self.seed = seed
        self.scratch = scratch
        self.inputs = {}

    def regime_for(self, op):
        return self.regime

    def unexpected(self, op, out):
        """The failures of operation `op` that mean a wrong output or a
        regression: here every failure."""
        return list(out.failures)

    def _check_reference(self, out, record):
        """For the default seed the final norms must match those recorded
        when the benchmark was defined, to the recorded relative
        tolerance."""
        if self.seed != DEFAULT_SEED:
            return
        ref = _reference(self.name)
        if ref["inputs_sha256"] != input_hash(self.inputs):
            out.failures.append("reference_inputs")
            return
        got = _record_values(record)
        for key, want in ref["final"].items():
            if not abs(got[key] - want) <= ref["rel_tol"] * abs(want):
                out.failures.append(f"reference_{key}")


class SteadySweep(_Workload):
    """Solve, check, fit and round-trip one generated spec per operation.

    The design holds specs on which the solver fails today. They are
    recorded in reference.json with the reasons they fail for; any other
    failure, or one of these specs failing for another reason, means a
    regression, while a recorded spec that now passes is a gain.
    """

    name = "steady_sweep"

    def setup(self, span):
        self.specs = steady_specs(self.seed)
        self.inputs = {"workload": self.name, "seed": self.seed,
                       "specs": [dict(_spec_record(s), regime=r,
                                      design_index=k)
                                 for r, k, s in self.specs]}
        self.known_failures = {
            (f["regime"], f["design_index"]): set(f["reasons"])
            for f in _reference(self.name)["known_failures"]}
        self.path = os.path.join(self.scratch, "profile.csv")
        self.ops_per_pass = len(self.specs)

    def regime_for(self, op):
        return self.specs[op % len(self.specs)][0]

    def unexpected(self, op, out):
        regime, k, _ = self.specs[op % len(self.specs)]
        known = self.known_failures.get((regime, k), set())
        return [f"{regime}#{k}:{f}" for f in out.failures if f not in known]

    def run(self, op, span):
        regime, _, spec = self.specs[op % len(self.specs)]
        out = Outcome()
        try:
            with span("solve_steady"):
                profile = tp.solve_steady(spec)
        except Exception as err:
            out.need(False, "solve_steady:" + type(err).__name__)
            out.detail = str(err)
            return out
        with span("steady_residual"):
            out.residual = tp.steady_residual(spec, profile)
        self.check_profile(out, regime, spec, profile)
        x_hi = float(profile.x[-1])
        law = "algebraic" if regime == "sonic" else "exponential"
        with span("fit_spatial_decay"):
            fit = tp.fit_spatial_decay(profile, "u", law, (x_hi / 2, x_hi))
        if regime == "sonic":
            out.need(abs(fit.rate_or_slope - SONIC_SLOPE) <= SONIC_SLOPE_TOL,
                     "sonic_slope")
            out.need(fit.r_squared >= SONIC_R2, "sonic_r2")
        with span("save_profile_csv"):
            tp.save_profile_csv(profile, self.path)
        with span("load_profile_csv"):
            cols = tp.load_profile_csv(self.path)
        out.need(all(np.array_equal(cols[name], getattr(profile, name))
                     for name in ("x", "rho_t", "u_t", "n_t", "v_t",
                                  "ux_t", "vx_t")), "csv_roundtrip")
        if out.ok:
            out.work = 1.0
        return out

    @staticmethod
    def check_profile(out, regime, spec, profile):
        out.need(abs(profile.u_t[0] - spec.u_minus) <= BOUNDARY_TOL, "u0")
        if regime != "subsonic":
            out.need(abs(profile.v_t[0] - spec.u_minus) <= BOUNDARY_TOL, "v0")
        flux = max(float(np.max(np.abs(profile.rho_t * profile.u_t
                                       - spec.mass_flux_1))),
                   float(np.max(np.abs(profile.n_t * profile.v_t
                                       - spec.mass_flux_2))))
        out.need(flux <= MASS_FLUX_TOL, "mass_flux")
        if regime != "sonic":
            out.need(out.residual <= RESIDUAL_BOUND, "residual")


class Evolve8192(_Workload):
    """Criterion 07's supersonic setup at 8192 cells, marched by evolve()."""

    name = "evolve_8192"
    regime = "supersonic"
    cells = 8192
    t_end = 0.15
    stride = 10
    weights = (ExponentialLambda(0.1), AlgebraicNu(2.0))

    def setup(self, span):
        self.spec = tp.ModelSpec(
            fluids=UNIT_FLUIDS,
            far=tp.FarFieldState(rho_plus=1.0, n_plus=1.0, u_plus=-2.0),
            u_minus=-2.002)
        self.grid = tp.make_grid(100.0, self.cells)
        pert = _bump(self.seed, 1)
        self.inputs = {"workload": self.name, "seed": self.seed,
                       "spec": _spec_record(self.spec), "length": 100.0,
                       "cells": self.cells, "x_domain": 101.0,
                       "t_end": self.t_end, "stride": self.stride,
                       "weights": [w.label for w in self.weights],
                       "perturbation": _pert_record(pert)}
        with span("solve_steady"):
            self.profile = tp.solve_steady(
                self.spec, tp.SteadySolveOptions(x_domain=101.0))
        with span("initialize"):
            self.state0 = tp.initialize(self.profile, self.grid, pert)
        self.state_path = os.path.join(self.scratch, "final.csv")
        self.series_path = os.path.join(self.scratch, "norms.csv")

    def run(self, op, span):
        grid, profile = self.grid, self.profile

        def observe(snapshot):
            with span("perturbation"):
                pert = tp.perturbation(snapshot, profile, grid)
            with span("norms"):
                return tp.norms(pert, grid, weights=self.weights,
                                t=snapshot.t)

        out = Outcome()
        with span("evolve"):
            result = tp.evolve(self.state0, grid, self.spec, t_end=self.t_end,
                               observer_stride=self.stride,
                               observers=(observe,))
        with span("save_norm_series_csv"):
            tp.save_norm_series_csv(result.series, self.series_path)
        with span("save_state_csv"):
            tp.save_state_csv(result.state, grid, self.state_path)
        self.state_csv_bytes = os.path.getsize(self.state_path)
        records = result.series.records
        out.need(not result.truncated, "truncated")
        out.need(math.isclose(result.state.t, self.t_end, abs_tol=1e-12),
                 "t_end")
        _fields_ok(out, result.state)
        out.need(records[-1].linf <= records[0].linf, "linf_growth")
        out.need(_lines(self.state_path) == grid.cells + 1, "state_csv_rows")
        out.need(_lines(self.series_path) == len(records) + 1,
                 "series_csv_rows")
        self._check_reference(out, records[-1])
        if out.ok:
            out.work = self.t_end
        return out


class SonicTwin1024(_Workload):
    """Criterion 08's sonic twin: a bumped and a quiet state stepped
    together at one shared dt, recording the sigma-weighted norm of their
    difference every 10 step pairs."""

    name = "sonic_twin_1024"
    regime = "sonic"
    states = 2
    cells = 1024
    t_end = 8.0
    stride = 10
    weights = (SigmaNu(nu=1.0),)

    def setup(self, span):
        self.spec = tp.ModelSpec(
            fluids=UNIT_FLUIDS,
            far=tp.FarFieldState(rho_plus=1.0, n_plus=1.0, u_plus=-1.0),
            u_minus=-1.05)
        self.grid = tp.make_grid(100.0, self.cells)
        pert = _bump(self.seed, 2)
        quiet = tp.PerturbationSpec(shape="compact_bump", amplitude=0.0,
                                    center=pert.center, width=pert.width,
                                    components=("u",))
        self.inputs = {"workload": self.name, "seed": self.seed,
                       "spec": _spec_record(self.spec), "length": 100.0,
                       "cells": self.cells, "x_domain": 101.0,
                       "t_end": self.t_end, "stride": self.stride,
                       "weights": [w.label for w in self.weights],
                       "perturbation": _pert_record(pert)}
        with span("solve_steady"):
            self.profile = tp.solve_steady(
                self.spec, tp.SteadySolveOptions(x_domain=101.0))
        self.sigma = (tp.derived_constants(self.spec).a, self.profile.sigma0)
        with span("initialize"):
            self.bumped0 = tp.initialize(self.profile, self.grid, pert)
        with span("initialize"):
            self.quiet0 = tp.initialize(self.profile, self.grid, quiet)
        with span("stable_dt"):
            dt_b = tp.stable_dt(self.bumped0, self.grid, self.spec)
        with span("stable_dt"):
            dt_q = tp.stable_dt(self.quiet0, self.grid, self.spec)
        self.dt = 0.95 * min(dt_b, dt_q)

    def _record(self, span, bumped, quiet):
        with span("perturbation"):
            pa = tp.perturbation(bumped, self.profile, self.grid)
        with span("perturbation"):
            pz = tp.perturbation(quiet, self.profile, self.grid)
        diff = tp.PerturbationField(phi=pa.phi - pz.phi, psi=pa.psi - pz.psi,
                                    phi_bar=pa.phi_bar - pz.phi_bar,
                                    psi_bar=pa.psi_bar - pz.psi_bar)
        with span("norms"):
            return tp.norms(diff, self.grid, weights=self.weights,
                            sigma_params=self.sigma, t=bumped.t)

    def run(self, op, span):
        grid, spec, t_end = self.grid, self.spec, self.t_end
        bumped, quiet = self.bumped0, self.quiet0
        records = [self._record(span, bumped, quiet)]
        pairs = 0
        while t_end - bumped.t > 1e-9:
            d = min(self.dt, t_end - bumped.t)
            with span("step"):
                bumped = tp.step(bumped, grid, spec, d)
            with span("step"):
                quiet = tp.step(quiet, grid, spec, d)
            pairs += 1
            if pairs % self.stride == 0 or t_end - bumped.t <= 1e-9:
                records.append(self._record(span, bumped, quiet))
        series = tp.NormSeries(records=tuple(records))
        with span("fit_temporal_decay"):
            fit = tp.fit_temporal_decay(series, "sig1", "algebraic")
        out = Outcome()
        _fields_ok(out, bumped, "_bumped")
        _fields_ok(out, quiet, "_quiet")
        out.need(records[-1].linf <= records[0].linf, "linf_growth")
        out.need(math.isfinite(fit.rate) and math.isfinite(fit.r_squared),
                 "fit_finite")
        self._check_reference(out, records[-1])
        if out.ok:
            out.work = t_end
        return out


WORKLOADS = {cls.name: cls for cls in (SteadySweep, Evolve8192,
                                       SonicTwin1024)}


@contextmanager
def traced_internals(tracer):
    """Rebind the step and stable_dt globals that evolve() looks up in
    twophase.ibvp to span-recording wrappers, and restore them after."""
    saved = ibvp.step, ibvp.stable_dt
    ibvp.step = tracer.wrap("step", saved[0])
    ibvp.stable_dt = tracer.wrap("stable_dt", saved[1])
    try:
        yield
    finally:
        ibvp.step, ibvp.stable_dt = saved
