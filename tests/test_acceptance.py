"""Shipping gates: ten end-to-end criteria, one test per gate.

Each test prints a single verdict line after its assertions, so the captured
output reads as the acceptance record. The evolution fixtures are the slow
part (minutes, module-scoped, shared between gates); everything else runs in
seconds. Tolerances and fit windows are pinned against rehearsal runs of the
exact same configurations, quoted in the comments where a number would
otherwise look arbitrary.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

import twophase as tp
from twophase.diagnostics import (POSITIVE_DEFINITE, POSITIVE_SEMIDEFINITE,
                                  NormRecord, NormSeries, PerturbationField,
                                  SigmaNu)
from twophase.steady import matrix_invariants

from helpers import flat_profile, random_fluids, random_spec, rng_for

UNIT = tp.FluidConstants(A1=1.0, A2=1.0, gamma=1.0, alpha=1.0, mu=1.0)


def unit_spec(u_plus, u_minus):
    far = tp.FarFieldState(rho_plus=1.0, n_plus=1.0, u_plus=u_plus)
    return tp.ModelSpec(fluids=UNIT, far=far, u_minus=u_minus)


def compact_bump(amplitude):
    return tp.PerturbationSpec(shape="compact_bump", amplitude=amplitude,
                               center=50.0, width=10.0, components=("u",))


# ---------------------------------------------------------------------------
# shared solves and runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def supersonic_case():
    spec = unit_spec(-2.0, -2.05)
    t0 = time.perf_counter()
    prof = tp.solve_steady(spec)
    return spec, prof, time.perf_counter() - t0


@pytest.fixture(scope="module")
def sonic_case():
    spec = unit_spec(-1.0, -1.05)
    t0 = time.perf_counter()
    prof = tp.solve_steady(spec)
    return spec, prof, time.perf_counter() - t0


@pytest.fixture(scope="module")
def subsonic_case():
    spec = unit_spec(-0.5, -0.55)
    t0 = time.perf_counter()
    prof = tp.solve_steady(spec)
    return spec, prof, time.perf_counter() - t0


@pytest.fixture(scope="module")
def drift_by_resolution():
    """Zero-perturbation L2 drift after one time unit, per resolution.

    The scheme's discrete equilibrium sits O(dx) from the interpolated
    profile, so this drift is a direct read of the consistency order."""
    spec = unit_spec(-2.0, -2.05)
    prof = tp.solve_steady(spec, tp.SteadySolveOptions(x_domain=101.0))
    out = {}
    for cells in (1024, 2048):
        grid = tp.make_grid(100.0, cells)
        state = tp.initialize(prof, grid, compact_bump(0.0))
        res = tp.evolve(state, grid, spec, t_end=1.0)
        field = tp.perturbation(res.state, prof, grid)
        out[cells] = (grid.dx, tp.norms(field, grid, t=res.state.t).l2)
    return out


@pytest.fixture(scope="module")
def supersonic_run():
    # delta small enough that the discrete-equilibrium offset (itself
    # proportional to delta) stays well below the 1e-3 perturbation; at
    # delta = 0.05 the offset alone would exceed it
    spec = unit_spec(-2.0, -2.002)
    prof = tp.solve_steady(spec, tp.SteadySolveOptions(x_domain=101.0))
    grid = tp.make_grid(100.0, 2048)
    state = tp.initialize(prof, grid, compact_bump(1e-3))

    def record(current):
        return tp.norms(tp.perturbation(current, prof, grid), grid,
                        t=current.t)

    result = tp.evolve(state, grid, spec, t_end=200.0, observer_stride=100,
                       observers=(record,))
    assert not result.truncated
    return result.series


@pytest.fixture(scope="module")
def sonic_twin_series():
    """Sigma-weighted perturbation norms for a sonic run, drift-cancelled.

    The sonic tail is algebraic, so cutting it at the grid edge leaves a
    boundary mismatch whose secular drift outgrows the perturbation itself
    (measured: drift L2 6.3e-3 at t = 200 against a 7.8e-4 perturbation).
    Marching a zero-amplitude twin with the same step and differencing the
    two states cancels that drift exactly and leaves the perturbation
    dynamics alone."""
    spec = unit_spec(-1.0, -1.05)
    a = tp.derived_constants(spec).a
    prof = tp.solve_steady(spec, tp.SteadySolveOptions(x_domain=101.0))
    grid = tp.make_grid(100.0, 1024)
    bumped = tp.initialize(prof, grid, compact_bump(1e-3))
    quiet = tp.initialize(prof, grid, compact_bump(0.0))
    dt = 0.95 * min(tp.stable_dt(bumped, grid, spec),
                    tp.stable_dt(quiet, grid, spec))
    tags = (SigmaNu(nu=1.0),)
    sig = (a, prof.sigma0)
    records = []

    def record():
        pa = tp.perturbation(bumped, prof, grid)
        pz = tp.perturbation(quiet, prof, grid)
        diff = PerturbationField(phi=pa.phi - pz.phi, psi=pa.psi - pz.psi,
                                 phi_bar=pa.phi_bar - pz.phi_bar,
                                 psi_bar=pa.psi_bar - pz.psi_bar)
        records.append(tp.norms(diff, grid, weights=tags, sigma_params=sig,
                                t=bumped.t))

    record()
    t_end, steps = 200.0, 0
    while t_end - bumped.t > 1e-9:
        d = min(dt, t_end - bumped.t)
        bumped = tp.step(bumped, grid, spec, d)
        quiet = tp.step(quiet, grid, spec, d)
        steps += 1
        if steps % 100 == 0 or t_end - bumped.t <= 1e-9:
            record()
    return NormSeries(records=tuple(records))


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_01_farfield_eigenstructure():
    patterns = {"supersonic": ("neg", "neg", "pos"),
                "sonic": ("neg", "zero", "pos"),
                "subsonic": ("neg", "pos", "pos")}
    t0 = time.perf_counter()
    for regime, pattern in patterns.items():
        rng = rng_for("acceptance-eigenstructure", regime)
        for _ in range(100):
            spec = random_spec(rng, regime)
            J = tp.farfield_jacobian(spec)
            eig = tp.eigensystem(J)
            tr, pairs, det = matrix_invariants(J)
            l1, l2, l3 = eig.lambdas
            assert abs(l1 + l2 + l3 - tr) <= 1e-8 * max(1.0, abs(tr))
            assert abs(l1 * l2 + l1 * l3 + l2 * l3 - pairs) \
                <= 1e-8 * max(1.0, abs(pairs))
            assert abs(l1 * l2 * l3 - det) <= 1e-8 * max(1.0, abs(det))
            assert eig.sign_pattern == pattern
            if regime == "sonic":
                assert abs(eig.lambdas[1].real) < 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"criterion 01 PASS: eigenvalue closure to 1e-8 and sign patterns "
          f"on 300 random specs in {elapsed:.2f}s")


def test_criterion_02_manifold_constants():
    t0 = time.perf_counter()
    rng = rng_for("acceptance-constants")
    floor = 2.0 + math.sqrt(8.0)
    # b = 0 exactly when the phase-1 pressure slope matches u^2
    for _ in range(200):
        f = random_fluids(rng)
        rho = float(rng.uniform(0.3, 3.0))
        n = float(rng.uniform(0.3, 3.0))
        u = -math.sqrt(f.A1 * f.gamma * rho ** (f.gamma - 1.0))
        far = tp.FarFieldState(rho_plus=rho, n_plus=n, u_plus=u)
        spec = tp.ModelSpec(fluids=f, far=far, u_minus=u)
        assert tp.derived_constants(spec).lambda_star == 5.0
    regimes = ("supersonic", "sonic", "subsonic")
    for i in range(1000):
        spec = random_spec(rng, regimes[i % 3])
        lam = tp.derived_constants(spec).lambda_star
        assert floor < lam <= 5.0
    symmetric = tp.ModelSpec(
        fluids=tp.FluidConstants(A1=4.0, A2=4.0, gamma=1.0, alpha=1.0,
                                 mu=1.0),
        far=tp.FarFieldState(rho_plus=1.0, n_plus=1.0, u_plus=-2.0),
        u_minus=-2.0)
    consts = tp.derived_constants(symmetric)
    assert consts.b == 0.0
    assert consts.a == 1.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"criterion 02 PASS: lambda_star ceiling 5 at b=0, range "
          f"(2+sqrt8, 5] on 1000 specs, curvature constant 1 on the "
          f"symmetric spec, in {elapsed:.2f}s")


def test_criterion_03_supersonic_steady_quality(supersonic_case):
    spec, prof, seconds = supersonic_case
    assert len(prof.x) == 2048
    residual = tp.steady_residual(spec, prof)
    assert residual <= 1e-6
    flux1 = float(np.max(np.abs(prof.rho_t * prof.u_t - spec.mass_flux_1)))
    flux2 = float(np.max(np.abs(prof.n_t * prof.v_t - spec.mass_flux_2)))
    assert flux1 <= 1e-10 and flux2 <= 1e-10
    assert abs(prof.u_t[0] - spec.u_minus) <= 1e-8
    assert abs(prof.v_t[0] - spec.u_minus) <= 1e-8
    assert seconds < 10.0
    print(f"criterion 03 PASS: residual {residual:.1e}, mass-flux error "
          f"{max(flux1, flux2):.1e}, boundary hit to 1e-8, solved in "
          f"{seconds:.1f}s")


def test_criterion_04_exponential_tails(supersonic_case, subsonic_case):
    rates = {}
    for name, case in (("supersonic", supersonic_case),
                       ("subsonic", subsonic_case)):
        spec, prof, _ = case
        X = prof.x[-1]
        fit = tp.fit_spatial_decay(prof, "u", "exponential", (X / 2, X))
        assert fit.r_squared >= 0.99
        assert fit.rate_or_slope > 0.0
        rates[name] = fit.rate_or_slope
    print(f"criterion 04 PASS: exponential tails r2 >= 0.99, rates "
          f"supersonic {rates['supersonic']:.3f} / subsonic "
          f"{rates['subsonic']:.3f}")


def test_criterion_05_sonic_algebraic_tail(sonic_case):
    spec, prof, seconds = sonic_case
    a = tp.derived_constants(spec).a
    X = prof.x[-1]
    slope = tp.fit_spatial_decay(prof, "u", "algebraic", (X / 2, X))
    assert slope.rate_or_slope == pytest.approx(-1.0, abs=0.1)
    assert slope.r_squared >= 0.99
    curvature = tp.fit_spatial_decay(prof, "ux_over_sigma2", "algebraic",
                                     (X / 2, X), sigma_params=(a, prof.sigma0))
    assert curvature.prefactor == pytest.approx(a, rel=0.10)
    assert abs(curvature.rate_or_slope) <= 0.05
    assert seconds < 30.0
    print(f"criterion 05 PASS: algebraic slope {slope.rate_or_slope:.3f}, "
          f"slope-over-sigma^2 plateau {curvature.prefactor:.3f} vs a = "
          f"{a:g}, solved in {seconds:.1f}s")


def test_criterion_06_fixed_point_drift(drift_by_resolution):
    dx_coarse, drift_coarse = drift_by_resolution[1024]
    dx_fine, drift_fine = drift_by_resolution[2048]
    # rehearsed drifts 2.84e-3 and 1.50e-3: the 0.1 dx ceiling carries a
    # 3x margin and the refinement ratio sits at 0.53
    assert drift_coarse <= 0.1 * dx_coarse
    assert drift_fine <= 0.1 * dx_fine
    ratio = drift_fine / drift_coarse
    assert 0.35 <= ratio <= 0.65
    print(f"criterion 06 PASS: drift {drift_coarse:.2e} / {drift_fine:.2e} "
          f"under 0.1 dx, refinement ratio {ratio:.3f}")


def test_criterion_07_supersonic_stability(supersonic_run):
    first = supersonic_run.records[0]
    last = supersonic_run.records[-1]
    assert last.t == pytest.approx(200.0, abs=1e-6)
    assert last.linf < 0.1 * first.linf
    assert last.drag_l2 <= 0.1 * first.drag_l2
    print(f"criterion 07 PASS: peak perturbation down "
          f"{first.linf / last.linf:.0f}x, velocity mismatch down "
          f"{first.drag_l2 / last.drag_l2:.0f}x over t = 200")


def test_criterion_08_temporal_decay_fits(supersonic_run, sonic_twin_series):
    # supersonic: the norm history is transit-dominated, a slow slide while
    # the bump crosses the domain, a sharp exponential crash as it exits
    # (t in [47.5, 62.5] rehearsed at r2 = 0.996), then a floor set by the
    # discrete equilibrium
    crash = tp.fit_temporal_decay(supersonic_run, "h1", "exponential",
                                  window=(47.5, 62.5))
    assert crash.rate > 0.0
    assert crash.r_squared >= 0.95
    # sonic: weighted data trades spatial weight for an algebraic-in-time
    # decay of the once-weighted norm at power (2 - 1) / 4; exact decay
    # constants are not reproducible on a truncated desk-scale domain,
    # hence the 30% band
    algebraic = tp.fit_temporal_decay(sonic_twin_series, "sig1", "algebraic",
                                      window=(100.0, 200.0))
    assert algebraic.rate > 0.0
    assert abs(algebraic.rate - 0.25) <= 0.30 * 0.25
    print(f"criterion 08 PASS: supersonic H1 crash rate {crash.rate:.3f} "
          f"(r2 {crash.r_squared:.3f}), sonic weighted-norm power "
          f"{algebraic.rate:.3f} within 30% of 0.25 (desk-scale domain "
          f"truncation bounds the achievable agreement)")


def test_criterion_09_matrix_suite():
    t0 = time.perf_counter()
    rng = rng_for("acceptance-matrices")
    for _ in range(50):
        spec = random_spec(rng, "supersonic")
        assert tp.assemble_quadratic_form("M3", spec).verdict \
            == POSITIVE_DEFINITE
    for _ in range(20):
        spec = random_spec(rng, "sonic")
        report = tp.assemble_quadratic_form("M4", spec)
        scale = max(1.0, abs(report.eigenvalues[2]))
        assert abs(report.eigenvalues[0]) < 1e-8 * scale
        assert report.eigenvalues[1] > 1e-8 * scale
        assert report.eigenvalues[2] > 1e-8 * scale
        assert report.verdict == POSITIVE_SEMIDEFINITE
    admissible = 0
    for _ in range(80):
        spec = random_spec(rng, "sonic")
        condition = tp.sonic_pressure_condition(spec)
        if condition.holds and condition.margin >= 0.0:
            admissible += 1
            for name in ("M1", "M2"):
                verdict = tp.assemble_quadratic_form(name, spec).verdict
                assert verdict in (POSITIVE_DEFINITE, POSITIVE_SEMIDEFINITE)
    assert admissible >= 10
    spec = random_spec(rng, "sonic")
    report = tp.assemble_quadratic_form("M4", spec)
    lam1, lam2 = report.eigenvalues[2], report.eigenvalues[1]
    for trip in rng.standard_normal((1000, 3)) * 3.0:
        rho_hat, n_hat, _ = tp.hat_transform(spec, trip)
        direct = trip @ report.matrix @ trip
        via = lam1 * rho_hat ** 2 + lam2 * n_hat ** 2
        assert abs(direct - via) <= 1e-10 * max(1.0, lam1 * float(trip @ trip))
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"criterion 09 PASS: M3 definite x50, M4 kernel pattern x20, "
          f"M1/M2 semidefinite on {admissible} admissible specs, hat "
          f"identity to 1e-10 x1000, in {elapsed:.2f}s")


def synthetic_series(t, values):
    records = tuple(NormRecord(t=float(tt), l2=float(v),
                               l2_components=(float(v), 0.0, 0.0, 0.0),
                               h1=float(v), linf=float(v), drag_l2=float(v),
                               weighted={})
                    for tt, v in zip(t, values))
    return NormSeries(records=records)


def synthetic_profile(x, u_dev, delta):
    spec = unit_spec(-2.0, -2.0 - delta)
    ones = np.ones_like(x)
    return tp.SteadyProfile(
        x=x, rho_t=ones, u_t=-2.0 + u_dev, n_t=ones.copy(),
        v_t=np.full_like(x, -2.0), ux_t=np.zeros_like(x),
        vx_t=np.zeros_like(x), spec=spec)


def test_criterion_10_energy_suite():
    rng = rng_for("acceptance-energy")
    worst = 0.0
    for i in range(1000):
        f = random_fluids(rng)
        phase = 1 + i % 2
        dens = float(rng.uniform(0.2, 3.0))
        ref = float(rng.uniform(0.2, 3.0))
        value = tp.phi_potential(f, dens, ref, phase)
        A, g = (f.A1, f.gamma) if phase == 1 else (f.A2, f.alpha)
        oracle, _ = quad(lambda s: A * (s ** g - ref ** g) / s ** 2,
                         ref, dens, epsabs=1e-13, epsrel=1e-13)
        assert value >= 0.0
        gap = abs(value - oracle) / max(1.0, abs(oracle))
        worst = max(worst, gap)
        assert gap <= 1e-9
    spec = unit_spec(-2.0, -2.0)
    prof = flat_profile(spec)
    grid = tp.make_grid(50.0, 128)
    rest = tp.initialize(prof, grid, compact_bump(0.0))
    assert tp.energy_total(rest, prof, grid, spec.fluids) == 0.0
    stirred = tp.initialize(prof, grid, compact_bump(1e-3))
    assert tp.energy_total(stirred, prof, grid, spec.fluids) > 0.0

    t = np.linspace(0.0, 12.0, 48)
    exp_fit = tp.fit_temporal_decay(
        synthetic_series(t, 5.0 * np.exp(-1.5 * t)), "l2", "exponential",
        window=(0.0, 12.0))
    assert exp_fit.rate == pytest.approx(1.5, rel=1e-6)
    assert exp_fit.prefactor == pytest.approx(5.0, rel=1e-6)
    alg_fit = tp.fit_temporal_decay(
        synthetic_series(t, 3.0 * (1.0 + t) ** -0.8), "l2", "algebraic",
        window=(0.0, 12.0))
    assert alg_fit.rate == pytest.approx(0.8, rel=1e-6)
    assert alg_fit.prefactor == pytest.approx(3.0, rel=1e-6)
    x = np.linspace(0.0, 10.0, 600)
    spat_exp = tp.fit_spatial_decay(
        synthetic_profile(x, -0.07 * np.exp(-1.37 * x), 0.07), "u",
        "exponential", (0.0, 10.0))
    assert spat_exp.rate_or_slope == pytest.approx(1.37, rel=1e-6)
    assert spat_exp.prefactor == pytest.approx(0.07, rel=1e-6)
    x = np.linspace(0.0, 400.0, 900)
    spat_alg = tp.fit_spatial_decay(
        synthetic_profile(x, -0.05 * (1.0 + 0.05 * x) ** -1.0, 0.05), "u",
        "algebraic", (0.0, 400.0))
    assert spat_alg.rate_or_slope == pytest.approx(-1.0, rel=1e-6)
    assert spat_alg.prefactor == pytest.approx(0.05, rel=1e-6)
    print(f"criterion 10 PASS: potential matches quadrature to 1e-9 "
          f"(worst {worst:.1e}), energy vanishes at rest, synthetic laws "
          f"recovered to 1e-6")
