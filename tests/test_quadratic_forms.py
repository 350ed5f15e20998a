"""Definiteness checks for the energy-estimate matrices and the sonic
diagonalizing transform."""

import json
import math

import numpy as np
import pytest

import twophase as tp
from twophase.diagnostics import (INDEFINITE, POSITIVE_DEFINITE,
                                  POSITIVE_SEMIDEFINITE)

from helpers import random_spec, rng_for

UNIT = tp.FluidConstants(A1=1.0, A2=1.0, gamma=1.0, alpha=1.0, mu=1.0)
UNIT_SONIC = tp.ModelSpec(fluids=UNIT,
                          far=tp.FarFieldState(rho_plus=1.0, n_plus=1.0,
                                               u_plus=-1.0),
                          u_minus=-1.05)


def m6_threshold(spec, nu):
    """Smallest k making M6 positive definite.

    Writing the off-diagonal and corner entry through the constants a and b,
    det M6 > 0 reduces to k^2 (1+b^2) E > b^2 nu^2 / 4 with E the bracket of
    the corner entry, and 4 (1+b^2) E factors as (nu+1)(4(1+b^2)+1-nu).
    """
    b = tp.derived_constants(spec).b
    return nu * b / math.sqrt((nu + 1.0) * (4.0 * (1.0 + b * b) + 1.0 - nu))


def test_m3_positive_definite_across_supersonic():
    rng = rng_for("m3-supersonic")
    for _ in range(50):
        spec = random_spec(rng, "supersonic")
        report = tp.assemble_quadratic_form("M3", spec)
        assert report.verdict == POSITIVE_DEFINITE
        assert report.eigenvalues[0] > 0.0
        assert list(report.eigenvalues) == sorted(report.eigenvalues)
        np.testing.assert_array_equal(report.matrix, report.matrix.T)


def test_m4_sonic_sign_pattern_and_kernel():
    rng = rng_for("m4-sonic")
    for _ in range(20):
        spec = random_spec(rng, "sonic")
        report = tp.assemble_quadratic_form("M4", spec)
        scale = max(1.0, abs(report.eigenvalues[2]))
        assert abs(report.eigenvalues[0]) < 1e-8 * scale
        assert report.eigenvalues[1] > 1e-8 * scale
        assert report.eigenvalues[2] > report.eigenvalues[1]
        assert report.verdict == POSITIVE_SEMIDEFINITE
        far = spec.far
        kernel = np.array([far.rho_plus / abs(far.u_plus),
                           far.n_plus / abs(far.u_plus), 1.0])
        residual = report.matrix @ kernel
        assert np.max(np.abs(residual)) < 1e-10 * np.max(np.abs(report.matrix))


def test_eigenvalues_match_numpy_oracle():
    rng = rng_for("eig-oracle")
    for _ in range(20):
        spec = random_spec(rng, "sonic")
        for name, kwargs in (("M1", {}), ("M2", {}), ("M3", {}), ("M4", {}),
                             ("M5", {"nu": 1.2, "sigma_value": 0.07}),
                             ("M6", {"nu": 1.2, "sigma_value": 0.07,
                                     "k": 0.5})):
            report = tp.assemble_quadratic_form(name, spec, **kwargs)
            oracle = np.linalg.eigvalsh(report.matrix)
            scale = max(1.0, float(np.max(np.abs(oracle))))
            np.testing.assert_allclose(report.eigenvalues, oracle,
                                       rtol=1e-8, atol=1e-10 * scale)


def test_m1_m2_semidefinite_iff_pressure_condition():
    # at a sonic far field u^2 - p1' = n (p2' - p1') / (rho + n), so each
    # bracket of the admissibility condition is exactly the semidefiniteness
    # condition of the matching matrix
    rng = rng_for("m1-m2-condition")
    seen_holds = seen_fails = 0
    for _ in range(60):
        spec = random_spec(rng, "sonic")
        cond = tp.sonic_pressure_condition(spec)
        if abs(cond.margin) < 1e-9:
            continue
        verdicts = {name: tp.assemble_quadratic_form(name, spec).verdict
                    for name in ("M1", "M2")}
        if cond.holds:
            seen_holds += 1
            assert INDEFINITE not in verdicts.values()
        else:
            seen_fails += 1
            assert INDEFINITE in verdicts.values()
    assert seen_holds >= 10 and seen_fails >= 10


def test_m1_semidefinite_construction():
    # isothermal phase 1 with A1 = u^2 zeroes both the off-diagonal and the
    # lower-right entry, leaving eigenvalues (0, rho_plus)
    fluids = tp.FluidConstants(A1=1.69, A2=1.0, gamma=1.0, alpha=1.0, mu=1.0)
    far = tp.FarFieldState(rho_plus=0.8, n_plus=1.0, u_plus=-1.3)
    spec = tp.ModelSpec(fluids=fluids, far=far, u_minus=-1.3)
    report = tp.assemble_quadratic_form("M1", spec)
    assert report.verdict == POSITIVE_SEMIDEFINITE
    assert report.eigenvalues == (0.0, 0.8)


def test_m1_m2_diagonal_when_pressure_slopes_match_velocity():
    u = -1.2
    rho, n = 0.9, 1.1
    fluids = tp.FluidConstants(A1=u * u / (2 * rho), A2=u * u / (2 * n),
                               gamma=2.0, alpha=2.0, mu=1.0)
    far = tp.FarFieldState(rho_plus=rho, n_plus=n, u_plus=u)
    spec = tp.ModelSpec(fluids=fluids, far=far, u_minus=u)
    for name in ("M1", "M2"):
        report = tp.assemble_quadratic_form(name, spec)
        assert abs(report.matrix[0, 1]) < 1e-15
        assert report.verdict != INDEFINITE


def test_m5_positive_definite_through_nu_three():
    # det M5 > 0 reduces to (9/4)[(1+b^2)(1+nu) - nu(nu-1)/2] > b^2 nu^2,
    # a concave quadratic in nu that is positive at nu = 0 and nu = 3 for
    # every b, hence on the whole interval
    rng = rng_for("m5-random")
    for _ in range(30):
        spec = random_spec(rng, "sonic")
        nu = float(rng.uniform(0.0, 3.0))
        sigma = float(rng.uniform(1e-3, 0.2))
        report = tp.assemble_quadratic_form("M5", spec, nu=nu,
                                            sigma_value=sigma)
        assert report.verdict == POSITIVE_DEFINITE
        assert report.context == {"nu": nu, "sigma_value": sigma}


def test_m6_threshold_in_k():
    rng = rng_for("m6-threshold")
    checked_below = 0
    for _ in range(20):
        spec = random_spec(rng, "sonic")
        consts = tp.derived_constants(spec)
        nu = float(rng.uniform(0.5, min(3.0, consts.lambda_star - 0.2)))
        k_min = m6_threshold(spec, nu)
        assert 0.0 <= k_min < 1.0
        # the factored threshold agrees with the expanded bracket
        b = consts.b
        expanded = 4.0 * (1.0 + b * b) * nu + 4.0 * b * b + 5.0 - nu * nu
        assert (nu + 1.0) * (4.0 * (1.0 + b * b) + 1.0 - nu) == \
            pytest.approx(expanded, rel=1e-12)

        k_hi = 0.5 * (1.0 + k_min)
        hi = tp.assemble_quadratic_form("M6", spec, nu=nu, sigma_value=0.1,
                                        k=k_hi)
        assert hi.verdict == POSITIVE_DEFINITE
        assert np.linalg.det(hi.matrix) > 0.0
        if k_min > 1e-2:
            checked_below += 1
            lo = tp.assemble_quadratic_form("M6", spec, nu=nu,
                                            sigma_value=0.1, k=0.5 * k_min)
            assert lo.verdict == INDEFINITE
            assert np.linalg.det(lo.matrix) < 0.0
    assert checked_below >= 10


def test_quadratic_form_context_validation():
    with pytest.raises(tp.DomainError):
        tp.assemble_quadratic_form("M5", UNIT_SONIC)
    with pytest.raises(tp.DomainError):
        tp.assemble_quadratic_form("M6", UNIT_SONIC, nu=1.0, sigma_value=0.1)
    with pytest.raises(tp.DomainError):
        tp.assemble_quadratic_form("M6", UNIT_SONIC, nu=1.0, sigma_value=0.1,
                                   k=1.5)
    with pytest.raises(tp.DomainError):
        tp.assemble_quadratic_form("M7", UNIT_SONIC)


def test_report_as_dict_is_json_ready():
    report = tp.assemble_quadratic_form("M4", UNIT_SONIC)
    blob = json.dumps(report.as_dict(), indent=2)
    back = json.loads(blob)
    assert back["name"] == "M4"
    assert back["verdict"] == POSITIVE_SEMIDEFINITE
    assert len(back["matrix"]) == 3 and len(back["matrix"][0]) == 3
    assert len(back["eigenvalues"]) == 3


def test_hat_transform_identity_on_random_triples():
    rng = rng_for("hat-identity")
    specs = [UNIT_SONIC] + [random_spec(rng, "sonic") for _ in range(2)]
    for spec in specs:
        report = tp.assemble_quadratic_form("M4", spec)
        lam1, lam2 = report.eigenvalues[2], report.eigenvalues[1]
        triples = rng.standard_normal((1000, 3)) * 3.0
        for trip in triples:
            rho_hat, n_hat, v_hat = tp.hat_transform(spec, trip)
            direct = trip @ report.matrix @ trip
            via = lam1 * rho_hat ** 2 + lam2 * n_hat ** 2
            scale = max(1.0, lam1 * float(trip @ trip))
            assert abs(direct - via) <= 1e-10 * scale


def test_hat_transform_kernel_and_zero():
    assert tp.hat_transform(UNIT_SONIC, (0.0, 0.0, 0.0)) == (0.0, 0.0, 0.0)
    far = UNIT_SONIC.far
    kernel = np.array([far.rho_plus / abs(far.u_plus),
                       far.n_plus / abs(far.u_plus), 1.0])
    rho_hat, n_hat, v_hat = tp.hat_transform(UNIT_SONIC, 0.7 * kernel)
    assert abs(rho_hat) < 1e-12 and abs(n_hat) < 1e-12
    assert v_hat == pytest.approx(0.7 * math.sqrt(3.0), rel=1e-12)
    form = 0.7 * kernel @ tp.assemble_quadratic_form("M4", UNIT_SONIC).matrix \
        @ (0.7 * kernel)
    assert abs(form) < 1e-12


def test_hat_transform_vectorized_columns():
    rng = rng_for("hat-vectorized")
    triples = rng.standard_normal((3, 40))
    rho_hat, n_hat, v_hat = tp.hat_transform(UNIT_SONIC, triples)
    assert rho_hat.shape == (40,)
    one = tp.hat_transform(UNIT_SONIC, triples[:, 7])
    np.testing.assert_allclose(one, (rho_hat[7], n_hat[7], v_hat[7]),
                               rtol=1e-13, atol=1e-15)


def test_hat_transform_rejects_nonsonic():
    rng = rng_for("hat-nonsonic")
    for regime in ("supersonic", "subsonic"):
        spec = random_spec(rng, regime)
        with pytest.raises(tp.DomainError):
            tp.hat_transform(spec, (1.0, 0.0, 0.0))
