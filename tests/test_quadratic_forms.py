"""Definiteness checks for the energy-estimate matrices and the sonic
diagonalizing transform."""

import dataclasses
import json
import math
import re

import mpmath
import numpy as np
import pytest

import twophase as tp
from twophase import diagnostics
from twophase.diagnostics import (INDEFINITE, POSITIVE_DEFINITE,
                                  POSITIVE_SEMIDEFINITE,
                                  _symmetric_eigenvalues, _verdict)

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
    # 1.3 * 1.3 != 1.69 in binary64: the stored off-diagonal q is -8.5e-17,
    # so the stored form's exact small eigenvalue is -q^2 / 0.8
    q = report.matrix[0, 1]
    assert q != 0.0 and report.matrix[1, 1] == 0.0
    assert report.eigenvalues == (-(q * q) / 0.8, 0.8)


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


@pytest.mark.parametrize("name", ["M1", "M5", "M6"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_quadratic_form_refuses_non_finite_parameters(name, value):
    # an infinite nu or sigma_value would give M5 the eigenvalues
    # [nan, inf] and the verdict "indefinite"; each parameter is refused
    # by its own rule, whatever the form
    finite = dict(nu=1.0, sigma_value=0.1, k=0.5)
    rules = dict(nu="be finite and nonnegative",
                 sigma_value="be finite and positive",
                 k="lie strictly between 0 and 1")
    for param in finite:
        message = f"{param} must {rules[param]}, got {value}"
        with pytest.raises(tp.DomainError, match=f"^{re.escape(message)}$"):
            tp.assemble_quadratic_form(name, UNIT_SONIC,
                                       **dict(finite, **{param: value}))


@pytest.mark.parametrize("name, param, value, message", [
    ("M5", "nu", -1.0, "nu must be finite and nonnegative, got -1.0"),
    ("M1", "nu", -1.0, "nu must be finite and nonnegative, got -1.0"),
    ("M5", "sigma_value", 0.0,
     "sigma_value must be finite and positive, got 0.0"),
    ("M5", "sigma_value", -1.0,
     "sigma_value must be finite and positive, got -1.0"),
    ("M1", "k", 1.5, "k must lie strictly between 0 and 1, got 1.5")])
def test_quadratic_form_parameters_keep_their_rule_whatever_the_form(
        name, param, value, message):
    # M5 read "indefinite" at nu = -1 and "positive_definite" at
    # sigma_value = -1, weights the energy estimate does not use, and M1,
    # which reads no k, took k = 1.5
    given = dict(nu=1.0, sigma_value=1.0, k=0.5)
    with pytest.raises(tp.DomainError, match=f"^{re.escape(message)}$"):
        tp.assemble_quadratic_form(name, UNIT_SONIC,
                                   **dict(given, **{param: value}))


@pytest.mark.parametrize("name", ["M5", "M6"])
@pytest.mark.parametrize("nu, sigma_value", [(1.0, 1e200), (1e300, 0.1)],
                         ids=["sigma_huge", "nu_huge"])
def test_quadratic_form_refuses_overflowing_entries(name, nu, sigma_value):
    # finite parameters whose entries overflow: sigma_value ** 2 raised an
    # internal OverflowError, and nu = 1e300 gave M5 an inf entry, the
    # eigenvalues (-inf, nan) and the verdict "indefinite"
    message = (f"{name} matrix has a non-finite entry at nu={nu}, "
               f"sigma_value={sigma_value}")
    with pytest.raises(tp.DomainError, match=f"^{re.escape(message)}$"):
        tp.assemble_quadratic_form(name, UNIT_SONIC, nu=nu,
                                   sigma_value=sigma_value, k=0.5)
    # a large sigma_value whose entries stay finite is still classified
    report = tp.assemble_quadratic_form(name, UNIT_SONIC, nu=1.0,
                                        sigma_value=1e100, k=0.5)
    assert np.isfinite(report.matrix).all()
    assert report.context["sigma_value"] == 1e100


def test_form_entries_keep_their_float_order():
    # every entry written out per form, in the order of operations each
    # form had when it was assembled on its own
    rng = rng_for("form-bits")
    nu, sigma, k = 1.3, 0.07, 0.4
    for i in range(60):
        spec = random_spec(rng, ("supersonic", "subsonic", "sonic")[i % 3],
                           delta=0.01)
        f, far = spec.fluids, spec.far
        rho, n, up = far.rho_plus, far.n_plus, far.u_plus
        dp1 = f.A1 * f.gamma * rho ** (f.gamma - 1.0)
        dp2 = f.A2 * f.alpha * n ** (f.alpha - 1.0)
        u2 = up ** 2
        b = abs(rho * (u2 - dp1) / (abs(up) * math.sqrt((f.mu + n) * n)))
        num = (f.A1 * f.gamma * (f.gamma + 1.0) * rho ** f.gamma
               + f.A2 * f.alpha * (f.alpha + 1.0) * n ** f.alpha)
        a = num / (2.0 * u2 * (1.0 + b * b) * (f.mu + n))
        assert tp.derived_constants(spec).a == a
        off1 = (up * up - dp1) / (2.0 * up)
        off2 = (up * up - dp2) / (2.0 * up)
        gfac = num / (2.0 * up * up)
        off = 0.5 * math.sqrt((f.mu + n) * n) * a * b * nu * sigma
        bracket5 = (1.0 + nu) - nu * (nu - 1.0) / (2.0 * (1.0 + b * b))
        bracket6 = (1.0 + nu - nu * (nu - 1.0) / (2.0 * (1.0 + b * b))
                    + (nu - 1.0) ** 2 / (4.0 * (1.0 + b * b)))
        expected = {
            "M1": [[rho, off1],
                   [off1, 0.5 * f.A1 * f.gamma * (f.gamma - 1.0)
                    * rho ** (f.gamma - 2.0)]],
            "M2": [[n, off2],
                   [off2, 0.5 * f.A2 * f.alpha * (f.alpha - 1.0)
                    * n ** (f.alpha - 2.0)]],
            "M5": [[0.75 * n, off],
                   [off, 0.75 * a * gfac * bracket5 * sigma ** 2]],
            "M6": [[k * n, off],
                   [off, k * a * gfac * bracket6 * sigma ** 2]],
        }
        for name, rows in expected.items():
            report = tp.assemble_quadratic_form(name, spec, nu=nu,
                                                sigma_value=sigma, k=k)
            assert report.matrix.tolist() == rows, name


def _exact_eigenvalues(M):
    """The eigenvalues of the stored 2x2 form and its determinant, from
    the closed form mid -/+ rad at 80 digits."""
    with mpmath.workdps(80):
        p, q, r = (mpmath.mpf(float(v)) for v in (M[0, 0], M[0, 1], M[1, 1]))
        mid = (p + r) / 2
        rad = mpmath.sqrt(((p - r) / 2) ** 2 + q * q)
        return mid - rad, mid + rad, p * r - q * q, abs(p * r) + q * q


def test_two_by_two_eigenvalues_against_exact_oracle():
    # M1, M2, M5 and M6 over all regimes with sigma up to 1e9: where the
    # diagonal entries differ by ~1e16 or more, mid - rad in binary64
    # cancels and a definite form read as semidefinite or indefinite
    rng = rng_for("eigen-oracle")
    checked = 0
    for i in range(300):
        spec = random_spec(rng, ("supersonic", "subsonic", "sonic")[i % 3],
                           delta=0.01)
        nu = float(rng.uniform(0.0, 3.0))
        sigma = float(10.0 ** rng.uniform(-3.0, 9.0))
        k = float(rng.uniform(0.05, 0.95))
        for name in ("M1", "M2", "M5", "M6"):
            report = tp.assemble_quadratic_form(name, spec, nu=nu,
                                                sigma_value=sigma, k=k)
            lo, hi, det, scale = _exact_eigenvalues(report.matrix)
            assert report.verdict == _verdict((float(lo), float(hi))), \
                (name, i, report.eigenvalues, float(lo))
            assert abs(report.eigenvalues[1] - hi) <= 1e-15 * abs(hi)
            if abs(det) > 1e-8 * scale:
                checked += 1
                assert abs(report.eigenvalues[0] - lo) <= 1e-12 * abs(lo), \
                    (name, i, report.eigenvalues, float(lo))
    assert checked >= 1000
    # an exactly singular stored form keeps its exact zero
    assert _symmetric_eigenvalues(np.array([[1.0, 2.0], [2.0, 4.0]])) == \
        (0.0, 5.0)


def _spectrum_as_stored(M):
    """The eigenvalues and verdict that assemble_quadratic_form computed
    from the matrix and stored beside it."""
    if M.shape == (2, 2):
        (p, q), (_, r) = M.tolist()
        mid = 0.5 * (p + r)
        rad = math.hypot(0.5 * (p - r), q)
        det = p * r - q * q
        if mid > 0.0 and math.isfinite(det):
            eigenvalues = (det / (mid + rad), mid + rad)
        else:
            eigenvalues = (mid - rad, mid + rad)
    else:
        eigenvalues = tuple(np.linalg.eigvalsh(M).tolist())
    lo = min(eigenvalues)
    if lo > 1e-10:
        return eigenvalues, POSITIVE_DEFINITE
    if lo > -1e-10:
        return eigenvalues, POSITIVE_SEMIDEFINITE
    return eigenvalues, INDEFINITE


def test_eigenvalues_and_verdict_follow_the_matrix():
    # M5 on the unit sonic spec at nu = 10, sigma = 1 is diag(0.75, -51):
    # mid <= 0, so both eigenvalues are mid -/+ rad
    report = tp.assemble_quadratic_form("M5", UNIT_SONIC, nu=10.0,
                                        sigma_value=1.0)
    assert report.matrix.tolist() == [[0.75, 0.0], [0.0, -51.0]]
    assert report.eigenvalues == (-51.0, 0.75)
    assert report.verdict == INDEFINITE
    # nu up to 12 makes many M5 and M6 indefinite with mid <= 0, where
    # eigvalsh would round otherwise than mid -/+ rad
    rng = rng_for("spectrum-as-stored")
    fallbacks = 0
    for i in range(150):
        spec = random_spec(rng, ("supersonic", "subsonic", "sonic")[i % 3],
                           delta=0.01)
        nu = float(rng.uniform(0.0, 12.0))
        sigma = float(10.0 ** rng.uniform(-3.0, 3.0))
        k = float(rng.uniform(0.05, 0.95))
        for name in ("M1", "M2", "M3", "M4", "M5", "M6"):
            report = tp.assemble_quadratic_form(name, spec, nu=nu,
                                                sigma_value=sigma, k=k)
            eigenvalues, verdict = _spectrum_as_stored(report.matrix)
            assert report.eigenvalues == eigenvalues, (name, i)
            assert report.verdict == verdict, (name, i)
            if (len(eigenvalues) == 2 and report.matrix.trace() <= 0.0
                    and eigenvalues
                    != tuple(np.linalg.eigvalsh(report.matrix).tolist())):
                fallbacks += 1
    assert fallbacks >= 20


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


def test_hat_transform_rejects_a_two_dimensional_kernel(monkeypatch):
    # no sonic spec gives M4 a second zero eigenvalue, so a stand-in form
    # with a two-dimensional kernel reaches the degenerate branch
    real = tp.assemble_quadratic_form("M4", UNIT_SONIC)
    degenerate = dataclasses.replace(real, matrix=np.diag([0.0, 0.0, 1.0]))
    calls = []

    def fake(name, spec):
        calls.append((name, spec))
        return degenerate

    monkeypatch.setattr(diagnostics, "assemble_quadratic_form", fake)
    with pytest.raises(tp.DomainError,
                       match="^M4 positive eigenvalues are degenerate$"):
        tp.hat_transform(UNIT_SONIC, (1.0, 0.0, 0.0))
    assert calls == [("M4", UNIT_SONIC)]
