"""Far-field linear algebra: Jacobian assembly, eigensystem, projection rows."""

import numpy as np
import pytest

import twophase as tp
from twophase.steady import (_projection_rows, _rhs_jacobian, _rhs_params,
                             _rhs_vectorized, matrix_invariants)
from helpers import random_spec, rng_for

UNIT = tp.FluidConstants(A1=1.0, A2=1.0, gamma=1.0, alpha=1.0, mu=1.0)


def unit_spec(u_plus, u_minus=None):
    far = tp.FarFieldState(rho_plus=1.0, n_plus=1.0, u_plus=u_plus)
    return tp.ModelSpec(fluids=UNIT, far=far,
                        u_minus=u_plus if u_minus is None else u_minus)


def rhs_at(spec, state):
    """The right-hand side at one reduced state (u_bar, w_bar, v_bar)."""
    U = np.array(state, dtype=float).reshape(3, 1)
    return _rhs_vectorized(_rhs_params(spec), U)[:, 0]


# ---------------------------------------------------------------------------
# Jacobian assembly
# ---------------------------------------------------------------------------

def test_jacobian_hand_matrix():
    # rho+ = n+ = 1, u+ = -2, unit isothermal fluids
    J = tp.farfield_jacobian(unit_spec(-2.0))
    expect = np.array([[0.0, 1.0, 0.0],
                       [1.0, -1.5, -1.0],
                       [-1.5, -1.0, -1.5]])
    np.testing.assert_allclose(J, expect, rtol=0, atol=1e-15)


@pytest.mark.parametrize("regime", ["supersonic", "sonic", "subsonic"])
def test_jacobian_matches_rhs_linearization(regime):
    rng = rng_for("fd-jacobian", regime)
    for _ in range(10):
        spec = random_spec(rng, regime)
        J = tp.farfield_jacobian(spec)
        h = 1e-6
        scale = max(1.0, np.max(np.abs(J)))
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            col = (rhs_at(spec, e) - rhs_at(spec, -e)) / (2.0 * h)
            np.testing.assert_allclose(col, J[:, j], rtol=0, atol=1e-6 * scale)


# ---------------------------------------------------------------------------
# eigensystem and projection rows
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("regime,pattern", [
    ("supersonic", ("neg", "neg", "pos")),
    ("sonic", ("neg", "zero", "pos")),
    ("subsonic", ("neg", "pos", "pos")),
])
def test_sign_patterns(regime, pattern):
    rng = rng_for("sign-patterns", regime)
    for _ in range(25):
        spec = random_spec(rng, regime)
        eig = tp.eigensystem(tp.farfield_jacobian(spec))
        assert tuple(sorted(eig.sign_pattern)) == tuple(sorted(pattern))
        # sorted ascending by real part, the pattern reads off directly
        assert eig.sign_pattern == pattern


@pytest.mark.parametrize("regime", ["supersonic", "sonic", "subsonic"])
def test_vieta_closure(regime):
    rng = rng_for("vieta", regime)
    for _ in range(25):
        spec = random_spec(rng, regime)
        J = tp.farfield_jacobian(spec)
        tr, inv2, det = matrix_invariants(J)
        lams = tp.eigensystem(J).lambdas
        s1 = sum(lams)
        s2 = lams[0] * lams[1] + lams[0] * lams[2] + lams[1] * lams[2]
        s3 = lams[0] * lams[1] * lams[2]
        scale = max(1.0, abs(tr), abs(inv2), abs(det))
        assert abs(s1 - tr) <= 1e-8 * scale
        assert abs(s2 - inv2) <= 1e-8 * scale
        assert abs(s3 - det) <= 1e-8 * scale


def test_determinant_closed_form():
    """det J = -(rho+ + n+)(u+^2 - c+^2)/(mu u+), the Mach-regime dial."""
    rng = rng_for("det-closed-form")
    for regime in ("supersonic", "sonic", "subsonic"):
        for _ in range(10):
            spec = random_spec(rng, regime)
            f, far = spec.fluids, spec.far
            c2 = tp.sound_speed(spec) ** 2
            expect = -((far.rho_plus + far.n_plus)
                       * (far.u_plus ** 2 - c2)) / (f.mu * far.u_plus)
            _, _, det = matrix_invariants(tp.farfield_jacobian(spec))
            assert det == pytest.approx(expect, rel=1e-12, abs=1e-12)


def test_eigenvectors_satisfy_relation():
    rng = rng_for("eigvec-residual")
    for regime in ("supersonic", "sonic", "subsonic"):
        for _ in range(10):
            spec = random_spec(rng, regime)
            J = tp.farfield_jacobian(spec)
            eig = tp.eigensystem(J)
            scale = np.max(np.abs(J))
            for lam, r in zip(eig.lambdas, eig.vectors.T):
                assert np.linalg.norm(J @ r - lam * r) <= 1e-8 * scale
                assert np.linalg.norm(r) == pytest.approx(1.0, rel=1e-12)


def test_sonic_center_eigenvector_direction():
    # at M = 1 the kernel of J is spanned by (1, 0, 1)
    spec = unit_spec(-1.0)
    eig = tp.eigensystem(tp.farfield_jacobian(spec))
    k = [i for i, s in enumerate(eig.sign_pattern) if s == "zero"]
    assert len(k) == 1
    r = np.real(eig.vectors[:, k[0]])
    r = r / r[0]
    np.testing.assert_allclose(r, [1.0, 0.0, 1.0], atol=1e-9)


@pytest.mark.parametrize("regime", ["supersonic", "sonic", "subsonic"])
def test_projection_rows_annihilate_the_stable_and_center_modes(regime):
    rng = rng_for("projection-rows", regime)
    for _ in range(25):
        spec = random_spec(rng, regime)
        J = tp.farfield_jacobian(spec)
        eig = tp.eigensystem(J)
        rows = _projection_rows(J)
        assert len(rows) == eig.sign_pattern.count("pos")
        for k, sign in enumerate(eig.sign_pattern):
            if sign != "pos":
                # rows and eigenvectors are unit vectors
                assert np.max(np.abs(rows @ eig.vectors[:, k])) <= 1e-10


def test_projection_rows_of_a_complex_unstable_pair():
    # J = S diag(-1, [[1, 2], [-2, 1]]) S^-1: eigenvalues -1 and 1 +- 2i
    S = np.array([[1.0, 0.3, -0.2], [0.5, 1.0, 0.4], [-0.7, 0.2, 1.0]])
    block = np.array([[-1.0, 0.0, 0.0], [0.0, 1.0, 2.0], [0.0, -2.0, 1.0]])
    J = S @ block @ np.linalg.inv(S)
    eig = tp.eigensystem(J)
    assert eig.sign_pattern == ("neg", "pos", "pos")
    assert abs(eig.lambdas[2].imag) == pytest.approx(2.0, rel=1e-12)
    rows = _projection_rows(J)
    assert rows.shape == (2, 3)
    np.testing.assert_allclose(np.linalg.norm(rows, axis=1), 1.0, rtol=1e-12)
    assert np.linalg.matrix_rank(rows) == 2
    np.testing.assert_allclose(rows @ S[:, 0], 0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# nonlinear right-hand side
# ---------------------------------------------------------------------------

def test_rhs_fixed_point_at_origin():
    spec = unit_spec(-2.0, u_minus=-2.05)
    np.testing.assert_allclose(rhs_at(spec, (0.0, 0.0, 0.0)),
                               np.zeros(3), atol=0.0)


def test_rhs_frozen_values():
    # frozen from an independent symbolic evaluation of the reduced system
    spec = unit_spec(-2.0, u_minus=-2.05)
    np.testing.assert_allclose(
        rhs_at(spec, (0.01, 0.0, 0.01)),
        [0.0, 0.0, -149.0 / 5000.0], rtol=1e-14, atol=1e-17)
    np.testing.assert_allclose(
        rhs_at(spec, (0.01, -0.003, -0.02)),
        [-0.003, 68370603.0 / 1999850500.0, 364277.0 / 19900000.0],
        rtol=1e-13)


@pytest.mark.parametrize("regime", ["supersonic", "sonic", "subsonic"])
def test_rhs_jacobian_matches_central_differences(regime):
    rng = rng_for("rhs-jacobian", regime)
    for _ in range(10):
        spec = random_spec(rng, regime, delta=0.02)
        params = _rhs_params(spec)
        scale = abs(spec.far.u_plus)
        # offsets below |u_plus| keep both velocities negative
        U = rng.uniform(-0.5, 0.5, (3, 16)) * scale
        J = _rhs_jacobian(params, U)
        assert J.shape == (3, 3, 16)
        size = np.max(np.abs(J), axis=(0, 1))
        h = 1e-6 * scale
        for j in range(3):
            e = np.zeros((3, 1))
            e[j] = h
            col = (_rhs_vectorized(params, U + e)
                   - _rhs_vectorized(params, U - e)) / (2.0 * h)
            assert np.all(np.max(np.abs(col - J[:, j]), axis=0)
                          <= 1e-6 * size)


@pytest.mark.parametrize("regime", ["supersonic", "sonic", "subsonic"])
def test_rhs_jacobian_at_the_far_field_is_farfield_jacobian(regime):
    rng = rng_for("rhs-jacobian-far-field", regime)
    for _ in range(10):
        spec = random_spec(rng, regime, delta=0.02)
        J = tp.farfield_jacobian(spec)
        at_zero = _rhs_jacobian(_rhs_params(spec), np.zeros((3, 1)))[:, :, 0]
        assert np.max(np.abs(at_zero - J)) <= 1e-13 * np.max(np.abs(J))


def test_rhs_singularity_by_phase():
    spec = unit_spec(-2.0, u_minus=-2.05)
    with pytest.raises(tp.SingularityError) as e1:
        rhs_at(spec, (2.0, 0.0, 0.0))
    assert e1.value.phase == 1
    with pytest.raises(tp.SingularityError) as e2:
        rhs_at(spec, (0.0, 0.0, 2.5))
    assert e2.value.phase == 2


# ---------------------------------------------------------------------------
# the slow-decay scale
# ---------------------------------------------------------------------------

def test_sigma_profile_closed_form():
    x = np.linspace(0.0, 50.0, 200)
    a, s0 = 1.7, 0.03
    sig = tp.sigma_profile(a, s0, x)
    assert sig[0] == s0
    # 1/sigma grows linearly at rate a, the signature of sigma_x = -a sigma^2
    np.testing.assert_allclose(1.0 / sig - 1.0 / s0, a * x, rtol=1e-12,
                               atol=1e-12)
    mid = 0.5 * (x[:-1] + x[1:])
    exact_slope = -a * tp.sigma_profile(a, s0, mid) ** 2
    np.testing.assert_allclose(np.diff(sig) / np.diff(x), exact_slope,
                               rtol=2e-4)


def test_sigma_profile_rejects_bad_inputs():
    with pytest.raises(tp.DomainError):
        tp.sigma_profile(0.0, 0.1, 1.0)
    with pytest.raises(tp.DomainError):
        tp.sigma_profile(1.0, -0.1, 1.0)
