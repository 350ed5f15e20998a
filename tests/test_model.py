"""Scalar model quantities: pressures, sound speed, regimes, constants."""

import math
import re
from itertools import groupby

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twophase as tp
from twophase.errors import DomainError
from twophase.model import SONIC, SONIC_TOLERANCE, SUBSONIC, SUPERSONIC

from helpers import random_spec, rng_for

UNIT = tp.FluidConstants(A1=1.0, A2=1.0, gamma=1.0, alpha=1.0, mu=1.0)


def make_spec(fluids=UNIT, rho_plus=1.0, n_plus=1.0, u_plus=-2.0,
              u_minus=None):
    far = tp.FarFieldState(rho_plus=rho_plus, n_plus=n_plus, u_plus=u_plus)
    if u_minus is None:
        u_minus = u_plus
    return tp.ModelSpec(fluids=fluids, far=far, u_minus=u_minus)


# ---------------------------------------------------------------------------
# pressures
# ---------------------------------------------------------------------------

def test_pressure_unit_isothermal():
    assert tp.pressure(UNIT, 1.0, phase=1) == 1.0


def test_pressure_hand_values():
    f = tp.FluidConstants(A1=2.0, A2=1.0, gamma=3.0, alpha=2.0, mu=1.0)
    assert tp.pressure(f, 2.0, phase=1) == pytest.approx(16.0, rel=1e-15)
    assert tp.pressure(f, 3.0, phase=2) == pytest.approx(9.0, rel=1e-15)


def test_pressure_derivative_hand_values():
    f = tp.FluidConstants(A1=2.0, A2=1.0, gamma=3.0, alpha=2.0, mu=1.0)
    # isothermal phase-1 derivative is the constant A1
    assert tp.pressure_derivative(UNIT, 7.0, phase=1) == 1.0
    assert tp.pressure_derivative(f, 2.0, phase=1) == pytest.approx(24.0, rel=1e-15)
    assert tp.pressure_derivative(f, 3.0, phase=2) == pytest.approx(6.0, rel=1e-15)


def test_law_maps_each_phase_to_its_fields():
    f = tp.FluidConstants(A1=2.0, A2=3.0, gamma=1.4, alpha=2.5, mu=1.0)
    assert f.law(1) == (2.0, 1.4)
    assert f.law(2) == (3.0, 2.5)
    for phase in (0, 3):
        with pytest.raises(DomainError,
                           match=f"^phase must be 1 or 2, got {phase}$"):
            f.law(phase)


def test_pressure_rejects_bad_inputs():
    with pytest.raises(DomainError):
        tp.pressure(UNIT, 0.0, phase=1)
    with pytest.raises(DomainError):
        tp.pressure(UNIT, -1.0, phase=2)
    with pytest.raises(DomainError):
        tp.pressure(UNIT, 1.0, phase=3)
    for density in (0.0, -1.0):
        with pytest.raises(DomainError, match=f"nonpositive density "
                           f"{density} in pressure_derivative"):
            tp.pressure_derivative(UNIT, density, phase=1)


# ---------------------------------------------------------------------------
# sound speed and regimes
# ---------------------------------------------------------------------------

def test_sound_speed_symmetric_unit():
    assert tp.sound_speed(make_spec()) == pytest.approx(1.0, rel=1e-15)


def test_sound_speed_hand_value():
    f = tp.FluidConstants(A1=2.0, A2=1.0, gamma=3.0, alpha=2.0, mu=1.0)
    spec = make_spec(fluids=f, rho_plus=1.0, n_plus=4.0)
    assert tp.sound_speed(spec) == pytest.approx(math.sqrt(38.0 / 5.0), rel=1e-14)


def test_sound_speed_isothermal_density_independent():
    # unit isothermal coefficients give c = 1 for any densities
    spec = make_spec(rho_plus=3.0, n_plus=1.0)
    assert tp.sound_speed(spec) == pytest.approx(1.0, rel=1e-15)


def test_classify_regime_three_cases():
    sup = tp.classify_regime(make_spec(u_plus=-2.0))
    son = tp.classify_regime(make_spec(u_plus=-1.0))
    sub = tp.classify_regime(make_spec(u_plus=-0.5))
    assert sup.is_supersonic and sup.mach == pytest.approx(2.0)
    assert son.is_sonic and son.mach == pytest.approx(1.0)
    assert sub.is_subsonic and sub.mach == pytest.approx(0.5)


def _label_as_stored(mach):
    """The regime label as classify_regime computed and stored it."""
    if mach > 1.0 + SONIC_TOLERANCE:
        label = SUPERSONIC
    elif mach < 1.0 - SONIC_TOLERANCE:
        label = SUBSONIC
    else:
        label = SONIC
    return label


def test_regime_label_follows_the_mach_number():
    rng = rng_for("regime-label")
    machs = []
    for edge in (1.0 - SONIC_TOLERANCE, 1.0 + SONIC_TOLERANCE):
        machs += [edge, np.nextafter(edge, 0.0), np.nextafter(edge, 2.0)]
    for regime in ("supersonic", "sonic", "subsonic"):
        for _ in range(50):
            spec = random_spec(rng, regime)
            mach = abs(spec.far.u_plus) / tp.sound_speed(spec)
            assert tp.classify_regime(spec) == tp.Regime(mach)
            machs.append(mach)
    labels = set()
    for mach in machs:
        label = tp.Regime(float(mach)).label
        assert label == _label_as_stored(float(mach))
        labels.add(label)
    assert labels == {SUPERSONIC, SONIC, SUBSONIC}


def test_sonic_band_is_every_double_between_its_edges():
    # 1 + 1e-9 is 1.0000000827e-9 from 1, so |M - 1| <= SONIC_TOLERANCE
    # labelled it subsonic, between a sonic and a supersonic double
    assert tp.Regime(1.0 + SONIC_TOLERANCE).label == SONIC
    machs = {1.0}
    for edge in (1.0 - SONIC_TOLERANCE, 1.0 + SONIC_TOLERANCE):
        for direction in (0.0, 2.0):
            mach = edge
            for _ in range(64):
                machs.add(mach)
                mach = float(np.nextafter(mach, direction))
    labels = [tp.Regime(mach).label for mach in sorted(machs)]
    assert [label for label, _ in groupby(labels)] == [SUBSONIC, SONIC,
                                                       SUPERSONIC]
    for edge in (1.0 - SONIC_TOLERANCE, 1.0 + SONIC_TOLERANCE):
        assert tp.Regime(edge).label == SONIC
    assert tp.Regime(float(np.nextafter(1.0 - SONIC_TOLERANCE, 0.0))).label \
        == SUBSONIC
    assert tp.Regime(float(np.nextafter(1.0 + SONIC_TOLERANCE, 2.0))).label \
        == SUPERSONIC


def test_sonic_velocity_roundtrip():
    f = tp.FluidConstants(A1=0.8, A2=1.2, gamma=1.4, alpha=2.0, mu=0.9)
    u = tp.sonic_velocity(f, 1.3, 0.7)
    spec = make_spec(fluids=f, rho_plus=1.3, n_plus=0.7, u_plus=u)
    assert tp.classify_regime(spec).is_sonic


def test_delta_recomputed():
    spec = make_spec(u_plus=-2.0, u_minus=-2.05)
    assert spec.delta == pytest.approx(0.05, abs=1e-15)
    assert make_spec(u_plus=-2.0, u_minus=-1.95).delta == pytest.approx(0.05)


# ---------------------------------------------------------------------------
# derived constants
# ---------------------------------------------------------------------------

def test_constants_symmetric_unit():
    # u+^2 = p1'(rho+) = 1 makes b vanish; then a = (2+2)/(2*1*1*2) = 1
    spec = make_spec(u_plus=-1.0)
    c = tp.derived_constants(spec)
    assert c.b == 0.0
    assert c.a == pytest.approx(1.0, rel=1e-14)
    assert c.lambda_star == pytest.approx(5.0, rel=1e-14)


def test_lambda_star_follows_b():
    rng = rng_for("lambda-star")
    for regime in ("supersonic", "sonic", "subsonic"):
        for _ in range(50):
            c = tp.derived_constants(random_spec(rng, regime))
            b2 = c.b * c.b
            # the expression derived_constants stored
            assert c.lambda_star == 2.0 + math.sqrt(8.0 + 1.0 / (1.0 + b2))


def test_lambda_star_limits():
    # any spec with u+^2 = p1'(rho+) gives b = 0 hence the ceiling 5
    f = tp.FluidConstants(A1=4.0, A2=2.0, gamma=1.0, alpha=3.0, mu=0.7)
    spec = make_spec(fluids=f, rho_plus=2.0, n_plus=0.5, u_plus=-2.0)
    c = tp.derived_constants(spec)
    assert c.b == 0.0
    assert c.lambda_star == pytest.approx(5.0, rel=1e-14)
    # b -> infinity pushes lambda_star down to 2 + sqrt(8)
    floor = 2.0 + math.sqrt(8.0)
    assert 2.0 + math.sqrt(8.0 + 1.0 / (1.0 + 1e12)) == pytest.approx(floor, rel=1e-12)


@given(st.floats(min_value=0.1, max_value=10.0),
       st.floats(min_value=0.1, max_value=10.0),
       st.floats(min_value=0.1, max_value=10.0),
       st.floats(min_value=0.2, max_value=5.0),
       st.floats(min_value=0.2, max_value=5.0))
@settings(max_examples=200, deadline=None)
def test_lambda_star_range(A1, A2, rho, n, m):
    f = tp.FluidConstants(A1=A1, A2=A2, gamma=1.0, alpha=1.0, mu=1.0)
    spec = make_spec(fluids=f, rho_plus=rho, n_plus=n, u_plus=-m)
    c = tp.derived_constants(spec)
    assert 2.0 + math.sqrt(8.0) < c.lambda_star <= 5.0
    assert c.a > 0.0 and c.b >= 0.0 and c.c_plus > 0.0


def test_b_scaling_isothermal():
    """For gamma = alpha = 1, scaling (A1, A2) by s^2 and u+ by s multiplies
    b by s and leaves the Mach number fixed.

    (Scaling the velocity without the pressures would change the regime, so
    this is the natural similarity transformation of the isothermal model.)
    """
    base = tp.FluidConstants(A1=0.9, A2=1.7, gamma=1.0, alpha=1.0, mu=1.3)
    spec0 = make_spec(fluids=base, rho_plus=1.4, n_plus=0.6, u_plus=-1.2)
    c0 = tp.derived_constants(spec0)
    m0 = tp.classify_regime(spec0).mach
    for s in (0.5, 2.0, 3.7):
        f = tp.FluidConstants(A1=base.A1 * s * s, A2=base.A2 * s * s,
                              gamma=1.0, alpha=1.0, mu=base.mu)
        spec = make_spec(fluids=f, rho_plus=1.4, n_plus=0.6, u_plus=-1.2 * s)
        c = tp.derived_constants(spec)
        assert c.b == pytest.approx(s * c0.b, rel=1e-12)
        assert tp.classify_regime(spec).mach == pytest.approx(m0, rel=1e-12)


# ---------------------------------------------------------------------------
# sonic admissibility condition
# ---------------------------------------------------------------------------

def test_sonic_condition_equal_derivatives():
    # p1' = p2' zeroes the left side; holds for any exponents
    f = tp.FluidConstants(A1=1.0, A2=1.0, gamma=2.0, alpha=2.0, mu=1.0)
    res = tp.sonic_pressure_condition(make_spec(fluids=f, rho_plus=1.0,
                                                n_plus=1.0, u_plus=-1.0))
    assert res.holds and res.margin >= 0.0


def test_sonic_condition_isothermal_gap_fails():
    # gamma = alpha = 1 zeroes the right side, so any p' gap violates it
    f = tp.FluidConstants(A1=1.0, A2=2.0, gamma=1.0, alpha=1.0, mu=1.0)
    res = tp.sonic_pressure_condition(make_spec(fluids=f))
    assert not res.holds
    assert res.margin == pytest.approx(-1.0, rel=1e-14)


def test_sonic_condition_hand_value():
    f = tp.FluidConstants(A1=1.0, A2=1.0, gamma=2.0, alpha=2.0, mu=1.0)
    u = tp.sonic_velocity(f, 1.0, 2.0)
    assert u == pytest.approx(-math.sqrt(10.0 / 3.0), rel=1e-14)
    res = tp.sonic_pressure_condition(make_spec(fluids=f, rho_plus=1.0,
                                                n_plus=2.0, u_plus=u))
    # lhs = |2 - 4| = 2, rhs = sqrt(2)*|u|*min(1.5*sqrt(2), 3*2)
    assert res.holds
    assert res.margin == pytest.approx(3.477225575051663, rel=1e-12)


@given(st.floats(min_value=0.2, max_value=5.0),
       st.floats(min_value=0.2, max_value=5.0),
       st.floats(min_value=1.0, max_value=3.0),
       st.floats(min_value=1.0, max_value=3.0),
       st.floats(min_value=0.2, max_value=5.0),
       st.floats(min_value=0.2, max_value=5.0))
@settings(max_examples=200, deadline=None)
def test_sonic_condition_swap_symmetric(A1, A2, gamma, alpha, rho, n):
    f = tp.FluidConstants(A1=A1, A2=A2, gamma=gamma, alpha=alpha, mu=1.0)
    g = tp.FluidConstants(A1=A2, A2=A1, gamma=alpha, alpha=gamma, mu=1.0)
    r1 = tp.sonic_pressure_condition(make_spec(fluids=f, rho_plus=rho, n_plus=n))
    r2 = tp.sonic_pressure_condition(make_spec(fluids=g, rho_plus=n, n_plus=rho))
    assert r1.holds == r2.holds
    assert r1.margin == pytest.approx(r2.margin, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kwargs", [
    dict(A1=0.0, A2=1.0, gamma=1.0, alpha=1.0, mu=1.0),
    dict(A1=1.0, A2=-2.0, gamma=1.0, alpha=1.0, mu=1.0),
    dict(A1=1.0, A2=1.0, gamma=0.9, alpha=1.0, mu=1.0),
    dict(A1=1.0, A2=1.0, gamma=1.0, alpha=0.0, mu=1.0),
    dict(A1=1.0, A2=1.0, gamma=1.0, alpha=1.0, mu=0.0),
])
def test_fluid_constants_validation(kwargs):
    with pytest.raises(DomainError):
        tp.FluidConstants(**kwargs)


def test_far_field_validation():
    with pytest.raises(DomainError):
        tp.FarFieldState(rho_plus=-1.0, n_plus=1.0, u_plus=-1.0)
    with pytest.raises(DomainError):
        tp.FarFieldState(rho_plus=1.0, n_plus=1.0, u_plus=0.0)


def test_spec_validation():
    far = tp.FarFieldState(rho_plus=1.0, n_plus=1.0, u_plus=-1.0)
    with pytest.raises(DomainError):
        tp.ModelSpec(fluids=UNIT, far=far, u_minus=0.5)


@pytest.mark.parametrize("field, value, message", [
    ("A1", -1.0, "A1 must be positive, got -1.0"),
    ("A2", 0.0, "A2 must be positive, got 0.0"),
    ("mu", -2.0, "mu must be positive, got -2.0"),
    ("gamma", 0.5, "gamma must be at least 1, got 0.5"),
    ("alpha", 0.9, "alpha must be at least 1, got 0.9"),
    ("rho_plus", 0.0, "rho_plus must be positive, got 0.0"),
    ("n_plus", -1.0, "n_plus must be positive, got -1.0"),
    ("u_plus", 2.0, "u_plus must be negative (outflow), got 2.0"),
    ("u_plus", 0.0, "u_plus must be negative (outflow), got 0.0"),
    ("u_minus", 2.0, "u_minus must be negative (outflow), got 2.0"),
])
def test_refusals_name_the_field_and_the_value(field, value, message):
    fluids = dict(A1=1.0, A2=1.0, gamma=1.0, alpha=1.0, mu=1.0)
    far = dict(rho_plus=1.0, n_plus=1.0, u_plus=-2.0)
    for group in (fluids, far):
        if field in group:
            group[field] = value
    u_minus = value if field == "u_minus" else -2.05
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        tp.ModelSpec(fluids=tp.FluidConstants(**fluids),
                     far=tp.FarFieldState(**far), u_minus=u_minus)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_parameters_are_refused_by_name(value):
    fluids = dict(A1=1.0, A2=1.0, gamma=1.0, alpha=1.0, mu=1.0)
    for name in fluids:
        with pytest.raises(DomainError, match=f"^{name} must be finite"):
            tp.FluidConstants(**dict(fluids, **{name: value}))
    far = dict(rho_plus=1.0, n_plus=1.0, u_plus=-2.0)
    for name in far:
        with pytest.raises(DomainError, match=f"^{name} must be finite"):
            tp.FarFieldState(**dict(far, **{name: value}))
    with pytest.raises(DomainError, match="^u_minus must be finite"):
        tp.ModelSpec(fluids=UNIT, far=tp.FarFieldState(**far), u_minus=value)


def test_spec_refuses_an_overflowing_momentum_flux():
    # u_plus^2 overflows binary64, which the far-field matrix and the
    # center-manifold constants both square
    far = tp.FarFieldState(rho_plus=1.0, n_plus=1.0, u_plus=-1e300)
    with pytest.raises(DomainError, match="u_plus=-1e\\+300: the far-field "
                       "momentum flux rho_plus u_plus\\^2 overflows"):
        tp.ModelSpec(fluids=UNIT, far=far, u_minus=-1e300)
    # density u_plus^2 overflows though u_plus^2 does not
    far = tp.FarFieldState(rho_plus=1.0, n_plus=1e10, u_plus=-1e150)
    with pytest.raises(DomainError, match="n_plus u_plus\\^2 overflows"):
        tp.ModelSpec(fluids=UNIT, far=far, u_minus=-1e150)


@pytest.mark.parametrize("fluids, far, name, value", [
    # u_plus^2 underflows to 0, the denominator of a with it
    ({}, dict(rho_plus=1e-200, u_plus=-1e-170), "a", "inf"),
    # u_plus^2 is subnormal and a overflows
    ({}, dict(rho_plus=1e-200, u_plus=-1e-160), "a", "inf"),
    # the numerator of a overflows and so does 1 + b^2
    (dict(A1=1e308), dict(u_plus=-2.0), "a", "nan"),
    # rho_plus + n_plus overflows and the sound speed vanishes
    (dict(A1=1e-300, A2=1e-300), dict(rho_plus=1e308, n_plus=1e308,
                                      u_plus=-1e-10), "c_plus", "0"),
], ids=["a_underflow", "a_overflow", "a_nan", "c_plus_zero"])
def test_spec_refuses_a_far_field_without_finite_constants(fluids, far,
                                                           name, value):
    fluids = tp.FluidConstants(**dict(dict(A1=1.0, A2=1.0, gamma=1.0,
                                           alpha=1.0, mu=1.0), **fluids))
    far = tp.FarFieldState(**dict(dict(rho_plus=1.0, n_plus=1.0), **far))
    with pytest.raises(DomainError) as err:
        tp.ModelSpec(fluids=fluids, far=far, u_minus=1.05 * far.u_plus)
    message = str(err.value)
    assert message.startswith(f"the far-field constant {name} = {value} of ")
    for obj in (fluids, far):
        for key, number in vars(obj).items():
            assert f"{key}={number:.6g}" in message
