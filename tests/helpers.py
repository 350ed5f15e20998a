"""Shared builders for randomized specs, CSV references and the matrix
invariant oracle of the test suite."""

import dataclasses
import math
import struct
import zlib

import numpy as np
import orjson

import twophase as tp


# the boundary of a flat unit-fluid flow at Mach 2: both outflow
# velocities -2 and the right ghost (rho, u, n, v) = (1, -2, 1, -2)
MACH2_UNIT_BOUNDARY = tp.Boundary(u_bc=-2.0, v_bc=-2.0,
                                  right_ghost=(1.0, -2.0, 1.0, -2.0))


def random_fluids(rng):
    return tp.FluidConstants(
        A1=float(rng.uniform(0.3, 3.0)),
        A2=float(rng.uniform(0.3, 3.0)),
        gamma=float(rng.uniform(1.0, 3.0)),
        alpha=float(rng.uniform(1.0, 3.0)),
        mu=float(rng.uniform(0.2, 5.0)),
    )


def random_spec(rng, regime, delta=0.0):
    """Random ModelSpec in the requested regime class.

    Sonic specs are constructed exactly, u_plus = -c_plus; the other classes
    draw a Mach number safely away from 1. delta > 0 displaces u_minus
    below u_plus (the sonic-admissible side).
    """
    fluids = random_fluids(rng)
    rho_plus = float(rng.uniform(0.3, 3.0))
    n_plus = float(rng.uniform(0.3, 3.0))
    c = tp.sonic_velocity(fluids, rho_plus, n_plus)  # -c_plus
    if regime == "supersonic":
        u_plus = float(rng.uniform(1.1, 3.0)) * c
    elif regime == "subsonic":
        u_plus = float(rng.uniform(0.15, 0.9)) * c
    elif regime == "sonic":
        u_plus = c
    else:
        raise ValueError(regime)
    far = tp.FarFieldState(rho_plus=rho_plus, n_plus=n_plus, u_plus=u_plus)
    return tp.ModelSpec(fluids=fluids, far=far, u_minus=u_plus - delta)


def rng_for(name, salt=0):
    """Deterministic per-test generator so failures replay exactly."""
    return np.random.default_rng(zlib.crc32(f"{name}:{salt}".encode()))


def flat_profile(spec, x_max=50.0, points=501):
    """Constant steady profile pinned at the far-field state everywhere.

    The exact steady solution for u_minus = u_plus, and a convenient
    reference state for perturbation and evolution tests."""
    x = np.linspace(0.0, x_max, points)
    far = spec.far
    zeros = np.zeros_like(x)
    return tp.SteadyProfile(
        x=x,
        u_t=np.full_like(x, far.u_plus),
        v_t=np.full_like(x, far.u_plus),
        ux_t=zeros, vx_t=zeros,
        spec=dataclasses.replace(spec, u_minus=far.u_plus))


def per_value_csv(header, rows):
    """CSV text written one value at a time, each as orjson spells a lone
    float and a non-finite one as repr does (nan, inf, -inf): the reference
    the whole-array writers must reproduce byte for byte."""
    def spell(v):
        v = float(v)
        return orjson.dumps(v).decode() if math.isfinite(v) else repr(v)

    lines = [header]
    lines.extend(",".join(spell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def significant_digits(text):
    """How many significant digits a decimal spelling carries."""
    mantissa = text.lstrip("+-").lower().split("e")[0].replace(".", "")
    return len(mantissa.strip("0"))


def assert_shortest_round_trip(text, rows):
    """Without orjson: every field of the CSV body reads back to its
    value's bits, with as many significant digits as repr(value), the
    shortest spelling that round-trips."""
    lines = text.splitlines()[1:]
    rows = [[float(v) for v in row] for row in rows]
    assert len(lines) == len(rows)
    for line, row in zip(lines, rows):
        fields = line.split(",")
        assert len(fields) == len(row)
        for field, v in zip(fields, row):
            back = float(field)
            if math.isnan(v):
                assert field == "nan"
                continue
            assert struct.pack("<d", back) == struct.pack("<d", v), field
            assert significant_digits(field) == significant_digits(repr(v))


def matrix_invariants(J):
    """Trace, sum of principal 2x2 minors, determinant of a 3x3 matrix.

    These are the elementary symmetric functions of the eigenvalues, the
    Vieta-closure oracle that eigensystem's roots are checked against.
    """
    J = np.asarray(J, dtype=float)
    tr = J[0, 0] + J[1, 1] + J[2, 2]
    inv2 = (J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0]
            + J[0, 0] * J[2, 2] - J[0, 2] * J[2, 0]
            + J[1, 1] * J[2, 2] - J[1, 2] * J[2, 1])
    det = (J[0, 0] * (J[1, 1] * J[2, 2] - J[1, 2] * J[2, 1])
           - J[0, 1] * (J[1, 0] * J[2, 2] - J[1, 2] * J[2, 0])
           + J[0, 2] * (J[1, 0] * J[2, 1] - J[1, 1] * J[2, 0]))
    return tr, inv2, det
