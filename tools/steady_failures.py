"""Failure count of solve_steady on a fixed draw of 1500 specs.

The draw is one scrambled Sobol sequence with a fixed seed over the
ranges of the test suite's random_spec: A1, A2, rho_plus, n_plus in
[0.3, 3], gamma, alpha in [1, 3], mu in [0.2, 5], Mach in [1.1, 3]
(supersonic) or [0.15, 0.9] (subsonic) or exactly 1 (sonic), and delta =
u_plus - u_minus in [0.005, 0.05]. Spec i falls in regime i mod 3, so each
regime gets 500. Every spec is solved with the default options; a spec
fails when solve_steady raises. It prints one JSON line: the failures by
regime and error type, the undocumented ones by error type (any raise but
the DomainError, ShootingError and SingularityError that solve_steady
documents, so a broken contract shows on its own), the failing indices,
the wall time, per regime, the median solve_bvp passes and collocation
nodes of the specs that solved (from each profile's SolveStats), and
profiles_sha256: the sha256 of the bytes of the seven profile columns
of steady.PROFILE_HEADER (x, rho_t, u_t, n_t, v_t, ux_t, vx_t) of every
spec that solved, in draw order, so two checkouts that print the same
digest built the same profiles bit for bit.

    PYTHONPATH=src python3 tools/steady_failures.py

`specs()` returns the draw, so a failing index replays as
`solve_steady(specs()[i][1])`.
"""

import hashlib
import json
import statistics
import time

import numpy as np
from scipy.stats import qmc

import twophase as tp
from twophase.steady import PROFILE_HEADER

COUNT = 1500
SEED = 20240611
REGIMES = ("supersonic", "subsonic", "sonic")
MACH = {"supersonic": (1.1, 3.0), "subsonic": (0.15, 0.9),
        "sonic": (1.0, 1.0)}
# coordinates 0-6; coordinate 7 is the Mach number and 8 the offset delta
FLUID_RANGES = (("A1", 0.3, 3.0), ("A2", 0.3, 3.0), ("gamma", 1.0, 3.0),
                ("alpha", 1.0, 3.0), ("mu", 0.2, 5.0))
FAR_RANGES = (("rho_plus", 0.3, 3.0), ("n_plus", 0.3, 3.0))
DELTA_RANGE = (0.005, 0.05)
DOCUMENTED = (tp.DomainError, tp.ShootingError, tp.SingularityError)


def _scale(unit, lo, hi):
    return float(lo + (hi - lo) * unit)


def specs():
    """The draw as a list of (regime, ModelSpec)."""
    # 2^11 points keep the Sobol balance; the first COUNT are used
    design = qmc.Sobol(d=9, scramble=True,
                       rng=np.random.default_rng(SEED)).random_base2(11)
    out = []
    for i, p in enumerate(design[:COUNT]):
        regime = REGIMES[i % 3]
        fluids = tp.FluidConstants(**{
            name: _scale(p[j], lo, hi)
            for j, (name, lo, hi) in enumerate(FLUID_RANGES)})
        rho_plus, n_plus = (_scale(p[5 + j], lo, hi)
                            for j, (_, lo, hi) in enumerate(FAR_RANGES))
        u_plus = (_scale(p[7], *MACH[regime])
                  * tp.sonic_velocity(fluids, rho_plus, n_plus))
        far = tp.FarFieldState(rho_plus=rho_plus, n_plus=n_plus,
                               u_plus=u_plus)
        out.append((regime, tp.ModelSpec(
            fluids=fluids, far=far,
            u_minus=u_plus - _scale(p[8], *DELTA_RANGE))))
    return out


def main():
    draw = specs()
    failures = {regime: {} for regime in REGIMES}
    undocumented = {}
    stats = {regime: [] for regime in REGIMES}
    indices = []
    digest = hashlib.sha256()
    started = time.perf_counter()
    for i, (regime, spec) in enumerate(draw):
        try:
            profile = tp.solve_steady(spec)
        except Exception as err:  # every raise counts, documented or not
            kind = type(err).__name__
            failures[regime][kind] = failures[regime].get(kind, 0) + 1
            if not isinstance(err, DOCUMENTED):
                undocumented[kind] = undocumented.get(kind, 0) + 1
            indices.append(i)
            continue
        stats[regime].append(profile.stats)
        for name in PROFILE_HEADER.split(","):
            digest.update(np.ascontiguousarray(getattr(profile, name)))
    wall = time.perf_counter() - started
    solve = {regime: {
        "passes": float(statistics.median(s.passes for s in solved)),
        "nodes": float(statistics.median(s.nodes for s in solved))}
        for regime, solved in stats.items() if solved}
    print(json.dumps({"specs": len(draw), "seed": SEED,
                      "failed": len(indices), "failures": failures,
                      "undocumented": undocumented, "indices": indices,
                      "wall_s": round(wall, 2), "median_solve": solve,
                      "profiles_sha256": digest.hexdigest()}))


if __name__ == "__main__":
    main()
