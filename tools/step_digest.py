"""Bit digest of the two steppers on four fixed setups.

For each setup it prints one JSON line: the sha256 (first 12 hex digits)
of rho, mom1, n, mom2 after 200 Heun steps at the initial `stable_dt`, as
criterion 08's twin marches, and after 50 IMEX steps each at the current
`stable_dt(..., imex=True)`, as `evolve` marches, plus the `float.hex` of
both initial steps, and `heun_us` and `imex_us`, the wall time of each
march over its steps. Running it on two checkouts tells whether a
change to the kernel keeps the bits; `--save PATH` also writes the final
states to an .npz, keyed `<setup>_<stepper>_<array>`, for a comparison by
tolerance where the bits may move. `--compare PATH` reads such an .npz
and adds to each line, per stepper, the largest relative deviation
max |this - saved| / max |saved| of each final array.

    PYTHONPATH=src python3 tools/step_digest.py [--save PATH] [--compare PATH]

The setups: criterion 07's (unit fluids, Mach 2, delta 0.002, 2048
cells), criterion 08's (unit fluids, sonic, delta 0.05, 1024 cells), and a
non-isothermal fluid (A1 1.3, A2 0.7, gamma 1.4, alpha 2.1, mu 0.6;
Mach 1.5, delta 0.02, all four components perturbed) at 1024 and 8192
cells.
"""

import argparse
import hashlib
import json
import time

import numpy as np

import twophase as tp

UNIT = tp.FluidConstants(A1=1.0, A2=1.0, gamma=1.0, alpha=1.0, mu=1.0)
HOT = tp.FluidConstants(A1=1.3, A2=0.7, gamma=1.4, alpha=2.1, mu=0.6)
ARRAYS = ("rho", "mom1", "n", "mom2")
HEUN_STEPS, IMEX_STEPS = 200, 50


def _spec(fluids, mach, delta):
    u_plus = mach * tp.sonic_velocity(fluids, 1.0, 1.0)
    far = tp.FarFieldState(rho_plus=1.0, n_plus=1.0, u_plus=u_plus)
    return tp.ModelSpec(fluids=fluids, far=far, u_minus=u_plus - delta)


def setups():
    """(name, spec, cells, perturbed components) of each setup."""
    hot = _spec(HOT, 1.5, 0.02)
    return (("criterion07", _spec(UNIT, 2.0, 0.002), 2048, ("u",)),
            ("criterion08", _spec(UNIT, 1.0, 0.05), 1024, ("u",)),
            ("non_isothermal_1024", hot, 1024, ("rho", "u", "n", "v")),
            ("non_isothermal_8192", hot, 8192, ("rho", "u", "n", "v")))


def _march(state, grid, spec, steps, imex):
    """The state after the given steps, and the initial step."""
    dt0 = dt = tp.stable_dt(state, grid, spec, imex=imex)
    for _ in range(steps):
        state = tp.step(state, grid, spec, dt, imex=imex)
        if imex:
            dt = tp.stable_dt(state, grid, spec, imex=True)
    return state, dt0


def _sha(state):
    h = hashlib.sha256()
    for name in ARRAYS:
        h.update(np.ascontiguousarray(getattr(state, name)).tobytes())
    return h.hexdigest()[:12]


def _deviation(new, old):
    """max |new - old| / max |old|, to two significant digits."""
    return float(f"{np.max(np.abs(new - old)) / np.max(np.abs(old)):.2g}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--save", metavar="PATH",
                        help="write the final states to this .npz file")
    parser.add_argument("--compare", metavar="PATH",
                        help="report deviations from the final states in "
                             "this .npz file, written by --save")
    args = parser.parse_args(argv)
    saved = np.load(args.compare) if args.compare else None
    finals = {}
    for name, spec, cells, components in setups():
        profile = tp.solve_steady(spec, tp.SteadySolveOptions(x_domain=101.0))
        grid = tp.make_grid(100.0, cells)
        pert = tp.PerturbationSpec(shape="compact_bump", amplitude=1e-3,
                                   center=50.0, width=10.0,
                                   components=components)
        start = tp.initialize(profile, grid, pert)
        line = {"setup": name, "cells": cells}
        for stepper, steps, imex in (("heun", HEUN_STEPS, False),
                                     ("imex", IMEX_STEPS, True)):
            began = time.perf_counter()
            final, dt = _march(start, grid, spec, steps, imex)
            elapsed = time.perf_counter() - began
            line[f"{stepper}_sha256"] = _sha(final)
            line[f"{stepper}_dt"] = float.hex(dt)
            line[f"{stepper}_us"] = round(elapsed / steps * 1e6, 1)
            for arr in ARRAYS:
                finals[f"{name}_{stepper}_{arr}"] = getattr(final, arr)
            if saved is not None:
                line[f"{stepper}_deviation"] = {
                    arr: _deviation(getattr(final, arr),
                                    saved[f"{name}_{stepper}_{arr}"])
                    for arr in ARRAYS}
        print(json.dumps(line), flush=True)
    if args.save:
        np.savez(args.save, **finals)


if __name__ == "__main__":
    main()
