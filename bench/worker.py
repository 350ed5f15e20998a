"""One workload process, started by run.py.

Roles:
  setup    set the workload up, report when it was ready, exit
  measure  set up, then run operations untraced for --seconds
  trace    set up traced, run operations untraced for half of --seconds,
           then run the same operations again with spans on

The last line of standard output is one JSON object with the results.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter, defaultdict

import numpy
import scipy

import twophase
from spans import Tracer, untraced
from workloads import REGIMES, WORKLOADS, Outcome, input_hash, \
    traced_internals

ROOT = os.getcwd()
OUT_DIR = os.path.join(ROOT, ".bench_out")


def environment():
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {"python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS")}


def _median(values):
    return statistics.median(values) if values else 0.0


def timed_pass(wl, span, tracer=None, seconds=None, count=None):
    """Run `count` operations, or whole passes over the workload's
    operations until `seconds` have passed; the outcomes and the wall time
    of each pass, the last one partial when `count` ends inside a pass.

    Every exception an operation raises, private ones included, makes that
    operation count as failed under the exception's type name.
    """
    outcomes, pass_walls = [], []
    start = pass_start = time.perf_counter()
    while (len(outcomes) < count if count is not None
           else time.perf_counter() - start < seconds
           or len(outcomes) % wl.ops_per_pass):
        op = len(outcomes)
        if tracer is not None:
            tracer.op = op
        try:
            out = wl.run(op, span)
        except Exception as err:
            out = Outcome(failures=[type(err).__name__], detail=str(err))
        outcomes.append(out)
        if len(outcomes) % wl.ops_per_pass == 0:
            now = time.perf_counter()
            pass_walls.append(now - pass_start)
            pass_start = now
    if len(outcomes) % wl.ops_per_pass:
        pass_walls.append(time.perf_counter() - pass_start)
    return outcomes, pass_walls


def summarize(wl, outcomes, pass_walls):
    """Counts by failure reason, and the median over passes of the work a
    pass completed per second of its wall time."""
    reasons = Counter(",".join(o.failures) for o in outcomes if not o.ok)
    unexpected = sorted({f for op, o in enumerate(outcomes)
                         for f in wl.unexpected(op, o)})
    n = wl.ops_per_pass
    rates = [sum(o.work for o in outcomes[i * n:(i + 1) * n]) / wall
             for i, wall in enumerate(pass_walls)]
    examples = {}
    for o in outcomes:
        if o.detail:
            examples.setdefault(",".join(o.failures), o.detail[:200])
    return {"attempted": len(outcomes),
            "failed": sum(not o.ok for o in outcomes),
            "failures": dict(reasons), "examples": examples,
            "unexpected": unexpected,
            "work_per_s": _median(rates), "passes": len(pass_walls),
            "wall": sum(pass_walls)}


def layer_metrics(wl, tracer, outcomes, wall, untraced_wall):
    """Per-layer metrics from the spans of the traced pass; setup spans
    feed only the per-call medians of solve_steady, initialize and
    stable_dt. Metrics of a call the workload never makes read 0."""
    self_times = tracer.self_times()
    durations = defaultdict(list)
    pass_self = defaultdict(float)
    per_op = defaultdict(Counter)
    per_op_time = defaultdict(lambda: defaultdict(float))
    solves = defaultdict(list)
    for sid, name in enumerate(tracer.names):
        op = tracer.ops[sid]
        seconds = tracer.ends[sid] - tracer.starts[sid]
        durations[name].append(seconds)
        if name == "solve_steady":
            solves[wl.regime_for(op)].append(seconds)
        if op != "setup":
            pass_self[name] += self_times[sid]
            per_op[op][name] += 1
            per_op_time[op][name] += seconds
    ops = range(len(outcomes))

    def per_call(name, scale):
        return scale * _median(durations[name])

    def per_op_median(name):
        return _median([per_op[op][name] for op in ops])

    m = {}
    for regime in REGIMES:
        m[f"steady.solve_{regime}_ms"] = 1e3 * _median(solves[regime])
    m["steady.solve_ms"] = per_call("solve_steady", 1e3)
    m["steady.solve_share"] = pass_self["solve_steady"] / wall
    for regime in REGIMES:
        tried = [o for op, o in zip(ops, outcomes)
                 if per_op[op]["solve_steady"] and wl.regime_for(op) == regime]
        m[f"steady.verified_ratio_{regime}"] = (
            sum(o.ok for o in tried) / len(tried) if tried else 0.0)
    m["steady.residual_ms"] = per_call("steady_residual", 1e3)
    m["steady.fit_ms"] = per_call("fit_spatial_decay", 1e3)
    m["steady.csv_roundtrip_ms"] = 1e3 * _median(
        [per_op_time[op]["save_profile_csv"]
         + per_op_time[op]["load_profile_csv"]
         for op in ops if per_op[op]["save_profile_csv"]])
    for regime in REGIMES:
        res = [o.residual for op, o in zip(ops, outcomes)
               if o.residual is not None and wl.regime_for(op) == regime]
        m[f"steady.residual_p50_{regime}"] = _median(res)
        m[f"steady.residual_max_{regime}"] = max(res, default=0.0)

    steps = per_op_median("step")
    step_time = sum(per_op_time[op]["step"] for op in ops)
    m["ibvp.steps"] = steps
    m["ibvp.dt_mean"] = (wl.t_end * wl.states / steps) if steps else 0.0
    m["ibvp.step_us"] = per_call("step", 1e6)
    m["ibvp.stable_dt_us"] = per_call("stable_dt", 1e6)
    m["ibvp.step_share"] = pass_self["step"] / wall
    m["ibvp.cell_steps_per_s"] = (
        wl.cells * sum(per_op[op]["step"] for op in ops) / step_time
        if step_time else 0.0)
    m["ibvp.initialize_ms"] = per_call("initialize", 1e3)
    m["ibvp.state_csv_ms"] = per_call("save_state_csv", 1e3)
    m["ibvp.state_csv_bytes"] = getattr(wl, "state_csv_bytes", 0)

    m["diagnostics.perturbation_us"] = per_call("perturbation", 1e6)
    m["diagnostics.norms_us"] = per_call("norms", 1e6)
    m["diagnostics.observer_calls"] = per_op_median("norms")
    m["diagnostics.observer_share"] = (
        pass_self["perturbation"] + pass_self["norms"]) / wall
    m["diagnostics.fit_temporal_ms"] = per_call("fit_temporal_decay", 1e3)
    m["diagnostics.series_csv_ms"] = per_call("save_norm_series_csv", 1e3)

    m["trace.overhead_ratio"] = wall / untraced_wall
    return m


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--role", required=True,
                        choices=("setup", "measure", "trace"))
    args = parser.parse_args(argv)

    package_dir = os.path.join(ROOT, "src", "twophase")
    if os.path.dirname(os.path.abspath(twophase.__file__)) != package_dir:
        sys.exit(f"twophase imported from {twophase.__file__}, "
                 f"not from {package_dir}")

    os.makedirs(OUT_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    try:
        wl = WORKLOADS[args.workload](args.seed, scratch)
        tracer = Tracer() if args.role == "trace" else None
        wl.setup(tracer.span if tracer else untraced)
        result = {"t_ready": time.monotonic(), "seed": args.seed,
                  "inputs_sha256": input_hash(wl.inputs)}
        if args.role == "measure":
            outcomes, walls = timed_pass(wl, untraced, seconds=args.seconds)
            result.update(summarize(wl, outcomes, walls))
        elif args.role == "trace":
            reference, untraced_walls = timed_pass(
                wl, untraced, seconds=args.seconds / 2)
            with traced_internals(tracer):
                outcomes, walls = timed_pass(wl, tracer.span, tracer,
                                             count=len(reference))
            result.update(summarize(wl, outcomes, walls))
            result["span_problems"] = tracer.problems()[:20]
            result["metrics"] = layer_metrics(wl, tracer, outcomes,
                                              sum(walls), sum(untraced_walls))
            tracer.write(os.path.join(OUT_DIR, f"{wl.name}.spans.jsonl"))
        result["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        result["env"] = environment()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
