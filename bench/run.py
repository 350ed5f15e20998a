"""Benchmark of the twophase package, measured from outside it.

    python3 bench/run.py --workload steady_sweep --seed 1 --seconds 25

Run from the root of a source checkout: the package is imported from
./src. Each run starts one process per set-up or measurement, one after
another, with single-threaded BLAS. With --trace 0 it prints the end-to-end
metrics, with --trace 1 the per-layer metrics derived from spans. The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The lines before it give the seed, the hash of the generated inputs, the
environment, every failure by reason, and each metric with its unit.
The workloads and metrics are those of BENCHMARK.json; bench/catalogue.json
says what each metric measures and which end-to-end metric it should move,
on which workload.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
# set-up processes per untraced run; setup_s is their median
SETUP_RUNS = 5
DEADLINE_S = 170.0


class RunFailed(Exception):
    pass


def load_benchmark():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        return json.load(fh)


def spawn(args, role, env, deadline):
    """Run one worker process to completion; its result and set-up time."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--role", role]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=deadline - started)
    except subprocess.TimeoutExpired:
        raise RunFailed(f"{role} process overran the {DEADLINE_S:.0f} s "
                        "deadline") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunFailed(f"{role} process exited with {proc.returncode}")
    result = json.loads(lines[-1])
    return result, result["t_ready"] - started


def run(args, root):
    benchmark = load_benchmark()
    deadline = time.monotonic() + DEADLINE_S
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=os.path.join(root, "src"))
    if args.trace:
        result, _ = spawn(args, "trace", env, deadline)
        hashes = {result["inputs_sha256"]}
        metrics = result["metrics"]
        specs = benchmark["per_layer"]
    else:
        hashes, setups = set(), []
        for _ in range(SETUP_RUNS - 1):
            other, setup_s = spawn(args, "setup", env, deadline)
            hashes.add(other["inputs_sha256"])
            setups.append(setup_s)
        result, setup_s = spawn(args, "measure", env, deadline)
        hashes.add(result["inputs_sha256"])
        setups.append(setup_s)
        metrics = {"setup_s": statistics.median(setups),
                   "work_per_s": result["work_per_s"],
                   "peak_rss_mb": result["peak_rss_mb"]}
        specs = benchmark["end_to_end"]

    problems = list(result.get("span_problems", []))
    if len(hashes) != 1:
        problems.append("processes generated different inputs")
    if result["unexpected"]:
        problems.append("failures not among the known ones: "
                        + ", ".join(result["unexpected"]))
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "inputs_sha256": result["inputs_sha256"],
              "env": result["env"], "passes": result["passes"],
              "attempted": result["attempted"],
              "failed": result["failed"], "failures": result["failures"],
              "examples": result["examples"], "problems": problems}
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{args.workload}.trace{args.trace}"
                                    ".json"), "w") as fh:
        json.dump(dict(record, metrics=metrics), fh, indent=1)
    print("# run " + json.dumps(record))

    units = {spec["name"]: spec["unit"] for spec in specs}
    for name in units:
        print(f"{name} {metrics[name]!r} {units[name]}")
    if not args.trace:
        alias = {"steady_sweep": "steady_solves_per_s"}.get(
            args.workload, "model_time_per_s")
        print(f"{alias} {metrics['work_per_s']!r} 1/s")
        print(f"failed_ratio {result['failed'] / result['attempted']!r} 1")
    print(json.dumps({
        "correct": not problems, "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}}))


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload of the twophase package.")
    parser.add_argument("--workload", required=True, choices=[
        w["name"] for w in load_benchmark()["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "twophase",
                                       "__init__.py")):
        sys.exit("run from the root of a twophase checkout: "
                 "src/twophase is missing")
    try:
        run(args, root)
    except RunFailed as err:
        sys.exit(f"benchmark run failed: {err}")


if __name__ == "__main__":
    main()
