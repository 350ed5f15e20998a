"""Tests of the benchmark itself: metric names and units, failure
accounting for corrupted outputs, and span invariants.

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

import dataclasses
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import twophase as tp
from twophase import steady
import workloads
from spans import Tracer, untraced
from worker import layer_metrics, summarize, timed_pass
from workloads import Evolve8192, SonicTwin1024, SteadySweep

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def load_json(*parts):
    with open(os.path.join(ROOT, *parts)) as fh:
        return json.load(fh)


def benchmark():
    return load_json("BENCHMARK.json")


class SmallEvolve(Evolve8192):
    cells = 512
    t_end = 0.02


class SmallTwin(SonicTwin1024):
    t_end = 0.5


def traced_run(wl, ops):
    tracer = Tracer()
    wl.setup(tracer.span)
    _, untraced_walls = timed_pass(wl, untraced, count=ops)
    with workloads.traced_internals(tracer):
        outcomes, walls = timed_pass(wl, tracer.span, tracer, count=ops)
    return tracer, outcomes, layer_metrics(wl, tracer, outcomes, sum(walls),
                                           sum(untraced_walls))


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_catalogue_describes_every_metric():
    bench = benchmark()
    metrics = load_json("bench", "catalogue.json")["metrics"]
    gated = {m["name"] for m in bench["end_to_end"]}
    assert set(metrics) == gated | {m["name"] for m in bench["per_layer"]}
    assert sorted(w["name"] for w in bench["workloads"]) \
        == sorted(workloads.WORKLOADS)
    for entry in metrics.values():
        moves = entry.get("moves")
        if moves and moves["metric"] is not None:
            assert moves["metric"] in gated
            assert set(moves["workloads"]) <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_prints_every_metric_with_its_unit(trace):
    proc = run_bench("--workload", "steady_sweep", "--seed", "3",
                     "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    specs = benchmark()["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in specs}
    for m in specs:
        assert f"{m['name']} " in proc.stdout
    if trace == "0":
        for name in ("steady_solves_per_s", "failed_ratio"):
            assert any(line.startswith(name + " ") for line in lines)
    record = json.loads(lines[0][len("# run "):])
    assert record["seed"] == 3 and len(record["inputs_sha256"]) == 64


def test_run_outside_a_checkout_fails_without_a_result(tmp_path):
    proc = run_bench("--workload", "steady_sweep", "--seed", "1",
                     "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("cls", [SmallEvolve, SmallTwin])
def test_traced_evolve_workloads_fill_their_layers(cls, tmp_path):
    wl = cls(1, str(tmp_path))
    tracer, outcomes, m = traced_run(wl, 1)
    assert all(o.ok for o in outcomes), [o.failures for o in outcomes]
    for name in ("ibvp.steps", "ibvp.step_us", "ibvp.cell_steps_per_s",
                 "ibvp.initialize_ms", "diagnostics.perturbation_us",
                 "diagnostics.norms_us", "diagnostics.observer_calls",
                 "steady.solve_ms", "trace.overhead_ratio"):
        assert m[name] > 0, name
    assert set(m) == {spec["name"] for spec in benchmark()["per_layer"]}
    assert tracer.problems() == []


def test_steady_op_is_traced_and_checked(tmp_path):
    wl = SteadySweep(1, str(tmp_path))
    tracer, outcomes, m = traced_run(wl, 3)
    assert m["steady.solve_sonic_ms"] > 0
    assert m["steady.csv_roundtrip_ms"] > 0
    assert tracer.problems() == []
    names = set(tracer.names)
    assert {"solve_steady", "steady_residual", "fit_spatial_decay",
            "save_profile_csv", "load_profile_csv"} <= names


def test_span_self_times_are_nonnegative_and_children_nest(tmp_path):
    tracer, _, _ = traced_run(SmallEvolve(2, str(tmp_path)), 1)
    self_times = tracer.self_times()
    assert min(self_times) >= 0.0
    for sid, parent in enumerate(tracer.parents):
        if parent >= 0:
            assert tracer.starts[parent] <= tracer.starts[sid]
            assert tracer.ends[sid] <= tracer.ends[parent]
    # evolve's step and stable_dt calls are its children
    evolve = tracer.names.index("evolve")
    kids = {tracer.names[s] for s, p in enumerate(tracer.parents)
            if p == evolve}
    assert {"step", "stable_dt", "perturbation", "norms"} <= kids
    assert tp.ibvp.step is tp.step


def test_span_problems_are_reported():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            time.sleep(0.001)
    assert tracer.problems() == []
    tracer.ends[1] = tracer.ends[0] + 1.0
    assert any("outside its parent" in p for p in tracer.problems())


def _shifted(profile):
    u = profile.u_t.copy()
    u[0] += 1e-3
    return dataclasses.replace(profile, u_t=u)


def test_profile_shifted_at_the_boundary_counts_as_failed(tmp_path,
                                                          monkeypatch):
    solve = tp.solve_steady
    monkeypatch.setattr(tp, "solve_steady",
                        lambda spec, *a: _shifted(solve(spec, *a)))
    wl = SteadySweep(1, str(tmp_path))
    wl.setup(untraced)
    sonic = next(i for i, (r, _, _) in enumerate(wl.specs) if r == "sonic")
    out = wl.run(sonic, untraced)
    assert "u0" in out.failures and out.work == 0.0
    assert f"sonic#{wl.specs[sonic][1]}:u0" in wl.unexpected(sonic, out)


def test_nan_in_a_state_counts_as_failed(tmp_path, monkeypatch):
    evolve = tp.evolve

    def poisoned(*args, **kwargs):
        result = evolve(*args, **kwargs)
        rho = result.state.rho.copy()
        rho[7] = np.nan
        return dataclasses.replace(
            result, state=dataclasses.replace(result.state, rho=rho))

    monkeypatch.setattr(tp, "evolve", poisoned)
    wl = SmallEvolve(1, str(tmp_path))
    wl.setup(untraced)
    outcomes, _ = timed_pass(wl, untraced, count=2)
    summary = summarize(wl, outcomes, [])
    assert summary["attempted"] == 2 and summary["failed"] == 2
    assert "finite" in summary["unexpected"]
    assert all(o.work == 0.0 for o in outcomes)


def test_exceptions_are_counted_not_dropped(tmp_path, monkeypatch):
    def diverge(*args, **kwargs):
        raise tp.BlowUpError(1.0)

    monkeypatch.setattr(tp, "step", diverge)
    wl = SmallTwin(1, str(tmp_path))
    wl.setup(untraced)
    outcomes, _ = timed_pass(wl, untraced, count=3)
    summary = summarize(wl, outcomes, [])
    assert summary["failed"] == 3
    assert summary["failures"] == {"BlowUpError": 3}
    assert summary["unexpected"] == ["BlowUpError"]


def test_only_recorded_failures_are_tolerated(tmp_path, monkeypatch):
    def diverge(*args, **kwargs):
        raise steady._TrialDiverged

    monkeypatch.setattr(tp, "solve_steady", diverge)
    wl = SteadySweep(1, str(tmp_path))
    wl.setup(untraced)
    outcomes, _ = timed_pass(wl, untraced, count=len(wl.specs))
    summary = summarize(wl, outcomes, [])
    assert summary["failed"] == len(wl.specs)
    # two of the recorded specs fail by diverging; the third only misses
    # the residual bound, so diverging is a regression there too
    assert summary["unexpected"] == sorted(
        f"{r}#{k}:solve_steady:_TrialDiverged" for r, k, _ in wl.specs
        if (r, k) not in {("supersonic", 3), ("supersonic", 4)})
    # fewer failures than recorded are no problem
    passed = [workloads.Outcome(work=1.0) for _ in wl.specs]
    assert summarize(wl, passed, [1.0])["unexpected"] == []


def test_inputs_depend_only_on_the_seed(tmp_path):
    def digest(seed):
        wl = SteadySweep(seed, str(tmp_path))
        wl.setup(untraced)
        return workloads.input_hash(wl.inputs)

    assert digest(5) == digest(5) != digest(6)
    specs = workloads.steady_specs(5)
    machs = [abs(s.far.u_plus) / tp.sound_speed(s)
             for r, _, s in specs if r == "supersonic"]
    assert min(machs) < 1.3 and max(machs) > 2.5
    assert all(math.isclose(abs(s.far.u_plus), tp.sound_speed(s))
               for r, _, s in specs if r == "sonic")
