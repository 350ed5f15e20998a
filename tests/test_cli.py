"""Config parsing, subcommand orchestration, exit codes, determinism."""

import csv
import json
import math
import os

import numpy as np
import pytest

import twophase as tp
from twophase import cli

from helpers import MACH2_UNIT_BOUNDARY

BASE_LINES = (
    "spec.A1 = 1.0",
    "spec.A2 = 1.0",
    "spec.gamma = 1.0",
    "spec.alpha = 1.0",
    "spec.mu = 1.0",
    "spec.rho_plus = 1.0",
    "spec.n_plus = 1.0",
    "spec.u_plus = -2.0",
    "spec.u_minus = -2.05",
)


def write_config(tmp_path, *extra, name="exp.cfg", lines=BASE_LINES):
    # extra lines replace base lines for the same key, so tests can vary
    # one setting without tripping the duplicate-key guard
    keys = {e.partition("=")[0].strip() for e in extra if "=" in e}
    kept = tuple(l for l in lines
                 if l.partition("=")[0].strip() not in keys)
    path = tmp_path / name
    path.write_text("\n".join(kept + tuple(extra)) + "\n")
    return str(path)


# ---------------------------------------------------------------------------
# parsing and hashing
# ---------------------------------------------------------------------------

def test_minimal_config_fills_every_default(tmp_path):
    config = cli.parse_config(write_config(tmp_path))
    assert set(config.values) == set(cli._SCHEMA)
    assert config.values["grid.length"] == 100.0
    assert config.values["grid.cells"] == 1024
    assert config.values["evolve.cfl"] == 0.4
    assert config.values["steady.x_domain"] is None
    assert config.values["output.prefix"] == "run"
    spec = config.model_spec()
    assert spec.delta == pytest.approx(0.05)


def test_hash_ignores_ordering_comments_and_spacing(tmp_path):
    plain = cli.parse_config(write_config(tmp_path))
    shuffled = write_config(
        tmp_path, name="shuffled.cfg",
        lines=("# comment", "", "grid.cells = 1024",
               *reversed(BASE_LINES), "grid.length =   100.0"))
    assert cli.parse_config(shuffled).hash == plain.hash
    assert len(plain.hash) == 12
    int(plain.hash, 16)


def test_hash_changes_with_any_value(tmp_path):
    base = cli.parse_config(write_config(tmp_path))
    bumped = cli.parse_config(write_config(tmp_path), ("evolve.cfl=0.3",))
    assert bumped.hash != base.hash


def test_override_round_trip(tmp_path):
    path = write_config(tmp_path)
    overridden = cli.parse_config(path, ("grid.cells=2048",))
    assert overridden.values["grid.cells"] == 2048
    echoed = tmp_path / "echo.cfg"
    echoed.write_text(overridden.canonical_text())
    assert cli.parse_config(str(echoed)).hash == overridden.hash


# the example config of the README
README_LINES = (
    "spec.A1 = 1.0",
    "spec.A2 = 1.0",
    "spec.gamma = 1.0",
    "spec.alpha = 1.0",
    "spec.mu = 1.0",
    "spec.rho_plus = 1.0",
    "spec.n_plus = 1.0",
    "spec.u_plus = -2.0",
    "spec.u_minus = -2.05",
    "",
    "grid.length = 100.0",
    "grid.cells = 2048",
    "evolve.t_end = 50.0",
    "evolve.pert_shape = compact_bump",
    "evolve.pert_amplitude = 1e-3",
    "evolve.pert_center = 50.0",
    "evolve.pert_width = 10.0",
    "diagnostics.weights = exp0.1, alg2",
)

README_CANONICAL = (
    "diagnostics.fit_law = exponential\n"
    "diagnostics.fit_norm = l2\n"
    "diagnostics.fit_window = \n"
    "diagnostics.matrix_k = \n"
    "diagnostics.matrix_names = M1,M2,M3,M4\n"
    "diagnostics.matrix_nu = \n"
    "diagnostics.matrix_sigma = \n"
    "diagnostics.series_path = \n"
    "diagnostics.weights = exp0.1,alg2\n"
    "evolve.cfl = 0.4\n"
    "evolve.observer_stride = 10\n"
    "evolve.pert_amplitude = 0.001\n"
    "evolve.pert_center = 50.0\n"
    "evolve.pert_components = u\n"
    "evolve.pert_path = \n"
    "evolve.pert_shape = compact_bump\n"
    "evolve.pert_width = 10.0\n"
    "evolve.t_end = 50.0\n"
    "evolve.wall_clock_budget = \n"
    "grid.cells = 2048\n"
    "grid.length = 100.0\n"
    "output.directory = \n"
    "output.prefix = run\n"
    "spec.A1 = 1.0\n"
    "spec.A2 = 1.0\n"
    "spec.alpha = 1.0\n"
    "spec.gamma = 1.0\n"
    "spec.mu = 1.0\n"
    "spec.n_plus = 1.0\n"
    "spec.rho_plus = 1.0\n"
    "spec.u_minus = -2.05\n"
    "spec.u_plus = -2.0\n"
    "steady.points = 2048\n"
    "steady.x_domain = \n"
    "sweep.parameter = \n"
    "sweep.subcommand = steady\n"
    "sweep.values = \n")

BASE_CANONICAL = (
    "diagnostics.fit_law = exponential\n"
    "diagnostics.fit_norm = l2\n"
    "diagnostics.fit_window = \n"
    "diagnostics.matrix_k = \n"
    "diagnostics.matrix_names = M1,M2,M3,M4\n"
    "diagnostics.matrix_nu = \n"
    "diagnostics.matrix_sigma = \n"
    "diagnostics.series_path = \n"
    "diagnostics.weights = \n"
    "evolve.cfl = 0.4\n"
    "evolve.observer_stride = 10\n"
    "evolve.pert_amplitude = 0.0\n"
    "evolve.pert_center = 10.0\n"
    "evolve.pert_components = u\n"
    "evolve.pert_path = \n"
    "evolve.pert_shape = gaussian\n"
    "evolve.pert_width = 2.0\n"
    "evolve.t_end = 10.0\n"
    "evolve.wall_clock_budget = \n"
    "grid.cells = 1024\n"
    "grid.length = 100.0\n"
    "output.directory = \n"
    "output.prefix = run\n"
    "spec.A1 = 1.0\n"
    "spec.A2 = 1.0\n"
    "spec.alpha = 1.0\n"
    "spec.gamma = 1.0\n"
    "spec.mu = 1.0\n"
    "spec.n_plus = 1.0\n"
    "spec.rho_plus = 1.0\n"
    "spec.u_minus = -2.05\n"
    "spec.u_plus = -2.0\n"
    "steady.points = 2048\n"
    "steady.x_domain = \n"
    "sweep.parameter = \n"
    "sweep.subcommand = steady\n"
    "sweep.values = \n")


def test_canonical_text_and_hash_are_pinned(tmp_path):
    # the hash is a sha256 prefix of the canonical text alone, the same on
    # every platform; a renamed key, a new default or a changed format of
    # a value shows here
    readme = cli.parse_config(write_config(tmp_path, lines=README_LINES))
    assert readme.canonical_text() == README_CANONICAL
    assert readme.hash == "6029b3efff55"
    base = cli.parse_config(write_config(tmp_path, name="base.cfg"))
    assert base.canonical_text() == BASE_CANONICAL


@pytest.mark.parametrize("extra, fragment", [
    (("spec.bogus = 1",), "unknown key"),
    (("grid.cells = 100", "grid.cells = 200"), "duplicate"),
    (("no equals sign here",), "expected"),
    (("grid.cells = twelve",), "cannot parse"),
    (("grid.cells = 2.5",), "cannot parse"),
    (("spec.u_minus = 2.0",), "negative (outflow)"),
    (("evolve.cfl = 1.0",), "strictly between"),
    (("evolve.pert_shape = sine",),
     "accepted: gaussian, compact_bump, from_file"),
    (("evolve.pert_components = rho,w",),
     "unknown perturbation components ['w']; accepted: rho, u, n, v"),
    (("diagnostics.matrix_names = M7",), "unknown matrix"),
    (("diagnostics.weights = alg1,poly2",), "weight tag"),
    (("diagnostics.fit_window = 5",), "t_lo:t_hi"),
    (("diagnostics.fit_window = 5:2",), "below"),
    (("evolve.observer_stride = 0",), "at least 1"),
    (("evolve.pert_shape = from_file",), "path"),
    (("diagnostics.weights = algnan",), "finite nu >= 0, got nan"),
    (("diagnostics.weights = alg1,expinf",), "finite lam >= 0, got inf"),
    (("steady.points = 0",),
     "steady points must be an integer of at least 2, got 0"),
    (("diagnostics.fit_law = linear",),
     "diagnostics.fit_law: must be one of exponential, algebraic "
     "(got linear)"),
    (("sweep.subcommand = sweep",),
     "sweep.subcommand: must be one of steady, evolve, decay-fit, "
     "matrix-check, regime (got sweep)"),
])
def test_config_rejections_name_the_problem(tmp_path, extra, fragment):
    with pytest.raises(tp.ConfigError) as err:
        cli.parse_config(write_config(tmp_path, *extra))
    assert fragment in str(err.value)


@pytest.mark.parametrize("key", ["steady.eps_seed", "steady.ode_tol",
                                 "steady.newton_tol", "steady.sigma_seed",
                                 "evolve.drag_substeps",
                                 "steady.allow_large_delta",
                                 "steady.max_delta"])
def test_retired_shooting_keys_rejected(tmp_path, key):
    # the steady solver no longer shoots, so its knobs left the schema, as
    # did the knobs that had one value in use and the cap on delta with its
    # switch: solve_steady verifies every profile it returns
    with pytest.raises(tp.ConfigError) as err:
        cli.parse_config(write_config(tmp_path, f"{key} = 1e-6"))
    assert "unknown key" in str(err.value)


def test_missing_required_keys_listed(tmp_path):
    path = write_config(tmp_path, lines=BASE_LINES[:4])
    with pytest.raises(tp.ConfigError) as err:
        cli.parse_config(path)
    message = str(err.value)
    assert "spec.u_minus" in message and "spec.rho_plus" in message


def test_bad_override_rejected(tmp_path):
    path = write_config(tmp_path)
    with pytest.raises(tp.ConfigError):
        cli.parse_config(path, ("grid.cells",))
    with pytest.raises(tp.ConfigError):
        cli.parse_config(path, ("nope.nope=1",))


def test_large_delta_parses_like_any_other(tmp_path):
    # nothing caps delta: a large one parses like any other
    config = cli.parse_config(write_config(tmp_path, "spec.u_minus = -2.5"))
    assert config.model_spec().delta == pytest.approx(0.5)
    assert config.steady_options() == tp.SteadySolveOptions()
    assert "max_delta" not in config.canonical_text()


def test_weight_tag_parsing(tmp_path):
    config = cli.parse_config(
        write_config(tmp_path, "diagnostics.weights = alg1,exp0.5,sig2"))
    tags = config.weight_tags()
    assert isinstance(tags[0], tp.AlgebraicNu) and tags[0].nu == 1.0
    assert isinstance(tags[1], tp.ExponentialLambda) and tags[1].lam == 0.5
    assert isinstance(tags[2], tp.SigmaNu) and tags[2].nu == 2.0


# ---------------------------------------------------------------------------
# subcommands through main()
# ---------------------------------------------------------------------------

def test_steady_subcommand(tmp_path, capsys):
    path = write_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["steady", "--config", path, "--out", str(out)]) == 0
    assert "completed" in capsys.readouterr().out

    record = json.loads((out / "run_run.json").read_text())
    assert record["status"] == "completed"
    assert record["subcommand"] == "steady"
    assert record["config_hash"] == cli.parse_config(path).hash
    for name in record["files"]:
        assert (out / name).exists()

    report = json.loads((out / "run_steady.json").read_text())
    assert report["regime"] == "supersonic"
    assert report["residual"] < 1e-6
    assert report["mass_flux_error_1"] < 1e-10
    fit = report["decay_fit"]
    assert fit["law"] == "exponential"
    assert fit["r_squared"] > 0.99
    assert fit["rate_or_slope"] == pytest.approx(1.5, rel=0.01)
    solve = report["solve"]
    assert sorted(solve) == ["nodes", "passes", "points", "residual",
                             "seconds", "start_nodes"]
    for key in ("nodes", "passes", "points", "start_nodes"):
        assert type(solve[key]) is int and solve[key] >= 1
    assert solve["points"] == 2048
    assert solve["residual"] == report["residual"]
    assert type(solve["seconds"]) is float and solve["seconds"] > 0.0

    cols = tp.load_profile_csv(out / "run_profile.csv")
    assert abs(cols["u_t"][0] + 2.05) < 1e-8


def test_steady_zero_delta(tmp_path):
    path = write_config(tmp_path, "spec.u_minus = -2.0")
    out = tmp_path / "out"
    assert cli.main(["steady", "--config", path, "--out", str(out)]) == 0
    report = json.loads((out / "run_steady.json").read_text())
    assert report["delta"] == 0.0
    assert report["residual"] < 1e-12
    assert report["decay_fit"] is None
    assert report["solve"] is None


def test_regime_subcommand(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["regime", "--config", path, "--out", str(out)]) == 0
    payload = json.loads((out / "run_regime.json").read_text())
    assert payload["regime"] == "supersonic"
    assert payload["sign_pattern"] == ["neg", "neg", "pos"]
    assert payload["b"] >= 0.0
    assert 2 + math.sqrt(8) < payload["lambda_star"] <= 5.0
    # eigenvalues satisfy the trace identity of the far-field matrix
    spec = cli.parse_config(path).model_spec()
    trace = float(np.trace(tp.farfield_jacobian(spec)))
    assert sum(re for re, _ in payload["eigenvalues"]) == \
        pytest.approx(trace, rel=1e-9)
    assert sum(im for _, im in payload["eigenvalues"]) == \
        pytest.approx(0.0, abs=1e-12)


def test_matrix_check_subcommand(tmp_path):
    path = write_config(tmp_path, "diagnostics.matrix_names = M1,M3")
    out = tmp_path / "out"
    assert cli.main(["matrix-check", "--config", path,
                     "--out", str(out)]) == 0
    payload = json.loads((out / "run_matrices.json").read_text())
    by_name = {r["name"]: r for r in payload["reports"]}
    assert by_name["M3"]["verdict"] == "positive_definite"
    assert len(by_name["M3"]["eigenvalues"]) == 3


def test_matrix_check_keeps_small_eigenvalue_of_sonic_m5(tmp_path):
    # diag(0.75, 3e16): mid - rad cancelled to 0.0, and the verdict read
    # positive_semidefinite
    path = write_config(tmp_path, "spec.u_plus = -1.0", "spec.u_minus = -1.05",
                        "diagnostics.matrix_names = M5",
                        "diagnostics.matrix_nu = 1",
                        "diagnostics.matrix_sigma = 1e8")
    out = tmp_path / "out"
    assert cli.main(["matrix-check", "--config", path,
                     "--out", str(out)]) == 0
    (report,) = json.loads((out / "run_matrices.json").read_text())["reports"]
    assert report["matrix"] == [[0.75, 0.0], [0.0, 3e16]]
    assert report["eigenvalues"] == [0.75, 3e16]
    assert report["verdict"] == "positive_definite"


def test_matrix_check_incomplete_context_exits_3(tmp_path, capsys):
    path = write_config(tmp_path, "diagnostics.matrix_names = M5")
    out = tmp_path / "out"
    assert cli.main(["matrix-check", "--config", path,
                     "--out", str(out)]) == 3
    assert "error" in capsys.readouterr().err
    record = json.loads((out / "run_run.json").read_text())
    assert record["status"] == "aborted"
    assert "DomainError" in record["reason"]


EVOLVE_LINES = BASE_LINES + (
    "grid.length = 10.0",
    "grid.cells = 100",
    "evolve.t_end = 0.5",
    "evolve.observer_stride = 20",
    "evolve.pert_amplitude = 1e-3",
    "evolve.pert_center = 5.0",
    "evolve.pert_width = 1.0",
)


def test_evolve_subcommand_and_determinism(tmp_path):
    path = write_config(tmp_path, "diagnostics.weights = alg1",
                        lines=EVOLVE_LINES)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["evolve", "--config", path, "--out", str(out1)]) == 0
    assert cli.main(["evolve", "--config", path, "--out", str(out2)]) == 0

    record = json.loads((out1 / "run_run.json").read_text())
    assert record["status"] == "completed"
    series = tp.load_norm_series_csv(out1 / "run_norms.csv")
    times = series.times()
    assert times[0] == 0.0
    assert times[-1] == pytest.approx(0.5, abs=1e-9)
    assert np.all(np.diff(times) > 0)
    assert all(list(r.weighted) == [tp.AlgebraicNu(1.0)]
               for r in series.records)

    assert record["files"] == ["run_config.txt", "run_norms.csv",
                               "run_final.csv", "run_final.csv.meta.json"]
    _, _, t = tp.load_state_csv(out1 / "run_final.csv")
    assert t == pytest.approx(0.5, abs=1e-9)
    meta = json.loads((out1 / "run_final.csv.meta.json").read_text())
    assert meta["t"] == t
    assert meta["spec_hash"] == record["config_hash"]

    for name in ("run_norms.csv", "run_final.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_evolve_wall_clock_truncation(tmp_path):
    path = write_config(tmp_path, "evolve.wall_clock_budget = 1e-9",
                        lines=EVOLVE_LINES)
    out = tmp_path / "out"
    assert cli.main(["evolve", "--config", path, "--out", str(out)]) == 0
    record = json.loads((out / "run_run.json").read_text())
    assert record["status"] == "truncated"
    assert "budget" in record["reason"]


def test_evolve_infinite_wall_clock_budget_is_no_budget(tmp_path):
    path = write_config(tmp_path, "evolve.wall_clock_budget = inf",
                        lines=EVOLVE_LINES)
    out = tmp_path / "out"
    assert cli.main(["evolve", "--config", path, "--out", str(out)]) == 0
    record = json.loads((out / "run_run.json").read_text())
    assert record["status"] == "completed"


def test_decay_fit_subcommand(tmp_path):
    t = np.arange(30.0)
    records = tuple(
        tp.NormRecord(t=float(tk), l2=5.0 * math.exp(-1.5 * tk),
                      h1=3.0 * math.exp(-0.5 * tk),
                      linf=1.0, drag_l2=0.0, weighted={})
        for tk in t)
    series_path = tmp_path / "series.csv"
    tp.save_norm_series_csv(tp.NormSeries(records), series_path)

    path = write_config(tmp_path,
                        f"diagnostics.series_path = {series_path}",
                        "diagnostics.fit_norm = l2",
                        "diagnostics.fit_law = exponential")
    out = tmp_path / "out"
    assert cli.main(["decay-fit", "--config", path, "--out", str(out)]) == 0
    fit = json.loads((out / "run_fit.json").read_text())
    assert fit["rate"] == pytest.approx(1.5, rel=1e-9)
    assert fit["prefactor"] == pytest.approx(5.0, rel=1e-6)
    assert fit["r_squared"] == pytest.approx(1.0, abs=1e-12)
    assert fit["records"] == 30


def test_decay_fit_nan_in_window_exits_3(tmp_path, capsys):
    records = tuple(
        tp.NormRecord(t=float(tk),
                      l2=math.nan if tk == 20 else math.exp(-tk / 2),
                      h1=1.0, linf=1.0, drag_l2=1.0, weighted={})
        for tk in range(30))
    series_path = tmp_path / "series.csv"
    tp.save_norm_series_csv(tp.NormSeries(records), series_path)
    path = write_config(tmp_path,
                        f"diagnostics.series_path = {series_path}",
                        "diagnostics.fit_norm = l2",
                        "diagnostics.fit_law = exponential")
    out = tmp_path / "out"
    assert cli.main(["decay-fit", "--config", path, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert str(series_path) in err
    assert "non-finite l2 value nan in the record at t=20" in err
    assert not (out / "run_fit.json").exists()


def test_decay_fit_requires_series_path(tmp_path):
    path = write_config(tmp_path)
    assert cli.main(["decay-fit", "--config", path,
                     "--out", str(tmp_path / "o")]) == 2


def test_decay_fit_missing_series_file_exits_5(tmp_path):
    path = write_config(tmp_path,
                        "diagnostics.series_path = nowhere/series.csv")
    assert cli.main(["decay-fit", "--config", path,
                     "--out", str(tmp_path / "o")]) == 5


def test_decay_fit_unknown_norm_exits_3(tmp_path):
    t = np.arange(10.0)
    records = tuple(
        tp.NormRecord(t=float(tk), l2=math.exp(-tk), h1=1.0, linf=1.0,
                      drag_l2=1.0, weighted={})
        for tk in t)
    series_path = tmp_path / "series.csv"
    tp.save_norm_series_csv(tp.NormSeries(records), series_path)
    path = write_config(tmp_path,
                        f"diagnostics.series_path = {series_path}",
                        "diagnostics.fit_norm = enstrophy")
    assert cli.main(["decay-fit", "--config", path,
                     "--out", str(tmp_path / "o")]) == 3


def test_missing_config_file_exits_2(tmp_path, capsys):
    assert cli.main(["steady", "--config", str(tmp_path / "absent.cfg"),
                     "--out", str(tmp_path)]) == 2
    assert "error" in capsys.readouterr().err


def test_invalid_override_exits_2(tmp_path):
    path = write_config(tmp_path)
    assert cli.main(["steady", "--config", path, "--out", str(tmp_path),
                     "--override", "spec.u_minus=2.0"]) == 2


# one broken value per rule that an object built from the config checks
# (ModelSpec and its parts, Grid1D, SteadySolveOptions, PerturbationSpec),
# with the refusal that names it
OBJECT_RULES = [
    ("spec.A1 = -1", "A1 must be positive, got -1.0"),
    ("spec.A2 = 0", "A2 must be positive, got 0.0"),
    ("spec.gamma = 0.5", "gamma must be at least 1, got 0.5"),
    ("spec.alpha = 0.9", "alpha must be at least 1, got 0.9"),
    ("spec.mu = -2", "mu must be positive, got -2.0"),
    ("spec.rho_plus = 0", "rho_plus must be positive, got 0.0"),
    ("spec.n_plus = -1", "n_plus must be positive, got -1.0"),
    ("spec.u_plus = 2", "u_plus must be negative (outflow), got 2.0"),
    ("spec.u_minus = 0", "u_minus must be negative (outflow), got 0.0"),
    ("grid.length = -1", "grid length must be finite and positive, got -1.0"),
    ("grid.cells = 0", "grid needs at least one cell"),
    ("steady.x_domain = 0",
     "steady x_domain must be finite and positive, got 0.0"),
    ("evolve.pert_shape = sine", "unknown perturbation shape 'sine'"),
    ("evolve.pert_width = 0", "width must be positive, got 0.0"),
    ("evolve.pert_components = u,w", "unknown perturbation components ['w']"),
    ("steady.points = 1", "steady points must be an integer of at least 2, "
                          "got 1"),
    ("grid.length = inf", "grid length must be finite and positive, got inf"),
    ("steady.x_domain = inf",
     "steady x_domain must be finite and positive, got inf"),
]


@pytest.mark.parametrize("command", ["regime", "steady", "evolve"])
@pytest.mark.parametrize("line, fragment", OBJECT_RULES,
                         ids=[line.replace(" = ", "=")
                              for line, _ in OBJECT_RULES])
def test_object_rules_exit_2_before_any_work(tmp_path, capsys, monkeypatch,
                                             command, line, fragment):
    # grid.length = inf and steady.x_domain = inf exited 0 on regime and 3
    # on evolve, steady.points = 1 exited 3 on steady
    def no_solve(*args):
        raise AssertionError("solve_steady ran")
    monkeypatch.setattr(cli, "solve_steady", no_solve)
    out = tmp_path / "out"
    assert cli.main([command, "--config", write_config(tmp_path, line),
                     "--out", str(out)]) == 2
    assert fragment in capsys.readouterr().err
    assert not out.exists()


def write_snapshot(path, length, cells):
    """A flat unit-fluid state at Mach 2 on the given grid, with its
    sidecar, as `save_state_csv` writes it."""
    U = np.array(((1.0, 1.0), (-2.0, -2.0)))[:, :, None] * np.ones(cells)
    state = tp.EvolutionState(t=0.0, U=U, boundary=MACH2_UNIT_BOUNDARY)
    tp.save_state_csv(state, tp.make_grid(length, cells), path)


def write_norm_series(path, header, times, rates):
    """A norm series file whose plain norms decay at rate 0.5 and whose
    weight columns decay at the given rates."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for t in times:
            values = [t] + [math.exp(-0.5 * t)] * 4
            values += [math.exp(-rate * t) for rate in rates]
            fh.write(",".join(map(repr, values)) + "\n")


# name -> (header, times, weight column rates); each would fit at rate
# 0.5, or at 2.0 for alg1, if its fault were not refused
NORM_SERIES_CASES = {
    "twice_series": ("t,l2,h1,linf,drag_l2,w_alg1,w_alg1", range(10),
                     (0.5, 2.0)),
    "alias_series": ("t,l2,h1,linf,drag_l2,w_alg1,w_alg1.0", range(10),
                     (0.5, 2.0)),
    "base_typo_series": ("t,l2,h1,linf,drag_l2x", range(10), ()),
    "extra_series": ("t,l2,h1,linf,drag_l2,oops", range(10), (0.5,)),
    "unordered_series": ("t,l2,h1,linf,drag_l2",
                         (0, 1, 2, 3, 5, 4, 6, 7, 8, 9), ()),
    "short_series": ("t,l2,h1,linf,drag_l2", range(5), ()),
    "empty_series": ("t,l2,h1,linf,drag_l2", (), ()),
    "nan_time_series": ("t,l2,h1,linf,drag_l2",
                        (0, 1, 2, 3, 4, math.nan) + tuple(range(6, 18)), ()),
    "underscore_tag_series": ("t,l2,h1,linf,drag_l2,w_alg1_0", range(10),
                              (0.5,)),
}


def _raising_body(err):
    def body(config, out_dir, workers):
        raise err
    return body


# each documented exit code with its cause; {tmp}, {bad_series},
# {bad_tag_series}, {ragged_series}, {snapshot} (64 cells on [0, 10]),
# {nan_snapshot} (the same with n = nan in data row 6),
# {ragged_snapshot} (the same with data row 6 one value short),
# {old_snapshot} (the same under the older velocity header x,rho,u,n,v)
# and the norm series named in NORM_SERIES_CASES stand for paths made in
# the test, and every fragment must appear on stderr
@pytest.mark.parametrize("command, extra, raised, code, fragments", [
    ("steady", ("spec.bogus = 1",), None, 2,
     ("unknown key", "'spec.bogus'")),
    ("regime", ("spec.rho_plus = 1e120", "spec.gamma = 3"), None, 2,
     ("rho_plus=1e+120", "not a positive finite")),
    ("steady", ("spec.rho_plus = 1e-200", "spec.n_plus = 1e-200",
                "spec.gamma = 3", "spec.alpha = 3"), None, 2,
     ("rho_plus=1e-200", "not a positive finite")),
    ("regime", ("spec.rho_plus = 3.5e102", "spec.n_plus = 3.5e102",
                "spec.gamma = 3", "spec.alpha = 3"), None, 2,
     ("rho_plus=3.5e+102", "n_plus=3.5e+102", "overflows")),
    # each law is 1.0e307 and their sum finite, but the far-field matrix
    # has no accurate eigenvectors at that scale
    ("regime", ("spec.rho_plus = 1.5e102", "spec.n_plus = 1.5e102",
                "spec.gamma = 3", "spec.alpha = 3"), None, 4,
     ("relative eigenvector residual 1.000e+00",)),
    ("decay-fit", ("diagnostics.series_path = {bad_series}",), None, 3,
     ("{bad_series}", "'oops'")),
    ("decay-fit", ("diagnostics.series_path = {bad_tag_series}",), None, 3,
     ("{bad_tag_series}", "'bogus'")),
    ("decay-fit", ("diagnostics.series_path = {ragged_series}",), None, 3,
     ("{ragged_series}", "number of columns changed from 5 to 4 at row 2")),
    ("decay-fit", ("diagnostics.series_path = {tmp}/absent.csv",), None, 5,
     ("{tmp}/absent.csv",)),
    ("evolve", (), tp.VacuumError(2, 41, 3.5), 4,
     ("phase-2", "cell 41", "t=3.5")),
    ("evolve", (), tp.BlowUpError(3.5), 4, ("non-finite", "t=3.5")),
    ("regime", (), TypeError("unsupported operand"), 1,
     ("error: internal TypeError: unsupported operand",)),
    ("evolve", ("grid.length = 20", "steady.x_domain = 19"), None, 3,
     ("grid length 20 exceeds the profile domain 19",)),
    ("evolve", ("grid.length = 10", "grid.cells = 32",
                "evolve.pert_shape = from_file",
                "evolve.pert_path = {snapshot}"), None, 3,
     ("{snapshot}", "64 cell centers", "grid's 32")),
    ("evolve", ("evolve.t_end = inf",), None, 2,
     ("evolve.t_end", "finite")),
    ("evolve", ("evolve.pert_amplitude = nan",), None, 2,
     ("amplitude must be finite",)),
    ("evolve", ("evolve.pert_amplitude = inf",), None, 2,
     ("amplitude must be finite",)),
    ("evolve", ("evolve.pert_center = inf",), None, 2,
     ("center must be finite",)),
    ("evolve", ("evolve.pert_width = inf",), None, 2,
     ("width must be finite",)),
    # finite parameters whose momentum rho u overflows
    ("evolve", ("grid.cells = 256", "evolve.pert_amplitude = 1e308",
                "evolve.pert_components = rho,u"), None, 3,
     ("initial mom1 at cell 0 is not finite; perturbation rejected",)),
    ("evolve", ("grid.length = 10", "grid.cells = 64",
                "evolve.pert_shape = from_file",
                "evolve.pert_path = {nan_snapshot}"), None, 3,
     ("{nan_snapshot}", "non-finite n value nan in data row 6")),
    ("evolve", ("grid.length = 10", "grid.cells = 64",
                "evolve.pert_shape = from_file",
                "evolve.pert_path = {ragged_snapshot}"), None, 3,
     ("{ragged_snapshot}", "number of columns changed from 5 to 4 at row 6")),
    ("evolve", ("grid.length = 10", "grid.cells = 64",
                "evolve.pert_shape = from_file",
                "evolve.pert_path = {old_snapshot}"), None, 3,
     ("{old_snapshot}", "unexpected snapshot header 'x,rho,u,n,v'")),
    ("decay-fit", ("diagnostics.series_path = {twice_series}",
                   "diagnostics.fit_norm = alg1"), None, 3,
     ("{twice_series}: norm series header names column 'w_alg1' twice",)),
    ("decay-fit", ("diagnostics.series_path = {alias_series}",
                   "diagnostics.fit_norm = alg1"), None, 3,
     ("{alias_series}: columns 'w_alg1' and 'w_alg1.0' name one weight",)),
    ("decay-fit", ("diagnostics.series_path = {base_typo_series}",), None, 3,
     ("{base_typo_series}: unexpected norm series header "
      "'t,l2,h1,linf,drag_l2x'",)),
    ("decay-fit", ("diagnostics.series_path = {extra_series}",), None, 3,
     ("{extra_series}: norm series column 'oops' is not w_<label>",)),
    ("decay-fit", ("diagnostics.series_path = {unordered_series}",), None, 3,
     ("{unordered_series}: norm series times must be strictly increasing",)),
    ("decay-fit", ("diagnostics.series_path = {short_series}",), None, 3,
     ("{short_series}: norm series holds 5 records (need 8)",)),
    ("decay-fit", ("diagnostics.series_path = {empty_series}",), None, 3,
     ("{empty_series}: norm series holds 0 records (need 8)",)),
    ("evolve", ("grid.length = 100", "grid.cells = 64", "evolve.t_end = 0.1",
                "diagnostics.weights = exp10"), None, 3,
     ("exponential weight rate 10 overflows", "7.15372")),
    ("decay-fit", ("diagnostics.series_path = {nan_time_series}",
                   "diagnostics.fit_window = 0:20"), None, 3,
     ("{nan_time_series}: norm series times must be finite",)),
    ("decay-fit", ("diagnostics.series_path = {underscore_tag_series}",),
     None, 3, ("{underscore_tag_series}: unknown weight tag 'alg1_0'",)),
    ("regime", ("diagnostics.weights = alg1_0",), None, 2,
     ("unknown weight tag 'alg1_0'",)),
    # just above the sonic band, where the slow stable eigenvalue is
    # within 1e-8 of zero
    ("steady", ("spec.u_plus = -1.0000000015", "spec.u_minus = -1.0100000015"),
     None, 3, ("phase-2 velocity crossed zero",)),
    ("steady", ("spec.u_plus = -1.0", "spec.u_minus = -0.95"), None, 3,
     ("require u_minus < u_plus",)),
    # non-finite or overflowing numbers are refused by name
    ("regime", ("spec.mu = inf",), None, 2, ("mu must be finite, got inf",)),
    ("steady", ("spec.mu = inf",), None, 2, ("mu must be finite, got inf",)),
    ("regime", ("spec.u_plus = -inf",), None, 2,
     ("u_plus must be finite, got -inf",)),
    ("steady", ("spec.u_plus = -inf",), None, 2,
     ("u_plus must be finite, got -inf",)),
    ("regime", ("spec.u_plus = -1e300",), None, 2,
     ("u_plus=-1e+300: the far-field momentum flux rho_plus u_plus^2 "
      "overflows binary64",)),
    ("steady", ("spec.u_minus = -inf",), None, 2,
     ("u_minus must be finite, got -inf",)),
    ("steady", ("spec.u_minus = -1e300",), None, 3,
     ("the profile interval length L = inf is not finite",)),
    ("steady", ("spec.mu = 1e300",), None, 3,
     ("the profile interval length L = inf is not finite",)),
    # sonic, where mu + n_plus overflows the denominator of a to zero
    ("steady", ("spec.mu = 1e308", "spec.u_plus = -1.0",
                "spec.u_minus = -1.05"), None, 3,
     ("sigma_profile needs a > 0",)),
    ("steady", ("steady.x_domain = inf",), None, 2,
     ("steady x_domain must be finite and positive, got inf",)),
    ("evolve", ("grid.length = inf",), None, 2,
     ("grid length must be finite and positive, got inf",)),
    ("matrix-check", ("diagnostics.matrix_names = M5",
                      "diagnostics.matrix_nu = inf",
                      "diagnostics.matrix_sigma = 1"), None, 2,
     ("diagnostics.matrix_nu: must be finite and nonnegative (got inf)",)),
    ("matrix-check", ("diagnostics.matrix_names = M5",
                      "diagnostics.matrix_nu = 1",
                      "diagnostics.matrix_sigma = inf"), None, 2,
     ("diagnostics.matrix_sigma: must be finite and positive (got inf)",)),
    ("matrix-check", ("diagnostics.matrix_names = M5",
                      "diagnostics.matrix_nu = 1",
                      "diagnostics.matrix_sigma = 1e200"), None, 3,
     ("M5 matrix has a non-finite entry at nu=1.0, sigma_value=1e+200",)),
    # far fields whose center-manifold constants are not finite
    ("regime", ("spec.rho_plus = 1e-200", "spec.u_plus = -1e-170",
                "spec.u_minus = -1.05e-170"), None, 2,
     ("the far-field constant a = inf of", "rho_plus=1e-200",
      "u_plus=-1e-170")),
    ("regime", ("spec.rho_plus = 1e-200", "spec.u_plus = -1e-160",
                "spec.u_minus = -1.05e-160"), None, 2,
     ("the far-field constant a = inf of", "rho_plus=1e-200",
      "u_plus=-1e-160")),
    ("regime", ("spec.A1 = 1e308",), None, 2,
     ("the far-field constant a = nan of A1=1e+308",)),
    ("regime", ("spec.A1 = 1e-300", "spec.A2 = 1e-300",
                "spec.rho_plus = 1e308", "spec.n_plus = 1e308",
                "spec.u_plus = -1e-10", "spec.u_minus = -1.05e-10"), None, 2,
     ("the far-field constant c_plus = 0 of", "is not a positive finite")),
    # configuration errors the subcommands find
    ("sweep", ("sweep.parameter = output.bogus", "sweep.values = 1,2"),
     None, 2, ("cannot sweep over 'output.bogus'",)),
    ("sweep", ("sweep.parameter = spec.u_minus", "sweep.values ="), None, 2,
     ("sweep.values must list at least one value",)),
    ("matrix-check", ("diagnostics.matrix_names =",), None, 2,
     ("diagnostics.matrix_names is empty",)),
    ("regime", ("diagnostics.fit_window = a:b",), None, 2,
     ("diagnostics.fit_window: cannot parse 'a:b'",)),
], ids=["bad_key", "pressure_overflow", "pressure_underflow",
        "pressure_sum_overflow", "eigenvector_residual", "malformed_series",
        "bad_weight_tag", "ragged_series",
        "missing_series", "vacuum", "blow_up", "internal",
        "grid_beyond_profile", "snapshot_grid_mismatch", "t_end_inf",
        "pert_amplitude_nan", "pert_amplitude_inf", "pert_center_inf",
        "pert_width_inf", "pert_momentum_overflow", "snapshot_nan", "ragged_snapshot",
        "old_snapshot", "column_twice", "weight_twice", "base_header_typo",
        "non_weight_column", "unordered_times", "five_records",
        "no_records", "weight_overflow", "nan_time", "underscore_tag_column",
        "underscore_tag_config", "sonic_band_edge", "sonic_offset_sign",
        "regime_mu_inf", "steady_mu_inf", "regime_u_plus_inf",
        "steady_u_plus_inf", "regime_u_plus_huge", "u_minus_inf",
        "u_minus_huge", "mu_huge", "sonic_mu_huge", "x_domain_inf",
        "grid_length_inf", "matrix_nu_inf", "matrix_sigma_inf",
        "matrix_sigma_huge", "a_underflow", "a_overflow", "a_nan",
        "c_plus_zero", "sweep_unknown_key", "sweep_no_values",
        "no_matrix_names", "fit_window_unparsable"])
def test_exit_codes_name_the_cause(tmp_path, capsys, monkeypatch, command,
                                   extra, raised, code, fragments):
    bad_series = tmp_path / "series.csv"
    bad_series.write_text("t,l2,h1,linf,drag_l2\n0,1,1,1,oops\n")
    bad_tag_series = tmp_path / "tagged.csv"
    bad_tag_series.write_text("t,l2,h1,linf,drag_l2,w_bogus\n0,1,1,1,1,1\n")
    ragged_series = tmp_path / "ragged.csv"
    ragged_series.write_text("t,l2,h1,linf,drag_l2\n0,1,1,1,1\n1,1,1,1\n")
    snapshot = tmp_path / "snap64.csv"
    write_snapshot(snapshot, 10.0, 64)
    lines = snapshot.read_text().splitlines(keepends=True)
    nan_snapshot = tmp_path / "snapnan.csv"
    cells = lines[6].split(",")
    nan_snapshot.write_text("".join(
        lines[:6] + [",".join(cells[:2] + ["nan"] + cells[3:])] + lines[7:]))
    ragged_snapshot = tmp_path / "snapragged.csv"
    ragged_snapshot.write_text("".join(
        lines[:6] + [",".join(cells[:4]) + "\n"] + lines[7:]))
    old_snapshot = tmp_path / "snapold.csv"
    old_snapshot.write_text("".join(["x,rho,u,n,v\n"] + lines[1:]))
    paths = {"tmp": str(tmp_path), "bad_series": str(bad_series),
             "bad_tag_series": str(bad_tag_series),
             "ragged_series": str(ragged_series), "snapshot": str(snapshot),
             "nan_snapshot": str(nan_snapshot),
             "ragged_snapshot": str(ragged_snapshot),
             "old_snapshot": str(old_snapshot)}
    for name, (header, times, rates) in NORM_SERIES_CASES.items():
        paths[name] = str(tmp_path / f"{name}.csv")
        write_norm_series(paths[name], header, times, rates)
    if raised is not None:
        monkeypatch.setitem(cli._RUNNERS, command, _raising_body(raised))
    path = write_config(tmp_path, *(line.format(**paths) for line in extra))
    assert cli.main([command, "--config", path,
                     "--out", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    for fragment in fragments:
        assert fragment.format(**paths) in err
    # whatever JSON the run left is strict: no NaN or Infinity
    out = tmp_path / "out"
    for name in os.listdir(out) if out.exists() else ():
        if name.endswith(".json"):
            json.loads((out / name).read_text(), parse_constant=pytest.fail)


@pytest.mark.parametrize("sidecar, fragment", [
    ('{"t": "soon"}', "t must be a finite number"),
    ('{"t": true}', "t must be a finite number"),
    ('[0.0]', "expected a JSON object"),
    # an integer past the largest double
    ('{"t": 1%s}' % ("0" * 399), "t must be a finite number"),
], ids=["t_text", "t_bool", "not_an_object", "t_huge_integer"])
def test_malformed_snapshot_sidecar_exits_3(tmp_path, capsys, sidecar,
                                            fragment):
    snapshot = tmp_path / "snap.csv"
    write_snapshot(snapshot, 10.0, 100)
    meta = tmp_path / "snap.csv.meta.json"
    meta.write_text(sidecar)
    path = write_config(tmp_path, "evolve.pert_shape = from_file",
                        f"evolve.pert_path = {snapshot}", lines=EVOLVE_LINES)
    assert cli.main(["evolve", "--config", path,
                     "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert f"{meta}: {fragment}" in err


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_over_four_specs(tmp_path):
    path = write_config(tmp_path,
                        "sweep.parameter = spec.u_minus",
                        "sweep.values = -2.01,-2.03,-2.05,-2.08",
                        "sweep.subcommand = regime")
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", path, "--out", str(out),
                     "--workers", "2"]) == 0

    index = (out / "run_index.csv").read_text().splitlines()
    assert index[0] == "hash,parameter,value,status,reason"
    rows = [line.split(",") for line in index[1:]]
    assert len(rows) == 4
    hashes = [row[0] for row in rows]
    assert hashes == sorted(hashes)
    assert len(set(hashes)) == 4
    assert all(row[3] == "completed" for row in rows)

    for row in rows:
        child = out / row[0]
        record = json.loads((child / "run_run.json").read_text())
        assert record["status"] == "completed"
        assert record["subcommand"] == "regime"
        payload = json.loads((child / "run_regime.json").read_text())
        assert payload["delta"] == pytest.approx(abs(float(row[2]) + 2.0))
        # child echoes reparse to the directory they live in
        echoed = cli.parse_config(str(child / "run_config.txt"))
        assert echoed.hash == row[0]


def test_sweep_runs_in_process_and_records_an_aborted_child(tmp_path,
                                                            monkeypatch):
    # one worker, the default, runs the children here, with no pool; a
    # child that raises is a row of the index, not the sweep's failure
    monkeypatch.setattr(cli, "ProcessPoolExecutor", None)
    path = write_config(tmp_path, "spec.u_plus = -1.0",
                        "spec.u_minus = -1.05",
                        "sweep.parameter = spec.u_minus",
                        "sweep.values = -1.05,-0.95",
                        "sweep.subcommand = steady")
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", path, "--out", str(out)]) == 0
    rows = {row[2]: row[3:] for row in csv.reader(
        (out / "run_index.csv").read_text().splitlines()[1:])}
    assert rows["-1.05"] == ["completed", ""]
    status, reason = rows["-0.95"]
    assert status == "aborted"
    assert reason.startswith("DomainError: sonic profiles decay through "
                             "u~ < u_plus; ")


def test_sweep_validation(tmp_path):
    no_param = write_config(tmp_path, "sweep.values = -2.01,-2.02",
                            name="a.cfg")
    assert cli.main(["sweep", "--config", no_param,
                     "--out", str(tmp_path / "o1")]) == 2
    dupes = write_config(tmp_path, "sweep.parameter = spec.u_minus",
                         "sweep.values = -2.01,-2.01", name="b.cfg")
    assert cli.main(["sweep", "--config", dupes,
                     "--out", str(tmp_path / "o2")]) == 2
    bad_value = write_config(tmp_path, "sweep.parameter = spec.u_minus",
                             "sweep.values = -2.01,3.0", name="c.cfg")
    assert cli.main(["sweep", "--config", bad_value,
                     "--out", str(tmp_path / "o3")]) == 2


def test_run_subcommand_refuses_an_unknown_name(tmp_path):
    # the command line offers only the known names; a caller of
    # run_subcommand can pass any, and gets a ConfigError before any write
    config = cli.parse_config(write_config(tmp_path))
    out = tmp_path / "out"
    with pytest.raises(tp.ConfigError, match="^unknown subcommand 'bogus'$"):
        cli.run_subcommand("bogus", config, str(out))
    assert not out.exists()


def test_sweep_refuses_a_bad_value_before_any_child_runs(tmp_path, capsys):
    path = write_config(tmp_path, "sweep.parameter = grid.length",
                        "sweep.values = 10,inf", "sweep.subcommand = regime")
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", path, "--out", str(out)]) == 2
    assert ("sweep value 'inf': grid length must be finite and positive, "
            "got inf") in capsys.readouterr().err
    # the sweep's own echo and record, and no child directory or index
    assert sorted(os.listdir(out)) == ["run_config.txt", "run_run.json"]


# ---------------------------------------------------------------------------
# output directory resolution
# ---------------------------------------------------------------------------

def test_out_dir_resolution_order(tmp_path, monkeypatch):
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv("TWOPHASE_OUT", str(env_dir))
    path = write_config(tmp_path)
    assert cli.main(["regime", "--config", path]) == 0
    assert (env_dir / "run_regime.json").exists()

    cfg_dir = tmp_path / "from_config"
    path2 = write_config(tmp_path, f"output.directory = {cfg_dir}",
                         name="cfg2.cfg")
    assert cli.main(["regime", "--config", path2]) == 0
    assert (cfg_dir / "run_regime.json").exists()

    flag_dir = tmp_path / "from_flag"
    assert cli.main(["regime", "--config", path2,
                     "--out", str(flag_dir)]) == 0
    assert (flag_dir / "run_regime.json").exists()
    assert not (cfg_dir / "run_regime.json").read_text() == ""