"""The step-digest tool: it runs, reports each march's time per step, and
a run compared with its own saved states reads the same bits."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "step_digest.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("step_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_save_then_compare_reads_zero_deviation(tmp_path, capsys):
    tool = load_tool()
    saved = str(tmp_path / "digest.npz")
    tool.main(["--save", saved])
    first = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    tool.main(["--compare", saved])
    second = [json.loads(line)
              for line in capsys.readouterr().out.splitlines()]
    assert [line["setup"] for line in first] == [
        "criterion07", "criterion08", "non_isothermal_1024",
        "non_isothermal_8192"]
    assert [line["setup"] for line in second] == [
        line["setup"] for line in first]
    for before, after in zip(first, second):
        for stepper in ("heun", "imex"):
            for key in (f"{stepper}_sha256", f"{stepper}_dt"):
                assert after[key] == before[key]
            for line in (before, after):
                assert line[f"{stepper}_us"] > 0.0
            deviation = after[f"{stepper}_deviation"]
            assert deviation == {name: 0.0 for name in tool.ARRAYS}
