"""The README's library sketch and JSON configs run and print what they document."""

import contextlib
import io
import json
import re
from pathlib import Path

import pytest

from pdmdyn import ExactSolutionSpec, exact_energy, parameter_set
from pdmdyn.cli import run_cli

README = Path(__file__).resolve().parents[1] / "README.md"
CONFIGS = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)


def test_library_sketch_prints_the_documented_energy():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    assert out.getvalue().splitlines()[-1] == "0.25"


def test_both_configs_are_found():
    assert [json.loads(text)["family"] for text in CONFIGS] == ["ml1", "custom"]


@pytest.mark.parametrize("text", CONFIGS, ids=[json.loads(t)["family"] for t in CONFIGS])
def test_config_simulates_with_the_documented_header(tmp_path, text):
    cfg = json.loads(text)
    path = tmp_path / "run.json"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    assert run_cli(["simulate", "--config", str(path)], out, err) == 0
    assert err.getvalue() == ""
    n = cfg["n"]
    header, *rows = out.getvalue().splitlines()
    assert header == ",".join(["t", *(f"x_{i + 1}" for i in range(n)),
                               *(f"v_{i + 1}" for i in range(n)), "E"])
    assert rows
    if cfg["family"] == "ml1":
        spec = ExactSolutionSpec("ml1", parameter_set(cfg["params"], n),
                                 tuple(cfg["initial"]["from_exact"]["amplitude"]))
        assert exact_energy(spec) == 0.25
        assert max(abs(float(row.split(",")[-1]) - 0.25) for row in rows) <= 1e-8
