"""Command-line interface tests: configs, outputs, exit codes."""

import copy
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pdmdyn
from pdmdyn.cli import run_cli
from pdmdyn.verify import SuiteSummary

ML1_CONFIG = {
    "family": "ml1",
    "n": 1,
    "params": {"omega": [1.0], "lambda": 1.0, "sign": "+"},
    "initial": {"x": [1.0], "v": [0.0]},
    "integrator": {"scheme": "dop853", "rel_tol": 1e-10,
                   "abs_tol": 1e-12, "t_end": 8.885765876316732},
    "output": {"format": "csv", "stride": 1},
}


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run_cli(argv, out_stream=out, err_stream=err)
    return code, out.getvalue(), err.getvalue()


def with_value(cfg, path, value):
    """A deep copy of cfg with the key at path (a tuple of keys) set to value."""
    out = copy.deepcopy(cfg)
    node = out
    for key in path[:-1]:
        node = node.setdefault(key, {})
    node[path[-1]] = value
    return out


def write_config(tmp_path, cfg, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestSimulate:
    def test_valid_config_writes_csv(self, tmp_path):
        cfg = write_config(tmp_path, ML1_CONFIG)
        out_path = tmp_path / "traj.csv"
        code, _, _ = run(["simulate", "--config", cfg, "--out", str(out_path)])
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "t,x_1,v_1,E"
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == 1.0
        assert float(first[3]) == pytest.approx(0.25, abs=1e-12)
        # returns to the start after one validated period
        last = lines[-1].split(",")
        assert float(last[1]) == pytest.approx(1.0, abs=1e-6)

    def test_numbers_round_trip_exactly(self, tmp_path):
        cfg = write_config(tmp_path, ML1_CONFIG)
        out_path = tmp_path / "traj.csv"
        run(["simulate", "--config", cfg, "--out", str(out_path)])
        row = out_path.read_text().splitlines()[5].split(",")
        for cell in row:
            assert repr(float(cell)) == repr(float(repr(float(cell))))

    def test_deterministic_output(self, tmp_path):
        cfg = write_config(tmp_path, ML1_CONFIG)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["simulate", "--config", cfg, "--out", str(a)])
        run(["simulate", "--config", cfg, "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_missing_field_exit_2(self, tmp_path):
        broken = {k: v for k, v in ML1_CONFIG.items()}
        broken["params"] = {"lambda": 1.0, "sign": "+"}  # omega dropped
        cfg = write_config(tmp_path, broken)
        code, _, err = run(["simulate", "--config", cfg])
        assert code == 2
        assert "omega" in err

    def test_invalid_json_exit_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run(["simulate", "--config", str(path)])
        assert code == 2
        assert "line" in err

    def test_missing_file_exit_2(self, tmp_path):
        code, _, err = run(["simulate", "--config", str(tmp_path / "nope.json")])
        assert code == 2

    def test_from_exact_initial_conditions(self, tmp_path):
        cfg_data = dict(ML1_CONFIG)
        cfg_data["initial"] = {"from_exact": {"amplitude": [1.0]}}
        cfg = write_config(tmp_path, cfg_data)
        out_path = tmp_path / "traj.csv"
        code, _, _ = run(["simulate", "--config", cfg, "--out", str(out_path)])
        assert code == 0
        first = out_path.read_text().splitlines()[1].split(",")
        assert float(first[1]) == 1.0

    def test_json_output_format(self, tmp_path):
        cfg_data = dict(ML1_CONFIG)
        cfg_data["output"] = {"format": "json", "stride": 10}
        cfg_data["integrator"] = dict(cfg_data["integrator"], t_end=1.0)
        cfg = write_config(tmp_path, cfg_data)
        out_path = tmp_path / "traj.json"
        code, _, _ = run(["simulate", "--config", cfg, "--out", str(out_path)])
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["columns"] == ["t", "x_1", "v_1", "E"]

    def test_type2_simulation(self, tmp_path):
        cfg_data = {
            "family": "custom", "n": 2,
            "custom": {"kind": "type2", "mass": ["1+x1^2+x2^2"]},
            "initial": {"x": [0.4, -0.3], "v": [0.7, 0.5]},
            "integrator": {"scheme": "dop853", "t_end": 1.0},
        }
        cfg = write_config(tmp_path, cfg_data)
        out_path = tmp_path / "traj.csv"
        code, _, _ = run(["simulate", "--config", cfg, "--out", str(out_path)])
        assert code == 0
        assert out_path.read_text().startswith("t,x_1,x_2,v_1,v_2,E")

    @pytest.mark.parametrize("section,key,value", [
        (None, "n", "two"),
        ("integrator", "t_end", "later"),
        ("integrator", "rel_tol", "tight"),
        ("integrator", "abs_tol", [1e-12]),
        ("integrator", "h_init", None),
        ("integrator", "h_min", "tiny"),
        ("integrator", "h_max", {"value": 1.0}),
    ])
    def test_non_numeric_value_exit_2(self, tmp_path, section, key, value):
        cfg_data = dict(ML1_CONFIG)
        if section is None:
            cfg_data[key] = value
        else:
            cfg_data[section] = dict(cfg_data[section], **{key: value})
        code, _, err = run(["simulate", "--config", write_config(tmp_path, cfg_data)])
        assert code == 2
        assert err.startswith("error:") and key in err

    @pytest.mark.parametrize("path,value", [
        (("initial", "x"), ["one"]),
        (("initial", "x"), 1.0),
        (("initial", "v"), [None]),
        (("initial", "t0"), "start"),
        (("output", "stride"), "every"),
        (("output", "stride"), "2.5"),
    ])
    def test_non_numeric_nested_value_exit_2(self, tmp_path, path, value):
        cfg_data = with_value(ML1_CONFIG, path, value)
        code, _, err = run(["simulate", "--config", write_config(tmp_path, cfg_data)])
        assert code == 2
        assert err.startswith("error:") and ".".join(path) in err

    @pytest.mark.parametrize("key,value", [
        ("amplitude", ["wide"]), ("amplitude", 1.0), ("phase", [0.0, "late"]), ("t0", "now"),
    ])
    def test_non_numeric_from_exact_value_exit_2(self, tmp_path, key, value):
        cfg_data = dict(ML1_CONFIG, initial={"from_exact": {"amplitude": [1.0]}})
        cfg_data = with_value(cfg_data, ("initial", "from_exact", key), value)
        code, _, err = run(["simulate", "--config", write_config(tmp_path, cfg_data)])
        assert code == 2
        assert err.startswith("error:") and f"initial.from_exact.{key}" in err

    def test_overflowing_potential_truncates(self, tmp_path):
        # V = -exp(x) pushes x past the largest float exp(x) can return
        cfg_data = dict(ML1_CONFIG, family="custom",
                        custom={"mass": ["1"], "potential": ["-exp(x)"]},
                        initial={"x": [705.0], "v": [0.0]})
        code, _, err = run(["simulate", "--config", write_config(tmp_path, cfg_data)])
        assert code == 0
        assert err.startswith("note: integration truncated")

    def test_overflowing_mass_exit_2(self, tmp_path):
        cfg_data = dict(ML1_CONFIG, family="custom",
                        custom={"mass": ["exp(x)"], "potential": ["0.5*x^2"]},
                        initial={"x": [720.0], "v": [0.0]})
        code, _, err = run(["simulate", "--config", write_config(tmp_path, cfg_data)])
        assert code == 2
        assert err == "error: float overflow in 'exp(x)'\n"

    def test_from_exact_amplitude_longer_than_n_exit_2(self, tmp_path):
        cfg_data = with_value(ML1_CONFIG, ("initial",),
                              {"from_exact": {"amplitude": [1.0, 0.5]}})
        code, _, err = run(["simulate", "--config", write_config(tmp_path, cfg_data)])
        assert code == 2
        assert err == "error: omega: expected 2 entries, got 1\n"

    def test_sine_of_infinity_exit_2(self, tmp_path):
        cfg_data = dict(ML1_CONFIG, family="custom",
                        custom={"mass": ["1"], "potential": ["sin(x*1e999)"]},
                        initial={"x": [0.5], "v": [0.0]})
        code, _, err = run(["simulate", "--config", write_config(tmp_path, cfg_data)])
        assert code == 2
        assert err == "error: sin of an infinite value in 'sin(x*inf)'\n"

    @pytest.mark.parametrize("custom,x0,code,err", [
        # a constant exponent of 1e300: about 2000 products, V underflows to 0
        ({"mass": ["1"], "potential": ["x^1e300"]}, 0.5, 0, ""),
        # the value pass of a type2 mass meets the integer exponent 3^27 at run time
        ({"kind": "type2", "mass": ["x1^(x1^(x1^x1))"], "potential": ["0.5*x^2"]},
         3.0, 2, "error: float overflow in 'x1^x1^x1^x1'\n"),
    ])
    def test_huge_integer_exponent_returns(self, tmp_path, custom, x0, code, err):
        cfg_data = dict(ML1_CONFIG, family="custom", custom=custom,
                        initial={"x": [x0], "v": [0.0]})
        env = dict(os.environ, PYTHONPATH=str(Path(pdmdyn.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "pdmdyn.cli", "simulate", "--config",
             write_config(tmp_path, cfg_data)],
            capture_output=True, text=True, env=env, timeout=10)
        assert (done.returncode, done.stderr) == (code, err)

    def test_extreme_tolerances_write_only_the_note(self, tmp_path):
        # the scaled error overflows at tolerances of 5e-324; stderr must hold
        # the truncation note and nothing else, no numpy warning
        cfg_data = copy.deepcopy(ML1_CONFIG)
        cfg_data["integrator"].update(rel_tol=5e-324, abs_tol=5e-324)
        env = dict(os.environ, PYTHONPATH=str(Path(pdmdyn.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "pdmdyn.cli", "simulate", "--config",
             write_config(tmp_path, cfg_data)],
            capture_output=True, text=True, env=env, timeout=30)
        assert done.returncode == 0
        assert done.stderr == ("note: integration truncated: "
                               "Termination(kind='step_failure', t=0.0, coordinate=None)\n")

    @pytest.mark.parametrize("family,params,x0,err", [
        # m = 1/(1 + x^2) underflows to 0 in m'/(2m)
        ("ml1", {"omega": [1.0], "lambda": 1.0, "sign": "+"}, 1e200,
         "error: float division by zero at the initial state\n"),
        ("powerlaw", {"omega": [1.0], "alpha": 1.0, "upsilon": 2.0}, 1e-90,
         "error: float division by zero at the initial state\n"),
        ("powerlaw", {"omega": [1.0], "alpha": 1.0, "upsilon": 2.0}, 1e80,
         "error: float overflow at the initial state\n"),
        # m = 1/(1 + x^2) underflows to 0 once x^2 overflows
        ("sw1", {"omega": [1.0], "lambda": 1.0, "sign": "+", "kappa": [1.0]}, 1e160,
         "error: float division by zero at the initial state\n"),
    ])
    def test_extreme_catalog_state_exit_2(self, tmp_path, family, params, x0, err):
        cfg_data = dict(ML1_CONFIG, family=family, params=params,
                        initial={"x": [x0], "v": [0.0]})
        assert run(["simulate", "--config", write_config(tmp_path, cfg_data)]) == (2, "", err)

    def test_overflowing_energy_exit_2(self, tmp_path):
        # V = x^2 from x = 1e200 accepts states whose energy overflows
        cfg_data = dict(ML1_CONFIG, family="custom",
                        custom={"mass": ["1"], "potential": ["x^2"]},
                        initial={"x": [1e200], "v": [0.0]},
                        integrator={"scheme": "dop853", "t_end": 1.0})
        out_path = tmp_path / "traj.csv"
        code, out, err = run(["simulate", "--config", write_config(tmp_path, cfg_data),
                              "--out", str(out_path)])
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "energy" in err
        assert not out_path.exists()

    def test_removed_scheme_exit_2(self, tmp_path):
        # no scheme has this name; running DOP853 under it would silently
        # change what the config asked for
        cfg_data = with_value(ML1_CONFIG, ("integrator", "scheme"), "adaptive45")
        assert run(["simulate", "--config", write_config(tmp_path, cfg_data)]) == (
            2, "", "error: integrator.scheme must be dop853 (or adaptive), fixed_rk4 "
                   "(or fixed) or left out, got 'adaptive45'\n")

    def test_catalog_overflow_mid_run_truncates(self, tmp_path):
        # h = 3 overshoots the Morse well until exp(-zeta x) overflows
        cfg_data = dict(ML1_CONFIG, family="morse",
                        params={"omega": [1.0], "zeta": [1.0]},
                        initial={"x": [0.5], "v": [0.0]},
                        integrator={"scheme": "fixed_rk4", "h": 3.0, "t_end": 60.0})
        code, _, err = run(["simulate", "--config", write_config(tmp_path, cfg_data)])
        assert code == 0
        assert err.startswith("note: integration truncated") and "domain_violation" in err

    @pytest.mark.parametrize("key,value", [
        ("t_end", math.nan), ("t_end", math.inf), ("t_end", -5.0),
        ("rel_tol", math.nan), ("abs_tol", math.inf),
    ])
    def test_non_finite_or_backward_integrator_value_exit_2(self, tmp_path, key, value):
        cfg_data = with_value(ML1_CONFIG, ("integrator", key), value)
        code, out, err = run(["simulate", "--config", write_config(tmp_path, cfg_data)])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {key}")

    @pytest.mark.parametrize("steps,key", [
        ({"h_init": -0.5, "h_min": -1, "h_max": 1}, "h_init"),
        ({"h_init": 0, "h_min": 0, "h_max": 0}, "h_init"),
        ({"h_min": 0}, "h_min"),
    ])
    def test_non_positive_step_size_exit_2(self, tmp_path, steps, key):
        # these once stepped backwards or stood still until MAX_STEPS
        cfg_data = dict(ML1_CONFIG, integrator=dict(ML1_CONFIG["integrator"], **steps))
        code, out, err = run(["simulate", "--config", write_config(tmp_path, cfg_data)])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {key}: must be positive") and err.count("\n") == 1

    @pytest.mark.parametrize("family,params,field", [
        ("ml1", {"omega": [1.0], "lambda": math.nan, "sign": "+"}, "lam"),
        ("ml1", {"omega": [math.inf], "lambda": 1.0, "sign": "+"}, "omega"),
        ("powerlaw", {"omega": [1.0], "alpha": 1.0, "upsilon": math.nan}, "upsilon"),
    ])
    def test_non_finite_family_parameter_exit_2(self, tmp_path, family, params, field):
        cfg_data = dict(ML1_CONFIG, family=family, params=params,
                        initial={"x": [0.5], "v": [0.0]})
        code, out, err = run(["simulate", "--config", write_config(tmp_path, cfg_data)])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {field}: must be finite")

    @pytest.mark.parametrize("key,value,field", [
        ("lambda", "strong", "lam"), ("omega", ["fast"], "omega"), ("omega", [None], "omega"),
    ])
    def test_non_numeric_family_parameter_exit_2(self, tmp_path, key, value, field):
        cfg_data = with_value(ML1_CONFIG, ("params", key), value)
        code, out, err = run(["simulate", "--config", write_config(tmp_path, cfg_data)])
        assert (code, out) == (2, "")
        assert err == f"error: {field}: must be a number, got {value!r}\n"

    @pytest.mark.parametrize("command", ["simulate", "map"])
    @pytest.mark.parametrize("family,params,initial", [
        ("morse", {"omega": [1.0], "zeta": [1.0]}, {"x": [math.nan], "v": [0.0]}),
        ("ml1", {"omega": [1.0], "lambda": 1.0, "sign": "+"}, {"x": [0.5], "v": [math.inf]}),
    ])
    def test_non_finite_initial_state_exit_2(self, tmp_path, command, family, params, initial):
        cfg_data = dict(ML1_CONFIG, family=family, params=params, initial=initial)
        code, out, err = run([command, "--config", write_config(tmp_path, cfg_data)])
        assert (code, out) == (2, "")
        assert err.startswith("error: initial: state must be finite")

    def test_non_finite_fixed_step_exit_2(self, tmp_path):
        cfg_data = dict(ML1_CONFIG, integrator={"scheme": "fixed_rk4", "t_end": 1.0,
                                                "h": math.nan})
        code, out, err = run(["simulate", "--config", write_config(tmp_path, cfg_data)])
        assert (code, out) == (2, "")
        assert err.startswith("error: h: must be finite")

    @pytest.mark.parametrize("path,value", [
        (("n",), 1.7), (("n",), math.inf), (("output", "stride"), 100.9),
    ])
    def test_non_integral_count_exit_2(self, tmp_path, path, value):
        cfg_data = with_value(ML1_CONFIG, path, value)
        code, out, err = run(["simulate", "--config", write_config(tmp_path, cfg_data)])
        assert (code, out) == (2, "")
        assert err == f"error: {'.'.join(path)} must be an integer, got {value!r}\n"

    def test_integral_float_count_accepted(self, tmp_path):
        a = run(["simulate", "--config", write_config(tmp_path, ML1_CONFIG, "a.json")])
        cfg_data = with_value(with_value(ML1_CONFIG, ("n",), 1.0), ("output", "stride"), 1.0)
        assert run(["simulate", "--config", write_config(tmp_path, cfg_data, "b.json")]) == a

    def test_non_numeric_fixed_step_exit_2(self, tmp_path):
        cfg_data = dict(ML1_CONFIG, integrator={"scheme": "fixed_rk4", "t_end": 1.0,
                                                "h": "small"})
        code, _, err = run(["simulate", "--config", write_config(tmp_path, cfg_data)])
        assert code == 2
        assert err.startswith("error:") and "integrator.h" in err


class TestExact:
    def test_tabulates_closed_form(self, tmp_path):
        cfg_data = {
            "family": "morse", "n": 1,
            "params": {"omega": [1.0], "zeta": [1.0]},
            "solution": {"amplitude": [0.5]},
            "grid": {"periods": 1.0, "samples": 11},
            "output": {"format": "csv"},
        }
        cfg = write_config(tmp_path, cfg_data)
        out_path = tmp_path / "exact.csv"
        code, _, err = run(["exact", "--config", cfg, "--out", str(out_path)])
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert len(lines) == 12
        first = lines[1].split(",")
        assert float(first[1]) == pytest.approx(math.log(1.5))
        assert "0.125" in err  # closed-form energy echoed on the diagnostic stream


    @pytest.mark.parametrize("key,value", [
        ("t0", "zero"), ("t1", "later"), ("periods", "two"), ("samples", "many"),
    ])
    def test_non_numeric_grid_value_exit_2(self, tmp_path, key, value):
        cfg_data = {
            "family": "morse", "n": 1,
            "params": {"omega": [1.0], "zeta": [1.0]},
            "solution": {"amplitude": [0.5]},
            "grid": {"t1": 1.0, key: value},
        }
        code, _, err = run(["exact", "--config", write_config(tmp_path, cfg_data)])
        assert code == 2
        assert err.startswith("error:") and f"grid.{key}" in err


    @pytest.mark.parametrize("value,err", [
        (-1, "error: samples: need at least 1, got -1\n"),
        (0, "error: samples: need at least 1, got 0\n"),
        (2.5, "error: grid.samples must be an integer, got 2.5\n"),
    ])
    def test_bad_sample_count_exit_2(self, tmp_path, value, err):
        cfg_data = {
            "family": "morse", "n": 1,
            "params": {"omega": [1.0], "zeta": [1.0]},
            "solution": {"amplitude": [0.5]},
            "grid": {"t1": 1.0, "samples": value},
        }
        assert run(["exact", "--config", write_config(tmp_path, cfg_data)]) == (2, "", err)

    @pytest.mark.parametrize("grid,err", [
        ({"periods": -1, "samples": 3},
         "error: t1: -6.283185307179586 is before the grid start t0=0.0\n"),
        ({"t0": 1, "t1": 0, "samples": 3}, "error: t1: 0.0 is before the grid start t0=1.0\n"),
    ])
    def test_backward_grid_exit_2(self, tmp_path, grid, err):
        # simulate rejects a t_end before the start time; exact did not
        cfg_data = {
            "family": "morse", "n": 1,
            "params": {"omega": [1.0], "zeta": [1.0]},
            "solution": {"amplitude": [0.5]},
            "grid": grid,
        }
        assert run(["exact", "--config", write_config(tmp_path, cfg_data)]) == (2, "", err)

    def test_overflowing_frequency_exit_2(self, tmp_path):
        # 1 + lam A^2 overflows; the error line is all that reaches stderr
        cfg_data = {
            "family": "ml1", "n": 1,
            "params": {"omega": [1.0], "lambda": 0.5, "sign": "+"},
            "solution": {"amplitude": [1e300]},
            "grid": {"periods": 1},
        }
        assert run(["exact", "--config", write_config(tmp_path, cfg_data)]) == (
            2, "", "error: no finite positive frequency at amplitude (1e+300,): [0.0]\n")


class TestMap:
    def test_truncated_run_writes_the_note(self, tmp_path):
        # from rest at x = 1 the power-law orbit reaches the origin at t = pi/4
        cfg = write_config(tmp_path, {
            "family": "powerlaw", "n": 1,
            "params": {"omega": [1.0], "alpha": 1.0, "upsilon": 1.0},
            "initial": {"x": [1.0], "v": [0.0]},
            "integrator": {"t_end": 5},
        })
        code, _, err = run(["simulate", "--config", cfg])
        assert code == 0
        assert err.startswith("note: integration truncated: Termination(kind='step_failure'")
        assert run(["map", "--config", cfg])[::2] == (0, err)

    def test_emits_reference_columns(self, tmp_path):
        cfg_data = dict(ML1_CONFIG)
        cfg_data["integrator"] = dict(cfg_data["integrator"], t_end=2.0)
        cfg = write_config(tmp_path, cfg_data)
        out_path = tmp_path / "map.csv"
        code, _, _ = run(["map", "--config", cfg, "--out", str(out_path)])
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "t,x_1,v_1,E,tau_1,q_1,qt_1"
        first = lines[1].split(",")
        assert float(first[4]) == 0.0                      # tau starts at zero
        assert float(first[5]) == pytest.approx(1 / math.sqrt(2))  # q(1)


class TestMapMultiCoordinate:
    def test_two_coordinate_column_contract(self, tmp_path):
        cfg_data = {
            "family": "ml1", "n": 2,
            "params": {"omega": [1.0, 2.0], "lambda": 1.0, "sign": "+"},
            "initial": {"from_exact": {"amplitude": [1.0, 0.5]}},
            "integrator": {"scheme": "dop853", "rel_tol": 1e-10,
                           "t_end": 3.0},
        }
        cfg = write_config(tmp_path, cfg_data)
        out_path = tmp_path / "map2.csv"
        code, _, _ = run(["map", "--config", cfg, "--out", str(out_path)])
        assert code == 0
        header = out_path.read_text().splitlines()[0]
        assert header == ("t,x_1,x_2,v_1,v_2,E,"
                          "tau_1,tau_2,q_1,q_2,qt_1,qt_2")


class TestExactVariant:
    def test_rescaled_isotonic_power_law(self, tmp_path):
        cfg_data = {
            "family": "sw2", "n": 1,
            "params": {"omega": [1.0], "kappa": [1.0], "beta": 1.0,
                       "eta_exp": 2.0},
            "solution": {"amplitude": [1.1], "variant": "amended"},
            "grid": {"periods": 2.0, "samples": 41},
            "output": {"format": "csv"},
        }
        cfg = write_config(tmp_path, cfg_data)
        out_path = tmp_path / "sw2.csv"
        code, _, _ = run(["exact", "--config", cfg, "--out", str(out_path)])
        assert code == 0
        rows = [line.split(",") for line in
                out_path.read_text().splitlines()[1:]]
        energies = {float(r[-1]) for r in rows}
        assert max(energies) - min(energies) < 1e-12  # constant along the form


class TestMapDecreasingClock:
    def test_negative_rescaling_factor_reported(self, tmp_path):
        # eta = -1 has f = -1: the public map contract requires a strictly
        # increasing rescaled time and must say so instead of crashing
        cfg_data = {
            "family": "sw2", "n": 1,
            "params": {"omega": [1.0], "kappa": [1.0], "beta": 1.0,
                       "eta_exp": -1.0},
            "initial": {"from_exact": {"amplitude": [1.2]}},
            "integrator": {"scheme": "dop853", "t_end": 5.0},
        }
        cfg = write_config(tmp_path, cfg_data)
        code, _, err = run(["map", "--config", cfg,
                            "--out", str(tmp_path / "m.csv")])
        assert code == 2
        assert "tau" in err and "increasing" in err


class TestNoninvariance:
    def test_demonstration_succeeds(self, tmp_path):
        report = tmp_path / "demo.json"
        code, out, _ = run(["noninvariance", "--report", str(report),
                            "--rel-tol", "1e-8"])
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["demonstrated"] is True
        assert float(payload["n2_max_mapped_residual"]) > 1e-2
        assert float(payload["n1_max_mapped_residual"]) < 1e-8

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    def test_non_positive_or_non_finite_rel_tol_exit_2(self, value):
        # 0 must not fall back to the default tolerance
        assert run(["noninvariance", "--rel-tol", value]) == (
            2, "", f"error: rel_tol: must be finite and positive, got {float(value)!r}\n")


class TestVerify:
    def test_small_selection_passes(self, tmp_path):
        report = tmp_path / "report.json"
        code, out, _ = run(["verify", "--checks",
                            "substitution-identity,parser-total",
                            "--report", str(report)])
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["summary"]["failed"] == 0
        assert len(payload["checks"]) == 2
        assert "PASS" in out

    def test_demonstration_reported_as_xfail(self):
        code, out, _ = run(["verify", "--checks", "exact-residual:sw2-published-eta2"])
        assert code == 0
        assert "XFAIL-OK" in out

    def test_unknown_check_exit_2(self):
        code, _, err = run(["verify", "--checks", "no-such-check"])
        assert code == 2
        assert "no-such-check" in err

    def test_loosened_tolerance_fails(self):
        code, out, _ = run(["verify", "--checks", "energy-drift:ml1+",
                            "--rel-tol", "1e-4"])
        assert code == 1
        assert "FAIL" in out

    @pytest.mark.parametrize("check", ["energy-drift:ml1+", "g-identity:ml1+"])
    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    def test_non_positive_or_non_finite_rel_tol_exit_2(self, check, value):
        # whether or not the check integrates: 0 must not fall back to the
        # default tolerance, and a check without integration must not ignore it
        assert run(["verify", "--checks", check, "--rel-tol", value]) == (
            2, "", f"error: rel_tol: must be finite and positive, got {float(value)!r}\n")

    def test_negative_seed_exit_2(self):
        # numpy's seeding rejects it with a ValueError, which is no usage error
        assert run(["verify", "--checks", "g-identity:ml1+", "--seed", "-1"]) == (
            2, "", "error: seed: must be a non-negative integer, got -1\n")

    @pytest.mark.parametrize("checks", [",", ",,", ""])
    def test_selection_of_no_check_exit_2(self, checks):
        # an empty selection must not pass on 0 checks or run the whole suite
        assert run(["verify", "--checks", checks]) == (
            2, "", f"error: --checks {checks!r} names no check\n")

    @pytest.mark.parametrize("suite", ["", "e"])
    def test_unknown_suite_exit_2(self, suite, capsys):
        # a suite name, not a prefix of check names
        assert run(["verify", "--suite", suite])[:2] == (2, "")
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("suite", ["default", "all"])
    def test_named_suite_runs_every_check(self, suite, monkeypatch):
        selections = []

        def run_suite(selection, seed, rel_tol):
            selections.append(selection)
            return [], SuiteSummary(0, 0, 0)
        monkeypatch.setattr("pdmdyn.cli.run_suite", run_suite)
        assert run(["verify", "--suite", suite]) == (
            0, "summary: 0 passed, 0 expected-fail, 0 failed\n", "")
        assert selections == [None]

    def test_list_names(self):
        code, out, _ = run(["verify", "--list"])
        assert code == 0
        assert "rk4-order" in out


class TestMisprints:
    def test_plain_listing(self):
        code, out, _ = run(["misprints"])
        assert code == 0
        assert "ml1-frequency" in out
        assert "validated:" in out
        assert "(30)" in out

    def test_json_listing(self):
        code, out, _ = run(["misprints", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 6
        assert {m["id"] for m in payload} >= {"ml1-frequency",
                                              "sw2-kappa-normalization"}


class TestUsage:
    def test_no_command_exit_2(self):
        code, _, _ = run([])
        assert code == 2

    def test_unknown_command_exit_2(self):
        code, _, _ = run(["frobnicate"])
        assert code == 2
