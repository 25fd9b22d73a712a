"""Command-line interface tests: configs, outputs, exit codes."""

import io
import json
import math

import pytest

from pdmdyn.cli import run_cli

ML1_CONFIG = {
    "family": "ml1",
    "n": 1,
    "params": {"omega": [1.0], "lambda": 1.0, "sign": "+"},
    "initial": {"x": [1.0], "v": [0.0]},
    "integrator": {"scheme": "adaptive45", "rel_tol": 1e-10,
                   "abs_tol": 1e-12, "t_end": 8.885765876316732},
    "output": {"format": "csv", "stride": 1},
}


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run_cli(argv, out_stream=out, err_stream=err)
    return code, out.getvalue(), err.getvalue()


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
            "integrator": {"scheme": "adaptive45", "t_end": 1.0},
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


class TestMap:
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
            "integrator": {"scheme": "adaptive45", "rel_tol": 1e-10,
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
            "integrator": {"scheme": "adaptive45", "t_end": 5.0},
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
