import json
import subprocess
import sys

import pytest

import sosreg.cover as cover
from sosreg.cli import COMMANDS, OUTPUTS, build_parser, main


def run_cli(args):
    return main(args)


class TestThreshold:
    def test_prints_threshold(self, capsys):
        code = run_cli(["counterex", "threshold", "--gamma-alpha", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "s0 = 0.68629" in out

    def test_verify_flip(self, capsys, tmp_path):
        report = tmp_path / "flip.json"
        code = run_cli(["counterex", "threshold", "--gamma-alpha", "1", "--verify-flip",
                        "--report", str(report)])
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["report"]["flip"]["flips"] is True

    def test_no_threshold_in_the_unit_interval(self, capsys, tmp_path):
        # gamma_alpha(2) < 1 puts s0 = 1.52786 outside (0, 1): nothing to flip
        report = tmp_path / "flip.json"
        code = run_cli(["counterex", "threshold", "--gamma-alpha", "2", "--verify-flip", "--report", str(report)])
        captured = capsys.readouterr()
        assert code == 2 and captured.err == ""
        assert captured.out.splitlines() == ["s0 = 1.52786", "no threshold lies in (0, 1)"]
        payload = json.loads(report.read_text())["report"]
        assert payload["op"] == "holder_monotone_threshold"
        assert payload["in_unit_interval"] is False and payload["passed"] is False
        assert payload["flip"]["flips"] is False


class TestDecompose:
    def test_parabola_passes(self, tmp_path):
        report = tmp_path / "dec.json"
        code = run_cli([
            "decompose", "--function", "x^2", "--dim", "1", "--delta", "0.25",
            "--no-holder", "--report", str(report),
        ])
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["report"]["residual_sup"] <= 1e-8
        assert payload["config"]["delta"] == 0.25

    def test_region_inside_one_cell(self, tmp_path):
        # rho is about 100 everywhere, so one cell of radius 0.5 covers B(0, 0.001)
        report = tmp_path / "dec.json"
        code = run_cli(["decompose", "--function", "1e9 + x^2 + y^2", "--region-radius", "0.001",
                        "--no-holder", "--report", str(report)])
        assert code == 0
        payload = json.loads(report.read_text())["report"]
        assert payload["cell_count"] >= 1 and payload["passed"]

    def test_verify_shares_decompose_flags(self):
        flags = ["--function", "x^2", "--param", "a=1", "--region-radius", "0.1", "--region-center", "0,0",
                 "--dim", "2", "--delta", "0.2", "--eta", "0.3", "--s", "0.004", "--floor", "0.002",
                 "--tol", "1e-7", "--verify-points", "300", "--max-cells", "1000", "--strict",
                 "--no-normalize", "--no-holder", "--cells", "c.jsonl", "--report", "r.json",
                 "--csv", "o.csv", "--config", "k.cfg"]
        parser = build_parser()
        dec = vars(parser.parse_args(["decompose"] + flags))
        ver = vars(parser.parse_args(["verify"] + flags + ["--grid-points", "500"]))
        assert dec.pop("command") == "decompose" and ver.pop("command") == "verify"
        assert ver.pop("grid_points") == 500
        assert dec == ver
        assert dec["verify_points"] == 300 and dec["max_cells"] == 1000 and dec["strict"] and dec["no_holder"]

    def test_wrong_dim_is_config_error(self, capsys):
        code = run_cli(["decompose", "--function", "x^2 + y^2", "--dim", "1"])
        assert code == 1

    def test_syntax_error_is_reported_without_traceback(self):
        proc = subprocess.run([sys.executable, "-m", "sosreg.cli", "decompose", "--function", "x +* y"],
                              capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stderr == "error: unexpected token '*' (line 1, column 4)\n"

    def test_overflowing_constant_reaches_the_checks(self, capsys):
        # 1e200^2 overflows when folded; it stays a power and evaluates to inf
        code = run_cli(["decompose", "--function", "1e200^2*x^2", "--region-radius", "0.5"])
        assert code == 1
        assert capsys.readouterr().err == "error: Hessian evaluated non-finite at (-0.5,)\n"

    def test_pair_budget_is_a_runtime_error(self, monkeypatch, capsys):
        monkeypatch.setattr(cover, "MAX_PAIRS", 100)
        code = run_cli(["decompose", "--function", "x^2 + y^2", "--region-radius", "0.05", "--no-holder"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bucket index would list") and "candidate pairs" in err

    def test_cells_csv(self, tmp_path):
        csv_path = tmp_path / "cells.csv"
        code = run_cli([
            "decompose", "--function", "x^2", "--delta", "0.25", "--no-holder",
            "--csv", str(csv_path), "--report", str(tmp_path / "r.json"),
        ])
        assert code == 0
        header = csv_path.read_text().splitlines()[0]
        assert header.split(",")[:2] == ["nu", "c0"]


class TestDeterminism:
    def test_reports_identical_for_same_seed(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["monotone", "--function", "flat_exp", "--s", "0.5", "--samples", "50",
                "--t-min", "0.05", "--region-center", "0.5", "--region-radius", "0.45"]
        assert run_cli(args + ["--report", str(a)]) == 0
        assert run_cli(args + ["--report", str(b)]) == 0
        assert a.read_text() == b.read_text()


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("s = 0.5\nsamples = 40\nt-min = 0.05\nregion-radius = 0.45\nregion-center = 0.5\n")
        r1 = tmp_path / "r1.json"
        assert run_cli(["monotone", "--function", "flat_exp", "--config", str(cfg),
                        "--report", str(r1)]) == 0
        p1 = json.loads(r1.read_text())
        assert p1["config"]["s"] == 0.5
        r2 = tmp_path / "r2.json"
        assert run_cli(["monotone", "--function", "flat_exp", "--config", str(cfg),
                        "--s", "0.7", "--report", str(r2)]) == 0
        p2 = json.loads(r2.read_text())
        assert p2["config"]["s"] == 0.7

    def test_malformed_config(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("not a pair\n")
        assert run_cli(["monotone", "--function", "flat_exp", "--config", str(cfg)]) == 1

    def test_config_sets_switches(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("no-holder = true\nno_normalize = on\nverify-points = 300\n")
        report = tmp_path / "r.json"
        argv = ["decompose", "--function", "x^2", "--region-radius", "0.5", "--config", str(cfg),
                "--report", str(report)]
        assert run_cli(argv) == 0
        payload = json.loads(report.read_text())
        assert payload["config"]["no_holder"] and payload["config"]["no_normalize"]
        assert payload["config"]["normalize"] is False and payload["report"]["holder"] == {}
        # x^2 breaks the Hessian inequality, which strict mode turns into an error
        cfg.write_text("strict = yes\n")
        assert run_cli(argv) == 1
        assert "strict mode is on" in capsys.readouterr().err

    @pytest.mark.parametrize("text,named", [("delt = 0.3\n", "delt"), ("seed = 3\n", "seed"),
                                            ("strict = maybe\n", "strict")])
    def test_unknown_or_unreadable_key_is_config_error(self, tmp_path, capsys, text, named):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        report = tmp_path / "r.json"
        assert run_cli(["decompose", "--function", "x^2", "--config", str(cfg), "--report", str(report)]) == 1
        assert named in capsys.readouterr().err
        assert not report.exists()


# a non-default value for every flag of COMMANDS but the output paths
NON_DEFAULT = {
    "function": "1 + x^2 + y^2", "param": "a=1", "region-radius": "0.1", "region-center": "0.05,0",
    "dim": "2", "delta": "0.2", "eta": "0.25", "s": "0.004", "floor": "0.002", "tol": "1e-5",
    "verify-points": "200", "max-cells": "5000", "strict": True, "no-normalize": True, "no-holder": True,
    "grid-points": "200", "samples": "60", "inner-samples": "16", "t-min": "0.01", "gamma": "0.25",
    "order": "3", "gamma-alpha": "0.8", "verify-flip": True, "s-range": "0.5:0.6:0.1", "beta": "0.7",
    "rho": "0.4", "s-prime": "0.4", "nu": "2", "c0": "2.5", "sphere-samples": "200", "restarts": "2",
    "seed": "1", "m": "2", "k": "3",
}


@pytest.mark.parametrize("key", list(COMMANDS))
def test_every_flag_is_resolved_and_echoed(key, tmp_path):
    """Each flag set on the command line and in a config file gives one `config` echo holding it."""
    flags = [flag for flag in COMMANDS[key].flags if flag[0] not in OUTPUTS]
    argv, lines = key.split(), []
    for name, _, _, _ in flags:
        value = NON_DEFAULT[name]
        argv += [f"--{name}"] if value is True else [f"--{name}", value]
        lines.append(f"{name} = {'yes' if value is True else value}")
    by_flags, by_config = tmp_path / "flags.json", tmp_path / "config.json"
    (tmp_path / "run.cfg").write_text("\n".join(lines) + "\n")
    code = run_cli(argv + ["--report", str(by_flags)])
    required = ["--function", NON_DEFAULT["function"]] if any(f[0] == "function" for f in flags) else []
    assert run_cli(key.split() + required + ["--config", str(tmp_path / "run.cfg"),
                                             "--report", str(by_config)]) == code
    config = json.loads(by_flags.read_text())["config"]
    assert json.loads(by_config.read_text())["config"] == config
    for name, _, default, _ in flags:
        assert config[name.replace("-", "_")] not in (default, None), name


class TestUsage:
    @pytest.mark.parametrize("argv", [["decompose"], ["decompose", "--function", "x^2", "--bogus", "0.3"],
                                      ["monotone", "--function", "x^2", "--seed", "3"], ["counterex"]])
    def test_usage_error_exits_1(self, argv, capsys):
        assert run_cli(argv) == 1
        assert capsys.readouterr().err.startswith("error: sosreg")

    @pytest.mark.parametrize("argv", [["check", "odd-even", "--function", "x^2", "--samples", "0"],
                                      ["check", "slow-vary", "--function", "x^2", "--samples", "0"],
                                      ["check", "diff-ineq", "--function", "x^2+y^2", "--samples", "0"],
                                      ["roots", "--function", "x^4+1", "--samples", "0"],
                                      ["decompose", "--function", "x^2", "--verify-points", "0"],
                                      ["monotone", "--function", "flat_exp", "--inner-samples", "0"],
                                      ["counterex", "delta-nu", "--restarts", "0"],
                                      ["counterex", "delta-nu", "--sphere-samples", "0"]])
    def test_a_zero_count_is_a_usage_error(self, argv, tmp_path, capsys):
        flag, report = argv[-2], tmp_path / "r.json"
        assert run_cli(argv + ["--report", str(report)]) == 1
        assert f"argument {flag}: must be at least 1, got 0" in capsys.readouterr().err
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{flag[2:]} = 0\n")
        assert run_cli(argv[:-2] + ["--config", str(cfg), "--report", str(report)]) == 1
        assert f"config key '{flag[2:]}': must be at least 1, got 0" in capsys.readouterr().err
        assert not report.exists()

    def test_help_states_the_verify_points_floor(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["decompose", "--help"])
        assert "at least 512 are sampled" in " ".join(capsys.readouterr().out.split())

    @pytest.mark.parametrize("argv", [["check", "slow-vary", "--function", "x^2", "--samp", "50"],
                                      ["decompose", "--function", "x^2", "--delt", "0.3"],
                                      ["counterex", "threshold", "--gamma", "2"]])
    def test_a_flag_prefix_is_a_usage_error(self, argv, capsys):
        # the config file reads exact names only, and so does the command line
        assert run_cli(argv) == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_function_file_uses_its_first_definition(self, tmp_path):
        path = tmp_path / "defs.txt"
        path.write_text("# two definitions\ndef a(x, y) = x^2 + y^4\ndef b(x, y) = x^4\n")
        reports = []
        for source in (str(path), "x^2 + y^4"):
            assert run_cli(["check", "interp", "--function", source, "--samples", "50",
                            "--report", str(tmp_path / "r.json")]) == 0
            reports.append(json.loads((tmp_path / "r.json").read_text())["report"])
        assert reports[0] == reports[1]


class TestScan:
    def test_scan_csv_columns(self, tmp_path):
        csv_path = tmp_path / "scan.csv"
        code = run_cli([
            "counterex", "scan", "--s-range", "0.5:0.8:0.15", "--beta", "0.75",
            "--rho", "0.5", "--csv", str(csv_path), "--report", str(tmp_path / "scan.json"),
        ])
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "s,beta,rho,S,T,verdictSOS,verdictMonotone"
        assert len(lines) >= 3

    def test_bad_range(self):
        assert run_cli(["counterex", "scan", "--s-range", "oops"]) == 1


class TestChecks:
    def test_odd_even_passes_for_quartic(self, tmp_path):
        code = run_cli(["check", "odd-even", "--function", "x^4", "--samples", "400",
                        "--report", str(tmp_path / "r.json")])
        assert code == 0

    def test_slow_vary(self, tmp_path):
        code = run_cli(["check", "slow-vary", "--function", "x^4/24", "--delta", "0.25",
                        "--samples", "400", "--report", str(tmp_path / "r.json")])
        assert code == 0

    def test_diff_ineq_failure_is_exit_2(self, tmp_path):
        code = run_cli(["check", "diff-ineq", "--function", "x^2", "--delta", "0.25",
                        "--eta", "0.45", "--report", str(tmp_path / "r.json")])
        assert code == 2

    def test_roots_oracle(self, tmp_path):
        # power_jet against the exact derivatives of Pow(x^4 + 1, 0.5)
        code = run_cli(["roots", "--function", "x^4 + 1", "--gamma", "0.5", "--order", "2",
                        "--region-radius", "0.8", "--report", str(tmp_path / "r.json")])
        assert code == 0
        assert json.loads((tmp_path / "r.json").read_text())["report"]["max_relative_exact_deviation"] <= 1e-10

    def test_roots_oracle_on_a_flat_profile(self, tmp_path):
        code = run_cli(["roots", "--function", "flat_exp", "--gamma", "0.25", "--order", "4",
                        "--report", str(tmp_path / "r.json")])
        assert code == 0


def _report(path):
    payload = json.loads(path.read_text())
    return payload, payload["report"]


class TestReportShapes:
    """The subcommands no other test runs: exit code, `op` and report keys."""

    def test_verify(self, tmp_path):
        code = run_cli(["verify", "--function", "x^2", "--region-radius", "0.5", "--verify-points", "300",
                        "--grid-points", "300", "--report", str(tmp_path / "r.json")])
        assert code == 0
        payload, report = _report(tmp_path / "r.json")
        assert set(payload) == {"command", "config", "exit_status", "report", "verification"}
        assert payload["command"] == "verify" and payload["exit_status"] == 0
        assert report["op"] == "decompose" and report["passed"] is True
        assert set(report) == {
            "op", "deltas", "value_scale", "cell_count", "case_counts", "root_groups", "inequalities",
            "residual_sup", "residual_mean", "residual_points", "identity_error",
            "boundary_excluded_fraction", "boundary_sup_f", "probe_sup_f", "residual_bound", "passed",
            "holder", "recursion_depth", "warnings", "empty", "cells", "case_ii",
        }
        verification = payload["verification"]
        assert verification["op"] == "verify_decomposition" and verification["empty"] is False
        assert set(verification) == {"op", "grid_points", "evaluated_points", "excluded_points", "empty",
                                     "residual_sup", "residual_mean", "residual_bound", "passed", "holder"}
        assert verification["residual_bound"] == report["residual_bound"] and verification["passed"] is True

    def test_counterex_delta_nu(self, tmp_path):
        code = run_cli(["counterex", "delta-nu", "--restarts", "2", "--sphere-samples", "300",
                        "--report", str(tmp_path / "r.json")])
        assert code == 0
        payload, report = _report(tmp_path / "r.json")
        assert payload["command"] == "counterex delta-nu"
        assert report["op"] == "estimate_delta_nu"
        assert set(report) == {"op", "nu", "estimate", "pointwise_inf", "restart_values", "stable",
                               "coefficient_cap", "sphere_samples", "stalled", "passed"}
        assert report["nu"] == 1 and len(report["restart_values"]) == 2 and report["passed"] is True

    def test_check_interp(self, tmp_path):
        code = run_cli(["check", "interp", "--function", "x^2+y^4", "--samples", "100",
                        "--report", str(tmp_path / "r.json")])
        assert code == 0
        payload, report = _report(tmp_path / "r.json")
        assert payload["command"] == "check interp"
        assert report["op"] == "interpolation_bound"
        assert set(report) == {"op", "m", "k", "diameter", "max_grad_m", "taylor_difference_max",
                               "max_grad_k", "constant", "samples", "pairs", "passed"}
        assert (report["m"], report["k"]) == (1, 2) and report["passed"] is True
        assert report["samples"] == payload["config"]["samples"] == 100

    def test_roots(self, tmp_path):
        code = run_cli(["roots", "--function", "x^4 + 1", "--samples", "40", "--report", str(tmp_path / "r.json")])
        assert code == 0
        payload, report = _report(tmp_path / "r.json")
        assert report["op"] == "power_jet_check"
        assert set(report) == {"op", "gamma", "order", "points", "max_abs_derivative",
                               "max_relative_exact_deviation", "tolerance", "passed"}
        assert report["points"] == 40 and report["passed"] is True

    def test_counterex_scan(self, tmp_path):
        code = run_cli(["counterex", "scan", "--s-range", "0.5:0.6:0.1", "--report", str(tmp_path / "r.json")])
        assert code == 0
        payload, report = _report(tmp_path / "r.json")
        assert report["op"] == "monotone_scan"
        assert set(report) == {"op", "header", "rows", "passed"}
        assert len(report["rows"]) == 2 and report["passed"] is True

    def test_monotone_of_a_sign_changing_function_is_an_error(self, tmp_path, capsys):
        code = run_cli(["monotone", "--function", "x", "--samples", "50", "--report", str(tmp_path / "r.json")])
        assert code == 1
        assert "< 0 at the sampled point" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()


class TestCatalog:
    def test_lists_every_entry(self, capsys):
        code = run_cli(["catalog"])
        out = capsys.readouterr().out
        assert code == 0
        for name in ("motzkin_M", "quartic_L", "flat_exp_sq", "family_f"):
            assert name in out


class TestConsoleEntry:
    def test_installed_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "sosreg.cli", "counterex", "threshold"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "0.68629" in proc.stdout
