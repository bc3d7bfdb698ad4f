"""End-to-end tests of the ``ltk`` command-line interface.

All invocations go through :func:`ltk.cli.main` in-process, so exit codes,
stdout payloads and written files are asserted exactly as a shell user would
see them: 0 for success, 1 for failed checks or aborted runs, 2 for
configuration errors.
"""

import json

import numpy as np
import pytest

from ltk import cli
from ltk.cli import ConfigError, RunConfig, main, run

GAS_CSV_HEADER = "t,q0,q1,q2,q3,p0,p1,p2,p3,y_p1,y_e1,K_res,alpha_res"


def run_cli(capsys, *argv):
    """Invoke the CLI and return (exit_code, stdout, stderr)."""
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out), err


# -- config assembly -------------------------------------------------------------


def test_runconfig_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config keys"):
        RunConfig.from_mapping({"command": "simulate", "tend": 1.0})


def test_runconfig_validates_numbers_and_monitors():
    with pytest.raises(ConfigError, match="t_end"):
        RunConfig.from_mapping({"t_end": -1.0})
    with pytest.raises(ConfigError, match="numeric"):
        RunConfig.from_mapping({"dt": "soon"})
    with pytest.raises(ConfigError, match="unknown monitors"):
        RunConfig.from_mapping({"monitors": "K_res,bogus"})
    cfg = RunConfig.from_mapping({"monitors": " K_res , E_total ",
                                  "initial": "0,1,3,-1"})
    assert cfg.monitors == ("K_res", "E_total")
    assert cfg.initial == (0.0, 1.0, 3.0, -1.0)


def test_cli_requires_a_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


# -- list -----------------------------------------------------------------------


def test_list_names_every_builtin(capsys):
    code, out, err = run_cli(capsys, "list")
    assert code == 0
    assert out.endswith("\n")
    lines = out.strip().splitlines()
    names = [line.split(":")[0] for line in lines]
    assert names == sorted(["gas_piston_damper", "heat_compartment",
                            "heat_exchanger", "ideal_gas_SVN"])
    assert "4 coordinates, 1 port(s)" in lines[0]      # gas_piston_damper
    assert "params: mass, damping" in lines[0]


# -- simulate ---------------------------------------------------------------------


def test_simulate_csv_contract(tmp_path, capsys):
    out_path = tmp_path / "run.csv"
    code, _, _ = run_cli(capsys, "simulate", "--system", "gas_piston_damper",
                         "--u", "0.1*sin(t)", "--t-end", "0.2", "--dt", "0.1",
                         "--output", str(out_path))
    assert code == 0
    text = out_path.read_text()
    lines = text.splitlines()
    assert lines[0] == GAS_CSV_HEADER
    assert len(lines) == 1 + 3                     # header + t = 0, 0.1, 0.2
    assert text.endswith("\n") and "\r" not in text
    first = lines[1].split(",")
    assert first[0] == "0.0"
    # values are written with shortest round-trip formatting
    for cell in first:
        assert cell == repr(float(cell))
    # with the piston initially at rest, y_p = pi/mass = 0 at t = 0
    assert float(first[9]) == 0.0


def test_simulate_is_byte_deterministic(tmp_path, capsys):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        code, _, _ = run_cli(capsys, "simulate", "--system",
                             "gas_piston_damper", "--u", "0.1*sin(t)",
                             "--t-end", "0.3", "--dt", "0.05",
                             "--output", str(path))
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_simulate_stdout_initial_override_and_monitors(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--system", "gas_piston_damper",
                           "--initial", "0,1,3,-1", "--t-end", "0.01",
                           "--dt", "0.005", "--monitors", "E_total,S_total")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].endswith("y_p1,y_e1,E_total,S_total")
    first = lines[1].split(",")
    assert float(first[4]) == 3.0                  # q3 = piston momentum
    assert float(first[9]) == 3.0                  # y_p = pi/mass, mass = 1


def test_simulate_rejects_bad_inputs(capsys):
    code, _, err = run_cli(capsys, "simulate", "--system", "gas_piston_damper",
                           "--u", "sin(q0)", "--t-end", "0.1", "--dt", "0.1")
    assert code == 2
    assert "config error" in err and "time variable t" in err
    code, _, err = run_cli(capsys, "simulate", "--system", "ideal_gas_SVN",
                           "--u", "0.1*sin(t)", "--t-end", "0.1", "--dt", "0.1")
    assert code == 2
    assert "no ports" in err
    code, _, err = run_cli(capsys, "simulate", "--system", "gas_piston_damper",
                           "--u", "t; 2*t", "--t-end", "0.1", "--dt", "0.1")
    assert code == 2
    assert "1 port" in err


def test_simulate_aborted_run_exits_one(capsys):
    # started off equilibrium, the exchanger costate eventually drifts off
    # the surface and trips the membership guard; the CLI maps that abort to
    # exit code 1 (at the default parameters the temperatures already agree,
    # the state is stationary and nothing drifts)
    code, _, err = run_cli(capsys, "simulate", "--system", "heat_exchanger",
                           "--initial", "0.6931471805599453,0,-1,-1",
                           "--t-end", "40", "--dt", "0.01")
    assert code == 1
    assert "RuntimeError" in err and "left the state surface" in err


# -- validate -----------------------------------------------------------------------


def test_validate_builtin_report(capsys):
    code, report, _ = run_json(capsys, "validate", "--system",
                               "heat_compartment", "--samples", "10")
    assert code == 0
    assert set(report) == {"degree", "on_surface", "first_law",
                           "second_law", "chart_form"}
    for check in report.values():
        assert set(check) == {"max_residual", "tolerance", "pass"}
        assert check["pass"] is True
        assert check["max_residual"] <= check["tolerance"]


def test_validate_flags_a_bad_custom_system(tmp_path, capsys):
    # an entropy sink: the drift pushes S down, so the second law fails
    config = {
        "system": {"custom": {
            "name": "entropy_sink",
            "dimensions": 2,
            "gf": {"expr": "exp(q1)"},
            "partition": {"energy": [0], "entropy": [1]},
            "Ka": "0 - p1",
            "initial": [0.0, -1.0],
            "param_box": [[-0.5, 0.5], [-1.5, -0.5]],
        }},
    }
    path = tmp_path / "sink.json"
    path.write_text(json.dumps(config))
    code, report, _ = run_json(capsys, "validate", "--config", str(path),
                               "--samples", "8")
    assert code == 1
    assert report["second_law"]["pass"] is False
    assert report["degree"]["pass"] is True


def test_validate_custom_system_end_to_end(tmp_path, capsys):
    # a one-port compartment written out as expressions; equivalent to
    # heat_compartment with C = T_ref = 1
    config = {
        "command": "validate",
        "system": {"custom": {
            "name": "expr_compartment",
            "dimensions": 2,
            "gf": {"expr": "exp(q1)"},
            "partition": {"energy": [0], "entropy": [1]},
            "Ka": "0",
            "Kc": ["p1 / exp(q1) + p0"],
            "initial": [0.0, -1.0],
            "param_box": [[-0.5, 1.0], [-1.5, -0.5]],
        }},
        "samples": 10,
    }
    path = tmp_path / "compartment.json"
    path.write_text(json.dumps(config))
    assert run(str(path)) == 0
    report = json.loads(capsys.readouterr().out)
    assert all(check["pass"] for check in report.values())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_validate_fails_a_drift_that_is_nan_everywhere(tmp_path, capsys):
    # inf - inf at every point: a nan residual must fail, not pass as 0.0
    config = {"system": {"custom": {
        "name": "nan_drift",
        "dimensions": 2,
        "gf": {"expr": "exp(q1)"},
        "partition": {"energy": [0], "entropy": [1]},
        "Ka": "p1*1e300*1e300 - p1*1e300*1e300",
        "initial": [0.0, -1.0],
        "param_box": [[-0.5, 0.5], [-1.5, -0.5]],
    }}}
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "validate", "--config", str(path),
                             "--samples", "8")
    assert code == 1
    assert out == ""
    assert "could only evaluate K at 0/30" in err


def test_validate_unknown_system(capsys):
    code, _, err = run_cli(capsys, "validate", "--system", "warp_core")
    assert code == 2
    assert "cannot construct system" in err


# -- bracket -----------------------------------------------------------------------


def test_bracket_expression_operands(capsys):
    code, report, _ = run_json(capsys, "bracket", "--k1", "q1*p0",
                               "--k2", "q0*p1", "--dimensions", "2")
    assert code == 0
    assert set(report) == {"operand_degrees", "bracket_degree-1",
                           "antisymmetry"}
    assert all(check["pass"] for check in report.values())
    assert report["antisymmetry"]["pass"] is True


def test_bracket_antisymmetry_fails_on_a_wrong_bracket(capsys, monkeypatch):
    # a bracket of the wrong sign disagrees with the derivative of k1 along
    # the canonical field of k2
    true_poisson = cli._poisson_rows
    monkeypatch.setattr(cli, "_poisson_rows",
                        lambda K1, K2, X: -true_poisson(K1, K2, X))
    code, report, _ = run_json(capsys, "bracket", "--k1", "q1*p0",
                               "--k2", "q0*p1", "--dimensions", "2")
    assert code == 1
    assert report["antisymmetry"]["pass"] is False
    assert report["bracket_degree-1"]["pass"] is True


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_bracket_fails_an_operand_that_is_not_finite(capsys):
    code, out, err = run_cli(capsys, "bracket", "--k1", "q0*p0*1e300*1e300",
                             "--k2", "q0*p0", "--dimensions", "1")
    assert code == 1
    assert out == ""
    assert "no sample point was evaluable" in err


def test_bracket_misdeclared_degree_fails(capsys):
    code, report, _ = run_json(capsys, "bracket", "--k1", "p0^2",
                               "--k2", "q0*p1", "--dimensions", "2")
    assert code == 1
    assert report["operand_degrees"]["pass"] is False


def test_bracket_from_system_generators(capsys):
    code, report, _ = run_json(capsys, "bracket", "--system",
                               "gas_piston_damper")
    assert code == 0
    assert report["bracket_degree-1"]["pass"] is True


def test_bracket_needs_operands(capsys):
    code, _, err = run_cli(capsys, "bracket", "--k1", "q1*p0",
                           "--dimensions", "2")
    assert code == 2 and "both k1 and k2" in err
    code, _, err = run_cli(capsys, "bracket")
    assert code == 2 and "k1/k2 expressions or a system" in err
    code, _, err = run_cli(capsys, "bracket", "--system", "ideal_gas_SVN")
    assert code == 2 and "at least one port" in err


# -- reduce -------------------------------------------------------------------------


def test_reduce_homogeneous_system(capsys):
    code, report, _ = run_json(capsys, "reduce", "--system", "ideal_gas_SVN",
                               "--at", "1,1,1", "--samples", "20")
    assert code == 0
    assert report["extensive_euler"]["pass"] is True
    assert report["gibbs_duhem"]["pass"] is True
    assert report["scaling_tangency"]["pass"] is True
    assert report["reduced_point"]["at"] == [1.0, 1.0, 1.0]
    point = report["reduced_point"]["point"]
    assert len(point) == 6
    # at unit entropy/volume/moles the reduced state is (e, 1, 1, T, -P, mu)
    e = point[0]
    assert point[1:3] == [1.0, 1.0]
    assert point[3] == pytest.approx(2.0 * e / 3.0)        # T = e/c_v
    assert point[4] == pytest.approx(-2.0 * e / 3.0)       # -P = -RT/v


def test_reduce_rejects_inhomogeneous_and_bad_points(capsys):
    code, _, err = run_cli(capsys, "reduce", "--system", "gas_piston_damper")
    assert code == 2
    assert "no reduced form" in err
    code, _, err = run_cli(capsys, "reduce", "--system", "ideal_gas_SVN",
                           "--at", "0,1,1")
    assert code == 2
    assert "cannot reduce at" in err


# -- flowcheck ----------------------------------------------------------------------


def test_flowcheck_piston_drift_preserves_the_surface(capsys):
    code, report, _ = run_json(capsys, "flowcheck", "--system",
                               "gas_piston_damper", "--t-end", "0.5",
                               "--dt", "0.01", "--samples", "5")
    assert code == 0
    assert set(report) == {"alpha_on_tangents", "membership_drift"}
    assert all(check["pass"] for check in report.values())


# -- config files and parameter overrides ----------------------------------------------


def test_config_file_with_flag_override(tmp_path, capsys):
    config = {"system": "gas_piston_damper", "t_end": 0.2, "dt": 0.1}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    code, out, _ = run_cli(capsys, "simulate", "--config", str(path))
    assert code == 0
    assert len(out.splitlines()) == 1 + 3          # t = 0, 0.1, 0.2
    code, out, _ = run_cli(capsys, "simulate", "--config", str(path),
                           "--t-end", "0.4")
    assert code == 0
    assert len(out.splitlines()) == 1 + 5          # the flag wins


def test_param_override_with_aliases(capsys):
    # heat_compartment with doubled capacity realizes E = C at S = 0
    code, out, _ = run_cli(capsys, "simulate", "--system", "heat_compartment",
                           "--param", "C=2.0", "--t-end", "0.1", "--dt", "0.1")
    assert code == 0
    assert float(out.splitlines()[1].split(",")[1]) == pytest.approx(2.0)
    code, report, _ = run_json(capsys, "validate", "--system",
                               "heat_exchanger", "--param", "lambda=2.0",
                               "--samples", "5")
    assert code == 0


def test_param_merges_into_config_named_system(tmp_path, capsys):
    config = {"system": {"name": "heat_compartment", "params": {"C": 3.0}},
              "t_end": 0.1, "dt": 0.1}
    path = tmp_path / "hc.json"
    path.write_text(json.dumps(config))
    code, out, _ = run_cli(capsys, "simulate", "--config", str(path),
                           "--param", "T_ref=2.0")
    assert code == 0
    # both the config param (C=3) and the flag param (T_ref=2) apply: E = 6
    assert float(out.splitlines()[1].split(",")[1]) == pytest.approx(6.0)


def test_bare_param_without_named_system(capsys):
    code, _, err = run_cli(capsys, "simulate", "--param", "C=2.0",
                           "--t-end", "0.1", "--dt", "0.1")
    assert code == 2
    assert "named built-in system" in err


def test_config_error_paths(tmp_path, capsys):
    code, _, err = run_cli(capsys, "validate", "--config",
                           str(tmp_path / "missing.json"))
    assert code == 2 and "cannot read config file" in err

    bad = tmp_path / "bad.json"
    bad.write_text('{"system": "gas_piston_damper",\n  "t_end": }')
    code, _, err = run_cli(capsys, "validate", "--config", str(bad))
    assert code == 2 and "not valid JSON" in err and "line 2" in err

    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"system": "heat_compartment", "tend": 1}))
    code, _, err = run_cli(capsys, "validate", "--config", str(unknown))
    assert code == 2 and "unknown config keys" in err


@pytest.mark.parametrize("config, message", [
    ({"system": "gas_piston_damper",
      "input": {"kind": "constant", "values": "abc"}},
     "constant input values must be numbers"),
    ({"system": "gas_piston_damper",
      "input": {"kind": "sinusoid", "amplitude": "x"}},
     "sinusoid amplitude, frequency and phase must be numbers"),
    ({"system": {"custom": {
        "dimensions": "two", "gf": {"expr": "exp(q1)"},
        "partition": {"energy": [0], "entropy": [1]}}}},
     "dimensions must be an integer"),
    ({"system": "heat_compartment", "initial": [0.0]},
     "initial needs 2 surface parameters"),
    ({"system": {"custom": {
        "dimensions": 2, "gf": {"expr": "exp(q1)", "chart": "zero"},
        "partition": {"energy": [0], "entropy": [1]}}}},
     "gf 'chart' must be an integer, got 'zero'"),
    ({"system": {"custom": {
        "dimensions": 2, "gf": {"expr": "exp(q1)", "I": ["one"]},
        "partition": {"energy": [0], "entropy": [1]}}}},
     "gf 'I' must be a list of integer indices, got ['one']"),
    ({"system": {"custom": {
        "dimensions": 2, "gf": {"expr": "exp(q1)", "J": ["x"]},
        "partition": {"energy": [0], "entropy": [1]}}}},
     "gf 'J' must be a list of integer indices, got ['x']"),
    ({"system": {"custom": {
        "dimensions": 2, "gf": {"expr": "exp(q1)"},
        "partition": {"energy": ["E"], "entropy": [1]}}}},
     "partition 'energy' must be a list of integer indices, got ['E']"),
    ({"system": {"custom": {
        "dimensions": 2, "gf": {"expr": "exp(q1)"},
        "partition": {"energy": [0], "entropy": 1}}}},
     "partition 'entropy' must be a list of integer indices, got 1"),
    ({"system": {"custom": {
        "dimensions": 2, "gf": {"expr": "exp(q1)"},
        "partition": {"energy": "01", "entropy": [1]}}}},
     "partition 'energy' must be a list of integer indices, got '01'"),
], ids=["constant", "sinusoid", "dimensions", "initial", "gf chart", "gf I",
        "gf J", "energy", "entropy", "index string"])
def test_malformed_config_values_are_config_errors(tmp_path, capsys, config,
                                                   message):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps({"command": "simulate", "t_end": 0.01,
                                **config}))
    assert run(str(path)) == 2
    err = capsys.readouterr().err
    assert "config error" in err and message in err


def test_chart_is_not_a_config_key(tmp_path, capsys):
    # no subcommand reads a chart selection, so neither the key nor the flag
    # is accepted
    path = tmp_path / "chart.json"
    path.write_text(json.dumps({"command": "validate",
                                "system": "heat_compartment", "chart": 1}))
    assert run(str(path)) == 2
    err = capsys.readouterr().err
    assert "unknown config keys: ['chart']" in err
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--system", "heat_compartment", "--chart", "1"])
    assert exc.value.code == 2


def test_report_written_to_file(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "validate", "--system", "heat_compartment",
                           "--samples", "5", "--report", str(report_path))
    assert code == 0
    assert out == ""
    report = json.loads(report_path.read_text())
    assert report["degree"]["pass"] is True


# -- programmatic entry ---------------------------------------------------------------


def test_run_executes_a_command_config(tmp_path, capsys):
    config = {"command": "validate", "system": "heat_compartment",
              "samples": 5}
    path = tmp_path / "cmd.json"
    path.write_text(json.dumps(config))
    assert run(str(path)) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["second_law"]["pass"] is True


def test_run_reports_missing_command_and_file(tmp_path, capsys):
    path = tmp_path / "nocmd.json"
    path.write_text(json.dumps({"system": "heat_compartment"}))
    assert run(str(path)) == 2
    assert "unknown command" in capsys.readouterr().err
    assert run(str(tmp_path / "absent.json")) == 2


def test_parser_is_built_once_and_keeps_no_values_between_calls(monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "_dispatch", lambda cfg: seen.append(cfg) or 0)
    base = ["validate", "--system", "heat_compartment"]
    assert main(base + ["--param", "C=2", "--param", "T_ref=0.5"]) == 0
    assert main(base + ["--param", "C=3", "--seed", "4"]) == 0
    assert main(base) == 0
    assert [cfg.system["params"] for cfg in seen] == \
        [{"C": 2.0, "T_ref": 0.5}, {"C": 3.0}, {}]
    assert [cfg.seed for cfg in seen] == [0, 4, 0]
    assert cli._build_parser() is cli._build_parser()
