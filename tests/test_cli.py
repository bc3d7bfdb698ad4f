"""End-to-end tests of the ``ltk`` command-line interface.

All invocations go through :func:`ltk.cli.main` in-process, so exit codes,
stdout payloads and written files are asserted exactly as a shell user would
see them: 0 for success, 1 for failed checks or aborted runs, 2 for
configuration errors.
"""

import json
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import ltk
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
    for key in ("initial", "at"):
        with pytest.raises(ConfigError, match=rf"^{key} must be a list of "
                                              r"finite numbers"):
            RunConfig.from_mapping({key: [1.0, float("nan")]})
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
    for flag, value in (("--dt", "inf"), ("--dt", "nan"), ("--t-end", "nan"),
                        ("--t-end", "inf")):
        code, _, err = run_cli(capsys, "simulate", "--system",
                               "heat_compartment", "--t-end", "0.1", "--dt",
                               "0.1", flag, value)
        assert code == 2
        assert f"must be positive and finite, got {value}" in err


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


def test_no_command_imports_numpy_random():
    # every check draws its samples from random.Random, which numpy imports
    # anyway; numpy.random costs a fresh process milliseconds and megabytes
    code = "\n".join([
        "import os, sys",
        "from ltk.cli import main",
        "for argv in (",
        "        ['validate', '--system', 'gas_piston_damper', '--samples', '2'],",
        "        ['bracket', '--system', 'gas_piston_damper', '--samples', '2'],",
        "        ['reduce', '--system', 'ideal_gas_SVN', '--samples', '2'],",
        "        ['flowcheck', '--system', 'gas_piston_damper', '--samples',",
        "         '1', '--t-end', '0.01', '--dt', '1e-3']):",
        "    assert main(argv + ['--report', os.devnull]) == 0, argv",
        "assert main(['simulate', '--system', 'heat_exchanger', '--t-end',",
        "             '0.01', '--dt', '1e-3', '--output', os.devnull]) == 0",
        "print('numpy.random' in sys.modules)"])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         cwd=Path(ltk.__file__).resolve().parent.parent)
    assert out.stdout == "False\n"


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


COMPARTMENT = {"dimensions": 2, "partition": {"energy": [0], "entropy": [1]},
               "Ka": "0", "Kc": ["p1 / exp(q1) + p0"]}
# The README compartment in its energy representation E(S) = exp(S), chart
# 0, and in its entropy representation S(E) = ln(E), chart 1, whose I
# defaults to [0], both from one start: E = 2, S = ln 2, and E = 1, S = 0,
# where the entropy representation's lift sets S to minus a relation of
# +0.0, which must read 0.0, as the energy representation's S does.
REPRESENTATIONS = {
    f"E = {E:g}": {
        "energy": dict(COMPARTMENT, gf={"expr": "exp(q1)"},
                       initial=[S, -1.0],
                       param_box=[[-0.5, 1.0], [-1.5, -0.5]]),
        "entropy": dict(COMPARTMENT, gf={"expr": "ln(q0)", "chart": 1},
                        initial=[E, -1.0],
                        param_box=[[0.6, 2.7], [-1.5, -0.5]])}
    for E, S in ((2.0, 0.6931471805599453), (1.0, 0.0))}


def _csv_columns(path) -> dict:
    header, *rows = path.read_text().splitlines()
    return dict(zip(header.split(","), zip(*(r.split(",") for r in rows))))


@pytest.mark.parametrize("start", sorted(REPRESENTATIONS))
@pytest.mark.parametrize("signal", [
    {"kind": "constant", "values": [0.1]},
    {"kind": "sinusoid", "amplitude": 0.2, "frequency": 1.3}])
def test_both_representations_of_a_compartment_flow_alike(tmp_path, capsys,
                                                         signal, start):
    # one surface, generated from either representation: Kc is linear in p
    # with coefficients in q, so the q columns and the outputs agree byte
    # for byte, and only the costates, read in another chart, differ
    columns = {}
    for name, spec in REPRESENTATIONS[start].items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"system": {"custom": spec}}))
        code, report, _ = run_json(capsys, "validate", "--config", str(path))
        assert code == 0 and all(c["pass"] for c in report.values()), name
        path.write_text(json.dumps({
            "command": "simulate", "system": {"custom": spec},
            "input": signal, "t_end": 1.0, "dt": 1e-2,
            "output": str(tmp_path / f"{name}.csv")}))
        assert run(str(path)) == 0
        columns[name] = _csv_columns(tmp_path / f"{name}.csv")
    energy, entropy = columns["energy"], columns["entropy"]
    for key in ("t", "q0", "q1", "y_p1", "y_e1"):
        assert entropy[key] == energy[key], key
    assert len(energy["t"]) == 101
    assert entropy["p0"] != energy["p0"] and entropy["p1"] != energy["p1"]


@pytest.mark.parametrize("value", [float("nan"), float("inf")],
                         ids=["NaN", "Infinity"])
@pytest.mark.parametrize("key", ["values", "amplitude", "frequency", "phase"])
def test_a_non_finite_signal_parameter_is_a_config_error(tmp_path, capsys,
                                                        key, value):
    if key == "values":
        system, signal = "heat_compartment", {"kind": "constant",
                                              "values": [value]}
    else:
        system = "gas_piston_damper"
        signal = {"kind": "sinusoid", "amplitude": 0.1, key: value}
    path = tmp_path / "signal.json"
    path.write_text(json.dumps({"command": "simulate", "system": system,
                                "input": signal, "t_end": 0.01}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(str(path)) == 2
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"ltk: config error: {signal['kind']} "
                                   f"input {key} must be ")
    assert f"finite number{'s' * (key == 'values')}, got " in captured.err


def test_an_input_power_out_of_range_names_its_base_and_power(capsys):
    # a power of plain numbers that overflows reads as a dual's does,
    # with the subexpression and the step it happened in
    argv = ["simulate", "--system", "gas_piston_damper", "--u",
            "(1e200*t)^2", "--t-end", "0.01", "--dt", "1e-3"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(
        "ExprEvalError: simulation of 'gas_piston_damper': 5e+196 ** 2 is "
        "out of range in '(1e+200*t)^2.0' in the step from t=0\n")


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


def test_bracket_operand_with_a_non_ascii_digit_is_a_config_error(capsys):
    code, out, err = run_cli(capsys, "bracket", "--k1", "²*p0",
                             "--k2", "q0*p1", "--dimensions", "2")
    assert code == 2 and out == ""
    assert "unexpected character '²'" in err


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


def test_reduce_outside_the_reduced_domain_is_a_config_error(capsys):
    # at zero moles (N v0 / V)^(R / c_v) has no derivative, which the one
    # dual pass of value and gradient meets before it divides by N
    code, _, err = run_cli(capsys, "reduce", "--system", "ideal_gas_SVN",
                           "--at", "1,2,0")
    assert code == 2
    assert err.strip() == ("ltk: config error: cannot reduce at "
                           "[1.0, 2.0, 0.0]: power with non-integer exponent "
                           "requires a positive base")
    # nor has it a real value at negative moles
    code, out, err = run_cli(capsys, "reduce", "--system", "ideal_gas_SVN",
                             "--at", "1,2,-1")
    assert code == 2 and out == ""
    assert err.strip() == ("ltk: config error: cannot reduce at "
                           "[1.0, 2.0, -1.0]: power with non-integer "
                           "exponent requires a positive base")


@pytest.mark.parametrize("command, key, value", [
    ("reduce", "at", "1,nan,1"), ("reduce", "at", "1,inf,1"),
    ("reduce", "at", "1,1,-inf"),
    ("simulate", "initial", "0,nan,0,-1"),
    ("simulate", "initial", "0,inf,0,-1")])
def test_a_non_finite_point_is_a_config_error(capsys, command, key, value):
    system = "ideal_gas_SVN" if command == "reduce" else "gas_piston_damper"
    code, out, err = run_cli(capsys, command, "--system", system,
                             f"--{key}", value)
    assert code == 2 and out == ""
    assert err.startswith(f"ltk: config error: {key} must be a list of "
                          f"finite numbers, got [")


# -- flowcheck ----------------------------------------------------------------------


def test_flowcheck_piston_drift_preserves_the_surface(capsys):
    code, report, _ = run_json(capsys, "flowcheck", "--system",
                               "gas_piston_damper", "--t-end", "0.5",
                               "--dt", "0.01", "--samples", "5")
    assert code == 0
    assert set(report) == {"alpha_on_tangents", "membership_drift"}
    assert all(check["pass"] for check in report.values())


def test_flowcheck_needs_a_drift_the_trace_records(tmp_path, capsys):
    # a point-dependent exponent: the README compartment whose drift is
    # 0*p0*q0^q1 validates and simulates on the vector pass, but flowcheck
    # has no adjoint sweep without K's trace, and fails with its reason
    spec = dict(COMPARTMENT, name="compartment", Ka="0*p0*q0^q1",
                gf={"expr": "exp(q1)"}, initial=[0.0, -1.0],
                param_box=[[-0.5, 1.0], [-1.5, -0.5]])
    path = tmp_path / "compartment.json"
    for command, code in (("validate", 0), ("simulate", 0),
                          ("flowcheck", 1)):
        path.write_text(json.dumps({"command": command, "t_end": 0.1,
                                    "system": {"custom": spec}}))
        assert run(str(path)) == code, command
        captured = capsys.readouterr()
    assert captured.out == ""
    assert "flowcheck cannot trace" in captured.err
    assert "raises to a traced exponent" in captured.err


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


def test_a_param_under_both_spellings_is_a_config_error(tmp_path, capsys):
    code, out, err = run_cli(capsys, "simulate", "--system",
                             "gas_piston_damper", "--param", "m=2",
                             "--param", "mass=3", "--t-end", "0.1",
                             "--dt", "0.1")
    assert code == 2 and out == ""
    assert err == ("ltk: config error: cannot construct system "
                   "'gas_piston_damper': parameter 'mass' is given twice, "
                   "as 'm' and 'mass'\n")
    # a flag overrides the config's value under the other spelling
    config = tmp_path / "piston.json"
    config.write_text(json.dumps({"system": {
        "name": "gas_piston_damper", "params": {"mass": 3.0}}}))
    runs = [run_cli(capsys, "simulate", *flags, "--t-end", "0.1", "--dt",
                    "0.1") for flags in (
        ["--config", str(config), "--param", "m=2"],
        ["--system", "gas_piston_damper", "--param", "mass=2"])]
    assert runs[0] == runs[1] and runs[0][0] == 0


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

    listed = tmp_path / "listed.json"
    listed.write_text(json.dumps([{"command": "validate"}]))
    assert run(str(listed)) == 2
    assert "configuration root must be a JSON object" in \
        capsys.readouterr().err
    code, _, err = run_cli(capsys, "validate", "--config", str(listed))
    assert code == 2 and "configuration root must be a JSON object" in err


# A well-formed custom compartment that each malformed case alters in one entry.
CUSTOM = {"dimensions": 2, "gf": {"expr": "exp(q1)"},
          "partition": {"energy": [0], "entropy": [1]},
          "Kc": ["p1/exp(q1) + p0"], "initial": [0.0, -1.0],
          "param_box": [[-0.5, 1.0], [-1.5, -0.5]]}


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
    ({"system": {"custom": dict(CUSTOM, Ka=0)}},
     "drift generator expression must be a string, got 0"),
    ({"system": {"custom": dict(CUSTOM, gf={"expr": 5})}},
     "generating-function expression must be a string, got 5"),
    ({"system": {"custom": dict(CUSTOM, Kc=[1])}},
     "port generator expression must be a string, got 1"),
    ({"command": "bracket", "k1": 5, "k2": "q0*p1"},
     "bracket operand expression must be a string, got 5"),
    ({"system": {"custom": dict(CUSTOM, Kc="p1/exp(q1) + p0")}},
     "custom system 'Kc' must be a list of expressions, got "
     "'p1/exp(q1) + p0'"),
    ({"system": {"custom": dict(CUSTOM, Kc=5)}},
     "custom system 'Kc' must be a list of expressions, got 5"),
    ({"system": {"custom": dict(
        CUSTOM, gf={"expr": "exp(q1)", "q_homogeneous": "false"})}},
     "gf 'q_homogeneous' must be true or false, got 'false'"),
    ({"system": {"custom": dict(CUSTOM, initial="0.0,-1.0")}},
     "custom system 'initial' must be a list of numbers, got '0.0,-1.0'"),
    ({"system": {"custom": dict(CUSTOM, param_box="0,1")}},
     "custom system 'param_box' must be a list of [low, high] pairs, "
     "got '0,1'"),
    ({"system": {"custom": dict(CUSTOM, dimensions=2.7)}},
     "dimensions must be an integer, got 2.7"),
    ({"system": {"custom": dict(CUSTOM, dimensions=True)}},
     "dimensions must be an integer, got True"),
    ({"system": {"custom": dict(CUSTOM, gf={"expr": "exp(q1)",
                                            "chart": False})}},
     "gf 'chart' must be an integer, got False"),
    ({"system": {"custom": dict(CUSTOM, gf={"expr": "exp(q1)", "I": [True]})}},
     "gf 'I' must be a list of integer indices, got [True]"),
    ({"system": {"custom": dict(CUSTOM, gf={"expr": "exp(q1)", "I": [1.9]})}},
     "gf 'I' must be a list of integer indices, got [1.9]"),
    ({"system": {"custom": dict(CUSTOM, gf={"expr": "exp(q1)", "I": [],
                                            "J": [True]})}},
     "gf 'J' must be a list of integer indices, got [True]"),
    ({"system": {"custom": dict(CUSTOM, partition={"energy": [False],
                                                   "entropy": [1]})}},
     "partition 'energy' must be a list of integer indices, got [False]"),
    ({"system": {"custom": dict(CUSTOM, partition={"energy": [0],
                                                   "entropy": [1.0]})}},
     "partition 'entropy' must be a list of integer indices, got [1.0]"),
    ({"system": {"custom": dict(CUSTOM, initial=[False, -1.0])}},
     "custom system 'initial' must be a list of numbers, got [False, -1.0]"),
    ({"system": {"custom": dict(CUSTOM, param_box=[[-0.5, True],
                                                   [-1.5, -0.5]])}},
     "custom system 'param_box' must be a list of [low, high] pairs, "
     "got [[-0.5, True], [-1.5, -0.5]]"),
    ({"command": "validate", "system": "heat_compartment", "samples": 2.7},
     "value for 'samples': not an integer: 2.7"),
    ({"command": "validate", "system": "heat_compartment", "seed": True},
     "value for 'seed': not an integer: True"),
    ({"t_end": "0.01"}, "value for 't_end': not a number: '0.01'"),
    ({"dt": False}, "value for 'dt': not a number: False"),
    ({"system": "gas_piston_damper", "initial": [True, 1.0, 0.0, -1.0]},
     "initial must be a list of numbers, got [True, 1.0, 0.0, -1.0]"),
    ({"command": "reduce", "system": "ideal_gas_SVN", "at": [True, 1.0, 1.0]},
     "at must be a list of numbers, got [True, 1.0, 1.0]"),
    ({"system": "gas_piston_damper",
      "input": {"kind": "sinusoid", "amplitude": True}},
     "sinusoid amplitude, frequency and phase must be numbers"),
    ({"system": "gas_piston_damper",
      "input": {"kind": "sinusoid", "amplitude": 0.1, "frequency": "2"}},
     "sinusoid amplitude, frequency and phase must be numbers"),
    ({"system": "gas_piston_damper",
      "input": {"kind": "constant", "values": [False]}},
     "constant input values must be numbers, got [False]"),
    ({"t_end": float("nan")}, "t_end must be positive and finite, got nan"),
    ({"t_end": float("inf")}, "t_end must be positive and finite, got inf"),
    ({"dt": float("nan")}, "dt must be positive and finite, got nan"),
    ({"dt": float("inf")}, "dt must be positive and finite, got inf"),
    ({"dt": 0}, "dt must be positive and finite, got 0.0"),
    ({"system": {"name": "gas_piston_damper",
                 "params": {"mass": float("nan")}}},
     "cannot construct system 'gas_piston_damper': mass, U0, V0, R and c_v "
     "must be positive and finite"),
    ({"system": "gas_piston_damper", "input": 5},
     "input must be an expression string or an object with a 'kind' entry"),
    ({"system": "gas_piston_damper", "input": {"kind": "constant"}},
     "constant input needs 'values'"),
    ({"system": "gas_piston_damper", "input": {"kind": "sinusoid"}},
     "sinusoid input needs an 'amplitude'"),
    ({"system": "gas_piston_damper", "input": {"kind": "expr"}},
     "expression input needs 'exprs'"),
    ({"system": "gas_piston_damper",
      "input": {"kind": "expr", "exprs": ["2*"]}},
     "bad input expression '2*'"),
    ({"system": "gas_piston_damper",
      "input": {"kind": "expr", "exprs": [5]}},
     "input expressions must be a string or a list of strings"),
    ({"system": "heat_compartment",
      "input": {"kind": "expr", "exprs": {"a": 1}}},
     "input expressions must be a string or a list of strings"),
    ({"system": "heat_compartment", "input": {"kind": "expr", "exprs": 5}},
     "input expressions must be a string or a list of strings"),
    ({"system": "gas_piston_damper", "input": {"kind": "square"}},
     "unknown input kind 'square'"),
    ({}, "no system specified"),
    ({"system": 5}, "system must be a name or an object"),
    ({"system": {"params": {}}},
     "system object needs a 'name' or 'custom' entry"),
    ({"system": {"name": "heat_compartment", "params": [1.0]}},
     "system params must be an object of named values"),
    ({"system": {"custom": 5}}, "custom system spec must be an object"),
    ({"system": {"custom": {k: v for k, v in CUSTOM.items()
                            if k != "partition"}}},
     "custom system spec needs a 'partition' entry"),
    ({"system": {"custom": dict(CUSTOM, dimensions=0)}},
     "a system needs at least one coordinate"),
    ({"system": {"custom": dict(CUSTOM, gf={"chart": 0})}},
     "the gf entry must be an object with an 'expr'"),
    ({"system": {"custom": dict(CUSTOM, partition=[0, 1])}},
     "partition must be an object with 'energy' and 'entropy' index lists"),
    ({"command": "validate", "system": "heat_compartment", "samples": 0},
     "samples must be positive"),
    ({"command": "bracket", "k1": "q0*p0", "k2": "q0*p0", "dimensions": 0},
     "dimensions must be at least 1"),
    ({"command": "reduce", "system": {"custom": {
        "dimensions": 3, "gf": {"expr": "sqrt(q1*q2)", "q_homogeneous": True},
        "partition": {"energy": [0], "entropy": [1]}}}},
     "system 'custom' has no param_box to sample the surface from"),
    ({"command": "flowcheck", "system": {"custom": {
        k: v for k, v in CUSTOM.items()
        if k not in ("initial", "param_box")}}},
     "system 'custom' has neither default parameters nor a param_box"),
    ({"system": {"custom": {**CUSTOM, "initial": [0.0, float("nan")]}}},
     "invalid custom system: 'initial' must be finite numbers, got "
     "[0.0, nan]"),
    ({"system": {"custom": {**CUSTOM, "initial": [0.0, -1.0, 2.0]}}},
     "invalid custom system: 'initial' needs 2 surface parameters"),
    ({"system": "gas_piston_damper", "initial": [0.0, 1.0, 0.0, 0.0]},
     "initial has p_chart 0 (entry 3); p_chart must be nonzero"),
    ({"system": {"custom": {**CUSTOM, "param_box": [[0.0, float("nan")],
                                                    [-1.5, -0.5]]}}},
     "invalid custom system: param_box must hold finite [low, high] pairs"),
    ({"system": {"custom": {**CUSTOM, "param_box": [[1.0, 0.0],
                                                    [-1.5, -0.5]]}}},
     "param_box must hold finite [low, high] pairs with low <= high, got "
     "[[1.0, 0.0], [-1.5, -0.5]]"),
], ids=["constant", "sinusoid", "dimensions", "initial", "gf chart", "gf I",
        "gf J", "energy", "entropy", "index string", "Ka number",
        "gf expr number", "Kc number item", "k1 number", "Kc string",
        "Kc number", "q_homogeneous string", "custom initial string",
        "param_box string", "dimensions float", "dimensions bool",
        "gf chart bool", "gf I bool", "gf I float", "gf J bool",
        "energy bool", "entropy float", "custom initial bool",
        "param_box bool", "samples float", "seed bool", "t_end string",
        "dt bool", "initial bool", "at bool", "sinusoid amplitude bool",
        "sinusoid frequency string", "constant bool", "t_end NaN",
        "t_end inf", "dt NaN", "dt inf", "dt zero", "factory NaN",
        "input number", "constant without values",
        "sinusoid without amplitude", "expr without exprs",
        "input syntax", "exprs number item", "exprs object",
        "exprs number", "input kind", "no system", "system number",
        "system without name", "params list", "custom number",
        "custom without partition", "dimensions zero", "gf without expr",
        "partition list", "samples zero", "bracket dimensions zero",
        "reduce without param_box", "flowcheck without param_box",
        "custom initial NaN", "custom initial length",
        "initial p_chart zero", "param_box NaN", "param_box reversed"])
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


@pytest.mark.parametrize("argv", [
    ["simulate", "--report", "r.json"], ["simulate", "--seed", "5"],
    ["list", "--report", "r.json"], ["list", "--seed", "5"],
    ["list", "--system", "heat_compartment"], ["list", "--param", "C=2"]])
def test_a_command_takes_only_the_flags_it_reads(argv, tmp_path, capsys):
    # simulate reads no seed and writes no report; list reads no option
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in \
        capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_a_report_key_in_a_simulate_config_is_a_config_error(tmp_path,
                                                             capsys):
    path = tmp_path / "simulate.json"
    path.write_text(json.dumps({"command": "simulate",
                                "system": "heat_compartment",
                                "report": str(tmp_path / "r.json")}))
    assert run(str(path)) == 2
    assert capsys.readouterr().err == (
        "ltk: config error: simulate writes no report; its CSV goes to "
        "'output'\n")
    assert not (tmp_path / "r.json").exists()


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
