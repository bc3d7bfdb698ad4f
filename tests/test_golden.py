"""Byte-for-byte regression of CLI outputs against committed fixtures.

Each file under ``tests/data/`` is the exact output of one ``ltk`` run listed
in ``CASES``: a simulate CSV or a checking subcommand's JSON report.  Two runs
of the same code agreeing (criterion 11) does not show that a change kept the
numbers; comparing against files written by an earlier version does.

A change that alters numerics on purpose regenerates the fixtures with

    PYTHONPATH=src python tests/test_golden.py

and says so in its change notes.
"""

import json
import sys
import tempfile
from pathlib import Path

import pytest

from ltk.cli import main, run

DATA = Path(__file__).parent / "data"

# fixture name -> argv for ``ltk.cli.main``, or a config mapping for
# ``ltk.cli.run``; the output path is appended at run time
CASES = {
    "simulate_piston_sine_all_monitors.csv": [
        "simulate", "--system", "gas_piston_damper", "--u", "0.1*sin(t)",
        "--t-end", "0.2", "--dt", "1e-3",
        "--monitors", "K_res,alpha_res,E_total,S_total,membership"],
    "simulate_exchanger_monitors.csv": [
        "simulate", "--system", "heat_exchanger",
        "--initial", "0.6931471805599453,0,-1,-1", "--t-end", "0.1",
        "--dt", "1e-3", "--monitors", "K_res,alpha_res,membership"],
    "simulate_compartment_constant_input.csv": {
        "command": "simulate", "system": "heat_compartment",
        "input": {"kind": "constant", "values": [0.5]},
        "t_end": 0.2, "dt": 0.01,
        "monitors": ["K_res", "alpha_res", "E_total", "S_total"]},
    "validate_piston.json": [
        "validate", "--system", "gas_piston_damper", "--samples", "8"],
    "validate_exchanger.json": [
        "validate", "--system", "heat_exchanger", "--samples", "5"],
    "bracket_expressions.json": [
        "bracket", "--k1", "q1*p0", "--k2", "q0*p1", "--dimensions", "2",
        "--samples", "10", "--seed", "3"],
    "bracket_piston_generators.json": [
        "bracket", "--system", "gas_piston_damper", "--samples", "10"],
    "reduce_ideal_gas.json": [
        "reduce", "--system", "ideal_gas_SVN", "--at", "1.0,1.0,1.0",
        "--samples", "8"],
    "flowcheck_piston.json": [
        "flowcheck", "--system", "gas_piston_damper", "--t-end", "0.02",
        "--dt", "1e-3", "--samples", "2"],
}


def produce(name: str, directory: Path) -> bytes:
    """Run one case, writing its output into ``directory``; return the bytes."""
    case = CASES[name]
    out = directory / name
    key = "output" if name.endswith(".csv") else "report"
    if isinstance(case, dict):
        config = directory / (name + ".config.json")
        config.write_text(json.dumps(dict(case, **{key: str(out)})))
        code = run(str(config))
    else:
        code = main(case + [f"--{key}", str(out)])
    assert code == 0, f"{name}: exit code {code}"
    return out.read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_committed_fixture(name, tmp_path):
    assert produce(name, tmp_path) == (DATA / name).read_bytes()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for case_name in sorted(CASES):
            (DATA / case_name).write_bytes(produce(case_name, Path(tmp)))
            print(f"wrote {DATA / case_name}", file=sys.stderr)
