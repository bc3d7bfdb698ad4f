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
    "flowcheck_exchanger.json": [
        "flowcheck", "--system", "heat_exchanger", "--t-end", "0.04",
        "--dt", "1e-3", "--samples", "2"],
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


def describe_difference(name: str, got: bytes, want: bytes) -> str:
    """Say where an output differs from its fixture.

    For a CSV: the differing columns and the first differing row; for a JSON
    report: the differing top-level entries.
    """
    if not name.endswith(".csv"):
        got_checks, want_checks = json.loads(got), json.loads(want)
        keys = sorted(set(got_checks) | set(want_checks))
        differing = [k for k in keys if got_checks.get(k) != want_checks.get(k)]
        return f"entries {differing}"
    got_rows = [line.split(",") for line in got.decode().splitlines()]
    want_rows = [line.split(",") for line in want.decode().splitlines()]
    if got_rows[0] != want_rows[0] or len(got_rows) != len(want_rows):
        return (f"header {got_rows[0]} with {len(got_rows)} lines; fixture "
                f"{want_rows[0]} with {len(want_rows)} lines")
    header = want_rows[0]
    rows = [i for i in range(1, len(want_rows)) if got_rows[i] != want_rows[i]]
    if not rows:
        return "no cell differs; the bytes differ in separators or line endings"
    columns = [j for j in range(len(header))
               if any(got_rows[i][j] != want_rows[i][j] for i in rows)]
    first = rows[0]
    cells = {header[j]: (got_rows[first][j], want_rows[first][j])
             for j in columns}
    return (f"columns {[header[j] for j in columns]} in {len(rows)} rows; "
            f"first at data row {first} (got, fixture): {cells}")


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_committed_fixture(name, tmp_path):
    got = produce(name, tmp_path)
    want = (DATA / name).read_bytes()
    assert got == want, f"{name} differs: {describe_difference(name, got, want)}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for case_name in sorted(CASES):
            (DATA / case_name).write_bytes(produce(case_name, Path(tmp)))
            print(f"wrote {DATA / case_name}", file=sys.stderr)
