"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the package's own test collection;
they take about two minutes, most of it in six traced runs.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
from checks import (BOUNDS, _trapezoid_error_bounds, check_report,
                    check_simulate, read_csv, signal_values)
from jobs import SPEC, WORKLOADS, cycle_length, jobs

HERE = Path(__file__).resolve().parent
SEED = 7

run.import_ltk()


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Two traced runs of every workload at the same seed."""
    out = {}
    for workload in WORKLOADS:
        out[workload] = []
        for attempt in range(2):
            work = tmp_path_factory.mktemp(f"{workload}{attempt}")
            out[workload].append(run.trace_run(
                workload, SEED, work, out_path=work / "trace.json"))
    return out


def _counts(result: dict) -> dict:
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] not in ("s", "ratio")}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_repeat_counts_and_outputs(traced, workload):
    first, second = traced[workload]
    # correct covers the byte comparison of every traced output against
    # its untraced twin, besides the output checks.
    assert first["correct"] and second["correct"]
    assert _counts(first) == _counts(second)
    assert first["attempted"] == cycle_length(workload)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_named_layer_metrics_are_nonzero_where_stressed(traced, workload):
    metrics = traced[workload][0]["metrics"]
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(metrics) == {m["name"] for m in declared["per_layer"]}
    zero = [name for name, layer in SPEC["layers"].items()
            if workload in layer["nonzero_on"]
            and not metrics[name]["value"] > 0]
    assert zero == []


def _assert_result_line(line: str, kind: str):
    """The result line holds exactly the contract's keys, and every metric
    declared as ``kind`` in BENCHMARK.json as exactly a value and a unit;
    end-to-end values are never 0."""
    result = json.loads(line)
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    assert {name: set(m) for name, m in result["metrics"].items()} == \
        {m["name"]: {"value", "unit"} for m in declared[kind]}
    for m in declared[kind]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert got["value"] > 0 or kind == "per_layer"


def test_traced_result_line_holds_every_per_layer_metric(traced):
    _assert_result_line(json.dumps(traced[WORKLOADS[0]][0]), "per_layer")


def test_timed_run_prints_the_result_line(tmp_path):
    out = subprocess.run([sys.executable, str(HERE / "run.py"),
                          "--workload", WORKLOADS[0], "--seed", "1",
                          "--seconds", "1", "--trace", "0"],
                         capture_output=True, text=True, timeout=180)
    assert out.returncode == 0, out.stderr[-2000:]
    _assert_result_line(out.stdout.strip().splitlines()[-1], "end_to_end")


def test_job_streams_depend_only_on_the_seed(tmp_path):
    for workload in WORKLOADS:
        a = [j.argv or j.config for j in
             itertools.islice(jobs(workload, 3, tmp_path), 30)]
        b = [j.argv or j.config for j in
             itertools.islice(jobs(workload, 3, tmp_path), 30)]
        c = [j.argv or j.config for j in
             itertools.islice(jobs(workload, 4, tmp_path), 30)]
        assert a == b
        assert a != c


def _first_job(tmp_path, workload, command, system=None):
    runner = run.Runner(tmp_path)
    for job in jobs(workload, SEED, tmp_path):
        if job.command == command and system in (None, job.system) \
                and job.rk4_steps < 1000:
            _, code, stderr = runner.invoke(job)
            if code == 0:
                assert runner.check(job, code, stderr) == (False, [])
                return job, job.output.read_bytes()


def test_simulate_check_rejects_corrupted_csv(tmp_path):
    job, data = _first_job(tmp_path, "sim_builtin", "simulate")
    assert check_simulate(job.expect, data) == []
    lines = data.decode().split("\n")
    header, rows = lines[0], lines[1:-1]

    def with_rows(new_rows, new_header=header):
        return "\n".join([new_header] + new_rows + [""]).encode()

    last = rows[-1].split(",")
    last[1] = repr(float(last[1]) + 1e-3)          # energy column q0
    assert check_simulate(job.expect, with_rows(rows[:-1] + [",".join(last)]))
    assert check_simulate(job.expect, with_rows(rows[:-1]))
    assert check_simulate(job.expect, with_rows(rows, header + ",extra"))
    assert check_simulate(job.expect, with_rows(rows[:-1] + ["nan" + rows[-1][
        rows[-1].index(","):]]))


def test_simulate_check_rejects_one_wrong_port_sample(tmp_path):
    job, data = _first_job(tmp_path, "sim_builtin", "simulate",
                           "gas_piston_damper")
    _, table = read_csv(data)
    t = table[:, 0]
    u = signal_values(job.expect["input"], t)
    column = 1 + 2 * job.expect["coords"]                  # y_p1
    bound = BOUNDS["first_law_floor"] + float(
        np.sum(_trapezoid_error_bounds(table[:, column] * u, t)))
    # An inner sample where the input is largest; moving y_p there by delta
    # moves the trapezoid integral of y_p * u by h * delta * u, here three
    # times the first-law bound.
    row = 1 + int(np.argmax(np.abs(u[1:-1])))
    h = t[row + 1] - t[row]
    delta = float(3.0 * bound / (h * u[row]))
    lines = data.decode().split("\n")
    fields = lines[1 + row].split(",")
    fields[column] = repr(float(fields[column]) + delta)
    lines[1 + row] = ",".join(fields)
    problems = check_simulate(job.expect, "\n".join(lines).encode())
    assert any("first-law" in p for p in problems)


def test_report_check_rejects_a_failed_check(tmp_path):
    job, data = _first_job(tmp_path, "audit", "validate")
    report = json.loads(data)
    assert check_report(job.expect, data) == []
    report["degree"]["pass"] = False
    assert check_report(job.expect, json.dumps(report).encode())
    del report["degree"]
    assert check_report(job.expect, json.dumps(report).encode())


def test_benchmark_refuses_to_run_without_ltk_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name)
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, f"{HERE.name}/run.py",
                          "--workload", WORKLOADS[0], "--seed", "1",
                          "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True,
                         timeout=180)
    assert out.returncode != 0
    assert out.stdout == ""
