"""Output checks for benchmark jobs, run outside the timed region.

Each check returns a list of problems; an empty list means the output is
correct.  The checks use only the generated inputs and numpy, never ltk, so
that a defect in ltk cannot hide itself: the input signal is re-evaluated
from its generated description, and the laws are audited from the CSV
columns alone.
"""

from __future__ import annotations

import io
import json
import math

import numpy as np

from jobs import SPEC

BOUNDS = SPEC["checks"]


def csv_header(expect: dict) -> str:
    """The documented header: t, q0.., p0.., y_p<k>, y_e<k> per port, monitors."""
    m = expect["coords"]
    cols = (["t"] + [f"q{i}" for i in range(m)] + [f"p{i}" for i in range(m)]
            + [f"y_{kind}{k + 1}" for k in range(expect["ports"])
               for kind in ("p", "e")]
            + list(expect["monitors"]))
    return ",".join(cols)


def read_csv(data: bytes):
    """(header line, float table) of a CSV written by ``ltk simulate``."""
    text = data.decode("utf-8")
    if not text.endswith("\n"):
        raise ValueError("the CSV does not end with a line feed")
    header, _, body = text.partition("\n")
    width = header.count(",") + 1
    if not body:
        return header, np.empty((0, width))
    table = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    if table.shape[1] != width:
        raise ValueError(f"{table.shape[1]} columns under a header of {width}")
    return header, table


def signal_values(spec, t: np.ndarray) -> np.ndarray:
    """u(t) of a generated input description, evaluated with numpy."""
    if spec is None:
        return np.zeros_like(t)
    kind = spec["kind"]
    if kind == "sinusoid":
        return spec["amplitude"] * np.sin(spec["frequency"] * t + spec["phase"])
    if kind == "constant":
        return np.full_like(t, spec["values"][0])
    # Generated templates use only + - * / and sin, cos, exp: numpy syntax.
    names = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "t": t}
    return np.broadcast_to(
        eval(spec["exprs"][0], {"__builtins__": {}}, names), t.shape)


def _steps_of_trapezoid(f: np.ndarray, t: np.ndarray) -> np.ndarray:
    return (f[1:] + f[:-1]) * np.diff(t) / 2.0


def _trapezoid_error_bounds(f: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Per-step bounds on the trapezoid rule's error for the recorded f.

    A step of size h errs by about h^3 |f''| / 12.  h^2 f'' is read as the
    median of the eight second differences of f nearest to the step.  One
    wrong sample of f moves at most three of them, so it cannot widen its
    own bound; the bound allows six times the median.
    """
    d2 = np.abs(f[2:] - 2.0 * f[1:-1] + f[:-2])      # at points 1 .. n - 1
    if d2.size < 8:
        return np.diff(t) * (np.median(d2) if d2.size else 0.0) / 2.0
    medians = np.median(np.lib.stride_tricks.sliding_window_view(d2, 8),
                        axis=1)
    # The step from point i to i + 1 reads points i - 3 .. i + 4, the window
    # sliding inwards at the ends of the grid.
    start = np.clip(np.arange(len(t) - 1) - 4, 0, len(medians) - 1)
    return np.diff(t) * medians[start] / 2.0


def check_simulate(expect: dict, data: bytes) -> list:
    """Header, grid, finiteness, first law and entropy steps of one CSV.

    The first-law defect is dE minus the trapezoid integral of the port
    power y_p * u; the entropy production of a step is dS minus the
    trapezoid integral of the port entropy flow y_e * u.  Both may differ
    from zero by the trapezoid rule's own error, bounded from the data,
    plus a fixed floor.
    """
    try:
        header, table = read_csv(data)
    except ValueError as err:
        return [f"unreadable CSV: {err}"]
    if header != csv_header(expect):
        return [f"header {header!r} != {csv_header(expect)!r}"]
    steps, t_end = expect["steps"], expect["t_end"]
    if table.shape[0] != steps + 1:
        return [f"{table.shape[0]} rows, expected {steps + 1}"]
    if not np.all(np.isfinite(table)):
        return ["non-finite values"]
    problems = []
    t = table[:, 0]
    if t[0] != 0.0 or abs(t[-1] - t_end) > 1e-9 * max(1.0, t_end):
        problems.append(f"time grid runs {t[0]}..{t[-1]}, expected 0..{t_end}")
    m = expect["coords"]
    u = signal_values(expect["input"], t)
    power = np.zeros_like(t)
    entropy_flow = np.zeros_like(t)
    for k in range(expect["ports"]):
        power += table[:, 1 + 2 * m + 2 * k] * u
        entropy_flow += table[:, 2 + 2 * m + 2 * k] * u

    E = table[:, [1 + i for i in expect["energy"]]].sum(axis=1)
    defect = E[-1] - E[0] - float(np.sum(_steps_of_trapezoid(power, t)))
    bound = BOUNDS["first_law_floor"] + float(
        np.sum(_trapezoid_error_bounds(power, t)))
    if not abs(defect) <= bound:
        problems.append(f"first-law defect {defect:.3g} exceeds {bound:.3g}")

    S = table[:, [1 + i for i in expect["entropy"]]].sum(axis=1)
    production = np.diff(S) - _steps_of_trapezoid(entropy_flow, t)
    slack = production + BOUNDS["entropy_floor"] + _trapezoid_error_bounds(
        entropy_flow, t)
    if np.min(slack) < 0.0:
        i = int(np.argmin(slack))
        problems.append(f"entropy production {production[i]:.3g} in the step "
                        f"ending at t={t[i + 1]:g}")
    return problems


def final_state(data: bytes, coords: int) -> np.ndarray:
    """The last (q, p) row of a simulate CSV."""
    return read_csv(data)[1][-1, 1:1 + 2 * coords]


def check_twin(expect: dict, data: bytes, twin: bytes) -> list:
    """The expression system's final state against its built-in twin."""
    a = final_state(data, expect["coords"])
    b = final_state(twin, expect["coords"])
    gap = float(np.max(np.abs(a - b) / (1.0 + np.abs(b))))
    if not gap <= BOUNDS["twin_rtol"]:
        return [f"final state differs from the built-in twin by {gap:.3g}"]
    return []


def _ideal_gas_energy(params: dict, S: float, V: float, N: float) -> float:
    c_v, R, T_ref = params["c_v"], params["R"], params["T_ref"]
    return N * c_v * T_ref * (N / V) ** (R / c_v) * math.exp(S / N / c_v)


def check_report(expect: dict, data: bytes) -> list:
    """Every check of a JSON report is present, finite and passing."""
    try:
        report = json.loads(data)
    except ValueError as err:
        return [f"unreadable report: {err}"]
    problems = []
    if tuple(report) != tuple(expect["keys"]):
        problems.append(f"report keys {list(report)} != {list(expect['keys'])}")
    for name, entry in report.items():
        if "pass" not in entry:
            continue
        if entry["pass"] is not True:
            problems.append(f"check {name} failed: {entry}")
        if not math.isfinite(entry["max_residual"]):
            problems.append(f"check {name} has a non-finite residual")
    if "reduce" in expect and "reduced_point" in report:
        # eps_0 of the reduced point is the energy per unit entropy, E/S.
        at = expect["reduce"]["at"]
        want = _ideal_gas_energy(expect["reduce"]["params"], *at) / at[0]
        got = report["reduced_point"]["point"][0]
        if not abs(got - want) <= 1e-12 * abs(want):
            problems.append(f"reduced point E/S = {got!r}, expected {want!r}")
    return problems
