"""Seeded job streams for the three benchmark workloads.

A job is one CLI invocation of ``ltk``: an argv for ``ltk.cli.main`` or a
config mapping for ``ltk.cli.run``.  Every input is drawn from the workload
seed with the ranges in ``spec.json``; ltk receives only the generated argv
or config file.  Each workload cycles through a deck of job slots, shuffled
anew every cycle, so that every run carries the same mix of systems,
commands and horizon bands whatever its seed or length; the seed draws
everything inside a slot.  A slot with ``"weight": k`` appears k times per
cycle.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

SPEC = json.loads(Path(__file__).with_name("spec.json").read_text())
SYSTEMS = SPEC["systems"]
WORKLOADS = tuple(SPEC["workloads"])

# Expected report checks of each checking subcommand.
REPORT_KEYS = {
    "validate": ("degree", "on_surface", "first_law", "second_law",
                 "chart_form"),
    "flowcheck": ("alpha_on_tangents", "membership_drift"),
    "reduce": ("extensive_euler", "gibbs_duhem", "scaling_tangency",
               "reduced_point"),
}


@dataclass
class Job:
    """One CLI invocation plus what its output checks need to know."""

    index: int
    command: str
    system: str
    output: Path                 # the CSV or JSON report the job writes
    argv: list = None            # for ltk.cli.main(argv)
    config: dict = None          # for ltk.cli.run(path)
    side_config: dict = None     # written to the --config file of argv jobs
    rk4_steps: int = 0           # RK4 steps implied by the inputs
    expect: dict = field(default_factory=dict)


def fmt(x: float) -> str:
    """Six decimal places keep argv readable and exactly reproducible."""
    return repr(round(float(x), 6))


def _draw(rng: random.Random, spec):
    """A value from {"choices": [...]}, an integer range [a, b], a float
    range [a, b] (six decimals), or a list of ranges."""
    if isinstance(spec, dict):
        return rng.choice(spec["choices"])
    if isinstance(spec[0], list):
        return [_draw(rng, s) for s in spec]
    if all(isinstance(v, int) for v in spec):
        return rng.randint(*spec)
    return round(rng.uniform(*spec), 6)


def _param_flags(params: dict) -> list:
    flags = []
    for name, value in params.items():
        text = ",".join(fmt(v) for v in value) if isinstance(value, list) \
            else fmt(value)
        flags.append(f"--param={name}={text}")
    return flags


def _draw_grid(rng, slot) -> tuple:
    """(t_end, dt, steps) with t_end = steps * dt.

    The step count comes from a narrow range so that jobs of one slot do
    similar work; dt is drawn, or follows from a horizon drawn in the
    slot's t_end band.
    """
    steps = _draw(rng, slot["steps"])
    if "dt" in slot:
        dt = _draw(rng, slot["dt"])
    else:
        dt = round(rng.uniform(*slot["t_end"]) / steps, 6)
    return steps * dt, dt, steps


def _draw_input(rng, system: dict) -> dict:
    kind = rng.choice(SPEC["input_kinds"])
    ranges = system["inputs"][kind]
    values = {name: _draw(rng, r) for name, r in ranges.items()}
    if kind == "sinusoid":
        return {"kind": "sinusoid", **values}
    if kind == "constant":
        return {"kind": "constant", "values": [values["value"]]}
    template = rng.choice(SPEC["expr_templates"])
    expr = template.format(**{k: fmt(v) for k, v in values.items()})
    return {"kind": "expr", "exprs": [expr]}


def _draw_monitors(rng) -> list:
    p = SPEC["monitor_probability"]
    return [name for name in SPEC["monitor_names"] if rng.random() < p]


# -- custom (expression) transcriptions of built-in systems -------------------


def _custom_piston(p: dict, initial) -> dict:
    """gas_piston_damper with U0 = V0 = R = 1 and S0 = 0, as expressions."""
    m, d, cv = fmt(p["mass"]), fmt(p["damping"]), fmt(p["c_v"])
    U = f"(1.0/q2)^(1.0/{cv})*exp(q1/{cv})"
    v = f"(q3/{m})"
    return {
        "name": "piston_expr",
        "dimensions": 4,
        "gf": {"expr": f"{U} + q3*q3/(2.0*{m})"},
        "partition": {"energy": [0], "entropy": [1]},
        "Ka": f"p2*{v} + p3*((1.0/{cv})*{U}/q2 - {d}*{v})"
              f" + p1*{d}*{v}*{v}/({U}/{cv})",
        "Kc": [f"p3 + p0*{v}"],
        "initial": initial,
        "param_box": SYSTEMS["gas_piston_damper"]["param_box"],
    }


def _custom_compartment(p: dict, initial) -> dict:
    """The README heat compartment with capacity C and reference T_ref."""
    C, T = fmt(p["C"]), fmt(p["T_ref"])
    return {
        "name": "compartment_expr",
        "dimensions": 2,
        "gf": {"expr": f"{C}*{T}*exp(q1/{C})"},
        "partition": {"energy": [0], "entropy": [1]},
        "Ka": "0",
        "Kc": [f"p1/({T}*exp(q1/{C})) + p0"],
        "initial": initial,
        "param_box": SYSTEMS["heat_compartment"]["param_box"],
    }


_CUSTOM = {"gas_piston_damper": _custom_piston,
           "heat_compartment": _custom_compartment}


# -- job builders ---------------------------------------------------------------


def _simulate(rng, slot, base: dict, workdir: Path) -> dict:
    name = slot["system"]
    system = SYSTEMS[name]
    params = {k: _draw(rng, r) for k, r in system["params"].items()}
    initial = [_draw(rng, r) for r in system["param_box"]]
    t_end, dt, steps = _draw_grid(rng, slot)
    monitors = slot.get("monitors") or _draw_monitors(rng)
    signal = _draw_input(rng, system) if system["ports"] else None
    out = workdir / "out.csv"
    expect = {"coords": system["coords"], "ports": system["ports"],
              "energy": system["energy"], "entropy": system["entropy"],
              "monitors": monitors, "steps": steps, "t_end": t_end,
              "dt": dt, "input": signal}

    def builtin_argv(output: Path, config_path: Path) -> tuple:
        argv = (["simulate", f"--system={name}"] + _param_flags(params)
                + [f"--t-end={t_end!r}", f"--dt={dt!r}",
                   "--initial=" + ",".join(fmt(v) for v in initial),
                   "--monitors=" + ",".join(monitors), f"--output={output}"])
        side = None
        if signal is not None and signal["kind"] == "expr":
            argv.append(f"--u={signal['exprs'][0]}")
        elif signal is not None:
            side = {"input": signal}
            argv.append(f"--config={config_path}")
        return argv, side

    if slot.get("custom"):
        config = {"command": "simulate",
                  "system": {"custom": _CUSTOM[name](params, initial)},
                  "t_end": t_end, "dt": dt, "initial": initial,
                  "monitors": monitors, "output": str(out)}
        if signal is not None:
            config["input"] = signal
        twin_argv, twin_side = builtin_argv(workdir / "twin.csv",
                                            workdir / "twin.json")
        expect["twin"] = {"argv": twin_argv, "side_config": twin_side}
        return dict(base, output=out, config=config, rk4_steps=steps,
                    expect=expect)
    argv, side = builtin_argv(out, workdir / "side.json")
    return dict(base, output=out, argv=argv, side_config=side,
                rk4_steps=steps, expect=expect)


def _bracket_operand(rng, m: int, degree: int) -> str:
    terms = SPEC["bracket_terms"]
    pool = terms["p_degree1"] if degree == 1 else terms["p_degree0"]
    parts = []
    for _ in range(_draw(rng, terms["terms"])):
        i = rng.randrange(m)
        # j != i keeps the degree-0 ratio p_i/p_j from collapsing to 1.
        idx = {"i": i, "j": (i + 1 + rng.randrange(m - 1)) % m,
               "k": rng.randrange(m)}
        qf = rng.choice(terms["q_factors"]).format(
            c=fmt(rng.uniform(-1.0, 1.0)), **idx)
        pf = rng.choice(pool).format(**idx)
        parts.append(f"{fmt(_draw(rng, terms['coef']))}*{qf}*{pf}")
    return " + ".join(parts)


def _audit(rng, slot, base: dict, workdir: Path) -> dict:
    command = slot["command"]
    out = workdir / "report.json"
    argv = [command]
    expect = {"keys": REPORT_KEYS.get(command)}
    rk4 = 0
    name = slot.get("system")
    params = {}
    if name is not None:
        params = {k: _draw(rng, r) for k, r in SYSTEMS[name]["params"].items()}
        argv += [f"--system={name}"] + _param_flags(params)
    if command == "flowcheck":
        t_end, dt, steps = _draw_grid(rng, slot)
        members = _draw(rng, slot["samples"])
        n_params = len(SYSTEMS[name]["param_box"])
        rk4 = (1 + 2 * n_params) * members * steps
        argv += [f"--t-end={t_end!r}", f"--dt={dt!r}",
                 f"--samples={members}"]
    else:
        argv.append(f"--samples={_draw(rng, slot['samples'])}")
    if command == "bracket":
        degrees = (1, 1)
        if name is None:
            m = _draw(rng, slot["dimensions"])
            if rng.random() < SPEC["bracket_terms"]["degree0_probability"]:
                degrees = rng.choice([(1, 0), (0, 1)])
            argv += [f"--k1={_bracket_operand(rng, m, degrees[0])}",
                     f"--k2={_bracket_operand(rng, m, degrees[1])}",
                     f"--degree1={degrees[0]}", f"--degree2={degrees[1]}",
                     f"--dimensions={m}"]
        label = f"degree-{degrees[0] + degrees[1] - 1}"
        expect["keys"] = ("operand_degrees", f"bracket_{label}",
                          "antisymmetry")
    if command == "reduce":
        at = [_draw(rng, r) for r in SYSTEMS[name]["at"]]
        argv.append("--at=" + ",".join(fmt(v) for v in at))
        expect["reduce"] = {"at": at, "params": params}
    argv += [f"--seed={rng.randrange(1000)}", f"--report={out}"]
    return dict(base, output=out, argv=argv, rk4_steps=rk4, expect=expect)


def _deck(workload: str) -> list:
    return [slot for slot in SPEC["workloads"][workload]["deck"]
            for _ in range(slot.get("weight", 1))]


def cycle_length(workload: str) -> int:
    """Jobs in one pass through the workload's deck."""
    return len(_deck(workload))


def jobs(workload: str, seed: int, workdir: Path):
    """The endless job stream of ``workload`` for ``seed``.

    Output, config and twin files all live in ``workdir``; a job overwrites
    the previous job's files.
    """
    if workload not in SPEC["workloads"]:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    deck = _deck(workload)
    index = 0
    while True:
        rng.shuffle(deck)
        for slot in deck:
            base = {"index": index, "command": slot["command"],
                    "system": slot.get("system", "expressions")}
            build = _simulate if slot["command"] == "simulate" else _audit
            yield Job(**build(rng, slot, base, workdir))
            index += 1
