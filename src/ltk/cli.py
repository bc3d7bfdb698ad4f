"""Command-line frontend for simulations, validation and structure checks.

The ``ltk`` command dispatches on a subcommand::

    ltk simulate  --system gas_piston_damper --u "0.1*sin(t)" --t-end 10 --dt 1e-3
    ltk validate  --system heat_exchanger
    ltk bracket   --k1 "q1*p0" --k2 "q0*p1" --dimensions 2
    ltk reduce    --system ideal_gas_SVN --at 1.0,1.0,1.0
    ltk flowcheck --system gas_piston_damper --t-end 1 --dt 1e-3
    ltk list

Every run is described by a :class:`RunConfig`, assembled from an optional
JSON config file (``--config``) overlaid with command-line flags (flags win).
Config keys are snake_case versions of the kebab-case flags; a config file
may also carry ``"command"`` so that :func:`run` can execute it directly.

Outputs are data only: ``simulate`` writes a CSV trajectory (header row,
comma-separated, LF line endings, shortest round-trip float formatting, so
identical configurations produce byte-identical files); the checking
subcommands write a JSON report mapping each check name to
``{"max_residual": ..., "tolerance": ..., "pass": ...}``.

Exit codes: 0 on success, 1 when a check fails (or a run aborts), 2 for
configuration errors including unreadable config files.  Log verbosity is
controlled by the ``LTK_LOG`` environment variable (``error``, ``warn``,
``info`` or ``debug``; default ``warn``), logging to stderr so that stdout
stays machine-readable.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import logging
import os
import sys
import time
from dataclasses import dataclass, fields

import numpy as np

from .brackets import _degree_rows, _poisson_rows
from .diffkit import (_DOMAIN_ERRORS, ScalarFn, _sample_rows,
                      _values_and_dirderivs)
from .dynamics import flow_transport_check, phase_rhs
from .exprlang import ExprError, compile_fn, free_names, parse
from .geometry import _phase_rows
from .portsys import (_PARAM_ALIASES, BUILTIN_SYSTEMS, MONITOR_NAMES,
                      PortSignal, PortSystem, _sample_surface_params, builtin,
                      simulate, validate)
from .submanifold import (GeneratingFunction, gibbs_duhem_check,
                          reduced_point, specific_form)

__all__ = ["RunConfig", "ConfigError", "run", "main"]

log = logging.getLogger("ltk")

_LOG_LEVELS = {"error": logging.ERROR, "warn": logging.WARNING,
               "info": logging.INFO, "debug": logging.DEBUG}


class ConfigError(ValueError):
    """A run description that cannot be executed (exit code 2)."""


@dataclass
class RunConfig:
    """A declarative description of one CLI run.

    ``system`` is a built-in name, a ``{"name", "params"}`` mapping, or
    ``{"custom": {...}}`` declaring dimensions, a generating-function
    expression, the energy/entropy partition and drift/port generator
    expressions.  ``input`` is a signal spec (``zero``, ``constant``,
    ``sinusoid`` or expressions in ``t``).  The remaining fields cover
    integration, monitor selection, output paths and the sampling seed;
    ``k1``/``k2``/``degree1``/``degree2``/``dimensions`` feed the
    ``bracket`` subcommand and ``at`` feeds ``reduce``.
    """

    command: str = ""
    system: object = None
    input: object = None
    t_end: float = 10.0
    dt: float = 1e-3
    monitors: tuple = ("K_res", "alpha_res")
    initial: tuple = None
    output: str = None
    report: str = None
    seed: int = 0
    samples: int = 25
    k1: str = None
    k2: str = None
    degree1: int = 1
    degree2: int = 1
    dimensions: int = 2
    at: tuple = None

    @classmethod
    def from_mapping(cls, mapping) -> "RunConfig":
        """Build and validate a RunConfig from a plain (JSON-shaped) dict."""
        if not isinstance(mapping, dict):
            raise ConfigError("the configuration root must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = set(mapping) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}; "
                              f"known keys: {sorted(known)}")
        cfg = cls()
        for key, value in mapping.items():
            setattr(cfg, key, value)
        cfg._validate()
        return cfg

    def _validate(self):
        for name in ("t_end", "dt", "seed", "samples", "degree1", "degree2",
                     "dimensions"):
            convert = _json_float if name in ("t_end", "dt") else _json_int
            try:
                setattr(self, name, convert(getattr(self, name)))
            except TypeError as err:
                raise ConfigError(f"malformed numeric config value for "
                                  f"{name!r}: {err}") from None
        for name in ("t_end", "dt"):
            value = getattr(self, name)
            if not 0 < value < np.inf:
                raise ConfigError(f"{name} must be positive and finite, got "
                                  f"{value!r}")
        if self.samples <= 0:
            raise ConfigError("samples must be positive")
        if self.dimensions < 1:
            raise ConfigError("dimensions must be at least 1")
        if {self.degree1, self.degree2} - {0, 1}:
            raise ConfigError("declared bracket degrees must be 0 or 1")
        if isinstance(self.monitors, str):
            self.monitors = tuple(s.strip() for s in self.monitors.split(",")
                                  if s.strip())
        self.monitors = tuple(self.monitors)
        bad = [m for m in self.monitors if m not in MONITOR_NAMES]
        if bad:
            raise ConfigError(f"unknown monitors {bad}; available: "
                              f"{', '.join(MONITOR_NAMES)}")
        twice = [m for k, m in enumerate(self.monitors)
                 if m in self.monitors[:k]]
        if twice:
            raise ConfigError(f"monitor {twice[0]!r} is listed twice")
        for name in ("initial", "at"):
            value, convert = getattr(self, name), _json_float
            if isinstance(value, str):      # comma text of --initial, --at
                value = [v for v in value.split(",") if v.strip()]
                convert = float
            if value is not None:
                value = _listed(value, name, convert, "numbers")
                if not np.isfinite(value).all():
                    raise ConfigError(f"{name} must be a list of finite "
                                      f"numbers, got {list(value)!r}")
                setattr(self, name, value)


# ---------------------------------------------------------------------------
# System and signal construction


def _phase_var_names(m: int) -> list:
    return [f"q{i}" for i in range(m)] + [f"p{i}" for i in range(m)]


def _compile(source: str, var_names, what: str) -> ScalarFn:
    if not isinstance(source, str):
        raise ConfigError(f"{what} expression must be a string, got {source!r}")
    try:
        return compile_fn(source, var_names, name=source)
    except ExprError as err:
        raise ConfigError(f"bad {what} expression {source!r}: {err}") from None


def _json_int(value) -> int:
    """``value`` if it is a JSON integer: an int that is not a bool."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"not an integer: {value!r}")
    return value


def _json_float(value) -> float:
    """``value`` as a float if it is a JSON number, not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"not a number: {value!r}")
    return float(value)


def _integer(value, what: str) -> int:
    try:
        return _json_int(value)
    except TypeError:
        raise ConfigError(f"{what} must be an integer, got {value!r}") from None


def _listed(value, what: str, convert=_json_int,
            kind="integer indices") -> tuple:
    """The items of the list ``value``, each through ``convert``; anything
    else is a config error naming ``what``."""
    try:
        if not isinstance(value, str):      # not one item per character
            return tuple(convert(v) for v in value)
    except (TypeError, ValueError):
        pass
    raise ConfigError(f"{what} must be a list of {kind}, got {value!r}")


def _build_custom_system(spec: dict) -> PortSystem:
    """Construct a PortSystem from expression strings in the config."""
    if not isinstance(spec, dict):
        raise ConfigError("custom system spec must be an object")
    for key in ("dimensions", "gf", "partition"):
        if key not in spec:
            raise ConfigError(f"custom system spec needs a {key!r} entry")
    m = _integer(spec["dimensions"], "dimensions")
    if m < 1:
        raise ConfigError("a system needs at least one coordinate")
    n = m - 1

    gf_spec = spec["gf"]
    if not isinstance(gf_spec, dict) or "expr" not in gf_spec:
        raise ConfigError("the gf entry must be an object with an 'expr'")
    chart = _integer(gf_spec.get("chart", 0), "gf 'chart'")
    J = tuple(sorted(_listed(gf_spec.get("J", ()), "gf 'J'")))
    I = tuple(sorted(_listed(gf_spec.get("I", [
        i for i in range(m) if i != chart and i not in J]), "gf 'I'")))
    q_homogeneous = gf_spec.get("q_homogeneous", False)
    if not isinstance(q_homogeneous, bool):
        raise ConfigError(f"gf 'q_homogeneous' must be true or false, got "
                          f"{q_homogeneous!r}")
    gf_vars = [f"q{i}" for i in I] + [f"gamma{j}" for j in J]
    Fhat = _compile(gf_spec["expr"], gf_vars, "generating-function")
    try:
        gf = GeneratingFunction(
            n=n, Fhat=Fhat, I=I, J=J, chart=chart,
            q_homogeneous=q_homogeneous, name=spec.get("name", "custom"))
    except ValueError as err:
        raise ConfigError(f"invalid generating function: {err}") from None

    partition = spec["partition"]
    if not isinstance(partition, dict):
        raise ConfigError("partition must be an object with "
                          "'energy' and 'entropy' index lists")
    energy = _listed(partition.get("energy", ()), "partition 'energy'")
    entropy = _listed(partition.get("entropy", ()), "partition 'entropy'")

    phase_vars = _phase_var_names(m)
    Ka = _compile(spec.get("Ka", "0"), phase_vars, "drift generator")
    Kc = tuple(_compile(src, phase_vars, "port generator")
               for src in _listed(spec.get("Kc", ()), "custom system 'Kc'",
                                  lambda src: src, "expressions"))
    initial = spec.get("initial")
    param_box = spec.get("param_box")
    if initial is not None:
        initial = _listed(initial, "custom system 'initial'", _json_float,
                          "numbers")
    if param_box is not None:
        param_box = _listed(
            param_box, "custom system 'param_box'",
            lambda pair: _listed(pair, "a param_box pair", _json_float,
                                 "numbers"),
            "[low, high] pairs")
    try:
        system = PortSystem(
            name=spec.get("name", "custom"), gf=gf, Ka=Ka, Kc=Kc,
            energy_indices=energy, entropy_indices=entropy,
            param_box=param_box)
        if initial is not None:     # its default_params, named by their key
            system.default_params = system.check_params(initial, "'initial'")
    except (TypeError, ValueError) as err:
        raise ConfigError(f"invalid custom system: {err}") from None
    return system


def _build_system(spec) -> PortSystem:
    if spec is None:
        raise ConfigError("no system specified; pass --system or a config "
                          "with a 'system' entry")
    if isinstance(spec, str):
        spec = {"name": spec}
    if not isinstance(spec, dict):
        raise ConfigError("system must be a name or an object")
    if "custom" in spec:
        return _build_custom_system(spec["custom"])
    name = spec.get("name")
    if not name:
        raise ConfigError("system object needs a 'name' or 'custom' entry")
    params = spec.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("system params must be an object of named values")
    try:
        system = builtin(name, **params)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"cannot construct system {name!r}: {err}") from None
    log.info("constructed system %s (%d coordinates, %d ports)",
             system.name, system.n_coords, system.n_ports)
    return system


def _make_signal(spec, n_ports: int) -> PortSignal:
    if spec is None:
        return PortSignal.zero(n_ports)
    if isinstance(spec, str):
        spec = {"kind": "expr", "exprs": [s.strip() for s in spec.split(";")]}
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("input must be an expression string or an object "
                          "with a 'kind' entry")
    kind = spec["kind"]
    if kind == "zero":
        return PortSignal.zero(n_ports)
    if n_ports == 0:
        raise ConfigError("the system has no ports; only a zero input applies")
    if kind == "constant":
        values = spec.get("values", spec.get("value"))
        if values is None:
            raise ConfigError("constant input needs 'values'")
        try:
            signal = PortSignal.constant(
                [_json_float(v) for v in values]
                if isinstance(values, (list, tuple)) else _json_float(values))
        except TypeError:
            raise ConfigError(f"constant input values must be numbers, got "
                              f"{values!r}") from None
        except ValueError as err:
            raise ConfigError(f"constant input {err}") from None
    elif kind == "sinusoid":
        if "amplitude" not in spec:
            raise ConfigError("sinusoid input needs an 'amplitude'")
        try:
            signal = PortSignal.sinusoid(
                _json_float(spec["amplitude"]),
                _json_float(spec.get("frequency", 1.0)),
                _json_float(spec.get("phase", 0.0)))
        except TypeError:
            raise ConfigError("sinusoid amplitude, frequency and phase must "
                              "be numbers") from None
        except ValueError as err:
            raise ConfigError(f"sinusoid input {err}") from None
    elif kind == "expr":
        sources = spec.get("exprs", [])
        if isinstance(sources, str):
            sources = [sources]
        if not (isinstance(sources, list)
                and all(isinstance(src, str) for src in sources)):
            raise ConfigError("input expressions must be a string or a list "
                              "of strings")
        if not sources:
            raise ConfigError("expression input needs 'exprs'")
        for src in sources:
            try:
                extra = free_names(parse(src)) - {"t"}
            except ExprError as err:
                raise ConfigError(f"bad input expression {src!r}: {err}") from None
            if extra:
                raise ConfigError(f"input expression {src!r} may only use "
                                  f"the time variable t; found {sorted(extra)}")
        signal = PortSignal.from_exprs(sources)
    else:
        raise ConfigError(f"unknown input kind {kind!r}; use zero, constant, "
                          f"sinusoid or expr")
    if signal.n_ports != n_ports:
        raise ConfigError(f"input supplies {signal.n_ports} channel(s) for a "
                          f"system with {n_ports} port(s)")
    return signal


# ---------------------------------------------------------------------------
# Output writers


# CSV rows formatted per write: the text in memory stays near 64 kB.
_CSV_CHUNK_ROWS = 256


def _write_text(path, text, what: str):
    """Write ``text``, a string or an iterable of strings, to the file at
    ``path``, or to stdout when ``path`` is None."""
    chunks = [text] if isinstance(text, str) else text
    if path is None:
        sys.stdout.writelines(chunks)
        return
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.writelines(chunks)
    log.info("wrote %s to %s", what, path)


def _write_csv(path, header, columns):
    """``columns`` of floats as CSV rows, each value its shortest ``repr``."""
    rows = len(columns[0])

    def chunks():
        yield ",".join(header) + "\n"
        for start in range(0, rows, _CSV_CHUNK_ROWS):
            chunk = [col[start:start + _CSV_CHUNK_ROWS].tolist()
                     for col in columns]
            yield "".join(",".join(map(repr, row)) + "\n"
                          for row in zip(*chunk))

    _write_text(path, chunks(), f"{rows} trajectory rows")


def _write_report(path, checks: dict):
    _write_text(path, json.dumps(checks, indent=2) + "\n", "report")


def _check(max_residual: float, tolerance: float) -> dict:
    return {"max_residual": float(max_residual), "tolerance": float(tolerance),
            "pass": bool(max_residual <= tolerance)}


def _report_exit(path, checks: dict) -> int:
    """Write the report; exit 1 if a check failed.

    Entries without a ``pass`` verdict (such as reduce's ``reduced_point``)
    carry data, not a check.
    """
    _write_report(path, checks)
    failed = [name for name, c in checks.items() if not c.get("pass", True)]
    if failed:
        log.error("failed checks: %s", ", ".join(failed))
        return 1
    return 0


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_simulate(cfg: RunConfig) -> int:
    if cfg.report is not None:
        raise ConfigError("simulate writes no report; its CSV goes to "
                          "'output'")
    system = _build_system(cfg.system)
    signal = _make_signal(cfg.input, system.n_ports)
    initial = None
    if cfg.initial is not None:
        try:
            initial = system.check_params(cfg.initial, "initial")
        except ValueError as err:
            raise ConfigError(str(err)) from None
    result = simulate(system, cfg.t_end, cfg.dt, u=signal,
                      params=initial, monitors=cfg.monitors)
    m = system.n_coords
    header = (["t"] + [f"q{i}" for i in range(m)] + [f"p{i}" for i in range(m)]
              + list(result.outputs) + list(cfg.monitors))
    columns = ([result.t] + list(result.x.T) + list(result.outputs.values())
               + [result.monitors[name] for name in cfg.monitors])
    _write_csv(cfg.output, header, columns)
    return 0


def _cmd_validate(cfg: RunConfig) -> int:
    system = _build_system(cfg.system)
    report = validate(system, n_samples=cfg.samples, seed=cfg.seed)
    return _report_exit(cfg.report, {
        name: _check(residual, tolerance)
        for name, (residual, tolerance) in report.checks().items()})


def _bracket_operands(cfg: RunConfig):
    if cfg.k1 is not None or cfg.k2 is not None:
        if not (cfg.k1 and cfg.k2):
            raise ConfigError("bracket needs both k1 and k2 expressions")
        phase_vars = _phase_var_names(cfg.dimensions)
        return (_compile(cfg.k1, phase_vars, "bracket operand"),
                _compile(cfg.k2, phase_vars, "bracket operand"),
                cfg.degree1, cfg.degree2)
    if cfg.system is not None:
        system = _build_system(cfg.system)
        if system.n_ports == 0:
            raise ConfigError("bracketing a system's generators needs at "
                              "least one port; pass k1/k2 instead")
        return system.Ka, system.Kc[0], 1, 1
    raise ConfigError("bracket needs k1/k2 expressions or a system")


def _cmd_bracket(cfg: RunConfig) -> int:
    K1, K2, deg1, deg2 = _bracket_operands(cfg)
    X = _phase_rows(K1.dim // 2, cfg.samples, cfg.seed)
    degree_report = _degree_rows(deg1, deg2, K1, K2, X)
    # {K1, K2} = -dK1(X_K2): the bracket against K1's derivative along the
    # canonical field of K2, a route that shares no dot product with it; the
    # points are one batch, and those where an operand is undefined or not
    # finite skipped

    def antisymmetry(rows):
        x = X[rows]
        value = _poisson_rows(K1, K2, x)
        along = _values_and_dirderivs(K1, x, phase_rhs(K2)(0.0, x))[1]
        return np.abs(value + along) / (1.0 + np.abs(value))

    antisym = np.max(_sample_rows(antisymmetry, len(X))[1], initial=0.0)
    checks = {
        "operand_degrees": _check(degree_report.max_input_residual, 1e-9),
        f"bracket_{degree_report.expected}": _check(
            degree_report.max_residual, 1e-9),
        "antisymmetry": _check(antisym, 1e-12),
    }
    return _report_exit(cfg.report, checks)


def _cmd_reduce(cfg: RunConfig) -> int:
    system = _build_system(cfg.system)
    gf = system.gf
    try:
        specific_form(gf)
    except ValueError as err:
        raise ConfigError(f"system {system.name!r} has no reduced form: "
                          f"{err}") from None
    if system.param_box is None:
        raise ConfigError(f"system {system.name!r} has no param_box to "
                          f"sample the surface from")
    params = _sample_surface_params(system, cfg.samples, cfg.seed)
    gd = gibbs_duhem_check(gf, params)
    checks = {
        "extensive_euler": _check(gd.max_qp_rel, 1e-10),
        "gibbs_duhem": _check(gd.max_beta, 1e-9),
        "scaling_tangency": _check(gd.max_w_membership, 1e-9),
    }
    if cfg.at is not None:
        try:
            point = reduced_point(gf, cfg.at)
        except _DOMAIN_ERRORS as err:
            raise ConfigError(f"cannot reduce at {list(cfg.at)}: {err}") from None
        checks["reduced_point"] = {"at": list(cfg.at),
                                   "point": [float(v) for v in point]}
    return _report_exit(cfg.report, checks)


def _cmd_flowcheck(cfg: RunConfig) -> int:
    system = _build_system(cfg.system)
    grid = []
    if system.default_params is not None:
        grid.append(system.default_params)
    if system.param_box is not None:
        grid.extend(_sample_surface_params(system,
                                           max(0, cfg.samples - len(grid)),
                                           cfg.seed))
    if not grid:
        raise ConfigError(f"system {system.name!r} has neither default "
                          f"parameters nor a param_box to sample")
    report = flow_transport_check(system.gf, system.Ka, cfg.t_end, grid,
                                  dt=cfg.dt)
    checks = {
        "alpha_on_tangents": _check(report.alpha_residual, 1e-6),
        "membership_drift": _check(report.membership_drift, 1e-6),
    }
    return _report_exit(cfg.report, checks)


def _cmd_list(cfg: RunConfig) -> int:
    lines = []
    for name, factory in sorted(BUILTIN_SYSTEMS.items()):
        system = factory()
        params = ", ".join(inspect.signature(factory).parameters)
        lines.append(f"{name}: {system.n_coords} coordinates, "
                     f"{system.n_ports} port(s); params: {params}")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "validate": _cmd_validate,
    "bracket": _cmd_bracket,
    "reduce": _cmd_reduce,
    "flowcheck": _cmd_flowcheck,
    "list": _cmd_list,
}


# ---------------------------------------------------------------------------
# Entry points


def _setup_logging():
    raw = os.environ.get("LTK_LOG", "warn").lower()
    level = _LOG_LEVELS.get(raw)
    if level is None:
        level = logging.WARNING
    logging.basicConfig(level=level, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    if raw not in _LOG_LEVELS and raw != "warn":
        log.warning("unknown LTK_LOG level %r; using warn "
                    "(choices: %s)", raw, ", ".join(_LOG_LEVELS))


def _load_config_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from None
    except json.JSONDecodeError as err:
        raise ConfigError(f"config file {path} is not valid JSON: "
                          f"line {err.lineno}: {err.msg}") from None


def _dispatch(cfg: RunConfig) -> int:
    handler = _COMMANDS.get(cfg.command)
    if handler is None:
        raise ConfigError(f"unknown command {cfg.command!r}; available: "
                          f"{', '.join(_COMMANDS)}")
    log.info("running %s", cfg.command)
    return handler(cfg)


def _fail(err: BaseException) -> int:
    if isinstance(err, ConfigError):
        print(f"ltk: config error: {err}", file=sys.stderr)
        return 2
    stamp = time.strftime("%Y-%m-%dT%H:%M:%S")
    print(f"ltk: [{stamp}] {type(err).__name__}: {err}", file=sys.stderr)
    return 1


def run(config_path: str) -> int:
    """Execute the run described by a JSON config file; returns the exit code.

    The file must carry a ``"command"`` entry naming the subcommand.  Exit
    codes follow the CLI: 0 success, 1 failed checks or aborted runs, 2
    configuration errors (including an unreadable file).
    """
    _setup_logging()
    try:
        cfg = RunConfig.from_mapping(_load_config_file(config_path))
        return _dispatch(cfg)
    except Exception as err:           # noqa: BLE001 - boundary of the CLI
        return _fail(err)


def _parse_param(text: str):
    if "=" not in text:
        raise argparse.ArgumentTypeError(
            f"parameters take the form name=value, got {text!r}")
    key, _, raw = text.partition("=")
    parts = raw.split(",")
    try:
        values = [float(v) for v in parts]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"parameter {key!r} needs a number or comma-separated numbers")
    return key.strip(), values[0] if len(values) == 1 else tuple(values)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="ltk",
        description="Simulate and check port-thermodynamic systems.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def command(name: str, about: str, system=True, report=True):
        # each subcommand takes only the options it reads
        p = sub.add_parser(name, help=about)
        p.add_argument("--config", help="JSON config file; flags override it")
        if system:
            p.add_argument("--system", help="built-in system name")
            p.add_argument("--param", action="append", type=_parse_param,
                           default=None, metavar="NAME=VALUE",
                           help="system parameter override (repeatable)")
        if report:
            p.add_argument("--seed", type=int, help="sampling seed")
            p.add_argument("--report",
                           help="JSON report path (default: stdout)")
        return p

    p = command("simulate", "integrate a system and write a CSV",
                report=False)
    p.add_argument("--u", help="input expression(s) in t, ';'-separated")
    p.add_argument("--t-end", type=float, help="integration end time")
    p.add_argument("--dt", type=float, help="integration step")
    p.add_argument("--initial", help="surface parameters, comma-separated")
    p.add_argument("--monitors", help="monitor names, comma-separated")
    p.add_argument("--output", help="CSV path (default: stdout)")

    p = command("validate", "check structural invariants")
    p.add_argument("--samples", type=int, help="number of surface samples")

    p = command("bracket", "bracket two generators and check degrees")
    p.add_argument("--k1", help="first operand expression over q<i>, p<i>")
    p.add_argument("--k2", help="second operand expression over q<i>, p<i>")
    p.add_argument("--degree1", type=int, help="declared fiber degree of k1")
    p.add_argument("--degree2", type=int, help="declared fiber degree of k2")
    p.add_argument("--dimensions", type=int,
                   help="number of extensive coordinates")
    p.add_argument("--samples", type=int, help="number of sample points")

    p = command("reduce", "check extensivity and reduce a surface")
    p.add_argument("--at", help="extensive values q1..qn, comma-separated")
    p.add_argument("--samples", type=int, help="number of surface samples")

    p = command("flowcheck", "transport the surface along the drift")
    p.add_argument("--t-end", type=float, help="transport time")
    p.add_argument("--dt", type=float, help="integration step")
    p.add_argument("--samples", type=int, help="number of surface members")

    command("list", "list built-in systems", system=False, report=False)
    return parser


def _merge_config(args: argparse.Namespace) -> RunConfig:
    mapping = {}
    if getattr(args, "config", None):
        mapping = _load_config_file(args.config)
        if not isinstance(mapping, dict):
            raise ConfigError("the configuration root must be a JSON object")
        mapping = dict(mapping)
    mapping["command"] = args.command

    plain = [f.name for f in fields(RunConfig)
             if f.name not in ("command", "system", "input")]
    for key in plain:
        value = getattr(args, key, None)
        if value is not None:
            mapping[key] = value

    if getattr(args, "u", None) is not None:
        mapping["input"] = args.u
    params = dict(getattr(args, "param", None) or ())
    if getattr(args, "system", None) is not None:
        mapping["system"] = {"name": args.system, "params": params}
    elif params:
        spec = mapping.get("system")
        if isinstance(spec, str):
            spec = {"name": spec}
        if not isinstance(spec, dict) or "name" not in spec:
            raise ConfigError("--param overrides need a named built-in system")
        # a flag overrides the config's value under either spelling
        full = {_PARAM_ALIASES.get(k, k) for k in params}
        merged = {k: v for k, v in dict(spec.get("params", {})).items()
                  if _PARAM_ALIASES.get(k, k) not in full}
        merged.update(params)
        spec = dict(spec)
        spec["params"] = merged
        mapping["system"] = spec
    return RunConfig.from_mapping(mapping)


def main(argv=None) -> int:
    """The ``ltk`` console entry point; returns the process exit code."""
    _setup_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge_config(args)
        return _dispatch(cfg)
    except Exception as err:           # noqa: BLE001 - boundary of the CLI
        return _fail(err)


if __name__ == "__main__":
    sys.exit(main())
