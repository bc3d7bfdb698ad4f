"""simulate records its channels a block of grid points at a time; these
tests hold it to a reference loop that records one point at a time, right
after reaching it, bit for bit (``float.hex``), including which error an
aborted run raises and at what time.  Its block runner, which steps the
state a block at a time with the field inlined at each stage, is held to
the reference loop and to the list step: the numpy step with each stage
the canonical field of a call of the one-stage kernel, the traced
gradient sum, on the state as a list of floats, and of grad's scalar loop
at a stage where the kernel raises, with the same errors and recorded
points; the blocks the runner reruns on the vector pass are the blocks
of those stages.

The reference loop is simulate as it ran point by point: the membership
guard, then each port's u, y_p and y_e, then the monitors in the order
asked for, each from the single-point API.
"""

import contextlib
import json
import logging
from pathlib import Path

import numpy as np
import pytest
from conftest import TracedGradient, port_flow
from test_diffkit import SYSTEMS, TWIN_DEFAULTS, _hex

from ltk import dynamics, portsys, tracegrad
from ltk.diffkit import ScalarFn, grad, ln, sqrt
from ltk.dynamics import MONITOR_BLOCK, integrate, rk4_step
from ltk.exprlang import compile_fn
from ltk.geometry import PhasePoint, euler_residual
from ltk.portsys import (BUILTIN_SYSTEMS, MEMBERSHIP_ABORT, MONITOR_NAMES,
                         PortSignal, PortSystem,
                         _sample_surface_params, gas_piston_damper,
                         heat_compartment, heat_exchanger, simulate)
from ltk.submanifold import liouville_point, membership_norm

SMALL_BLOCK = 8


def _reference(system, t_end, dt, u=None, params=None, monitors=(),
               membership_tol=MEMBERSHIP_ABORT):
    """simulate recording each grid point as soon as it is reached."""
    u = u or PortSignal.zero(system.n_ports)
    params = system.default_params if params is None else params
    m = system.n_coords

    def total(uv, of):
        acc = of(system.Ka)
        for k, K in enumerate(system.Kc):
            if uv[k] != 0.0:
                acc = acc + uv[k] * of(K)
        return acc

    def field(t, x):
        g = total(u(t), lambda K: grad(K, x))
        return np.concatenate([g[m:], -g[:m]])

    def point(t, x):
        with _where(f"at t={t:g}"):
            res = membership_norm(system.gf, x)
        if res > membership_tol:
            raise RuntimeError(f"left the state surface at t={t:g}: membership "
                               f"residual {res:.3g} exceeds {membership_tol:g}")
        row = {"membership": res}
        with _where(f"at t={t:g}"):
            for k, K in enumerate(system.Kc):
                row[f"u{k + 1}"] = u(t)[k]
                row[f"y_p{k + 1}"] = port_flow(K, x, m, system.energy_indices)
                row[f"y_e{k + 1}"] = port_flow(K, x, m, system.entropy_indices)
            pt = PhasePoint(x[:m], x[m:])
            for name in monitors:
                if name == "K_res":
                    row[name] = abs(total(u(t), lambda K: float(K(x))))
                elif name == "alpha_res":
                    row[name] = abs(total(u(t),
                                          lambda K: euler_residual(K, pt, 1)))
                elif name in ("E_total", "S_total"):
                    indices = (system.energy_indices if name == "E_total"
                               else system.entropy_indices)
                    row[name] = float(sum(x[i] for i in indices))
        return row

    x = liouville_point(system.gf, params).packed()
    ts, xs, rows = [], [], []
    try:
        for i in range(round(t_end / dt) + 1):
            if i:
                with _where(f"in the step from t={(i - 1) * dt:g}"):
                    x = rk4_step(field, (i - 1) * dt, x, dt)
                if not np.isfinite(x).all():
                    raise RuntimeError(f"integration produced a non-finite "
                                       f"state at t={i * dt:g} (step {i})")
            rows.append(point(i * dt, x))
            ts.append(i * dt)
            xs.append(x)
    except RuntimeError as err:
        raise RuntimeError(f"simulation of {system.name!r}: {err}") from err
    except Exception as err:
        err.args = (f"simulation of {system.name!r}: {err}",)
        raise
    return np.array(ts), np.array(xs), rows


@contextlib.contextmanager
def _where(place):
    """Append ``place`` to the message of an error raised inside, keeping
    its type, as simulate names the step or point of a failure."""
    try:
        yield
    except Exception as err:
        err.args = (f"{err} {place}",)
        raise


def _assert_matches_reference(system, steps, dt, **kwargs):
    result = simulate(system, steps * dt, dt, **kwargs)
    t, x, rows = _reference(system, steps * dt, dt, **kwargs)
    assert _hex(result.t) == _hex(t)
    assert _hex(result.x) == _hex(x)
    recorded = dict(result.outputs, **result.monitors)
    for k in range(system.n_ports):
        recorded[f"u{k + 1}"] = result.u[:, k]
    for name, values in recorded.items():
        assert _hex(values) == _hex([row[name] for row in rows]), name
    return result


def _assert_same_error(system, t_end, dt, **kwargs):
    with pytest.raises(Exception) as reference:
        _reference(system, t_end, dt, **kwargs)
    with pytest.raises(Exception) as blocked:
        simulate(system, t_end, dt, **kwargs)
    assert type(blocked.value) is type(reference.value)
    assert str(blocked.value) == str(reference.value)
    return blocked.value


def _intermittent(t):
    return [0.0 if round(t / 1e-2) % 3 == 0 else 0.2]


CASES = {
    "piston, forced": lambda: (SYSTEMS["piston"](), dict(
        u=PortSignal.sinusoid(0.1, 1.0), monitors=MONITOR_NAMES)),
    "piston, unforced": lambda: (SYSTEMS["piston"](), dict(
        monitors=("K_res", "membership"))),
    "piston, input zero at every third point": lambda: (SYSTEMS["piston"](), dict(
        u=PortSignal(_intermittent, 1), monitors=("alpha_res", "K_res"))),
    "exchanger": lambda: (SYSTEMS["exchanger"](), dict(
        params=(np.log(2.0), 0.0, -1.0, -1.0), monitors=MONITOR_NAMES)),
    "compartment": lambda: (heat_compartment(), dict(
        u=PortSignal.constant([0.3]), monitors=MONITOR_NAMES)),
    "expression piston": lambda: (SYSTEMS["expression piston"](), dict(
        u=PortSignal.from_exprs(["0.2*sin(3*t)"]), params=(0.0, 1.0, 0.0, -1.0),
        monitors=("K_res", "alpha_res", "E_total", "S_total"))),
    "expression compartment": lambda: (SYSTEMS["expression compartment"](), dict(
        u=PortSignal.constant([0.4]), params=(0.0, -1.0),
        monitors=("E_total", "membership", "alpha_res"))),
}


@pytest.mark.parametrize("steps", [SMALL_BLOCK - 1, SMALL_BLOCK, SMALL_BLOCK + 1,
                                   2 * SMALL_BLOCK + 1])
@pytest.mark.parametrize("case", sorted(CASES))
def test_blocks_match_the_point_by_point_recording(case, steps, monkeypatch):
    monkeypatch.setattr(dynamics, "MONITOR_BLOCK", SMALL_BLOCK)
    system, kwargs = CASES[case]()
    _assert_matches_reference(system, steps, 1e-2, **kwargs)


def test_full_size_blocks_match_the_point_by_point_recording():
    system, kwargs = CASES["piston, forced"]()
    _assert_matches_reference(system, 2 * MONITOR_BLOCK + 1, 1e-3, **kwargs)


def _input_reads(steps, dt):
    """The times at which a run of ``steps`` steps reads its input, in
    order; the stage times t, t + h and t + dt of each step, in order; and
    its grid times."""
    calls = []

    def logged(t):
        calls.append(t)
        return [0.3]

    result = simulate(heat_compartment(), steps * dt, dt,
                      u=PortSignal(logged, 1))
    stages = [i * dt + h for i in range(steps) for h in (0.0, dt / 2.0, dt)]
    return calls, stages, result.t.tolist()


def test_the_runner_reads_the_input_at_t_t_plus_h_and_t_plus_dt_in_order(
        monkeypatch):
    # k3 takes k2's read at the half-step time; the recording, one block
    # after the run, reads each grid time once; the vector pass reads at
    # the same times, the half-step time twice, for k2 and k3
    steps, dt = 21, 1e-2
    calls, stages, grid = _input_reads(steps, dt)
    assert calls == stages + grid
    monkeypatch.setattr(tracegrad._Trace, "record",
                        lambda trace, K: (None, "untraced"))
    vector, _, _ = _input_reads(steps, dt)
    assert vector == [t for i in range(steps) for t in (
        stages[3 * i], stages[3 * i + 1], stages[3 * i + 1],
        stages[3 * i + 2])] + grid


@pytest.mark.parametrize("name", ["heat_exchanger", "closed piston"])
def test_a_system_without_ports_reads_its_input_once_per_grid_time(
        name, monkeypatch):
    # its stages read no input, so the recording's one read per grid point
    # is all; a signal that raises raises from the recording at t=0
    piston = gas_piston_damper()
    system = heat_exchanger() if name == "heat_exchanger" else PortSystem(
        name=name, gf=piston.gf, Ka=piston.Ka, energy_indices=(0,),
        entropy_indices=(1,), default_params=piston.default_params)
    calls = []

    def logged(t):
        calls.append(t)
        return []

    sources, original = [], tracegrad._code
    monkeypatch.setattr(tracegrad, "_code", lambda source: (
        sources.append(source), original(source))[1])
    result = simulate(system, 3.0, 1e-3, u=PortSignal(logged, 0))
    assert len(calls) == 3001
    assert calls == result.t.tolist()
    # the runner neither reads the inputs nor computes a step's time
    runner, = [s for s in sources if s.startswith("def run(")]
    assert "_read" not in runner
    assert not [line for line in runner.splitlines()
                if line.strip().startswith("t =")]

    def broken(t):
        raise ValueError("no signal")

    with pytest.raises(ValueError, match=rf"^simulation of '{name}': no "
                                         r"signal at t=0$"):
        simulate(system, 0.1, 1e-2, u=PortSignal(broken, 0))


def test_a_nan_membership_residual_leaves_the_surface_at_t0(monkeypatch):
    # NaN is not at most the tolerance, so the guard stops at the first
    # point
    monkeypatch.setattr(portsys, "_membership_rows",
                        lambda gf, X: np.full(len(X), np.nan))
    with pytest.raises(RuntimeError, match=r"^simulation of "
                       r"'heat_compartment': left the state surface at t=0: "
                       r"membership residual nan exceeds 1e-05$"):
        simulate(heat_compartment(), 0.05, 1e-2)


def test_a_forced_runner_reads_its_input_three_times_a_step(monkeypatch):
    sources, original = [], tracegrad._code
    monkeypatch.setattr(tracegrad, "_code", lambda source: (
        sources.append(source), original(source))[1])
    simulate(gas_piston_damper(), 0.1, 1e-2, u=PortSignal.sinusoid(0.1, 1.0))
    runner, = [s for s in sources if s.startswith("def run(")]
    reads = [line.strip() for line in runner.splitlines() if "_read" in line]
    assert reads == ["u = _read(t)", "u = _read(t + h)", "u = _read(t + dt)"]


def test_a_field_shape_assembles_its_runner_source_once():
    # a runner's source names the run's constants, so two runs of the forced
    # piston from different surface points share one assembly
    dynamics._runner_source.cache_clear()
    piston = gas_piston_damper()
    for params in _sample_surface_params(piston, 2, 4):
        simulate(piston, 0.05, 1e-2, u=PortSignal.sinusoid(0.1, 1.0),
                 params=params)
    info = dynamics._runner_source.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_the_recording_reads_each_grid_time_once_across_blocks(monkeypatch):
    # the steps 1-7, 8-15 and 16-21 each read their stage times, then the
    # recording reads the grid times of their block, each once
    monkeypatch.setattr(dynamics, "MONITOR_BLOCK", SMALL_BLOCK)
    calls, stages, grid = _input_reads(21, 1e-2)
    assert calls == (stages[:3 * 7] + grid[:8] + stages[3 * 7:3 * 15]
                     + grid[8:16] + stages[3 * 15:] + grid[16:])


# -- aborted runs ------------------------------------------------------------------


def _closed(name, Ka):
    """A closed system on the heat compartment's surface with drift ``Ka``,
    and a function that runs ``simulate`` on it to its abort and returns
    the RK4 steps it took, the failing one included."""
    hc = heat_compartment()
    system = PortSystem(name=name, gf=hc.gf, Ka=ScalarFn(Ka, 4),
                        energy_indices=(0,), entropy_indices=(1,),
                        default_params=hc.default_params)

    def steps_to_abort(*args, **kwargs):
        with pytest.MonkeyPatch.context() as patch:
            steps = _runner_steps(patch)
            with pytest.raises(RuntimeError):
                simulate(system, *args, **kwargs)
        return len(steps)

    return system, steps_to_abort


def _runner_steps(monkeypatch) -> list:
    """One entry per RK4 step that the block runners built from now on
    take, a step that raises included; a block whose last state is not
    finite counts each of its steps and one more."""
    steps, original = [], dynamics._PhaseField.runner

    def built(field, x):
        run = original(field, x)
        if run is None:
            return None

        def counted(x, i0, i1, dt, out):
            try:
                return run(x, i0, i1, dt, out)
            except Exception:
                steps.append(None)
                raise
            finally:
                steps.extend([None] * len(out))
        return counted

    monkeypatch.setattr(dynamics._PhaseField, "runner", built)
    return steps


@pytest.mark.parametrize("tol, block_rows", [(MEMBERSHIP_ABORT, range(0, 8)),
                                              (0.2, range(16, 24))])
def test_guard_abort_reports_the_first_point_off_the_surface(tol, block_rows,
                                                             monkeypatch):
    # K = p1 raises the entropy without touching the energy, so the
    # membership residual |1 - exp(S)| grows from 0 with S = t
    monkeypatch.setattr(dynamics, "MONITOR_BLOCK", SMALL_BLOCK)
    drifter, steps_to_abort = _closed("drifter", lambda x: x[3])
    err = _assert_same_error(drifter, 1.0, 1e-2, membership_tol=tol)
    assert "left the state surface" in str(err)
    t = float(str(err).split("t=")[1].split(":")[0])
    assert round(t / 1e-2) in block_rows
    # the run went on to the end of the block, and no further
    assert steps_to_abort(1.0, 1e-2, membership_tol=tol) == block_rows[-1]


@pytest.mark.parametrize("kind", ["raises", "non-finite"])
def test_a_failing_step_after_leaving_the_surface_reports_the_guard(kind):
    # past S = 0.1 the drift raises or its rate is infinite, after the guard
    # tripped near S = 0.03, within the same block
    def Ka(x):
        if x[1] >= 0.1:
            if kind == "raises":
                raise ValueError("drift undefined past S = 0.1")
            return x[3] * float("inf")
        return x[3]

    system, steps_to_abort = _closed("fragile", Ka)
    err = _assert_same_error(system, 1.0, 1e-2, membership_tol=0.03)
    assert "left the state surface at t=0.03:" in str(err)
    # S = t reaches 0.1 in the tenth step, and the run stops there
    assert steps_to_abort(1.0, 1e-2, membership_tol=0.03) <= 11


def test_a_failing_step_inside_the_surface_raises_its_own_error():
    def u(t):
        if t > 0.3:
            raise ValueError(f"no input after t={t:g}")
        return [0.5]

    err = _assert_same_error(heat_compartment(), 1.0, 1e-2,
                             u=PortSignal(u, 1))
    assert str(err) == ("simulation of 'heat_compartment': no input after "
                        "t=0.305 in the step from t=0.3")


@pytest.mark.parametrize("array", [np.array, list])
def test_an_input_of_the_wrong_size_fails_its_stage(array):
    # the field reads u as a list, with PortSignal's size check: two values
    # at each half-step time, first asked for by the first step's k2
    def u(t):
        return array([0.5, 0.0] if round(t / 5e-3) % 2 else [0.5])

    err = _assert_same_error(heat_compartment(), 1.0, 1e-2,
                             u=PortSignal(u, 1))
    assert str(err) == ("simulation of 'heat_compartment': signal produced 2 "
                        "values for 1 ports in the step from t=0")


@pytest.mark.parametrize("limit, message", [
    (0.5, "sqrt requires a nonnegative argument"),
    (0.3, "ln requires a positive argument")])
def test_channel_domain_errors_come_in_point_order(limit, message,
                                                   monkeypatch):
    # port 1 heats; ports 2 and 3 take no input, so no step evaluates them.
    # Port 3's outputs are undefined past S = 0.3, and port 2's past S =
    # 0.5 or, like port 3's, past S = 0.3: point by point, the first point
    # past 0.3 raises port 3's error, or port 2's where both fail there, as
    # port 2's outputs come first at every point; with S = ln(1 + t) every
    # failure falls within the first block
    monkeypatch.setattr(dynamics, "MONITOR_BLOCK", 32)
    hc = heat_compartment()
    system = PortSystem(
        name="fragile outputs", gf=hc.gf, Ka=hc.Ka,
        Kc=(hc.Kc[0], ScalarFn(lambda x: x[2] * ln(limit - x[1]), 4),
            ScalarFn(lambda x: x[3] * sqrt(0.3 - x[1]), 4)),
        energy_indices=(0,), entropy_indices=(1,),
        default_params=hc.default_params)
    err = _assert_same_error(system, 2.0, 5e-2,
                             u=PortSignal.constant([1.0, 0.0, 0.0]))
    assert isinstance(err, ValueError)
    assert str(err) == f"simulation of 'fragile outputs': {message} at t=0.35"


# -- the block runner --------------------------------------------------------------

SPEC = Path(__file__).resolve().parents[1] / "perfbench" / "spec.json"
TEMPLATES = json.loads(SPEC.read_text())["expr_templates"]
# the input kinds of the benchmark, one port each
INPUTS = dict({
    "zero": lambda: PortSignal.zero(1),
    "constant": lambda: PortSignal.constant([0.3]),
    "sinusoid": lambda: PortSignal.sinusoid(0.1, 1.0)}, **{
    f"expr {i}": lambda template=template: PortSignal.from_exprs(
        [template.format(a="0.2", w="3.0", tau="2.0", b="0.1")])
    for i, template in enumerate(TEMPLATES)})
RUNNER_SYSTEMS = dict(BUILTIN_SYSTEMS, **{
    name: SYSTEMS[name] for name in ("expression piston",
                                     "expression compartment")})
RUNNER_CASES = [(name, kind) for name in sorted(RUNNER_SYSTEMS)
                for kind in INPUTS
                if RUNNER_SYSTEMS[name]().n_ports or kind == "zero"]


def _list_route(system, params, u, t_end, dt, monitors=()):
    """``integrate`` of simulate's field through the list step, in numpy,
    each stage the canonical field of a call of the one-stage kernel on
    the state as a list, with the inputs of a system with ports read at
    each stage; also the
    :class:`~conftest.TracedGradient` it calls."""
    x0 = liouville_point(system.gf, params).packed()
    listed = TracedGradient(system.Ka, system.Kc, x0)
    field = listed.field(u._floats if system.n_ports else None)
    return integrate(field, x0, t_end, dt, monitors), listed


def _rerun_line(caplog) -> str:
    """The INFO line of the blocks the last run reran."""
    return [r.getMessage() for r in caplog.records
            if ": blocks rerun on the vector pass: " in r.getMessage()][-1]


@pytest.mark.parametrize("name, kind", RUNNER_CASES)
def test_the_runner_steps_as_the_list_step_bit_for_bit(name, kind,
                                                      monkeypatch, caplog):
    # runs that end within the first block, at its end, just after it and
    # in the third block, each also against the reference loop, and a run
    # of full-size blocks
    system = RUNNER_SYSTEMS[name]()
    params = TWIN_DEFAULTS.get(name, system.default_params)
    u = INPUTS[kind]() if system.n_ports else PortSignal.zero(0)
    runs = [(steps, 1e-2, SMALL_BLOCK) for steps in (
        SMALL_BLOCK - 1, SMALL_BLOCK, SMALL_BLOCK + 1, 2 * SMALL_BLOCK + 1)]
    for steps, dt, block in runs + [(2 * MONITOR_BLOCK + 1, 1e-3,
                                     MONITOR_BLOCK)]:
        monkeypatch.setattr(dynamics, "MONITOR_BLOCK", block)
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="ltk"):
            result = simulate(system, steps * dt, dt, u=u, params=params)
        stepped, listed = _list_route(system, params, u, steps * dt, dt)
        assert np.array_equal(result.x, stepped.x), steps
        assert listed.handed == 0
        assert _rerun_line(caplog) == (f"simulate {system.name!r}: blocks "
                                       f"rerun on the vector pass: 0")
        if block == SMALL_BLOCK:
            x = _reference(system, steps * dt, dt, u=u, params=params)[1]
            assert np.array_equal(result.x, x), steps


@pytest.mark.parametrize("name", ["gas_piston_damper", "heat_compartment"])
def test_simulates_field_called_is_its_traced_kernel_bit_for_bit(name):
    # called, the forced field is grad(Ka) plus u_k * grad(Kc_k) for each
    # input that is not 0.0 (the sinusoid's at t = 0), as its trace adds
    # them, for a state and for a batch
    system = BUILTIN_SYSTEMS[name]()
    X = np.array([liouville_point(system.gf, p).packed()
                  for p in _sample_surface_params(system, 4, 4)])
    listed = TracedGradient(system.Ka, system.Kc, X[0])
    read = INPUTS["sinusoid"]()._floats
    field = dynamics._PhaseField(system.Ka, system.Kc, read)
    for t in (0.0, 0.7):
        expected = [dynamics._canonical(np.array(listed(x, read(t))))
                    for x in X.tolist()]
        assert _hex([field(t, x) for x in X]) == _hex(expected)
        assert _hex(field(t, X)) == _hex(expected)
    assert listed.handed == 0


def test_a_guard_that_flips_mid_block_hands_back_as_the_list_step(
        monkeypatch, caplog):
    # the drift doubles while the piston momentum exceeds 0.35; the runner
    # reruns on the vector pass each block in which the list step hands a
    # stage to grad, with its bits
    monkeypatch.setattr(dynamics, "MONITOR_BLOCK", SMALL_BLOCK)
    piston = gas_piston_damper()
    Ka = piston.Ka
    system = PortSystem(
        name="switching piston", gf=piston.gf,
        Ka=ScalarFn(lambda x: Ka(x) * 2.0 if x[3] > 0.35 else Ka(x), 8,
                    name="switching drift"), Kc=piston.Kc,
        energy_indices=(0,), entropy_indices=(1,))
    params, u = (0.0, 1.0, 0.3, -1.0), PortSignal.sinusoid(0.2, 1.0)
    with caplog.at_level(logging.INFO, logger="ltk"):
        result = simulate(system, 1.0, 1e-2, u=u, params=params)
    stepped, listed = _list_route(system, params, u, 1.0, 1e-2)
    assert np.array_equal(result.x, stepped.x)
    assert (result.q[:, 3] > 0.35).any() and (result.q[:, 3] <= 0.35).any()
    assert listed.handed > 0 and listed.rerun_blocks(SMALL_BLOCK)
    assert _rerun_line(caplog) == listed.rerun_line(
        "simulate 'switching piston'", SMALL_BLOCK, 1e-2)


def _raising_compartment():
    """The heat compartment with a drift whose ln(0.3 - S) is undefined
    from S = 0.3 on, which the input reaches in the step from t = 0.3."""
    hc = heat_compartment()
    return PortSystem(
        name="compartment", gf=hc.gf,
        Ka=compile_fn("0 * ln(0.3 - q1) * p1", ["q0", "q1", "p0", "p1"]),
        Kc=hc.Kc, energy_indices=(0,), entropy_indices=(1,),
        default_params=hc.default_params)


def _inf_drift_compartment():
    """The heat compartment with a drift whose rate is infinite from
    S = 0.1 on."""
    hc = heat_compartment()

    def Ka(x):
        return x[3] * float("inf") if x[1] >= 0.1 else x[3] * 0.0

    return PortSystem(name="blow-up", gf=hc.gf, Ka=ScalarFn(Ka, 4), Kc=hc.Kc,
                      energy_indices=(0,), entropy_indices=(1,),
                      default_params=hc.default_params)


@pytest.mark.parametrize("make, dt, message", [
    (_raising_compartment, 2.5e-2, "ln requires a positive argument in "
                                   "'ln(0.3-q1)' in the step from t=0.325"),
    (_inf_drift_compartment, 1e-2, "integration produced a non-finite state "
                                   "at t=0.11 (step 11)")])
def test_a_step_that_fails_mid_block_fails_as_the_list_step(make, dt, message,
                                                            monkeypatch):
    # the failing step lies inside the second block: both routes raise the
    # same error, naming the same step, after recording the same points,
    # and simulate raises it as the point-by-point reference does
    monkeypatch.setattr(dynamics, "MONITOR_BLOCK", SMALL_BLOCK)
    system, u = make(), PortSignal.constant([1.0])
    x0 = liouville_point(system.gf, system.default_params).packed()
    errors, seen = [], []

    def monitor(t, X):
        seen[-1].append((t.tolist(), X.tolist()))
        return X[:, 0]

    for route in ("runner", "list step"):
        seen.append([])
        with pytest.raises(Exception) as err:
            if route == "runner":
                field = dynamics._PhaseField(system.Ka, system.Kc,
                                             u._floats, "test")
                integrate(field, x0, 2.0, dt, [("x", monitor)])
            else:
                _list_route(system, system.default_params, u, 2.0, dt,
                            [("x", monitor)])
        errors.append((type(err.value), str(err.value)))
    assert errors[0] == errors[1]
    assert errors[0][1].endswith(message)
    assert seen[0] == seen[1]
    points = len(sum((t for t, _ in seen[0]), []))
    assert SMALL_BLOCK < points < 2 * SMALL_BLOCK
    assert str(_assert_same_error(system, 2.0, dt, u=u)).endswith(message)
