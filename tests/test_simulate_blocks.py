"""simulate records its channels a block of grid points at a time; these
tests hold it to a reference loop that records one point at a time, right
after reaching it, bit for bit (``float.hex``), including which error an
aborted run raises and at what time.

The reference loop is simulate as it ran point by point: the membership
guard, then each port's u, y_p and y_e, then the monitors in the order
asked for, each from the single-point API.
"""

import contextlib

import numpy as np
import pytest
from test_diffkit import SYSTEMS, _hex

from ltk import dynamics
from ltk.diffkit import ScalarFn, grad, ln, sqrt
from ltk.dynamics import MONITOR_BLOCK, rk4_step
from ltk.geometry import PhasePoint, euler_residual
from ltk.portsys import (MEMBERSHIP_ABORT, MONITOR_NAMES, PortSignal,
                         PortSystem, heat_compartment, simulate)
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
            for k in range(system.n_ports):
                row[f"u{k + 1}"] = u(t)[k]
                row[f"y_p{k + 1}"] = float(system.y_p[k](x))
                row[f"y_e{k + 1}"] = float(system.y_e[k](x))
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
        steps = []

        def counted(*step):
            steps.append(None)
            return rk4_step(*step)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dynamics, "rk4_step", counted)
            with pytest.raises(RuntimeError):
                simulate(system, *args, **kwargs)
        return len(steps)

    return system, steps_to_abort


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


@pytest.mark.parametrize("y_p_limit, message", [
    (0.5, "sqrt requires a nonnegative argument"),
    (0.3, "ln requires a positive argument")])
def test_channel_domain_errors_come_in_point_order(y_p_limit, message,
                                                   monkeypatch):
    # y_e is undefined past S = 0.3, and y_p past S = 0.5 or, like y_e, past
    # S = 0.3: point by point, the first point past 0.3 raises y_e's error,
    # or y_p's where both fail there, as y_p comes first at every point;
    # with S = ln(1 + t) every failure falls within the first block
    monkeypatch.setattr(dynamics, "MONITOR_BLOCK", 32)
    hc = heat_compartment()
    system = PortSystem(
        name="fragile outputs", gf=hc.gf, Ka=hc.Ka, Kc=hc.Kc,
        energy_indices=(0,), entropy_indices=(1,),
        y_p=(ScalarFn(lambda x: ln(y_p_limit - x[1]), 4),),
        y_e=(ScalarFn(lambda x: sqrt(0.3 - x[1]), 4),),
        default_params=hc.default_params)
    err = _assert_same_error(system, 2.0, 5e-2, u=PortSignal.constant([1.0]))
    assert isinstance(err, ValueError)
    assert str(err) == f"simulation of 'fragile outputs': {message} at t=0.35"
