"""simulate's field is one kernel of straight-line code traced from the
generators; these tests hold each generator's traced code to the scalar
``grad`` loop bit for bit (``float.hex``), to ``fd_grad`` as the
independent oracle, and hold the points at which the code raises (a guard
that flips, a domain error), which a run computes on the vector pass, and
the fields with a generator the trace cannot record, which run on the
vector pass throughout, to the scalar loop's results and errors.
"""

import ast
import logging
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import TracedGradient, hessian_stage, one_stage
from hypothesis import given, settings
from hypothesis import strategies as st
from test_diffkit import SYSTEMS, TWIN_DEFAULTS, _hex
from test_simulate_blocks import (INPUTS, _assert_matches_reference,
                                  _assert_same_error, _reference)

import ltk
from ltk import dynamics, tracegrad
from ltk.diffkit import Dual, ScalarFn, cos, exp, fd_grad, grad, ln, sin, sqrt
from ltk.exprlang import ExprEvalError, compile_fn
from ltk.geometry import sample_phase_points
from ltk.portsys import (BUILTIN_SYSTEMS, MONITOR_NAMES, PortSignal,
                         PortSystem, _sample_surface_params,
                         gas_piston_damper, heat_compartment, heat_exchanger,
                         simulate)
from ltk.submanifold import lift_phase_fn, liouville_point
from ltk.tracegrad import FieldCode

GENERATOR_SYSTEMS = dict(
    {name: factory for name, factory in BUILTIN_SYSTEMS.items()},
    **{name: SYSTEMS[name] for name in ("expression piston",
                                        "expression compartment")})


def _replay(K: ScalarFn, x) -> TracedGradient:
    """K's gradient as field code traced at x, with no ports, handing the
    points its kernel raises at to grad, and counting them."""
    replay = TracedGradient(K, (), x)
    assert replay.code.reason is None, replay.code.reason
    return replay


def _scalar(K: ScalarFn, x):
    """``grad(K, x)``, or the error it raises."""
    try:
        return grad(K, x)
    except Exception as err:   # noqa: BLE001 - compared by the caller
        return err


def _assert_replays_the_scalar_loop(K, replay, points):
    """At each point the kernel returns grad's partials bit for bit or
    raises grad's error; returns the number of points its traced code
    took, not handing them to grad."""
    replayed = 0
    for x in points:
        expected = _scalar(K, x)
        before = replay.handed
        try:
            got = replay(x)
        except Exception as err:   # noqa: BLE001 - compared below
            got = err
        if isinstance(expected, Exception):
            assert type(got) is type(expected), (x, got)
            assert str(got) == str(expected), x
        else:
            assert _hex(got) == _hex(expected), x
        replayed += replay.handed == before
    return replayed


# -- bit identity and the oracle ------------------------------------------------


@pytest.mark.parametrize("name", sorted(GENERATOR_SYSTEMS))
def test_replays_are_the_scalar_gradients_bit_for_bit(name):
    system = GENERATOR_SYSTEMS[name]()
    surface = [liouville_point(system.gf, p).packed()
               for p in _sample_surface_params(system, 150, 5)]
    generic = [pt.packed() for pt in
               sample_phase_points(system.n_coords, 50, 8)]
    for K in (system.Ka,) + tuple(system.Kc):
        replay = _replay(K, surface[0])
        # no surface point is handed to grad, and generic points agree too
        assert _assert_replays_the_scalar_loop(K, replay, surface) == \
            len(surface), K.name
        _assert_replays_the_scalar_loop(K, replay, generic)
        for x in surface[:40]:
            np.testing.assert_allclose(replay(x), fd_grad(K, x),
                                       rtol=1e-6, atol=1e-6)


# Terms of perfbench's bracket operands (perfbench/spec.json bracket_terms).
Q_FACTORS = ("1", "q{i}", "exp({c}*q{i})", "q{i}*q{j}", "sin(q{i})")
P_FACTORS = ("p{i}", "p{i}*p{j}/p{k}", "sqrt(p{i}*p{i} + p{j}*p{j})", "1",
             "p{i}/p{j}")


@st.composite
def bracket_generators(draw):
    m = draw(st.integers(2, 4))
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, m - 1))
        idx = {"i": i, "j": (i + draw(st.integers(1, m - 1))) % m,
               "k": draw(st.integers(0, m - 1))}
        c = draw(st.integers(-100, 100)) / 100
        qf = draw(st.sampled_from(Q_FACTORS)).format(c=c, **idx)
        pf = draw(st.sampled_from(P_FACTORS)).format(**idx)
        coef = draw(st.integers(20, 200)) / 100
        terms.append(f"{coef}*{qf}*{pf}")
    return m, " + ".join(terms)


@settings(max_examples=60, deadline=None)
@given(bracket_generators(), st.integers(0, 1000))
def test_replays_of_expression_generators_match_the_scalar_loop(drawn, seed):
    m, source = drawn
    names = [f"q{i}" for i in range(m)] + [f"p{i}" for i in range(m)]
    K = compile_fn(source, names)
    points = [pt.packed() for pt in sample_phase_points(m, 12, seed)]
    zero_costates = points[1].copy()
    zero_costates[m:] = 0.0                 # zero divisors, sqrt at 0
    replay = _replay(K, points[0])
    assert _assert_replays_the_scalar_loop(K, replay, points) == len(points)
    _assert_replays_the_scalar_loop(K, replay, [zero_costates])
    np.testing.assert_allclose(replay(points[1]),
                               fd_grad(K, points[1]), rtol=1e-5, atol=1e-6)


# at (1.5, 0.0, 2.0) the scalar loop once gave d/dq0 = -0.0, a batch 0.0
_NEGATED_PRODUCT = compile_fn("-(q0*q1) + q2", ["q0", "q1", "q2"])


@pytest.mark.parametrize("fn, x", [
    (lambda x: x[0] * x[1] + x[2], [0.0, -0.0, 0.0]),
    (lambda x: -x[0] * x[1] - x[1], [-0.0, 0.0, 1.0]),
    (lambda x: x[0] / x[2] + 0.0 * x[1], [0.0, -1.0, -2.0]),
    (lambda x: abs(x[0]) * x[1] + abs(x[2]), [0.0, -0.0, -0.0]),
    (lambda x: sqrt(x[0] * x[0]) + x[1] ** 0 * x[2], [0.0, 0.0, 3.0]),
    (lambda x: x[2] ** 3 - x[1] ** -2 + exp(x[0]) * 0.0, [-0.0, -1.5, 0.0]),
    (lambda x: (2.0 - x[0]) ** 0.5 * x[1] + ln(x[2] + 1.0), [0.0, -0.0, 0.0]),
    (lambda x: x[0] - x[1] * x[2], [1.0, 2.0, 0.0]),
    (lambda x: (x[0] * x[1] + 3.0) ** 0.5 + x[2], [1.0, -0.0, 0.0]),
    (lambda x: 0.0, [0.0, 0.0, 0.0]),
    (lambda x: x[1], [0.0, -0.0, 0.0]),
    (lambda x: _NEGATED_PRODUCT(x), [1.5, 0.0, 2.0]),
])
def test_zero_valued_coordinates_keep_their_signed_zeros(fn, x):
    # a zero or negative-zero coordinate is a Dual in its own pass of the
    # scalar loop and a plain float in every other, and a Dual in every
    # pass of a batch; each route returns a zero partial as +0.0, so the
    # loop, the replay and the rows of a batch agree in raw bits
    K = ScalarFn(fn, 3)
    replay = _replay(K, x)
    other = [1.0, -2.0, 0.5]
    expected = _hex(grad(K, x))
    assert "-0x0.0p+0" not in expected
    assert _hex(replay(list(x))) == expected
    assert _hex(replay(other)) == _hex(grad(K, other))
    assert replay.handed == 0
    assert _hex(grad(K, np.array([x]))) == expected
    assert _hex(grad(K, np.array([x, other, x]))) == \
        _hex([grad(K, x), grad(K, other), grad(K, x)])


def test_truth_of_a_traced_zero_is_not_taken():
    # bool(Dual(0.0, 1.0)) is True while bool(0.0) is False, so a scalar
    # pass branches per seed: the trace refuses, and the field steps on the
    # vector pass at every point
    K = ScalarFn(lambda x: x[0] * (2.0 if x[1] else 3.0), 2)
    code = FieldCode((K,), [1.0, 0.0])
    assert code.reason == ("the trace cannot record K, as it reads a traced "
                           "value with bool()")
    field = dynamics.phase_rhs(K)
    traced = dynamics.integrate(field, [1.0, 0.0], 0.1, 1e-2)
    assert _hex(traced.x) == _hex(dynamics.integrate(
        lambda t, x: field(t, x), [1.0, 0.0], 0.1, 1e-2).x)


# -- points the code raises at: guards and domain checks -------------------------


def test_a_flipped_guard_hands_the_point_back():
    K = ScalarFn(lambda x: x[0] * x[1] if x[0] > 0.5 else x[1] * x[1], 2)
    replay = _replay(K, [1.0, 2.0])
    assert _hex(replay([0.75, -3.0])) == _hex(grad(K, [0.75, -3.0]))
    assert replay.handed == 0
    for x in ([0.25, -3.0], [0.5, -3.0]):
        with pytest.raises(tracegrad._OffTrace):
            replay.kernel(x, [])
        assert _hex(replay(x)) == _hex(grad(K, x))
    assert replay.handed == 2


EQUALITIES = {
    "==": lambda x: x[0] * x[1] if x[0] == 1.0 else x[1],
    "!=": lambda x: x[1] if x[0] != 1.0 else x[0] * x[1],
    "reflected ==": lambda x: x[0] * x[1] if 1.0 == x[0] else x[1],
}


@pytest.mark.parametrize("case", sorted(EQUALITIES))
def test_equality_is_a_guard_only_where_the_values_differ(case):
    # a Dual compares derivatives too: at x0 == 1.0 the seed of x0 sees
    # x0 != 1.0 and every other seed x0 == 1.0, so grad mixes the branches,
    # which no value guard reproduces; traced where the values are equal,
    # K is untraceable, and traced where they differ, its code raises
    # where they are equal
    K = ScalarFn(EQUALITIES[case], 2)
    assert _hex(grad(K, [1.0, 0.5])) == _hex([0.0, 1.0])
    op = "!=" if case == "!=" else "=="
    assert FieldCode((K,), [1.0, 0.5]).reason == (
        f"the trace cannot record K, as it compares equal values with {op}")
    replay = _replay(K, [1.5, 0.5])
    for x in ([1.5, 0.5], [2.0, 0.3]):
        assert _hex(replay.kernel(x, [])) == _hex(grad(K, x))
    with pytest.raises(tracegrad._OffTrace):
        replay.kernel([1.0, 0.5], [])
    assert _hex(replay([1.0, 0.5])) == _hex([0.0, 1.0])


def test_a_port_reading_inequality_is_traced(caplog):
    # the port compares a coordinate that never equals 123.0 with !=: the
    # whole field replays, with the reference loop's bits and no rerun
    port = gas_piston_damper().Kc[0]
    system = _piston_with_port(
        lambda x: port(x) if x[0] != 123.0 else 0.0, "!= port")
    with caplog.at_level(logging.INFO, logger="ltk"):
        _assert_matches_reference(system, 50, 1e-2,
                                  u=PortSignal.sinusoid(0.2, 1.0),
                                  monitors=MONITOR_NAMES)
    assert [r.getMessage() for r in caplog.records] == [
        "simulate 'piston': piston drift runs on a traced replay",
        "simulate 'piston': blocks rerun on the vector pass: 0"]


@pytest.mark.parametrize("fn, x, message", [
    (lambda x: x[1] / (x[0] - 1.0), [1.0, 2.0], "division by a dual"),
    (lambda x: x[1] * ln(x[0]), [0.0, 2.0], "ln requires a positive"),
    (lambda x: x[1] * sqrt(x[0] - 1.0), [0.5, 2.0], "sqrt requires"),
    (lambda x: x[1] * sqrt(x[0] - 1.0), [1.0, 2.0], "not differentiable"),
    (lambda x: (x[0] - 1.0) ** 0.5 * x[1], [1.0, 2.0], "positive base"),
    (lambda x: (x[0] - 1.0) ** -2 * x[1], [1.0, 2.0], "0 raised"),
])
def test_domain_errors_hand_the_point_back(fn, x, message):
    K = ScalarFn(fn, 2)
    replay = _replay(K, [3.0, 2.0])
    for route in (lambda x: grad(K, x), replay):
        with pytest.raises((ValueError, ZeroDivisionError), match=message):
            route(x)
    assert replay.handed == 1


def test_a_guard_that_flips_mid_run_matches_the_scalar_loop(caplog):
    # the drift doubles while the piston momentum exceeds 0.35, which it
    # does for part of the run: the stages on the other side go back to grad
    piston = gas_piston_damper()
    Ka = piston.Ka

    def switching(x):
        return Ka(x) * 2.0 if x[3] > 0.35 else Ka(x)

    system = PortSystem(
        name="switching piston", gf=piston.gf,
        Ka=ScalarFn(switching, 8, name="switching drift"), Kc=piston.Kc,
        energy_indices=(0,), entropy_indices=(1,),
        default_params=(0.0, 1.0, 0.3, -1.0))
    with caplog.at_level(logging.INFO, logger="ltk"):
        result = _assert_matches_reference(
            system, 200, 1e-2, u=PortSignal.sinusoid(0.2, 1.0),
            monitors=("K_res", "membership"))
    assert (result.q[:, 3] > 0.35).any() and (result.q[:, 3] <= 0.35).any()
    # the blocks in which the guard flips rerun on the vector pass
    assert _reruns(caplog) > 0
    assert "switching drift runs on a traced replay" in caplog.text


def _compartment_with_drift(Ka) -> PortSystem:
    hc = heat_compartment()
    return PortSystem(name="compartment", gf=hc.gf,
                      Ka=compile_fn(Ka, ["q0", "q1", "p0", "p1"]), Kc=hc.Kc,
                      energy_indices=(0,), entropy_indices=(1,),
                      default_params=hc.default_params)


def test_a_domain_error_first_hit_in_a_replay_is_the_scalar_loops(monkeypatch):
    # S rises with the heat input; ln(0.3 - S) is undefined from S = 0.3 on,
    # first at an RK4 stage, where the replay raises and its block reruns
    # on the vector pass
    system = _compartment_with_drift("0 * ln(0.3 - q1) * p1")
    stages = []

    def u(t):
        stages.append(t)
        return [1.0]

    err = _assert_same_error(system, 2.0, 5e-2, u=PortSignal(u, 1))
    assert isinstance(err, ExprEvalError)
    assert str(err) == ("simulation of 'compartment': ln requires a positive "
                        "argument in 'ln(0.3-q1)' in the step from t=0.3")
    # the same stage fails on both routes: the inputs were read at the same
    # times, every stage up to the failing one and each recorded point; the
    # vector pass reads each step's half-step time twice, for k2 and k3
    runs = []
    for route in (simulate, _scalar_route(monkeypatch)):
        del stages[:]
        with pytest.raises(ExprEvalError):
            route(system, 2.0, 5e-2, u=PortSignal(u, 1))
        runs.append(list(stages))
    assert set(runs[0]) == set(runs[1])
    assert 0.2 < max(runs[0]) < 0.5
    halves = [i * 5e-2 + 5e-2 / 2.0 for i in range(6)]
    assert [runs[1].count(t) for t in halves] == [2] * 6


def test_an_error_raised_in_a_replay_is_the_scalar_loops():
    # (1 + S)^2000 overflows near S = 0.43: the replay raises a bare
    # OverflowError, and its block reruns on the vector pass, where the
    # expression wraps it, as at every point the scalar loop takes
    system = _compartment_with_drift(
        "(p1/exp(q1) + p0) * (1 + 1e-300*(q1 + 1)^2000)")
    err = _assert_same_error(system, 2.0, 5e-2, u=PortSignal.constant([1.0]))
    assert isinstance(err, ExprEvalError)
    assert "out of range" in str(err)


def _scalar_route(monkeypatch):
    """simulate with no generator traced: the run steps on the vector pass
    from its start, which for one state is grad's scalar loop over the
    generators at every stage."""
    def run(*args, **kwargs):
        with monkeypatch.context() as patch:
            patch.setattr(tracegrad._Trace, "record",
                          lambda trace, K: (None, "untraced"))
            return simulate(*args, **kwargs)
    return run


def _assert_matches_scalar_route(monkeypatch, system, t_end, dt, **kwargs):
    """simulate and the scalar route give the same trajectory and channels
    bit for bit, or raise the same error; returns simulate's result or
    error."""
    runs = []
    for route in (simulate, _scalar_route(monkeypatch)):
        try:
            runs.append(route(system, t_end, dt, **kwargs))
        except Exception as err:   # noqa: BLE001 - compared below
            runs.append(err)
    got, expected = runs
    if isinstance(expected, Exception):
        assert type(got) is type(expected) and str(got) == str(expected)
        return got
    assert _hex(got.x) == _hex(expected.x) and _hex(got.u) == _hex(expected.u)
    recorded = dict(expected.outputs, **expected.monitors)
    assert set(recorded) == set(got.outputs) | set(got.monitors)
    for name, values in dict(got.outputs, **got.monitors).items():
        assert _hex(values) == _hex(recorded[name]), name
    return got


def _reruns(caplog) -> int:
    """The blocks the last run reran on the vector pass."""
    counts = [r.getMessage() for r in caplog.records
              if ": blocks rerun on the vector pass: " in r.getMessage()]
    return int(counts[-1].split(": ")[-1].split(",")[0])


def _piston_with_port(port_fn, name: str, dual_safe=True) -> PortSystem:
    piston = gas_piston_damper()
    return PortSystem(
        name="piston", gf=piston.gf, Ka=piston.Ka,
        Kc=(ScalarFn(port_fn, 8, name=name, dual_safe=dual_safe),),
        energy_indices=(0,), entropy_indices=(1,),
        default_params=(0.0, 1.0, 0.3, -1.0))


def test_a_port_guard_that_flips_mid_run_matches_the_scalar_loop(
        monkeypatch, caplog):
    # the port doubles while the piston momentum exceeds 0.35; its guard
    # sits in the kernel's port section, skipped where the input is 0.0,
    # and the blocks in which it flips rerun on the vector pass
    port = gas_piston_damper().Kc[0]
    system = _piston_with_port(
        lambda x: port(x) * 2.0 if x[3] > 0.35 else port(x), "switching port")
    kwargs = dict(u=PortSignal.sinusoid(0.2, 1.0),
                  monitors=("K_res", "alpha_res", "membership"))
    with caplog.at_level(logging.INFO, logger="ltk"):
        result = _assert_matches_reference(system, 200, 1e-2, **kwargs)
        assert _reruns(caplog) > 0
    assert (result.q[:, 3] > 0.35).any() and (result.q[:, 3] <= 0.35).any()
    assert "simulate 'piston': piston drift runs on a traced replay" in \
        caplog.text
    _assert_matches_scalar_route(monkeypatch, system, 2.0, 1e-2, **kwargs)


@pytest.mark.parametrize("dual_safe, reason", [
    (True, "it reads a traced value with hash()"),
    (False, "it is not dual-safe")], ids=["hash", "not dual-safe"])
def test_an_untraceable_port_beside_a_traced_drift_matches_the_scalar_loop(
        dual_safe, reason, monkeypatch, caplog):
    # the port reads a traced value with hash(), or is declared not
    # dual-safe, when its outputs sum grad's difference partials; so the
    # whole field, the traceable drift too, steps on the vector pass from
    # its start, and no runner is built
    port = gas_piston_damper().Kc[0]
    system = _piston_with_port(
        lambda x: port(x) if hash(x[0]) != 7 else 0.0, "opaque port",
        dual_safe)
    kwargs = dict(u=PortSignal.sinusoid(0.2, 1.0), monitors=MONITOR_NAMES)
    with caplog.at_level(logging.INFO, logger="ltk"):
        _assert_matches_reference(system, 50, 1e-2, **kwargs)
    assert [r.getMessage() for r in caplog.records] == [
        "simulate 'piston': piston drift runs on the vector pass: the trace "
        f"cannot record opaque port, as {reason}"]
    _assert_matches_scalar_route(monkeypatch, system, 0.5, 1e-2, **kwargs)


def test_a_domain_error_first_hit_in_a_port_is_the_scalar_loops(monkeypatch):
    # the drift is 0; the heat port's ln(0.3 - S) is undefined from S = 0.3
    # on, first at an RK4 stage inside the kernel's port section
    hc = heat_compartment()
    system = PortSystem(
        name="compartment", gf=hc.gf, Ka=hc.Ka,
        Kc=(compile_fn("p1/exp(q1) + p0 + 0 * ln(0.3 - q1) * p1",
                       ["q0", "q1", "p0", "p1"]),),
        energy_indices=(0,), entropy_indices=(1,),
        default_params=hc.default_params)
    kwargs = dict(u=PortSignal.constant([1.0]))
    err = _assert_same_error(system, 2.0, 5e-2, **kwargs)
    assert isinstance(err, ExprEvalError)
    assert str(err) == ("simulation of 'compartment': ln requires a positive "
                        "argument in 'ln(0.3-q1)' in the step from t=0.3")
    _assert_matches_scalar_route(monkeypatch, system, 2.0, 5e-2, **kwargs)


# -- constructs the trace cannot record -----------------------------------------


UNTRACEABLE = {
    "bool": (lambda x: x[1] if x[0] else 2.0 * x[1], "bool()"),
    "float": (lambda x: float(x[0]) * x[1], "float()"),
    "int": (lambda x: int(x[0]) * x[1], "int()"),
    "hash": (lambda x: x[1] if hash(x[0]) else x[0], "hash()"),
    "math": (lambda x: math.exp(x[0]) * x[1], "float()"),
    "numpy": (lambda x: np.exp(x[0]) * x[1], "TypeError"),
    "numpy array": (lambda x: np.asarray([x[0], x[1]]).sum(), "numpy"),
    "attribute": (lambda x: x[0].real * x[1], "'real'"),
    "caught float": (lambda x: _caught_float(x[0]) * x[1], "float()"),
    "traced exponent": (compile_fn("q0 ^ q1", ["q0", "q1"]),
                        "traced exponent"),
    "traced power of a constant": (compile_fn("2 ^ q0 * q1", ["q0", "q1"]),
                                   "traced exponent"),
    "pow of traced": (compile_fn("pow(q1, q0)", ["q0", "q1"]),
                      "traced exponent"),
    "raises at the traced point": (lambda x: ln(x[0] - 2.0) * x[1],
                                   "raises ValueError"),
    "returns a list": (lambda x: [x[0] * x[1]], "returns a list"),
    "not dual-safe": (ScalarFn(lambda x: x[0] * x[1], 2, dual_safe=False),
                      "not dual-safe"),
}


def _caught_float(v):
    try:
        return float(v)
    except TypeError:
        return 1.0


@pytest.mark.parametrize("case", sorted(UNTRACEABLE))
def test_untraceable_generators_keep_the_scalar_loop(case, caplog):
    fn, reason = UNTRACEABLE[case]
    K = fn if isinstance(fn, ScalarFn) else ScalarFn(fn, 2, name=case)
    assert reason in FieldCode((K,), [1.5, 0.5]).reason
    # a heat compartment whose drift is K times its port generator, which
    # vanishes on the surface, runs on the vector pass throughout, with the
    # scalar loop's results or error
    hc = heat_compartment()
    port = hc.Kc[0].fn

    def drift(x):
        return K.fn([x[1] + 1.5, x[3]]) * port(x)

    system = PortSystem(
        name="untraceable", gf=hc.gf,
        Ka=ScalarFn(drift, 4, name=case, dual_safe=K.dual_safe), Kc=hc.Kc,
        energy_indices=(0,), entropy_indices=(1,),
        default_params=hc.default_params)
    kwargs = dict(u=PortSignal.constant([0.2]), monitors=("membership",))
    with caplog.at_level(logging.INFO, logger="ltk"):
        try:
            _reference(system, 0.12, 1e-2, **kwargs)
        except Exception:   # noqa: BLE001 - simulate must raise it too
            _assert_same_error(system, 0.12, 1e-2, **kwargs)
        else:
            _assert_matches_reference(system, 12, 1e-2, **kwargs)
    assert f"simulate 'untraceable': {case} runs on the vector pass: the " \
        f"trace cannot record {case}, as " in caplog.text
    assert "traced replay" not in caplog.text


def test_replays_live_only_for_their_run(monkeypatch):
    # no trace is kept between runs: each simulate traces its generators
    traces = []
    original = tracegrad._Trace.record

    def counted(trace, K):
        traces.append(K.name)
        return original(trace, K)

    monkeypatch.setattr(tracegrad._Trace, "record", counted)
    for _ in range(2):
        simulate(heat_compartment(), 0.05, 0.01,
                 u=PortSignal.constant([0.3]))
    assert traces == ["0", "heat port"] * 2


def test_numpy_constants_raise_as_a_dual_raises():
    # a Dual holds Python floats, whose ** raises on overflow and whose
    # division by zero raises, where numpy scalars give inf
    big, zero = np.float64(1e200), np.float64(0.0)
    K = ScalarFn(lambda x: (x[0] * big) ** 2 + x[1] / (x[0] + zero), 2)
    replay = _replay(K, [1e-200, 1.0])
    assert _hex(replay([1e-200, 1.0])) == _hex(grad(K, [1e-200, 1.0]))
    with pytest.raises(OverflowError):
        grad(K, [1.0, 1.0])
    with pytest.raises(OverflowError):
        replay([1.0, 1.0])
    assert replay.handed == 1
    divided = ScalarFn(lambda x: x[0] / zero, 2)
    with pytest.raises(ZeroDivisionError):
        grad(divided, [1.0, 1.0])
    assert FieldCode((divided,), [1.0, 1.0]).reason is not None


def _source(monkeypatch, Ka, Kc, x, name: str = "kernel") -> str:
    """The source of the function ``name`` made from the field code of
    ``Ka`` and ``Kc`` traced at x: its one-stage kernel, or simulate's
    block runner, ``run``."""
    sources = []
    original = tracegrad._code

    def kept(source):
        sources.append(source)
        return original(source)

    monkeypatch.setattr(tracegrad, "_code", kept)
    one_stage(tracegrad.FieldCode((Ka, *Kc), list(x)))
    read = PortSignal.zero(len(Kc))._floats if Kc else None
    dynamics._PhaseField(Ka, tuple(Kc), read).runner(
        np.asarray(x, dtype=float))
    named = [s for s in sources if s.startswith(f"def {name}(")]
    assert len(named) == 1
    return named[0]


def _kernel_source(monkeypatch, system, name: str = "kernel") -> str:
    """The source of ``system``'s kernel or block runner at a surface
    point."""
    params = _sample_surface_params(system, 1, 5)[0]
    x0 = liouville_point(system.gf, params).packed()
    return _source(monkeypatch, system.Ka, system.Kc, x0, name)


def _assert_reads_every_assignment(source: str):
    tree = ast.parse(source)
    loads = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loads.setdefault(node.id, []).append(node.lineno)
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and isinstance(node.targets[0],
                                                       ast.Name):
            target = node.targets[0].id
            assert any(line > node.lineno for line in loads.get(target, ())), \
                f"{target} at line {node.lineno} is never read"


@pytest.mark.parametrize("name", sorted(GENERATOR_SYSTEMS))
def test_the_kernel_assigns_no_value_it_never_reads(name, monkeypatch):
    # a value line that nothing reads is dropped where its node cannot raise
    _assert_reads_every_assignment(
        _kernel_source(monkeypatch, GENERATOR_SYSTEMS[name]()))


@pytest.mark.parametrize("name", sorted(GENERATOR_SYSTEMS))
def test_the_runner_assigns_no_value_it_never_reads(name, monkeypatch):
    # nor does the block runner, which also sets no coordinate of a stage
    # that the field does not read; each step's state is read after the
    # step, by the append
    _assert_reads_every_assignment(
        _kernel_source(monkeypatch, GENERATOR_SYSTEMS[name](), "run"))


@pytest.mark.parametrize("name", sorted(GENERATOR_SYSTEMS) + ["switching"])
def test_the_runner_catches_nothing(name, monkeypatch):
    # where a guard flips, a check trips or an operation raises, the runner
    # raises, and integrate reruns its block on the vector pass; an ==
    # guard raises where its values are equal, and no generator's gradient
    # is grad's
    if name == "switching":
        piston = gas_piston_damper()
        Ka = ScalarFn(lambda x: piston.Ka(x) * 2.0 if x[3] > 0.35
                      else piston.Ka(x), 8, name="switching drift")
        Kc = ScalarFn(lambda x: x[0] if x[1] == 0.5 else x[2], 8)
        x0 = liouville_point(piston.gf, (0.0, 1.0, 0.3, -1.0)).packed()
        source = _source(monkeypatch, Ka, (Kc,), x0, "run")
        assert "raise _Back" in source and "_grad" not in source
        assert re.search(r"if \(v\d+ == c\d+\): raise _Back", source)
    else:
        source = _kernel_source(monkeypatch, GENERATOR_SYSTEMS[name](), "run")
    tree = ast.parse(source)
    assert not [node for node in ast.walk(tree) if isinstance(node, ast.Try)]
    assert not re.search(r"\btry\b|\bexcept\b", source)
    # one finiteness test, of the block's last state after the loop: an
    # entry that is not finite stays so to the block's end
    assert "_NonFinite" not in source
    finite = [node for node in ast.walk(tree) if isinstance(node, ast.If)
              and re.fullmatch(r"(x\d+ \* 0\.0)( \+ x\d+ \* 0\.0)* != 0\.0",
                               ast.unparse(node.test))]
    body = tree.body[0].body
    assert len(finite) == 1 and finite[0] in body
    assert isinstance(body[body.index(finite[0]) - 1], ast.For)


def test_unread_values_that_may_raise_are_kept(monkeypatch):
    # an unread exp may overflow where grad overflows, so its line stays;
    # an unread product goes
    hc = heat_compartment()
    system = PortSystem(
        name="unread", gf=hc.gf, energy_indices=(0,), entropy_indices=(1,),
        Ka=ScalarFn(lambda x: (exp(x[0]) + x[1] * x[2], x[3])[1], 4),
        param_box=hc.param_box)
    source = _kernel_source(monkeypatch, system)
    assert "_exp(v0)" in source
    assert "v1 * v2" not in source


@pytest.mark.parametrize("runs, kinds", [
    ([("piston", INPUTS[kind]) for kind in INPUTS]
     + [("exchanger", lambda: None)],
     ["def flows"] + ["def kernel"] * (len(INPUTS) - 3) + ["def run"] * 2),
    ([("expression piston", INPUTS["sinusoid"]),
      ("expression compartment", INPUTS["constant"])], ["def run"] * 2)],
    ids=["built-in systems", "expression systems"])
def test_each_source_compiles_once(runs, kinds, monkeypatch):
    # the benchmark's simulate runs of each workload, twice in one process:
    # the piston under each input kind and the exchanger, or the expression
    # piston and compartment; every distinct source (a block runner per
    # field shape, a value kernel per expression template, the port flow
    # kernel of the exchanger's two compartments) compiles on its first
    # use only, as they all fit the cache, and no one-stage kernel is
    # compiled
    compiled = []
    tracegrad._code.cache_clear()
    monkeypatch.setattr(tracegrad, "compile", lambda source, *args: (
        compiled.append(source), compile(source, *args))[1], raising=False)
    for _ in range(2):
        for name, u in runs:
            simulate(SYSTEMS[name](), 0.02, 1e-2, u=u(),
                     params=TWIN_DEFAULTS.get(name))
    cache = tracegrad._code.cache_info()
    assert len(compiled) == len(set(compiled)) == cache.misses <= \
        cache.maxsize
    assert sorted(source.split("(")[0] for source in compiled) == kinds


def test_importing_ltk_and_its_cli_leaves_tracegrad_unimported():
    # integrate imports tracegrad when it first steps a phase field, so a
    # command that never does, or a contact flow, does not compile it
    code = "\n".join([
        "import sys, ltk, ltk.cli",
        "from ltk.diffkit import ScalarFn",
        "from ltk.dynamics import contact_rhs, integrate, phase_rhs",
        "loaded = ['ltk.tracegrad' in sys.modules]",
        "Khat = ScalarFn(lambda x: x[2] ** 2 + x[0] * x[2], 3)",
        "integrate(contact_rhs(Khat, 0), [1.0, 2.0, 0.5], 0.1, 1e-2)",
        "loaded.append('ltk.tracegrad' in sys.modules)",
        "K = ScalarFn(lambda x: x[1] * x[2], 4)",
        "integrate(phase_rhs(K), [1.0, 2.0, 3.0, 4.0], 0.1, 1e-2)",
        "print(loaded + ['ltk.tracegrad' in sys.modules])"])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         cwd=Path(ltk.__file__).resolve().parent.parent)
    assert out.stdout == "[False, False, True]\n"


# -- value numbering ------------------------------------------------------------


def test_a_repeated_operation_is_computed_once(monkeypatch):
    # the expression piston's drift reads its energy U = (1/q2)^(1/cv) *
    # exp(q1/cv) twice; its code computes the exponential once
    system = SYSTEMS["expression piston"]()
    surface = [liouville_point(system.gf, p).packed()
               for p in _sample_surface_params(system, 40, 5)]
    source = _source(monkeypatch, system.Ka, (), surface[0])
    assert source.count("_exp(") == 1
    replay = _replay(system.Ka, surface[0])
    assert _assert_replays_the_scalar_loop(system.Ka, replay, surface) == \
        len(surface)


def test_equal_constants_and_signed_zeros_stay_bit_for_bit():
    # with C1 == C2 the exchanger's two capacities are one constant of its
    # code; 0.0 and -0.0 stay two
    equal = heat_exchanger(C=(1.3, 1.3), T_ref=(0.8, 0.8))
    zeros = ScalarFn(lambda x: x[4] * (x[0] * -0.0 + 1.0) + x[5] * x[1] * 0.0
                     + x[6] * x[2] / (2.0 + x[3] * 0.0) - x[7] * -0.0, 8,
                     name="signed zeros")
    for K in (equal.Ka, zeros):
        surface = [liouville_point(equal.gf, p).packed()
                   for p in _sample_surface_params(equal, 40, 3)]
        replay = _replay(K, surface[0])
        assert _assert_replays_the_scalar_loop(K, replay, surface) == \
            len(surface), K.name
        generic = [pt.packed() for pt in sample_phase_points(4, 20, 4)]
        _assert_replays_the_scalar_loop(K, replay, generic)


def test_a_value_kernel_keeps_each_constant_as_the_function_returns_it():
    # 0.0 and -0.0, 1 and 1.0 are equal but not the same constant
    fns = [ScalarFn(f, 1) for f in (
        lambda x: x[0] * 0.0, lambda x: x[0] * -0.0, lambda x: 1.0 * x[0],
        lambda x: 1, lambda x: -0.0, lambda x: x[0] + 0.0 - 0.0)]
    kernel = tracegrad.value_kernel(fns, [1.5])
    for x in ([1.5], [-2.0], [0.0], [-0.0]):
        assert repr(kernel(x)) == repr([f(x) for f in fns])


def test_constant_derivatives_are_folded_at_trace_time(monkeypatch):
    # d(q0 / 3.0) = 1.0 / 3.0 and d(-(q0 * 2.0) - q0) = -2.0 - 1.0 are
    # constants of the code, not lines of it
    K = ScalarFn(lambda x: x[2] * (x[0] / 3.0) + x[3] * (-(x[0] * 2.0) - x[0])
                 + x[2] * x[1] * x[1], 4, name="constant slopes")
    x = [0.7, 1.1, -1.0, 0.4]
    source = _source(monkeypatch, K, (), x)
    constant = re.compile(r"^\s*d\d+_\d+ = [-(]*(c\d+|\d\.\d)\)?"
                          r"( [-+*/] (c\d+|\d\.\d))?$")
    assert not [line for line in source.splitlines() if constant.match(line)]
    points = [pt.packed() for pt in sample_phase_points(2, 30, 6)]
    assert _assert_replays_the_scalar_loop(K, _replay(K, x), points) == 30


@pytest.mark.parametrize("drift", ["equality guard", "flipped guard"])
def test_a_port_never_reads_a_value_of_the_drift_section(drift):
    # the port computes q0 * p0 as the drift does; its own code computes
    # it, and at the second point, where the drift's guard flips (q0 ==
    # 0.25, or q1 <= 0.5), the point is grad's
    if drift == "equality guard":
        Ka = ScalarFn(lambda x: x[0] * x[2] * (2.0 if x[0] == 0.25 else 1.0),
                      4, name="reads ==")
    else:
        Ka = ScalarFn(lambda x: x[0] * x[2] if x[1] > 0.5 else x[3] * x[1],
                      4, name="switch")
    Kc = ScalarFn(lambda x: x[0] * x[2] + x[3], 4, name="port")
    traced = TracedGradient(Ka, (Kc,), [0.3, 0.8, -1.0, 0.5])
    assert traced.code.reason is None
    for x in ([0.3, 0.8, -1.0, 0.5], [0.25, 0.2, -0.9, 0.6]):
        expected = grad(Ka, x) + 0.7 * grad(Kc, x)
        assert _hex(traced(x, [0.7])) == _hex(expected)
    assert traced.handed == 1


def _assigned(lines) -> set:
    """The names that traced code lines assign."""
    return {line.partition(" = ")[0] for line in lines
            if not line.startswith("if ")}


@pytest.mark.parametrize("factory", [gas_piston_damper, heat_exchanger])
def test_one_trace_keeps_each_functions_gradient_code_apart(factory):
    # the generators and the lift, traced together as a per-step re-lift
    # would trace them: each function's code alone is its gradient, the
    # codes assign no name twice, and the generators' codes make the body
    # they make without the lift
    system = factory()
    surface = [liouville_point(system.gf, p).packed()
               for p in _sample_surface_params(system, 40, 5)]
    fns = (system.Ka, *system.Kc, lift_phase_fn(system.gf))
    code = FieldCode(fns, surface[0].tolist())
    assert code.reason is None and len(code.codes) == len(fns)
    for f, traced in zip(fns, code.codes):
        kernel = one_stage(code, [traced])
        for x in surface:
            assert _hex(kernel(x.tolist(), [])) == _hex(grad(f, x)), f.name
    names = [_assigned(lines) for lines, _ in code.codes]
    assert sum(map(len, names)) == len(set().union(*names))
    alone = FieldCode(fns[:-1], surface[0].tolist())
    ports = code.codes[:1 + system.n_ports]
    assert "\n".join(dynamics._gradient_lines(ports)) == \
        "\n".join(dynamics._gradient_lines(alone.codes))


def _every_kind(x):
    """A function of every node kind the trace records: abs, sqrt, sin,
    cos, ln, exp, integer, zeroth and float powers, negation, a division
    and an == guard."""
    q0, q1, p0, p1 = x
    guarded = q0 * p1 if q0 == 0.25 else -p1 / q0
    return (abs(q1 - 2.0) * sqrt(q0) + sin(p0) * cos(q1)
            + ln(q0) * exp(0.3 * q1) + p0 ** 3 + q1 ** 2.5 / q0 + q0 ** -2
            + p1 ** 0 * q1 - guarded + p0 * p1 ** 2)


def _hessian_cases():
    for name in ("piston", "exchanger", "expression piston"):
        system = SYSTEMS[name]()
        yield name, system.Ka, [
            liouville_point(system.gf, p).packed().tolist()
            for p in _sample_surface_params(system, 5, 3)]
    rng = np.random.default_rng(4)
    yield "every kind", ScalarFn(_every_kind, 4, name="every kind"), [
        (np.array([1.3, 0.7, -0.4, 0.9]) + 0.05 * rng.standard_normal(4))
        .tolist() for _ in range(5)]


@pytest.mark.parametrize("name, K, points", list(_hessian_cases()),
                         ids=[case[0] for case in _hessian_cases()])
def test_hessian_code_is_the_derivative_of_the_traced_gradient(name, K,
                                                               points):
    # H t from the trace against a central difference of the traced
    # gradient along t, at points and directions away from the trace's
    code = FieldCode((K,), points[0], hessians=True)
    assert code.reason is None and len(code.hessians) == 1
    gradient, hessian = one_stage(code), hessian_stage(code)
    rng, h = np.random.default_rng(9), 1e-5
    for x in np.array(points):
        t = rng.standard_normal(len(x))
        fd = (np.array(gradient((x + h * t).tolist(), ()))
              - np.array(gradient((x - h * t).tolist(), ()))) / (2.0 * h)
        got = np.array(hessian(x.tolist(), t.tolist()))
        assert np.max(np.abs(got - fd)) <= 1e-8 * np.max(np.abs(fd)), name
    # it follows the gradient code, whose checks and guards stay its only
    # ones
    assert any(line.startswith("if ") for line in code.codes[0][0])
    assert not any(line.startswith("if ") for line in code.hessians[0][0])


@pytest.mark.parametrize("where", [{0: 0.25}, {0: -1.0}, {1: -0.5}],
                         ids=["guard", "sqrt and ln", "float power"])
def test_hessian_code_raises_where_the_gradient_code_raises(where):
    x = [1.3, 0.7, -0.4, 0.9]
    code = FieldCode((ScalarFn(_every_kind, 4),), x, hessians=True)
    point = [where.get(i, v) for i, v in enumerate(x)]
    with pytest.raises(tracegrad._OffTrace):
        one_stage(code)(point, ())
    with pytest.raises(tracegrad._OffTrace):
        hessian_stage(code)(point, [1.0, -0.5, 0.25, 2.0])


# -- port flow kernels -------------------------------------------------------------


def _port_of_every_kind(x):
    """_every_kind with terms whose partials along the costates read abs,
    sqrt, ln and a fractional power."""
    q0, q1, p0, p1 = x
    return (_every_kind(x) + abs(p0 - q0) * q1 + sqrt(p1 * p1 + q0)
            + (p1 + 2.0) ** 1.5 * ln(q0))


def test_a_port_flow_kernel_is_the_partials_and_traces_in_turn():
    # on floats the flows are grad's partials and their sums (grad adds
    # 0.0); a function that reads them traces, and its replay is its
    # scalar loop, in which the kernel runs on duals, bit for bit
    K = ScalarFn(_port_of_every_kind, 4, name="every kind")
    points = list(_hessian_cases())[-1][2]
    kernel = tracegrad.PortFlowKernel([K], points[0], [[2], [3], [2, 3]])
    assert kernel.reason is None
    for x in points:
        g = grad(K, x)
        assert _hex(0.0 + np.array(kernel(x))) == _hex([g[2], g[3],
                                                        g[2] + g[3]])
    # at p0 = q0 abs's sign factor is 0.0, as in a dual's abs, also on
    # duals that move there
    x = [1.3, 0.7, 1.3, 0.9]
    moving = [Dual(v, float(i)) for i, v in enumerate(x)]
    assert kernel(moving)[0].val == grad(K, x)[2]
    reads = ScalarFn(lambda x: x[1] * kernel(x)[0] - x[0] * kernel(x)[2], 4,
                     name="reads the flows")
    replay = _replay(reads, points[0])
    assert _assert_replays_the_scalar_loop(reads, replay, points) == \
        len(points)
    np.testing.assert_allclose(replay(points[1]), fd_grad(reads, points[1]),
                               rtol=1e-6, atol=1e-6)


def test_a_port_flow_kernel_traces_again_where_a_guard_flips():
    # traced at q1 = 0.2, the kernel takes the other branch past q1 = 0.5,
    # and raises where the generators cannot be traced, at an equal == test
    K = ScalarFn(lambda x: x[2] * (x[1] * x[1] if x[1] < 0.5 else exp(x[1]))
                 + x[3] * x[0] * (2.0 if x[0] == 1.0 else 3.0), 4,
                 name="branching port")
    kernel = tracegrad.PortFlowKernel([K], [0.3, 0.2, -1.0, 1.0], [[2], [3]])
    for x in ([0.3, 0.9, -1.0, 1.0], [0.3, 0.2, -1.0, 1.0],
              [0.4, 0.7, -1.0, 1.0]):
        assert kernel(x) == grad(K, x)[2:].tolist()
    with pytest.raises(ValueError, match="compares equal values with =="):
        kernel([1.0, 0.7, -1.0, 1.0])


def test_a_zero_port_flow_keeps_its_sign():
    # grad's 0.0 + is left out, so a composed drift reads each flow as the
    # dual formulas give it: the piston's velocity pi/mass at pi = -0.0
    gp = gas_piston_damper()
    kernel = tracegrad.PortFlowKernel(gp.Kc, [1.0, 0.0, 1.0, 0.5, -1.0,
                                              1.0, 1.0, 0.0], [[4], [5]])
    y_p, y_e = kernel([1.0, 0.0, 1.0, -0.0, -1.0, 1.0, 1.0, 0.0])
    assert (math.copysign(1.0, y_p), y_p, y_e) == (-1.0, 0.0, 0.0)


@pytest.mark.parametrize("at, error, message", [
    ([-1.0, 2.0], ValueError, "requires a positive base"),
    ([1.0, 0.0], ZeroDivisionError, "division by a dual number with zero")],
    ids=["fractional power", "division"])
def test_a_port_flow_kernel_raises_where_a_dual_raises(at, error, message):
    # no check of the traced code is kept, and a float power of a negative
    # base would go complex: every number is a dual, which raises, on
    # floats, single duals and a batch, where the row is named
    K = ScalarFn(lambda x: x[2] * x[0] ** 1.5 + x[3] / x[1], 4, name="K")
    kernel = tracegrad.PortFlowKernel([K], [1.0, 2.0, -1.0, 1.0], [[2], [3]])
    x = at + [-1.0, 1.0]
    with pytest.raises(error, match=message):
        kernel(x)
    with pytest.raises(error, match=message):
        kernel([Dual(v, 1.0) for v in x])
    with pytest.raises(error, match=re.escape(" (batch row 1)")):
        kernel([Dual(np.array([1.0, v]), np.ones((1, 2))) for v in x])

