"""simulate's field is one kernel of straight-line code traced from the
generators; these tests hold each generator's traced code to the scalar
``grad`` loop bit for bit (``float.hex``), to ``fd_grad`` as the
independent oracle, and hold the points a generator hands back to
``grad`` (a guard that flips, a domain error) and the generators the trace
cannot record to the scalar loop's results and errors.
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
from hypothesis import given, settings
from hypothesis import strategies as st
from test_diffkit import SYSTEMS, TWIN_DEFAULTS, _hex
from test_simulate_blocks import (INPUTS, _assert_matches_reference,
                                  _assert_same_error, _reference)

import ltk
from ltk import dynamics, tracegrad
from ltk.diffkit import ScalarFn, exp, fd_grad, grad, ln, sqrt
from ltk.exprlang import ExprEvalError, compile_fn
from ltk.geometry import sample_phase_points
from ltk.portsys import (BUILTIN_SYSTEMS, MONITOR_NAMES, PortSignal,
                         PortSystem, _sample_surface_params,
                         gas_piston_damper, heat_compartment, heat_exchanger,
                         simulate)
from ltk.submanifold import liouville_point
from ltk.tracegrad import field_kernel

GENERATOR_SYSTEMS = dict(
    {name: factory for name, factory in BUILTIN_SYSTEMS.items()},
    **{name: SYSTEMS[name] for name in ("expression piston",
                                        "expression compartment")})


def _replay(K: ScalarFn, x):
    """K's gradient as a field kernel traced at x: with no ports and m = 0
    its field is the gradient; also the count of calls handed to grad."""
    kernel, reasons, handed_back = field_kernel(K, (), list(x), 0)
    assert reasons == [None], reasons
    return (lambda xs: kernel(list(xs), [])), handed_back


def _scalar(K: ScalarFn, x):
    """``grad(K, x)``, or the error it raises."""
    try:
        return grad(K, x)
    except Exception as err:   # noqa: BLE001 - compared by the caller
        return err


def _assert_replays_the_scalar_loop(K, replay, points):
    """At each point the kernel returns grad's partials bit for bit or
    raises grad's error; returns the number of points its traced code
    took, not handing them back to grad."""
    kernel, handed_back = replay
    replayed = 0
    for x in points:
        expected = _scalar(K, x)
        before = handed_back[0]
        try:
            got = kernel(x)
        except Exception as err:   # noqa: BLE001 - compared below
            got = err
        if isinstance(expected, Exception):
            assert type(got) is type(expected), (x, got)
            assert str(got) == str(expected), x
        else:
            assert _hex(got) == _hex(expected), x
        replayed += handed_back[0] == before
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
        # no surface point is handed back, and generic points agree too
        assert _assert_replays_the_scalar_loop(K, replay, surface) == \
            len(surface), K.name
        _assert_replays_the_scalar_loop(K, replay, generic)
        for x in surface[:40]:
            np.testing.assert_allclose(replay[0](x), fd_grad(K, x),
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
    np.testing.assert_allclose(replay[0](points[1]),
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
    replay, handed_back = _replay(K, x)
    other = [1.0, -2.0, 0.5]
    expected = _hex(grad(K, x))
    assert "-0x0.0p+0" not in expected
    assert _hex(replay(list(x))) == expected
    assert _hex(replay(other)) == _hex(grad(K, other))
    assert handed_back == [0]
    assert _hex(grad(K, np.array([x]))) == expected
    assert _hex(grad(K, np.array([x, other, x]))) == \
        _hex([grad(K, x), grad(K, other), grad(K, x)])


def test_truth_of_a_traced_zero_is_not_taken():
    # bool(Dual(0.0, 1.0)) is True while bool(0.0) is False, so a scalar
    # pass branches per seed: the trace refuses, and grad takes every point
    K = ScalarFn(lambda x: x[0] * (2.0 if x[1] else 3.0), 2)
    kernel, reasons, _ = field_kernel(K, (), [1.0, 0.0], 0)
    assert "bool()" in reasons[0]
    assert _hex(kernel([1.0, 0.0], [])) == _hex(grad(K, [1.0, 0.0]))


# -- points handed back: guards and domain checks --------------------------------


def test_a_flipped_guard_hands_the_point_back():
    K = ScalarFn(lambda x: x[0] * x[1] if x[0] > 0.5 else x[1] * x[1], 2)
    replay, handed_back = _replay(K, [1.0, 2.0])
    assert _hex(replay([0.75, -3.0])) == _hex(grad(K, [0.75, -3.0]))
    assert handed_back == [0]
    for x in ([0.25, -3.0], [0.5, -3.0]):
        assert _hex(replay(x)) == _hex(grad(K, x))
    assert handed_back == [2]


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
    replay, handed_back = _replay(K, [3.0, 2.0])
    for route in (lambda x: grad(K, x), replay):
        with pytest.raises((ValueError, ZeroDivisionError), match=message):
            route(x)
    assert handed_back == [1]


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
    # only the drift goes back to grad; the port keeps its traced code
    assert _fallbacks(caplog, "switching drift") > 0
    assert _fallbacks(caplog, piston.Kc[0].name) == 0
    assert "switching drift runs on a traced replay" in caplog.text


def _compartment_with_drift(Ka) -> PortSystem:
    hc = heat_compartment()
    return PortSystem(name="compartment", gf=hc.gf,
                      Ka=compile_fn(Ka, ["q0", "q1", "p0", "p1"]), Kc=hc.Kc,
                      energy_indices=(0,), entropy_indices=(1,),
                      default_params=hc.default_params)


def test_a_domain_error_first_hit_in_a_replay_is_the_scalar_loops(monkeypatch):
    # S rises with the heat input; ln(0.3 - S) is undefined from S = 0.3 on,
    # first at an RK4 stage, where the replay hands the point to grad
    system = _compartment_with_drift("0 * ln(0.3 - q1) * p1")
    stages = []

    def u(t):
        stages.append(t)
        return [1.0]

    err = _assert_same_error(system, 2.0, 5e-2, u=PortSignal(u, 1))
    assert isinstance(err, ExprEvalError)
    assert str(err) == ("simulation of 'compartment': ln requires a positive "
                        "argument in 'ln(0.3-q1)' in the step from t=0.3")
    # the same stage fails on both routes: the same inputs were asked for,
    # at every stage up to the failing one and at each recorded point
    runs = []
    for route in (simulate, _scalar_route(monkeypatch)):
        del stages[:]
        with pytest.raises(ExprEvalError):
            route(system, 2.0, 5e-2, u=PortSignal(u, 1))
        runs.append(list(stages))
    assert runs[0] == runs[1]
    assert 0.2 < max(runs[0]) < 0.5


def test_an_error_raised_in_a_replay_is_the_scalar_loops():
    # (1 + S)^2000 overflows near S = 0.43: the replay raises a bare
    # OverflowError, which sends the point to grad, where the expression
    # wraps it, as at every point the scalar loop takes
    system = _compartment_with_drift(
        "(p1/exp(q1) + p0) * (1 + 1e-300*(q1 + 1)^2000)")
    err = _assert_same_error(system, 2.0, 5e-2, u=PortSignal.constant([1.0]))
    assert isinstance(err, ExprEvalError)
    assert "out of range" in str(err)


def _scalar_route(monkeypatch):
    """simulate with no generator traced: the kernel takes grad of each
    generator at every stage, the scalar loop."""
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


def _fallbacks(caplog, name: str) -> int:
    """The stages at which the last run handed generator ``name`` back
    from its trace to grad."""
    counts = [r.getMessage() for r in caplog.records
              if f": {name} fell back" in r.getMessage()]
    return int(counts[-1].split(" at ")[-1].split()[0])


def _piston_with_port(port_fn, name: str) -> PortSystem:
    piston = gas_piston_damper()
    return PortSystem(
        name="piston", gf=piston.gf, Ka=piston.Ka,
        Kc=(ScalarFn(port_fn, 8, name=name),),
        energy_indices=(0,), entropy_indices=(1,),
        default_params=(0.0, 1.0, 0.3, -1.0))


def test_a_port_guard_that_flips_mid_run_matches_the_scalar_loop(
        monkeypatch, caplog):
    # the port doubles while the piston momentum exceeds 0.35; its guard
    # sits in the kernel's port section, skipped where the input is 0.0,
    # and sends only the port to grad: the drift keeps its traced code
    port = gas_piston_damper().Kc[0]
    system = _piston_with_port(
        lambda x: port(x) * 2.0 if x[3] > 0.35 else port(x), "switching port")
    kwargs = dict(u=PortSignal.sinusoid(0.2, 1.0),
                  monitors=("K_res", "alpha_res", "membership"))
    with caplog.at_level(logging.INFO, logger="ltk"):
        result = _assert_matches_reference(system, 200, 1e-2, **kwargs)
        assert _fallbacks(caplog, "switching port") > 0
        assert _fallbacks(caplog, "piston drift") == 0
    assert (result.q[:, 3] > 0.35).any() and (result.q[:, 3] <= 0.35).any()
    assert "switching port runs on a traced replay" in caplog.text
    _assert_matches_scalar_route(monkeypatch, system, 2.0, 1e-2, **kwargs)


def test_an_untraceable_port_beside_a_traced_drift_matches_the_scalar_loop(
        monkeypatch, caplog):
    # the port compares a traced value with ==, so the kernel calls grad
    # for it at every stage and replays the drift, which it never hands back
    port = gas_piston_damper().Kc[0]
    system = _piston_with_port(
        lambda x: port(x) if x[0] != 123.0 else 0.0, "opaque port")
    kwargs = dict(u=PortSignal.sinusoid(0.2, 1.0), monitors=MONITOR_NAMES)
    with caplog.at_level(logging.INFO, logger="ltk"):
        _assert_matches_reference(system, 50, 1e-2, **kwargs)
        assert _fallbacks(caplog, "piston drift") == 0
        assert "opaque port fell back" not in caplog.text
    assert "opaque port runs on the scalar loop: it reads a traced value " \
        "with ==" in caplog.text
    assert "runs on a traced replay" in caplog.text
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
    "==": (lambda x: x[0] * x[1] if x[0] == 1.0 else x[1], "=="),
    "!=": (lambda x: x[1] if x[0] != 2.0 else x[0], "=="),
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
    _, why, _ = field_kernel(K, (), [1.5, 0.5], 0)
    assert reason in why[0]
    # a heat compartment whose drift is K times its port generator, which
    # vanishes on the surface, runs K's drift on grad and the port on a
    # replay, with the scalar loop's results or error
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
    assert f"{case} runs on the scalar loop: " in caplog.text
    assert "heat port runs on a traced replay" in caplog.text


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
    replay, handed_back = _replay(K, [1e-200, 1.0])
    assert _hex(replay([1e-200, 1.0])) == _hex(grad(K, [1e-200, 1.0]))
    with pytest.raises(OverflowError):
        grad(K, [1.0, 1.0])
    with pytest.raises(OverflowError):
        replay([1.0, 1.0])
    assert handed_back == [1]
    divided = ScalarFn(lambda x: x[0] / zero, 2)
    with pytest.raises(ZeroDivisionError):
        grad(divided, [1.0, 1.0])
    assert field_kernel(divided, (), [1.0, 1.0], 0)[1][0] is not None


def _source(monkeypatch, Ka, Kc, x, m: int, name: str = "kernel") -> str:
    """The source of the function ``name`` made from the field code of
    ``Ka`` and ``Kc`` traced at x: its one-stage kernel, or simulate's
    block runner, ``run``."""
    sources = []
    original = tracegrad._code

    def kept(source):
        sources.append(source)
        return original(source)

    monkeypatch.setattr(tracegrad, "_code", kept)
    code = tracegrad.FieldCode(Ka, Kc, list(x), m)
    code.kernel()
    dynamics._block_runner(code, {})
    named = [s for s in sources if s.startswith(f"def {name}(")]
    assert len(named) == 1
    return named[0]


def _kernel_source(monkeypatch, system, name: str = "kernel") -> str:
    """The source of ``system``'s kernel or block runner at a surface
    point."""
    params = _sample_surface_params(system, 1, 5)[0]
    x0 = liouville_point(system.gf, params).packed()
    return _source(monkeypatch, system.Ka, system.Kc, x0, system.n_coords,
                   name)


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


def test_each_source_compiles_once(monkeypatch):
    # the benchmark's simulate runs, twice in one process: the piston under
    # each input kind, the exchanger, and the expression piston and
    # compartment; every distinct source (a block runner per field shape, a
    # value kernel per expression template) compiles on its first use
    # only, as they all fit the cache, and no one-stage kernel is compiled
    compiled = []
    monkeypatch.setattr(tracegrad, "_COMPILED", {})
    monkeypatch.setattr(tracegrad, "compile", lambda source, *args: (
        compiled.append(source), compile(source, *args))[1], raising=False)
    runs = [("piston", INPUTS[kind]) for kind in INPUTS] + [
        ("exchanger", lambda: None),
        ("expression piston", INPUTS["sinusoid"]),
        ("expression compartment", INPUTS["constant"])]
    for _ in range(2):
        for name, u in runs:
            simulate(SYSTEMS[name](), 0.02, 1e-2, u=u(),
                     params=TWIN_DEFAULTS.get(name))
    assert len(compiled) == len(set(compiled)) <= tracegrad._COMPILED_MAX
    assert sorted(source.split("(")[0] for source in compiled) == \
        ["def kernel"] * (len(INPUTS) - 3) + ["def run"] * 4


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
    source = _source(monkeypatch, system.Ka, (), surface[0], system.n_coords)
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
    source = _source(monkeypatch, K, (), x, 2)
    constant = re.compile(r"^\s*d\d+_\d+ = [-(]*(c\d+|\d\.\d)\)?"
                          r"( [-+*/] (c\d+|\d\.\d))?$")
    assert not [line for line in source.splitlines() if constant.match(line)]
    points = [pt.packed() for pt in sample_phase_points(2, 30, 6)]
    assert _assert_replays_the_scalar_loop(K, _replay(K, x), points) == 30


@pytest.mark.parametrize("drift", ["untraceable", "flipped guard"])
def test_a_port_never_reads_a_value_of_the_drift_section(drift):
    # the port computes q0 * p0 as the drift does; where the drift's section
    # is grad's, or hands back before it computes it, the port's own code
    # still runs
    if drift == "untraceable":
        Ka = ScalarFn(lambda x: x[0] * x[2] * (2.0 if x[0] == 0.25 else 1.0),
                      4, name="reads ==")
    else:
        Ka = ScalarFn(lambda x: x[0] * x[2] if x[1] > 0.5 else x[3] * x[1],
                      4, name="switch")
    Kc = ScalarFn(lambda x: x[0] * x[2] + x[3], 4, name="port")
    kernel, reasons, handed_back = field_kernel(Ka, (Kc,), [0.3, 0.8, -1.0,
                                                            0.5], 2)
    assert reasons[1] is None
    for x in ([0.3, 0.8, -1.0, 0.5], [0.4, 0.2, -0.9, 0.6]):
        expected = (grad(Ka, x) + 0.7 * grad(Kc, x)).tolist()
        got = kernel(x, [0.7])
        assert _hex(got) == _hex(expected[2:] + [-g for g in expected[:2]])
    assert handed_back[1] == 0
