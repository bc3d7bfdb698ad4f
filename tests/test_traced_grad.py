"""simulate's field replays one trace per generator as straight-line code;
these tests hold each replay to the scalar ``grad`` loop bit for bit
(``float.hex``), to ``fd_grad`` as the independent oracle, and hold the
points a replay hands back (a guard that flips, a domain error, a
construct the trace cannot record) to the scalar loop's results and
errors.
"""

import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_diffkit import SYSTEMS, _hex
from test_simulate_blocks import (_assert_matches_reference,
                                  _assert_same_error, _reference)

from ltk import tracegrad
from ltk.diffkit import ScalarFn, exp, fd_grad, grad, ln, sqrt
from ltk.exprlang import ExprEvalError, compile_fn
from ltk.geometry import sample_phase_points
from ltk.portsys import (BUILTIN_SYSTEMS, PortSignal, PortSystem,
                         _sample_surface_params, gas_piston_damper,
                         heat_compartment, simulate)
from ltk.submanifold import liouville_point
from ltk.tracegrad import trace_grad

GENERATOR_SYSTEMS = dict(
    {name: factory for name, factory in BUILTIN_SYSTEMS.items()},
    **{name: SYSTEMS[name] for name in ("expression piston",
                                        "expression compartment")})


def _replay(K: ScalarFn, x):
    replay, reason = trace_grad(K, list(x))
    assert reason is None, reason
    return replay


def _scalar(K: ScalarFn, x):
    """``grad(K, x)``, or the error it raises."""
    try:
        return grad(K, x)
    except Exception as err:   # noqa: BLE001 - compared by the caller
        return err


def _assert_replays_the_scalar_loop(K, replay, points):
    """At each point the replay returns grad's partials bit for bit, or
    hands the point back (None, or an error) where grad may differ or
    raise; returns the number of points it replayed."""
    replayed = 0
    for x in points:
        expected = _scalar(K, x)
        try:
            got = replay(list(x))
        except Exception:   # noqa: BLE001 - the point goes back to grad
            got = None
        if got is None:
            continue
        assert not isinstance(expected, Exception), (x, expected)
        assert _hex(got) == _hex(expected), x
        replayed += 1
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
            np.testing.assert_allclose(replay(x.tolist()), fd_grad(K, x),
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
    np.testing.assert_allclose(replay(points[1].tolist()),
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
    assert _hex(grad(K, np.array([x]))) == expected
    assert _hex(grad(K, np.array([x, other, x]))) == \
        _hex([grad(K, x), grad(K, other), grad(K, x)])


def test_truth_of_a_traced_zero_is_not_taken():
    # bool(Dual(0.0, 1.0)) is True while bool(0.0) is False, so a scalar
    # pass branches per seed: the trace refuses, and grad takes every point
    K = ScalarFn(lambda x: x[0] * (2.0 if x[1] else 3.0), 2)
    replay, reason = trace_grad(K, [1.0, 0.0])
    assert replay is None and "bool()" in reason


# -- points handed back: guards and domain checks --------------------------------


def test_a_flipped_guard_hands_the_point_back():
    K = ScalarFn(lambda x: x[0] * x[1] if x[0] > 0.5 else x[1] * x[1], 2)
    replay = _replay(K, [1.0, 2.0])
    assert _hex(replay([0.75, -3.0])) == _hex(grad(K, [0.75, -3.0]))
    assert replay([0.25, -3.0]) is None
    assert replay([0.5, -3.0]) is None


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
    with pytest.raises((ValueError, ZeroDivisionError), match=message):
        grad(K, x)
    assert replay(x) is None


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
    fell_back = [r.getMessage() for r in caplog.records
                 if "fell back" in r.getMessage()]
    assert len(fell_back) == 1 and not fell_back[0].startswith(
        "simulate 'switching piston': 0 ")
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
    """simulate with every generator left untraced, on the scalar loop."""
    def run(*args, **kwargs):
        with monkeypatch.context() as patch:
            patch.setattr(tracegrad, "trace_grad",
                          lambda K, x: (None, "untraced"))
            return simulate(*args, **kwargs)
    return run


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
    replay, why = trace_grad(K, [1.5, 0.5])
    assert replay is None and reason in why
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


def test_replays_live_only_for_their_run():
    # no trace is kept between runs: each simulate traces its generators
    traces = []
    original = tracegrad.trace_grad

    def counted(K, x):
        traces.append(K.name)
        return original(K, x)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tracegrad, "trace_grad", counted)
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
    divided = ScalarFn(lambda x: x[0] / zero, 2)
    with pytest.raises(ZeroDivisionError):
        grad(divided, [1.0, 1.0])
    assert trace_grad(divided, [1.0, 1.0])[0] is None
