"""Dual-number arithmetic and the finite-difference gradient oracle.

The dual and central-difference routes are independent implementations of the
same derivative; these tests exercise each on its own against hand-computed
values, then cross-check them on generated smooth functions.
"""

import importlib.util
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import TracedGradient
from hypothesis import given, settings
from hypothesis import strategies as st

from ltk import cli
from ltk.diffkit import (FD_STEP, Dual, ScalarFn, _sample_rows,
                         _value_and_dirderiv, _values_and_dirderivs,
                         _values_and_grads, cos, dirderiv, exp, fd_grad, grad,
                         ln, sin, sqrt)
from ltk.exprlang import ExprEvalError, compile_fn
from ltk.portsys import (_sample_surface_params, gas_piston_damper,
                         heat_compartment, heat_exchanger)
from ltk.submanifold import lift_generating_function, liouville_point

finite = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False, width=64)
nonzero = finite.filter(lambda v: abs(v) > 1e-3)


# -- Dual arithmetic against hand expansion -----------------------------------


def test_dual_product_rule():
    x = Dual(2.0, 1.0)
    y = x * x * x            # d/dx x^3 = 3 x^2
    assert y.val == 8.0
    assert y.dot == 12.0


def test_dual_quotient_rule():
    x = Dual(3.0, 1.0)
    y = (x + 1.0) / (x - 1.0)    # d/dx = -2 / (x-1)^2 = -0.5 at x=3
    assert y.val == pytest.approx(2.0, abs=1e-15)
    assert y.dot == pytest.approx(-0.5, abs=1e-15)


def test_dual_scalar_promotion():
    x = Dual(1.5, 2.0)
    assert (1.0 + x).dot == 2.0
    assert (4.0 - x).dot == -2.0
    assert (3.0 * x).dot == 6.0
    assert (6.0 / Dual(2.0, 1.0)).dot == pytest.approx(-1.5)


def test_dual_integer_power_any_base():
    x = Dual(-2.0, 1.0)
    y = x ** 3
    assert y.val == -8.0
    assert y.dot == 12.0


def test_dual_fractional_power_needs_positive_base():
    with pytest.raises(ValueError, match="positive base"):
        Dual(-2.0, 1.0) ** 0.5


def test_dual_power_zero_exponent_is_constant_one():
    y = Dual(0.7, 3.0) ** 0
    assert (y.val, y.dot) == (1.0, 0.0)


def test_dual_division_by_zero_value_raises():
    with pytest.raises(ZeroDivisionError):
        Dual(1.0, 0.0) / Dual(0.0, 1.0)


def test_dual_division_is_correctly_rounded():
    # the value of a quotient is the float quotient, so a dual pass carries
    # the plain evaluation's value bit for bit
    rng = np.random.default_rng(5)
    a, b = rng.uniform(-10.0, 10.0, (2, 10000)).tolist()
    dual_over_dual = sum((Dual(x, 0.0) / Dual(y, 0.0)).val != x / y
                         for x, y in zip(a, b))
    float_over_dual = sum((x / Dual(y, 0.0)).val != x / y
                          for x, y in zip(a, b))
    assert (dual_over_dual, float_over_dual) == (0, 0)


@pytest.mark.parametrize("op", [lambda a, d: a * d, lambda a, d: d * a,
                                lambda a, d: a + d, lambda a, d: d - a])
def test_numpy_arrays_do_not_mix_with_duals(op):
    # without numpy deferring to Dual, array * Dual silently built an object
    # array of Duals
    with pytest.raises(TypeError):
        op(np.array([1.0, 2.0]), Dual(1.0, 1.0))


def test_numpy_scalars_promote_like_floats():
    y = np.float64(3.0) * Dual(2.0, 1.0)
    assert isinstance(y, Dual) and (y.val, y.dot) == (6.0, 3.0)
    # a single dual holds Python floats, whatever it was built or mixed
    # with: numpy scalars would overflow and divide by zero silently
    x = Dual(np.float64(0.7), np.float64(1.0))
    c = np.float64(1.5)
    for y in [x, c * x, x + c, c - x, x / c, c / x, 2 * x, x - 1, 3 / x,
              abs(x), abs(-x), x ** 3, x ** c, x ** 0, x ** 2.5, c ** x,
              exp(x), ln(x), sqrt(x), sin(x), cos(x)]:
        assert type(y.val) is float and type(y.dot) is float, y


def test_a_batch_of_duals_has_no_single_truth_value():
    batch = Dual(np.array([1.0, 2.0]), np.array([[1.0, 0.0]]))
    for compare in (lambda: batch < 1.5, lambda: 1.5 >= batch,
                    lambda: batch == batch, lambda: batch == 1.0,
                    lambda: hash(batch)):
        with pytest.raises(TypeError):
            compare()


def test_dual_abs_kink_convention():
    assert abs(Dual(-3.0, 1.0)).dot == -1.0
    assert abs(Dual(0.0, 5.0)).dot == 0.0


def test_transcendentals_on_duals():
    x = Dual(0.7, 1.0)
    assert exp(x).dot == pytest.approx(math.exp(0.7), abs=1e-15)
    assert ln(x).dot == pytest.approx(1.0 / 0.7, abs=1e-15)
    assert sqrt(x).dot == pytest.approx(0.5 / math.sqrt(0.7), abs=1e-15)
    assert sin(x).dot == pytest.approx(math.cos(0.7), abs=1e-15)
    assert cos(x).dot == pytest.approx(-math.sin(0.7), abs=1e-15)


def test_transcendentals_on_floats_match_math():
    assert exp(0.3) == math.exp(0.3)
    assert ln(2.0) == math.log(2.0)
    assert sqrt(2.0) == math.sqrt(2.0)


@pytest.mark.parametrize("name", ["exp", "ln", "sqrt", "sin", "cos"])
def test_a_recorder_records_the_call_without_being_read(name):
    from ltk import diffkit

    class Recorder(diffkit._Recorder):
        def __float__(self):
            raise AssertionError(f"{name} read the recorder with float()")

        def _record_call(self, kind):
            return ("recorded", kind)

    assert getattr(diffkit, name)(Recorder()) == ("recorded", name)


def test_domain_errors():
    with pytest.raises(ValueError):
        ln(Dual(-1.0, 1.0))
    with pytest.raises(ValueError):
        ln(0.0)
    with pytest.raises(ValueError):
        sqrt(-1.0)
    with pytest.raises(ValueError, match="not differentiable"):
        sqrt(Dual(0.0, 1.0))
    assert sqrt(Dual(0.0, 0.0)).val == 0.0


# -- gradients: hand values, then dual vs central difference ------------------


def _poly2(x):
    # f(a, b) = a^2 b + sin(b); grad = (2ab, a^2 + cos(b))
    a, b = x[0], x[1]
    return a * a * b + sin(b)


POLY2 = ScalarFn(_poly2, dim=2, name="a^2 b + sin b")


def test_grad_hand_value():
    g = grad(POLY2, [1.5, 0.7])
    assert g[0] == pytest.approx(2.1, abs=1e-15)
    assert g[1] == pytest.approx(2.25 + math.cos(0.7), abs=1e-15)


def test_grad_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        grad(POLY2, [1.0, 2.0, 3.0])


@pytest.mark.parametrize("x, got", [
    (1.5, "a scalar"), (np.asarray(1.5), "a scalar"), (np.int64(2), "a scalar"),
    ([1.0, 2.0, 3.0], "3"), (np.ones(1), "1")])
def test_every_single_point_route_checks_its_dimension(x, got):
    # grad, fd_grad and dirderiv (point and direction) share one check,
    # which a scalar or a 0-d array meets as a wrong width does
    message = f"^{re.escape(POLY2.name)} expects dimension 2, got {got}$"
    for route in (lambda: grad(POLY2, x), lambda: fd_grad(POLY2, x),
                  lambda: dirderiv(POLY2, x, [1.0, 0.0]),
                  lambda: dirderiv(POLY2, [1.0, 0.0], x)):
        with pytest.raises(ValueError, match=message):
            route()


def test_fd_grad_matches_hand_value():
    g = fd_grad(POLY2, [1.5, 0.7])
    assert g[0] == pytest.approx(2.1, abs=1e-9)
    assert g[1] == pytest.approx(2.25 + math.cos(0.7), abs=1e-9)


def test_fd_grad_rejects_nonpositive_step():
    with pytest.raises(ValueError, match="step"):
        fd_grad(POLY2, [1.0, 1.0], h=0.0)


def test_fd_step_is_cbrt_eps():
    assert FD_STEP == pytest.approx(np.finfo(float).eps ** (1 / 3))


def test_grad_falls_back_to_fd_when_not_dual_safe():
    # A function that secretly floors its input cannot run on duals; the
    # flag routes grad through the central-difference path instead.
    f = ScalarFn(lambda x: float(x[0]) ** 2, dim=1, dual_safe=False)
    g = grad(f, [3.0])
    assert g[0] == pytest.approx(6.0, rel=1e-9)


@settings(max_examples=60, deadline=None)
@given(a=finite, b=finite)
def test_dual_and_fd_routes_agree(a, b):
    f = ScalarFn(lambda x: exp(0.3 * x[0]) * cos(x[1]) + x[0] * x[1] ** 3,
                 dim=2, name="smooth")
    exact = grad(f, [a, b])
    approx = fd_grad(f, [a, b])
    assert np.allclose(exact, approx, rtol=1e-6, atol=1e-6)


@settings(max_examples=40, deadline=None)
@given(a=nonzero, b=nonzero, da=finite, db=finite)
def test_dirderiv_is_gradient_contraction(a, b, da, db):
    g = grad(POLY2, [a, b])
    d = dirderiv(POLY2, [a, b], [da, db])
    assert d == pytest.approx(g[0] * da + g[1] * db, rel=1e-12, abs=1e-12)


def test_dirderiv_zero_direction_non_dual_safe():
    f = ScalarFn(lambda x: x[0] ** 2, dim=1, dual_safe=False)
    assert dirderiv(f, [2.0], [0.0]) == 0.0


def test_dirderiv_fd_path_exact_on_quadratics():
    # Along any ray a quadratic has no third derivative, so the central
    # difference in the non-dual path carries only roundoff (about eps / h).
    f = ScalarFn(lambda x: x[0] * x[1], dim=2, dual_safe=False)
    d = dirderiv(f, [1.0, 2.0], [3.0, 4.0])
    assert d == pytest.approx(1.0 * 4.0 + 2.0 * 3.0, rel=1e-9)


def test_scalar_fn_is_callable_and_frozen():
    assert POLY2([1.0, 0.0]) == pytest.approx(0.0)
    with pytest.raises(AttributeError):
        POLY2.dim = 3


# -- batched gradients: one vector-mode pass over the rows of X ----------------

JOBS = Path(__file__).resolve().parents[1] / "perfbench" / "jobs.py"


def _benchmark_system(kind: str):
    """The benchmark's expression transcription of a built-in system."""
    spec = importlib.util.spec_from_file_location("benchmark_jobs", JOBS)
    jobs = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = jobs    # for its dataclass
    spec.loader.exec_module(jobs)
    params = {"mass": 1.3, "damping": 0.4, "c_v": 1.7, "C": 1.2, "T_ref": 0.9}
    return cli._build_custom_system(getattr(jobs, kind)(params, None))


SYSTEMS = {
    "piston": gas_piston_damper,
    "exchanger": heat_exchanger,
    "expression piston": lambda: _benchmark_system("_custom_piston"),
    "expression compartment": lambda: _benchmark_system("_custom_compartment"),
}

TWIN_DEFAULTS = {
    "expression piston": gas_piston_damper().default_params,
    "expression compartment": heat_compartment().default_params,
}


def _hex(a):
    return [v.hex() for v in np.asarray(a, dtype=float).ravel().tolist()]


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_batched_grad_rows_are_the_scalar_gradients_bit_for_bit(name):
    # the generators at sampled surface points, and the lift, whose batch
    # gradient realizes every surface point, at the sampled parameters and
    # at the defaults (an expression system's are its built-in twin's),
    # which hold exact zeros
    system = SYSTEMS[name]()
    defaults = system.default_params or TWIN_DEFAULTS[name]
    params = np.array(_sample_surface_params(system, 200, 3))
    X = np.array([liouville_point(system.gf, p).packed() for p in params])
    lift = lift_generating_function(system.gf)
    cases = [(K, X) for K in (system.Ka,) + tuple(system.Kc)]
    cases += [(lift, params), (lift, np.array([defaults]))]
    for K, points in cases:
        G = grad(K, points)
        assert G.shape == points.shape
        scalar = np.array([grad(K, x) for x in points])
        assert _hex(G) == _hex(scalar), K.name
        fd = np.array([fd_grad(K, x) for x in points])
        assert np.allclose(G, fd, rtol=1e-6, atol=1e-6), K.name


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_batched_directional_rows_are_the_scalar_passes_bit_for_bit(name):
    # the passes of euler_residual and of the port flows: each generator at
    # sampled surface points along the Z and W Euler fields and along the
    # energy and entropy indicators, every row against the scalar pass
    system = SYSTEMS[name]()
    m = system.n_coords
    params = np.array(_sample_surface_params(system, 200, 3))
    X = np.array([liouville_point(system.gf, p).packed() for p in params])
    Z, W = np.zeros_like(X), np.zeros_like(X)
    Z[:, m:], W[:, :m] = X[:, m:], X[:, :m]
    directions = {"Z": Z, "W": W}
    for kind in ("energy", "entropy"):
        D = directions[kind] = np.zeros_like(X)
        D[:, [m + i for i in getattr(system, f"{kind}_indices")]] = 1.0
    for K in (system.Ka,) + tuple(system.Kc):
        for kind, D in directions.items():
            vals, dots = _values_and_dirderivs(K, X, D)
            scalar = [_value_and_dirderiv(K, x, d)
                      for x, d in zip(X.tolist(), D.tolist())]
            assert (_hex(np.column_stack([vals, dots])) == _hex(scalar)), \
                (K.name, kind)


@pytest.mark.parametrize("source", [
    "sqrt(q0*q1) - ln(q2) * exp(-q0)",
    "pow(q0, 2) * sin(q1) / cos(q2) + abs(q0 - q1)",
    "(q0 + q1) ^ -3 + q2 ^ 2.5 - 1 / q1",
    "q0 ^ (q1 + 0.5) + 2 ^ q2",
    "q0 ^ 0 * q1 + q2",
    "abs(q0 - q1) * q2",
])
def test_batched_grad_covers_every_operation_bit_for_bit(source):
    f = compile_fn(source, ["q0", "q1", "q2"])
    X = np.random.default_rng(1).uniform(0.2, 3.0, (300, 3))
    assert _hex(grad(f, X)) == _hex([grad(f, x) for x in X])
    # rows with q0 == q1 exactly, where abs(q0 - q1) takes its kink and a
    # partial can be a zero of either sign: the batch, the scalar loop and
    # a replay of a traceable source agree in raw bits, as every route
    # returns a zero partial as +0.0
    kink = X[:30, [0, 0, 2]]
    expected = _hex([grad(f, x) for x in kink])
    assert _hex(grad(f, kink)) == expected
    replay = TracedGradient(f, (), kink[0])
    assert _hex([replay(x) for x in kink.tolist()]) == expected


def test_a_batch_exponent_at_integer_values_is_the_scalar_pass():
    # where a point-dependent exponent is an integer, a single pass takes
    # the integer-power rule for the seeds the exponent does not read; the
    # batch's rows take that pass, so every row is the point alone
    f = compile_fn("q0 ^ q1 + 2 ^ q2 * q0", ["q0", "q1", "q2"])
    X = np.random.default_rng(4).uniform(0.2, 3.0, (60, 3))
    X[::3, 1:] = np.round(X[::3, 1:])
    assert _hex(grad(f, X)) == _hex([grad(f, x) for x in X])
    D = np.random.default_rng(5).uniform(-1.0, 1.0, X.shape)
    D[::2, 1:] = 0.0
    vals, dots = _values_and_dirderivs(f, X, D)
    assert _hex(np.column_stack([vals, dots])) == _hex(
        [_value_and_dirderiv(f, x, d) for x, d in zip(X.tolist(), D.tolist())])


def test_one_row_batches_of_a_point_dependent_exponent():
    # a batch exponent sends each row to the scalar pass; read as a single
    # dual exponent, a one-row batch would reach ndarray.is_integer and a
    # gradient batch the truth value of its array of dots
    f = compile_fn("q0 ^ (q1 + 0.5)", ["q0", "q1"])
    x = [1.7, 1.2]
    for d in ([1.0, 0.0], [0.3, -1.0]):    # q1 fixed, then moving
        vals, dots = _values_and_dirderivs(f, np.array([x]), np.array([d]))
        assert _hex([vals[0], dots[0]]) == _hex(_value_and_dirderiv(f, x, d))
    assert _hex(grad(f, np.array([x]))) == _hex(grad(f, x))


def test_batched_grad_of_one_row_and_dimension_check():
    X = np.array([[1.5, 0.7]])
    assert _hex(grad(POLY2, X)) == _hex(grad(POLY2, X[0]))
    with pytest.raises(ValueError, match="dimension"):
        grad(POLY2, np.ones((3, 3)))


@pytest.mark.parametrize("source, bad, message", [
    ("ln(q0) * q1", [-1.0, 1.0], "ln requires a positive argument"),
    ("q0 ^ 0.5 + q1", [-1.0, 1.0], "non-integer exponent"),
    ("q1 / q0", [0.0, 1.0], "zero value"),
    ("1 / q0 + q1", [0.0, 1.0], "zero value"),
    ("q0 ^ -2 + q1", [0.0, 1.0], "negative power"),
    ("sqrt(q0) + q1", [-1.0, 1.0], "nonnegative argument"),
    ("exp(q0) * q1", [1000.0, 1.0], "math range error"),
    ("q0 ^ (q1 + 0.5)", [-1.0, 1.0], "non-integer exponent"),
])
def test_batched_grad_domain_errors_name_the_row(source, bad, message):
    f = compile_fn(source, ["q0", "q1"])
    X = np.array([[0.5, 1.0], [2.0, 3.0], bad, [1.5, 0.2]])
    with pytest.raises(ExprEvalError, match=f"{message}.*batch row 2"):
        grad(f, X)
    assert _hex(grad(f, X[[0, 1, 3]])) == \
        _hex([grad(f, x) for x in X[[0, 1, 3]]])


def test_batched_grad_of_a_comparing_function_takes_one_row_at_a_time():
    def branchy(x):
        if x[0] <= 0.0:
            raise ValueError("x0 must be positive")
        return x[0] * x[1] if x[1] > 1.0 else x[0] / x[1]

    f = ScalarFn(branchy, dim=2)
    X = np.array([[1.0, 2.0], [0.5, 0.3], [2.0, 1.5]])
    assert _hex(grad(f, X)) == _hex([grad(f, x) for x in X])
    values, grads = _values_and_grads(f, X)     # with the values too
    assert _hex(values) == _hex([f(x) for x in X.tolist()])
    assert _hex(grads) == _hex(grad(f, X))
    with pytest.raises(ValueError, match="positive"):
        grad(f, np.array([[1.0, 2.0], [-1.0, 2.0]]))


def test_batched_grad_of_a_non_dual_safe_function_is_fd_grad_row_by_row():
    f = ScalarFn(lambda x: math.exp(0.3 * float(x[0])) * math.cos(float(x[1])),
                 dim=2, dual_safe=False)
    X = np.array([[0.1, 0.2], [-1.0, 2.5], [3.0, -0.7]])
    assert _hex(grad(f, X)) == _hex([fd_grad(f, x) for x in X])
    values, grads = _values_and_grads(f, X)     # with the values too
    assert _hex(values) == _hex([f(x) for x in X.tolist()])
    assert _hex(grads) == _hex(grad(f, X))


# -- the sampled-check driver -------------------------------------------------


def _logged_rows(values, calls):
    """A row function over ``values``: an entry that is an exception class
    raises it, any other entry is the row's result; ``calls`` logs the rows
    of every call."""
    def fn(rows):
        calls.append((rows.start, rows.stop))
        out = []
        for v in values[rows]:
            if isinstance(v, type):
                raise v("bad row")
            out.append(v)
        return out
    return fn


def test_sample_rows_runs_one_batch_when_every_row_evaluates():
    calls = []
    kept, R = _sample_rows(_logged_rows([[1.0, 2.0], [3.0, 4.0]], calls), 2)
    assert calls == [(0, 2)]
    assert kept.tolist() == [0, 1]
    assert R.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    calls.clear()
    kept, R = _sample_rows(_logged_rows([], calls), 0)
    assert calls == [] and kept.tolist() == [] and R.tolist() == []


def test_sample_rows_reruns_rows_in_order_and_skips_failing_ones():
    calls = []
    values = [1.0, ZeroDivisionError, 3.0, math.nan, ValueError, math.inf,
              OverflowError, 8.0]
    kept, R = _sample_rows(_logged_rows(values, calls), len(values))
    assert calls == [(0, 8)] + [(i, i + 1) for i in range(8)]
    assert kept.tolist() == [0, 2, 7]
    assert R.tolist() == [1.0, 3.0, 8.0]
    # a batch that returns a non-finite row fails too, and so does a row
    # with one non-finite entry
    calls.clear()
    kept, R = _sample_rows(
        _logged_rows([[1.0, math.nan], [2.0, 3.0]], calls), 2)
    assert calls == [(0, 2), (0, 1), (1, 2)]
    assert kept.tolist() == [1]
    assert R.tolist() == [[2.0, 3.0]]


@pytest.mark.parametrize("bad, error, message", [
    (OverflowError, OverflowError, "bad row at sample 2"),
    (math.nan, ValueError, r"non-finite result nan at sample 2"),
    (TypeError, TypeError, "bad row at sample 2"),
])
def test_sample_rows_names_the_first_failing_row(bad, error, message):
    values = [1.0, 2.0, bad, ZeroDivisionError]
    with pytest.raises(error, match=f"^{message}$"):
        _sample_rows(_logged_rows(values, []), len(values),
                     lambda i: f"at sample {i}")


def test_sample_rows_raises_an_error_that_is_not_a_domain_error():
    values = [1.0, ZeroDivisionError, TypeError, 4.0]
    with pytest.raises(TypeError, match="^bad row$"):
        _sample_rows(_logged_rows(values, []), len(values))
