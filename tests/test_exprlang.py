"""Parsing, printing and evaluation of the arithmetic expression language."""

import importlib.util
import math
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltk import exprlang
from ltk.diffkit import Dual
from ltk.exprlang import (ExprBindError, ExprError, ExprEvalError,
                          ExprSyntaxError, compile_fn, evaluate, free_names,
                          parse, to_source)


def ev(source, **env):
    return evaluate(parse(source), env)


# -- grammar: precedence, associativity, literals ------------------------------


@pytest.mark.parametrize("source, expected", [
    ("2+3*4", 14.0),
    ("(2+3)*4", 20.0),
    ("2-3-4", -5.0),              # left-associative subtraction
    ("12/4/3", 1.0),              # left-associative division
    ("2^3^2", 512.0),             # right-associative power
    ("-2^2", -4.0),               # unary minus binds looser than power
    ("(-2)^2", 4.0),
    ("2*-3", -6.0),
    ("1e3", 1000.0),
    ("2.5e-2", 0.025),
    ("0.125", 0.125),
])
def test_arithmetic_oracles(source, expected):
    assert ev(source) == pytest.approx(expected, rel=1e-15)


@pytest.mark.parametrize("source, expected", [
    ("exp(0)", 1.0),
    ("ln(exp(2))", 2.0),
    ("sqrt(9)", 3.0),
    ("abs(0-3)", 3.0),
    ("pow(2,10)", 1024.0),
    ("sin(0)", 0.0),
    ("cos(0)", 1.0),
])
def test_function_oracles(source, expected):
    assert ev(source) == pytest.approx(expected, rel=1e-15)


def test_variables_bind_from_env():
    assert ev("a*b + exp(c)", a=2.0, b=3.0, c=0.0) == pytest.approx(7.0)


def test_free_names():
    assert free_names(parse("a*b + exp(c) - a")) == {"a", "b", "c"}
    assert free_names(parse("1 + 2")) == set()


# -- error reporting -----------------------------------------------------------


@pytest.mark.parametrize("source", ["2+*3", "2*(1+", "sin()", "1..2", "2 @ 3",
                                    "pow(1)", "unknownfn(1)", "", "²",
                                    "٣+1"])
def test_syntax_errors_carry_an_offset(source):
    with pytest.raises(ExprSyntaxError) as err:
        parse(source)
    assert err.value.offset >= 1


def test_unbound_variable_is_an_eval_error():
    with pytest.raises(ExprEvalError, match="unbound variable 'x'"):
        ev("x + 1")


def test_domain_error_names_the_subexpression():
    with pytest.raises(ExprEvalError, match=r"ln"):
        ev("ln(0-1)")


def test_fractional_power_of_negative_base_rejected():
    with pytest.raises(ExprEvalError):
        ev("(0-2)^0.5")


def test_integer_power_of_negative_base_allowed():
    assert ev("(0-2)^3") == -8.0


@pytest.mark.parametrize("source, message", [
    ("(1e200*x)^2", "1e+200 ** 2 is out of range in '(1e+200*x)^2.0'"),
    ("(1e200*x)^2.5", "1e+200 ** 2.5 is out of range in '(1e+200*x)^2.5'"),
    ("pow(1e200*x, 2)", "1e+200 ** 2 is out of range in 'pow(1e+200*x, 2.0)'")])
def test_a_power_out_of_range_names_its_base_and_power(source, message):
    # as a dual's power does; the error stays an OverflowError's
    with pytest.raises(ExprEvalError) as err:
        exprlang.evaluate(exprlang.parse(source), {"x": 1.0})
    assert str(err.value) == message
    assert isinstance(err.value.__cause__, OverflowError)


def test_all_errors_share_a_base_class():
    for exc in (ExprSyntaxError, ExprBindError, ExprEvalError):
        assert issubclass(exc, ExprError)


# -- printing round trip ---------------------------------------------------------


names = st.sampled_from(["x", "y", "z"])


@st.composite
def expr_sources(draw, depth=0):
    if depth >= 3 or draw(st.booleans()):
        leaf = draw(st.one_of(
            st.integers(0, 9).map(str),
            st.floats(0.1, 4.0, allow_nan=False).map(lambda v: f"{v:.3f}"),
            names))
        return leaf
    op = draw(st.sampled_from(["+", "-", "*", "/"]))
    a = draw(expr_sources(depth=depth + 1))
    b = draw(expr_sources(depth=depth + 1))
    if draw(st.booleans()):
        return f"({a}) {op} ({b})"
    fn = draw(st.sampled_from(["sin", "cos", "exp"]))
    return f"{fn}(({a}) {op} ({b}))"


@settings(max_examples=80, deadline=None)
@given(source=expr_sources(), x=st.floats(0.5, 2.0), y=st.floats(0.5, 2.0),
       z=st.floats(0.5, 2.0))
def test_print_parse_round_trip_preserves_value(source, x, y, z):
    env = {"x": x, "y": y, "z": z}
    tree = parse(source)
    printed = to_source(tree)
    reparsed = parse(printed)
    try:
        first = evaluate(tree, env)
    except ExprEvalError:
        return
    assert evaluate(reparsed, env) == pytest.approx(first, rel=1e-12, abs=1e-12)
    # printing is a fixpoint: one more round trip changes nothing
    assert to_source(reparsed) == printed


def test_to_source_respects_precedence():
    assert ev(to_source(parse("(1+2)*3"))) == 9.0
    assert ev(to_source(parse("2^(1+1)"))) == 4.0
    assert ev(to_source(parse("-(2+3)"))) == -5.0


# -- compilation to ScalarFn -----------------------------------------------------


def test_compile_fn_evaluates_positionally():
    f = compile_fn("q0^2 * p0", ["q0", "p0"])
    assert f.dim == 2
    assert f.dual_safe
    assert f([2.0, 3.0]) == pytest.approx(12.0)


def test_compiled_functions_run_on_duals():
    f = compile_fn("q0^2 * p0 + sin(q0)", ["q0", "p0"])
    y = f([Dual(2.0, 1.0), 3.0])
    assert isinstance(y, Dual)
    assert y.dot == pytest.approx(2 * 2.0 * 3.0 + math.cos(2.0), abs=1e-14)


def test_compile_fn_with_parameters():
    f = compile_fn("k * x", ["x"], params={"k": 2.5})
    assert f([2.0]) == pytest.approx(5.0)


def test_compile_fn_rejects_unresolved_names():
    with pytest.raises(ExprBindError, match="stray"):
        compile_fn("x + stray", ["x"])


def test_compile_fn_rejects_variable_parameter_clash():
    with pytest.raises(ExprBindError):
        compile_fn("x", ["x"], params={"x": 1.0})


# -- the compiled route against the reference interpreter ------------------------

JOBS = Path(__file__).resolve().parents[1] / "perfbench" / "jobs.py"


def _benchmark_jobs(monkeypatch):
    spec = importlib.util.spec_from_file_location("benchmark_jobs", JOBS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)   # for its dataclass
    spec.loader.exec_module(module)
    return module


def _bits(y):
    """Exact identity of a float or Dual, telling -0.0 from 0.0."""
    if isinstance(y, Dual):
        return (y.val.hex(), y.dot.hex())
    return (float(y).hex(),)


def _outcome(call):
    try:
        return _bits(call())
    except ExprEvalError as err:
        return ("error", str(err))


def _assert_routes_agree(source, var_names, points):
    """compile_fn and evaluate agree bit for bit on floats and on the dual
    seeds of grad (one unit seed) and dirderiv (a seed on every slot)."""
    tree = parse(source)
    f = compile_fn(source, var_names)
    for x in points:
        seeded = [list(x)]
        for i in range(len(x)):
            xi = list(x)
            xi[i] = Dual(x[i], 1.0)
            seeded.append(xi)
        seeded.append([Dual(v, 0.5 - k % 3) for k, v in enumerate(x)])
        for xs in seeded:
            env = dict(zip(var_names, xs))
            assert _outcome(lambda: f(xs)) == \
                _outcome(lambda: evaluate(tree, env)), (source, xs)


def test_compiled_benchmark_systems_match_evaluate_bit_for_bit(monkeypatch):
    jobs = _benchmark_jobs(monkeypatch)
    rng = random.Random(7)
    phase = [f"q{i}" for i in range(4)] + [f"p{i}" for i in range(4)]
    for _ in range(6):
        params = {"mass": rng.uniform(0.5, 2.0), "damping": rng.uniform(0, 1),
                  "c_v": rng.uniform(1.0, 2.5), "C": rng.uniform(0.5, 2.0),
                  "T_ref": rng.uniform(0.5, 2.0)}
        piston = jobs._custom_piston(params, None)
        compartment = jobs._custom_compartment(params, None)
        x4 = [[rng.uniform(0.2, 2.0) for _ in range(4)]
              + [rng.uniform(-1.5, 1.5) for _ in range(4)] for _ in range(3)]
        x2 = [row[:2] + row[4:6] for row in x4]
        for source in (piston["Ka"], piston["Kc"][0]):
            _assert_routes_agree(source, phase, x4)
        _assert_routes_agree(piston["gf"]["expr"], ["q1", "q2", "q3"],
                             [row[1:4] for row in x4])
        for source in (compartment["Ka"], compartment["Kc"][0]):
            _assert_routes_agree(source, phase[:2] + phase[4:6], x2)
        _assert_routes_agree(compartment["gf"]["expr"], ["q1"],
                             [row[1:2] for row in x2])


def _bracket_like_operand(rng, m):
    """A sum of q-factor * p-factor terms, the shape of the benchmark's
    bracket operands (degree 1 or 0 in p)."""
    parts = []
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(m)
        j = (i + 1 + rng.randrange(m - 1)) % m
        k = rng.randrange(m)
        c = round(rng.uniform(-1.0, 1.0), 6)
        qf = rng.choice(["1", f"q{i}", f"exp({c}*q{i})", f"q{i}*q{j}",
                         f"sin(q{i})"])
        pf = rng.choice([f"p{i}", f"p{i}*p{j}/p{k}",
                         f"sqrt(p{i}*p{i} + p{j}*p{j})", "1", f"p{i}/p{j}"])
        parts.append(f"{round(rng.uniform(0.2, 2.0), 6)}*{qf}*{pf}")
    return " + ".join(parts)


def test_compiled_bracket_operands_match_evaluate_bit_for_bit():
    rng = random.Random(11)
    for _ in range(40):
        m = rng.randint(2, 4)
        names = [f"q{i}" for i in range(m)] + [f"p{i}" for i in range(m)]
        points = [[rng.uniform(-2.0, 2.0) for _ in names] for _ in range(2)]
        points.append([0.0] * len(names))      # zero costates: domain errors
        _assert_routes_agree(_bracket_like_operand(rng, m), names, points)


@pytest.mark.parametrize("source, x", [
    ("ln(x)", -1.0),
    ("ln(0-1) + x", 2.0),                  # a constant subexpression fails
    ("x^0.5", -2.0),
    ("pow(x, 1.5)", -2.0),
    ("(0-2)^0.5 * x", 1.0),
    ("1/x", Dual(0.0, 1.0)),
    ("2*x/(x - x)", Dual(3.0, 1.0)),
    ("x^(0-1)", 0.0),
])
def test_compiled_domain_errors_read_as_evaluate_reads_them(source, x):
    with pytest.raises(ExprEvalError) as compiled:
        compile_fn(source, ["x"])([x])
    with pytest.raises(ExprEvalError) as reference:
        evaluate(parse(source), {"x": x})
    assert str(compiled.value) == str(reference.value)
    assert " in '" in str(compiled.value)


def test_compiled_function_reports_a_missing_coordinate_as_unbound():
    f = compile_fn("k*b + c", ["a", "b", "c"], params={"k": 2.0})
    with pytest.raises(ExprEvalError, match="unbound variable 'b'") as err:
        f([1.0])
    with pytest.raises(ExprEvalError) as reference:
        evaluate(parse("k*b + c"), {"a": 1.0, "k": 2.0})
    assert str(err.value) == str(reference.value)



# -- the benchmark's tracer ---------------------------------------------------

TRACER = JOBS.with_name("tracer.py")


def test_the_benchmark_tracer_binds_every_target(monkeypatch):
    # perfbench/run.py --trace 1 rebinds each target by module and name, and
    # wraps compile_fn's results with dataclasses.replace(fn=...): renaming
    # or deleting one of them must fail here rather than there
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    for modname, attr, *_ in module.TARGETS:
        target = getattr(importlib.import_module(modname), attr, None)
        assert callable(target), f"{modname}.{attr}"
    tracer = module.Tracer()
    tracer.install()
    try:
        f = exprlang.compile_fn("k*t^2", ["t"], params={"k": 2.0})
        assert f([3.0]) == 18.0 and f.dim == 1 and f.dual_safe
    finally:
        tracer.uninstall()
    assert exprlang.compile_fn is compile_fn
    assert tracer.count("exprlang.compile") == 1
    assert tracer.count("exprlang.eval") == 1
