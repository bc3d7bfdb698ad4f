"""Parsing, printing and evaluation of the arithmetic expression language."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
                                    "pow(1)", "unknownfn(1)", ""])
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
