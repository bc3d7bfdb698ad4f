"""A small arithmetic expression language for configuration files.

Hamiltonians, generating functions and input signals can be supplied as
strings like ``"pS*d*(pi/m)^2/dUdS"`` or ``"0.1*sin(t)"``.  The grammar is a
closed, non-extensible arithmetic core::

    additive       := multiplicative (("+" | "-") multiplicative)*
    multiplicative := unary (("*" | "/") unary)*
    unary          := "-" unary | power
    power          := atom ("^" unary)?          # right-associative
    atom           := NUMBER | NAME | NAME "(" args ")" | "(" additive ")"

Functions are limited to ``exp, ln, sqrt, pow, sin, cos, abs`` so that every
expression stays evaluable over dual numbers as well as floats; evaluating an
expression in an environment of :class:`~ltk.diffkit.Dual` values therefore
yields derivatives for free.  Numeric literals are plain decimals with an
optional exponent.  ``^`` with a non-integer exponent requires a positive
base at evaluation time.

Variable names are free identifiers; they are resolved against a declared
name list when :func:`compile_fn` binds an expression to a
:class:`~ltk.diffkit.ScalarFn` (unresolved names are a bind error, never a
silent zero).

:func:`evaluate` is the one evaluator.  :func:`compile_fn` parses an
expression and resolves its names once, at bind time; each call of the
result evaluates the tree with :func:`evaluate`.  Where an expression is read
many times, its code is traced once from that evaluation and replayed as
straight-line Python (:mod:`ltk.tracegrad`): the generators of a phase
field that :func:`~ltk.dynamics.integrate` steps, ``simulate``'s among
them, and the expression inputs of ``PortSignal.from_exprs``.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import diffkit
from .diffkit import _DOMAIN_ERRORS, Dual, ScalarFn, _Recorder, _power

__all__ = [
    "Expr",
    "Num",
    "Var",
    "Unary",
    "Bin",
    "Call",
    "ExprError",
    "ExprSyntaxError",
    "ExprBindError",
    "ExprEvalError",
    "parse",
    "evaluate",
    "to_source",
    "compile_fn",
]


class ExprError(Exception):
    """Base class for all expression-language errors."""


class ExprSyntaxError(ExprError):
    """Parse failure; ``offset`` is the 1-based character position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"syntax error at offset {offset}: {message}")
        self.offset = offset


class ExprBindError(ExprError):
    """An expression references names not present in the declared name map."""


class ExprEvalError(ExprError, ValueError):
    """Unbound variable or numeric domain error during evaluation; a
    ``ValueError``, so sampled checks skip such points as a built-in's."""


# -- abstract syntax -----------------------------------------------------------


class Expr:
    """Base class of AST nodes.  Nodes are immutable and compare structurally."""

    __slots__ = ()


@dataclass(frozen=True)
class Num(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class Unary(Expr):
    operand: Expr


@dataclass(frozen=True)
class Bin(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Call(Expr):
    func: str
    args: tuple


# function name -> arity
FUNCTIONS = {"exp": 1, "ln": 1, "sqrt": 1, "sin": 1, "cos": 1, "abs": 1, "pow": 2}


# -- lexer --------------------------------------------------------------------

_OPS = set("+-*/^(),")
_DIGITS = set("0123456789")    # str.isdigit also takes "²" and "٣"


def _tokenize(source: str):
    """Yield (kind, text, 1-based offset) triples, ending with an EOF token."""
    tokens = []
    i, n = 0, len(source)
    while i < n:
        c = source[i]
        if c in " \t\r\n":
            i += 1
            continue
        start = i
        if c in _DIGITS:
            i += 1
            while i < n and source[i] in _DIGITS:
                i += 1
            if i < n and source[i] == ".":
                i += 1
                if i >= n or source[i] not in _DIGITS:
                    raise ExprSyntaxError("digit expected after decimal point",
                                          min(i + 1, max(1, n)))
                while i < n and source[i] in _DIGITS:
                    i += 1
            if i < n and source[i] in "eE":
                j = i + 1
                if j < n and source[j] in "+-":
                    j += 1
                if j < n and source[j] in _DIGITS:
                    i = j + 1
                    while i < n and source[i] in _DIGITS:
                        i += 1
            tokens.append(("num", source[start:i], start + 1))
        elif c.isalpha() or c == "_":
            i += 1
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
            tokens.append(("name", source[start:i], start + 1))
        elif c in _OPS:
            tokens.append((c, c, start + 1))
            i += 1
        else:
            raise ExprSyntaxError(f"unexpected character {c!r}", start + 1)
    # EOF reports the position of the last consumed character so that
    # truncated input like "2*(1+" points at the spot where text ran out.
    tokens.append(("eof", "", max(1, n)))
    return tokens


# -- parser --------------------------------------------------------------------


class _Parser:
    def __init__(self, source: str):
        self.tokens = _tokenize(source)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str):
        tok = self.peek()
        if tok[0] != kind:
            raise ExprSyntaxError(f"expected {what}", tok[2])
        return self.advance()

    def parse(self) -> Expr:
        e = self.additive()
        tok = self.peek()
        if tok[0] != "eof":
            raise ExprSyntaxError(f"expected operator or end of input, got {tok[1]!r}",
                                  tok[2])
        return e

    def additive(self) -> Expr:
        e = self.multiplicative()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            e = Bin(op, e, self.multiplicative())
        return e

    def multiplicative(self) -> Expr:
        e = self.unary()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            e = Bin(op, e, self.unary())
        return e

    def unary(self) -> Expr:
        if self.peek()[0] == "-":
            self.advance()
            return Unary(self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.peek()[0] == "^":
            self.advance()
            return Bin("^", base, self.unary())
        return base

    def atom(self) -> Expr:
        kind, text, offset = self.peek()
        if kind == "num":
            self.advance()
            return Num(float(text))
        if kind == "name":
            self.advance()
            if self.peek()[0] == "(":
                if text not in FUNCTIONS:
                    raise ExprSyntaxError(f"unknown function {text!r}", offset)
                self.advance()
                args = [self.additive()]
                while self.peek()[0] == ",":
                    self.advance()
                    args.append(self.additive())
                self.expect(")", "')'")
                if len(args) != FUNCTIONS[text]:
                    raise ExprSyntaxError(
                        f"{text} takes {FUNCTIONS[text]} argument(s), got {len(args)}",
                        offset)
                return Call(text, tuple(args))
            return Var(text)
        if kind == "(":
            self.advance()
            e = self.additive()
            self.expect(")", "')'")
            return e
        got = repr(text) if text else "end of input"
        raise ExprSyntaxError(f"expected a number, name or '(', got {got}", offset)


def parse(source: str) -> Expr:
    """Parse ``source`` into an AST, or raise :class:`ExprSyntaxError`."""
    if not isinstance(source, str):
        raise TypeError("expression source must be a string")
    return _Parser(source).parse()


# -- printer --------------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
_UNARY_PREC = 3
_ATOM_PREC = 5


def _prec(e: Expr) -> int:
    if isinstance(e, Bin):
        return _PREC[e.op]
    if isinstance(e, Unary):
        return _UNARY_PREC
    return _ATOM_PREC


def to_source(e: Expr) -> str:
    """Render an AST back to a parseable string (round-trips structurally)."""
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Call):
        return f"{e.func}({', '.join(to_source(a) for a in e.args)})"
    if isinstance(e, Unary):
        inner = to_source(e.operand)
        if _prec(e.operand) < _UNARY_PREC:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(e, Bin):
        p = _PREC[e.op]
        left, right = to_source(e.left), to_source(e.right)
        if e.op == "^":
            # right-associative: parenthesize the left child on ties
            if _prec(e.left) <= p:
                left = f"({left})"
            if _prec(e.right) < _UNARY_PREC:
                right = f"({right})"
        else:
            if _prec(e.left) < p:
                left = f"({left})"
            if _prec(e.right) <= p:
                right = f"({right})"
        return f"{left}{e.op}{right}"
    raise TypeError(f"not an expression node: {e!r}")


# -- evaluation --------------------------------------------------------------

def _pow(a, b, node):
    """Generic power with the domain rule: fractional exponents need base > 0.

    A float base is checked here, where ``**`` would silently go complex,
    and a power of plain numbers that overflows names its base and power,
    as a dual's does; a dual base, single or batched, checks its own value
    in ``**``.  A single
    dual exponent with a zero derivative and an integer value takes the
    integer rule, as a float does; a batch exponent, whose rows may differ,
    takes the general rule, short of an integer value on some row, where it
    raises ``TypeError`` in ``**``, which sends each row to the scalar pass;
    a traced one fails its trace there.
    """
    if isinstance(b, (Dual, _Recorder)):
        b_int = (int(b.val) if isinstance(b, Dual) and isinstance(b.val, float)
                 and b.dot == 0.0 and b.val.is_integer() else None)
    else:
        b_int = int(b) if float(b).is_integer() else None
    plain = isinstance(a, (float, int))
    try:
        if b_int is not None:
            return _power(a, b_int) if plain else a ** b_int
        if plain and a <= 0.0:
            raise ValueError(
                "power with non-integer exponent requires a positive base")
        return _power(a, b) if plain and isinstance(b, (float, int)) \
            else a ** b
    except _DOMAIN_ERRORS as err:
        raise ExprEvalError(f"{err} in {to_source(node)!r}") from err


def evaluate(e: Expr, env: dict):
    """Evaluate ``e`` in ``env`` (name -> float or Dual).

    The result lives in the same scalar field as the environment entries.
    Unbound variables and numeric domain errors raise :class:`ExprEvalError`
    naming the offending subexpression.
    """
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        try:
            return env[e.name]
        except KeyError:
            raise ExprEvalError(f"unbound variable {e.name!r}") from None
    if isinstance(e, Unary):
        return -evaluate(e.operand, env)
    if isinstance(e, Bin):
        a = evaluate(e.left, env)
        if e.op == "^":
            return _pow(a, evaluate(e.right, env), e)
        b = evaluate(e.right, env)
        try:
            if e.op == "+":
                return a + b
            if e.op == "-":
                return a - b
            if e.op == "*":
                return a * b
            return a / b
        except _DOMAIN_ERRORS as err:
            raise ExprEvalError(f"{err} in {to_source(e)!r}") from err
    if isinstance(e, Call):
        args = [evaluate(a, env) for a in e.args]
        if e.func == "pow":
            return _pow(args[0], args[1], e)
        try:
            if e.func == "abs":
                return abs(args[0])
            return getattr(diffkit, e.func)(args[0])
        except _DOMAIN_ERRORS as err:
            raise ExprEvalError(f"{err} in {to_source(e)!r}") from err
    raise TypeError(f"not an expression node: {e!r}")


def free_names(e: Expr) -> set:
    """All variable names referenced by ``e``."""
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, Unary):
        return free_names(e.operand)
    if isinstance(e, Bin):
        return free_names(e.left) | free_names(e.right)
    if isinstance(e, Call):
        return set().union(*(free_names(a) for a in e.args))
    return set()


# -- binding to a coordinate layout ------------------------------------------


def compile_fn(source, var_names, params=None, name: str = "") -> ScalarFn:
    """Bind an expression to a coordinate layout, yielding a ScalarFn.

    ``var_names[i]`` is the name bound to coordinate ``i`` of the input
    vector; ``params`` supplies fixed named constants.  Names that resolve to
    neither are a bind error.  The source is parsed and its names resolved
    here, once; a call evaluates the tree with :func:`evaluate` in an
    environment of the parameters and the coordinates, so a coordinate the
    input vector lacks reads as an unbound variable.
    """
    expr = parse(source) if isinstance(source, str) else source
    var_names = list(var_names)
    params = dict(params or {})
    clash = set(var_names) & set(params)
    if clash:
        raise ExprBindError(f"names bound both as variables and parameters: "
                            f"{sorted(clash)}")
    unresolved = free_names(expr) - set(var_names) - set(params)
    if unresolved:
        raise ExprBindError(
            f"unresolved names {sorted(unresolved)}; "
            f"declared variables: {var_names}, parameters: {sorted(params)}")

    def fn(x):
        env = dict(params)
        env.update(zip(var_names, x))
        return evaluate(expr, env)

    return ScalarFn(fn, dim=len(var_names),
                    name=name or (source if isinstance(source, str) else to_source(expr)))
