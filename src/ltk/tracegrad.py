"""Traced code: functions recorded once and emitted as straight-line
Python, a list of functions as the lines of each one's gradient
(:class:`FieldCode`), from which a phase field of :mod:`ltk.dynamics`
writes the gradient of its generators' sum and inlines it at each RK4
stage of its block runner, and, where asked, of each one's Hessian times
a direction, which the flow-transport check's adjoint sweep inlines,
expression inputs as one kernel of their values, and sums of partials
(port outputs, a bracket's operands) as one kernel that runs on duals.

A function runs once on :class:`_Traced` coordinates, which record each
operation as a node, and one body emitter writes the nodes as Python
source (forward mode on a recorded tape; Griewank & Walther, *Evaluating
Derivatives*, 2nd ed.): each value once and then, for each seed
coordinate the node reads, the derivative by the scalar
:class:`~ltk.diffkit.Dual` formula in the same operand order.  A node that
does not read a seed is a plain float in that seed's scalar pass of
:func:`~ltk.diffkit.grad` and carries no derivative there, so every partial
is grad's bit for bit, zero partials as +0.0.  A factor 1.0 is left out of
a product, which changes no bit, and so is a line that no later line reads
where it cannot raise: a derivative's (each division in it is guarded by
a value line's check, and it calls no ``math`` function), or the value
line of a sum, difference, product or negation.  Each value is recorded
once: within one function an operation of the same kind on the same
operands is the node already made, constants equal in type and repr share
one name (so 0.0 and -0.0, or 1 and 1.0, stay apart), and a derivative
that reads only constants is computed at trace time by the same operator
and becomes one more constant.  Nodes are never shared between functions:
:class:`FieldCode` keeps each function's gradient code apart, its names
numbered on across them, so that a caller may place several in one body.

A comparison becomes a guard, and each condition under which a scalar
pass raises becomes a check (a zero divisor; ``ln``, ``sqrt`` or a
fractional power outside its domain; ``sqrt`` at 0 along a moving seed; 0
to a negative power).  The code raises where a guard comes out otherwise
or a check trips, as it does where an operation raises, and its caller
computes that point another way: a block of the block runner reruns on
the vector pass of :mod:`ltk.dynamics`, which returns or raises as
``grad`` always did.  As a ``Dual`` compares derivatives too, ``==``
and ``!=`` are guards only of values that differ at the traced point,
and the code raises where they are equal.  A traced value is a
:class:`~ltk.diffkit._Recorder`, which diffkit's ``exp``, ``ln``,
``sqrt``, ``sin`` and ``cos`` recognise before any ``math`` call.  Any
other read of it (``==`` of equal values, ``bool``, ``float``, ``int``,
``hash``, an attribute, numpy, a traced exponent) makes the function
untraceable at once, and its field runs on the vector pass throughout.
No user text enters the generated source:
constants go in through its namespace, so a source depends on the shape
of the generators and on which of their constants are equal, not on their
values, and its code object is compiled once and kept by its text (the
8 sources used last).  The block runner of a field inlines its body at
each of the four stages, so it compiles in about 4 times the time of
one stage alone (1.8-2.5 ms against 0.4-0.6 ms for the built-in piston and
exchanger, median process CPU on a shared 2-CPU VM), once per field shape
in a process; the flow-transport check's adjoint sweep, four gradient
and four Hessian stages, in about 4 ms.

:func:`value_kernel` emits the value lines alone, with their checks, for
the expression inputs of ``PortSignal.from_exprs``, and
:class:`PartialSumKernel` the gradient lines that sums of partials read,
for the drift of ``interconnect`` and for ``poisson_fn``.

A phase field traces its generators into field code once per run of
:func:`~ltk.dynamics.integrate`, for ``simulate``, ``phase_rhs`` and the
two integrated checks alike, and builds a block runner for that run
only, from the runner source kept for the field's shape.  ``ltk`` does
not import this module; a phase field imports it
when it first builds a runner, ``from_exprs`` and ``interconnect`` when
first called, and a bracket of ``poisson_fn`` when first evaluated.
"""
from __future__ import annotations

import contextlib
import functools
import math
import operator
import re

import numpy as np

from .diffkit import (Dual, ScalarFn, _each, _Recorder, _sign, cos, exp, ln,
                      sin, sqrt)

__all__ = ["FieldCode", "PartialSumKernel", "value_kernel"]

# A one-operand node: its value at the traced point, the source of its
# value, of the factor its derivative is multiplied by (None: a formula of
# its own), and of the condition under which the scalar loop raises, where
# the code raises too.
_UNARY = {
    "neg": (operator.neg, "-{a}", None, None),
    "abs": (abs, "abs({a})", "_sign({a})", None),
    "exp": (math.exp, "_exp({a})", None, None),
    "ln": (math.log, "_log({a})", None, "{a} <= 0.0"),
    "sqrt": (math.sqrt, "_sqrt({a})", None, "{a} < 0.0"),
    "sin": (math.sin, "_sin({a})", "_cos({a})", None),
    "cos": (math.cos, "_cos({a})", "-_sin({a})", None),
}
# A two-operand node: its value at the traced point and its value line.
_BINARY = {"add": (operator.add, "v{n} = {a} + {b}"),
           "sub": (operator.sub, "v{n} = {a} - {b}"),
           "mul": (operator.mul, "v{n} = {a} * {b}"),
           "div": (operator.truediv, "v{n} = {a} / {b}")}
_COMPARE = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
            ">=": operator.ge, "==": operator.eq, "!=": operator.ne}
_REPLAY_NAMES = {"_exp": math.exp, "_log": math.log, "_sqrt": math.sqrt,
                 "_sin": math.sin, "_cos": math.cos, "_sign": _sign}


def _derivative_source(kind: str, n: int, va: str, vb: str, da, db) -> str:
    """Source of node n's derivative along one seed: the scalar
    ``Dual`` formula, ``va``/``vb`` naming its operands, ``da``/``db``
    their derivatives along it, None where that operand is a plain float
    in that seed's pass."""
    v = f"v{n}"
    if kind == "add":
        return da if db is None else db if da is None else f"{da} + {db}"
    if kind == "sub":
        return da if db is None else f"-{db}" if da is None else f"{da} - {db}"
    if kind == "mul":
        if db is None:
            return _times(da, vb)
        return _times(db, va) if da is None else \
            f"{_times(va, db)} + {_times(da, vb)}"
    if kind == "div":
        if db is None:
            return f"{da} / {vb}"
        return f"{_negated(_times(v, db))} / {vb}" if da is None else \
            f"({da} - {_times(v, db)}) / {vb}"
    if kind == "neg":
        return f"-{da}"
    if kind == "exp":
        return _times(v, da)
    if kind == "ln":
        return f"{da} / {va}"
    if kind == "sqrt":
        return f"0.0 if {da} == 0.0 else 0.5 * {da} / {v}"
    if kind == "one":                   # x ** 0
        return "0.0"
    if kind == "fpow":                  # b: the exponent as a float
        return f"{v} * (k{n} + {_times(vb, da)} / {va})"
    return _times(f"k{n}", da)          # abs, sin, cos, integer powers


def _times(a: str, b: str) -> str:
    """The source of ``a * b``; a factor 1.0 is left out, which changes no
    bit of the product."""
    return a if b == "1.0" else b if a == "1.0" else f"{a} * {b}"


def _negated(a: str) -> str:
    return f"-{a}" if a.isidentifier() else f"-({a})"


def _operand(ref) -> str:
    """The source name of an operand: a node's value or a constant."""
    return f"v{ref}" if isinstance(ref, int) else ref


class _Trace:
    """The operations of functions evaluated on :class:`_Traced`
    coordinates of one point, in order: per node its kind, its operands
    (node numbers, or the names of constants) and the coordinates it reads.
    :meth:`record` traces one function and emits its gradient code,
    :meth:`record_value` its value code; node numbers and constant names
    run on across the functions a trace records, so their code can share
    one body.  While a function is recorded, ``lines`` holds
    its value code with its domain checks and guards, and ``reason`` is why
    it cannot be traced, None while it can."""

    def __init__(self, x):
        self.nodes = [("x", None, None, frozenset([i])) for i in range(len(x))]
        self.inputs = [_Traced(self, i, float(v)) for i, v in enumerate(x)]
        self.consts, self._names = {}, {}
        self.guards = set()             # the guard lines, of every function

    def record(self, f: ScalarFn):
        """Trace ``f`` at the point: ``((lines, partials), None)``, the code
        that computes its gradient and the source of each partial, or
        ``(None, reason)`` when ``f`` cannot be traced."""
        y, first = self._call(f)
        return self._emit(y, first), self.reason

    def record_value(self, f: ScalarFn):
        """Trace ``f`` at the point: ``(lines, value)``, the code that
        computes its value, with the domain checks of its operations and
        none of their derivatives, and the source of the value, or None
        when ``f`` cannot be traced."""
        y, first = self._call(f)
        if self.reason is not None:
            return None
        value = _operand(self._ref(y))
        droppable = {f"k{n}" for n in range(first, len(self.nodes))} | {
            f"v{n}" for n in range(first, len(self.nodes))
            if self.nodes[n][0] in _CANNOT_RAISE}
        return _live(self.lines, [value], droppable), value

    def _call(self, f: ScalarFn):
        """``f`` on the traced coordinates: its result and the number of
        its first node, with ``reason`` set where it cannot be traced."""
        self.lines, self._checks, self.reason = [], set(), None
        self._numbers = {}              # (kind, a, b) -> node, this function's
        first, y = len(self.nodes), None
        try:
            y = f(list(self.inputs))
        except Exception as err:   # noqa: BLE001 - the scalar loop raises it
            self.fail(f"it raises {type(err).__name__} at the traced point")
        if not (isinstance(y, _Traced) and y._trace is self
                or isinstance(y, (int, float))):
            self.fail(f"it returns a {type(y).__name__}")
        return y, first

    def fail(self, reason: str):
        """Mark the function untraceable; the first reason is kept."""
        if self.reason is None:
            self.reason = reason

    def unreadable(self, how: str):
        """A read of a traced value by ``how``, which no replay can repeat."""
        self.fail(f"it reads a traced value with {how}")
        raise TypeError(f"a traced value cannot be read with {how}")

    def _const(self, value) -> str:
        """The name of a constant; equal constants of one type and repr
        share one, so 0.0 and -0.0, and 1 and 1.0, stay apart."""
        key = (type(value), repr(value))
        name = self._names.get(key)
        if name is None:
            name = self._names[key] = f"c{len(self.consts)}"
            self.consts[name] = value
        return name

    def _ref(self, value):
        """A node number, or the name of a new constant."""
        if isinstance(value, _Traced):
            return value._node
        return self._const(value)

    def _mixes(self, values) -> bool:
        """Whether an operand is neither traced here nor an int or float,
        which a ``Dual`` would not take either."""
        for v in values:
            if isinstance(v, _Traced) and v._trace is self:
                continue
            if isinstance(v, (int, float)):
                continue
            self.fail(f"it combines a traced value with a {type(v).__name__}")
            return True
        return False

    def _add(self, kind, a, b, value, lines) -> "_Traced":
        """A node of ``kind`` on operands ``a`` and ``b``, with its value
        code ``lines``; the function's node of the same operation, if it
        has one, instead."""
        n = self._numbers.get((kind, a, b))
        if n is None:
            n = self._numbers[kind, a, b] = len(self.nodes)
            reads = [self.nodes[r][3] for r in (a, b) if isinstance(r, int)]
            reads = reads[0] | reads[1] if len(reads) == 2 else reads[0]
            self.nodes.append((kind, a, b, reads))
            a, b = _operand(a), _operand(b)
            for line in lines:
                self._line(line.format(n=n, a=a, b=b))
        return _Traced(self, n, value)

    def _line(self, line: str):
        """Add a line of value code; a check already made is not repeated."""
        if line.startswith("if "):
            if line in self._checks:
                return
            self._checks.add(line)
        self.lines.append(line)

    def _value(self, fn, *args):
        """``fn(*args)`` at the traced point; an error there ends the trace,
        as the guard it would need is not recorded."""
        try:
            return fn(*args)
        except Exception as err:   # noqa: BLE001 - raised again
            self.fail(f"it raises {type(err).__name__} at the traced point")
            raise

    def binary(self, kind: str, a, b):
        if self._mixes((a, b)):
            return NotImplemented
        a, b = _as_python(a), _as_python(b)
        fn, line = _BINARY[kind]
        value = self._value(fn, _value_of_traced(a), _value_of_traced(b))
        lines = [line]
        if kind == "div" and isinstance(b, _Traced):
            lines.insert(0, "if {b} == 0.0: raise _Back")
        return self._add(kind, self._ref(a), self._ref(b), value, lines)

    def unary(self, kind: str, a):
        fn, source, factor, bail = _UNARY[kind]
        value = self._value(fn, a._value)
        lines = [f"v{{n}} = {source.format(a='{a}')}"]
        if factor is not None:
            lines.append(f"k{{n}} = {factor.format(a='{a}')}")
        if bail is not None:
            lines.insert(0, f"if {bail.format(a='{a}')}: raise _Back")
        return self._add(kind, a._node, None, value, lines)

    def power(self, a, c):
        """``a ** c`` for a constant exponent c, as ``Dual.__pow__``."""
        if isinstance(c, _Traced):
            self.fail("it raises to a traced exponent")
            return NotImplemented
        if self._mixes((c,)):
            return NotImplemented
        c, va = _as_python(c), a._value
        if self._value(lambda: float(c).is_integer()):
            k = int(c)
            if k == 0:
                return self._add("one", a._node, None, 1.0, ["v{n} = 1.0"])
            value = self._value(lambda: (va ** c, k * va ** (k - 1))[0])
            lines = ["v{n} = {a} ** {b}",
                     f"k{{n}} = {self._const(k)} * {{a}} ** "
                     f"{self._const(k - 1)}"]
            if k < 0:
                lines.insert(0, "if {a} == 0.0: raise _Back")
            return self._add("ipow", a._node, self._const(c), value, lines)
        if va <= 0.0:
            self.fail("it raises a nonpositive value to a fractional power "
                      "at the traced point")
            raise ValueError("power with non-integer exponent requires a "
                             "positive base")
        return self._add("fpow", a._node, self._const(float(c)),
                         self._value(lambda: va ** c),
                         ["if {a} <= 0.0: raise _Back",
                          "v{n} = {a} ** %s" % self._const(c),
                          "k{n} = 0.0 * _log({a})"])

    def guard(self, op: str, a, b) -> bool:
        """``a op b`` on values, as a ``Dual`` compares; the code raises at
        a point where it comes out otherwise.  ``==`` and ``!=`` of equal
        values, which a ``Dual`` decides by its derivatives, are
        untraceable; of others, the code raises where they are equal."""
        if self._mixes((b,)):
            raise TypeError(f"a traced value cannot be compared with a "
                            f"{type(b).__name__}")
        if not isinstance(b, _Traced):      # a Dual compares with float(b)
            fb = self._value(float, b)
            if isinstance(b, int) and fb != b:
                self.fail("it compares a traced value with an integer "
                          "beyond float precision")
                raise TypeError("an integer beyond float precision")
            b = fb
        outcome = _COMPARE[op](a._value, _value_of_traced(b))
        if op in ("==", "!=") and a._value == _value_of_traced(b):
            self.fail(f"it compares equal values with {op}")
            raise TypeError(f"equal traced values compared with {op}")
        # != holds, as == fails, until the values are equal
        flip, test = ("", "==") if op == "!=" else ("not " * outcome, op)
        line = (f"if {flip}({_operand(a._node)} {test} "
                f"{_operand(self._ref(b))}): raise _Back")
        self.guards.add(line)
        self._line(line)
        return outcome

    def _fold(self, kind, va, vb, da, db):
        """The value of a derivative source that reads constants only, as
        the source computes it, or None: a sum, difference or negation of
        constant derivatives, or a constant derivative times or over a
        constant operand."""
        if kind == "neg" or kind == "sub" and da is None:
            fn, args = operator.neg, (db if da is None else da,)
        elif kind in ("add", "sub"):
            fn, args = _BINARY[kind][0], (da, db)
        elif kind == "mul":
            fn, args = operator.mul, (da, vb) if db is None else (db, va)
        elif kind == "div" and db is None:
            fn, args = operator.truediv, (da, vb)
        else:
            return None
        values = [float(s) if s in ("0.0", "1.0") else self.consts.get(s)
                  for s in args]
        if None in values:
            return None
        try:
            return fn(*values)
        except ArithmeticError:         # left to raise where it runs
            return None

    def _emit(self, y, first: int):
        """The code of the gradient of the function recorded from node
        ``first`` on, with ``y`` as its result, or None when it cannot be
        traced."""
        if self.reason is not None:
            return None
        out = y._node if isinstance(y, _Traced) else None
        dim = len(self.inputs)
        dots = {(i, i): "1.0" for i in range(dim)}
        lines = self.lines
        for n in range(first, len(self.nodes)):
            kind, a, b, reads = self.nodes[n]
            if kind == "sqrt":
                moving = " or ".join(f"{dots[a, i]} != 0.0"
                                     for i in sorted(self.nodes[a][3]))
                lines.append(f"if v{a} == 0.0 and ({moving}): raise _Back")
            va, vb = _operand(a), _operand(b)
            for i in sorted(reads):
                da, db = dots.get((a, i)), dots.get((b, i))
                source = _derivative_source(kind, n, va, vb, da, db)
                if not (source.isidentifier() or source in ("0.0", "1.0")):
                    # a constant derivative is a literal or a constant name
                    value = (self._fold(kind, va, vb, da, db)
                             if kind in _FOLDABLE and (da or "c")[0] in "c01"
                             and (db or "c")[0] in "c01" else None)
                    if value is None:
                        lines.append(f"d{n}_{i} = {source}")
                        source = f"d{n}_{i}"
                    else:
                        source = self._const(value)
                dots[n, i] = source
        # 0.0 + returns a zero partial as +0.0, as grad does
        partials = [dots.get((out, i), "0.0") for i in range(dim)]
        partials = [d if d in ("0.0", "1.0") else f"0.0 + {d}"
                    for d in partials]
        code = _live(lines, partials, self._droppable(first)), partials
        self._recorded = first, out, dots, code[0]
        return code

    def _droppable(self, first: int) -> set:
        """The value names, from node ``first`` on, of nodes whose value
        line cannot raise."""
        return {f"v{n}" for n in range(first, len(self.nodes))
                if self.nodes[n][0] in _CANNOT_RAISE}

    def hessian(self):
        """The code of ``H t`` for the function recorded last, before the
        next is recorded: ``(lines, partials)`` as :meth:`record` gives its
        gradient's, H its Hessian and t the direction ``t0, t1, ...``, the
        lines to place after the gradient code's lines at the same point.
        They differentiate the gradient code along t, line by line
        (forward mode over the gradient code), each value's tangent
        ``t{n}`` and each derivative's ``e{n}_{i}`` by the rule of
        :func:`_second_source`, and hold no check: their divisors are the
        values the gradient code's checks keep from zero."""
        first, out, dots, placed = self._recorded
        lines = list(self.lines)

        def named(name, source):
            """A non-zero source, assigned to ``name`` unless it is one."""
            if source is None or source == "0.0":
                return None
            if not source.isidentifier():
                lines.append(f"{name} = {source}")
                source = name
            return source

        tangents = {i: f"t{i}" for i in range(len(self.inputs))}
        seconds = {}
        for n in range(first, len(self.nodes)):
            kind, a, b, reads = self.nodes[n]
            va, vb = _operand(a), _operand(b)
            ta, tb = tangents.get(a), tangents.get(b)
            tn = tangents[n] = named(
                f"t{n}", _derivative_source(kind, n, va, vb, ta, tb))
            ek = None                   # the tangent of the factor k{n}
            if kind in ("sin", "cos"):  # k' = -v t_a for either
                ek = named(f"e{n}", f"-v{n} * {ta}")
            elif kind == "ipow" and self.consts[b] != 1:
                c = int(self.consts[b])
                ek = named(f"e{n}", f"{self._const(c * (c - 1))} * {va} ** "
                                    f"{self._const(c - 2)} * {ta}")
            for i in sorted(reads):
                seconds[n, i] = named(f"e{n}_{i}", _second_source(
                    kind, n, va, vb, ta, tb, tn, ek, dots.get((a, i)),
                    dots.get((b, i)), dots[n, i], seconds.get((a, i)),
                    seconds.get((b, i))))
        partials = [seconds.get((out, i)) or "0.0"
                    for i in range(len(self.inputs))]
        placed = set(placed)
        return [line for line in _live(lines, partials,
                                       self._droppable(first))
                if line not in placed], partials


def _second_source(kind, n, va, vb, ta, tb, tn, ek, da, db, d, ea, eb):
    """Source of the derivative along the direction t of node n's
    derivative ``d`` along one seed: the derivative of the formula of
    :func:`_derivative_source`, with ``ta``/``tb``/``tn`` the tangents
    along t of its operands and its value, ``ek`` that of its factor
    ``k{n}``, and ``ea``/``eb`` those of ``da``/``db``.  None stands for a
    zero and is returned for one.  A sqrt at 0 has zero derivatives there,
    where its gradient code does not raise."""
    v = f"v{n}"
    if kind == "add":
        return _sum(ea, eb)
    if kind == "sub":
        return _sum(ea, _neg(eb))
    if kind == "mul":
        return _sum(_mul(ta, db), _mul(va, eb), _mul(ea, vb), _mul(da, tb))
    if kind == "div":                   # d = (da - v db) / vb
        top = _sum(ea, _neg(_mul(tn, db)), _neg(_mul(v, eb)),
                   _neg(_mul(d, tb)))
        return top and f"({top}) / {vb}"
    if kind == "neg":
        return _neg(ea)
    if kind == "exp":
        return _sum(_mul(tn, da), _mul(v, ea))
    if kind == "ln":
        return f"({_sum(ea, _neg(_mul(d, ta)))}) / {va}"
    if kind == "sqrt":                  # d = 0.5 da / v
        return (f"0.0 if {v} == 0.0 else "
                f"({_sum(_mul('0.5', ea), _neg(_mul(d, tn)))}) / {v}")
    if kind == "one":
        return None
    if kind == "fpow":                  # d = v (k + b da / a), k' = 0
        return _sum(f"{tn} * (k{n} + {vb} * {da} / {va})", f"{v} * {vb} * "
                    f"({_sum(ea, f'-({da} * {ta} / {va})')}) / {va}")
    return _sum(_mul(f"k{n}", ea), _mul(ek, da))  # abs, sin, cos, powers


def _sum(*terms):
    """The source of the sum of the terms that are not None, or None."""
    return " + ".join(t for t in terms if t is not None) or None


def _mul(a, b):
    """The source of ``a * b``, or None where a factor is None."""
    return None if a is None or b is None else _times(a, b)


def _neg(a):
    return None if a is None else _negated(a)


# Nodes whose value line cannot raise, so dropping it where nothing reads
# it changes no result and no error.
_CANNOT_RAISE = {"add", "sub", "mul", "neg", "one"}
# Nodes whose derivative may read constants only.
_FOLDABLE = {"add", "sub", "mul", "div", "neg"}
_NAME = re.compile(r"\b[vkdte]\d+(?:_\d+)?\b")


def _live(lines, partials, droppable) -> list:
    """``lines`` without the assignments to derivatives ``d{n}_{i}``, to
    the tangents ``t{n}``, ``e{n}`` and ``e{n}_{i}`` of
    :meth:`_Trace.hessian` and to ``droppable`` names that no later line
    and no partial reads (backward liveness)."""
    read = set(_NAME.findall(" ".join(partials)))
    kept = []
    for line in reversed(lines):
        target, _, source = line.partition(" = ")
        if line.startswith("if "):
            source = line
        elif (target in droppable or target[0] in "dte") \
                and target not in read:
            continue
        read.update(_NAME.findall(source))
        kept.append(line)
    return kept[::-1]


def _value_of_traced(v):
    return v._value if isinstance(v, _Traced) else v


def _as_python(v):
    """A float constant as a Python float, as a ``Dual`` holds values:
    numpy scalars overflow and divide by zero without raising."""
    return float(v) if isinstance(v, float) and type(v) is not float else v


class _Traced(_Recorder):
    """A coordinate, or a value computed from coordinates, of a function
    being traced by :class:`FieldCode` or :func:`value_kernel`.

    Every operation ``Dual`` implements adds a node to the trace, and
    so do diffkit's ``exp``, ``ln``, ``sqrt``, ``sin`` and ``cos``, which
    call :meth:`_record_call` of a ``_Recorder``; a comparison adds a
    guard (``==`` and ``!=`` only of values that differ).  Any other read
    of the value (``==`` of equal values, ``bool``, ``float``, ``int``,
    ``hash``, an attribute, numpy, a traced exponent) marks the function
    untraceable and raises ``TypeError``.
    """

    __slots__ = ("_trace", "_node", "_value")
    # numpy defers every operator with a traced operand to it, as to a Dual
    __array_ufunc__ = None

    def __init__(self, trace: _Trace, node: int, value: float):
        self._trace, self._node, self._value = trace, node, value

    def __repr__(self):
        return f"_Traced(node {self._node}, {self._value!r})"

    def _record_call(self, kind: str):
        """diffkit's ``exp``, ``ln``, ``sqrt``, ``sin`` or ``cos`` of it."""
        return self._trace.unary(kind, self)

    def __add__(self, other):
        return self._trace.binary("add", self, other)

    def __radd__(self, other):
        return self._trace.binary("add", other, self)

    def __sub__(self, other):
        return self._trace.binary("sub", self, other)

    def __rsub__(self, other):
        return self._trace.binary("sub", other, self)

    def __mul__(self, other):
        return self._trace.binary("mul", self, other)

    def __rmul__(self, other):
        return self._trace.binary("mul", other, self)

    def __truediv__(self, other):
        return self._trace.binary("div", self, other)

    def __rtruediv__(self, other):
        return self._trace.binary("div", other, self)

    def __neg__(self):
        return self._trace.unary("neg", self)

    def __pos__(self):
        return self

    def __abs__(self):
        return self._trace.unary("abs", self)

    def __pow__(self, other):
        return self._trace.power(self, other)

    def __rpow__(self, other):
        return self._trace.power(other, self)

    def __lt__(self, other):
        return self._trace.guard("<", self, other)

    def __le__(self, other):
        return self._trace.guard("<=", self, other)

    def __gt__(self, other):
        return self._trace.guard(">", self, other)

    def __ge__(self, other):
        return self._trace.guard(">=", self, other)

    def __eq__(self, other):
        return self._trace.guard("==", self, other)

    def __ne__(self, other):
        return self._trace.guard("!=", self, other)

    def __getattr__(self, name):
        how = "numpy" if name.startswith("__array") else f"attribute {name!r}"
        try:
            self._trace.unreadable(how)
        except TypeError:
            raise AttributeError(name) from None


def _unreadable(how: str):
    def read(self, *args, **kwargs):
        self._trace.unreadable(how)
    return read


for _names, _how in (
        (("__bool__",), "bool()"),
        (("__float__",), "float()"), (("__complex__",), "complex()"),
        (("__int__", "__index__", "__trunc__", "__floor__", "__ceil__",
          "__round__"), "int()"),
        (("__hash__",), "hash()"), (("__array__",), "numpy"),
        (("__floordiv__", "__rfloordiv__", "__mod__", "__rmod__",
          "__divmod__", "__rdivmod__"), "// or %")):
    for _name in _names:
        setattr(_Traced, _name, _unreadable(_how))


class _OffTrace(Exception):
    """Raised by traced code where a guard comes out otherwise or a check
    trips: the point is off the trace, and its caller computes it another
    way."""


class FieldCode:
    """Functions ``fns`` traced in one trace at a point ``x``: ``codes[k]``
    is the gradient code ``(lines, partials)`` of ``fns[k]``, the lines of
    straight-line code that compute it and the source of each partial, for
    callers to place; node and constant names run on across the functions,
    so any of their codes can share one body.  Where the trace cannot
    record a function, ``reason`` names the first such function and says
    why, and ``codes`` stops before it; ``reason`` is None where every
    function is recorded.  The code raises at a point where a guard comes
    out otherwise, a check trips or an operation raises, and its caller
    computes that point another way.

    :func:`_stage` places a body made from such code at a point, and
    :meth:`function` runs the function a source made from those lines
    defines, which reads the trace's constants.  A phase field's block
    runner (:mod:`ltk.dynamics`) writes its body from the codes and places
    it at each RK4 stage; it does not serve a field code with a
    ``reason``.  The codes and ``dim`` are the code's shape: functions that
    differ only in their constants share them.  Where ``hessians`` is set,
    ``hessians[k]`` is the code of ``H t`` (:meth:`_Trace.hessian`), H the
    Hessian of ``fns[k]`` and t the direction ``t0, t1, ...``, in the same
    form, whose lines follow those of ``codes[k]`` at the same point.
    ``guards`` holds the lines of the codes that are guards; their other
    ``if`` lines are checks.
    """

    def __init__(self, fns, x, hessians=False):
        self.dim, self.reason, self.codes, self.hessians = len(x), None, [], []
        trace = _Trace(x)
        self.guards = trace.guards
        for f in fns:
            code, why = trace.record(f)
            if why is not None:
                self.reason = (f"the trace cannot record {f.name or 'K'}, "
                               f"as {why}")
                return
            self.codes.append(code)
            if hessians:
                self.hessians.append(trace.hessian())
        self._namespace = dict(_REPLAY_NAMES, **trace.consts, _Back=_OffTrace)

    def function(self, source: str, **names):
        """:func:`_function` of a source that reads the trace's constants
        and ``names``."""
        return _function(source, dict(self._namespace, **names))


def _stage(body: str, g: str, sources, tangents=()) -> list:
    """The lines of the field code ``body``, written from
    :attr:`FieldCode.codes` (or :attr:`FieldCode.hessians`) to set ``$0,
    $1, ...``, that set ``{g}0, {g}1, ...`` instead, at the point
    ``sources``, and along the direction ``tangents``: one source per
    coordinate, each set as ``v0, v1, ...`` (``t0, t1, ...``) where the
    code reads it.  They raise where a traced function's guard flips, its
    check trips or its code raises."""
    read = set(_NAME.findall(body))
    return ([f"v{i} = {s}" for i, s in enumerate(sources)
             if f"v{i}" in read]
            + [f"t{i} = {s}" for i, s in enumerate(tangents)
               if f"t{i}" in read]
            + body.replace("$", g).split("\n"))


def value_kernel(fns, x):
    """Trace each of ``fns`` once at the point ``x`` and emit
    ``kernel(xs)``, which returns ``[f(xs) for f in fns]`` bit for bit from
    their value code and its domain checks.  At a point where a check trips
    or the code raises it calls the functions, which return or raise as
    they always did, and it calls at every point a function the trace
    cannot record."""
    trace = _Trace(x)
    body = [", ".join(f"v{i}" for i in range(len(x))) + ", = x"]
    values = []
    for k, f in enumerate(fns):
        lines, value = trace.record_value(f) or ([], f"_fns[{k}](x)")
        body += lines
        values.append(value)
    body.append(f"return [{', '.join(values)}]")
    return _function(_source("kernel", "x", ["try:"] + _indented(body) + [
        "except Exception:", "    return [f(x) for f in _fns]"]),
        dict(_REPLAY_NAMES, **trace.consts, _fns=fns, _Back=_OffTrace))


class PartialSumKernel:
    """``kernel(x)``: for each generator K of ``fns`` and each group of
    coordinates in ``groups``, ``sum_{i in group} dK/dx_i``, from the
    lines of their :class:`FieldCode` gradient at ``x`` that those sums
    read, without grad's ``0.0 +`` (a zero may read -0.0), and its guards:
    where one comes out otherwise it traces them again there, and raises
    ``ValueError`` if they cannot be.  With diffkit's ``exp``, ``ln``,
    ``sqrt``, ``sin`` and ``cos`` it runs on Duals, single or batch, and
    on traced values; a plain number is read as a Dual, so each operation
    checks its domain as a Dual does, in place of the code's checks; a
    batch's rows are its single passes bit for bit.  ``x`` may be such
    numbers too, a batch traced at row 0.  ``reason`` is why ``fns``
    cannot be traced at ``x``, or None; a generator that raises there on
    Duals raises its own error instead, naming a batch's row as ``grad``
    does, as it does where the sums raise at a later row.
    """

    def __init__(self, fns, x, groups):
        self.fns, self.groups = fns, groups
        self.reason = self._trace(x)

    def _trace(self, x):
        """Trace the generators at ``x`` (a batch at row 0); the reason
        they cannot be, or None, where none of them raises on ``x``'s
        Duals and Duals of its other numbers, so a batch's error names its
        row as :func:`~ltk.diffkit.grad`'s does."""
        at = _point(x)
        code = FieldCode(self.fns, at)
        if code.reason is None:
            lines = [_SQRT_DOT.sub(r"_sqrt_dot(\1, \2)", line)
                     for lines, _ in code.codes for line in lines
                     if not line.startswith("if ") or line in code.guards]
            sums = [" + ".join(partials[i].removeprefix("0.0 + ")
                               for i in group if partials[i] != "0.0")
                    or "0.0" for _, partials in code.codes
                    for group in self.groups]
            lines = _live(lines, sums, {line.partition(" = ")[0]
                                        for line in lines})
            self._sums = code.function(_source("sums", "x", [
                ", ".join(f"v{i}" for i in range(len(x))) + ", = x"] + lines
                + [f"return [{', '.join(sums)}]"]), **_GENERIC_NAMES)
        else:
            duals = [v if isinstance(v, Dual) else Dual(a)
                     for v, a in zip(x, at)]
            with contextlib.suppress(TypeError):    # the reason says why
                for f in self.fns:
                    f(duals)
        return code.reason

    def __call__(self, x):
        plain = not any(isinstance(v, (Dual, _Recorder)) for v in x)
        xs = [v if isinstance(v, (Dual, _Recorder)) else Dual(v) for v in x]
        try:
            sums = self._sums(xs)
        except _OffTrace:               # a guard came out otherwise
            reason = self._trace(xs)
            if reason is not None:
                raise ValueError(f"the partial sums cannot be traced at "
                                 f"{_point(xs)}: {reason}") from None
            sums = self._sums(xs)
        except (ArithmeticError, ValueError):
            for f in self.fns:          # a generator's own error, if any
                f(xs)
            raise
        return [y.val if plain and isinstance(y, Dual) else y for y in sums]


# sqrt's derivative line, whose comparison a batch of Duals cannot make; a
# partial-sum kernel calls _sqrt_dot(d, v) instead.
_SQRT_DOT = re.compile(r"0\.0 if ([\w.]+) == 0\.0 else 0\.5 \* \1 / (v\d+)$")


def _sqrt_dot(d, v):
    """``0.0 if d == 0.0 else 0.5 * d / v`` in a partial-sum kernel: for a
    Dual ``d``, a Dual 0 where it and its derivatives are 0, row by row in
    a batch, whose other rows alone divide, so each row is its single pass
    bit for bit."""
    if not isinstance(d, Dual):
        return 0.0 if d == 0.0 else 0.5 * d / v
    zero = (d.val == 0.0) & np.equal(d.dot, 0.0).all(axis=0)
    y = 0.5 * d / Dual(np.where(zero, 1.0, v.val), np.where(zero, 0.0, v.dot))
    return Dual(np.where(zero, 0.0, y.val), np.where(zero, 0.0, y.dot))


def _point(xs) -> list:
    """The floats of numbers, Duals or traced values; of a batch, row 0."""
    return [float(np.ravel(v._value if isinstance(v, _Traced)
                           else getattr(v, "val", v))[0]) for v in xs]


def _sign_factor(a):
    """abs's derivative factor ``_sign(a)`` in a partial-sum kernel: of a
    Dual, single or batch, a Dual of its value's signs (0.0 at 0, as
    ``Dual.__abs__``) with zero derivatives, so each row is its single
    pass; of a traced value, by guards on its sign."""
    if isinstance(a, Dual):
        return Dual(_each(_sign, a.val), np.zeros_like(a.dot))
    return 0.0 if a == 0.0 else 1.0 if a > 0.0 else -1.0


# The replay names of a partial-sum kernel, which takes numbers of any kind.
_GENERIC_NAMES = {"_exp": exp, "_log": ln, "_sqrt": sqrt, "_sin": sin,
                  "_cos": cos, "_sign": _sign_factor,
                  "_sqrt_dot": _sqrt_dot}


def _source(name: str, params: str, lines) -> str:
    """The text of the function ``name(params)`` whose body is ``lines``."""
    return f"def {name}({params}):\n    " + "\n    ".join(lines)


def _function(source: str, namespace: dict):
    """The function that ``source`` (:func:`_source`) defines, run in
    ``namespace``; its code is compiled on the first use of the source."""
    exec(_code(source), namespace)
    return namespace[source[len("def "):source.index("(")]]


def _indented(lines) -> list:
    return ["    " + line for line in lines]


# Code objects by source text.  A source names its constants and never
# holds their values, so systems of one shape whose parameters differ only
# in value, and every run of one system, share one compile.  The first 60
# jobs of each perfbench workload (seed 7) compile each source once: 2
# block runners, 3 value kernels and the exchanger's partial-sum kernel on
# sim_builtin (6), 2 block runners and the 4 templates' value kernels on
# sim_expr, its built-in twins included (6), and 2 block runners, their 2
# adjoint sweeps and the exchanger's partial-sum kernel on audit (5).
@functools.lru_cache(maxsize=8)
def _code(source: str):
    """The code object of ``source``, compiled on its first use."""
    return compile(source, "<field kernel>", "exec")
