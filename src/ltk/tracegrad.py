"""Traced code: functions recorded once and emitted as straight-line
Python, the generators of a field as the lines of their gradients' sum
(:class:`FieldCode`), which the block runner of :mod:`ltk.dynamics`
inlines at each RK4 stage, and expression inputs as one kernel of their
values.

A function runs once on :class:`_Traced` coordinates, which record each
operation as a node, and one body emitter writes the nodes as Python
source (forward mode on a recorded tape; Griewank & Walther, *Evaluating
Derivatives*, 2nd ed.): each value once and then, for each seed
coordinate the node reads, the derivative by the scalar
:class:`~ltk.diffkit.Dual` formula in the same operand order.  A node that
does not read a seed is a plain float in that seed's scalar pass of
:func:`~ltk.diffkit.grad` and carries no derivative there, so every partial
is grad's bit for bit, zero partials as +0.0.  A factor 1.0 is left out of
a product, which changes no bit, and so is the value line of a sum,
difference, product or negation that no later line reads, as it cannot
raise.  Each value is recorded once: within one function an operation of
the same kind on the same operands is the node already made, constants
equal in type and repr share one name (so 0.0 and -0.0, or 1 and 1.0,
stay apart), and a derivative that reads only constants is computed at
trace time by the same operator and becomes one more constant.  Nodes are
never shared between functions, as a port's code must not read a value
of a drift whose code handed back before making it.  :class:`FieldCode`
writes a port system's drift and port generators into one body that
computes the gradient of ``Ka + sum_k u_k Kc_k``, its names numbered on
across the generators; :func:`field_kernel` returns the canonical field
from it as one call.

A comparison becomes a guard, and each condition under which a scalar pass
raises becomes a check (a zero divisor; ``ln``, ``sqrt`` or a fractional
power outside its domain; ``sqrt`` at 0 along a moving seed; 0 to a
negative power).  Where a guard comes out otherwise, a check trips or the
code raises, that generator alone is handed back to ``grad`` at that
point, which returns or raises as it always did.  A traced value is a
:class:`~ltk.diffkit._Recorder`, which diffkit's ``exp``, ``ln``,
``sqrt``, ``sin`` and ``cos`` recognise before any ``math`` call.  Any
other read of it (``==``, ``!=``, ``bool``, ``float``, ``int``, ``hash``,
an attribute, numpy, a traced exponent) makes the function untraceable at
once, and its field code calls ``grad`` for it.  No user text enters the
generated source: constants go in through its namespace, so a source
depends on the shape of the generators and on which of their constants
are equal, not on their values, and its code object is compiled once and
kept by its text (the latest 8 sources).  The block runner of a field
inlines its body at each of the four stages, so it compiles in about 4
times the one-stage kernel's time (0.9-2.6 ms against 0.2-0.7 ms for the
benchmark's systems on a 2-CPU VM), once per field shape in a process.

:func:`value_kernel` emits the value lines alone, with their checks, for
the expression inputs of ``PortSignal.from_exprs``.

``simulate`` traces its generators into field code once per run and
keeps its block runner for that run only; so do the two integrated checks
of :mod:`ltk.dynamics`, ``flow_transport_check`` and
``scaling_commutation_check``, for K over their batch of trajectories.
``ltk`` does not import this module; ``simulate``, ``from_exprs`` and the
two integrated checks import it when first called, so importing the
package does not compile it.
"""
from __future__ import annotations

import math
import operator
import re

from .diffkit import ScalarFn, _Recorder, grad

__all__ = ["FieldCode", "field_kernel", "value_kernel"]

# A one-operand node: its value at the traced point, the source of its
# value, of the factor its derivative is multiplied by (None: a formula of
# its own), and of the condition that sends a point back to the scalar
# loop, which raises there.
_UNARY = {
    "neg": (operator.neg, "-{a}", None, None),
    "abs": (abs, "abs({a})", "0.0 if {a} == 0.0 else _copysign(1.0, {a})",
            None),
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
            ">=": operator.ge}
_REPLAY_NAMES = {"_exp": math.exp, "_log": math.log, "_sqrt": math.sqrt,
                 "_sin": math.sin, "_cos": math.cos,
                 "_copysign": math.copysign}


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
        if not f.dual_safe:
            self.fail("it is not dual-safe")
            return y, first
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
        """``a op b`` on values, as a ``Dual`` compares; a point where
        it comes out otherwise goes back to the scalar loop."""
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
        self._line(f"if {'not ' if outcome else ''}({_operand(a._node)} "
                   f"{op} {_operand(self._ref(b))}): raise _Back")
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
        # derivatives of the nodes the result reads, and of the operands of
        # every sqrt, whose check reads them
        needed = {out}
        for n in range(len(self.nodes) - 1, first - 1, -1):
            kind, a, b, _ = self.nodes[n]
            if n in needed or kind == "sqrt":
                needed.add(a)
                if isinstance(b, int):
                    needed.add(b)
        dim = len(self.inputs)
        dots = {(i, i): "1.0" for i in range(dim)}
        lines = self.lines
        for n in range(first, len(self.nodes)):
            kind, a, b, reads = self.nodes[n]
            if kind == "sqrt":
                moving = " or ".join(f"{dots[a, i]} != 0.0"
                                     for i in sorted(self.nodes[a][3]))
                lines.append(f"if v{a} == 0.0 and ({moving}): raise _Back")
            if n not in needed:
                continue
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
        return _live(lines, partials, {
            f"v{n}" for n in range(first, len(self.nodes))
            if self.nodes[n][0] in _CANNOT_RAISE}), partials


# Nodes whose value line cannot raise, so dropping it where nothing reads
# it changes no result and no error.
_CANNOT_RAISE = {"add", "sub", "mul", "neg", "one"}
# Nodes whose derivative may read constants only.
_FOLDABLE = {"add", "sub", "mul", "div", "neg"}
_NAME = re.compile(r"\b[vkd]\d+(?:_\d+)?\b")


def _live(lines, partials, droppable) -> list:
    """``lines`` without the assignments to ``droppable`` names that no
    later line and no partial reads (backward liveness)."""
    read = set(_NAME.findall(" ".join(partials)))
    kept = []
    for line in reversed(lines):
        target, _, source = line.partition(" = ")
        if line.startswith("if "):
            source = line
        elif target in droppable and target not in read:
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
    being traced by :func:`field_kernel`.

    Every operation ``Dual`` implements adds a node to the trace, and
    so do diffkit's ``exp``, ``ln``, ``sqrt``, ``sin`` and ``cos``, which
    call :meth:`_record_call` of a ``_Recorder``; a comparison adds a
    guard.  Any other read of the value (``==``, ``!=``, ``bool``,
    ``float``, ``int``, ``hash``, an attribute, numpy, a traced exponent)
    marks the function untraceable and raises ``TypeError``.
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
        (("__eq__", "__ne__"), "=="), (("__bool__",), "bool()"),
        (("__float__",), "float()"), (("__complex__",), "complex()"),
        (("__int__", "__index__", "__trunc__", "__floor__", "__ceil__",
          "__round__"), "int()"),
        (("__hash__",), "hash()"), (("__array__",), "numpy"),
        (("__floordiv__", "__rfloordiv__", "__mod__", "__rmod__",
          "__divmod__", "__rdivmod__"), "// or %")):
    for _name in _names:
        setattr(_Traced, _name, _unreadable(_how))


class _HandBack(Exception):
    """Raised by a kernel's guard or check: the point goes back to grad."""


class FieldCode:
    """The canonical field of ``Ka + sum_k u_k Kc_k`` traced once at a
    point ``x`` of ``m`` coordinates and ``m`` costates, as lines of
    straight-line code for callers to place: ``reasons`` holds one reason
    per generator, None for each the trace records, ``handed_back`` one
    count per generator of the evaluations that handed it back to
    ``grad``, and ``ports`` the number of port generators.

    :meth:`point` sets the coordinates ``v0, v1, ...`` that :meth:`body`
    reads, :meth:`body` evaluates the gradient sum there, with the inputs
    in the list ``u``, and :meth:`field` gives the sources of the field's
    entries; :meth:`function` compiles a function around such lines, which
    read the trace's constants.  :meth:`kernel` places them once, as one
    call, and the block runner of :mod:`ltk.dynamics` at each RK4 stage.
    """

    def __init__(self, Ka: ScalarFn, Kc, x, m: int):
        generators = (Ka,) + tuple(Kc)
        self.handed_back = handed_back = [0] * len(generators)
        self.dim, self.m, self.ports = len(x), m, len(generators) - 1

        def scalar(k, xs):
            return grad(generators[k], xs).tolist()

        def back(k, xs):
            handed_back[k] += 1
            return scalar(k, xs)

        trace = _Trace(x)
        codes = [trace.record(K) for K in generators]
        self.reasons = [reason for _, reason in codes]
        self._namespace = dict(_REPLAY_NAMES, **trace.consts, _grad=scalar,
                               _back=back, _Back=_HandBack)
        self._body = "\n".join(_gradient_lines(codes, self.dim))
        if all(code is not None and not code[0] for code, _ in codes):
            # no lines, no hand-back: the partials read the coordinates
            self._read = set(_NAME.findall(" ".join(
                d for code, _ in codes for d in code[1])))
        else:                           # a hand-back reads every coordinate
            self._read = {f"v{i}" for i in range(self.dim)}
        self._kernel = None

    def body(self, g: str) -> list:
        """The lines that set ``{g}0, {g}1, ...`` to the gradient of
        ``Ka + sum_k u_k Kc_k`` at ``v0, v1, ...``, bit for bit the scalar
        loop: ``grad(Ka)``, then for each port in order whose input is not
        0.0 the sum ``g + u_k * grad(Kc_k)``, entry by entry.  A generator
        whose guard flips, whose check trips or whose code raises takes
        ``grad`` there, as one the trace cannot record always does."""
        return self._body.replace("$", g).split("\n")

    def point(self, sources) -> list:
        """The lines that set ``v0, v1, ...`` to ``sources``, one per
        coordinate, leaving out each coordinate :meth:`body` never reads."""
        return [f"v{i} = {s}" for i, s in enumerate(sources)
                if f"v{i}" in self._read]

    def field(self, g: str) -> list:
        """The sources of the canonical field ``[dK/dp, -dK/dq]`` from the
        gradient that :meth:`body` sets in ``{g}0, {g}1, ...``."""
        return ([f"{g}{i}" for i in range(self.m, self.dim)]
                + [f"-{g}{i}" for i in range(self.m)])

    def function(self, name: str, params: str, lines, **names):
        """The function ``name(params)`` whose body is ``lines``, which
        read the trace's constants and ``names``; its code is compiled on
        the first use of its source."""
        namespace = dict(self._namespace, **names)
        exec(_code(f"def {name}({params}):\n    " + "\n    ".join(lines)),
             namespace)
        return namespace[name]

    def kernel(self):
        """``kernel(xs, u)``: the field at the point and inputs ``xs`` and
        ``u``, lists of floats, as a list; compiled on the first call."""
        if self._kernel is None:
            self._kernel = self.function(
                "kernel", "x, u",
                [", ".join(f"v{i}" for i in range(self.dim)) + ", = x"]
                + self.body("g") + [f"return [{', '.join(self.field('g'))}]"])
        return self._kernel


def field_kernel(Ka: ScalarFn, Kc, x, m: int):
    """Trace ``Ka`` and each ``Kc_k`` once at the point ``x`` (of ``m``
    coordinates and ``m`` costates) and emit the canonical field of
    ``Ka + sum_k u_k Kc_k`` as one straight-line function:
    ``(kernel, reasons, handed_back)``, as :class:`FieldCode` gives them.

    ``kernel(xs, u)`` takes a point and the inputs as lists of floats and
    returns ``[dK/dp, -dK/dq]`` as a list, bit for bit the scalar loop:
    ``grad(Ka)``, then for each port in order whose input is not 0.0 the
    sum ``g + u_k * grad(Kc_k)``, entry by entry.  A generator whose guard
    flips, whose check trips or whose code raises takes ``grad`` for that
    call, which returns or raises as the scalar loop does; the others keep
    their traced code.  A generator the trace cannot record is
    differentiated by :func:`~ltk.diffkit.grad` at every call.  With no
    ports and ``m`` 0 the kernel returns ``grad(Ka)``.
    """
    code = FieldCode(Ka, Kc, x, m)
    return code.kernel(), code.reasons, code.handed_back


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
    namespace = dict(_REPLAY_NAMES, **trace.consts, _fns=fns,
                     _Back=_HandBack)
    source = ["def kernel(x):", "    try:"] + _indented(_indented(body)) + [
        "    except Exception:", "        return [f(x) for f in _fns]"]
    exec(_code("\n".join(source)), namespace)
    return namespace["kernel"]


def _gradient_lines(codes, dim: int) -> list:
    """The lines of :meth:`FieldCode.body` from each generator's traced
    code, or None where the trace cannot record it, with the prefix "$"
    for the names of the gradient sum."""
    point = "[" + ", ".join(f"v{i}" for i in range(dim)) + "]"
    from_grad = [f"back[{i}]" for i in range(dim)]
    body = []
    for k, (code, _) in enumerate(codes):
        if code is None:
            section = [f"back = _grad({k}, {point})"] + _folded(k, from_grad)
        elif not code[0]:               # no check, no guard: nothing raises
            section = _folded(k, code[1])
        else:
            lines, partials = code
            section = (["try:"] + _indented(lines + ["handed = False"])
                       + ["except Exception:", "    handed = True",
                          "if handed:", f"    back = _back({k}, {point})"]
                       + _indented(_folded(k, from_grad)) + ["else:"]
                       + _indented(_folded(k, partials)))
        if k:
            section = [f"if u[{k - 1}] != 0.0:", f"    u{k} = u[{k - 1}]"] \
                + _indented(section)
        body += section
    return body


def _folded(k: int, partials) -> list:
    """The lines adding generator k's partials to the gradient sum
    ``$0, $1, ...``: Ka's are the sum, port k's are added times its input
    ``u{k}``."""
    if k == 0:
        return [f"${i} = {d}" for i, d in enumerate(partials)]
    return [f"${i} = ${i} + " + _times(f"u{k}", f"({d})" if " " in d else d)
            for i, d in enumerate(partials)]


def _indented(lines) -> list:
    return ["    " + line for line in lines]


# Code objects by source text.  A source names its constants and never
# holds their values, so systems of one shape whose parameters differ only
# in value, and every run of one system, share one compile.  The first 60
# jobs of each perfbench workload (seed 7) compile 2 block runners and 3
# value kernels on sim_builtin, 3 block runners and the 4 templates' value
# kernels on sim_expr, its built-in twins included, and 2 block runners on
# audit; a field's one-stage kernel is compiled only where a caller asks
# for it (FieldCode.kernel), which no workload does.
_COMPILED = {}
_COMPILED_MAX = 8


def _code(source: str):
    """The code object of ``source``, compiled on its first use."""
    code = _COMPILED.get(source)
    if code is None:
        if len(_COMPILED) >= _COMPILED_MAX:
            del _COMPILED[next(iter(_COMPILED))]
        code = _COMPILED[source] = compile(source, "<field kernel>", "exec")
    return code
