"""Traced gradients: a generator recorded once, replayed as straight-line code.

:func:`trace_grad` runs a function once on :class:`_Traced` coordinates,
which record each operation as a node, and emits the nodes as one Python
function (forward mode on a recorded tape; Griewank & Walther, *Evaluating
Derivatives*, 2nd ed.).  The function computes each value once and then,
for each seed coordinate the node reads, the derivative by the scalar
:class:`~ltk.diffkit.Dual` formula in the same operand order.  A node that
does not read a seed is a plain float in that seed's scalar pass of
:func:`~ltk.diffkit.grad` and carries no derivative there, so every partial
is grad's bit for bit, zero partials as +0.0.

A comparison becomes a guard, and each condition under which a scalar pass
raises becomes a check (a zero divisor; ``ln``, ``sqrt`` or a fractional
power outside its domain; ``sqrt`` at 0 along a moving seed; 0 to a
negative power).  A point where a guard comes out otherwise or a check
trips is handed back, as is one where the replay raises, and the caller
takes it to ``grad``, which returns or raises as it always did.  A traced
value is a :class:`~ltk.diffkit._Recorder`, which diffkit's ``exp``, ``ln``,
``sqrt``, ``sin`` and ``cos`` recognise before any ``math`` call.  Any
other read of it (``==``, ``!=``, ``bool``, ``float``, ``int``, ``hash``,
an attribute, numpy, a traced exponent) makes the function untraceable at
once.  No user text enters the generated source: constants go in through
its namespace.

``simulate``'s field is the one caller: it traces each generator once per
run and keeps the replays for that run only.  ``ltk`` does not import this
module; ``simulate`` does on its first call, so importing the package does
not compile it.
"""

from __future__ import annotations

import math
import operator

from .diffkit import ScalarFn, _Recorder

__all__ = ["trace_grad"]

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
_BINARY = {"add": (operator.add, "+"), "sub": (operator.sub, "-"),
           "mul": (operator.mul, "*"), "div": (operator.truediv, "/")}
_COMPARE = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
            ">=": operator.ge}
_REPLAY_NAMES = {"_exp": math.exp, "_log": math.log, "_sqrt": math.sqrt,
                 "_sin": math.sin, "_cos": math.cos,
                 "_copysign": math.copysign}


def _derivative_source(kind: str, n: int, a, b, da, db) -> str:
    """Source of node n's derivative along one seed: the scalar
    ``Dual`` formula, ``da``/``db`` naming the operands'
    derivatives along it, None where that operand is a plain float in
    that seed's pass."""
    v, va, vb = f"v{n}", _operand(a), _operand(b)
    if kind == "add":
        return da if db is None else db if da is None else f"{da} + {db}"
    if kind == "sub":
        return da if db is None else f"-{db}" if da is None else f"{da} - {db}"
    if kind == "mul":
        if db is None:
            return f"{da} * {vb}"
        return f"{db} * {va}" if da is None else f"{va} * {db} + {da} * {vb}"
    if kind == "div":
        if db is None:
            return f"{da} / {vb}"
        return f"-({v} * {db}) / {vb}" if da is None else \
            f"({da} - {v} * {db}) / {vb}"
    if kind == "neg":
        return f"-{da}"
    if kind == "exp":
        return f"{v} * {da}"
    if kind == "ln":
        return f"{da} / {va}"
    if kind == "sqrt":
        return f"0.0 if {da} == 0.0 else 0.5 * {da} / {v}"
    if kind == "one":                   # x ** 0
        return "0.0"
    if kind == "fpow":                  # b: the exponent as a float
        return f"{v} * (k{n} + {vb} * {da} / {va})"
    return f"k{n} * {da}"               # abs, sin, cos, integer powers


def _operand(ref) -> str:
    """The source name of an operand: a node's value or a constant."""
    return f"v{ref}" if isinstance(ref, int) else ref


class _Trace:
    """The operations of one evaluation of a function on :class:`_Traced`
    coordinates, in order: per node its kind, its operands (node numbers,
    or the names of constants) and the coordinates it reads, and the value
    code with its domain checks and guards.  ``reason`` is why the
    function cannot be traced, None while it can."""

    def __init__(self, x):
        self.nodes = [("x", None, None, frozenset([i])) for i in range(len(x))]
        self.inputs = [_Traced(self, i, float(v)) for i, v in enumerate(x)]
        self.lines = []
        self._checks = set()
        self.consts = {}
        self.reason = None

    def fail(self, reason: str):
        """Mark the function untraceable; the first reason is kept."""
        if self.reason is None:
            self.reason = reason

    def unreadable(self, how: str):
        """A read of a traced value by ``how``, which no replay can repeat."""
        self.fail(f"it reads a traced value with {how}")
        raise TypeError(f"a traced value cannot be read with {how}")

    def _const(self, value) -> str:
        name = f"c{len(self.consts)}"
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
        reads = frozenset().union(*(self.nodes[r][3] for r in (a, b)
                                    if isinstance(r, int)))
        n = len(self.nodes)
        self.nodes.append((kind, a, b, reads))
        for line in lines:
            self._line(line.format(n=n, a=_operand(a), b=_operand(b)))
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
        fn, symbol = _BINARY[kind]
        value = self._value(fn, _value_of_traced(a), _value_of_traced(b))
        lines = ["v{n} = {a} %s {b}" % symbol]
        if kind == "div" and isinstance(b, _Traced):
            lines.insert(0, "if {b} == 0.0: return None")
        return self._add(kind, self._ref(a), self._ref(b), value, lines)

    def unary(self, kind: str, a):
        fn, source, factor, bail = _UNARY[kind]
        value = self._value(fn, a._value)
        lines = [f"v{{n}} = {source.format(a='{a}')}"]
        if factor is not None:
            lines.append(f"k{{n}} = {factor.format(a='{a}')}")
        if bail is not None:
            lines.insert(0, f"if {bail.format(a='{a}')}: return None")
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
                lines.insert(0, "if {a} == 0.0: return None")
            return self._add("ipow", a._node, self._const(c), value, lines)
        if va <= 0.0:
            self.fail("it raises a nonpositive value to a fractional power "
                      "at the traced point")
            raise ValueError("power with non-integer exponent requires a "
                             "positive base")
        return self._add("fpow", a._node, self._const(float(c)),
                         self._value(lambda: va ** c),
                         ["if {a} <= 0.0: return None",
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
                   f"{op} {_operand(self._ref(b))}): return None")
        return outcome

    def emit(self, y):
        """The replay of the trace with ``y`` as the function's result, or
        None when the function cannot be traced."""
        out = y._node if isinstance(y, _Traced) and y._trace is self else None
        if out is None and not isinstance(y, (int, float)):
            self.fail(f"it returns a {type(y).__name__}")
        if self.reason is not None:
            return None
        # derivatives of the nodes the result reads, and of the operands of
        # every sqrt, whose check reads them
        needed = {out}
        for n in range(len(self.nodes) - 1, -1, -1):
            kind, a, b, _ = self.nodes[n]
            if n in needed or kind == "sqrt":
                needed.update(r for r in (a, b) if isinstance(r, int))
        dim = len(self.inputs)
        dots = {(i, i): "1.0" for i in range(dim)}
        lines = []
        for n in range(dim, len(self.nodes)):
            kind, a, b, reads = self.nodes[n]
            if kind == "sqrt":
                moving = " or ".join(f"{dots[a, i]} != 0.0"
                                     for i in sorted(self.nodes[a][3]))
                lines.append(f"if v{a} == 0.0 and ({moving}): return None")
            if n not in needed:
                continue
            for i in sorted(reads):
                source = _derivative_source(kind, n, a, b, dots.get((a, i)),
                                            dots.get((b, i)))
                if not (source.isidentifier() or source in ("0.0", "1.0")):
                    lines.append(f"d{n}_{i} = {source}")
                    source = f"d{n}_{i}"
                dots[n, i] = source
        partials = [dots.get((out, i), "0.0") for i in range(dim)]
        # 0.0 + returns a zero partial as +0.0, as grad does
        result = ", ".join(d if d in ("0.0", "1.0") else f"0.0 + {d}"
                           for d in partials)
        body = ([", ".join(f"v{i}" for i in range(dim)) + ", = x"]
                + self.lines + lines + [f"return [{result}]"])
        namespace = dict(_REPLAY_NAMES, **self.consts)
        exec(compile("def replay(x):\n    " + "\n    ".join(body),
                     "<traced gradient>", "exec"), namespace)
        return namespace["replay"]


def _value_of_traced(v):
    return v._value if isinstance(v, _Traced) else v


def _as_python(v):
    """A float constant as a Python float, as a ``Dual`` holds values:
    numpy scalars overflow and divide by zero without raising."""
    return float(v) if isinstance(v, float) and type(v) is not float else v


class _Traced(_Recorder):
    """A coordinate, or a value computed from coordinates, of a function
    being traced by :func:`trace_grad`.

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


def trace_grad(f: ScalarFn, x):
    """Trace ``f`` once at the point ``x`` and emit its gradient as
    straight-line code: ``(replay, None)``, or ``(None, reason)`` when
    ``f`` cannot be traced.

    ``replay(xs)`` takes a point as a list of floats and returns
    :func:`~ltk.diffkit.grad` of ``f`` there as a list, bit for bit, or
    None where a comparison
    ``f`` made at ``x`` comes out otherwise or where a scalar pass would
    raise (a zero divisor, ``ln``, ``sqrt`` or a fractional power outside
    its domain, ``sqrt`` at 0 along a moving seed, 0 to a negative power);
    where it raises, a scalar pass raises too.  The caller sends such
    points to ``grad``, which raises its own error.
    """
    if not f.dual_safe:
        return None, "it is not dual-safe"
    trace = _Trace(x)
    try:
        y = f(list(trace.inputs))
    except Exception as err:   # noqa: BLE001 - the scalar loop raises it
        trace.fail(f"it raises {type(err).__name__} at the traced point")
        y = None
    replay = trace.emit(y)
    return replay, trace.reason
