"""Forward-mode differentiation on dual numbers, plus a finite-difference oracle.

A dual number ``a + b*eps`` with ``eps**2 = 0`` carries a value and one
directional derivative through arbitrary arithmetic.  Every scalar function in
this package (Hamiltonians, generating functions, expression-language
evaluations) is written generically enough to accept either plain floats or
:class:`Dual` values, so exact first derivatives come from a single evaluation
per coordinate.  ``fd_grad`` provides an independent central-difference
estimate of the same gradient; the two are cross-checked throughout the test
suite and intentionally kept as separate code paths.

:func:`grad` also takes a (B, dim) array of points, one per row: vector
forward mode with an ensemble axis (Griewank & Walther, *Evaluating
Derivatives*, 2nd ed.).  The same :class:`Dual` class then holds arrays, a
batch whose ``val`` has shape (B,) and whose ``dot`` has shape (k, B), one
seed direction per coordinate for a gradient (k = dim) or one direction
per row for a directional derivative (k = 1), and one pass returns all B
results.  The contract is bit-identity: each row equals the single-point
result, because a single dual and a batch run the same formula for each
operation, the batch entrywise, a batch exponent with an integer value
sends the rows back to the scalar pass (see :class:`Dual`), and
``exp``, ``ln``, ``sqrt``, ``sin``, ``cos`` and ``**`` go through ``math``
one entry at a time (numpy's SIMD kernels round differently on some
inputs).  Division is correctly rounded, ``q = a / b``, in both forms, so
a pass's value is also the plain evaluation's.  Domain errors in a batch
name the failing row.

Every sampled check of the package runs its samples as such batches: the
degree, surface, law and chart-form samples of
``validate``, the bracket degree and antisymmetry samples, the Gibbs-Duhem
samples and their tangents, and the second-law scan of ``interconnect``;
so does ``simulate``'s recording of its guard, outputs and monitors, a
block of grid points at a time.  The private row helpers below serve them,
and one driver runs every check's samples (:func:`_sample_rows`): a batch
that raises or yields a value that is not finite reruns its rows one at a
time, so each sample is skipped or reported exactly as it would be alone,
and a sample that is undefined or not finite never passes.  A single
point keeps the scalar loop, where numpy's per-operation overhead on
dim-by-1 arrays would cost more than the loop it replaces.  The
single-point surface and Euler helpers, and ``outputs``' port flows, are
one-row batches of their checks' row helpers.

The routes that run many times over are the fields that
:func:`ltk.dynamics.integrate` steps: ``simulate``'s, one gradient per
generator at each RK4 stage, and the trajectories of the two integrated
checks (``flow_transport_check``, ``scaling_commutation_check``), each
flowed alone.  :mod:`ltk.tracegrad` traces the generators once per run
into straight-line code that sums :func:`grad`'s partials bit for bit,
which one generated block runner inlines at each RK4 stage of one
state; a block in which that code raises and a field it cannot trace
run on :func:`grad`, which stays the reference.
A traced value is a :class:`_Recorder`: ``exp``, ``ln``, ``sqrt``, ``sin``
and ``cos`` below test for it right after ``Dual``, before any ``math``
call, and let it record the call.

Nothing here computes second derivatives.  A composed drift and a Poisson
bracket read their generators' partials from code traced from them
(:class:`ltk.tracegrad.PartialSumKernel`), which runs on single and batch
duals alike, so their gradients are exact passes as any other function's;
Lie brackets of vector fields are obtained downstream by finite differences
of first-order results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "Dual",
    "ScalarFn",
    "grad",
    "fd_grad",
    "dirderiv",
    "exp",
    "ln",
    "sqrt",
    "sin",
    "cos",
    "FD_STEP",
]

# Default relative step for central differences: cbrt(machine epsilon) balances
# O(h^2) truncation against O(eps/h) roundoff for smooth functions.
FD_STEP = float(np.finfo(float).eps) ** (1.0 / 3.0)


class Dual:
    """Dual numbers: a value ``val`` with derivative components ``dot``.

    A single dual holds Python floats, one value and one derivative; ints,
    numpy scalars and 0-d arrays are converted, so numpy's silent overflow
    and division by zero never enter a pass.  A batch of B duals holds
    arrays, ``val`` of shape (B,) and ``dot`` of shape (k, B), the
    derivatives along k seed directions; :func:`grad` builds them for
    vector forward mode.

    Arithmetic follows the usual rules of first-order Taylor expansion, e.g.
    ``(a + a'eps)(b + b'eps) = ab + (ab' + a'b)eps``.  Mixed operations with
    plain ints/floats promote the plain operand to a constant (zero ``dot``);
    numpy arrays do not mix.  Each operation is one formula for both kinds,
    applied entrywise to a batch, so every row and seed direction of a batch
    reproduces the single pass bit for bit.  Comparing, ``==`` or hashing a
    batch raises ``TypeError``, as its rows may compare differently, and so
    does raising to a batch exponent that is an integer on some row: a
    single pass seeding a coordinate the exponent does not read takes the
    integer-power rule there, which a batch cannot tell per seed, so its
    rows take the scalar pass.  A batch exponent with no integer value takes
    the general rule, as every single pass does.
    """

    __slots__ = ("val", "dot")

    # numpy defers every operator with a Dual operand to Dual, which rejects
    # arrays, instead of building an object array of Duals
    __array_ufunc__ = None

    def __init__(self, val, dot=0.0):
        if isinstance(val, np.ndarray) and val.ndim:
            self.val, self.dot = val, dot
        else:
            self.val, self.dot = float(val), float(dot)

    def __repr__(self):
        return f"Dual({self.val!r}, {self.dot!r})"

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val + other.val, self.dot + other.dot)
        if isinstance(other, (int, float)):
            return Dual(self.val + other, self.dot)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val - other.val, self.dot - other.dot)
        if isinstance(other, (int, float)):
            return Dual(self.val - other, self.dot)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, float)):
            return Dual(other - self.val, -self.dot)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val * other.val,
                        self.val * other.dot + self.dot * other.val)
        if isinstance(other, (int, float)):
            return Dual(self.val * other, self.dot * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            _reject(other.val == 0.0, ZeroDivisionError,
                    "division by a dual number with zero value")
            q = self.val / other.val
            return Dual(q, (self.dot - q * other.dot) / other.val)
        if isinstance(other, (int, float)):
            if other == 0:
                raise ZeroDivisionError("division by zero")
            return Dual(self.val / other, self.dot / other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, float)):
            _reject(self.val == 0.0, ZeroDivisionError,
                    "division by a dual number with zero value")
            q = other / self.val
            return Dual(q, -(q * self.dot) / self.val)
        return NotImplemented

    def __neg__(self):
        return Dual(-self.val, -self.dot)

    def __pos__(self):
        return self

    def __abs__(self):
        # d|x|/dx = sign(x); at x = 0 we take 0, which is the usual
        # forward-mode convention for this kink.
        return Dual(abs(self.val), _each(_sign, self.val) * self.dot)

    def __pow__(self, other):
        # Integer exponents work for any base; fractional exponents need a
        # positive base to stay real (and differentiable).
        if isinstance(other, (int, float)):
            if float(other).is_integer():
                k = int(other)
                if k == 0:
                    return Dual(np.ones_like(self.val),
                                np.zeros_like(self.dot))
                if k < 0:
                    _reject(self.val == 0.0, ZeroDivisionError,
                            "0 raised to a negative power")
                v = _each(lambda a: _power(a, k), self.val)
                return Dual(v, k * _each(lambda a: _power(a, k - 1), self.val)
                            * self.dot)
            other = Dual(other, 0.0)
        if isinstance(other, Dual):
            if (isinstance(other.val, np.ndarray)
                    and (other.val == np.trunc(other.val)).any()):
                raise TypeError("a batch exponent with an integer value "
                                "sends its rows to the scalar pass")
            _reject(self.val <= 0.0, ValueError,
                    "power with non-integer exponent requires a positive base")
            v = _each(_power, self.val, other.val)
            return Dual(v, v * (other.dot * _each(math.log, self.val)
                                + other.val * self.dot / self.val))
        return NotImplemented

    def __rpow__(self, other):
        if isinstance(other, (int, float)):
            return Dual(other, 0.0) ** self
        return NotImplemented

    # -- comparisons (on values; used for domain checks) ---------------------

    def __lt__(self, other):
        return _value_of(self) < _value_of(other)

    def __le__(self, other):
        return _value_of(self) <= _value_of(other)

    def __gt__(self, other):
        return _value_of(self) > _value_of(other)

    def __ge__(self, other):
        return _value_of(self) >= _value_of(other)

    def __eq__(self, other):
        if isinstance(other, Dual):
            return (_value_of(self) == _value_of(other)
                    and self.dot == other.dot)
        if isinstance(other, (int, float)):
            return _value_of(self) == other and self.dot == 0.0
        return NotImplemented

    def __hash__(self):
        return hash((_value_of(self), self.dot))


def _value_of(x) -> float:
    """The value of a number or single dual, to compare; a batch raises."""
    if isinstance(x, Dual):
        x = x.val
    if isinstance(x, np.ndarray):
        raise TypeError("a batch of dual numbers has no single truth value")
    return float(x)


# -- the points where a single dual and a batch differ -----------------------


def _at_row(row: int, rows: int) -> str:
    """The row label of a batch error; a one-row batch raises the scalar
    message, as the point it runs is the caller's to name."""
    return f" (batch row {row})" if rows > 1 else ""


def _power(a: float, b) -> float:
    """``a ** b``; an overflow raises naming the base and the power."""
    try:
        return a ** b
    except OverflowError:
        raise OverflowError(f"{a!r} ** {b!r} is out of range") from None


def _each(fn, *args):
    """``fn`` of one or two floats, or entry by entry of arrays, among
    which shapes broadcast and a float is repeated; a batch's rows lie
    along the last axis.

    numpy's SIMD ``exp``, ``log`` and ``power`` are not always rounded like
    ``math``, so a batch row would drift from the single pass in the last
    bit; a domain error in a batch names the first failing row.
    """
    if not (isinstance(args[0], np.ndarray)
            or isinstance(args[-1], np.ndarray)):
        return fn(*args)
    try:
        return np.frompyfunc(fn, len(args), 1)(*args).astype(float)
    except (ArithmeticError, ValueError) as err:
        columns = np.broadcast_arrays(*args)
        rows = columns[0].shape[-1]
        for i, entry in enumerate(zip(*(c.ravel().tolist() for c in columns))):
            try:
                fn(*entry)
            except (ArithmeticError, ValueError):
                raise type(err)(f"{err}{_at_row(i % rows, rows)}") from None
        raise


def _reject(bad, error, message: str):
    """Raise ``error`` if ``bad``: a plain test of a single dual's bool; a
    batch's array names the first row (last axis) flagged for any seed."""
    if not isinstance(bad, np.ndarray):
        if bad:
            raise error(message)
    elif bad.any():
        rows = bad.reshape(-1, bad.shape[-1]).any(axis=0)
        raise error(f"{message}{_at_row(int(np.argmax(rows)), rows.size)}")


def _sign(a: float) -> float:
    return 0.0 if a == 0.0 else math.copysign(1.0, a)


# -- transcendental functions generic over float/Dual ------------------------


class _Recorder:
    """A value that records the calls of the functions below instead of
    being computed (:class:`ltk.tracegrad._Traced`).  Each function tests
    for it after ``Dual`` and before any ``math`` call, and returns
    ``x._record_call(name)``."""

    __slots__ = ()


def exp(x):
    if isinstance(x, Dual):
        v = _each(math.exp, x.val)
        return Dual(v, v * x.dot)
    if isinstance(x, _Recorder):
        return x._record_call("exp")
    return math.exp(x)


def ln(x):
    if isinstance(x, Dual):
        _reject(x.val <= 0.0, ValueError, "ln requires a positive argument")
        return Dual(_each(math.log, x.val), x.dot / x.val)
    if isinstance(x, _Recorder):
        return x._record_call("ln")
    try:
        return math.log(x)          # raises for x <= 0, as a Dual does
    except ValueError:
        raise ValueError("ln requires a positive argument") from None


def sqrt(x):
    if isinstance(x, Dual):
        _reject(x.val < 0.0, ValueError,
                "sqrt requires a nonnegative argument")
        _reject((x.val == 0.0) & (x.dot != 0.0), ValueError,
                "sqrt is not differentiable at zero")
        v = _each(math.sqrt, x.val)
        # dot / (2 v), and 0 where dot is 0, also at v = 0
        return Dual(v, np.divide(0.5 * x.dot, v, where=x.dot != 0.0,
                                 out=np.zeros_like(x.dot)))
    if isinstance(x, _Recorder):
        return x._record_call("sqrt")
    try:
        return math.sqrt(x)         # raises for x < 0, as a Dual does
    except ValueError:
        raise ValueError("sqrt requires a nonnegative argument") from None


def sin(x):
    if isinstance(x, Dual):
        return Dual(_each(math.sin, x.val), _each(math.cos, x.val) * x.dot)
    if isinstance(x, _Recorder):
        return x._record_call("sin")
    return math.sin(x)


def cos(x):
    if isinstance(x, Dual):
        return Dual(_each(math.cos, x.val), -_each(math.sin, x.val) * x.dot)
    if isinstance(x, _Recorder):
        return x._record_call("cos")
    return math.cos(x)


# -- scalar functions and their gradients -------------------------------------


@dataclass(frozen=True)
class ScalarFn:
    """A deterministic scalar function of a fixed-dimension real vector.

    ``fn`` receives a sequence of scalars, floats or :class:`Dual` values,
    and must return a single scalar computed with generic arithmetic only,
    diffkit's ``exp``, ``ln``, ``sqrt``, ``sin`` and ``cos`` included.  A
    function that cannot take duals (it calls ``float`` on its argument,
    say) raises ``TypeError`` naming itself at its first gradient.
    """

    fn: Callable
    dim: int
    name: str = ""

    # Every ScalarFn takes duals; this constant, not a field, is read by
    # benchmark code written when a function could decline them.
    dual_safe = True

    def __call__(self, x):
        return self.fn(x)


def _on_duals(f: ScalarFn, xs):
    """``f(xs)`` of dual numbers; a ``TypeError`` names ``f``."""
    try:
        return f(xs)
    except TypeError as err:
        raise TypeError(f"{f.name or 'function'} cannot take dual numbers: "
                        f"{err}") from err


def grad(f: ScalarFn, x) -> np.ndarray:
    """Gradient of ``f`` at ``x``: one dual-number pass per coordinate,
    exact to roundoff.  Domain errors raised by ``f`` propagate; a
    ``TypeError``, where ``f`` cannot take duals, names it.  A zero partial
    is ``+0.0`` on every route: this loop carries the unseeded coordinates
    as floats, a batch as duals with zero ``dot``.

    A (B, dim) array ``x`` holds one point per row: the result is the (B,
    dim) array of their gradients from one vector-mode pass, each row the
    single-point gradient bit for bit, and a domain error names the failing
    row.  A function that compares its arguments, or raises to a
    point-dependent power that is an integer at some row, runs one point at
    a time.  A phase field that :func:`ltk.dynamics.integrate` steps runs
    code traced from its generators (:class:`ltk.tracegrad.FieldCode`)
    instead, and comes here only in blocks where that code raises and for
    fields it cannot trace; this loop is the reference every replay
    reproduces.  A point that is not a vector of ``f.dim`` entries (a scalar
    or a 0-d array included) raises "expects dimension".
    """
    if isinstance(x, np.ndarray) and x.ndim == 2:
        return _values_and_grads(f, x)[1]
    x = _point(f, x)
    out = np.empty(f.dim)
    for i in range(f.dim):
        xi = list(x)
        xi[i] = Dual(x[i], 1.0)
        y = _on_duals(f, xi)
        out[i] = 0.0 + y.dot if isinstance(y, Dual) else 0.0
    return out


def _as_rows(f: ScalarFn, X) -> np.ndarray:
    """``X`` as a float (B, f.dim) array of points."""
    X = np.asarray(X, dtype=float)
    if X.shape[1] != f.dim:
        raise ValueError(f"{f.name or 'function'} expects dimension {f.dim}, "
                         f"got {X.shape[1]}")
    return X


def _batch_pass(f: ScalarFn, X: np.ndarray, dots: np.ndarray):
    """``f`` over the rows of ``X`` in one vector-mode pass, coordinate i
    carrying the derivatives ``dots[i]`` of shape (k, B).

    Returns the resulting batch :class:`Dual`, or None when ``f`` compares
    its arguments, so that each row must take its own scalar pass.
    """
    try:
        y = f([Dual(X[:, i].copy(), dots[i]) for i in range(f.dim)])
    except TypeError:
        return None
    if isinstance(y, Dual):
        return y
    return Dual(np.full(len(X), float(y)), np.zeros(dots.shape[1:]))


def _seeds(B: int, dim: int) -> np.ndarray:
    """One unit seed per coordinate, for each of B rows: shape (dim, dim, B)."""
    seeds = np.zeros((dim, dim, B))
    seeds[np.arange(dim), np.arange(dim)] = 1.0
    return seeds


def _values_and_grads(f: ScalarFn, X):
    """``(f(x), grad(f, x))`` at each row x of ``X``: arrays of shape (B,)
    and (B, dim) from one vector-mode pass, or row by row where ``f``
    compares its arguments."""
    X = _as_rows(f, X)
    y = _batch_pass(f, X, _seeds(*X.shape))
    if y is not None:
        return y.val, y.dot.T + 0.0
    return (np.array([float(f(x)) for x in X.tolist()]),
            np.array([grad(f, x) for x in X]).reshape(X.shape))


def _values_and_dirderivs(f: ScalarFn, X, D):
    """``(f(x), dirderiv(f, x, d))`` at each row x of ``X`` along the
    matching row d of ``D``: two arrays of shape (B,) from one vector-mode
    pass, or row by row where ``f`` compares its arguments.  Each row
    equals :func:`_value_and_dirderiv` bit for bit."""
    X = _as_rows(f, X)
    D = np.asarray(D, dtype=float)
    y = _batch_pass(f, X, D.T[:, None, :].copy())
    if y is not None:
        return y.val, y.dot[0]
    pairs = [_value_and_dirderiv(f, x, d)
             for x, d in zip(X.tolist(), D.tolist())]
    return (np.array([v for v, _ in pairs], dtype=float),
            np.array([dot for _, dot in pairs], dtype=float))


def _values_and_fd_dirderivs(values, X: np.ndarray, D: np.ndarray):
    """``(f(x), dirderiv(f, x, d))`` at each row x of ``X`` along the
    matching nonzero row d of ``D``, by a central difference with step
    ``cbrt(eps) * (1 + |x|) / |d|`` (sup norms): the dual route's oracle.

    ``values`` maps an (N, dim) array of points to their N values of f; it
    is called once, on the rows, their forward and their backward points.
    """
    B = len(X)
    h = FD_STEP * (1.0 + np.max(np.abs(X), axis=1)) / np.max(np.abs(D), axis=1)
    f = values(np.concatenate([X, X + h[:, None] * D, X - h[:, None] * D]))
    return f[:B], (f[B:2 * B] - f[2 * B:]) / (2.0 * h)


# The errors of a point where a function is undefined: checks that sample
# skip such points, and raise any other error; expressions name them.
_DOMAIN_ERRORS = (ArithmeticError, ValueError)


def _sample_rows(fn, n: int, where=None):
    """The rows of a sampled check that evaluate: ``(kept, R)``.

    ``fn`` takes a slice of the n sample rows and returns one result, a
    number or a vector of numbers, per selected row.  All rows run as one
    batch; if the batch raises or a result is not finite, every row runs
    again on its own, in order, so each row passes or fails as it would
    alone.  A row fails when it raises, or with a ``ValueError`` when its
    result is not finite.  Without ``where`` a row that fails with a domain
    error is skipped and any other error is raised; with ``where`` the
    first failing row raises, its type kept and ``where(i)``, the sample it
    happened at, appended to its message.

    ``kept`` holds the ascending indices of the rows kept, ``R`` their
    results as one float array, a row each.
    """
    if n:
        try:
            R = np.asarray(fn(slice(0, n)), dtype=float)
            if np.isfinite(R).all():
                return np.arange(n), R
        except Exception:   # noqa: BLE001 - every row reruns alone
            pass
    kept, rows = [], []
    for i in range(n):
        try:
            row = np.asarray(fn(slice(i, i + 1))[0], dtype=float)
            if not np.isfinite(row).all():
                raise ValueError(f"non-finite result {row.tolist()}")
        except Exception as err:   # noqa: BLE001 - raised or skipped below
            if where is not None:
                err.args = (f"{err} {where(i)}",)
                raise
            if not isinstance(err, _DOMAIN_ERRORS):
                raise
            continue
        kept.append(i)
        rows.append(row)
    return np.array(kept, dtype=int), np.array(rows, dtype=float)


def dirderiv(f: ScalarFn, x, d) -> float:
    """Directional derivative of ``f`` at ``x`` along the vector ``d``: a
    single dual pass with the components of ``d`` as seeds, exact to
    roundoff."""
    return _value_and_dirderiv(f, _point(f, x), _point(f, d))[1]


def _point(f: ScalarFn, x) -> list:
    """``x`` as a list of ``f.dim`` floats; a vector of another length, a
    scalar or a 0-d array raises "expects dimension"."""
    scalar = isinstance(x, (int, float)) or getattr(x, "ndim", 1) == 0
    if scalar or len(x := [float(v) for v in x]) != f.dim:
        raise ValueError(f"{f.name or 'function'} expects dimension {f.dim}, "
                         f"got {'a scalar' if scalar else len(x)}")
    return x


def _value_and_dirderiv(f: ScalarFn, x, d):
    """``(f(x), dirderiv(f, x, d))`` from one dual pass.

    Dual arithmetic computes each value as the plain evaluation does, so the
    first entry equals ``f(x)`` bit for bit.
    """
    y = _on_duals(f, [Dual(xi, di) for xi, di in zip(x, d)])
    if isinstance(y, Dual):
        return y.val, y.dot
    return float(y), 0.0


def fd_grad(f: ScalarFn, x, h: float | None = None) -> np.ndarray:
    """Central-difference gradient ``(f(x+h e_i) - f(x-h e_i)) / 2h``.

    With ``h=None`` the step is chosen per coordinate as
    ``cbrt(eps) * max(1, |x_i|)``.  This is the independent oracle against
    which the dual-number gradients are validated.
    """
    x = _point(f, x)
    if h is not None and h <= 0.0:
        raise ValueError("finite-difference step must be positive")
    out = np.empty(f.dim)
    for i in range(f.dim):
        hi = h if h is not None else FD_STEP * max(1.0, abs(x[i]))
        xp = list(x)
        xm = list(x)
        xp[i] = x[i] + hi
        xm[i] = x[i] - hi
        out[i] = (f(xp) - f(xm)) / (2.0 * hi)
    return out
