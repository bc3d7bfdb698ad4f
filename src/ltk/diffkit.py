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
Derivatives*, 2nd ed.).  One pass carries a batch of duals whose ``val`` has
shape (B,) and whose ``dot`` has shape (k, B), one seed direction per
coordinate for a gradient (k = dim) or one direction per row for a
directional derivative (k = 1), and returns all B results.  The contract is
bit-identity: each row equals the single-point result (short of integer
values of a point-dependent exponent, see :class:`_DualBatch`), because
every batch operation is the scalar formula in the same order, entrywise,
and ``exp``, ``ln``, ``sqrt``, ``sin``, ``cos`` and ``**`` go through
``math`` one entry at a time (numpy's SIMD kernels round differently on
some inputs).  Division is correctly rounded, ``q = a / b``, in both forms,
so a pass's value is also the plain evaluation's.  Domain errors in a batch
name the failing row.

Every sampled check of the package runs its samples as such batches: the
flowcheck trajectories, the degree, surface, law and chart-form samples of
``validate``, the bracket degree and antisymmetry samples, the Gibbs-Duhem
samples and their tangents, and the second-law scan of ``interconnect``;
so does ``simulate``'s recording of its guard, outputs and monitors, a
block of grid points at a time.  The private row helpers below serve them;
a check whose batch raises reruns its rows one at a time
(:func:`_rows_or_errors`), so each sample is skipped or reported exactly as
it would be alone.  A single point, such as a stage of ``simulate``'s RK4
step, keeps the scalar loop, where numpy's per-operation overhead on
dim-by-1 arrays would cost more than the loop it replaces.

Nothing here computes second derivatives.  Quantities that would need them
(Lie brackets of vector fields, flow sensitivities, nested Poisson brackets)
are obtained downstream by finite differences of first-order results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

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
    """A scalar ``val`` together with one derivative component ``dot``.

    Arithmetic follows the usual rules of first-order Taylor expansion, e.g.
    ``(a + a'eps)(b + b'eps) = ab + (ab' + a'b)eps``.  Mixed operations with
    plain ints/floats promote the plain operand to a constant (zero ``dot``).
    """

    __slots__ = ("val", "dot")

    # numpy defers every operator with a Dual operand to Dual, which rejects
    # arrays, instead of building an object array of Duals
    __array_ufunc__ = None

    def __init__(self, val, dot=0.0):
        self.val = float(val)
        self.dot = float(dot)

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
            if other.val == 0.0:
                raise ZeroDivisionError("division by a dual number with zero value")
            q = self.val / other.val
            return Dual(q, (self.dot - q * other.dot) / other.val)
        if isinstance(other, (int, float)):
            if other == 0:
                raise ZeroDivisionError("division by zero")
            return Dual(self.val / other, self.dot / other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, float)):
            if self.val == 0.0:
                raise ZeroDivisionError("division by a dual number with zero value")
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
        s = 0.0 if self.val == 0.0 else math.copysign(1.0, self.val)
        return Dual(abs(self.val), s * self.dot)

    def __pow__(self, other):
        # Integer exponents work for any base; fractional exponents need a
        # positive base to stay real (and differentiable).
        if isinstance(other, (int, float)) and not isinstance(other, Dual):
            if float(other).is_integer():
                k = int(other)
                if k == 0:
                    return Dual(1.0, 0.0)
                if self.val == 0.0 and k < 0:
                    raise ZeroDivisionError("0 raised to a negative power")
                v = self.val ** k
                return Dual(v, k * self.val ** (k - 1) * self.dot)
            other = Dual(other, 0.0)
        if isinstance(other, Dual):
            if self.val <= 0.0:
                raise ValueError(
                    "power with non-integer exponent requires a positive base"
                )
            v = self.val ** other.val
            return Dual(v, v * (other.dot * math.log(self.val)
                                + other.val * self.dot / self.val))
        return NotImplemented

    def __rpow__(self, other):
        if isinstance(other, (int, float)):
            return Dual(other, 0.0) ** self
        return NotImplemented

    # -- comparisons (on values; used for domain checks) ---------------------

    def __lt__(self, other):
        return self.val < _value_of(other)

    def __le__(self, other):
        return self.val <= _value_of(other)

    def __gt__(self, other):
        return self.val > _value_of(other)

    def __ge__(self, other):
        return self.val >= _value_of(other)

    def __eq__(self, other):
        if isinstance(other, Dual):
            return self.val == other.val and self.dot == other.dot
        if isinstance(other, (int, float)):
            return self.val == other and self.dot == 0.0
        return NotImplemented

    def __hash__(self):
        return hash((self.val, self.dot))


def _value_of(x):
    return x.val if isinstance(x, Dual) else float(x)


# -- a batch of dual numbers: the ensemble axis of vector forward mode --------


def _at_row(row: int, rows: int) -> str:
    """The row label of a batch error; a one-row batch raises the scalar
    message, as the point it runs is the caller's to name."""
    return f" (batch row {row})" if rows > 1 else ""


def _each(fn, *columns: np.ndarray) -> np.ndarray:
    """``fn`` applied row by row to the entries of ``columns``, as floats.

    numpy's SIMD ``exp``, ``log`` and ``power`` are not always rounded like
    ``math``, so a batch row would drift from the scalar pass in the last
    bit; a domain error names the first failing row.
    """
    out = []
    for row, args in enumerate(zip(*(c.tolist() for c in columns))):
        try:
            out.append(fn(*args))
        except (ArithmeticError, ValueError) as err:
            raise type(err)(f"{err}{_at_row(row, columns[0].size)}") from None
    return np.array(out)


def _reject(bad: np.ndarray, error, message: str):
    """Raise ``error`` naming the first row flagged in ``bad``, if any."""
    if bad.any():
        raise error(f"{message}{_at_row(int(np.argmax(bad)), bad.size)}")


class _DualBatch:
    """B dual numbers that share one pass: ``val`` of shape (B,) and ``dot``
    of shape (dim, B), the derivative along each of dim seed directions.

    Every operation is the scalar :class:`Dual` formula, in the same order,
    applied entrywise, so each row and seed direction reproduces a scalar
    pass bit for bit.  The one exception is a power whose exponent depends
    on the point and takes an integer value there: a scalar pass seeding a
    coordinate the exponent does not read takes the integer-power rule, the
    batch the general one, and the two can differ in the last bit.  Built
    only by :func:`grad`; it does not mix with scalar Duals or numpy arrays,
    and comparing it raises ``TypeError``, as its rows may compare
    differently.
    """

    __slots__ = ("val", "dot")
    __array_ufunc__ = None

    def __init__(self, val, dot):
        self.val = val
        self.dot = dot

    def __add__(self, other):
        if isinstance(other, _DualBatch):
            return _DualBatch(self.val + other.val, self.dot + other.dot)
        if isinstance(other, (int, float)):
            return _DualBatch(self.val + other, self.dot)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, _DualBatch):
            return _DualBatch(self.val - other.val, self.dot - other.dot)
        if isinstance(other, (int, float)):
            return _DualBatch(self.val - other, self.dot)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, float)):
            return _DualBatch(other - self.val, -self.dot)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, _DualBatch):
            return _DualBatch(self.val * other.val,
                              self.val * other.dot + self.dot * other.val)
        if isinstance(other, (int, float)):
            return _DualBatch(self.val * other, self.dot * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, _DualBatch):
            _reject(other.val == 0.0, ZeroDivisionError,
                    "division by a dual number with zero value")
            q = self.val / other.val
            return _DualBatch(q, (self.dot - q * other.dot) / other.val)
        if isinstance(other, (int, float)):
            if other == 0:
                raise ZeroDivisionError("division by zero")
            return _DualBatch(self.val / other, self.dot / other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, float)):
            _reject(self.val == 0.0, ZeroDivisionError,
                    "division by a dual number with zero value")
            q = other / self.val
            return _DualBatch(q, -(q * self.dot) / self.val)
        return NotImplemented

    def __neg__(self):
        return _DualBatch(-self.val, -self.dot)

    def __pos__(self):
        return self

    def __abs__(self):
        s = np.where(self.val == 0.0, 0.0, np.copysign(1.0, self.val))
        return _DualBatch(np.abs(self.val), s * self.dot)

    def __pow__(self, other):
        if isinstance(other, (int, float)):
            if float(other).is_integer():
                k = int(other)
                if k == 0:
                    return _DualBatch(np.ones_like(self.val),
                                      np.zeros_like(self.dot))
                if k < 0:
                    _reject(self.val == 0.0, ZeroDivisionError,
                            "0 raised to a negative power")
                v = _each(lambda a: a ** k, self.val)
                return _DualBatch(
                    v, k * _each(lambda a: a ** (k - 1), self.val) * self.dot)
            other = _DualBatch(np.full_like(self.val, other),
                               np.zeros_like(self.dot))
        if isinstance(other, _DualBatch):
            _reject(self.val <= 0.0, ValueError,
                    "power with non-integer exponent requires a positive base")
            v = _each(pow, self.val, other.val)
            return _DualBatch(v, v * (other.dot * _each(math.log, self.val)
                                      + other.val * self.dot / self.val))
        return NotImplemented

    def __rpow__(self, other):
        if isinstance(other, (int, float)):
            base = _DualBatch(np.full_like(self.val, other),
                              np.zeros_like(self.dot))
            return base ** self
        return NotImplemented

    def _unordered(self, other):
        raise TypeError("a batch of dual numbers has no single truth value")

    __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = _unordered


# -- transcendental functions generic over float/Dual ------------------------


def _batch_values(x) -> np.ndarray:
    """``x.val`` of a batch of duals; anything else is the caller's type
    error.  Plain numbers take the ``math`` call first, at no extra cost."""
    if not isinstance(x, _DualBatch):
        raise TypeError(f"must be a real number or dual, not {type(x).__name__}")
    return x.val


def exp(x):
    if isinstance(x, Dual):
        v = math.exp(x.val)
        return Dual(v, v * x.dot)
    try:
        return math.exp(x)
    except TypeError:
        v = _each(math.exp, _batch_values(x))
        return _DualBatch(v, v * x.dot)


def ln(x):
    if isinstance(x, Dual):
        if x.val <= 0.0:
            raise ValueError("ln requires a positive argument")
        return Dual(math.log(x.val), x.dot / x.val)
    try:
        if x <= 0.0:
            raise ValueError("ln requires a positive argument")
        return math.log(x)
    except TypeError:
        vals = _batch_values(x)
        _reject(vals <= 0.0, ValueError, "ln requires a positive argument")
        return _DualBatch(_each(math.log, vals), x.dot / vals)


def sqrt(x):
    if isinstance(x, Dual):
        if x.val < 0.0:
            raise ValueError("sqrt requires a nonnegative argument")
        v = math.sqrt(x.val)
        if x.val == 0.0 and x.dot != 0.0:
            raise ValueError("sqrt is not differentiable at zero")
        return Dual(v, 0.0 if x.dot == 0.0 else 0.5 * x.dot / v)
    try:
        if x < 0.0:
            raise ValueError("sqrt requires a nonnegative argument")
        return math.sqrt(x)
    except TypeError:
        vals = _batch_values(x)
        _reject(vals < 0.0, ValueError, "sqrt requires a nonnegative argument")
        v = _each(math.sqrt, vals)
        moving = x.dot != 0.0
        _reject((vals == 0.0) & moving.any(axis=0), ValueError,
                "sqrt is not differentiable at zero")
        return _DualBatch(v, np.divide(0.5 * x.dot, v, where=moving,
                                       out=np.zeros_like(x.dot)))


def sin(x):
    if isinstance(x, Dual):
        return Dual(math.sin(x.val), math.cos(x.val) * x.dot)
    try:
        return math.sin(x)
    except TypeError:
        vals = _batch_values(x)
        return _DualBatch(_each(math.sin, vals), _each(math.cos, vals) * x.dot)


def cos(x):
    if isinstance(x, Dual):
        return Dual(math.cos(x.val), -math.sin(x.val) * x.dot)
    try:
        return math.cos(x)
    except TypeError:
        vals = _batch_values(x)
        return _DualBatch(_each(math.cos, vals), -_each(math.sin, vals) * x.dot)


# -- scalar functions and their gradients -------------------------------------


@dataclass(frozen=True)
class ScalarFn:
    """A deterministic scalar function of a fixed-dimension real vector.

    ``fn`` receives a sequence of scalars (floats, or :class:`Dual` values
    when ``dual_safe``) and must return a single scalar computed with generic
    arithmetic only.  Functions that are not safe to evaluate over dual
    numbers (e.g. they internally call a gradient themselves) set
    ``dual_safe=False``, which makes :func:`grad` fall back to the
    finite-difference oracle.
    """

    fn: Callable
    dim: int
    name: str = ""
    dual_safe: bool = True

    def __call__(self, x):
        return self.fn(x)


def grad(f: ScalarFn, x) -> np.ndarray:
    """Gradient of ``f`` at ``x``: one dual-number pass per coordinate.

    Exact to floating-point roundoff for ``dual_safe`` functions; otherwise
    delegates to :func:`fd_grad`.  Domain errors raised by ``f`` propagate.

    A 2-D array ``x`` of shape (B, dim) holds one point per row; the result
    is the (B, dim) array of their gradients, from one vector-mode pass
    whose rows equal the single-point gradients bit for bit.  A domain
    error names the failing row.  A function that compares its arguments
    (a domain check or a branch) falls back to one point at a time.  The
    package's sampled checks, flowcheck's trajectories and ``simulate``'s
    recording take this route; ``simulate``'s field differentiates one
    point at a time.
    """
    if isinstance(x, np.ndarray) and x.ndim == 2:
        return _grad_rows(f, x)
    x = [float(v) for v in x]
    if len(x) != f.dim:
        raise ValueError(f"{f.name or 'function'} expects dimension {f.dim}, got {len(x)}")
    if not f.dual_safe:
        return fd_grad(f, x)
    out = np.empty(f.dim)
    for i in range(f.dim):
        xi = list(x)
        xi[i] = Dual(x[i], 1.0)
        y = f(xi)
        out[i] = y.dot if isinstance(y, Dual) else 0.0
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

    Returns the resulting :class:`_DualBatch`, or None when ``f`` compares
    its arguments, so that each row must take its own scalar pass.
    """
    try:
        y = f([_DualBatch(X[:, i].copy(), dots[i]) for i in range(f.dim)])
    except TypeError:
        return None
    if isinstance(y, _DualBatch):
        return y
    return _DualBatch(np.full(len(X), float(y)), np.zeros(dots.shape[1:]))


def _seeds(B: int, dim: int) -> np.ndarray:
    """One unit seed per coordinate, for each of B rows: shape (dim, dim, B)."""
    seeds = np.zeros((dim, dim, B))
    seeds[np.arange(dim), np.arange(dim)] = 1.0
    return seeds


def _grad_rows(f: ScalarFn, X) -> np.ndarray:
    """The gradients of ``f`` at the rows of ``X``, one vector-mode pass."""
    X = _as_rows(f, X)
    y = _batch_pass(f, X, _seeds(*X.shape)) if f.dual_safe else None
    if y is not None:
        return y.dot.T.copy()
    return np.array([grad(f, x) for x in X]).reshape(X.shape)


def _values_and_grads(f: ScalarFn, X):
    """``(f(x), grad(f, x))`` at each row x of ``X``: arrays of shape (B,)
    and (B, dim) from one vector-mode pass, or row by row where ``f`` is
    not ``dual_safe`` or compares its arguments."""
    X = _as_rows(f, X)
    y = _batch_pass(f, X, _seeds(*X.shape)) if f.dual_safe else None
    if y is not None:
        return y.val, y.dot.T.copy()
    return (np.array([float(f(x)) for x in X.tolist()]),
            np.array([grad(f, x) for x in X]).reshape(X.shape))


def _values_and_dirderivs(f: ScalarFn, X, D):
    """``(f(x), dirderiv(f, x, d))`` at each row x of ``X`` along the
    matching row d of ``D``: two arrays of shape (B,) from one vector-mode
    pass, or row by row where ``f`` is not ``dual_safe`` or compares its
    arguments.  Each row equals :func:`_value_and_dirderiv` bit for bit."""
    X = _as_rows(f, X)
    D = np.asarray(D, dtype=float)
    y = _batch_pass(f, X, D.T[:, None, :].copy()) if f.dual_safe else None
    if y is not None:
        return y.val, y.dot[0]
    if f.dual_safe:
        pairs = [_value_and_dirderiv(f, x, d)
                 for x, d in zip(X.tolist(), D.tolist())]
    else:
        pairs = [(float(f(x)), dirderiv(f, x, d))
                 for x, d in zip(X.tolist(), D.tolist())]
    return (np.array([v for v, _ in pairs], dtype=float),
            np.array([dot for _, dot in pairs], dtype=float))


def _values_and_fd_dirderivs(values, X: np.ndarray, D: np.ndarray):
    """``(f(x), dirderiv(f, x, d))`` at each row x of ``X`` along the
    matching nonzero row d of ``D``, by :func:`dirderiv`'s central
    difference, for an f that is not ``dual_safe``.

    ``values`` maps an (N, dim) array of points to their N values of f; it
    is called once, on the rows, their forward and their backward points.
    """
    B = len(X)
    h = FD_STEP * (1.0 + np.max(np.abs(X), axis=1)) / np.max(np.abs(D), axis=1)
    f = values(np.concatenate([X, X + h[:, None] * D, X - h[:, None] * D]))
    return f[:B], (f[B:2 * B] - f[2 * B:]) / (2.0 * h)


def _rows_or_errors(fn, n: int) -> list:
    """The n per-row results of ``fn(rows)``, run as one batch.

    ``fn`` takes a slice of the n rows and returns one result per selected
    row.  If the batch raises, every row runs again on its own, in order,
    and a row that raises holds its exception in place of a result: each
    row passes or fails as it would alone, and the caller decides which
    errors to skip, and names the sample of one it reports.
    """
    if n == 0:
        return []
    try:
        return list(fn(slice(0, n)))
    except Exception:   # noqa: BLE001 - every row reruns and keeps its error
        out = []
        for i in range(n):
            try:
                out.append(fn(slice(i, i + 1))[0])
            except Exception as err:   # noqa: BLE001 - the caller's to raise
                out.append(err)
        return out


# The errors of a point where a sampled function is undefined: checks that
# sample skip such points, and raise any other error.
_DOMAIN_ERRORS = (ArithmeticError, ValueError)


def _evaluable(results: list) -> list:
    """The results of :func:`_rows_or_errors` without the rows that hit a
    domain error, in order; any other error a row raised is raised."""
    kept = []
    for res in results:
        if isinstance(res, _DOMAIN_ERRORS):
            continue
        if isinstance(res, Exception):
            raise res
        kept.append(res)
    return kept


def _raise_at(err: Exception, where: str):
    """Raise ``err`` again, its message followed by ``where``, the sample
    it happened at; type and attributes are kept."""
    err.args = (f"{err} {where}",)
    raise err


def dirderiv(f: ScalarFn, x, d) -> float:
    """Directional derivative of ``f`` at ``x`` along the vector ``d``.

    For ``dual_safe`` functions this is a single dual pass with the
    components of ``d`` as seeds, exact to roundoff.  Otherwise it is one
    central difference along ``d`` with step ``cbrt(eps) * (1 + |x|) / |d|``
    (sup norms) — for functions that are polynomial of degree <= 2 along the
    ray, such as homogeneous contractions, the truncation term vanishes and
    only roundoff remains.
    """
    x = [float(v) for v in x]
    d = [float(v) for v in d]
    if len(x) != f.dim or len(d) != f.dim:
        raise ValueError(f"{f.name or 'function'} expects dimension {f.dim}")
    if f.dual_safe:
        return _value_and_dirderiv(f, x, d)[1]
    scale = max(abs(v) for v in d)
    if scale == 0.0:
        return 0.0
    h = FD_STEP * (1.0 + max(abs(v) for v in x)) / scale
    xp = [xi + h * di for xi, di in zip(x, d)]
    xm = [xi - h * di for xi, di in zip(x, d)]
    return (f(xp) - f(xm)) / (2.0 * h)


def _value_and_dirderiv(f: ScalarFn, x, d):
    """``(f(x), dirderiv(f, x, d))`` from one dual pass of a ``dual_safe`` f.

    Dual arithmetic computes each value as the plain evaluation does, so the
    first entry equals ``f(x)`` bit for bit.
    """
    y = f([Dual(xi, di) for xi, di in zip(x, d)])
    if isinstance(y, Dual):
        return y.val, y.dot
    return float(y), 0.0


def fd_grad(f: ScalarFn, x, h: float | None = None) -> np.ndarray:
    """Central-difference gradient ``(f(x+h e_i) - f(x-h e_i)) / 2h``.

    With ``h=None`` the step is chosen per coordinate as
    ``cbrt(eps) * max(1, |x_i|)``.  This is the independent oracle against
    which the dual-number gradients are validated.
    """
    x = [float(v) for v in x]
    if len(x) != f.dim:
        raise ValueError(f"{f.name or 'function'} expects dimension {f.dim}, got {len(x)}")
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
