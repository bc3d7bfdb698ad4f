"""Forward-mode differentiation on dual numbers, plus a finite-difference oracle.

A dual number ``a + b*eps`` with ``eps**2 = 0`` carries a value and one
directional derivative through arbitrary arithmetic.  Every scalar function in
this package (Hamiltonians, generating functions, expression-language
evaluations) is written generically enough to accept either plain floats or
:class:`Dual` values, so exact first derivatives come from a single evaluation
per coordinate.  ``fd_grad`` provides an independent central-difference
estimate of the same gradient; the two are cross-checked throughout the test
suite and intentionally kept as separate code paths.

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
            inv = 1.0 / other.val
            return Dual(self.val * inv,
                        (self.dot - self.val * other.dot * inv) * inv)
        if isinstance(other, (int, float)):
            if other == 0:
                raise ZeroDivisionError("division by zero")
            return Dual(self.val / other, self.dot / other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, float)):
            if self.val == 0.0:
                raise ZeroDivisionError("division by a dual number with zero value")
            inv = 1.0 / self.val
            return Dual(other * inv, -other * self.dot * inv * inv)
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


# -- transcendental functions generic over float/Dual ------------------------


def exp(x):
    if isinstance(x, Dual):
        v = math.exp(x.val)
        return Dual(v, v * x.dot)
    return math.exp(x)


def ln(x):
    if isinstance(x, Dual):
        if x.val <= 0.0:
            raise ValueError("ln requires a positive argument")
        return Dual(math.log(x.val), x.dot / x.val)
    if x <= 0.0:
        raise ValueError("ln requires a positive argument")
    return math.log(x)


def sqrt(x):
    if isinstance(x, Dual):
        if x.val < 0.0:
            raise ValueError("sqrt requires a nonnegative argument")
        v = math.sqrt(x.val)
        if x.val == 0.0 and x.dot != 0.0:
            raise ValueError("sqrt is not differentiable at zero")
        return Dual(v, 0.0 if x.dot == 0.0 else 0.5 * x.dot / v)
    if x < 0.0:
        raise ValueError("sqrt requires a nonnegative argument")
    return math.sqrt(x)


def sin(x):
    if isinstance(x, Dual):
        return Dual(math.sin(x.val), math.cos(x.val) * x.dot)
    return math.sin(x)


def cos(x):
    if isinstance(x, Dual):
        return Dual(math.cos(x.val), -math.sin(x.val) * x.dot)
    return math.cos(x)


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
    """
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
        y = f([Dual(xi, di) for xi, di in zip(x, d)])
        return float(y.dot) if isinstance(y, Dual) else 0.0
    scale = max(abs(v) for v in d)
    if scale == 0.0:
        return 0.0
    h = FD_STEP * (1.0 + max(abs(v) for v in x)) / scale
    xp = [xi + h * di for xi, di in zip(x, d)]
    xm = [xi - h * di for xi, di in zip(x, d)]
    return (f(xp) - f(xm)) / (2.0 * h)


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
