"""Helpers shared by the test modules."""

import numpy as np

from ltk.diffkit import dirderiv, grad
from ltk.dynamics import _canonical, _gradient_lines
from ltk.tracegrad import FieldCode, _source, _stage


def port_flow(K, x, m: int, indices) -> float:
    """``sum_{i in indices} dK/dp_i`` at the one point ``x``, the scalar
    reference of a row of ``ltk.portsys._port_flows``: a single dual pass
    along the indicator of those costates."""
    d = [0.0] * (2 * m)
    for i in indices:
        d[m + i] = 1.0
    return 0.0 + dirderiv(K, x, d)


def one_stage(code: FieldCode, codes=None):
    """``kernel(xs, u)``: the gradient sum of the traced ``codes`` (by
    default all of ``code.codes``: Ka's, then each port's) at the point and
    inputs ``xs`` and ``u``, lists of floats, as a list, or an error where
    :func:`ltk.tracegrad._stage` raises; one stage of the block runner as
    one call."""
    body = "\n".join(_gradient_lines(code.codes if codes is None else codes))
    return code.function(_source(
        "kernel", "x, u",
        _stage(body, "g", [f"x[{i}]" for i in range(code.dim)])
        + [f"return [{', '.join(f'g{i}' for i in range(code.dim))}]"]))


def hessian_stage(code: FieldCode):
    """``kernel(xs, ts)``: the Hessian of the first function traced into
    ``code`` (with ``hessians``) at the point ``xs`` times the direction
    ``ts``, lists of floats, as a list, or an error where its code
    raises."""
    (lines, _), (more, partials) = code.codes[0], code.hessians[0]
    body = "\n".join(_gradient_lines([(lines + more, partials)]))
    n = code.dim
    return code.function(_source(
        "kernel", "x, t",
        _stage(body, "g", [f"x[{i}]" for i in range(n)],
               [f"t[{i}]" for i in range(n)])
        + [f"return [{', '.join(f'g{i}' for i in range(n))}]"]))


class TracedGradient:
    """The gradient sum of ``Ka + sum_k u_k Kc_k``, called as
    ``self(xs, u)`` on lists of floats, through the one-stage kernel of its
    field code traced at ``x``, and where the kernel raises, or at every
    point where the field code has a ``reason``, through the scalar loop
    of ``grad``: ``grad(Ka)``, then ``g + u_k * grad(Kc_k)`` for each
    input that is not 0.0, which returns or raises as the vector pass
    that a block of ``integrate``'s runner reruns on, and that a field
    the trace cannot record steps on.  ``handed`` counts the points the
    kernel raised at."""

    def __init__(self, Ka, Kc, x):
        self.Ka, self.Kc = Ka, tuple(Kc)
        self.code = FieldCode((Ka, *self.Kc), list(x))
        self.kernel = None if self.code.reason else one_stage(self.code)
        self.handed = 0
        self.steps = []

    def __call__(self, xs, u=()):
        if self.kernel is not None:
            try:
                return self.kernel(list(xs), u)
            except Exception:   # noqa: BLE001 - grad returns or raises
                self.handed += 1
        g = grad(self.Ka, xs)
        for uk, K in zip(u, self.Kc):
            if uk != 0.0:
                g = g + uk * grad(K, xs)
        return g.tolist()

    def field(self, read=None):
        """The list step's field ``f(t, X)`` for ``integrate``: the
        canonical field of a call on the state, or on each row of the
        batch, as a list of floats, with the inputs ``read(t)`` where
        ``read`` is given.  ``steps`` gets the step (1 from t = 0, four
        calls a step) of each call at which a point was handed to grad."""
        calls = []

        def f(t, X):
            before, u = self.handed, () if read is None else read(t)
            rows = [self(x, u) for x in np.atleast_2d(X).tolist()]
            if self.handed > before:
                self.steps.append(len(calls) // 4 + 1)
            calls.append(t)
            return _canonical(np.array(rows).reshape(np.shape(X)))
        return f

    def rerun_blocks(self, block: int) -> list:
        """The first points of the blocks of ``block`` points a run rerun
        on the vector pass, the first block holding point 0, for the
        ``steps`` recorded."""
        return sorted({max(0, s // block * block - 1) for s in self.steps})

    def rerun_line(self, label: str, block: int, dt: float) -> str:
        """``integrate``'s INFO line of the blocks that reran."""
        starts = self.rerun_blocks(block)
        first = f", the first from t={starts[0] * dt:g}" if starts else ""
        return (f"{label}: blocks rerun on the vector pass: {len(starts)}"
                f"{first}")
