"""Helpers shared by the test modules."""

import numpy as np

from ltk.diffkit import _sample_rows, dirderiv, grad
from ltk.dynamics import (_canonical, _gradient_lines, _membership_drift,
                          _NonFiniteState, phase_rhs, rk4_step)
from ltk.submanifold import _liouville_rows
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
        """The list step's field ``f(t, x)`` for ``integrate``: the
        canonical field of a call on the state as a list of floats, with
        the inputs ``read(t)`` where ``read`` is given.  ``steps`` gets
        the step (1 from t = 0, four calls a step) of each call at which
        a point was handed to grad."""
        calls = []

        def f(t, x):
            before, u = self.handed, () if read is None else read(t)
            g = self(x.tolist(), u)
            if self.handed > before:
                self.steps.append(len(calls) // 4 + 1)
            calls.append(t)
            return _canonical(np.array(g))
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


def vector_flow(K, X0, t_end: float, dt: float, reached=None):
    """The rows of the batch ``X0`` flowed together on the vector pass of
    ``phase_rhs(K)``, one ``rk4_step`` of the batch at a time, on
    ``integrate``'s grid: a (steps + 1, B, dim) array, each row the flow
    that ``integrate`` gives the state alone.  The batch's states are
    appended to the list ``reached`` as they are reached.  An error from
    the field gains the step's start time, and a state that is not finite
    raises ``integrate``'s error, naming the first such row in its message
    and its ``row``."""
    f, reached = phase_rhs(K), [] if reached is None else reached
    reached.append(np.asarray(X0, dtype=float))
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(round(t_end / dt)):
            try:
                X = rk4_step(f, i * dt, reached[-1], dt)
            except Exception as err:
                err.args = (f"{err} in the step from t={i * dt:g}",)
                raise
            finite = np.isfinite(X).all(axis=1)
            if not finite.all():
                err = _NonFiniteState((i + 1) * dt, i + 1)
                err.row = int(np.argmin(finite))
                err.args = (f"{err} in row {err.row}",)
                raise err
            reached.append(X)
    return np.array(reached)


def perturbation_step(v: float) -> float:
    """The step by which :func:`perturbed_transport` moves a parameter of
    value ``v``."""
    return 1e-5 * max(1.0, abs(v))


def perturbed_transport(gf, K, members: list, t_end: float, dt: float):
    """``(alphas, drift)`` of ``flow_transport_check`` by central
    differences, the oracle its adjoint sweep is held to: each member and
    its 2 * n_params perturbations (parameter k moved by +h, then -h) are
    flowed as rows of one batch on :func:`vector_flow`, and
    alpha on each member's tangents, a (members, n_params) array, is read
    off central differences of their final states, so it carries the
    differences' error; the drift is that of the members' rows.  An error
    in a lift or a flow names the member and its perturbation."""
    starts = []
    for params in members:
        starts.append(params)
        for k, v in enumerate(params):
            h = perturbation_step(v)
            starts.append(params[:k] + [v + h] + params[k + 1:])
            starts.append(params[:k] + [v - h] + params[k + 1:])
    width = len(starts) // len(members)

    def named(i):
        member, j = divmod(i, width)
        which = ("unperturbed" if j == 0 else
                 f"parameter {(j - 1) // 2} {'+' if j % 2 else '-'}h")
        return f"surface member {members[member]} ({which})"

    _, x0 = _sample_rows(lambda rows: _liouville_rows(gf, starts[rows]),
                         len(starts), lambda i: f"at {named(i)}")
    try:
        xs = vector_flow(K, x0, t_end, dt)
    except _NonFiniteState as err:
        raise RuntimeError(f"flow of {named(err.row)} produced a non-finite "
                           f"state at t={err.t:g}") from err
    drift = _membership_drift(gf, np.arange(len(xs)) * dt,
                              xs[:, ::width].transpose(1, 0, 2), members)
    m = gf.n + 1
    # each member's final state and its central-difference tangents
    final = xs[-1].reshape(len(members), width, 2 * m)
    steps = np.array([[perturbation_step(v) for v in params]
                      for params in members])
    tangents = (final[:, 1::2] - final[:, 2::2]) / (2.0 * steps)[:, :, None]
    alphas = [np.dot(final[i, 0, m:], tangent[:m])
              for i in range(len(members)) for tangent in tangents[i]]
    return np.reshape(alphas, (len(members), -1)), drift
