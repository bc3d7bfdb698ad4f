"""Hamiltonian dynamics of degree-1 generators, with chart and reduced forms.

A generator ``K(q, p)`` that is homogeneous of degree 1 in the costate induces
the canonical field

    dq_i/dt =  dK/dp_i        dp_i/dt = -dK/dq_i

whose flow preserves both the symplectic form and the cone structure: it
commutes with costate scaling, so it descends to chart coordinates
(contact form) and — when K is additionally homogeneous of degree 1 in q —
to the doubly-reduced specific/intensive coordinates.

Each of the three fields is a right-hand-side builder (:func:`phase_rhs`,
:func:`contact_rhs`, :func:`reduced_rhs`) returning a callable
``f(t, x) -> ndarray`` over packed state vectors, for use with
:func:`integrate` or at a single point; the phase and contact forms also
take a (B, dim) batch of states, one per row, differentiated in one
vector-mode pass, as a one-shot evaluation.  Integration is fixed-step
RK4, chosen for determinism: given the same inputs the trajectory is
bitwise reproducible.  :func:`integrate` is the package's one
integration loop, and it steps one state, carried as a list of floats
on every route.  A phase
field, :func:`phase_rhs`'s or the forced one of port-system simulation
(:func:`ltk.portsys.simulate`), builds its own block runner for one
state, traced once at its start (:class:`ltk.tracegrad.FieldCode`): the
RK4 loop over a block of steps, the state a list of floats, with its
generators' gradient sum (:func:`_gradient_lines`) inlined at each stage
and the RK4 formula written with :func:`rk4_step`'s expressions, entry
by entry, so its states are the numpy step's bit for bit, and one test
that the block's last state is finite.  The two integrated checks
(:func:`flow_transport_check`, :func:`scaling_commutation_check`) flow
each trajectory alone on it.  The vector pass of :func:`phase_rhs` stays
the one-shot field, reruns a block in which the runner raises, and steps
a field the trace cannot record throughout.  The
flow-transport check sweeps each member's steps back through a loop
generated the same way (:func:`_adjoint_source`), from K's gradient and
Hessian code traced with the runner's, so its alpha is always that
sweep's exact derivative, and it raises for a K the trace cannot record
or a member whose sweep leaves K's trace.  Every other field steps in
numpy, one :func:`rk4_step` at a time.
``simulate`` records its guard, inputs, outputs and monitors through one
monitor that takes a block of grid points at a time; a run that leaves
the surface is detected at the end of its block.

Packing conventions (m = n + 1 coordinates):

* phase:    ``x = [q_0..q_n, p_0..p_n]``                       (dim 2m)
* contact:  ``x = [q_0..q_n, gamma_j ascending, j != chart]``  (dim 2n+1)
  — ``ltk.geometry.project(pt, chart).packed()``
* reduced:  ``x = [eps_0, eps_2..eps_n, gamma_1..gamma_n]``    (dim 2n)
  — :func:`project_reduced`
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .diffkit import (_DOMAIN_ERRORS, ScalarFn, _sample_rows, _values_and_grads,
                      grad)
from .geometry import (EulerFieldKind, PhasePoint, _chart_rows, _pairing,
                       _phase_rows, _relative_euler_rows, scale_costate)
from .submanifold import (GeneratingFunction, _liouville_rows,
                          _membership_rows, _specific_ratios, _tangent_rows)

__all__ = [
    "Trajectory",
    "TransportReport",
    "phase_rhs",
    "contact_rhs",
    "reduced_rhs",
    "rk4_step",
    "integrate",
    "validate_degree",
    "commutator_residual",
    "lie_bracket_fd",
    "flow_transport_check",
    "scaling_commutation_check",
    "project_reduced",
]

log = logging.getLogger("ltk")

# Step scale for finite-difference Jacobian-vector products on vector fields.
FIELD_FD_STEP = 1e-5

# States per call of an :func:`integrate` monitor: enough to spread a
# vector-mode pass's overhead thin, few enough to keep its arrays, and
# the states the block runner lists for them, small.
MONITOR_BLOCK = 1024


@dataclass
class Trajectory:
    """A fixed-step trajectory with optional per-step monitor channels."""

    t: np.ndarray
    x: np.ndarray                      # shape (len(t), dim)
    monitors: dict = field(default_factory=dict)

    @property
    def final(self) -> np.ndarray:
        return self.x[-1]


@dataclass
class TransportReport:
    """Residuals of flow transport of a lifted surface."""

    t_end: float
    alpha_residual: float       # max |canonical one-form| on transported tangents
    membership_drift: float     # max membership residual along the trajectory


def validate_degree(K: ScalarFn, degree: int = 1, n_samples: int = 50,
                    seed: int = 3, wrt: EulerFieldKind = EulerFieldKind.Z) -> float:
    """Max relative Euler residual of K over random sample points.

    Points come from :func:`~ltk.geometry.sample_phase_points`; points where
    K is undefined or not finite are skipped.  Raises if fewer than half the
    samples are evaluable.  The samples are one batch of one vector-mode
    pass.
    """
    if K.dim % 2:
        raise ValueError("phase-space functions need an even dimension")
    return _degree_residual(K, _phase_rows(K.dim // 2, n_samples, seed),
                            degree, wrt)


def _degree_residual(K: ScalarFn, X: np.ndarray, degree: int = 1,
                     wrt: EulerFieldKind = EulerFieldKind.Z) -> float:
    """:func:`validate_degree` of K on the sample points at the rows of X."""
    n_samples = len(X)

    def residuals(rows):
        return _relative_euler_rows(K, X[rows], degree, wrt)[0]

    kept, R = _sample_rows(residuals, n_samples)
    if len(kept) < n_samples // 2:
        i = int(np.setdiff1d(np.arange(n_samples), kept)[0])
        try:
            residuals(slice(i, i + 1))
            why = "not finite"
        except _DOMAIN_ERRORS as err:
            why = str(err)
        raise ValueError(f"could only evaluate K at {len(kept)}/{n_samples} "
                         f"sample points; adjust the sampling domain (first "
                         f"skipped: phase point {X[i].tolist()}, {why})")
    return float(np.max(R, initial=0.0))


def _canonical(g: np.ndarray) -> np.ndarray:
    """The canonical field ``(dK/dp, -dK/dq)`` from the gradient of K, or
    row by row from a (B, 2m) array of gradients."""
    m = g.shape[-1] // 2
    return np.concatenate([g[..., m:], -g[..., :m]], axis=-1)


@dataclass
class _PhaseField:
    """The canonical field of ``Ka + sum_k u_k Kc_k``, inputs
    ``u = read(t)`` (read first, at each call, as its block runner reads
    them), as ``f(t, x)``: :func:`grad` of Ka, then for each port in
    order whose input is not 0.0 the sum ``g + u_k * grad(Kc_k)``.
    :func:`integrate` steps it on its :meth:`runner` instead, which logs
    the run's route after ``label``, and which is built from ``code``
    where the caller traced the generators."""

    Ka: ScalarFn
    Kc: tuple = ()
    read: object = None
    label: str = "integrate"
    code: object = None     # the generators' FieldCode, if traced

    def __call__(self, t, x):
        inputs = self.read(t) if self.Kc else ()
        g = grad(self.Ka, x)
        for u, K in zip(inputs, self.Kc):
            if u != 0.0:
                g = g + u * grad(K, x)
        return _canonical(g)

    def runner(self, x: list):
        """``run(x, i0, i1, dt, out)``: the RK4 steps i0+1 to i1 from the
        list state ``x`` at t = i0*dt, as one loop generated from ``code``
        or the generators traced at ``x``; None where ``x`` is not of K's
        width, which runs the vector pass.  Logs the route.
        Each stage evaluates the gradient inline, with the inputs
        ``read(t)`` for a field with ports, read at t, t + h and t + dt of
        each step (k3 takes k2's read), and each new state is appended to
        ``out`` as a list.  ``run`` returns the last state, or raises where
        a stage raises or that state is not finite."""
        if len(x) != self.Ka.dim:       # the vector pass raises
            reason = f"its start state has {len(x)} entries"
        else:
            from .tracegrad import FieldCode
            code = self.code or FieldCode((self.Ka, *self.Kc), x)
            reason = code.reason
        name = self.Ka.name or "K"
        if reason is not None:
            log.info("%s: %s runs on the vector pass: %s", self.label, name,
                     reason)
            return None
        log.info("%s: %s runs on a traced replay", self.label, name)
        body = "\n".join(_gradient_lines(code.codes))
        return code.function(_runner_source(body, code.dim, bool(self.Kc)),
                             _read=self.read)


def _gradient_lines(codes) -> list:
    """The lines, for :func:`~ltk.tracegrad._stage`, that set ``$0, $1,
    ...`` to the gradient sum as :meth:`_PhaseField.__call__` forms it,
    from the traced codes of Ka and of each Kc_k
    (:attr:`~ltk.tracegrad.FieldCode.codes`), with the inputs in the list
    ``u``: Ka's partials, then for each port in order whose input is not
    0.0, ``$i + u_k * dKc_k/dx_i``, entry by entry."""
    from .tracegrad import _indented, _times
    lines, partials = codes[0]
    body = lines + [f"${i} = {d}" for i, d in enumerate(partials)]
    for k, (lines, partials) in enumerate(codes[1:], 1):
        body += [f"if u[{k - 1}] != 0.0:", f"    u{k} = u[{k - 1}]"]
        body += _indented(lines + [
            f"${i} = ${i} + " + _times(f"u{k}", f"({d})" if " " in d else d)
            for i, d in enumerate(partials)])
    return body


@functools.lru_cache(maxsize=8)
def _runner_source(body: str, dim: int, ported: bool) -> str:
    """The source of the block runner ``run`` of :meth:`_PhaseField.runner`
    for the field code ``body`` (:func:`_gradient_lines`) of ``dim``
    coordinates, which reads its inputs where ``ported``.  The
    source names a run's constants and never holds them, so it is built
    once per field shape."""
    from .tracegrad import _source, _stage
    xs, m = [f"x{i}" for i in range(dim)], dim // 2

    def stage(k, time, point):
        """Stage k's lines and, as :func:`_canonical`, its entries."""
        g = f"{k}g"
        read = [f"u = _read({time})"] if ported and k != "c" else []
        return read + _stage(body, g, point), (
            [f"{g}{i}" for i in range(m, dim)]
            + [f"-{g}{i}" for i in range(m)])

    lines, new = _rk4_lines(dim, stage)
    step = ((["t = (i - 1) * dt"] if ported else []) + lines
            + [f"{xi} = {e}" for xi, e in zip(xs, new)]
            + [f"out.append([{', '.join(xs)}])"])
    # x * 0.0 is 0.0 for a finite x, NaN for inf and NaN; an entry
    # that is not finite stays so under x + w * (...)
    finite = " + ".join(f"{xi} * 0.0" for xi in xs)
    # h where a stage reads it, in its time or its point; the loop's
    # body as one line of text, its lines indented once more
    half = ["h = dt / 2.0"] if ported or " h * " in "\n".join(lines) else []
    return _source("run", "x, i0, i1, dt, out", (
        [", ".join(xs) + ", = x"] + half
        + ["w = dt / 6.0", "for i in range(i0 + 1, i1 + 1):",
           "    " + "\n        ".join(step),
           f"if {finite} != 0.0:", "    raise _Back", "return out[-1]"]))


@functools.lru_cache(maxsize=8)
def _adjoint_source(body: str, hessian: str, dim: int) -> str:
    """The source of ``sweep(xs, lam, dt)``, which carries ``lam``, the
    derivative of a linear function of the last state of the RK4 states
    ``xs`` (lists), back to the first: the transpose of each step's
    derivative, exact for the discrete map (Hager, Numer. Math. 87, 2000).
    Per step, from the last, it recomputes the stage points x, s2, s3, s4
    with the gradient code ``body`` (:func:`_gradient_lines`), each
    stage's names prefixed by its letter, and, with ``J(s)^T mu = H(s)
    (-mu_p, mu_q)`` from the Hessian code ``hessian``, which reads them,
    takes a4 = J(s4)^T (w lam), a3 = J(s3)^T (2w lam + dt a4), a2 =
    J(s2)^T (2w lam + h a3), a1 = J(x)^T (w lam + h a2) and lam + a1 + a2
    + a3 + a4.  It raises where the code raises, and ``_OffTrace`` where
    a guard comes out otherwise: a point off K's trace."""
    from .tracegrad import _NAME, _source, _stage
    xs, m = [f"x{i}" for i in range(dim)], dim // 2
    points = {}

    def prefixed(k, lines):
        return [_NAME.sub(lambda name: k + name.group(), line)
                for line in lines]

    def stage(k, time, point):
        points[k] = point
        g = f"{k}g"
        return prefixed(k, _stage(body, g, point)), (
            [f"{g}{i}" for i in range(m, dim)]
            + [f"-{g}{i}" for i in range(m)])

    lines, _ = _rk4_lines(dim, stage)
    ls = [f"l{i}" for i in range(dim)]
    later = None
    for k, weight, scale in (("d", "w", None), ("c", "w2", "dt"),
                             ("b", "w2", "h"), ("a", "w", "h")):
        mu = [f"{weight} * {li}" if later is None else
              f"{weight} * {li} + {scale} * {later}{i}"
              for i, li in enumerate(ls)]
        lines += prefixed(k, _stage(hessian, f"{k}h", points[k],
                                    [f"-({e})" for e in mu[m:]] + mu[:m]))
        later = f"{k}h"
    lines += [f"{li} = {li} + ah{i} + bh{i} + ch{i} + dh{i}"
              for i, li in enumerate(ls)]
    return _source("sweep", "xs, lam, dt", (
        [", ".join(ls) + ", = lam", "h = dt / 2.0", "w = dt / 6.0",
         "w2 = 2.0 * w", "for i in range(len(xs) - 2, -1, -1):",
         "    " + "\n        ".join([", ".join(xs) + ", = xs[i]"] + lines),
         f"return [{', '.join(ls)}]"]))


def phase_rhs(K: ScalarFn):
    """The canonical field of K as ``f(t, x)`` over packed phase vectors.

    ``x`` may also be a (B, 2m) batch of phase vectors, one per row; the
    batch's gradients come from one vector-mode pass of :func:`grad`.
    :func:`integrate` steps the field on K's code, traced once.
    """
    if K.dim % 2:
        raise ValueError("phase-space functions need an even dimension")
    return _PhaseField(K)


def contact_rhs(Khat: ScalarFn, chart: int):
    """The chart-coordinate form of the canonical field, as ``f(t, x)``.

    ``Khat`` takes a packed contact vector (all q, then gamma ascending with
    the chart index omitted).  With s the chart coordinate and the sums over
    the non-chart indices j:

        dq_s/dt     = sum_j gamma_j dKhat/dgamma_j - Khat
        dq_j/dt     = dKhat/dgamma_j
        dgamma_j/dt = -dKhat/dq_j - gamma_j dKhat/dq_s

    ``x`` may also be a (B, 2n+1) batch of contact vectors, one per row;
    their values and gradients come from one vector-mode pass, and a
    single vector runs as a one-row batch.  The pairing is summed left to
    right (:func:`~ltk.geometry._pairing`), so each row is its state's.
    """
    if Khat.dim % 2 == 0 or Khat.dim < 3:
        raise ValueError("contact functions need an odd dimension >= 3")
    m = (Khat.dim + 1) // 2
    if not 0 <= chart < m:
        raise ValueError(f"chart index {chart} out of range")
    others = [j for j in range(m) if j != chart]

    def f(t, x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return f(t, x[None])[0]
        val, g = _values_and_grads(Khat, x)
        gamma, g_q, g_gamma = x[:, m:], g[:, :m], g[:, m:]
        dq = np.empty(g_q.shape)
        dq[:, others] = g_gamma
        dq[:, chart] = _pairing(list(gamma.T), list(g_gamma.T)) - val
        dgamma = -g_q[:, others] - gamma * g_q[:, chart, None]
        return np.concatenate([dq, dgamma], axis=1)

    return f


def reduced_rhs(Kbar: ScalarFn):
    """The specific-coordinate form of the canonical field, as ``f(t, x)``.

    ``Kbar(eps, gamma)`` is the doubly-reduced generator over the packed
    vector ``[eps_0, eps_2..eps_n, gamma_1..gamma_n]``; eps are the
    extensive ratios q_j/q_1 (j != 1) and gamma the intensive ratios
    p_j/(-p_0) (j != 0).  Writing

        A = sum_l gamma_l dKbar/dgamma_l - Kbar
        B = dKbar/dgamma_1
        C = dKbar/deps_0
        D = Kbar - sum_l eps_l dKbar/deps_l

    the reduced motion — the exact projection of the full canonical field
    when the generator is homogeneous in both q and p — is

        deps_0/dt   = A - eps_0 B
        deps_j/dt   = dKbar/dgamma_j - eps_j B      (j >= 2)
        dgamma_1/dt = -D - gamma_1 C
        dgamma_j/dt = -dKbar/deps_j - gamma_j C     (j >= 2).
    """
    if Kbar.dim % 2 or Kbar.dim < 2:
        raise ValueError("reduced generators need an even dimension >= 2")
    n = Kbar.dim // 2

    def f(t, x):
        x = np.asarray(x, dtype=float)
        vals, G = _values_and_grads(Kbar, [x])
        val, g = float(vals[0]), G[0]
        eps, gamma = x[:n], x[n:]
        g_eps, g_gamma = g[:n], g[n:]
        A = float(np.dot(gamma, g_gamma)) - val
        B = g_gamma[0]
        C = g_eps[0]
        D = val - float(np.dot(eps, g_eps))
        deps = np.empty(n)
        deps[0] = A - eps[0] * B
        deps[1:] = g_gamma[1:] - eps[1:] * B
        dgamma = np.empty(n)
        dgamma[0] = -D - gamma[0] * C
        dgamma[1:] = -g_eps[1:] - gamma[1:] * C
        return np.concatenate([deps, dgamma])

    return f


def rk4_step(f, t: float, x, dt: float):
    """One classical Runge-Kutta step of size dt, in numpy.

    ``x`` is one state vector or a (B, dim) batch of states; a list is
    stepped as an ndarray, and the step returns an ndarray.  ``f`` receives
    each stage as an ndarray of the state's shape, and may return a list
    or an ndarray; a stage of another shape raises ``ValueError``.
    """
    x = np.asarray(x, dtype=float)
    k1 = _stage_array(f, t, x)
    k2 = _stage_array(f, t + dt / 2.0, x + (dt / 2.0) * k1)
    k3 = _stage_array(f, t + dt / 2.0, x + (dt / 2.0) * k2)
    k4 = _stage_array(f, t + dt, x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _stage_array(f, t, x):
    k = np.asarray(f(t, x))
    if k.shape != x.shape:
        raise ValueError(f"the field returned a stage of shape "
                         f"{k.shape} for a state of shape {x.shape}")
    return k


def _rk4_lines(n: int, stage):
    """``(lines, new)``: the source lines of one RK4 step of the list state
    ``x0, x1, ...`` of length n from time ``t``, with ``h = dt / 2.0``,
    and the sources of its n new entries, which read ``w = dt / 6.0``:
    :func:`rk4_step`'s expressions on the entries, in the same order, so
    the block runner's states are the numpy step's bit for bit.
    ``stage(k, time, point)`` gives the lines that evaluate stage k
    ("a" to "d") at the sources ``time`` and ``point`` (one per entry)
    and the sources of its n entries."""
    x = [f"x{i}" for i in range(n)]
    lines, entries = [], {}
    for k, time, scale, previous in (("a", "t", None, None),
                                     ("b", "t + h", "h", "a"),
                                     ("c", "t + h", "h", "b"),
                                     ("d", "t + dt", "dt", "c")):
        point = x if previous is None else [
            f"{xi} + {scale} * {e}" for xi, e in zip(x, entries[previous])]
        evaluated, entries[k] = stage(k, time, point)
        lines += evaluated
    new = [f"{xi} + w * ({a} + 2.0 * {b} + 2.0 * {c} + {d})"
           for xi, a, b, c, d in zip(x, *(entries[k] for k in "abcd"))]
    return lines, new


class _NonFiniteState(RuntimeError):
    """:func:`integrate` reached a non-finite state."""

    def __init__(self, t: float, step: int):
        super().__init__(f"integration produced a non-finite state at "
                         f"t={t:g} (step {step})")
        self.t = t


def integrate(f, x0, t_end: float, dt: float, monitors=None) -> Trajectory:
    """Fixed-step RK4 integration of ``f(t, x)`` from 0 to t_end.

    ``t_end`` and ``dt`` must be finite, and ``t_end`` a nonnegative
    integer multiple of ``dt`` (the grid is t_i = i*dt).  ``x0`` is one
    state vector; any other shape (a batch, an empty batch, a scalar)
    raises ``ValueError`` naming it, before any step or monitor.  Every
    route carries the state as a list of floats.  ``f`` steps in numpy,
    one :func:`rk4_step` at a time, unless it is a phase field
    (:func:`phase_rhs`'s, or simulate's) and ``x0`` of K's width, which
    its block runner steps a monitor block at a time with the numpy
    step's bits.  A block in which the runner raises, for any reason (a
    guard that flips, a check that trips, an error, a last state that is
    not finite), reruns from its start on the vector pass, which returns
    the same bits or raises the same error at the same step; a field with
    a generator the trace cannot record runs the vector pass throughout.
    At level INFO the ``ltk`` logger says, after the field's label, which
    route the run takes, and why, and how many blocks reran on the vector
    pass, with the start time of the first.
    ``monitors`` is an iterable of (name, fn) pairs, recorded in order at
    every grid point including t = 0, a block of up to
    :data:`MONITOR_BLOCK` states at a time: ``fn(t_rows, x_rows)``
    returns one value, or one row of values, per point.  A monitor that
    raises aborts the run at the end of its block;
    :func:`ltk.portsys.simulate` guards surface membership so.  A
    failing step (a non-finite state, or an error from ``f``) first
    records the points since the last block, so a monitor's error at an
    earlier point comes first.  An error from ``f`` keeps its type and
    gains the step's start time in its message; a non-finite state aborts
    with the offending time in the message, and a start that is not
    finite as step 0, before any monitor.
    """
    steps = _grid_steps(t_end, dt)
    x = np.asarray(x0, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"integrate steps one state, not an x0 of shape "
                         f"{x.shape}")
    _check_finite(x, 0.0, 0)
    x = x.tolist()
    monitors = list(monitors or [])

    ts = np.arange(steps + 1) * dt      # i * dt, bit for bit
    xs = np.empty((steps + 1, len(x)))
    mon = {}
    done = 0                            # points whose monitors are recorded

    def record_monitors(end):
        nonlocal done
        if end == done:
            return
        for name, fn in monitors:
            values = np.asarray(fn(ts[done:end], xs[done:end]), dtype=float)
            if name not in mon:
                mon[name] = np.empty((steps + 1,) + values.shape[1:])
            mon[name][done:end] = values
        done = end

    xs[0] = x
    run = f.runner(x) if isinstance(f, _PhaseField) else None
    reran = []                          # the start of each block rerun
    advance = _steps(f) if run is None else _runner_blocks(run, f, reran)
    i = 0                               # the last point reached
    try:
        while i < steps:
            if i + 1 - done == MONITOR_BLOCK:
                record_monitors(i + 1)
            end = min(done + MONITOR_BLOCK - 1, steps)
            out = []                    # the states of steps i+1, i+2, ...
            try:
                x = advance(x, i, end, dt, out)
            except Exception as err:
                _store(xs, i + 1, out)
                i += len(out) + 1       # the failing step
                if not isinstance(err, _NonFiniteState):
                    err.args = (f"{err} in the step from t={(i - 1) * dt:g}",)
                record_monitors(i)
                raise
            _store(xs, i + 1, out)
            i = end
        record_monitors(steps + 1)
    finally:
        if run is not None:
            first = f", the first from t={reran[0] * dt:g}" if reran else ""
            log.info("%s: blocks rerun on the vector pass: %d%s", f.label,
                     len(reran), first)
    return Trajectory(ts, xs, mon)


def _grid_steps(t_end: float, dt: float) -> int:
    """The steps of :func:`integrate`'s grid from 0 to t_end by dt."""
    for name, value in (("t_end", t_end), ("dt", dt)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t_end < 0:
        raise ValueError(f"t_end must be nonnegative, got {t_end!r}")
    steps = round(t_end / dt)
    if abs(steps * dt - t_end) > 1e-9 * max(1.0, t_end):
        raise ValueError(f"t_end={t_end} is not an integer multiple of dt={dt}")
    return steps


def _store(xs: np.ndarray, start: int, out: list):
    """Write the states ``out``, lists of floats, to the rows of ``xs``
    from ``start`` on."""
    n = len(out) * xs.shape[1]
    xs[start:start + len(out)] = np.fromiter(
        chain.from_iterable(out), float, n).reshape(len(out), xs.shape[1])


def _steps(f):
    """:func:`integrate`'s advance of a list state by ``f``, one
    :func:`rk4_step` at a time.  A state that overflows is a non-finite
    state at its step, as in the block runner's float arithmetic, not a
    numpy warning."""
    def advance(x, i0, i1, dt, out):
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(i0 + 1, i1 + 1):
                X = rk4_step(f, (i - 1) * dt, x, dt)
                _check_finite(X, i * dt, i)
                x = X.tolist()
                out.append(x)
        return x
    return advance


def _check_finite(x: np.ndarray, t: float, step: int):
    """Raise :class:`_NonFiniteState` at ``step`` where the state ``x``
    has an entry that is not finite."""
    if not np.isfinite(x).all():
        raise _NonFiniteState(t, step)


def _runner_blocks(run, f: _PhaseField, reran: list):
    """:func:`integrate`'s advance of a list state by the block runner
    ``run``.  A block in which it raises, for any reason, reruns from its
    start on the vector pass of ``f`` (:func:`_steps`), with the same bits
    or error; ``reran`` gets the first point of each such block."""
    def advance(x, i0, i1, dt, out):
        try:
            return run(x, i0, i1, dt, out)
        except Exception:   # noqa: BLE001 - the vector pass raises it
            out.clear()
            reran.append(i0)
            return _steps(f)(x, i0, i1, dt, out)
    return advance


def lie_bracket_fd(X, Y, x) -> np.ndarray:
    """Finite-difference Lie bracket [X, Y](x) = DY·X - DX·Y.

    ``X`` and ``Y`` map state vectors to state vectors.  Each Jacobian-vector
    product uses a central difference along the evaluated direction with step
    ``1e-5 * (1 + |x|)`` scaled by the direction's magnitude.
    """
    x = np.asarray(x, dtype=float)
    h0 = FIELD_FD_STEP * (1.0 + float(np.max(np.abs(x))))

    def jvp(F, d):
        scale = float(np.max(np.abs(d)))
        if scale == 0.0:
            return np.zeros_like(x)
        h = h0 / scale
        return (np.asarray(F(x + h * d)) - np.asarray(F(x - h * d))) / (2.0 * h)

    Xx = np.asarray(X(x))
    Yx = np.asarray(Y(x))
    return jvp(Y, Xx) - jvp(X, Yx)


def commutator_residual(K: ScalarFn, pt: PhasePoint,
                        kind: EulerFieldKind = EulerFieldKind.Z) -> np.ndarray:
    """The bracket [X_K, E] at pt, with E the fiber (Z) or base (W) Euler field.

    Vanishes identically when K has the matching homogeneity (fiber degree 1
    for Z; base degree 1 for W).  Returned as a packed phase vector of
    residual components.
    """
    m = K.dim // 2
    XK = phase_rhs(K)

    def X(x):
        return XK(0.0, x)

    if kind is EulerFieldKind.Z:
        def E(x):
            return np.concatenate([np.zeros(m), x[m:]])
    else:
        def E(x):
            return np.concatenate([x[:m], np.zeros(m)])

    return lie_bracket_fd(X, E, pt.packed())


def flow_transport_check(gf: GeneratingFunction, K: ScalarFn, t_end: float,
                         sample_grid, dt: float = 1e-3) -> TransportReport:
    """Transport lifted surface members along the flow of K; measure defects.

    ``sample_grid`` is an iterable of parameter vectors.  The flow of a
    fiber-degree-1 K maps Liouville surfaces to Liouville surfaces, so the
    canonical one-form must stay zero on transported tangent vectors
    (``alpha_residual``).  When K additionally vanishes on the surface, the
    surface is invariant and the membership residual of the original
    generating relations stays small along every trajectory
    (``membership_drift``).  Both reported numbers are maxima over the grid.

    The grid of ``t_end`` and ``dt`` is checked as :func:`integrate` checks
    it, and the members lifted, before any flow; an error in a lift names
    the member.  Each member flows alone on K's code traced once, at the
    first member, and the membership residuals of all recorded member
    states are one batch; an error there names the member and the time.
    alpha on the tangents is the exact derivative of the discrete flow:
    with alpha = p(T)·dq(T) linear in each transported tangent, one
    adjoint sweep of the RK4 steps per member (:func:`_adjoint_source`, on
    Hessian code traced with K's gradient) carries its derivative back to
    t = 0, where it meets the member's tangent basis
    (:func:`~ltk.submanifold.tangent_basis`, good to about 1e-12).

    K must be one the trace records: one that reads its arguments any
    other way (``==`` of values equal at the first member, ``bool``,
    ``float``, ``hash``, numpy, a point-dependent exponent) raises
    ``ValueError`` with the trace's reason before any flow, and a K that
    raises at the first member's start raises its own error there, naming
    the member.  A member's flow that fails names the member: a state that
    is not finite raises ``RuntimeError``, and any other error keeps its
    type.  A member whose sweep leaves K's trace (a guard traced at the
    first member comes out otherwise) raises ``ValueError``, and one whose
    sweep ends on a derivative that is not finite ``RuntimeError``, each
    naming the member.
    """
    _grid_steps(t_end, dt)
    members = [[float(v) for v in params] for params in sample_grid]
    if not members:
        return TransportReport(t_end, 0.0, 0.0)
    _, x0 = _sample_rows(lambda rows: _liouville_rows(gf, members[rows]),
                         len(members),
                         lambda i: f"at surface member {members[i]}")
    alphas, drift = _adjoint_transport(gf, K, members, x0, t_end, dt)
    return TransportReport(t_end, float(np.max(np.abs(alphas), initial=0.0)),
                           drift)


def _adjoint_transport(gf: GeneratingFunction, K: ScalarFn, members: list,
                       x0: np.ndarray, t_end: float, dt: float):
    """``(alphas, drift)`` of :func:`flow_transport_check` from the
    members' lifts ``x0``: alpha on each member's tangents, a (members,
    n_params) array, and the membership drift, or its errors."""
    from .tracegrad import FieldCode, _OffTrace
    code = FieldCode((K,), x0[0].tolist(), hessians=True)
    name = K.name or "K"
    if code.reason is not None:
        try:                            # K's own error, where it raises
            grad(K, x0[0])
        except TypeError:               # the reason says why
            pass
        except Exception as err:
            err.args = (f"{err} at the start of surface member "
                        f"{members[0]}",)
            raise
        raise ValueError(f"flowcheck cannot trace {name}: {code.reason}")
    field = _PhaseField(K, label="flowcheck", code=code)
    flows = []
    for member, x in zip(members, x0):
        try:
            flows.append(integrate(field, x, t_end, dt))
        except _NonFiniteState as err:
            raise RuntimeError(f"flow of surface member {member} produced a "
                               f"non-finite state at t={err.t:g}") from err
        except Exception as err:
            err.args = (f"{err} on the flow of surface member {member}",)
            raise
    drift = _membership_drift(gf, flows[0].t,
                              np.array([tr.x for tr in flows]), members)
    m = gf.n + 1
    sweep = code.function(_adjoint_source(
        "\n".join(_gradient_lines(code.codes)),
        "\n".join(_gradient_lines(code.hessians)), 2 * m))
    lams = []
    for member, tr in zip(members, flows):
        # lam(T) = (p(T), 0), the derivative of alpha = p(T).dq(T) in dx(T)
        try:
            lam = sweep(tr.x.tolist(), tr.x[-1, m:].tolist() + [0.0] * m, dt)
        except _OffTrace:
            raise ValueError(
                f"flowcheck cannot trace {name} on the adjoint sweep of "
                f"surface member {member}: it leaves the trace made at "
                f"surface member {members[0]}") from None
        if not all(map(math.isfinite, lam)):
            raise RuntimeError(f"adjoint sweep of surface member {member} "
                               f"produced a non-finite derivative")
        lams.append(lam)
    vq, vp = _tangent_rows(gf, members)
    tangents = np.concatenate([vq, vp], axis=2)     # dx(0), per member
    return (tangents @ np.array(lams)[:, :, None])[..., 0], drift


def _membership_drift(gf: GeneratingFunction, t: np.ndarray,
                      states: np.ndarray, members: list) -> float:
    """The largest membership residual of ``states``, a (members, len(t),
    2m) array of each member's states at the times ``t``; an error names
    the member and the time."""
    flat = states.reshape(-1, states.shape[-1])

    def where(k):
        member, step = divmod(k, len(t))
        return (f"on the flow of surface member {members[member]} "
                f"at t={t[step]:g}")

    _, residuals = _sample_rows(
        lambda rows: _membership_rows(gf, flat[rows]), len(flat), where)
    return float(np.max(residuals, initial=0.0))


def scaling_commutation_check(K: ScalarFn, pt: PhasePoint, lam: float,
                              t_end: float, dt: float = 1e-3) -> float:
    """Distance between flow-then-scale and scale-then-flow at t_end.

    Costate scaling acts by (q, p) -> (q, lam*p)
    (:func:`~ltk.geometry.scale_costate`, for a finite nonzero ``lam``).
    For a fiber-degree-1 K the two final states agree; the returned
    sup-norm distance is a quantitative homogeneity check of the
    *dynamics* rather than of K's values.  The two trajectories flow alone
    through :func:`integrate`, each on K's code traced at its start.
    """
    field = _PhaseField(K, label="scaling check")
    a, b = (integrate(field, x.packed(), t_end, dt).final
            for x in (pt, scale_costate(pt, lam)))
    a[K.dim // 2:] *= lam              # flow, then scale
    return float(np.max(np.abs(a - b)))   # against scale, then flow


def project_reduced(x: np.ndarray) -> np.ndarray:
    """Pack a phase vector into specific coordinates.

    Divides q by q_1 and p by -p_0, returning
    ``[eps_0, eps_2..eps_n, gamma_1..gamma_n]``; q_1 and p_0 must be safely
    away from zero.
    """
    x = np.asarray(x, dtype=float)
    m = x.size // 2
    eps = _specific_ratios(x[:m], 1)
    return np.concatenate([eps, _chart_rows(x[None, m:], 0)[0]])
