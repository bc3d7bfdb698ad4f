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
vector-mode pass.  Integration is fixed-step RK4, chosen for determinism:
given the same inputs the trajectory is bitwise reproducible.
:func:`integrate` is the package's one integration loop, and the one
place that traces a field.  A phase field, :func:`phase_rhs`'s or the
forced one of port-system simulation (:func:`ltk.portsys.simulate`), is
traced once at its first state (:class:`ltk.tracegrad.FieldCode`) and
stepped by one generated block runner: the RK4 loop over a block of
steps, the state a list of floats, with the field's code inlined at each
stage and the RK4 formula written with :func:`rk4_step`'s expressions,
entry by entry, so its states are the numpy step's bit for bit.  A batch
of up to :data:`REPLAY_MAX_ROWS` rows, such as the trajectories of the
two integrated checks (:func:`flow_transport_check`,
:func:`scaling_commutation_check`), runs each row through the block in
turn, bit for bit the vector pass of :func:`phase_rhs`; that pass stays
the one-shot field, reruns a block in which a row raises or goes
non-finite, and steps a larger batch or a K the trace cannot record.
Every other field steps in numpy, one :func:`rk4_step` at a time, a
single state as a batch row would.  ``simulate`` records its guard,
inputs, outputs and monitors through one monitor that takes a block of
grid points at a time; a run that leaves the surface is detected at the
end of its block.

Packing conventions (m = n + 1 coordinates):

* phase:    ``x = [q_0..q_n, p_0..p_n]``                       (dim 2m)
* contact:  ``x = [q_0..q_n, gamma_j ascending, j != chart]``  (dim 2n+1)
  — ``ltk.geometry.project(pt, chart).packed()``
* reduced:  ``x = [eps_0, eps_2..eps_n, gamma_1..gamma_n]``    (dim 2n)
  — :func:`project_reduced`
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .diffkit import (_DOMAIN_ERRORS, ScalarFn, _sample_rows, _values_and_grads,
                      grad)
from .geometry import (EulerFieldKind, PhasePoint, _chart_rows, _phase_rows,
                       _relative_euler_rows)
from .submanifold import (GeneratingFunction, _liouville_rows,
                          _membership_rows, _specific_ratios)

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

# States per call of an :func:`integrate` monitor (a batch's rows count
# one each): enough to spread a vector-mode pass's overhead thin, few
# enough to keep its arrays, and the states a block runner lists for
# them, small.
MONITOR_BLOCK = 1024

# Most rows of an integrated check's batch that step through K's traced
# code row by row; a larger batch runs the vector pass.  Timed on `ltk
# flowcheck --t-end 1 --dt 1e-3` (process CPU, 2-CPU Xeon VM, CPython
# 3.11, 3 processes per size), the block runner is faster up to 81 rows
# (9 members) on the built-in piston and exchanger, the two routes meet
# at 90-99 rows on the piston and past 99 on the exchanger, and at 225
# rows the vector pass takes two thirds of the time.
REPLAY_MAX_ROWS = 81


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
    ``u = reads[t]``, as ``f(t, x)``: :func:`grad` of Ka, then for each
    port in order whose input is not 0.0 the sum ``g + u_k * grad(Kc_k)``.
    :func:`integrate` traces it instead, and says at level INFO, after
    ``label``, which route each generator takes."""

    Ka: ScalarFn
    Kc: tuple = ()
    reads: object = None
    label: str = "integrate"

    def __call__(self, t, x):
        g = grad(self.Ka, x)
        for u, K in zip(self.reads[t] if self.Kc else (), self.Kc):
            if u != 0.0:
                g = g + u * grad(K, x)
        return _canonical(g)

    def names(self) -> list:
        return [K.name or "K" for K in (self.Ka,) + tuple(self.Kc)]


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
    single vector runs as a one-row batch.
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
        pairing = np.array([np.dot(a, b) for a, b in zip(gamma, g_gamma)])
        dq[:, chart] = pairing - val
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
        g = grad(Kbar, x)
        val = float(Kbar(x))
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
    """:func:`integrate` reached a non-finite state; ``row`` is the batch row
    (None for a single state)."""

    def __init__(self, t: float, step: int, row=None):
        where = "" if row is None else f" in row {row}"
        super().__init__(f"integration produced a non-finite state at "
                         f"t={t:g} (step {step}){where}")
        self.t, self.row = t, row


def _block_runner(code, reads):
    """``run(x, i0, i1, dt, out)``: the RK4 steps i0+1 to i1 of the
    canonical field of ``code`` (a :class:`ltk.tracegrad.FieldCode`) from
    the list state ``x`` at t = i0*dt, as one generated loop.  Each stage
    evaluates the field's body inline on local floats, with the inputs
    ``reads[t]`` where ``reads`` is not None (k3 takes k2's read, at the same
    time), and each new state, once its entries are all finite, is
    appended to ``out`` as a list; a non-finite one raises
    :class:`_NonFiniteState` with its step.  ``run`` returns the last
    state."""
    x = [f"x{i}" for i in range(code.dim)]

    def stage(k, time, point):
        lines = code.point(point)
        if reads is not None and k != "c":
            # a system without ports reads its inputs all the same
            lines.append(f"u = _reads[{time}]" if code.ports
                         else f"_reads[{time}]")
        return lines + code.body(f"{k}g"), code.field(f"{k}g")

    lines, new = _rk4_lines(code.dim, stage)
    # x * 0.0 is 0.0 for a finite x, NaN for inf and NaN
    finite = " + ".join(f"{xi} * 0.0" for xi in x)
    step = ((["t = (i - 1) * dt"] if reads is not None else []) + lines
            + [f"{xi} = {e}" for xi, e in zip(x, new)]
            + [f"if {finite} != 0.0:", "    raise _NonFinite(i * dt, i)",
               f"out.append([{', '.join(x)}])"])
    # the loop's body as one line of text, its lines indented once more
    body = [", ".join(x) + ", = x", "h = dt / 2.0", "w = dt / 6.0",
            "for i in range(i0 + 1, i1 + 1):",
            "    " + "\n        ".join(step), "return out[-1]"]
    return code.function("run", "x, i0, i1, dt, out", body, _reads=reads,
                         _NonFinite=_NonFiniteState)


def integrate(f, x0, t_end: float, dt: float, monitors=None) -> Trajectory:
    """Fixed-step RK4 integration of ``f(t, x)`` from 0 to t_end.

    ``t_end`` and ``dt`` must be finite, and ``t_end`` an integer multiple
    of ``dt`` (the grid is t_i = i*dt).
    ``x0`` is one state vector, or a (B, dim) batch of states stepped
    together; every step is entrywise arithmetic, so a row follows the
    trajectory it would follow alone, bit for bit, when ``f`` treats rows
    alike (as :func:`phase_rhs` does).  ``f`` steps in numpy, one
    :func:`rk4_step` at a time, unless it is a phase field
    (:func:`phase_rhs`'s, or simulate's), whose generators are traced
    once, at the state or at row 0 of the batch, into one block runner
    that steps the state, or each row of the batch in turn, a monitor
    block at a time, with the numpy step's bits.  A generator whose guard
    flips, whose check trips or whose code raises at a stage takes
    :func:`~ltk.diffkit.grad` there; one the trace cannot record takes it
    at every stage of a single state.  A state or start rows of another
    width than K's, and a batch of more than :data:`REPLAY_MAX_ROWS` rows
    or whose K the trace cannot record, run the vector pass, and a batch
    block in which a row raises or goes non-finite reruns from its start
    on the vector pass, step by step, so the run raises that pass's error
    (or, where it does not raise, returns the same bits).  At level INFO
    the ``ltk`` logger says, after the field's label, which route each
    generator takes, and why, and at how many stages (for a batch, row
    stages: one row's field at one RK4 stage) each traced generator fell
    back to ``grad``.
    ``monitors`` is an iterable of (name, fn) pairs, recorded in order at
    every grid point including t = 0, a block of up to
    :data:`MONITOR_BLOCK` states at a time (for a batch, its points times
    its rows): ``fn(t_rows, x_rows)`` returns one value, or one row of
    values, per point.  A monitor that raises
    aborts the run at the end of its block; :func:`ltk.portsys.simulate`
    guards surface membership so.  A failing step (a non-finite state, or
    an error from ``f``) first records the points since the last block, so
    a monitor's error at an earlier point comes first.  An error from
    ``f`` keeps its type and gains the step's start time in its message; a
    non-finite state aborts with the offending time, and for a batch the
    first offending row, in the message, after every row has stepped.
    """
    for name, value in (("t_end", t_end), ("dt", dt)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if dt <= 0:
        raise ValueError("dt must be positive")
    steps = round(t_end / dt)
    if steps < 0 or abs(steps * dt - t_end) > 1e-9 * max(1.0, abs(t_end)):
        raise ValueError(f"t_end={t_end} is not an integer multiple of dt={dt}")
    x = np.asarray(x0, dtype=float).copy()
    monitors = list(monitors or [])

    ts = np.arange(steps + 1) * dt      # i * dt, bit for bit
    xs = np.empty((steps + 1,) + x.shape)
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
    batch = x.ndim == 2
    block = max(1, MONITOR_BLOCK // len(x)) if batch else MONITOR_BLOCK
    code = _trace(f, x) if isinstance(f, _PhaseField) else None
    if code is None:
        advance = _steps(f)
    else:
        run = _block_runner(code, f.reads)
        advance = _row_blocks(run, f) if batch else run
        x = x.tolist()
    i = 0                               # the last point reached
    try:
        while i < steps:
            if i + 1 - done == block:
                record_monitors(i + 1)
            end = min(done + block - 1, steps)
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
        if code is not None:
            stages = "row stages" if batch else "stages"
            for name, why, count in zip(f.names(), code.reasons,
                                        code.handed_back):
                if why is None:
                    log.info("%s: %s fell back from its trace to grad at "
                             "%d %s", f.label, name, count, stages)
    return Trajectory(ts, xs, mon)


def _trace(f: _PhaseField, x: np.ndarray):
    """The :class:`~ltk.tracegrad.FieldCode` of ``f`` traced at the state
    ``x``, or at row 0 of the batch ``x``, for :func:`integrate`'s block
    runner, or None where ``x`` runs the vector pass; logs the route of
    each generator."""
    names, reason = f.names(), None
    if x.ndim == 2 and len(x) > REPLAY_MAX_ROWS:
        reason = (f"its {len(x)} rows are more than the "
                  f"{REPLAY_MAX_ROWS} a replay runs faster")
    elif x.shape[-1] != f.Ka.dim:       # the vector pass raises
        reason = (f"its start {'rows have' if x.ndim == 2 else 'state has'} "
                  f"{x.shape[-1]} entries")
    if reason is None:
        from .tracegrad import FieldCode
        start = (x if x.ndim == 1 else x[0]).tolist()
        code = FieldCode(f.Ka, f.Kc, start, len(start) // 2)
        if x.ndim == 2:
            reason = code.reasons[0]
    if reason is not None:
        log.info("%s: %s runs on the vector pass: %s", f.label, names[0],
                 reason)
        return None
    for name, why in zip(names, code.reasons):
        log.info("%s: %s runs %s", f.label, name, "on a traced replay"
                 if why is None else f"on the scalar loop: {why}")
    return code


def _store(xs: np.ndarray, start: int, out: list):
    """Write the states ``out``, lists of floats or ndarrays, to the rows
    of ``xs`` from ``start`` on."""
    if out and isinstance(out[0], list):
        flat = np.fromiter(chain.from_iterable(out), float,
                           len(out) * len(out[0]))
        xs[start:start + len(out)] = flat.reshape(len(out), -1)
    elif out:
        xs[start:start + len(out)] = out


def _steps(f):
    """:func:`integrate`'s advance of an ndarray state, or batch, by ``f``,
    one :func:`rk4_step` at a time."""
    def advance(X, i0, i1, dt, out):
        for i in range(i0 + 1, i1 + 1):
            X = rk4_step(f, (i - 1) * dt, X, dt)
            finite = np.isfinite(X)
            if not finite.all():
                raise _NonFiniteState(i * dt, i, int(np.argmin(
                    finite.all(axis=1))) if X.ndim == 2 else None)
            out.append(X)
        return X
    return advance


def _row_blocks(run, f: _PhaseField):
    """:func:`integrate`'s advance of a batch of list rows, each row
    through the whole block by the block runner ``run`` in turn; a block
    in which a row raises or goes non-finite reruns from its start on the
    vector pass of ``f``, step by step."""
    rerun = _steps(f)

    def advance(X, i0, i1, dt, out):
        runs = [[] for _ in X]
        try:
            for x, states in zip(X, runs):
                run(x, i0, i1, dt, states)
        except Exception:   # noqa: BLE001 - the vector pass raises it
            return rerun(np.array(X), i0, i1, dt, out).tolist()
        flat = np.fromiter(chain.from_iterable(chain.from_iterable(runs)),
                           float, len(X) * (i1 - i0) * len(X[0]))
        out.extend(flat.reshape(len(X), i1 - i0, -1).transpose(1, 0, 2))
        return [states[-1] for states in runs]
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


def _perturbation_step(v: float) -> float:
    return 1e-5 * max(1.0, abs(v))


def flow_transport_check(gf: GeneratingFunction, K: ScalarFn, t_end: float,
                         sample_grid, dt: float = 1e-3) -> TransportReport:
    """Transport lifted surface members along the flow of K; measure defects.

    ``sample_grid`` is an iterable of parameter vectors.  The flow of a
    fiber-degree-1 K maps Liouville surfaces to Liouville surfaces, so the
    canonical one-form must stay zero on transported tangent vectors
    (``alpha_residual``, estimated by flowing finite-difference parameter
    perturbations of each grid member).  When K additionally vanishes on the
    surface, the surface is invariant and the membership residual of the
    original generating relations stays small along every trajectory
    (``membership_drift``).  Both reported numbers are maxima over the grid.

    Every member and its 2 * n_params perturbations (parameter k moved by
    +h, then -h) are the rows of one batch for :func:`integrate`; each row
    is the trajectory a separate run would give.  Up to
    :data:`REPLAY_MAX_ROWS` rows, each row steps through K's code, traced
    once at the first row, as the vector pass of :func:`phase_rhs` would
    step it, with the vector pass's errors.  The
    membership residuals of all recorded member states are one more batch;
    an error there names the member and the time.
    """
    members = [[float(v) for v in params] for params in sample_grid]
    if not members:
        return TransportReport(t_end, 0.0, 0.0)
    starts = []
    for params in members:
        starts.append(params)
        for k, v in enumerate(params):
            h = _perturbation_step(v)
            starts.append(params[:k] + [v + h] + params[k + 1:])
            starts.append(params[:k] + [v - h] + params[k + 1:])
    width = len(starts) // len(members)
    x0 = _liouville_rows(gf, starts)
    try:
        traj = integrate(_PhaseField(K, label="flowcheck"), x0, t_end, dt)
    except _NonFiniteState as err:
        member, j = divmod(err.row, width)
        which = ("unperturbed" if j == 0 else
                 f"parameter {(j - 1) // 2} {'+' if j % 2 else '-'}h")
        raise RuntimeError(f"flow of surface member {members[member]} "
                           f"({which}) produced a non-finite state at "
                           f"t={err.t:g}") from err

    xs = traj.x
    m = gf.n + 1
    # member by member, each along its trajectory
    states = xs[:, ::width].transpose(1, 0, 2).reshape(-1, 2 * m)

    def where(k):
        member, step = divmod(k, len(traj.t))
        return (f"on the flow of surface member {members[member]} "
                f"at t={traj.t[step]:g}")

    _, residuals = _sample_rows(
        lambda rows: _membership_rows(gf, states[rows]), len(states), where)
    drift = float(np.max(residuals, initial=0.0))
    # each member's final state and its central-difference tangents
    final = xs[-1].reshape(len(members), width, 2 * m)
    steps = np.array([[_perturbation_step(v) for v in params]
                      for params in members])
    tangents = (final[:, 1::2] - final[:, 2::2]) / (2.0 * steps)[:, :, None]
    alphas = [np.dot(final[i, 0, m:], tangent[:m])
              for i in range(len(members)) for tangent in tangents[i]]
    return TransportReport(t_end, float(np.max(np.abs(alphas), initial=0.0)),
                           drift)


def scaling_commutation_check(K: ScalarFn, pt: PhasePoint, lam: float,
                              t_end: float, dt: float = 1e-3) -> float:
    """Distance between flow-then-scale and scale-then-flow at t_end.

    Costate scaling acts by (q, p) -> (q, lam*p).  For a fiber-degree-1 K the
    two final states agree; the returned sup-norm distance is a quantitative
    homogeneity check of the *dynamics* rather than of K's values.  The two
    trajectories run as one batch, on K's code traced once, as in
    :func:`flow_transport_check`.
    """
    if lam == 0.0:
        raise ValueError("scaling factor must be nonzero")
    m = K.dim // 2
    x0 = pt.packed()
    scaled = x0.copy()
    scaled[m:] *= lam
    final = integrate(_PhaseField(K, label="scaling check"),
                      np.array([x0, scaled]), t_end, dt).final
    a = final[0].copy()
    a[m:] *= lam                       # flow, then scale
    return float(np.max(np.abs(a - final[1])))   # against scale, then flow


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
