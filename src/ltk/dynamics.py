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
:func:`integrate` is the package's one integration loop; port-system
simulation (:func:`ltk.portsys.simulate`) runs on it, recording its guard,
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

from dataclasses import dataclass, field

import numpy as np

from .diffkit import (_DOMAIN_ERRORS, ScalarFn, _sample_rows, _values_and_grads,
                      grad)
from .geometry import (ChartDegenerateError, EulerFieldKind, PhasePoint,
                       _relative_euler_rows, sample_phase_points)
from .submanifold import (GeneratingFunction, _liouville_rows,
                          _membership_rows)

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

# Step scale for finite-difference Jacobian-vector products on vector fields.
FIELD_FD_STEP = 1e-5

# Grid points per call of an :func:`integrate` monitor: enough to spread a
# vector-mode pass's overhead thin, few enough to keep its arrays small.
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
    return _degree_residual(K, _phase_samples(K.dim // 2, n_samples, seed),
                            degree, wrt)


def _phase_samples(m: int, n_samples: int, seed: int) -> np.ndarray:
    """The packed :func:`~ltk.geometry.sample_phase_points`, one per row."""
    return np.array([pt.packed() for pt in sample_phase_points(m, n_samples,
                                                               seed)])


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


def phase_rhs(K: ScalarFn):
    """The canonical field of K as ``f(t, x)`` over packed phase vectors.

    ``x`` may also be a (B, 2m) batch of phase vectors, one per row; the
    batch's gradients come from one vector-mode pass of :func:`grad`.
    """
    if K.dim % 2:
        raise ValueError("phase-space functions need an even dimension")
    return lambda t, x: _canonical(grad(K, x))


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


def rk4_step(f, t: float, x: np.ndarray, dt: float) -> np.ndarray:
    """One classical Runge-Kutta step of size dt."""
    k1 = f(t, x)
    k2 = f(t + dt / 2.0, x + (dt / 2.0) * k1)
    k3 = f(t + dt / 2.0, x + (dt / 2.0) * k2)
    k4 = f(t + dt, x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


class _NonFiniteState(RuntimeError):
    """:func:`integrate` reached a non-finite state; ``row`` is the batch row
    (None for a single state)."""

    def __init__(self, t: float, step: int, row=None):
        where = "" if row is None else f" in row {row}"
        super().__init__(f"integration produced a non-finite state at "
                         f"t={t:g} (step {step}){where}")
        self.t, self.row = t, row


def integrate(f, x0, t_end: float, dt: float, monitors=None) -> Trajectory:
    """Fixed-step RK4 integration of ``f(t, x)`` from 0 to t_end.

    ``t_end`` must be an integer multiple of ``dt`` (the grid is t_i = i*dt).
    ``x0`` is one state vector, or a (B, dim) batch of states stepped
    together; every step is entrywise arithmetic, so a row follows the
    trajectory it would follow alone, bit for bit, when ``f`` treats rows
    alike (as :func:`phase_rhs` does).
    ``monitors`` is an iterable of (name, fn) pairs, recorded in order at
    every grid point including t = 0, a block of up to
    :data:`MONITOR_BLOCK` points at a time: ``fn(t_rows, x_rows)`` returns
    one value, or one row of values, per point.  A monitor that raises
    aborts the run at the end of its block; :func:`ltk.portsys.simulate`
    guards surface membership so.  A failing step (a non-finite state, or
    an error from ``f``) first records the points since the last block, so
    a monitor's error at an earlier point comes first.  An error from
    ``f`` keeps its type and gains the step's start time in its message; a
    non-finite state aborts with the offending time, and for a batch the
    offending row, in the message.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    steps = round(t_end / dt)
    if steps < 0 or abs(steps * dt - t_end) > 1e-9 * max(1.0, abs(t_end)):
        raise ValueError(f"t_end={t_end} is not an integer multiple of dt={dt}")
    x = np.asarray(x0, dtype=float).copy()
    monitors = list(monitors or [])

    ts = np.empty(steps + 1)
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

    ts[0], xs[0] = 0.0, x
    for i in range(1, steps + 1):
        if i - done == MONITOR_BLOCK:
            record_monitors(i)
        try:
            x = rk4_step(f, (i - 1) * dt, x, dt)
            finite = np.isfinite(x)
            if not finite.all():
                row = None if x.ndim == 1 else int(np.argmin(finite.all(axis=1)))
                raise _NonFiniteState(i * dt, i, row)
        except Exception as err:
            if not isinstance(err, _NonFiniteState):
                err.args = (f"{err} in the step from t={(i - 1) * dt:g}",)
            record_monitors(i)
            raise
        ts[i], xs[i] = i * dt, x
    record_monitors(steps + 1)
    return Trajectory(ts, xs, mon)


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
    is the trajectory a separate run would give.  The membership residuals
    of all recorded member states are one more batch; an error there names
    the member and the time.
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
        traj = integrate(phase_rhs(K), x0, t_end, dt)
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
    trajectories run as one batch.
    """
    if lam == 0.0:
        raise ValueError("scaling factor must be nonzero")
    m = K.dim // 2
    x0 = pt.packed()
    scaled = x0.copy()
    scaled[m:] *= lam
    final = integrate(phase_rhs(K), np.array([x0, scaled]), t_end, dt).final
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
    q, p = x[:m], x[m:]
    if abs(q[1]) < 1e-12 * max(1.0, float(np.max(np.abs(q)))):
        raise ValueError("q_1 is below the reduction threshold")
    if abs(p[0]) < 1e-12 * float(np.max(np.abs(p))):
        raise ChartDegenerateError(0, int(np.argmax(np.abs(p))))
    eps = np.concatenate([[q[0] / q[1]], q[2:] / q[1]])
    gamma = p[1:] / -p[0]
    return np.concatenate([eps, gamma])
