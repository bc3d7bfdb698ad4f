"""Port-thermodynamic systems: state surfaces driven by degree-1 generators.

A system couples a state surface (a lifted generating function, carrying the
physical properties) with generators of motion along it:

* ``Ka`` — the internal (drift) generator, and
* ``Kc`` — one generator per external port, entering as ``Ka + sum_k u_k Kc_k``
  for a control signal ``u(t)``.

All generators are homogeneous of degree 1 in the costate and vanish on the
surface, so the flow stays on the surface and is independent of the costate
ray chosen to represent a state.  Structure, not just trajectories, encodes
the two laws: with designated energy and entropy coordinates,

* first law — the drift never produces energy: ``sum_{i in energy}
  dKa/dp_i = 0`` on the surface; energy changes only through ports,
  balanced by the power conjugate outputs ``y_p_k = sum_{i in energy}
  dKc_k/dp_i``;
* second law — the drift never destroys entropy: ``sum_{i in entropy}
  dKa/dp_i >= 0`` on the surface, with port entropy flow measured by
  ``y_e_k = sum_{i in entropy} dKc_k/dp_i``.

:func:`validate` measures all of these on sampled surface points and
:func:`interconnect` composes two systems through a static feedback law
between their outputs, rejecting compositions that break the second law.
:func:`simulate` runs a system on :func:`ltk.dynamics.integrate`, its field
traced once from the generators and stepped by a generated block runner,
recording the surface-membership guard, inputs, outputs and monitors at
every grid point, a block of points at a time.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from .diffkit import (ScalarFn, _sample_rows, _values_and_dirderivs, dirderiv,
                      exp, grad)
from .dynamics import (_PhaseField, _degree_residual, contact_rhs, integrate,
                       phase_rhs)
from .geometry import (PhasePoint, _chart_rows, _euler_rows, _phase_rows,
                       dehomogenize)
from .submanifold import (GeneratingFunction, _liouville_rows,
                          _membership_rows, lift_generating_function,
                          liouville_point, membership_norm)

__all__ = [
    "PortSystem",
    "PortSignal",
    "SimulationResult",
    "ValidationReport",
    "outputs",
    "simulate",
    "energy_balance",
    "entropy_balance",
    "validate",
    "interconnect",
    "gas_piston_damper",
    "heat_compartment",
    "heat_exchanger",
    "ideal_gas_SVN",
    "BUILTIN_SYSTEMS",
    "builtin",
    "MONITOR_NAMES",
]

# A simulated state whose membership residual exceeds this aborts the run:
# past it the trajectory no longer represents the modeled surface.
MEMBERSHIP_ABORT = 1e-5


@dataclass
class PortSystem:
    """A state surface with internal and port generators.

    ``y_p`` / ``y_e`` are the port outputs as explicit phase functions; when
    omitted they are derived from ``Kc`` by differentiation (at the cost of
    falling back to finite differences inside nested gradients).
    ``default_params`` seeds simulations and ``param_box`` bounds the
    surface-sampling used by validation, both over the parameter layout
    ``[q_I ascending, p_chart, p_J ascending]``.
    """

    name: str
    gf: GeneratingFunction
    Ka: ScalarFn
    Kc: tuple = ()
    energy_indices: tuple = ()
    entropy_indices: tuple = ()
    y_p: tuple = None
    y_e: tuple = None
    default_params: tuple = None
    param_box: tuple = None

    def __post_init__(self):
        m = self.gf.n + 1
        self.Kc = tuple(self.Kc)
        self.energy_indices = tuple(sorted(self.energy_indices))
        self.entropy_indices = tuple(sorted(self.entropy_indices))
        if self.Ka.dim != 2 * m:
            raise ValueError(f"Ka must be a phase function of dimension {2 * m}")
        for K in self.Kc:
            if K.dim != 2 * m:
                raise ValueError(f"every port generator must have dimension {2 * m}")
        for i in self.energy_indices + self.entropy_indices:
            if not 0 <= i < m:
                raise ValueError(f"coordinate index {i} out of range")
        if set(self.energy_indices) & set(self.entropy_indices):
            raise ValueError("a coordinate cannot carry both energy and entropy")
        if self.y_p is None:
            self.y_p = tuple(self._derived_output(k, self.energy_indices, "y_p")
                             for k in range(len(self.Kc)))
        if self.y_e is None:
            self.y_e = tuple(self._derived_output(k, self.entropy_indices, "y_e")
                             for k in range(len(self.Kc)))
        if len(self.y_p) != len(self.Kc) or len(self.y_e) != len(self.Kc):
            raise ValueError("need one y_p and one y_e function per port")
        if self.param_box is not None:
            self.param_box = tuple((float(a), float(b)) for a, b in self.param_box)
            if len(self.param_box) != self.gf.n_params:
                raise ValueError(f"param_box must bound all {self.gf.n_params} "
                                 f"surface parameters")

    def _derived_output(self, k: int, indices, label: str) -> ScalarFn:
        K = self.Kc[k]
        m = self.gf.n + 1
        return ScalarFn(_PortFlow(K, m, indices), dim=2 * m,
                        name=f"{label}{k + 1}({self.name})", dual_safe=False)

    @property
    def n_ports(self) -> int:
        return len(self.Kc)

    @property
    def n_coords(self) -> int:
        return self.gf.n + 1


class PortSignal:
    """A vector-valued control signal ``u(t)`` with a fixed port count.

    Each call returns a fresh array.  A built-in signal reads its values
    straight into a list of floats; ``PortSignal(fn, n_ports)`` reads
    ``fn(t)`` and checks that it is flat and of size ``n_ports``.
    """

    def __init__(self, fn, n_ports: int):
        self.fn = fn
        self.n_ports = n_ports

    def __call__(self, t: float) -> np.ndarray:
        return np.array(self._floats(t))

    def _floats(self, t: float) -> list:
        """``self(t)`` as a list of Python floats, which its reader must not
        change."""
        return self._sized(self.fn(t)).tolist()

    def _sized(self, u) -> np.ndarray:
        u = np.atleast_1d(np.asarray(u, dtype=float))
        if u.ndim > 1:
            raise ValueError(f"signal produced shape {u.shape} for "
                             f"{self.n_ports} ports")
        if u.size != self.n_ports:
            raise ValueError(f"signal produced {u.size} values for "
                             f"{self.n_ports} ports")
        return u

    @classmethod
    def _reading(cls, floats, n_ports: int) -> "PortSignal":
        """A built-in signal whose ``_floats`` is ``floats``."""
        signal = cls(lambda t: np.array(floats(t)), n_ports)
        signal._floats = floats
        return signal

    @classmethod
    def zero(cls, n_ports: int) -> "PortSignal":
        zeros = [0.0] * n_ports
        return cls._reading(lambda t: zeros, n_ports)

    @classmethod
    def constant(cls, values) -> "PortSignal":
        vals = np.atleast_1d(np.asarray(values, dtype=float))
        floats = vals.tolist()
        return cls._reading(lambda t: floats, vals.size)

    @classmethod
    def sinusoid(cls, amplitude: float, frequency: float,
                 phase: float = 0.0) -> "PortSignal":
        a, w, ph = float(amplitude), float(frequency), float(phase)
        return cls._reading(lambda t: [a * float(np.sin(w * t + ph))], 1)

    @classmethod
    def from_exprs(cls, sources) -> "PortSignal":
        """Expressions in ``t``, one per port.  Reads run value code traced
        at t = 0 (:func:`~ltk.tracegrad.value_kernel`), bit for bit
        :func:`~ltk.exprlang.evaluate`, which reads any time at which a
        domain check trips or the code raises."""
        from .exprlang import compile_fn
        from .tracegrad import value_kernel
        fns = [compile_fn(src, ["t"]) for src in sources]
        kernel = value_kernel(fns, [0.0])
        return cls._reading(lambda t: kernel([t]), len(fns))


@dataclass
class SimulationResult:
    """A port-system trajectory with recorded inputs, outputs and monitors."""

    system: str
    t: np.ndarray
    x: np.ndarray                       # packed phase states, shape (N+1, 2m)
    u: np.ndarray                       # shape (N+1, n_ports)
    outputs: dict                       # "y_p1", "y_e1", ... -> arrays
    monitors: dict = field(default_factory=dict)

    @property
    def n_coords(self) -> int:
        return self.x.shape[1] // 2

    @property
    def q(self) -> np.ndarray:
        return self.x[:, :self.n_coords]

    @property
    def p(self) -> np.ndarray:
        return self.x[:, self.n_coords:]


@dataclass
class ValidationReport:
    """Worst-case structural residuals of a port system on sampled states.

    ``degree_residual`` is the relative fiber-degree defect over all
    generators; ``on_surface_residual`` the largest generator value on the
    surface; ``first_law_residual`` the largest drift energy production;
    ``second_law_min`` the smallest drift entropy production (negative means
    a violation); ``chart_form_residual`` the largest disagreement between
    full-phase coordinate rates and their chart-coordinate form on the
    energy and entropy charts.
    """

    system: str
    n_samples: int
    degree_residual: float
    on_surface_residual: float
    first_law_residual: float
    second_law_min: float
    chart_form_residual: float

    def checks(self) -> dict:
        """``{name: (residual, tolerance)}``: a check passes when its residual
        is at most its tolerance, which NaN never is.  The second-law residual
        is the entropy destruction, +0.0 where there is none."""
        return {
            "degree": (self.degree_residual, 1e-8),
            "on_surface": (self.on_surface_residual, 1e-9),
            "first_law": (self.first_law_residual, 1e-8),
            "second_law": (0.0 + max(-self.second_law_min, 0.0), 1e-12),
            "chart_form": (self.chart_form_residual, 1e-6),
        }

    @property
    def passed(self) -> bool:
        return all(residual <= tol for residual, tol in self.checks().values())

    def as_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


class _PortFlow:
    """:func:`_port_flow` of K along ``indices``: a derived port output."""

    def __init__(self, K: ScalarFn, m: int, indices):
        self.K, self.m, self.indices = K, m, indices

    def __call__(self, x):
        return _port_flow(self.K, x, self.m, self.indices)


def _port_flow(K: ScalarFn, x, m: int, indices) -> float:
    """``sum_{i in indices} dK/dp_i`` at ``x``.

    A derived output read by a composed drift's feedback runs at every
    difference step of every RK4 stage, so a ``dual_safe`` K keeps one
    scalar dual pass along the indicator of those costates, the same
    directional pass as a row of :func:`_port_flows`.  Any other K is a
    one-row :func:`_port_flows`.
    """
    if not indices or not K.dual_safe:
        return float(_port_flows(K, np.asarray([x], dtype=float), m, indices)[0])
    d = [0.0] * (2 * m)
    for i in indices:
        d[m + i] = 1.0
    return 0.0 + dirderiv(K, x, d)


def _port_flows(K: ScalarFn, X: np.ndarray, m: int, indices) -> np.ndarray:
    """``sum_{i in indices} dK/dp_i`` at each row of ``X``: one vector-mode
    pass along the indicator of the costates in ``indices``.

    A ``K`` that is not ``dual_safe`` (a composed drift whose feedback reads
    derived outputs) keeps the sum of per-coordinate differences of
    :func:`grad`, whose steps the second-law tolerance was set against.
    """
    if not indices:
        return np.zeros(len(X))
    if not K.dual_safe:
        G = grad(K, X)
        return sum((G[:, m + i] for i in indices), np.zeros(len(X)))
    D = np.zeros_like(X)
    D[:, [m + i for i in indices]] = 1.0
    return 0.0 + _values_and_dirderivs(K, X, D)[1]


def outputs(sys: PortSystem, pt: PhasePoint):
    """Evaluate all port outputs at a phase point; returns ``(y_p, y_e)``.

    Both arrays have one entry per port.  The outputs only carry their
    thermodynamic meaning on the state surface, so a membership residual
    above 1e-6 triggers a warning (the values are still returned — they are
    defined off the surface, just not meaningful).
    """
    x = pt.packed()
    res = membership_norm(sys.gf, x)
    if res > 1e-6:
        warnings.warn(f"outputs of {sys.name!r} requested at a state with "
                      f"membership residual {res:.3g}; the point is not on "
                      f"the modeled surface", stacklevel=2)
    y_p = np.array([float(fn(x)) for fn in sys.y_p])
    y_e = np.array([float(fn(x)) for fn in sys.y_e])
    return y_p, y_e


MONITOR_NAMES = ("K_res", "alpha_res", "E_total", "S_total", "membership")


def _output_rows(fn: ScalarFn, X: np.ndarray, m: int) -> np.ndarray:
    """The port output ``fn`` at each row of ``X``: one vector-mode pass."""
    if isinstance(fn.fn, _PortFlow):
        return _port_flows(fn.fn.K, X, m, fn.fn.indices)
    return _values_and_dirderivs(fn, X, np.zeros_like(X))[0]


def _total_rows(sys: PortSystem, U: np.ndarray, X: np.ndarray):
    """``(|K|, |alpha(X_K) - K|)`` of the total generator K at each row of
    ``X``, inputs ``U``: one degree-1 Euler pass per generator, which carries
    its value too, summed as the field sums, skipping ports with zero input."""
    residual, value = _euler_rows(sys.Ka, X, 1)
    for k, K in enumerate(sys.Kc):
        on = U[:, k] != 0.0
        if on.any():
            r, v = _euler_rows(K, X[on], 1)
            value[on] += U[on, k] * v
            residual[on] += U[on, k] * r
    return np.abs(value), np.abs(residual)


class _InputReads(dict):
    """``u(t)`` as a list of floats by ``t``, read at the first lookup of
    ``t``: a step's stages share a read at one time (k2 and k3 always), and
    the recording takes the read of each step's first stage, at its grid
    time.  ``simulate`` drops the times it has recorded."""

    def __init__(self, u: PortSignal):
        super().__init__()
        self.u = u

    def __missing__(self, t):
        uv = self[t] = self.u._floats(t)
        return uv


def simulate(sys: PortSystem, t_end: float, dt: float, u: PortSignal = None,
             params=None, monitors=(), membership_tol: float = MEMBERSHIP_ABORT
             ) -> SimulationResult:
    """Integrate a port system from a surface point with input ``u(t)``.

    This is :func:`~ltk.dynamics.integrate` on the canonical field of
    ``Ka + sum_k u_k(t) Kc_k`` over the packed phase vector of the lifted
    surface, recording the inputs, the outputs and the requested monitors
    at every grid point.  The recording guards the surface: a membership
    residual beyond ``membership_tol`` aborts, as a trajectory off the
    surface no longer means anything thermodynamically; its values double
    as the ``membership`` monitor.  Aborts, including a non-finite state,
    raise ``RuntimeError`` naming the system and the time; any other error
    keeps its type and gains the system's name and the time of its step or
    recorded point.  ``K_res`` is
    ``|K|`` and ``alpha_res`` the Euler residual ``|alpha(X_K) - K|`` of
    the total generator K.  ``u`` is read once per distinct time, as a list
    of floats: an RK4 step's two half-step stages share one read, and the
    recording reuses the read of each step's first stage, at its grid time,
    reading only the grid points no stage read (such as ``t_end``, where
    the last stage time can differ in the last bit).  So a ``PortSignal``
    should be a pure function of ``t``.

    :func:`~ltk.dynamics.integrate` traces the field once per run, at the
    initial point (:class:`~ltk.tracegrad.FieldCode`), and steps it by one
    generated block runner, the RK4 loop over a block of steps with the
    field's code inlined at each stage on the state's entries as local
    floats and with the inputs read as a list: bit for bit
    :func:`~ltk.dynamics.rk4_step` over the scalar loop of
    :func:`~ltk.diffkit.grad` over the generators.  A non-finite state
    raises with the step at which it appears.  A generator whose guard
    flips, whose domain check trips or whose code raises at a stage takes
    ``grad`` at that stage
    while the others keep their traced code, so results, errors and their
    times are the scalar loop's.  A generator the trace cannot record is
    differentiated by ``grad`` at every stage.  At level INFO
    (``LTK_LOG=info`` on the command line) the ``ltk`` logger says which
    generators run traced, why the others do not, and at how many stages
    each traced generator fell back to ``grad``.  The recording takes a
    block of grid points at a time
    (``ltk.dynamics.MONITOR_BLOCK``), one vector-mode pass per channel,
    each row bit for bit the point alone.  A block whose passes raise
    reruns its points one at a time in the order guard, each port's ``u``,
    ``y_p``, ``y_e``, then the monitors, so a run
    raises the error, and the time, of the first failing point; a run that
    leaves the surface stops at the end of its block.
    """
    if params is None:
        params = sys.default_params
    if params is None:
        raise ValueError(f"system {sys.name!r} has no default initial "
                         f"parameters; pass params explicitly")
    if u is None:
        u = PortSignal.zero(sys.n_ports)
    if u.n_ports != sys.n_ports:
        raise ValueError(f"signal has {u.n_ports} ports, system {sys.n_ports}")
    for name in monitors:
        if name not in MONITOR_NAMES:
            raise ValueError(f"unknown monitor {name!r}; available: "
                             f"{', '.join(MONITOR_NAMES)}")
    m, n_ports = sys.n_coords, sys.n_ports
    extra = [nm for nm in monitors if nm != "membership"]
    names = (["membership"] + [f"u{k + 1}" for k in range(n_ports)]
             + [f"{y}{k + 1}" for k in range(n_ports) for y in ("y_p", "y_e")]
             + extra)

    x0 = liouville_point(sys.gf, params).packed()
    reads = _InputReads(u)

    def channels(t, X):
        """The columns of ``names`` after the membership, at surface rows."""
        times = t.tolist()
        U = np.array([reads[ti] for ti in times]).reshape(len(t), n_ports)
        for ti in [ti for ti in reads if ti < times[-1]]:
            del reads[ti]
        cols = list(U.T) + [_output_rows(y[k], X, m) for k in range(n_ports)
                            for y in (sys.y_p, sys.y_e)]
        totals = {nm: sum((X[:, i] for i in indices), np.zeros(len(X)))
                  for nm, indices in (("E_total", sys.energy_indices),
                                      ("S_total", sys.entropy_indices))}
        if {"K_res", "alpha_res"} & set(extra):
            totals.update(zip(("K_res", "alpha_res"), _total_rows(sys, U, X)))
        return cols + [totals[nm] for nm in extra]

    def record(t, X):
        """The rows of ``names`` at a block of points."""
        try:
            res = _membership_rows(sys.gf, X)
            off = np.flatnonzero(res > membership_tol)
            n = int(off[0]) if off.size else len(t)
            cols = channels(t[:n], X[:n]) if n else []
        except Exception as err:   # noqa: BLE001 - each point reruns and raises
            if len(t) == 1:
                err.args = (f"{err} at t={float(t[0]):g}",)
                raise
            for i in range(len(t)):      # the first failing point raises
                record(t[i:i + 1], X[i:i + 1])
            raise
        if n < len(t):
            raise RuntimeError(
                f"left the state surface at t={float(t[n]):g}: membership "
                f"residual {float(res[n]):.3g} exceeds {membership_tol:g}")
        return np.column_stack([res] + cols)

    try:
        traj = integrate(_PhaseField(sys.Ka, sys.Kc, reads,
                                     f"simulate {sys.name!r}"),
                         x0, t_end, dt, [("channels", record)])
    except Exception as err:
        where = f"simulation of {sys.name!r}: {err}"
        if isinstance(err, RuntimeError):
            raise RuntimeError(where) from err
        err.args = (where,)
        raise
    rec = dict(zip(names, traj.monitors["channels"].T))
    return SimulationResult(
        sys.name, traj.t, traj.x, traj.monitors["channels"][:, 1:1 + n_ports],
        {nm: rec[nm] for nm in names[1 + n_ports:1 + 3 * n_ports]},
        {nm: rec[nm] for nm in monitors})


def _trapezoid(y: np.ndarray, t: np.ndarray) -> float:
    return float(np.sum((y[1:] + y[:-1]) * np.diff(t)) / 2.0)


def _port_balance(result: SimulationResult, indices, output: str):
    """``(delta, through_ports)``: the change of ``sum_{i in indices} q_i``
    over the run and the trapezoid integral of ``sum_k output_k * u_k``."""
    total = result.q[:, list(indices)].sum(axis=1)
    through_ports = sum(
        _trapezoid(result.outputs[f"{output}{k + 1}"] * u, result.t)
        for k, u in enumerate(result.u.T))
    return float(total[-1] - total[0]), float(through_ports)


def energy_balance(sys: PortSystem, result: SimulationResult) -> dict:
    """Compare the energy change against the integrated port power.

    Power supplied through port k is ``y_p_k * u_k``; the integral uses the
    trapezoid rule on the recorded grid.  The defect is the first-law
    discrepancy of the recorded trajectory.
    """
    delta, supplied = _port_balance(result, sys.energy_indices, "y_p")
    return {"delta": delta, "supplied": supplied, "defect": delta - supplied}


def entropy_balance(sys: PortSystem, result: SimulationResult) -> dict:
    """Split the entropy change into port flow and internal production."""
    delta, flow = _port_balance(result, sys.entropy_indices, "y_e")
    return {"delta": delta, "flow": flow, "production": delta - flow}


def _sample_surface_params(sys: PortSystem, n_samples: int, seed: int):
    if sys.param_box is None:
        raise ValueError(f"system {sys.name!r} has no param_box to sample from")
    lo, hi = np.array(sys.param_box, dtype=float).reshape(-1, 2).T
    return list(np.random.default_rng(seed).uniform(lo, hi,
                                                     (n_samples, len(lo))))


def _chart_form_residuals(sys: PortSystem, X: np.ndarray, chart: int,
                          Khat: ScalarFn) -> np.ndarray:
    """Defect between full-phase coordinate rates and their chart form at
    each row of ``X``; 0.0 where the chart is unusable."""
    m = sys.n_coords
    P = X[:, m:]
    pc = P[:, chart]
    usable = ~(np.abs(pc) < 1e-9 * np.max(np.abs(P), axis=1))
    out = np.zeros(len(X))
    if not usable.any():
        return out
    rep = X[usable].copy()               # representatives with p_chart = -1
    rep[:, m:] *= (-1.0 / pc[usable])[:, None]
    full = phase_rhs(sys.Ka)(0.0, rep)[:, :m]
    gamma = _chart_rows(rep[:, m:], chart)
    if not np.isfinite(gamma).all():
        raise ValueError("gamma must be finite")
    chart_rates = contact_rhs(Khat, chart)(0.0, np.hstack([rep[:, :m], gamma]))
    out[usable] = np.max(np.abs(full - chart_rates[:, :m]), axis=1)
    return out


def validate(sys: PortSystem, n_samples: int = 25, seed: int = 9
             ) -> ValidationReport:
    """Measure the structural invariants of a port system on sampled states.

    Generators are degree-checked on 30 generic phase points, drawn once
    and shared by every generator (:func:`~ltk.dynamics.validate_degree`'s
    points for ``seed``); the surface statements (generators vanish, first
    and second law) are evaluated at ``n_samples`` points drawn from
    ``param_box``; the chart-form agreement is checked on the energy chart
    (0) and, when present, the entropy chart (1).  Each check runs its
    samples as one batch; an error names the failing sample's surface
    parameters.
    """
    m = sys.n_coords
    generators = (sys.Ka,) + sys.Kc
    degree_points = _phase_rows(m, 30, seed)
    degree_res = float(np.max([_degree_residual(K, degree_points)
                               for K in generators]))

    charts = [0] + ([1] if m > 1 else [])
    khats = {c: dehomogenize(sys.Ka, c) for c in charts}
    params = np.array(_sample_surface_params(sys, n_samples, seed))

    def residuals(rows):
        X = _liouville_rows(sys.gf, params[rows])
        zero = np.zeros_like(X)
        on_surface = [np.abs(_values_and_dirderivs(K, X, zero)[0])
                      for K in generators]
        return np.column_stack(
            on_surface
            + [np.abs(_port_flows(sys.Ka, X, m, sys.energy_indices)),
               _port_flows(sys.Ka, X, m, sys.entropy_indices)]
            + [_chart_form_residuals(sys, X, c, khats[c]) for c in charts])

    R = _sample_rows(residuals, len(params),
                     lambda i: f"at surface parameters {params[i].tolist()}")[1]
    n = len(generators)
    R = R.reshape(len(params), n + 2 + len(charts))   # also with no sample
    return ValidationReport(
        sys.name, len(params), degree_res,
        float(np.max(R[:, :n], initial=0.0)),
        float(np.max(R[:, n], initial=0.0)),
        float(np.min(R[:, n + 1], initial=np.inf)),
        float(np.max(R[:, n + 2:], initial=0.0)))


# ---------------------------------------------------------------------------
# Interconnection


def interconnect(sys1: PortSystem, sys2: PortSystem, feedback,
                 name: str = None, n_check: int = 20, seed: int = 13
                 ) -> PortSystem:
    """Close two systems through a static output feedback law.

    ``feedback(y_p1, y_e1, y_p2, y_e2) -> (u1, u2)`` receives the output
    values of both systems (sequences, one entry per port) and returns the
    inputs to apply to each; it must be a pure function built from arithmetic
    so that it composes with both plain floats and derivative-carrying
    numbers.  The result is a closed system (no remaining ports) on the
    product surface, with the feedback substituted into the drift generator.

    The composition is rejected if the substituted drift produces negative
    total entropy at any sampled surface state: a feedback law is only a
    valid interconnection if it respects the second law.
    """
    if sys1.n_ports == 0 and sys2.n_ports == 0:
        raise ValueError("interconnection needs at least one port to close")
    m1, m2 = sys1.n_coords, sys2.n_coords
    M = m1 + m2
    n = M - 1
    gf1, gf2 = sys1.gf, sys2.gf
    name = name or f"{sys1.name}+{sys2.name}"

    def split(x):
        xs = list(x)
        x1 = xs[0:m1] + xs[M:M + m1]
        x2 = xs[m1:M] + xs[M + m1:2 * M]
        return x1, x2

    def inputs(x1, x2):
        yp1 = [fn(x1) for fn in sys1.y_p]
        ye1 = [fn(x1) for fn in sys1.y_e]
        yp2 = [fn(x2) for fn in sys2.y_p]
        ye2 = [fn(x2) for fn in sys2.y_e]
        u1, u2 = feedback(yp1, ye1, yp2, ye2)
        if len(u1) != sys1.n_ports or len(u2) != sys2.n_ports:
            raise ValueError("feedback returned the wrong number of inputs")
        return u1, u2

    def Ka_fn(x):
        x1, x2 = split(x)
        u1, u2 = inputs(x1, x2)
        total = sys1.Ka(x1) + sys2.Ka(x2)
        for k in range(sys1.n_ports):
            total = total + u1[k] * sys1.Kc[k](x1)
        for k in range(sys2.n_ports):
            total = total + u2[k] * sys2.Kc[k](x2)
        return total

    dual_safe = all(K.dual_safe for K in
                    (sys1.Ka, sys2.Ka) + sys1.Kc + sys2.Kc
                    + sys1.y_p + sys1.y_e + sys2.y_p + sys2.y_e)
    Ka = ScalarFn(Ka_fn, dim=2 * M, name=f"drift({name})",
                  dual_safe=dual_safe)

    # Product surface: chart of system 1 stays the chart; system 2's chart
    # costate becomes one more intensive parameter.
    I = tuple(sorted(gf1.I + tuple(m1 + i for i in gf2.I)))
    J = tuple(sorted(gf1.J + (m1 + gf2.chart,) + tuple(m1 + j for j in gf2.J)))
    chart = gf1.chart
    F2 = lift_generating_function(gf2)

    def Fhat_fn(args):
        nI1, nI2 = len(gf1.I), len(gf2.I)
        qI1 = list(args[:nI1])
        qI2 = list(args[nI1:nI1 + nI2])
        gam = list(args[nI1 + nI2:])
        gvals = dict(zip(J, gam))
        # With the composite chart costate frozen at -1, every other costate
        # equals its chart ratio, and system 1's lift there is its Fhat.
        a1 = qI1 + [gvals[j] for j in gf1.J]
        a2 = qI2 + [gvals[m1 + gf2.chart]] + [gvals[m1 + j] for j in gf2.J]
        return gf1.Fhat(a1) + F2(a2)
    Fhat = ScalarFn(Fhat_fn, dim=n,
                    name=f"product({gf1.name or 'L1'}, {gf2.name or 'L2'})",
                    dual_safe=gf1.Fhat.dual_safe and F2.dual_safe)
    gf = GeneratingFunction(
        n=n, Fhat=Fhat, I=I, J=J, chart=chart,
        q_homogeneous=gf1.q_homogeneous and gf2.q_homogeneous, name=name)

    energy = tuple(sorted(sys1.energy_indices
                          + tuple(m1 + i for i in sys2.energy_indices)))
    entropy = tuple(sorted(sys1.entropy_indices
                           + tuple(m1 + i for i in sys2.entropy_indices)))

    def compose_params(v1, v2):
        if v1 is None or v2 is None:
            return None
        q = {}
        pv = {}
        for vec, gfi, shift in ((v1, gf1, 0), (v2, gf2, m1)):
            nI = len(gfi.I)
            for k, i in enumerate(gfi.I):
                q[shift + i] = vec[k]
            pv[shift + gfi.chart] = vec[nI]
            for k, j in enumerate(gfi.J):
                pv[shift + j] = vec[nI + 1 + k]
        return tuple([q[i] for i in I] + [pv[chart]] + [pv[j] for j in J])

    default_params = compose_params(sys1.default_params, sys2.default_params)
    param_box = compose_params(sys1.param_box, sys2.param_box)

    composed = PortSystem(
        name=name, gf=gf, Ka=Ka, Kc=(), energy_indices=energy,
        entropy_indices=entropy, y_p=(), y_e=(),
        default_params=default_params, param_box=param_box)

    # Reject feedback laws that let the composed drift destroy entropy; the
    # samples are one batch.
    samples = np.array(_sample_surface_params(composed, n_check, seed))
    rates = _sample_rows(
        lambda rows: _port_flows(Ka, _liouville_rows(gf, samples[rows]), M,
                                 entropy), len(samples),
        lambda i: f"at surface parameters {samples[i].tolist()}")[1]
    if len(rates) and rates.min() < -1e-12:
        worst = np.argmin(rates)
        raise ValueError(
            f"interconnection {name!r} violates the second law: the composed "
            f"drift produces entropy at rate {rates[worst]:.3g} at surface "
            f"parameters {samples[worst].tolist()}")
    return composed


# ---------------------------------------------------------------------------
# Built-in systems


def _zero_fn(dim: int) -> ScalarFn:
    return ScalarFn(lambda x: 0.0, dim=dim, name="0")


def gas_piston_damper(mass: float = 1.0, damping: float = 0.5,
                      U0: float = 1.0, V0: float = 1.0, S0: float = 0.0,
                      R: float = 1.0, c_v: float = 1.5) -> PortSystem:
    """A gas cylinder under a damped piston with one mechanical force port.

    Coordinates ``(E, S, V, pi)``: total energy, entropy, volume and piston
    momentum.  The gas has internal energy
    ``U(S, V) = U0 (V0/V)^(R/c_v) exp((S - S0)/c_v)`` (temperature
    ``T = U/c_v``, pressure ``P = (R/c_v) U/V``), the piston carries kinetic
    energy ``pi^2/(2 mass)``, and the damper dissipates mechanical power
    ``damping * (pi/mass)^2`` back into the gas as heat.  The port applies an
    external force to the piston; its conjugate power output is the piston
    velocity.
    """
    # NaN fails every comparison: each check states the values it accepts
    if not all(0 < v < np.inf for v in (mass, U0, V0, c_v, R)):
        raise ValueError("mass, U0, V0, R and c_v must be positive and finite")
    if not (0 <= damping < np.inf and np.isfinite(S0)):
        raise ValueError("damping must be nonnegative and finite, S0 finite")

    def U(S, V):
        return U0 * (V0 / V) ** (R / c_v) * exp((S - S0) / c_v)

    def Fhat_fn(args):
        S, V, pi = args
        return U(S, V) + pi * pi / (2.0 * mass)

    gf = GeneratingFunction(
        n=3, Fhat=ScalarFn(Fhat_fn, 3, name="gas+piston energy"),
        I=(1, 2, 3), J=(), chart=0, name="gas_piston_damper")

    def Ka_fn(x):
        S, V, pi = x[1], x[2], x[3]
        pS, pV, ppi = x[5], x[6], x[7]
        u_val = U(S, V)
        T = u_val / c_v
        P = (R / c_v) * u_val / V
        v = pi / mass
        return pV * v + ppi * (P - damping * v) + pS * damping * v * v / T

    def Kc_fn(x):
        return x[7] + x[4] * (x[3] / mass)

    return PortSystem(
        name="gas_piston_damper",
        gf=gf,
        Ka=ScalarFn(Ka_fn, 8, name="piston drift"),
        Kc=(ScalarFn(Kc_fn, 8, name="piston force port"),),
        energy_indices=(0,),
        entropy_indices=(1,),
        y_p=(ScalarFn(lambda x: x[3] / mass, 8, name="piston velocity"),),
        y_e=(_zero_fn(8),),
        default_params=(0.0, 1.0, 0.0, -1.0),
        param_box=((-0.3, 0.8), (0.5, 1.8), (-1.2, 1.2), (-1.6, -0.4)),
    )


def heat_compartment(C: float = 1.0, T_ref: float = 1.0,
                     name: str = "heat_compartment") -> PortSystem:
    """A lumped thermal mass with one heat port.

    Coordinates ``(E, S)`` with the constitutive relation
    ``E(S) = C T_ref exp(S/C)``, so the temperature is
    ``T = dE/dS = T_ref exp(S/C)`` and the heat capacity is C.  The port
    input is the heat flow rate; the conjugate outputs are the constant 1
    (all supplied power is heat) and the inverse temperature carrying the
    port entropy flow.
    """
    if not (0 < C < np.inf and 0 < T_ref < np.inf):
        raise ValueError("heat capacity and reference temperature must be "
                         "positive and finite")

    def T_of(S):
        return T_ref * exp(S / C)

    gf = GeneratingFunction(
        n=1, Fhat=ScalarFn(lambda a: C * T_ref * exp(a[0] / C), 1,
                           name="stored heat"),
        I=(1,), J=(), chart=0, name=name)

    def Kc_fn(x):
        return x[3] / T_of(x[1]) + x[2]

    return PortSystem(
        name=name,
        gf=gf,
        Ka=_zero_fn(4),
        Kc=(ScalarFn(Kc_fn, 4, name="heat port"),),
        energy_indices=(0,),
        entropy_indices=(1,),
        y_p=(ScalarFn(lambda x: 1.0, 4, name="unit power"),),
        y_e=(ScalarFn(lambda x: 1.0 / T_of(x[1]), 4, name="inverse temperature"),),
        default_params=(0.0, -1.0),
        param_box=((-0.5, 1.0), (-1.5, -0.5)),
    )


def heat_exchanger(C=(1.0, 1.0), T_ref=(1.0, 1.0), lam: float = 1.0
                   ) -> PortSystem:
    """Two heat compartments closed through Fourier heat conduction.

    The feedback drives a heat flow ``lam * (T1 - T2)`` from the hotter to
    the colder compartment; the composition conserves total energy exactly
    and produces entropy at rate ``lam (T1 - T2)^2 / (T1 T2) >= 0``.
    """
    if not 0 <= lam < np.inf:
        raise ValueError("a negative conductance would pump heat from cold "
                         "to hot; lam must be nonnegative and finite")
    c1 = heat_compartment(C[0], T_ref[0], name="compartment_1")
    c2 = heat_compartment(C[1], T_ref[1], name="compartment_2")

    def fourier(yp1, ye1, yp2, ye2):
        w = lam * (1.0 / ye1[0] - 1.0 / ye2[0])
        return (-w,), (w,)

    return interconnect(c1, c2, fourier, name="heat_exchanger")


def ideal_gas_SVN(c_v: float = 1.5, R: float = 1.0, T_ref: float = 1.0,
                  v0: float = 1.0, s0: float = 0.0) -> PortSystem:
    """An ideal gas with extensive entropy, volume and particle number.

    Coordinates ``(E, S, V, N)`` with internal energy
    ``E = N c_v T_ref (N v0 / V)^(R/c_v) exp((S/N - s0)/c_v)``, jointly
    homogeneous of degree 1 in (S, V, N) — the textbook extensive state
    surface, so all the homogeneity-based reductions apply.  The system is
    closed (no ports, zero drift); it exists to carry the surface.
    """
    if not (all(0 < v < np.inf for v in (c_v, R, T_ref, v0))
            and np.isfinite(s0)):
        raise ValueError("c_v, R, T_ref and v0 must be positive and finite, "
                         "s0 finite")

    def Fhat_fn(args):
        S, V, N = args
        return N * c_v * T_ref * (N * v0 / V) ** (R / c_v) \
            * exp((S / N - s0) / c_v)

    gf = GeneratingFunction(
        n=3, Fhat=ScalarFn(Fhat_fn, 3, name="extensive internal energy"),
        I=(1, 2, 3), J=(), chart=0, q_homogeneous=True, name="ideal_gas_SVN")

    return PortSystem(
        name="ideal_gas_SVN",
        gf=gf,
        Ka=_zero_fn(8),
        Kc=(),
        energy_indices=(0,),
        entropy_indices=(1,),
        y_p=(),
        y_e=(),
        default_params=(0.0, 1.0, 1.0, -1.0),
        param_box=((-0.4, 0.8), (0.6, 1.5), (0.7, 1.3), (-1.5, -0.5)),
    )


BUILTIN_SYSTEMS = {
    "gas_piston_damper": gas_piston_damper,
    "heat_compartment": heat_compartment,
    "heat_exchanger": heat_exchanger,
    "ideal_gas_SVN": ideal_gas_SVN,
}


# Short physical-symbol spellings accepted for factory keywords.
_PARAM_ALIASES = {"m": "mass", "d": "damping", "lambda": "lam"}


def builtin(name: str, **params) -> PortSystem:
    """Construct a built-in system by name with optional parameter overrides.

    Names are matched case-insensitively with hyphens treated as
    underscores, so ``"heat-exchanger"`` and ``"heat_exchanger"`` construct
    the same system.
    """
    key = name.replace("-", "_")
    if key not in BUILTIN_SYSTEMS:
        folded = {k.lower(): k for k in BUILTIN_SYSTEMS}
        if key.lower() not in folded:
            raise ValueError(f"unknown system {name!r}; available: "
                             f"{', '.join(sorted(BUILTIN_SYSTEMS))}")
        key = folded[key.lower()]
    kwargs = {_PARAM_ALIASES.get(k, k): v for k, v in params.items()}
    return BUILTIN_SYSTEMS[key](**kwargs)
