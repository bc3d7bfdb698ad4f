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
:func:`interconnect` composes two or more systems through a static feedback
law between their outputs, rejecting compositions that break the second law.
:func:`simulate` runs a system on :func:`ltk.dynamics.integrate`, its field
traced once from the generators and stepped by a generated block runner,
recording the surface-membership guard, inputs, outputs and monitors at
every grid point, a block of points at a time.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from .diffkit import ScalarFn, _sample_rows, _values_and_dirderivs, exp
from .dynamics import (_PhaseField, _degree_residual, contact_rhs, integrate,
                       phase_rhs)
from .geometry import (PhasePoint, _box_rows, _chart_rows, _euler_rows,
                       _phase_rows, dehomogenize)
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

    The outputs of port k are the port flows of ``Kc[k]``: ``y_p_k`` is
    the sum of its partials along the energy costates, ``y_e_k`` along the
    entropy costates.

    ``default_params`` seeds simulations and ``param_box`` bounds the
    surface-sampling used by validation, both over the parameter layout
    ``[q_I ascending, p_chart, p_J ascending]``: ``default_params`` must be
    ``n_params`` finite numbers with p_chart nonzero (:meth:`check_params`)
    and ``param_box`` ``n_params`` finite pairs with low <= high.
    """

    name: str
    gf: GeneratingFunction
    Ka: ScalarFn
    Kc: tuple = ()
    energy_indices: tuple = ()
    entropy_indices: tuple = ()
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
        if self.default_params is not None:
            self.default_params = self.check_params(self.default_params,
                                                    "default_params")
        if self.param_box is not None:
            self.param_box = tuple((float(a), float(b)) for a, b in self.param_box)
            if len(self.param_box) != self.gf.n_params:
                raise ValueError(f"param_box must bound all {self.gf.n_params} "
                                 f"surface parameters")
            if not (np.isfinite(self.param_box).all()
                    and all(a <= b for a, b in self.param_box)):
                raise ValueError(f"param_box must hold finite [low, high] "
                                 f"pairs with low <= high, got "
                                 f"{[list(pair) for pair in self.param_box]}")

    def check_params(self, params, what: str) -> tuple:
        """``params`` as a tuple of floats if they are surface parameters of
        this system, ``n_params`` finite numbers whose p_chart is not 0;
        otherwise a ValueError that names them ``what``."""
        params, n = tuple(float(v) for v in params), self.gf.n_params
        if len(params) != n:
            raise ValueError(f"{what} needs {n} surface parameters "
                             f"(q_I, p_chart, p_J) for system {self.name!r}, "
                             f"got {len(params)}")
        if not np.isfinite(params).all():
            raise ValueError(f"{what} must be finite numbers, got "
                             f"{list(params)}")
        if params[len(self.gf.I)] == 0.0:
            raise ValueError(f"{what} has p_chart 0 (entry "
                             f"{len(self.gf.I)}); p_chart must be nonzero")
        return params

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
    :func:`simulate` reads a signal at every stage time and grid point,
    so it must be a pure function of ``t``.  :meth:`constant` and
    :meth:`sinusoid` take finite parameters only.
    """

    def __init__(self, fn, n_ports: int):
        self.fn = fn
        self.n_ports = n_ports

    def __call__(self, t: float) -> np.ndarray:
        return np.array(self._floats(t))

    def _floats(self, t: float) -> list:
        """``self(t)`` as a list of Python floats, which its reader must not
        change."""
        u = np.atleast_1d(np.asarray(self.fn(t), dtype=float))
        if u.ndim > 1:
            raise ValueError(f"signal produced shape {u.shape} for "
                             f"{self.n_ports} ports")
        if u.size != self.n_ports:
            raise ValueError(f"signal produced {u.size} values for "
                             f"{self.n_ports} ports")
        return u.tolist()

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
        if not np.isfinite(vals).all():
            raise ValueError(f"values must be finite numbers, got {floats}")
        return cls._reading(lambda t: floats, vals.size)

    @classmethod
    def sinusoid(cls, amplitude: float, frequency: float,
                 phase: float = 0.0) -> "PortSignal":
        a, w, ph = float(amplitude), float(frequency), float(phase)
        for name, v in (("amplitude", a), ("frequency", w), ("phase", ph)):
            if not np.isfinite(v):
                raise ValueError(f"{name} must be a finite number, got {v!r}")
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


def _port_flows(K: ScalarFn, X: np.ndarray, m: int, indices) -> np.ndarray:
    """``sum_{i in indices} dK/dp_i`` at each row of ``X``: one vector-mode
    pass along the indicator of the costates in ``indices``; the port
    outputs of a port generator K and the drift's energy and entropy
    production of a drift K.
    """
    if not indices:
        return np.zeros(len(X))
    D = np.zeros_like(X)
    D[:, [m + i for i in indices]] = 1.0
    return 0.0 + _values_and_dirderivs(K, X, D)[1]


def outputs(sys: PortSystem, pt: PhasePoint):
    """Evaluate all port outputs at a phase point; returns ``(y_p, y_e)``,
    the port flows of each ``Kc`` along the energy and the entropy costates.

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
    X, m = np.asarray([x], dtype=float), sys.n_coords
    return tuple(np.array([_port_flows(K, X, m, indices)[0] for K in sys.Kc])
                 for indices in (sys.energy_indices, sys.entropy_indices))


MONITOR_NAMES = ("K_res", "alpha_res", "E_total", "S_total", "membership")


def _total_rows(sys: PortSystem, U: np.ndarray, X: np.ndarray):
    """``(|K|, |alpha(X_K) - K|)`` of the total generator K at each row of
    ``X``, inputs ``U``: one degree-1 Euler pass per generator, which carries
    its value too, summed as the field sums, skipping ports with zero input;
    an input that is not finite gives a total that is not, warning-free."""
    residual, value = _euler_rows(sys.Ka, X, 1)
    for k, K in enumerate(sys.Kc):
        on = U[:, k] != 0.0
        if on.any():
            r, v = _euler_rows(K, X[on], 1)
            with np.errstate(over="ignore", invalid="ignore"):
                value[on] += U[on, k] * v
                residual[on] += U[on, k] * r
    return np.abs(value), np.abs(residual)


def simulate(sys: PortSystem, t_end: float, dt: float, u: PortSignal = None,
             params=None, monitors=(), membership_tol: float = MEMBERSHIP_ABORT
             ) -> SimulationResult:
    """Integrate a port system from a surface point with input ``u(t)``.

    This is :func:`~ltk.dynamics.integrate` on the canonical field of
    ``Ka + sum_k u_k(t) Kc_k`` over the packed phase vector of the lifted
    surface, recording the inputs, the outputs and the requested monitors
    at every grid point.  The recording guards the surface: a membership
    residual that is not at most ``membership_tol`` (NaN included) aborts,
    as a trajectory off the surface no longer means anything
    thermodynamically; its values double as the ``membership`` monitor.
    Aborts, including a non-finite state, raise ``RuntimeError`` naming
    the system and the time; any other error keeps its type and gains the
    system's name and the time of its step or recorded point.  ``K_res``
    is ``|K|`` and ``alpha_res`` the Euler residual ``|alpha(X_K) - K|``
    of the total generator K.  ``u`` is read as a list of floats at each
    stage time and each grid point: the recording reads it once per grid
    point, and a system with ports at the stages of each step too, where
    the block runner's k3 takes k2's read at the half-step time.  So a
    ``PortSignal`` must be a pure function of ``t``.

    :func:`~ltk.dynamics.integrate` traces the field once per run, at the
    initial point (:class:`~ltk.tracegrad.FieldCode`), and steps it by one
    generated block runner, the RK4 loop over a block of steps with the
    traced gradient inlined at each stage on the state's entries as local
    floats and, for a system with ports, the inputs read as a list: bit
    for bit :func:`~ltk.dynamics.rk4_step` over the scalar loop of
    :func:`~ltk.diffkit.grad` over the generators.  A non-finite state
    raises with the step at which it appears.  A block in which a guard
    flips, a domain check trips or the code raises reruns from its start
    on that numpy step, so results, errors and their times are the scalar
    loop's; an input read that raised is made again there.  A field with
    a generator the trace cannot record runs on that numpy step from its
    start.  At level INFO (``LTK_LOG=info`` on the command line) the
    ``ltk`` logger says which route the run takes, and why, and how many
    blocks reran.  The recording takes a block of grid points at a time
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
    params = sys.check_params(params, "params")
    if u is None:
        u = PortSignal.zero(sys.n_ports)
    if u.n_ports != sys.n_ports:
        raise ValueError(f"signal has {u.n_ports} ports, system {sys.n_ports}")
    for k, name in enumerate(monitors):
        if name not in MONITOR_NAMES:
            raise ValueError(f"unknown monitor {name!r}; available: "
                             f"{', '.join(MONITOR_NAMES)}")
        if name in monitors[:k]:
            raise ValueError(f"monitor {name!r} is listed twice")
    m, n_ports = sys.n_coords, sys.n_ports
    extra = [nm for nm in monitors if nm != "membership"]
    names = (["membership"] + [f"u{k + 1}" for k in range(n_ports)]
             + [f"{y}{k + 1}" for k in range(n_ports) for y in ("y_p", "y_e")]
             + extra)

    x0 = liouville_point(sys.gf, params).packed()

    def channels(t, X):
        """The columns of ``names`` after the membership, at surface rows."""
        U = np.array([u._floats(ti) for ti in t.tolist()]).reshape(
            len(t), n_ports)
        cols = list(U.T) + [_port_flows(K, X, m, indices) for K in sys.Kc
                            for indices in (sys.energy_indices,
                                            sys.entropy_indices)]
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
            off = np.flatnonzero(~(res <= membership_tol))   # NaN fails
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
        traj = integrate(_PhaseField(sys.Ka, sys.Kc, u._floats,
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
    return list(_box_rows(sys.param_box, n_samples, seed))


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


def interconnect(systems, feedback, name: str = None, n_check: int = 20,
                 seed: int = 13) -> PortSystem:
    """Close a sequence of two or more systems through a static output
    feedback law.

    ``feedback(outputs)`` receives one ``(y_p, y_e)`` pair of output value
    sequences (one entry per port) per system and returns one input sequence
    per system; it must be a pure function built from arithmetic so that it
    composes with both plain floats and derivative-carrying numbers.  The
    result is a closed system (no remaining ports) on the product surface,
    with the feedback substituted into the drift generator.

    The drift reads each system's outputs, the port flows of its ``Kc``,
    from code traced from ``Kc`` at its default (or first sampled) surface
    point (:class:`~ltk.tracegrad.PartialSumKernel`), so the drift takes
    duals as every generator does, and traces where the systems'
    generators trace; a ``Kc`` that cannot be traced is rejected by a
    ``ValueError`` naming the system, the generator and the reason.  The
    composition is rejected if the substituted drift produces negative
    total entropy at any sampled surface state: a feedback law is only a
    valid interconnection if it respects the second law.
    """
    from .tracegrad import PartialSumKernel
    if len(systems) < 2:
        raise ValueError("interconnection needs at least two systems")
    if not any(s.n_ports for s in systems):
        raise ValueError("interconnection needs at least one port to close")
    M = sum(s.n_coords for s in systems)
    gf1 = systems[0].gf
    name = name or "+".join(s.name for s in systems)

    flows = []
    for s in systems:
        params = s.default_params or _sample_surface_params(s, 1, seed)[0]
        m = s.n_coords
        kernel = PartialSumKernel(
            s.Kc, liouville_point(s.gf, params).packed().tolist(),
            [[m + i for i in indices]
             for indices in (s.energy_indices, s.entropy_indices)])
        if kernel.reason is not None:
            raise ValueError(f"interconnection {name!r} cannot trace the "
                             f"outputs of system {s.name!r}: {kernel.reason}")
        flows.append(kernel)

    # Each system with its packed phase coordinates [q, p] in the product's.
    owner = [k for k, s in enumerate(systems) for _ in range(s.n_coords)] * 2
    placed = [(s, [c for c, o in enumerate(owner) if o == k])
              for k, s in enumerate(systems)]

    def Ka_fn(x):
        x = list(x)
        xs = [[x[k] for k in place] for _, place in placed]
        ys = [flow(xk) for flow, xk in zip(flows, xs)]
        us = [tuple(u) for u in feedback([(y[0::2], y[1::2]) for y in ys])]
        if [len(u) for u in us] != [s.n_ports for s in systems]:
            raise ValueError("feedback returned the wrong number of inputs")
        total = systems[0].Ka(xs[0])
        for s, xk in zip(systems[1:], xs[1:]):
            total = total + s.Ka(xk)
        for s, xk, u in zip(systems, xs, us):
            for K, uk in zip(s.Kc, u):
                total = total + uk * K(xk)
        return total

    Ka = ScalarFn(Ka_fn, dim=2 * M, name=f"drift({name})")

    # Product surface: the first system's chart stays the chart; every
    # other chart costate becomes one more intensive parameter.  ``coords``
    # holds the product coordinates of each system's parameters in turn.
    parts = [[place[c] for c in s.gf._param_coords] for s, place in placed]
    coords = [c for part in parts for c in part]
    I = tuple(sorted(c for c in coords if c < M))
    J = tuple(sorted(c - M for c in coords if c >= M and c != M + gf1.chart))
    arg_coords = list(I) + [M + j for j in J]    # Fhat's (q_I, gamma_J)
    del parts[0][len(gf1.I)]     # the chart costate is not an argument
    picks = [[arg_coords.index(c) for c in part] for part in parts]
    Fs = [gf1.Fhat] + [lift_generating_function(s.gf) for s in systems[1:]]

    def Fhat_fn(x):
        # With the composite chart costate frozen at -1, every other costate
        # equals its chart ratio; the first system's lift there is its Fhat.
        total = Fs[0]([x[k] for k in picks[0]])
        for F, pick in zip(Fs[1:], picks[1:]):
            total = total + F([x[k] for k in pick])
        return total
    factors = ", ".join(s.gf.name or f"L{k + 1}" for k, s in enumerate(systems))
    Fhat = ScalarFn(Fhat_fn, dim=M - 1, name=f"product({factors})")
    gf = GeneratingFunction(
        n=M - 1, Fhat=Fhat, I=I, J=J, chart=gf1.chart,
        q_homogeneous=all(s.gf.q_homogeneous for s in systems), name=name)

    energy = tuple(sorted(place[i] for s, place in placed
                          for i in s.energy_indices))
    entropy = tuple(sorted(place[i] for s, place in placed
                           for i in s.entropy_indices))

    def compose_params(values):
        if None in values:
            return None
        at = dict(zip(coords, [v for vs in values for v in vs]))
        return tuple(at[c] for c in gf._param_coords)

    composed = PortSystem(
        name=name, gf=gf, Ka=Ka, Kc=(), energy_indices=energy,
        entropy_indices=entropy,
        default_params=compose_params([s.default_params for s in systems]),
        param_box=compose_params([s.param_box for s in systems]))

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

    gf = GeneratingFunction(
        n=1, Fhat=ScalarFn(lambda a: C * T_ref * exp(a[0] / C), 1,
                           name="stored heat"),
        I=(1,), J=(), chart=0, name=name)

    def Kc_fn(x):           # p_S / T + p_E, with T = T_ref exp(S/C)
        return x[3] / (T_ref * exp(x[1] / C)) + x[2]

    return PortSystem(
        name=name,
        gf=gf,
        Ka=_zero_fn(4),
        Kc=(ScalarFn(Kc_fn, 4, name="heat port"),),
        energy_indices=(0,),
        entropy_indices=(1,),
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
    parts = [heat_compartment(C[k], T_ref[k], name=f"compartment_{k + 1}")
             for k in range(2)]

    def fourier(outputs):
        (_, ye1), (_, ye2) = outputs
        w = lam * (1.0 / ye1[0] - 1.0 / ye2[0])
        return (-w,), (w,)

    return interconnect(parts, fourier, name="heat_exchanger")


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
    the same system.  A parameter may be spelled by its short symbol
    (``m`` for ``mass``), but not given under both spellings.
    """
    key = name.replace("-", "_")
    if key not in BUILTIN_SYSTEMS:
        folded = {k.lower(): k for k in BUILTIN_SYSTEMS}
        if key.lower() not in folded:
            raise ValueError(f"unknown system {name!r}; available: "
                             f"{', '.join(sorted(BUILTIN_SYSTEMS))}")
        key = folded[key.lower()]
    for short, full in _PARAM_ALIASES.items():
        if short in params and full in params:
            raise ValueError(f"parameter {full!r} is given twice, as "
                             f"{short!r} and {full!r}")
    kwargs = {_PARAM_ALIASES.get(k, k): v for k, v in params.items()}
    return BUILTIN_SYSTEMS[key](**kwargs)
