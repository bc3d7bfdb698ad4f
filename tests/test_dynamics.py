"""Canonical, chart and reduced dynamics, the integrator, and flow checks.

Hand-derived oracle values used below:

* K = q1 p0 at q = (1, 2), p = (3, 4): field vq = (2, 0), vp = (0, -3).
* K = p0^2 (m = 2): the fiber-scaling commutator [X_K, Z] is (-2 p0, 0, 0, 0),
  i.e. (-6, 0, 0, 0) at p0 = 3 — the canonical non-homogeneous control.
* X = (-x1, x0), Y = (x0, 0): [X, Y] = (-x1, -x0), i.e. (-3, -2) at (2, 3).
* A constant reduced generator c moves only the two ratio coordinates tied to
  the normalization slots: deps_0 = -c, dgamma_1 = -c, all other rates zero.
"""

import logging
import re

import numpy as np
import pytest
from conftest import TracedGradient, perturbed_transport, vector_flow
from test_diffkit import SYSTEMS, TWIN_DEFAULTS, _hex

from ltk import dynamics, geometry
from ltk.diffkit import ScalarFn, exp, grad, sqrt
from ltk.dynamics import (Trajectory, commutator_residual, contact_rhs,
                          flow_transport_check, integrate, lie_bracket_fd,
                          phase_rhs, project_reduced, reduced_rhs, rk4_step,
                          scaling_commutation_check, validate_degree)
from ltk.exprlang import compile_fn
from ltk.geometry import (ChartDegenerateError, ContactPoint, EulerFieldKind,
                          PhasePoint, TangentVector, alpha, homogenize,
                          project)
from ltk.portsys import (BUILTIN_SYSTEMS, _sample_surface_params,
                         gas_piston_damper, heat_compartment)
from ltk.submanifold import GeneratingFunction, liouville_point

# Khat(q0, q1, gamma1) = gamma1^2 + q0 gamma1 and its degree-1 phase lift.
KHAT = ScalarFn(lambda x: x[2] ** 2 + x[0] * x[2], dim=3, name="g1^2+q0 g1")
K1 = homogenize(KHAT, 0)
P0SQ = ScalarFn(lambda x: x[2] ** 2, dim=4, name="p0^2")
Q1P0 = ScalarFn(lambda x: x[1] * x[2], dim=4, name="q1 p0")

PT = PhasePoint(q=[1.0, 2.0], p=[3.0, 4.0])


def _vector_pass(K):
    """The vector pass of ``phase_rhs(K)`` as a plain callable, which
    :func:`integrate` steps in numpy, untraced: the independent route for
    K's traced flow."""
    field = phase_rhs(K)
    return lambda t, x: field(t, x)


# -- degree validation --------------------------------------------------------


def test_validate_degree_accepts_homogeneous_generators():
    assert validate_degree(K1, degree=1) < 1e-12


def test_validate_degree_flags_the_wrong_degree():
    assert validate_degree(P0SQ, degree=1) > 1e-2
    assert validate_degree(P0SQ, degree=2) < 1e-12


def test_validate_degree_rejects_odd_dimension():
    with pytest.raises(ValueError, match="even"):
        validate_degree(ScalarFn(lambda x: x[0], dim=3))


def test_validate_degree_checks_both_homogeneities():
    # -p0 sqrt(q1 q2) is degree 1 in p and in q
    K = ScalarFn(lambda x: -x[3] * sqrt(x[1] * x[2]), dim=6)
    assert validate_degree(K) < 1e-9
    assert validate_degree(K, wrt=EulerFieldKind.W) < 1e-9
    # q1^2 p0 is degree 1 in p but degree 2 in q
    Q1SQ_P0 = ScalarFn(lambda x: x[1] ** 2 * x[2], dim=4)
    assert validate_degree(Q1SQ_P0) < 1e-12
    assert validate_degree(Q1SQ_P0, wrt=EulerFieldKind.W) > 1e-2
    # p0^2 fails the fiber check outright
    assert validate_degree(P0SQ) > 1e-2


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_validate_degree_skips_samples_that_are_not_finite():
    # q0*p0*1e300*1e300 overflows at every sample; its relative Euler
    # residual is inf - inf = nan, and a nan sample must not pass
    K = compile_fn("q0*p0*1e300*1e300", ["q0", "p0"])
    with pytest.raises(ValueError, match="could only evaluate K at 0/50"):
        validate_degree(K)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("source, skipped, why", [
    ("q0*p0*1e300*1e300", lambda X: 0, "not finite"),
    ("ln(q0 - 1.2)*p0", lambda X: int(np.argmax(X[:, 0] <= 1.2)),
     "ln requires a positive argument in 'ln(q0-1.2)'"),
], ids=["not finite", "domain hole"])
def test_too_few_degree_samples_name_the_first_skipped_one(source, skipped,
                                                           why):
    X = geometry._phase_rows(1, 50, 3)
    with pytest.raises(ValueError) as err:
        validate_degree(compile_fn(source, ["q0", "p0"]))
    message = str(err.value)
    assert message.startswith("could only evaluate K at ")
    assert message.endswith(f"sample points; adjust the sampling domain "
                            f"(first skipped: phase point "
                            f"{X[skipped(X)].tolist()}, {why})")


# -- point fields --------------------------------------------------------------


def _field(K, pt):
    """The canonical field of K at pt as a tangent vector."""
    v = phase_rhs(K)(0.0, pt.packed())
    return TangentVector(v[:len(pt.q)], v[len(pt.q):])


def test_hamiltonian_field_hand_value():
    v = _field(Q1P0, PT)
    assert v.vq == pytest.approx([2.0, 0.0])
    assert v.vp == pytest.approx([0.0, -3.0])


def test_canonical_field_reproduces_the_generator_through_alpha():
    # alpha(X_K) = K for fiber-degree-1 generators
    rng = np.random.default_rng(8)
    for _ in range(25):
        pt = PhasePoint(rng.uniform(0.6, 1.4, 2),
                        rng.uniform(0.2, 1.0, 2) * rng.choice([-1.0, 1.0], 2))
        v = _field(K1, pt)
        val = float(K1(pt.packed()))
        assert alpha(pt, v) == pytest.approx(val, rel=1e-12, abs=1e-12)
    # ... and fails to for a degree-2 generator: alpha(X_K) = 2 K
    v = _field(P0SQ, PT)
    assert alpha(PT, v) == pytest.approx(2 * 9.0, rel=1e-12)


def test_field_checks_dimension():
    with pytest.raises(ValueError, match="dimension"):
        _field(Q1P0, PhasePoint([1.0], [1.0]))


# -- integrator ----------------------------------------------------------------


def test_rk4_integrates_cubic_time_dependence_exactly():
    x = rk4_step(lambda t, x: np.array([3 * t ** 2]), 0.0, np.array([0.0]), 0.7)
    assert x[0] == pytest.approx(0.7 ** 3, rel=1e-15)


def test_rotation_orbit_closes():
    # harmonic oscillator (m = 1): period 2 pi, RK4 global error ~ dt^4
    K = ScalarFn(lambda x: 0.5 * (x[0] ** 2 + x[1] ** 2), dim=2)
    f = phase_rhs(K)
    two_pi = 2.0 * np.pi
    dt = two_pi / 6283
    traj = integrate(f, [1.0, 0.0], two_pi, dt)
    assert traj.final == pytest.approx([1.0, 0.0], abs=1e-9)
    assert traj.t[0] == 0.0
    assert traj.t[-1] == pytest.approx(two_pi)


def test_integrate_requires_commensurate_times():
    f = phase_rhs(Q1P0)
    with pytest.raises(ValueError, match="integer multiple"):
        integrate(f, PT.packed(), 1.0005, 1e-2)
    with pytest.raises(ValueError, match="positive"):
        integrate(f, PT.packed(), 1.0, -1e-2)
    for t_end, dt, name in ((np.nan, 1e-2, "t_end"), (np.inf, 1e-2, "t_end"),
                            (1.0, np.nan, "dt"), (1.0, np.inf, "dt")):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            integrate(f, PT.packed(), t_end, dt)


def test_integrate_aborts_on_non_finite_state():
    def f(t, x):
        with np.errstate(over="ignore"):
            return np.array([x[0] ** 2])      # blows up in finite time

    with pytest.raises(RuntimeError, match="non-finite state at t="):
        integrate(f, [5.0], 10.0, 0.1)


def test_integrate_requires_a_nonnegative_t_end():
    with pytest.raises(ValueError, match=r"^t_end must be nonnegative, "
                                         r"got -0.1$"):
        integrate(lambda t, x: -x, [1.0], -0.1, 1e-2)


@pytest.mark.parametrize("route", ["callable", "phase field"])
def test_a_non_finite_start_raises_as_step_0(route):
    # before any step or monitor
    f = phase_rhs(ScalarFn(lambda x: x[0] * x[1], 2))
    if route == "callable":
        def f(t, x):
            return -x
    monitored = []

    def first(t, X):
        monitored.append(t)
        return X[..., 0]

    with pytest.raises(RuntimeError, match=r"^integration produced a "
                       r"non-finite state at t=0 \(step 0\)$"):
        integrate(f, [np.nan, 0.0], 0.1, 1e-2, [("first", first)])
    assert monitored == []


@pytest.mark.parametrize("route", ["callable", "phase field"])
def test_integrate_steps_one_state(route, caplog):
    # a batch, an empty batch and a scalar each raise, naming the shape,
    # before any step, route log or monitor call
    calls = []

    def f(t, x):
        calls.append(t)
        return -x

    if route == "phase field":
        f = phase_rhs(Q1P0)
    for x0, shape in ((np.ones((3, 4)), "(3, 4)"),
                      (np.empty((0, 4)), "(0, 4)"), (1.0, "()")):
        with caplog.at_level(logging.INFO, logger="ltk"), \
                pytest.raises(ValueError, match=re.escape(
                    f"integrate steps one state, not an x0 of shape "
                    f"{shape}") + "$"):
            integrate(f, x0, 0.1, 1e-2,
                      [("x", lambda t, X: calls.append(t))])
    assert calls == []
    assert _route_lines(caplog) == []


def test_a_scalar_state_of_a_phase_field_raises_grads_error():
    # integrate refuses a scalar x0 before any call; the field itself,
    # called at one, raises grad's error
    with pytest.raises(ValueError) as expected:
        grad(Q1P0, np.asarray(1.0))
    assert str(expected.value) == "q1 p0 expects dimension 4, got a scalar"
    with pytest.raises(ValueError,
                       match=f"^{re.escape(str(expected.value))}$"):
        phase_rhs(Q1P0)(0.0, 1.0)


def test_integrate_records_monitors_on_the_full_grid(monkeypatch):
    # a monitor takes a block of grid points at a time: their times and
    # states, one row each
    monkeypatch.setattr(dynamics, "MONITOR_BLOCK", 32)
    K = ScalarFn(lambda x: 0.5 * (x[0] ** 2 + x[1] ** 2), dim=2)
    f = phase_rhs(K)
    blocks = []

    def energy(t, X):
        blocks.append(t.tolist())
        return 0.5 * (X[:, 0] ** 2 + X[:, 1] ** 2)

    traj = integrate(f, [1.0, 0.0], 1.0, 1e-2, monitors=[("energy", energy)])
    assert isinstance(traj, Trajectory)
    assert len(traj.t) == 101
    assert traj.monitors["energy"].shape == (101,)
    assert np.allclose(traj.monitors["energy"], 0.5, atol=1e-12)
    assert [len(b) for b in blocks] == [32, 32, 32, 5]
    assert sum(blocks, []) == traj.t.tolist()


@pytest.mark.parametrize("block", [5, 32])
def test_integrate_records_the_monitors_before_a_failing_step_raises(
        block, monkeypatch):
    # the monitor sees every point reached, never an empty block, and its
    # error comes first; with blocks of 5 the points before the failing
    # step make up one whole block
    monkeypatch.setattr(dynamics, "MONITOR_BLOCK", block)

    def f(t, x):
        if t >= 0.5:
            raise ValueError("field undefined")
        return np.ones_like(x)

    blocks = []

    def record(t, X):
        blocks.append(t.tolist())
        return X[:, 0]

    def guard(t, X):
        if X[-1, 0] > 0.3:
            raise RuntimeError(f"guard tripped at t={t[-1]:g}")
        return record(t, X)

    with pytest.raises(ValueError, match="field undefined"):
        integrate(f, [0.0], 1.0, 0.1, monitors=[("x", record)])
    assert sum(blocks, []) == [i * 0.1 for i in range(5)]
    assert [] not in blocks
    with pytest.raises(RuntimeError, match=r"guard tripped at t=0\.4"):
        integrate(f, [0.0], 1.0, 0.1, monitors=[("x", guard)])


# -- the traced single state -----------------------------------------------------

TRACED_SYSTEMS = dict(BUILTIN_SYSTEMS,
                      **{"expression piston": SYSTEMS["expression piston"]})


def _route_lines(caplog) -> list:
    return [r.getMessage() for r in caplog.records
            if r.getMessage().startswith("integrate: ")]


@pytest.mark.parametrize("name", sorted(TRACED_SYSTEMS))
def test_a_traced_state_flows_as_the_numpy_step_bit_for_bit(name, monkeypatch,
                                                           caplog):
    # each generator's field of one state steps on its block runner, 8
    # points a block, with the bits of the untraced numpy step
    monkeypatch.setattr(dynamics, "MONITOR_BLOCK", 8)
    system = TRACED_SYSTEMS[name]()
    x0 = liouville_point(system.gf, TWIN_DEFAULTS.get(
        name, system.default_params)).packed()
    for K in (system.Ka,) + system.Kc:
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="ltk"):
            traced = integrate(phase_rhs(K), x0, 0.5, 1e-2)
        assert np.array_equal(traced.x,
                              integrate(_vector_pass(K), x0, 0.5, 1e-2).x)
        assert _route_lines(caplog) == [
            f"integrate: {K.name} runs on a traced replay",
            "integrate: blocks rerun on the vector pass: 0"]


def test_a_guard_that_flips_mid_run_hands_back_as_the_numpy_step(
        monkeypatch, caplog):
    # the drift doubles while the piston momentum exceeds 0.35, which it
    # passes within the run: each block of 8 points in which a stage lies
    # on the other side of the guard traced at the start reruns on the
    # vector pass, with the bits of the numpy step through the one-stage
    # kernel traced at the start, which hands those stages to grad
    monkeypatch.setattr(dynamics, "MONITOR_BLOCK", 8)
    piston = gas_piston_damper()
    K = ScalarFn(lambda x: piston.Ka(x) * 2.0 if x[3] > 0.35
                 else piston.Ka(x), 8, name="switching drift")
    x0 = liouville_point(piston.gf, (0.0, 1.0, 0.3, -1.0)).packed()
    with caplog.at_level(logging.INFO, logger="ltk"):
        traced = integrate(phase_rhs(K), x0, 0.5, 1e-2)
    listed = TracedGradient(K, (), x0)
    stepped = integrate(listed.field(), x0, 0.5, 1e-2)
    assert np.array_equal(traced.x, stepped.x)
    assert np.array_equal(traced.x,
                          integrate(_vector_pass(K), x0, 0.5, 1e-2).x)
    assert (traced.x[:, 3] <= 0.35).any() and (traced.x[:, 3] > 0.35).any()
    assert listed.handed >= len(listed.steps) > 0
    # the momentum passes 0.35 in step 11, in the second of the 7 blocks
    # of the 50 steps (points 7 to 15), and stays above it
    assert listed.rerun_blocks(8) == [7, 15, 23, 31, 39, 47]
    assert _route_lines(caplog) == [
        "integrate: switching drift runs on a traced replay",
        "integrate: blocks rerun on the vector pass: 6, the first from "
        "t=0.07"]


def test_an_untraceable_generator_flows_on_grad(caplog):
    # a state of a field the trace cannot record steps on the vector pass,
    # grad's scalar loop, from its start, as a batch does
    port = heat_compartment().Kc[0]
    K = ScalarFn(lambda x: port(x) * (2.0 if hash(x[0]) == 7 else 1.0), 4,
                 name="reads hash")
    x0 = liouville_point(heat_compartment().gf, (0.0, -1.0)).packed()
    with caplog.at_level(logging.INFO, logger="ltk"):
        traced = integrate(phase_rhs(K), x0, 0.5, 1e-2)
    assert _hex(traced.x) == _hex(integrate(_vector_pass(K), x0, 0.5, 1e-2).x)
    assert _route_lines(caplog) == [
        "integrate: reads hash runs on the vector pass: the trace cannot "
        "record reads hash, as it reads a traced value with hash()"]


@pytest.mark.parametrize("case", ["domain hole", "non-finite"])
def test_a_traced_state_failing_in_its_second_block_fails_as_the_numpy_step(
        case, monkeypatch):
    # the error, its time and step, and the points recorded before it are
    # the untraced numpy step's
    if case == "domain hole":           # S grows from 0.3 past 0.45
        K = compile_fn("(p1/exp(q1) + p0) * (1 + 0 * ln(0.45 - q1))",
                       ["q0", "q1", "p0", "p1"])
        x0 = liouville_point(heat_compartment().gf, (0.3, -1.0)).packed()
        block, message = 16, ("ln requires a positive argument in "
                              "'ln(0.45-q1)' in the step from t=0.21")
    else:                               # q0 falls past 0
        K = ScalarFn(lambda x: x[2] * x[2] * (1e308 if x[0] < 0.0 else 1.0),
                     4, name="blowing up")
        x0 = np.array([0.11, 1.0, -1.0, 0.5])
        block, message = 4, ("integration produced a non-finite state at "
                             "t=0.06 (step 6)")
    monkeypatch.setattr(dynamics, "MONITOR_BLOCK", block)
    errors, seen = [], []

    def monitor(t, X):
        seen[-1].append((t.tolist(), X.tolist()))
        return X[:, 0]

    for f in (phase_rhs(K), _vector_pass(K)):
        seen.append([])
        with pytest.raises(Exception) as err, \
                np.errstate(over="ignore", invalid="ignore"):
            integrate(f, x0, 1.0, 1e-2, [("x", monitor)])
        errors.append((type(err.value), str(err.value)))
    assert errors[0] == errors[1]
    assert errors[0][1] == message
    assert seen[0] == seen[1]
    assert block < len(sum((t for t, _ in seen[0]), [])) < 2 * block


def test_a_block_rerun_overflows_without_a_warning(caplog):
    # the runner's float arithmetic overflows to inf silently, and the
    # runner raises at the end of the block; its block reruns on the vector
    # pass, which must raise the non-finite state at its step, not a numpy
    # warning (an error in this suite)
    c = np.finfo(float).max / 3.0
    K = ScalarFn(lambda x: c * x[2] * x[2], 4, name="c p0^2")
    x0 = np.array([0.7, 0.0, -0.5, 0.2])
    with caplog.at_level(logging.INFO, logger="ltk"), \
            pytest.raises(RuntimeError, match=r"^integration produced a "
                          r"non-finite state at t=1 \(step 1\)$"):
        integrate(phase_rhs(K), x0, 10.0, 1.0)
    assert _route_lines(caplog)[-1] == (
        "integrate: blocks rerun on the vector pass: 1, the first from t=0")


@pytest.mark.parametrize("route", ["untraceable", "callable"])
def test_a_numpy_advance_overflows_without_a_warning(route, caplog):
    # every field that steps in numpy from its start, not only a block
    # rerun, raises the non-finite state where a state overflows: a field
    # the trace cannot record, a callable
    c = np.finfo(float).max / 3.0
    x0 = np.array([0.0, 0.0, 1.0, 1.0])
    if route == "untraceable":
        K = ScalarFn(lambda x: c * x[2] * x[2]
                     * (1.0 if hash(x[0]) != 7 else 2.0), 4, name="hashed")
    else:
        K = ScalarFn(lambda x: c * x[2] * x[2], 4, name="c p0^2")
    f = _vector_pass(K) if route == "callable" else phase_rhs(K)
    with caplog.at_level(logging.INFO, logger="ltk"), \
            pytest.raises(RuntimeError, match=r"^integration produced a "
                          r"non-finite state at t=1 \(step 1\)$"):
        integrate(f, x0, 10.0, 1.0)
    assert [line.split(": ")[1] for line in _route_lines(caplog)] == (
        [] if route == "callable" else [f"{K.name} runs on the vector pass"])


def test_a_state_of_the_wrong_length_raises_the_dimension_error(caplog):
    with caplog.at_level(logging.INFO, logger="ltk"), \
            pytest.raises(ValueError, match=r"^q1 p0 expects dimension 4, "
                          r"got 6 in the step from t=0$"):
        integrate(phase_rhs(Q1P0), np.ones(6), 0.1, 1e-2)
    assert _route_lines(caplog) == [
        "integrate: q1 p0 runs on the vector pass: its start state has 6 "
        "entries"]


# -- chart (contact) dynamics ----------------------------------------------------


def test_contact_rhs_shape_checks():
    with pytest.raises(ValueError, match="odd"):
        contact_rhs(ScalarFn(lambda x: x[0], dim=4), 0)
    with pytest.raises(ValueError, match="chart"):
        contact_rhs(KHAT, 5)


def test_contact_field_matches_rhs_builder():
    # a batch of contact vectors gets each row's single-point rates
    cpt = ContactPoint(chart=0, q=[1.0, 0.5], gamma=[0.8])
    rhs = contact_rhs(KHAT, 0)
    X = np.array([cpt.packed(), [0.3, 1.2, -0.4], [2.0, 0.7, 1.5]])
    dx = rhs(0.0, X)
    assert dx.shape == X.shape
    assert [v.hex() for v in dx.ravel().tolist()] == \
        [v.hex() for x in X for v in rhs(0.0, x).tolist()]


def test_contact_rows_of_many_gammas_are_their_states():
    # the pairing sum_j gamma_j dKhat/dgamma_j is summed left to right on a
    # batch's columns as on one state, so with four gammas, where np.dot
    # sums a strided row in another order, each row is its state's rates
    Khat = ScalarFn(lambda x: exp(x[0]) * x[5] + x[1] * x[6] * x[2]
                    + x[3] * x[7] + x[4] * x[8] * x[0] - x[2] * x[5] * x[6]
                    + x[6] * x[7] * x[8], dim=9, name="nine")
    rhs = contact_rhs(Khat, 0)
    X = np.cos(np.arange(1800)).reshape(200, 9) + 0.5
    dX = rhs(0.0, X)
    assert [row.tobytes() for row in dX] == \
        [rhs(0.0, x).tobytes() for x in X]


def test_chart_flow_is_the_projected_phase_flow():
    # integrate the same motion in full phase space and in the chart, then
    # compare in chart coordinates
    pt = PhasePoint(q=[1.0, 0.5], p=[-1.0, 0.8])
    t_end, dt = 1.0, 1e-3
    full = integrate(phase_rhs(K1), pt.packed(), t_end, dt)
    chart = integrate(contact_rhs(KHAT, 0), project(pt, 0).packed(), t_end, dt)
    x = full.final
    projected = project(PhasePoint(x[:2], x[2:]), 0).packed()
    assert np.max(np.abs(projected - chart.final)) < 1e-6


# -- reduced (specific-coordinate) dynamics ----------------------------------------


def test_constant_reduced_generator_moves_only_normalization_slots():
    c = 0.7
    Kbar = ScalarFn(lambda x: c + 0.0 * x[0], dim=4, name="const")
    dx = reduced_rhs(Kbar)(0.0, [0.3, 1.2, 0.5, -0.4])
    deps, dgamma = dx[:2], dx[2:]
    assert deps == pytest.approx([-c, 0.0], abs=1e-14)
    assert dgamma == pytest.approx([-c, 0.0], abs=1e-14)


def test_reduced_field_validates_lengths():
    Kbar = ScalarFn(lambda x: x[0], dim=4)
    with pytest.raises(ValueError, match="dimension"):
        reduced_rhs(Kbar)(0.0, [1.0, 1.0, 2.0])
    with pytest.raises(ValueError, match="even"):
        reduced_rhs(ScalarFn(lambda x: x[0], dim=3))


def test_reduced_flow_is_the_doubly_projected_phase_flow():
    # K = -p0 sqrt(q1 q2) is homogeneous in p and in q, so its flow descends
    # to the ratio coordinates with reduced generator Kbar = sqrt(eps_2)
    K = ScalarFn(lambda x: -x[3] * sqrt(x[1] * x[2]), dim=6)
    Kbar = ScalarFn(lambda x: sqrt(x[1]), dim=4)
    x0 = np.array([1.3, 1.0, 2.0, -1.0, 0.4, 0.6])
    t_end, dt = 0.5, 1e-3
    full = integrate(phase_rhs(K), x0, t_end, dt)
    red = integrate(reduced_rhs(Kbar), project_reduced(x0), t_end, dt)
    assert np.max(np.abs(project_reduced(full.final) - red.final)) < 1e-9


# -- structural flow checks ---------------------------------------------------------


def test_lie_bracket_fd_hand_value():
    X = lambda x: np.array([-x[1], x[0]])
    Y = lambda x: np.array([x[0], 0.0])
    assert lie_bracket_fd(X, Y, [2.0, 3.0]) == pytest.approx([-3.0, -2.0],
                                                             abs=1e-8)


def test_commutator_with_fiber_scaling_detects_homogeneity():
    assert np.max(np.abs(commutator_residual(K1, PT))) < 1e-7
    res = commutator_residual(P0SQ, PT)
    assert res == pytest.approx([-6.0, 0.0, 0.0, 0.0], abs=1e-6)


def test_commutator_with_base_scaling():
    res = commutator_residual(Q1P0, PT, kind=EulerFieldKind.W)
    assert np.max(np.abs(res)) < 1e-7       # q1 p0 is degree 1 in q as well


def half_square_gf():
    return GeneratingFunction(
        n=1, Fhat=ScalarFn(lambda x: 0.5 * x[0] ** 2, dim=1, name="q1^2/2"),
        I=(1,), chart=0)


def test_flow_transport_preserves_an_invariant_surface():
    # Ka = p1 + p0 q1 vanishes on the surface q0 = q1^2/2 (where p1 = -p0 q1),
    # so its flow keeps members on the surface and tangents alpha-isotropic
    gf = half_square_gf()
    Ka = ScalarFn(lambda x: x[3] + x[2] * x[1], dim=4, name="p1 + p0 q1")
    report = flow_transport_check(gf, Ka, t_end=0.5,
                                  sample_grid=[(0.7, -1.0), (1.2, -0.5)])
    assert report.t_end == 0.5
    assert report.membership_drift < 1e-6
    assert report.alpha_residual < 1e-6


def test_flow_transport_separates_the_two_residuals():
    # K = p1 does not vanish on the surface: members drift off it, but the
    # transported tangents stay alpha-isotropic (the image is again a cone)
    gf = half_square_gf()
    K = ScalarFn(lambda x: x[3], dim=4, name="p1")
    report = flow_transport_check(gf, K, t_end=0.5,
                                  sample_grid=[(0.7, -1.0)])
    assert report.membership_drift > 1e-2
    assert report.alpha_residual < 1e-6


def test_batched_integration_rows_are_separate_runs_bit_for_bit():
    # a row of the tests' batch flow is the state alone, traced (a phase
    # field's state on its block runner) and in numpy
    x0 = np.array([[1.0, 0.5, -1.0, 0.8], [0.3, 2.0, -2.0, 0.1],
                   [1.0, 0.5, -1.0, 0.8]])
    batch = vector_flow(K1, x0, 0.2, 1e-2)
    assert batch.shape == (21, 3, 4)
    for f in (phase_rhs(K1), _vector_pass(K1)):
        for row, start in enumerate(x0):
            alone = integrate(f, start, 0.2, 1e-2)
            assert _hex(batch[:, row]) == _hex(alone.x)


def _wavy(t, x):
    """A nonlinear, time-dependent field on three coordinates."""
    return np.array([np.sin(t) * x[1] - x[0] * x[2],
                     x[0] ** 2 - np.cos(3.0 * t) * x[1],
                     np.exp(-t) * x[1] * x[2] + 0.5])


def _stepping_case(name):
    """A field and 50 seeded single states to step it from."""
    if name == "wavy":
        return _wavy, np.random.default_rng(15).uniform(-1.0, 1.0, (50, 3))
    piston = gas_piston_damper()
    return _vector_pass(piston.Ka), np.array(
        [liouville_point(piston.gf, p).packed()
         for p in _sample_surface_params(piston, 50, 15)])


@pytest.mark.parametrize("name", ["wavy", "piston Ka"])
def test_a_list_state_steps_as_the_array_state_bit_for_bit(name):
    # a single state given as a list steps as the ndarray it holds, and
    # the step returns an ndarray
    f, states = _stepping_case(name)
    for i, x in enumerate(states):
        t, dt = 0.1 * i, 1e-2 * (1 + i % 3)
        stepped = rk4_step(f, t, x, dt)
        listed = rk4_step(f, t, x.tolist(), dt)
        assert isinstance(listed, np.ndarray) and listed.shape == x.shape
        assert _hex(listed) == _hex(stepped)


@pytest.mark.parametrize("name", ["wavy", "piston Ka"])
def test_a_field_may_return_a_list_or_an_array(name):
    # integrate steps a single state in numpy, handing the field ndarrays;
    # its trajectory is the one rk4_step gives, whichever type the field
    # returns
    f, states = _stepping_case(name)

    def listed(t, x):
        assert isinstance(x, np.ndarray) and x.ndim == 1
        return f(t, x).tolist()

    for x in states:
        by_array = integrate(f, x, 0.1, 1e-2)
        by_list = integrate(listed, x, 0.1, 1e-2)
        steps = [x]
        for i in range(10):
            steps.append(rk4_step(f, i * 1e-2, steps[-1], 1e-2))
        assert _hex(by_list.x) == _hex(by_array.x) == _hex(steps)


def _ring(n):
    """A nonlinear, time-dependent field on n coordinates."""
    def f(t, x):
        return np.array([np.sin(t + i) * x[(i + 1) % n] - x[i] * x[(i + 2) % n]
                         + 0.5 * i for i in range(n)])
    return f


def _forms(f):
    """``f`` and the same field returning lists."""
    def listed(t, x):
        return f(t, x).tolist()

    return f, listed


def _generated_list_step(n):
    """The straight-line RK4 step ``step(f, t, x, dt)`` of a list state of
    length n written by :func:`dynamics._rk4_lines`, the block runner's
    template, each stage a call of ``f`` on an ndarray unpacked into
    Python floats."""
    def stage(k, time, point):
        names = [f"{k}{i}" for i in range(n)]
        return [f"{', '.join(names)}, = _stage(f, {time}, "
                f"[{', '.join(point)}])"], names

    lines, new = dynamics._rk4_lines(n, stage)
    body = ([f"{', '.join(f'x{i}' for i in range(n))}, = x", "h = dt / 2.0"]
            + lines + ["w = dt / 6.0", f"return [{', '.join(new)}]"])
    def stage_call(f, t, x):
        return np.asarray(f(t, np.array(x))).tolist()

    namespace = {"_stage": stage_call}
    exec("def step(f, t, x, dt):\n    " + "\n    ".join(body), namespace)
    return namespace["step"]


@pytest.mark.parametrize("n", range(1, 13))
def test_the_generated_list_step_is_the_array_step_bit_for_bit(n):
    # the runner's RK4 template, written out for a list state of each
    # length, gives rk4_step's bits, for states and stages holding inf and
    # NaN too
    rng = np.random.default_rng(n)
    huge = _ring(n)
    step = _generated_list_step(n)

    def overflowing(t, x):
        # stages that reach inf, and NaN from inf - inf
        return huge(t, x) * 1e306

    reached = []
    for f in (_ring(n), overflowing):
        for i in range(20):
            x = rng.uniform(-2.0, 2.0, n)
            if i >= 16:                 # a state that holds inf or NaN
                x[i % n] = np.inf if i % 2 else np.nan
            t, dt = 0.1 * i, 1e-2 * (1 + i % 3)
            with np.errstate(all="ignore"):
                stepped = rk4_step(f, t, x, dt)
                for form in _forms(f):
                    listed = step(form, t, x.tolist(), dt)
                    assert isinstance(listed, list)
                    assert [v.hex() for v in listed] == _hex(stepped)
            reached += listed
    assert {"inf", "nan"} <= {v.lstrip("-") for v in _hex(reached)}


def test_a_field_raising_at_stage_3_raises_alike_from_both_steps():
    def failing(at):
        """-x, raising at the stage of call number ``at``."""
        calls = []

        def f(t, x):
            calls.append(t)
            if len(calls) == at:
                raise ArithmeticError(f"stage {(at - 1) % 4 + 1} at t={t!r}")
            return -x
        return f

    # a list state and an ndarray state raise it alike
    errors = []
    for x in ([1.0, 2.0], np.array([1.0, 2.0])):
        with pytest.raises(ArithmeticError) as err:
            rk4_step(failing(3), 0.3, x, 0.1)
        errors.append(str(err.value))
    assert errors[0] == errors[1] == "stage 3 at t=0.35"
    # the third stage of the fourth step
    with pytest.raises(ArithmeticError, match=r"^stage 3 at t=0\.35\d* in the "
                       r"step from t=0\.3$"):
        integrate(failing(15), [1.0, 2.0], 1.0, 0.1)


@pytest.mark.parametrize("got", [1, 3])
def test_a_field_of_the_wrong_length_raises(got):
    def f(t, x):
        return np.ones(got)

    shape = rf"shape \({got},\) for a state of shape \(2,\)"
    with pytest.raises(ValueError, match=shape + " in the step from t=0$"):
        integrate(f, np.array([1.0, 2.0]), 0.3, 0.1)
    for form in _forms(f):              # a list state steps as an ndarray
        with pytest.raises(ValueError, match=shape):
            rk4_step(form, 0.0, [1.0, 2.0], 0.1)


@pytest.mark.parametrize("block", [5, 32])
def test_monitors_see_the_stored_rows_and_grid_times(block, monkeypatch):
    # single-state rows reach the trajectory a block at a time; a monitor,
    # also one before a failing step, sees them as the trajectory holds them
    monkeypatch.setattr(dynamics, "MONITOR_BLOCK", block)
    f, dt = _ring(3), 0.03
    seen = []

    def monitor(t, X):
        seen.append((t.tolist(), X.copy()))
        return X[:, 0]

    traj = integrate(f, [0.5, -0.2, 0.1], 1.5, dt, [("x", monitor)])
    assert _hex(traj.t) == [(i * dt).hex() for i in range(51)]
    assert sum((t for t, _ in seen), []) == traj.t.tolist()
    assert _hex(np.vstack([X for _, X in seen])) == _hex(traj.x)

    def failing(t, x):
        if t > 1.0:
            raise ValueError("field undefined")
        return f(t, x)

    seen.clear()
    with pytest.raises(ValueError, match="field undefined"):
        integrate(failing, [0.5, -0.2, 0.1], 1.5, dt, [("x", monitor)])
    reached = np.vstack([X for _, X in seen])
    assert len(reached) == 34
    assert _hex(reached) == _hex(traj.x[:34])


def test_flow_transport_names_the_trajectory_that_went_non_finite():
    # K = c p0^2 moves q at the constant rate 2 c p0; c is set so that the
    # RK4 sum 6 * 2c|p0| stays finite at p0 = -1 but overflows for the
    # perturbation p0 - h of that member alone, which the oracle flows
    c = np.finfo(float).max / 12.0 / (1.0 + 5e-6)
    K = ScalarFn(lambda x: c * x[2] * x[2], dim=4, name="c p0^2")
    grid = [[0.7, -0.5], [1.2, -1.0]]
    with pytest.raises(RuntimeError, match=r"member \[1\.2, -1\.0\] "
                       r"\(parameter 1 -h\).* at t=0\.001\b"), \
            np.errstate(over="ignore"):
        perturbed_transport(half_square_gf(), K, grid, 0.01, 1e-3)
    # without that member every trajectory stays finite
    perturbed_transport(half_square_gf(), K, grid[:1], 0.01, 1e-3)
    # flowcheck flows the members alone, which stay finite: alpha is
    # finite and fails the check
    report = flow_transport_check(half_square_gf(), K, 0.01, grid, dt=1e-3)
    assert 1e300 < report.alpha_residual < np.inf


def test_a_perturbed_start_that_cannot_be_lifted_is_named_by_member():
    # the oracle lifts each member's perturbations, and the second member
    # moved by -h in p_chart has p_chart 0; flowcheck lifts the members
    # alone, and raises for a K the trace cannot record, before any flow
    K = ScalarFn(lambda x: x[3] + x[2] * x[1] + 0.0 * hash(x[3]), dim=4,
                 name="reads hash")
    grid = [(0.7, -1.0), (0.7, 1e-5)]
    with pytest.raises(ValueError, match=re.escape(
            "p_chart must be nonzero to generate a lift point at surface "
            "member [0.7, 1e-05] (parameter 1 -h)") + "$"):
        perturbed_transport(half_square_gf(), K, [list(g) for g in grid],
                            0.01, 1e-3)
    with pytest.raises(ValueError, match=re.escape(
            "flowcheck cannot trace reads hash: the trace cannot record "
            "reads hash, as it reads a traced value with hash()") + "$"):
        flow_transport_check(half_square_gf(), K, 0.01, grid, dt=1e-3)


@pytest.mark.parametrize("case", ["t_end off the grid", "dt not finite",
                                  "p_chart 0", "lift not finite",
                                  "power out of range"])
def test_flow_transport_input_errors_raise_once_before_any_flow(case,
                                                                caplog):
    # the grid is checked as integrate checks it, and each member lifted,
    # before any flow: the error names the input, or the member by its
    # parameters, and nothing is traced or logged
    gf, K = half_square_gf(), Q1P0
    grid, t_end, dt, error = [(0.7, -1.0), (1.2, -0.5)], 0.5, 1e-2, ValueError
    if case == "t_end off the grid":
        t_end, message = 0.505, "t_end=0.505 is not an integer multiple of " \
            "dt=0.01"
    elif case == "dt not finite":
        dt, message = np.nan, "dt must be finite, got nan"
    elif case == "p_chart 0":
        grid[1] = (1.2, 0.0)
        message = ("p_chart must be nonzero to generate a lift point at "
                   "surface member [1.2, 0.0]")
    elif case == "lift not finite":  # the lift's q0 = q1 q1 / 2 overflows
        gf = GeneratingFunction(n=1, Fhat=ScalarFn(
            lambda x: 0.5 * x[0] * x[0], dim=1), I=(1,), chart=0)
        grid[1] = (1e200, -1.0)
        message = "non-finite result [inf, 1e+200, -1.0, nan] at surface " \
            "member [1e+200, -1.0]"
    else:                           # the lift's q1 ** 2 raises
        grid[1], error = (1e200, -1.0), OverflowError
        message = "1e+200 ** 2 is out of range at surface " \
            "member [1e+200, -1.0]"
    with caplog.at_level(logging.INFO, logger="ltk"), \
            pytest.raises(error, match=re.escape(message) + "$"), \
            np.errstate(over="ignore", invalid="ignore"):
        flow_transport_check(gf, K, t_end, grid, dt=dt)
    assert caplog.records == []


def test_flow_transport_names_the_member_that_went_non_finite():
    # at a c a little larger the member at p0 = -1 overflows itself, and
    # flowcheck names the member
    c = np.finfo(float).max / 12.0 * (1.0 + 1e-6)
    K = ScalarFn(lambda x: c * x[2] * x[2], dim=4, name="c p0^2")
    with pytest.raises(RuntimeError, match=re.escape(
            "flow of surface member [1.2, -1.0] produced a non-finite state "
            "at t=0.001") + "$"), np.errstate(over="ignore"):
        flow_transport_check(half_square_gf(), K, 0.01,
                             [(0.7, -0.5), (1.2, -1.0)], dt=1e-3)


def test_flow_transport_names_the_member_whose_sweep_is_not_finite(
        monkeypatch):
    # a sweep source wrapped so that its Hessian code overflows where
    # q1 > 1, as it is for the second member alone: that member's
    # derivative is not finite, and flowcheck names the member
    original = dynamics._adjoint_source

    def overflowing(body, hessian, dim):
        return original(body, hessian.replace(
            "$0 = ", "$0 = (1e300 * 1e300 if x1 > 1.0 else 1.0) * "), dim)

    monkeypatch.setattr(dynamics, "_adjoint_source", overflowing)
    grid = [(0.7, -1.0), (1.2, -0.5)]
    with pytest.raises(RuntimeError, match=re.escape(
            "adjoint sweep of surface member [1.2, -0.5] produced a "
            "non-finite derivative") + "$"):
        flow_transport_check(half_square_gf(), Q1P0, 0.5, grid, dt=1e-2)
    monkeypatch.undo()
    assert flow_transport_check(half_square_gf(), Q1P0, 0.5, grid,
                                dt=1e-2).alpha_residual < 1e-11


@pytest.mark.parametrize("lam", [0.5, 2.0, -1.0])
def test_scaling_commutes_with_degree_one_flow(lam):
    pt = PhasePoint(q=[1.0, 0.5], p=[-1.0, 0.8])
    assert scaling_commutation_check(K1, pt, lam, t_end=1.0) < 1e-8


def test_scaling_commutation_negative_control():
    assert scaling_commutation_check(P0SQ, PT, 2.0, t_end=1.0) > 1e-3
    with pytest.raises(ValueError, match="nonzero"):
        scaling_commutation_check(K1, PT, 0.0, t_end=1.0)


@pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf, 0.0])
def test_a_scaling_factor_must_be_finite_and_nonzero(lam):
    # rejected before any flow, by name, without a numpy warning (an error
    # in this suite)
    with pytest.raises(ValueError, match=re.escape(
            f"costate scaling factor lam must be finite and nonzero, got "
            f"{lam!r}") + "$"):
        scaling_commutation_check(K1, PT, lam, t_end=1.0)


# -- packing helpers ------------------------------------------------------------


def test_project_contact_hand_value():
    pt = PhasePoint(q=[1.0, 2.0], p=[-4.0, 6.0])
    assert project(pt, 0).packed() == pytest.approx([1.0, 2.0, 1.5])
    with pytest.raises(ChartDegenerateError):
        project(PhasePoint(q=[1.0, 2.0], p=[0.0, 6.0]), 0)


def test_project_reduced_hand_value():
    x = np.array([1.3, 1.0, 2.0, -2.0, 0.8, 1.2])
    out = project_reduced(x)
    assert out == pytest.approx([1.3, 2.0, 0.4, 0.6])
    with pytest.raises(ValueError, match="reduction threshold"):
        project_reduced(np.array([1.0, 0.0, 2.0, -1.0, 0.5, 0.5]))
