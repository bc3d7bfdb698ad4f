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

import numpy as np
import pytest
from test_diffkit import SYSTEMS, TWIN_DEFAULTS, _hex

from ltk import dynamics, geometry, tracegrad
from ltk.diffkit import ScalarFn, sqrt
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


def test_a_batch_is_recorded_in_blocks_of_states(monkeypatch):
    # a block holds MONITOR_BLOCK states, so a batch of 4 rows is recorded 8
    # points at a time, in numpy and as list rows stepped by a block
    # runner, which wait for no longer
    monkeypatch.setattr(dynamics, "MONITOR_BLOCK", 32)
    X0 = np.arange(1.0, 17.0).reshape(4, 4)
    runs = []
    for f in (_vector_pass(Q1P0), phase_rhs(Q1P0)):
        blocks = []

        def first(t, X):
            blocks.append(len(t))
            return X[:, :, 0]

        runs.append(integrate(f, X0, 0.2, 1e-2, [("first", first)]))
        assert blocks == [8, 8, 5]
    assert _hex(runs[0].x) == _hex(runs[1].x)
    assert _hex(runs[0].monitors["first"]) == _hex(runs[1].monitors["first"])


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
            f"integrate: {K.name} fell back from its trace to grad at 0 "
            f"stages"]


def test_a_guard_that_flips_mid_run_hands_back_as_the_numpy_step(
        monkeypatch, caplog):
    # the drift doubles while the piston momentum exceeds 0.35, which it
    # passes within the run: the traced state hands the same stages back to
    # grad, at the same points, as the numpy step through the one-stage
    # kernel traced at the start, and logs their count
    monkeypatch.setattr(dynamics, "MONITOR_BLOCK", 8)
    piston = gas_piston_damper()
    K = ScalarFn(lambda x: piston.Ka(x) * 2.0 if x[3] > 0.35
                 else piston.Ka(x), 8, name="switching drift")
    x0 = liouville_point(piston.gf, (0.0, 1.0, 0.3, -1.0)).packed()
    points, original = [], tracegrad.grad
    monkeypatch.setattr(tracegrad, "grad", lambda K, x: (
        points.append(list(x)), original(K, x))[1])
    with caplog.at_level(logging.INFO, logger="ltk"):
        traced = integrate(phase_rhs(K), x0, 0.5, 1e-2)
    runner_points = points[:]
    del points[:]
    code = tracegrad.FieldCode(K, (), x0.tolist(), 4)
    kernel = code.kernel()
    stepped = integrate(lambda t, x: kernel(x.tolist(), ()), x0, 0.5, 1e-2)
    assert np.array_equal(traced.x, stepped.x)
    assert np.array_equal(traced.x,
                          integrate(_vector_pass(K), x0, 0.5, 1e-2).x)
    assert (traced.x[:, 3] <= 0.35).any() and (traced.x[:, 3] > 0.35).any()
    assert runner_points == points
    assert 0 < len(points) == code.handed_back[0]
    assert _route_lines(caplog) == [
        "integrate: switching drift runs on a traced replay",
        f"integrate: switching drift fell back from its trace to grad at "
        f"{len(points)} stages"]


def test_an_untraceable_generator_flows_on_grad(caplog):
    port = heat_compartment().Kc[0]
    K = ScalarFn(lambda x: port(x) * (2.0 if x[0] == 0.25 else 1.0), 4,
                 name="reads ==")
    x0 = liouville_point(heat_compartment().gf, (0.0, -1.0)).packed()
    with caplog.at_level(logging.INFO, logger="ltk"):
        traced = integrate(phase_rhs(K), x0, 0.5, 1e-2)
    assert _hex(traced.x) == _hex(integrate(_vector_pass(K), x0, 0.5, 1e-2).x)
    assert _route_lines(caplog) == [
        "integrate: reads == runs on the scalar loop: it reads a traced value "
        "with =="]


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
    # traced and in numpy, a batch row follows the state alone
    x0 = np.array([[1.0, 0.5, -1.0, 0.8], [0.3, 2.0, -2.0, 0.1],
                   [1.0, 0.5, -1.0, 0.8]])
    batches = []
    for f in (phase_rhs(K1), _vector_pass(K1)):
        batch = integrate(f, x0, 0.2, 1e-2)
        assert batch.x.shape == (21, 3, 4)
        for row, start in enumerate(x0):
            alone = integrate(f, start, 0.2, 1e-2)
            assert _hex(batch.x[:, row]) == _hex(alone.x)
        batches.append(_hex(batch.x))
    assert batches[0] == batches[1]


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

    def batch(t, x):
        return np.ones((len(x), got))

    with pytest.raises(ValueError, match=rf"shape \(3, {got}\) for a state of "
                       r"shape \(3, 2\)"):
        integrate(batch, np.ones((3, 2)), 0.3, 0.1)


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
    # perturbation p0 - h of that member alone
    c = np.finfo(float).max / 12.0 / (1.0 + 5e-6)
    K = ScalarFn(lambda x: c * x[2] * x[2], dim=4, name="c p0^2")
    grid = [(0.7, -0.5), (1.2, -1.0)]
    with pytest.raises(RuntimeError, match=r"member \[1\.2, -1\.0\] "
                       r"\(parameter 1 -h\).* at t=0\.001\b"), \
            np.errstate(over="ignore"):
        flow_transport_check(half_square_gf(), K, 0.01, grid, dt=1e-3)
    # without that member every trajectory stays finite
    flow_transport_check(half_square_gf(), K, 0.01, grid[:1], dt=1e-3)


@pytest.mark.parametrize("lam", [0.5, 2.0, -1.0])
def test_scaling_commutes_with_degree_one_flow(lam):
    pt = PhasePoint(q=[1.0, 0.5], p=[-1.0, 0.8])
    assert scaling_commutation_check(K1, pt, lam, t_end=1.0) < 1e-8


def test_scaling_commutation_negative_control():
    assert scaling_commutation_check(P0SQ, PT, 2.0, t_end=1.0) > 1e-3
    with pytest.raises(ValueError, match="nonzero"):
        scaling_commutation_check(K1, PT, 0.0, t_end=1.0)


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
