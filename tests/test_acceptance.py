"""Acceptance suite: one test per shipping criterion, at fixed tolerances.

Each test prints a single summary line (criterion number, PASS/FAIL, measured
numbers) before asserting, so a plain ``pytest tests/test_acceptance.py -v -s``
streams the full scorecard.  The criteria exercise the library end to end:
fiber homogeneity of every built-in generator, invariance of the canonical
one-form, agreement of the three dynamical representations (full, chart,
specific), the two thermodynamic laws, heat-exchanger relaxation, the bracket
calculus, surface invariance under the drift, extensivity, scaling
equivariance of flows, and byte-determinism of the CLI.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ltk
from ltk.brackets import (correspondence_residual, degree_check,
                          jacobi_identity_residual, leibniz_defect, poisson)
from ltk.diffkit import ScalarFn
from ltk.dynamics import (integrate, phase_rhs, contact_rhs, reduced_rhs,
                          project_reduced, flow_transport_check,
                          scaling_commutation_check)
from ltk.exprlang import compile_fn
from ltk.geometry import (ContactPoint, PhasePoint, TangentVector, alpha,
                          dehomogenize, euler_residual)
from ltk.portsys import (BUILTIN_SYSTEMS, PortSignal, _sample_surface_params,
                         builtin, energy_balance, simulate)
from ltk.submanifold import (GeneratingFunction, gibbs_duhem_check,
                             lift_phase_fn, liouville_point, specific_form)

SQRT_GF = GeneratingFunction(
    n=2, Fhat=compile_fn("sqrt(q1*q2)", ["q1", "q2"]), I=(1, 2),
    q_homogeneous=True, name="sqrt_area")


def _report(number: int, label: str, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number:>2} ({label}): {status} — {detail}",
          flush=True)


def _builtin_hamiltonians():
    """Every built-in generator: drift, ports and the surface lift."""
    out = []
    for name in sorted(BUILTIN_SYSTEMS):
        system = builtin(name)
        out.append((f"{name}.drift", system.Ka))
        for i, Kc in enumerate(system.Kc, 1):
            out.append((f"{name}.port{i}", Kc))
        out.append((f"{name}.lift", lift_phase_fn(system.gf)))
    return out


def _chart_regular_points(m: int, n_points: int = 100, seed: int = 11):
    """Seeded phase points with the chart costate bounded away from zero."""
    rng = np.random.default_rng(seed)
    points = []
    while len(points) < n_points:
        q = rng.uniform(0.3, 2.0, m)
        p = rng.uniform(-1.5, 1.5, m)
        if abs(p[0]) >= max(0.1 * np.max(np.abs(p)), 1e-2):
            points.append(PhasePoint(q, p))
    return points


@pytest.fixture(scope="module")
def hamiltonians():
    return _builtin_hamiltonians()


@pytest.fixture(scope="module")
def sample_points():
    return {m: _chart_regular_points(m) for m in (2, 4)}


@pytest.fixture(scope="module")
def piston_free_run():
    """Unforced damped piston over the long horizon (shared by 4 and 5).

    The membership guard is disabled for this run: the costate directions
    transverse to the surface grow like exp(damping * t / mass) under the
    adjoint of the damped dynamics, so the residual crosses any fixed
    threshold near t = 40 regardless of the step size.  The transverse
    drift does not feed back into the state (q) trajectory; the energy and
    entropy claims below are asserted directly on the state.
    """
    system = builtin("gas_piston_damper")
    return system, simulate(system, 50.0, 2e-3, monitors=("E_total",),
                            membership_tol=np.inf)


# -- criterion 1: fiber homogeneity ------------------------------------------------


def test_criterion_01_fiber_homogeneity(hamiltonians, sample_points):
    worst = 0.0
    for label, K in hamiltonians:
        for pt in sample_points[K.dim // 2]:
            ratio = euler_residual(K, pt, 1) / (1.0 + abs(float(K(pt.packed()))))
            worst = max(worst, ratio)
    ok = worst <= 1e-9
    _report(1, "fiber homogeneity", ok,
            f"max scaled Euler residual {worst:.2e} vs 1e-9, "
            f"{len(hamiltonians)} generators x 100 points")
    assert ok


# -- criterion 2: canonical one-form invariance --------------------------------------


def _lie_derivative_alpha_fd(K, pt, v, h=1e-2, dt=1e-3):
    """Finite-difference d/dt of (flow_t^* alpha)(v) at t = 0.

    The pullback is evaluated at four stencil times +-h, +-2h by flowing the
    base point and a finite-difference pushforward of ``v``, then combined
    with the fourth-order central formula.
    """
    rhs = phase_rhs(K)
    m = len(pt.q)
    x0 = pt.packed()
    eps = 1e-6 * max(1.0, float(np.max(np.abs(x0))))
    pullback = {}
    for sign in (1.0, -1.0):
        f = rhs if sign > 0 else (lambda t, x: -rhs(t, x))
        center = integrate(f, x0, 2 * h, dt)
        plus = integrate(f, x0 + eps * v, 2 * h, dt)
        minus = integrate(f, x0 - eps * v, 2 * h, dt)
        for steps, t in ((int(round(h / dt)), sign * h),
                         (int(round(2 * h / dt)), sign * 2 * h)):
            y = center.x[steps]
            w = (plus.x[steps] - minus.x[steps]) / (2.0 * eps)
            pullback[t] = float(np.dot(y[m:], w[:m]))
    return abs(-pullback[2 * h] + 8.0 * pullback[h]
               - 8.0 * pullback[-h] + pullback[-2 * h]) / (12.0 * h)


def test_criterion_02_canonical_form_invariance(hamiltonians, sample_points):
    worst_pairing = 0.0
    for label, K in hamiltonians:
        for pt in sample_points[K.dim // 2]:
            value = float(K(pt.packed()))
            v = phase_rhs(K)(0.0, pt.packed())
            m = len(pt.q)
            defect = abs(alpha(pt, TangentVector(v[:m], v[m:])) - value)
            worst_pairing = max(worst_pairing, defect / (1.0 + abs(value)))
    rng = np.random.default_rng(29)
    worst_lie = 0.0
    for label, K in hamiltonians:
        m = K.dim // 2
        for pt in sample_points[m][:2]:
            v = rng.standard_normal(2 * m)
            worst_lie = max(worst_lie, _lie_derivative_alpha_fd(K, pt, v))
    ok = worst_pairing <= 1e-9 and worst_lie <= 1e-6
    _report(2, "canonical one-form invariance", ok,
            f"max scaled alpha(X_K)-K {worst_pairing:.2e} vs 1e-9; "
            f"max FD Lie derivative {worst_lie:.2e} vs 1e-6")
    assert worst_pairing <= 1e-9
    assert worst_lie <= 1e-6


# -- criterion 3: projection consistency ----------------------------------------------


def test_criterion_03_projection_consistency():
    system = builtin("gas_piston_damper")
    K = system.Ka                                     # u = 0: drift only
    x0 = liouville_point(system.gf, system.default_params).packed()
    full = integrate(phase_rhs(K), x0, 10.0, 1e-3)
    chart = integrate(contact_rhs(dehomogenize(K, 0), 0),
                      np.concatenate([x0[:4], x0[5:] / -x0[4]]), 10.0, 1e-3)
    q, p = full.x[:, :4], full.x[:, 4:]
    projected = np.hstack([q, p[:, 1:] / -p[:, [0]]])
    deviation = float(np.max(np.abs(projected - chart.x)))
    ok = deviation <= 1e-6
    _report(3, "projection consistency", ok,
            f"max |projected full - chart| {deviation:.2e} vs 1e-6 "
            f"over t in [0, 10]")
    assert ok


# -- criterion 4: first law -------------------------------------------------------------


def test_criterion_04_first_law(piston_free_run):
    system = builtin("gas_piston_damper")
    forced = simulate(system, 10.0, 1e-3, u=PortSignal.sinusoid(0.1, 1.0))
    balance = energy_balance(system, forced)
    defect = abs(balance["defect"])
    balance_tol = 1e-5 * (1.0 + abs(balance["delta"]))

    _, free = piston_free_run
    E = free.monitors["E_total"]
    drift = float(np.max(np.abs(E - E[0])))
    drift_tol = 1e-6 * abs(E[0])

    ok = defect <= balance_tol and drift <= drift_tol
    _report(4, "first law", ok,
            f"forced balance defect {defect:.2e} vs {balance_tol:.1e}; "
            f"unforced energy drift {drift:.2e} vs {drift_tol:.1e}")
    assert defect <= balance_tol
    assert drift <= drift_tol


# -- criterion 5: second law -------------------------------------------------------------


def test_criterion_05_second_law(piston_free_run):
    _, free = piston_free_run
    S = free.q[:, 1]
    min_step = float(np.min(np.diff(S)))
    steps_ok = min_step >= -1e-9
    pi_final = abs(float(free.q[-1, 3]))
    rest_ok = pi_final <= 1e-4
    _report(5, "second law", steps_ok and rest_ok,
            f"min entropy step {min_step:.2e} vs -1e-9; "
            f"|pi(50)| {pi_final:.7f} vs 1e-4")
    assert steps_ok
    # The piston never comes to rest at this horizon: with the gas still
    # expanding there is no restoring force, so the momentum settles at the
    # quasi-steady value mass*P/damping ~ 0.1 instead of decaying to zero.
    # The threshold is kept as specified and the measured value reported.
    assert rest_ok


# -- criterion 6: heat-exchanger relaxation -----------------------------------------------


def test_criterion_06_heat_exchanger_relaxation():
    system = builtin("heat_exchanger")
    result = simulate(system, 20.0, 2e-3,
                      params=(np.log(2.0), 0.0, -1.0, -1.0),
                      membership_tol=np.inf)
    E_total = result.q[:, 0] + result.q[:, 2]
    energy_drift = float(np.max(np.abs(E_total - 3.0)))
    gap = abs(float(result.q[-1, 0] - result.q[-1, 2]))   # T_i = E_i here
    S_total = result.q[:, 1] + result.q[:, 3]
    gain = float(S_total[-1] - S_total[0])
    expected_gain = 2.0 * np.log(1.5) - np.log(2.0)
    gain_err = abs(gain - expected_gain)
    ok = energy_drift <= 1e-8 and gap <= 1e-6 and gain_err <= 1e-4
    _report(6, "heat-exchanger relaxation", ok,
            f"energy drift {energy_drift:.2e} vs 1e-8; final gap {gap:.2e} "
            f"vs 1e-6; entropy gain err {gain_err:.2e} vs 1e-4")
    assert energy_drift <= 1e-8
    assert gap <= 1e-6
    assert gain_err <= 1e-4


# -- criterion 7: bracket structure ----------------------------------------------------------


def test_criterion_07_bracket_structure():
    # corpus over two and three coordinates: linear-in-p generators and
    # chart-ratio (degree-0) functions
    Q1P0 = ScalarFn(lambda x: x[1] * x[2], dim=4, name="q1 p0")
    Q0P1 = ScalarFn(lambda x: x[0] * x[3], dim=4, name="q0 p1")
    Q0P0 = ScalarFn(lambda x: x[0] * x[2], dim=4, name="q0 p0")
    G1 = ScalarFn(lambda x: x[3] / -x[2], dim=4, name="p1/(-p0)")
    R1 = ScalarFn(lambda x: x[4] / -x[3], dim=6, name="p1/(-p0)")
    R2 = ScalarFn(lambda x: x[5] / -x[3], dim=6, name="p2/(-p0)")

    rng = np.random.default_rng(31)
    antisym = 0.0
    jacobi_res = 0.0
    corresp = 0.0
    for _ in range(20):
        pt = PhasePoint(rng.uniform(0.5, 1.5, 2),
                        rng.uniform(0.3, 1.2, 2) * rng.choice([-1.0, 1.0], 2))
        antisym = max(antisym, abs(poisson(Q1P0, Q0P1, pt)
                                   + poisson(Q0P1, Q1P0, pt)))
        jacobi_res = max(jacobi_res,
                         jacobi_identity_residual(Q1P0, Q0P1, Q0P0, pt))
        corresp = max(corresp, correspondence_residual(Q1P0, Q0P1, pt))

    deg_a = degree_check(1, 1, Q1P0, Q0P1)
    deg_b = degree_check(1, 0, Q1P0, G1)
    deg_c = degree_check(0, 0, R1, R2)
    assert (deg_a.expected, deg_b.expected, deg_c.expected) == (
        "degree-1", "degree-0", "zero")
    deg_worst = max(deg_a.max_residual, deg_b.max_residual, deg_c.max_residual)

    q0_chart = ScalarFn(lambda x: x[0], dim=3, name="q0")
    gamma1 = ScalarFn(lambda x: x[2], dim=3, name="gamma1")
    leibniz = 0.0
    for _ in range(20):
        cpt = ContactPoint(0, rng.uniform(0.5, 1.5, 2),
                           rng.uniform(0.2, 2.0, 1) * rng.choice([-1.0, 1.0]))
        g1 = float(cpt.gamma[0])
        defect = leibniz_defect(q0_chart, gamma1, gamma1, cpt)
        leibniz = max(leibniz, abs(defect + g1 * g1))

    ok = (antisym == 0.0 and deg_worst <= 1e-9 and jacobi_res <= 1e-6
          and leibniz <= 1e-9 and corresp <= 1e-6)
    _report(7, "bracket structure", ok,
            f"antisymmetry {antisym:.1e} (exact); degree residuals "
            f"{deg_worst:.2e} vs 1e-9; Jacobi {jacobi_res:.2e} vs 1e-6; "
            f"Leibniz defect err {leibniz:.2e} vs 1e-9; correspondence "
            f"{corresp:.2e} vs 1e-6")
    assert antisym == 0.0
    assert deg_worst <= 1e-9
    assert jacobi_res <= 1e-6
    assert leibniz <= 1e-9
    assert corresp <= 1e-6


# -- criterion 8: surface invariance under the drift ------------------------------------------


def test_criterion_08_surface_invariance():
    on_surface = 0.0
    drift = 0.0
    alpha_res = 0.0
    for name in sorted(BUILTIN_SYSTEMS):
        system = builtin(name)
        grid = [system.default_params] + _sample_surface_params(system, 5, 17)
        for params in grid:
            pt = liouville_point(system.gf, params)
            on_surface = max(on_surface, abs(float(system.Ka(pt.packed()))))
        report = flow_transport_check(system.gf, system.Ka, 1.0, grid[:3],
                                      dt=2e-3)
        drift = max(drift, report.membership_drift)
        alpha_res = max(alpha_res, report.alpha_residual)
    ok = on_surface <= 1e-9 and drift <= 1e-6
    _report(8, "surface invariance", ok,
            f"max |drift generator| on surface {on_surface:.2e} vs 1e-9; "
            f"membership drift at t=1 {drift:.2e} vs 1e-6 "
            f"(one-form on transported tangents {alpha_res:.2e})")
    assert on_surface <= 1e-9
    assert drift <= 1e-6


# -- criterion 9: extensivity and reduction ------------------------------------------------------


def test_criterion_09_extensivity_and_reduction():
    gas = builtin("ideal_gas_SVN")
    rng = np.random.default_rng(23)
    cases = [
        ("ideal_gas_SVN", gas.gf, _sample_surface_params(gas, 100, 23),
         (1.0, 1.0, 1.0, -1.0)),
        ("sqrt_area", SQRT_GF,
         [(rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0),
           -rng.uniform(0.5, 1.5)) for _ in range(100)],
         (1.0, 4.0, -1.0)),
    ]
    qp_rel = 0.0
    beta_res = 0.0
    flow_dev = 0.0
    for label, gf, members, start in cases:
        gd = gibbs_duhem_check(gf, members)
        qp_rel = max(qp_rel, gd.max_qp_rel)
        beta_res = max(beta_res, gd.max_beta)

        Fbar = specific_form(gf)
        Kbar = ScalarFn(lambda x, Fbar=Fbar, n=gf.n: Fbar(x[1:n]),
                        dim=2 * gf.n, dual_safe=Fbar.dual_safe,
                        name=f"reduced {label}")
        x0 = liouville_point(gf, start).packed()
        full = integrate(phase_rhs(lift_phase_fn(gf)), x0, 1.0, 1e-3)
        reduced = integrate(reduced_rhs(Kbar), project_reduced(x0), 1.0, 1e-3)
        for x, r in zip(full.x[::20], reduced.x[::20]):
            flow_dev = max(flow_dev, float(np.max(np.abs(project_reduced(x)
                                                         - r))))
    ok = qp_rel <= 1e-10 and beta_res <= 1e-9 and flow_dev <= 1e-6
    _report(9, "extensivity and reduction", ok,
            f"max scaled q.p {qp_rel:.2e} vs 1e-10; one-form on tangents "
            f"{beta_res:.2e} vs 1e-9 (100 members); reduced-vs-projected "
            f"flow {flow_dev:.2e} vs 1e-6")
    assert qp_rel <= 1e-10
    assert beta_res <= 1e-9
    assert flow_dev <= 1e-6


# -- criterion 10: scaling equivariance of flows ---------------------------------------------------


def test_criterion_10_scaling_commutation():
    piston = builtin("gas_piston_damper")
    compartment = builtin("heat_compartment")
    exchanger = builtin("heat_exchanger")
    gas = builtin("ideal_gas_SVN")
    cases = [
        ("gas_piston_damper.drift", piston.Ka, piston),
        ("heat_compartment.port1", compartment.Kc[0], compartment),
        ("heat_exchanger.drift", exchanger.Ka, exchanger),
        ("ideal_gas_SVN.lift", lift_phase_fn(gas.gf), gas),
    ]
    worst = 0.0
    for label, K, system in cases:
        pt = liouville_point(system.gf,
                             _sample_surface_params(system, 1, 41)[0])
        for lam in (0.5, 2.0, -1.0):
            worst = max(worst,
                        scaling_commutation_check(K, pt, lam, 1.0, dt=1e-2))
    control_K = ScalarFn(lambda x: x[4] ** 2, dim=8, name="p0^2")
    control_pt = liouville_point(piston.gf, piston.default_params)
    control = scaling_commutation_check(control_K, control_pt, 2.0, 1.0,
                                        dt=1e-2)
    ok = worst <= 1e-8 and control > 1e-3
    _report(10, "scaling commutation", ok,
            f"max flow/scaling gap {worst:.2e} vs 1e-8 over lam in "
            f"{{0.5, 2, -1}}; quadratic-costate control {control:.2e} > 1e-3")
    assert worst <= 1e-8
    assert control > 1e-3


# -- criterion 11: byte-deterministic output --------------------------------------------------------


def test_criterion_11_deterministic_csv(tmp_path):
    outputs = []
    for name in ("first.csv", "second.csv"):
        path = tmp_path / name
        cmd = [sys.executable, "-m", "ltk", "simulate",
               "--system", "gas_piston_damper", "--u", "0.1*sin(t)",
               "--t-end", "2", "--dt", "1e-3", "--output", str(path)]
        # run from the package's parent, so `-m ltk` finds it uninstalled
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              cwd=Path(ltk.__file__).resolve().parent.parent)
        assert proc.returncode == 0, proc.stderr
        outputs.append(path.read_bytes())
    header = outputs[0].split(b"\n", 1)[0].decode()
    identical = outputs[0] == outputs[1]
    ok = identical and header == "t,q0,q1,q2,q3,p0,p1,p2,p3,y_p1,y_e1,K_res,alpha_res"
    _report(11, "deterministic CSV", ok,
            f"two runs byte-identical: {identical}; "
            f"{len(outputs[0])} bytes, header as documented")
    assert ok
