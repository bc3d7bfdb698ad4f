"""Each sampled check runs its samples as one batch; these tests hold every
batched check to a reference loop over the single-point API, bit for bit
(``float.hex``), and check that a failing sample is named.  The integrated
checks flow each trajectory alone on K's traced code; each is held to its
row of the batch vector pass of ``phase_rhs``, with its errors.

The reference loops are the checks as they ran one sample at a time.  The
single-point helpers they call (``liouville_point``, ``membership_residual``,
``euler_residual``) are one-row passes of the row helpers, and the port
flows a single dual pass (``conftest.port_flow``),
so the loops check that every row comes out as it would alone, whatever
the batch around it.  The scalar reference sits at ``grad``:
``test_diffkit`` holds batch rows of the generators and of the lift to its
scalar loop.
"""

import json
import logging
import math
import re

import numpy as np
import pytest
from conftest import TracedGradient, port_flow
from test_diffkit import SYSTEMS, _hex
from test_dynamics import _vector_pass, half_square_gf

from ltk import cli, diffkit, dynamics, portsys, tracegrad
from ltk.brackets import degree_check, poisson_fn
from ltk.diffkit import (ScalarFn, _values_and_fd_dirderivs, dirderiv, ln,
                         sqrt)
from ltk.dynamics import (_PhaseField, contact_rhs, flow_transport_check,
                          integrate, phase_rhs, scaling_commutation_check,
                          validate_degree)
from ltk.exprlang import compile_fn
from ltk.geometry import (EulerFieldKind, PhasePoint, beta, dehomogenize,
                          euler_residual, project, sample_phase_points,
                          scale_costate)
from ltk.portsys import (_port_flows, _sample_surface_params,
                         gas_piston_damper, heat_compartment, heat_exchanger,
                         ideal_gas_SVN, interconnect, validate)
from ltk.submanifold import (TANGENT_STEP, GeneratingFunction,
                             _liouville_rows, gibbs_duhem_check,
                             liouville_point, membership_norm, tangent_basis)

VALIDATED = dict(SYSTEMS, compartment=heat_compartment, ideal_gas=ideal_gas_SVN)
SKIPPED = (ValueError, ZeroDivisionError, ArithmeticError)


# -- reference loops over single points -----------------------------------------


def _relative_euler_residual(K, pt, r):
    res = euler_residual(K, pt, r, EulerFieldKind.Z)
    return abs(res) / (1.0 + abs(float(K(pt.packed()))))


def _validate_degree_loop(K, degree, n_samples, seed):
    worst, evaluated = 0.0, 0
    for pt in sample_phase_points(K.dim // 2, n_samples, seed):
        try:
            worst = max(worst, _relative_euler_residual(K, pt, degree))
        except SKIPPED:
            continue
        evaluated += 1
    return worst, evaluated


def _chart_form_loop(system, pt, chart, Khat):
    m = system.n_coords
    pc = pt.p[chart]
    if abs(pc) < 1e-9 * float(np.max(np.abs(pt.p))):
        return 0.0
    rep = scale_costate(pt, -1.0 / pc)
    full = phase_rhs(system.Ka)(0.0, rep.packed())[:m]
    rates = contact_rhs(Khat, chart)(0.0, project(rep, chart).packed())
    return float(np.max(np.abs(full - rates[:m])))


def _validate_loop(system, n_samples, seed):
    m = system.n_coords
    generators = (system.Ka,) + system.Kc
    degree = max(_validate_degree_loop(K, 1, 30, seed)[0] for K in generators)
    charts = [0] + ([1] if m > 1 else [])
    khats = {c: dehomogenize(system.Ka, c) for c in charts}
    on_surface = first_law = chart_form = 0.0
    second_min = np.inf
    samples = _sample_surface_params(system, n_samples, seed)
    for params in samples:
        pt = liouville_point(system.gf, params)
        x = pt.packed()
        for K in generators:
            on_surface = max(on_surface, abs(float(K(x))))
        first_law = max(first_law, abs(
            port_flow(system.Ka, x, m, system.energy_indices)))
        second_min = min(second_min,
                         port_flow(system.Ka, x, m, system.entropy_indices))
        for c in charts:
            chart_form = max(chart_form,
                             _chart_form_loop(system, pt, c, khats[c]))
    return [len(samples), degree, on_surface, first_law, float(second_min),
            chart_form]


def _fd_euler_residual(B, pt, r):
    """The relative Euler residual of degree r of ``B`` at ``pt`` by the
    central difference along the fiber Euler field that ``ltk bracket``
    takes of its bracket."""
    x = pt.packed()[None]
    m = x.shape[1] // 2
    along = np.hstack([np.zeros_like(x[:, :m]), x[:, m:]])
    val, dot = _values_and_fd_dirderivs(
        lambda y: np.array([float(B(row)) for row in y]), x, along)
    return float(abs(dot[0] - r * val[0]) / (1.0 + abs(val[0])))


def _degree_check_loop(degree1, degree2, K1, K2, points):
    B = poisson_fn(K1, K2)
    worst = worst_input = 0.0
    used = 0
    for pt in points:
        x = pt.packed()
        try:
            in_res = max(_relative_euler_residual(K1, pt, degree1),
                         _relative_euler_residual(K2, pt, degree2))
            if degree1 == degree2 == 0:
                res = abs(float(B(x))) / (1.0 + abs(float(K1(x)) * float(K2(x))))
            else:
                res = _fd_euler_residual(B, pt, degree1 + degree2 - 1)
        except SKIPPED:
            continue
        worst = max(worst, res)
        worst_input = max(worst_input, in_res)
        used += 1
    return worst, worst_input, used


def _antisymmetry_loop(K1, K2, points):
    worst = 0.0
    for pt in points:
        x = pt.packed()
        try:
            value = float(poisson_fn(K1, K2)(x))
            along = dirderiv(K1, x, phase_rhs(K2)(0.0, x))
        except SKIPPED:
            continue
        worst = max(worst, abs(value + along) / (1.0 + abs(value)))
    return worst


def _tangent_loop(gf, params):
    params = [float(v) for v in params]
    out = []
    for k, v in enumerate(params):
        quotients = []
        for h in (TANGENT_STEP * max(1.0, abs(v)),
                  0.5 * TANGENT_STEP * max(1.0, abs(v))):
            plus, minus = list(params), list(params)
            plus[k], minus[k] = params[k] + h, params[k] - h
            a, b = liouville_point(gf, plus), liouville_point(gf, minus)
            quotients.append(((a.q - b.q) / (2.0 * h), (a.p - b.p) / (2.0 * h)))
        (q_full, p_full), (q_half, p_half) = quotients
        out.append(((4.0 * q_half - q_full) / 3.0, (4.0 * p_half - p_full) / 3.0))
    return out


def _gibbs_duhem_loop(gf, samples):
    max_qp = max_qp_rel = max_beta = max_w = 0.0
    for params in samples:
        pt = liouville_point(gf, params)
        qp = float(np.dot(pt.q, pt.p))
        scale = max(1.0, float(np.sum(np.abs(pt.q * pt.p))))
        max_qp = max(max_qp, abs(qp))
        max_qp_rel = max(max_qp_rel, abs(qp) / scale)
        for _, vp in _tangent_loop(gf, params):
            max_beta = max(max_beta, abs(float(np.dot(pt.q, vp))))
        max_w = max(max_w, membership_norm(
            gf, np.concatenate([2.0 * pt.q, pt.p])))
    return [len(samples), max_qp, max_qp_rel, max_beta, max_w]


def _second_law_scan_loop(system, n_check=20, seed=13):
    worst_rate, worst_params = np.inf, None
    M = system.n_coords
    for params in _sample_surface_params(system, n_check, seed):
        x = liouville_point(system.gf, params).packed()
        rate = port_flow(system.Ka, x, M, system.entropy_indices)
        if rate < worst_rate:
            worst_rate, worst_params = rate, params
    return worst_rate, worst_params


# -- batched against the loops ----------------------------------------------------


@pytest.mark.parametrize("seed", [9, 4, 21])
@pytest.mark.parametrize("name", sorted(VALIDATED))
def test_validate_matches_the_per_sample_loop_bit_for_bit(name, seed):
    system = VALIDATED[name]()
    report = validate(system, n_samples=25, seed=seed)
    assert report.passed
    batched = [report.n_samples, report.degree_residual,
               report.on_surface_residual, report.first_law_residual,
               report.second_law_min, report.chart_form_residual]
    assert _hex(batched) == _hex(_validate_loop(system, 25, seed))


# degree-1 and degree-0 operands that are undefined at some sample points
HOLES = {
    "sqrt": (ScalarFn(lambda x: x[1] * sqrt(x[2] * x[3]), 4, name="q1 sqrt(p0 p1)"), 1),
    "ln": (ScalarFn(lambda x: ln(x[0] - 1.0) * x[3], 4, name="ln(q0-1) p1"), 1),
    "ratio": (ScalarFn(lambda x: ln(x[1] - 0.9) * x[3] / x[2], 4,
                       name="ln(q1-0.9) p1/p0"), 0),
    "smooth": (ScalarFn(lambda x: x[0] * x[3] - x[1] * x[2], 4, name="q0 p1 - q1 p0"), 1),
    "ratio_smooth": (ScalarFn(lambda x: x[1] * x[2] / x[3], 4, name="q1 p0/p1"), 0),
}
PAIRS = [("sqrt", "ln"), ("ln", "smooth"), ("smooth", "sqrt"),
         ("sqrt", "ratio"), ("ratio", "ln"), ("ratio", "ratio_smooth")]


@pytest.mark.parametrize("seed", [5, 12])
@pytest.mark.parametrize("first, second", PAIRS)
def test_degree_check_skips_the_same_samples_bit_for_bit(first, second, seed):
    (K1, d1), (K2, d2) = HOLES[first], HOLES[second]
    points = sample_phase_points(2, 40, seed)
    worst, worst_input, used = _degree_check_loop(d1, d2, K1, K2, points)
    assert 0 < used < 40
    report = degree_check(d1, d2, K1, K2, points=points)
    assert report.n_samples == used
    assert _hex([report.max_residual, report.max_input_residual]) == \
        _hex([worst, worst_input])


@pytest.mark.parametrize("first, second", PAIRS)
def test_bracket_antisymmetry_matches_the_per_point_loop(first, second,
                                                         capsys, monkeypatch):
    (K1, d1), (K2, d2) = HOLES[first], HOLES[second]
    monkeypatch.setattr(cli, "_bracket_operands", lambda cfg: (K1, K2, d1, d2))
    cli.main(["bracket", "--samples", "30", "--seed", "6"])
    report = json.loads(capsys.readouterr().out)
    points = sample_phase_points(2, 30, 6)
    assert report["antisymmetry"]["max_residual"].hex() == \
        _antisymmetry_loop(K1, K2, points).hex()
    worst, worst_input, _ = _degree_check_loop(d1, d2, K1, K2, points)
    assert report["operand_degrees"]["max_residual"].hex() == worst_input.hex()


SQRT_AREA = GeneratingFunction(
    n=3, Fhat=compile_fn("sqrt(q1*q2) + q3", ["q1", "q2", "q3"]), I=(1, 2, 3),
    q_homogeneous=True, name="sqrt_area")


@pytest.mark.parametrize("seed", [0, 8])
@pytest.mark.parametrize("gf", [ideal_gas_SVN().gf, SQRT_AREA],
                         ids=["ideal_gas", "sqrt_area"])
def test_gibbs_duhem_report_and_tangents_match_the_loop(gf, seed):
    rng = np.random.default_rng(seed)
    samples = [np.concatenate([rng.uniform(0.6, 1.5, 3), [-rng.uniform(0.5, 1.5)]])
               for _ in range(25)]
    report = gibbs_duhem_check(gf, samples)
    batched = [report.n_samples, report.max_qp_abs, report.max_qp_rel,
               report.max_beta, report.max_w_membership]
    assert _hex(batched) == _hex(_gibbs_duhem_loop(gf, samples))
    for v, (vq, vp) in zip(tangent_basis(gf, samples[0]),
                           _tangent_loop(gf, samples[0])):
        assert _hex(v.vq) == _hex(vq) and _hex(v.vp) == _hex(vp)
        assert abs(beta(liouville_point(gf, samples[0]), v)) < 1e-9


def _fourier(sign):
    def law(outputs):
        (_, ye1), (_, ye2) = outputs
        w = sign * (1.0 / ye1[0] - 1.0 / ye2[0])
        return (-w,), (w,)
    return law


@pytest.mark.parametrize("custom", [False, True], ids=["builtin", "expression"])
def test_interconnect_scan_matches_the_per_sample_loop(custom):
    if custom:
        parts = [cli._build_custom_system({
            "name": name, "dimensions": 2, "gf": {"expr": "1.3*exp(q1/1.3)"},
            "partition": {"energy": [0], "entropy": [1]}, "Ka": "0",
            "Kc": ["p1 / exp(q1/1.3) + p0"], "initial": [0.0, -1.0],
            "param_box": [[-0.5, 1.0], [-1.5, -0.5]]}) for name in "ab"]
    else:
        parts = [heat_compartment(C=1.3, name="a"), heat_compartment(name="b")]
    for sign in (1.0, -1.0):
        unchecked = interconnect(parts, _fourier(sign), n_check=0)
        M = unchecked.n_coords
        samples = np.array(_sample_surface_params(unchecked, 20, 13))
        X = _liouville_rows(unchecked.gf, samples)
        # the scan is one vector pass of the composed drift
        assert diffkit._batch_pass(unchecked.Ka, X,
                                   diffkit._seeds(*X.shape)) is not None
        rates = _port_flows(unchecked.Ka, X, M, unchecked.entropy_indices)
        assert _hex(rates) == _hex([
            port_flow(unchecked.Ka, liouville_point(unchecked.gf, p).packed(),
                       M, unchecked.entropy_indices) for p in samples])
    # the reversed law is rejected at the loop's worst rate and sample
    rate, params = _second_law_scan_loop(unchecked)
    assert rate < 0.0
    with pytest.raises(ValueError) as err:
        interconnect(parts, _fourier(-1.0))
    assert str(err.value) == (
        f"interconnection 'a+b' violates the second law: the composed drift "
        f"produces entropy at rate {rate:.3g} at surface parameters "
        f"{np.asarray(params).tolist()}")


# -- a failing sample is named ---------------------------------------------------------


def _first_failing(samples, evaluate):
    for params in samples:
        try:
            evaluate(params)
        except Exception:      # noqa: BLE001 - any error marks the sample
            return [float(v) for v in params]
    raise AssertionError("no sample fails")


def test_validate_names_the_failing_sample(tmp_path, capsys):
    spec = {"name": "holey", "dimensions": 2, "gf": {"expr": "exp(q1)"},
            "partition": {"energy": [0], "entropy": [1]}, "Ka": "0",
            "Kc": ["p1 / exp(q1) + p0 + 0 * ln(q1 + 0.2)"],
            "initial": [0.0, -1.0], "param_box": [[-0.5, 1.0], [-1.5, -0.5]]}
    system = cli._build_custom_system(spec)
    first = _first_failing(
        _sample_surface_params(system, 25, 3),
        lambda p: system.Kc[0](liouville_point(system.gf, p).packed()))
    config = tmp_path / "holey.json"
    config.write_text(json.dumps({"command": "validate", "system": {"custom": spec},
                                  "seed": 3}))
    assert cli.run(str(config)) == 1
    err = capsys.readouterr().err
    assert "ln requires a positive argument" in err
    assert f"at surface parameters {first}" in err


def test_reduce_names_the_failing_sample(tmp_path, capsys):
    spec = {"name": "area", "dimensions": 3,
            "gf": {"expr": "sqrt(q1*q2)", "q_homogeneous": True},
            "partition": {"energy": [0], "entropy": [1]},
            "param_box": [[0.5, 1.5], [-0.5, 1.0], [-1.5, -0.5]]}
    system = cli._build_custom_system(spec)
    first = _first_failing(_sample_surface_params(system, 25, 2),
                           lambda p: _tangent_loop(system.gf, p))
    config = tmp_path / "area.json"
    config.write_text(json.dumps({"command": "reduce", "system": {"custom": spec},
                                  "seed": 2}))
    assert cli.run(str(config)) == 1
    err = capsys.readouterr().err
    assert "sqrt" in err and f"at surface parameters {first}" in err


def test_interconnect_names_the_failing_sample():
    parts = [heat_compartment(name="a"), heat_compartment(name="b")]

    def law(outputs):      # Fourier, defined where T1 < 1 only
        (_, ye1), (_, ye2) = outputs
        w = 1.0 / ye1[0] - 1.0 / ye2[0] + 0.0 * ln(ye1[0] - 1.0)
        return (-w,), (w,)

    probe = interconnect(parts, _fourier(1.0))

    def at(params):       # y_e of each compartment is 1/T = exp(-S)
        q = liouville_point(probe.gf, params).q
        law([([1.0], [1.0 / math.exp(q[1])]), ([1.0], [1.0 / math.exp(q[3])])])

    first = _first_failing(_sample_surface_params(probe, 20, 13), at)
    with pytest.raises(ValueError, match="ln requires a positive argument") as err:
        interconnect(parts, law)
    assert f"at surface parameters {first}" in str(err.value)


def test_flowcheck_names_the_member_and_time_of_a_degenerate_chart(tmp_path,
                                                                    capsys):
    # dp0/dt = 1 carries the chart costate from -1 to 0 at t = 1
    spec = {"name": "drifting", "dimensions": 2, "gf": {"expr": "exp(q1)"},
            "partition": {"energy": [0], "entropy": [1]}, "Ka": "-q0",
            "initial": [0.0, -1.0]}
    config = tmp_path / "drift.json"
    config.write_text(json.dumps({"command": "flowcheck", "samples": 1,
                                  "t_end": 1.0, "dt": 0.25,
                                  "system": {"custom": spec}}))
    assert cli.run(str(config)) == 1
    err = capsys.readouterr().err
    assert "ChartDegenerateError" in err
    assert "on the flow of surface member [0.0, -1.0] at t=1" in err


def test_flowcheck_names_the_member_of_a_non_finite_start(monkeypatch):
    # a lifted start row of the perturbation route that is not finite
    # fails its lift, before any step, named by its member and its
    # perturbation; flowcheck lifts its members before either route, and
    # names a member whose lift is not finite
    system = heat_compartment()
    grid = [[float(v) for v in params]
            for params in _sample_surface_params(system, 2, 5)]
    original = dynamics._liouville_rows
    poisoned = []

    def lifted(gf, starts):
        X = original(gf, starts)
        X[(np.asarray(starts) == poisoned).all(axis=1), 0] = np.nan
        return X

    monkeypatch.setattr(dynamics, "_liouville_rows", lifted)
    v = grid[1][0]
    poisoned[:] = [v + dynamics._perturbation_step(v), grid[1][1]]
    with pytest.raises(ValueError, match=r"^non-finite result \[nan, .*"
                       + re.escape(f"] at surface member {grid[1]} "
                                   f"(parameter 0 +h)") + "$"):
        dynamics._perturbed_transport(system.gf, system.Ka, grid, 0.05, 1e-3)
    poisoned[:] = grid[1]
    with pytest.raises(ValueError, match=re.escape(
            f"at surface member {grid[1]}") + "$"):
        flow_transport_check(system.gf, system.Ka, 0.05, grid)


def test_expression_domain_holes_are_skipped_like_builtin_ones(capsys):
    # an expression undefined at some samples raises ExprEvalError there,
    # which the sampled checks skip as they skip a built-in's ValueError
    k1, k2 = "ln(q0 - 1)*p0", "q0*p1"
    code = cli.main(["bracket", "--k1", k1, "--k2", k2, "--dimensions", "2"])
    report = json.loads(capsys.readouterr().out)
    assert code == (0 if all(c["pass"] for c in report.values()) else 1)
    names = ["q0", "q1", "p0", "p1"]
    K1, K2 = compile_fn(k1, names), compile_fn(k2, names)
    points = sample_phase_points(2, 25, 0)       # the bracket defaults
    worst, worst_input, used = _degree_check_loop(1, 1, K1, K2, points)
    assert 0 < used < 25
    assert degree_check(1, 1, K1, K2, points=points).n_samples == used
    assert report["bracket_degree-1"]["max_residual"].hex() == worst.hex()
    assert report["operand_degrees"]["max_residual"].hex() == worst_input.hex()
    assert report["antisymmetry"]["max_residual"].hex() == \
        _antisymmetry_loop(K1, K2, points).hex()
    # q0 - 0.8 is negative at a quarter of the samples
    K = compile_fn("ln(q0 - 0.8)*p0", names)
    worst, evaluated = _validate_degree_loop(K, 1, 40, 3)
    assert 40 // 2 <= evaluated < 40
    assert validate_degree(K, 1, n_samples=40, seed=3).hex() == worst.hex()


# -- the integrated checks' traced field ------------------------------------------


def _traced(K) -> _PhaseField:
    """The canonical field of K as the integrated checks build it, its
    route logged after "test"."""
    return _PhaseField(K, label="test")


def _vector_route(monkeypatch):
    """Let no trace record K, so the integrated checks take the vector pass
    of ``phase_rhs`` at every stage."""
    monkeypatch.setattr(tracegrad._Trace, "record",
                        lambda trace, K: (None, "untraced"))


def _grad_passes(monkeypatch) -> list:
    """The number of rows of each gradient pass of the vector pass of
    ``phase_rhs`` from now on, in order, 1 for a single state."""
    calls, original = [], dynamics.grad

    def counted(K, x):
        calls.append(len(x) if np.ndim(x) == 2 else 1)
        return original(K, x)

    monkeypatch.setattr(dynamics, "grad", counted)
    return calls


def _flow_starts(system, n: int, seed: int) -> np.ndarray:
    params = [system.default_params] if system.default_params else []
    params += _sample_surface_params(system, n, seed)
    return _liouville_rows(system.gf, params)


def _log_lines(caplog, check: str) -> list:
    return [r.getMessage() for r in caplog.records
            if r.getMessage().startswith(f"{check}: ")]


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_the_traced_flow_is_the_vector_pass_bit_for_bit(name, monkeypatch,
                                                        caplog):
    # built-in and expression drifts, and an expression port generator:
    # each start alone, on its block runner, is its row of the batch's
    # vector pass
    system = SYSTEMS[name]()
    X0 = _flow_starts(system, 5, 11)
    calls = _grad_passes(monkeypatch)
    for K in (system.Ka,) + system.Kc:
        vector = integrate(_vector_pass(K), X0, 0.05, 1e-2).x
        calls.clear()
        for i, x0 in enumerate(X0):
            caplog.clear()
            with caplog.at_level(logging.INFO, logger="ltk"):
                traced = integrate(_traced(K), x0, 0.05, 1e-2)
            assert calls == []
            assert _hex(traced.x) == _hex(vector[:, i])
            assert _log_lines(caplog, "test") == [
                f"test: {K.name} runs on a traced replay",
                "test: blocks rerun on the vector pass: 0"]
        # the row field, at every bit, from the lines the runner inlines
        listed = TracedGradient(K, (), X0[0])
        for X in (X0, vector[-1]):
            rows = phase_rhs(K)(0.0, X)
            for x, row in zip(X.tolist(), rows):
                assert _hex(dynamics._canonical(np.array(listed(x)))) == \
                    _hex(row)
        assert listed.handed == 0


def _flowcheck_grid(system) -> list:
    grid = [system.default_params or (0.0, 1.0, 0.3, -1.0)]
    return [[float(v) for v in params]
            for params in grid + _sample_surface_params(system, 2, 5)]


@pytest.mark.parametrize("name", ["piston", "exchanger", "expression piston"])
def test_flowcheck_reports_are_the_vector_passes(name, monkeypatch):
    # the perturbation route's alphas and drift, and the scaling check,
    # traced and untraced; flowcheck takes the adjoint route traced and the
    # perturbation route untraced, with the same drift
    system = SYSTEMS[name]()
    grid = _flowcheck_grid(system)
    pt = liouville_point(system.gf, grid[0])
    runs = []
    for route in ("traced", "vector"):
        if route == "vector":
            _vector_route(monkeypatch)
        alphas, drift = dynamics._perturbed_transport(system.gf, system.Ka,
                                                      grid, 0.05, 1e-3)
        report = flow_transport_check(system.gf, system.Ka, 0.05, grid)
        runs.append([*alphas.ravel(), drift, report.membership_drift,
                     scaling_commutation_check(system.Ka, pt, 1.7, 0.05)])
    assert _hex(runs[0]) == _hex(runs[1])


def _degree_two(K: ScalarFn) -> ScalarFn:
    """K + p0^2, of fiber degree 2 where K is of degree 1."""
    m = K.dim // 2
    return ScalarFn(lambda x: K(x) + x[m] * x[m], K.dim, name="K + p0^2")


@pytest.mark.parametrize("name", ["piston", "exchanger", "expression piston",
                                  "p1 + p0 q1", "degree 2"])
def test_adjoint_alphas_are_the_perturbation_routes(name, caplog):
    # alpha on each member's tangents within the differences' error of the
    # perturbation route, and the drift of the same member rows bit for bit
    t_end = 0.5 if name == "p1 + p0 q1" else 0.05
    if name == "p1 + p0 q1":
        gf, grid = half_square_gf(), [[0.7, -1.0], [1.2, -0.5]]
        K = ScalarFn(lambda x: x[3] + x[2] * x[1], dim=4, name=name)
    else:
        system = SYSTEMS["piston" if name == "degree 2" else name]()
        gf, grid, K = system.gf, _flowcheck_grid(system), system.Ka
        if name == "degree 2":
            K = _degree_two(K)
    with caplog.at_level(logging.INFO, logger="ltk"):
        exact, drift = dynamics._adjoint_transport(
            gf, K, grid, _liouville_rows(gf, grid), t_end, 1e-3)
    assert _log_lines(caplog, "flowcheck") == [
        f"flowcheck: {K.name} runs on a traced replay",
        "flowcheck: blocks rerun on the vector pass: 0"] * len(grid)
    differenced, want = dynamics._perturbed_transport(gf, K, grid, t_end,
                                                      1e-3)
    assert exact.shape == differenced.shape == (len(grid), gf.n_params)
    assert np.max(np.abs(exact - differenced)) < 1e-9
    assert drift.hex() == want.hex()
    report = flow_transport_check(gf, K, t_end, grid)
    assert report.alpha_residual == np.max(np.abs(exact))
    if name == "degree 2":          # a K of degree 2 fails the check
        assert report.alpha_residual > 1e-2
    else:                           # the flow's error, not the differences'
        assert report.alpha_residual < 1e-11


def test_a_k_the_trace_cannot_record_keeps_the_perturbation_report(caplog):
    # no adjoint route without the trace: flowcheck is the perturbation
    # route, bit for bit, integrated once as a batch
    port = heat_compartment().Kc[0]
    K = ScalarFn(lambda x: port(x) * (2.0 if hash(x[0]) == 7 else 1.0), 4,
                 name="reads hash")
    gf, grid = heat_compartment().gf, [[0.1, -1.0], [0.3, -0.8]]
    with caplog.at_level(logging.INFO, logger="ltk"):
        report = flow_transport_check(gf, K, 0.05, grid)
    assert _log_lines(caplog, "flowcheck") == [
        "flowcheck: reads hash runs on the perturbation route: the trace "
        "cannot record reads hash, as it reads a traced value with hash()",
        "flowcheck: reads hash runs on the vector pass: its start is not one "
        "state"]
    alphas, drift = dynamics._perturbed_transport(gf, K, grid, 0.05, 1e-3)
    assert _hex([report.alpha_residual, report.membership_drift]) == \
        _hex([np.max(np.abs(alphas)), drift])


def test_a_sweep_off_its_trace_reruns_the_check_on_the_perturbation_route(
        caplog):
    # the drift doubles while the piston momentum exceeds 0.3, as it does
    # from the start for the first member, traced, and from mid-run for the
    # second: the second member's forward run reruns its block on the
    # vector pass, and the adjoint sweep, which has no such pass, hands
    # the check over whole
    Ka = gas_piston_damper().Ka
    K = ScalarFn(lambda x: Ka(x) * 2.0 if x[3] > 0.3 else Ka(x), 8,
                 name="switching drift")
    gf = gas_piston_damper().gf
    grid = [[0.0, 1.0, 0.35, -1.0], [0.0, 1.0, 0.2, -1.0]]
    with caplog.at_level(logging.INFO, logger="ltk"):
        report = flow_transport_check(gf, K, 1.0, grid, dt=2e-2)
    assert _log_lines(caplog, "flowcheck") == [
        "flowcheck: switching drift runs on a traced replay",
        "flowcheck: blocks rerun on the vector pass: 0",
        "flowcheck: switching drift runs on a traced replay",
        "flowcheck: blocks rerun on the vector pass: 1, the first from t=0",
        "flowcheck: alpha reruns on the perturbation route, as the adjoint "
        "route raised _OffTrace()",
        "flowcheck: switching drift runs on the vector pass: its start is "
        "not one state"]
    alphas, drift = dynamics._perturbed_transport(gf, K, grid, 1.0, 2e-2)
    assert _hex([report.alpha_residual, report.membership_drift]) == \
        _hex([np.max(np.abs(alphas)), drift])


def test_a_guard_that_flips_mid_flow_hands_back_per_row(monkeypatch, caplog):
    # the drift doubles while the piston momentum exceeds 0.3, which it
    # does from the start on rows 0 and 2 and from mid-run on row 1; each
    # row flows alone on the code traced at row 0, as flowcheck's members
    # do: each block of 8 points in which a stage of row 1 lies on the
    # other side of the guard reruns on the vector pass
    monkeypatch.setattr(dynamics, "MONITOR_BLOCK", 8)
    Ka = gas_piston_damper().Ka

    def switching(x):
        return Ka(x) * 2.0 if x[3] > 0.3 else Ka(x)

    K = ScalarFn(switching, 8, name="switching drift")
    system = gas_piston_damper()
    X0 = _liouville_rows(system.gf, [(0.0, 1.0, 0.35, -1.0),
                                     (0.0, 1.0, 0.2, -1.0),
                                     (0.1, 1.2, 0.45, -0.8)])
    field = _PhaseField(K, label="test",
                        code=tracegrad.FieldCode((K,), X0[0].tolist()))
    with caplog.at_level(logging.INFO, logger="ltk"):
        traced = [integrate(field, x0, 1.0, 2e-2).x for x0 in X0]
    vector = integrate(_vector_pass(K), X0, 1.0, 2e-2).x
    momentum = vector[:, :, 3]
    assert (momentum[:, [0, 2]] > 0.3).all()
    assert momentum[0, 1] <= 0.3 < momentum[-1, 1]
    # each row as a state alone, in numpy and through the kernel traced at
    # row 0, which hands row 1's stages below the guard to grad
    listed = TracedGradient(K, (), X0[0])
    for i, x0 in enumerate(X0):
        alone = integrate(_vector_pass(K), x0, 1.0, 2e-2).x
        assert _hex(traced[i]) == _hex(vector[:, i]) == _hex(alone)
        assert _hex(integrate(listed.field(), x0, 1.0, 2e-2).x) == \
            _hex(alone)
    crossed = int(np.argmax(momentum[:, 1] > 0.3))
    assert listed.rerun_blocks(8) == [
        max(0, i - 1) for i in range(0, crossed + 1, 8)]
    assert _log_lines(caplog, "test") == [
        "test: switching drift runs on a traced replay",
        "test: blocks rerun on the vector pass: 0",
        "test: switching drift runs on a traced replay",
        listed.rerun_line("test", 8, 2e-2),
        "test: switching drift runs on a traced replay",
        "test: blocks rerun on the vector pass: 0"]


def test_an_untraceable_k_keeps_the_vector_pass(monkeypatch, caplog):
    # each start alone steps on the vector pass at every stage, and is its
    # row of the batch
    port = heat_compartment().Kc[0]
    K = ScalarFn(lambda x: port(x) * (2.0 if hash(x[0]) == 7 else 1.0), 4,
                 name="reads hash")
    X0 = _flow_starts(heat_compartment(), 4, 2)
    calls = _grad_passes(monkeypatch)
    with caplog.at_level(logging.INFO, logger="ltk"):
        runs = [integrate(_traced(K), x0, 0.1, 1e-2).x for x0 in X0]
    assert calls == [1] * 40 * len(X0)  # one pass per stage, every stage
    assert _log_lines(caplog, "test") == [
        "test: reads hash runs on the vector pass: the trace cannot record "
        "reads hash, as it reads a traced value with hash()"] * len(X0)
    monkeypatch.undo()
    batch = integrate(_vector_pass(K), X0, 0.1, 1e-2).x
    for i, traj in enumerate(runs):
        assert _hex(traj) == _hex(batch[:, i])
    # a K of another dimension than the rows is not traced; the vector pass
    # raises
    with pytest.raises(ValueError, match="expects dimension 4, got 6 in "
                       "the step from t=0"):
        integrate(_traced(K), np.ones((2, 6)), 0.1, 1e-2)


def test_a_batch_runs_the_vector_pass_at_every_stage(monkeypatch, caplog):
    # whatever its rows, one included, a batch's start is not one state:
    # one vector pass per stage over all its rows, each row as it would
    # step alone
    system = gas_piston_damper()
    X0 = _flow_starts(system, 81, 3)
    calls = _grad_passes(monkeypatch)
    with caplog.at_level(logging.INFO, logger="ltk"):
        wide = integrate(_traced(system.Ka), X0, 0.02, 1e-2)
        narrow = integrate(_traced(system.Ka), X0[1:], 0.02, 1e-2)
        one = integrate(_traced(system.Ka), X0[1:2], 0.02, 1e-2)
    assert calls == [len(X0)] * 8 + [len(X0) - 1] * 8 + [1] * 8
    assert _log_lines(caplog, "test") == [
        f"test: {system.Ka.name} runs on the vector pass: its start is not "
        f"one state"] * 3
    assert np.array_equal(wide.x[:, 1:], narrow.x)
    assert np.array_equal(wide.x[:, 1:2], one.x)


def test_a_point_dependent_integer_exponent_flows_as_each_state_alone(caplog):
    # q1 does not move (K does not read p1), so the exponent stays an
    # integer on two rows; the scalar pass takes the integer-power rule for
    # the seeds the exponent does not read, and each batch row must too
    K = compile_fn("p0 * q0 ^ q1 + p1 * 0", ["q0", "q1", "p0", "p1"])
    X0 = np.array([[1.3, 2.0, -1.0, -0.5], [1.1, 3.0, -0.7, -1.0],
                   [0.9, 2.5, -1.2, -1.0]])
    with caplog.at_level(logging.INFO, logger="ltk"):
        traj = integrate(_traced(K), X0, 0.2, 1e-3)
        alone = [integrate(_traced(K), x0, 0.2, 1e-3).x for x0 in X0]
    assert _log_lines(caplog, "test") == [
        f"test: {K.name} runs on the vector pass: its start is not one "
        f"state"] + [
        f"test: {K.name} runs on the vector pass: the trace cannot record "
        f"{K.name}, as it raises to a traced exponent"] * len(X0)
    for i, x0 in enumerate(X0):
        assert _hex(traj.x[:, i]) == _hex(alone[i])


@pytest.mark.parametrize("case", ["domain hole", "non-finite"])
def test_errors_of_the_traced_flow_are_the_vector_passes(case, monkeypatch):
    # a block in which a member's flow raises reruns on the vector pass,
    # and the check on the perturbation route, whose batch error names the
    # batch row; integrate adds the step, flowcheck names the member and
    # perturbation of a non-finite row
    if case == "domain hole":
        system = heat_compartment()
        gf = system.gf
        K = compile_fn("(p1/exp(q1) + p0) * (1 + 0 * ln(0.45 - q1))",
                       ["q0", "q1", "p0", "p1"])
        grid, t_end, dt = [(0.1, -1.0), (0.3, -1.0), (0.2, -1.2)], 1.0, 1e-2
        pt = liouville_point(gf, (0.3, -1.0))
    else:
        # the RK4 sum 6 * 2c|p0| overflows at p0 = -1 itself, so the
        # adjoint route raises and the perturbation route names the member
        gf = GeneratingFunction(
            n=1, Fhat=ScalarFn(lambda x: 0.5 * x[0] ** 2, dim=1),
            I=(1,), chart=0)
        c = np.finfo(float).max / 12.0 * (1.0 + 1e-6)
        K = ScalarFn(lambda x: c * x[2] * x[2], dim=4, name="c p0^2")
        grid, t_end, dt = [(0.7, -0.5), (1.2, -1.0)], 0.01, 1e-3
        pt = None
    errors = []
    for route in ("traced", "vector"):
        if route == "vector":
            _vector_route(monkeypatch)
        with pytest.raises(Exception) as flow, np.errstate(over="ignore"):
            flow_transport_check(gf, K, t_end, grid, dt=dt)
        errors.append((type(flow.value), str(flow.value)))
        if pt is not None:
            with pytest.raises(Exception) as scaled:
                scaling_commutation_check(K, pt, 1.5, t_end, dt=dt)
            errors.append((type(scaled.value), str(scaled.value)))
    half = len(errors) // 2
    assert errors[:half] == errors[half:]
    if case == "domain hole":
        assert errors[0][1] == (
            "ln requires a positive argument (batch row 5) in "
            "'ln(0.45-q1)' in the step from t=0.21")
        assert "in the step from t=" in errors[1][1]
    else:
        assert errors[0][0] is RuntimeError
        assert "member [1.2, -1.0] (unperturbed)" in errors[0][1]


def _blowing_up() -> ScalarFn:
    """p0^2, times 1e308 where q0 < 0: q0 falls at the rate -2 p0, and a
    stage past 0 has an infinite rate."""
    return ScalarFn(lambda x: x[2] * x[2] * (1e308 if x[0] < 0.0 else 1.0),
                    4, name="blowing up")


@pytest.mark.parametrize("case", ["domain hole", "non-finite"])
def test_a_row_failing_mid_block_fails_as_the_vector_pass(case, monkeypatch):
    # a block of 4 points; row 1 flows alone on the code traced at row 0,
    # as a later flowcheck member does, and the block in which it raises or
    # goes non-finite reruns on the vector pass from its start: the error,
    # its step, and the points recorded before it are the vector pass's of
    # the state alone, and the batch's vector pass fails at the same step,
    # naming the row
    monkeypatch.setattr(dynamics, "MONITOR_BLOCK", 4)
    if case == "domain hole":
        K = compile_fn("(p1/exp(q1) + p0) * (1 + 0 * ln(0.45 - q1))",
                       ["q0", "q1", "p0", "p1"])
        X0 = _liouville_rows(heat_compartment().gf,
                             [(0.1, -1.0), (0.3, -1.0), (0.2, -1.2)])
    else:
        K = _blowing_up()
        X0 = np.array([[0.3, 1.0, -1.0, 0.5], [0.11, 1.0, -1.0, 0.5],
                       [0.5, 1.0, -1.0, 0.5]])
    errors, seen = [], []

    def monitor(t, X):
        seen[-1].append((t.tolist(), X.tolist()))
        return X[..., 0]

    traced = _PhaseField(K, label="test",
                         code=tracegrad.FieldCode((K,), X0[0].tolist()))
    for f, x0 in ((traced, X0[1]), (_vector_pass(K), X0[1]),
                  (_vector_pass(K), X0)):
        seen.append([])
        with pytest.raises(Exception) as err, \
                np.errstate(over="ignore", invalid="ignore"):
            integrate(f, x0, 1.0, 1e-2, [("x", monitor)])
        errors.append((type(err.value), str(err.value),
                       getattr(err.value, "row", None)))
    assert errors[0] == errors[1]
    assert errors[0][0] is errors[2][0]
    assert seen[0] == seen[1]
    # the batch records a point per block, row 1 the points of the state
    ts, xs = ([sum((part[k] for part in run), []) for run in seen[1:]]
              for k in (0, 1))
    assert ts[0] == ts[1] and xs[0] == [rows[1] for rows in xs[1]]
    points = len(ts[0])
    if case == "domain hole":
        assert errors[0][1] == ("ln requires a positive argument in "
                                "'ln(0.45-q1)' in the step from t=0.21")
        assert errors[2][1] == (
            "ln requires a positive argument (batch row 1) in "
            "'ln(0.45-q1)' in the step from t=0.21")
        assert points == 22             # step 22 of the block of steps 21-23
    else:
        assert errors[0][1:] == ("integration produced a non-finite state "
                                 "at t=0.06 (step 6)", None)
        assert errors[2][1:] == ("integration produced a non-finite state "
                                 "at t=0.06 (step 6) in row 1", 1)
        assert points == 6              # step 6 of the block of steps 5-7


def _flowcheck_argv(samples: int) -> list:
    return ["flowcheck", "--system", "heat_exchanger", "--t-end", "0.02",
            "--dt", "1e-3", "--samples", str(samples)]


def _flowcheck_log(samples: int, capsys, caplog, tmp_path) -> tuple:
    """The route log lines of an exchanger flowcheck of ``samples`` members
    at WARNING and at INFO, and its report, after checking that its stdout
    and report bytes are the same at both levels."""
    argv = _flowcheck_argv(samples)
    outputs = []
    for level in (logging.WARNING, logging.INFO):
        caplog.clear()
        report = tmp_path / f"report{level}.json"
        with caplog.at_level(level, logger="ltk"):
            assert cli.main(argv) == 0
            assert cli.main(argv + ["--report", str(report)]) == 0
        outputs.append((capsys.readouterr().out, report.read_bytes()))
    assert outputs[0] == outputs[1]
    assert outputs[0][0].encode() == outputs[0][1]
    assert json.loads(outputs[1][0])["alpha_on_tangents"]["pass"]
    return _log_lines(caplog, "flowcheck"), outputs[0][0]


def test_flowcheck_logs_its_route_and_keeps_its_report_bytes(capsys, caplog,
                                                             tmp_path):
    # each of the 2 members flows alone on a traced replay, in each of the
    # two runs at INFO
    lines, _ = _flowcheck_log(2, capsys, caplog, tmp_path)
    assert lines == [
        "flowcheck: drift(heat_exchanger) runs on a traced replay",
        "flowcheck: blocks rerun on the vector pass: 0"] * 2 * 2


def test_flowcheck_of_82_members_replays_each_member(capsys, caplog,
                                                     tmp_path, monkeypatch):
    # however many members, each flows alone on a traced replay, and the
    # report is the vector pass's: with no block runner, every member
    # steps on the vector pass and the adjoint sweep reads K's trace all
    # the same; with no trace, the perturbation route flows the members as
    # batch rows to the same membership drift
    lines, report = _flowcheck_log(82, capsys, caplog, tmp_path)
    assert lines == [
        "flowcheck: drift(heat_exchanger) runs on a traced replay",
        "flowcheck: blocks rerun on the vector pass: 0"] * 82 * 2
    monkeypatch.setattr(_PhaseField, "runner", lambda field, x: None)
    assert cli.main(_flowcheck_argv(82)) == 0
    assert capsys.readouterr().out == report
    monkeypatch.undo()
    # the exchanger traces its outputs as it is built, so it is built first
    exchanger = heat_exchanger()
    monkeypatch.setitem(portsys.BUILTIN_SYSTEMS, "heat_exchanger",
                        lambda: exchanger)
    _vector_route(monkeypatch)
    assert cli.main(_flowcheck_argv(82)) == 0
    vector = json.loads(capsys.readouterr().out)
    assert vector["membership_drift"] == \
        json.loads(report)["membership_drift"]


def test_the_scaling_check_logs_its_route_and_fallbacks(monkeypatch, caplog):
    # the drift doubles while the piston momentum, which costate scaling
    # leaves alone, exceeds 0.3, as it does from mid-run on: each of the
    # two flows, traced at its start, reruns on the vector pass each block
    # of 8 points in which a stage lies on the other side of the guard,
    # and the distance is the vector pass's
    monkeypatch.setattr(dynamics, "MONITOR_BLOCK", 8)
    Ka = gas_piston_damper().Ka

    def switching(x):
        return Ka(x) * 2.0 if x[3] > 0.3 else Ka(x)

    K = ScalarFn(switching, 8, name="switching drift")
    x0 = liouville_point(gas_piston_damper().gf, (0.0, 1.0, 0.2, -1.0))
    with caplog.at_level(logging.INFO, logger="ltk"):
        distance = scaling_commutation_check(K, x0, 0.5, 1.0, dt=2e-2)
    scaled = scale_costate(x0, 0.5).packed()
    lines = []
    for start in (x0.packed(), scaled):
        listed = TracedGradient(K, (), start)
        integrate(listed.field(), start, 1.0, 2e-2)
        assert listed.rerun_blocks(8)
        lines += ["scaling check: switching drift runs on a traced replay",
                  listed.rerun_line("scaling check", 8, 2e-2)]
    assert _log_lines(caplog, "scaling check") == lines
    a, b = (integrate(_vector_pass(K), x, 1.0, 2e-2).final
            for x in (x0.packed(), scaled))
    a[4:] *= 0.5
    assert distance.hex() == float(np.max(np.abs(a - b))).hex()
