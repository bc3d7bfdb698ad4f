"""Port-thermodynamic systems: structure validation, simulation, composition.

Frozen oracles:

* heat compartment at (S, p_E) = (0, -1) with C = T_ref = 1: the realized
  point is q = (1, 0), p = (-1, 1); outputs y_p = 1, y_e = 1/T = 1.
* gas piston with mass 2 at piston momentum pi = 3: y_p = pi/mass = 1.5.
* two unit compartments coupled by Fourier conduction (lam = 1) starting at
  entropies (ln 2, 0): temperatures (2, 1), initial entropy production rate
  lam (T1 - T2)^2 / (T1 T2) = 0.5, total energy 3, equilibrium temperature
  1.5, total entropy gain 2 ln 1.5 - ln 2.
"""

import dataclasses
import json
import logging
import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from conftest import port_flow
from test_simulate_blocks import _runner_steps

from ltk import (cli, diffkit, dynamics, exprlang, geometry, portsys,
                 submanifold, tracegrad)
from ltk.diffkit import ScalarFn, grad
from ltk.exprlang import ExprEvalError, evaluate, parse
from ltk.geometry import PhasePoint, scale_costate
from ltk.portsys import (BUILTIN_SYSTEMS, MONITOR_NAMES, PortSignal,
                         PortSystem, ValidationReport, builtin, energy_balance,
                         entropy_balance, gas_piston_damper, heat_compartment,
                         heat_exchanger, ideal_gas_SVN, interconnect, outputs,
                         simulate, validate)
from ltk.portsys import _sample_surface_params
from ltk.submanifold import liouville_point


# -- input signals -----------------------------------------------------------------


def test_signal_kinds():
    assert PortSignal.zero(2)(0.5) == pytest.approx([0.0, 0.0])
    assert PortSignal.constant([1.5, -2.0])(9.9) == pytest.approx([1.5, -2.0])
    s = PortSignal.sinusoid(0.1, 2.0, 0.5)
    assert s(0.3) == pytest.approx([0.1 * np.sin(2.0 * 0.3 + 0.5)])
    e = PortSignal.from_exprs(["0.1*sin(t)", "t^2"])
    assert e(2.0) == pytest.approx([0.1 * np.sin(2.0), 4.0])
    assert e.n_ports == 2


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_built_in_signals_take_finite_parameters_only(value):
    with pytest.raises(ValueError, match=r"^values must be finite numbers"):
        PortSignal.constant([0.1, value])
    for k, name in enumerate(("amplitude", "frequency", "phase")):
        args = [0.1, 1.0, 0.0]
        args[k] = value
        with pytest.raises(ValueError, match=f"^{name} must be a finite"):
            PortSignal.sinusoid(*args)


SIGNALS = {
    "zero": lambda: PortSignal.zero(3),
    "constant": lambda: PortSignal.constant([0.1, -0.0, -1e308]),
    "sinusoid": lambda: PortSignal.sinusoid(0.3, 2.0, 0.5),
    "expressions": lambda: PortSignal.from_exprs(
        ["0.2*sin(3*t)", "1e308*10*t", "-(0*t)", "t^2"]),
    "function": lambda: PortSignal(lambda t: [np.cos(t), 1.0 / (1.0 + t)], 2),
}


@pytest.mark.parametrize("kind", sorted(SIGNALS))
def test_signal_reads_as_floats_equal_its_arrays(kind):
    # simulate reads a signal as floats; each is the array's entry bit for
    # bit, infinities, NaN and -0.0 included
    signal = SIGNALS[kind]()
    seen = set()
    for t in np.linspace(0.0, 50.0, 1000).tolist():
        floats = signal._floats(t)
        assert all(type(v) is float for v in floats)
        assert [v.hex() for v in floats] == \
            [v.hex() for v in signal(t).tolist()]
        seen.update(v.hex() for v in floats)
    if kind == "expressions":
        assert {"inf", "nan", "-0x0.0p+0"} <= seen
    if kind == "sinusoid":              # a * np.sin(w t + ph), as a float
        assert signal._floats(0.7) == [0.3 * np.sin(2.0 * 0.7 + 0.5)]


EXPR_TEMPLATES = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "spec.json")
    .read_text())["expr_templates"]


@pytest.mark.parametrize("sources, traced", [
    ([template.format(a="0.2", b="0.05", w="1.3", tau="2.5")
      for template in EXPR_TEMPLATES], True),
    ([template.format(a="-0.3", b="-0.1", w="3.0", tau="0.5")
      for template in EXPR_TEMPLATES], True),
    (["0.2*sin(3*t)", "1e308*10*t", "-(0*t)", "t^2"], True),
    (["ln(0.5 - t)"], True),
    (["1/(t - 0.5)", "(0.5 - t)^0.5"], True),
    (["ln(t - 0.5)"], False),           # raises at t = 0, the traced time
    (["0.1*t", "2^t"], False),          # a traced exponent: never recorded
], ids=["templates", "templates negative", "inf nan -0", "ln hole",
        "division and power holes", "raises when traced", "exponent in t"])
def test_expression_reads_are_evaluate_bit_for_bit(monkeypatch, sources,
                                                   traced):
    # a read runs the expressions' value code, traced at t = 0, and calls
    # evaluate only where a domain check trips or the code raises, or for an
    # expression the trace cannot record
    trees = [parse(src) for src in sources]
    times = (np.linspace(0.0, 2.0, 401).tolist()
             + [0.5, 50.0, 1e200, np.inf, -np.inf, np.nan])

    def reference(t):
        try:
            return [evaluate(tree, {"t": t}).hex() for tree in trees]
        except ExprEvalError as err:
            return str(err)

    expected = [reference(t) for t in times]
    assert any(isinstance(e, str) for e in expected)
    signal = PortSignal.from_exprs(sources)
    walks = []
    walk = exprlang.evaluate
    monkeypatch.setattr(exprlang, "evaluate",
                        lambda e, env: walks.append(e) or walk(e, env))
    for i, t in enumerate(times):
        walks.clear()
        try:
            floats = signal._floats(t)
        except ExprEvalError as err:
            got = str(err)
        else:
            assert all(type(v) is float for v in floats)
            got = [v.hex() for v in floats]
        assert got == expected[i], (sources, t)
        if isinstance(got, list):
            assert bool(walks) != traced, (sources, t)


def test_a_signal_hands_out_a_fresh_array_each_call():
    s = PortSignal.constant([0.1, 0.2])
    a = s(0.0)
    a[0] = 9.0
    assert s(1.0).tolist() == s._floats(1.0) == [0.1, 0.2]
    values = np.array([0.1, 0.2])
    own = PortSignal(lambda t: values, 2)
    own(0.0)[0] = 9.0
    assert values.tolist() == [0.1, 0.2]


def test_signal_port_count_enforced():
    bad = PortSignal(lambda t: np.array([1.0, 2.0]), n_ports=1)
    with pytest.raises(ValueError, match="ports"):
        bad(0.0)
    gp = gas_piston_damper()
    with pytest.raises(ValueError, match="ports"):
        simulate(gp, 0.1, 0.1, u=PortSignal.zero(3))


def test_signal_shape_enforced():
    # a (1, 1) reading has the right size but would reach the field as a list
    # of lists
    bad = PortSignal(lambda t: [[0.3]], n_ports=1)
    for read in (bad, bad._floats):
        with pytest.raises(ValueError, match=r"shape \(1, 1\) for 1 ports"):
            read(0.0)
    with pytest.raises(ValueError, match=r"shape \(1, 1\) for 1 ports"):
        simulate(heat_compartment(), 0.1, 0.01, u=bad)


# -- construction and lookup ---------------------------------------------------------


def test_builtin_registry_and_name_folding():
    assert set(BUILTIN_SYSTEMS) == {"gas_piston_damper", "heat_compartment",
                                    "heat_exchanger", "ideal_gas_SVN"}
    assert builtin("heat-exchanger").name == "heat_exchanger"
    assert builtin("IDEAL_GAS_svn").name == "ideal_gas_SVN"
    with pytest.raises(ValueError, match="available"):
        builtin("fusion_reactor")


def test_builtin_parameter_aliases():
    sys_ = builtin("gas_piston_damper", m=2.0, d=0.25)
    pt = liouville_point(sys_.gf, (0.0, 1.0, 3.0, -1.0))
    y_p, y_e = outputs(sys_, pt)
    assert y_p[0] == pytest.approx(1.5)       # pi / mass
    assert y_e[0] == 0.0


def test_a_parameter_given_under_both_spellings_is_rejected():
    for params, full in (({"m": 2.0, "mass": 3.0}, "mass"),
                         ({"damping": 0.1, "d": 0.2}, "damping")):
        with pytest.raises(ValueError, match=rf"^parameter '{full}' is given "
                           rf"twice, as '{full[0]}' and '{full}'$"):
            builtin("gas_piston_damper", **params)


def test_physical_parameter_guards():
    with pytest.raises(ValueError, match="damping"):
        gas_piston_damper(damping=-0.1)
    with pytest.raises(ValueError, match="positive"):
        heat_compartment(C=0.0)
    with pytest.raises(ValueError, match="cold"):
        heat_exchanger(lam=-1.0)
    with pytest.raises(ValueError, match="positive"):
        ideal_gas_SVN(c_v=-1.0)


@pytest.mark.parametrize("factory, params", [
    (gas_piston_damper, {"mass": np.nan}),
    (gas_piston_damper, {"damping": np.nan}),
    (gas_piston_damper, {"mass": np.inf}),
    (gas_piston_damper, {"S0": -np.inf}),
    (heat_compartment, {"C": np.nan}),
    (heat_compartment, {"T_ref": np.inf}),
    (heat_exchanger, {"lam": np.nan}),
    (heat_exchanger, {"C": (1.0, np.nan)}),
    (ideal_gas_SVN, {"c_v": np.nan}),
    (ideal_gas_SVN, {"s0": np.inf}),
])
def test_factories_reject_non_finite_parameters(factory, params):
    # NaN passes a check that asks for the values it rejects, as each
    # comparison with it is False
    with pytest.raises(ValueError, match="finite"):
        factory(**params)


def test_port_system_shape_validation():
    hc = heat_compartment()
    with pytest.raises(ValueError, match="dimension"):
        PortSystem(name="bad", gf=hc.gf, Ka=ScalarFn(lambda x: 0.0, dim=6))
    with pytest.raises(ValueError, match="out of range"):
        PortSystem(name="bad", gf=hc.gf, Ka=hc.Ka, energy_indices=(5,))
    with pytest.raises(ValueError, match="both energy and entropy"):
        PortSystem(name="bad", gf=hc.gf, Ka=hc.Ka,
                   energy_indices=(0,), entropy_indices=(0,))
    with pytest.raises(ValueError, match="param_box"):
        PortSystem(name="bad", gf=hc.gf, Ka=hc.Ka, param_box=((0.0, 1.0),))


# -- outputs ---------------------------------------------------------------------------


def test_heat_compartment_output_oracle():
    hc = heat_compartment()
    pt = liouville_point(hc.gf, hc.default_params)
    assert pt.q == pytest.approx([1.0, 0.0])
    assert pt.p == pytest.approx([-1.0, 1.0])
    y_p, y_e = outputs(hc, pt)
    assert y_p[0] == pytest.approx(1.0)
    assert y_e[0] == pytest.approx(1.0)


def test_outputs_are_invariant_under_costate_scaling():
    hc = heat_compartment()
    pt = liouville_point(hc.gf, (0.4, -0.9))
    base = outputs(hc, pt)
    scaled = outputs(hc, scale_costate(pt, 7.0))
    assert np.array_equal(base[0], scaled[0])
    assert np.array_equal(base[1], scaled[1])


def test_outputs_of_an_expression_compartment_are_the_builtins():
    # the outputs of a system built from expressions are the port flows
    # of its Kc, one dual pass along the costate indicator, as a built-in's
    hc = heat_compartment()
    derived = cli._build_custom_system({
        "dimensions": 2, "gf": {"expr": "exp(q1)"},
        "partition": {"energy": [0], "entropy": [1]},
        "Ka": "0", "Kc": ["p1 / exp(q1) + p0"]})
    pt = liouville_point(hc.gf, (0.4, -0.9))
    yd = outputs(derived, pt)
    ye = outputs(hc, pt)
    assert np.array_equal(yd[0], ye[0]) and np.array_equal(yd[1], ye[1])
    # and are projectively invariant
    ys = outputs(derived, scale_costate(pt, 7.0))
    assert yd[0] == pytest.approx(ys[0], abs=1e-10)
    assert yd[1] == pytest.approx(ys[1], abs=1e-10)


@pytest.mark.parametrize("factory, params", [
    (gas_piston_damper, {}),
    (gas_piston_damper, {"mass": 1.7, "damping": 0.3, "c_v": 2.1}),
    (heat_compartment, {}), (heat_compartment, {"C": 1.3, "T_ref": 0.8})],
    ids=["piston", "piston 1.7 0.3 2.1", "compartment", "compartment 1.3 0.8"])
def test_a_partial_sum_kernel_is_the_port_flows_bit_for_bit(factory, params):
    # the kernel a composed drift reads a built-in's outputs from gives the
    # rows of _port_flows, the outputs simulate records: on a batch of
    # duals in one vector pass, which no comparison sends to per-row
    # passes, on floats, and on single duals, whose derivatives are the
    # batch's
    system = factory(**params)
    m = system.n_coords
    X = submanifold._liouville_rows(
        system.gf, _sample_surface_params(system, 200, 5))
    D = np.cos(np.arange(X.size)).reshape(X.shape)
    kernel = tracegrad.PartialSumKernel(system.Kc, X[0].tolist(), [
        [m + i for i in indices]
        for indices in (system.energy_indices, system.entropy_indices)])
    flows = [portsys._port_flows(K, X, m, indices) for K in system.Kc
             for indices in (system.energy_indices, system.entropy_indices)]

    def rows(y):       # values and derivatives by row; a constant's are 0
        if not isinstance(y, diffkit.Dual):
            y = diffkit.Dual(np.full(len(X), y), np.zeros((1, len(X))))
        return np.column_stack([y.val, y.dot[0]])

    batch = [rows(y) for y in kernel(
        [diffkit.Dual(X[:, i].copy(), D[None, :, i]) for i in range(2 * m)])]
    assert np.array([y[:, 0] for y in batch]).tobytes() == \
        np.array(flows).tobytes()
    for j, (x, d) in enumerate(zip(X.tolist(), D.tolist())):
        single = kernel([diffkit.Dual(*v) for v in zip(x, d)])
        assert np.array([float(v) for y in single for v in (
            (y.val, y.dot) if isinstance(y, diffkit.Dual) else (y, 0.0))
        ]).tobytes() == np.array([y[j] for y in batch]).tobytes()
    assert np.array([kernel(x) for x in X.tolist()]).T.tobytes() == \
        np.array(flows).tobytes()


def test_outputs_warn_off_the_surface():
    hc = heat_compartment()
    pt = liouville_point(hc.gf, hc.default_params)
    off = PhasePoint(pt.q + np.array([0.3, 0.0]), pt.p)
    with pytest.warns(UserWarning, match="not on the modeled surface"):
        outputs(hc, off)


# -- structure validation ------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(BUILTIN_SYSTEMS))
def test_builtin_systems_validate(name):
    report = validate(builtin(name), n_samples=15, seed=2)
    assert report.passed, report.as_dict()
    assert report.second_law_min >= -1e-12
    assert report.n_samples == 15


def test_validation_report_dict_shape():
    report = validate(heat_compartment(), n_samples=5)
    d = report.as_dict()
    assert d["system"] == "heat_compartment"
    assert set(d) == {"system", "n_samples", "degree_residual",
                      "on_surface_residual", "first_law_residual",
                      "second_law_min", "chart_form_residual", "passed"}


def test_validation_report_checks_feed_passed_and_the_cli():
    clean = dict(system="s", n_samples=1, degree_residual=0.0,
                 on_surface_residual=0.0, first_law_residual=0.0,
                 chart_form_residual=0.0)
    nan = ValidationReport(second_law_min=float("nan"), **clean)
    residual, tol = nan.checks()["second_law"]
    assert not nan.passed
    assert cli._check(residual, tol)["pass"] is False
    zero = ValidationReport(second_law_min=0.0, **clean)
    residual = zero.checks()["second_law"][0]
    assert zero.passed and residual == 0.0
    assert str(residual) == "0.0"
    assert list(zero.checks()) == ["degree", "on_surface", "first_law",
                                   "second_law", "chart_form"]


def test_sign_flipped_damping_fails_the_second_law():
    # the drift is affine in the damping coefficient, so 2 Ka(0) - Ka(d)
    # is exactly the drift with damping -d: a damper that removes entropy
    damped = gas_piston_damper(damping=0.5)
    undamped = gas_piston_damper(damping=0.0)
    anti = ScalarFn(
        lambda x: 2.0 * undamped.Ka(x) - damped.Ka(x),
        dim=8, name="anti-damped drift")
    broken = PortSystem(
        name="piston_antidamper", gf=damped.gf, Ka=anti, Kc=damped.Kc,
        energy_indices=(0,), entropy_indices=(1,),
        default_params=damped.default_params, param_box=damped.param_box)
    report = validate(broken, n_samples=15, seed=2)
    assert report.second_law_min < -1e-6
    assert not report.passed
    # everything except the second law still holds for the flipped drift
    assert report.degree_residual <= 1e-8
    assert report.on_surface_residual <= 1e-9
    assert report.first_law_residual <= 1e-8


# -- simulation ------------------------------------------------------------------------------


def test_simulate_requires_parameters_and_commensurate_grid():
    hc = heat_compartment()
    bare = PortSystem(name="bare", gf=hc.gf, Ka=hc.Ka, Kc=hc.Kc,
                      energy_indices=(0,), entropy_indices=(1,))
    with pytest.raises(ValueError, match="initial"):
        simulate(bare, 1.0, 0.1)
    with pytest.raises(ValueError, match="integer multiple"):
        simulate(hc, 1.05, 0.1)


@pytest.mark.parametrize("params, message", [
    ([0.0, np.nan], "params must be finite numbers"),
    ([0.0, -1.0, 0.5], "params needs 2 surface parameters"),
    ([0.0, 0.0], r"params has p_chart 0 \(entry 1\)")],
    ids=["NaN", "three entries", "p_chart 0"])
def test_simulate_rejects_bad_params_as_bad_params(params, message):
    # a bad start is a ValueError naming params, not a run failure
    with pytest.raises(ValueError, match=message):
        simulate(heat_compartment(), 0.1, 1e-2, params=params)


def test_simulate_records_grid_inputs_outputs_and_monitors():
    gp = gas_piston_damper()
    u = PortSignal.sinusoid(0.1, 1.0)
    result = simulate(gp, 0.5, 1e-2, u=u, monitors=MONITOR_NAMES)
    assert result.t.shape == (51,)
    assert result.x.shape == (51, 8)
    assert result.u.shape == (51, 1)
    assert result.u[:, 0] == pytest.approx(0.1 * np.sin(result.t))
    assert set(result.outputs) == {"y_p1", "y_e1"}
    assert set(result.monitors) == set(MONITOR_NAMES)
    # the invariants monitored along the flow stay at solver accuracy
    assert np.max(result.monitors["K_res"]) < 1e-10
    assert np.max(result.monitors["alpha_res"]) < 1e-10
    assert np.max(result.monitors["membership"]) < 1e-10
    with pytest.raises(ValueError, match="unknown monitor"):
        simulate(gp, 0.1, 0.1, monitors=("bogus",))


@pytest.mark.parametrize("monitors", [(), ("K_res",), ("alpha_res",)])
def test_an_infinite_input_fails_its_step_without_a_warning(monitors):
    # the failing step records the points before it, where the totals of
    # K_res and alpha_res take the infinite input: no numpy warning (an
    # error in this suite) comes before the step's own error
    with pytest.raises(RuntimeError, match=r"^simulation of "
                       r"'gas_piston_damper': integration produced a "
                       r"non-finite state at t=0\.001 \(step 1\)$"):
        simulate(gas_piston_damper(), 0.002, 1e-3,
                 u=PortSignal(lambda t: [np.inf], 1), monitors=monitors)


def _rebind(monkeypatch, original, replacement):
    """Rebind every ltk module's name for ``original`` to ``replacement``."""
    for name, module in list(sys.modules.items()):
        if name == "ltk" or name.startswith("ltk."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)


def _count_calls(monkeypatch, original):
    """Rebind every ltk module's name for ``original`` to a counting shim."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    _rebind(monkeypatch, original, counted)
    return calls


def _count_kernels(monkeypatch):
    """The generators traced into field code, and one entry per RK4 step
    of its block runners, each of which evaluates the field 4 times."""
    traces, trace = [], tracegrad.FieldCode.__init__

    def traced(code, fns, x):
        traces.append([K.name for K in fns])
        trace(code, fns, x)

    monkeypatch.setattr(tracegrad.FieldCode, "__init__", traced)
    return traces, _runner_steps(monkeypatch)


def test_validate_draws_its_degree_samples_once(monkeypatch):
    # every generator is degree-checked on the same 30 points, the ones
    # validate_degree draws for the seed, so they are drawn once per call
    gp = gas_piston_damper()
    draws = _count_calls(monkeypatch, geometry._phase_rows)
    report = validate(gp, seed=4)
    assert [args[1:] for args in draws] == [(30, 4)]
    assert report.degree_residual == max(
        dynamics.validate_degree(K, 1, 30, seed=4) for K in (gp.Ka,) + gp.Kc)


def _count_value_calls(K: ScalarFn, calls: list) -> ScalarFn:
    """K with a shim recording each evaluation on plain numbers, not on
    duals or batches of duals."""
    def fn(x):
        if all(isinstance(v, (int, float)) for v in x):
            calls.append(K.name)
        return K.fn(x)
    return dataclasses.replace(K, fn=fn)


def test_simulate_work_per_step(monkeypatch):
    # the field takes generator gradients one point at a time; the guard,
    # the outputs and the monitors take one vector-mode pass each per block
    # of points, here blocks of 4 and 2 points, and no generator value
    monkeypatch.setattr(dynamics, "MONITOR_BLOCK", 4)
    gp = gas_piston_damper()
    by_value = []
    gp.Ka = _count_value_calls(gp.Ka, by_value)
    gp.Kc = (_count_value_calls(gp.Kc[0], by_value),)
    membership = _count_calls(monkeypatch, submanifold.membership_residual)
    grads = _count_calls(monkeypatch, diffkit.grad)
    passes = _count_calls(monkeypatch, diffkit._batch_pass)
    traces, steps = _count_kernels(monkeypatch)

    def pass_counts():
        point_grads = [args for args in grads if np.ndim(args[1]) == 1]
        return ((len(traces), 4 * len(steps), len(point_grads)),
                [(args[0].name, len(args[1])) for args in passes])

    result = simulate(gp, 0.05, 0.01, u=PortSignal.constant([0.3]),
                      monitors=("membership",))
    assert len(result.t) == 6
    assert membership == [] and by_value == []
    assert np.max(result.monitors["membership"]) < 1e-10
    # one field traced from both generators, then evaluated at each stage,
    # 4 per step, and no point takes the scalar loop: the initial
    # point is a one-row pass of the lift's gradient; per block, the
    # guard's pass of the lift's gradient (the guard doubles as the
    # membership monitor) and a pass of the port generator for each output
    lift, Kc = "lift(gas_piston_damper)", "piston force port"
    work, blocks = pass_counts()
    assert work == (1, 4 * 5, 0)
    assert traces == [["piston drift", "piston force port"]]
    assert blocks == [(lift, 1), (lift, 4), (Kc, 4), (Kc, 4),
                      (lift, 2), (Kc, 2), (Kc, 2)]
    # the README monitors add one pass per active generator along the fiber
    # Euler field, which carries the generator's value for K_res too
    del grads[:], passes[:], traces[:], steps[:]
    result = simulate(gp, 0.05, 0.01, u=PortSignal.constant([0.3]),
                      monitors=("K_res", "alpha_res"))
    assert np.max(result.monitors["alpha_res"]) < 1e-12
    assert by_value == []
    work, blocks = pass_counts()
    assert work == (1, 4 * 5, 0)
    Ka = gp.Ka.name
    assert blocks == [(lift, 1),
                      (lift, 4), (Kc, 4), (Kc, 4), (Ka, 4), (Kc, 4),
                      (lift, 2), (Kc, 2), (Kc, 2), (Ka, 2), (Kc, 2)]
    # a custom system's y_p / y_e are one pass each per block along the
    # indicator of the energy / entropy costates, no gradient
    compartment = cli._build_custom_system({
        "dimensions": 2, "gf": {"expr": "exp(q1)"},
        "partition": {"energy": [0], "entropy": [1]},
        "Ka": "0", "Kc": ["p1 / exp(q1) + p0"], "initial": [0.0, -1.0]})
    del grads[:], passes[:], traces[:], steps[:]
    result = simulate(compartment, 0.05, 0.01, u=PortSignal.constant([0.3]),
                      monitors=())
    assert len(result.t) == 6
    work, blocks = pass_counts()
    assert work == (1, 4 * 5, 0)
    port = compartment.Kc[0].name
    assert [K for K, _ in blocks] == \
        ["lift(custom)"] + ["lift(custom)", port, port] * 2
    assert [args[2][2:, 0].tolist() for args in passes[2:4]] == \
        [[[1.0] * 4, [0.0] * 4], [[0.0] * 4, [1.0] * 4]]
    # y_p = dKc/dp0 = 1 and y_e = dKc/dp1 = 1/T = exp(-S)
    assert np.all(result.outputs["y_p1"] == 1.0)
    np.testing.assert_allclose(result.outputs["y_e1"], np.exp(-result.q[:, 1]),
                               rtol=1e-14)


def test_simulate_aborts_name_the_system_and_time():
    hc = heat_compartment()

    def closed(name, Ka):
        return PortSystem(name=name, gf=hc.gf, Ka=ScalarFn(Ka, 4),
                          energy_indices=(0,), entropy_indices=(1,),
                          default_params=hc.default_params)

    # K = p1 raises the entropy without touching the energy: off the surface
    drifter = closed("drifter", lambda x: x[3])
    with pytest.raises(RuntimeError, match=r"'drifter'.*left the state "
                                           r"surface at t=0\.01\b"):
        simulate(drifter, 0.1, 0.01)
    # an infinite rate makes the state non-finite within the first step
    runaway = closed("runaway", lambda x: float("inf") * x[3])
    with pytest.raises(RuntimeError, match=r"'runaway'.*non-finite state at "
                                           r"t=0\.01\b"):
        simulate(runaway, 0.1, 0.01)


def test_closed_piston_conserves_energy():
    gp = gas_piston_damper()
    result = simulate(gp, 2.0, 1e-3, monitors=("E_total",))
    E = result.monitors["E_total"]
    assert np.max(np.abs(E - E[0])) <= 1e-12 * max(1.0, abs(E[0]))


def test_first_law_balance_under_forcing():
    gp = gas_piston_damper()
    result = simulate(gp, 2.0, 1e-3, u=PortSignal.sinusoid(0.1, 1.0))
    balance = energy_balance(gp, result)
    assert abs(balance["defect"]) <= 1e-5 * (1.0 + abs(balance["delta"]))
    assert balance["delta"] == pytest.approx(balance["supplied"],
                                             abs=1e-5 * (1 + abs(balance["delta"])))


def test_second_law_per_step_under_forcing():
    gp = gas_piston_damper()
    result = simulate(gp, 2.0, 1e-3, u=PortSignal.sinusoid(0.1, 1.0))
    S = result.q[:, 1]
    assert np.min(np.diff(S)) >= -1e-9
    balance = entropy_balance(gp, result)
    assert balance["flow"] == 0.0            # the force port carries no entropy
    assert balance["production"] >= -1e-9


# -- interconnection ----------------------------------------------------------------------


def test_product_surface_index_layout():
    hx = heat_exchanger()
    assert hx.n_coords == 4
    assert hx.n_ports == 0
    assert hx.gf.I == (1, 3)          # the two entropies stay graph inputs
    assert hx.gf.J == (2,)            # the second energy costate is intensive
    assert hx.gf.chart == 0
    assert hx.energy_indices == (0, 2)
    assert hx.entropy_indices == (1, 3)
    assert hx.default_params == (0.0, 0.0, -1.0, -1.0)


def test_composed_drift_equals_the_closed_form():
    # substituting the Fourier feedback u1 = -lam (T1 - T2) = -u2 into
    # u1 Kc1 + u2 Kc2 gives lam (T1 - T2) (Kc2 - Kc1); checked pointwise at
    # generic (off-surface) states
    lam = 0.7
    hx = heat_exchanger(lam=lam)
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rng.uniform(-1.5, 1.5, 8)
        E1, S1, E2, S2, pE1, pS1, pE2, pS2 = x
        T1, T2 = np.exp(S1), np.exp(S2)
        expected = lam * (T1 - T2) * ((pS2 / T2 + pE2) - (pS1 / T1 + pE1))
        assert float(hx.Ka(x)) == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_composed_drift_on_the_shared_costate_slice():
    # with the two energy costates merged (pE1 = pE2) the drift collapses to
    # lam (pS1/T1 - pS2/T2) (T2 - T1), the two-temperature conduction form
    lam = 1.3
    hx = heat_exchanger(lam=lam)
    rng = np.random.default_rng(6)
    for _ in range(20):
        S1, S2, pE, pS1, pS2 = rng.uniform(-1.0, 1.0, 5)
        x = np.array([0.3, S1, 0.9, S2, pE, pS1, pE, pS2])
        T1, T2 = np.exp(S1), np.exp(S2)
        expected = lam * (pS1 / T1 - pS2 / T2) * (T2 - T1)
        assert float(hx.Ka(x)) == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_exchanger_initial_entropy_production_oracle():
    hx = heat_exchanger()
    pt = liouville_point(hx.gf, (np.log(2.0), 0.0, -1.0, -1.0))
    assert pt.q[0] == pytest.approx(2.0)     # E1 = T1 = 2
    assert pt.q[2] == pytest.approx(1.0)     # E2 = T2 = 1
    g = grad(hx.Ka, pt.packed())
    rate = g[4 + 1] + g[4 + 3]               # dS1/dt + dS2/dt
    assert rate == pytest.approx(0.5, rel=1e-9)


def test_exchanger_relaxes_to_the_predicted_equilibrium():
    hx = heat_exchanger()
    result = simulate(hx, 10.0, 5e-3, params=(np.log(2.0), 0.0, -1.0, -1.0),
                      membership_tol=np.inf)
    E = result.q[:, 0] + result.q[:, 2]
    S = result.q[:, 1] + result.q[:, 3]
    assert np.max(np.abs(E - 3.0)) < 1e-9                 # energy conserved
    assert np.min(np.diff(S)) >= -1e-9                    # entropy monotone
    T1, T2 = result.q[-1, 0], result.q[-1, 2]             # T_i = E_i here
    assert abs(T1 - T2) < 1e-3
    gain = S[-1] - S[0]
    assert gain == pytest.approx(2 * np.log(1.5) - np.log(2.0), abs=1e-5)


def test_exchanger_meets_its_closed_form_at_order_four():
    # from temperatures (2, 1) with lam = 1, E1 = 1.5 + 0.5 exp(-2t); RK4
    # through simulate converges at order 4.  At dt 4e-2 the costates' own
    # RK4 error takes the membership residual to 1.01e-5 at t = 2, just
    # past the default guard (it reads 6.3e-7 and 3.9e-8 at the finer
    # steps), so the guard here is 1e-4
    hx = heat_exchanger()
    errors = []
    for dt in (4e-2, 2e-2, 1e-2):
        result = simulate(hx, 2.0, dt, params=(np.log(2.0), 0.0, -1.0, -1.0),
                          membership_tol=1e-4)
        exact = 1.5 + 0.5 * np.exp(-2.0 * result.t)
        errors.append(np.max(np.abs(result.q[:, 0] - exact)))
    orders = np.log2(np.array(errors[:-1]) / errors[1:])
    assert np.all((3.8 <= orders) & (orders <= 4.2)), (errors, orders)


def test_compartment_meets_its_closed_forms_at_order_four(tmp_path):
    # from (S, p_E) = (0, -1) with C = T_ref = 1, T = E; the port's outputs
    # are y_p = 1 and y_e = 1/T, so under u = a sin(w t) E = 1 + (a/w)(1 -
    # cos w t) and S = ln E.  RK4 through simulate, which reads the input
    # at every stage time, converges at order 4 (errors 7.8e-10 to 1.9e-13)
    hc = heat_compartment()
    a, w = 0.2, 1.3
    errors, runs = [], {}
    for dt in (4e-2, 2e-2, 1e-2, 5e-3):
        result = runs[dt] = simulate(hc, 4.0, dt, u=PortSignal.sinusoid(a, w))
        E = 1.0 + a / w * (1.0 - np.cos(w * result.t))
        errors.append(max(np.max(np.abs(result.q[:, 0] - E)),
                          np.max(np.abs(result.q[:, 1] - np.log(E)))))
    orders = np.log2(np.array(errors[:-1]) / errors[1:])
    assert np.all((3.8 <= orders) & (orders <= 4.2)), (errors, orders)
    # the CLI's CSV holds the same trajectory
    config = tmp_path / "compartment.json"
    config.write_text(json.dumps({
        "command": "simulate", "system": "heat_compartment",
        "input": {"kind": "sinusoid", "amplitude": a, "frequency": w},
        "t_end": 4.0, "dt": 1e-2, "output": str(tmp_path / "run.csv")}))
    assert cli.run(str(config)) == 0
    table = np.loadtxt(tmp_path / "run.csv", delimiter=",", skiprows=1)
    assert np.array_equal(table[:, :5], np.column_stack([runs[1e-2].t,
                                                          runs[1e-2].x]))
    # under a constant input E = 1 + u t is linear, which RK4 integrates
    # exactly (1.3e-15 off)
    result = simulate(hc, 4.0, 4e-2, u=PortSignal.constant([0.3]))
    assert np.max(np.abs(result.q[:, 0] - (1.0 + 0.3 * result.t))) < 1e-13


def test_exchanger_costate_drift_aborts_long_unguarded_runs():
    # the costate directions transverse to the surface are exponentially
    # unstable under this drift, so the default membership guard eventually
    # trips; the state (q) trajectory itself remains accurate
    hx = heat_exchanger()
    with pytest.raises(RuntimeError, match="left the state surface"):
        simulate(hx, 40.0, 5e-3, params=(np.log(2.0), 0.0, -1.0, -1.0))


def test_interconnect_rejects_second_law_violations():
    c1 = heat_compartment(name="a")
    c2 = heat_compartment(name="b")

    def anti_fourier(outputs):
        (_, ye1), (_, ye2) = outputs
        w = 1.0 / ye1[0] - 1.0 / ye2[0]      # pumps heat from cold to hot
        return (w,), (-w,)

    with pytest.raises(ValueError, match="second law"):
        interconnect([c1, c2], anti_fourier)


COMPARTMENT_SPEC = {
    "dimensions": 2, "gf": {"expr": "exp(q1)"},
    "partition": {"energy": [0], "entropy": [1]}, "Ka": "0",
    "Kc": ["p1 / exp(q1) + p0"], "initial": [0.0, -1.0],
    "param_box": [[-0.5, 1.0], [-1.5, -0.5]]}


def _fourier(outputs):
    (_, ye1), (_, ye2) = outputs
    w = 1.0 / ye1[0] - 1.0 / ye2[0]
    return (-w,), (w,)


def test_an_exchanger_of_expression_compartments_is_the_builtin(caplog):
    # an expression system's outputs are read from code traced from its
    # port generator, so the drift of two README compartments closed by
    # Fourier's law takes duals and traces, and it validates and steps as
    # the built-in exchanger does, bit for bit, 1000 steps from T = (2, 1)
    c1, c2 = (cli._build_custom_system({**COMPARTMENT_SPEC, "name": name})
              for name in "ab")
    start = time.process_time()
    hx = interconnect([c1, c2], _fourier)
    build = time.process_time() - start
    with pytest.raises(ValueError, match="second law"):
        interconnect([c1, c2], lambda outputs: _fourier(outputs)[::-1])
    assert {**validate(hx).as_dict(), "system": "heat_exchanger"} == \
        validate(heat_exchanger()).as_dict()
    # a batch of its states is one vector pass, as for the built-in
    X = submanifold._liouville_rows(hx.gf, _sample_surface_params(hx, 5, 3))
    for system in (hx, heat_exchanger()):
        assert diffkit._batch_pass(system.Ka, X,
                                   diffkit._seeds(*X.shape)) is not None

    params = (np.log(2.0), 0.0, -1.0, -1.0)
    with caplog.at_level(logging.INFO, logger="ltk"):
        start = time.process_time()
        custom = simulate(hx, 1.0, 1e-3, params=params)
        step = (time.process_time() - start) / 1000
    assert "simulate 'a+b': drift(a+b) runs on a traced replay" in \
        caplog.messages
    assert np.array_equal(custom.x, simulate(heat_exchanger(), 1.0, 1e-3,
                                             params=params).x)
    print(f"expression exchanger: built in {build * 1e3:.2f} ms, "
          f"{step * 1e3:.4f} ms a step (process CPU)")


@pytest.mark.parametrize("port, reason", [
    (ScalarFn(lambda x: float(x[3]) + x[2], 4, name="opaque port"),
     "it reads a traced value with float()")], ids=["float"])
def test_interconnect_rejects_a_port_generator_it_cannot_trace(port, reason):
    # the outputs are the port flows traced from Kc, and nothing else: a
    # port generator the trace cannot record is rejected by its reason
    hc = heat_compartment(name="a")
    opaque = dataclasses.replace(hc, name="opaque", Kc=(port,))
    with pytest.raises(ValueError) as err:
        interconnect([hc, opaque], _fourier)
    assert str(err.value) == (
        f"interconnection 'a+opaque' cannot trace the outputs of system "
        f"'opaque': the trace cannot record opaque port, as {reason}")


def test_one_pass_port_flow_equals_the_gradient_sum():
    # with correctly rounded division the one-pass derivative along the
    # entropy costate is the gradient's own partial, bit for bit
    gp = gas_piston_damper()
    m = gp.n_coords
    differ = 0
    for params in _sample_surface_params(gp, 1000, 17):
        x = liouville_point(gp.gf, params).packed()
        g = grad(gp.Ka, x)
        rate = port_flow(gp.Ka, x, m, gp.entropy_indices)
        differ += rate != float(sum(g[m + i] for i in gp.entropy_indices))
    assert differ == 0


def test_interconnect_needs_a_port():
    gas = ideal_gas_SVN()
    with pytest.raises(ValueError, match="port"):
        interconnect([gas, gas], lambda outputs: ((), ()))
    with pytest.raises(ValueError, match="at least two systems"):
        interconnect([heat_compartment()], lambda outputs: ((0.0,),))


def test_interconnect_checks_feedback_arity():
    c1 = heat_compartment(name="a")
    c2 = heat_compartment(name="b")
    with pytest.raises(ValueError, match="wrong number"):
        interconnect([c1, c2], lambda outputs: ((0.0, 0.0), (0.0,)))
    with pytest.raises(ValueError, match="wrong number"):   # 2 for 3 systems
        interconnect([c1, c2, heat_compartment(name="c")],
                     lambda outputs: ((0.0,), (0.0,)))
    with pytest.raises(ValueError, match="wrong number"):   # a generator
        interconnect([c1, c2, heat_compartment(name="c")],
                     lambda outputs: ((0.0,) for _ in range(2)))


@pytest.mark.parametrize("inner", [tuple, iter])
def test_a_feedback_may_return_generators(inner):
    # the inputs are read once, so a generator of input sequences (tuples
    # or iterators) gives the drift of the lists it yields
    def fourier(outputs):
        (_, ye1), (_, ye2) = outputs
        w = 1.0 / ye1[0] - 1.0 / ye2[0]
        return (inner([s * w]) for s in (-1.0, 1.0))

    hx = heat_exchanger()
    lazy = interconnect([heat_compartment(name=f"compartment_{k}")
                         for k in (1, 2)], fourier)
    for params in _sample_surface_params(hx, 5, 3):
        x = liouville_point(hx.gf, params).packed()
        assert np.array_equal(grad(lazy.Ka, x), grad(hx.Ka, x))
        assert np.any(grad(hx.Ka, x) != 0.0)


def test_a_product_of_many_q_homogeneous_systems_checks_six_points(
        monkeypatch):
    # every system after the first adds its chart costate to J, so the
    # product of 20 gases has |J| = 19; its q-homogeneity is checked on the
    # six draws at gamma_J > 0, where every lift evaluates
    gases = [dataclasses.replace(ideal_gas_SVN(), name=f"g{k}",
                                 Kc=(ScalarFn(lambda x: x[6], 8),))
             for k in range(20)]
    rows, checked = [], submanifold._relative_euler_rows

    def counted(K, X, *args):
        rows.append(len(X))
        return checked(K, X, *args)

    monkeypatch.setattr(submanifold, "_relative_euler_rows", counted)
    closed = interconnect(gases, lambda outputs: [(0.0,)] * len(outputs),
                          n_check=0)
    assert closed.gf.q_homogeneous and len(closed.gf.J) == 19
    assert rows == [6]


def _heat_chain(N, lam, parts=None):
    """N unit compartments in a row (``parts``, by default built-in
    compartments), each exchanging Fourier heat with its neighbours, the
    ends insulated: u_k = lam (T_{k-1} - T_k) - lam (T_k - T_{k+1}) with T
    = 1/y_e."""
    def fourier(outputs):
        T = [1.0 / ye[0] for _, ye in outputs]
        flow = [0.0] + [lam * (T[k] - T[k + 1]) for k in range(N - 1)] + [0.0]
        return [(flow[k] - flow[k + 1],) for k in range(N)]

    parts = parts or [heat_compartment(name=f"c{k}") for k in range(N)]
    return interconnect(parts, fourier, name=f"chain{N}")


def _chain_modes(N, lam, E0, t):
    """The modal closed form of a heat chain with C = T_ref = 1: T = E and
    dE/dt = -lam L E for the path-graph Laplacian L, so E(t) = V exp(-lam
    Lambda t) V^T E(0), one row per time of ``t``."""
    L = np.diag(np.r_[1.0, 2.0 * np.ones(N - 2), 1.0]) \
        - np.eye(N, k=1) - np.eye(N, k=-1)
    Lam, V = np.linalg.eigh(L)
    return np.array([V @ (np.exp(-lam * Lam * s) * (V.T @ E0)) for s in t])


@pytest.mark.parametrize("N", [2, 8, 32])
def test_heat_chain_meets_its_modal_closed_form(N):
    # the modal closed form, E(t) = V exp(-lam Lambda t) V^T E(0)
    lam = 1.0
    chain = _heat_chain(N, lam)
    assert chain.n_coords == 2 * N and chain.energy_indices == tuple(
        range(0, 2 * N, 2))
    E0 = np.linspace(2.0, 1.0, N)
    result = simulate(chain, 1.0, 1e-2,
                      params=list(np.log(E0)) + [-1.0] * N)
    E, S = result.q[:, 0::2], result.q[:, 1::2]
    exact = _chain_modes(N, lam, E0, result.t)
    assert np.max(np.abs(E - exact)) < 1e-8
    assert np.max(np.abs(E.sum(axis=1) - E0.sum())) < 1e-13
    assert np.min(np.diff(S.sum(axis=1))) >= 0.0


def _fourier(outputs):
    """heat_exchanger's law at lam = 1: a heat flow T_1 - T_2, T = 1/y_e."""
    (_, ye1), (_, ye2) = outputs
    w = 1.0 / ye1[0] - 1.0 / ye2[0]
    return (-w,), (w,)


@pytest.mark.parametrize("hot, cold, chart, I", [
    ("energy", "energy", 0, (1, 3)), ("energy", "entropy", 0, (1, 2)),
    ("entropy", "energy", 1, (0, 3)), ("entropy", "entropy", 1, (0, 2))],
    ids=["EE", "ES", "SE", "SS"])
def test_factors_in_either_representation_merge_to_the_exchanger(hot, cold,
                                                                 chart, I):
    # the README compartment at E = 2 and at E = 1, each in its energy
    # (exp(q1), chart 0) or entropy (ln(q0), chart 1) representation,
    # closed by Fourier's law: the product keeps the hot factor's chart,
    # validates, and flows as heat_exchanger from (ln 2, 0, -1, -1)
    from test_cli import REPRESENTATIONS
    parts = [cli._build_custom_system(dict(REPRESENTATIONS[start][form],
                                           name=name))
             for start, form, name in (("E = 2", hot, "hot"),
                                       ("E = 1", cold, "cold"))]
    closed = interconnect(parts, _fourier)
    assert (closed.gf.chart, closed.gf.I) == (chart, I)
    report = validate(closed)
    assert all(r <= tol for r, tol in report.checks().values())
    q = simulate(closed, 1.0, 1e-3).q
    want = simulate(heat_exchanger(), 1.0, 1e-3,
                    params=(np.log(2.0), 0.0, -1.0, -1.0)).q
    if (hot, cold) != ("entropy", "energy"):
        assert np.array_equal(q, want)
    else:
        # the product's lift of the hot factor's start E = 2 rounds S one
        # ulp above log(2), where the factor alone lifts it to log(2); the
        # runs part by an ulp
        assert q[0, 1] == np.nextafter(np.log(2.0), 1.0)
        differ = np.abs(q - want).max(axis=1)
        assert np.count_nonzero(differ) == 66
        assert differ.max() <= 1.1102230246251565e-16


@pytest.mark.parametrize("first", ["energy", "entropy"])
def test_a_chain_of_alternating_representations_meets_its_modes(first):
    # 8 README compartments alternating between the energy (exp(q1), chart
    # 0) and the entropy (ln(q0), chart 1) representation, the first in
    # either, closed by Fourier's law: the product keeps the first
    # factor's chart, validates, and from E linear from 2 to 1 (the
    # factors' starts) meets the modal closed form as the built-in chain
    from test_cli import REPRESENTATIONS
    N, lam = 8, 1.0
    E0 = np.linspace(2.0, 1.0, N)
    forms = ["energy", "entropy"] if first == "energy" else \
        ["entropy", "energy"]
    parts = []
    for k, E in enumerate(E0):
        form = forms[k % 2]
        start = math.log(E) if form == "energy" else E
        parts.append(cli._build_custom_system(dict(
            REPRESENTATIONS["E = 2"][form], initial=[start, -1.0],
            name=f"c{k}")))
    chain = _heat_chain(N, lam, parts)
    assert chain.gf.chart == (0 if first == "energy" else 1)
    report = validate(chain)
    assert all(r <= tol for r, tol in report.checks().values())
    result = simulate(chain, 1.0, 1e-2)
    E, S = result.q[:, 0::2], result.q[:, 1::2]
    assert np.max(np.abs(E - _chain_modes(N, lam, E0, result.t))) < 1e-8
    assert np.max(np.abs(E.sum(axis=1) - E0.sum())) < 1e-13
    assert np.min(np.diff(S.sum(axis=1))) > 0.0
