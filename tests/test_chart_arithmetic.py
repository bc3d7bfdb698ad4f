"""The chart arithmetic of :mod:`ltk.geometry` against its formulas written
out here:

* the cone formula ``-p_c * F(passive, p_j / (-p_c))`` behind
  ``homogenize``, ``lift_generating_function`` and ``lift_phase_fn``;
* the degeneracy rule of ``project``, ``project_reduced`` and
  ``membership_residual``;
* the product surface of an interconnection, whose first factor is its
  lift at p_chart = -1.

Values compare by ``float.hex`` over floats, over single dual seeds
(``grad`` at a point) and over batch rows (``grad`` of a (B, dim) array).
"""

import numpy as np
import pytest

from ltk.diffkit import ScalarFn, exp, grad, ln
from ltk.dynamics import project_reduced
from ltk.geometry import (ChartDegenerateError, PhasePoint, dehomogenize,
                          homogenize, project)
from ltk.portsys import (BUILTIN_SYSTEMS, PortSystem, _sample_surface_params,
                         heat_compartment, heat_exchanger, interconnect)
from ltk.submanifold import (GeneratingFunction, lift_generating_function,
                             lift_phase_fn, liouville_point,
                             membership_residual)


def _hex(a):
    return [v.hex() for v in np.asarray(a, dtype=float).ravel().tolist()]


def _assert_same_function(F, reference, X):
    X = np.asarray(X, dtype=float)
    assert F.dim == reference.dim == X.shape[1]
    assert (_hex([F(x) for x in X.tolist()])
            == _hex([reference(x) for x in X.tolist()]))
    assert (_hex([grad(F, x) for x in X])
            == _hex([grad(reference, x) for x in X]))
    assert _hex(grad(F, X)) == _hex(grad(reference, X))


def _mixed_entropy_chart():
    """A surface in chart 1 with J = {2}: Fhat(q_0, q_3, gamma_2)."""
    return GeneratingFunction(
        n=3, Fhat=ScalarFn(lambda a: a[0] * a[2] + exp(a[1]) * a[2] * a[2],
                           3, name="mixed"),
        I=(0, 3), J=(2,), chart=1, name="mixed entropy chart")


def _surfaces():
    """The four built-in surfaces and the mixed one, each with parameter
    rows (q_I, p_chart, p_J)."""
    out = {}
    for name, factory in sorted(BUILTIN_SYSTEMS.items()):
        system = factory()
        out[name] = system.gf, np.array(_sample_surface_params(system, 8, 5))
    rng = np.random.default_rng(3)
    out["mixed entropy chart"] = _mixed_entropy_chart(), np.column_stack([
        rng.uniform(0.5, 1.5, (8, 2)), rng.uniform(-1.5, -0.5, 8),
        rng.uniform(-1.0, 1.0, 8)])
    return out


SURFACES = _surfaces()


@pytest.mark.parametrize("name", sorted(SURFACES))
def test_lift_generating_function_is_the_cone_formula(name):
    gf, P = SURFACES[name]
    nI = len(gf.I)

    def by_hand(x):
        neg_pc = -x[nI]
        return neg_pc * gf.Fhat([x[k] for k in range(nI)]
                                + [x[k] / neg_pc
                                   for k in range(nI + 1, gf.n + 1)])

    _assert_same_function(lift_generating_function(gf),
                          ScalarFn(by_hand, gf.n + 1), P)


@pytest.mark.parametrize("name", sorted(SURFACES))
def test_lift_phase_fn_is_the_cone_formula(name):
    gf, P = SURFACES[name]
    m = gf.n + 1

    def by_hand(x):
        neg_pc = -x[m + gf.chart]
        return neg_pc * gf.Fhat([x[i] for i in gf.I]
                                + [x[m + j] / neg_pc for j in gf.J])

    X = [liouville_point(gf, params).packed() for params in P]
    _assert_same_function(lift_phase_fn(gf), ScalarFn(by_hand, 2 * m), X)


@pytest.mark.parametrize("name", sorted(SURFACES))
def test_homogenize_is_the_cone_formula(name):
    # the chart representative of the surface's own lift
    gf, P = SURFACES[name]
    m = gf.n + 1
    Khat = dehomogenize(lift_phase_fn(gf), gf.chart)

    def by_hand(x):
        neg_pc = -x[m + gf.chart]
        return neg_pc * Khat([x[i] for i in range(m)]
                             + [x[m + j] / neg_pc
                                for j in range(m) if j != gf.chart])

    X = [liouville_point(gf, params).packed() for params in P]
    _assert_same_function(homogenize(Khat, gf.chart),
                          ScalarFn(by_hand, 2 * m), X)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_every_chart_projection_applies_one_degeneracy_rule(sign):
    # chart 0 against max |p| = 2 at index 2: degenerate below 2e-12
    gf = BUILTIN_SYSTEMS["ideal_gas_SVN"]().gf
    for ratio, degenerate in ((0.9e-12, True), (1.1e-12, False)):
        pt = PhasePoint([1.0, 2.0, 0.5, 1.5],
                        [sign * ratio * 2.0, 0.5, -2.0, 0.25])
        for call in (lambda: project(pt, 0),
                     lambda: project_reduced(pt.packed()),
                     lambda: membership_residual(gf, pt)):
            if not degenerate:
                call()
                continue
            with pytest.raises(ChartDegenerateError) as err:
                call()
            assert (err.value.chart, err.value.best_chart) == (0, 2)


def _entropy_chart_compartment():
    """A compartment given in the entropy chart with J = {2}: coordinates
    (E, S, V) and Fhat(E, gamma_2) = ln(E) + gamma_2^2 / 4."""
    gf = GeneratingFunction(
        n=2, Fhat=ScalarFn(lambda a: ln(a[0]) + a[1] * a[1] / 4.0, 2,
                           name="entropy"),
        I=(0,), J=(2,), chart=1, name="entropy chart")
    zero = ScalarFn(lambda x: 0.0, 6, name="0")
    return PortSystem(
        name="entropy chart compartment", gf=gf, Ka=zero, Kc=(zero,),
        energy_indices=(0,), entropy_indices=(1,), y_p=(zero,), y_e=(zero,),
        param_box=((0.5, 2.0), (-1.5, -0.5), (-1.0, 1.0)))


def _exchanger():
    return (heat_compartment(name="compartment_1"),
            heat_compartment(name="compartment_2"), heat_exchanger())


def _custom_pair():
    sys1, sys2 = _entropy_chart_compartment(), heat_compartment(2.0, 0.5)
    return sys1, sys2, interconnect(
        sys1, sys2, lambda yp1, ye1, yp2, ye2: ((0.0,), (0.0,)))


@pytest.mark.parametrize("build", [_exchanger, _custom_pair])
def test_product_surface_reads_the_first_lift_at_its_chart(build):
    # the product's Fhat against F1(q_I1 + [-1.0] + gamma_J1) + F2(a2),
    # system 1's lift evaluated at p_chart = -1
    sys1, sys2, system = build()
    gf1, gf2, gf = sys1.gf, sys2.gf, system.gf
    m1, nI1, nI2 = gf1.n + 1, len(gf1.I), len(gf2.I)
    F1 = lift_generating_function(gf1)
    F2 = lift_generating_function(gf2)

    def by_hand(args):
        gvals = dict(zip(gf.J, list(args[nI1 + nI2:])))
        a1 = list(args[:nI1]) + [-1.0] + [gvals[j] for j in gf1.J]
        a2 = (list(args[nI1:nI1 + nI2]) + [gvals[m1 + gf2.chart]]
              + [gvals[m1 + j] for j in gf2.J])
        return F1(a1) + F2(a2)

    P = np.array(_sample_surface_params(system, 50, 17))
    nI = len(gf.I)
    _assert_same_function(gf.Fhat, ScalarFn(by_hand, gf.n),
                          np.delete(P, nI, axis=1))
