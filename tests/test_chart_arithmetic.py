"""The chart arithmetic of :mod:`ltk.geometry` against its formulas written
out here:

* the cone formula ``-p_c * F(passive, p_j / (-p_c))`` behind
  ``homogenize``, ``lift_generating_function`` and ``lift_phase_fn``;
* the degeneracy rule of ``project``, ``project_reduced`` and
  ``membership_residual``;
* the product surface of an interconnection, whose first factor is its
  lift at p_chart = -1, and its parameters placed factor by factor;
* the surface points and membership relations of ``_liouville_rows`` and
  ``_membership_components``, placed coordinate by coordinate.

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
from ltk.submanifold import (GeneratingFunction, _liouville_rows,
                             _membership_components, lift_generating_function,
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
        energy_indices=(0,), entropy_indices=(1,),
        param_box=((0.5, 2.0), (-1.5, -0.5), (-1.0, 1.0)))


def _custom_pair():
    sys1, sys2 = _entropy_chart_compartment(), heat_compartment(2.0, 0.5)
    return sys1, sys2, interconnect(
        [sys1, sys2], lambda outputs: ((0.0,), (0.0,)))


def _reversed_pair():
    """The custom pair with the chart-1, J = {2} system second: its chart
    costate and its p_J both become product J entries."""
    sys1, sys2 = heat_compartment(2.0, 0.5), _entropy_chart_compartment()
    return sys1, sys2, interconnect(
        [sys1, sys2], lambda outputs: ((0.0,), (0.0,)))


def _surfaces():
    """The four built-in surfaces, the mixed one and the reversed pair's
    product, each with parameter rows (q_I, p_chart, p_J)."""
    out = {}
    systems = {name: factory() for name, factory
               in sorted(BUILTIN_SYSTEMS.items())}
    systems["reversed pair"] = _reversed_pair()[2]
    for name, system in systems.items():
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


def _exchanger():
    return (heat_compartment(name="compartment_1"),
            heat_compartment(name="compartment_2"), heat_exchanger())


@pytest.mark.parametrize("build", [_exchanger, _custom_pair, _reversed_pair])
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


def _placed_by_hand(gf, P):
    """The surface points generated by the rows of ``P``, each parameter
    and each generating relation written to its coordinate by hand."""
    m, nI, c = gf.n + 1, len(gf.I), gf.chart
    I, J = list(gf.I), list(gf.J)
    g = grad(lift_generating_function(gf), P)
    X = np.empty((len(P), 2 * m))
    X[:, I] = P[:, :nI]
    X[:, [m + i for i in I]] = g[:, :nI]       # p_I = dF/dq_I
    X[:, c] = -g[:, nI]                        # q_c = -dF/dp_c
    X[:, m + c] = P[:, nI]
    X[:, J] = -g[:, nI + 1:]                   # q_J = -dF/dp_J
    X[:, [m + j for j in J]] = P[:, nI + 1:]
    return X


@pytest.mark.parametrize("name", sorted(SURFACES))
def test_surface_rows_and_relations_are_placed_coordinate_by_coordinate(name):
    gf, P = SURFACES[name]
    m, c = gf.n + 1, gf.chart
    I, J = list(gf.I), list(gf.J)
    X = _placed_by_hand(gf, P)
    assert _hex(_liouville_rows(gf, P)) == _hex(X)
    # off the surface, every relation has a defect
    Y = X * (1.0 + 1e-3 * np.arange(1, 2 * m + 1))
    G = _placed_by_hand(gf, Y[:, I + [m + c] + [m + j for j in J]])
    by_hand = np.column_stack([Y[:, c] - G[:, c], Y[:, J] - G[:, J],
                               Y[:, [m + i for i in I]]
                               - G[:, [m + i for i in I]]])
    assert _hex(_membership_components(gf, Y)) == _hex(by_hand)
    assert np.all(by_hand != 0.0)


@pytest.mark.parametrize("build, placed", [
    # product I = (0, 4), chart 1, J = (2, 3): system 2's chart costate
    # is the product's p_3
    (_custom_pair, lambda box1, box2: (box1[0], box2[0], box1[1], box1[2],
                                       box2[1])),
    # product I = (1, 2), chart 0, J = (3, 4): system 2's chart costate
    # and its p_J are the product's p_3 and p_4
    (_reversed_pair, lambda box1, box2: (box1[0], box2[0], box1[1], box2[1],
                                         box2[2]))])
def test_a_composed_param_box_places_each_factor_by_hand(build, placed):
    sys1, sys2, system = build()
    assert system.param_box == placed(sys1.param_box, sys2.param_box)
