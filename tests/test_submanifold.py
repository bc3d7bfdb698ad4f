"""Generating functions, lifted state surfaces and their scaling reductions.

Frozen oracle values are hand derivatives of small generating functions:

* exp-energy compartment  Fhat(q1) = exp(q1), lift F = -p0 exp(q1):
  at (q1, p0) = (0.3, -2) the realized point is
  q = (e^0.3, 0.3), p = (-2, 2 e^0.3).
* homogeneous square root  Fhat(q1, q2) = sqrt(q1 q2):
  at (q1, q2, p0) = (1, 4, -1) the point is q = (2, 1, 4), p = (-1, 1, 1/4)
  with q.p = 0, and the reduction at (q1, q2) = (1, 4) packs to
  [2, 4, 1, 1/4].
* mixed-type surface  Fhat(q1, gamma2) = q1 gamma2, lift F = q1 p2:
  at (q1, p0, p2) = (2, -1, 3) the point is q = (0, 2, -2), p = (-1, 3, 3).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltk.diffkit import ScalarFn, grad, ln, sqrt
from ltk.geometry import ChartDegenerateError, PhasePoint, alpha, beta
from ltk.submanifold import (GeneratingFunction, gibbs_duhem_check,
                             legendre_point, lift_generating_function,
                             lift_phase_fn, liouville_point, membership_norm,
                             membership_residual, reduced_point, specific_form,
                             tangent_basis)


def exp_gf():
    return GeneratingFunction(
        n=1, Fhat=ScalarFn(lambda x: math.e ** x[0], dim=1, name="exp"),
        I=(1,), chart=0, name="exp_energy")


def sqrt_gf():
    return GeneratingFunction(
        n=2, Fhat=ScalarFn(lambda x: sqrt(x[0] * x[1]), dim=2, name="sqrt"),
        I=(1, 2), chart=0, q_homogeneous=True, name="geometric_mean")


def mixed_gf():
    return GeneratingFunction(
        n=2, Fhat=ScalarFn(lambda x: x[0] * x[1], dim=2, name="q1*g2"),
        I=(1,), J=(2,), chart=0, name="mixed")


# -- construction-time validation ------------------------------------------------


def test_index_sets_must_cover_non_chart_indices():
    F = ScalarFn(lambda x: x[0], dim=1)
    with pytest.raises(ValueError, match="cover"):
        GeneratingFunction(n=1, Fhat=F, I=(), J=(), chart=0)
    with pytest.raises(ValueError, match="disjoint"):
        GeneratingFunction(n=1, Fhat=ScalarFn(lambda x: x[0], dim=2),
                           I=(1,), J=(1,), chart=0)


def test_fhat_dimension_must_match_index_count():
    with pytest.raises(ValueError, match="argument"):
        GeneratingFunction(n=2, Fhat=ScalarFn(lambda x: x[0], dim=1),
                           I=(1, 2), chart=0)


def test_chart_index_range():
    with pytest.raises(ValueError, match="chart"):
        GeneratingFunction(n=1, Fhat=ScalarFn(lambda x: x[0], dim=1),
                           I=(1,), chart=5)


def test_false_homogeneity_declaration_is_caught():
    with pytest.raises(ValueError, match="homogeneous"):
        GeneratingFunction(n=1, Fhat=ScalarFn(lambda x: x[0] ** 2, dim=1),
                           I=(1,), chart=0, q_homogeneous=True)


def test_homogeneity_needs_some_base_arguments():
    with pytest.raises(ValueError, match="nonempty I"):
        GeneratingFunction(n=1, Fhat=ScalarFn(lambda x: x[0], dim=1),
                           I=(), J=(1,), chart=0, q_homogeneous=True)


def _ideal_gas_gibbs(excess=lambda N: 0.0) -> GeneratingFunction:
    """The ideal gas's Gibbs function G(N, T, gamma_V) at c_v = 1.5 and
    R = T_ref = v0 = 1, s0 = 0, plus ``excess(N)``, over (E, S, V, N) with
    I = {N} and J = {S, V}: gamma_S = T > 0, gamma_V = -P < 0."""
    def G(a):
        N, T, P = a[0], a[1], -a[2]
        return (N * 1.5 * T - T * N * (1.5 * ln(T) + ln(T / P)) + N * T
                + excess(N))
    return GeneratingFunction(n=3, Fhat=ScalarFn(G, dim=3), I=(3,), J=(1, 2),
                              chart=0, q_homogeneous=True)


def test_a_potential_with_a_negative_intensive_argument_checks_homogeneity():
    # only the orthant gamma_S > 0 > gamma_V of the draws is in G's domain
    assert _ideal_gas_gibbs().q_homogeneous
    with pytest.raises(ValueError, match="declared q_homogeneous"):
        _ideal_gas_gibbs(lambda N: N * ln(N))


def test_parameter_count_is_checked():
    with pytest.raises(ValueError, match="parameters"):
        liouville_point(exp_gf(), [0.3])
    with pytest.raises(ValueError, match="nonzero"):
        liouville_point(exp_gf(), [0.3, 0.0])


# -- the lift and realized points --------------------------------------------------


def test_lift_hand_value():
    F = lift_generating_function(exp_gf())
    # F(q1, p0) = -p0 exp(q1)
    assert F([0.3, -2.0]) == pytest.approx(2 * math.exp(0.3), rel=1e-14)


def test_liouville_point_exp_oracle():
    pt = liouville_point(exp_gf(), [0.3, -2.0])
    assert pt.q == pytest.approx([math.exp(0.3), 0.3], rel=1e-14)
    assert pt.p == pytest.approx([-2.0, 2 * math.exp(0.3)], rel=1e-14)


def test_liouville_point_sqrt_oracle():
    pt = liouville_point(sqrt_gf(), [1.0, 4.0, -1.0])
    assert pt.q == pytest.approx([2.0, 1.0, 4.0], rel=1e-14)
    assert pt.p == pytest.approx([-1.0, 1.0, 0.25], rel=1e-14)
    # extensivity: the Euler pairing vanishes on a homogeneous surface
    assert float(np.dot(pt.q, pt.p)) == pytest.approx(0.0, abs=1e-14)


def test_liouville_point_mixed_oracle():
    pt = liouville_point(mixed_gf(), [2.0, -1.0, 3.0])
    assert pt.q == pytest.approx([0.0, 2.0, -2.0], abs=1e-14)
    assert pt.p == pytest.approx([-1.0, 3.0, 3.0], rel=1e-14)


def test_membership_residual_zero_on_surface_and_ordered_off_it():
    gf = sqrt_gf()
    pt = liouville_point(gf, [1.0, 4.0, -1.0])
    assert np.max(np.abs(membership_residual(gf, pt))) < 1e-14
    # perturb the chart coordinate: the defect lands in the first slot
    off = PhasePoint(pt.q + np.array([0.1, 0.0, 0.0]), pt.p)
    res = membership_residual(gf, off)
    assert res[0] == pytest.approx(0.1, rel=1e-12)
    assert res[1:] == pytest.approx([0.0, 0.0], abs=1e-14)


def test_membership_residual_mixed_order_is_chart_then_J_then_I():
    gf = mixed_gf()
    pt = liouville_point(gf, [2.0, -1.0, 3.0])
    off = PhasePoint(pt.q + np.array([0.0, 0.0, 0.25]), pt.p)
    res = membership_residual(gf, off)        # [chart, q_2 relation, p_1 relation]
    assert res == pytest.approx([0.0, 0.25, 0.0], abs=1e-13)


def test_membership_residual_needs_a_usable_chart():
    gf = exp_gf()
    with pytest.raises(ChartDegenerateError):
        membership_residual(gf, PhasePoint([1.0, 0.3], [0.0, 1.0]))


def test_membership_names_the_expected_and_the_given_sizes():
    gf = sqrt_gf()                            # n = 2: 6 phase coordinates
    with pytest.raises(ValueError, match=r"^expected 6 phase coordinates "
                       r"\(n=2\), got 7$"):
        membership_norm(gf, np.ones(7))
    with pytest.raises(ValueError, match=r"^expected 6 phase coordinates "
                       r"\(n=2\), got 4$"):
        membership_residual(gf, PhasePoint([1.0, 2.0], [-1.0, 0.5]))


def test_lift_phase_fn_is_degree_one_on_the_whole_bundle():
    from ltk.geometry import EulerFieldKind, euler_residual
    K = lift_phase_fn(sqrt_gf())
    rng = np.random.default_rng(4)
    for _ in range(20):
        pt = PhasePoint(rng.uniform(0.5, 1.5, 3),
                        rng.uniform(0.2, 1.0, 3) * rng.choice([-1.0, 1.0], 3))
        res = euler_residual(K, pt, 1, EulerFieldKind.Z)
        assert abs(res) <= 1e-9 * (1.0 + abs(float(K(pt.packed()))))


def _chart_relations(gf, params):
    """The chart point of (q_I, gamma_J) straight from Fhat and its
    gradient: q_c = Fhat - sum_J gamma_j dFhat/dgamma_j,
    q_J = -dFhat/dgamma_J, gamma_I = dFhat/dq_I."""
    nI = len(gf.I)
    g = grad(gf.Fhat, params)
    q = np.empty(gf.n + 1)
    gamma = np.empty(gf.n + 1)
    q[list(gf.I)], gamma[list(gf.I)] = params[:nI], g[:nI]
    q[list(gf.J)], gamma[list(gf.J)] = -g[nI:], params[nI:]
    q[gf.chart] = float(gf.Fhat(params)) - float(np.dot(params[nI:], g[nI:]))
    return q, np.delete(gamma, gf.chart)


def _assert_legendre_point_matches_chart_relations(gf, params):
    cpt = legendre_point(gf, params)
    q, gamma = _chart_relations(gf, np.asarray(params, dtype=float))
    assert cpt.chart == gf.chart
    np.testing.assert_allclose(cpt.q, q, rtol=1e-13)
    np.testing.assert_allclose(cpt.gamma, gamma, rtol=1e-13)


def test_legendre_point_matches_the_chart_relations():
    _assert_legendre_point_matches_chart_relations(mixed_gf(), [2.0, 3.0])


@pytest.mark.parametrize("name", ["gas_piston_damper", "heat_compartment",
                                  "heat_exchanger", "ideal_gas_SVN"])
def test_legendre_point_matches_the_chart_relations_on_builtins(name):
    from ltk.portsys import builtin
    system = builtin(name)
    gf, nI = system.gf, len(system.gf.I)
    rng = np.random.default_rng(3)
    lo, hi = np.array(system.param_box).T
    for _ in range(50):
        P = rng.uniform(lo, hi)          # (q_I, p_chart, p_J); gamma_J = p_J
        _assert_legendre_point_matches_chart_relations(
            gf, np.delete(P, nI).tolist())


# -- tangency of the canonical one-form ---------------------------------------------


@pytest.mark.parametrize("make_gf, params", [
    (exp_gf, [0.3, -2.0]),
    (sqrt_gf, [1.0, 4.0, -1.0]),
    (mixed_gf, [2.0, -1.0, 3.0]),
])
def test_alpha_vanishes_on_tangent_vectors(make_gf, params):
    gf = make_gf()
    pt = liouville_point(gf, params)
    for v in tangent_basis(gf, params):
        assert abs(alpha(pt, v)) < 1e-9


def test_beta_vanishes_only_for_homogeneous_surfaces():
    gf = sqrt_gf()
    params = [1.0, 4.0, -1.0]
    pt = liouville_point(gf, params)
    assert max(abs(beta(pt, v)) for v in tangent_basis(gf, params)) < 1e-9

    hetero = exp_gf()
    params = [0.3, -2.0]
    pt = liouville_point(hetero, params)
    assert max(abs(beta(pt, v)) for v in tangent_basis(hetero, params)) > 1e-3


@settings(max_examples=30, deadline=None)
@given(q1=st.floats(0.5, 2.0), q2=st.floats(0.5, 2.0),
       p0=st.floats(0.5, 2.0), sign=st.booleans())
def test_realized_points_are_members(q1, q2, p0, sign):
    gf = sqrt_gf()
    params = [q1, q2, -p0 if sign else p0]
    pt = liouville_point(gf, params)
    assert np.max(np.abs(membership_residual(gf, pt))) < 1e-10 * (
        1.0 + float(np.max(np.abs(pt.p))))


# -- scaling structure: Gibbs-Duhem style checks -------------------------------------


def test_gibbs_duhem_check_on_homogeneous_surface():
    gf = sqrt_gf()
    rng = np.random.default_rng(17)
    samples = [np.array([rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0),
                         -rng.uniform(0.5, 2.0)]) for _ in range(30)]
    report = gibbs_duhem_check(gf, samples)
    assert report.n_samples == 30
    assert report.max_qp_rel < 1e-12
    assert report.max_beta < 1e-9
    assert report.max_w_membership < 1e-10
    d = report.as_dict()
    assert set(d) == {"n_samples", "max_qp_abs", "max_qp_rel", "max_beta",
                      "max_w_membership"}


def test_gibbs_duhem_check_requires_declared_homogeneity():
    with pytest.raises(ValueError, match="q_homogeneous"):
        gibbs_duhem_check(exp_gf(), [np.array([0.3, -2.0])])


def test_heterogeneous_surface_fails_the_scaled_membership_probe():
    # same check, applied by hand to a non-homogeneous surface: doubling the
    # base coordinates leaves the surface
    gf = exp_gf()
    pt = liouville_point(gf, [0.3, -2.0])
    scaled = PhasePoint(2.0 * pt.q, pt.p)
    assert np.max(np.abs(membership_residual(gf, scaled))) > 1e-2


# -- reduction to specific (per-unit) coordinates ------------------------------------


def test_specific_form_oracle():
    Fbar = specific_form(sqrt_gf())
    assert Fbar.dim == 1
    assert Fbar([4.0]) == pytest.approx(2.0, rel=1e-14)


def test_specific_form_requires_the_graph_shape():
    with pytest.raises(ValueError, match="chart 0"):
        specific_form(mixed_gf())
    with pytest.raises(ValueError, match="q_homogeneous"):
        # right shape, but no homogeneity declaration
        gf = GeneratingFunction(
            n=2, Fhat=ScalarFn(lambda x: x[0] * x[1], dim=2), I=(1, 2), chart=0)
        specific_form(gf)


def test_reduced_point_oracle():
    # eps = 4, Fbar = sqrt(eps): value 2, slope 1/4,
    # gamma_1 = 2 - 4/4 = 1, gamma_2 = 1/4
    packed = reduced_point(sqrt_gf(), [1.0, 4.0])
    assert packed == pytest.approx([2.0, 4.0, 1.0, 0.25], rel=1e-13)


def test_reduced_point_matches_projected_realization():
    gf = sqrt_gf()
    params = [2.0, 3.0]
    packed = reduced_point(gf, params)
    pt = liouville_point(gf, params + [-1.0])
    # eps_0 = q_0 / q_1, gamma_j = p_j / (-p_0)
    assert packed[0] == pytest.approx(pt.q[0] / pt.q[1], rel=1e-13)
    assert packed[1] == pytest.approx(pt.q[2] / pt.q[1], rel=1e-13)
    assert packed[2] == pytest.approx(pt.p[1] / (-pt.p[0]), rel=1e-13)
    assert packed[3] == pytest.approx(pt.p[2] / (-pt.p[0]), rel=1e-13)


def test_reduced_point_rejects_vanishing_divisor():
    with pytest.raises(ValueError, match="q_1"):
        reduced_point(sqrt_gf(), [0.0, 4.0])
