"""Phase points, the two canonical one-forms, homogeneity tests and charts."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltk import geometry, submanifold
from ltk.diffkit import ScalarFn, ln
from ltk.geometry import (CHART_DEGENERACY_RATIO, ChartDegenerateError,
                          ContactPoint, EulerFieldKind, PhasePoint,
                          TangentVector, _phase_rows, alpha, best_chart, beta,
                          dehomogenize, euler_residual, homogenize,
                          normalize_costate, project, sample_phase_points,
                          scale_costate)
from ltk.portsys import BUILTIN_SYSTEMS, _sample_surface_params
from ltk.submanifold import GeneratingFunction

PT = PhasePoint(q=[1.0, 2.0], p=[3.0, 4.0])
V = TangentVector(vq=[5.0, 6.0], vp=[7.0, 8.0])

# sum_i q_i p_i: degree 1 in p (fiber) and in q (base)
QP = ScalarFn(lambda x: x[0] * x[2] + x[1] * x[3], dim=4, name="q.p")
# p_0^2: degree 2 in p
P0SQ = ScalarFn(lambda x: x[2] ** 2, dim=4, name="p0^2")


# -- points and vectors ---------------------------------------------------------


def test_zero_costate_rejected():
    with pytest.raises(ValueError, match="zero costate"):
        PhasePoint(q=[1.0, 2.0], p=[0.0, 0.0])


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        PhasePoint(q=[1.0, 2.0], p=[1.0])
    with pytest.raises(ValueError):
        TangentVector(vq=[1.0], vp=[1.0, 2.0])


def test_packed_layout_is_q_then_p():
    assert np.array_equal(PT.packed(), [1.0, 2.0, 3.0, 4.0])
    assert PT.n == 1


def test_contact_point_packed_layout():
    cpt = ContactPoint(chart=0, q=[1.0, 2.0], gamma=[0.5])
    assert np.array_equal(cpt.packed(), [1.0, 2.0, 0.5])
    with pytest.raises(ValueError, match="one entry per non-chart"):
        ContactPoint(chart=0, q=[1.0, 2.0], gamma=[0.5, 0.5])
    with pytest.raises(ValueError, match="chart index"):
        ContactPoint(chart=2, q=[1.0, 2.0], gamma=[0.5])


# -- one-forms -------------------------------------------------------------------


def test_alpha_and_beta_hand_values():
    assert alpha(PT, V) == pytest.approx(3 * 5 + 4 * 6)   # 39
    assert beta(PT, V) == pytest.approx(1 * 7 + 2 * 8)    # 23


def test_one_form_dimension_check():
    with pytest.raises(ValueError, match="dimension"):
        alpha(PT, TangentVector(vq=[1.0], vp=[1.0]))


@settings(max_examples=40, deadline=None)
@given(a=st.floats(-2, 2), b=st.floats(-2, 2))
def test_alpha_is_linear_in_the_vector(a, b):
    u = TangentVector(vq=[1.0, -1.0], vp=[0.5, 0.0])
    combo = TangentVector(a * u.vq + b * V.vq, a * u.vp + b * V.vp)
    assert alpha(PT, combo) == pytest.approx(
        a * alpha(PT, u) + b * alpha(PT, V), rel=1e-12, abs=1e-12)


# -- homogeneity (Euler identities) -----------------------------------------------


def test_euler_residual_degree_one_exact():
    assert euler_residual(QP, PT, 1, EulerFieldKind.Z) == pytest.approx(0, abs=1e-12)
    assert euler_residual(QP, PT, 1, EulerFieldKind.W) == pytest.approx(0, abs=1e-12)


def test_euler_residual_detects_wrong_degree():
    # p.dK/dp - 1*K = 2 p0^2 - p0^2 = 9 at p0 = 3
    assert euler_residual(P0SQ, PT, 1, EulerFieldKind.Z) == pytest.approx(9.0)
    assert euler_residual(P0SQ, PT, 2, EulerFieldKind.Z) == pytest.approx(0.0, abs=1e-12)
    # p0^2 is constant in q, i.e. degree 0 in the base variables
    assert euler_residual(P0SQ, PT, 0, EulerFieldKind.W) == pytest.approx(0.0, abs=1e-12)


def test_euler_residual_checks_dimension():
    with pytest.raises(ValueError, match="dimension"):
        euler_residual(ScalarFn(lambda x: x[0], dim=2), PT, 1)


# -- charts -----------------------------------------------------------------------


def test_project_hand_value():
    pt = PhasePoint(q=[1.0, 2.0], p=[3.0, -4.0])
    cpt = project(pt, 1)
    assert cpt.chart == 1
    assert np.array_equal(cpt.q, [1.0, 2.0])
    assert cpt.gamma[0] == pytest.approx(3.0 / 4.0)   # p_0 / (-p_1)


def test_project_degenerate_chart_names_an_alternative():
    pt = PhasePoint(q=[1.0, 2.0, 3.0], p=[0.0, -5.0, 3.0])
    with pytest.raises(ChartDegenerateError) as err:
        project(pt, 0)
    assert err.value.chart == 0
    assert err.value.best_chart == 1
    assert best_chart(pt) == 1


def test_degeneracy_threshold_is_relative_to_costate_scale():
    tiny = 0.5 * CHART_DEGENERACY_RATIO
    pt = PhasePoint(q=[1.0, 2.0], p=[tiny, 1.0])
    with pytest.raises(ChartDegenerateError):
        project(pt, 0)
    # the same ratio appears after scaling the whole costate up
    scaled = scale_costate(pt, 1e6)
    with pytest.raises(ChartDegenerateError):
        project(scaled, 0)


def test_scale_costate_and_normalize():
    doubled = scale_costate(PT, 2.0)
    assert np.array_equal(doubled.p, [6.0, 8.0])
    assert np.array_equal(doubled.q, PT.q)
    norm = normalize_costate(PhasePoint(q=[1.0, 2.0], p=[3.0, -4.0]))
    assert norm.p[1] == pytest.approx(-1.0)
    with pytest.raises(ValueError, match="nonzero"):
        scale_costate(PT, 0.0)


@settings(max_examples=40, deadline=None)
@given(lam=st.floats(0.05, 20.0), flip=st.booleans())
def test_projection_is_invariant_under_costate_scaling(lam, flip):
    pt = PhasePoint(q=[1.0, 2.0, 0.5], p=[-1.0, 0.4, 0.7])
    scaled = scale_costate(pt, -lam if flip else lam)
    a = project(pt, 0)
    b = project(scaled, 0)
    assert np.allclose(a.gamma, b.gamma, rtol=1e-12, atol=1e-15)


# -- chart representatives: homogenize / dehomogenize ------------------------------


# Khat(q0, q1, gamma1) = gamma1^2 + q0 * gamma1: an energy-chart function
KHAT = ScalarFn(lambda x: x[2] ** 2 + x[0] * x[2], dim=3, name="g1^2 + q0 g1")


def test_homogenize_hand_value():
    K = homogenize(KHAT, 0)
    # at p = (-2, 3): gamma1 = 3/2, K = 2 * (2.25 + q0 * 1.5)
    assert K([1.0, 5.0, -2.0, 3.0]) == pytest.approx(2 * (2.25 + 1.5))
    assert K.dim == 4


def test_homogenize_is_exactly_degree_one():
    K = homogenize(KHAT, 0)
    rng = np.random.default_rng(2)
    for _ in range(20):
        q = rng.uniform(0.5, 1.5, 2)
        p = rng.uniform(0.2, 1.0, 2) * rng.choice([-1.0, 1.0], 2)
        pt = PhasePoint(q, p)
        res = euler_residual(K, pt, 1, EulerFieldKind.Z)
        assert abs(res) <= 1e-12 * (1.0 + abs(float(K(pt.packed()))))


def test_dehomogenize_round_trips():
    K = homogenize(KHAT, 0)
    back = dehomogenize(K, 0)
    x = [0.8, 1.1, 0.6]
    assert back(x) == pytest.approx(float(KHAT(x)), rel=1e-14)


def test_dehomogenize_warns_on_non_homogeneous_input():
    with pytest.warns(UserWarning, match="degree 1"):
        dehomogenize(P0SQ, 0)


def test_homogenize_rejects_even_dimension():
    with pytest.raises(ValueError, match="odd"):
        homogenize(ScalarFn(lambda x: x[0], dim=4), 0)


def test_dehomogenize_rejects_odd_dimension():
    with pytest.raises(ValueError, match="even"):
        dehomogenize(ScalarFn(lambda x: x[0], dim=5), 0)


def test_chart_round_trip_through_phase_space():
    # project then re-realize the costate: gamma determines p up to scale
    pt = PhasePoint(q=[1.0, 2.0], p=[-4.0, 6.0])
    cpt = project(pt, 0)
    rebuilt = PhasePoint(cpt.q, np.concatenate([[-1.0], cpt.gamma]))
    assert np.allclose(project(rebuilt, 0).gamma, cpt.gamma, rtol=1e-15)


# -- samplers: whole-row draws, the per-point loops they replace as oracles -----


def _bytes(rows) -> list:
    return [np.asarray(r, dtype=float).tobytes() for r in rows]


def _uniform(r, lo: float, hi: float) -> float:
    """One draw from [lo, hi) off the stream ``r``, as the samplers take it."""
    return lo + (hi - lo) * r()


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_phase_rows_are_the_per_point_draws(m):
    for seed in range(25):
        for n in (0, 1, 2, 7, 30):
            r = random.Random(seed).random
            loop = []
            for _ in range(n):
                q = [_uniform(r, 0.6, 1.4) for _ in range(m)]
                size = [_uniform(r, 0.2, 1.0) for _ in range(m)]
                loop.append(q + [-a if r() < 0.5 else a for a in size])
            X = _phase_rows(m, n, seed)
            assert X.shape == (n, 2 * m)
            assert _bytes(X) == _bytes(loop)
            assert _bytes(pt.packed() for pt in
                          sample_phase_points(m, n, seed)) == _bytes(loop)


def test_a_negative_seed_is_rejected():
    # random.Random would take -s as s; every seed names one stream
    with pytest.raises(ValueError, match="non-negative seed, got -3"):
        _phase_rows(2, 1, -3)


@pytest.mark.parametrize("name", sorted(BUILTIN_SYSTEMS))
def test_surface_parameters_are_the_per_sample_draws(name):
    system = BUILTIN_SYSTEMS[name]()
    for seed in range(25):
        for n in (0, 1, 2, 25, 30):
            r = random.Random(seed).random
            loop = [[_uniform(r, lo, hi) for lo, hi in system.param_box]
                    for _ in range(n)]
            drawn = _sample_surface_params(system, n, seed)
            assert isinstance(drawn, list) and len(drawn) == n
            assert _bytes(drawn) == _bytes(loop)


def _checked_rows(monkeypatch, module) -> list:
    """The sample rows of each Euler-residual batch ``module`` checks."""
    batches, original = [], module._relative_euler_rows

    def kept(K, X, *args):
        batches.append(np.array(X))
        return original(K, X, *args)

    monkeypatch.setattr(module, "_relative_euler_rows", kept)
    return batches


@pytest.mark.parametrize("n, chart", [(1, 0), (1, 1), (2, 0), (2, 2), (3, 1)])
def test_the_degree_one_spot_check_points_are_the_per_point_draws(
        monkeypatch, n, chart):
    batches = _checked_rows(monkeypatch, geometry)
    K = ScalarFn(lambda x: sum(x[i] * x[n + 1 + i] for i in range(n + 1)),
                 dim=2 * (n + 1), name="q.p")
    dehomogenize(K, chart)
    r = random.Random(7).random
    loop = []
    for _ in range(4):
        q = [_uniform(r, 0.6, 1.4) for _ in range(n + 1)]
        p = [_uniform(r, -0.8, 0.8) for _ in range(n + 1)]
        p[chart] = -1.0
        loop.append(q + [1.3 * v for v in p])
    assert _bytes(batches[0]) == _bytes(loop)


@pytest.mark.parametrize("I, J, negative", [
    ((1,), (), ()), ((1, 2), (), ()), ((2,), (1,), ()), ((1, 3), (2,), ()),
    ((1,), (2, 3), (1,)), ((1,), (2, 3), (0,)), ((3,), (1, 2), (0, 1))])
def test_the_q_homogeneity_check_points_are_the_per_point_draws(
        monkeypatch, I, J, negative):
    # Fhat evaluates only where its gammas at the positions ``negative`` of
    # J are negative; the check takes the six draws into each orthant of
    # gamma_J in turn, all signs + first, and stops at the first that
    # evaluates
    batches = _checked_rows(monkeypatch, submanifold)
    n, nI = len(I) + len(J), len(I)
    Fhat = ScalarFn(lambda x: sum(x[:nI]) * (1.0 + sum(v * v for v in x[nI:]))
                    + sum(0.0 * ln(-x[nI + j]) for j in negative), dim=n)
    GeneratingFunction(n=n, Fhat=Fhat, I=I, J=J, q_homogeneous=True)
    r = random.Random(11).random
    draws = [[_uniform(r, 0.5, 1.5) for _ in range(n)] for _ in range(6)]
    loop = []
    for signs in itertools.product((1.0, -1.0), repeat=len(J)):
        rows = []
        for x in draws:
            q = np.ones(n + 1)
            p = -np.ones(n + 1)
            q[list(I)] = x[:nI]
            p[list(J)] = [s * v for s, v in zip(signs, x[nI:])]
            rows.append(np.concatenate([q, p]))
        loop.append(_bytes(rows))
        if all(signs[j] < 0 for j in negative):
            break
    # an orthant that raises reruns its rows one at a time
    assert [_bytes(X) for X in batches if len(X) == 6] == loop


def test_the_q_homogeneity_check_tries_a_bounded_number_of_orthants(
        monkeypatch):
    # with |J| = 40 there are 2^40 orthants; a Fhat that evaluates nowhere
    # is given up on after 16 of them, and one that evaluates at all
    # signs + is checked on its six draws alone
    batches = _checked_rows(monkeypatch, submanifold)
    n, J = 41, tuple(range(2, 42))
    nowhere = ScalarFn(lambda x: x[0] + 0.0 * ln(-x[0]), dim=n)
    with pytest.raises(ValueError, match="could not evaluate"):
        GeneratingFunction(n=n, Fhat=nowhere, I=(1,), J=J, q_homogeneous=True)
    # each orthant is one batch of six, then its six rows alone
    assert [len(X) for X in batches] == ([6] + [1] * 6) * 16
    batches.clear()
    GeneratingFunction(n=n, Fhat=ScalarFn(lambda x: x[0], dim=n), I=(1,), J=J,
                       q_homogeneous=True)
    assert [len(X) for X in batches] == [6]
