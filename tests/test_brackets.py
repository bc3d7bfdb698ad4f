"""Poisson brackets, degree counting, and the chart-coordinate bracket.

Frozen oracles (hand-computed from the convention
{K1, K2} = sum_i (dK1/dp_i dK2/dq_i - dK1/dq_i dK2/dp_i)):

* {q1 p0, q0 p1} at q = (1, 2), p = (3, 4):  q1 p1 - p0 q0 = 8 - 3 = +5.
* {p0, q0 p0} = p0 everywhere (value +3 at p0 = 3).
* chart bracket {gamma1, q1} = +1 identically; {q0, gamma1} = 0.
* Leibniz defect of (q0, gamma1, gamma1) in chart 0 is -gamma1^2,
  i.e. -4 at gamma1 = 2; replacing q0 by q1 gives a derivation (defect 0).
"""

import numpy as np
import pytest

from ltk.brackets import (BracketReport, _poisson_rows,
                          correspondence_residual, degree_check, jacobi,
                          jacobi_fn, jacobi_identity_residual, leibniz_defect,
                          poisson, poisson_fn)
from ltk.diffkit import (Dual, ScalarFn, _batch_pass, _seeds, exp, fd_grad,
                         grad, ln, sqrt)
from ltk.geometry import ContactPoint, PhasePoint, homogenize

PT = PhasePoint(q=[1.0, 2.0], p=[3.0, 4.0])

Q1P0 = ScalarFn(lambda x: x[1] * x[2], dim=4, name="q1 p0")
Q0P1 = ScalarFn(lambda x: x[0] * x[3], dim=4, name="q0 p1")
P0 = ScalarFn(lambda x: x[2], dim=4, name="p0")
Q0P0 = ScalarFn(lambda x: x[0] * x[2], dim=4, name="q0 p0")
P0SQ = ScalarFn(lambda x: x[2] ** 2, dim=4, name="p0^2")

# chart-0 functions over (q0, q1, gamma1)
GAMMA1 = ScalarFn(lambda x: x[2], dim=3, name="gamma1")
Q0HAT = ScalarFn(lambda x: x[0], dim=3, name="q0")
Q1HAT = ScalarFn(lambda x: x[1], dim=3, name="q1")
ONEHAT = ScalarFn(lambda x: 1.0 + 0.0 * x[0], dim=3, name="1")

CPT = ContactPoint(chart=0, q=[1.0, 0.7], gamma=[2.0])


# -- the phase-space bracket ------------------------------------------------------


def test_poisson_hand_values():
    assert poisson(Q1P0, Q0P1, PT) == pytest.approx(5.0, abs=1e-13)
    assert poisson(P0, Q0P0, PT) == pytest.approx(3.0, abs=1e-13)


def test_poisson_antisymmetry_is_exact():
    rng = np.random.default_rng(21)
    for _ in range(20):
        pt = PhasePoint(rng.uniform(0.6, 1.4, 2),
                        rng.uniform(0.2, 1.0, 2) * rng.choice([-1.0, 1.0], 2))
        assert poisson(Q1P0, Q0P1, pt) == -poisson(Q0P1, Q1P0, pt)
    assert poisson(Q1P0, Q1P0, PT) == 0.0


def test_poisson_fn_matches_pointwise():
    B = poisson_fn(Q1P0, Q0P1)
    assert B(PT.packed()) == pytest.approx(poisson(Q1P0, Q0P1, PT), rel=1e-15)


# operand pairs: polynomial, and transcendental with a sqrt and a ln
EXP_P = ScalarFn(lambda x: exp(x[0]) * x[2] + x[1] * x[1] * x[3], dim=4,
                 name="exp(q0) p0 + q1^2 p1")
ROOT = ScalarFn(lambda x: sqrt(x[2] * x[2] + x[3] * x[3]) * ln(x[0] + 2.0),
                dim=4, name="|p| ln(q0 + 2)")
# four degrees of freedom, where np.dot sums a strided row in another order
DENSE = (ScalarFn(lambda x: exp(x[0]) * x[4] + x[1] * x[5] * x[2] + x[3] * x[6]
                  + x[0] * x[1] * x[7], dim=8, name="dense K1"),
         ScalarFn(lambda x: x[1] * x[4] + exp(x[2]) * x[5] + x[3] * x[0] * x[6]
                  + x[2] * x[7], dim=8, name="dense K2"))
BRACKET_PAIRS = {"polynomial": (Q1P0, Q0P1), "transcendental": (EXP_P, ROOT),
                 "four degrees of freedom": DENSE}
BRACKET_POINTS = np.array([[0.3, 0.7, -1.2, 0.5], [1.1, -0.4, 0.8, 0.9],
                           [0.6, 1.3, -0.3, -1.4]])


@pytest.mark.parametrize("pair", sorted(BRACKET_PAIRS))
def test_the_bracket_is_exact_and_its_rows_are_its_points(pair):
    # the bracket reads its operands' partials from code traced from them,
    # which runs on duals: its gradient is the difference oracle's within
    # its error, a batch's rows are the single points bit for bit, and on
    # floats it is _poisson_rows', the bracket ltk bracket checks, whose
    # batch rows are its points
    K1, K2 = BRACKET_PAIRS[pair]
    B = poisson_fn(K1, K2)
    X = (BRACKET_POINTS if K1.dim == 4 else
         np.cos(np.arange(8 * 40)).reshape(40, 8) + 0.5)
    for x in X:
        np.testing.assert_allclose(grad(B, x), fd_grad(B, x), rtol=0.0,
                                   atol=1e-8)
    assert _batch_pass(B, X, _seeds(*X.shape)) is not None
    assert grad(B, X).tobytes() == np.array([grad(B, x) for x in X]).tobytes()
    values = [B(x) for x in X]
    assert np.array(values).tobytes() == _poisson_rows(K1, K2, X).tobytes()
    assert np.array(values).tobytes() == np.array(
        [_poisson_rows(K1, K2, x[None])[0] for x in X]).tobytes()
    # a dual pass's value is the plain evaluation's
    assert [B([Dual(v, 1.0) for v in x]).val for x in X] == values


def test_a_bracket_of_an_operand_it_cannot_trace_names_it():
    floored = ScalarFn(lambda x: float(x[0]) * x[2], dim=4, name="floored")
    with pytest.raises(ValueError, match=r"^the bracket \{floored, q0 p1\} "
                       r"cannot trace its operands: the trace cannot record "
                       r"floored, as it reads a traced value with float\(\)$"):
        poisson(floored, Q0P1, PT)


def test_bracket_dimension_checks():
    with pytest.raises(ValueError, match="share a phase space"):
        poisson(Q1P0, ScalarFn(lambda x: x[0], dim=6), PT)
    with pytest.raises(ValueError, match="even"):
        poisson_fn(ScalarFn(lambda x: x[0], dim=3),
                   ScalarFn(lambda x: x[0], dim=3))


# -- degree counting ----------------------------------------------------------------


def test_degree_one_generators_close_under_the_bracket():
    report = degree_check(1, 1, Q1P0, Q0P1)
    assert isinstance(report, BracketReport)
    assert report.expected == "degree-1"
    assert report.max_residual < 1e-9
    assert report.max_input_residual < 1e-12
    assert report.n_samples > 0


def test_degree_one_acting_on_degree_zero_gives_degree_zero():
    ratio = ScalarFn(lambda x: x[3] / -x[2], dim=4, name="p1/(-p0)")
    report = degree_check(1, 0, Q1P0, ratio)
    assert report.expected == "degree-0"
    assert report.max_residual < 1e-9
    assert report.max_input_residual < 1e-12


def test_degree_zero_pair_brackets_to_zero():
    r1 = ScalarFn(lambda x: x[4] / -x[3], dim=6, name="p1/(-p0)")
    r2 = ScalarFn(lambda x: x[5] / -x[3], dim=6, name="p2/(-p0)")
    report = degree_check(0, 0, r1, r2)
    assert report.expected == "zero"
    assert report.max_residual < 1e-9


def test_degree_check_flags_misdeclared_operands():
    report = degree_check(1, 1, P0SQ, Q0P1)
    assert report.max_input_residual > 1e-2


def test_degree_check_rejects_unsupported_degrees():
    with pytest.raises(ValueError, match="degrees 0 and 1"):
        degree_check(2, 1, Q1P0, Q0P1)


def test_degree_check_accepts_explicit_points():
    report = degree_check(1, 1, Q1P0, Q0P1, points=[PT])
    assert report.n_samples == 1


# -- the Jacobi structural identity ---------------------------------------------------


@pytest.mark.parametrize("K3, pt", [
    (ScalarFn(lambda x: x[0] * x[2] + x[1] * x[3], dim=4, name="q.p"), PT),
    (EXP_P, PhasePoint(q=[0.3, 0.7], p=[-1.2, 0.5]))],
    ids=["polynomials", "transcendental"])
def test_jacobi_identity_holds_to_roundoff(K3, pt):
    # each inner bracket is traced into its outer one, so the outer
    # brackets differentiate it exactly (7.3e-11 and 1.96e-11 when they
    # took differences)
    assert jacobi_identity_residual(Q1P0, Q0P1, K3, pt) <= 1e-13


def test_correspondence_of_fields_and_brackets():
    # [X_K1, X_K2] = X_{K1,K2}, measured by finite differences
    KHAT = ScalarFn(lambda x: x[2] ** 2 + x[0] * x[2], dim=3)
    K1 = homogenize(KHAT, 0)
    assert correspondence_residual(K1, Q0P1, PT) < 1e-6
    assert correspondence_residual(Q1P0, Q0P1, PT) < 1e-6


# -- the chart bracket ------------------------------------------------------------------


def test_chart_bracket_hand_values():
    assert jacobi(GAMMA1, Q1HAT, CPT) == pytest.approx(1.0, abs=1e-12)
    assert jacobi(Q0HAT, GAMMA1, CPT) == pytest.approx(0.0, abs=1e-12)


def test_a_chart_bracket_takes_a_batch_of_duals():
    # the chart bracket of functions with a sqrt is one vector pass: the
    # sqrt's derivative line of the traced partials runs on a batch
    f = ScalarFn(lambda x: sqrt(x[0] * x[0] + x[2] * x[2]), dim=3,
                 name="sqrt(q0^2 + gamma1^2)")
    B = jacobi_fn(f, Q1HAT, 0)
    X = np.array([[1.0, 0.7, 2.0], [0.5, 1.2, -0.3], [1.4, 0.2, 0.9]])
    assert _batch_pass(B, X, _seeds(*X.shape)) is not None
    assert grad(B, X).tobytes() == np.array([grad(B, x) for x in X]).tobytes()


def test_chart_bracket_function_form_matches():
    fn = jacobi_fn(GAMMA1, Q1HAT, 0)
    assert fn.dim == 3
    assert fn(CPT.packed()) == pytest.approx(jacobi(GAMMA1, Q1HAT, CPT),
                                             rel=1e-14)
    with pytest.raises(ValueError, match="share a chart space"):
        jacobi_fn(GAMMA1, ScalarFn(lambda x: x[0], dim=5), 0)


def test_leibniz_defect_oracle():
    # {q0, gamma1^2} differs from the derivation value by -gamma1^2
    assert leibniz_defect(Q0HAT, GAMMA1, GAMMA1, CPT) == pytest.approx(
        -4.0, abs=1e-9)


def test_leibniz_holds_for_base_coordinates_off_the_chart_slot():
    assert leibniz_defect(Q1HAT, GAMMA1, GAMMA1, CPT) == pytest.approx(
        0.0, abs=1e-9)


def test_constants_are_not_central_in_the_chart_bracket():
    # {q0, 1} = 1 (the lift of a constant is -p0, not zero), so multiplying
    # by a constant shifts the bracket: defect(q0, 1, h) = -h * {q0, 1}
    assert jacobi(Q0HAT, ONEHAT, CPT) == pytest.approx(1.0, abs=1e-12)
    assert leibniz_defect(Q0HAT, ONEHAT, GAMMA1, CPT) == pytest.approx(
        -2.0, abs=1e-9)
    # ... while a first slot whose lift avoids the chart fiber is a derivation
    assert leibniz_defect(Q1HAT, ONEHAT, GAMMA1, CPT) == pytest.approx(
        0.0, abs=1e-9)


def test_leibniz_defect_requires_matching_dimensions():
    with pytest.raises(ValueError, match="share a chart space"):
        leibniz_defect(Q0HAT, GAMMA1, ScalarFn(lambda x: x[0], dim=5), CPT)


def test_defect_scales_with_the_chart_variable():
    # the defect tracks -gamma1^2 across points, not just at the oracle
    for g in (0.5, 1.0, 3.0):
        cpt = ContactPoint(chart=0, q=[1.0, 0.7], gamma=[g])
        assert leibniz_defect(Q0HAT, GAMMA1, GAMMA1, cpt) == pytest.approx(
            -g * g, abs=1e-9)
