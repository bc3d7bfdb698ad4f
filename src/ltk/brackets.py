"""Poisson brackets of phase functions and their chart-coordinate form.

The bracket convention used throughout is

    {K1, K2} = sum_i (dK1/dp_i dK2/dq_i - dK1/dq_i dK2/dp_i)

which pairs with the canonical field of :mod:`ltk.dynamics` so that
``[X_K1, X_K2] = X_{K1, K2}`` — the correspondence is itself a library check
(:func:`correspondence_residual`) rather than an assumption.

Brackets interact with fiber homogeneity by degree counting: the bracket of
degree-a and degree-b functions is homogeneous of degree a + b - 1.  In
particular degree-1 generators are closed under the bracket, and the bracket
of a degree-1 with a degree-0 function is again degree 0.  For pairs of
degree-0 functions built from chart ratios or from the base alone the bracket
vanishes; :func:`degree_check` measures all three statements on samples.

Chart coordinates inherit a bracket by conjugation with the chart
correspondence: homogenize both operands, bracket, then read the result back
in the chart (:func:`jacobi`, with :func:`jacobi_fn` the function-valued
form).  The result is a well-defined bracket on chart functions but it is not
a derivation in each slot — the product rule fails by a measurable defect
(:func:`leibniz_defect`) whenever the first operand is not the restriction of
a degree-1 function.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diffkit import ScalarFn, _sample_rows, _values_and_fd_dirderivs, grad
from .dynamics import lie_bracket_fd, phase_rhs
from .geometry import (ContactPoint, PhasePoint, _pairing, _phase_rows,
                       _relative_euler_rows, dehomogenize, homogenize)

__all__ = [
    "BracketReport",
    "poisson",
    "poisson_fn",
    "jacobi",
    "jacobi_fn",
    "degree_check",
    "jacobi_identity_residual",
    "leibniz_defect",
    "correspondence_residual",
]


@dataclass
class BracketReport:
    """Worst-case residuals of a sampled bracket degree statement."""

    degree1: int
    degree2: int
    expected: str             # "degree-1", "degree-0", or "zero"
    max_residual: float       # relative residual of the statement, see degree_check
    max_input_residual: float  # worst relative Euler residual of the operands
    n_samples: int


def _check_pair(K1: ScalarFn, K2: ScalarFn):
    if K1.dim != K2.dim:
        raise ValueError(f"bracket operands must share a phase space, got "
                         f"dimensions {K1.dim} and {K2.dim}")
    if K1.dim % 2:
        raise ValueError("phase-space functions need an even dimension")
    return K1.dim // 2


def poisson(K1: ScalarFn, K2: ScalarFn, pt: PhasePoint) -> float:
    """Evaluate {K1, K2} at a phase point."""
    return float(poisson_fn(K1, K2)(pt.packed()))


def _bracket(g1, g2, m: int):
    """{K1, K2} from the gradients of its operands, of any number kind, at
    one point or as the columns of a batch (:func:`~ltk.geometry._pairing`)."""
    return _pairing(g1[m:], g2[:m]) - _pairing(g1[:m], g2[m:])


def _poisson_rows(K1: ScalarFn, K2: ScalarFn, X) -> np.ndarray:
    """{K1, K2} at each row of a (B, 2m) array of points: one vector-mode
    pass per operand, bracketed column by column."""
    m = _check_pair(K1, K2)
    return _bracket(list(grad(K1, X).T), list(grad(K2, X).T), m)


def poisson_fn(K1: ScalarFn, K2: ScalarFn) -> ScalarFn:
    """The bracket {K1, K2} as a phase function.

    It reads its operands' partials from code traced from both at the
    first point it is evaluated at (:class:`~ltk.tracegrad.PartialSumKernel`,
    one group per coordinate), which runs on floats, duals and traced
    values: so the bracket takes them too, its value is
    :func:`_poisson_rows`', and its gradient is exact, forward mode over the
    recorded gradient code (Griewank & Walther, *Evaluating Derivatives*,
    2nd ed.).  An operand that raises at that point raises its own error;
    one the trace cannot record raises ``ValueError`` naming it.
    """
    m = _check_pair(K1, K2)
    name = f"{{{K1.name or 'K1'}, {K2.name or 'K2'}}}"
    kernel = None

    def fn(x):
        nonlocal kernel
        if kernel is None:
            from .tracegrad import PartialSumKernel
            traced = PartialSumKernel((K1, K2), x, [[i] for i in range(2 * m)])
            if traced.reason is not None:
                raise ValueError(f"the bracket {name} cannot trace its "
                                 f"operands: {traced.reason}")
            kernel = traced
        g = [0.0 + y for y in kernel(x)]    # a zero partial as grad's +0.0
        return _bracket(g[:2 * m], g[2 * m:], m)

    return ScalarFn(fn, dim=2 * m, name=name)


def jacobi_fn(K1hat: ScalarFn, K2hat: ScalarFn, chart: int) -> ScalarFn:
    """The chart-coordinate bracket {K1hat, K2hat} on chart ``chart``.

    Computed by conjugation: homogenize both operands to degree-1 phase
    functions, bracket there, and restrict back to the chart.
    """
    if K1hat.dim != K2hat.dim:
        raise ValueError("chart bracket operands must share a chart space")
    B = poisson_fn(homogenize(K1hat, chart), homogenize(K2hat, chart))
    out = dehomogenize(B, chart)
    return ScalarFn(out.fn, dim=out.dim,
                    name=f"{{{K1hat.name or 'K1'}, {K2hat.name or 'K2'}}}_chart{chart}")


def jacobi(K1hat: ScalarFn, K2hat: ScalarFn, cpt: ContactPoint) -> float:
    """Evaluate the chart-coordinate bracket at a contact point."""
    return float(jacobi_fn(K1hat, K2hat, cpt.chart)(cpt.packed()))


def degree_check(degree1: int, degree2: int, K1: ScalarFn, K2: ScalarFn,
                 points=None, n_samples: int = 40, seed: int = 5) -> BracketReport:
    """Check the homogeneity statement for the bracket of K1 and K2.

    For declared fiber degrees (1,1) the bracket is checked to be degree 1;
    for (1,0) and (0,1), degree 0; for (0,0) the bracket value itself is
    checked to vanish (valid for chart-ratio and base-only functions, which
    is how degree-0 observables arise here).  The operands' own declared
    degrees are verified alongside and reported as ``max_input_residual``.
    Residuals are relative: Euler residuals are divided by 1 + |value|, and
    the (0,0) bracket value by 1 + |K1 K2| at the point.  ``points``
    defaults to ``n_samples`` draws of
    :func:`~ltk.geometry.sample_phase_points`; points where an operand is
    undefined or not finite are skipped.  The points are one batch: each
    residual takes one vector-mode pass per operand, the bracket's own Euler
    residual one more over the points and their two difference points.
    """
    X = (_phase_rows(K1.dim // 2, n_samples, seed) if points is None
         else np.array([pt.packed() for pt in points]))
    return _degree_rows(degree1, degree2, K1, K2, X)


def _degree_rows(degree1: int, degree2: int, K1: ScalarFn, K2: ScalarFn,
                 X: np.ndarray) -> BracketReport:
    """:func:`degree_check` on the packed phase points at the rows of X."""
    if {degree1, degree2} - {0, 1}:
        raise ValueError("degree_check handles fiber degrees 0 and 1")
    m = _check_pair(K1, K2)

    def residuals(rows):
        x = X[rows]
        in1, val1 = _relative_euler_rows(K1, x, degree1)
        in2, val2 = _relative_euler_rows(K2, x, degree2)
        if degree1 == 0 and degree2 == 0:
            res = (np.abs(_poisson_rows(K1, K2, x))
                   / (1.0 + np.abs(val1 * val2)))
        else:
            # a central difference along the fiber Euler field, though
            # poisson_fn's duals give it exactly: that route moved the
            # perfbench audit workload's job_p50 from 2.9-3.5 ms to 4.1-4.3
            # ms (seed 7, three alternated runs, CPython 3.11, 2-CPU host)
            along = np.hstack([np.zeros_like(x[:, :m]), x[:, m:]])
            val, dot = _values_and_fd_dirderivs(
                lambda y: _poisson_rows(K1, K2, y), x, along)
            res = (np.abs(dot - (degree1 + degree2 - 1) * val)
                   / (1.0 + np.abs(val)))
        return np.column_stack([in1, in2, res])

    used, R = _sample_rows(residuals, len(X))
    if not len(used):
        raise ValueError("no sample point was evaluable for both operands")
    label = ("zero" if degree1 == degree2 == 0
             else f"degree-{degree1 + degree2 - 1}")
    return BracketReport(degree1, degree2, label, float(R[:, 2].max()),
                         float(R[:, :2].max()), len(used))


def jacobi_identity_residual(K1: ScalarFn, K2: ScalarFn, K3: ScalarFn,
                             pt: PhasePoint) -> float:
    """|{{K1,K2},K3} + {{K2,K3},K1} + {{K3,K1},K2}| at a point.

    Each inner bracket is traced into its outer one, so the outer brackets
    differentiate it exactly and the residual is roundoff.
    """
    total = (poisson(poisson_fn(K1, K2), K3, pt)
             + poisson(poisson_fn(K2, K3), K1, pt)
             + poisson(poisson_fn(K3, K1), K2, pt))
    return abs(total)


def leibniz_defect(f: ScalarFn, g: ScalarFn, h: ScalarFn,
                   cpt: ContactPoint) -> float:
    """{f, g*h} - {f, g} h - g {f, h} in the chart bracket, at a contact point.

    Zero whenever f homogenizes to a bracket derivation (for instance when f
    is the restriction of a degree-1 function in the chart's own fiber slot);
    nonzero in general — the chart bracket is not a Poisson bracket.
    """
    if not (f.dim == g.dim == h.dim):
        raise ValueError("Leibniz operands must share a chart space")
    gh = ScalarFn(lambda v: g(v) * h(v), dim=g.dim, name="g*h")
    chart = cpt.chart
    x = cpt.packed()
    left = float(jacobi_fn(f, gh, chart)(x))
    right = (float(jacobi_fn(f, g, chart)(x)) * float(h(x))
             + float(g(x)) * float(jacobi_fn(f, h, chart)(x)))
    return left - right


def correspondence_residual(K1: ScalarFn, K2: ScalarFn, pt: PhasePoint) -> float:
    """Max-abs defect of [X_K1, X_K2] = X_{K1,K2} at a point.

    The left side is a finite-difference Lie bracket of the two canonical
    fields; the right side is the canonical field of the bracket function,
    from its exact gradient.
    """
    _check_pair(K1, K2)
    f1 = phase_rhs(K1)
    f2 = phase_rhs(K2)
    fb = phase_rhs(poisson_fn(K1, K2))
    x = pt.packed()
    lhs = lie_bracket_fd(lambda v: f1(0.0, v), lambda v: f2(0.0, v), x)
    rhs = fb(0.0, x)
    return float(np.max(np.abs(lhs - rhs)))
