"""The cotangent bundle minus its zero section, and its projective charts.

Points carry extensive coordinates ``q = (q_0, ..., q_n)`` and a nonzero
costate ``p = (p_0, ..., p_n)``.  The structures implemented here are

* the canonical (Liouville) one-form  ``alpha = sum_i p_i dq_i``,
* the companion one-form              ``beta  = sum_i q_i dp_i``,
* the fiber Euler field  ``Z = sum_i p_i d/dp_i``  and its base analogue
  ``W = sum_i q_i d/dq_i``,
* homogeneity tests via Euler's identity
  ``sum_i p_i dK/dp_i = r K``  (degree ``r`` in ``p``, similarly in ``q``),
* projective charts: chart ``c`` normalizes the costate by ``-p_c`` and uses
  the intensive ratios ``gamma_j = p_j / (-p_c)`` for ``j != c`` as fiber
  coordinates.  Chart 0 is the energy representation and chart 1 the entropy
  representation of the same underlying state.  A chart is degenerate where
  ``|p_c| < CHART_DEGENERACY_RATIO * max_i |p_i|``.

A degree-1 function ``K(q, p)`` and its chart representative ``Khat(q, gamma)``
determine each other by

    Khat(q, gamma) = K(q, p) at p_c = -1, p_j = gamma_j     (dehomogenize)
    K(q, p)        = -p_c * Khat(q, p_j / (-p_c))           (homogenize)

which is how contact Hamiltonians are handled throughout this package.

This module is the package's one home of that arithmetic: ``_cone`` writes
the cone formula, ``_chart_rows`` the projection and the degeneracy rule.
"""

from __future__ import annotations

import enum
import random
import warnings
from dataclasses import dataclass

import numpy as np

from .diffkit import ScalarFn, _sample_rows, _values_and_dirderivs

__all__ = [
    "PhasePoint",
    "TangentVector",
    "ContactPoint",
    "EulerFieldKind",
    "ChartDegenerateError",
    "alpha",
    "beta",
    "euler_residual",
    "project",
    "sample_phase_points",
    "scale_costate",
    "normalize_costate",
    "homogenize",
    "dehomogenize",
]

# Chart costates smaller than this fraction of the largest costate component
# count as degenerate; the ratio keeps the test invariant under fiber scaling.
CHART_DEGENERACY_RATIO = 1e-12


class ChartDegenerateError(ValueError):
    """The requested chart's costate vanishes (relative to max |p_i|)."""

    def __init__(self, chart: int, best_chart: int):
        super().__init__(
            f"chart {chart} is degenerate at this point (|p_{chart}| below "
            f"{CHART_DEGENERACY_RATIO} * max|p_i|); best chart: {best_chart}")
        self.chart = chart
        self.best_chart = best_chart


@dataclass
class PhasePoint:
    """A point (q, p) of the cotangent bundle with p != 0.

    Constructing a point with an identically zero costate is an error: the
    projective fiber coordinates (and everything built on them) only exist
    away from the zero section.
    """

    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=float)
        self.p = np.asarray(self.p, dtype=float)
        if self.q.ndim != 1 or self.p.ndim != 1 or len(self.q) != len(self.p):
            raise ValueError("q and p must be 1-d arrays of equal length")
        if np.max(np.abs(self.p)) == 0.0:
            raise ValueError("zero costate: points live on the cotangent "
                             "bundle without its zero section")

    @property
    def n(self) -> int:
        return len(self.q) - 1

    def packed(self) -> np.ndarray:
        """The (q, p) concatenation used by phase-space ScalarFns."""
        return np.concatenate([self.q, self.p])


@dataclass
class TangentVector:
    """A tangent vector (vq, vp) at some phase point."""

    vq: np.ndarray
    vp: np.ndarray

    def __post_init__(self):
        self.vq = np.asarray(self.vq, dtype=float)
        self.vp = np.asarray(self.vp, dtype=float)
        if self.vq.ndim != 1 or self.vp.ndim != 1 or len(self.vq) != len(self.vp):
            raise ValueError("vq and vp must be 1-d arrays of equal length")


@dataclass
class ContactPoint:
    """A point of projective chart ``chart``: base q plus intensive gamma.

    ``gamma[k]`` holds ``p_j / (-p_chart)`` for the k-th non-chart index j in
    ascending order (so chart 0 with p = (p_E, p_S, p_V) gives
    gamma = (T, -P) in the usual thermodynamic reading).
    """

    chart: int
    q: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=float)
        self.gamma = np.asarray(self.gamma, dtype=float)
        if not 0 <= self.chart < len(self.q):
            raise ValueError(f"chart index {self.chart} out of range")
        if len(self.gamma) != len(self.q) - 1:
            raise ValueError("gamma must have one entry per non-chart index")
        if not np.all(np.isfinite(self.gamma)):
            raise ValueError("gamma must be finite")

    def packed(self) -> np.ndarray:
        """The (q, gamma) concatenation used by chart ScalarFns."""
        return np.concatenate([self.q, self.gamma])


class EulerFieldKind(enum.Enum):
    """Which Euler field a homogeneity statement refers to."""

    Z = "Z"  # sum_i p_i d/dp_i : fiber scaling
    W = "W"  # sum_i q_i d/dq_i : base (extensive-variable) scaling


def _check_dims(pt: PhasePoint, v: TangentVector):
    if len(v.vq) != len(pt.q):
        raise ValueError(f"tangent dimension {len(v.vq)} does not match "
                         f"point dimension {len(pt.q)}")


def _pairing(a, b):
    """``sum_i a_i b_i`` summed left to right, of floats, Duals, traced
    values or a batch's columns: the one order of a pairing two routes must
    agree on, so a batch row is its point's (np.dot's order is not)."""
    total = a[0] * b[0]
    for x, y in zip(a[1:], b[1:]):
        total = total + x * y
    return total


def alpha(pt: PhasePoint, v: TangentVector) -> float:
    """The canonical one-form: alpha(v) = sum_i p_i vq_i."""
    _check_dims(pt, v)
    return float(np.dot(pt.p, v.vq))


def beta(pt: PhasePoint, v: TangentVector) -> float:
    """The companion one-form: beta(v) = sum_i q_i vp_i.

    On a state surface that is homogeneous in the extensive variables this
    form vanishes — the generalized Gibbs-Duhem relation.
    """
    _check_dims(pt, v)
    return float(np.dot(pt.q, v.vp))


def euler_residual(K: ScalarFn, pt: PhasePoint, r: int,
                   wrt: EulerFieldKind = EulerFieldKind.Z) -> float:
    """Euler's identity defect for declared degree ``r``.

    Returns ``sum_i p_i dK/dp_i - r K`` for kind Z, or the q-analogue for
    kind W; zero exactly when K is (locally) homogeneous of degree r in the
    respective variables.  ``K`` must take the (q, p) concatenation.

    The contraction is evaluated as a single directional derivative along
    the Euler field itself, one dual pass that also gives the value of K.
    """
    return float(_euler_rows(K, [pt.packed()], r, wrt)[0][0])


def _euler_rows(K: ScalarFn, X, r: int,
                wrt: EulerFieldKind = EulerFieldKind.Z):
    """:func:`euler_residual` and the value of K at each row of a (B, 2m)
    array of points, from one vector-mode pass along the Euler field."""
    X = np.asarray(X, dtype=float)
    m = X.shape[1] // 2
    D = np.zeros_like(X)
    if wrt is EulerFieldKind.Z:
        D[:, m:] = X[:, m:]
    else:
        D[:, :m] = X[:, :m]
    vals, dots = _values_and_dirderivs(K, X, D)
    return dots - r * vals, vals


def _relative_euler_rows(K: ScalarFn, X, r: int,
                         wrt: EulerFieldKind = EulerFieldKind.Z):
    """``|euler_residual| / (1 + |K|)``, the scale-free degree defect, and
    the value of K at each row of a (B, 2m) array of points, from one
    vector-mode pass."""
    residuals, vals = _euler_rows(K, X, r, wrt)
    return np.abs(residuals) / (1.0 + np.abs(vals)), vals


def best_chart(pt: PhasePoint) -> int:
    """The index of the largest-magnitude costate component."""
    return int(np.argmax(np.abs(pt.p)))


def project(pt: PhasePoint, chart: int) -> ContactPoint:
    """Project to chart ``chart``: gamma_j = p_j / (-p_chart), q copied."""
    if not 0 <= chart < len(pt.p):
        raise ValueError(f"chart index {chart} out of range")
    return ContactPoint(chart, pt.q.copy(), _chart_rows(pt.p[None], chart)[0])


def _chart_rows(P, chart: int) -> np.ndarray:
    """The ratios ``gamma_j = p_j / (-p_chart)``, j != chart ascending, of
    each row of the (B, m) costate array ``P``; the first degenerate row
    raises :class:`ChartDegenerateError`."""
    absP = np.abs(P)
    degenerate = absP[:, chart] < CHART_DEGENERACY_RATIO * absP.max(axis=1)
    if degenerate.any():
        row = int(np.argmax(degenerate))
        raise ChartDegenerateError(chart, int(np.argmax(absP[row])))
    return P[:, _chart_indices(P.shape[1], chart)] / -P[:, chart, None]


def sample_phase_points(m: int, n_samples: int, seed: int) -> list:
    """Random phase points with q_i in (0.6, 1.4) and |p_i| in (0.2, 1.0).

    The ranges keep chart divisions well-conditioned; the costate signs are
    drawn independently.  The points come from one ``random.Random(seed)``
    stream, so every check sampling with the same seed sees the same points;
    the checks inside ``ltk`` draw them packed, one per row of an array,
    from the same stream.
    """
    return [PhasePoint(x[:m], x[m:]) for x in _phase_rows(m, n_samples, seed)]


def _phase_rows(m: int, n_samples: int, seed: int) -> np.ndarray:
    """The packed points of :func:`sample_phase_points`, an (n_samples, 2m)
    array: per point, m draws of q, m of |p|, then m more, each of which
    makes its p negative where it is below 0.5."""
    X = _box_rows([(0.6, 1.4)] * m + [(0.2, 1.0)] * m + [(0.0, 1.0)] * m,
                  n_samples, seed)
    X[:, m:2 * m][X[:, 2 * m:] < 0.5] *= -1.0
    return X[:, :2 * m]


def _box_rows(box, n_samples: int, seed: int) -> np.ndarray:
    """An (n_samples, len(box)) array of uniform draws from the box of
    (low, high) pairs, row by row: entry j is ``low_j + (high_j - low_j) *
    r()`` with ``r = random.Random(seed).random``, whose sequence Python
    repeats for a seed across versions.  The seed must not be negative."""
    if seed < 0:
        raise ValueError(f"expected a non-negative seed, got {seed}")
    r = random.Random(seed).random
    spans = [(lo, hi - lo) for lo, hi in box]
    return np.array([lo + w * r() for _ in range(n_samples)
                     for lo, w in spans]).reshape(n_samples, len(spans))


def scale_costate(pt: PhasePoint, lam: float) -> PhasePoint:
    """The fiber scaling (q, p) -> (q, lam p); lam must be finite and nonzero.

    This is the time-lam flow of the Euler field Z (for lam = e^s), so all
    projective quantities — charts, intensive variables, degree-0 outputs —
    are unchanged.
    """
    if not np.isfinite(lam) or lam == 0.0:
        raise ValueError(f"costate scaling factor lam must be finite and "
                         f"nonzero, got {lam!r}")
    return PhasePoint(pt.q.copy(), lam * pt.p)


def normalize_costate(pt: PhasePoint) -> PhasePoint:
    """Canonical projective representative: largest |p_i| becomes +-1.

    The sign of the dominant component is preserved, giving a deterministic
    normal form for comparing points up to fiber scaling.
    """
    i = best_chart(pt)
    return scale_costate(pt, 1.0 / abs(pt.p[i]))


def _chart_indices(n_plus_1: int, chart: int):
    return [j for j in range(n_plus_1) if j != chart]


def homogenize(Khat: ScalarFn, chart: int) -> ScalarFn:
    """Lift a chart function Khat(q, gamma) to K(q, p) = -p_c Khat(q, p/(-p_c)).

    The result is homogeneous of degree 1 in p by construction (its Euler
    residual vanishes identically wherever it is defined) and is evaluable
    over dual numbers whenever Khat is.  Evaluation at p_chart = 0 raises.
    """
    if Khat.dim < 3 or Khat.dim % 2 == 0:
        raise ValueError("chart functions take (q_0..q_n, gamma...) of odd "
                         "dimension 2n+1 with n >= 1")
    n = (Khat.dim - 1) // 2
    if not 0 <= chart <= n:
        raise ValueError(f"chart index {chart} out of range for n={n}")
    return _cone(Khat, 2 * (n + 1), range(n + 1), n + 1 + chart,
                 [n + 1 + j for j in _chart_indices(n + 1, chart)],
                 f"hom[{chart}]({Khat.name})")


def _cone(F: ScalarFn, dim: int, passive, chart: int, projective,
          name: str) -> ScalarFn:
    """The degree-1 function ``-x_c * F(x_passive, x_projective / (-x_c))``
    of a ``dim``-vector x, c = ``chart``, its arguments in the order of the
    index lists; evaluation at x_c = 0 raises."""

    def fn(x):
        neg_pc = -x[chart]
        return neg_pc * F([x[i] for i in passive]
                          + [x[j] / neg_pc for j in projective])

    return ScalarFn(fn, dim=dim, name=name)


def dehomogenize(K: ScalarFn, chart: int) -> ScalarFn:
    """Restrict a degree-1 function K(q, p) to the chart slice p_c = -1.

    Returns Khat(q, gamma) = K(q, p) with p_chart = -1 and p_j = gamma_j.
    Round-trips with :func:`homogenize` pointwise.  Degree-1 homogeneity of K
    is spot-checked at a few sample points; a failing check warns (the
    restriction is still computed, but it no longer determines K).
    """
    if K.dim < 4 or K.dim % 2 != 0:
        raise ValueError("phase-space functions take (q, p) of even "
                         "dimension 2(n+1) with n >= 1")
    n = K.dim // 2 - 1
    if not 0 <= chart <= n:
        raise ValueError(f"chart index {chart} out of range for n={n}")
    others = _chart_indices(n + 1, chart)

    _warn_if_not_degree_one(K, n, chart)

    def fn(x):
        q = list(x[:n + 1])
        gamma = x[n + 1:]
        p = [None] * (n + 1)
        p[chart] = -1.0
        for k, j in enumerate(others):
            p[j] = gamma[k]
        return K(q + p)

    return ScalarFn(fn, dim=2 * n + 1, name=f"dehom[{chart}]({K.name})")


def _warn_if_not_degree_one(K: ScalarFn, n: int, chart: int):
    """Spot-check Euler degree-1 residuals at fixed sample points.

    Sample points keep q positive and p_chart at -1 so that functions with
    restricted domains (logs, roots, positive temperatures) usually evaluate;
    points where K raises or is not finite are skipped rather than failing
    the check.  The points are one batch.
    """
    m = n + 1
    X = _box_rows([(0.6, 1.4)] * m + [(-0.8, 0.8)] * m, 4, 7)
    X[:, m + chart] = -1.0
    X[:, m:] *= 1.3
    _, residuals = _sample_rows(
        lambda rows: _relative_euler_rows(K, X[rows], 1)[0], len(X))
    worst = np.max(residuals, initial=0.0)
    if worst > 1e-6:
        warnings.warn(
            f"dehomogenize: {K.name or 'function'} does not look homogeneous "
            f"of degree 1 in p (relative Euler residual {worst:.3g}); the "
            f"chart restriction will not determine it", stacklevel=3)
