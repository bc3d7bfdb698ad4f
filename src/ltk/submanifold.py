"""State-property surfaces: generating functions and their lifts.

A state surface is described by a generating function ``Fhat(q_I, gamma_J)``
on a chart ``c`` with a disjoint partition ``I ∪ J = {0..n} \\ {c}``.  The
surface in chart coordinates (a Legendre submanifold) is

    q_c     = Fhat - sum_J gamma_j dFhat/dgamma_j
    q_J     = -dFhat/dgamma_J
    gamma_I =  dFhat/dq_I

and its conical lift to the full cotangent bundle (a Liouville submanifold) is
cut out by the degree-1 function

    F(q_I, p_c, p_J) = -p_c * Fhat(q_I, p_J / (-p_c))

via ``q_c = -dF/dp_c``, ``q_J = -dF/dp_J``, ``p_I = dF/dq_I``.  The canonical
one-form vanishes on the lift, and the lift is invariant under costate
scaling — both properties are checked numerically in the test suite rather
than assumed.

When ``Fhat`` is additionally homogeneous of degree 1 in the extensive
variables ``q_I`` (declared via ``q_homogeneous``), the surface satisfies the
generalized Gibbs-Duhem relations: ``sum_i q_i p_i = 0`` on the surface and
``beta = sum_i q_i dp_i`` vanishes on its tangent spaces.  Such a surface
divides through by one extensive variable to a reduced description in
specific coordinates ``eps_l = q_l / q_1``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import islice, product

import numpy as np

from .diffkit import (ScalarFn, _reject, _sample_rows, _values_and_grads,
                      grad)
from .geometry import (ContactPoint, EulerFieldKind, PhasePoint,
                       TangentVector, _box_rows, _chart_indices, _chart_rows,
                       _cone, _relative_euler_rows, beta, project)

__all__ = [
    "GeneratingFunction",
    "GibbsDuhemReport",
    "lift_generating_function",
    "lift_phase_fn",
    "liouville_point",
    "legendre_point",
    "membership_residual",
    "membership_norm",
    "tangent_basis",
    "gibbs_duhem_check",
    "specific_form",
    "reduced_point",
]

# Finite-difference step for tangent vectors of the parameterization, scaled
# to match the oracle used by the differentiation layer.
TANGENT_STEP = 1e-3


@dataclass
class GeneratingFunction:
    """A generating function ``Fhat(q_I, gamma_J)`` for one state surface.

    ``Fhat`` takes the concatenation of the q-values at the indices ``I``
    (ascending) followed by the gamma-values at the indices ``J`` (ascending).
    ``q_homogeneous`` declares that Fhat is homogeneous of degree 1 in its
    q_I arguments; the declaration is spot-checked at construction.
    """

    n: int
    Fhat: ScalarFn
    I: tuple = ()
    J: tuple = ()
    chart: int = 0
    q_homogeneous: bool = False
    name: str = ""

    def __post_init__(self):
        self.I = tuple(sorted(int(i) for i in self.I))
        self.J = tuple(sorted(int(j) for j in self.J))
        if not 0 <= self.chart <= self.n:
            raise ValueError(f"chart index {self.chart} out of range")
        expected = [i for i in range(self.n + 1) if i != self.chart]
        if set(self.I) & set(self.J):
            raise ValueError("I and J must be disjoint")
        if sorted(self.I + self.J) != expected:
            raise ValueError(f"I ∪ J must cover the non-chart indices {expected}, "
                             f"got I={self.I}, J={self.J}")
        if self.Fhat.dim != self.n:
            raise ValueError(f"Fhat must take {self.n} arguments "
                             f"(|I| + |J|), declared dimension {self.Fhat.dim}")
        if self.q_homogeneous:
            if not self.I:
                raise ValueError("q-homogeneity needs a nonempty I: with I = ∅ "
                                 "the surface cannot be homogeneous in q")
            self._check_q_homogeneous()

    def _check_q_homogeneous(self):
        """Verify Euler's identity in q_I at a few sample points.

        At p_chart = -1 the lift is Fhat at (q_I, gamma_J = p_J) and ignores
        q_chart and q_J, so its residual along the base Euler field W is
        Fhat's degree-1 residual in q_I.  Six draws go into the sign orthants
        of gamma_J in turn, all + first (gamma_V = -P is negative), each one
        batch whose domain errors skip, until one evaluates; at most 16
        orthants are tried, however long J is.
        """
        F = lift_phase_fn(self)
        nI, m, coords = len(self.I), self.n + 1, self._param_coords
        draws = _box_rows([(0.5, 1.5)] * self.n, 6, 11)
        X = np.hstack([np.ones((6, m)), -np.ones((6, m))])
        for signs in islice(product((1.0, -1.0), repeat=len(self.J)), 16):
            samples = draws * ((1.0,) * nI + signs)
            X[:, coords[:nI] + coords[nI + 1:]] = samples
            kept, R = _sample_rows(
                lambda rows: _relative_euler_rows(F, X[rows], 1,
                                                  EulerFieldKind.W)[0], 6)
            if len(kept):
                break
        else:
            raise ValueError("could not evaluate the generating function at "
                             "any sample point to verify q-homogeneity")
        bad = np.flatnonzero(R > 1e-9)
        if len(bad):
            raise ValueError(
                f"generating function declared q_homogeneous but its "
                f"relative degree-1 Euler residual in q_I is {R[bad[0]]:.3g} "
                f"at {samples[kept[bad[0]]].tolist()}")

    @property
    def n_params(self) -> int:
        """Parameters of the lifted surface: q_I values, p_chart, p_J values."""
        return self.n + 1

    @property
    def _param_coords(self) -> list:
        """The packed phase coordinate of each surface parameter (q_I,
        p_chart, p_J); the relation of the one at c sets ``(c + m) % 2m``."""
        m = self.n + 1
        return list(self.I) + [m + self.chart] + [m + j for j in self.J]


@dataclass
class GibbsDuhemReport:
    """Worst-case residuals of the three q-homogeneity consequences."""

    n_samples: int
    max_qp_abs: float       # max |sum_i q_i p_i|
    max_qp_rel: float       # same, relative to max(1, sum_i |q_i p_i|)
    max_beta: float         # max |beta| over finite-difference tangents
    max_w_membership: float  # membership residual of the q-scaled point

    def as_dict(self) -> dict:
        return asdict(self)


def lift_generating_function(gf: GeneratingFunction) -> ScalarFn:
    """The degree-1 lift ``F(q_I, p_c, p_J) = -p_c Fhat(q_I, p_J/(-p_c))``.

    Argument layout: q_I values (ascending index), then p_chart, then p_J
    values (ascending index).  Evaluation at p_chart = 0 raises.
    """
    nI = len(gf.I)
    return _cone(gf.Fhat, gf.n + 1, range(nI), nI, range(nI + 1, gf.n + 1),
                 f"lift({gf.name or gf.Fhat.name})")


def lift_phase_fn(gf: GeneratingFunction) -> ScalarFn:
    """The lift as a function of a full (q, p) phase vector.

    Coordinates outside (q_I, p_chart, p_J) are ignored, so the result is a
    genuine degree-1 function on the whole bundle, convenient for Euler
    residual sweeps with :func:`ltk.geometry.euler_residual`.
    """
    nI, coords = len(gf.I), gf._param_coords
    return _cone(gf.Fhat, 2 * (gf.n + 1), coords[:nI], coords[nI],
                 coords[nI + 1:], f"lift({gf.name or gf.Fhat.name})")


def liouville_point(gf: GeneratingFunction, params) -> PhasePoint:
    """Realize the surface point generated by (q_I, p_chart, p_J).

    The remaining coordinates come from the generating relations
    ``q_c = -dF/dp_c``, ``q_J = -dF/dp_J``, ``p_I = dF/dq_I``: a one-row
    :func:`_liouville_rows`.
    """
    x = _liouville_rows(gf, [params])[0]
    return PhasePoint(x[:gf.n + 1], x[gf.n + 1:])


def legendre_point(gf: GeneratingFunction, params) -> ContactPoint:
    """Realize the chart-coordinate surface point generated by (q_I, gamma_J).

    This is ``project(liouville_point(gf, q_I + [-1] + gamma_J), chart)``:
    the chart relations of the module docstring are the lift's generating
    relations read at p_chart = -1.
    """
    params = [float(v) for v in params]
    if len(params) != gf.n:
        raise ValueError(f"expected {gf.n} parameters (q_I, gamma_J), "
                         f"got {len(params)}")
    nI = len(gf.I)
    return project(liouville_point(gf, params[:nI] + [-1.0] + params[nI:]),
                   gf.chart)


def _liouville_rows(gf: GeneratingFunction, P) -> np.ndarray:
    """The packed surface points ``[q, p]`` generated by the rows (q_I,
    p_chart, p_J) of the (B, n_params) array ``P``, as a (B, 2m) array:
    one vector-mode pass of the lift's gradient."""
    P = np.asarray(P, dtype=float)
    if P.shape[1] != gf.n_params:
        raise ValueError(f"expected {gf.n_params} parameters "
                         f"(q_I, p_chart, p_J), got {P.shape[1]}")
    nI, m = len(gf.I), gf.n + 1
    _reject(P[:, nI] == 0.0, ValueError,
            "p_chart must be nonzero to generate a lift point")
    g = grad(lift_generating_function(gf), P)
    # a p parameter's relation sets -dF/dp; 0.0 - keeps a +0.0 as +0.0
    g[:, nI:] = 0.0 - g[:, nI:]
    coords = gf._param_coords
    X = np.empty((len(P), 2 * m))
    X[:, coords] = P
    X[:, [(c + m) % (2 * m) for c in coords]] = g
    return X


def _membership_components(gf: GeneratingFunction, X) -> np.ndarray:
    """``membership_residual`` at each row of the (B, 2m) array ``X``, as a
    (B, n + 1) array: one vector-mode pass of the generating relations."""
    X = np.asarray(X, dtype=float)
    m = gf.n + 1
    if X.shape[1] != 2 * m:
        raise ValueError(f"expected {2 * m} phase coordinates (n={gf.n}), "
                         f"got {X.shape[1]}")
    P = X[:, m:]
    _reject(np.max(np.abs(P), axis=1) == 0.0, ValueError, "zero costate: "
            "points live on the cotangent bundle without its zero section")
    _chart_rows(P, gf.chart)     # the degeneracy rule; the lift reads raw p_c
    nI, coords = len(gf.I), gf._param_coords
    G = _liouville_rows(gf, X[:, coords])
    # membership_residual's order: the relations of p_chart, p_J, then q_I
    conj = [(c + m) % (2 * m) for c in coords[nI:] + coords[:nI]]
    return X[:, conj] - G[:, conj]


def _membership_rows(gf: GeneratingFunction, X) -> np.ndarray:
    """``membership_norm(gf, x)`` for each row x of the (B, 2m) array
    ``X``: one vector-mode pass of the generating relations."""
    return np.max(np.abs(_membership_components(gf, X)), axis=1)


def membership_residual(gf: GeneratingFunction, pt: PhasePoint) -> np.ndarray:
    """Defect of the generating relations at ``pt``; zero iff pt is on the lift.

    Component order: the chart relation ``q_c + dF/dp_c``, then
    ``q_J + dF/dp_J`` (ascending), then ``p_I - dF/dq_I`` (ascending).
    """
    return _membership_components(gf, [pt.packed()])[0]


def membership_norm(gf: GeneratingFunction, x) -> float:
    """Max-abs membership residual at a packed phase vector ``[q, p]``."""
    return float(_membership_rows(gf, [x])[0])


def _tangent_rows(gf: GeneratingFunction, P):
    """:func:`tangent_basis` at each row of the (B, n_params) array ``P``:
    arrays ``vq`` and ``vp`` of shape (B, n_params, m), from one pass over
    the 4 * n_params perturbed parameter vectors of every row."""
    P = np.asarray(P, dtype=float)
    B, k = P.shape
    m = gf.n + 1
    h = TANGENT_STEP * np.maximum(1.0, np.abs(P))
    half = 0.5 * h
    # per row and parameter: moved by +h, -h, +h/2, -h/2
    moved = np.repeat(P[:, None, None, :], 4, axis=2).repeat(k, axis=1)
    for j in range(k):
        for s, step in enumerate((h, -h, half, -half)):
            moved[:, j, s, j] = P[:, j] + step[:, j]
    X = _liouville_rows(gf, moved.reshape(-1, k)).reshape(B, k, 4, 2 * m)
    full = (X[:, :, 0] - X[:, :, 1]) / (2.0 * h)[..., None]
    halved = (X[:, :, 2] - X[:, :, 3]) / (2.0 * half)[..., None]
    v = (4.0 * halved - full) / 3.0
    return v[..., :m], v[..., m:]


def tangent_basis(gf: GeneratingFunction, params) -> list:
    """Finite-difference tangent vectors of the parameterization at ``params``.

    One Richardson-extrapolated central difference of :func:`liouville_point`
    per parameter: combining the full-step and half-step quotients as
    ``(4 D(h/2) - D(h)) / 3`` cancels the O(h^2) truncation term, leaving
    O(h^4) + O(eps/h) error — around 1e-12 at the default step.  The vectors
    span the tangent space of the lifted surface and feed the one-form
    vanishing checks.  The 4 * n_params surface points are one batch.
    """
    vq, vp = _tangent_rows(gf, [[float(v) for v in params]])
    return [TangentVector(a, b) for a, b in zip(vq[0], vp[0])]


def gibbs_duhem_check(gf: GeneratingFunction, samples) -> GibbsDuhemReport:
    """Check the three consequences of q-homogeneity on sampled members.

    For each parameter vector: (a) the Euler pairing ``sum_i q_i p_i``,
    (b) ``beta`` on the finite-difference tangent basis, and (c) the
    membership residual of the base-scaled point ``(2q, p)`` — a finite test
    of tangency of the base Euler field W.  Requires the generating function
    to be declared q_homogeneous (with nonempty I).

    All samples, their tangent bases and their scaled points are batches of
    one vector-mode pass each; an error names the failing sample's
    parameters.
    """
    if not gf.q_homogeneous:
        raise ValueError("gibbs_duhem_check requires a generating function "
                         "declared q_homogeneous")
    P = np.array([[float(v) for v in params] for params in samples])
    m = gf.n + 1

    def residuals(rows):
        X = _liouville_rows(gf, P[rows])
        q, p = X[:, :m], X[:, m:]
        vq, vp = _tangent_rows(gf, P[rows])
        scaled = _membership_rows(gf, np.hstack([2.0 * q, p]))
        out = []
        for i, pt in enumerate(map(PhasePoint, q, p)):
            qp = abs(float(np.dot(pt.q, pt.p)))
            scale = max(1.0, float(np.sum(np.abs(pt.q * pt.p))))
            out.append([qp, qp / scale, scaled[i]]
                       + [abs(beta(pt, TangentVector(a, b)))
                          for a, b in zip(vq[i], vp[i])])
        return out

    R = _sample_rows(residuals, len(P),
                     lambda i: f"at surface parameters {P[i].tolist()}")[1]
    R = R.reshape(len(P), 3 + gf.n_params)   # also when there is no sample
    qp, qp_rel, w = np.max(R[:, :3], axis=0, initial=0.0).tolist()
    return GibbsDuhemReport(len(P), qp, qp_rel,
                            float(np.max(R[:, 3:], initial=0.0)), w)


def _require_specific_shape(gf: GeneratingFunction):
    if gf.chart != 0 or gf.J or gf.I != tuple(range(1, gf.n + 1)):
        raise ValueError("specific coordinates need chart 0, I = {1..n}, J = ∅")
    if not gf.q_homogeneous:
        raise ValueError("specific coordinates need a q_homogeneous "
                         "generating function")


def specific_form(gf: GeneratingFunction) -> ScalarFn:
    """Divide a degree-1 generating function through by q_1.

    Returns ``Fbar(eps_2, ..., eps_n) = Fhat(1, eps_2, ..., eps_n)``, the
    per-unit-q_1 (specific) form; the identity
    ``Fhat(q_1..q_n) = q_1 Fbar(q_2/q_1, ...)`` holds wherever q_1 > 0.
    """
    _require_specific_shape(gf)

    def fn(eps):
        return gf.Fhat([1.0] + list(eps))

    return ScalarFn(fn, dim=gf.n - 1, name=f"specific({gf.name or gf.Fhat.name})")


def _specific_ratios(v, base: int) -> np.ndarray:
    """The specific coordinates ``v_l / v_base``, l != base ascending; v_base
    is q_1 and must reach ``1e-12 * max(1, max_l |v_l|)``."""
    v = np.asarray(v, dtype=float)
    if abs(v[base]) < 1e-12 * max(1.0, float(np.max(np.abs(v)))):
        raise ValueError("q_1 is below the reduction threshold; specific "
                         "coordinates divide by q_1")
    return v[_chart_indices(len(v), base)] / v[base]


def reduced_point(gf: GeneratingFunction, params) -> np.ndarray:
    """The reduced-surface point generated by q_I = (q_1, ..., q_n).

    Returns the packed vector ``[eps_0, eps_2..eps_n, gamma_1..gamma_n]``
    where ``eps_l = q_l / q_1`` and

        eps_0   = Fbar(eps)
        gamma_1 = Fbar - sum_l eps_l dFbar/deps_l
        gamma_j = dFbar/deps_j                       (j >= 2).
    """
    _require_specific_shape(gf)
    params = [float(v) for v in params]
    if len(params) != gf.n:
        raise ValueError(f"expected {gf.n} parameters (q_1..q_n), got {len(params)}")
    eps = _specific_ratios(params, 0).tolist()
    vals, G = _values_and_grads(specific_form(gf), [eps])
    val, g = float(vals[0]), G[0]
    gamma = np.empty(gf.n)
    gamma[0] = val - float(np.dot(eps, g))
    gamma[1:] = g
    return np.concatenate([[val], eps, gamma])
