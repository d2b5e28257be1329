"""Minimizing geodesics under a state-dependent metric.

The curve is a degree-N polynomial represented by its values at N+1
Gauss-Lobatto-Legendre (GLL) collocation nodes on [0, 1]. Velocities come
from the exact differentiation matrix of that polynomial basis and the energy
integral uses the matching GLL quadrature weights. The combination is chosen
deliberately: quadrature exactness up to degree 2N-1 makes straight lines
exact stationary points of the discrete energy under any constant metric, so
flat-metric results agree with the closed form to machine precision instead
of quadrature-error precision. (Equally spaced nodes with Simpson weights
fail that identity at the 1e-4 level and were rejected for it.)

Endpoints are pinned; interior nodes are optimized by a damped Gauss-Newton
iteration with a gradient-descent fallback, warm-startable from the previous
controller step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import legendre as _leg

from .errors import GeodesicDomainError
from .metric import MetricField

_DEGENERATE = 1e-12
# Pinned endpoint rows whose dual is checked once per solve; the end (the
# actual state) first, so a failure names it when both are bad.
_ENDPOINTS = (-1, 0)
_END_ROW = {"start": 0, "end": -1}


def gll_grid(n_intervals: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """GLL nodes on [0,1], quadrature weights (summing to 1), and the
    differentiation matrix for d/ds of the nodal polynomial."""
    n = int(n_intervals)
    if n < 2:
        raise ValueError("need at least 3 nodes")
    coeff = np.zeros(n + 1)
    coeff[n] = 1.0
    interior = np.sort(_leg.legroots(_leg.legder(coeff)))
    x = np.concatenate(([-1.0], interior, [1.0]))
    pn = _leg.legval(x, coeff)
    w = 2.0 / (n * (n + 1) * pn ** 2)

    d = np.zeros((n + 1, n + 1))
    for i in range(n + 1):
        for j in range(n + 1):
            if i != j:
                d[i, j] = pn[i] / (pn[j] * (x[i] - x[j]))
    d[0, 0] = -n * (n + 1) / 4.0
    d[n, n] = n * (n + 1) / 4.0

    s = 0.5 * (x + 1.0)
    return s, 0.5 * w, 2.0 * d


@dataclass
class GeodesicCurve:
    s_nodes: np.ndarray          # parameter grid in [0, 1]
    states: np.ndarray           # (N+1, n) nodal states, endpoints pinned
    velocities: np.ndarray       # (N+1, n) d(state)/ds at the nodes
    metrics: np.ndarray          # (N+1, n, n) metric at the nodal states
    energy: float
    iterations: int
    grad_norm: float
    converged: bool
    exceeds_upper_bound: bool = False

    def endpoint_velocity(self, end: str) -> np.ndarray:
        """Velocity at 'start' (s=0) or 'end' (s=1) from the nodal polynomial
        derivative (a one-sided full-order stencil over the nodal grid)."""
        return self.velocities[_end_row(end)]

    def endpoint_metric(self, end: str) -> np.ndarray:
        """Metric at 'start' (s=0) or 'end' (s=1), as the solver evaluated it."""
        return self.metrics[_end_row(end)]


def _end_row(end: str) -> int:
    try:
        return _END_ROW[end]
    except KeyError:
        raise ValueError("end must be 'start' or 'end'") from None


class GeodesicSolver:
    """Reusable solver bound to one metric field (holds mutable scratch)."""

    def __init__(self, field: MetricField, n_intervals: int = 8,
                 tol: float = 1e-8, max_iter: int = 60,
                 enforce_domain: bool = True, allow_shortcuts: bool = True):
        self.field = field
        self.n_intervals = int(n_intervals)
        self.tol = float(tol)
        self.max_iter = int(max_iter)
        self.enforce_domain = bool(enforce_domain)
        self.allow_shortcuts = bool(allow_shortcuts)
        self.s_nodes, self.weights, self.diff = gll_grid(self.n_intervals)
        self._d_int = self.diff[:, 1:-1]
        self._wd = self.weights[:, None] * self.diff        # w_i * D[i, k]
        self._wd_int = self.weights[:, None] * self._d_int
        self._constant_metric = field.is_constant
        self._const_nodes = (    # nodal metrics shared by every solve
            np.broadcast_to(field.constant_metric,
                            (self.n_intervals + 1,) + field.constant_metric.shape)
            if self._constant_metric else None)
        nin = self._d_int.shape[1]
        self._diag = np.diag_indices(nin * field.dim)

    # -- internals -----------------------------------------------------------

    def _eval(self, states: np.ndarray, check_pd=False):
        """Energy, interior gradient, and pieces for the Gauss-Newton step.

        ``check_pd`` is passed to the metric evaluation.  solve() checks the
        pinned endpoints on its first evaluation only; interior nodes are not
        checked, because the line search rejects any trial whose energy goes
        non-finite (NaN compares false).
        """
        m, dm = self.field.metric_and_partials_batch(states, check_pd=check_pd)
        v = self.diff @ states
        mv = (m @ v[:, :, None])[:, :, 0]
        e = float(self.weights @ (v * mv).sum(axis=1))
        grad_full = 2.0 * (self._wd.T @ mv)
        if not self._constant_metric:
            quad = np.einsum("kjab,ka,kb->kj", dm, v, v)
            grad_full += self.weights[:, None] * quad
        return e, grad_full[1:-1], m, v

    def _newton_step(self, m: np.ndarray, grad: np.ndarray) -> np.ndarray:
        nin = self._d_int.shape[1]
        dim = self.field.dim
        h = 2.0 * np.einsum("ik,il,iab->kalb", self._wd_int, self._d_int, m)
        h = h.reshape(nin * dim, nin * dim)
        h[self._diag] += 1e-12 * (1.0 + np.trace(h) / h.shape[0])
        try:
            step = np.linalg.solve(h, -grad.reshape(-1))
        except np.linalg.LinAlgError:
            return -grad.reshape(-1)
        return step

    # -- API ------------------------------------------------------------------

    def solve(self, p, q, warm: GeodesicCurve | None = None) -> GeodesicCurve:
        p = np.asarray(p, dtype=float)
        q = np.asarray(q, dtype=float)
        if not (np.all(np.isfinite(p)) and np.all(np.isfinite(q))):
            raise GeodesicDomainError("non-finite geodesic endpoint")
        if self.enforce_domain and self.field.domain is not None:
            inside = self.field.domain.contains(np.array([p, q]), margin=-1e-9)
            if not inside.all():
                pt = q if inside[0] else p      # p is reported first
                raise GeodesicDomainError(
                    f"endpoint {pt} outside the metric's validated domain")

        gap = float(np.linalg.norm(q - p))
        n_nodes = self.n_intervals + 1
        if gap < _DEGENERATE:
            states = np.tile(p, (n_nodes, 1))
            states[-1] = q
            m = (self._const_nodes if self._constant_metric
                 else self.field.metric_batch(states))
            return GeodesicCurve(self.s_nodes.copy(), states,
                                 np.zeros_like(states), m, 0.0, 0, 0.0,
                                 converged=True)

        if self._constant_metric and self.allow_shortcuts:
            # Straight line is the exact (unique) geodesic of a constant
            # metric, and the quadrature/differentiation pair reproduces it
            # exactly, so skip the optimizer outright.
            states = p + self.s_nodes[:, None] * (q - p)
            states[0], states[-1] = p, q
            v = self.diff @ states
            d = q - p
            e = float(d @ self.field.constant_metric @ d)
            curve = GeodesicCurve(self.s_nodes.copy(), states, v,
                                  self._const_nodes, e, 0, 0.0, converged=True)
            curve.exceeds_upper_bound = bool(
                e > self.field.eig_ceil * gap * gap * 1.01)
            return curve

        if warm is not None and warm.states.shape == (n_nodes, self.field.dim):
            states = warm.states.copy()
            states += ((1.0 - self.s_nodes)[:, None] * (p - states[0])
                       + self.s_nodes[:, None] * (q - states[-1]))
        else:
            states = p + self.s_nodes[:, None] * (q - p)
        states[0], states[-1] = p, q

        e, grad, m, v = self._eval(states, check_pd=_ENDPOINTS)
        gnorm = float(np.linalg.norm(grad))
        iters = 0
        while gnorm > self.tol * (1.0 + e) and iters < self.max_iter:
            step = self._newton_step(m, grad)
            flat_dir = float(grad.reshape(-1) @ step)
            if flat_dir >= 0.0:          # not a descent direction; fall back
                step = -grad.reshape(-1)
                flat_dir = -float(np.linalg.norm(step) ** 2)
            step_mat = step.reshape(-1, self.field.dim)

            scale, improved = 1.0, False
            for _ in range(10):
                trial = states.copy()
                trial[1:-1] += scale * step_mat
                res_trial = self._eval(trial)
                if res_trial[0] <= e + 1e-4 * scale * flat_dir:
                    improved = True
                    break
                scale *= 0.5
            if not improved:
                break
            states = trial
            e, grad, m, v = res_trial
            gnorm = float(np.linalg.norm(grad))
            iters += 1

        converged = gnorm <= self.tol * (1.0 + e)
        curve = GeodesicCurve(
            self.s_nodes.copy(), states, v, m, e, iters, gnorm,
            converged=converged)
        curve.exceeds_upper_bound = bool(
            e > self.field.eig_ceil * gap * gap * 1.01)
        return curve

