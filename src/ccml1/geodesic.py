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

A solve takes a batch of K endpoint pairs and advances their Newton
iterations together: per iteration one metric evaluation over every node of
the rows still iterating and one stacked linear solve, in the block form of
the Newton system for pseudospectral geodesics (Leung & Manchester, ACC
2017).  A row leaves the iteration when it converges or its line search
fails, and leaves the line search once it accepts a step.  Every per-row
product is a stacked BLAS call of the same shape as one row on its own, so a
row's result does not depend on the rows solved beside it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import legendre as _leg

from .errors import GeodesicDomainError, MetricDomainError
from .metric import MetricField
from .models import matvec, row_dot

_DEGENERATE = 1e-12


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
    """Geodesics of a batch of K endpoint pairs, row r running from the
    solve's ``p[r]`` (s=0) to ``q[r]`` (s=1)."""

    s_nodes: np.ndarray          # (N+1,) parameter grid in [0, 1]
    states: np.ndarray           # (K, N+1, n) nodal states, endpoints pinned
    velocities: np.ndarray       # (K, N+1, n) d(state)/ds at the nodes
    metrics: np.ndarray          # (K, N+1, n, n) metric at the nodal states
    energy: np.ndarray           # (K,)
    newton_iters: np.ndarray     # (K,) Newton iterations of each row
    grad_norm: np.ndarray        # (K,)
    converged_rows: np.ndarray   # (K,) bool

    @property
    def iterations(self) -> int:
        """Newton iterations summed over the rows."""
        return int(self.newton_iters.sum())

    @property
    def converged(self) -> bool:
        """True when every row converged."""
        return bool(self.converged_rows.all())


class GeodesicSolver:
    """Reusable solver bound to one metric field (it caches the endpoint
    node indices of each batch size it has solved)."""

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
        self._s_col = self.s_nodes[:, None]
        self._s_rev = (1.0 - self.s_nodes)[:, None]
        self._ends_of: dict[int, np.ndarray] = {}
        # doubled weights: scaling by 2 is exact, so these give the bits of
        # doubling the products and sums they enter
        wd = self.weights[:, None] * self.diff              # w_i * D[i, k]
        self._wd2_t = (2.0 * wd).T
        # Gauss-Newton taps 2 w_i D[i, k] D[i, l] over the interior columns
        self._gn_taps = 2.0 * np.einsum("ik,il->ikl", wd[:, 1:-1],
                                        self.diff[:, 1:-1])
        self._size = (self.n_intervals - 1) * field.dim      # Newton unknowns

    # -- internals -----------------------------------------------------------

    def _eval(self, states: np.ndarray, check_pd=False):
        """Energy, interior gradient, and pieces for the Gauss-Newton step of
        each row of an (R, N+1, n) stack of curves.

        ``check_pd`` is passed to the metric evaluation, with node indices
        into the flattened stack.  solve() checks the pinned endpoints on its
        first evaluation only; interior nodes are not checked, because the
        line search rejects any trial whose energy goes non-finite (NaN
        compares false).  The quadratic term contracts only the coordinates
        the metric depends on.
        """
        r, n_nodes, dim = states.shape
        m, dm = self.field.metric_and_partials_batch(
            states.reshape(-1, dim), check_pd=check_pd)
        m = m.reshape(r, n_nodes, dim, dim)
        v = self.diff @ states
        mv = matvec(m, v)
        e = row_dot((v * mv).sum(axis=2), self.weights)
        grad = self._wd2_t @ mv
        if self.field.active_coords:
            quad = np.einsum("rkjab,rka,rkb->rkj",
                             dm.reshape(r, n_nodes, -1, dim, dim), v, v)
            grad[..., self.field.active_index] += self.weights[:, None] * quad
        return e, grad[:, 1:-1], m, v

    def _newton_step(self, m: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """(R, size) Gauss-Newton steps from one stacked solve; a row whose
        system is singular falls back to steepest descent."""
        r, size = m.shape[0], self._size
        h = np.einsum("ikl,riab->rkalb", self._gn_taps, m).reshape(r, size,
                                                                    size)
        diag = h.reshape(r, -1)[:, ::size + 1]              # a view
        diag += (1e-12 * (1.0 + diag.sum(axis=1) / size))[:, None]
        rhs = -grad.reshape(r, size, 1)
        try:
            return np.linalg.solve(h, rhs)[..., 0]
        except np.linalg.LinAlgError:
            out = rhs[..., 0].copy()
            for i in range(r):
                try:
                    out[i] = np.linalg.solve(h[i], rhs[i])[:, 0]
                except np.linalg.LinAlgError:
                    pass
            return out

    def _ends(self, k: int) -> np.ndarray:
        """Flat node indices of the end, then the start, of each of k
        curves."""
        ends = self._ends_of.get(k)
        if ends is None:
            n_nodes = self.n_intervals + 1
            ends = self._ends_of[k] = (n_nodes * np.arange(k)[:, None]
                                       + [n_nodes - 1, 0]).ravel()
        return ends

    def _check_endpoints(self, p: np.ndarray, q: np.ndarray) -> None:
        if not (np.isfinite(p).all() and np.isfinite(q).all()):
            bad = ~(np.isfinite(p).all(axis=1) & np.isfinite(q).all(axis=1))
            raise GeodesicDomainError("non-finite geodesic endpoint",
                                      row=int(np.argmax(bad)))
        if self.enforce_domain and self.field.domain is not None:
            inside = self.field.domain.contains(
                np.concatenate([p, q]), margin=-1e-9).reshape(2, -1)
            bad = ~(inside[0] & inside[1])
            if bad.any():
                r = int(np.argmax(bad))
                pt = q[r] if inside[0, r] else p[r]      # p is reported first
                raise GeodesicDomainError(
                    f"endpoint {pt} outside the metric's validated domain",
                    row=r)

    # -- API ------------------------------------------------------------------

    def solve(self, p, q, warm=None) -> GeodesicCurve:
        """Geodesics from each row of ``p`` to the same row of ``q`` ((K, n)
        each; a (1, n) ``p`` is shared by every row).  ``warm`` is an
        optional (K, N+1, n) stack of nodal states to start from, typically
        the previous solve's ``states``.

        Raises GeodesicDomainError for a non-finite endpoint or one outside
        the validated domain, and MetricDomainError for an endpoint whose
        dual is not positive definite; ``row`` names the first offending
        row.
        """
        q = np.asarray(q, dtype=float)
        p = np.asarray(p, dtype=float)
        if p.shape != q.shape:
            p = np.broadcast_to(p, q.shape)
        self._check_endpoints(p, q)
        k, dim = q.shape
        n_nodes = self.n_intervals + 1
        s = self._s_col
        d = q - p
        gap = np.sqrt(row_dot(d, d))
        degenerate = gap < _DEGENERATE
        some_degenerate = degenerate.any()
        iters = np.zeros(k, dtype=int)

        if self.field.is_constant and self.allow_shortcuts:
            # Straight lines are the exact (unique) geodesics of a constant
            # metric, and the quadrature/differentiation pair reproduces them
            # exactly, so skip the optimizer outright.
            metric = self.field.constant_metric
            states = p[:, None] + s * d[:, None]
            states[:, 0], states[:, -1] = p, q
            v = self.diff @ states
            e = row_dot((d[:, None] @ metric)[:, 0], d)
            m = np.broadcast_to(metric, (k, n_nodes, dim, dim))
            gnorm = np.zeros(k)
        else:
            if warm is not None and warm.shape == (k, n_nodes, dim):
                states = warm + (self._s_rev * (p - warm[:, 0])[:, None]
                                 + s * (q - warm[:, -1])[:, None])
            else:
                states = p[:, None] + s * d[:, None]
            states[:, 0], states[:, -1] = p, q
            # the endpoint duals, the actual state first (a degenerate row
            # checks its desired state first)
            ends = self._ends(k)
            if some_degenerate:
                states[degenerate] = p[degenerate, None]
                states[degenerate, -1] = q[degenerate]
                ends = ends.reshape(k, 2).copy()
                ends[degenerate] = ends[degenerate, ::-1]
                ends = ends.ravel()
            try:
                e, grad, m, v = self._eval(states, check_pd=ends)
            except MetricDomainError as exc:
                if exc.row is not None:
                    exc.row //= n_nodes
                raise
            flat = grad.reshape(k, -1)
            gnorm = np.sqrt(row_dot(flat, flat))
            todo = gnorm > self.tol * (1.0 + e)
            if some_degenerate:
                todo &= ~degenerate
            if self.max_iter > 0 and todo.any():
                states, e, m, v, gnorm = self._iterate(states, e, grad, m, v,
                                                       gnorm, iters, todo)
        converged = gnorm <= self.tol * (1.0 + e)
        if some_degenerate:
            v = np.where(degenerate[:, None, None], 0.0, v)
            e = np.where(degenerate, 0.0, e)
            gnorm = np.where(degenerate, 0.0, gnorm)
            converged |= degenerate
            if self.field.is_constant and self.allow_shortcuts:
                states[degenerate] = p[degenerate, None]
                states[degenerate, -1] = q[degenerate]
        return GeodesicCurve(self.s_nodes, states, v, m, e, iters, gnorm,
                             converged)

    def _iterate(self, states, e, grad, m, v, gnorm, iters, todo):
        """Damped Newton iterations on the rows in ``todo``; returns the
        updated states, energies, metrics, velocities and gradient norms.

        A row's line search halves its scale from 1 until the step is
        accepted, so the rows still searching share one scale; and every row
        still iterating has made as many iterations as the loop."""
        dim = states.shape[2]
        done_iters = 0
        while True:
            rows = todo.nonzero()[0]
            g = grad[rows].reshape(len(rows), -1)
            step = self._newton_step(m[rows], g)
            flat_dir = row_dot(g, step)
            for i in (flat_dir >= 0.0).nonzero()[0].tolist():
                # not a descent direction; fall back
                step[i] = -g[i]
                flat_dir[i] = -float(np.linalg.norm(step[i]) ** 2)
            step = step.reshape(len(rows), -1, dim)

            at, scale, failed = rows, 1.0, None
            for _ in range(10):
                trial = states[at]
                trial[:, 1:-1] += scale * step
                res = self._eval(trial)
                ok = res[0] <= e[at] + 1e-4 * scale * flat_dir
                if ok.all():
                    states[at], e[at], grad[at], m[at], v[at] = (trial,) + res
                    iters[at] += 1
                    break
                done = at[ok]
                states[done] = trial[ok]
                e[done], grad[done], m[done], v[done] = (r[ok] for r in res)
                iters[done] += 1
                at, step, flat_dir = at[~ok], step[~ok], flat_dir[~ok]
                scale *= 0.5
            else:
                failed = at                 # no acceptable step: give up
            done_iters += 1
            flat = grad[rows].reshape(len(rows), -1)
            gnorm[rows] = np.sqrt(row_dot(flat, flat))
            if done_iters >= self.max_iter:
                return states, e, m, v, gnorm
            todo[rows] = gnorm[rows] > self.tol * (1.0 + e[rows])
            if failed is not None:
                todo[failed] = False
            if not todo.any():
                return states, e, m, v, gnorm
