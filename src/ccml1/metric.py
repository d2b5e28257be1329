"""Contraction-metric fields: evaluation, factorization, and condition checking.

A metric field carries the state-dependent SPD matrix used as a Riemannian
metric by the geodesic solver and the tracking controller, together with its
dual (inverse), per-coordinate partial derivatives, a contraction rate, and
uniform eigenvalue bounds over a validated domain.

Metrics are specified through the *dual* matrix as polynomial-coefficient
tables (the form in which such certificates are usually synthesized and
published).  The dual and its closed-form partials along the coordinates it
depends on are stacked into one coefficient table, so a batch of states costs
one polynomial evaluation; the metric is then obtained by one batched
inversion, and its partials through d(inv) = -inv * d(dual) * inv.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import MetricDomainError, MetricValidationError


def sym(a: np.ndarray) -> np.ndarray:
    """Symmetric part times two: a + a.T (the form contraction conditions use)."""
    return a + a.swapaxes(-1, -2)


class PolyMatrix:
    """Matrix-valued polynomial stored as {monomial powers -> coefficient matrix}.

    Evaluation is vectorized over batches of states: one pass computes every
    monomial at every state, and one matmul of those values with the flattened
    coefficient table gives all entries.  A tall matrix stacking several
    polynomials (a dual metric and its partials) therefore evaluates in the
    same two numpy calls as a single one.
    """

    def __init__(self, dim_in: int, shape: tuple[int, int],
                 terms: Sequence[tuple[tuple[int, ...], np.ndarray]]):
        self.dim_in = int(dim_in)
        self.shape = (int(shape[0]), int(shape[1]))
        clean = {}
        for powers, coeff in terms:
            powers = tuple(int(p) for p in powers)
            if len(powers) != self.dim_in:
                raise ValueError("monomial power tuple has wrong length")
            coeff = np.asarray(coeff, dtype=float)
            if coeff.shape != self.shape:
                raise ValueError("coefficient matrix has wrong shape")
            if powers in clean:
                clean[powers] = clean[powers] + coeff
            else:
                clean[powers] = coeff
        self.terms = [(p, c) for p, c in sorted(clean.items()) if np.any(c != 0.0)]
        if not self.terms:
            self.terms = [((0,) * self.dim_in, np.zeros(self.shape))]
        # stacked form for vectorized evaluation
        self._powers = np.array([p for p, _ in self.terms], dtype=float)
        self._coeffs = np.stack([c for _, c in self.terms])
        self._flat_coeffs = self._coeffs.reshape(len(self.terms), -1)
        self.is_constant = not np.any(self._powers)
        # coordinates some monomial depends on; every other factor of a
        # monomial is x**0 = 1.0 exactly, so leaving them out of the
        # product changes no bit
        self._live = np.flatnonzero(np.any(self._powers, axis=0))

    @property
    def is_zero(self) -> bool:
        return all(np.all(c == 0.0) for _, c in self.terms)

    def sum_coeffs(self) -> np.ndarray:
        """Sum of coefficient matrices (= the value when is_constant)."""
        return self._coeffs.sum(axis=0)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.eval_batch(np.asarray(x, dtype=float)[None, :])[0]

    def eval_batch(self, xs: np.ndarray) -> np.ndarray:
        """Evaluate at a (k, dim_in) batch of states -> (k, *shape)."""
        xs = np.asarray(xs, dtype=float)
        if self.is_constant:
            return np.broadcast_to(self._coeffs.sum(axis=0),
                                   (xs.shape[0],) + self.shape).copy()
        live = self._live
        if len(live) == 1:
            scales = xs[:, live] ** self._powers[:, live[0]]
        else:
            scales = np.prod(xs[:, None, live] ** self._powers[None, :, live],
                             axis=2)
        return (scales @ self._flat_coeffs).reshape((xs.shape[0],) + self.shape)

    @classmethod
    def vstack(cls, blocks: Sequence["PolyMatrix"]) -> "PolyMatrix":
        """One polynomial whose rows stack ``blocks`` (equal shapes), so a
        single evaluation yields all of them."""
        rows, cols = blocks[0].shape
        terms = []
        for b, poly in enumerate(blocks):
            for powers, coeff in poly.terms:
                stacked = np.zeros((len(blocks) * rows, cols))
                stacked[b * rows:(b + 1) * rows] = coeff
                terms.append((powers, stacked))
        return cls(blocks[0].dim_in, (len(blocks) * rows, cols), terms)

    def partial(self, coord: int) -> "PolyMatrix":
        """Closed-form partial derivative with respect to one coordinate."""
        terms = []
        for powers, coeff in self.terms:
            p = powers[coord]
            if p == 0:
                continue
            new_p = list(powers)
            new_p[coord] = p - 1
            terms.append((tuple(new_p), p * coeff))
        return PolyMatrix(self.dim_in, self.shape, terms)


@dataclass
class MetricField:
    """A validated contraction metric with rate and eigenvalue envelope.

    ``eig_floor``/``eig_ceil`` bound the metric's eigenvalues over ``domain``;
    they are re-validated by sampling at construction because every downstream
    tube radius leans on them.

    The dual and its closed-form partials along ``active_coords`` (the
    coordinates the dual depends on) are stacked into one fused
    :class:`PolyMatrix`, so :meth:`evaluate_batch` gets all of them at a batch
    of states from one polynomial evaluation, then the metric and its partials
    from one batched inverse.
    """

    dim: int
    contraction_rate: float
    eig_floor: float
    eig_ceil: float
    dual_poly: PolyMatrix
    domain: "object" = None  # SafeSet-like (needs .sample/.contains) or None

    def __post_init__(self):
        n = self.dim
        partials = [self.dual_poly.partial(i) for i in range(n)]
        self.active_coords = [i for i, p in enumerate(partials) if not p.is_zero]
        # the same coordinates as a slice when they run consecutively (a
        # view costs less than a gather)
        act = self.active_coords
        self.active_index = (slice(act[0], act[-1] + 1)
                             if act and act == list(range(act[0], act[-1] + 1))
                             else act)
        self._fused = PolyMatrix.vstack(
            [self.dual_poly] + [partials[i] for i in self.active_coords])
        self.constant_metric = None
        if self.dual_poly.is_constant:
            dual = self.dual_poly.sum_coeffs()
            _require_pd(dual[None], None)   # the same at every state
            self.constant_metric = np.linalg.inv(dual)

    @property
    def is_constant(self) -> bool:
        return self.constant_metric is not None

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_dual_polynomial(cls, dual: PolyMatrix, contraction_rate: float,
                             eig_floor: float, eig_ceil: float, domain=None,
                             validate: bool = True, n_samples: int = 2000,
                             seed: int = 0) -> "MetricField":
        fld = cls(dim=dual.shape[0], contraction_rate=float(contraction_rate),
                  eig_floor=float(eig_floor), eig_ceil=float(eig_ceil),
                  dual_poly=dual, domain=domain)
        if validate and domain is not None:
            fld.validate_bounds(n_samples=n_samples, seed=seed)
        return fld

    @classmethod
    def constant_dual(cls, dual_matrix, contraction_rate: float,
                      eig_floor: float = None, eig_ceil: float = None,
                      domain=None) -> "MetricField":
        dual_matrix = np.asarray(dual_matrix, dtype=float)
        n = dual_matrix.shape[0]
        poly = PolyMatrix(n, (n, n), [((0,) * n, dual_matrix)])
        eigs = np.linalg.eigvalsh(np.linalg.inv(dual_matrix))
        if eig_floor is None:
            eig_floor = float(eigs[0])
        if eig_ceil is None:
            eig_ceil = float(eigs[-1])
        return cls(dim=n, contraction_rate=float(contraction_rate),
                   eig_floor=float(eig_floor), eig_ceil=float(eig_ceil),
                   dual_poly=poly, domain=domain)

    # -- evaluation ---------------------------------------------------------

    def metric_batch(self, xs: np.ndarray) -> np.ndarray:
        """(k, n, n) metric at a batch of states; the dual must be positive
        definite at each of them."""
        if self.constant_metric is not None:
            return np.broadcast_to(self.constant_metric,
                                   (xs.shape[0],) + self.constant_metric.shape).copy()
        duals = self.dual_poly.eval_batch(xs)
        _require_pd(duals, xs)
        return _inv_batch(duals)

    def metric_and_partials_batch(self, xs: np.ndarray, check_pd=True):
        """The metric and its partials along ``active_coords``: the last
        two arrays of :meth:`evaluate_batch`."""
        return self.evaluate_batch(xs, check_pd=check_pd)[2:]

    def evaluate_batch(self, xs: np.ndarray, check_pd=True):
        """Dual, dual partials, metric and metric partials at a batch of states.

        Returns arrays of shape (k, n, n), (k, len(active_coords), n, n),
        (k, n, n) and (k, len(active_coords), n, n): both partials cover only
        ``active_coords`` (the others are zero).  ``check_pd`` is True to
        require a positive-definite dual at every state, False for none, or a
        sequence of row indices to check only those states; the first failing
        one, in that order, is reported in the MetricDomainError, whose
        ``row`` is its index in ``xs``.  A constant metric is never
        re-checked.
        """
        k, n = xs.shape[0], self.dim
        if self.constant_metric is not None:
            return (self.dual_poly.eval_batch(xs), np.zeros((k, 0, n, n)),
                    np.broadcast_to(self.constant_metric, (k, n, n)).copy(),
                    np.zeros((k, 0, n, n)))
        stack = self._fused.eval_batch(xs).reshape(k, -1, n, n)
        duals, dual_partials = stack[:, 0], stack[:, 1:]
        if check_pd is True:
            _require_pd(duals, xs)
        elif check_pd is not False:
            _require_pd(duals, xs, order=check_pd)
        m = _inv_batch(duals)
        dm = -m[:, None] @ dual_partials @ m[:, None]
        return duals, dual_partials, m, dm

    # -- validation ---------------------------------------------------------

    def validate_bounds(self, n_samples: int = 2000, seed: int = 0,
                        rel_slack: float = 1e-9) -> None:
        """Sample the domain and confirm the declared eigenvalue envelope.

        Raises MetricValidationError when any sampled eigenvalue falls outside
        [eig_floor*(1-rel_slack), eig_ceil*(1+rel_slack)].
        """
        if self.domain is None:
            return
        rng = np.random.default_rng(seed)
        pts = self.domain.sample(n_samples, rng, include_extremes=True)
        metrics = self.metric_batch(pts)
        if not np.isfinite(metrics).all():
            raise MetricValidationError("sampled metric is not finite")
        eigs = np.linalg.eigvalsh(metrics)
        lo, hi = eigs[:, 0].min(), eigs[:, -1].max()
        if lo < self.eig_floor * (1.0 - rel_slack) or hi > self.eig_ceil * (1.0 + rel_slack):
            raise MetricValidationError(
                f"sampled metric eigenvalues [{lo:.6g}, {hi:.6g}] violate the "
                f"declared envelope [{self.eig_floor:.6g}, {self.eig_ceil:.6g}]")


def _require_pd(duals: np.ndarray, xs, order=None) -> None:
    """Raise MetricDomainError at the first state, taken in ``order`` (row
    indices; all rows in turn by default), whose dual is not positive
    definite, naming none if ``xs`` is None (a dual the same at every
    state).  One stacked factorization covers the common case."""
    try:
        np.linalg.cholesky(duals if order is None else duals[order])
    except np.linalg.LinAlgError:
        for i in (range(len(duals)) if order is None else order):
            try:
                np.linalg.cholesky(duals[i])
            except np.linalg.LinAlgError:
                raise MetricDomainError(
                    "dual metric not positive definite", row=int(i),
                    x=None if xs is None else np.array(xs[i])) from None
        raise MetricDomainError("dual metric not positive definite") from None


def _adjugate_taps():
    """Flat indices into a row-major 3x3 matrix: entry p = 3j + i of the
    adjugate is a[I1] * a[I2] - a[I3] * a[I4], the cofactor of (i, j), whose
    rows and columns are the cyclic successors of i and j."""
    succ1, succ2 = (1, 2, 0), (2, 0, 1)
    taps = np.empty((4, 9), dtype=int)
    for j in range(3):
        for i in range(3):
            r1, r2, c1, c2 = succ1[i], succ2[i], succ1[j], succ2[j]
            taps[:, 3 * j + i] = (3 * r1 + c1, 3 * r2 + c2,
                                  3 * r1 + c2, 3 * r2 + c1)
    return taps


_ADJ_TAPS = _adjugate_taps()


def _inv_batch(mats: np.ndarray) -> np.ndarray:
    """Batched inverse; closed-form adjugate for the 2x2/3x3 sizes that
    dominate here."""
    n = mats.shape[-1]
    if n == 2:
        a, b = mats[..., 0, 0], mats[..., 0, 1]
        c, d = mats[..., 1, 0], mats[..., 1, 1]
        det = a * d - b * c
        out = np.empty_like(mats)
        out[..., 0, 0] = d
        out[..., 0, 1] = -b
        out[..., 1, 0] = -c
        out[..., 1, 1] = a
        return out / det[..., None, None]
    if n == 3:
        # flat row-major entries; take() keeps every result in C order, as
        # later products and reductions must not see a transposed layout,
        # which changes their summation order
        a = mats.reshape(-1, 9)
        t1, t2, t3, t4 = _ADJ_TAPS
        adj = (a.take(t1, axis=1) * a.take(t2, axis=1)
               - a.take(t3, axis=1) * a.take(t4, axis=1))
        det = a[:, 0] * adj[:, 0] + a[:, 1] * adj[:, 3] + a[:, 2] * adj[:, 6]
        return (adj / det[:, None]).reshape(mats.shape)
    return np.linalg.inv(mats)


@dataclass
class CcmCheckReport:
    """Worst-case margins of the three pointwise metric conditions.

    All margins are oriented so that nonnegative means satisfied:
      * ``eig_margin`` - smallest slack of the eigenvalue envelope,
      * ``contraction_margin`` - minus the largest eigenvalue of the projected
        contraction matrix on the null space of (input^T metric); ``inf`` when
        no sample has such a null space (a fully actuated model),
      * ``killing_margin`` - minus the largest per-column residual norm of the
        input-direction invariance condition.
    A margin is NaN when some sample produced a non-finite value; the check
    then fails.
    """

    eig_margin: float
    contraction_margin: float
    killing_margin: float
    n_samples: int
    violations: list
    tol_eig: float
    tol_contraction: float
    tol_killing: float

    @property
    def passed(self) -> bool:
        return (self.eig_margin >= -self.tol_eig
                and self.contraction_margin >= -self.tol_contraction
                and self.killing_margin >= -self.tol_killing)

    def as_dict(self) -> dict:
        """JSON form; non-finite numbers are written as null, and
        ``contraction_checked: false`` is added when no sample had a null
        space to check."""
        out = {
            "passed": bool(self.passed),
            "eig_margin": finite_or_none(self.eig_margin),
            "contraction_margin": finite_or_none(self.contraction_margin),
            "killing_margin": finite_or_none(self.killing_margin),
            "n_samples": int(self.n_samples),
            "n_violations": len(self.violations),
            "violations": [[finite_or_none(c) for c in v]
                           for v in self.violations[:20]],
        }
        if self.contraction_margin == math.inf:
            out["contraction_checked"] = False
        return out


def finite_or_none(v):
    """``v`` as a float, or None when it is not finite (JSON has no
    infinities)."""
    v = float(v)
    return v if math.isfinite(v) else None


# Samples per stacked evaluation.  Fixed, so that the transient stacks of a
# check stay small whatever its sample count: 10,000 ex1 samples peak at
# 1.7 MB of traced allocations in chunks, and at 11.7 MB stacked at once.
_CHUNK = 1024


def ccm_check(model, field: MetricField, region=None, n_samples: int = 10_000,
              seed: int = 0, slack: float = 1e-8,
              rank_tol_scale: float = 1e-10) -> CcmCheckReport:
    """Sample a region and evaluate the three pointwise metric conditions.

    The conditional contraction condition is tested on the null space of
    (input^T metric), computed with a full orthogonal decomposition at rank
    tolerance ``rank_tol_scale * ||input^T metric||``; the projected block
    must be negative semidefinite up to ``slack``.  A sample violates the
    conditions when one of its margins is below its slack or not finite.

    The samples are evaluated in chunks of stacked numpy calls: one metric
    evaluation, one model :meth:`~ccml1.models.DynamicsModel.eval_batch`, one
    decomposition per stage, and the full SVD only at the samples whose rank
    is below the state dimension, grouped by rank.
    """
    region = region if region is not None else field.domain
    if region is None:
        raise ValueError("no sampling region: pass region= or give the field a domain")
    rng = np.random.default_rng(seed)
    pts = region.sample(n_samples, rng, include_extremes=True)

    margins = np.empty((3, len(pts)))
    for start in range(0, len(pts), _CHUNK):
        margins[:, start:start + _CHUNK] = _chunk_margins(
            model, field, pts[start:start + _CHUNK], rank_tol_scale)
    eig, contraction, killing = margins
    slack_eig = 1e-9 * field.eig_ceil
    # NaN fails every comparison, so a non-finite margin is a violation
    ok = (eig >= -slack_eig) & (contraction >= -slack) & (killing >= -slack)

    return CcmCheckReport(
        eig_margin=_first_min(eig),
        contraction_margin=_first_min(contraction),
        killing_margin=_first_min(killing),
        n_samples=len(pts), violations=list(pts[~ok]),
        tol_eig=slack_eig, tol_contraction=slack, tol_killing=slack)


def _chunk_margins(model, field: MetricField, xs: np.ndarray,
                   rank_tol_scale: float) -> np.ndarray:
    """(3, k) eigenvalue, contraction and Killing margins at k samples;
    ``inf`` contraction margin where (input^T metric) has full rank."""
    k, n = xs.shape[0], field.dim
    ms, dms = field.metric_and_partials_batch(xs)
    ev = np.linalg.eigvalsh(ms)
    eig = np.minimum(ev[:, 0] - field.eig_floor, field.eig_ceil - ev[:, -1])

    fx, jac, b, db = model.eval_batch(xs)
    act = field.active_coords       # the other metric partials are zero
    # directional derivative of the metric along the drift
    d_along_f = np.einsum("ka,kaij->kij", fx[:, act], dms)
    cmat = d_along_f + sym(ms @ jac) + 2.0 * field.contraction_rate * ms

    bm = b.swapaxes(1, 2) @ ms
    sv = _singular_values(bm)
    rank = np.sum(sv > rank_tol_scale * sv[:, :1], axis=1)
    bad = np.isnan(sv[:, 0])
    contraction = np.where(bad, np.nan, np.inf)
    for r in np.unique(rank[~bad & (rank < n)]):
        idx = np.flatnonzero(~bad & (rank == r))
        basis_t = np.linalg.svd(bm[idx])[2][:, r:]
        proj = basis_t @ cmat[idx] @ basis_t.swapaxes(1, 2)
        contraction[idx] = -np.linalg.eigvalsh(proj)[:, -1]

    killing = np.full(k, np.inf)
    for j in range(model.input_dim):
        d_along_b = np.einsum("ka,kaij->kij", b[:, act, j], dms)
        resid = d_along_b + sym(ms @ db[..., j].swapaxes(1, 2))
        killing = np.minimum(killing, -_singular_values(resid).max(axis=1))
    return np.stack([eig, contraction, killing])


def _singular_values(mats: np.ndarray) -> np.ndarray:
    """svd(compute_uv=False) of a stack; rows of NaN for matrices with a
    non-finite entry, where LAPACK would not converge."""
    finite = np.isfinite(mats).all(axis=(-2, -1))
    if finite.all():
        return np.linalg.svd(mats, compute_uv=False)
    out = np.full(mats.shape[:-2] + (min(mats.shape[-2:]),), np.nan)
    if finite.any():
        out[finite] = np.linalg.svd(mats[finite], compute_uv=False)
    return out


def _first_min(vals: np.ndarray) -> float:
    """Smallest entry, the first one on ties; NaN if any entry is NaN; inf
    for no entries."""
    return float(vals[np.argmin(vals)]) if vals.size else math.inf
