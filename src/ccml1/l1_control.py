"""Adaptive augmentation: state predictor, projected estimator, low-pass filter.

The augmentation runs alongside the contraction feedback.  A predictor copies
the plant but with the uncertainty replaced by its current estimate and a
Hurwitz pull-back toward the measured state; the estimate adapts on the
prediction error through a projection that keeps it inside (a slight
inflation of) the assumed uncertainty ball; the commanded correction is the
negated estimate pushed through a first-order low-pass, so high-frequency
estimation chatter never reaches the plant.

All discrete-time pieces here are exact or explicitly documented:

* the low-pass step is the exact zero-order-hold discretization, so the
  filter is unconditionally stable for any step size;
* the estimator uses an explicit Euler step (the standard choice); a radial
  clamp after the step enforces the ball invariance that the projection
  guarantees only in continuous time.

The updates work row-wise on the L1 rows of a lockstep batch
(:class:`L1Rows` for their tuning, :class:`L1State` for their state): each
row's products are stacked calls of the same shape as one row on its own,
so a row's result does not depend on the rows beside it.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Sequence

import numpy as np

from .models import matvec, row_dot


def lyapunov_solution(a: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The P with ``a.T @ P + P @ a = -q``, for a Hurwitz ``a``.

    Row-major ``vec`` turns the equation into ``M vec(P) = -vec(q)`` with
    ``M = kron(a.T, I) + kron(I, a.T)``: one (n², n²) solve, cheap for the
    small predictors here.  Solving ``-M`` against ``vec(q)`` (rather than
    ``M`` against ``-vec(q)``, which makes them -0.0) leaves the zero
    entries of a diagonal ``P`` positive zeros.
    """
    n = a.shape[0]
    eye = np.eye(n)
    lhs = np.kron(a.T, eye) + np.kron(eye, a.T)
    return np.linalg.solve(-lhs, q.reshape(-1)).reshape(n, n)


@dataclass
class L1Config:
    """Tuning for the adaptive augmentation.

    ``pred_matrix`` must be Hurwitz; ``lyap_p`` solves
    ``pred_matrix.T @ P + P @ pred_matrix = -lyap_q`` and is computed here
    unless supplied.
    """

    state_dim: int
    input_dim: int
    bandwidth: float            # low-pass pole of the command filter (rad/s)
    adaptation_gain: float
    unc_bound: float            # radius of the matched-uncertainty ball
    eps_proj: float = 0.1       # relative width of the projection boundary layer
    pred_matrix: np.ndarray = None
    lyap_q: np.ndarray = None
    lyap_p: np.ndarray = dc_field(default=None, repr=False)

    def __post_init__(self):
        if self.bandwidth <= 0.0:
            raise ValueError("filter bandwidth must be positive")
        if self.adaptation_gain <= 0.0:
            raise ValueError("adaptation gain must be positive")
        if self.unc_bound <= 0.0:
            raise ValueError("uncertainty bound must be positive")
        if self.eps_proj <= 0.0:
            raise ValueError("projection boundary width must be positive")
        n = self.state_dim
        if self.pred_matrix is None:
            self.pred_matrix = -10.0 * np.eye(n)
        else:
            self.pred_matrix = np.asarray(self.pred_matrix, dtype=float)
        if self.lyap_q is None:
            self.lyap_q = np.eye(n)
        else:
            self.lyap_q = np.asarray(self.lyap_q, dtype=float)
        eigs = np.linalg.eigvals(self.pred_matrix)
        if np.any(eigs.real >= 0.0):
            raise ValueError("predictor matrix must be Hurwitz")
        if self.lyap_p is None:
            self.lyap_p = lyapunov_solution(self.pred_matrix, self.lyap_q)
        self.lyap_p = 0.5 * (self.lyap_p + self.lyap_p.T)


@dataclass
class L1Rows:
    """Row-wise tuning of the L1 rows of a lockstep batch.

    Each row has its own filter bandwidth, adaptation gain, predictor matrix
    and Lyapunov solution.  The rows share the uncertainty ball (its radius
    and the projection boundary layer): it belongs to the plant they all run.
    """

    bandwidth: np.ndarray          # (K,)
    adaptation_gain: np.ndarray    # (K,)
    pred_matrix: np.ndarray        # (K, n, n)
    lyap_p: np.ndarray             # (K, n, n)
    unc_bound: float
    eps_proj: float
    _step: tuple = dc_field(default=(None,), init=False, repr=False,
                            compare=False)

    def __post_init__(self):
        # the largest estimate norm the discrete update permits
        self.clamp_radius = self.unc_bound * float(
            np.sqrt(1.0 + self.eps_proj))

    @classmethod
    def stack(cls, cfgs: Sequence[L1Config]) -> "L1Rows":
        """One row per configuration, in order."""
        if len({(c.unc_bound, c.eps_proj) for c in cfgs}) != 1:
            raise ValueError("the L1 rows of one batch must share one "
                             "uncertainty ball (unc_bound and eps_proj)")
        return cls(bandwidth=np.array([c.bandwidth for c in cfgs]),
                   adaptation_gain=np.array([c.adaptation_gain
                                             for c in cfgs]),
                   pred_matrix=np.array([c.pred_matrix for c in cfgs]),
                   lyap_p=np.array([c.lyap_p for c in cfgs]),
                   unc_bound=cfgs[0].unc_bound, eps_proj=cfgs[0].eps_proj)

    def rows(self, keep) -> "L1Rows":
        """The tuning of the rows that ``keep`` selects."""
        return L1Rows(self.bandwidth[keep], self.adaptation_gain[keep],
                      self.pred_matrix[keep], self.lyap_p[keep],
                      self.unc_bound, self.eps_proj)

    def per_step(self, dt: float) -> tuple[np.ndarray, np.ndarray]:
        """(K, 1) columns of the adaptation gain times ``dt`` and of the
        filter's decay over ``dt``, computed once per step size."""
        if self._step[0] != dt:
            self._step = (dt, (dt * self.adaptation_gain)[:, None],
                          np.exp(-self.bandwidth * dt)[:, None])
        return self._step[1:]


@dataclass
class L1State:
    """Mutable state of the L1 rows of a batch: (K, n) predictor states and
    (K, m) estimates and filtered corrections."""

    x_hat: np.ndarray           # predictor states
    sigma_hat: np.ndarray       # matched-uncertainty estimates
    u_adaptive: np.ndarray      # filtered corrections currently applied

    @classmethod
    def start(cls, x0, input_dim: int) -> "L1State":
        x0 = np.asarray(x0, dtype=float)
        k = x0.shape[0]
        return cls(x_hat=x0.copy(), sigma_hat=np.zeros((k, input_dim)),
                   u_adaptive=np.zeros((k, input_dim)))

    def rows(self, keep) -> "L1State":
        """The state of the rows that ``keep`` selects."""
        return L1State(self.x_hat[keep], self.sigma_hat[keep],
                       self.u_adaptive[keep])

    def prediction_error(self, x) -> np.ndarray:
        return self.x_hat - np.asarray(x, dtype=float)


def projection_map(theta: np.ndarray, raw: np.ndarray, radius: float,
                   eps: float) -> np.ndarray:
    """Smoothly deflect each row of ``raw`` so the driven estimate (the same
    row of ``theta``) stays near the ball.

    Inside the ball of the given radius the map is the identity; in the
    boundary layer (norm between ``radius`` and ``radius*sqrt(1+eps)``) the
    outward component is progressively removed whenever ``raw`` points
    outward.  The deflection is always along ``theta`` itself, which gives
    the defining inequality: for every target inside the ball, the deflection
    never increases the squared distance to it.  A single vector is one row.
    """
    theta = np.asarray(theta, dtype=float)
    raw = np.asarray(raw, dtype=float)
    norm_sq = row_dot(theta, theta)
    f = (norm_sq - radius * radius) / (eps * radius * radius)
    outward = row_dot(theta, raw)
    push = ~((f <= 0.0) | (outward <= 0.0))
    coef = f * outward / np.where(push, norm_sq, 1.0)
    return np.where(push[..., None], raw - coef[..., None] * theta, raw)


def predictor_rate(cfg: L1Rows, drift: np.ndarray, input_mat: np.ndarray,
                   u_est: np.ndarray, x_hat: np.ndarray,
                   x: np.ndarray) -> np.ndarray:
    """Time derivative of each row's predictor state.

    ``drift`` and ``input_mat`` are the plant's pieces evaluated at the
    *measured* states, and ``u_est`` is the applied input plus the
    uncertainty estimate: the predictor differs from the plant only by that
    estimate and the Hurwitz pull-back on the prediction error.
    """
    return (drift + matvec(input_mat, u_est)
            + matvec(cfg.pred_matrix, x_hat - x))


def adaptation_step(cfg: L1Rows, state: L1State, x: np.ndarray,
                    input_mat: np.ndarray, dt: float) -> None:
    """One explicit-Euler update of each row's estimate, in place.

    The raw drive is the prediction-error signal projected against the
    uncertainty ball; a radial clamp afterwards enforces in discrete time the
    invariance the projection gives in continuous time.
    """
    x_tilde = state.x_hat - x
    raw = -matvec(input_mat.swapaxes(1, 2), matvec(cfg.lyap_p, x_tilde))
    drive = projection_map(state.sigma_hat, raw, cfg.unc_bound, cfg.eps_proj)
    sigma = state.sigma_hat + cfg.per_step(dt)[0] * drive
    norm = np.sqrt(row_dot(sigma, sigma))
    cap = cfg.clamp_radius
    if norm.max() > cap:
        over = norm > cap
        sigma[over] *= (cap / norm[over])[:, None]
    state.sigma_hat = sigma


def filter_step(cfg: L1Rows, state: L1State, dt: float) -> None:
    """Exact zero-order-hold step of each row's first-order command filter."""
    decay = cfg.per_step(dt)[1]
    state.u_adaptive = (decay * state.u_adaptive
                        + (1.0 - decay) * (-state.sigma_hat))
