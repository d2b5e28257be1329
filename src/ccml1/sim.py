"""Closed-loop integration, trajectory planning, and tube-containment checks.

One step loop integrates the systems the tube guarantee compares, as the
rows of a lockstep batch.  They differ only in what the adaptive channel
applies and in whether the true uncertainty acts on the plant:

* the adaptive closed loop (contraction feedback plus the adaptive
  augmentation, true uncertainty acting on the plant); without the
  augmentation it is the feedback-only ablation,
* the reference loop (same feedback, but the adaptive channel applies the
  low-pass-filtered *true* uncertainty — the non-implementable ideal the
  certificates compare against),
* the nominal loop (contraction feedback only, uncertainty ignored), used
  for the exponential-decay checks.

:func:`lockstep` advances K such rows (a :class:`Loop` each; the
``integrate_*`` functions build them) as one (K, n) stack: per step one
batched geodesic solve, one row-wise feedback law, one RK4 step whose stages
evaluate the model once for all rows, and row-wise adaptation and filter
updates.  Every row-wise product is a stacked call of the same shape as one
row on its own, so each row records the bits it records when run alone.  A
row whose state diverges, or whose geodesic endpoint leaves the metric's
domain, stops there: it keeps the steps recorded so far and the reason, and
drops out of the stack while the other rows go on.

Discretization: one fixed step for everything.  The feedback and the
adaptive command are held over the step (zero-order hold), the plant and
predictor are advanced jointly with classical RK4 under the held inputs
while the true uncertainty stays continuous in time and state, and the
estimator/filter update at the end of the step.  The geodesic is re-solved
once per step, warm-started from the previous curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from typing import Sequence

import numpy as np

from .ccm_control import feedback_gain
from .certification import TubeCertificate
from .errors import (CcmL1Error, DivergenceError, GeodesicDomainError,
                     MetricDomainError, PlannerFailure)
from .geodesic import GeodesicSolver
from .l1_control import (L1Config, L1Rows, L1State, adaptation_step,
                         filter_step, predictor_rate)
from .metric import MetricField
from .models import DesiredTrajectory, DynamicsModel, SafeSet, row_dot


def rk4_step(fun, t: float, y: np.ndarray, dt: float,
             k1: np.ndarray | None = None) -> np.ndarray:
    """One classical Runge-Kutta step of ``dy/dt = fun(t, y)``; ``k1`` is
    ``fun(t, y)`` when the caller has it already."""
    if k1 is None:
        k1 = fun(t, y)
    k2 = fun(t + 0.5 * dt, y + 0.5 * dt * k1)
    k3 = fun(t + 0.5 * dt, y + 0.5 * dt * k2)
    k4 = fun(t + dt, y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@dataclass
class SimConfig:
    """Fixed-step integration settings shared by all rows of a batch."""

    dt: float
    t_final: float
    seed: int = 0
    geodesic_intervals: int = 8
    geodesic_tol: float = 1e-8
    enforce_domain: bool = True
    divergence_limit: float = 1e6

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.t_final < self.dt:
            raise ValueError("horizon must cover at least one step")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_final / self.dt))


@dataclass
class Trajectory:
    """Everything recorded along one run, on a uniform time grid.

    ``stopped`` is the reason a run stopped before the horizon (a
    :class:`DivergenceError`, or the domain error of its geodesic), with the
    steps before it recorded; None for a run that finished.
    """

    times: np.ndarray
    states: np.ndarray
    states_star: np.ndarray
    u_feedback: np.ndarray       # desired input plus contraction correction
    u_adaptive: np.ndarray       # adaptive channel actually applied
    sigma_hat: np.ndarray
    xtilde_norm: np.ndarray
    energy: np.ndarray
    warnings: list = dc_field(default_factory=list)
    stopped: CcmL1Error | None = None

    def __post_init__(self):
        k = len(self.times)
        for arr in (self.states, self.states_star, self.u_feedback,
                    self.u_adaptive, self.sigma_hat, self.xtilde_norm,
                    self.energy):
            if len(arr) != k:
                raise ValueError("trajectory arrays must share one grid")

    @cached_property
    def dist(self) -> np.ndarray:
        """Tracking distance at each step (computed on first read)."""
        return np.linalg.norm(self.states - self.states_star, axis=1)


@dataclass(frozen=True)
class Loop:
    """What one row of a lockstep batch integrates.

    The adaptive channel applies the L1 filter output (``l1``), the true
    uncertainty through the ideal first-order low-pass of the given
    ``bandwidth`` (the reference system), or nothing; ``uncertain`` says
    whether the true uncertainty acts on the plant, as it must wherever the
    adaptive channel is used.
    """

    l1: L1Config | None = None
    bandwidth: float | None = None
    uncertain: bool = True

    def __post_init__(self):
        if self.l1 is not None and self.bandwidth is not None:
            raise ValueError("a loop applies the L1 output or the filtered "
                             "uncertainty, not both")
        if self.kind < 2 and not self.uncertain:
            raise ValueError("an augmented loop runs under the uncertainty")

    @property
    def kind(self) -> int:
        """0 with the L1 augmentation, 1 for the reference loop, 2 without
        augmentation under the uncertainty, 3 without either."""
        if self.l1 is not None:
            return 0
        if self.bandwidth is not None:
            return 1
        return 2 if self.uncertain else 3


def integrate_closed_loop(l1: L1Config | None) -> Loop:
    """The adaptive closed loop under the true uncertainty, as a batch row.

    ``l1=None`` disables the augmentation (contraction feedback alone while
    the uncertainty still acts on the plant) — the ablation baseline.
    """
    return Loop(l1=l1)


def integrate_reference(bandwidth: float) -> Loop:
    """The ideal reference loop, as a batch row: filtered *true* uncertainty
    on the adaptive channel.  Not implementable (it reads the uncertainty
    directly); it is the benchmark the certificates bound first."""
    return Loop(bandwidth=bandwidth)


def integrate_nominal_ccm() -> Loop:
    """Contraction feedback alone on the nominal plant (no uncertainty), as
    a batch row."""
    return Loop(uncertain=False)


def _alive(x: np.ndarray, limit: float) -> list[bool]:
    """Which rows of a (K, n) stack are finite with norm at most ``limit``."""
    # numpy's 1-D 2-norm is sqrt(x @ x), so for any finite limit this
    # accepts exactly what `isfinite(x).all() and norm(x) <= limit` accepts
    return [math.isfinite(s) and math.sqrt(s) <= limit
            for s in row_dot(x, x).tolist()]


class _Rows:
    """The rows of a batch still running, as one stack ordered by
    :attr:`Loop.kind`: the ``n_l1`` L1 rows first, then the reference rows
    (the first ``n_aug`` rows have an adaptive channel), then the other
    rows under the uncertainty (the first ``n_unc``), then the nominal rows.
    ``ids`` maps each row to its index in the batch; :meth:`keep` drops
    stopped rows from every array.

    ``z`` joins each row's state and predictor state.  A row without the L1
    augmentation advances its state in both halves, so its predictor half
    equals its state bit for bit.  Where a row has no adaptive channel, or
    runs without the uncertainty, ``u_a`` and ``unc_pad`` hold -0.0, the one
    value whose addition changes no bit.
    """

    def __init__(self, model: DynamicsModel, loops: Sequence[Loop],
                 x0: np.ndarray, dt: float):
        kinds = [lp.kind for lp in loops]
        self.ids = np.argsort(kinds, kind="stable")
        loops = [loops[i] for i in self.ids.tolist()]
        self.n_l1, self.n_aug, self.n_unc = np.cumsum(
            np.bincount(kinds, minlength=4))[:3].tolist()
        self.m = model.input_dim
        x = x0[self.ids]
        self.z = np.concatenate([x, x], axis=1)
        self.at = model.rate_batch(x)           # model terms at the states
        l1 = [lp.l1 for lp in loops[:self.n_l1]]
        self.l1_cfg = L1Rows.stack(l1) if l1 else None
        self.est = L1State.start(x[:self.n_l1], self.m)
        self.ref_decay = np.array([math.exp(-lp.bandwidth * dt) for lp in
                                   loops[self.n_l1:self.n_aug]])[:, None]
        # the reference rows' low-pass of the true uncertainty
        self.eta = np.zeros((self.n_aug - self.n_l1, self.m))
        self.warm = None
        self._pad()
        self.adapt()

    def _pad(self):
        k = len(self.ids)
        self.u_pad = np.full((k - self.n_aug, self.m), -0.0)
        self.unc_pad = [np.full(self.m, -0.0)] * (k - self.n_unc)

    @property
    def x(self) -> np.ndarray:
        return self.z[:, :self.z.shape[1] // 2]

    def adapt(self):
        """The adaptive channel of every row."""
        self.u_a = np.concatenate([self.est.u_adaptive, -self.eta,
                                   self.u_pad])

    def keep(self, keep: np.ndarray):
        a, g = self.n_l1, self.n_aug
        if self.l1_cfg is not None:
            self.l1_cfg = self.l1_cfg.rows(keep[:a])
        self.est = self.est.rows(keep[:a])
        self.ref_decay = self.ref_decay[keep[a:g]]
        self.eta = self.eta[keep[a:g]]
        self.u_a = self.u_a[keep]
        self.ids, self.z = self.ids[keep], self.z[keep]
        self.at = self.at._replace(drift=self.at.drift[keep],
                                   input=self.at.input[keep])
        if self.warm is not None:
            self.warm = self.warm[keep]
        self.n_l1, self.n_aug, self.n_unc = (
            int(keep[:c].sum()) for c in (a, g, self.n_unc))
        self._pad()


def lockstep(model: DynamicsModel, field: MetricField,
             traj_star: DesiredTrajectory, x0, cfg: SimConfig,
             loops: Sequence[Loop]) -> list[Trajectory]:
    """Integrate the given loops in lockstep, one trajectory per loop.

    All rows share the model, metric, desired trajectory and time grid, and
    start from ``x0`` ((n,) or one row each).  A row that diverges or leaves
    the metric's domain stops with a partial trajectory whose ``stopped``
    says why; the others run on.
    """
    k, n, m = len(loops), model.state_dim, model.input_dim
    steps, dt = cfg.n_steps, cfg.dt
    solver = GeodesicSolver(field, n_intervals=cfg.geodesic_intervals,
                            tol=cfg.geodesic_tol,
                            enforce_domain=cfg.enforce_domain)
    no_uncertainty = np.zeros(m)
    h = model.uncertainty or (lambda t, x: no_uncertainty)
    rows = _Rows(model, loops, np.array(np.broadcast_to(
        np.asarray(x0, dtype=float), (k, n))), dt)
    times = np.arange(steps + 1) * dt
    # the desired path and its nominal rate, for every step at once
    states_star, inputs_star = traj_star.sample(times)
    rates_star = model.rate_batch(states_star).rate(inputs_star)
    # the records of the running rows, in stack order: row r of the stack
    # records into row r of each array
    rec_x, rec_uc, rec_ua, rec_sigma, rec_xt, rec_energy = records = [
        np.zeros((k, steps + 1) + shape)
        for shape in ((n,), (m,), (m,), (m,), (), ())]
    warnings: list[list[str]] = [[] for _ in range(k)]
    runs: list = [None] * k

    def finish(r: int, size: int, reason=None, copy=False):
        """The trajectory of stack row ``r`` over its first ``size`` steps."""
        x, u_c, u_a, sigma, x_tilde, energy = (
            a[r, :size].copy() if copy else a[r, :size] for a in records)
        i = rows.ids[r]
        runs[i] = Trajectory(
            times=times[:size], states=x, states_star=states_star[:size],
            u_feedback=u_c, u_adaptive=u_a, sigma_hat=sigma,
            xtilde_norm=x_tilde, energy=energy, warnings=warnings[i],
            stopped=reason)

    def stop(keep: np.ndarray, reason, recorded: int):
        """Stop the rows ``keep`` leaves out after ``recorded`` steps; the
        rows kept move up the stack, and their records with them."""
        for r in np.flatnonzero(~keep).tolist():
            finish(r, recorded, reason(), copy=True)
        for dst, src in enumerate(np.flatnonzero(keep).tolist()):
            if dst != src:
                for a in records:
                    a[dst, :recorded] = a[src, :recorded]
        rows.keep(keep)

    def rates(tt, z, at, u_held, u_est):
        """Rates of the joint states ``z`` of every row, the model terms
        ``at`` at their states, under the held inputs (``u_est`` is the L1
        rows' held input plus their estimate)."""
        x = z[:, :n]
        plant = at.rate(u_held + np.array(
            [h(tt, xi) for xi in x[:rows.n_unc]] + rows.unc_pad))
        out = np.concatenate([plant, plant], axis=1)
        a = rows.n_l1
        if a:
            out[:a, n:] = predictor_rate(rows.l1_cfg, at.drift[:a],
                                         at.input[:a], u_est, z[:a, n:],
                                         x[:a])
        return out

    for step in range(steps + 1):
        t = step * dt
        here = slice(step, step + 1)
        while len(rows.ids):
            try:
                curve = solver.solve(states_star[here], rows.x,
                                     warm=rows.warm)
                break
            except (GeodesicDomainError, MetricDomainError) as exc:
                if exc.row is None:
                    raise
                keep = np.ones(len(rows.ids), dtype=bool)
                keep[exc.row] = False
                stop(keep, lambda: exc, step)
        if not len(rows.ids):
            break
        rows.warm = curve.states
        fb = feedback_gain(field, curve, rates_star[here],
                           rows.at.rate(inputs_star[here]), rows.at.input)
        ids, a, g = rows.ids, rows.n_l1, rows.n_aug
        if not curve.converged:
            for i in np.flatnonzero(~curve.converged_rows).tolist():
                warnings[ids[i]].append(
                    f"step {step}: geodesic not converged "
                    f"(grad {curve.grad_norm[i]:.2e})")
        if fb.infeasible:
            for i in np.flatnonzero(fb.infeasible_rows).tolist():
                warnings[ids[i]].append(
                    f"step {step}: feedback constraint degenerated")
        u_c = inputs_star[step] + fb.gain

        x, est, run = rows.x, rows.est, len(ids)
        rec_x[:run, step] = x
        rec_uc[:run, step] = u_c
        rec_ua[:g, step] = rows.u_a[:g]
        rec_energy[:run, step] = curve.energy
        if a:
            rec_sigma[:a, step] = est.sigma_hat
            x_tilde = est.prediction_error(x[:a])
            rec_xt[:a, step] = np.sqrt(row_dot(x_tilde, x_tilde))
        if step == steps:
            break

        u_held = u_c + rows.u_a
        u_est = u_held[:a] + est.sigma_hat
        rows.z = rk4_step(
            lambda tt, zz: rates(tt, zz, model.rate_batch(zz[:, :n]),
                                 u_held, u_est),
            t, rows.z, dt, k1=rates(t, rows.z, rows.at, u_held, u_est))
        alive = _alive(rows.x, cfg.divergence_limit)
        if not all(alive):
            stop(np.array(alive), lambda: DivergenceError(
                f"state diverged at step {step}"), step + 1)
            if not len(rows.ids):
                break
        x, est, a, g = rows.x, rows.est, rows.n_l1, rows.n_aug
        rows.at = model.rate_batch(x)

        if a:
            est.x_hat = rows.z[:a, n:]
            adaptation_step(rows.l1_cfg, est, x[:a], rows.at.input[:a], dt)
            filter_step(rows.l1_cfg, est, dt)
        if g > a:
            decay = rows.ref_decay
            rows.eta = decay * rows.eta + (1.0 - decay) * np.array(
                [h(t + dt, xi) for xi in x[a:g]])
        rows.adapt()

    for r in range(len(rows.ids)):
        finish(r, steps + 1)
    return runs


# --- planning ----------------------------------------------------------------


def _rk4_with_sensitivities(model: DynamicsModel, xs: np.ndarray,
                            us: np.ndarray, dt: float):
    """Discrete steps plus exact Jacobians of the step map at a (k, n) stack
    of states under a (k, m) stack of held inputs.

    Chain rule through the four stages using the analytic drift Jacobian;
    the input enters affinely so the input sensitivity uses the stage
    matrices directly.  Each stage is one :meth:`DynamicsModel.eval_batch`
    call over all k rows; the products are stacked matmuls, which make the
    same per-slice BLAS calls as one row at a time.  Returns (k, n),
    (k, n, n) and (k, n, m) arrays.
    """
    eye = np.eye(model.state_dim)
    u_col = us[:, None, :, None]

    def stage(xx):
        batch = model.eval_batch(xx)
        # column i of the rate Jacobian gains d(input)/dx_i @ u
        du = (batch.d_input @ u_col)[..., 0]
        return batch.rate(us), batch.jac + du.swapaxes(1, 2), batch.input

    k1, a1, b1 = stage(xs)
    x2 = xs + 0.5 * dt * k1
    k2, a2_loc, b2_loc = stage(x2)
    a2 = a2_loc @ (eye + 0.5 * dt * a1)
    b2 = b2_loc + 0.5 * dt * a2_loc @ b1
    x3 = xs + 0.5 * dt * k2
    k3, a3_loc, b3_loc = stage(x3)
    a3 = a3_loc @ (eye + 0.5 * dt * a2)
    b3 = b3_loc + 0.5 * dt * a3_loc @ b2
    x4 = xs + dt * k3
    k4, a4_loc, b4_loc = stage(x4)
    a4 = a4_loc @ (eye + dt * a3)
    b4 = b4_loc + dt * a4_loc @ b3

    x_next = xs + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    a_disc = eye + (dt / 6.0) * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
    b_disc = (dt / 6.0) * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
    return x_next, a_disc, b_disc


def _terminal_weight(model: DynamicsModel, target: np.ndarray,
                     q: np.ndarray, r: np.ndarray, dt: float) -> np.ndarray:
    """Infinite-horizon Riccati weight of the linearization at the target."""
    _, a_seq, b_seq = _rk4_with_sensitivities(
        model, target[None], np.zeros((1, model.input_dim)), dt)
    a, b = a_seq[0], b_seq[0]
    p = q.copy()
    for _ in range(10000):
        btpb = r + b.T @ p @ b
        gain = np.linalg.solve(btpb, b.T @ p @ a)
        p_next = q + a.T @ p @ (a - b @ gain)
        p_next = 0.5 * (p_next + p_next.T)
        if np.max(np.abs(p_next - p)) < 1e-10 * (1.0 + np.max(np.abs(p))):
            return p_next
        p = p_next
    return p


def ilqr_plan(model: DynamicsModel, x0_star, target, t_final: float,
              dt: float, state_weight: np.ndarray = None,
              input_weight: np.ndarray = None,
              terminal_weight: np.ndarray = None, max_iter: int = 200,
              tol: float = 1e-8) -> DesiredTrajectory:
    """Iterative LQR on the RK4-discretized nominal dynamics.

    Quadratic running cost about the target, terminal weight from the
    infinite-horizon Riccati solution at the target unless supplied.
    Converged when the cost decrease falls below ``tol`` (relative).
    """
    x0_star = np.asarray(x0_star, dtype=float)
    target = np.asarray(target, dtype=float)
    n, m = model.state_dim, model.input_dim
    steps = int(round(t_final / dt))
    q = np.asarray(state_weight if state_weight is not None
                   else 0.5 * np.eye(n), dtype=float) * dt
    r = np.asarray(input_weight if input_weight is not None
                   else np.eye(m), dtype=float) * dt
    qf = (np.asarray(terminal_weight, dtype=float)
          if terminal_weight is not None
          else _terminal_weight(model, target, q, r, dt))

    us = np.zeros((steps, m))
    xs = np.zeros((steps + 1, n))
    xs[0] = x0_star

    def rollout(u_seq):
        traj = np.zeros((steps + 1, n))
        traj[0] = x0_star
        cost = 0.0
        for k in range(steps):
            dxk = traj[k] - target
            cost += 0.5 * (dxk @ q @ dxk + u_seq[k] @ r @ u_seq[k])
            traj[k + 1] = rk4_step(
                lambda tt, xx: model.nominal_rate(xx, u_seq[k]),
                0.0, traj[k], dt)
        dxf = traj[-1] - target
        cost += 0.5 * dxf @ qf @ dxf
        return traj, cost

    xs, cost = rollout(us)
    reg = 1e-8
    eye_m = np.eye(m)
    for _ in range(max_iter):
        # every step linearizes about the fixed nominal: one batched call
        _, a_seq, b_seq = _rk4_with_sensitivities(model, xs[:-1], us, dt)
        # backward pass; the terms that do not depend on the value function
        # are formed for all steps at once
        qx_run = (q @ (xs[:-1] - target)[:, :, None])[:, :, 0]
        qu_run = (r @ us[:, :, None])[:, :, 0]
        reg_eye = reg * eye_m
        vx = qf @ (xs[-1] - target)
        vxx = qf.copy()
        k_ff = np.zeros((steps, m))
        k_fb = np.zeros((steps, m, n))
        failed = False
        for k in reversed(range(steps)):
            a, b = a_seq[k], b_seq[k]
            bt_vxx = b.T @ vxx
            qx = qx_run[k] + a.T @ vx
            qu = qu_run[k] + b.T @ vx
            qxx = q + a.T @ vxx @ a
            quu = r + bt_vxx @ b + reg_eye
            qux = bt_vxx @ a
            try:
                quu_inv = np.linalg.inv(quu)
            except np.linalg.LinAlgError:
                failed = True
                break
            kff = k_ff[k] = -quu_inv @ qu
            kfb = k_fb[k] = -quu_inv @ qux
            kfb_quu = kfb.T @ quu
            vx = qx + kfb_quu @ kff + kfb.T @ qu + qux.T @ kff
            vxx = qxx + kfb_quu @ kfb + kfb.T @ qux + qux.T @ kfb
            vxx = 0.5 * (vxx + vxx.T)
        if failed:
            reg = max(reg * 10.0, 1e-6)
            if reg > 1e8:
                raise PlannerFailure("backward pass not positive definite")
            continue

        # forward line search
        improved = False
        for alpha in (1.0, 0.5, 0.25, 0.1, 0.03, 0.01):
            u_try = np.zeros_like(us)
            x_try = np.zeros_like(xs)
            x_try[0] = x0_star
            u_open = us + alpha * k_ff
            for k in range(steps):
                u_try[k] = u_open[k] + k_fb[k] @ (x_try[k] - xs[k])
                x_try[k + 1] = rk4_step(
                    lambda tt, xx: model.nominal_rate(xx, u_try[k]),
                    0.0, x_try[k], dt)
            dxf = x_try[-1] - target
            cost_try = 0.5 * dxf @ qf @ dxf
            dx_all = x_try[:-1] - target
            cost_try += 0.5 * float(
                np.einsum("ki,ij,kj->", dx_all, q, dx_all)
                + np.einsum("ki,ij,kj->", u_try, r, u_try))
            if cost_try < cost:
                improved = True
                break
        if not improved:
            reg = max(reg * 10.0, 1e-6)
            if reg > 1e8:
                raise PlannerFailure("no cost decrease at max regularization")
            continue

        rel_drop = (cost - cost_try) / max(cost, 1e-30)
        xs, us, cost = x_try, u_try, cost_try
        reg = max(reg * 0.5, 1e-10)
        if rel_drop < tol:
            break
    else:
        raise PlannerFailure("planner did not converge within max_iter")

    inputs = np.vstack([us, us[-1]])
    return DesiredTrajectory(t0=0.0, dt=dt, states=xs, inputs=inputs)


# --- containment -------------------------------------------------------------


def time_radii(cert: TubeCertificate, times: np.ndarray):
    """The certificate's total radius ``delta_t`` and transient radius
    ``mu`` at each time of a grid."""
    mu = np.array([cert.mu(t) for t in times.tolist()])
    return mu + cert.rho_a, mu


def containment(traj: Trajectory, cert: TubeCertificate,
                kind: str = "actual", safe_set: SafeSet | None = None,
                radii=None) -> dict:
    """Check a run against its certificate; returns the JSON report.

    ``kind="actual"`` compares against the full radius and the shrinking
    total bound; ``kind="reference"`` against the reference radius and the
    transient bound.  ``radii`` is :func:`time_radii` of the certificate on
    a grid at least as long as the run, when the caller has it already.
    Safe-set checks use the tube logic: the desired path eroded by the
    radius must stay inside (``tube_inside_safe_set``, false when the
    radius empties the safe set), and each visited state is also checked
    directly (``safe_set_ok``).  A run that recorded no step has no
    ``max_dist``.  ``contained`` means no fixed-radius violation.
    """
    dist = traj.dist
    times = traj.times
    if kind not in ("actual", "reference"):
        raise ValueError("kind must be 'actual' or 'reference'")
    delta, mu = radii if radii is not None else time_radii(cert, times)
    if kind == "actual":
        radius = cert.rho
        shrink = delta[:len(times)]
    else:
        radius = cert.rho_r
        shrink = mu[:len(times)]

    over_r = dist > radius
    over_s = dist > shrink
    any_over = over_r | over_s
    first = float(times[np.argmax(any_over)]) if np.any(any_over) else None

    in_safe = None
    tube_ok = None
    if safe_set is not None:
        in_safe = bool(np.all(safe_set.contains(traj.states)))
        try:
            eroded = safe_set.erode(radius)
        except ValueError:          # the tube is wider than the safe set
            tube_ok = False
        else:
            tube_ok = bool(np.all(eroded.contains(traj.states_star)))

    n_over = int(over_r.sum())
    return {
        "kind": kind,
        "radius": radius,
        "max_dist": float(dist.max()) if len(dist) else None,
        "n_radius_violations": n_over,
        "n_shrinking_violations": int(over_s.sum()),
        "first_violation_time": first,
        "contained": n_over == 0,
        "tube_inside_safe_set": tube_ok,
        "safe_set_ok": in_safe,
    }
