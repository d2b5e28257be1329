"""Closed-loop integration, trajectory planning, and tube-containment checks.

Three loops share one integration core:

* the adaptive closed loop (contraction feedback plus the adaptive
  augmentation, true uncertainty acting on the plant),
* the reference loop (same feedback, but the adaptive channel applies the
  low-pass-filtered *true* uncertainty — the non-implementable ideal the
  certificates compare against),
* the nominal loop (contraction feedback only, uncertainty ignored), used
  for the exponential-decay checks.

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

import numpy as np

from .ccm_control import feedback_gain
from .certification import TubeCertificate
from .errors import DivergenceError, PlannerFailure
from .geodesic import GeodesicSolver
from .l1_control import L1Config, L1State, adaptation_step, filter_step
from .metric import MetricField
from .models import DesiredTrajectory, DynamicsModel, SafeSet


def rk4_step(fun, t: float, y: np.ndarray, dt: float) -> np.ndarray:
    """One classical Runge-Kutta step of ``dy/dt = fun(t, y)``."""
    k1 = fun(t, y)
    k2 = fun(t + 0.5 * dt, y + 0.5 * dt * k1)
    k3 = fun(t + 0.5 * dt, y + 0.5 * dt * k2)
    k4 = fun(t + dt, y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@dataclass
class SimConfig:
    """Fixed-step integration settings shared by all three loops."""

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
    """Everything recorded along one run, on a uniform time grid."""

    times: np.ndarray
    states: np.ndarray
    states_star: np.ndarray
    u_feedback: np.ndarray       # desired input plus contraction correction
    u_adaptive: np.ndarray       # adaptive channel actually applied
    sigma_hat: np.ndarray
    x_hat: np.ndarray
    xtilde_norm: np.ndarray
    energy: np.ndarray
    warnings: list = dc_field(default_factory=list)

    def __post_init__(self):
        k = len(self.times)
        for arr in (self.states, self.states_star, self.u_feedback,
                    self.u_adaptive, self.sigma_hat, self.x_hat,
                    self.xtilde_norm, self.energy):
            if len(arr) != k:
                raise ValueError("trajectory arrays must share one grid")

    @property
    def dist(self) -> np.ndarray:
        return np.linalg.norm(self.states - self.states_star, axis=1)


def _alloc(n_steps: int, n: int, m: int):
    k = n_steps + 1
    return dict(times=np.zeros(k), states=np.zeros((k, n)),
                states_star=np.zeros((k, n)), u_feedback=np.zeros((k, m)),
                u_adaptive=np.zeros((k, m)), sigma_hat=np.zeros((k, m)),
                x_hat=np.zeros((k, n)), xtilde_norm=np.zeros(k),
                energy=np.zeros(k))


def _check_alive(x: np.ndarray, limit: float, rec: dict, step: int):
    if np.all(np.isfinite(x)) and np.linalg.norm(x) <= limit:
        return
    partial = Trajectory(**{k: v[:step + 1] for k, v in rec.items()})
    raise DivergenceError(f"state diverged at step {step}", partial=partial)


def integrate_closed_loop(model: DynamicsModel, field: MetricField,
                          l1: L1Config | None, traj_star: DesiredTrajectory,
                          x0, cfg: SimConfig) -> Trajectory:
    """Adaptive closed loop under the true uncertainty.

    ``l1=None`` disables the augmentation (contraction feedback alone while
    the uncertainty still acts on the plant) — the ablation baseline.
    """
    x = np.asarray(x0, dtype=float).copy()
    n, m = model.state_dim, model.input_dim
    solver = GeodesicSolver(field, n_intervals=cfg.geodesic_intervals,
                            tol=cfg.geodesic_tol,
                            enforce_domain=cfg.enforce_domain)
    l1_state = L1State.start(x, m)
    rec = _alloc(cfg.n_steps, n, m)
    warnings: list[str] = []
    warm = None
    h = model.uncertainty

    for step in range(cfg.n_steps + 1):
        t = step * cfg.dt
        xs = traj_star.state(t)
        us = traj_star.input(t)
        curve = solver.solve(xs, x, warm=warm)
        warm = curve
        if curve.degraded:
            warnings.append(f"step {step}: geodesic not converged "
                            f"(grad {curve.grad_norm:.2e})")
        fb = feedback_gain(model, field, curve, us)
        if fb.infeasible:
            warnings.append(f"step {step}: feedback constraint degenerated")
        u_c = us + fb.gain
        u_a = l1_state.u_adaptive.copy()

        rec["times"][step] = t
        rec["states"][step] = x
        rec["states_star"][step] = xs
        rec["u_feedback"][step] = u_c
        rec["u_adaptive"][step] = u_a
        rec["sigma_hat"][step] = l1_state.sigma_hat
        rec["x_hat"][step] = l1_state.x_hat
        rec["xtilde_norm"][step] = np.linalg.norm(l1_state.prediction_error(x))
        rec["energy"][step] = curve.energy
        if step == cfg.n_steps:
            break

        if l1 is None:
            def rate(tt, xx):
                u_plant = u_c + (h(tt, xx) if h is not None else 0.0)
                return model.drift(xx) + model.input_matrix(xx) @ u_plant

            x = rk4_step(rate, t, x, cfg.dt)
            l1_state.x_hat = x.copy()
            _check_alive(x, cfg.divergence_limit, rec, step)
            continue

        u_held = u_c + u_a
        sigma_held = l1_state.sigma_hat.copy()
        pred_mat = l1.pred_matrix

        def joint_rate(tt, z):
            xx, xh = z[:n], z[n:]
            drift = model.drift(xx)
            b_mat = model.input_matrix(xx)
            u_plant = u_held + (h(tt, xx) if h is not None else 0.0)
            dx = drift + b_mat @ u_plant
            dxh = drift + b_mat @ (u_held + sigma_held) + pred_mat @ (xh - xx)
            return np.concatenate([dx, dxh])

        z = rk4_step(joint_rate, t, np.concatenate([x, l1_state.x_hat]),
                     cfg.dt)
        x, l1_state.x_hat = z[:n].copy(), z[n:].copy()
        _check_alive(x, cfg.divergence_limit, rec, step)

        adaptation_step(l1, l1_state, x, model.input_matrix(x), cfg.dt)
        filter_step(l1, l1_state, cfg.dt)

    return Trajectory(**rec, warnings=warnings)


def integrate_reference(model: DynamicsModel, field: MetricField,
                        bandwidth: float, traj_star: DesiredTrajectory,
                        x0, cfg: SimConfig) -> Trajectory:
    """Ideal reference loop: filtered *true* uncertainty on the adaptive
    channel.  Not implementable (it reads the uncertainty directly); it is
    the benchmark the certificates bound first."""
    x = np.asarray(x0, dtype=float).copy()
    n, m = model.state_dim, model.input_dim
    solver = GeodesicSolver(field, n_intervals=cfg.geodesic_intervals,
                            tol=cfg.geodesic_tol,
                            enforce_domain=cfg.enforce_domain)
    rec = _alloc(cfg.n_steps, n, m)
    warnings: list[str] = []
    warm = None
    h = model.uncertainty
    eta = np.zeros(m)            # low-pass state driven by the true uncertainty
    decay = math.exp(-bandwidth * cfg.dt)

    for step in range(cfg.n_steps + 1):
        t = step * cfg.dt
        xs = traj_star.state(t)
        us = traj_star.input(t)
        curve = solver.solve(xs, x, warm=warm)
        warm = curve
        if curve.degraded:
            warnings.append(f"step {step}: geodesic not converged "
                            f"(grad {curve.grad_norm:.2e})")
        fb = feedback_gain(model, field, curve, us)
        u_c = us + fb.gain

        rec["times"][step] = t
        rec["states"][step] = x
        rec["states_star"][step] = xs
        rec["u_feedback"][step] = u_c
        rec["u_adaptive"][step] = -eta
        rec["x_hat"][step] = x
        rec["energy"][step] = curve.energy
        if step == cfg.n_steps:
            break

        u_held = u_c - eta

        def rate(tt, xx):
            u_plant = u_held + (h(tt, xx) if h is not None else 0.0)
            return model.drift(xx) + model.input_matrix(xx) @ u_plant

        x = rk4_step(rate, t, x, cfg.dt)
        _check_alive(x, cfg.divergence_limit, rec, step)
        if h is not None:
            eta = decay * eta + (1.0 - decay) * h(t + cfg.dt, x)

    return Trajectory(**rec, warnings=warnings)


def integrate_nominal_ccm(model: DynamicsModel, field: MetricField,
                          traj_star: DesiredTrajectory, x0,
                          cfg: SimConfig) -> Trajectory:
    """Contraction feedback alone on the nominal plant (no uncertainty)."""
    x = np.asarray(x0, dtype=float).copy()
    n, m = model.state_dim, model.input_dim
    solver = GeodesicSolver(field, n_intervals=cfg.geodesic_intervals,
                            tol=cfg.geodesic_tol,
                            enforce_domain=cfg.enforce_domain)
    rec = _alloc(cfg.n_steps, n, m)
    warnings: list[str] = []
    warm = None

    for step in range(cfg.n_steps + 1):
        t = step * cfg.dt
        xs = traj_star.state(t)
        us = traj_star.input(t)
        curve = solver.solve(xs, x, warm=warm)
        warm = curve
        if curve.degraded:
            warnings.append(f"step {step}: geodesic not converged "
                            f"(grad {curve.grad_norm:.2e})")
        fb = feedback_gain(model, field, curve, us)
        u_c = us + fb.gain

        rec["times"][step] = t
        rec["states"][step] = x
        rec["states_star"][step] = xs
        rec["u_feedback"][step] = u_c
        rec["x_hat"][step] = x
        rec["energy"][step] = curve.energy
        if step == cfg.n_steps:
            break

        def rate(tt, xx):
            return model.drift(xx) + model.input_matrix(xx) @ u_c

        x = rk4_step(rate, t, x, cfg.dt)
        _check_alive(x, cfg.divergence_limit, rec, step)

    return Trajectory(**rec, warnings=warnings)


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


@dataclass
class ContainmentReport:
    """Distances against the certified radii, plus safe-set membership."""

    times: np.ndarray
    dist: np.ndarray
    radius: float                # fixed tube radius the run is checked against
    shrinking: np.ndarray        # time-varying certified radius at each step
    kind: str                    # "actual" or "reference"
    n_radius_violations: int
    n_shrinking_violations: int
    first_violation_time: float | None
    max_dist: float
    in_safe_set: np.ndarray | None = None
    tube_inside_safe_set: bool | None = None

    @property
    def contained(self) -> bool:
        return self.n_radius_violations == 0

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "radius": self.radius,
            "max_dist": self.max_dist,
            "n_radius_violations": int(self.n_radius_violations),
            "n_shrinking_violations": int(self.n_shrinking_violations),
            "first_violation_time": self.first_violation_time,
            "contained": self.contained,
            "tube_inside_safe_set": self.tube_inside_safe_set,
            "safe_set_ok": (bool(np.all(self.in_safe_set))
                            if self.in_safe_set is not None else None),
        }


def containment(traj: Trajectory, cert: TubeCertificate,
                kind: str = "actual",
                safe_set: SafeSet | None = None) -> ContainmentReport:
    """Check a run against its certificate.

    ``kind="actual"`` compares against the full radius and the shrinking
    total bound; ``kind="reference"`` against the reference radius and the
    transient bound.  Safe-set checks use the tube logic: the desired path
    eroded by the radius must stay inside, and each visited state is also
    checked directly.
    """
    dist = traj.dist
    times = traj.times
    if kind == "actual":
        radius = cert.rho
        shrink = np.array([cert.delta_t(t) for t in times])
    elif kind == "reference":
        radius = cert.rho_r
        shrink = np.array([cert.mu(t) for t in times])
    else:
        raise ValueError("kind must be 'actual' or 'reference'")

    over_r = dist > radius
    over_s = dist > shrink
    any_over = over_r | over_s
    first = float(times[np.argmax(any_over)]) if np.any(any_over) else None

    in_safe = None
    tube_ok = None
    if safe_set is not None:
        in_safe = safe_set.contains(traj.states)
        eroded = safe_set.erode(radius)
        tube_ok = bool(np.all(eroded.contains(traj.states_star)))

    return ContainmentReport(
        times=times, dist=dist, radius=radius, shrinking=shrink, kind=kind,
        n_radius_violations=int(over_r.sum()),
        n_shrinking_violations=int(over_s.sum()),
        first_violation_time=first, max_dist=float(dist.max()),
        in_safe_set=in_safe, tube_inside_safe_set=tube_ok)
