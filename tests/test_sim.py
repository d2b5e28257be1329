"""Integrators, the planner, the lockstep loop, and containment accounting."""

import dataclasses
import math

import numpy as np
import pytest

from ccml1 import sim as sim_module
from ccml1.ccm_control import feedback_gain
from ccml1.certification import TubeCertificate
from ccml1.errors import DivergenceError, GeodesicDomainError, PlannerFailure
from ccml1.geodesic import GeodesicSolver
from ccml1.l1_control import (L1Config, L1Rows, L1State, adaptation_step,
                              filter_step)
from ccml1.metric import MetricField, PolyMatrix
from ccml1.models import DesiredTrajectory, DynamicsModel, SafeSet
from ccml1.scenario import SCHEMA_VERSION, Scenario
from ccml1.sim import (Loop, SimConfig, Trajectory, _rk4_with_sensitivities,
                       containment, ilqr_plan, integrate_closed_loop,
                       integrate_nominal_ccm, integrate_reference, lockstep,
                       rk4_step)
from reference import desired_input, desired_state


def _run(model, field, loop, traj_star, x0, cfg):
    """One loop, as a batch of one row."""
    return lockstep(model, field, traj_star, x0, cfg, [loop])[0]


def test_rk4_fourth_order_on_scalar_exponential():
    errs = []
    for dt in (0.1, 0.05, 0.025):
        y = np.array([1.0])
        t = 0.0
        while t < 1.0 - 1e-12:
            y = rk4_step(lambda tt, yy: yy, t, y, dt)
            t += dt
        errs.append(abs(y[0] - math.e))
    order1 = math.log2(errs[0] / errs[1])
    order2 = math.log2(errs[1] / errs[2])
    assert order1 > 3.9
    assert order2 > 3.9


def _double_integrator():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    b = np.array([[0.0], [1.0]])
    return DynamicsModel(2, 1, drift=lambda x: a @ x,
                         input_matrix=lambda x: b,
                         jac_drift=lambda x: a,
                         d_input=lambda x: np.zeros((2, 2, 1))), a, b


class TestPlanner:
    def test_matches_discrete_lqr_on_linear_system(self):
        # on a linear plant with quadratic cost the planner must reproduce
        # the finite-horizon LQR solution computed here by an independent
        # Riccati recursion
        model, a, b = _double_integrator()
        dt, steps = 0.05, 40
        x0 = np.array([1.0, -0.5])
        qf = np.eye(2)
        plan = ilqr_plan(model, x0, np.zeros(2), t_final=steps * dt, dt=dt,
                         state_weight=np.eye(2), input_weight=np.eye(1),
                         terminal_weight=qf)

        # exact hold discretization (the nilpotent series terminates)
        a_d = np.eye(2) + a * dt
        b_d = dt * b + 0.5 * dt * dt * (a @ b)
        q, r = np.eye(2) * dt, np.eye(1) * dt
        p = qf.copy()
        gains = []
        for _ in range(steps):
            s = r + b_d.T @ p @ b_d
            k = np.linalg.solve(s, b_d.T @ p @ a_d)
            p = q + a_d.T @ p @ a_d - a_d.T @ p @ b_d @ k
            gains.append(k)
        gains.reverse()
        x = x0.copy()
        xs, us = [x.copy()], []
        for k in range(steps):
            u = -gains[k] @ x
            us.append(u)
            x = a_d @ x + b_d @ u
            xs.append(x.copy())
        np.testing.assert_allclose(plan.states, np.array(xs), atol=1e-6)
        np.testing.assert_allclose(plan.inputs[:-1], np.array(us), atol=1e-6)

    def test_reaches_target_on_builtin_plant(self, ex2, ex2_plan,
                                             is_consistent):
        assert np.linalg.norm(ex2_plan.states[-1]) < 1e-3
        assert is_consistent(ex2_plan, ex2.model)
        assert np.abs(ex2_plan.inputs).max() < 10.0


def _cfg(**kw):
    base = dict(dt=1e-3, t_final=0.5)
    base.update(kw)
    return SimConfig(**base)


class TestLoops:
    def test_without_uncertainty_augmentation_is_silent(self, ex1):
        # h = 0 and sigma_hat starts at zero: predictor tracks exactly, the
        # estimate never moves, and the augmented loop equals the plain one
        model = dataclasses.replace(ex1.model, uncertainty=None)
        traj_star = DesiredTrajectory.constant(np.zeros(3), np.zeros(1),
                                               t_final=0.5, dt=1e-3)
        x0 = np.array([0.02, -0.01, 0.015])
        cfg = _cfg()
        l1 = L1Config(state_dim=3, input_dim=1, bandwidth=50.0,
                      adaptation_gain=1e6, unc_bound=0.1)
        closed, nominal = lockstep(model, ex1.metric, traj_star, x0, cfg,
                                   [integrate_closed_loop(l1),
                                    integrate_nominal_ccm()])
        np.testing.assert_array_equal(closed.states, nominal.states)
        np.testing.assert_array_equal(closed.sigma_hat,
                                      np.zeros_like(closed.sigma_hat))
        assert float(np.max(closed.xtilde_norm)) == 0.0

    def test_reference_loop_with_no_uncertainty_matches_nominal(self, ex1):
        model = dataclasses.replace(ex1.model, uncertainty=None)
        traj_star = DesiredTrajectory.constant(np.zeros(3), np.zeros(1),
                                               t_final=0.3, dt=1e-3)
        x0 = np.array([0.02, -0.01, 0.015])
        ref = _run(model, ex1.metric, integrate_reference(50.0), traj_star,
                   x0, _cfg(t_final=0.3))
        nom = _run(model, ex1.metric, integrate_nominal_ccm(), traj_star, x0,
                   _cfg(t_final=0.3))
        np.testing.assert_allclose(ref.states, nom.states, atol=1e-12)

    def test_nominal_energy_decay_bound(self, ex1):
        traj_star = DesiredTrajectory.constant(np.zeros(3), np.zeros(1),
                                               t_final=1.0, dt=1e-3)
        x0 = np.array([0.03, -0.02, 0.04])
        traj = _run(ex1.model, ex1.metric, integrate_nominal_ccm(), traj_star,
                    x0, _cfg(t_final=1.0))
        lam = ex1.metric.contraction_rate
        bound = traj.energy[0] * np.exp(-2.0 * lam * traj.times)
        assert np.all(traj.energy <= bound * 1.05 + 1e-15)

    def test_adaptive_loop_attenuates_the_disturbance(self, ex1):
        traj_star = DesiredTrajectory.constant(np.zeros(3), np.zeros(1),
                                               t_final=1.0, dt=1e-4)
        cfg = _cfg(dt=1e-4, t_final=1.0)
        x0 = np.zeros(3)
        l1 = L1Config(state_dim=3, input_dim=1, bandwidth=50.0,
                      adaptation_gain=1e6, unc_bound=0.1)
        with_l1, without = lockstep(ex1.model, ex1.metric, traj_star, x0,
                                    cfg, [integrate_closed_loop(l1),
                                          integrate_closed_loop(None)])
        # compare late-window tracking error (after the estimator settles)
        late = with_l1.times >= 0.5
        assert with_l1.dist[late].max() < 0.5 * without.dist[late].max()
        # the ablation records no adaptive activity
        np.testing.assert_array_equal(without.u_adaptive,
                                      np.zeros_like(without.u_adaptive))

    def test_divergence_carries_partial_history(self, ex1):
        traj_star = DesiredTrajectory.constant(np.zeros(3), np.zeros(1),
                                               t_final=0.5, dt=1e-3)
        cfg = _cfg(divergence_limit=0.01)
        partial = _run(ex1.model, ex1.metric, integrate_nominal_ccm(),
                       traj_star, np.array([0.03, 0.0, 0.0]), cfg)
        assert isinstance(partial.stopped, DivergenceError)
        assert 0 < len(partial.times) < cfg.n_steps + 1
        assert np.all(np.isfinite(partial.states))


class TestTrajectoryContainer:
    def test_mismatched_grids_rejected(self):
        k = 5
        kw = dict(times=np.zeros(k), states=np.zeros((k, 2)),
                  states_star=np.zeros((k, 2)), u_feedback=np.zeros((k, 1)),
                  u_adaptive=np.zeros((k, 1)), sigma_hat=np.zeros((k, 1)),
                  xtilde_norm=np.zeros(k), energy=np.zeros(k))
        Trajectory(**kw)  # fine
        kw["states"] = np.zeros((k + 1, 2))
        with pytest.raises(ValueError):
            Trajectory(**kw)

    def test_dist_is_euclidean(self):
        k = 3
        traj = Trajectory(times=np.arange(k, dtype=float),
                          states=np.array([[1.0, 0.0]] * k),
                          states_star=np.zeros((k, 2)),
                          u_feedback=np.zeros((k, 1)),
                          u_adaptive=np.zeros((k, 1)),
                          sigma_hat=np.zeros((k, 1)),
                          xtilde_norm=np.zeros(k), energy=np.zeros(k))
        np.testing.assert_array_equal(traj.dist, np.ones(k))
        assert traj.dist is traj.dist       # computed once, on first read


def _toy_cert(rho=0.5, rho_a=0.1, zeta1=0.01, e0=0.04):
    return TubeCertificate(
        eps=0.2, rho_a=rho_a, rho_r=rho - rho_a, rho=rho, omega=50.0,
        gamma=1e6, energy0=e0, zeta1=zeta1, zeta2=0.0, zeta3=0.0,
        drive_bound=1.0, margin_energy=0.1, margin_bandwidth=0.1,
        margin_adaptation=0.1, alpha_lo=0.2, rate=1.0)


def _toy_traj(dists, star=(0.0, 0.0)):
    k = len(dists)
    stars = np.tile(np.asarray(star, dtype=float), (k, 1))
    states = stars.copy()
    states[:, 0] += dists
    return Trajectory(times=np.linspace(0.0, 1.0, k), states=states,
                      states_star=stars,
                      u_feedback=np.zeros((k, 1)),
                      u_adaptive=np.zeros((k, 1)),
                      sigma_hat=np.zeros((k, 1)),
                      xtilde_norm=np.zeros(k), energy=np.zeros(k))


class TestContainment:
    def test_clean_run_is_contained(self):
        rep = containment(_toy_traj([0.3, 0.2, 0.1]), _toy_cert(),
                          kind="actual")
        assert rep["contained"]
        assert rep["n_radius_violations"] == 0
        assert rep["first_violation_time"] is None

    def test_shrunken_radius_flags_violations(self):
        # same distances against a post-hoc tightened tube must fail
        rep = containment(_toy_traj([0.3, 0.2, 0.1]), _toy_cert(rho=0.25),
                          kind="actual")
        assert not rep["contained"]
        assert rep["n_radius_violations"] == 1
        assert rep["first_violation_time"] == 0.0

    def test_shrinking_bound_checked_pointwise(self):
        # the time-varying bound decays toward rho_a + sqrt(zeta1); a flat
        # error profile under the fixed radius eventually crosses it
        cert = _toy_cert(rho=0.5, zeta1=0.0001, e0=0.002)
        dists = [0.15] * 11
        rep = containment(_toy_traj(dists), cert, kind="actual")
        assert rep["n_radius_violations"] == 0
        assert rep["contained"]  # only the fixed radius drives the verdict
        assert rep["n_shrinking_violations"] > 0
        assert rep["first_violation_time"] is not None

    def test_reference_kind_uses_reference_radii(self):
        cert = _toy_cert(rho=0.5, rho_a=0.1)
        rep = containment(_toy_traj([0.45, 0.41]), cert, kind="reference")
        assert rep["radius"] == pytest.approx(cert.rho_r)
        assert not rep["contained"]  # 0.45 > rho_r = 0.4

    def test_safe_set_erosion(self):
        # desired path sits off-center; eroding by the tube radius must
        # leave room for it, otherwise the tube pokes out of the safe set
        cert = _toy_cert(rho=0.5)
        traj = _toy_traj([0.1, 0.1], star=(0.1, 0.0))
        wide = SafeSet.box(np.zeros(2), 2.0)
        snug = SafeSet.box(np.zeros(2), 0.55)   # eroded half-width 0.05 < 0.1
        assert containment(traj, cert, "actual",
                           safe_set=wide)["tube_inside_safe_set"]
        assert not containment(traj, cert, "actual",
                               safe_set=snug)["tube_inside_safe_set"]
        # a set narrower than the radius cannot hold the tube at all
        narrow = SafeSet.box(np.zeros(2), 0.3)
        assert not containment(traj, cert, "actual",
                               safe_set=narrow)["tube_inside_safe_set"]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            containment(_toy_traj([0.1]), _toy_cert(), kind="bogus")


# --- batched planner path ------------------------------------------------------


def _reference_rk4_with_sensitivities(model, x, u, dt):
    """The per-point linearization the batched one replaced, kept as the
    reference it must reproduce."""
    n = model.state_dim
    eye = np.eye(n)

    def f(xx):
        return model.drift(xx) + model.input_matrix(xx) @ u

    def fx(xx):
        jac = model.jac_drift(xx).copy()
        d_b = model.d_input(xx)
        for i in range(n):
            jac[:, i] += d_b[i] @ u
        return jac

    k1 = f(x)
    a1 = fx(x)
    b1 = model.input_matrix(x)
    x2 = x + 0.5 * dt * k1
    k2 = f(x2)
    a2_loc = fx(x2)
    a2 = a2_loc @ (eye + 0.5 * dt * a1)
    b2 = model.input_matrix(x2) + 0.5 * dt * a2_loc @ b1
    x3 = x + 0.5 * dt * k2
    k3 = f(x3)
    a3_loc = fx(x3)
    a3 = a3_loc @ (eye + 0.5 * dt * a2)
    b3 = model.input_matrix(x3) + 0.5 * dt * a3_loc @ b2
    x4 = x + dt * k3
    k4 = f(x4)
    a4_loc = fx(x4)
    a4 = a4_loc @ (eye + dt * a3)
    b4 = model.input_matrix(x4) + dt * a4_loc @ b3

    x_next = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    a_disc = eye + (dt / 6.0) * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
    b_disc = (dt / 6.0) * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
    return x_next, a_disc, b_disc


def _serial_sensitivities(model, xs, us, dt):
    rows = [_reference_rk4_with_sensitivities(model, x, u, dt)
            for x, u in zip(xs, us)]
    return tuple(np.array(part) for part in zip(*rows))


def _inline_two_input_model():
    """Inline polynomial plant with a state-dependent 2x2 input matrix."""
    return _inline_two_input_system().model


def _inline_two_input_system():
    """The inline two-input plant with its (identity) metric."""
    def term(powers, coeff):
        return {"powers": powers, "coeff": coeff}

    doc = {
        "version": SCHEMA_VERSION, "name": "two-input",
        "model": {
            "state_dim": 2, "input_dim": 2,
            "drift": [[term([0, 1], 1.0), term([2, 1], 0.3)],
                      [term([1, 0], -1.0), term([0, 1], -1.0),
                       term([0, 3], -0.1)]],
            "input_matrix": {"entries": [
                [[term([0, 0], 1.0), term([0, 1], 0.2)], [term([1, 0], 0.5)]],
                [[term([1, 1], 0.1)], [term([0, 0], 1.0)]]]},
        },
        "metric": {"dual": [[[term([0, 0], 1.0)], []],
                            [[], [term([0, 0], 1.0)]]],
                   "rate": 0.1, "eig_floor": 0.9, "eig_ceil": 1.1},
        "sim": {"dt": 0.01, "t_final": 1.0},
    }
    return Scenario.from_dict(doc).system()


def _black_box(model):
    """The same plant given only by its drift and input matrix callables."""
    return DynamicsModel(model.state_dim, model.input_dim, model.drift,
                         model.input_matrix)


def _stacks(model, k, scale, seed):
    rng = np.random.default_rng(seed)
    return (rng.uniform(-scale, scale, (k, model.state_dim)),
            rng.uniform(-3.0, 3.0, (k, model.input_dim)))


class TestBatchedLinearization:
    @pytest.mark.parametrize("name,scale", [("ex1", 0.1), ("ex2", 5.0)])
    def test_builtins_equal_the_serial_steps(self, name, scale, request):
        model = request.getfixturevalue(name).model
        xs, us = _stacks(model, 400, scale, 11)
        got = _rk4_with_sensitivities(model, xs, us, 0.01)
        want = _serial_sensitivities(model, xs, us, 0.01)
        for a, b in zip(got, want):
            assert a.shape == b.shape
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("plant", ["ex2", "two-input"])
    def test_row_loop_fallback_equals_the_serial_steps(self, plant, ex2):
        model = _black_box(ex2.model if plant == "ex2"
                           else _inline_two_input_model())
        assert model.vectorized is None
        xs, us = _stacks(model, 60, 2.0, 12)
        got = _rk4_with_sensitivities(model, xs, us, 0.01)
        want = _serial_sensitivities(model, xs, us, 0.01)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    def test_inline_two_input_model_agrees(self):
        # the stacked polynomials are not bit-equal to the callables
        model = _inline_two_input_model()
        assert model.vectorized is not None
        xs, us = _stacks(model, 200, 2.0, 13)
        got = _rk4_with_sensitivities(model, xs, us, 0.01)
        want = _serial_sensitivities(model, xs, us, 0.01)
        for a, b in zip(got, want):
            np.testing.assert_allclose(a, b, rtol=1e-14, atol=1e-14)

    def test_plan_equals_a_serially_linearized_plan(self, ex2, ex2_plan,
                                                    monkeypatch):
        monkeypatch.setattr(sim_module, "_rk4_with_sensitivities",
                            _serial_sensitivities)
        serial = ilqr_plan(ex2.model, np.array([3.4, -2.4]), np.zeros(2),
                           t_final=8.0, dt=0.01)
        assert np.array_equal(serial.states, ex2_plan.states)
        assert np.array_equal(serial.inputs, ex2_plan.inputs)

    def test_inline_plan_agrees_with_a_serially_linearized_plan(
            self, monkeypatch):
        model = _inline_two_input_model()
        kw = dict(t_final=2.0, dt=0.02)
        batched = ilqr_plan(model, np.array([1.0, -0.5]), np.zeros(2), **kw)
        monkeypatch.setattr(sim_module, "_rk4_with_sensitivities",
                            _serial_sensitivities)
        serial = ilqr_plan(model, np.array([1.0, -0.5]), np.zeros(2), **kw)
        np.testing.assert_allclose(batched.states, serial.states,
                                   rtol=0.0, atol=1e-10)
        np.testing.assert_allclose(batched.inputs, serial.inputs,
                                   rtol=0.0, atol=1e-10)

    def test_each_iteration_linearizes_in_four_batched_calls(self, ex2):
        # guards the planner against going back to per-step linearization
        calls = {"eval_batch": [], "jac_drift": 0, "d_input": 0}
        base = ex2.model

        def vectorized(xs):
            calls["eval_batch"].append(xs.shape[0])
            return base.vectorized(xs)

        def counted(name):
            def fn(x):
                calls[name] += 1
                return getattr(base, name)(x)
            return fn

        model = dataclasses.replace(base, vectorized=vectorized,
                                    jac_drift=counted("jac_drift"),
                                    d_input=counted("d_input"))
        for iters in (1, 2):
            calls["eval_batch"].clear()
            try:
                ilqr_plan(model, np.array([3.4, -2.4]), np.zeros(2),
                          t_final=8.0, dt=0.01, terminal_weight=np.eye(2),
                          max_iter=iters)
            except PlannerFailure:
                pass              # not converged after so few iterations
            assert calls["eval_batch"] == [800] * (4 * iters)
        assert calls["jac_drift"] == 0 and calls["d_input"] == 0


# --- the lockstep loop against serial loops ---------------------------------
# The reference loops below are the per-system loop bodies the step loop in
# ``ccml1.sim`` replaced, up to names, run one system at a time on batches of
# one row: the closed loop with its ``l1=None`` branch, the reference loop
# and the nominal loop.  A run that diverges returns the steps before it,
# with the reason, as the lockstep loop does.


def _reference_alive(x, limit):
    return bool(np.all(np.isfinite(x)) and np.linalg.norm(x) <= limit)


def _stopped(rec, step, warnings, reason):
    return Trajectory(**{k: v[:step + 1] for k, v in rec.items()},
                      warnings=warnings, stopped=reason)


def _alloc(n_steps, n, m):
    k = n_steps + 1
    return dict(times=np.zeros(k), states=np.zeros((k, n)),
                states_star=np.zeros((k, n)), u_feedback=np.zeros((k, m)),
                u_adaptive=np.zeros((k, m)), sigma_hat=np.zeros((k, m)),
                xtilde_norm=np.zeros(k), energy=np.zeros(k))


def _reference_feedback(model, field, curve, us):
    x_des, x = curve.states[0, 0], curve.states[0, -1]
    return feedback_gain(field, curve, model.nominal_rate(x_des, us)[None],
                         model.nominal_rate(x, us)[None],
                         model.input_matrix(x)[None])


def _reference_closed_loop(model, field, l1, traj_star, x0, cfg):
    x = np.asarray(x0, dtype=float).copy()
    n, m = model.state_dim, model.input_dim
    solver = GeodesicSolver(field, n_intervals=cfg.geodesic_intervals,
                            tol=cfg.geodesic_tol,
                            enforce_domain=cfg.enforce_domain)
    l1_rows = None if l1 is None else L1Rows.stack([l1])
    l1_state = L1State.start(x[None], m)
    rec = _alloc(cfg.n_steps, n, m)
    warnings = []
    warm = None
    h = model.uncertainty

    for step in range(cfg.n_steps + 1):
        t = step * cfg.dt
        xs = desired_state(traj_star, t)
        us = desired_input(traj_star, t)
        curve = solver.solve(xs[None], x[None], warm=warm)
        warm = curve.states
        if not curve.converged:
            warnings.append(f"step {step}: geodesic not converged "
                            f"(grad {curve.grad_norm[0]:.2e})")
        fb = _reference_feedback(model, field, curve, us)
        if fb.infeasible:
            warnings.append(f"step {step}: feedback constraint degenerated")
        u_c = us + fb.gain[0]
        u_a = l1_state.u_adaptive[0].copy()

        rec["times"][step] = t
        rec["states"][step] = x
        rec["states_star"][step] = xs
        rec["u_feedback"][step] = u_c
        rec["u_adaptive"][step] = u_a
        rec["sigma_hat"][step] = l1_state.sigma_hat[0]
        rec["xtilde_norm"][step] = np.linalg.norm(
            l1_state.prediction_error(x[None])[0])
        rec["energy"][step] = curve.energy[0]
        if step == cfg.n_steps:
            break

        if l1 is None:
            def rate(tt, xx):
                u_plant = u_c + (h(tt, xx) if h is not None else 0.0)
                return model.drift(xx) + model.input_matrix(xx) @ u_plant

            x = rk4_step(rate, t, x, cfg.dt)
            l1_state.x_hat = x[None].copy()
            if not _reference_alive(x, cfg.divergence_limit):
                return _stopped(rec, step, warnings, DivergenceError(
                    f"state diverged at step {step}"))
            continue

        u_held = u_c + u_a
        sigma_held = l1_state.sigma_hat[0].copy()
        pred_mat = l1.pred_matrix

        def joint_rate(tt, z):
            xx, xh = z[:n], z[n:]
            drift = model.drift(xx)
            b_mat = model.input_matrix(xx)
            u_plant = u_held + (h(tt, xx) if h is not None else 0.0)
            dx = drift + b_mat @ u_plant
            dxh = drift + b_mat @ (u_held + sigma_held) + pred_mat @ (xh - xx)
            return np.concatenate([dx, dxh])

        z = rk4_step(joint_rate, t, np.concatenate([x, l1_state.x_hat[0]]),
                     cfg.dt)
        x, l1_state.x_hat = z[:n].copy(), z[None, n:].copy()
        if not _reference_alive(x, cfg.divergence_limit):
            return _stopped(rec, step, warnings, DivergenceError(
                f"state diverged at step {step}"))

        adaptation_step(l1_rows, l1_state, x[None],
                        model.input_matrix(x)[None], cfg.dt)
        filter_step(l1_rows, l1_state, cfg.dt)

    return Trajectory(**rec, warnings=warnings)


def _reference_reference_loop(model, field, bandwidth, traj_star, x0, cfg):
    x = np.asarray(x0, dtype=float).copy()
    n, m = model.state_dim, model.input_dim
    solver = GeodesicSolver(field, n_intervals=cfg.geodesic_intervals,
                            tol=cfg.geodesic_tol,
                            enforce_domain=cfg.enforce_domain)
    rec = _alloc(cfg.n_steps, n, m)
    warnings = []
    warm = None
    h = model.uncertainty
    eta = np.zeros(m)
    decay = math.exp(-bandwidth * cfg.dt)

    for step in range(cfg.n_steps + 1):
        t = step * cfg.dt
        xs = desired_state(traj_star, t)
        us = desired_input(traj_star, t)
        curve = solver.solve(xs[None], x[None], warm=warm)
        warm = curve.states
        if not curve.converged:
            warnings.append(f"step {step}: geodesic not converged "
                            f"(grad {curve.grad_norm[0]:.2e})")
        fb = _reference_feedback(model, field, curve, us)
        if fb.infeasible:
            warnings.append(f"step {step}: feedback constraint degenerated")
        u_c = us + fb.gain[0]

        rec["times"][step] = t
        rec["states"][step] = x
        rec["states_star"][step] = xs
        rec["u_feedback"][step] = u_c
        rec["u_adaptive"][step] = -eta
        rec["energy"][step] = curve.energy[0]
        if step == cfg.n_steps:
            break

        u_held = u_c - eta

        def rate(tt, xx):
            u_plant = u_held + (h(tt, xx) if h is not None else 0.0)
            return model.drift(xx) + model.input_matrix(xx) @ u_plant

        x = rk4_step(rate, t, x, cfg.dt)
        if not _reference_alive(x, cfg.divergence_limit):
            return _stopped(rec, step, warnings, DivergenceError(
                f"state diverged at step {step}"))
        eta = decay * eta + (1.0 - decay) * (
            h(t + cfg.dt, x) if h is not None else 0.0)

    return Trajectory(**rec, warnings=warnings)


def _reference_nominal(model, field, traj_star, x0, cfg):
    x = np.asarray(x0, dtype=float).copy()
    n, m = model.state_dim, model.input_dim
    solver = GeodesicSolver(field, n_intervals=cfg.geodesic_intervals,
                            tol=cfg.geodesic_tol,
                            enforce_domain=cfg.enforce_domain)
    rec = _alloc(cfg.n_steps, n, m)
    warnings = []
    warm = None

    for step in range(cfg.n_steps + 1):
        t = step * cfg.dt
        xs = desired_state(traj_star, t)
        us = desired_input(traj_star, t)
        curve = solver.solve(xs[None], x[None], warm=warm)
        warm = curve.states
        if not curve.converged:
            warnings.append(f"step {step}: geodesic not converged "
                            f"(grad {curve.grad_norm[0]:.2e})")
        fb = _reference_feedback(model, field, curve, us)
        if fb.infeasible:
            warnings.append(f"step {step}: feedback constraint degenerated")
        u_c = us + fb.gain[0]

        rec["times"][step] = t
        rec["states"][step] = x
        rec["states_star"][step] = xs
        rec["u_feedback"][step] = u_c
        rec["energy"][step] = curve.energy[0]
        if step == cfg.n_steps:
            break

        def rate(tt, xx):
            return model.drift(xx) + model.input_matrix(xx) @ u_c

        x = rk4_step(rate, t, x, cfg.dt)
        if not _reference_alive(x, cfg.divergence_limit):
            return _stopped(rec, step, warnings, DivergenceError(
                f"state diverged at step {step}"))

    return Trajectory(**rec, warnings=warnings)


_TRAJECTORY_ARRAYS = ("times", "states", "states_star", "u_feedback",
                      "u_adaptive", "sigma_hat", "xtilde_norm", "energy")


def _assert_same_run(got, want):
    """Every recorded array equal, bit for bit and sign of zero included,
    the same warnings, and the same reason to stop (if any)."""
    for name in _TRAJECTORY_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape, name
        np.testing.assert_array_equal(a, b, err_msg=name)
        np.testing.assert_array_equal(np.signbit(a), np.signbit(b),
                                      err_msg=name)
    assert got.warnings == want.warnings
    assert str(got.stopped) == str(want.stopped)
    assert type(got.stopped) is type(want.stopped)


def _variant(sysb, name, l1):
    """(batch row, serial reference) of one loop variant; ``l1`` is the
    tuning of an L1 row, or gives a reference row its bandwidth."""
    model, field = sysb.model, sysb.metric
    if name in ("l1", "no_l1"):
        tuning = l1 if name == "l1" else None
        return (integrate_closed_loop(tuning),
                lambda ts, x0, cfg: _reference_closed_loop(
                    model, field, tuning, ts, x0, cfg))
    if name == "reference":
        return (integrate_reference(l1.bandwidth),
                lambda ts, x0, cfg: _reference_reference_loop(
                    model, field, l1.bandwidth, ts, x0, cfg))
    return (integrate_nominal_ccm(),
            lambda ts, x0, cfg: _reference_nominal(model, field, ts, x0,
                                                   cfg))


_VARIANTS = ("l1", "no_l1", "reference", "nominal")


def _ex1_l1(gamma=5e6, omega=50.0):
    return L1Config(state_dim=3, input_dim=1, bandwidth=omega,
                    adaptation_gain=gamma, unc_bound=0.12)


def _ex2_l1(gamma=4e7, omega=90.0):
    return L1Config(state_dim=2, input_dim=1, bandwidth=omega,
                    adaptation_gain=gamma, unc_bound=3.0)


def _assert_batch_equals_serial(sysb, rows, traj_star, x0s, cfg):
    """``rows`` lists (variant, L1 tuning) per row; each batch row must
    equal its variant's serial loop from its own initial state."""
    pairs = [_variant(sysb, name, l1) for name, l1 in rows]
    batch = lockstep(sysb.model, sysb.metric, traj_star, x0s, cfg,
                     [loop for loop, _ in pairs])
    assert len(batch) == len(rows)
    for got, (_, serial), x0 in zip(batch, pairs, x0s):
        _assert_same_run(got, serial(traj_star, x0, cfg))
    return batch


class TestOneStepLoop:
    @pytest.mark.parametrize("variant", _VARIANTS)
    def test_ex1_equals_the_old_loop(self, ex1, variant):
        traj_star = DesiredTrajectory.constant(np.zeros(3), np.zeros(1),
                                               t_final=0.15, dt=1e-3)
        cfg = _cfg(t_final=0.15, enforce_domain=False)
        _assert_batch_equals_serial(ex1, [(variant, _ex1_l1())], traj_star,
                                    np.array([[0.01, -0.01, 0.01]]), cfg)

    @pytest.mark.parametrize("variant", _VARIANTS)
    def test_ex2_equals_the_old_loop(self, ex2, ex2_plan_fine, variant):
        cfg = _cfg(t_final=0.2)
        x0 = ex2_plan_fine.states[0] + np.array([0.3, -0.2])
        _assert_batch_equals_serial(ex2, [(variant, _ex2_l1())],
                                    ex2_plan_fine, x0[None], cfg)

    @pytest.mark.parametrize("variant", _VARIANTS)
    def test_partial_history_equals_the_old_loop(self, ex1, variant):
        # steering from the origin to a far target crosses the limit after
        # a hundred-odd steps
        traj_star = DesiredTrajectory.constant(np.full(3, 0.04), np.zeros(1),
                                               t_final=0.5, dt=1e-3)
        cfg = _cfg(divergence_limit=0.01, enforce_domain=False)
        (got,) = _assert_batch_equals_serial(
            ex1, [(variant, _ex1_l1())], traj_star, np.zeros((1, 3)), cfg)
        assert isinstance(got.stopped, DivergenceError)
        assert 100 < len(got.times) < cfg.n_steps + 1

    def test_all_three_loops_record_degenerate_feedback(self):
        # the zero-input-matrix plant of the feedback tests: the constraint
        # normal vanishes at every step off the desired state
        poly = PolyMatrix(dim_in=1, shape=(1, 1),
                          terms=[((0,), np.array([[1.0]]))])
        field = MetricField.from_dual_polynomial(
            poly, contraction_rate=1.0, eig_floor=0.9, eig_ceil=1.1,
            domain=SafeSet.box(np.zeros(1), 10.0), validate=False)
        model = DynamicsModel(1, 1, drift=lambda x: x.copy(),
                              input_matrix=lambda x: np.zeros((1, 1)))
        traj_star = DesiredTrajectory.constant(np.zeros(1), np.zeros(1),
                                               t_final=0.01, dt=1e-3)
        cfg = _cfg(t_final=0.01)
        l1 = L1Config(state_dim=1, input_dim=1, bandwidth=10.0,
                      adaptation_gain=10.0, unc_bound=1.0)
        runs = lockstep(model, field, traj_star, np.array([1.0]), cfg,
                        [integrate_closed_loop(l1), integrate_closed_loop(None),
                         integrate_reference(10.0), integrate_nominal_ccm()])
        expected = [f"step {k}: feedback constraint degenerated"
                    for k in range(cfg.n_steps + 1)]
        for run in runs:
            assert run.warnings == expected


def _mixed_rows(make_l1, k):
    """k rows cycling through the four variants, each L1 row with its own
    adaptation gain and filter bandwidth."""
    gammas = (1e4, 1e5, 1e6, 1e7, 3e6)
    return [(_VARIANTS[i % 4], make_l1(gammas[i % 5], 30.0 + 10.0 * (i % 3)))
            for i in range(k)]


class TestLockstep:
    """A batch of rows records, row by row, what serial runs record."""

    @pytest.mark.parametrize("k", [1, 4, 16])
    def test_ex1_rows_equal_serial_runs(self, ex1, k):
        traj_star = DesiredTrajectory.constant(np.zeros(3), np.zeros(1),
                                               t_final=0.05, dt=1e-3)
        cfg = _cfg(t_final=0.05, enforce_domain=False)
        rng = np.random.default_rng(k)
        x0s = rng.uniform(-0.03, 0.03, size=(k, 3))
        _assert_batch_equals_serial(ex1, _mixed_rows(_ex1_l1, k), traj_star,
                                    x0s, cfg)

    def test_ex2_rows_equal_serial_runs(self, ex2, ex2_plan_fine):
        cfg = _cfg(t_final=0.1)
        x0s = ex2_plan_fine.states[0] + np.array(
            [[0.3, -0.2], [-0.1, 0.4], [0.0, 0.0], [0.5, 0.5], [0.2, 0.1]])
        _assert_batch_equals_serial(ex2, _mixed_rows(_ex2_l1, 5),
                                    ex2_plan_fine, x0s, cfg)

    @pytest.mark.parametrize("k", [1, 3, 4])
    def test_inline_rows_equal_serial_runs(self, k):
        # the inline polynomial plant: a row's model terms must not depend
        # on the rows beside it (a stacked polynomial evaluation rounds
        # differently from the per-state one)
        sysb = _inline_two_input_system()
        sysb = sysb._replace(model=dataclasses.replace(
            sysb.model, uncertainty=lambda t, x: np.array(
                [0.2 * math.sin(2.0 * t) + 0.1 * x[0], -0.1 * x[0] * x[1]])))
        traj_star = DesiredTrajectory.constant(np.zeros(2), np.zeros(2),
                                               t_final=0.3, dt=1e-2)
        cfg = _cfg(dt=1e-2, t_final=0.3)
        x0s = np.random.default_rng(k).uniform(-0.5, 0.5, size=(k, 2))

        def l1(gamma, omega):
            return L1Config(state_dim=2, input_dim=2, bandwidth=omega,
                            adaptation_gain=gamma, unc_bound=0.5)

        _assert_batch_equals_serial(sysb, _mixed_rows(l1, k), traj_star,
                                    x0s, cfg)

    def test_a_loop_is_one_kind(self):
        with pytest.raises(ValueError, match="not both"):
            Loop(l1=_ex1_l1(), bandwidth=50.0)
        with pytest.raises(ValueError, match="under the uncertainty"):
            Loop(bandwidth=50.0, uncertain=False)
        assert [lp.kind for lp in (
            integrate_closed_loop(_ex1_l1()), integrate_reference(50.0),
            integrate_closed_loop(None), integrate_nominal_ccm())] == [
                0, 1, 2, 3]

    def test_a_diverging_row_stops_alone(self, ex1):
        # from rest at the target, the disturbance pushes the uncertain
        # loops past the tiny limit within a few steps, at different steps;
        # the nominal loop feels no disturbance and stays at rest
        traj_star = DesiredTrajectory.constant(np.zeros(3), np.zeros(1),
                                               t_final=0.1, dt=1e-3)
        cfg = _cfg(t_final=0.1, divergence_limit=1e-5, enforce_domain=False)
        rows = [("no_l1", None), ("nominal", None), ("l1", _ex1_l1(1e7)),
                ("reference", _ex1_l1())]
        runs = _assert_batch_equals_serial(ex1, rows, traj_star,
                                           np.zeros((4, 3)), cfg)
        stopped = [run.stopped is not None for run in runs]
        assert stopped == [True, False, True, True]
        lengths = [len(run.times) for run in runs]
        assert lengths[1] == cfg.n_steps + 1
        assert all(1 < size < cfg.n_steps for size, stop
                   in zip(lengths, stopped) if stop)

    def test_rows_with_different_newton_work(self, ex1, monkeypatch):
        # cold starts far apart in the (unenforced) domain: the first solves
        # need different numbers of Newton iterations, and line searches
        # that halve their step evaluate fewer rows than the batch
        iterations, evaluated, steps = [], [], []
        solve, evaluate = GeodesicSolver.solve, GeodesicSolver._eval
        newton = GeodesicSolver._newton_step

        def counted_solve(self, p, q, warm=None):
            curve = solve(self, p, q, warm=warm)
            iterations.append(curve.newton_iters.tolist())
            return curve

        def counted_newton(self, m, grad):
            steps.append(len(m))
            return newton(self, m, grad)

        def counted_eval(self, states, check_pd=False):
            evaluated.append(len(states))
            return evaluate(self, states, check_pd=check_pd)

        monkeypatch.setattr(GeodesicSolver, "solve", counted_solve)
        monkeypatch.setattr(GeodesicSolver, "_eval", counted_eval)
        monkeypatch.setattr(GeodesicSolver, "_newton_step", counted_newton)
        traj_star = DesiredTrajectory.constant(np.zeros(3), np.zeros(1),
                                               t_final=0.01, dt=1e-3)
        cfg = _cfg(t_final=0.01, enforce_domain=False)
        rng = np.random.default_rng(5)
        x0s = rng.uniform(-0.3, 0.3, size=(6, 3))
        rows = _mixed_rows(_ex1_l1, 6)
        lockstep(ex1.model, ex1.metric, traj_star, x0s, cfg,
                 [_variant(ex1, name, l1)[0] for name, l1 in rows])
        monkeypatch.undo()
        assert len(set(iterations[0])) > 2
        assert evaluated[0] == 6 and min(evaluated) < 6
        # one evaluation per solve, then one per line-search trial: more
        # trials than Newton steps means some line search halved
        assert len(evaluated) - len(iterations) > len(steps)
        _assert_batch_equals_serial(ex1, rows, traj_star, x0s, cfg)

    def test_a_row_leaving_the_domain_stops_alone(self, ex1):
        # row 1 starts outside the metric's validated box: its first
        # geodesic fails, it records nothing, and the others run on
        traj_star = DesiredTrajectory.constant(np.zeros(3), np.zeros(1),
                                               t_final=0.02, dt=1e-3)
        cfg = _cfg(t_final=0.02)
        x0s = np.array([[0.01, 0.0, 0.0], [0.06, 0.0, 0.0],
                        [0.0, 0.01, -0.01]])
        runs = lockstep(ex1.model, ex1.metric, traj_star, x0s, cfg,
                        [integrate_closed_loop(_ex1_l1()),
                         integrate_closed_loop(_ex1_l1()),
                         integrate_nominal_ccm()])
        assert isinstance(runs[1].stopped, GeodesicDomainError)
        assert "0.06" in str(runs[1].stopped)
        assert len(runs[1].times) == 0
        for i in (0, 2):
            assert runs[i].stopped is None
            assert len(runs[i].times) == cfg.n_steps + 1
        alone = _run(ex1.model, ex1.metric, integrate_nominal_ccm(),
                     traj_star, x0s[2], cfg)
        _assert_same_run(runs[2], alone)

    def test_ex2_nominal_loop_flags_no_rounding_level_degeneracy(
            self, ex2, ex2_plan_fine):
        # at vanishing tracking error the constraint normal and the
        # geodesic speed shrink together; the unforced decay then falls
        # short by rounding alone, which is no degenerate normal
        cfg = SimConfig(dt=1e-3, t_final=8.0)
        run = _run(ex2.model, ex2.metric, integrate_nominal_ccm(),
                   ex2_plan_fine, ex2_plan_fine.states[0], cfg)
        assert run.stopped is None
        assert run.warnings == []


class TestDivergenceCheck:
    def _alive(self, x, limit=5.0):
        return sim_module._alive(np.asarray(x, dtype=float)[None], limit)[0]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_state_diverges(self, bad):
        assert not self._alive([0.0, bad])

    def test_state_exactly_at_the_limit_is_alive(self):
        assert self._alive([3.0, 4.0])                  # |x| = 5 exactly
        assert self._alive([-3.0, -4.0])
        assert not self._alive([3.0, np.nextafter(4.0, 5.0)])

    def test_overflowing_norm_diverges(self):
        with np.errstate(over="ignore"):
            assert not self._alive([1e200, 1e200], limit=1e300)

    @pytest.mark.parametrize("seed", range(5))
    def test_accepts_what_the_norm_test_accepts(self, seed):
        rng = np.random.default_rng(seed)
        limit = 1.0
        xs = rng.normal(scale=0.6, size=(200, 3))
        assert sim_module._alive(xs, limit) == [
            _reference_alive(x, limit) for x in xs]
