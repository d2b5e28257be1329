"""Integrators, the planner, the three loops, and containment accounting."""

import dataclasses
import math

import numpy as np
import pytest

from ccml1 import sim as sim_module
from ccml1.certification import TubeCertificate
from ccml1.errors import DivergenceError, PlannerFailure
from ccml1.metric import MetricField, PolyMatrix
from ccml1.models import DesiredTrajectory, DynamicsModel, SafeSet
from ccml1.scenario import SCHEMA_VERSION, Scenario
from ccml1.sim import (SimConfig, Trajectory, _rk4_with_sensitivities,
                       containment, ilqr_plan, integrate_closed_loop,
                       integrate_nominal_ccm, integrate_reference, rk4_step)


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

    def test_reaches_target_on_builtin_plant(self, ex2, ex2_plan):
        assert np.linalg.norm(ex2_plan.states[-1]) < 1e-3
        assert ex2_plan.is_consistent(ex2.model)
        assert np.abs(ex2_plan.inputs).max() < 10.0


def _cfg(**kw):
    base = dict(dt=1e-3, t_final=0.5)
    base.update(kw)
    return SimConfig(**base)


class TestLoops:
    def test_without_uncertainty_augmentation_is_silent(self, ex1):
        # h = 0 and sigma_hat starts at zero: predictor tracks exactly, the
        # estimate never moves, and the augmented loop equals the plain one
        from ccml1.l1_control import L1Config
        model = dataclasses.replace(ex1.model, uncertainty=None)
        traj_star = DesiredTrajectory.constant(np.zeros(3), np.zeros(1),
                                               t_final=0.5, dt=1e-3)
        x0 = np.array([0.02, -0.01, 0.015])
        cfg = _cfg()
        l1 = L1Config(state_dim=3, input_dim=1, bandwidth=50.0,
                      adaptation_gain=1e6, unc_bound=0.1)
        closed = integrate_closed_loop(model, ex1.metric, l1, traj_star,
                                       x0, cfg)
        nominal = integrate_nominal_ccm(model, ex1.metric, traj_star, x0,
                                        cfg)
        np.testing.assert_array_equal(closed.states, nominal.states)
        np.testing.assert_array_equal(closed.sigma_hat,
                                      np.zeros_like(closed.sigma_hat))
        assert float(np.max(closed.xtilde_norm)) == 0.0

    def test_reference_loop_with_no_uncertainty_matches_nominal(self, ex1):
        model = dataclasses.replace(ex1.model, uncertainty=None)
        traj_star = DesiredTrajectory.constant(np.zeros(3), np.zeros(1),
                                               t_final=0.3, dt=1e-3)
        x0 = np.array([0.02, -0.01, 0.015])
        ref = integrate_reference(model, ex1.metric, 50.0, traj_star, x0,
                                  _cfg(t_final=0.3))
        nom = integrate_nominal_ccm(model, ex1.metric, traj_star, x0,
                                    _cfg(t_final=0.3))
        np.testing.assert_allclose(ref.states, nom.states, atol=1e-12)

    def test_nominal_energy_decay_bound(self, ex1):
        traj_star = DesiredTrajectory.constant(np.zeros(3), np.zeros(1),
                                               t_final=1.0, dt=1e-3)
        x0 = np.array([0.03, -0.02, 0.04])
        traj = integrate_nominal_ccm(ex1.model, ex1.metric, traj_star, x0,
                                     _cfg(t_final=1.0))
        lam = ex1.metric.contraction_rate
        bound = traj.energy[0] * np.exp(-2.0 * lam * traj.times)
        assert np.all(traj.energy <= bound * 1.05 + 1e-15)

    def test_adaptive_loop_attenuates_the_disturbance(self, ex1):
        from ccml1.l1_control import L1Config
        traj_star = DesiredTrajectory.constant(np.zeros(3), np.zeros(1),
                                               t_final=1.0, dt=1e-4)
        cfg = _cfg(dt=1e-4, t_final=1.0)
        x0 = np.zeros(3)
        l1 = L1Config(state_dim=3, input_dim=1, bandwidth=50.0,
                      adaptation_gain=1e6, unc_bound=0.1)
        with_l1 = integrate_closed_loop(ex1.model, ex1.metric, l1,
                                        traj_star, x0, cfg)
        without = integrate_closed_loop(ex1.model, ex1.metric, None,
                                        traj_star, x0, cfg)
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
        with pytest.raises(DivergenceError) as err:
            integrate_nominal_ccm(ex1.model, ex1.metric, traj_star,
                                  np.array([0.03, 0.0, 0.0]), cfg)
        partial = err.value.partial
        assert partial is not None
        assert 0 < len(partial.times) < cfg.n_steps + 1
        assert np.all(np.isfinite(partial.states))


class TestTrajectoryContainer:
    def test_mismatched_grids_rejected(self):
        k = 5
        kw = dict(times=np.zeros(k), states=np.zeros((k, 2)),
                  states_star=np.zeros((k, 2)), u_feedback=np.zeros((k, 1)),
                  u_adaptive=np.zeros((k, 1)), sigma_hat=np.zeros((k, 1)),
                  x_hat=np.zeros((k, 2)), xtilde_norm=np.zeros(k),
                  energy=np.zeros(k))
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
                          x_hat=np.zeros((k, 2)),
                          xtilde_norm=np.zeros(k), energy=np.zeros(k))
        np.testing.assert_array_equal(traj.dist, np.ones(k))


def _toy_cert(rho=0.5, rho_a=0.1, zeta1=0.01, e0=0.04):
    return TubeCertificate(
        eps=0.2, rho_a=rho_a, rho_r=rho - rho_a, rho=rho, omega=50.0,
        gamma=1e6, energy0=e0, zeta1=zeta1, zeta2=0.0, zeta3=0.0,
        drive_bound=1.0, margin_energy=0.1, margin_bandwidth=0.1,
        margin_adaptation=0.1, alpha_lo=0.2, rate=1.0,
        filter_derivative_norm=100.0)


def _toy_traj(dists, star=(0.0, 0.0)):
    k = len(dists)
    stars = np.tile(np.asarray(star, dtype=float), (k, 1))
    states = stars.copy()
    states[:, 0] += dists
    return Trajectory(times=np.linspace(0.0, 1.0, k), states=states,
                      states_star=stars,
                      u_feedback=np.zeros((k, 1)),
                      u_adaptive=np.zeros((k, 1)),
                      sigma_hat=np.zeros((k, 1)), x_hat=np.zeros((k, 2)),
                      xtilde_norm=np.zeros(k), energy=np.zeros(k))


class TestContainment:
    def test_clean_run_is_contained(self):
        rep = containment(_toy_traj([0.3, 0.2, 0.1]), _toy_cert(),
                          kind="actual")
        assert rep.contained
        assert rep.n_radius_violations == 0
        assert rep.first_violation_time is None

    def test_shrunken_radius_flags_violations(self):
        # same distances against a post-hoc tightened tube must fail
        rep = containment(_toy_traj([0.3, 0.2, 0.1]), _toy_cert(rho=0.25),
                          kind="actual")
        assert not rep.contained
        assert rep.n_radius_violations == 1
        assert rep.first_violation_time == 0.0

    def test_shrinking_bound_checked_pointwise(self):
        # the time-varying bound decays toward rho_a + sqrt(zeta1); a flat
        # error profile under the fixed radius eventually crosses it
        cert = _toy_cert(rho=0.5, zeta1=0.0001, e0=0.002)
        dists = [0.15] * 11
        rep = containment(_toy_traj(dists), cert, kind="actual")
        assert rep.n_radius_violations == 0
        assert rep.contained  # only the fixed radius drives the verdict
        assert rep.n_shrinking_violations > 0
        assert rep.first_violation_time is not None

    def test_reference_kind_uses_reference_radii(self):
        cert = _toy_cert(rho=0.5, rho_a=0.1)
        rep = containment(_toy_traj([0.45, 0.41]), cert, kind="reference")
        assert rep.radius == pytest.approx(cert.rho_r)
        assert not rep.contained  # 0.45 > rho_r = 0.4

    def test_safe_set_erosion(self):
        # desired path sits off-center; eroding by the tube radius must
        # leave room for it, otherwise the tube pokes out of the safe set
        cert = _toy_cert(rho=0.5)
        traj = _toy_traj([0.1, 0.1], star=(0.1, 0.0))
        wide = SafeSet.box(np.zeros(2), 2.0)
        snug = SafeSet.box(np.zeros(2), 0.55)   # eroded half-width 0.05 < 0.1
        assert containment(traj, cert, "actual",
                           safe_set=wide).tube_inside_safe_set
        assert not containment(traj, cert, "actual",
                               safe_set=snug).tube_inside_safe_set
        # a set narrower than the radius cannot be eroded at all
        with pytest.raises(ValueError):
            containment(traj, cert, "actual",
                        safe_set=SafeSet.box(np.zeros(2), 0.3))

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
    return Scenario.from_dict(doc).system().model


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
