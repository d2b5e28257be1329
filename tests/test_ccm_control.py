"""Min-norm contraction feedback: decay constraint, minimality, edge cases."""

import numpy as np
import pytest

from ccml1.ccm_control import feedback_gain
from ccml1.geodesic import GeodesicSolver
from ccml1.metric import MetricField, PolyMatrix
from ccml1.models import DesiredTrajectory, DynamicsModel, SafeSet
from ccml1.sim import rk4_step
from reference import desired_input, desired_state, metric_at


def _solve(solver, p, q, warm=None):
    """One geodesic, as a batch of one row."""
    return solver.solve(np.asarray(p, dtype=float)[None],
                        np.asarray(q, dtype=float)[None],
                        warm=None if warm is None else warm.states)


def _feedback(model, field, curve, u_des):
    """Feedback of a batch of curves under one desired input."""
    k = len(curve.energy)
    at = model.rate_batch(np.concatenate([curve.states[:, 0],
                                          curve.states[:, -1]]))
    rates = at.rate(np.broadcast_to(u_des, (2 * k, model.input_dim)))
    return feedback_gain(field, curve, rates[:k], rates[k:], at.input[k:])


def _constraint_terms(sysb, curve, u_des):
    """Recompute the half-space (a, b) the gain must satisfy: a.k <= b."""
    field, model = sysb.metric, sysb.model
    x_des, x = curve.states[0, 0], curve.states[0, -1]
    lam = field.contraction_rate
    v0, v1 = curve.velocities[0, 0], curve.velocities[0, -1]
    m_x, m_des = metric_at(field, x), metric_at(field, x_des)
    a = 2.0 * model.input_matrix(x).T @ (m_x @ v1)
    b = (-2.0 * lam * curve.energy[0]
         - 2.0 * float(v1 @ (m_x @ model.nominal_rate(x, u_des)))
         + 2.0 * float(v0 @ (m_des @ model.nominal_rate(x_des, u_des))))
    return a, b


@pytest.mark.parametrize("name", ["ex1", "ex2"])
def test_gain_satisfies_decay_constraint(name, ex1, ex2):
    sysb = {"ex1": ex1, "ex2": ex2}[name]
    scale = 0.05 if name == "ex1" else 2.0
    solver = GeodesicSolver(sysb.metric)
    rng = np.random.default_rng(9)
    for _ in range(25):
        x_des, x = rng.uniform(-scale, scale,
                               size=(2, sysb.model.state_dim))
        u_des = rng.uniform(-0.5, 0.5, size=1)
        curve = _solve(solver, x_des, x)
        res = _feedback(sysb.model, sysb.metric, curve, u_des)
        a, b = _constraint_terms(sysb, curve, u_des)
        gain = res.gain[0]
        assert float(a @ gain) <= b + 1e-9 * max(1.0, abs(b))
        # min-norm: zero gain whenever the unforced decay already suffices
        if b >= 0.0:
            assert not res.active
            np.testing.assert_array_equal(gain, np.zeros(1))
        else:
            # active constraint is met with equality (projection onto the
            # half-space boundary)
            assert float(a @ gain) == pytest.approx(b, rel=1e-9)


@pytest.mark.parametrize("name", ["ex1", "ex2"])
def test_closed_loop_energy_decays_at_declared_rate(name, ex1, ex2):
    # the defining property: along the controlled flow, geodesic energy
    # contracts like exp(-2*rate*t)
    sysb = {"ex1": ex1, "ex2": ex2}[name]
    model, field = sysb.model, sysb.metric
    lam = field.contraction_rate
    solver = GeodesicSolver(field)
    x_des = np.zeros(model.state_dim)
    u_des = np.zeros(model.input_dim)
    x = np.array([0.03, -0.02, 0.04])[:model.state_dim] \
        if name == "ex1" else np.array([1.5, -1.0])
    dt = 1e-4
    curve = _solve(solver, x_des, x)
    e0 = curve.energy[0]
    for _ in range(200):
        curve = _solve(solver, x_des, x, warm=curve)
        u = u_des + _feedback(model, field, curve, u_des).gain[0]
        x = rk4_step(lambda t, y: model.nominal_rate(y, u), 0.0, x, dt)
    e1 = _solve(solver, x_des, x, warm=curve).energy[0]
    expected = e0 * np.exp(-2.0 * lam * 200 * dt)
    assert e1 <= expected * 1.002
    assert e1 >= expected * 0.90  # min-norm does not over-contract much


def test_on_trajectory_gain_is_zero(ex1):
    solver = GeodesicSolver(ex1.metric)
    x = np.array([0.02, 0.01, -0.03])
    curve = _solve(solver, x, x)
    res = _feedback(ex1.model, ex1.metric, curve, np.zeros(1))
    assert not res.active
    np.testing.assert_array_equal(res.gain, np.zeros((1, 1)))


def test_degenerate_constraint_normal_flags_infeasible():
    # input matrix is identically zero: the constraint normal vanishes and
    # no input can produce the required decay from an expanding drift
    poly = PolyMatrix(dim_in=1, shape=(1, 1), terms=[((0,), np.array([[1.0]]))])
    field = MetricField.from_dual_polynomial(
        poly, contraction_rate=1.0, eig_floor=0.9, eig_ceil=1.1,
        domain=SafeSet.box(np.zeros(1), 10.0), validate=False)
    model = DynamicsModel(1, 1, drift=lambda x: x.copy(),
                          input_matrix=lambda x: np.zeros((1, 1)))
    curve = _solve(GeodesicSolver(field), np.zeros(1), np.array([1.0]))
    res = _feedback(model, field, curve, np.zeros(1))
    assert res.infeasible
    np.testing.assert_array_equal(res.gain, np.zeros((1, 1)))


def test_warm_started_gain_equals_cold(ex2):
    solver = GeodesicSolver(ex2.metric)
    x_des, u_des, x = np.zeros(2), np.zeros(1), np.array([1.0, 1.0])
    cold = _solve(solver, x_des, x)
    warm = _solve(solver, x_des, x, warm=cold)
    r1 = _feedback(ex2.model, ex2.metric, cold, u_des)
    r2 = _feedback(ex2.model, ex2.metric, warm, u_des)
    np.testing.assert_allclose(r1.gain, r2.gain, atol=1e-10)


def test_tracking_a_moving_target(ex2, ex2_plan_fine):
    # short burst of nominal tracking along the planned path: the energy to
    # the (moving) desired state must shrink monotonically-ish from an offset
    model, field = ex2.model, ex2.metric
    solver = GeodesicSolver(field)
    traj = ex2_plan_fine
    dt = 1e-3
    x = traj.states[0] + np.array([0.3, -0.2])
    energies = []
    curve = None
    for k in range(300):
        t = k * dt
        curve = _solve(solver, desired_state(traj, t), x, warm=curve)
        res = _feedback(model, field, curve, desired_input(traj, t))
        energies.append(curve.energy[0])
        u = desired_input(traj, t) + res.gain[0]
        x = rk4_step(lambda tt, y: model.nominal_rate(y, u), t, x, dt)
    lam = field.contraction_rate
    assert energies[-1] <= np.exp(-2.0 * lam * 300 * dt) * energies[0] * 1.01


@pytest.mark.parametrize("name", ["ex1", "ex2"])
def test_gain_matches_recomputed_endpoint_metrics(name, ex1, ex2):
    # the gain reuses the metrics the solver evaluated at the endpoints; a
    # fresh evaluation there must give the same half-space and gain
    sysb = {"ex1": ex1, "ex2": ex2}[name]
    scale = 0.04 if name == "ex1" else 2.0
    solver = GeodesicSolver(sysb.metric)
    rng = np.random.default_rng(17)
    x_des = rng.uniform(-scale, scale, size=sysb.model.state_dim)
    warm = None
    for k in range(20):
        x = x_des if k == 0 else rng.uniform(-scale, scale,
                                             size=sysb.model.state_dim)
        u_des = rng.uniform(-0.5, 0.5, size=1)
        curve = _solve(solver, x_des, x, warm=warm)
        warm = curve
        res = _feedback(sysb.model, sysb.metric, curve, u_des)
        a, b = _constraint_terms(sysb, curve, u_des)
        expected = np.zeros(1) if b >= 0.0 else (b / float(a @ a)) * a
        assert res.active_rows[0] == (b < 0.0)
        np.testing.assert_allclose(res.gain[0], expected, rtol=1e-12)


def test_feedback_makes_no_metric_evaluations(ex1, monkeypatch):
    from ccml1 import sim
    from ccml1.l1_control import L1Config

    counts = {"inside": False, "feedback": 0, "in_feedback": 0, "total": 0}

    def counting(method):
        def wrapped(self, *args, **kwargs):
            counts["total"] += 1
            counts["in_feedback"] += counts["inside"]
            return method(self, *args, **kwargs)
        return wrapped

    for name in ("metric_batch", "metric_and_partials_batch",
                 "evaluate_batch"):
        monkeypatch.setattr(MetricField, name,
                            counting(getattr(MetricField, name)))

    def feedback(*args, **kwargs):
        counts["feedback"] += 1
        counts["inside"] = True
        try:
            return feedback_gain(*args, **kwargs)
        finally:
            counts["inside"] = False

    monkeypatch.setattr(sim, "feedback_gain", feedback)
    traj_star = DesiredTrajectory.constant(np.zeros(3), np.zeros(1),
                                           t_final=0.01, dt=1e-3)
    l1 = L1Config(state_dim=3, input_dim=1, bandwidth=50.0,
                  adaptation_gain=1e6, unc_bound=0.1)
    sim.lockstep(ex1.model, ex1.metric, traj_star,
                 np.array([0.02, -0.01, 0.015]),
                 sim.SimConfig(dt=1e-4, t_final=5e-3),
                 [sim.integrate_closed_loop(l1)])
    assert counts["feedback"] == 51
    assert counts["total"] > 0
    assert counts["in_feedback"] == 0
