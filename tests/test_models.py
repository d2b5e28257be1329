"""Plant definitions, safe sets, and desired-trajectory plumbing."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ccml1.errors import DimensionMismatch
from ccml1.models import (AssumptionBounds, DesiredTrajectory, DynamicsModel,
                          SafeSet, builtin_example, matvec, row_dot)
from ccml1.scenario import _domain
from ccml1.sim import rk4_step
from reference import desired_input, desired_state, safe_set_doc

coord = st.floats(min_value=-2.0, max_value=2.0,
                  allow_nan=False, allow_infinity=False)


def test_builtin_dimensions():
    ex1 = builtin_example("ex1")
    ex2 = builtin_example("ex2")
    assert (ex1.model.state_dim, ex1.model.input_dim) == (3, 1)
    assert (ex2.model.state_dim, ex2.model.input_dim) == (2, 1)
    with pytest.raises(ValueError):
        builtin_example("ex99")


@pytest.mark.parametrize("name,scale", [("ex1", 0.05), ("ex2", 3.0)])
def test_analytic_jacobians_match_finite_differences(name, scale):
    sysb = builtin_example(name)
    model = sysb.model
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = rng.uniform(-scale, scale, size=model.state_dim)
        fd = DynamicsModel(model.state_dim, model.input_dim, model.drift,
                           model.input_matrix)
        np.testing.assert_allclose(model.jac_drift(x), fd.jac_drift(x),
                                   rtol=1e-5, atol=1e-6)
        np.testing.assert_allclose(model.d_input(x), fd.d_input(x),
                                   rtol=1e-5, atol=1e-6)


def _row_loop(model, xs):
    """eval_batch as the fallback computes it: the per-state callables."""
    return DynamicsModel(model.state_dim, model.input_dim, model.drift,
                         model.input_matrix, model.jac_drift,
                         model.d_input).eval_batch(xs)


@pytest.mark.parametrize("name,scale", [("ex1", 0.1), ("ex2", 6.0)])
def test_vectorized_builtins_equal_the_row_loop(name, scale):
    model = builtin_example(name).model
    assert model.vectorized is not None
    xs = np.random.default_rng(8).uniform(-scale, scale,
                                          (5000, model.state_dim))
    got, want = model.eval_batch(xs), _row_loop(model, xs)
    for field, a, b in zip(got._fields, got, want):
        assert a.shape == b.shape, field
        assert np.array_equal(a, b), field
    # the drift and input matrix alone, for a stack and for one state
    for rows in (xs, xs[:1]):
        rates = model.rate_batch(rows)
        assert rates.jac is None and rates.d_input is None
        assert np.array_equal(rates.drift, want.drift[:len(rows)])
        assert np.array_equal(rates.input, want.input[:len(rows)])


def test_row_loop_fallback_shapes():
    calls = []

    def drift(x):
        calls.append(1)
        return np.array([-x[0] + x[1] ** 2, -x[1]])

    model = DynamicsModel(2, 1, drift, lambda x: np.array([[0.0], [x[0]]]))
    xs = np.array([[0.5, -1.0], [2.0, 0.25], [0.0, 0.0]])
    got = model.eval_batch(xs)
    # 3 drift calls for the rows, 4 per row for the central differences
    assert len(calls) == 3 + 3 * 4
    assert [a.shape for a in got] == [(3, 2), (3, 2, 2), (3, 2, 1),
                                      (3, 2, 2, 1)]
    for k, x in enumerate(xs):
        np.testing.assert_array_equal(got.drift[k], drift(x))
        np.testing.assert_array_equal(got.d_input[k], model.d_input(x))
    empty = model.eval_batch(np.zeros((0, 2)))
    assert [a.shape for a in empty] == [(0, 2), (0, 2, 2), (0, 2, 1),
                                        (0, 2, 2, 1)]


def test_input_pinv_is_left_inverse(ex1, ex2):
    for sysb, x in ((ex1, np.array([0.01, 0.02, -0.03])),
                    (ex2, np.array([1.0, -2.0]))):
        b = sysb.model.input_matrix(x)
        pinv = sysb.model.input_pinv(x)
        np.testing.assert_allclose(pinv @ b, np.eye(1), atol=1e-12)


def test_uncertainty_signatures(ex1, ex2):
    h1 = ex1.model.uncertainty(0.3, np.zeros(3))
    assert h1.shape == (1,)
    np.testing.assert_allclose(h1, [0.1 * np.sin(0.6)], atol=1e-14)
    x = np.array([3.0, -4.0])
    h2 = ex2.model.uncertainty(0.25, x)
    np.testing.assert_allclose(h2, [-2.0 * np.sin(0.5) - 0.1 * 5.0],
                               atol=1e-14)
    # stated uncertainty bounds actually dominate the family on the domain
    assert abs(h1[0]) <= ex1.bounds.unc_sup
    assert abs(h2[0]) <= ex2.bounds.unc_sup


class TestSafeSet:
    def test_box_contains_and_erode(self):
        box = SafeSet.box(np.zeros(2), [2.0, 1.0])
        assert box.contains([1.9, -0.9])
        assert not box.contains([2.1, 0.0])
        small = box.erode(0.5)
        assert small.contains([1.4, 0.4])
        assert not small.contains([1.6, 0.0])

    def test_ball_erode(self):
        ball = SafeSet.ball([1.0, 1.0], 2.0)
        assert ball.erode(0.5).radius == pytest.approx(1.5)

    def test_erode_beyond_size_raises(self):
        with pytest.raises(ValueError):
            SafeSet.ball([0.0], 1.0).erode(2.0)

    def test_sample_stays_inside(self):
        box = SafeSet.box([1.0, -1.0], [0.5, 0.25])
        rng = np.random.default_rng(0)
        pts = box.sample(300, rng, include_extremes=True)
        assert all(box.contains(p) for p in pts)
        # extreme points include the corners themselves
        corner = np.array([1.5, -0.75])
        assert any(np.allclose(p, corner) for p in pts)

    def test_bounded(self):
        assert SafeSet.box(np.zeros(2), 1.0).is_bounded
        assert SafeSet.ball(np.zeros(2), 3.0).is_bounded
        assert not SafeSet.ball(np.zeros(2), np.inf).is_bounded
        assert not SafeSet.box(np.zeros(2), [1.0, np.inf]).is_bounded

    def test_dict_round_trip(self):
        for s in (SafeSet.box([0.0, 1.0], [2.0, 3.0]),
                  SafeSet.ball([1.0], 0.5)):
            back = _domain(safe_set_doc(s), "domain",
                           {"state_dim": s.dim})
            assert back.kind == s.kind
            np.testing.assert_array_equal(back.center, s.center)


def test_negative_bound_rejected():
    with pytest.raises(ValueError):
        AssumptionBounds(unc_sup=-1.0)


# reads at one time, through the stacked read the library uses
def _state(traj, t):
    return traj.sample(np.array([t]))[0][0]


def _input(traj, t):
    return traj.sample(np.array([t]))[1][0]


class TestDesiredTrajectory:
    def test_constant_trajectory(self):
        traj = DesiredTrajectory.constant([1.0, 2.0], [0.5], t_final=2.0,
                                          dt=0.1)
        np.testing.assert_array_equal(_state(traj, 1.234), [1.0, 2.0])
        np.testing.assert_array_equal(_input(traj, 0.77), [0.5])
        assert traj.dt * (len(traj.states) - 1) == pytest.approx(2.0)

    def test_state_interpolates_linearly(self):
        states = np.array([[0.0], [1.0], [4.0]])
        inputs = np.zeros((3, 1))
        traj = DesiredTrajectory(0.0, 1.0, states, inputs)
        assert _state(traj, 0.5)[0] == pytest.approx(0.5)
        assert _state(traj, 1.25)[0] == pytest.approx(1.75)

    def test_input_is_held_per_segment(self):
        # piecewise-constant reads: the planner holds each input over [k, k+1)
        inputs = np.array([[1.0], [2.0], [3.0]])
        traj = DesiredTrajectory(0.0, 1.0, np.zeros((3, 1)), inputs)
        assert _input(traj, 0.0)[0] == 1.0
        assert _input(traj, 0.999)[0] == 1.0
        assert _input(traj, 1.0)[0] == 2.0
        # reads beyond the horizon clamp to the final segment; the very last
        # input row is padding and is never returned
        assert _input(traj, 2.5)[0] == 2.0

    @given(st.floats(min_value=-5.0, max_value=15.0,
                     allow_nan=False, allow_infinity=False))
    def test_reads_clamp_to_horizon(self, t):
        states = np.array([[0.0], [1.0]])
        traj = DesiredTrajectory(0.0, 1.0, states, np.zeros((2, 1)))
        assert 0.0 <= _state(traj, t)[0] <= 1.0

    def test_sample_reads_what_state_and_input_read(self, ex2_plan):
        times = np.arange(-3, 1205) * 7e-3          # past both ends
        for traj in (ex2_plan, DesiredTrajectory.constant(
                np.array([1.0, 2.0]), np.array([0.5]))):
            states, inputs = traj.sample(times)
            assert np.array_equal(states,
                                  [desired_state(traj, t) for t in times])
            assert np.array_equal(inputs,
                                  [desired_input(traj, t) for t in times])

    def test_mismatched_rows_raise(self):
        with pytest.raises(DimensionMismatch):
            DesiredTrajectory(0.0, 0.1, np.zeros((3, 2)), np.zeros((2, 1)))

    def test_consistency_residual_scores_integrated_pairs(self, ex2,
                                                          is_consistent):
        # roll the nominal plant forward with held inputs; the residual
        # must be at discretization level, and a corrupted copy must not be
        model = ex2.model
        dt = 0.01
        x = np.array([1.0, -0.5])
        states, inputs = [x.copy()], []
        rng = np.random.default_rng(2)
        for _ in range(50):
            u = rng.uniform(-1.0, 1.0, size=1)
            inputs.append(u)
            x = rk4_step(lambda t, y: model.nominal_rate(y, u), 0.0, x, dt)
            states.append(x.copy())
        inputs.append(inputs[-1])
        traj = DesiredTrajectory(0.0, dt, np.array(states), np.array(inputs))
        assert is_consistent(traj, model)
        bad = DesiredTrajectory(0.0, dt, np.array(states)[::-1].copy(),
                                np.array(inputs))
        assert not is_consistent(bad, model)

    def test_refine_preserves_nodes(self, ex2, ex2_plan, ex2_plan_fine,
                                    is_consistent):
        fine = ex2_plan_fine
        assert fine.dt == pytest.approx(1e-3)
        per = round(ex2_plan.dt / fine.dt)
        np.testing.assert_allclose(fine.states[::per], ex2_plan.states,
                                   atol=1e-6)
        # held inputs replicate within each refined segment
        np.testing.assert_array_equal(fine.inputs[:per],
                                      np.repeat(ex2_plan.inputs[:1], per,
                                                axis=0))
        assert is_consistent(fine, ex2.model)

    def test_refine_requires_divisible_step(self, ex2, ex2_plan):
        with pytest.raises(ValueError):
            ex2_plan.refine(ex2.model, 0.003)


# --- batched refine and membership ---------------------------------------------


def _reference_refine(traj, model, dt):
    """The per-segment loop that the segment-parallel refine replaced."""
    per = int(round(traj.dt / dt))
    n_seg = traj.states.shape[0] - 1
    states = np.zeros((n_seg * per + 1, traj.states.shape[1]))
    inputs = np.zeros((n_seg * per + 1, traj.inputs.shape[1]))
    states[0] = traj.states[0]
    row = 0
    for k in range(n_seg):
        u = traj.inputs[k]
        x = traj.states[k].copy()
        for _ in range(per):
            k1 = model.nominal_rate(x, u)
            k2 = model.nominal_rate(x + 0.5 * dt * k1, u)
            k3 = model.nominal_rate(x + 0.5 * dt * k2, u)
            k4 = model.nominal_rate(x + dt * k3, u)
            x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            inputs[row] = u
            row += 1
            states[row] = x
    inputs[row] = traj.inputs[-1]
    return states, inputs


def _inline_cubic_model():
    """Inline polynomial plant: cubic drift, state-dependent input column."""
    from ccml1.scenario import SCHEMA_VERSION, Scenario

    def term(powers, coeff):
        return {"powers": powers, "coeff": coeff}

    doc = {
        "version": SCHEMA_VERSION, "name": "cubic",
        "model": {
            "state_dim": 2, "input_dim": 1,
            "drift": [[term([0, 1], 1.0), term([3, 0], -0.2)],
                      [term([1, 0], -1.0), term([1, 2], 0.3)]],
            "input_matrix": {"entries": [[[term([0, 1], 0.5)]],
                                         [[term([0, 0], 1.0)]]]},
        },
        "metric": {"dual": [[[term([0, 0], 1.0)], []],
                            [[], [term([0, 0], 1.0)]]],
                   "rate": 0.1, "eig_floor": 0.9, "eig_ceil": 1.1},
        "sim": {"dt": 0.01, "t_final": 1.0},
    }
    return Scenario.from_dict(doc).system().model


class TestBatchedRefine:
    def test_equals_the_per_segment_loop_on_ex2(self, ex2, ex2_plan,
                                                ex2_plan_fine):
        states, inputs = _reference_refine(ex2_plan, ex2.model, 1e-3)
        assert np.array_equal(ex2_plan_fine.states, states)
        assert np.array_equal(ex2_plan_fine.inputs, inputs)

    def test_agrees_with_the_per_segment_loop_on_an_inline_model(self):
        model = _inline_cubic_model()
        rng = np.random.default_rng(5)
        coarse = DesiredTrajectory(0.0, 0.05, rng.uniform(-1.0, 1.0, (41, 2)),
                                   rng.uniform(-1.0, 1.0, (41, 1)))
        fine = coarse.refine(model, 0.01)
        states, inputs = _reference_refine(coarse, model, 0.01)
        np.testing.assert_allclose(fine.states, states, rtol=0.0, atol=1e-12)
        assert np.array_equal(fine.inputs, inputs)

    def test_makes_no_per_state_rate_calls(self, ex2, ex2_plan, monkeypatch):
        calls = []
        rate = DynamicsModel.nominal_rate

        def counted(self, x, u):
            calls.append(1)
            return rate(self, x, u)

        monkeypatch.setattr(DynamicsModel, "nominal_rate", counted)
        ex2_plan.refine(ex2.model, 1e-3)
        assert calls == []


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_row_dot_carries_the_bits_of_the_per_row_products(d):
    rng = np.random.default_rng(d)
    a = rng.normal(size=(3000, d)) * rng.uniform(0.1, 10.0, (3000, 1))
    b = rng.normal(size=(3000, d))
    assert np.array_equal(row_dot(a, b), [x @ y for x, y in zip(a, b)])
    assert np.array_equal(np.sqrt(row_dot(a, a)),
                          [np.linalg.norm(x) for x in a])
    # broadcasting over a leading axis, as the clearance uses it
    stack = a[:200].reshape(50, 4, d)
    assert np.array_equal(row_dot(stack, b[:4]),
                          [[x @ y for x, y in zip(row, b[:4])]
                           for row in stack])


@pytest.mark.parametrize("n,k", [(1, 1), (3, 1), (3, 3), (21, 21)])
def test_matvec_carries_the_bits_of_the_per_row_products(n, k):
    rng = np.random.default_rng(n + k)
    a = rng.normal(size=(500, n, k))
    v = rng.normal(size=(500, k))
    assert np.array_equal(matvec(a, v), [x @ y for x, y in zip(a, v)])
    # the transposed view the feedback law and the estimator use
    t = a.swapaxes(1, 2)
    w = rng.normal(size=(500, n))
    assert np.array_equal(matvec(t, w), [x.T @ y for x, y in zip(a, w)])


def _reference_contains(region, x, margin):
    """Membership of one state as it was computed before batching."""
    if region.kind == "box":
        return bool(np.all(np.abs(x - region.center)
                           <= region.half_widths - margin))
    return bool(np.linalg.norm(x - region.center) <= region.radius - margin)


class TestBatchedContains:
    @staticmethod
    def _points(region, rng):
        # interior, exterior, and points placed exactly on the boundary
        inner = region.sample(200, rng, include_extremes=True)
        outer = region.center + 3.0 * (inner - region.center)
        return np.vstack([inner, outer, region.center + 0.0 * inner])

    @pytest.mark.parametrize("margin", [0.0, 0.05, -1e-9])
    def test_box_rows_equal_the_row_by_row_answers(self, margin):
        box = SafeSet.box([0.5, -1.0, 0.0], [1.0, 0.5, 0.25])
        pts = self._points(box, np.random.default_rng(6))
        got = box.contains(pts, margin=margin)
        want = np.array([_reference_contains(box, p, margin) for p in pts])
        assert got.dtype == bool and got.shape == (len(pts),)
        assert np.array_equal(got, want)
        assert [box.contains(p, margin=margin) for p in pts] == list(want)
        # the corners are exactly on the boundary, and inside
        assert got[1:9].all() if margin <= 0.0 else not got[1:9].any()

    @pytest.mark.parametrize("margin", [0.0, 0.05])
    def test_ball_rows_equal_the_row_by_row_answers(self, margin):
        ball = SafeSet.ball([0.3, -0.2], 1.5)
        rng = np.random.default_rng(7)
        pts = self._points(ball, rng)
        # points on the sphere, including the axis poles
        direc = rng.normal(size=(300, 2))
        direc /= np.linalg.norm(direc, axis=1, keepdims=True)
        pts = np.vstack([pts, ball.center + 1.5 * direc])
        got = ball.contains(pts, margin=margin)
        want = np.array([_reference_contains(ball, p, margin) for p in pts])
        assert [ball.contains(p, margin=margin) for p in pts] == list(want)
        assert np.array_equal(got, want)
        assert got.any() and not got.all()
