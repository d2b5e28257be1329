"""Adaptive augmentation pieces: projection, predictor, estimator, filter,
and their row-wise batches."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import solve_continuous_lyapunov

from ccml1.l1_control import (L1Config, L1Rows, L1State, adaptation_step,
                              filter_step, predictor_rate, projection_map)

unit = st.floats(min_value=-1.0, max_value=1.0,
                 allow_nan=False, allow_infinity=False)


def _cfg(**kw):
    base = dict(state_dim=2, input_dim=1, bandwidth=40.0,
                adaptation_gain=1e5, unc_bound=0.5)
    base.update(kw)
    return L1Config(**base)


def _rows(**kw):
    """The tuning of one L1 row."""
    return L1Rows.stack([_cfg(**kw)])


class TestConfig:
    def test_default_lyapunov_solution(self):
        cfg = _cfg()
        # pred_matrix defaults to -10 I and lyap_q to I, so P = I/20
        np.testing.assert_allclose(cfg.lyap_p, np.eye(2) / 20.0, atol=1e-12)
        resid = cfg.pred_matrix.T @ cfg.lyap_p \
            + cfg.lyap_p @ cfg.pred_matrix + cfg.lyap_q
        np.testing.assert_allclose(resid, 0.0, atol=1e-12)

    def test_custom_pred_matrix_lyapunov_residual(self):
        a = np.array([[-3.0, 1.0], [0.0, -5.0]])
        cfg = _cfg(pred_matrix=a)
        resid = a.T @ cfg.lyap_p + cfg.lyap_p @ a + cfg.lyap_q
        np.testing.assert_allclose(resid, 0.0, atol=1e-10)
        eigs = np.linalg.eigvalsh(0.5 * (cfg.lyap_p + cfg.lyap_p.T))
        assert eigs[0] > 0.0

    def test_non_hurwitz_predictor_rejected(self):
        with pytest.raises(ValueError):
            _cfg(pred_matrix=np.array([[1.0, 0.0], [0.0, -1.0]]))

    @pytest.mark.parametrize("field,value", [
        ("bandwidth", -1.0), ("adaptation_gain", 0.0), ("unc_bound", -0.1)])
    def test_positive_parameters_enforced(self, field, value):
        with pytest.raises(ValueError):
            _cfg(**{field: value})

    def test_clamp_radius_slightly_inflates_the_ball(self):
        cfg = _rows(unc_bound=0.2, eps_proj=0.1)
        assert cfg.clamp_radius == pytest.approx(0.2 * np.sqrt(1.1))
        # stays below the 1.1x envelope the simulations are audited against
        assert cfg.clamp_radius <= 1.1 * 0.2


class TestLyapunovAgainstScipy:
    """``lyap_p`` from the numpy solve equals scipy's Lyapunov solver: to
    the bit (zero signs included) on the diagonal predictors and weights
    the scenarios build, and to rounding on general Hurwitz matrices."""

    @staticmethod
    def _scipy(a, q):
        p = solve_continuous_lyapunov(a.T, -q)
        return 0.5 * (p + p.T)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_diagonal_predictors_match_bit_for_bit(self, n):
        for c in np.linspace(-30.0, -0.1, 61):
            for q in (0.1, 0.5, 1.0, 2.0, 7.3):
                a, qm = c * np.eye(n), q * np.eye(n)
                p = _cfg(state_dim=n, pred_matrix=a, lyap_q=qm).lyap_p
                assert p.tobytes() == self._scipy(a, qm).tobytes(), (c, q)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_non_normal_hurwitz_matrices_match_to_rounding(self, n):
        rng = np.random.default_rng(n)
        for _ in range(10):
            # stable eigenvalues, a large upper part, then a similarity
            a = (-np.diag(rng.uniform(0.5, 20.0, n))
                 + np.triu(rng.normal(scale=5.0, size=(n, n)), 1))
            s = rng.normal(size=(n, n)) + 3.0 * np.eye(n)
            a = s @ a @ np.linalg.inv(s)
            b = rng.normal(size=(n, n))
            q = b @ b.T + 0.1 * np.eye(n)
            p = _cfg(state_dim=n, pred_matrix=a, lyap_q=q).lyap_p
            ref = self._scipy(a, q)
            scale = np.abs(ref).max()
            np.testing.assert_allclose(p, ref, rtol=1e-12,
                                       atol=1e-12 * scale)
            resid = a.T @ p + p @ a + q
            ref_resid = a.T @ ref + ref @ a + q
            atol = 1e-12 * (np.abs(a).max() * scale + np.abs(q).max())
            np.testing.assert_allclose(resid, ref_resid, rtol=1e-12,
                                       atol=atol)
            np.testing.assert_allclose(resid, 0.0, atol=atol)


class TestProjection:
    def test_identity_inside_ball(self):
        theta = np.array([0.1, 0.0])
        raw = np.array([5.0, -3.0])
        np.testing.assert_array_equal(
            projection_map(theta, raw, radius=1.0, eps=0.1), raw)

    def test_identity_when_pointing_inward(self):
        theta = np.array([1.04, 0.0])  # inside the boundary layer
        raw = np.array([-2.0, 0.7])    # inward
        np.testing.assert_array_equal(
            projection_map(theta, raw, 1.0, 0.1), raw)

    def test_outward_component_removed_at_layer_edge(self):
        eps = 0.1
        radius = 1.0
        theta = np.array([np.sqrt(1.0 + eps), 0.0])  # f = 1 exactly
        raw = np.array([3.0, 1.5])
        out = projection_map(theta, raw, radius, eps)
        # radial part fully cancelled, tangential part untouched
        assert float(out @ theta) == pytest.approx(0.0, abs=1e-12)
        assert out[1] == pytest.approx(raw[1])

    @given(st.tuples(unit, unit), st.tuples(unit, unit),
           st.tuples(unit, unit))
    def test_defining_inequality(self, th, y, target):
        # for any target inside the ball, the deflected drive never points
        # farther from it than the raw drive does
        radius, eps = 0.8, 0.1
        theta = np.asarray(th) * 1.2   # may lie outside the layer
        raw = np.asarray(y) * 10.0
        t_in = np.asarray(target) * radius / np.sqrt(2.0)  # inside ball
        out = projection_map(theta, raw, radius, eps)
        lhs = float((theta - t_in) @ (out - raw))
        assert lhs <= 1e-12


class TestPredictor:
    def test_rate_formula(self):
        cfg = _cfg()
        drift = np.array([0.3, -0.1])
        b = np.array([[1.0], [2.0]])
        u = np.array([0.5])
        sig = np.array([-0.2])
        x_hat = np.array([1.0, 1.0])
        x = np.array([0.9, 1.2])
        rate = predictor_rate(L1Rows.stack([cfg]), drift[None], b[None],
                              (u + sig)[None], x_hat[None], x[None])
        expect = drift + b @ (u + sig) + cfg.pred_matrix @ (x_hat - x)
        np.testing.assert_allclose(rate[0], expect, atol=1e-14)

    def test_state_start_and_error(self):
        st8 = L1State.start(np.array([[1.0, -2.0]]), input_dim=1)
        np.testing.assert_array_equal(st8.x_hat, [[1.0, -2.0]])
        np.testing.assert_array_equal(st8.sigma_hat, [[0.0]])
        np.testing.assert_array_equal(st8.u_adaptive, [[0.0]])
        np.testing.assert_array_equal(
            st8.prediction_error(np.array([[0.5, -2.0]])), [[0.5, 0.0]])


class TestAdaptation:
    def test_euler_step_direction_and_size(self):
        cfg = _rows(adaptation_gain=100.0)
        state = L1State.start(np.zeros((1, 2)), 1)
        state.x_hat = np.array([[0.01, 0.0]])
        b = np.array([[[1.0], [0.0]]])
        adaptation_step(cfg, state, x=np.zeros((1, 2)), input_mat=b, dt=1e-3)
        # raw = -B^T P x_tilde = -(1/20)*0.01; estimate = dt*gain*raw
        assert state.sigma_hat[0, 0] == pytest.approx(
            1e-3 * 100.0 * (-0.01 / 20.0))

    def test_estimate_never_leaves_clamp_ball(self):
        cfg = _rows(adaptation_gain=1e8, unc_bound=0.3)
        state = L1State.start(np.zeros((1, 2)), 1)
        rng = np.random.default_rng(0)
        b = np.array([[[1.0], [-2.0]]])
        for _ in range(500):
            state.x_hat = rng.normal(scale=0.1, size=(1, 2))
            adaptation_step(cfg, state, x=np.zeros((1, 2)), input_mat=b,
                            dt=1e-3)
            assert np.linalg.norm(state.sigma_hat) <= cfg.clamp_radius + 1e-12


class TestFilter:
    def test_matches_dense_ode_integration(self):
        # the step claims to be the exact hold discretization of
        # du/dt = -bandwidth * (u + sigma); check against an adaptive ODE
        # solve with tight tolerances
        cfg = _rows(bandwidth=37.0)
        state = L1State.start(np.zeros((1, 2)), 1)
        state.sigma_hat = np.array([[0.05]])
        state.u_adaptive = np.array([[0.02]])
        sol = solve_ivp(lambda t, u: -37.0 * (u + 0.05), (0.0, 0.1),
                        [0.02], rtol=1e-12, atol=1e-14)
        filter_step(cfg, state, dt=0.1)
        assert state.u_adaptive[0, 0] == pytest.approx(sol.y[0, -1],
                                                       abs=1e-10)

    def test_steady_state_cancels_estimate(self):
        cfg = _rows(bandwidth=50.0)
        state = L1State.start(np.zeros((1, 2)), 1)
        state.sigma_hat = np.array([[0.3]])
        for _ in range(200):
            filter_step(cfg, state, dt=0.01)
        assert state.u_adaptive[0, 0] == pytest.approx(-0.3, abs=1e-9)

    @given(st.floats(min_value=1e-4, max_value=10.0))
    def test_unconditionally_stable(self, dt):
        # arbitrary step sizes keep the filter bounded (exact discretization)
        cfg = _rows(bandwidth=200.0)
        state = L1State.start(np.zeros((1, 2)), 1)
        state.sigma_hat = np.array([[1.0]])
        for _ in range(50):
            filter_step(cfg, state, dt=dt)
            assert abs(state.u_adaptive[0, 0]) <= 1.0 + 1e-12


class TestRows:
    """Each row of a batch updates exactly as it does on its own."""

    def test_rows_equal_their_solo_updates(self):
        rng = np.random.default_rng(3)
        cfgs = [_cfg(adaptation_gain=g, bandwidth=w, unc_bound=0.05)
                for g, w in ((1e3, 10.0), (1e6, 40.0), (1e8, 90.0),
                             (3e4, 5.0))]
        k = len(cfgs)
        x = rng.normal(scale=0.1, size=(k, 2))
        b = rng.normal(size=(k, 2, 1))
        drift = rng.normal(size=(k, 2))
        u = rng.normal(size=(k, 1))

        def start(rows):
            state = L1State.start(x[rows] + 0.01, 1)
            # the first row inside the ball, the others in the boundary
            # layer or beyond it, pointing either way
            sigma = np.array([[0.01], [0.0509], [-0.052], [0.08]])
            state.sigma_hat = sigma[rows]
            return state

        batch, solo = start(slice(None)), [start([r]) for r in range(k)]
        tuning = L1Rows.stack(cfgs)
        for _ in range(20):
            rates = predictor_rate(tuning, drift, b, u + batch.sigma_hat,
                                   batch.x_hat, x)
            adaptation_step(tuning, batch, x, b, 1e-3)
            filter_step(tuning, batch, 1e-3)
            for r in range(k):
                one = L1Rows.stack([cfgs[r]])
                rate = predictor_rate(one, drift[[r]], b[[r]],
                                      u[[r]] + solo[r].sigma_hat,
                                      solo[r].x_hat, x[[r]])
                adaptation_step(one, solo[r], x[[r]], b[[r]], 1e-3)
                filter_step(one, solo[r], 1e-3)
                for got, want in ((rates[r], rate[0]),
                                  (batch.sigma_hat[r], solo[r].sigma_hat[0]),
                                  (batch.u_adaptive[r],
                                   solo[r].u_adaptive[0])):
                    np.testing.assert_array_equal(got, want)
                    np.testing.assert_array_equal(np.signbit(got),
                                                  np.signbit(want))

    def test_projection_rows_equal_single_vectors(self):
        rng = np.random.default_rng(4)
        theta = rng.normal(scale=0.6, size=(50, 2))
        raw = rng.normal(size=(50, 2))
        rows = projection_map(theta, raw, 0.5, 0.1)
        for r in range(50):
            np.testing.assert_array_equal(
                rows[r], projection_map(theta[r], raw[r], 0.5, 0.1))

    def test_rows_share_one_uncertainty_ball(self):
        with pytest.raises(ValueError, match="uncertainty ball"):
            L1Rows.stack([_cfg(unc_bound=0.5), _cfg(unc_bound=0.6)])
