"""Bound-constant estimation, interference terms, and the tube conditions."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ccml1.certification import (DeltaConstants, TubeSampling, _tube_points,
                                 check_conditions, estimate_deltas,
                                 search_params, zeta)
from ccml1.errors import InfeasibleCertificate
from ccml1.metric import MetricField, PolyMatrix
from ccml1.models import (AssumptionBounds, DesiredTrajectory, DynamicsModel,
                          SafeSet)


@pytest.fixture(scope="module")
def ex1_deltas(ex1):
    traj = DesiredTrajectory.constant(np.zeros(3), np.zeros(1),
                                      t_final=10.0, dt=0.01)
    return estimate_deltas(ex1.model, ex1.metric, ex1.bounds, rho=0.0514,
                           traj=traj, sampling=TubeSampling(seed=0)), traj


@pytest.fixture(scope="module")
def ex2_deltas(ex2, ex2_plan):
    return estimate_deltas(ex2.model, ex2.metric, ex2.bounds, rho=0.5,
                           traj=ex2_plan, sampling=TubeSampling(seed=0))


def test_tube_points_stay_within_radius():
    traj = DesiredTrajectory.constant(np.array([1.0, -1.0]), np.zeros(1),
                                      t_final=1.0, dt=0.1)
    rho = 0.3
    _, pts = _tube_points(traj, rho, TubeSampling(n_times=5, n_dirs=10,
                                                  seed=1))
    dist = np.linalg.norm(pts - np.array([1.0, -1.0]), axis=1)
    assert dist.max() <= rho + 1e-12
    # pole points at exactly the radius are included
    assert dist.max() == pytest.approx(rho)


class TestEstimateDeltas:
    def test_user_bounds_taken_verbatim(self, ex1, ex1_deltas):
        d, _ = ex1_deltas
        assert d.provenance["unc_sup"] == "user"
        assert d.unc_sup == ex1.bounds.unc_sup
        assert d.provenance["input_sup"] == "user"

    def test_sampled_bounds_are_inflated(self, ex1_deltas):
        d, _ = ex1_deltas
        # drift bounds are not supplied for the first builtin -> sampled
        assert d.provenance["drift_sup"] == "sampled"
        assert d.drift_sup > 0.0

    def test_envelope_constants_come_from_the_field(self, ex1, ex1_deltas):
        d, _ = ex1_deltas
        assert d.alpha_lo == ex1.metric.eig_floor
        assert d.alpha_hi == ex1.metric.eig_ceil
        assert d.rate == ex1.metric.contraction_rate

    def test_domain_excess_is_flagged_not_fatal(self, ex1_deltas):
        d, _ = ex1_deltas
        # tube radius 0.0514 pokes out of the validated box of half-width
        # 0.05 around the origin
        assert d.domain_exceeded

    def test_estimator_rate_bound_is_affine_in_bandwidth(self, ex1_deltas):
        d, _ = ex1_deltas
        for omega in (10.0, 50.0, 400.0):
            assert d.est_rate_bound(omega) == pytest.approx(
                d.est_rate_static + d.est_rate_slope * omega)
        assert d.est_rate_slope > 0.0

    def test_negative_constant_rejected(self, ex1_deltas):
        d, _ = ex1_deltas
        with pytest.raises(ValueError):
            dataclasses.replace(d, unc_sup=-1.0)

    def test_degenerate_input_map_is_infeasible(self):
        poly = PolyMatrix(dim_in=1, shape=(1, 1),
                          terms=[((0,), np.array([[1.0]]))])
        field = MetricField.from_dual_polynomial(
            poly, contraction_rate=0.5, eig_floor=0.9, eig_ceil=1.1,
            domain=SafeSet.box(np.zeros(1), 5.0), validate=False)
        model = DynamicsModel(1, 1, drift=lambda x: -x,
                              input_matrix=lambda x: np.zeros((1, 1)))
        traj = DesiredTrajectory.constant(np.zeros(1), np.zeros(1))
        with pytest.raises(InfeasibleCertificate):
            estimate_deltas(model, field, AssumptionBounds(), rho=0.5,
                            traj=traj)


class TestZeta:
    @pytest.mark.parametrize("which", ["ex1", "ex2"])
    def test_decreasing_in_bandwidth(self, which, ex1_deltas, ex2_deltas):
        # every interference term shrinks as the filter opens up; terms that
        # are structurally zero (constant metric / constant input map /
        # state-independent disturbance) stay zero
        d = ex1_deltas[0] if which == "ex1" else ex2_deltas
        grid = np.geomspace(2.0 * d.rate + 1.0, 1e3, 40)
        vals = np.array([zeta(w, d) for w in grid])
        for col in range(3):
            if np.all(vals[:, col] == 0.0):
                continue
            assert np.all(np.diff(vals[:, col]) < 0.0), \
                f"component {col} not strictly decreasing"
        # the strictly positive terms really are present somewhere
        assert vals[0, 0] > 0.0

    def test_pole_at_twice_the_rate_rejected(self, ex2_deltas):
        d = ex2_deltas
        with pytest.raises(ValueError):
            zeta(2.0 * d.rate, d)

    def test_state_independent_uncertainty_kills_third_term(self, ex1_deltas):
        d, _ = ex1_deltas
        # the first builtin's disturbance depends on time only
        assert d.unc_state_grad_sup == 0.0
        assert zeta(50.0, d)[2] == 0.0

    @given(omega=st.floats(min_value=5.0, max_value=900.0))
    def test_all_terms_nonnegative(self, omega, ex2_deltas):
        z = zeta(omega, ex2_deltas)
        assert all(v >= 0.0 for v in z)


class TestCheckConditions:
    def test_zero_initial_offset_gives_zero_energy(self, ex2, ex2_deltas):
        x0 = np.array([3.4, -2.4])
        cert = check_conditions(ex2.metric, ex2_deltas, omega=90.0,
                                gamma=4e7, eps=0.4, rho_a=0.1,
                                x0=x0, x0_star=x0)
        assert cert.energy0 == 0.0
        assert cert.rho_r == pytest.approx(0.4)
        assert cert.rho == pytest.approx(0.5)

    def test_radii_grow_with_initial_offset(self, ex2, ex2_deltas):
        x0_star = np.array([3.4, -2.4])
        x0 = x0_star + np.array([0.3, -0.4])
        cert = check_conditions(ex2.metric, ex2_deltas, 90.0, 4e7,
                                eps=0.4, rho_a=0.1, x0=x0, x0_star=x0_star)
        ratio = math.sqrt(ex2.metric.eig_ceil / ex2.metric.eig_floor)
        assert cert.rho_r == pytest.approx(0.4 + ratio * 0.5)
        assert cert.energy0 > 0.0

    def test_adaptation_margin_is_minus_inf_when_bandwidth_fails(
            self, ex1, ex1_deltas):
        # just above the pole the interference terms blow up (the varying
        # metric keeps the second term strictly positive)
        d, _ = ex1_deltas
        omega = 2.0 * d.rate + 1e-3
        cert = check_conditions(ex1.metric, d, omega, 1e9,
                                eps=0.01, rho_a=0.02,
                                x0=np.zeros(3), x0_star=np.zeros(3))
        assert cert.margin_bandwidth < 0.0
        assert cert.margin_adaptation == -math.inf
        assert not cert.valid

    def test_filter_norms(self, ex2, ex2_deltas):
        cert = check_conditions(ex2.metric, ex2_deltas, 90.0, 4e7,
                                eps=0.4, rho_a=0.1,
                                x0=np.zeros(2), x0_star=np.zeros(2))
        assert cert.filter_gain_norm == 1.0
        assert cert.filter_complement_norm == 2.0
        assert cert.filter_derivative_norm == pytest.approx(2.0 * 90.0)

    def test_transient_radius_evaluators(self, ex2, ex2_deltas):
        x0_star = np.zeros(2)
        cert = check_conditions(ex2.metric, ex2_deltas, 120.0, 1e9,
                                eps=0.4, rho_a=0.1,
                                x0=np.array([0.2, 0.1]), x0_star=x0_star)
        assert cert.mu(0.0) ** 2 == pytest.approx(
            cert.energy0 / cert.alpha_lo + cert.zeta1)
        assert cert.mu(50.0) == pytest.approx(math.sqrt(cert.zeta1),
                                              rel=1e-6)
        assert cert.delta_t(1.0) == cert.mu(1.0) + cert.rho_a
        assert cert.delta_t(5.0) == pytest.approx(cert.mu(5.0) + 0.1)
        # radii only shrink with time
        ts = np.linspace(0.0, 5.0, 30)
        mus = [cert.mu(t) for t in ts]
        assert all(a >= b - 1e-15 for a, b in zip(mus, mus[1:]))


class TestSearch:
    def test_gamma_scales_inverse_square_in_floor_radius(self, ex2,
                                                         ex2_deltas):
        x0 = np.zeros(2)
        r1 = search_params(ex2.metric, ex2_deltas, eps=0.4, rho_a=0.1,
                           x0=x0, x0_star=x0)
        r2 = search_params(ex2.metric, ex2_deltas, eps=0.4, rho_a=0.01,
                           x0=x0, x0_star=x0)
        assert r1.feasible and r2.feasible
        # the first two conditions do not involve the floor radius, so the
        # same bandwidth is selected and the rate scales exactly
        assert r1.omega == r2.omega
        assert r2.gamma / r1.gamma == pytest.approx(100.0, rel=1e-12)

    def test_found_tuning_actually_certifies(self, ex2, ex2_deltas):
        x0 = np.zeros(2)
        res = search_params(ex2.metric, ex2_deltas, eps=0.4, rho_a=0.1,
                            x0=x0, x0_star=x0)
        assert res.feasible
        assert res.certificate is not None
        assert res.certificate.valid

    def test_infeasible_range_reports_binding_condition(self, ex2,
                                                        ex2_deltas):
        x0 = np.zeros(2)
        res = search_params(ex2.metric, ex2_deltas, eps=0.4, rho_a=0.1,
                            x0=x0, x0_star=x0, omega_range=(4.0, 6.0))
        assert not res.feasible
        assert res.binding in ("energy", "bandwidth")

    def test_bad_range_rejected(self, ex2, ex2_deltas):
        with pytest.raises(ValueError):
            search_params(ex2.metric, ex2_deltas, 0.4, 0.1,
                          np.zeros(2), np.zeros(2),
                          omega_range=(5.0, 2.0))


def _per_point_metric_constants(model, field, rho, traj, sampling):
    """Per-point reference for the sampled constants estimate_deltas batches:
    drift, drift-Jacobian and input suprema, metric_grad_sum and
    feedback_per_dist."""
    _, pts = _tube_points(traj, rho, sampling)
    infl, n = sampling.inflation, field.dim
    partials = [field.dual_poly.partial(i) for i in range(n)]
    grad_sum = worst_ratio = 0.0
    for p in pts:
        w = field.dual_poly(p)
        dw = np.stack([d(p) for d in partials])
        m = np.linalg.inv(w)
        grad_sum = max(grad_sum, sum(np.linalg.norm(-m @ dw[i] @ m, 2)
                                     for i in range(n)))
        jac = model.jac_drift(p)
        f_mat = (-np.tensordot(model.drift(p), dw, axes=(0, 0))
                 + jac @ w + (jac @ w).T + 2.0 * field.contraction_rate * w)
        ell = np.linalg.cholesky(w).T
        y = np.linalg.solve(ell.T, f_mat)
        g = np.linalg.solve(ell.T, y.T).T
        top = float(np.linalg.eigvalsh(0.5 * (g + g.T))[-1])
        z = np.linalg.solve(ell.T, model.input_matrix(p))
        sv = np.linalg.svd(z.T, compute_uv=False)
        nonzero = sv[sv > max(1e-10, 1e-12 * sv.max())]
        worst_ratio = max(worst_ratio, top / float(nonzero.min()))
    return {
        "drift_sup": infl * max(np.linalg.norm(model.drift(p)) for p in pts),
        "drift_jac_sup": infl * max(np.linalg.norm(model.jac_drift(p), 2)
                                    for p in pts),
        "input_sup": infl * max(np.linalg.norm(model.input_matrix(p), 2)
                                for p in pts),
        "metric_grad_sum": 0.0 if field.is_constant else grad_sum * infl,
        "feedback_per_dist": max(0.0, 0.5 * worst_ratio) * infl,
    }


@pytest.mark.parametrize("which", ["ex1", "ex2"])
def test_batched_deltas_match_per_point_loop(which, ex1, ex2, ex2_plan):
    sysb = {"ex1": ex1, "ex2": ex2}[which]
    if which == "ex1":
        traj, rho = DesiredTrajectory.constant(np.zeros(3), np.zeros(1),
                                               t_final=10.0, dt=0.01), 0.0514
    else:
        traj, rho = ex2_plan, 0.5
    sampling = TubeSampling(seed=4)
    bounds = dataclasses.replace(sysb.bounds, drift_sup=None,
                                 drift_jac_sup=None, input_sup=None)
    got = estimate_deltas(sysb.model, sysb.metric, bounds, rho, traj,
                          sampling=sampling).as_dict()["constants"]
    ref = _per_point_metric_constants(sysb.model, sysb.metric, rho, traj,
                                      sampling)
    for name, val in ref.items():
        assert got[name] == pytest.approx(val, rel=1e-12, abs=0.0), name


def test_search_solves_the_initial_energy_once(ex1, ex1_deltas,
                                               monkeypatch):
    from ccml1.geodesic import GeodesicSolver

    d, _ = ex1_deltas
    x0, x0_star = np.array([0.01, -0.005, 0.0]), np.zeros(3)
    solves = []
    solve = GeodesicSolver.solve
    monkeypatch.setattr(GeodesicSolver, "solve",
                        lambda self, *a, **kw: solves.append(1)
                        or solve(self, *a, **kw))
    res = search_params(ex1.metric, d, 0.01, 0.02, x0, x0_star)
    assert res.feasible
    assert len(solves) == 1
    # the margins are the ones check_conditions computes on its own
    alone = check_conditions(ex1.metric, d, res.omega, res.gamma, 0.01, 0.02,
                             x0, x0_star)
    assert alone.as_dict() == res.certificate.as_dict()
