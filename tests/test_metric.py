"""Polynomial matrices, metric fields, and the pointwise metric checks."""

import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ccml1.errors import MetricDomainError, MetricValidationError
from ccml1.metric import (_CHUNK, CcmCheckReport, MetricField, PolyMatrix,
                          _inv_batch, ccm_check, sym)
from ccml1.models import DynamicsModel, SafeSet, builtin_example
from ccml1.scenario import (SCHEMA_VERSION, Scenario, _poly_table,
                            canonical_json)
from reference import full_partials, metric_at, to_entry_table

finite = st.floats(min_value=-3.0, max_value=3.0,
                   allow_nan=False, allow_infinity=False)


def _vec3(draw_floats):
    return st.tuples(draw_floats, draw_floats, draw_floats).map(np.array)


def test_sym_is_full_sum():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(sym(a), a + a.T)


class TestPolyMatrix:
    def test_eval_matches_hand_polynomial(self):
        # entry (0,0): 2 + x0*x1, entry (1,1): -x2^2
        pm = PolyMatrix(dim_in=3, shape=(2, 2), terms=[
            ((0, 0, 0), np.array([[2.0, 0.0], [0.0, 0.0]])),
            ((1, 1, 0), np.array([[1.0, 0.0], [0.0, 0.0]])),
            ((0, 0, 2), np.array([[0.0, 0.0], [0.0, -1.0]])),
        ])
        x = np.array([0.5, -2.0, 3.0])
        expect = np.array([[2.0 + 0.5 * -2.0, 0.0], [0.0, -9.0]])
        np.testing.assert_allclose(pm(x), expect, atol=1e-14)

    def test_partial_derivative(self):
        pm = PolyMatrix(dim_in=2, shape=(1, 1), terms=[
            ((2, 1), np.array([[3.0]]))])  # 3 x0^2 x1
        dp0 = pm.partial(0)
        dp1 = pm.partial(1)
        x = np.array([1.5, -0.7])
        np.testing.assert_allclose(dp0(x), [[6.0 * 1.5 * -0.7]])
        np.testing.assert_allclose(dp1(x), [[3.0 * 1.5 ** 2]])

    @given(st.lists(_vec3(finite), min_size=1, max_size=6))
    def test_batch_matches_pointwise(self, points):
        pm = PolyMatrix(dim_in=3, shape=(2, 2), terms=[
            ((0, 0, 0), np.eye(2)),
            ((1, 0, 1), np.array([[0.0, 1.0], [1.0, 0.0]])),
            ((0, 2, 0), np.array([[0.5, 0.0], [0.0, -0.25]])),
        ])
        xs = np.stack(points)
        batch = pm.eval_batch(xs)
        for k, x in enumerate(points):
            np.testing.assert_allclose(batch[k], pm(x), atol=1e-12)

    def test_entry_table_round_trip(self):
        pm = PolyMatrix(dim_in=2, shape=(2, 2), terms=[
            ((0, 0), np.array([[4.26, -0.93], [-0.93, 3.77]])),
            ((1, 0), np.array([[0.1, 0.0], [0.0, 0.0]])),
        ])
        table = to_entry_table(pm)
        back = _poly_table(table, "dual", (2, 2), {"state_dim": 2})
        x = np.array([0.3, -1.2])
        np.testing.assert_allclose(back(x), pm(x), atol=1e-14)

    def test_constant_detection(self):
        const = PolyMatrix(dim_in=2, shape=(1, 1),
                           terms=[((0, 0), np.array([[2.0]]))])
        assert all(p.is_zero for p in (const.partial(0), const.partial(1)))
        varying = PolyMatrix(dim_in=2, shape=(1, 1),
                             terms=[((1, 0), np.array([[2.0]]))])
        assert not varying.partial(0).is_zero


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_inv_batch_matches_numpy(seed):
    rng = np.random.default_rng(seed)
    for n in (2, 3):
        a = rng.normal(size=(4, n, n))
        mats = a @ a.swapaxes(1, 2) + 0.5 * np.eye(n)  # well-conditioned SPD
        np.testing.assert_allclose(_inv_batch(mats), np.linalg.inv(mats),
                                   rtol=1e-9, atol=1e-11)


class TestMetricField:
    def test_metric_inverts_dual(self, ex1):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.uniform(-0.05, 0.05, size=3)
            w = ex1.metric.dual_poly(x)
            m = metric_at(ex1.metric, x)
            np.testing.assert_allclose(m @ w, np.eye(3), atol=1e-11)

    def test_partials_match_finite_differences(self, ex1):
        x = np.array([0.02, -0.01, 0.04])
        dm = full_partials(ex1.metric,
                           ex1.metric.metric_and_partials_batch(x[None])[1])[0]
        eps = 1e-6
        for i in range(3):
            dx = np.zeros(3)
            dx[i] = eps
            fd = (metric_at(ex1.metric, x + dx)
                  - metric_at(ex1.metric, x - dx)) / (2 * eps)
            np.testing.assert_allclose(dm[i], fd, atol=1e-6)

    def test_batch_evaluation_agrees(self, ex1):
        rng = np.random.default_rng(11)
        xs = rng.uniform(-0.05, 0.05, size=(40, 3))
        ms = ex1.metric.metric_batch(xs)
        ms2, dms = ex1.metric.metric_and_partials_batch(xs)
        for k in range(40):
            np.testing.assert_allclose(ms[k], metric_at(ex1.metric, xs[k]),
                                       atol=1e-11)
            np.testing.assert_allclose(ms2[k], ms[k], atol=1e-12)
            one = ex1.metric.metric_and_partials_batch(xs[k:k + 1])[1][0]
            np.testing.assert_allclose(dms[k], one, atol=1e-9)

    def test_constant_field_flagged(self, ex1, ex2):
        assert ex2.metric.is_constant
        assert not ex1.metric.is_constant

    def test_eigenvalue_envelope_on_samples(self, ex1):
        rng = np.random.default_rng(7)
        xs = rng.uniform(-0.05, 0.05, size=(500, 3))
        eigs = np.linalg.eigvalsh(ex1.metric.metric_batch(xs))
        assert eigs[:, 0].min() >= ex1.metric.eig_floor - 1e-9
        assert eigs[:, -1].max() <= ex1.metric.eig_ceil + 1e-9

    def test_envelope_violation_raises(self, ex1):
        bad = MetricField.from_dual_polynomial(
            ex1.metric.dual_poly, contraction_rate=ex1.metric.contraction_rate,
            eig_floor=ex1.metric.eig_ceil,  # impossible envelope
            eig_ceil=ex1.metric.eig_ceil + 0.1,
            domain=ex1.metric.domain, validate=False)
        with pytest.raises(MetricValidationError):
            bad.validate_bounds(n_samples=200, seed=0)


class TestCcmCheck:
    def test_ex1_passes_inside_box(self, ex1):
        rep = ccm_check(ex1.model, ex1.metric, n_samples=2000, seed=0)
        assert rep.passed
        assert rep.contraction_margin > 0

    def test_ex2_passes_on_moderate_box(self, ex2):
        region = SafeSet.box(np.zeros(2), 4.0)
        rep = ccm_check(ex2.model, ex2.metric, region=region,
                        n_samples=2000, seed=0)
        assert rep.passed

    def test_inflated_rate_fails(self, ex2):
        greedy = MetricField.from_dual_polynomial(
            ex2.metric.dual_poly,
            contraction_rate=10.0 * ex2.metric.contraction_rate,
            eig_floor=ex2.metric.eig_floor, eig_ceil=ex2.metric.eig_ceil,
            domain=ex2.metric.domain, validate=False)
        rep = ccm_check(ex2.model, greedy, n_samples=500, seed=0)
        assert not rep.passed
        assert rep.contraction_margin < 0

    def test_report_dict_shape(self, ex2):
        rep = ccm_check(ex2.model, ex2.metric, n_samples=200, seed=1)
        d = rep.as_dict()
        assert set(d) >= {"passed", "eig_margin", "contraction_margin",
                          "killing_margin", "n_samples"}


def _poly_at(poly, x):
    """Per-point reference: sum of coefficient * monomial, term by term."""
    return sum(c * np.prod(x ** np.array(p, dtype=float)) for p, c in poly.terms)


def _two_coordinate_field():
    """3-state dual depending on x0 and x2 but not on x1."""
    c0 = np.array([[2.0, 0.1, 0.0], [0.1, 1.5, 0.2], [0.0, 0.2, 1.8]])
    c1 = np.array([[0.2, 0.1, 0.0], [0.1, 0.0, 0.05], [0.0, 0.05, 0.1]])
    c2 = np.array([[0.0, 0.0, 0.1], [0.0, 0.3, 0.0], [0.1, 0.0, -0.2]])
    c3 = np.array([[0.1, 0.0, 0.0], [0.0, -0.1, 0.02], [0.0, 0.02, 0.0]])
    poly = PolyMatrix(dim_in=3, shape=(3, 3), terms=[
        ((0, 0, 0), c0), ((1, 0, 0), c1), ((0, 0, 1), c2),
        ((1, 0, 1), c3), ((2, 0, 0), 0.5 * c1)])
    return MetricField.from_dual_polynomial(
        poly, contraction_rate=1.0, eig_floor=0.1, eig_ceil=10.0,
        validate=False)


class TestFusedKernel:
    @pytest.mark.parametrize("which", ["ex1", "ex2", "two_coords"])
    def test_matches_per_partial_reference(self, which, ex1, ex2):
        field = {"ex1": ex1.metric, "ex2": ex2.metric,
                 "two_coords": _two_coordinate_field()}[which]
        n = field.dim
        rng = np.random.default_rng(21)
        xs = rng.uniform(-0.5, 0.5, size=(25, n))
        m, dm = field.metric_and_partials_batch(xs)
        dm = full_partials(field, dm)
        partials = [field.dual_poly.partial(i) for i in range(n)]
        for x, m_k, dm_k in zip(xs, m, dm):
            m_ref = np.linalg.inv(_poly_at(field.dual_poly, x))
            scale = np.abs(m_ref).max()
            np.testing.assert_allclose(m_k, m_ref, rtol=0, atol=1e-14 * scale)
            for i in range(n):
                dm_ref = -m_ref @ _poly_at(partials[i], x) @ m_ref
                np.testing.assert_allclose(dm_k[i], dm_ref, rtol=0,
                                           atol=1e-14 * scale)

    def test_active_coordinates(self, ex1, ex2):
        assert _two_coordinate_field().active_coords == [0, 2]
        assert ex1.metric.active_coords == [0]
        assert ex2.metric.active_coords == []

    def test_selected_rows_are_checked_in_order(self):
        # dual 1 - x^2 is positive definite only for |x| < 1
        poly = PolyMatrix(dim_in=1, shape=(1, 1), terms=[
            ((0,), np.array([[1.0]])), ((2,), np.array([[-1.0]]))])
        field = MetricField.from_dual_polynomial(
            poly, contraction_rate=1.0, eig_floor=0.5, eig_ceil=2.0,
            validate=False)
        xs = np.array([[-1.5], [0.0], [2.0]])
        field.metric_and_partials_batch(xs, check_pd=False)
        field.metric_and_partials_batch(xs, check_pd=[1])
        for rows, bad in (([2, 0], 2.0), ([0, 2], -1.5), (True, -1.5)):
            with pytest.raises(MetricDomainError) as err:
                field.metric_and_partials_batch(xs, check_pd=rows)
            np.testing.assert_array_equal(err.value.x, [bad])


# --- stacked ccm_check against the per-point loop it replaced ---------------


def _reference_ccm_check(model, field, region=None, n_samples=10_000, seed=0,
                         slack=1e-8, rank_tol_scale=1e-10):
    """The per-point ccm_check loop: one model call, one tensordot and one
    or two SVDs per sample."""
    region = region if region is not None else field.domain
    rng = np.random.default_rng(seed)
    pts = region.sample(n_samples, rng, include_extremes=True)

    eig_margin = contraction_margin = killing_margin = np.inf
    violations = []
    lam = field.contraction_rate
    ms, dms = field.metric_and_partials_batch(pts)
    dms = full_partials(field, dms)
    eigs = np.linalg.eigvalsh(ms)
    slack_eig = 1e-9 * field.eig_ceil
    for x, m, dm, ev in zip(pts, ms, dms, eigs):
        e_marg = min(ev[0] - field.eig_floor, field.eig_ceil - ev[-1])
        eig_margin = min(eig_margin, e_marg)

        b = model.input_matrix(x)
        jac = model.jac_drift(x)
        fx = model.drift(x)
        d_along_f = np.tensordot(fx, dm, axes=(0, 0))
        contraction_mat = d_along_f + sym(m @ jac) + 2.0 * lam * m

        bm = b.T @ m
        sv = np.linalg.svd(bm, compute_uv=False)
        tol = rank_tol_scale * (sv[0] if sv.size else 1.0)
        rank = int(np.sum(sv > tol))
        c_marg = np.inf
        if rank < field.dim:
            _, _, vt = np.linalg.svd(bm)
            basis = vt[rank:].T
            proj = basis.T @ contraction_mat @ basis
            c_marg = -np.linalg.eigvalsh(proj)[-1]
            contraction_margin = min(contraction_margin, c_marg)

        k_marg = np.inf
        for j in range(model.input_dim):
            col = b[:, j]
            d_along_b = np.tensordot(col, dm, axes=(0, 0))
            col_jac = model.d_input(x)[:, :, j].T
            resid = d_along_b + sym(m @ col_jac)
            k_marg = min(k_marg, -np.linalg.norm(resid, 2))
        killing_margin = min(killing_margin, k_marg)

        if e_marg < -slack_eig or c_marg < -slack or k_marg < -slack:
            violations.append(np.array(x))

    return CcmCheckReport(
        eig_margin=float(eig_margin),
        contraction_margin=float(contraction_margin),
        killing_margin=float(killing_margin),
        n_samples=len(pts), violations=violations,
        tol_eig=slack_eig, tol_contraction=slack, tol_killing=slack)


def _report_bytes(rep):
    return canonical_json(rep.as_dict())


def _greedy_ex2(ex2):
    """ex2's metric at ten times its rate: most samples violate."""
    return MetricField.from_dual_polynomial(
        ex2.metric.dual_poly,
        contraction_rate=10.0 * ex2.metric.contraction_rate,
        eig_floor=ex2.metric.eig_floor, eig_ceil=ex2.metric.eig_ceil,
        domain=ex2.metric.domain, validate=False)


class _GridRegion:
    """Uniform samples in [-0.5, 0.5]^3 with x0 snapped to multiples of
    0.25, so a fifth of them sit on the plane x0 = 0."""

    def sample(self, k, rng, include_extremes=False):
        pts = rng.uniform(-0.5, 0.5, (k, 3))
        pts[:, 0] = np.round(pts[:, 0] * 4.0) / 4.0
        return pts


def _mixed_rank_system():
    """Inline 3-state, 2-input model whose input matrix [[1, 0], [0, x0],
    [x1, 0]] drops to rank 1 on x0 = 0, with a dual metric depending on x0
    and x2: ranks mix within a chunk, and the Killing residual is nonzero."""
    def term(coeff, *powers):
        return {"coeff": coeff, "powers": list(powers)}

    field = _two_coordinate_field()
    doc = {
        "version": SCHEMA_VERSION,
        "name": "mixed-rank",
        "model": {
            "state_dim": 3,
            "input_dim": 2,
            "drift": [[term(-1.0, 1, 0, 0), term(1.0, 0, 0, 1),
                       term(0.5, 0, 2, 0)],
                      [term(1.0, 1, 0, 1), term(-1.0, 0, 1, 0)],
                      [term(-1.0, 0, 1, 0), term(-0.3, 3, 0, 0)]],
            "input_matrix": {"entries": [
                [[term(1.0, 0, 0, 0)], []],
                [[], [term(1.0, 1, 0, 0)]],
                [[term(1.0, 0, 1, 0)], []]]},
        },
        "metric": {"dual": to_entry_table(field.dual_poly), "rate": 1.0,
                   "eig_floor": 0.1, "eig_ceil": 10.0},
        "sim": {"dt": 0.01, "t_final": 1.0},
        "desired": {"kind": "constant", "state": [0.0, 0.0, 0.0],
                    "input": [0.0, 0.0]},
    }
    return Scenario.from_dict(doc).system().model, field


class TestStackedCcmCheck:
    @pytest.mark.parametrize("seed", [0, 1, 17])
    @pytest.mark.parametrize("which", ["ex1", "ex2"])
    def test_builtin_reports_are_byte_identical(self, which, seed, ex1, ex2):
        sysb = {"ex1": ex1, "ex2": ex2}[which]
        got = ccm_check(sysb.model, sysb.metric, seed=seed)
        ref = _reference_ccm_check(sysb.model, sysb.metric, seed=seed)
        assert got.n_samples == 10_000
        assert _report_bytes(got) == _report_bytes(ref)

    def test_mixed_ranks_and_killing_residual(self):
        model, field = _mixed_rank_system()
        region = _GridRegion()
        got = ccm_check(model, field, region=region, n_samples=3000, seed=5)
        ref = _reference_ccm_check(model, field, region=region,
                                   n_samples=3000, seed=5)
        # the case is the one described: both ranks in the first chunk, and
        # a Killing residual that is not zero
        pts = region.sample(3000, np.random.default_rng(5))
        on_plane = pts[:_CHUNK, 0] == 0.0
        assert on_plane.any() and not on_plane.all()
        assert ref.killing_margin < -1e-3
        for name in ("eig_margin", "contraction_margin", "killing_margin"):
            want = getattr(ref, name)
            assert np.isfinite(want)
            assert getattr(got, name) == pytest.approx(want, rel=1e-12,
                                                       abs=0.0), name
        assert len(got.violations) == len(ref.violations) > 0
        np.testing.assert_array_equal(np.array(got.violations),
                                      np.array(ref.violations))

    @pytest.mark.parametrize("n_samples", [1, _CHUNK - 1, _CHUNK, _CHUNK + 1])
    @pytest.mark.parametrize("which", ["ex1", "greedy_ex2"])
    def test_chunk_boundaries(self, which, n_samples, ex1, ex2):
        model, field = ((ex1.model, ex1.metric) if which == "ex1"
                        else (ex2.model, _greedy_ex2(ex2)))
        got = ccm_check(model, field, n_samples=n_samples, seed=3)
        ref = _reference_ccm_check(model, field, n_samples=n_samples, seed=3)
        assert _report_bytes(got) == _report_bytes(ref)
        np.testing.assert_array_equal(np.array(got.violations),
                                      np.array(ref.violations))
        if which == "greedy_ex2" and n_samples > _CHUNK:
            assert got.violations and not got.passed

    def test_black_box_model_takes_the_row_loop(self, ex1):
        m = ex1.model
        calls = []

        def drift(x):
            calls.append(1)
            return m.drift(x)

        black_box = DynamicsModel(m.state_dim, m.input_dim, drift,
                                  m.input_matrix, m.jac_drift, m.d_input)
        assert black_box.vectorized is None
        got = ccm_check(black_box, ex1.metric, n_samples=2000, seed=2)
        assert len(calls) == 2000
        want = ccm_check(m, ex1.metric, n_samples=2000, seed=2)
        assert _report_bytes(got) == _report_bytes(want)

    @pytest.mark.parametrize("broken", ["drift", "input_matrix"])
    def test_non_finite_margins_are_violations(self, broken, ex1):
        # ex1 passes, except where one model callable is made NaN: the
        # margins it enters are NaN exactly there, and those samples fail
        m = ex1.model
        calls = {"drift": m.drift, "input_matrix": m.input_matrix}
        good = calls[broken]
        calls[broken] = lambda x: good(x) * (np.nan if x[0] > 0.04 else 1.0)
        model = DynamicsModel(m.state_dim, m.input_dim, calls["drift"],
                              calls["input_matrix"], m.jac_drift, m.d_input)
        rep = ccm_check(model, ex1.metric, n_samples=1500, seed=0)
        pts = ex1.metric.domain.sample(1500, np.random.default_rng(0),
                                       include_extremes=True)
        nan_pts = pts[pts[:, 0] > 0.04]
        assert 0 < len(nan_pts) < len(pts)
        np.testing.assert_array_equal(np.array(rep.violations), nan_pts)
        assert not rep.passed
        d = rep.as_dict()
        assert d["contraction_margin"] is None
        assert d["eig_margin"] > 0.0
        assert d["killing_margin"] == (0.0 if broken == "drift" else None)
        assert json.loads(canonical_json(d)) == d
