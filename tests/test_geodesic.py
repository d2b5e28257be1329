"""Geodesic solves: exactness on constant metrics, energy properties,
convergence behavior, and domain handling."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ccml1.errors import GeodesicDomainError, MetricDomainError
from ccml1.geodesic import GeodesicSolver
from ccml1.metric import MetricField, PolyMatrix
from ccml1.models import SafeSet

coord = st.floats(min_value=-2.0, max_value=2.0,
                  allow_nan=False, allow_infinity=False)


def _flat_field(w=None, dim=2):
    """Constant dual metric -> geodesics are straight lines with a closed-form
    energy (q - p)^T M (q - p)."""
    w = np.eye(dim) if w is None else np.asarray(w, dtype=float)
    poly = PolyMatrix(dim_in=dim, shape=(dim, dim),
                      terms=[((0,) * dim, w)])
    return MetricField.from_dual_polynomial(
        poly, contraction_rate=1.0,
        eig_floor=0.9 / np.linalg.eigvalsh(w)[-1],
        eig_ceil=1.1 / np.linalg.eigvalsh(w)[0],
        domain=SafeSet.box(np.zeros(dim), 10.0), validate=False)


FROZEN_EX1_ENERGY = 0.0014054481683733534   # [0.01,-0.01,0.01] -> origin
FROZEN_EX2_ENERGY = 0.24810303185853522     # [1,0] -> origin


def test_frozen_energy_values(ex1, ex2):
    c1 = GeodesicSolver(ex1.metric).solve(np.array([0.01, -0.01, 0.01]),
                                          np.zeros(3))
    assert c1.converged
    assert c1.energy == pytest.approx(FROZEN_EX1_ENERGY, rel=1e-9)
    c2 = GeodesicSolver(ex2.metric).solve(np.array([1.0, 0.0]), np.zeros(2))
    assert c2.energy == pytest.approx(FROZEN_EX2_ENERGY, rel=1e-12)


class TestConstantMetricExactness:
    W = np.array([[4.26, -0.93], [-0.93, 3.77]])

    def _closed_form(self, field, p, q):
        m = field.metric(p)  # constant, any evaluation point works
        d = q - p
        return float(d @ m @ d)

    def test_shortcut_path_is_exact(self):
        field = _flat_field(self.W)
        solver = GeodesicSolver(field)
        rng = np.random.default_rng(42)
        for _ in range(200):
            p, q = rng.uniform(-2.0, 2.0, size=(2, 2))
            curve = solver.solve(p, q)
            assert curve.iterations == 0  # recognized as exactly solvable
            assert abs(curve.energy - self._closed_form(field, p, q)) \
                <= 1e-8 * max(1.0, curve.energy)
            # straight line through state space
            chord = p + curve.s_nodes[:, None] * (q - p)
            np.testing.assert_allclose(curve.states, chord, atol=1e-12)

    def test_generic_newton_path_matches_shortcut(self):
        field = _flat_field(self.W)
        generic = GeodesicSolver(field, allow_shortcuts=False)
        rng = np.random.default_rng(7)
        for _ in range(50):
            p, q = rng.uniform(-2.0, 2.0, size=(2, 2))
            curve = generic.solve(p, q)
            assert curve.converged
            assert abs(curve.energy - self._closed_form(field, p, q)) \
                <= 1e-8 * max(1.0, curve.energy)

    @given(coord, coord, st.floats(min_value=0.1, max_value=2.0))
    def test_energy_is_quadratic_in_the_gap(self, px, py, scale):
        field = _flat_field()
        solver = GeodesicSolver(field)
        p = np.array([px, py])
        d = np.array([0.3, -0.4])
        base = solver.solve(p, p + d).energy
        scaled = solver.solve(p, p + scale * d).energy
        assert scaled == pytest.approx(scale ** 2 * base, rel=1e-9,
                                       abs=1e-12)


class TestVaryingMetric:
    def test_energy_within_eigenvalue_envelope(self, ex1):
        solver = GeodesicSolver(ex1.metric)
        rng = np.random.default_rng(1)
        for _ in range(100):
            p, q = rng.uniform(-0.05, 0.05, size=(2, 3))
            curve = solver.solve(p, q)
            gap2 = float((q - p) @ (q - p))
            assert curve.energy >= ex1.metric.eig_floor * gap2 * (1 - 1e-9)
            assert curve.energy <= ex1.metric.eig_ceil * gap2 * (1 + 1e-9)

    def test_symmetry(self, ex1):
        solver = GeodesicSolver(ex1.metric)
        p = np.array([0.03, -0.02, 0.04])
        q = np.array([-0.04, 0.01, -0.02])
        assert solver.solve(p, q).energy == pytest.approx(
            solver.solve(q, p).energy, rel=1e-8)

    def test_beats_straight_line_parametrization(self, ex1):
        # the optimized path can only lower the energy functional relative
        # to the chord evaluated on the same quadrature
        solver = GeodesicSolver(ex1.metric)
        p = np.array([0.045, -0.045, 0.045])
        q = -p
        curve = solver.solve(p, q)
        chord = p + solver.s_nodes[:, None] * (q - p)
        e_chord = solver._eval(chord)[0]
        assert curve.energy <= e_chord + 1e-12

    def test_warm_start_reuses_previous_curve(self, ex1):
        solver = GeodesicSolver(ex1.metric)
        p = np.array([0.04, -0.03, 0.02])
        cold = solver.solve(p, np.zeros(3))
        warm = solver.solve(p * 0.999, np.zeros(3), warm=cold)
        assert warm.converged
        assert warm.iterations <= cold.iterations

    def test_degenerate_endpoints(self, ex1):
        curve = GeodesicSolver(ex1.metric).solve(np.zeros(3), np.zeros(3))
        assert curve.energy == 0.0
        assert curve.converged


class TestDomainHandling:
    def test_outside_domain_raises(self, ex1):
        with pytest.raises(GeodesicDomainError):
            GeodesicSolver(ex1.metric).solve(np.zeros(3),
                                             np.array([0.2, 0.0, 0.0]))

    @pytest.mark.parametrize("p,q,named", [
        ([0.2, 0.0, 0.0], [0.0, 0.3, 0.0], "0.2"),   # both out: p first
        ([0.0, 0.0, 0.0], [0.0, 0.3, 0.0], "0.3"),
        ([0.0, -0.4, 0.0], [0.0, 0.0, 0.0], "-0.4"),
    ])
    def test_outside_endpoint_is_named(self, ex1, p, q, named):
        with pytest.raises(GeodesicDomainError, match=f"endpoint .*{named}"):
            GeodesicSolver(ex1.metric).solve(np.array(p), np.array(q))
        # the box boundary itself, up to the 1e-9 slack, is inside
        GeodesicSolver(ex1.metric).solve(np.zeros(3),
                                         np.full(3, 0.05 + 5e-10))

    def test_enforcement_can_be_disabled(self, ex1):
        curve = GeodesicSolver(ex1.metric, enforce_domain=False).solve(
            np.zeros(3), np.array([0.06, 0.0, 0.0]))
        assert np.isfinite(curve.energy)

    def test_non_finite_endpoint_rejected(self, ex1):
        with pytest.raises(GeodesicDomainError):
            GeodesicSolver(ex1.metric).solve(np.zeros(3),
                                             np.array([np.nan, 0.0, 0.0]))

    def test_upper_bound_flag(self, ex2):
        # clean solves always sit inside the declared eigenvalue envelope
        clean = GeodesicSolver(ex2.metric).solve(np.array([4.5, 4.5]),
                                                 np.array([-4.5, -4.5]))
        assert not clean.exceeds_upper_bound
        # ... and the flag fires when the declared ceiling understates the
        # metric (a mis-specified certificate input)
        lying = MetricField.from_dual_polynomial(
            ex2.metric.dual_poly,
            contraction_rate=ex2.metric.contraction_rate,
            eig_floor=ex2.metric.eig_floor,
            eig_ceil=0.5 * ex2.metric.eig_floor,
            domain=ex2.metric.domain, validate=False)
        curve = GeodesicSolver(lying).solve(np.array([1.0, 0.0]),
                                            np.zeros(2))
        assert curve.exceeds_upper_bound


def test_endpoint_velocities_match_difference_for_flat_metric():
    field = _flat_field()
    solver = GeodesicSolver(field)
    p = np.array([1.0, -1.0])
    q = np.array([-0.5, 0.5])
    curve = solver.solve(p, q)
    np.testing.assert_allclose(curve.endpoint_velocity("start"), q - p,
                               atol=1e-10)
    np.testing.assert_allclose(curve.endpoint_velocity("end"), q - p,
                               atol=1e-10)


class TestEndpointDefiniteness:
    @staticmethod
    def _field():
        # dual 1 - x^2 is positive definite only for |x| < 1
        poly = PolyMatrix(dim_in=1, shape=(1, 1), terms=[
            ((0,), np.array([[1.0]])), ((2,), np.array([[-1.0]]))])
        return MetricField.from_dual_polynomial(
            poly, contraction_rate=1.0, eig_floor=0.5, eig_ceil=2.0,
            domain=SafeSet.box(np.zeros(1), 0.5), validate=False)

    @pytest.mark.parametrize("p, q, bad", [
        (0.0, 1.5, 1.5),      # actual state outside the definite region
        (1.5, 0.0, 1.5),      # desired state outside it
        (-1.2, 1.5, 1.5),     # both: the actual state is named
        (1.5, 1.5, 1.5),      # degenerate gap
    ])
    def test_non_pd_endpoint_raises_without_domain_enforcement(self, p, q,
                                                                bad):
        solver = GeodesicSolver(self._field(), enforce_domain=False)
        with pytest.raises(MetricDomainError) as err:
            solver.solve(np.array([p]), np.array([q]))
        np.testing.assert_array_equal(err.value.x, [bad])

    def test_curve_carries_endpoint_metrics(self, ex1, ex2):
        for field, p, q in ((ex1.metric, np.array([0.01, -0.02, 0.03]),
                             np.zeros(3)),
                            (ex2.metric, np.array([1.0, -2.0]),
                             np.zeros(2)),
                            (self._field(), np.array([0.4]),
                             np.array([-0.3]))):
            curve = GeodesicSolver(field).solve(p, q)
            np.testing.assert_allclose(curve.endpoint_metric("start"),
                                       field.metric(p), rtol=1e-14)
            np.testing.assert_allclose(curve.endpoint_metric("end"),
                                       field.metric(q), rtol=1e-14)
        with pytest.raises(ValueError):
            curve.endpoint_metric("middle")
