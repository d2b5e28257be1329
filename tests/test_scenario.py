"""Scenario parsing, canonical serialization, and obstacle geometry."""

import json
import math
import warnings

import numpy as np
import pytest

from ccml1.errors import ScenarioError
from ccml1.scenario import (SCHEMA_VERSION, Scenario, _signed_distances,
                            builtin_scenario, canonical_json,
                            tube_obstacle_clearance)
from ccml1.sim import SimConfig
from reference import metric_at


def point_polygon_distance(point, polygon) -> float:
    """Signed distance from one 2-D point to a polygon (negative inside):
    the one-point case of the clearance kernel."""
    p = np.asarray(point, dtype=float)[None, :2]
    return float(_signed_distances(p, polygon)[0])


def _linear_doc(**extra):
    """Minimal inline scenario: damped spring with identity metric."""
    doc = {
        "version": SCHEMA_VERSION,
        "name": "spring",
        "model": {
            "state_dim": 2,
            "input_dim": 1,
            "drift": [
                [{"powers": [0, 1], "coeff": 1.0}],
                [{"powers": [1, 0], "coeff": -1.0},
                 {"powers": [0, 1], "coeff": -1.0}],
            ],
            "input_matrix": {"constant": [[0.0], [1.0]]},
        },
        "metric": {
            "dual": [[[{"powers": [0, 0], "coeff": 1.0}], []],
                     [[], [{"powers": [0, 0], "coeff": 1.0}]]],
            "rate": 0.1,
            "eig_floor": 0.9,
            "eig_ceil": 1.1,
            "domain": {"kind": "box", "center": [0.0, 0.0],
                       "half_widths": [10.0, 10.0]},
        },
        "sim": {"dt": 0.01, "t_final": 1.0},
        "desired": {"kind": "constant", "state": [0.0, 0.0], "input": [0.0]},
    }
    doc.update(extra)
    return doc


class TestCanonicalForm:
    def test_sorted_keys_and_trailing_newline(self):
        text = canonical_json({"b": 1, "a": {"z": 2, "y": 3}})
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"')
        assert text.index('"y"') < text.index('"z"')

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            canonical_json({"x": float("nan")})

    def test_load_dump_round_trip_is_byte_identical(self):
        text = builtin_scenario("ex2").dump()
        again = Scenario.from_text(text).dump()
        assert again == text

    def test_key_order_does_not_matter(self):
        doc = _linear_doc()
        shuffled = json.loads(json.dumps(doc))
        shuffled = dict(reversed(list(shuffled.items())))
        assert Scenario.from_dict(shuffled).dump() == \
            Scenario.from_dict(doc).dump()


class TestStrictParsing:
    def test_version_checked(self):
        with pytest.raises(ScenarioError, match="version"):
            Scenario.from_dict(_linear_doc(version=99))
        doc = _linear_doc()
        del doc["version"]
        with pytest.raises(ScenarioError, match="version"):
            Scenario.from_dict(doc)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ScenarioError, match="typo_section"):
            Scenario.from_dict(_linear_doc(typo_section={}))

    def test_required_sections(self):
        for missing in ("model", "sim"):
            doc = _linear_doc()
            del doc[missing]
            with pytest.raises(ScenarioError, match=missing):
                Scenario.from_dict(doc)

    def test_bad_json_text(self):
        with pytest.raises(ScenarioError, match="JSON"):
            Scenario.from_text("{not json")
        with pytest.raises(ScenarioError):
            Scenario.from_text("[1, 2, 3]")

    def test_unknown_builtin_model(self):
        doc = _linear_doc()
        doc["model"] = {"builtin": "ex3"}
        del doc["metric"]
        with pytest.raises(ScenarioError, match="ex3"):
            Scenario.from_dict(doc)

    def test_bad_bounds_key(self):
        doc = _linear_doc(bounds={"unc_sup": 0.5, "no_such_bound": 1.0})
        with pytest.raises(ScenarioError, match="bounds"):
            Scenario.from_dict(doc)

    def test_sampling_section(self):
        assert Scenario.from_dict(_linear_doc()).ccm_samples() == 10_000
        scn = Scenario.from_dict(_linear_doc(sampling={"ccm_samples": 500}))
        assert scn.ccm_samples() == 500

    @pytest.mark.parametrize("sampling,match", [
        ({"ccm_samples": "abc"}, "positive integer"),
        ({"ccm_samples": -5}, "positive integer"),
        ({"ccm_samples": 0}, "positive integer"),
        ({"ccm_samples": 12.5}, "positive integer"),
        ({"ccm_samples": True}, "positive integer"),
        ({"ccm_smaples": 500}, "ccm_smaples"),
        ([500], "object"),
    ])
    def test_bad_sampling_rejected(self, sampling, match):
        with pytest.raises(ScenarioError, match=match):
            Scenario.from_dict(_linear_doc(sampling=sampling))


class TestInlineSystem:
    def test_dynamics_evaluate(self):
        sysb = Scenario.from_dict(_linear_doc()).system()
        x = np.array([0.3, -0.2])
        np.testing.assert_allclose(sysb.model.drift(x), [-0.2, -0.1])
        np.testing.assert_allclose(sysb.model.jac_drift(x),
                                   [[0.0, 1.0], [-1.0, -1.0]])
        np.testing.assert_allclose(sysb.model.input_matrix(x),
                                   [[0.0], [1.0]])
        np.testing.assert_allclose(sysb.model.d_input(x),
                                   np.zeros((2, 2, 1)))

    def test_metric_and_safe_set(self):
        sysb = Scenario.from_dict(_linear_doc()).system()
        x = np.array([1.0, 2.0])
        np.testing.assert_allclose(metric_at(sysb.metric, x), np.eye(2),
                                   atol=1e-12)
        assert sysb.metric.contraction_rate == pytest.approx(0.1)
        assert sysb.safe_set.contains([9.0, -9.0])
        assert not sysb.safe_set.contains([11.0, 0.0])

    def test_bounds_pass_through(self):
        doc = _linear_doc(bounds={"unc_sup": 0.5, "unc_time_grad_sup": 2.0})
        sysb = Scenario.from_dict(doc).system()
        assert sysb.bounds.unc_sup == 0.5
        assert sysb.bounds.unc_time_grad_sup == 2.0
        assert sysb.bounds.input_sup is None

    def test_polynomial_input_matrix(self):
        doc = _linear_doc()
        doc["model"]["input_matrix"] = {
            "entries": [[[{"powers": [0, 0], "coeff": 0.0}]],
                        [[{"powers": [0, 0], "coeff": 1.0},
                          {"powers": [1, 0], "coeff": 0.5}]]],
        }
        sysb = Scenario.from_dict(doc).system()
        x = np.array([0.4, 7.0])
        np.testing.assert_allclose(sysb.model.input_matrix(x),
                                   [[0.0], [1.2]])
        stack = sysb.model.d_input(x)          # [i] = d(input matrix)/dx_i
        np.testing.assert_allclose(stack[0], [[0.0], [0.5]])
        np.testing.assert_allclose(stack[1], [[0.0], [0.0]])

    @pytest.mark.parametrize("input_matrix", ["constant", "polynomial"])
    def test_vectorized_model_matches_the_callables(self, input_matrix):
        doc = _linear_doc()
        doc["model"]["drift"][0].append({"powers": [2, 1], "coeff": 0.3})
        if input_matrix == "polynomial":
            doc["model"]["input_matrix"] = {
                "entries": [[[{"powers": [0, 1], "coeff": 2.0}]],
                            [[{"powers": [0, 0], "coeff": 1.0},
                              {"powers": [1, 1], "coeff": 0.5}]]]}
        model = Scenario.from_dict(doc).system().model
        xs = np.random.default_rng(4).uniform(-2.0, 2.0, (30, 2))
        got = model.eval_batch(xs)
        want = (np.array([model.drift(x) for x in xs]),
                np.array([model.jac_drift(x) for x in xs]),
                np.array([model.input_matrix(x) for x in xs]),
                np.array([model.d_input(x) for x in xs]))
        for a, b in zip(got, want):
            assert a.shape == b.shape
            np.testing.assert_allclose(a, b, rtol=1e-14, atol=1e-14)
        # the step loop's drift and input matrix carry the callables' bits
        rates = model.rate_batch(xs)
        assert np.array_equal(rates.drift, want[0])
        assert np.array_equal(rates.input, want[2])


class TestUncertaintyFamily:
    def test_full_expression(self):
        fn = Scenario._uncertainty_fn(
            {"amp_sin": 0.3, "freq": 2.0, "state_gain": 0.1,
             "offset": -0.05}, 1)
        t, x = 0.7, np.array([3.0, 4.0])
        expected = 0.3 * math.sin(1.4) + 0.1 * 5.0 - 0.05
        np.testing.assert_allclose(fn(t, x), [expected])

    def test_scalar_broadcasts_over_channels(self):
        fn = Scenario._uncertainty_fn({"amp_sin": 1.0}, 3)
        val = fn(math.pi / 2.0, np.zeros(2))
        np.testing.assert_allclose(val, np.ones(3))

    def test_absent_means_no_uncertainty(self):
        assert Scenario._uncertainty_fn(None, 1) is None
        sysb = Scenario.from_dict(_linear_doc()).system()
        assert sysb.model.uncertainty is None


class TestSections:
    def test_sim_defaults_and_overrides(self):
        cfg = Scenario.from_dict(_linear_doc()).sim_config()
        assert (cfg.dt, cfg.t_final, cfg.seed) == (0.01, 1.0, 0)
        assert cfg.geodesic_intervals == 8
        assert cfg.enforce_domain is True
        assert cfg.divergence_limit == 1e6
        assert cfg == SimConfig(dt=0.01, t_final=1.0)   # its defaults
        doc = _linear_doc(sim={"dt": 0.5, "t_final": 2.0, "seed": 11,
                               "enforce_domain": False,
                               "divergence_limit": 4.0})
        cfg = Scenario.from_dict(doc).sim_config()
        assert (cfg.seed, cfg.enforce_domain, cfg.divergence_limit) == \
            (11, False, 4.0)
        # given keys are converted to the field's type
        doc = _linear_doc(sim={"dt": 0.5, "t_final": 2, "seed": 3.0,
                               "geodesic_intervals": 6.0, "geodesic_tol": 1,
                               "enforce_domain": 0, "divergence_limit": 5})
        cfg = Scenario.from_dict(doc).sim_config()
        assert [(getattr(cfg, key), type(getattr(cfg, key))) for key in (
            "seed", "geodesic_intervals", "geodesic_tol", "enforce_domain",
            "divergence_limit")] == [(3, int), (6, int), (1.0, float),
                                     (False, bool), (5.0, float)]

    def test_every_documented_key_is_accepted(self):
        doc = _linear_doc(
            tube={"eps": 0.3, "rho_a": 0.05},
            l1={"omega": 40.0, "gamma": 1e5, "eps_proj": 0.2,
                "pred_diag": -4.0, "q_diag": 2.0},
            sim={"dt": 0.5, "t_final": 2.0, "seed": 1,
                 "geodesic_intervals": 6, "geodesic_tol": 1e-9,
                 "enforce_domain": False, "divergence_limit": 4.0},
            init={"x0": [0.5, -0.5]},
            sweep={"omega": [10, 20], "gamma": [1e5], "eps": [0.1],
                   "rho_a": [0.1]})
        scn = Scenario.from_dict(doc)
        assert scn.sweep_spec()["eps"] == [0.1]
        np.testing.assert_array_equal(scn.initial_state([0.0, 0.0]),
                                      [0.5, -0.5])

    @pytest.mark.parametrize("section,fields,match", [
        ("sim", {"seed": -1}, "sim.seed"),
        ("sim", {"seed": 1.5}, "sim.seed"),
        ("sim", {"geodesic_intervals": 1}, "sim.geodesic_intervals"),
        ("sim", {"geodesic_tol": 0.0}, "sim.geodesic_tol"),
        ("sim", {"enforce_domain": "no"}, "sim.enforce_domain"),
        ("sim", {"divergence_limit": [1.0]}, "sim.divergence_limit"),
        ("l1", {"eps_proj": "x"}, "l1.eps_proj"),
        ("l1", {"pred_diag": 1.0}, "l1.pred_diag"),
        ("l1", {"q_diag": 0.0}, "l1.q_diag"),
        ("l1", {"omega": [1.0]}, "l1.omega"),
        ("sweep", {"gamma": [1e5, True]}, "sweep.gamma"),
        ("tube", {"epz": 0.3}, "unknown tube keys"),
    ])
    def test_bad_section_values_name_the_key(self, section, fields, match):
        doc = _linear_doc()
        doc[section] = dict(doc.get(section, {}), **fields)
        with pytest.raises(ScenarioError, match=match):
            Scenario.from_dict(doc)

    @pytest.mark.parametrize("section", ["tube", "l1", "sim", "init",
                                         "sweep", "sampling"])
    def test_a_section_must_be_an_object(self, section):
        with pytest.raises(ScenarioError, match=f"'{section}' must be an "
                                                f"object"):
            Scenario.from_dict(_linear_doc(**{section: [1.0]}))

    def test_tube_defaults_and_validation(self):
        assert Scenario.from_dict(_linear_doc()).tube_params() == (0.1, 0.1)
        scn = Scenario.from_dict(_linear_doc(tube={"eps": 0.3,
                                                   "rho_a": 0.05}))
        assert scn.tube_params() == (0.3, 0.05)
        with pytest.raises(ScenarioError):
            Scenario.from_dict(_linear_doc(tube={"eps": -1.0})).tube_params()

    def test_l1_spec_validation(self):
        spec = Scenario.from_dict(_linear_doc()).l1_spec()
        assert spec["omega"] == "auto" and spec["gamma"] == "auto"
        assert spec["eps_proj"] == 0.1
        scn = Scenario.from_dict(_linear_doc(l1={"omega": 40.0,
                                                 "gamma": 1e5}))
        assert scn.l1_spec()["omega"] == 40.0
        for bad in ({"omega": 0.0}, {"gamma": -5.0}, {"omega": "fast"}):
            with pytest.raises(ScenarioError):
                Scenario.from_dict(_linear_doc(l1=bad))

    def test_make_l1_config_wiring(self):
        doc = _linear_doc(l1={"eps_proj": 0.2, "pred_diag": -4.0})
        scn = Scenario.from_dict(doc)
        cfg = scn.make_l1_config(scn.system().model, omega=30.0, gamma=2e5,
                                 unc_bound=0.7)
        assert cfg.bandwidth == 30.0
        assert cfg.adaptation_gain == 2e5
        assert cfg.unc_bound == 0.7
        assert cfg.eps_proj == 0.2
        np.testing.assert_allclose(cfg.pred_matrix, -4.0 * np.eye(2))

    def test_initial_state(self):
        scn = Scenario.from_dict(_linear_doc())
        np.testing.assert_allclose(scn.initial_state([1.0, 2.0]), [1.0, 2.0])
        scn = Scenario.from_dict(_linear_doc(init={"x0": [0.5, -0.5]}))
        np.testing.assert_allclose(scn.initial_state([1.0, 2.0]),
                                   [0.5, -0.5])
        scn = Scenario.from_dict(_linear_doc(init={"x0": [[1.0, 2.0]]}))
        with pytest.raises(ScenarioError):
            scn.initial_state([0.0, 0.0])

    def test_desired_spec_validation(self):
        doc = _linear_doc()
        del doc["desired"]
        with pytest.raises(ScenarioError, match="desired"):
            Scenario.from_dict(doc).desired_spec()
        doc = _linear_doc(desired={"kind": "teleport"})
        with pytest.raises(ScenarioError, match="kind"):
            Scenario.from_dict(doc).desired_spec()

    def test_sweep_spec(self):
        doc = _linear_doc(sweep={"omega": [10, 20], "rho_a": [0.1]})
        spec = Scenario.from_dict(doc).sweep_spec()
        assert spec == {"omega": [10.0, 20.0], "rho_a": [0.1]}
        with pytest.raises(ScenarioError, match="nonempty"):
            Scenario.from_dict(_linear_doc(sweep={"gamma": []})).sweep_spec()

    def test_obstacle_polygon_validation(self):
        doc = _linear_doc(obstacles=[{"polygon": [[0, 0], [1, 0]]}])
        with pytest.raises(ScenarioError, match="three"):
            Scenario.from_dict(doc).obstacles()


class TestBuiltinScenarios:
    def test_ex1_contents(self):
        scn = builtin_scenario("ex1")
        sysb = scn.system()
        assert sysb.model.state_dim == 3 and sysb.model.input_dim == 1
        assert scn.tube_params() == (0.01, 0.02)
        assert scn.l1_spec()["omega"] == 50.0
        assert scn.desired_spec()["kind"] == "constant"
        np.testing.assert_allclose(scn.initial_state(None),
                                   [0.01, -0.01, 0.01])

    def test_ex2_contents(self):
        scn = builtin_scenario("ex2")
        assert scn.system().model.state_dim == 2
        assert scn.tube_params() == (0.4, 0.1)
        assert scn.desired_spec()["kind"] == "plan"
        obs = scn.obstacles()
        assert len(obs) == 1 and obs[0].shape == (4, 2)

    def test_unknown_name(self):
        with pytest.raises(ScenarioError, match="ex9"):
            builtin_scenario("ex9")


class TestSystemBuiltOnce:
    def test_builtin_system_built_once_per_instance(self, monkeypatch):
        import ccml1.scenario as scenario_module
        calls = []
        real = scenario_module.builtin_example

        def counted(name):
            calls.append(name)
            return real(name)

        monkeypatch.setattr(scenario_module, "builtin_example", counted)
        scn = builtin_scenario("ex2")           # from_dict builds once
        assert calls == ["ex2"]
        assert scn.system() is scn.system()
        assert calls == ["ex2"]
        other = Scenario.from_dict(scn.doc)     # a new instance builds anew
        assert calls == ["ex2", "ex2"]
        assert other.system() is not scn.system()

    @pytest.mark.parametrize("verb", ["certify", "check-ccm"])
    def test_seed_override_reuses_the_built_system(self, verb, monkeypatch,
                                                   tmp_path):
        import ccml1.scenario as scenario_module
        from ccml1.cli import main
        calls = []
        real = scenario_module.builtin_example

        def counted(name):
            calls.append(name)
            return real(name)

        monkeypatch.setattr(scenario_module, "builtin_example", counted)
        main([verb, "--builtin", "ex2", "--seed", "3", "--out",
              str(tmp_path)])
        assert calls == ["ex2"]
        scn = builtin_scenario("ex2")
        reseeded = scn.with_seed(3)
        assert reseeded.system() is scn.system()
        assert reseeded.sim_config().seed == 3
        assert scn.sim_config().seed == 0

    def test_inline_system_built_once_per_instance(self, monkeypatch):
        calls = []
        real = Scenario._inline_system

        def counted(self, model_doc):
            calls.append(id(self))
            return real(self, model_doc)

        monkeypatch.setattr(Scenario, "_inline_system", counted)
        scn = Scenario.from_dict(_linear_doc())
        for _ in range(3):
            assert scn.system() is scn.system()
        assert calls == [id(scn)]

    def test_cache_is_not_part_of_the_value(self):
        a, b = Scenario.from_dict(_linear_doc()), Scenario(doc=_linear_doc())
        assert a == b
        assert "_system" not in repr(a)


class TestObstacleGeometry:
    SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])

    @pytest.mark.parametrize("point,expected", [
        ([0.5, 0.5], -0.5),        # center: half a side from every edge
        ([0.9, 0.5], -0.1),
        ([2.0, 0.5], 1.0),         # outside, facing an edge
        ([2.0, 2.0], math.sqrt(2.0)),  # outside, nearest is a corner
        ([1.0, 0.5], 0.0),         # on the boundary
        ([-3.0, 0.5], 3.0),
    ])
    def test_signed_distance(self, point, expected):
        assert point_polygon_distance(np.array(point), self.SQUARE) == \
            pytest.approx(expected, abs=1e-12)

    def test_nonconvex_polygon(self):
        # L-shape: the notch at (1, 1) is outside the polygon
        ell = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [1.0, 1.0],
                        [1.0, 2.0], [0.0, 2.0]])
        assert point_polygon_distance(np.array([1.5, 1.5]), ell) == \
            pytest.approx(0.5)
        assert point_polygon_distance(np.array([0.5, 1.5]), ell) == \
            pytest.approx(-0.5)

    def test_clearance_reduces_by_radius(self):
        states = np.array([[-1.0, 0.5], [-2.0, 0.5]])
        got = tube_obstacle_clearance(states, 0.25, [self.SQUARE])
        assert got == pytest.approx(0.75)
        assert tube_obstacle_clearance(states, 0.25, []) == math.inf
        inside = np.array([[0.5, 0.5]])
        assert tube_obstacle_clearance(inside, 0.25, [self.SQUARE]) == \
            pytest.approx(-0.75)

    def test_shipped_obstacle_clears_the_shipped_tube(self, ex2_plan):
        scn = builtin_scenario("ex2")
        rho = 0.5   # reference radius 0.4 plus adaptation floor 0.1
        worst = tube_obstacle_clearance(ex2_plan.states, rho,
                                        scn.obstacles())
        assert 0.05 < worst < 0.09


# --- array-wise clearance --------------------------------------------------------


def _reference_point_polygon_distance(point, polygon):
    """The per-point, per-edge loop the array version replaced."""
    p = np.asarray(point, dtype=float)[:2]
    verts = np.asarray(polygon, dtype=float)
    k = verts.shape[0]
    dmin = math.inf
    inside = False
    for i in range(k):
        a, b = verts[i], verts[(i + 1) % k]
        ab = b - a
        tt = float(np.clip((p - a) @ ab / max(ab @ ab, 1e-300), 0.0, 1.0))
        dmin = min(dmin, float(np.linalg.norm(p - (a + tt * ab))))
        if ((a[1] > p[1]) != (b[1] > p[1])):
            x_cross = a[0] + (p[1] - a[1]) * (b[0] - a[0]) / (b[1] - a[1])
            if p[0] < x_cross:
                inside = not inside
    return -dmin if inside else dmin


def _reference_clearance(states_star, rho, obstacles):
    worst = math.inf
    for poly in obstacles:
        for xs in states_star:
            worst = min(worst, _reference_point_polygon_distance(xs, poly)
                        - rho)
    return worst


class TestArrayClearance:
    POLYGONS = [
        # square and rectangle: horizontal edges
        np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
        np.array([[0.2, -5.0], [1.6, -5.0], [1.6, -4.72], [0.2, -4.72]]),
        # non-convex L with a notch, and a skew triangle
        np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [1.0, 1.0],
                  [1.0, 2.0], [0.0, 2.0]]),
        np.array([[-1.0, 0.3], [0.7, -0.9], [0.4, 1.3]]),
    ]

    @classmethod
    def _points(cls, poly, rng):
        # vertices, edge midpoints and thirds, points level with vertices
        # (rays through them), and random points around the polygon
        nxt = np.roll(poly, -1, axis=0)
        lo, hi = poly.min(axis=0) - 1.0, poly.max(axis=0) + 1.0
        level = np.column_stack([rng.uniform(lo[0], hi[0], len(poly)),
                                 poly[:, 1]])
        return np.vstack([poly, 0.5 * (poly + nxt), poly + (nxt - poly) / 3.0,
                          level, rng.uniform(lo, hi, (400, 2))])

    @pytest.mark.parametrize("index", range(4))
    def test_each_point_equals_the_per_point_loop(self, index):
        poly = self.POLYGONS[index]
        pts = self._points(poly, np.random.default_rng(index))
        with warnings.catch_warnings():
            warnings.simplefilter("error")       # no RuntimeWarning either
            got = [point_polygon_distance(p, poly) for p in pts]
        want = [_reference_point_polygon_distance(p, poly) for p in pts]
        assert got == want
        assert min(got) < 0.0 < max(got)

    def test_clearance_equals_the_per_point_loop(self):
        rng = np.random.default_rng(9)
        pts = np.vstack([self._points(poly, rng) for poly in self.POLYGONS])
        for rho in (0.0, 0.3):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = tube_obstacle_clearance(pts, rho, self.POLYGONS)
            assert got == _reference_clearance(pts, rho, self.POLYGONS)
            # a single obstacle far away from the points
            far = [self.POLYGONS[0] + 50.0]
            assert tube_obstacle_clearance(pts, rho, far) == \
                _reference_clearance(pts, rho, far)

    def test_shipped_plan_clearance_equals_the_per_point_loop(
            self, ex2_plan_fine):
        obstacles = builtin_scenario("ex2").obstacles()
        assert tube_obstacle_clearance(ex2_plan_fine.states, 0.5, obstacles) \
            == _reference_clearance(ex2_plan_fine.states, 0.5, obstacles)


# --- strict desired and obstacles sections, metric definiteness ----------------


class TestStrictPlannerInputs:
    PLAN = {"kind": "plan", "start": [1.0, -1.0], "target": [0.0, 0.0],
            "t_final": 1.0, "dt": 0.1}

    def test_valid_sections_parse(self):
        scn = Scenario.from_dict(_linear_doc(
            desired=dict(self.PLAN),
            obstacles=[{"polygon": [[0, 0], [1, 0], [1, 1]]}]))
        assert scn.desired_spec()["kind"] == "plan"
        np.testing.assert_array_equal(scn.obstacles()[0][2], [1.0, 1.0])

    @pytest.mark.parametrize("desired,match", [
        ({"kind": "constant", "state": [0.0, 0.0]}, "needs keys"),
        ({"kind": "constant", "state": [0.0, 0.0], "input": [0.0],
          "start": [0.0, 0.0]}, "unknown desired keys"),
        ({"kind": "constant", "state": [0.0], "input": [0.0]}, "state_dim"),
        ({"kind": "constant", "state": [0.0, 0.0], "input": [0.0, 1.0]},
         "input_dim"),
        ({"kind": "constant", "state": [0.0, float("inf")], "input": [0.0]},
         "finite"),
        ({"kind": "constant", "state": [0.0, True], "input": [0.0]},
         "finite"),
        ({"kind": "plan", "start": [1.0, -1.0], "target": [0.0, 0.0],
          "t_final": 1.0}, "needs keys"),
        ({"kind": "plan", "start": "abc", "target": [0.0, 0.0],
          "t_final": 1.0, "dt": 0.1}, "desired.start"),
        ({"kind": "plan", "start": [1.0, "-1"], "target": [0.0, 0.0],
          "t_final": 1.0, "dt": 0.1}, "desired.start"),
        ({"kind": "plan", "start": [1.0, -1.0], "target": [0.0, 0.0],
          "t_finale": 1.0, "dt": 0.1}, "t_finale"),
        ({"kind": "plan", "start": [1.0, -1.0], "target": [0.0, 0.0],
          "t_final": 1.0, "dt": 0.0}, "desired.dt"),
        ({"kind": "plan", "start": [1.0, -1.0], "target": [0.0, 0.0],
          "t_final": float("nan"), "dt": 0.1}, "desired.t_final"),
        ([1.0, 2.0], "object"),
    ])
    def test_bad_desired_rejected_at_parse(self, desired, match):
        with pytest.raises(ScenarioError, match=match):
            Scenario.from_dict(_linear_doc(desired=desired))

    @pytest.mark.parametrize("obstacles,match", [
        ({"polygon": [[0, 0], [1, 0], [1, 1]]}, "list"),
        ([[[0, 0], [1, 0], [1, 1]]], "only a 'polygon'"),
        ([{"polygon": [[0, 0], [1, 0], [1, 1]], "name": "rock"}],
         "only a 'polygon'"),
        ([{"polygon": [[0, 0], [1, 0]]}], "three"),
        ([{"polygon": [[0, 0], [1, 0], [1, 1, 1]]}], "vertex"),
        ([{"polygon": [[0, 0], [1, 0], ["a", 1]]}], "vertex"),
        ([{"polygon": "square"}], "three"),
    ])
    def test_bad_obstacles_rejected_at_parse(self, obstacles, match):
        with pytest.raises(ScenarioError, match=match):
            Scenario.from_dict(_linear_doc(obstacles=obstacles))

    def test_desired_is_optional_until_used(self):
        doc = _linear_doc()
        del doc["desired"]
        scn = Scenario.from_dict(doc)
        with pytest.raises(ScenarioError, match="desired"):
            scn.desired_spec()


class TestMetricDefiniteness:
    @staticmethod
    def _doc(dual_terms, eig=(0.1, 10.0)):
        return {
            "version": SCHEMA_VERSION, "name": "scalar",
            "model": {"state_dim": 1, "input_dim": 1,
                      "drift": [[{"powers": [1], "coeff": -1.0}]],
                      "input_matrix": {"constant": [[1.0]]}},
            "metric": {"dual": [[dual_terms]], "rate": 0.5,
                       "eig_floor": eig[0], "eig_ceil": eig[1],
                       "domain": {"kind": "box", "center": [0.0],
                                  "half_widths": [2.0]}},
            "sim": {"dt": 0.01, "t_final": 1.0},
        }

    def test_non_positive_definite_dual_names_the_point(self):
        # 1 - x^2 is negative on most of the box of half-width 2
        doc = self._doc([{"powers": [0], "coeff": 1.0},
                         {"powers": [2], "coeff": -1.0}])
        with pytest.raises(ScenarioError, match=r"positive definite at x = "
                                                r"\[-?2\.0\]"):
            Scenario.from_dict(doc)

    def test_declared_envelope_violation_is_a_scenario_error(self):
        # dual 2 is the metric 0.5, outside the declared [0.9, 1.1]
        doc = self._doc([{"powers": [0], "coeff": 2.0}], eig=(0.9, 1.1))
        with pytest.raises(ScenarioError, match="envelope"):
            Scenario.from_dict(doc)
