"""Scenario files: a single versioned JSON document describing one experiment.

A scenario names the plant (a builtin or an inline polynomial definition),
the metric, the assumed bounds, the tube slacks, the filter/adaptation
tuning (numbers or "auto"), the integration settings, and optionally a
planning problem and polygonal obstacles.  Parsing is strict; serialization
is canonical (sorted keys, two-space indent, trailing newline) so that
load -> dump round-trips byte-identically.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import MetricDomainError, MetricValidationError, ScenarioError
from .l1_control import L1Config
from .metric import MetricField, PolyMatrix
from .models import (AssumptionBounds, BuiltinSystem, DesiredTrajectory,
                     DynamicsModel, ModelBatch, SafeSet, builtin_example,
                     row_dot)
from .sim import SimConfig

SCHEMA_VERSION = 1

_TOP_KEYS = {"version", "name", "model", "metric", "bounds", "tube", "l1",
             "sim", "init", "desired", "obstacles", "outputs", "sweep",
             "sampling"}
_SAMPLING_KEYS = {"ccm_samples"}
# desired kind -> its keys (all required) and which vectors have which length
_DESIRED_KEYS = {"constant": {"kind", "state", "input"},
                 "plan": {"kind", "start", "target", "t_final", "dt"}}
_DESIRED_VECTORS = {"state": "state_dim", "input": "input_dim",
                    "start": "state_dim", "target": "state_dim"}
_OBSTACLE_KEYS = {"polygon"}


def canonical_json(doc: dict) -> str:
    """The one true serialization: sorted keys, 2-space indent, newline."""
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _require(cond: bool, msg: str):
    if not cond:
        raise ScenarioError(msg)


def _is_finite_number(val) -> bool:
    return (isinstance(val, (int, float)) and not isinstance(val, bool)
            and math.isfinite(val))


def _vector(val, length: int, name: str) -> np.ndarray:
    """A list of ``length`` finite numbers, as a float array."""
    _require(isinstance(val, list) and len(val) == length
             and all(_is_finite_number(v) for v in val),
             f"{name} must be a list of {length} finite numbers")
    return np.array(val, dtype=float)


def _num(doc: dict, key: str, default=None, positive=False):
    val = doc.get(key, default)
    _require(val is not None, f"missing numeric field '{key}'")
    _require(isinstance(val, (int, float)) and math.isfinite(val),
             f"field '{key}' must be a finite number")
    if positive:
        _require(val > 0, f"field '{key}' must be positive")
    return float(val)


@dataclass
class Scenario:
    """Parsed scenario plus lazily built runtime objects."""

    doc: dict
    _system: BuiltinSystem | None = dc_field(default=None, init=False,
                                             repr=False, compare=False)

    # -- parsing -------------------------------------------------------------

    @classmethod
    def from_text(cls, text: str) -> "Scenario":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"not valid JSON: {exc}") from exc
        return cls.from_dict(doc)

    @classmethod
    def from_dict(cls, doc: dict) -> "Scenario":
        _require(isinstance(doc, dict), "scenario must be a JSON object")
        _require(doc.get("version") == SCHEMA_VERSION,
                 f"unsupported scenario version {doc.get('version')!r} "
                 f"(expected {SCHEMA_VERSION})")
        unknown = set(doc) - _TOP_KEYS
        _require(not unknown, f"unknown scenario keys: {sorted(unknown)}")
        _require("model" in doc, "scenario needs a 'model' section")
        _require("sim" in doc, "scenario needs a 'sim' section")
        scn = cls(doc=doc)
        sysb = scn.system()   # force validation of the heavy sections
        scn.sim_config()
        scn.l1_spec()
        scn.ccm_samples()
        if "desired" in doc:
            scn.desired_spec(sysb.model)
        scn.obstacles()
        return scn

    @classmethod
    def load(cls, path: str) -> "Scenario":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_text(fh.read())

    def dump(self) -> str:
        return canonical_json(self.doc)

    @property
    def name(self) -> str:
        return str(self.doc.get("name", "scenario"))

    # -- model/metric ----------------------------------------------------------

    def system(self) -> BuiltinSystem:
        """The plant, metric and bounds, built once per instance."""
        if self._system is None:
            self._system = self._build_system()
        return self._system

    def _build_system(self) -> BuiltinSystem:
        model_doc = self.doc["model"]
        _require(isinstance(model_doc, dict), "'model' must be an object")
        if "builtin" in model_doc:
            name = model_doc["builtin"]
            _require(name in ("ex1", "ex2"),
                     f"unknown builtin model {name!r}")
            return builtin_example(name)
        return self._inline_system(model_doc)

    def _inline_system(self, model_doc: dict) -> BuiltinSystem:
        for key in ("state_dim", "input_dim", "drift", "input_matrix"):
            _require(key in model_doc, f"inline model needs '{key}'")
        n = int(model_doc["state_dim"])
        m = int(model_doc["input_dim"])
        _require(n >= 1 and m >= 1, "dimensions must be at least 1")

        drift_table = [[entry] for entry in model_doc["drift"]]
        drift_poly = PolyMatrix.from_entry_table(n, drift_table)
        _require(drift_poly.shape == (n, 1), "drift must have state_dim rows")
        drift_partials = [drift_poly.partial(i) for i in range(n)]

        def drift(x):
            return drift_poly(x)[:, 0]

        def jac(x):
            return np.column_stack([dp(x)[:, 0] for dp in drift_partials])

        bdoc = model_doc["input_matrix"]
        if "constant" in bdoc:
            b_const = np.asarray(bdoc["constant"], dtype=float)
            _require(b_const.shape == (n, m),
                     "input matrix shape must be (state_dim, input_dim)")
            b_poly = PolyMatrix(n, (n, m), [((0,) * n, b_const)])
            input_matrix = lambda x, b=b_const: b
            d_input = lambda x: np.zeros((n, n, m))
        else:
            b_poly = PolyMatrix.from_entry_table(n, bdoc["entries"])
            _require(b_poly.shape == (n, m), "input matrix entry table shape")
            input_matrix = b_poly.__call__
            d_input = lambda x: np.stack([bp(x) for bp in b_partials])
        b_partials = [b_poly.partial(i) for i in range(n)]

        # drift with its partials, and the input matrix with its partials,
        # each as one stacked polynomial: a batch costs two evaluations
        drift_stack = PolyMatrix.vstack([drift_poly] + drift_partials)
        b_stack = PolyMatrix.vstack([b_poly] + b_partials)

        def vectorized(xs):
            k = xs.shape[0]
            f = drift_stack.eval_batch(xs).reshape(k, n + 1, n)
            b = b_stack.eval_batch(xs).reshape(k, n + 1, n, m)
            return ModelBatch(f[:, 0], f[:, 1:].swapaxes(1, 2), b[:, 0],
                              b[:, 1:])

        unc = self._uncertainty_fn(model_doc.get("uncertainty"), m)
        model = DynamicsModel(state_dim=n, input_dim=m, drift=drift,
                              input_matrix=input_matrix, jac_drift=jac,
                              d_input=d_input, uncertainty=unc,
                              vectorized=vectorized)

        metric_doc = self.doc.get("metric")
        _require(metric_doc is not None, "inline model needs a 'metric'")
        domain = (SafeSet.from_dict(metric_doc["domain"])
                  if "domain" in metric_doc else None)
        dual = PolyMatrix.from_entry_table(n, metric_doc["dual"])
        _require(dual.shape == (n, n), "metric dual table must be square")
        try:
            field = MetricField.from_dual_polynomial(
                dual, contraction_rate=_num(metric_doc, "rate", positive=True),
                eig_floor=_num(metric_doc, "eig_floor", positive=True),
                eig_ceil=_num(metric_doc, "eig_ceil", positive=True),
                domain=domain)
        except MetricDomainError as exc:
            at = "" if exc.x is None else f" at x = {exc.x.tolist()}"
            raise ScenarioError(f"metric dual is not positive definite{at} "
                                f"inside metric.domain") from exc
        except MetricValidationError as exc:
            raise ScenarioError(f"metric: {exc}") from exc

        try:
            bounds = AssumptionBounds(**self.doc.get("bounds", {}))
        except TypeError as exc:
            raise ScenarioError(f"bad 'bounds' section: {exc}") from exc
        safe = domain if domain is not None else SafeSet.ball(np.zeros(n),
                                                              np.inf)
        return BuiltinSystem(model, field, bounds, safe)

    @staticmethod
    def _uncertainty_fn(doc, m: int):
        """Disturbance family: per-channel a*sin(freq*t) + c*|x| + b."""
        if doc is None:
            return None
        amp = np.atleast_1d(np.asarray(doc.get("amp_sin", 0.0), dtype=float))
        freq = float(doc.get("freq", 1.0))
        gain = np.atleast_1d(np.asarray(doc.get("state_gain", 0.0),
                                        dtype=float))
        off = np.atleast_1d(np.asarray(doc.get("offset", 0.0), dtype=float))
        amp, gain, off = (np.broadcast_to(v, (m,)).astype(float)
                          for v in (amp, gain, off))

        def h(t, x):
            return amp * math.sin(freq * t) + gain * np.linalg.norm(x) + off

        return h

    # -- sections ----------------------------------------------------------------

    def sim_config(self) -> SimConfig:
        sdoc = self.doc["sim"]
        return SimConfig(
            dt=_num(sdoc, "dt", positive=True),
            t_final=_num(sdoc, "t_final", positive=True),
            seed=int(sdoc.get("seed", 0)),
            geodesic_intervals=int(sdoc.get("geodesic_intervals", 8)),
            geodesic_tol=float(sdoc.get("geodesic_tol", 1e-8)),
            enforce_domain=bool(sdoc.get("enforce_domain", True)),
            divergence_limit=float(sdoc.get("divergence_limit", 1e6)))

    def tube_params(self) -> tuple[float, float]:
        tdoc = self.doc.get("tube", {})
        return (_num(tdoc, "eps", default=0.1, positive=True),
                _num(tdoc, "rho_a", default=0.1, positive=True))

    def l1_spec(self) -> dict:
        """Raw tuning: omega/gamma may be the string 'auto'."""
        ldoc = self.doc.get("l1", {})
        out = {
            "omega": ldoc.get("omega", "auto"),
            "gamma": ldoc.get("gamma", "auto"),
            "eps_proj": float(ldoc.get("eps_proj", 0.1)),
            "pred_diag": float(ldoc.get("pred_diag", -10.0)),
            "q_diag": float(ldoc.get("q_diag", 1.0)),
        }
        for key in ("omega", "gamma"):
            val = out[key]
            _require(val == "auto"
                     or (isinstance(val, (int, float)) and val > 0),
                     f"l1.{key} must be positive or 'auto'")
        return out

    def ccm_samples(self) -> int:
        """Sample count of check-ccm: ``sampling.ccm_samples``, default
        10,000."""
        sdoc = self.doc.get("sampling", {})
        _require(isinstance(sdoc, dict), "'sampling' must be an object")
        unknown = set(sdoc) - _SAMPLING_KEYS
        _require(not unknown, f"unknown sampling keys: {sorted(unknown)}")
        val = sdoc.get("ccm_samples", 10_000)
        _require(isinstance(val, int) and not isinstance(val, bool)
                 and val > 0, "sampling.ccm_samples must be a positive integer")
        return val

    def make_l1_config(self, model: DynamicsModel, omega: float,
                       gamma: float, unc_bound: float) -> L1Config:
        spec = self.l1_spec()
        n = model.state_dim
        return L1Config(
            state_dim=n, input_dim=model.input_dim, bandwidth=float(omega),
            adaptation_gain=float(gamma), unc_bound=float(unc_bound),
            eps_proj=spec["eps_proj"],
            pred_matrix=spec["pred_diag"] * np.eye(n),
            lyap_q=spec["q_diag"] * np.eye(n))

    def initial_state(self, default) -> np.ndarray:
        idoc = self.doc.get("init", {})
        if "x0" in idoc:
            x0 = np.asarray(idoc["x0"], dtype=float)
            _require(x0.ndim == 1, "init.x0 must be a vector")
            return x0
        return np.asarray(default, dtype=float)

    def desired_spec(self, model: DynamicsModel | None = None) -> dict:
        """The ``desired`` section, checked key by key for its kind; with a
        model, its vectors are checked against the model's dimensions too."""
        ddoc = self.doc.get("desired")
        _require(ddoc is not None, "scenario needs a 'desired' section")
        _require(isinstance(ddoc, dict), "'desired' must be an object")
        kind = ddoc.get("kind")
        _require(kind in _DESIRED_KEYS,
                 "desired.kind must be 'constant' or 'plan'")
        keys = _DESIRED_KEYS[kind]
        unknown = set(ddoc) - keys
        _require(not unknown,
                 f"unknown desired keys for kind {kind!r}: {sorted(unknown)}")
        missing = keys - set(ddoc)
        _require(not missing,
                 f"desired kind {kind!r} needs keys {sorted(missing)}")
        if kind == "plan":
            for key in ("t_final", "dt"):
                _require(_is_finite_number(ddoc[key]) and ddoc[key] > 0,
                         f"desired.{key} must be a positive finite number")
        if model is not None:
            for key in sorted(keys & _DESIRED_VECTORS.keys()):
                dim = _DESIRED_VECTORS[key]
                _vector(ddoc[key], getattr(model, dim),
                        f"desired.{key} ({dim})")
        return ddoc

    def obstacles(self) -> list[np.ndarray]:
        obs = self.doc.get("obstacles", [])
        _require(isinstance(obs, list), "'obstacles' must be a list")
        out = []
        for item in obs:
            _require(isinstance(item, dict) and set(item) == _OBSTACLE_KEYS,
                     "each obstacle must be an object with only a "
                     "'polygon' key")
            verts = item["polygon"]
            _require(isinstance(verts, list) and len(verts) >= 3,
                     "obstacle polygon needs at least three vertices")
            out.append(np.array([_vector(v, 2, "obstacle polygon vertex")
                                 for v in verts]))
        return out

    def sweep_spec(self) -> dict:
        sw = self.doc.get("sweep", {})
        out = {}
        for key in ("omega", "gamma", "eps", "rho_a"):
            if key in sw:
                vals = sw[key]
                _require(isinstance(vals, list) and vals,
                         f"sweep.{key} must be a nonempty list")
                out[key] = [float(v) for v in vals]
        return out


# --- obstacle geometry ---------------------------------------------------------


def _signed_distances(points: np.ndarray, polygon: np.ndarray) -> np.ndarray:
    """Signed distance from each row of a (k, 2) stack to a polygon
    (negative inside).

    Per edge, over all points at once: the distance to the nearest point
    of the edge, and an even-odd crossing test of the ray towards +x.
    """
    verts = np.asarray(polygon, dtype=float)
    dmin = np.full(points.shape[0], math.inf)
    inside = np.zeros(points.shape[0], dtype=bool)
    for a, b in zip(verts, np.roll(verts, -1, axis=0)):
        ab = b - a
        tt = np.clip(row_dot(points - a, ab) / max(ab @ ab, 1e-300),
                     0.0, 1.0)
        gap = points - (a + tt[:, None] * ab)
        dmin = np.minimum(dmin, np.sqrt(row_dot(gap, gap)))
        if a[1] != b[1]:          # a horizontal edge is never crossed
            straddle = (a[1] > points[:, 1]) != (b[1] > points[:, 1])
            x_cross = a[0] + (points[:, 1] - a[1]) * (b[0] - a[0]) \
                / (b[1] - a[1])
            inside ^= straddle & (points[:, 0] < x_cross)
    return np.where(inside, -dmin, dmin)


def point_polygon_distance(point: np.ndarray, polygon: np.ndarray) -> float:
    """Signed distance from a 2-D point to a polygon (negative inside)."""
    p = np.asarray(point, dtype=float)[None, :2]
    return float(_signed_distances(p, polygon)[0])


def tube_obstacle_clearance(states_star: np.ndarray, rho: float,
                            obstacles: list[np.ndarray]) -> float:
    """Worst clearance between the tube and any obstacle (>= 0 means clear)."""
    if not obstacles:
        return math.inf
    pts = np.asarray(states_star, dtype=float)[:, :2]
    return min(float((_signed_distances(pts, poly) - rho).min())
               for poly in obstacles)


# --- shipped defaults ------------------------------------------------------------


def builtin_scenario(name: str) -> Scenario:
    """Default experiment definitions for the two built-in systems."""
    if name == "ex1":
        # enforce_domain is off: the feedback-only baseline grazes the edge
        # of the metric's validated box (the polynomial metric extrapolates
        # smoothly there, and the certificate carries the domain flag).
        doc = {
            "version": SCHEMA_VERSION,
            "name": "ex1",
            "model": {"builtin": "ex1"},
            "tube": {"eps": 0.01, "rho_a": 0.02},
            "l1": {"omega": 50.0, "gamma": 5e6, "eps_proj": 0.1},
            "sim": {"dt": 1e-4, "t_final": 10.0, "seed": 0,
                    "enforce_domain": False},
            "init": {"x0": [0.01, -0.01, 0.01]},
            "desired": {"kind": "constant", "state": [0.0, 0.0, 0.0],
                        "input": [0.0]},
            "outputs": {"prefix": "ex1"},
        }
    elif name == "ex2":
        # The obstacle is illustrative only: a wedge placed tangent to the
        # certified tube along the planned path.
        doc = {
            "version": SCHEMA_VERSION,
            "name": "ex2",
            "model": {"builtin": "ex2"},
            "tube": {"eps": 0.4, "rho_a": 0.1},
            "l1": {"omega": 90.0, "gamma": 4e7, "eps_proj": 0.1},
            "sim": {"dt": 1e-3, "t_final": 8.0, "seed": 0},
            "desired": {"kind": "plan", "start": [3.4, -2.4],
                        "target": [0.0, 0.0], "t_final": 8.0, "dt": 0.01},
            "obstacles": [
                {"polygon": [[0.2, -5.0], [1.6, -5.0], [1.6, -4.72],
                             [0.2, -4.72]]}
            ],
            "outputs": {"prefix": "ex2"},
        }
    else:
        raise ScenarioError(f"no builtin scenario named {name!r}")
    return Scenario.from_dict(doc)
