"""Scenario files: a single versioned JSON document describing one experiment.

A scenario names the plant (a builtin or an inline polynomial model, its
metric and bounds), the tube slacks, the filter/adaptation tuning (numbers
or "auto"), the integration settings, and optionally a planning problem and
polygonal obstacles.  One table of readers reads it once, strictly at every
level; no other module knows the format.  Serialization is canonical, so
load -> dump round-trips byte-identically.
"""

from __future__ import annotations

import json
import math
import sys
from collections import ChainMap
from dataclasses import dataclass, field as dc_field, fields, replace

import numpy as np

from .errors import MetricDomainError, MetricValidationError, ScenarioError
from .l1_control import L1Config
from .metric import MetricField, PolyMatrix
from .models import (AssumptionBounds, BuiltinSystem, DynamicsModel,
                     ModelBatch, SafeSet, builtin_example, row_dot)
from .sim import SimConfig

SCHEMA_VERSION = 1


def canonical_json(doc: dict) -> str:
    """The one true serialization: sorted keys, 2-space indent, newline."""
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _require(cond: bool, msg: str):
    if not cond:
        raise ScenarioError(msg)


# --- the reader --------------------------------------------------------------
# A reader takes (value, name, ctx) and returns the value checked and
# converted; ``name`` is the key's dotted path, for the message, and ``ctx``
# maps every key read before it, at its own level and the levels around it,
# to what it read (the model's dimensions, say).

_REQUIRED = object()     # default of a key the object must have
_OMIT = object()         # default of a key left out of the result when absent


def _read(doc, table: dict, where: str, ctx) -> dict:
    """The object ``doc``, named ``where`` ("" at the top level), read by
    ``table`` (key -> (reader, default)) in the table's order, inside the
    keys ``ctx`` read before.  A key left out reads its default, unless that
    is ``_REQUIRED`` (an error) or ``_OMIT`` (left out)."""
    what = where or "scenario"
    _require(isinstance(doc, dict), f"'{what}' must be an object")
    unknown = set(doc) - table.keys()
    _require(not unknown, f"unknown {what} keys: {sorted(unknown)}")
    missing = [k for k, (_, d) in table.items() if d is _REQUIRED
               and k not in doc]
    _require(not missing, f"{what} needs keys {missing}")
    out: dict = {}
    scope = ChainMap(out, ctx)
    for key, (read, default) in table.items():
        if key in doc or default is not _OMIT:
            out[key] = read(doc[key] if key in doc else default,
                            f"{where}.{key}" if where else key, scope)
    return out


def _object(table: dict):
    """A reader of an object by ``table``, passing its context on."""
    return lambda val, name, ctx: _read(val, table, name, ctx)


def _by_kind(tables: dict, build=dict):
    """A reader of an object by the table of its ``kind``, into ``build``."""
    def read(val, name, ctx):
        _require(isinstance(val, dict), f"'{name}' must be an object")
        kind = val.get("kind")
        _require(isinstance(kind, str) and kind in tables,
                 f"{name}.kind must be one of {sorted(tables)}")
        return build(**_read(val, tables[kind], name, ctx))
    return read


def _is_number(val) -> bool:
    """A finite number (not a boolean, nor an int beyond the float range)."""
    return (isinstance(val, (int, float)) and not isinstance(val, bool)
            and abs(val) <= sys.float_info.max)


def _value(ok, what: str, convert=None):
    """A reader of a value for which ``ok`` holds, through ``convert``."""
    def read(val, name, ctx):
        _require(ok(val), f"{name} must be {what}")
        return val if convert is None else convert(val)
    return read


def _integer(least: int):
    """An integral number of at least ``least`` (``6.0`` reads as 6)."""
    return _value(lambda v: _is_number(v) and v == int(v) and v >= least,
                  "a positive integer" if least == 1
                  else f"an integer of at least {least}", int)


_finite = _value(_is_number, "a finite number", float)
_positive = _value(lambda v: _is_number(v) and v > 0,
                   "a positive finite number", float)
_negative = _value(lambda v: _is_number(v) and v < 0,
                   "a negative finite number", float)
_natural = _integer(0)
# true or false; 1 and 0 read as them
_flag = _value(lambda v: isinstance(v, bool)
               or (_is_number(v) and v in (0, 1)), "true or false", bool)
_tuning = _value(lambda v: v == "auto" or (_is_number(v) and v > 0),
                 "positive or 'auto'",
                 lambda v: v if v == "auto" else float(v))
_axis = _value(lambda v: isinstance(v, list) and v and all(map(_is_number, v)),
               "a nonempty list of finite numbers",
               lambda v: [float(x) for x in v])
# null, like leaving the key out, has the bound estimated by sampling
_bound = _value(lambda v: v is None or (_is_number(v) and v >= 0),
                "a nonnegative finite number or null",
                lambda v: v if v is None else float(v))
_text = _value(lambda v: isinstance(v, str), "a string")
_any = _value(lambda v: True, "")


def _list(val, length: int, name: str, of: str) -> list:
    _require(isinstance(val, list) and len(val) == length,
             f"{name} must be a list of {length} {of}")
    return val


def _vector(val, length: int, name: str, of: str = "finite numbers",
            each=_finite) -> np.ndarray:
    """A list of ``length`` numbers, each read by ``each``, as an array."""
    return np.array([each(v, f"{name}[{i}]", {}) for i, v
                     in enumerate(_list(val, length, name, of))], dtype=float)


def _sized(dim: str, of: str = "finite numbers", each=_finite):
    """A reader of a list of ``ctx[dim]`` numbers, each read by ``each``."""
    return lambda val, name, ctx: _vector(val, ctx[dim], name,
                                          f"{of} ({dim})", each)


def _in_model(read):
    """``read`` with the model's ``state_dim`` and ``input_dim`` in ctx."""
    def wrapped(val, name, ctx):
        model = ctx["model"]
        model = model.model if isinstance(model, BuiltinSystem) else model
        return read(val, name, ChainMap({"state_dim": model.state_dim,
                                         "input_dim": model.input_dim}, ctx))
    return wrapped


def _sim(val, name, ctx) -> SimConfig:
    try:
        return SimConfig(**_read(val, _SIM, name, ctx))
    except ValueError as exc:
        raise ScenarioError(f"{name}: {exc}") from exc


def _obstacles(val, name, ctx) -> list[np.ndarray]:
    _require(isinstance(val, list) and all(
        isinstance(item, dict) and set(item) == {"polygon"} for item in val),
        f"'{name}' must be a list of objects with only a 'polygon' key")
    polygons = [item["polygon"] for item in val]
    _require(all(isinstance(p, list) and len(p) >= 3 for p in polygons),
             "obstacle polygon needs at least three vertices")
    return [np.array([_vector(v, 2, "obstacle polygon vertex") for v in p])
            for p in polygons]


# --- the model, its metric and its bounds ------------------------------------


def _poly_table(val, name: str, shape: tuple[int, int], ctx,
                column: bool = False) -> PolyMatrix:
    """A ``shape`` polynomial matrix in ``state_dim`` variables: ``val[i][j]``
    (``val[i]`` for a ``column``) lists the monomials of entry (i, j), each
    ``{"coeff": c, "powers": [p_1, ..., p_n]}``."""
    acc: dict[tuple[int, ...], np.ndarray] = {}
    for i, row in enumerate(_list(val, shape[0], name, "rows")):
        row = [row] if column else _list(row, shape[1], f"{name}[{i}]",
                                         "monomial lists")
        for j, terms in enumerate(row):
            at = f"{name}[{i}]" if column else f"{name}[{i}][{j}]"
            _require(isinstance(terms, list),
                     f"{at} must be a list of monomials")
            for term in terms:
                got = _read(term, _MONOMIAL, at, ctx)
                powers = tuple(map(int, got["powers"]))
                acc.setdefault(powers, np.zeros(shape))[i, j] += got["coeff"]
    return PolyMatrix(ctx["state_dim"], shape, list(acc.items()))


def _constant_input(val, name, ctx) -> PolyMatrix:
    n, m = ctx["state_dim"], ctx["input_dim"]
    rows = [_sized("input_dim")(row, f"{name}[{i}]", ctx)
            for i, row in enumerate(_list(val, n, name, "rows"))]
    return PolyMatrix(n, (n, m), [((0,) * n, np.array(rows))])


def _input_matrix(val, name, ctx) -> PolyMatrix:
    got = _read(val, _INPUT_MATRIX, name, ctx)
    _require(len(got) == 1, f"{name} needs one of 'constant' and 'entries'")
    return next(iter(got.values()))


def _channels(val, name, ctx) -> np.ndarray:
    """One finite number for every input channel, or a list of input_dim."""
    return (np.full(ctx["input_dim"], float(val)) if _is_number(val)
            else _sized("input_dim")(val, name, ctx))


def _uncertainty(val, name, ctx):
    """Disturbance family: per-channel a*sin(freq*t) + c*|x| + b."""
    u = _read(val, _UNCERTAINTY, name, ctx)
    return lambda t, x: (u["amp_sin"] * math.sin(u["freq"] * t)
                         + u["state_gain"] * np.linalg.norm(x) + u["offset"])


def _inline_model(val, name, ctx) -> DynamicsModel:
    got = _read(val, _INLINE_MODEL, name, ctx)
    n, m = got["state_dim"], got["input_dim"]
    drift_poly, b_poly = got["drift"], got["input_matrix"]
    drift_partials = [drift_poly.partial(i) for i in range(n)]
    b_partials = [b_poly.partial(i) for i in range(n)]

    drift = lambda x: drift_poly(x)[:, 0]
    jac = lambda x: np.column_stack([dp(x)[:, 0] for dp in drift_partials])
    if b_poly.is_constant:
        b_const = b_poly.sum_coeffs()
        input_matrix = lambda x: b_const
        d_input = lambda x: np.zeros((n, n, m))
    else:
        input_matrix = b_poly.__call__
        d_input = lambda x: np.stack([bp(x) for bp in b_partials])

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

    return DynamicsModel(state_dim=n, input_dim=m, drift=drift,
                         input_matrix=input_matrix, jac_drift=jac,
                         d_input=d_input, uncertainty=got.get("uncertainty"),
                         vectorized=vectorized)


def _model(val, name, ctx):
    """A builtin system, or an inline model (whose metric and bounds are
    sections of their own)."""
    if not (isinstance(val, dict) and "builtin" in val):
        return _inline_model(val, name, ctx)
    builtin = _read(val, {"builtin": (_any, _REQUIRED)}, name, ctx)["builtin"]
    _require(builtin in ("ex1", "ex2"), f"unknown builtin model {builtin!r}")
    return builtin_example(builtin)


def _inline_only(name: str, ctx):
    _require(not isinstance(ctx["model"], BuiltinSystem),
             f"'{name}' is not allowed with a builtin model, which carries "
             f"its own")


def _metric(val, name, ctx) -> MetricField:
    _inline_only(name, ctx)
    got = _read(val, _METRIC, name, ctx)
    try:
        return MetricField.from_dual_polynomial(
            got["dual"], contraction_rate=got["rate"],
            eig_floor=got["eig_floor"], eig_ceil=got["eig_ceil"],
            domain=got.get("domain"))
    except MetricDomainError as exc:
        at = "" if exc.x is None else f" at x = {exc.x.tolist()}"
        raise ScenarioError(f"metric dual is not positive definite{at}") \
            from exc
    except MetricValidationError as exc:
        raise ScenarioError(f"metric: {exc}") from exc


def _bounds(val, name, ctx) -> AssumptionBounds:
    _inline_only(name, ctx)
    return AssumptionBounds(**_read(val, _BOUNDS, name, ctx))


# --- the table: section -> key -> (reader, default) --------------------------
# The sections see ``model``, and those read ``_in_model`` also its
# ``state_dim`` and ``input_dim``, which the inline model's later keys see
# as read before them.

_KIND = (_any, _REQUIRED)                     # checked by _by_kind
_state_vector = _sized("state_dim")
_POINT = (_state_vector, _REQUIRED)

_MONOMIAL = {"coeff": (_finite, _REQUIRED),
             "powers": (_sized("state_dim", "integers", _natural),
                        _REQUIRED)}
_INPUT_MATRIX = {
    "constant": (_constant_input, _OMIT),
    "entries": (lambda v, name, ctx: _poly_table(
        v, name, (ctx["state_dim"], ctx["input_dim"]), ctx), _OMIT)}
_UNCERTAINTY = {"amp_sin": (_channels, 0.0), "freq": (_finite, 1.0),
                "state_gain": (_channels, 0.0), "offset": (_channels, 0.0)}
_INLINE_MODEL = {"state_dim": (_integer(1), _REQUIRED),
                 "input_dim": (_integer(1), _REQUIRED),
                 "drift": (lambda v, name, ctx: _poly_table(
                     v, name, (ctx["state_dim"], 1), ctx, True), _REQUIRED),
                 "input_matrix": (_input_matrix, _REQUIRED),
                 "uncertainty": (_uncertainty, _OMIT)}
_DOMAINS = {
    "box": {"kind": _KIND, "center": _POINT,
            "half_widths": (_sized("state_dim", "positive numbers",
                                   _positive), _REQUIRED)},
    "ball": {"kind": _KIND, "center": _POINT,
             "radius": (_positive, _REQUIRED)}}
_domain = _by_kind(_DOMAINS, SafeSet)
_METRIC = {"dual": (lambda v, name, ctx: _poly_table(
               v, name, (ctx["state_dim"],) * 2, ctx), _REQUIRED),
           "rate": (_positive, _REQUIRED),
           "eig_floor": (_positive, _REQUIRED),
           "eig_ceil": (_positive, _REQUIRED),
           "domain": (_domain, _OMIT)}
_BOUNDS = {f.name: (_bound, _OMIT) for f in fields(AssumptionBounds)}
_SIM = {"dt": (_positive, _REQUIRED), "t_final": (_positive, _REQUIRED),
        "seed": (_natural, _OMIT), "geodesic_intervals": (_integer(2), _OMIT),
        "geodesic_tol": (_positive, _OMIT), "enforce_domain": (_flag, _OMIT),
        "divergence_limit": (_positive, _OMIT)}
_DESIRED = {
    "constant": {"kind": _KIND, "state": (_state_vector, _REQUIRED),
                 "input": (_sized("input_dim"), _REQUIRED)},
    "plan": {"kind": _KIND, "start": (_state_vector, _REQUIRED),
             "target": (_state_vector, _REQUIRED),
             "t_final": (_positive, _REQUIRED), "dt": (_positive, _REQUIRED)}}
_SCENARIO = {
    "version": (_value(lambda v: _is_number(v) and v == SCHEMA_VERSION,
                       f"{SCHEMA_VERSION}"), _REQUIRED),
    "name": (_text, "scenario"),
    "model": (_model, _REQUIRED),
    "metric": (_in_model(_metric), _OMIT),
    "bounds": (_bounds, _OMIT),
    "tube": (_object({"eps": (_positive, 0.1), "rho_a": (_positive, 0.1)}),
             {}),
    "l1": (_object({"omega": (_tuning, "auto"), "gamma": (_tuning, "auto"),
                    "eps_proj": (_positive, 0.1),
                    "pred_diag": (_negative, -10.0),
                    "q_diag": (_positive, 1.0)}), {}),
    "sim": (_sim, _REQUIRED),
    "init": (_in_model(_object({"x0": (_state_vector, _OMIT)})), {}),
    "desired": (_in_model(_by_kind(_DESIRED)), _OMIT),
    "obstacles": (_obstacles, []),
    "sweep": (_object(dict.fromkeys(("omega", "gamma", "eps", "rho_a"),
                                    (_axis, _OMIT))), {}),
    "sampling": (_object({"ccm_samples": (_integer(1), 10_000)}), {}),
    # accepted and read by nothing
    "outputs": (_value(lambda v: isinstance(v, dict) and all(
        isinstance(s, str) for s in v.values()), "an object of strings"),
        _OMIT),
}


# a field of what the document says, which is not part of the value
_PARSED = {"repr": False, "compare": False}


@dataclass
class Scenario:
    """A scenario document and what it says, read once by
    :meth:`from_dict`.  Two scenarios are equal when their documents are."""

    doc: dict
    name: str = dc_field(**_PARSED)
    sim: SimConfig = dc_field(**_PARSED)
    eps: float = dc_field(**_PARSED)      # slack of the reference radius
    rho_a: float = dc_field(**_PARSED)    # the adaptation floor
    l1: dict = dc_field(**_PARSED)        # omega and gamma may be "auto"
    ccm_samples: int = dc_field(**_PARSED)
    x0: np.ndarray | None = dc_field(**_PARSED)   # None: the desired start
    desired: dict | None = dc_field(**_PARSED)
    obstacles: list[np.ndarray] = dc_field(**_PARSED)
    sweep: dict[str, list[float]] = dc_field(**_PARSED)
    _system: BuiltinSystem = dc_field(**_PARSED)

    @classmethod
    def from_text(cls, text: str) -> "Scenario":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"not valid JSON: {exc}") from exc
        return cls.from_dict(doc)

    @classmethod
    def from_dict(cls, doc: dict) -> "Scenario":
        """Read ``doc`` by the table and build its system."""
        got = _read(doc, _SCENARIO, "", {})
        system = got["model"]
        if not isinstance(system, BuiltinSystem):     # an inline model
            _require("metric" in got, "an inline model needs a 'metric'")
            domain = got["metric"].domain
            system = BuiltinSystem(
                system, got["metric"], got.get("bounds", AssumptionBounds()),
                SafeSet.ball(np.zeros(system.state_dim), np.inf)
                if domain is None else domain)
        return cls(doc=doc, name=got["name"], sim=got["sim"],
                   eps=got["tube"]["eps"], rho_a=got["tube"]["rho_a"],
                   l1=got["l1"], ccm_samples=got["sampling"]["ccm_samples"],
                   x0=got["init"].get("x0"), desired=got.get("desired"),
                   obstacles=got["obstacles"], sweep=got["sweep"],
                   _system=system)

    def with_seed(self, seed: int) -> "Scenario":
        """This scenario with ``sim.seed`` replaced.  The copy shares this
        instance's built system: nothing but the seed changes."""
        return replace(self, doc=dict(self.doc, sim=dict(self.doc["sim"],
                                                         seed=int(seed))),
                       sim=replace(self.sim, seed=int(seed)))

    @classmethod
    def load(cls, path: str) -> "Scenario":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_text(fh.read())

    def dump(self) -> str:
        return canonical_json(self.doc)

    def system(self) -> BuiltinSystem:
        """The plant, metric and bounds, built when the document is read."""
        return self._system

    def make_l1_config(self, model: DynamicsModel, omega: float,
                       gamma: float, unc_bound: float) -> L1Config:
        n = model.state_dim
        return L1Config(
            state_dim=n, input_dim=model.input_dim, bandwidth=float(omega),
            adaptation_gain=float(gamma), unc_bound=float(unc_bound),
            eps_proj=self.l1["eps_proj"],
            pred_matrix=self.l1["pred_diag"] * np.eye(n),
            lyap_q=self.l1["q_diag"] * np.eye(n))


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
