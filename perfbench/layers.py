"""Per-layer metrics: which names are traced and how spans become numbers.

Layers are the modules of ``ccml1``.  Every metric is computed per workload
execution from that execution's spans; ``aggregate`` then combines the traced
executions of a run: counts from the first (they repeat exactly), times as
medians, and tail percentiles over the pooled samples.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

from tracer import Span, self_time, tail_percentile


def _rows(args, result):
    return float(np.shape(args[1])[0]), math.nan


def _curve(args, result):
    return float(result.iterations), float(bool(result.converged))


def _feedback(args, result):
    return float(bool(result.active)), float(bool(result.infeasible))


def _clamp(args, result):
    cfg, state = args[0], args[1]
    norm = float(np.linalg.norm(state.sigma_hat))
    return float(norm >= cfg.clamp_radius * (1.0 - 1e-12)), math.nan


def _tube_points(args, result):
    return float(result.n_samples), math.nan


# key -> (where the caller looks the name up, attribute hook)
TARGETS = {
    "main": ("ccml1.cli:main", None),
    "load": ("ccml1.scenario:Scenario.load", None),
    "from_dict": ("ccml1.scenario:Scenario.from_dict", None),
    "system": ("ccml1.scenario:Scenario.system", None),
    "clearance": ("ccml1.cli:tube_obstacle_clearance", None),
    "metric_batch": ("ccml1.metric:MetricField.metric_batch", _rows),
    "metric_partials": ("ccml1.metric:MetricField.metric_and_partials_batch",
                        _rows),
    "ccm_check": ("ccml1.cli:ccm_check", None),
    "solve": ("ccml1.geodesic:GeodesicSolver.solve", _curve),
    "feedback": ("ccml1.sim:feedback_gain", _feedback),
    "adapt": ("ccml1.sim:adaptation_step", _clamp),
    "filter": ("ccml1.sim:filter_step", None),
    "closed": ("ccml1.cli:integrate_closed_loop", None),
    "reference": ("ccml1.cli:integrate_reference", None),
    "nominal": ("ccml1.cli:integrate_nominal_ccm", None),
    "rk4": ("ccml1.sim:rk4_step", None),
    "ilqr": ("ccml1.cli:ilqr_plan", None),
    "containment": ("ccml1.cli:containment", None),
    "deltas": ("ccml1.cli:estimate_deltas", _tube_points),
    "search": ("ccml1.cli:search_params", None),
    "conditions": ("ccml1.cli:check_conditions", None),
    "conditions_inner": ("ccml1.certification:check_conditions", None),
    "refine": ("ccml1.models:DesiredTrajectory.refine", None),
    "nominal_rate": ("ccml1.models:DynamicsModel.nominal_rate", None),
}

_METRIC_KEYS = ("metric_batch", "metric_partials")
_CERT_KEYS = ("deltas", "search", "conditions", "conditions_inner")
NS = 1e-9


class Index:
    """Spans of one execution, by target and by parent."""

    def __init__(self, spans: list[Span]):
        self.by_name: dict[str, list[Span]] = {}
        self.children: dict[int, list[Span]] = {}
        self.by_id: dict[int, Span] = {}
        for s in spans:
            self.by_name.setdefault(s.name, []).append(s)
            self.children.setdefault(s.parent, []).append(s)
            self.by_id[s.sid] = s

    def of(self, *keys) -> list[Span]:
        return [s for k in keys for s in self.by_name.get(k, ())]

    def under(self, span: Span, keys) -> bool:
        """True when some ancestor of ``span`` is one of ``keys``."""
        p = self.by_id.get(span.parent)
        while p is not None:
            if p.name in keys:
                return True
            p = self.by_id.get(p.parent)
        return False

    def outer(self, *keys) -> list[Span]:
        return [s for s in self.of(*keys) if not self.under(s, keys)]

    def secs(self, *keys) -> float:
        return sum(s.dur for s in self.outer(*keys)) * NS


def _ratio(num: float, den: float):
    return num / den if den else math.nan


def _step_intervals(ix: Index) -> list[float]:
    """Time between successive geodesic-solve entries inside each closed loop,
    in microseconds."""
    out = []
    for loop in ix.of("closed"):
        starts = sorted(s.t0 for s in ix.children.get(loop.sid, ())
                        if s.name == "solve")
        out += [(b - a) / 1e3 for a, b in zip(starts, starts[1:])]
    return out


# name -> (keys it needs, value of one execution)
SCALARS = {
    "metric.eval_calls": (_METRIC_KEYS,
                          lambda ix: len(ix.outer(*_METRIC_KEYS))),
    "metric.eval_rows": (_METRIC_KEYS, lambda ix: int(sum(
        s.a1 for s in ix.outer(*_METRIC_KEYS)))),
    "metric.eval_s": (_METRIC_KEYS, lambda ix: ix.secs(*_METRIC_KEYS)),
    "metric.ccm_check_s": (("ccm_check",), lambda ix: ix.secs("ccm_check")),
    "geodesic.solves": (("solve",), lambda ix: len(ix.of("solve"))),
    "geodesic.newton_iters": (("solve",), lambda ix: int(sum(
        s.a1 for s in ix.of("solve")))),
    "geodesic.not_converged": (("solve",), lambda ix: sum(
        1 for s in ix.of("solve") if s.a2 == 0.0)),
    "geodesic.shortcut_ratio": (("solve", "metric_partials"), lambda ix: _ratio(
        sum(1 for s in ix.of("solve")
            if not any(c.name == "metric_partials"
                       for c in ix.children.get(s.sid, ()))),
        len(ix.of("solve")))),
    "geodesic.solve_s": (("solve",), lambda ix: ix.secs("solve")),
    "ccm_control.feedback_calls": (("feedback",),
                                   lambda ix: len(ix.of("feedback"))),
    "ccm_control.active_ratio": (("feedback",), lambda ix: _ratio(
        sum(s.a1 for s in ix.of("feedback")), len(ix.of("feedback")))),
    "ccm_control.infeasible": (("feedback",), lambda ix: int(sum(
        s.a2 for s in ix.of("feedback")))),
    "ccm_control.feedback_s": (("feedback",), lambda ix: ix.secs("feedback")),
    "l1_control.update_calls": (("adapt",), lambda ix: len(ix.of("adapt"))),
    "l1_control.clamp_hits": (("adapt",), lambda ix: int(sum(
        s.a1 for s in ix.of("adapt")))),
    "l1_control.update_s": (("adapt", "filter"),
                            lambda ix: ix.secs("adapt", "filter")),
    "sim.loop_s.closed": (("closed",), lambda ix: ix.secs("closed")),
    "sim.loop_s.reference": (("reference",), lambda ix: ix.secs("reference")),
    "sim.loop_s.nominal": (("nominal",), lambda ix: ix.secs("nominal")),
    "sim.rk4_calls": (("rk4",), lambda ix: len(ix.of("rk4"))),
    "sim.rk4_s": (("rk4",), lambda ix: ix.secs("rk4")),
    "sim.ilqr_s": (("ilqr",), lambda ix: ix.secs("ilqr")),
    "sim.ilqr_rollout_steps": (("ilqr", "rk4"), lambda ix: sum(
        1 for s in ix.of("rk4") if ix.under(s, ("ilqr",)))),
    "sim.containment_s": (("containment",),
                          lambda ix: ix.secs("containment")),
    "certification.deltas_s": (("deltas",), lambda ix: ix.secs("deltas")),
    "certification.tube_points": (("deltas",), lambda ix: int(sum(
        s.a1 for s in ix.of("deltas")))),
    "certification.search_s": (("search",), lambda ix: ix.secs("search")),
    "certification.conditions_calls": (
        ("conditions", "conditions_inner"),
        lambda ix: len(ix.of("conditions", "conditions_inner"))),
    "certification.energy_solves": (("solve",) + _CERT_KEYS, lambda ix: sum(
        1 for s in ix.of("solve") if ix.under(s, _CERT_KEYS))),
    "scenario.load_s": (("load", "from_dict"),
                        lambda ix: ix.secs("load", "from_dict")),
    "scenario.system_builds": (("system",), lambda ix: len(ix.of("system"))),
    "scenario.clearance_s": (("clearance",), lambda ix: ix.secs("clearance")),
    "models.refine_s": (("refine",), lambda ix: ix.secs("refine")),
    "models.nominal_rate_calls": (("nominal_rate",),
                                  lambda ix: len(ix.of("nominal_rate"))),
    "cli.self_s": (("main",), lambda ix: sum(
        self_time(s, ix.children.get(s.sid, [])) for s in ix.of("main")) * NS),
}

# name -> (keys it needs, samples of one execution, percentile)
PERCENTILES = {
    "geodesic.solve_us_p50": (("solve",), lambda ix: [
        s.dur / 1e3 for s in ix.of("solve")], 50.0),
    "geodesic.solve_us_p99": (("solve",), lambda ix: [
        s.dur / 1e3 for s in ix.of("solve")], 99.0),
    "sim.step_us_p50": (("closed", "solve"), _step_intervals, 50.0),
    "sim.step_us_p99": (("closed", "solve"), _step_intervals, 99.0),
}


def per_execution(spans: list[Span], missing: set[str]):
    """Scalar metrics and percentile samples of one traced execution.

    A metric that needs a target which no longer resolves reads None."""
    ix = Index(spans)
    values, samples = {}, {}
    for name, (keys, fn) in SCALARS.items():
        values[name] = None if missing.intersection(keys) else fn(ix)
    for name, (keys, fn, _) in PERCENTILES.items():
        samples[name] = None if missing.intersection(keys) else fn(ix)
    return values, samples


def aggregate(executions, units: dict[str, str]):
    """Combine per-execution results.

    Returns the values, whether every count repeated across executions, and
    the names whose layer did too little work here to be measured: a ratio
    with a zero base, or a percentile without ten samples beyond it.  Those
    read 0; None is kept for metrics whose target is gone.
    """
    out = {}
    stable = True
    idle = []
    for name in SCALARS:
        vals = [values[name] for values, _ in executions]
        if any(v is None for v in vals):
            out[name] = None
        elif units[name] == "count":
            out[name] = vals[0]
            stable &= all(v == vals[0] for v in vals)
        elif math.isnan(vals[0]):
            out[name] = 0.0
            idle.append(name)
        else:
            out[name] = statistics.median(vals)
    for name, (_, _, pct) in PERCENTILES.items():
        pools = [samples[name] for _, samples in executions]
        if any(p is None for p in pools):
            out[name] = None
            continue
        out[name] = tail_percentile([v for p in pools for v in p], pct)
        if out[name] is None:
            out[name] = 0.0
            idle.append(name)
    return out, stable, idle
