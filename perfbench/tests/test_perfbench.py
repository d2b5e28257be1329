"""Self-tests of the benchmark harness: python3 -m pytest perfbench/tests"""

import json
import signal
import sys
import time
import types
from pathlib import Path

import layers
import spec
import speed
import workloads
from ccml1.scenario import Scenario, builtin_scenario
from tracer import Span, Tracer, self_time, tail_percentile

ROOT = Path(__file__).resolve().parents[2]


def test_self_time_subtracts_the_union_of_children():
    parent = Span(1, -1, "p", 0, 100)
    children = [Span(2, 1, "c", 10, 30), Span(3, 1, "c", 20, 40),
                Span(4, 1, "c", 90, 120)]
    # covered: [10, 40) and [90, 100), overlap and overhang counted once
    assert self_time(parent, children) == 100 - 30 - 10
    assert self_time(parent, []) == 100


def test_tail_percentile_has_ten_samples_beyond_it():
    for n in (1, 19, 20, 500, 999, 1000, 1001, 4321):
        values = list(range(n))
        for pct in (50.0, 99.0):
            got = tail_percentile(values, pct)
            if got is not None:
                assert sum(v > got for v in values) >= 10
    assert tail_percentile(range(1000), 99.0) is not None
    assert tail_percentile(range(999), 99.0) is None
    assert tail_percentile(range(20), 50.0) is not None
    assert tail_percentile(range(19), 50.0) is None


def test_same_seed_same_scenario_bytes(tmp_path):
    for name, wl in workloads.WORKLOADS.items():
        a, b = tmp_path / f"{name}-a", tmp_path / f"{name}-b"
        a.mkdir()
        b.mkdir()
        docs = workloads.write_scenarios(wl, a)
        workloads.write_scenarios(wl, b)
        for fname, doc in docs.items():
            assert (a / fname).read_bytes() == (b / fname).read_bytes()
            Scenario.from_dict(json.loads((a / fname).read_text()))
            base = builtin_scenario(doc["name"]).doc
            changed = {k for k in set(doc) | set(base)
                       if doc.get(k) != base.get(k)}
            assert changed <= {"sim", "l1", "sweep"}
            assert {k for k in doc["sim"] if doc["sim"][k] != base["sim"].get(k)
                    } <= {"t_final"}


def _toy_module():
    mod = types.ModuleType("perfbench_toy")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) + mod.inner(x)

    mod.inner, mod.outer = inner, outer
    sys.modules[mod.__name__] = mod
    return mod


def test_tracer_records_parents_and_restores_names():
    mod = _toy_module()
    original = mod.outer
    tracer = Tracer({"outer": ("perfbench_toy:outer", None),
                     "inner": ("perfbench_toy:inner", lambda a, r: (r, 0.0))})
    tracer.install()
    assert mod.outer(1) == 4
    tracer.uninstall()
    assert mod.outer is original
    spans = tracer.spans(0)
    (top,) = [s for s in spans if s.name == "outer"]
    kids = [s for s in spans if s.name == "inner"]
    assert top.parent == -1 and [k.parent for k in kids] == [top.sid] * 2
    assert [k.a1 for k in kids] == [2.0, 2.0]


def test_tracer_survives_a_missing_name():
    _toy_module()
    targets = dict(layers.TARGETS)
    targets["closed"] = ("ccml1.cli:integrate_everything", None)
    targets["gone"] = ("ccml1.no_such_module:anything", None)
    targets["toy"] = ("perfbench_toy:outer", None)
    tracer = Tracer(targets)
    tracer.install()
    try:
        sys.modules["perfbench_toy"].outer(0)
    finally:
        tracer.uninstall()
    assert tracer.missing == {"closed", "gone"}
    values, samples = layers.per_execution(tracer.spans(0), tracer.missing)
    units = {n: u for n, (u, _) in spec.PER_LAYER.items()}
    out, _, _ = layers.aggregate([(values, samples)], units)
    assert out["sim.loop_s.closed"] is None
    assert out["sim.step_us_p99"] is None
    assert out["geodesic.solves"] == 0


def test_classmethod_wrapping_is_undone():
    raw = Scenario.__dict__["from_dict"]
    tracer = Tracer({"from_dict": layers.TARGETS["from_dict"]})
    tracer.install()
    try:
        scn = builtin_scenario("ex1")
    finally:
        tracer.uninstall()
    assert Scenario.__dict__["from_dict"] is raw
    assert scn.name == "ex1" and len(tracer.spans(0)) == 1


def test_benchmark_json_matches_spec():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == spec.benchmark_json()
    assert set(spec.WORKLOADS) == set(workloads.WORKLOADS)
    assert set(spec.PER_LAYER) == (set(layers.SCALARS) | set(layers.PERCENTILES)
                                   | {"cli.bytes_written", "cli.rows_written",
                                      "trace.overhead_s"})


def test_sampler_subtracts_its_probes_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    sampler = speed.Sampler()
    with sampler:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            pass
        wall = time.perf_counter() - t0
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(sampler.samples) >= 3
    scaled = sampler.rescale(wall)
    raw = (wall - sum(sampler.samples)) * speed.NOMINAL_S
    assert scaled == raw / (sum(sampler.samples) / len(sampler.samples))
