"""What the benchmark measures: workloads, end-to-end and per-layer metrics.

``BENCHMARK.json`` at the repository root is generated from these tables
(``python3 perfbench/run.py --write-spec``) and a self-test checks that the
two agree, so a workload or metric is renamed in one place only.
"""

WORKLOADS = {
    "ex1-track": (
        "simulate ex1 (state-dependent metric, dt 1e-4, L1 on): every step "
        "runs the Newton geodesic and metric partials, so geodesic, metric "
        "and ccm_control do most of the work"),
    "ex2-plan": (
        "simulate ex2 unchanged: constant metric, so geodesics take the "
        "straight-line shortcut; the iLQR plan, RK4 loops, containment and "
        "CSV writing carry it"),
    "ex1-gain-sweep": (
        "sweep ex1 over gains 1e4..1e7 at omega 50: four independent closed "
        "loops sharing one certificate, the only workload where batching K "
        "runs can gain"),
    "certify-check": (
        "certify ex1 with auto tuning, then check-ccm on ex1 and ex2: the "
        "only workload where certification and metric.ccm_check do most of "
        "the work"),
}

# name -> (unit, better, regression bound as a share of the parent's median)
END_TO_END = {
    "wall_s": ("s", "lower", 0.25),
    "steps_per_s": ("1/s", "higher", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.05),
}

# name -> (unit, better); derived from spans in layers.py
PER_LAYER = {
    "metric.eval_calls": ("count", "lower"),
    "metric.eval_rows": ("count", "lower"),
    "metric.eval_s": ("s", "lower"),
    "metric.ccm_check_s": ("s", "lower"),
    "geodesic.solves": ("count", "lower"),
    "geodesic.newton_iters": ("count", "lower"),
    "geodesic.not_converged": ("count", "lower"),
    "geodesic.shortcut_ratio": ("ratio", "higher"),
    "geodesic.solve_s": ("s", "lower"),
    "geodesic.solve_us_p50": ("us", "lower"),
    "geodesic.solve_us_p99": ("us", "lower"),
    "ccm_control.feedback_calls": ("count", "lower"),
    "ccm_control.active_ratio": ("ratio", "lower"),
    "ccm_control.infeasible": ("count", "lower"),
    "ccm_control.feedback_s": ("s", "lower"),
    "l1_control.update_calls": ("count", "lower"),
    "l1_control.clamp_hits": ("count", "lower"),
    "l1_control.update_s": ("s", "lower"),
    "sim.loop_s.closed": ("s", "lower"),
    "sim.loop_s.reference": ("s", "lower"),
    "sim.loop_s.nominal": ("s", "lower"),
    "sim.step_us_p50": ("us", "lower"),
    "sim.step_us_p99": ("us", "lower"),
    "sim.rk4_calls": ("count", "lower"),
    "sim.rk4_s": ("s", "lower"),
    "sim.ilqr_s": ("s", "lower"),
    "sim.ilqr_rollout_steps": ("count", "lower"),
    "sim.containment_s": ("s", "lower"),
    "certification.deltas_s": ("s", "lower"),
    "certification.tube_points": ("count", "lower"),
    "certification.search_s": ("s", "lower"),
    "certification.conditions_calls": ("count", "lower"),
    "certification.energy_solves": ("count", "lower"),
    "scenario.load_s": ("s", "lower"),
    "scenario.system_builds": ("count", "lower"),
    "scenario.clearance_s": ("s", "lower"),
    "models.refine_s": ("s", "lower"),
    "models.nominal_rate_calls": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.bytes_written": ("count", "lower"),
    "cli.rows_written": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

RUN_SECONDS = 25


def benchmark_json() -> dict:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, (u, b, bound) in END_TO_END.items()],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, (u, b) in PER_LAYER.items()],
    }
