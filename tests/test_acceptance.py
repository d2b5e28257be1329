"""Delivery gate: ten end-to-end criteria, one test each, shared heavy runs.

Each test prints one `CRITERION nn: PASS` line with its measured numbers
(bypassing capture) once the assertions hold, so a plain ``pytest -v`` log
shows the verdict for every criterion.
"""

import dataclasses
import time

import numpy as np
import pytest

from ccml1.certification import (TubeSampling, estimate_deltas,
                                 search_params, zeta)
from ccml1.geodesic import GeodesicSolver
from ccml1.l1_control import L1Config, projection_map
from ccml1.metric import ccm_check
from ccml1.models import DesiredTrajectory, SafeSet
from ccml1.sim import (SimConfig, integrate_closed_loop,
                       integrate_nominal_ccm, integrate_reference, lockstep,
                       rk4_step)
from reference import metric_at

EX1_UNC_BOUND = 0.1          # shipped matched-uncertainty radius, 3-state plant


def _announce(capsys, n: int, msg: str):
    with capsys.disabled():
        print(f"\nCRITERION {n:02d}: PASS — {msg}")


def _ex1_l1(gamma: float) -> L1Config:
    return L1Config(state_dim=3, input_dim=1, bandwidth=50.0,
                    adaptation_gain=gamma, unc_bound=EX1_UNC_BOUND)


def _ex1_target(t_final: float, dt: float) -> DesiredTrajectory:
    return DesiredTrajectory.constant(np.zeros(3), np.zeros(1),
                                      t_final=t_final, dt=dt)


EX1_X0 = np.array([0.01, -0.01, 0.01])


def _solve(solver, p, q):
    """One geodesic, as a batch of one row."""
    return solver.solve(p[None], q[None])


@pytest.fixture(scope="module")
def ex1_full_run(ex1):
    """10-second adaptive run at the shipped tuning, with its wall time."""
    cfg = SimConfig(dt=1e-4, t_final=10.0, enforce_domain=False)
    start = time.perf_counter()
    (traj,) = lockstep(ex1.model, ex1.metric, _ex1_target(10.0, 1e-4),
                       EX1_X0, cfg, [integrate_closed_loop(_ex1_l1(5e6))])
    return traj, time.perf_counter() - start


@pytest.fixture(scope="module")
def ex1_ablation_run(ex1):
    """Same 10-second scenario with the adaptive channel disabled.

    The unassisted loop oscillates past the edge of the metric's validated
    box, so this run (like the shipped scenario) does not enforce it.
    """
    cfg = SimConfig(dt=1e-4, t_final=10.0, enforce_domain=False)
    (traj,) = lockstep(ex1.model, ex1.metric, _ex1_target(10.0, 1e-4),
                       EX1_X0, cfg, [integrate_closed_loop(None)])
    return traj


@pytest.fixture(scope="module")
def gamma_sweep_runs(ex1):
    """3-second adaptive runs across four adaptation rates, as one batch."""
    cfg = SimConfig(dt=1e-4, t_final=3.0)
    gammas = (1e4, 1e5, 1e6, 1e7)
    runs = lockstep(ex1.model, ex1.metric, _ex1_target(3.0, 1e-4), EX1_X0,
                    cfg, [integrate_closed_loop(_ex1_l1(g)) for g in gammas])
    return dict(zip(gammas, runs))


@pytest.fixture(scope="module")
def ex2_tube_runs(ex2, ex2_plan_fine):
    """Planned-path runs: adaptive loop and ideal reference loop, timed."""
    cfg = SimConfig(dt=1e-3, t_final=8.0)
    x0 = ex2_plan_fine.states[0].copy()
    l1 = L1Config(state_dim=2, input_dim=1, bandwidth=90.0,
                  adaptation_gain=4e7, unc_bound=ex2.bounds.unc_sup)
    start = time.perf_counter()
    closed, ref = lockstep(ex2.model, ex2.metric, ex2_plan_fine, x0, cfg,
                           [integrate_closed_loop(l1),
                            integrate_reference(90.0)])
    return closed, ref, time.perf_counter() - start


def _sampling_l1(sysb) -> L1Config:
    return L1Config(state_dim=sysb.model.state_dim,
                    input_dim=sysb.model.input_dim, bandwidth=1.0,
                    adaptation_gain=1.0,
                    unc_bound=max(sysb.bounds.unc_sup or 1.0, 1e-12))


@pytest.fixture(scope="module")
def ex1_sampled_deltas(ex1):
    rho = np.sqrt(ex1.metric.eig_ceil / ex1.metric.eig_floor) \
        * float(np.linalg.norm(EX1_X0)) + 0.01 + 0.02
    return estimate_deltas(ex1.model, ex1.metric, ex1.bounds, rho,
                           _ex1_target(10.0, 0.01),
                           sampling=TubeSampling(seed=0),
                           l1_config=_sampling_l1(ex1))


@pytest.fixture(scope="module")
def ex2_sampled_deltas(ex2, ex2_plan):
    return estimate_deltas(ex2.model, ex2.metric, ex2.bounds, 0.5, ex2_plan,
                           sampling=TubeSampling(seed=0),
                           l1_config=_sampling_l1(ex2))


# --- the ten criteria -------------------------------------------------------


def test_criterion_01_tracking_bound_and_runtime(ex1_full_run, capsys):
    """Shipped tuning keeps the 3-state plant inside 0.02 for ten seconds."""
    traj, runtime = ex1_full_run
    sup = float(np.max(np.linalg.norm(traj.states, axis=1)))
    assert sup < 0.02
    assert runtime < 60.0
    _announce(capsys, 1, f"sup|x| = {sup:.5f} < 0.02 over 10 s "
                         f"(runtime {runtime:.1f} s < 60 s)")


def test_criterion_02_ablation_contrast(ex1_full_run, ex1_ablation_run,
                                        capsys):
    """Without adaptation the disturbance sustains a 5x larger late error."""
    with_l1, _ = ex1_full_run
    late = with_l1.times >= 5.0
    sup_l1 = float(np.max(np.linalg.norm(with_l1.states[late], axis=1)))
    sup_ab = float(np.max(np.linalg.norm(
        ex1_ablation_run.states[late], axis=1)))
    assert sup_ab >= 5.0 * sup_l1
    assert np.all(ex1_ablation_run.u_adaptive == 0.0)
    _announce(capsys, 2, f"late-window sup|x|: feedback-only {sup_ab:.5f} "
                         f">= 5 x adaptive {sup_l1:.6f} "
                         f"(ratio {sup_ab / sup_l1:.1f})")


def test_criterion_03_nominal_exponential_decay(ex1, ex2, ex2_plan_fine,
                                                capsys):
    """With the disturbance off, energy and distance obey the decay bounds."""
    msgs = []
    cases = [
        (ex1, _ex1_target(3.0, 1e-3), EX1_X0, SimConfig(dt=1e-3,
                                                        t_final=3.0)),
        (ex2, ex2_plan_fine,
         ex2_plan_fine.states[0] + np.array([0.4, 0.3]),
         SimConfig(dt=1e-3, t_final=2.0)),
    ]
    for sysb, target, x0, cfg in cases:
        (traj,) = lockstep(sysb.model, sysb.metric, target, x0, cfg,
                           [integrate_nominal_ccm()])
        lam = sysb.metric.contraction_rate
        energy_bound = traj.energy[0] * np.exp(-2.0 * lam * traj.times)
        assert np.all(traj.energy <= energy_bound * 1.05 + 1e-18)
        overshoot = sysb.metric.eig_ceil / sysb.metric.eig_floor
        dist_bound = overshoot * np.exp(-lam * traj.times) * traj.dist[0]
        assert np.all(traj.dist <= dist_bound + 1e-12)
        worst = float(np.max(traj.energy / np.maximum(energy_bound, 1e-300)))
        msgs.append(f"{sysb.model.state_dim}-state worst E ratio "
                    f"{worst:.3f} <= 1.05")
    _announce(capsys, 3, "; ".join(msgs))


def test_criterion_04_tube_containment(ex2_tube_runs, capsys):
    """The planned-path run never leaves its certified tube."""
    closed, ref, runtime = ex2_tube_runs
    rho_r = 0.4          # slack only: the run starts on the plan
    rho = rho_r + 0.1
    sup_closed = float(np.max(closed.dist))
    sup_ref = float(np.max(ref.dist))
    assert sup_closed <= rho
    assert sup_ref <= rho_r
    assert runtime < 120.0
    _announce(capsys, 4, f"sup dist {sup_closed:.4f} <= rho {rho}; "
                         f"reference {sup_ref:.4f} <= rho_r {rho_r} "
                         f"(runtime {runtime:.1f} s < 120 s)")


def test_criterion_05_geodesic_oracles(ex1, ex2, capsys):
    """Energies match the flat closed form and the eigenvalue envelope."""
    rng = np.random.default_rng(11)
    m_const = metric_at(ex2.metric, np.zeros(2))
    solver = GeodesicSolver(ex2.metric)
    worst_flat = 0.0
    pairs = rng.uniform(-5.0, 5.0, size=(1000, 2, 2))
    for p, q in pairs:
        d = q - p
        closed_form = float(d @ m_const @ d)
        curve = _solve(solver, p, q)
        worst_flat = max(worst_flat, abs(curve.energy[0] - closed_form))
    assert worst_flat <= 1e-8

    # the iterative path must agree with the same closed form (it accepts
    # the straight-line initialization here, already a stationary point)
    generic = GeodesicSolver(ex2.metric, allow_shortcuts=False)
    worst_gen = 0.0
    for p, q in pairs[:50]:
        d = q - p
        curve = _solve(generic, p, q)
        assert curve.converged
        worst_gen = max(worst_gen,
                        abs(curve.energy[0] - float(d @ m_const @ d)))
    assert worst_gen <= 1e-8

    solver1 = GeodesicSolver(ex1.metric)
    lo, hi = ex1.metric.eig_floor, ex1.metric.eig_ceil
    pairs1 = rng.uniform(-0.05, 0.05, size=(1000, 2, 3))
    for p, q in pairs1:
        gap2 = float(np.sum((q - p) ** 2))
        energy = _solve(solver1, p, q).energy[0]
        assert lo * gap2 * 0.99 <= energy <= hi * gap2 * 1.01
    _announce(capsys, 5, f"flat-metric worst |E - closed form| "
                         f"{worst_flat:.2e} (iterative {worst_gen:.2e}) "
                         f"<= 1e-8; 1000 curved energies inside the "
                         f"eigenvalue envelope at 1%")


def test_criterion_06_prediction_error_scaling(gamma_sweep_runs, capsys):
    """Prediction error shrinks monotonically as adaptation speeds up."""
    gammas = sorted(gamma_sweep_runs)
    sups = np.array([float(np.max(gamma_sweep_runs[g].xtilde_norm))
                     for g in gammas])
    assert np.all(np.diff(sups) < 0.0)
    assert sups[-1] <= sups[0] / 10.0
    pretty = ", ".join(f"{g:.0e}: {s:.2e}" for g, s in zip(gammas, sups))
    _announce(capsys, 6, f"sup prediction error strictly decreasing "
                         f"({pretty}); endpoints ratio "
                         f"{sups[0] / sups[-1]:.1f} >= 10")


def test_criterion_07_certificate_feasibility(ex1, ex2, ex2_plan,
                                              ex1_sampled_deltas,
                                              ex2_sampled_deltas, capsys):
    """Interference terms decay with bandwidth and a valid tuning exists."""
    for deltas in (ex1_sampled_deltas, ex2_sampled_deltas):
        grid = np.geomspace(2.0 * deltas.rate + 1.0, 1e3, 24)
        zs = np.array([zeta(w, deltas) for w in grid])
        for j in range(3):
            col = zs[:, j]
            if np.all(col == 0.0):
                continue       # term absent for this plant's structure
            assert np.all(np.diff(col) < 0.0)

    found = search_params(ex1.metric, ex1_sampled_deltas, 0.01, 0.02,
                          EX1_X0, np.zeros(3))
    assert found.feasible and found.certificate.valid

    start = ex2_plan.states[0]
    combos = {}
    for eps_c, rho_a_c in ((0.6, 0.01), (0.6, 0.1), (0.4, 0.1)):
        deltas_c = estimate_deltas(ex2.model, ex2.metric, ex2.bounds,
                                   eps_c + rho_a_c, ex2_plan,
                                   sampling=TubeSampling(seed=0),
                                   l1_config=_sampling_l1(ex2))
        res = search_params(ex2.metric, deltas_c, eps_c, rho_a_c, start,
                            start)
        assert res.feasible and res.certificate.valid
        combos[(eps_c, rho_a_c)] = res
    # tighter transient slack demands more bandwidth; a smaller floor on
    # the adaptive residual demands a faster estimator
    assert combos[(0.4, 0.1)].omega > combos[(0.6, 0.1)].omega
    assert combos[(0.6, 0.01)].gamma > combos[(0.6, 0.1)].gamma
    pretty = "; ".join(
        f"(eps={k[0]}, floor={k[1]}) -> omega {v.omega:.1f}, "
        f"gain {v.gamma:.2e}" for k, v in combos.items())
    _announce(capsys, 7, f"all interference terms strictly decreasing on "
                         f"the bandwidth grid; feasible tunings: {pretty}")


def test_criterion_08_projection_invariants(ex1_full_run, ex2_tube_runs,
                                            gamma_sweep_runs, ex2, capsys):
    """Estimates stay inside the inflated ball; the map deflects outward
    components only."""
    runs = [(ex1_full_run[0], EX1_UNC_BOUND),
            (ex2_tube_runs[0], ex2.bounds.unc_sup)]
    runs += [(traj, EX1_UNC_BOUND) for traj in gamma_sweep_runs.values()]
    worst_frac = 0.0
    for traj, bound in runs:
        sup = float(np.max(np.linalg.norm(traj.sigma_hat, axis=1)))
        assert sup <= 1.1 * bound + 1e-12
        worst_frac = max(worst_frac, sup / (1.1 * bound))

    rng = np.random.default_rng(42)
    radius, eps = 0.7, 0.1
    worst_ip = -np.inf
    for _ in range(10_000):
        m = int(rng.integers(1, 4))
        theta = rng.normal(size=m)
        theta *= rng.uniform(0.0, radius * np.sqrt(1.0 + eps)) \
            / max(np.linalg.norm(theta), 1e-12)
        truth = rng.normal(size=m)
        truth *= rng.uniform(0.0, radius) / max(np.linalg.norm(truth),
                                                1e-12)
        raw = rng.normal(scale=5.0, size=m)
        moved = projection_map(theta, raw, radius, eps)
        worst_ip = max(worst_ip, float((theta - truth) @ (moved - raw)))
    assert worst_ip <= 1e-12
    _announce(capsys, 8, f"sup|estimate| <= 1.1 x bound on every run "
                         f"(worst fraction {worst_frac:.3f}); defining "
                         f"inequality holds on 10000 triples "
                         f"(max inner product {worst_ip:.2e})")


def test_criterion_09_metric_checker(ex1, ex2, capsys):
    """The sampled conditions accept both shipped metrics and reject a
    rate that is ten times too ambitious."""
    rep1 = ccm_check(ex1.model, ex1.metric, region=ex1.metric.domain,
                     n_samples=10_000, seed=3)
    assert rep1.passed
    rep2 = ccm_check(ex2.model, ex2.metric,
                     region=SafeSet.box(np.zeros(2), 4.0),
                     n_samples=10_000, seed=3)
    assert rep2.passed
    broken = dataclasses.replace(
        ex1.metric, contraction_rate=10.0 * ex1.metric.contraction_rate)
    rep_bad = ccm_check(ex1.model, broken, region=ex1.metric.domain,
                        n_samples=2_000, seed=3)
    assert not rep_bad.passed
    assert rep_bad.contraction_margin < 0.0
    _announce(capsys, 9, f"10000-sample margins pass (contraction "
                         f"{rep1.contraction_margin:.3f} / "
                         f"{rep2.contraction_margin:.3f}); tenfold rate "
                         f"rejected ({rep_bad.contraction_margin:.2f})")


def test_criterion_10_determinism_and_order(ex1, ex2, capsys):
    """Equal seeds reproduce bit-identical runs; the integrator shows
    fourth-order convergence on a smooth unforced flow."""
    cfg = SimConfig(dt=1e-3, t_final=0.5, seed=0)
    target = _ex1_target(0.5, 1e-3)
    (a,) = lockstep(ex1.model, ex1.metric, target, EX1_X0, cfg,
                    [integrate_closed_loop(_ex1_l1(1e5))])
    (b,) = lockstep(ex1.model, ex1.metric, target, EX1_X0, cfg,
                    [integrate_closed_loop(_ex1_l1(1e5))])
    for name in ("times", "states", "states_star", "u_feedback",
                 "u_adaptive", "sigma_hat", "xtilde_norm", "energy"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name

    def flow(n_steps):
        x = np.array([1.0, -0.5])
        dt = 1.0 / n_steps
        fun = lambda t, y: ex2.model.drift(y)
        for k in range(n_steps):
            x = rk4_step(fun, k * dt, x, dt)
        return x

    x_ref = flow(2 ** 16)
    errs = np.array([float(np.linalg.norm(flow(2 ** k) - x_ref))
                     for k in (6, 7, 8, 9)])
    orders = np.log2(errs[:-1] / errs[1:])
    assert float(np.min(orders)) >= 3.5
    _announce(capsys, 10, f"reruns bit-identical; observed integrator "
                          f"orders {np.round(orders, 2).tolist()} >= 3.5")
