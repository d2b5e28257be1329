"""Command-line front end.

Verbs
-----
certify    estimate bound constants over the tube, then evaluate (or search
           for) the filter/adaptation tuning certificate
simulate   run closed-loop, reference, and nominal simulations; write CSVs,
           a containment report, and plot data
sweep      grid of tunings; one CSV row per combination with certificate
           margins and measured errors
check-ccm  sample the pointwise metric conditions over the operating region

Exit codes: 0 success, 1 usage or scenario error, 2 certificate infeasible
(or metric check failed, or the planner failed), 3 simulation divergence
(partial outputs are still written).
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

from .certification import (TubeSampling, check_conditions, estimate_deltas,
                            search_params, tube_radii)
from .errors import (CcmL1Error, DivergenceError, InfeasibleCertificate,
                     PlannerFailure, ScenarioError)
from .metric import ccm_check
from .models import DesiredTrajectory
from .scenario import (Scenario, builtin_scenario, canonical_json,
                       tube_obstacle_clearance)
from .sim import (containment, ilqr_plan, integrate_closed_loop,
                  integrate_nominal_ccm, integrate_reference)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_DIVERGED = 3

_GAMMA_DT_WARN = 1e3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with code 2
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="ccml1",
                     description="Contraction-metric tracking with an "
                                 "adaptive augmentation and certified tubes.")
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True

    def common(sp):
        sp.add_argument("--builtin", choices=("ex1", "ex2"),
                        help="use a shipped example scenario")
        sp.add_argument("--scenario", metavar="PATH",
                        help="path to a scenario JSON file")
        sp.add_argument("--out", metavar="DIR", default="out",
                        help="output directory (created if missing)")
        sp.add_argument("--seed", type=int, default=None, metavar="U64",
                        help="override the scenario seed")

    sp = sub.add_parser("certify", help="evaluate or search the certificate")
    common(sp)
    sp = sub.add_parser("simulate", help="run the three loops, write CSVs")
    common(sp)
    sp.add_argument("--no-l1", action="store_true",
                    help="ablation: contraction feedback only, "
                         "uncertainty still active")
    sp = sub.add_parser("sweep", help="grid over tunings, one CSV row each")
    common(sp)
    sp = sub.add_parser("check-ccm", help="sample the metric conditions")
    common(sp)
    return parser


def _load_scenario(args) -> Scenario:
    if (args.builtin is None) == (args.scenario is None):
        raise _UsageError("give exactly one of --builtin or --scenario")
    if args.builtin is not None:
        scn = builtin_scenario(args.builtin)
    else:
        path = Path(args.scenario)
        if not path.is_file():
            raise ScenarioError(f"scenario file not found: {path}")
        scn = Scenario.load(str(path))
    if args.seed is not None:
        if args.seed < 0:
            raise _UsageError("--seed must be nonnegative")
        doc = dict(scn.doc)
        doc["sim"] = dict(doc.get("sim", {}), seed=int(args.seed))
        scn = Scenario.from_dict(doc)
    return scn


# --- shared assembly ---------------------------------------------------------


def _assemble(scn: Scenario):
    """System, sim config, desired trajectory, and initial state."""
    sysb = scn.system()
    cfg = scn.sim_config()
    ddoc = scn.desired_spec()
    if ddoc["kind"] == "constant":
        traj_star = DesiredTrajectory.constant(
            np.asarray(ddoc["state"], dtype=float),
            np.asarray(ddoc["input"], dtype=float),
            t0=0.0, t_final=cfg.t_final, dt=cfg.dt)
    else:
        plan = ilqr_plan(sysb.model, np.asarray(ddoc["start"], dtype=float),
                         np.asarray(ddoc["target"], dtype=float),
                         t_final=float(ddoc["t_final"]),
                         dt=float(ddoc["dt"]))
        if abs(plan.dt - cfg.dt) > 1e-15:
            try:
                plan = plan.refine(sysb.model, cfg.dt)
            except ValueError as exc:
                raise ScenarioError(f"plan dt {ddoc['dt']} does not refine "
                                    f"to sim dt {cfg.dt}: {exc}") from exc
        traj_star = plan
    x0 = scn.initial_state(default=traj_star.states[0])
    if x0.shape != (sysb.model.state_dim,):
        raise ScenarioError("init.x0 has the wrong dimension")
    return sysb, cfg, traj_star, x0


def _certificate_pipeline(scn: Scenario, sysb, cfg, traj_star, x0):
    """Deltas plus certificate; resolves 'auto' tuning via the search."""
    field, model = sysb.metric, sysb.model
    eps, rho_a = scn.tube_params()
    x0_star = traj_star.states[0]
    _, rho = tube_radii(field.eig_floor, field.eig_ceil, eps, rho_a, x0,
                        x0_star)
    sampling = TubeSampling(seed=cfg.seed)
    l1_for_sampling = scn.make_l1_config(
        model, omega=1.0, gamma=1.0,
        unc_bound=max(sysb.bounds.unc_sup or 1.0, 1e-12))
    deltas = estimate_deltas(model, field, sysb.bounds, rho, traj_star,
                             sampling=sampling, l1_config=l1_for_sampling)

    spec = scn.l1_spec()
    omega, gamma = spec["omega"], spec["gamma"]
    searched = False
    if omega == "auto" or gamma == "auto":
        res = search_params(field, deltas, eps, rho_a, x0, x0_star)
        if not res.feasible:
            raise InfeasibleCertificate(
                f"tuning search failed; binding condition: {res.binding}")
        searched = True
        omega = res.omega if spec["omega"] == "auto" else spec["omega"]
        gamma = res.gamma if spec["gamma"] == "auto" else spec["gamma"]
    cert = check_conditions(field, deltas, float(omega), float(gamma),
                            eps, rho_a, x0, x0_star)
    return deltas, cert, searched


def _write_json(path: Path, doc: dict):
    path.write_text(canonical_json(doc), encoding="utf-8")


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return str(bool(v))
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    return str(v)


def _write_csv(path: Path, header: list[str], rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _traj_csv(path: Path, traj, cert):
    n = traj.states.shape[1]
    m = traj.u_feedback.shape[1]
    header = (["t"]
              + [f"x[{i}]" for i in range(n)]
              + [f"x_star[{i}]" for i in range(n)]
              + [f"u_c[{j}]" for j in range(m)]
              + [f"u_a[{j}]" for j in range(m)]
              + [f"sigma_hat[{j}]" for j in range(m)]
              + ["xtilde_norm", "energy", "dist", "rho", "delta_t"])
    dist = traj.dist

    def rows():
        for k, t in enumerate(traj.times):
            yield ([t] + list(traj.states[k]) + list(traj.states_star[k])
                   + list(traj.u_feedback[k]) + list(traj.u_adaptive[k])
                   + list(traj.sigma_hat[k])
                   + [traj.xtilde_norm[k], traj.energy[k], dist[k],
                      cert.rho, cert.delta_t(float(t))])

    _write_csv(path, header, rows())


# --- commands ------------------------------------------------------------------


def cmd_certify(scn: Scenario, args, out: Path) -> int:
    sysb, cfg, traj_star, x0 = _assemble(scn)
    deltas, cert, searched = _certificate_pipeline(scn, sysb, cfg,
                                                   traj_star, x0)
    report = {
        "scenario": scn.name,
        "searched": searched,
        "certificate": cert.as_dict(),
        "deltas": deltas.as_dict(),
        "x0": [float(v) for v in x0],
        "x0_star": [float(v) for v in traj_star.states[0]],
    }
    _write_json(out / "certificate.json", report)
    marg = cert.as_dict()["margins"]
    print(f"certificate {'valid' if cert.valid else 'INVALID'} "
          f"(omega={cert.omega:.6g}, gamma={cert.gamma:.6g}, "
          f"rho={cert.rho:.6g}); margins: energy={marg['energy']:.3g}, "
          f"bandwidth={marg['bandwidth']:.3g}, "
          f"adaptation={marg['adaptation']:.3g}")
    return EXIT_OK if cert.valid else EXIT_INFEASIBLE


def cmd_simulate(scn: Scenario, args, out: Path) -> int:
    sysb, cfg, traj_star, x0 = _assemble(scn)
    model, field = sysb.model, sysb.metric
    deltas, cert, _ = _certificate_pipeline(scn, sysb, cfg, traj_star, x0)
    _write_json(out / "certificate.json", {"scenario": scn.name,
                                           "certificate": cert.as_dict(),
                                           "deltas": deltas.as_dict()})
    _write_json(out / "scenario.json", scn.doc)

    if cert.gamma * cfg.dt > _GAMMA_DT_WARN:
        print(f"warning: adaptation_gain * dt = {cert.gamma * cfg.dt:.3g} "
              f"> {_GAMMA_DT_WARN:g}; the explicit adaptation update may be "
              f"marginally stable (reduce dt or the gain)", file=sys.stderr)

    unc_bound = sysb.bounds.unc_sup
    if unc_bound is None:
        unc_bound = deltas.unc_sup
    l1cfg = None
    if not args.no_l1:
        l1cfg = scn.make_l1_config(model, cert.omega, cert.gamma, unc_bound)

    def run(loop, *loop_args):
        """One loop on its own: its trajectory (partial when it diverged)
        and the divergence message, so one loop's divergence leaves the
        others' outputs whole."""
        try:
            return loop(model, field, *loop_args), None
        except DivergenceError as exc:
            return exc.partial, str(exc)

    loops = {"closed_loop": ("actual", *run(integrate_closed_loop, l1cfg,
                                            traj_star, x0, cfg)),
             "reference": ("reference", *run(integrate_reference, cert.omega,
                                             traj_star, x0, cfg)),
             "nominal": ("actual", *run(integrate_nominal_ccm, traj_star,
                                        x0, cfg))}
    diverged = next((msg for _, _, msg in loops.values() if msg), None)

    report: dict = {"scenario": scn.name, "diverged": diverged,
                    "l1_enabled": not args.no_l1,
                    "certificate_valid": bool(cert.valid)}
    for name, (kind, traj, msg) in loops.items():
        _traj_csv(out / f"{name}.csv", traj, cert)
        rep = containment(traj, cert, kind=kind, safe_set=sysb.safe_set)
        report[name] = rep.as_dict()
        report[name]["sup_xtilde"] = float(np.max(traj.xtilde_norm))
        report[name]["sup_sigma_hat"] = float(
            np.max(np.linalg.norm(traj.sigma_hat, axis=1)))
        if traj.warnings:
            report[name]["warnings"] = list(traj.warnings)
        if msg is not None:
            report[name]["diverged"] = msg

    obstacles = scn.obstacles()
    if obstacles and model.state_dim == 2:
        report["obstacle_clearance"] = float(tube_obstacle_clearance(
            traj_star.states, cert.rho, obstacles))

    _write_json(out / "containment.json", report)

    header = ["t", "dist_closed", "dist_reference", "dist_nominal",
              "rho", "rho_r", "delta_t", "mu"]
    d_cl, d_ref, d_nom = (traj.dist for _, traj, _ in loops.values())

    def rows():
        for k, t in enumerate(loops["closed_loop"][1].times):
            yield [t, d_cl[k],
                   d_ref[k] if k < len(d_ref) else math.nan,
                   d_nom[k] if k < len(d_nom) else math.nan,
                   cert.rho, cert.rho_r,
                   cert.delta_t(float(t)), cert.mu(float(t))]

    _write_csv(out / "plot_bounds.csv", header, rows())

    if diverged is not None:
        print(f"simulation diverged: {diverged}", file=sys.stderr)
        return EXIT_DIVERGED
    sup = float(np.max(d_cl))
    print(f"simulate done: sup tracking error {sup:.6g} "
          f"(tube radius {cert.rho:.6g}, "
          f"contained={report['closed_loop']['contained']})")
    return EXIT_OK


def cmd_sweep(scn: Scenario, args, out: Path) -> int:
    sysb, cfg, traj_star, x0 = _assemble(scn)
    model, field = sysb.model, sysb.metric
    x0_star = traj_star.states[0]
    grid = scn.sweep_spec()
    spec = scn.l1_spec()
    eps0, rho_a0 = scn.tube_params()

    def axis(key, fallback):
        if key in grid:
            return grid[key]
        if fallback == "auto":
            raise ScenarioError(
                f"sweep needs an explicit list for '{key}' "
                f"(scenario default is 'auto')")
        return [float(fallback)]

    omegas = axis("omega", spec["omega"])
    gammas = axis("gamma", spec["gamma"])
    epss = axis("eps", eps0)
    rho_as = axis("rho_a", rho_a0)

    unc_bound = sysb.bounds.unc_sup
    sampling = TubeSampling(seed=cfg.seed)
    l1_sampling = scn.make_l1_config(model, 1.0, 1.0,
                                     max(unc_bound or 1.0, 1e-12))
    delta_cache: dict[float, object] = {}

    header = ["omega", "gamma", "eps", "rho_a", "rho", "valid",
              "margin_energy", "margin_bandwidth", "margin_adaptation",
              "sup_dist", "sup_xtilde", "sup_sigma_hat", "contained",
              "status"]
    rows = []
    for omega, gamma, eps, rho_a in itertools.product(omegas, gammas,
                                                      epss, rho_as):
        row = [omega, gamma, eps, rho_a]
        try:
            _, rho = tube_radii(field.eig_floor, field.eig_ceil, eps,
                                rho_a, x0, x0_star)
            if rho not in delta_cache:
                delta_cache[rho] = estimate_deltas(
                    model, field, sysb.bounds, rho, traj_star,
                    sampling=sampling, l1_config=l1_sampling)
            deltas = delta_cache[rho]
            cert = check_conditions(field, deltas, omega, gamma, eps,
                                    rho_a, x0, x0_star)
            if gamma * cfg.dt > _GAMMA_DT_WARN:
                print(f"warning: adaptation_gain * dt = "
                      f"{gamma * cfg.dt:.3g} > {_GAMMA_DT_WARN:g} "
                      f"(omega={omega:g}, gamma={gamma:g})",
                      file=sys.stderr)
            l1cfg = scn.make_l1_config(
                model, omega, gamma,
                unc_bound if unc_bound is not None else deltas.unc_sup)
            traj = integrate_closed_loop(model, field, l1cfg, traj_star,
                                         x0, cfg)
            rep = containment(traj, cert, kind="actual",
                              safe_set=sysb.safe_set)
            row += [cert.rho, cert.valid, cert.margin_energy,
                    cert.margin_bandwidth, cert.margin_adaptation,
                    float(np.max(traj.dist)),
                    float(np.max(traj.xtilde_norm)),
                    float(np.max(np.linalg.norm(traj.sigma_hat, axis=1))),
                    rep.contained, "ok"]
        except (CcmL1Error, ValueError) as exc:
            msg = " ".join(str(exc).split())
            row += [math.nan] * (len(header) - len(row) - 1)
            row += [f"{type(exc).__name__}: {msg}"]
        rows.append(row)

    _write_csv(out / "sweep.csv", header, rows)
    n_ok = sum(1 for r in rows if r[-1] == "ok")
    print(f"sweep done: {len(rows)} combinations, {n_ok} ran cleanly "
          f"-> {out / 'sweep.csv'}")
    return EXIT_OK


def cmd_check_ccm(scn: Scenario, args, out: Path) -> int:
    sysb = scn.system()
    cfg = scn.sim_config()
    region = sysb.metric.domain if sysb.metric.domain is not None \
        else sysb.safe_set
    if not region.is_bounded:
        raise ScenarioError("check-ccm needs a bounded region to sample: "
                            "give the metric a 'domain'")
    rep = ccm_check(sysb.model, sysb.metric, region=region,
                    n_samples=scn.ccm_samples(), seed=cfg.seed)
    _write_json(out / "ccm_check.json", {"scenario": scn.name,
                                         **rep.as_dict()})
    print(f"metric conditions {'PASS' if rep.passed else 'FAIL'} on "
          f"{rep.n_samples} samples: eig={rep.eig_margin:.3g}, "
          f"contraction={rep.contraction_margin:.3g}, "
          f"invariance={rep.killing_margin:.3g}")
    return EXIT_OK if rep.passed else EXIT_INFEASIBLE


_DISPATCH = {
    "certify": cmd_certify,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "check-ccm": cmd_check_ccm,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help / --version paths
        return int(exc.code or 0)

    try:
        scn = _load_scenario(args)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return _DISPATCH[args.command](scn, args, out)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InfeasibleCertificate as exc:
        print(f"certificate infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except PlannerFailure as exc:
        print(f"planner failed: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except DivergenceError as exc:
        print(f"simulation diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
