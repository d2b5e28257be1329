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

Exit codes: 0 success, 1 usage or scenario error (a metric, geodesic or
shape error outside the loops among them), 2 certificate infeasible
(or metric check failed, or the planner failed), 3 a simulated loop
diverged or left the metric's domain (partial outputs are still written).
"""

from __future__ import annotations

import argparse
import csv
import itertools
import math
import sys
from pathlib import Path

import numpy as np

from .certification import (TubeSampling, check_conditions, estimate_deltas,
                            search_params, tube_radii)
from .errors import (CcmL1Error, InfeasibleCertificate, PlannerFailure,
                     ScenarioError)
from .metric import ccm_check
from .models import DesiredTrajectory
from .scenario import (Scenario, builtin_scenario, canonical_json,
                       tube_obstacle_clearance)
from .sim import (containment, ilqr_plan, integrate_closed_loop,
                  integrate_nominal_ccm, integrate_reference, lockstep,
                  time_radii)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_DIVERGED = 3

_GAMMA_DT_WARN = 1e3
# Most loops a sweep runs in one batch.  A batch holds every row's records
# for the whole horizon, so this bounds the sweep's memory (about 64 bytes
# per step and row on ex1) while keeping most of the batching gain.
SWEEP_BATCH = 16


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
        scn = scn.with_seed(args.seed)
    return scn


# --- shared assembly ---------------------------------------------------------


def _assemble(scn: Scenario):
    """System, sim config, desired trajectory, and initial state."""
    sysb, cfg, desired = scn.system(), scn.sim, scn.desired
    if desired is None:
        raise ScenarioError("scenario needs a 'desired' section")
    if desired["kind"] == "constant":
        traj_star = DesiredTrajectory.constant(
            desired["state"], desired["input"], t_final=cfg.t_final, dt=cfg.dt)
    else:
        traj_star = ilqr_plan(sysb.model, desired["start"], desired["target"],
                              t_final=desired["t_final"], dt=desired["dt"])
        if abs(traj_star.dt - cfg.dt) > 1e-15:
            try:
                traj_star = traj_star.refine(sysb.model, cfg.dt)
            except ValueError as exc:
                raise ScenarioError(f"plan dt {desired['dt']} does not refine"
                                    f" to sim dt {cfg.dt}: {exc}") from exc
    x0 = traj_star.states[0] if scn.x0 is None else scn.x0
    return sysb, cfg, traj_star, x0


def _sampling_l1_config(scn: Scenario, sysb):
    """The L1 tuning the tube sampling assumes."""
    return scn.make_l1_config(sysb.model, 1.0, 1.0,
                              max(sysb.bounds.unc_sup or 1.0, 1e-12))


def _loop_l1_config(scn: Scenario, sysb, deltas, omega, gamma):
    """A loop's L1 tuning: the assumed uncertainty bound, else the sampled."""
    unc = sysb.bounds.unc_sup
    return scn.make_l1_config(sysb.model, omega, gamma,
                              deltas.unc_sup if unc is None else unc)


def _certificate_pipeline(scn: Scenario, sysb, cfg, traj_star, x0):
    """Deltas plus certificate; resolves 'auto' tuning via the search."""
    field, model = sysb.metric, sysb.model
    eps, rho_a = scn.eps, scn.rho_a
    x0_star = traj_star.states[0]
    _, rho = tube_radii(field.eig_floor, field.eig_ceil, eps, rho_a, x0,
                        x0_star)
    deltas = estimate_deltas(model, field, sysb.bounds, rho, traj_star,
                             sampling=TubeSampling(seed=cfg.seed),
                             l1_config=_sampling_l1_config(scn, sysb))

    omega, gamma = scn.l1["omega"], scn.l1["gamma"]
    searched = False
    if omega == "auto" or gamma == "auto":
        res = search_params(field, deltas, eps, rho_a, x0, x0_star)
        if not res.feasible:
            raise InfeasibleCertificate(
                f"tuning search failed; binding condition: {res.binding}")
        searched = True
        omega = res.omega if omega == "auto" else omega
        gamma = res.gamma if gamma == "auto" else gamma
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
    """Rows of mixed types, each cell through :func:`_fmt`."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_numbers(path: Path, header: list[str], table: np.ndarray):
    """A 2-D table of floats, one ``%.17g`` format per row: the text
    :func:`_write_csv` writes for it, csv's ``\\r\\n`` line ends included."""
    line = ",".join(["%.17g"] * len(header)) + "\r\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(line % tuple(row) for row in table.tolist())


def _traj_csv(path: Path, traj, cert, delta_t: np.ndarray):
    """One run's CSV; ``delta_t`` is the certificate's total radius along
    the time grid (at least as long as the run)."""
    n = traj.states.shape[1]
    m = traj.u_feedback.shape[1]
    header = (["t"]
              + [f"x[{i}]" for i in range(n)]
              + [f"x_star[{i}]" for i in range(n)]
              + [f"u_c[{j}]" for j in range(m)]
              + [f"u_a[{j}]" for j in range(m)]
              + [f"sigma_hat[{j}]" for j in range(m)]
              + ["xtilde_norm", "energy", "dist", "rho", "delta_t"])
    k = len(traj.times)
    _write_numbers(path, header, np.column_stack([
        traj.times, traj.states, traj.states_star, traj.u_feedback,
        traj.u_adaptive, traj.sigma_hat, traj.xtilde_norm, traj.energy,
        traj.dist, np.full(k, cert.rho), delta_t[:k]]))


def _sup(values: np.ndarray):
    """Largest entry, or None for a run that recorded no step."""
    return float(np.max(values)) if len(values) else None


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
    print(f"certificate {'valid' if cert.valid else 'INVALID'} "
          f"(omega={cert.omega:.6g}, gamma={cert.gamma:.6g}, "
          f"rho={cert.rho:.6g}); margins: energy={cert.margin_energy:.3g}, "
          f"bandwidth={cert.margin_bandwidth:.3g}, "
          f"adaptation={cert.margin_adaptation:.3g}")
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

    l1cfg = None if args.no_l1 else _loop_l1_config(scn, sysb, deltas,
                                                     cert.omega, cert.gamma)

    loops = {"closed_loop": ("actual", integrate_closed_loop(l1cfg)),
             "reference": ("reference", integrate_reference(cert.omega)),
             "nominal": ("actual", integrate_nominal_ccm())}
    trajs = dict(zip(loops, lockstep(model, field, traj_star, x0, cfg,
                                     [loop for _, loop in loops.values()])))
    diverged = next((str(traj.stopped) for traj in trajs.values()
                     if traj.stopped is not None), None)
    # the certificate's radii along the longest run's time grid
    grid = max((traj.times for traj in trajs.values()), key=len)
    delta_t, mu = time_radii(cert, grid)

    report: dict = {"scenario": scn.name, "diverged": diverged,
                    "l1_enabled": not args.no_l1,
                    "certificate_valid": bool(cert.valid)}
    for name, (kind, _) in loops.items():
        traj = trajs[name]
        _traj_csv(out / f"{name}.csv", traj, cert, delta_t)
        report[name] = containment(traj, cert, kind=kind,
                                   safe_set=sysb.safe_set,
                                   radii=(delta_t, mu))
        report[name]["sup_xtilde"] = _sup(traj.xtilde_norm)
        report[name]["sup_sigma_hat"] = _sup(
            np.linalg.norm(traj.sigma_hat, axis=1))
        if traj.warnings:
            report[name]["warnings"] = list(traj.warnings)
        if traj.stopped is not None:
            report[name]["diverged"] = str(traj.stopped)

    if scn.obstacles and model.state_dim == 2:
        report["obstacle_clearance"] = float(tube_obstacle_clearance(
            traj_star.states, cert.rho, scn.obstacles))

    _write_json(out / "containment.json", report)

    # one row per step of the closed loop; the other loops' distances are
    # NaN where they stopped earlier
    k = len(trajs["closed_loop"].times)
    dists = [np.full(k, math.nan) for _ in trajs]
    for col, traj in zip(dists, trajs.values()):
        col[:len(traj.times)] = traj.dist[:k]
    _write_numbers(out / "plot_bounds.csv",
                   ["t", "dist_closed", "dist_reference", "dist_nominal",
                    "rho", "rho_r", "delta_t", "mu"],
                   np.column_stack([grid[:k], *dists, np.full(k, cert.rho),
                                    np.full(k, cert.rho_r), delta_t[:k],
                                    mu[:k]]))

    if diverged is not None:
        print(f"simulation diverged: {diverged}", file=sys.stderr)
        return EXIT_DIVERGED
    sup = float(np.max(trajs["closed_loop"].dist))
    print(f"simulate done: sup tracking error {sup:.6g} "
          f"(tube radius {cert.rho:.6g}, "
          f"contained={report['closed_loop']['contained']})")
    return EXIT_OK


def cmd_sweep(scn: Scenario, args, out: Path) -> int:
    sysb, cfg, traj_star, x0 = _assemble(scn)
    model, field = sysb.model, sysb.metric
    x0_star = traj_star.states[0]
    # each axis: the sweep's list, else the scenario's one value
    grid = {key: scn.sweep.get(key, [fallback]) for key, fallback in (
        ("omega", scn.l1["omega"]), ("gamma", scn.l1["gamma"]),
        ("eps", scn.eps), ("rho_a", scn.rho_a))}
    for key in ("omega", "gamma"):
        if grid[key] == ["auto"]:
            raise ScenarioError(f"sweep needs an explicit list for '{key}' "
                                f"(scenario default is 'auto')")

    sampling = TubeSampling(seed=cfg.seed)
    l1_sampling = _sampling_l1_config(scn, sysb)
    delta_cache: dict[float, object] = {}

    header = ["omega", "gamma", "eps", "rho_a", "rho", "valid",
              "margin_energy", "margin_bandwidth", "margin_adaptation",
              "sup_dist", "sup_xtilde", "sup_sigma_hat", "contained",
              "status"]

    def fail(row, exc):
        msg = " ".join(str(exc).split())
        row += [math.nan] * (len(header) - len(row) - 1)
        row += [f"{type(exc).__name__}: {msg}"]

    # certificates first, in grid order; the combinations that share a
    # tube radius share its constants, and their loops run in batches
    rows, groups = [], {}
    for omega, gamma, eps, rho_a in itertools.product(*grid.values()):
        row = [omega, gamma, eps, rho_a]
        rows.append(row)
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
            l1cfg = _loop_l1_config(scn, sysb, deltas, omega, gamma)
        except (CcmL1Error, ValueError) as exc:
            fail(row, exc)
            continue
        groups.setdefault(rho, []).append((row, cert, l1cfg))

    def run(members):
        """Each member's trajectory, or the error its loop raised.  A batch
        that raises runs again one member at a time, so only the member
        whose loop raises fails."""
        try:
            return lockstep(model, field, traj_star, x0, cfg,
                            [integrate_closed_loop(c) for _, _, c in members])
        except (CcmL1Error, ValueError) as exc:
            if len(members) == 1:
                return [exc]
            return [out for one in members for out in run([one])]

    for members in groups.values():
        for at in range(0, len(members), SWEEP_BATCH):
            chunk = members[at:at + SWEEP_BATCH]
            for (row, cert, _), traj in zip(chunk, run(chunk)):
                stopped = traj if isinstance(traj, Exception) else traj.stopped
                if stopped is not None:
                    fail(row, stopped)
                    continue
                try:
                    rep = containment(traj, cert, kind="actual",
                                      safe_set=sysb.safe_set)
                except (CcmL1Error, ValueError) as exc:
                    fail(row, exc)
                    continue
                row += [cert.rho, cert.valid, cert.margin_energy,
                        cert.margin_bandwidth, cert.margin_adaptation,
                        float(np.max(traj.dist)),
                        float(np.max(traj.xtilde_norm)),
                        float(np.max(np.linalg.norm(traj.sigma_hat, axis=1))),
                        rep["contained"], "ok"]

    _write_csv(out / "sweep.csv", header, rows)
    n_ok = sum(1 for r in rows if r[-1] == "ok")
    print(f"sweep done: {len(rows)} combinations, {n_ok} ran cleanly "
          f"-> {out / 'sweep.csv'}")
    return EXIT_OK


def cmd_check_ccm(scn: Scenario, args, out: Path) -> int:
    sysb = scn.system()
    region = sysb.metric.domain if sysb.metric.domain is not None \
        else sysb.safe_set
    if not region.is_bounded:
        raise ScenarioError("check-ccm needs a bounded region to sample: "
                            "give the metric a 'domain'")
    rep = ccm_check(sysb.model, sysb.metric, region=region,
                    n_samples=scn.ccm_samples, seed=scn.sim.seed)
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
    except CcmL1Error as exc:
        # a metric, geodesic or shape error outside the loops: what the
        # scenario describes does not fit its metric or its model
        at = "" if getattr(exc, "x", None) is None \
            else f" at x = {exc.x.tolist()}"
        msg = " ".join(f"{exc}{at}".split())
        print(f"scenario error: {type(exc).__name__}: {msg}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
