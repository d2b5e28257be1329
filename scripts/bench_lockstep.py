#!/usr/bin/env python3
"""Record the lockstep loop's benchmark numbers in BENCH_lockstep.json.

    python3 scripts/bench_lockstep.py --parent DIR [--pairs 10] [--seed 0]
        [--held-out-seed 1 --held-out-pairs 3] [--workloads ...]
        [--out BENCH_lockstep.json]

``DIR`` is a checkout of the commit before the change (made with
``git archive`` or ``git clone``).  For every workload this alternates
``python3 perfbench/run.py --workload W --seed S --seconds 25 --trace 0``
in the parent checkout and in this one, ``--pairs`` times, and records each
end-to-end metric per run, its median and quartiles on each side, and how
many pairs the change won.  The claimed workload (``ex1-gain-sweep``) also
runs a few pairs on a held-out seed.

It then times ``ccml1 sweep`` on ex1 (``sim.t_final`` 0.1) with K = 1, 4, 16
and 64 adaptation gains in both checkouts: each row of the sweep is one
closed loop, and the change runs all rows with the same tube radius as one
lockstep batch.  Every command is recorded with its wall time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("ex1-track", "ex2-plan", "ex1-gain-sweep", "certify-check")
CLAIMED = "ex1-gain-sweep"
K_CURVE = (1, 4, 16, 64)
ONE_THREAD = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                               "MKL_NUM_THREADS")}


def _perfbench(checkout: Path, workload: str, seed: int,
               seconds: int) -> tuple[list[str], dict]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    res = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                         timeout=900, check=False)
    if res.returncode != 0:
        raise SystemExit(f"{checkout}: {' '.join(cmd)} exited "
                         f"{res.returncode}:\n{res.stderr[-2000:]}")
    return cmd, json.loads(res.stdout.strip().splitlines()[-1])


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def _pairs(parent: Path, workload: str, seed: int, pairs: int,
           seconds: int) -> dict:
    runs = {"parent": [], "change": []}
    cmd = None
    sides = (("parent", parent), ("change", ROOT))
    for i in range(pairs):
        # alternate which side runs first
        for side, checkout in (sides if i % 2 == 0 else sides[::-1]):
            cmd, result = _perfbench(checkout, workload, seed, seconds)
            runs[side].append(result)
            print(f"{workload} seed {seed} pair {i + 1}/{pairs} {side}: "
                  f"wall_s {result['metrics']['wall_s']['value']:.4g}",
                  flush=True)
    out = {"command": " ".join(["python3"] + cmd[1:]), "seed": seed,
           "pairs": pairs,
           "failed": {side: sum(r["failed"] for r in rs)
                      for side, rs in runs.items()},
           "metrics": {}}
    for name in runs["change"][0]["metrics"]:
        per_side = {side: [r["metrics"][name]["value"] for r in rs]
                    for side, rs in runs.items()}
        better = min if name != "steps_per_s" else max
        wins = sum(better(p, c) == c and p != c
                   for p, c in zip(per_side["parent"], per_side["change"]))
        out["metrics"][name] = {
            "unit": runs["change"][0]["metrics"][name]["unit"],
            "parent": _summary(per_side["parent"]),
            "change": _summary(per_side["change"]),
            "pairs_won_by_change": wins}
    return out


def _sweep_doc(k: int) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    from ccml1.scenario import builtin_scenario
    doc = dict(builtin_scenario("ex1").doc)
    doc["sim"] = dict(doc["sim"], t_final=0.1)
    gammas = [1e4 * 1000.0 ** (i / max(k - 1, 1)) for i in range(k)]
    doc["sweep"] = {"omega": [50.0], "gamma": gammas}
    return doc


def _k_curve(parent: Path, repeats: int) -> list[dict]:
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for k in K_CURVE:
            scenario = Path(tmp) / f"ex1-sweep-{k}.json"
            scenario.write_text(json.dumps(_sweep_doc(k), sort_keys=True))
            row = {"k": k, "scenario": {
                "sweep": _sweep_doc(k)["sweep"],
                "based_on": "builtin ex1 with sim.t_final 0.1"}}
            sides = (("parent", parent), ("change", ROOT))
            for side, checkout in (sides if k % 2 else sides[::-1]):
                cmd = [sys.executable, "-m", "ccml1.cli", "sweep",
                       "--scenario", str(scenario), "--out",
                       str(Path(tmp) / f"{side}-{k}"), "--seed", "0"]
                env = dict(os.environ, PYTHONPATH=str(checkout / "src"),
                           **ONE_THREAD)
                best = None
                for _ in range(repeats):
                    t0 = time.perf_counter()
                    subprocess.run(cmd, cwd=checkout, env=env, check=True,
                                   capture_output=True, timeout=900)
                    wall = time.perf_counter() - t0
                    best = wall if best is None else min(best, wall)
                row[side] = {"command": (
                    f"PYTHONPATH=<{side} checkout>/src python3 -m ccml1.cli "
                    f"sweep --scenario {scenario.name} --out <dir> --seed 0"),
                    "best_wall_s": best, "repeats": repeats}
                print(f"sweep K={k} {side}: {best:.3f} s", flush=True)
            rows.append(row)
    return rows


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, type=Path)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--held-out-seed", type=int, default=1)
    p.add_argument("--held-out-pairs", type=int, default=3)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--k-repeats", type=int, default=3)
    p.add_argument("--workloads", nargs="*", default=list(WORKLOADS))
    p.add_argument("--out", type=Path, default=ROOT / "BENCH_lockstep.json")
    args = p.parse_args(argv)

    record = {
        "what": "lockstep run axis: end-to-end perfbench pairs (parent, "
                "change) and a sweep K-scaling curve",
        "machine": {"cpu": _cpu_model(),
                    "python": platform.python_version(),
                    "nproc": os.cpu_count(),
                    "blas_threads": 1,
                    "loadavg_1m_before": os.getloadavg()[0]},
        "workloads": {},
    }
    for workload in args.workloads:
        entry = {"main": _pairs(args.parent, workload, args.seed, args.pairs,
                                args.seconds)}
        if workload == CLAIMED and args.held_out_pairs:
            entry["held_out"] = _pairs(args.parent, workload,
                                       args.held_out_seed,
                                       args.held_out_pairs, args.seconds)
        record["workloads"][workload] = entry
    record["sweep_k_curve"] = _k_curve(args.parent, args.k_repeats)
    record["machine"]["loadavg_1m_after"] = os.getloadavg()[0]
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
