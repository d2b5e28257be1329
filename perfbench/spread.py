#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads ex2-plan --seeds 10 --out a.json
    python3 perfbench/spread.py --seeds 10 --out b.json --compare a.json

For every workload and end-to-end metric this prints the median of the
per-run values and their spread: the distance between the first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of the median.
A metric is steady when its spread is below a third of its bound (setup_s is
exempt: only its median is compared).  With ``--compare`` it also checks
that no median is worse than the earlier file's by more than the bound.
The same summary of the raw, not rescaled, wall and set-up times is printed
for reference (README.md, "Why times are rescaled").
Runs go one after another, so they never compete for the processor.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600, check=False)
    if res.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {res.returncode}:\n"
                         f"{res.stderr[-2000:]}")
    result = json.loads(res.stdout.strip().splitlines()[-1])
    record = json.loads((ROOT / ".bench_build" / "perfbench" / "results" /
                         f"{workload}-seed{seed}-trace{trace}.json"
                         ).read_text(encoding="utf-8"))
    return result, record


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med, "values": values}


def worse_by(name: str, old: float, new: float) -> float:
    """How much worse ``new`` is than ``old``, as a share of ``old``."""
    better = spec.END_TO_END[name][1]
    return (new - old) / old if better == "lower" else (old - new) / old


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(spec.WORKLOADS))
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=spec.RUN_SECONDS)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--compare", type=Path)
    args = p.parse_args(argv)

    earlier = json.loads(args.compare.read_text()) if args.compare else {}
    report, ok = {}, True
    for workload in args.workloads.split(","):
        runs, raw = [], {"wall_s": [], "setup_s": []}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result, record = run_once(workload, seed, args.seconds, 0)
            runs.append(result)
            raw["wall_s"].append(record["raw_wall_s_median"])
            raw["setup_s"].append(
                statistics.median(record["raw_setup_s_samples"]))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={m['value']:.5g}" for n, m in runs[-1]["metrics"].items()),
                flush=True)
        entry = {"attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs),
                 "metrics": {}}
        ok &= entry["failed"] == 0
        for name, (unit, _, bound) in spec.END_TO_END.items():
            s = summarize([r["metrics"][name]["value"] for r in runs])
            s.update(unit=unit, bound=bound)
            steady = name == "setup_s" or s["spread"] < bound / 3
            line = (f"  {workload:15s} {name:12s} median {s['median']:.5g} "
                    f"{unit}  spread {s['spread']:.3f} (bound {bound})"
                    f"{'' if steady else '  NOT STEADY'}")
            ok &= steady
            old = earlier.get(workload, {}).get("metrics", {}).get(name)
            if old is not None:
                w = worse_by(name, old["median"], s["median"])
                line += f"  vs earlier {w:+.3f}" + ("" if w <= bound
                                                   else "  REGRESSED")
                ok &= w <= bound
            print(line, flush=True)
            entry["metrics"][name] = s
        for name, values in raw.items():
            s = summarize(values)
            print(f"  {workload:15s} {name:12s} not rescaled: median "
                  f"{s['median']:.5g} s  spread {s['spread']:.3f}", flush=True)
            entry.setdefault("raw", {})[name] = s
        report[workload] = entry
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
