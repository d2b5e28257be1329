#!/usr/bin/env python3
"""Benchmark of the ccml1 command line, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, one BLAS/OMP thread, one client in a closed loop: each verb
call goes through ``ccml1.cli.main(argv)`` and starts when the previous one
has returned.  A workload execution is all of a workload's verb calls; the
run repeats executions for ``--seconds`` (at least two, so that two
executions with the same seed can be compared byte for byte) and checks
every output.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced executions and prints the per-layer metrics, including
the tracing overhead.  The last line of standard output is the JSON result;
a fuller record (run context, every sample, spans) goes under
``.bench_build/perfbench/`` in the checkout.

``--write-spec`` regenerates ``BENCHMARK.json`` from ``spec.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 7             # timed fresh interpreters, after one warm-up
SPEED_PROBES = 50            # probes before and after each of them
MIN_EXECUTIONS = 2


class HarnessError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=list(spec.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-spec", action="store_true",
                   help="write BENCHMARK.json from spec.py and exit")
    args = p.parse_args(argv)
    if not args.write_spec and args.workload is None:
        p.error("--workload is required")
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    return args


def _import_program():
    """Import ccml1 from this checkout's src/, with BLAS pinned first."""
    if not (SRC / "ccml1" / "cli.py").is_file():
        raise HarnessError(f"no program to measure: {SRC / 'ccml1'} is missing")
    for var in BLAS_ENV:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import ccml1.cli
    if Path(ccml1.cli.__file__).resolve().parent != SRC / "ccml1":
        raise HarnessError(f"ccml1 imported from {ccml1.cli.__file__}, "
                           f"not from {SRC}")
    return ccml1.cli


def _context() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=False)
        sha = res.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "ccml1").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    import numpy
    import scipy
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_ENV},
        "loadavg_1m_before": os.getloadavg()[0],
    }


def _setup_times(files: list[Path]) -> tuple[list[float], list[float]]:
    """Fresh-interpreter time to import the CLI and parse the scenarios,
    rescaled to nominal machine speed, and raw.

    The speed comes from probes timed here just before and just after each
    interpreter, and by the interpreter itself once it is ready."""
    import speed
    scaled, raw = [], []
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC),
           *map(str, files)]
    for i in range(SETUP_PROBES + 1):
        before = [speed.probe() for _ in range(SPEED_PROBES)]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            out, err = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise HarnessError(f"setup probe failed: {err.strip()[-2000:]}")
        after = [speed.probe() for _ in range(SPEED_PROBES)]
        if i > 0:            # the first one may compile bytecode
            samples = before + json.loads(out) + after
            scaled.append(speed.rescale_by(elapsed, samples))
            raw.append(elapsed)
    return scaled, raw


def _digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(directory)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _output_size(directory: Path) -> tuple[int, int]:
    """Bytes in every output file, and data rows in every CSV."""
    size = rows = 0
    for path in directory.rglob("*"):
        if path.is_file():
            data = path.read_bytes()
            size += len(data)
            if path.suffix == ".csv":
                rows += max(data.count(b"\n") - 1, 0)
    return size, rows


class Runner:
    """Runs executions of one workload and checks what they write."""

    def __init__(self, cli, check, workload, docs, scn_dir: Path, seed: int):
        self.cli, self.check = cli, check
        self.workload, self.docs = workload, docs
        self.scn_dir, self.seed = scn_dir, seed
        self.reference: list[str] | None = None   # digests of execution 0
        self.attempted = self.failed = 0
        self.notes: list[str] = []

    def execute(self, k: int, sampler) -> dict:
        """One execution; ``sampler`` (or None) measures machine speed."""
        out_root = self.scn_dir / f"exec-{k}"
        gc.collect()
        with sampler or contextlib.nullcontext():
            t0 = time.perf_counter()
            outs = self._calls(out_root)
            wall = time.perf_counter() - t0
        result = self._check(k, outs)
        result["wall_s"] = wall
        if sampler is not None:
            result["scaled_s"] = sampler.rescale(wall)
            result["probes"] = len(sampler.samples)
        shutil.rmtree(out_root, ignore_errors=True)
        return result

    def _calls(self, out_root: Path) -> list:
        outs = []
        for i, call in enumerate(self.workload.calls):
            out = out_root / f"{i}-{call.verb}"
            argv = [call.verb, "--scenario", str(self.scn_dir / call.scenario),
                    "--out", str(out), "--seed", str(self.seed)]
            log = io.StringIO()
            with contextlib.redirect_stdout(log), \
                    contextlib.redirect_stderr(log):
                try:
                    rc = self.cli.main(argv)
                except SystemExit as exc:   # e.g. argparse rejecting argv
                    rc = exc.code or 0
                except Exception as exc:  # a traceback is a failed operation
                    rc = f"{type(exc).__name__}: {exc}"
            outs.append((call, out, rc, log.getvalue()))
        return outs

    def _check(self, k: int, outs) -> dict:
        steps = 0
        digests = []
        size, rows = _output_size(outs[0][1].parent)
        for i, (call, out, rc, log) in enumerate(outs):
            digest = _digest(out) if out.is_dir() else ""
            digests.append(digest)
            ref = self.reference[i] if self.reference is not None else None
            outcome = self.check(call, self.docs[call.scenario], out, rc,
                                 ref, digest)
            self.attempted += outcome.ops
            self.failed += outcome.failed
            for note in outcome.notes:
                self.notes.append(f"execution {k}, {call.verb} "
                                  f"{call.scenario}: {note}")
            if outcome.failed and rc != 0:
                self.notes.append(log.strip()[-500:])
            steps += outcome.steps
        if self.reference is None:
            self.reference = digests
        return {"steps": steps, "bytes_written": size, "rows_written": rows}


def _room(start: float, seconds: float, done: list[dict]) -> bool:
    """Whether one more execution, as long as the median one so far, still
    ends within the measured window."""
    typical = statistics.median(r["wall_s"] for r in done)
    return time.perf_counter() - start + typical <= seconds


def _median(values):
    return statistics.median(values) if values else None


def run(args) -> tuple[dict, dict]:
    cli = _import_program()
    import layers
    import speed
    import workloads
    from tracer import Tracer

    context = _context()
    workload = workloads.WORKLOADS[args.workload]
    WORK.mkdir(parents=True, exist_ok=True)
    results_dir = WORK / "results"
    results_dir.mkdir(exist_ok=True)
    scn_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        docs = workloads.write_scenarios(workload, scn_dir)
        setup, setup_raw = (([], []) if args.trace
                            else _setup_times([scn_dir / f for f in docs]))
        runner = Runner(cli, workloads.check, workload, docs, scn_dir,
                        args.seed)
        tracer = Tracer(layers.TARGETS) if args.trace else None
        plain, traced = [], []
        # a traced run warms up once, then alternates traced and plain
        least = MIN_EXECUTIONS + (tracer is not None)
        start = time.perf_counter()
        # probes would land inside spans, so a traced run takes none
        sampler = None if tracer is not None else speed.Sampler()
        k = 0
        while k < least or _room(start, args.seconds, plain + traced):
            if tracer is not None and k % 2 == 1:
                tracer.run_id = k
                tracer.install()
                try:
                    res = runner.execute(k, sampler)
                finally:
                    tracer.uninstall()
                res["layers"] = layers.per_execution(tracer.spans(k),
                                                     tracer.missing)
                traced.append(res)
            else:
                res = runner.execute(k, sampler)
                if tracer is None or k > 0:
                    plain.append(res)
            k += 1
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.write(results_dir / f"{tag}-spans.tsv.gz")
    finally:
        shutil.rmtree(scn_dir, ignore_errors=True)

    raw = [r["wall_s"] for r in plain]
    if args.trace:
        units = {n: u for n, (u, _) in spec.PER_LAYER.items()}
        values, stable, idle = layers.aggregate(
            [r["layers"] for r in traced], units)
        values["cli.bytes_written"] = traced[0]["bytes_written"]
        values["cli.rows_written"] = traced[0]["rows_written"]
        values["trace.overhead_s"] = (
            _median([r["wall_s"] for r in traced]) - _median(raw))
        metrics = {n: {"value": values[n], "unit": u}
                   for n, (u, _) in spec.PER_LAYER.items()}
        extra = {"counts_stable": stable, "idle_metrics": idle,
                 "missing_targets": sorted(tracer.missing),
                 "traced_raw_wall_s": [r["wall_s"] for r in traced]}
    else:
        scaled = [r["scaled_s"] for r in plain]
        values = {
            "wall_s": _median(scaled),
            "steps_per_s": _median([r["steps"] / r["scaled_s"]
                                    for r in plain]),
            "setup_s": _median(setup),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {n: {"value": values[n], "unit": u}
                   for n, (u, _, _) in spec.END_TO_END.items()}
        extra = {"setup_s_samples": setup, "raw_setup_s_samples": setup_raw,
                 "steps_per_execution": plain[0]["steps"],
                 "wall_s_samples": scaled, "raw_wall_s_median": _median(raw),
                 "speed_probes": [r["probes"] for r in plain]}

    context["loadavg_1m_after"] = os.getloadavg()[0]
    result = {"correct": runner.failed == 0, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "executions": k, "measured_s": elapsed,
              "raw_wall_s_samples": raw,
              "context": context,
              "failures": runner.notes, **extra, "result": result}
    (results_dir / f"{tag}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return result, record


def _report(result: dict, record: dict) -> None:
    print(f"workload {record['workload']} seed {record['seed']}: "
          f"{record['executions']} executions in {record['measured_s']:.1f} s, "
          f"one client in a closed loop, BLAS threads 1")
    n_wall = len(record["raw_wall_s_samples"])
    raw_wall = record.get("raw_wall_s_median")
    raw_setup = record.get("raw_setup_s_samples")
    notes = {"wall_s": f"median of {n_wall} executions, rescaled "
                       f"(raw median {raw_wall:.6g} s)" if raw_wall else "",
             "setup_s": f"median of {SETUP_PROBES} fresh interpreters, "
                        f"rescaled (raw median "
                        f"{statistics.median(raw_setup):.6g} s)"
                        if raw_setup else "",
             "steps_per_s": f"{record.get('steps_per_execution')} "
                            f"work units per execution"}
    notes.update((name, "(too little work here to measure)")
                 for name in record.get("idle_metrics", ()))
    for name, m in result["metrics"].items():
        val = m["value"]
        shown = "null" if val is None else f"{val:.6g}"
        print(f"  {name} = {shown} {m['unit']}  {notes.get(name, '')}".rstrip())
    ratio = result["failed"] / result["attempted"]
    print(f"  failed_ratio = {ratio:.6g}  ({result['failed']} of "
          f"{result['attempted']} operations failed)")
    for note in record["failures"][:20]:
        print(f"  failure: {note}")
    print("context " + json.dumps(record["context"], sort_keys=True))
    print(json.dumps(result, sort_keys=True))


def main(argv=None) -> int:
    args = _parse(argv)
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(
            json.dumps(spec.benchmark_json(), indent=2) + "\n",
            encoding="utf-8")
        return 0
    try:
        result, record = run(args)
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    _report(result, record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
