#!/usr/bin/env python3
"""Check that a change leaves every output of a fixed set of verb calls
byte-identical to a parent checkout's.

    python3 scripts/byte_identity.py --parent DIR

``DIR`` is a checkout of the commit before the change (made with
``git archive`` or ``git clone``).  Each call runs ``python -m ccml1.cli``
in a fresh interpreter on the ``src/`` of its checkout, once per side, from
the same scenario files, two calls at a time, in a temporary directory.
The set, at seeds 0 and 1:

- ``simulate`` on ex1 (``sim.t_final`` 0.3) and on ex2, each with and
  without ``--no-l1``;
- ``certify`` on ex1, ex2, and ex1 with ``"auto"`` tuning;
- ``sweep`` on the ex1-gain-sweep grid (ex1 at ``sim.t_final`` 0.1, omega
  50, gains 1e4 to 1e7);
- ``check-ccm`` on both builtins;
- ``simulate`` (with and without ``--no-l1``) and ``sweep`` on the inline
  scenario below: two inputs, a state-dependent input matrix given by its
  entries, a state-dependent dual metric on a box domain, a parametric
  uncertainty and assumed bounds.

Exit code, stdout, stderr and every file a call writes are compared; the
only text masked is the output directory, which ``sweep`` echoes.  Prints
each difference and exits 1 if there is any, else prints one summary line
and exits 0.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ccml1.scenario import (SCHEMA_VERSION, builtin_scenario,  # noqa: E402
                            canonical_json)

ONE_THREAD = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                               "MKL_NUM_THREADS")}
SEEDS = (0, 1)
WORKERS = 2


def _term(coeff, *powers):
    return {"coeff": coeff, "powers": list(powers)}


INLINE = {
    "version": SCHEMA_VERSION,
    "name": "inline-two-input",
    "model": {
        "state_dim": 2, "input_dim": 2,
        "drift": [[_term(1.0, 0, 1), _term(0.3, 2, 1)],
                  [_term(-1.0, 1, 0), _term(-1.0, 0, 1),
                   _term(-0.1, 0, 3)]],
        "input_matrix": {"entries": [
            [[_term(1.0, 0, 0), _term(0.2, 0, 1)], [_term(0.5, 1, 0)]],
            [[_term(0.1, 1, 1)], [_term(1.0, 0, 0)]]]},
        "uncertainty": {"amp_sin": [0.2, 0.1], "freq": 2.0,
                        "state_gain": 0.05, "offset": [0.0, 0.02]},
    },
    "metric": {
        "dual": [[[_term(1.0, 0, 0), _term(0.1, 2, 0)], []],
                 [[], [_term(1.0, 0, 0)]]],
        "rate": 0.1, "eig_floor": 0.7, "eig_ceil": 1.0,
        "domain": {"kind": "box", "center": [0.0, 0.0],
                   "half_widths": [2.0, 2.0]},
    },
    "bounds": {"unc_sup": 0.5, "unc_time_grad_sup": 1.0},
    "tube": {"eps": 0.2, "rho_a": 0.1},
    "l1": {"omega": 20.0, "gamma": 1e4},
    "sim": {"dt": 0.01, "t_final": 1.0},
    "init": {"x0": [0.3, -0.2]},
    "desired": {"kind": "constant", "state": [0.0, 0.0], "input": [0.0, 0.0]},
    "sweep": {"omega": [10.0, 20.0], "gamma": [1e3, 1e4]},
}


def scenarios() -> dict[str, dict]:
    """File name -> document, for the calls that do not run a builtin
    unchanged."""
    ex1 = builtin_scenario("ex1").doc

    def ex1_with(**sections):
        doc = dict(ex1)
        for name, fields in sections.items():
            doc[name] = dict(doc.get(name, {}), **fields)
        return doc

    return {
        "ex1-short.json": ex1_with(sim={"t_final": 0.3}),
        "ex1-auto.json": ex1_with(l1={"omega": "auto", "gamma": "auto"}),
        "ex1-gain-sweep.json": ex1_with(
            sim={"t_final": 0.1},
            sweep={"omega": [50.0], "gamma": [1e4, 1e5, 1e6, 1e7]}),
        "inline.json": INLINE,
    }


def calls() -> list[list[str]]:
    """Every call's arguments, without ``--out``."""
    def scn(name):
        return ["--scenario", name]

    def builtin(name):
        return ["--builtin", name]

    base = [["simulate", *scn("ex1-short.json")],
            ["simulate", *scn("ex1-short.json"), "--no-l1"],
            ["simulate", *builtin("ex2")],
            ["simulate", *builtin("ex2"), "--no-l1"],
            ["certify", *builtin("ex1")], ["certify", *builtin("ex2")],
            ["certify", *scn("ex1-auto.json")],
            ["sweep", *scn("ex1-gain-sweep.json")],
            ["check-ccm", *builtin("ex1")], ["check-ccm", *builtin("ex2")],
            ["simulate", *scn("inline.json")],
            ["simulate", *scn("inline.json"), "--no-l1"],
            ["sweep", *scn("inline.json")]]
    return [argv + ["--seed", str(seed)] for seed in SEEDS for argv in base]


def _case(argv: list[str]) -> str:
    return "_".join(a.lstrip("-").replace(".json", "") for a in argv)


def run(checkout: Path, work: Path, argv: list[str]) -> dict[str, bytes]:
    """One call in ``work``: its exit code, stdout, stderr and output files,
    the output directory masked in the text."""
    out = f"out/{_case(argv)}"
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), **ONE_THREAD)
    proc = subprocess.run([sys.executable, "-m", "ccml1.cli", *argv,
                           "--out", out], cwd=work, env=env,
                          capture_output=True)
    got = {"exit code": str(proc.returncode).encode(),
           "stdout": proc.stdout.replace(out.encode(), b"<out>"),
           "stderr": proc.stderr.replace(out.encode(), b"<out>")}
    for path in sorted((work / out).rglob("*")):
        if path.is_file():
            got[f"file {path.relative_to(work / out)}"] = path.read_bytes()
    return got


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, type=Path,
                    help="checkout of the parent commit")
    args = ap.parse_args(argv)
    if not (args.parent / "src" / "ccml1").is_dir():
        ap.error(f"{args.parent} is not a checkout (no src/ccml1)")

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        sides = {"parent": args.parent.resolve(), "change": ROOT}
        for side in sides:
            (work / side).mkdir(parents=True, exist_ok=True)
            for name, doc in scenarios().items():
                (work / side / name).write_text(canonical_json(doc),
                                                encoding="utf-8")
        jobs = [(side, argv) for argv in calls() for side in sides]
        with ThreadPoolExecutor(max_workers=WORKERS) as pool:
            results = list(pool.map(
                lambda job: run(sides[job[0]], work / job[0], job[1]), jobs))

    got = dict(zip(((side, _case(argv)) for side, argv in jobs), results))
    differences = 0
    for argv in calls():
        case = _case(argv)
        parent, change = got["parent", case], got["change", case]
        for key in sorted(parent.keys() | change.keys()):
            if parent.get(key) != change.get(key):
                differences += 1
                print(f"DIFFERS {' '.join(argv)}: {key}")
    n_outputs = sum(len(got["change", _case(argv)]) for argv in calls())
    if differences:
        print(f"{differences} differences")
        return 1
    print(f"byte-identical: {len(calls())} calls, {n_outputs} outputs "
          f"(exit codes, stdout, stderr, files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
