"""The four workloads: their scenario documents, verb calls and output checks.

Scenario documents start from ``builtin_scenario`` and change only
documented fields (``sim.t_final``, ``l1`` and ``sweep``).  They do not
depend on the seed: the seed reaches the program only through ``--seed``,
which drives tube sampling and the ``check-ccm`` sample points.

Every check tests a property that holds for any seed, never a number copied
from one run.  An operation is one verb call or one sweep row; it fails when
its exit code or an output check fails.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from ccml1.scenario import builtin_scenario, canonical_json

EX1_T_FINAL = 0.1           # 1000 steps of dt 1e-4 per loop
SWEEP_GAMMAS = [1e4, 1e5, 1e6, 1e7]
SWEEP_OMEGA = 50.0
LOOP_CSVS = ("closed_loop.csv", "reference.csv", "nominal.csv",
             "plot_bounds.csv")


def _builtin(name: str, section: str | None = None, **fields) -> dict:
    """A builtin scenario document, with ``fields`` of one section replaced."""
    doc = dict(builtin_scenario(name).doc)
    if section is not None:
        doc[section] = dict(doc[section], **fields)
    return doc


def _n_steps(doc: dict) -> int:
    return int(round(doc["sim"]["t_final"] / doc["sim"]["dt"]))


def _csv_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


@dataclass
class Outcome:
    """Checked result of one verb call."""

    ops: int = 1             # operations this call stands for
    failed: int = 0          # operations that failed
    notes: tuple = ()        # why they failed
    steps: int = 0           # work units the call completed


def _fail(*notes, ops=1) -> Outcome:
    return Outcome(ops=ops, failed=ops, notes=notes)


def operations(doc: dict) -> int:
    """A verb call, plus one per row when the scenario declares a sweep."""
    return 1 + len(doc.get("sweep", {}).get("gamma", []))


def check_simulate(doc: dict, out: Path, rc: int) -> Outcome:
    if rc != 0:
        return _fail(f"simulate exited {rc}")
    notes = []
    rep = _json(out / "containment.json")
    if rep.get("closed_loop", {}).get("contained") is not True:
        notes.append("closed loop left its tube")
    if doc.get("obstacles") and not rep.get("obstacle_clearance", -1.0) >= 0:
        notes.append(f"obstacle clearance {rep.get('obstacle_clearance')}")
    n = _n_steps(doc)
    for name in LOOP_CSVS:
        rows = len(_csv_rows(out / name))
        if rows != n + 1:
            notes.append(f"{name} has {rows} rows, expected {n + 1}")
    if notes:
        return _fail(*notes)
    return Outcome(steps=3 * n)


def check_certify(doc: dict, out: Path, rc: int) -> Outcome:
    if rc != 0:
        return _fail(f"certify exited {rc}")
    if _json(out / "certificate.json")["certificate"]["valid"] is not True:
        return _fail("certificate not valid")
    return Outcome()


def check_ccm(doc: dict, out: Path, rc: int) -> Outcome:
    if rc != 0:
        return _fail(f"check-ccm exited {rc}")
    rep = _json(out / "ccm_check.json")
    if rep["passed"] is not True:
        return _fail("metric check did not pass")
    return Outcome(steps=int(rep["n_samples"]))


def check_sweep(doc: dict, out: Path, rc: int) -> Outcome:
    """One operation for the call plus one per row; each row must run
    cleanly and its sup_xtilde must fall strictly as the gain rises."""
    gammas = doc["sweep"]["gamma"]
    ops = operations(doc)
    if rc != 0:
        return _fail(f"sweep exited {rc}", ops=ops)
    rows = sorted(_csv_rows(out / "sweep.csv"), key=lambda r: float(r["gamma"]))
    if len(rows) != len(gammas):
        return _fail(f"sweep.csv has {len(rows)} rows, expected {len(gammas)}",
                     ops=ops)
    notes = []
    prev = float("inf")
    for row in rows:
        if row["status"] != "ok":
            notes.append(f"gamma {row['gamma']}: {row['status']}")
            continue
        sup = float(row["sup_xtilde"])
        if not sup < prev:
            notes.append(f"gamma {row['gamma']}: sup_xtilde {sup} "
                         f"does not fall below {prev}")
        prev = sup
    return Outcome(ops=ops, failed=len(notes), notes=tuple(notes),
                   steps=(len(rows) - len(notes)) * _n_steps(doc))


@dataclass(frozen=True)
class Call:
    verb: str
    scenario: str            # file name of the generated scenario
    check: Callable[[dict, Path, int], Outcome]


@dataclass(frozen=True)
class Workload:
    docs: Callable[[], dict[str, dict]]
    calls: tuple[Call, ...]


WORKLOADS = {
    "ex1-track": Workload(
        lambda: {"ex1.json": _builtin("ex1", "sim", t_final=EX1_T_FINAL)},
        (Call("simulate", "ex1.json", check_simulate),)),
    "ex2-plan": Workload(
        lambda: {"ex2.json": _builtin("ex2")},
        (Call("simulate", "ex2.json", check_simulate),)),
    "ex1-gain-sweep": Workload(
        lambda: {"ex1-sweep.json": dict(
            _builtin("ex1", "sim", t_final=EX1_T_FINAL),
            sweep={"omega": [SWEEP_OMEGA], "gamma": SWEEP_GAMMAS})},
        (Call("sweep", "ex1-sweep.json", check_sweep),)),
    "certify-check": Workload(
        lambda: {"ex1-auto.json": _builtin("ex1", "l1", omega="auto",
                                           gamma="auto"),
                 "ex1.json": _builtin("ex1"),
                 "ex2.json": _builtin("ex2")},
        (Call("certify", "ex1-auto.json", check_certify),
         Call("check-ccm", "ex1.json", check_ccm),
         Call("check-ccm", "ex2.json", check_ccm))),
}


def check(call: Call, doc: dict, out: Path, rc, reference: str | None,
          digest: str) -> Outcome:
    """Run the call's checks; a crash in them or output that differs from
    the first execution fails every operation of the call."""
    try:
        outcome = call.check(doc, out, rc)
    except (OSError, KeyError, TypeError, ValueError, csv.Error) as exc:
        return _fail(f"{type(exc).__name__}: {exc}", ops=operations(doc))
    if outcome.failed == 0 and reference is not None and digest != reference:
        return _fail("output differs from the first execution",
                     ops=outcome.ops)
    return outcome


def write_scenarios(workload: Workload, directory: Path) -> dict[str, dict]:
    """Write the workload's scenario files; returns name -> document."""
    docs = workload.docs()
    for fname, doc in docs.items():
        (directory / fname).write_text(canonical_json(doc), encoding="utf-8")
    return docs
