"""Test-side reads of library objects that no program output needs.

The library evaluates the metric only on batches, keeps metric partials
only along the coordinates the metric depends on, reads the desired path
only through ``DesiredTrajectory.sample``, and parses polynomial tables and
safe sets without writing them.  The one-point, full-coordinate and
writing forms the tests compare against live here.
"""

import numpy as np


def metric_at(field, x) -> np.ndarray:
    """(n, n) metric at one state."""
    return field.metric_batch(np.asarray(x, dtype=float)[None])[0]


def full_partials(field, dm: np.ndarray) -> np.ndarray:
    """(k, dim, n, n) metric partials along every coordinate, from the
    (k, len(active_coords), n, n) partials along the active ones."""
    out = np.zeros((dm.shape[0], field.dim) + dm.shape[2:])
    out[:, field.active_coords] = dm
    return out


def _locate(traj, t: float) -> tuple[int, float]:
    tau = (t - traj.t0) / traj.dt
    tau = min(max(tau, 0.0), traj.states.shape[0] - 1.0)
    k = min(int(tau), traj.states.shape[0] - 2)
    return k, tau - k


def desired_state(traj, t: float) -> np.ndarray:
    """Desired state at time t: linear between samples, clamped to the
    horizon."""
    if traj.states.shape[0] == 1:
        return traj.states[0]
    k, frac = _locate(traj, t)
    return (1.0 - frac) * traj.states[k] + frac * traj.states[k + 1]


def desired_input(traj, t: float) -> np.ndarray:
    """Desired input at time t (zero-order hold: planner semantics)."""
    if traj.inputs.shape[0] == 1:
        return traj.inputs[0]
    k, _ = _locate(traj, t)
    return traj.inputs[k]


def to_entry_table(poly) -> list:
    """A PolyMatrix as per-entry monomial lists (the scenario-file form
    ``PolyMatrix.from_entry_table`` reads)."""
    rows = []
    for i in range(poly.shape[0]):
        row = []
        for j in range(poly.shape[1]):
            row.append([{"coeff": float(coeff[i, j]), "powers": list(powers)}
                        for powers, coeff in poly.terms if coeff[i, j] != 0.0])
        rows.append(row)
    return rows


def safe_set_doc(safe_set) -> dict:
    """A SafeSet in the scenario form ``SafeSet.from_dict`` reads."""
    doc = {"kind": safe_set.kind,
           "center": [float(c) for c in safe_set.center]}
    if safe_set.kind == "box":
        doc["half_widths"] = [float(h) for h in safe_set.half_widths]
    else:
        doc["radius"] = float(safe_set.radius)
    return doc
