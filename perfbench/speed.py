"""Machine speed, sampled while the program runs, to rescale wall times.

The benchmark's host shares its cores: identical code runs up to 1.5x slower
for stretches of seconds to minutes, so raw wall times of one commit spread
by 20-30 % between runs.  A fixed probe computation (an einsum-built 21x21
solve and float formatting, the kinds of work ccml1 does) is timed every
``PERIOD_S`` from a SIGALRM handler, i.e. in the measured process, between
the program's own bytecodes.  A measured interval is then reported as

    (wall time - time spent in probes) * NOMINAL_S / mean probe time,

the wall time it would have taken on a machine where one probe takes
``NOMINAL_S``.  A change to ccml1 cannot change the probe, so a real
speed-up or slow-down of the program shows in full.  README.md gives the
measured effect on run-to-run spread.

Import this module only after the BLAS thread count is pinned.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.05
NOMINAL_S = 4e-4
# a 9-node, 3-state block system shaped like the geodesic Newton step
_K = np.arange(63.0).reshape(9, 7)
_W, _D = np.cos(_K), np.sin(_K)
_M = 3.0 * np.eye(3) + 0.1 * np.cos(np.arange(81.0)).reshape(9, 3, 3)
_I = np.eye(21)


def probe() -> float:
    """Time of one fixed burst of the two kinds of work ccml1 does: dense
    einsum-built linear solves (its geodesic and feedback steps) and float
    formatting (its CSV writers)."""
    t0 = time.perf_counter()
    g = np.ones(21)
    for _ in range(4):
        h = np.einsum("ik,il,iab->kalb", _W, _D, _M).reshape(21, 21)
        g = np.linalg.solve(h @ h.T + _I, g)
    v = float(g[0])
    for _ in range(300):
        v = v * 1.0001 + 1e-9
        format(v, ".17g")
    return time.perf_counter() - t0


class Sampler:
    """Context manager that times ``probe()`` every ``PERIOD_S`` seconds."""

    def __init__(self):
        self.samples: list[float] = []
        self._previous = None
        self._busy = False

    def _tick(self, signum, frame):
        if self._busy:           # a late signal landed inside a probe
            return
        self._busy = True
        try:
            self.samples.append(probe())
        finally:
            self._busy = False

    def __enter__(self) -> "Sampler":
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def rescale(self, wall: float) -> float:
        """``wall`` without the probes, at nominal machine speed."""
        speed = self.samples or [probe()]   # shorter than one period
        return ((wall - sum(self.samples)) * NOMINAL_S
                / statistics.fmean(speed))


def rescale_by(seconds: float, samples: list[float]) -> float:
    """Rescale an interval measured in another process, by probes taken
    around it."""
    return seconds * NOMINAL_S / statistics.fmean(samples)
