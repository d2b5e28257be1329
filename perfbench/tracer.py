"""Outside-in span tracer: wraps public names of the program from outside.

Each target is ``"module:qualname"``, the place where the caller looks the
name up (``ccml1.cli:ilqr_plan`` is the binding ``cmd_simulate`` uses, not
the definition in ``ccml1.sim``).  A wrapper records one span per call: its
id, its parent span, the target, start and end in nanoseconds, the run id,
and up to two numbers an attribute hook reads off the call.  Spans stay in
compact arrays in memory and are written out once, at the end.

A target that no longer resolves is reported in ``missing`` and is skipped;
metrics that need it read ``None``.  Nothing here may fail the measured run.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import itertools
import math
import time
from array import array


def resolve(target: str):
    """(owner, attribute name, static attribute) for ``module:qualname``.

    Raises LookupError when the module or any part of the name is gone.
    """
    mod_name, _, qual = target.partition(":")
    try:
        owner = importlib.import_module(mod_name)
    except ImportError as exc:
        raise LookupError(target) from exc
    *path, attr = qual.split(".")
    try:
        for part in path:
            owner = getattr(owner, part)
        raw = inspect.getattr_static(owner, attr)
    except AttributeError as exc:
        raise LookupError(target) from exc
    if not (callable(raw) or isinstance(raw, (classmethod, staticmethod))):
        raise LookupError(target)
    return owner, attr, raw


class Tracer:
    """Span store plus the wrappers that fill it."""

    def __init__(self, targets: dict[str, tuple[str, object]]):
        # key -> (target, hook); a hook maps (args, result) to up to two floats
        self.keys = list(targets)
        self.targets = targets
        self.missing: set[str] = set()
        self.run_id = 0
        self.sid = array("q")
        self.parent = array("q")
        self.name = array("h")
        self.t0 = array("q")
        self.t1 = array("q")
        self.run = array("i")
        self.a1 = array("d")
        self.a2 = array("d")
        self._ids = itertools.count()
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    # -- wrapping ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target that still resolves; remember the rest."""
        for idx, key in enumerate(self.keys):
            target, hook = self.targets[key]
            try:
                owner, attr, raw = resolve(target)
            except LookupError:
                self.missing.add(key)
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(idx, raw.__func__, hook))
            else:
                wrapped = self._wrap(idx, raw, hook)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        """Put every wrapped name back, newest first."""
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def _wrap(self, idx: int, fn, hook):
        stack, ids, clock = self._stack, self._ids, time.perf_counter_ns
        record = self._record

        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = clock()
                stack.pop()
                record(sid, parent, idx, t0, t1, math.nan, math.nan)
                raise
            t1 = clock()
            stack.pop()
            a1 = a2 = math.nan
            if hook is not None:
                try:
                    a1, a2 = hook(args, result)
                except Exception:  # a renamed attribute must not fail the run
                    pass
            record(sid, parent, idx, t0, t1, a1, a2)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _record(self, sid, parent, idx, t0, t1, a1, a2):
        self.sid.append(sid)
        self.parent.append(parent)
        self.name.append(idx)
        self.t0.append(t0)
        self.t1.append(t1)
        self.run.append(self.run_id)
        self.a1.append(a1)
        self.a2.append(a2)

    # -- reading ---------------------------------------------------------------

    def spans(self, run_id: int) -> list["Span"]:
        """Spans of one run, in the order they ended."""
        return [Span(self.sid[i], self.parent[i], self.keys[self.name[i]],
                     self.t0[i], self.t1[i], self.a1[i], self.a2[i])
                for i in range(len(self.sid)) if self.run[i] == run_id]

    def write(self, path) -> None:
        """All spans as gzip'd tab-separated text, one span per line."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("run\tspan\tparent\tname\tt0_ns\tt1_ns\ta1\ta2\n")
            for i in range(len(self.sid)):
                fh.write(f"{self.run[i]}\t{self.sid[i]}\t{self.parent[i]}\t"
                         f"{self.keys[self.name[i]]}\t{self.t0[i]}\t"
                         f"{self.t1[i]}\t{self.a1[i]!r}\t{self.a2[i]!r}\n")


class Span:
    __slots__ = ("sid", "parent", "name", "t0", "t1", "a1", "a2")

    def __init__(self, sid, parent, name, t0, t1, a1=math.nan, a2=math.nan):
        self.sid, self.parent, self.name = sid, parent, name
        self.t0, self.t1, self.a1, self.a2 = t0, t1, a1, a2

    @property
    def dur(self) -> int:
        return self.t1 - self.t0


def self_time(span: Span, children: list[Span]) -> int:
    """Span duration minus the part of it that its children cover."""
    covered = 0
    end = span.t0
    for c in sorted(children, key=lambda s: s.t0):
        lo, hi = max(c.t0, end), min(c.t1, span.t1)
        if hi > lo:
            covered += hi - lo
            end = hi
    return span.dur - covered


def tail_percentile(values, pct: float, min_beyond: int = 10):
    """The ``pct`` percentile of ``values`` (nearest rank), or None when
    fewer than ``min_beyond`` samples lie beyond it."""
    vals = sorted(values)
    n = len(vals)
    rank = max(math.ceil(pct * n / 100.0), 1)
    if n == 0 or n - rank < min_beyond:
        return None
    return vals[rank - 1]
