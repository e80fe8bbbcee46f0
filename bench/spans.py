"""In-memory span tracing from outside the package, and the arithmetic the
benchmark reports with: self time from nested spans, percentiles with their
sample-count rule, and metric-name checks.

A span is ``(name, start, end, parent, trial)``: ``parent`` is the index of
the enclosing span (-1 at the top) and ``trial`` the id of the workload trial
that was running (-1 during set-up).  The run is single-threaded, so the
children of a span never overlap and self time is the span's duration minus
the durations of its direct children.
"""

from __future__ import annotations

import csv
import gzip
import math
import re
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def valid_name(name: str) -> bool:
    """Metric and workload names: a letter or digit, then at most 63 of
    letters, digits, '_', '.' and '-'."""
    return NAME_RE.fullmatch(name) is not None


def valid_unit(unit: str) -> bool:
    return UNIT_RE.fullmatch(unit) is not None


def percentile(values, q: float) -> float:
    """Linear-interpolated q-th percentile (numpy's default method).

    A percentile other than the median is reported only when at least ten
    samples lie beyond it, i.e. ``n * min(q, 100 - q) / 100 >= 10``; asking
    for one with fewer samples raises instead of returning a tail made of a
    few points.
    """
    xs = sorted(float(v) for v in values)
    n = len(xs)
    if n == 0:
        raise ValueError("percentile of no samples")
    tail = min(q, 100.0 - q)
    if q != 50 and n * tail / 100.0 < 10 - 1e-9:
        raise ValueError(f"p{q:g} needs {math.ceil(1000 / tail)} samples, got {n}")
    pos = (n - 1) * q / 100.0
    lo = int(math.floor(pos))
    hi = min(lo + 1, n - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50)


def self_times(spans) -> list:
    """Self time of every span: its duration minus its direct children's."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [(end - start) - c for (_, start, end, _, _), c in zip(spans, covered)]


def module_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_by_module(spans, selves=None, select=None) -> dict:
    """Summed self time per module (the span name's first component), over
    the spans whose index passes ``select``."""
    selves = self_times(spans) if selves is None else selves
    out = defaultdict(float)
    for i, (span, s) in enumerate(zip(spans, selves)):
        if select is None or select(i):
            out[module_of(span[0])] += s
    return dict(out)


def descendants(spans, root: int) -> set:
    """Indices of ``root`` and every span nested below it.  Spans are stored
    in start order, so a child always follows its parent."""
    inside = {root}
    for i in range(root + 1, len(spans)):
        if spans[i][3] in inside:
            inside.add(i)
    return inside


class Tracer:
    """Records spans around patched package functions.

    ``wrap`` registers a timing wrapper for ``owner.attr`` (a module function
    or a class method); ``install``/``uninstall`` switch all registered
    wrappers on and off.  ``record`` callbacks may store a per-call value,
    computed from (args, kwargs, result), under the span name in
    ``values``.  Spans are kept in flat columns rather than one object per
    span, so a long run does not load the cyclic garbage collector.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.trials = array("q")
        self.values = defaultdict(list)
        self.trial = -1
        self._stack: list = []
        self._points: list = []      # (owner, attr, original, wrapper)
        self._installed = False

    @property
    def spans(self) -> list:
        """Every span as a ``(name, start, end, parent, trial)`` tuple."""
        return list(zip(self.names, self.starts, self.ends, self.parents, self.trials))

    def _open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.trials.append(self.trial)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(self.clock())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = self.clock()
        self._stack.pop()

    def wrap(self, owner, attr: str, name: str, record=None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        open_, close, values = self._open, self._close, self.values

        def traced(*args, **kwargs):
            index = open_(name)
            try:
                result = original(*args, **kwargs)
            finally:
                close(index)
            if record is not None:
                values[name].append(record(args, kwargs, result))
            return result

        traced.__wrapped__ = original
        self._points.append((owner, attr, original, traced))

    def install(self) -> None:
        if not self._installed:
            for owner, attr, _, traced in self._points:
                setattr(owner, attr, traced)
            self._installed = True

    def uninstall(self) -> None:
        if self._installed:
            for owner, attr, original, _ in reversed(self._points):
                setattr(owner, attr, original)
            self._installed = False

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (set-up, measured phase)."""
        index = self._open(name)
        try:
            yield index
        finally:
            self._close(index)

    def durations(self) -> dict:
        """Span durations grouped by span name, in start order."""
        out = defaultdict(list)
        for name, start, end in zip(self.names, self.starts, self.ends):
            out[name].append(end - start)
        return out

    def write(self, path) -> None:
        """Write every span as gzip-compressed CSV, times in seconds from the
        first span's start."""
        t0 = self.starts[0] if self.starts else 0.0
        with gzip.open(path, "wt", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["index", "name", "start_s", "end_s", "parent", "trial"])
            for i, (name, start, end, parent, trial) in enumerate(self.spans):
                out.writerow([i, name, f"{start - t0:.9f}", f"{end - t0:.9f}", parent, trial])
