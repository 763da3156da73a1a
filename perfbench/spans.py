"""In-memory span recorder for the traced benchmark run.

Spans are opened from the benchmark's side: ``Tracer.patch`` replaces a
public function or method of the program with a wrapper that times the call.
A span's self time is its duration minus the time covered by the spans
opened inside it. Spans are folded into per-name totals as they close, so
the recorder's memory does not grow with the length of the run.

Work the benchmark itself does while tracing (counting graph nodes, keeping
features for the replay check) runs in a ``trace.bookkeeping`` span, so it
is charged to no layer of the program.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

BOOKKEEPING = "trace.bookkeeping"


class Tracer:
    """Per-name inclusive time, self time and call count of closed spans."""

    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self._open = []  # child time covered so far, one cell per open span
        self._patches = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        child = [0.0]
        self._open.append(child)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - t0
            self._open.pop()
            self.total[name] += dur
            self.self_time[name] += dur - child[0]
            self.calls[name] += 1
            if self._open:
                self._open[-1][0] += dur

    def patch(self, owner, attr: str, name: str, after=None):
        """Trace every call of ``owner.attr`` as span ``name``.

        ``after(args, result)``, when given, runs once the call returns,
        inside a bookkeeping span of its own.
        """
        orig = getattr(owner, attr)
        owned = attr in vars(owner)  # False for a method a class inherits

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            result = self.span(name, orig, *args, **kwargs)
            if after is not None:
                self.span(BOOKKEEPING, after, args, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig if owned else None))

    def restore(self):
        """Put back every patched function, newest first."""
        while self._patches:
            owner, attr, orig = self._patches.pop()
            if orig is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, orig)

    def merge(self, other: "Tracer"):
        for name, value in other.total.items():
            self.total[name] += value
            self.self_time[name] += other.self_time[name]
            self.calls[name] += other.calls[name]
