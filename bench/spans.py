"""Spans recorded around the public functions of mooremix, from outside.

`Tracer.installed()` replaces each named function with a wrapper that
records a span (name, parent, start, end) and restores the original on
exit, so an untraced round runs the program's own code with nothing added.
The program looks these functions up through their module or class at call
time (`MixedGraph._canon` imports `canon.canonicalize` on use, and
`enumerate_classes` calls `regular_skeletons` through its module globals),
so patching the attribute reaches every call.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class LayerTotals:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass
class Tracer:
    # name -> (owner, attribute); the owner is a module or a class
    targets: dict
    spans: list = field(default_factory=list)  # [name, parent index, start, end]
    totals: dict = field(default_factory=lambda: defaultdict(LayerTotals))
    # canonicalize calls made inside enumerate_classes, summed over rounds
    canon_in_search: int = 0
    last_round: list = field(default_factory=list)  # spans of the latest round
    _stack: list = field(default_factory=list)

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self):
        originals = {name: getattr(owner, attr) for name, (owner, attr) in self.targets.items()}
        try:
            for name, (owner, attr) in self.targets.items():
                setattr(owner, attr, self._wrap(name, originals[name]))
            yield self
        finally:
            for name, (owner, attr) in self.targets.items():
                setattr(owner, attr, originals[name])

    def end_round(self) -> None:
        """Fold this round's spans into the totals and start afresh.

        A span's self time is its duration minus that of its direct
        children; calls are nested and single-threaded, so children never
        overlap."""
        spans = self.spans
        child_s = [0.0] * len(spans)
        for name, parent, start, end in spans:
            if parent >= 0:
                child_s[parent] += end - start
        for i, (name, parent, start, end) in enumerate(spans):
            t = self.totals[name]
            t.calls += 1
            t.total_s += end - start
            t.self_s += end - start - child_s[i]
            if name == "canon.canonicalize" and self._inside(i, "search.enumerate_classes"):
                self.canon_in_search += 1
        self.last_round = list(spans)
        spans.clear()

    def _inside(self, i, ancestor) -> bool:
        parent = self.spans[i][1]
        while parent >= 0:
            if self.spans[parent][0] == ancestor:
                return True
            parent = self.spans[parent][1]
        return False
