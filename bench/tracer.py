"""Spans recorded from outside the package, around calls into its layers.

``Tracer.wrap`` swaps a module attribute for a wrapper that records a span
(name, start, end, parent) for every call, and ``restore`` puts the
originals back.  Only module attributes are swapped, so the package code
itself is unchanged; a function reached through a name bound in another
module has to be wrapped there too.  Spans stay in memory until ``dump``.
"""

import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self.starts: List[int] = []
        self.ends: List[int] = []
        self.parents: List[int] = []
        self.work: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        self._stack: List[int] = []
        self._saved: List[tuple] = []

    def clear(self) -> None:
        for seq in (self.names, self.starts, self.ends, self.parents):
            seq.clear()
        self.work.clear()
        self.counts.clear()
        self.calls.clear()

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run fn inside a span called name; returns its result."""
        idx = len(self.names)
        self.calls[name] += 1
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self._stack.append(idx)
        self.ends.append(0)
        self.starts.append(time.perf_counter_ns())
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[idx] = time.perf_counter_ns()
            self._stack.pop()

    def wrap(
        self,
        module,
        attr: str,
        name,
        after: Optional[Callable] = None,
    ) -> None:
        """Trace every call of module.attr.

        name is a span name, or a function of the call's arguments giving
        one; after(name, args, result), when given, runs once the call has
        returned, to count the work it did.
        """
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        tracer = self

        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            result = tracer.call(label, original, *args, **kwargs)
            if after is not None:
                after(label, args, result)
            return result

        setattr(module, attr, traced)

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def self_ns(self) -> Dict[str, int]:
        """Per span name, the summed duration minus what child spans cover."""
        children = defaultdict(list)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                children[parent].append(idx)
        totals: Dict[str, int] = defaultdict(int)
        for idx, name in enumerate(self.names):
            covered = 0
            edge = self.starts[idx]
            for child in sorted(children[idx], key=self.starts.__getitem__):
                lo = max(self.starts[child], edge)
                if self.ends[child] > lo:
                    covered += self.ends[child] - lo
                    edge = self.ends[child]
            totals[name] += self.ends[idx] - self.starts[idx] - covered
        return totals

    def dump(self, path: str) -> None:
        spans = [
            {"name": n, "start_ns": s, "end_ns": e, "parent": p}
            for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": spans, "work": self.work, "counts": self.counts, "calls": self.calls}, fh)
