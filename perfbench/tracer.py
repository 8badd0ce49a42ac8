"""Spans around the calls into periflow's layers, from outside the program.

Each traced function is replaced at the name its callers look it up by
(for example `periflow.training.extract_pyramid`, the binding
`encode_batch` calls, not only `periflow.factors.extract_pyramid`).
Spans are kept in memory as (name, start, end, parent) and written out
once the run ends. A span's self time is its duration minus the time its
child spans cover.
"""
from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter, defaultdict
from pathlib import Path


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx][1:3] = start, end

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace owner.attr by a spanned call; `count(args)` adds to the
        counter `name` on every call."""
        orig = getattr(owner, attr)
        span = self.span
        counts = self.counts

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            if count is not None:
                counts[name] += count(args)
            with span(name):
                return orig(*args, **kwargs)

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, orig))

    def count_calls(self, owner, attr: str, name: str) -> None:
        """Count calls to owner.attr without a span (for hot constructors)."""
        orig = getattr(owner, attr)
        counts = self.counts

        @functools.wraps(orig)
        def counted(*args, **kwargs):
            counts[name] += 1
            return orig(*args, **kwargs)

        setattr(owner, attr, counted)
        self._patches.append((owner, attr, orig))

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def self_times(self) -> dict[str, float]:
        """Summed self time in seconds per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return dict(out)

    def root_time(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans
                   if parent < 0)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")
