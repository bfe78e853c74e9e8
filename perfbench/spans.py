"""In-memory spans around the package's cross-module calls.

Wrappers are installed by rebinding the names that the calling module
imported (``randcrf.harness.train_crf`` and so on) and are removed when the
``installed`` block ends, so the package source stays untouched. Each span
records its name, start, end, parent span and trace id (the repetition);
spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    trace_id: int
    start: float
    end: float
    parent: int | None  # index into Tracer.spans


@dataclass(frozen=True)
class Call:
    """Arguments and return value of a captured call."""

    name: str
    trace_id: int
    args: tuple
    result: object


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.calls: list[Call] = []
        self.trace_id = 0
        self._stack: list[int] = []

    def _wrap(self, name: str, fn, capture: bool):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, self.trace_id, time.perf_counter(), float("nan"),
                        self._stack[-1] if self._stack else None)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if capture:
                self.calls.append(Call(name, self.trace_id, args, result))
            return result
        return traced

    @contextmanager
    def installed(self, targets, capture=()):
        """Wrap each (module, attribute, span name) target for the block;
        calls of the names in ``capture`` also keep arguments and result."""
        saved = []
        try:
            for module, attr, name in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original, name in capture))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def captured(self, name: str, trace_id: int) -> list[Call]:
        return [c for c in self.calls if c.name == name and c.trace_id == trace_id]

    def self_seconds(self, trace_id: int) -> dict[str, float]:
        """Per span name, the summed duration of its spans in one trace minus
        the time their child spans cover."""
        covered: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.trace_id == trace_id and span.parent is not None:
                covered[span.parent] += span.end - span.start
        totals: dict[str, float] = defaultdict(float)
        for index, span in enumerate(self.spans):
            if span.trace_id == trace_id:
                totals[span.name] += span.end - span.start - covered[index]
        return dict(totals)
