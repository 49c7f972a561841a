"""Spans recorded from outside the package.

The benchmark never edits the package. Instead it wraps the public
functions of each layer and rebinds every reference that any module of the
package holds to them (``relevance_loss`` is bound in ``generator``,
``training`` and ``cli``; ``lstm_step`` in ``nnet``, ``generator`` and
``classifier``), so calls between modules go through the wrapper too.

Two kinds of wrapper exist:

* a *span* wrapper records one span per call: name, start, end, parent
  span and the stage the benchmark was in;
* an *aggregate* wrapper is for hot leaf functions (about 10^5
  ``lstm_step`` calls per walkthrough). It adds calls, seconds and a work
  count to a table on the nearest enclosing span, so memory stays bounded
  by the number of spans, not of calls.

Spans stay in memory until the benchmark writes them out at the end.
"""

from __future__ import annotations

import contextlib
import sys
import time


class Span:
    __slots__ = ("id", "name", "parent", "stage", "start", "end", "attrs", "agg")

    def __init__(self, id, name, parent, stage, start, end=None, attrs=None, agg=None):
        self.id = id
        self.name = name
        self.parent = parent
        self.stage = stage
        self.start = start
        self.end = end
        self.attrs = attrs if attrs is not None else {}
        # aggregated callee name -> [calls, seconds, direct_seconds, units];
        # direct_seconds counts only calls made while this span was the
        # innermost open frame (not nested inside another aggregated call).
        self.agg = agg if agg is not None else {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {
            "id": self.id, "name": self.name, "parent": self.parent, "stage": self.stage,
            "start": self.start, "end": self.end, "attrs": self.attrs,
            "agg": {k: {"calls": v[0], "s": v[1], "direct_s": v[2], "units": v[3]}
                    for k, v in self.agg.items()},
        }


class Tracer:
    """Collects spans for one traced run; single-threaded by design."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stage = "root"
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self._agg_depth = 0  # aggregated calls currently open above the innermost span
        self._saved_depths: list[int] = []
        self._begin("root")  # holds aggregated calls made outside any other span

    def _begin(self, name: str) -> Span:
        parent = self._open[-1].id if self._open else None
        span = Span(len(self.spans), name, parent, self.stage, self.clock())
        self.spans.append(span)
        self._open.append(span)
        self._saved_depths.append(self._agg_depth)
        self._agg_depth = 0
        return span

    def _end(self, span: Span) -> None:
        span.end = self.clock()
        self._open.pop()
        self._agg_depth = self._saved_depths.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        s = self._begin(name)
        try:
            yield s
        finally:
            self._end(s)

    @contextlib.contextmanager
    def stage_span(self, stage: str, name: str | None = None):
        """A span that also sets the stage id recorded on spans inside it."""
        previous, self.stage = self.stage, stage
        try:
            with self.span(name or stage) as s:
                yield s
        finally:
            self.stage = previous

    def wrap_span(self, name: str, fn, annotate=None):
        """Wrapper recording one span per call; ``annotate(span, args,
        kwargs, result)`` may add attributes after the call."""

        def traced(*args, **kwargs):
            s = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(s)
            if annotate is not None:
                annotate(s, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_aggregate(self, name: str, fn, units=None):
        """Wrapper adding each call to the nearest span's table; ``units(args,
        kwargs, result)`` gives the work count of one call (tokens, refs).

        Only leaf-side functions may be aggregated: a span opened inside an
        aggregated call would be counted twice by ``self_times``."""
        clock = self.clock

        def traced(*args, **kwargs):
            start = clock()
            self._agg_depth += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                self._agg_depth -= 1
            elapsed = clock() - start
            row = self._open[-1].agg.get(name)
            if row is None:
                row = self._open[-1].agg[name] = [0, 0.0, 0.0, 0]
            row[0] += 1
            row[1] += elapsed
            if self._agg_depth == 0:
                row[2] += elapsed
            if units is not None:
                row[3] += units(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def finish(self) -> list[Span]:
        while self._open:
            self._end(self._open[-1])
        return self.spans


class NullTracer:
    """Stands in for a Tracer in untraced runs: records nothing."""

    def span(self, name: str):
        return contextlib.nullcontext()

    def stage_span(self, stage: str, name: str | None = None):
        return contextlib.nullcontext()


def wrapper_costs(calls: int = 20_000, repeats: int = 5) -> tuple[float, float]:
    """Seconds one aggregate-wrapped and one span-wrapped call add to a
    no-op, each the minimum over ``repeats`` timings of ``calls`` calls."""

    def noop():
        return None

    def per_call(fn):
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            for _ in range(calls):
                fn()
            best = min(best, (time.perf_counter() - start) / calls)
        return best

    tracer = Tracer()
    base = per_call(noop)
    return (per_call(tracer.wrap_aggregate("noop", noop)) - base,
            per_call(tracer.wrap_span("noop", noop)) - base)


def self_times(spans) -> dict[int, float]:
    """Self time of each span: its duration minus the time its children
    cover (child spans and aggregated calls made directly from it).
    Calls are single-threaded, so children never overlap."""
    covered = {s.id: sum(row[2] for row in s.agg.values()) for s in spans}
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.duration
    return {s.id: s.duration - covered[s.id] for s in spans}


def rebind(package: str, replacements: dict) -> list[tuple]:
    """Replace every module-level reference, in any loaded module of
    ``package``, to each key of ``replacements`` (an original function) by
    its value. Returns (module, attribute, original) for each change."""
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == package or n.startswith(package + "."))]
    by_id = {id(orig): (orig, new) for orig, new in replacements.items()}
    undo = []
    for module in modules:
        for attr, value in list(vars(module).items()):
            hit = by_id.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
                undo.append((module, attr, value))
    return undo


@contextlib.contextmanager
def installed(package: str, replacements: dict):
    """``rebind`` for the duration of a with-block."""
    undo = rebind(package, replacements)
    try:
        yield undo
    finally:
        for module, attr, original in reversed(undo):
            setattr(module, attr, original)
