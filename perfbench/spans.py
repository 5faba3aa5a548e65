"""In-memory span recording for the traced perfbench run.

A span is a name, a start, an end, the index of its parent span and a
few attributes.  Spans stay in memory until the harness writes them out
once, at the end of a run.  A span's self time is its duration minus the
part of it that its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import time


class Recorder:
    """Keeps every span of one process in a list; parents by index."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": parent, "attrs": attrs}
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def wrap(self, module, attr: str, name: str, *, before=None, after=None) -> None:
        """Replace ``module.attr`` by a version that records a span per call.

        ``before(args, kwargs)`` and ``after(result)`` return attributes
        for the span, such as the road argument of ``select_subset`` or
        the rows a loader read.  A function the module no longer has is
        left alone, and its metrics read 0.
        """
        fn = getattr(module, attr, None)
        if fn is None:
            return

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, **(before(args, kwargs) if before else {})) as record:
                result = fn(*args, **kwargs)
                if after:
                    record["attrs"].update(after(result))
                return result

        setattr(module, attr, traced)


class NullRecorder:
    """The untraced baseline: same interface, records and wraps nothing."""

    def __init__(self) -> None:
        self.spans: list[dict] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        yield {"attrs": {}}

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def wrap(self, module, attr: str, name: str, *, before=None, after=None) -> None:
        pass


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is not None and a <= cur_hi:
            cur_hi = max(cur_hi, b)
            continue
        if cur_hi is not None:
            total += cur_hi - cur_lo
        cur_lo, cur_hi = a, b
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def with_self_time(spans: list[dict]) -> list[dict]:
    """Copies of the spans with ``duration`` and ``self`` (seconds) added."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = []
    for i, s in enumerate(spans):
        duration = s["end"] - s["start"]
        covered = _covered(children.get(i, []), s["start"], s["end"])
        out.append({**s, "duration": duration, "self": duration - covered})
    return out


def metric_key(span: dict) -> str:
    """Span name plus its ``key`` attribute, as used in metric names."""
    key = span["attrs"].get("key")
    return f"{span['name']}.{key}" if key else span["name"]


def totals(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Summed duration, self time, calls and rows per metric key."""
    out: dict[str, dict[str, float]] = {}
    for s in with_self_time(spans):
        entry = out.setdefault(metric_key(s),
                               {"duration": 0.0, "self": 0.0, "calls": 0, "rows": 0})
        entry["duration"] += s["duration"]
        entry["self"] += s["self"]
        entry["calls"] += 1
        entry["rows"] += s["attrs"].get("rows", 0)
    return out
