"""In-memory spans around the program's public functions.

A :class:`Tracer` replaces a function where its callers look it up (a
module attribute or a class attribute) with a wrapper that records one
span per call: name, start, end and the span that caused it.  Spans of one
thread nest through a per-thread stack.  A thread's outermost span that
starts while a *wait* span is open in another thread (the gateway waiting
on the micro-batch scheduler) is recorded as that wait's child, so the
work the wait stands for is not counted twice.

A span's self time is its duration minus the part of it that its children
cover.  :func:`attribute` intersects self times with the operations'
intervals, and also measures the union of all self time, so that spans
which overlap without being linked show up as an accounting error instead
of silently inflating the sum.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

Interval = Tuple[float, float]


class Tracer:
    def __init__(self) -> None:
        self.spans: List[tuple] = []  # (sid, name, start, end, parent)
        self.counters: Dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._waits: Dict[int, int] = {}
        self._patches: List[tuple] = []

    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn: Callable, wait: bool = False, probe=None) -> Callable:
        """``fn`` wrapped in a span; ``probe(args, kwargs)`` may return a
        callback that receives the result after the call (for counters)."""
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            if stack:
                parent = stack[-1]
            else:
                parent = max(tracer._waits) if tracer._waits else None
            after = probe(args, kwargs) if probe is not None else None
            stack.append(sid)
            if wait:
                tracer._waits[sid] = threading.get_ident()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if wait:
                    del tracer._waits[sid]
                stack.pop()
                tracer.spans.append((sid, name, start, end, parent))
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, wait: bool = False, probe=None, wrapper=None) -> None:
        """Replace ``owner.attr`` (module or class attribute) by a traced wrapper."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        fn = raw.__func__ if isinstance(raw, staticmethod) else raw
        traced = wrapper(self, fn) if wrapper is not None else self.span(name, fn, wait=wait, probe=probe)
        setattr(owner, attr, staticmethod(traced) if isinstance(raw, staticmethod) else traced)
        self._patches.append((owner, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    def clear(self) -> None:
        self.spans.clear()
        self.counters.clear()


def traced_generator(name: str):
    """Wrapper factory for generator functions: one span per ``next``."""

    def wrapper(tracer: Tracer, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            step = tracer.span(name, iterator.__next__)
            while True:
                try:
                    item = step()
                except StopIteration:
                    return
                yield item

        return traced

    return wrapper


# ----------------------------------------------------------------------
# accounting
# ----------------------------------------------------------------------
def _subtract(interval: Interval, holes: List[Interval]) -> List[Interval]:
    start, end = interval
    out = []
    cursor = start
    for h_start, h_end in sorted(holes):
        h_start, h_end = max(h_start, start), min(h_end, end)
        if h_end <= cursor:
            continue
        if h_start > cursor:
            out.append((cursor, h_start))
        cursor = max(cursor, h_end)
    if cursor < end:
        out.append((cursor, end))
    return out


def _merge(intervals: List[Interval]) -> List[Interval]:
    merged: List[Interval] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1] = (merged[-1][0], end)
        else:
            merged.append((start, end))
    return merged


def _overlap(segments: List[Interval], windows: List[Interval]) -> float:
    """Total length of ``segments`` inside the sorted, disjoint ``windows``."""
    total = 0.0
    j = 0
    for start, end in sorted(segments):
        while j < len(windows) and windows[j][1] <= start:
            j += 1
        k = j
        while k < len(windows) and windows[k][0] < end:
            total += max(0.0, min(end, windows[k][1]) - max(start, windows[k][0]))
            k += 1
    return total


def self_segments(spans: Sequence[tuple]) -> Dict[str, List[Interval]]:
    """Per span name, the intervals where a span of that name ran itself."""
    children: Dict[int, List[Interval]] = defaultdict(list)
    for _sid, _name, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    out: Dict[str, List[Interval]] = defaultdict(list)
    for sid, name, start, end, _parent in spans:
        out[name].extend(_subtract((start, end), children.get(sid, [])))
    return out


def attribute(spans: Sequence[tuple], ops: Sequence[Interval]) -> dict:
    """Self time per span name inside the operations, and what no span covers."""
    windows = _merge(list(ops))
    op_total = sum(end - start for start, end in ops)
    segments = self_segments(spans)
    self_ms = {name: _overlap(segs, windows) * 1e3 for name, segs in segments.items()}
    covered = _overlap(_merge([seg for segs in segments.values() for seg in segs]), windows) * 1e3
    summed = sum(self_ms.values())
    return {
        "op_total_ms": op_total * 1e3,
        "self_ms": self_ms,
        "covered_ms": covered,
        "unattributed_ms": op_total * 1e3 - covered,
        # time counted twice by overlapping, unlinked spans, as a share of op time
        "accounting_error": (summed - covered) / (op_total * 1e3) if op_total else 0.0,
    }


def totals_in(spans: Sequence[tuple], name: str, window: Optional[Interval] = None) -> Tuple[float, int]:
    """Total milliseconds and count of spans named ``name`` (inside ``window``)."""
    total, count = 0.0, 0
    for _sid, span_name, start, end, _parent in spans:
        if span_name != name:
            continue
        if window is not None and not (start >= window[0] and end <= window[1]):
            continue
        total += end - start
        count += 1
    return total * 1e3, count
