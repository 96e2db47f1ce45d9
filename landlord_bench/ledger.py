"""Benchmark-side tracing: spans recorded around calls into each layer.

Spans live in memory (one tuple each) and are written out as JSON lines
when the run ends.  A span records its id, its parent's id (0 for a
root), its name, start and end on the ``perf_counter`` timebase, the id
of the request it belongs to, and an optional note computed from the
call's arguments and result (a hit flag, a window size, a trace id).

A layer's self time is its span's duration minus the part of that
interval its child spans cover; the ledger sums calls, busy time and
self time per span name and derives the per-layer ratios the benchmark
reports.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import types
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional

__all__ = [
    "Span",
    "SpanRecorder",
    "self_times",
    "layer_totals",
    "read_spans",
    "write_spans",
]


class Span(NamedTuple):
    """One recorded call into a layer."""

    sid: int
    parent: int
    name: str
    start: float
    end: float
    rid: object
    note: object


class SpanRecorder:
    """Wraps functions so every call records a :class:`Span`.

    Parents come from a per-thread stack, so nesting is exact within a
    thread and spans from different threads never claim each other.
    Fields are kept in columns so recording allocates no tuple per span:
    allocations of tracked objects trigger the cyclic garbage collector,
    which would charge its passes to the traced run.
    """

    def __init__(self, first_id: int = 1) -> None:
        # Recorders in different processes whose spans are merged later
        # start from different ids.
        self._ids = itertools.count(first_id)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._columns: List[list] = [[] for _ in Span._fields]

    @property
    def spans(self) -> List[Span]:
        """The spans recorded so far, in completion order."""
        with self._lock:
            return [Span(*row) for row in zip(*self._columns)]

    def wrap(
        self,
        fn: Callable,
        name: str,
        rid: Optional[Callable] = None,
        note: Optional[Callable] = None,
    ) -> Callable:
        """Return ``fn`` recording a span per call.

        ``rid(args)`` names the request a span belongs to before the call
        runs; without it a span inherits its parent's.  ``note(args,
        result)`` annotates a completed call.
        """
        ids = self._ids
        local = self._local
        lock = self._lock
        sids, parents, names, starts, ends, rids, notes = self._columns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                stack = local.stack
                stack_rids = local.rids
            except AttributeError:
                stack = local.stack = []
                stack_rids = local.rids = []
            parent = stack[-1] if stack else 0
            sid = next(ids)
            request = (rid(args) if rid is not None
                       else stack_rids[-1] if stack_rids else None)
            stack.append(sid)
            stack_rids.append(request)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                stack_rids.pop()
                annotation = note(args, result) if note is not None else None
                with lock:
                    sids.append(sid)
                    parents.append(parent)
                    names.append(name)
                    starts.append(start)
                    ends.append(end)
                    rids.append(request)
                    notes.append(annotation)

        return traced

    def install(self, target, method: str, name: str, **kwargs) -> None:
        """Wrap ``target.method`` in place.

        ``target`` is a class (every instance is traced) or one object
        (only it is traced).  Either way the note and rid callables see
        ``self`` as ``args[0]``.
        """
        if isinstance(target, type):
            setattr(target, method,
                    self.wrap(getattr(target, method), name, **kwargs))
        else:
            fn = getattr(type(target), method)
            setattr(target, method,
                    types.MethodType(self.wrap(fn, name, **kwargs), target))


def _covered(intervals: List[tuple], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Each span's duration minus the time its children cover."""
    spans = list(spans)
    children: Dict[int, List[tuple]] = defaultdict(list)
    for span in spans:
        if span.parent:
            children[span.parent].append((span.start, span.end))
    return {
        span.sid: (span.end - span.start)
        - _covered(children.get(span.sid, []), span.start, span.end)
        for span in spans
    }


def layer_totals(spans: Iterable[Span]) -> Dict[str, dict]:
    """Per span name: ``calls``, ``busy_s`` and ``self_s``."""
    spans = list(spans)
    own = self_times(spans)
    totals: Dict[str, dict] = defaultdict(
        lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
    )
    for span in spans:
        row = totals[span.name]
        row["calls"] += 1
        row["busy_s"] += span.end - span.start
        row["self_s"] += own[span.sid]
    return dict(totals)


def write_spans(path, spans: Iterable[Span]) -> None:
    """Write spans as JSON lines (one object per span)."""
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span._asdict()) + "\n")


def read_spans(path) -> List[Span]:
    """Read spans written by :func:`write_spans`."""
    with open(path, encoding="utf-8") as fh:
        return [Span(**json.loads(line)) for line in fh if line.strip()]
