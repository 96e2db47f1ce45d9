"""Distributed request tracing: spans, trace context, waterfalls.

A slow ``landlord_request_seconds`` bucket says *that* a request was
slow; this module says *where the time went*.  One submission becomes
one **trace** — a 32-hex id minted by the client (or the daemon, for
bare curl) — carrying one :class:`Span` per pipeline stage::

    admission -> queue -> fsync -> apply -> ack

Zero-dependency by construction, like the rest of :mod:`repro.obs`:

- **Propagation** uses the W3C Trace Context ``traceparent`` header
  shape (``00-<32hex trace>-<16hex span>-<2hex flags>``), so the wire
  format is what real collectors speak
  (:func:`format_traceparent` / :func:`parse_traceparent`).
- **Recording** goes into a :class:`SpanRecorder` — a thread-safe
  bounded ring buffer (old traces fall off; memory is O(limit)) that
  simultaneously feeds per-stage histogram families
  (``service_stage_seconds{stage=...}``) whose bucket exemplars carry
  the ``trace_id`` plus a wall-clock timestamp, so a fat bucket clicks
  through to the exact waterfall.
- **Time** comes from an injectable
  :class:`~repro.obs.clock.HybridClock`: durations are monotonic,
  timestamps are wall-clock, and tests freeze both.  Every span metric
  lives in a ``*_seconds`` family, keeping deterministic snapshots
  untouched.
- **Rendering** is :func:`render_waterfall` — the ASCII per-stage
  breakdown behind ``repro-landlord trace``.

Sweep workers reuse the same :class:`Span` model locally (one trace per
simulation cell — see :mod:`repro.parallel.simulations`), so serial and
parallel runs emit comparable traces.
"""

from __future__ import annotations

import math
import os
import re
import threading
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .clock import HybridClock, default_clock

__all__ = [
    "CLIENT_SPAN",
    "SERVICE_STAGES",
    "TRACEPARENT_HEADER",
    "Span",
    "ActiveSpan",
    "SpanRecorder",
    "format_traceparent",
    "parse_traceparent",
    "new_span_id",
    "new_trace_id",
    "render_waterfall",
]

#: The five pipeline stages of one daemon submission, in order.
SERVICE_STAGES: Tuple[str, ...] = (
    "admission", "queue", "fsync", "apply", "ack",
)

#: The root span a :class:`~repro.service.LandlordClient` records around
#: one whole submit round trip (see :func:`render_waterfall`).
CLIENT_SPAN = "client_submit"

#: The HTTP header carrying trace context (W3C Trace Context shape).
TRACEPARENT_HEADER = "traceparent"

_TRACEPARENT_RE = re.compile(
    r"^(?P<version>[0-9a-f]{2})-(?P<trace>[0-9a-f]{32})"
    r"-(?P<span>[0-9a-f]{16})-(?P<flags>[0-9a-f]{2})$"
)


def new_trace_id() -> str:
    """A fresh random 32-hex (128-bit) trace id (never all-zero)."""
    while True:
        trace_id = os.urandom(16).hex()
        if trace_id != "0" * 32:  # the spec's invalid sentinel
            return trace_id


def new_span_id() -> str:
    """A fresh random 16-hex (64-bit) span id (never all-zero)."""
    while True:
        span_id = os.urandom(8).hex()
        if span_id != "0" * 16:
            return span_id


def format_traceparent(
    trace_id: str, span_id: str, sampled: bool = True
) -> str:
    """Render a ``traceparent`` header value (version-00 format)."""
    header = f"00-{trace_id}-{span_id}-{'01' if sampled else '00'}"
    if parse_traceparent(header) is None:
        raise ValueError(
            f"invalid trace context ids {trace_id!r}/{span_id!r}"
        )
    return header


def parse_traceparent(header: Optional[str]) -> Optional[Tuple[str, str]]:
    """Parse a ``traceparent`` header into ``(trace_id, span_id)``.

    Returns ``None`` for anything malformed — the forward-compatible
    posture of the W3C spec: an unparseable header means "start a new
    trace", never "fail the request".  Version ``ff`` and all-zero ids
    are invalid per spec and also yield ``None``.
    """
    if not header:
        return None
    match = _TRACEPARENT_RE.match(header.strip().lower())
    if match is None:
        return None
    if match.group("version") == "ff":
        return None
    trace_id = match.group("trace")
    span_id = match.group("span")
    if set(trace_id) == {"0"} or set(span_id) == {"0"}:
        return None
    return trace_id, span_id


@dataclass(frozen=True)
class Span:
    """One completed, named slice of a trace.

    ``start`` is wall-clock epoch seconds (from the hybrid clock) and
    ``duration`` is a monotonic-sourced interval, so ``start`` says
    *when* and ``duration`` says *how long* — each from the clock that
    is trustworthy for it.
    """

    trace_id: str
    span_id: str
    name: str
    start: float
    duration: float
    parent_id: Optional[str] = None
    request_index: Optional[int] = None
    attrs: Tuple[Tuple[str, str], ...] = ()

    @property
    def end(self) -> float:
        """Wall-clock end instant (``start + duration``)."""
        return self.start + self.duration

    def to_jsonable(self) -> dict:
        """JSON-safe dict form (the ``/traces`` JSON view)."""
        out = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
        }
        if self.parent_id is not None:
            out["parent_id"] = self.parent_id
        if self.request_index is not None:
            out["request_index"] = self.request_index
        if self.attrs:
            out["attrs"] = [list(pair) for pair in self.attrs]
        return out

    @classmethod
    def from_jsonable(cls, data: dict) -> "Span":
        """Inverse of :meth:`to_jsonable`."""
        return cls(
            trace_id=data["trace_id"],
            span_id=data["span_id"],
            name=data["name"],
            start=data["start"],
            duration=data["duration"],
            parent_id=data.get("parent_id"),
            request_index=data.get("request_index"),
            attrs=tuple(
                (str(k), str(v)) for k, v in data.get("attrs", ())
            ),
        )


class ActiveSpan:
    """An in-flight span: started now, recorded on :meth:`finish`.

    Usable as a context manager (``with recorder.start("stage"): ...``);
    exceptions still finish the span so traces never leak open slices.
    """

    __slots__ = (
        "recorder", "name", "trace_id", "span_id", "parent_id",
        "request_index", "attrs", "start_mono",
    )

    def __init__(
        self,
        recorder: "SpanRecorder",
        name: str,
        trace_id: str,
        parent_id: Optional[str] = None,
        request_index: Optional[int] = None,
        attrs: Tuple[Tuple[str, str], ...] = (),
    ) -> None:
        self.recorder = recorder
        self.name = name
        self.trace_id = trace_id
        self.span_id = new_span_id()
        self.parent_id = parent_id
        self.request_index = request_index
        self.attrs = attrs
        self.start_mono = recorder.clock.monotonic()

    def finish(
        self, request_index: Optional[int] = None
    ) -> Span:
        """Close the span now and record it; returns the frozen span."""
        mono = self.recorder.clock.monotonic()
        return self.recorder.observe(
            self.name,
            self.start_mono,
            mono - self.start_mono,
            self.trace_id,
            parent_id=self.parent_id,
            request_index=(
                request_index if request_index is not None
                else self.request_index
            ),
            attrs=self.attrs,
            span_id=self.span_id,
        )

    def __enter__(self) -> "ActiveSpan":
        """Context-manager entry: the active span itself."""
        return self

    def __exit__(self, *exc) -> None:
        """Context-manager exit: finish (also on exception)."""
        self.finish()


class SpanRecorder:
    """A bounded, thread-safe ring buffer of spans + stage histograms.

    Args:
        limit: ring-buffer capacity in *spans* (a five-stage service
            trace costs five slots); the oldest spans fall off first,
            so memory stays O(limit) under any client load.
        clock: the :class:`~repro.obs.clock.HybridClock` stamping spans
            (defaults to the process-wide clock; tests inject a
            :class:`~repro.obs.clock.FrozenClock`).
        registry: optional :class:`~repro.obs.MetricsRegistry`; when
            given, every recorded span also lands in the ``family``
            histogram labelled ``{stage="<span name>"}``, with a bucket
            exemplar carrying the ``trace_id`` and the span's wall-clock
            end time.
        family: the histogram family name (``service_stage_seconds`` for
            the daemon; sweeps use ``sweep_stage_seconds``).  Must end
            in ``_seconds`` — span latencies are wall-clock telemetry
            and stay out of deterministic snapshots.
    """

    def __init__(
        self,
        limit: int = 2048,
        clock: Optional[HybridClock] = None,
        registry=None,
        family: str = "service_stage_seconds",
        help: str = "Wall-clock seconds per request pipeline stage.",
    ) -> None:
        if limit < 1:
            raise ValueError("limit must be >= 1")
        if not family.endswith("_seconds"):
            raise ValueError(
                "span families must end in _seconds (wall-clock telemetry "
                f"is excluded from deterministic snapshots): {family!r}"
            )
        self.limit = limit
        self.clock = clock if clock is not None else default_clock()
        self._spans: "deque[Span]" = deque(maxlen=limit)
        self._lock = threading.Lock()
        self._family = (
            registry.histogram(family, help, labelnames=("stage",))
            if registry is not None
            else None
        )
        self._stage_timers: Dict[str, object] = {}

    def __len__(self) -> int:
        return len(self._spans)

    # -- recording ---------------------------------------------------------

    def start(
        self,
        name: str,
        trace_id: Optional[str] = None,
        parent_id: Optional[str] = None,
        request_index: Optional[int] = None,
        attrs: Sequence[Tuple[str, str]] = (),
    ) -> ActiveSpan:
        """Open an :class:`ActiveSpan` now (new trace id when omitted)."""
        return ActiveSpan(
            self,
            name,
            trace_id if trace_id is not None else new_trace_id(),
            parent_id=parent_id,
            request_index=request_index,
            attrs=tuple(attrs),
        )

    def observe(
        self,
        name: str,
        start_mono: float,
        duration: float,
        trace_id: str,
        parent_id: Optional[str] = None,
        request_index: Optional[int] = None,
        attrs: Sequence[Tuple[str, str]] = (),
        span_id: Optional[str] = None,
    ) -> Span:
        """Record one externally measured span from monotonic readings.

        ``start_mono`` is a :meth:`HybridClock.monotonic` instant (the
        daemon times stages with raw ``perf_counter`` and converts
        here); the stored span's ``start`` is its wall-clock mapping.
        """
        span = Span(
            trace_id=trace_id,
            span_id=span_id if span_id is not None else new_span_id(),
            name=name,
            start=self.clock.wall_of(start_mono),
            duration=duration,
            parent_id=parent_id,
            request_index=request_index,
            attrs=tuple(attrs),
        )
        self.record(span)
        return span

    def record(self, span: Span) -> None:
        """Append one finished span to the ring + stage histogram."""
        with self._lock:
            self._spans.append(span)
        if self._family is not None:
            timer = self._stage_timers.get(span.name)
            if timer is None:
                timer = self._family.labels(stage=span.name)
                self._stage_timers[span.name] = timer
            timer.observe(
                span.duration,
                (("trace_id", span.trace_id),),
                exemplar_ts=span.end,
            )

    # -- reading -----------------------------------------------------------

    def spans(self) -> List[Span]:
        """All held spans, oldest first (a snapshot copy)."""
        with self._lock:
            return list(self._spans)

    def traces(self, last: Optional[int] = None) -> List[dict]:
        """Held spans grouped per trace, as JSON-safe waterfall dicts.

        Each entry: ``trace_id``, ``request_index`` (from any span that
        knows it), wall-clock ``start``, envelope ``duration``, and the
        ``spans`` list sorted by start time — exactly the shape
        :func:`render_waterfall` consumes and ``/traces?format=json``
        serves.  Ordered by first-span arrival; ``last`` keeps only the
        newest N traces.
        """
        grouped: Dict[str, List[Span]] = {}
        order: List[str] = []
        for span in self.spans():
            if span.trace_id not in grouped:
                grouped[span.trace_id] = []
                order.append(span.trace_id)
            grouped[span.trace_id].append(span)
        if last is not None:
            order = order[-last:]
        out = []
        for trace_id in order:
            group = sorted(
                grouped[trace_id], key=lambda s: (s.start, s.name)
            )
            start = min(span.start for span in group)
            end = max(span.end for span in group)
            request_index = next(
                (
                    span.request_index
                    for span in group
                    if span.request_index is not None
                ),
                None,
            )
            out.append({
                "trace_id": trace_id,
                "request_index": request_index,
                "start": start,
                "duration": end - start,
                "spans": [span.to_jsonable() for span in group],
            })
        return out

    def trace(self, trace_id: str) -> Optional[dict]:
        """The waterfall dict for one trace id (prefix match allowed),
        or ``None`` when no held span belongs to it."""
        for entry in self.traces():
            if entry["trace_id"].startswith(trace_id):
                return entry
        return None

    def stage_stats(
        self, quantiles: Sequence[float] = (0.5, 0.95)
    ) -> Dict[str, dict]:
        """Per-stage latency quantiles over the spans currently held.

        Returns ``{stage: {"count": n, "p50": ..., "p95": ...}}`` —
        the ring is bounded, so these are *recent* latencies, which is
        what the ``top`` dashboard's stage column wants.  Stages are
        sorted :data:`SERVICE_STAGES` first, then alphabetically.
        """
        by_stage: Dict[str, List[float]] = {}
        for span in self.spans():
            by_stage.setdefault(span.name, []).append(span.duration)
        rank = {name: i for i, name in enumerate(SERVICE_STAGES)}
        out: Dict[str, dict] = {}
        for stage in sorted(
            by_stage, key=lambda s: (rank.get(s, len(rank)), s)
        ):
            durations = sorted(by_stage[stage])
            entry: dict = {"count": len(durations)}
            for q in quantiles:
                index = min(
                    len(durations) - 1,
                    max(0, math.ceil(q * len(durations)) - 1),
                )
                entry[f"p{round(q * 100):d}"] = durations[index]
            out[stage] = entry
        return out


def _fmt_seconds(value: float) -> str:
    """Human scale for a duration (matches the dashboard's renderer)."""
    if value < 1e-3:
        return f"{value * 1e6:.0f}us"
    if value < 1.0:
        return f"{value * 1e3:.2f}ms"
    return f"{value:.3f}s"


def render_waterfall(trace: dict, width: int = 32) -> str:
    """Render one trace dict (see :meth:`SpanRecorder.traces`) as an
    ASCII waterfall: one positioned bar per span, with duration and
    share of the trace envelope.

    ::

        trace 4bf92f...  request #17  total 3.21ms
          admission  |##..............................|    41us   1.3%
          queue      |..####..........................|   402us  12.5%
          ...

    When the trace holds the client's :data:`CLIENT_SPAN` root, a
    derived ``transport`` row follows: the root's time outside the
    server-stage envelope (request out, reply back), so the stage rows
    plus ``transport`` add up to what the client measured.
    """
    spans = trace.get("spans", [])
    total = float(trace.get("duration", 0.0))
    t0 = float(trace.get("start", 0.0))
    header = f"trace {trace['trace_id']}"
    if trace.get("request_index") is not None:
        header += f"  request #{trace['request_index']}"
    header += f"  total {_fmt_seconds(total)}"
    lines = [header]
    rows = [
        (span["name"], [(float(span["start"]), float(span["duration"]))])
        for span in spans
    ]
    root = next((s for s in spans if s["name"] == CLIENT_SPAN), None)
    stages = [span for span in spans if span is not root]
    if root is not None and stages:
        begin = float(root["start"])
        end = begin + float(root["duration"])
        first = min(float(span["start"]) for span in stages)
        last = max(
            float(span["start"]) + float(span["duration"]) for span in stages
        )
        gaps = [(begin, first - begin), (last, end - last)]
        rows.append(("transport", [gap for gap in gaps if gap[1] > 0]))
    name_width = max([len(name) for name, _ in rows] + [9])
    for name, segments in rows:
        cells = ["."] * width
        for start, duration in segments:
            offset = start - t0
            if total > 0:
                lo = min(width - 1, max(0, int(offset / total * width)))
                hi = int(math.ceil((offset + duration) / total * width))
                hi = min(width, max(hi, lo + 1))
            else:  # a zero-length trace still renders (all bars full)
                lo, hi = 0, width
            cells[lo:hi] = "#" * (hi - lo)
        duration = sum(d for _, d in segments)
        share = 100.0 * duration / total if total > 0 else 100.0
        lines.append(
            f"  {name:<{name_width}} |{''.join(cells)}| "
            f"{_fmt_seconds(duration):>9} {share:5.1f}%"
        )
    return "\n".join(lines)
