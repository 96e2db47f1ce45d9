"""Where the benchmark's spans go, and the per-layer ledger built from them.

The probes wrap calls into each layer of LANDLORD from the outside:

- ``repro.core.engine``: the hit scan, the merge-candidate scan, the
  eviction-victim search, the four maintenance hooks (reported together
  as ``engine.maintain``) and the batch-window hooks;
- ``repro.core.cache``: ``request`` (whose self time is interning,
  accounting, the merge rewrite and observers) and ``submit_batch``;
- ``repro.core.journal``: the group commit (``Journal.append_many``,
  write + fsync), the daemon's window (``JournaledState.apply_batch``)
  and the snapshot + compaction (``JournaledState.flush``);
- ``repro.service.daemon``: ``LandlordDaemon.submit`` (admission to ack);
- ``repro.service.client``: ``LandlordClient.submit`` and its HTTP
  attempts (one more attempt than submits is one retry).

The replay workloads install the engine and cache probes on the one
cache they drive; the traced daemon installs all but the client probes
on the classes (see ``traced_serve.py``).
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional

from ledger import Span, SpanRecorder, layer_totals

__all__ = [
    "TIMED_LAYERS",
    "PER_LAYER_UNITS",
    "install_engine",
    "install_cache",
    "install_journal",
    "install_daemon",
    "install_client",
    "per_layer_metrics",
]

#: Layers reported with ``calls``, ``busy_s`` and ``self_s``.
TIMED_LAYERS = (
    "engine.find_hit",
    "engine.scan_candidates",
    "engine.eviction_victim",
    "engine.maintain",
    "engine.begin_batch",
    "engine.end_batch",
    "cache.request",
    "cache.submit_batch",
    "journal.apply_batch",
    "journal.append_many",
    "journal.flush",
    "daemon.submit",
    "client.submit",
)

_DERIVED_UNITS = {
    "engine.find_hit.useful_ratio": "ratio",
    "engine.scan_candidates.candidates_per_call": "count",
    "engine.scan_candidates.useful_ratio": "ratio",
    "engine.batch.requests_per_window": "count",
    "cache.hits": "count",
    "cache.merges": "count",
    "cache.inserts": "count",
    "cache.evictions": "count",
    "journal.entries_per_append": "count",
    "daemon.queue_wait_s": "s",
    "daemon.rejected": "count",
    "client.transport_s": "s",
    "client.retries": "count",
    "setup.repository_s": "s",
    "setup.stream_s": "s",
    "setup.daemon_ready_s": "s",
    "trace.wall_s": "s",
    "trace.traced_rps": "1/s",
    "trace.untraced_rps": "1/s",
    "trace.overhead_ratio": "ratio",
}

#: Every per-layer metric name with its unit, in report order.
PER_LAYER_UNITS: Dict[str, str] = {}
for _layer in TIMED_LAYERS:
    PER_LAYER_UNITS[f"{_layer}.calls"] = "count"
    PER_LAYER_UNITS[f"{_layer}.busy_s"] = "s"
    PER_LAYER_UNITS[f"{_layer}.self_s"] = "s"
PER_LAYER_UNITS.update(_DERIVED_UNITS)

_MAINTAIN_HOOKS = ("on_add", "on_update", "on_remove", "on_touch")


def install_engine(recorder: SpanRecorder, target) -> None:
    """Probe a decision engine (class or instance)."""
    recorder.install(target, "find_hit", "engine.find_hit",
                     note=lambda args, hit: hit is not None)
    recorder.install(
        target, "scan_candidates", "engine.scan_candidates",
        note=lambda args, res: (len(res[0]), res[1]) if res else None,
    )
    recorder.install(target, "eviction_victim", "engine.eviction_victim")
    for hook in _MAINTAIN_HOOKS:
        recorder.install(target, hook, "engine.maintain")
    recorder.install(target, "begin_batch", "engine.begin_batch",
                     note=lambda args, res: len(args[1]))
    recorder.install(target, "end_batch", "engine.end_batch")


def install_cache(recorder: SpanRecorder, target) -> None:
    """Probe ``LandlordCache`` (class or instance); a request's span id
    is its request index."""
    recorder.install(
        target, "request", "cache.request",
        rid=lambda args: args[0].stats.requests,
        note=lambda args, d: (
            (d.action.value, len(d.evicted)) if d is not None else None
        ),
    )
    recorder.install(target, "submit_batch", "cache.submit_batch")


def install_journal(recorder: SpanRecorder, state_cls, journal_cls) -> None:
    """Probe ``JournaledState`` and ``Journal``.  An ``apply_batch``
    note is the window's ``[first request index, size]``."""
    recorder.install(
        state_cls, "apply_batch", "journal.apply_batch",
        note=lambda args, res: [
            args[1].stats.requests - len(args[3]), len(args[3])
        ],
    )
    recorder.install(state_cls, "flush", "journal.flush")
    recorder.install(journal_cls, "append_many", "journal.append_many",
                     note=lambda args, res: len(args[1]))


def _submit_note(args, res):
    if res is None:
        return None
    status, body = res
    return [status, body.get("trace_id"), body.get("request_index")]


def install_daemon(recorder: SpanRecorder, daemon_cls) -> None:
    """Probe ``LandlordDaemon.submit``; its id is the W3C trace id."""
    recorder.install(daemon_cls, "submit", "daemon.submit",
                     note=_submit_note)


def install_client(recorder: SpanRecorder, client_cls) -> None:
    """Probe ``LandlordClient.submit`` and each HTTP attempt under it."""
    recorder.install(
        client_cls, "submit", "client.submit",
        note=lambda args, payload: (
            payload.get("trace_id") if payload else None
        ),
    )
    recorder.install(client_cls, "_request_json", "client.attempt")


def _by_name(spans: List[Span]) -> Dict[str, List[Span]]:
    out: Dict[str, List[Span]] = {}
    for span in spans:
        out.setdefault(span.name, []).append(span)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _queue_wait(submits: List[Span], windows: List[Span]) -> float:
    """Sum over acked submits of (submit span - its window's apply)."""
    windows = sorted(
        (s.note[0], s.note[0] + s.note[1], s.end - s.start)
        for s in windows if s.note
    )
    starts = [w[0] for w in windows]
    total = 0.0
    for span in submits:
        if not span.note or span.note[0] != 200:
            continue
        index = span.note[2]
        pos = bisect.bisect_right(starts, index) - 1
        if pos >= 0 and windows[pos][0] <= index < windows[pos][1]:
            total += (span.end - span.start) - windows[pos][2]
    return total


def _transport(clients: List[Span], submits: List[Span]) -> float:
    """Sum over client submits of (client span - daemon span), matched
    by trace id."""
    server = {
        s.note[1]: s.end - s.start
        for s in submits if s.note and s.note[0] == 200
    }
    return sum(
        (s.end - s.start) - server[s.note]
        for s in clients if s.note in server
    )


def per_layer_metrics(
    spans: List[Span],
    setup: Dict[str, float],
    wall_s: float,
    traced_rps: float,
    untraced_rps: float,
) -> Dict[str, float]:
    """Every metric in :data:`PER_LAYER_UNITS` from one traced run.

    Layers a workload never enters report zero calls and zero time.
    """
    totals = layer_totals(spans)
    named = _by_name(spans)
    metrics: Dict[str, float] = {}
    for layer in TIMED_LAYERS:
        row = totals.get(layer, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        metrics[f"{layer}.calls"] = row["calls"]
        metrics[f"{layer}.busy_s"] = row["busy_s"]
        metrics[f"{layer}.self_s"] = row["self_s"]

    hits = named.get("engine.find_hit", [])
    metrics["engine.find_hit.useful_ratio"] = _ratio(
        sum(1 for s in hits if s.note), len(hits)
    )
    scans = [s for s in named.get("engine.scan_candidates", []) if s.note]
    metrics["engine.scan_candidates.candidates_per_call"] = _ratio(
        sum(s.note[1] for s in scans), len(scans)
    )
    metrics["engine.scan_candidates.useful_ratio"] = _ratio(
        sum(1 for s in scans if s.note[0]), len(scans)
    )
    begins = named.get("engine.begin_batch", [])
    metrics["engine.batch.requests_per_window"] = _ratio(
        sum(s.note for s in begins), len(begins)
    )

    actions = [s.note for s in named.get("cache.request", []) if s.note]
    for action, metric in (("hit", "cache.hits"), ("merge", "cache.merges"),
                           ("insert", "cache.inserts")):
        metrics[metric] = sum(1 for a in actions if a[0] == action)
    metrics["cache.evictions"] = sum(a[1] for a in actions)

    appends = named.get("journal.append_many", [])
    metrics["journal.entries_per_append"] = _ratio(
        sum(s.note for s in appends), len(appends)
    )

    submits = named.get("daemon.submit", [])
    metrics["daemon.queue_wait_s"] = _queue_wait(
        submits, named.get("journal.apply_batch", [])
    )
    metrics["daemon.rejected"] = sum(
        1 for s in submits if s.note and s.note[0] in (429, 503)
    )
    clients = named.get("client.submit", [])
    metrics["client.transport_s"] = _transport(clients, submits)
    submit_ids = {s.sid for s in clients}
    attempts = sum(
        1 for s in named.get("client.attempt", []) if s.parent in submit_ids
    )
    metrics["client.retries"] = attempts - len(clients)

    for key in ("repository_s", "stream_s", "daemon_ready_s"):
        metrics[f"setup.{key}"] = setup.get(key, 0.0)
    metrics["trace.wall_s"] = wall_s
    metrics["trace.traced_rps"] = traced_rps
    metrics["trace.untraced_rps"] = untraced_rps
    metrics["trace.overhead_ratio"] = _ratio(untraced_rps, traced_rps)
    return metrics


def share_lines(metrics: Dict[str, float], wall_s: Optional[float]) -> List[str]:
    """Human-readable ledger: each timed layer's busy and self time as a
    share of the traced phase."""
    lines = [f"{'layer':<26}{'calls':>9}{'busy s':>10}{'self s':>10}"
             f"{'self %':>8}"]
    for layer in TIMED_LAYERS:
        calls = metrics[f"{layer}.calls"]
        if not calls:
            continue
        self_s = metrics[f"{layer}.self_s"]
        share = 100.0 * self_s / wall_s if wall_s else 0.0
        lines.append(
            f"{layer:<26}{calls:>9}{metrics[f'{layer}.busy_s']:>10.3f}"
            f"{self_s:>10.3f}{share:>7.1f}%"
        )
    return lines
