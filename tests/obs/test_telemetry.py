"""Tests for repro.obs.telemetry — worker push, parent aggregation.

The determinism bar from the sweep layer applies here too: folding
worker cells strictly in submission-index order must reproduce the
serial registry bit-for-bit, whatever the arrival order, batching, or
worker assignment.  Property tests below drive that with integer-valued
observations (exactly representable, so float sums cannot blur the
comparison the way reordered IEEE folds would).
"""

import http.client
import json
import threading
import urllib.error
import urllib.request

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import MetricsRegistry
from repro.obs.promcheck import (
    validate_openmetrics_text,
    validate_prometheus_text,
)
from repro.obs.telemetry import (
    MAX_PUSH_FAILURES,
    TelemetryAggregator,
    TelemetryCollector,
    TelemetryPusher,
    label_snapshot,
)


def cell_snapshot(n=1, v=2.0):
    """One task's registry snapshot: counters, a gauge, a histogram."""
    reg = MetricsRegistry()
    reg.counter("landlord_requests_total", "Requests.", ("action",)).inc(
        n, action="hit"
    )
    reg.counter("landlord_hits_total", "Hits.").inc(n)
    reg.gauge("landlord_images").set(10 * n)
    reg.histogram("landlord_merge_distance", buckets=(1.0, 4.0)).observe(v)
    return reg.snapshot()


def canonical(reg: MetricsRegistry) -> str:
    return json.dumps(reg.snapshot(), sort_keys=True)


def serial_fold(snaps) -> MetricsRegistry:
    reg = MetricsRegistry()
    for snap in snaps:
        reg.merge_snapshot(snap)
    return reg


class TestLabelSnapshot:
    def test_prepends_worker_label(self):
        snap = cell_snapshot()
        labelled = label_snapshot(snap, "w1")
        fam = labelled["families"]["landlord_requests_total"]
        assert fam["labelnames"] == ["worker", "action"]
        assert fam["series"][0]["labels"] == ["w1", "hit"]
        bare = labelled["families"]["landlord_hits_total"]
        assert bare["labelnames"] == ["worker"]
        assert bare["series"][0]["labels"] == ["w1"]

    def test_input_not_modified(self):
        snap = cell_snapshot()
        before = json.dumps(snap, sort_keys=True)
        label_snapshot(snap, "w1")
        assert json.dumps(snap, sort_keys=True) == before

    def test_labelled_snapshot_merges(self):
        reg = MetricsRegistry()
        reg.merge_snapshot(label_snapshot(cell_snapshot(), "w1"))
        reg.merge_snapshot(label_snapshot(cell_snapshot(), "w2"))
        fam = reg.get("landlord_hits_total")
        assert fam.value(worker="w1") == 1
        assert fam.value(worker="w2") == 1


class TestAggregatorCells:
    def test_out_of_order_cells_fold_in_index_order(self):
        snaps = [cell_snapshot(n, float(n)) for n in range(4)]
        agg = TelemetryAggregator()
        agg.ingest_cells("w1", [(3, snaps[3]), (1, snaps[1])])
        # only index 0..  nothing contiguous yet
        assert agg.status()["cells"]["folded"] == 0
        assert agg.status()["cells"]["pending"] == 2
        agg.ingest_cells("w2", [(0, snaps[0])])
        assert agg.status()["cells"]["folded"] == 2  # 0 then 1
        agg.ingest_cells("w2", [(2, snaps[2])])
        assert agg.status()["cells"]["folded"] == 4
        assert canonical(agg.aggregate()) == canonical(serial_fold(snaps))

    def test_duplicate_indices_dropped_and_counted(self):
        snap = cell_snapshot()
        agg = TelemetryAggregator()
        agg.ingest_cells("w1", [(0, snap)])
        agg.ingest_cells("w1", [(0, snap)])  # retried push
        agg.ingest_cells("w1", [(1, snap), (1, snap)])
        status = agg.status()
        assert status["cells"]["folded"] == 2
        assert status["cells"]["duplicates"] == 2
        assert agg.aggregate().get("landlord_hits_total").value() == 2

    def test_worker_views_track_their_own_cells(self):
        agg = TelemetryAggregator()
        agg.ingest_cells("w1", [(0, cell_snapshot(1))])
        agg.ingest_cells("w2", [(1, cell_snapshot(5))])
        views = dict(agg.worker_registries())
        assert views["w1"].get("landlord_hits_total").value() == 1
        assert views["w2"].get("landlord_hits_total").value() == 5

    def test_status_counters_and_progress(self):
        agg = TelemetryAggregator(expected_cells=3)
        agg.register_worker("idle")
        agg.ingest_cells("w1", [(0, cell_snapshot(2))], final=True)
        status = agg.status()
        assert status["workers"]["idle"]["mode"] is None
        w1 = status["workers"]["w1"]
        assert w1["mode"] == "cells"
        assert w1["final"] is True
        assert w1["hits"] == 2
        assert w1["requests"] == 2
        assert status["cells"] == {
            "folded": 1, "pending": 0, "duplicates": 0, "expected": 3,
        }
        assert status["complete"] is False
        agg.mark_complete()
        assert agg.status()["complete"] is True


class TestAggregatorCumulative:
    def test_push_replaces_not_sums(self):
        agg = TelemetryAggregator()
        agg.ingest("client", cell_snapshot(2))
        agg.ingest("client", cell_snapshot(5))
        assert agg.aggregate().get("landlord_hits_total").value() == 5
        assert agg.status()["workers"]["client"]["pushes"] == 2

    def test_base_registry_included_live(self):
        base = MetricsRegistry()
        base.counter("service_submissions_total").inc(3)
        agg = TelemetryAggregator(base=base)
        agg.ingest("client", cell_snapshot(1))
        out = agg.aggregate()
        assert out.get("service_submissions_total").value() == 3
        assert out.get("landlord_hits_total").value() == 1
        base.get("service_submissions_total").inc()  # live, not a copy
        assert agg.aggregate().get("service_submissions_total").value() == 4


class TestFleetRender:
    def test_no_workers_renders_like_bare_registry(self):
        base = MetricsRegistry()
        base.counter("service_submissions_total", "S.", ("outcome",)).inc(
            12, outcome="accepted"
        )
        base.histogram("service_wait_seconds").observe(0.01)
        agg = TelemetryAggregator(base=base)
        assert agg.to_prometheus() == base.to_prometheus()
        assert agg.to_openmetrics() == base.to_openmetrics()

    def test_worker_series_under_one_type_block(self):
        agg = TelemetryAggregator()
        agg.ingest_cells("w1", [(0, cell_snapshot(1))])
        agg.ingest_cells("w2", [(1, cell_snapshot(2))])
        text = agg.to_prometheus()
        assert text.count("# TYPE landlord_hits_total counter") == 1
        assert "landlord_hits_total 3" in text  # aggregate first
        assert 'landlord_hits_total{worker="w1"} 1' in text
        assert 'landlord_hits_total{worker="w2"} 2' in text
        assert 'landlord_requests_total{worker="w1",action="hit"} 1' in text

    def test_both_formats_validate(self):
        agg = TelemetryAggregator()
        agg.ingest_cells("w1", [(0, cell_snapshot(1))])
        agg.ingest("w2", cell_snapshot(2))
        validate_prometheus_text(agg.to_prometheus())
        validate_openmetrics_text(agg.to_openmetrics())

    def test_openmetrics_ends_with_eof(self):
        agg = TelemetryAggregator()
        assert agg.to_openmetrics().rstrip("\n").endswith("# EOF")
        agg.ingest_cells("w1", [(0, cell_snapshot())])
        assert agg.to_openmetrics().rstrip("\n").endswith("# EOF")


class TestIngestPayload:
    def test_register_cells_final_shapes(self):
        agg = TelemetryAggregator()
        ack = agg.ingest_payload({"worker": "w1", "register": True})
        assert ack == {"ok": True, "workers": 1, "cells_folded": 0}
        ack = agg.ingest_payload({
            "worker": "w1", "mode": "cells",
            "cells": [[0, cell_snapshot()]],
        })
        assert ack["cells_folded"] == 1
        agg.ingest_payload({"worker": "w1", "final": True})
        assert agg.status()["workers"]["w1"]["final"] is True

    def test_cumulative_shape(self):
        agg = TelemetryAggregator()
        agg.ingest_payload({
            "worker": "c", "mode": "cumulative",
            "snapshot": cell_snapshot(4),
        })
        assert agg.aggregate().get("landlord_hits_total").value() == 4

    @pytest.mark.parametrize("payload", [
        "not a dict",
        {},
        {"worker": ""},
        {"worker": "w"},
        {"worker": "w", "mode": "cells", "cells": "nope"},
        {"worker": "w", "mode": "cumulative", "snapshot": [1, 2]},
        {"worker": "w", "mode": "unknown"},
    ])
    def test_malformed_payloads_rejected(self, payload):
        with pytest.raises(ValueError):
            TelemetryAggregator().ingest_payload(payload)


def _get(url):
    with urllib.request.urlopen(url, timeout=10) as response:
        return (
            response.read().decode(),
            response.headers.get("Content-Type"),
        )


class TestCollectorHTTP:
    def test_push_scrape_round_trip(self):
        snaps = [cell_snapshot(n, float(n)) for n in range(3)]
        with TelemetryCollector() as collector:
            pusher = TelemetryPusher(collector.url, worker="w1")
            assert pusher.register()
            # out-of-order arrival: fold must still be index-ordered
            assert pusher.push_cells([(2, snaps[2])])
            assert pusher.push_cells([(0, snaps[0]), (1, snaps[1])])
            assert pusher.finalize()
            assert pusher.pushed == 4

            prom, ct = _get(f"{collector.url}/metrics")
            assert ct.startswith("text/plain")
            validate_prometheus_text(prom)
            assert 'landlord_hits_total{worker="w1"} 3' in prom

            om, ct = _get(f"{collector.url}/metrics?format=openmetrics")
            assert ct.startswith("application/openmetrics-text")
            validate_openmetrics_text(om)

            status, _ = _get(f"{collector.url}/statusz")
            telemetry = json.loads(status)["telemetry"]
            assert telemetry["workers"]["w1"]["final"] is True
            assert telemetry["cells"]["folded"] == 3
        assert canonical(collector.aggregator.aggregate()) == canonical(
            serial_fold(snaps)
        )

    def test_status_extra_merged_into_statusz(self):
        with TelemetryCollector(
            status_extra=lambda: {"sweep": {"done": 2, "total": 8}}
        ) as collector:
            body, _ = _get(f"{collector.url}/statusz")
            assert json.loads(body)["sweep"] == {"done": 2, "total": 8}

    def test_bad_post_is_400_not_a_crash(self):
        with TelemetryCollector() as collector:
            request = urllib.request.Request(
                f"{collector.url}/telemetry",
                data=b'{"worker": "w", "mode": "unknown"}',
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as exc_info:
                urllib.request.urlopen(request, timeout=10)
            assert exc_info.value.code == 400
            # still alive and serving
            body, _ = _get(f"{collector.url}/healthz")
            assert json.loads(body)["status"] == "ok"

    def test_post_elsewhere_is_404(self):
        with TelemetryCollector() as collector:
            request = urllib.request.Request(
                f"{collector.url}/metrics", data=b"{}", method="POST"
            )
            with pytest.raises(urllib.error.HTTPError) as exc_info:
                urllib.request.urlopen(request, timeout=10)
            assert exc_info.value.code == 404

    def test_post_body_is_bounded_and_length_required(self):
        # The collector shares the daemon's body reader: an oversize
        # declared length is refused before a byte of body is read (the
        # client below never sends one, so reading would hang until the
        # timeout), and a missing length is 411, not a guessed read.
        from repro.obs.server import MAX_BODY_BYTES

        with TelemetryCollector() as collector:
            for length, expected in ((MAX_BODY_BYTES + 1, 413), (None, 411)):
                conn = http.client.HTTPConnection(
                    "127.0.0.1", collector.port, timeout=5
                )
                conn.putrequest("POST", "/telemetry")
                if length is not None:
                    conn.putheader("Content-Length", str(length))
                conn.endheaders()
                response = conn.getresponse()
                assert response.status == expected
                assert response.getheader("Connection") == "close"
                assert "error" in json.loads(response.read())
                conn.close()
            assert collector.aggregator.status()["workers"] == {}

    def test_concurrent_pushers_fold_completely(self):
        snaps = [cell_snapshot(n % 3 + 1, float(n)) for n in range(12)]
        with TelemetryCollector() as collector:

            def push(worker, indices):
                pusher = TelemetryPusher(collector.url, worker=worker)
                for index in indices:
                    pusher.push_cells([(index, snaps[index])])
                pusher.finalize()

            threads = [
                threading.Thread(
                    target=push, args=(f"w{k}", range(k, 12, 3))
                )
                for k in range(3)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert collector.aggregator.status()["cells"]["folded"] == 12
        assert canonical(collector.aggregator.aggregate()) == canonical(
            serial_fold(snaps)
        )


class TestPusherFailureTolerance:
    def test_dead_endpoint_never_raises(self):
        # A port from the ephemeral range with nothing listening.
        pusher = TelemetryPusher(
            "http://127.0.0.1:9", worker="w", timeout=0.2
        )
        assert pusher.push_cells([(0, cell_snapshot())]) is False
        assert pusher.pushed == 0

    def test_disables_after_consecutive_failures(self):
        pusher = TelemetryPusher(
            "http://127.0.0.1:9", worker="w", timeout=0.2
        )
        with pytest.warns(RuntimeWarning, match="disabled after"):
            for _ in range(MAX_PUSH_FAILURES):
                pusher.finalize()
        assert pusher.enabled is False
        # further pushes are free no-ops
        assert pusher.push(cell_snapshot()) is False

    def test_success_resets_the_failure_run(self):
        with TelemetryCollector() as collector:
            pusher = TelemetryPusher(collector.url, worker="w")
            bad = TelemetryPusher(
                "http://127.0.0.1:9", worker="w", timeout=0.2
            )
            for _ in range(MAX_PUSH_FAILURES - 1):
                bad.finalize()
            assert bad.enabled is True
            assert pusher.register()
            assert pusher.enabled is True

    def test_url_normalisation(self):
        assert TelemetryPusher("http://h:1").url == "http://h:1/telemetry"
        assert (
            TelemetryPusher("http://h:1/telemetry").url
            == "http://h:1/telemetry"
        )


# -- property tests ---------------------------------------------------------

# Integer observations keep histogram sums exactly representable, so
# fold-order comparisons below are bit-exact by construction and any
# mismatch is a real aggregation bug, not float noise.
cells_strategy = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 6)),
    min_size=1, max_size=12,
).map(
    lambda raw: [cell_snapshot(n, float(v)) for n, v in raw]
)


class TestMergeProperties:
    @settings(max_examples=25, deadline=None)
    @given(cells=cells_strategy, split=st.integers(1, 11))
    def test_merge_is_associative(self, cells, split):
        split = min(split, len(cells))
        left = serial_fold(cells[:split])
        left.merge_snapshot(serial_fold(cells[split:]).snapshot())
        assert canonical(left) == canonical(serial_fold(cells))

    @settings(max_examples=25, deadline=None)
    @given(cells=cells_strategy, workers=st.integers(1, 4),
           seed=st.integers(0, 2**16))
    def test_fold_bit_identical_across_worker_counts_and_orders(
        self, cells, workers, seed
    ):
        import random

        rng = random.Random(seed)
        batches = [
            (f"w{i % workers}", i, snap) for i, snap in enumerate(cells)
        ]
        rng.shuffle(batches)  # arbitrary arrival interleaving
        agg = TelemetryAggregator()
        for worker, index, snap in batches:
            agg.ingest_cells(worker, [(index, snap)])
        assert agg.status()["cells"]["folded"] == len(cells)
        assert canonical(agg.aggregate()) == canonical(serial_fold(cells))

    @settings(max_examples=25, deadline=None)
    @given(cells=cells_strategy)
    def test_worker_labelled_ingest_commutes(self, cells):
        # Per-worker series are disjoint under the worker label, so the
        # fleet exposition is independent of ingest order.
        forward = TelemetryAggregator()
        backward = TelemetryAggregator()
        for i, snap in enumerate(cells):
            forward.ingest(f"w{i}", snap)
        for i, snap in reversed(list(enumerate(cells))):
            backward.ingest(f"w{i}", snap)
        assert forward.to_prometheus() == backward.to_prometheus()
        assert forward.to_openmetrics() == backward.to_openmetrics()
