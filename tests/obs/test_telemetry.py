"""Unit tests for the cross-process telemetry slab machinery.

Everything here runs on plain in-process uint64 arrays — the slab
layout, writer, reader, aggregator, flight recorder and correlator are
buffer-agnostic by design.  The serve-integration tests (real shared
memory, real worker processes, SIGKILL post-mortems) live in
``tests/serve/test_fleet_telemetry.py``.
"""

import numpy as np
import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import (
    COUNTER_FIELDS,
    EV_ADOPT,
    EV_BATCH_END,
    EV_BATCH_START,
    EV_DEADLINE_MISS,
    HIST_BINS,
    FlightRecorder,
    TelemetryAggregator,
    TelemetrySlabReader,
    TelemetryWriter,
    bucket_index,
    bucket_percentile,
    correlate,
    render_contention_table,
    slab_words,
)
from repro.obs.trace import ServeBatchEvent


def make_slab(flight_slots=8):
    return np.zeros(slab_words(flight_slots), dtype=np.uint64)


def make_pair(flight_slots=8, worker_id=0, **writer_kw):
    slab = make_slab(flight_slots)
    writer = TelemetryWriter(slab, worker_id, **writer_kw)
    return writer, TelemetrySlabReader(slab)


def record(writer, *, requests=2, queries=10, expired=0, duration_ns=1000,
           adopted=False, degraded=False, now_ns=123):
    writer.record_batch(
        requests=requests, queries=queries, expired=expired,
        duration_ns=duration_ns, adopted=adopted, degraded=degraded,
        now_ns=now_ns,
    )


class TestBuckets:
    def test_bucket_index_is_bit_length(self):
        assert bucket_index(0) == 0
        assert bucket_index(1) == 1
        assert bucket_index(2) == 2
        assert bucket_index(3) == 2
        assert bucket_index(4) == 3
        assert bucket_index(2**62) == 63
        assert bucket_index(2**63) == 63  # clamped to the last bin

    def test_percentile_of_point_mass(self):
        bins = np.zeros(HIST_BINS, dtype=np.int64)
        bins[bucket_index(1000)] = 50
        value = bucket_percentile(bins, 50)
        # Representative value sits inside the bucket's [512, 1024) range.
        assert 512 <= value < 1024

    def test_percentile_orders_buckets(self):
        bins = np.zeros(HIST_BINS, dtype=np.int64)
        bins[bucket_index(10)] = 90
        bins[bucket_index(100_000)] = 10
        assert bucket_percentile(bins, 50) < bucket_percentile(bins, 99)

    def test_percentile_empty_is_zero(self):
        assert bucket_percentile(np.zeros(HIST_BINS, dtype=np.int64), 95) == 0.0

    def test_percentile_rejects_bad_q(self):
        with pytest.raises(ValueError):
            bucket_percentile(np.zeros(HIST_BINS, dtype=np.int64), 101)


class TestSlabGeometry:
    def test_slab_words_round_trips_slots(self):
        slab = make_slab(flight_slots=16)
        reader = TelemetrySlabReader(slab)
        assert reader._slots == 16

    def test_rejects_non_slab_array(self):
        with pytest.raises(ValueError):
            TelemetrySlabReader(np.zeros(5, dtype=np.uint64))

    def test_writer_rejects_wrong_dtype(self):
        with pytest.raises(ValueError):
            TelemetryWriter(np.zeros(slab_words(8), dtype=np.int64), 0)

    def test_rejects_zero_slots(self):
        with pytest.raises(ValueError):
            slab_words(0)


class TestWriterReader:
    def test_round_trip_counters_and_header(self):
        writer, reader = make_pair(worker_id=3, pid=4242, started_ns=111)
        record(writer, requests=2, queries=10, now_ns=999)
        record(writer, requests=1, queries=5, expired=1, adopted=True,
               degraded=True, now_ns=1000)
        snap = reader.scrape()
        assert not snap.torn
        assert snap.worker_id == 3
        assert snap.pid == 4242
        assert snap.started_ns == 111
        assert snap.last_batch_ns == 1000
        assert snap.counters == {
            "batches": 2, "requests": 3, "queries": 15, "expired": 1,
            "adoptions": 1, "degraded_batches": 1,
        }

    def test_histogram_stats(self):
        writer, reader = make_pair()
        for duration in (100, 200, 400):
            record(writer, queries=7, duration_ns=duration)
        snap = reader.scrape()
        h = snap.histograms["batch_duration_ns"]
        assert h["count"] == 3
        assert h["sum"] == 700
        assert h["min"] == 100
        assert h["max"] == 400
        assert snap.histogram_bins("batch_duration_ns").sum() == 3
        assert snap.histograms["batch_queries"]["sum"] == 21

    def test_empty_slab_scrapes_cleanly(self):
        """A scrape racing worker startup must not invent extremes."""
        reader = TelemetrySlabReader(make_slab())
        snap = reader.scrape()
        assert snap.counters["batches"] == 0
        assert snap.histograms["batch_duration_ns"]["min"] is None
        assert snap.histograms["batch_duration_ns"]["max"] is None

    def test_seqlock_torn_fallback(self):
        """A slab frozen mid-update (seq odd) still scrapes, flagged torn."""
        writer, reader = make_pair()
        record(writer)
        writer._w[0] += 1  # SIGKILL mid-update: seq stuck odd
        snap = reader.scrape(max_retries=10)
        assert snap.torn
        assert snap.counters["batches"] == 1

    def test_freeze_detaches_from_buffer(self):
        writer, reader = make_pair()
        record(writer)
        reader.freeze()
        record(writer)  # lands in the live slab only
        assert reader.scrape().counters["batches"] == 1


class TestFlightRing:
    def test_events_decode_in_order(self):
        writer, reader = make_pair(flight_slots=8, worker_id=2)
        writer.record_event(EV_BATCH_START, 100, 0, 4)
        writer.record_event(EV_ADOPT, 150, 3, 9, 5000)
        writer.record_event(EV_BATCH_END, 200, 0, 16, 100_000)
        events = reader.events()
        assert [e.name for e in events] == [
            "batch_start", "generation_adopt", "batch_end",
        ]
        assert [e.sequence for e in events] == [0, 1, 2]
        assert all(e.worker_id == 2 for e in events)
        adopt = events[1]
        assert adopt.t_ns == 150
        assert adopt.args == (3, 9, 5000, 0)
        assert adopt.to_dict()["name"] == "generation_adopt"

    def test_ring_wraps_keeping_newest(self):
        writer, reader = make_pair(flight_slots=4)
        for i in range(11):
            writer.record_event(EV_DEADLINE_MISS, 1000 + i, i)
        events = reader.events()
        assert len(events) == 4
        assert [e.args[0] for e in events] == [7, 8, 9, 10]
        assert [e.sequence for e in events] == [7, 8, 9, 10]

    def test_empty_ring(self):
        _, reader = make_pair()
        assert reader.events() == []


class TestAggregator:
    def make_fleet(self):
        w0, r0 = make_pair(worker_id=0)
        w1, r1 = make_pair(worker_id=1)
        record(w0, requests=2, queries=10, duration_ns=100)
        record(w0, requests=1, queries=5, duration_ns=200, adopted=True)
        record(w1, requests=4, queries=20, expired=1, duration_ns=100_000)
        return TelemetryAggregator({0: r0, 1: r1})

    def test_merges_counters_and_bins(self):
        agg = self.make_fleet()
        merged = agg.scrape()
        assert merged["counters"]["batches"] == 3
        assert merged["counters"]["requests"] == 7
        assert merged["counters"]["queries"] == 35
        assert merged["counters"]["expired"] == 1
        assert merged["counters"]["adoptions"] == 1
        duration = merged["histograms"]["batch_duration_ns"]
        assert duration["count"] == 3
        assert duration["min"] == 100
        assert duration["max"] == 100_000
        assert duration["bins"].sum() == 3
        assert set(merged["workers"]) == {0, 1}

    def test_cross_worker_percentiles(self):
        agg = self.make_fleet()
        ps = agg.percentiles("batch_duration_ns", (50.0, 99.0))
        # Median sits with the two fast batches, the tail with the slow one.
        assert ps[50.0] < 1000
        assert ps[99.0] > 50_000

    def test_scrape_into_registry_deltas(self):
        agg = self.make_fleet()
        registry = MetricsRegistry()
        agg.scrape_into(registry)
        assert registry.counter("serve.fleet.batches") == 3
        assert registry.counter("serve.fleet.queries") == 35
        assert registry.snapshot()["gauges"][
            "serve.fleet.workers_reporting"
        ] == 2
        assert registry.snapshot()["gauges"][
            "serve.fleet.batch_duration_p99"
        ] > 0
        # Nothing new happened: a re-scrape must not double-count.
        agg.scrape_into(registry)
        assert registry.counter("serve.fleet.batches") == 3
        assert registry.counter("serve.fleet.queries") == 35

    def test_all_counter_fields_exported(self):
        agg = self.make_fleet()
        registry = MetricsRegistry()
        agg.scrape_into(registry)
        merged = agg.scrape()
        for name in COUNTER_FIELDS:
            if merged["counters"][name]:
                assert registry.counter(f"serve.fleet.{name}") == (
                    merged["counters"][name]
                )


class TestFlightRecorder:
    def test_postmortem_and_merge(self):
        w0, r0 = make_pair(worker_id=0)
        w1, r1 = make_pair(worker_id=1)
        w0.record_event(EV_BATCH_START, 100, 0)
        w1.record_event(EV_BATCH_START, 50, 0)
        w0.record_event(EV_BATCH_END, 300, 0)
        recorder = FlightRecorder({0: r0, 1: r1})
        assert [e.name for e in recorder.postmortem(0)] == [
            "batch_start", "batch_end",
        ]
        merged = recorder.all_events()
        assert [(e.worker_id, e.t_ns) for e in merged] == [
            (1, 50), (0, 100), (0, 300),
        ]
        with pytest.raises(KeyError):
            recorder.postmortem(9)

    def test_render(self):
        w0, r0 = make_pair(worker_id=0)
        w0.record_event(EV_BATCH_START, 100, 0, 4)
        recorder = FlightRecorder({0: r0})
        text = recorder.render(0)
        assert "Flight recorder: worker 0" in text
        assert "batch_start" in text
        _, r1 = make_pair(worker_id=1)
        assert "no flight events" in FlightRecorder({1: r1}).render(1)


def serve_event(generation, trace_id, duration_s=0.001, **overrides):
    base = dict(
        worker_id=0, batch_index=0, requests=2, queries=8, expired=0,
        generation=generation, model_version=generation, adopted=False,
        adoption_lag_s=0.0, staleness_s=0.0, degraded=False,
        queue_depth=0, duration_s=duration_s, trace_id=trace_id, shard=0,
        dispatch_wait_s=0.0, bytes_scanned=0, tenants=1,
    )
    base.update(overrides)
    return ServeBatchEvent(**base)


class TestCorrelate:
    def test_joins_generations_to_publishes(self):
        events = [
            serve_event(1, 0), serve_event(1, 3),
            serve_event(2, 7, degraded=True, duration_s=0.1),
        ]
        publishes = [
            {"generation": 1, "model_version": 1, "trace_id": None},
            {"generation": 2, "model_version": 5, "trace_id": 6},
        ]
        rows = correlate(events, publishes)
        assert [row["generation"] for row in rows] == [1, 2]
        gen1, gen2 = rows
        assert gen1["batches"] == 2
        assert gen1["queries"] == 16
        assert gen1["trace_id_min"] == 0
        assert gen1["trace_id_max"] == 3
        assert gen1["published_after_trace"] is None
        assert gen2["published_after_trace"] == 6
        assert gen2["model_version"] == 5
        assert gen2["degraded_batches"] == 1
        assert gen2["max_batch_s"] == pytest.approx(0.1)

    def test_accepts_publish_log_attribute(self):
        class FakeRecovery:
            publish_log = [
                {"generation": 1, "model_version": 2, "trace_id": 4},
            ]

        rows = correlate([serve_event(1, 5)], FakeRecovery())
        assert rows[0]["published_after_trace"] == 4

    def test_no_publish_source(self):
        rows = correlate([serve_event(3, 2)])
        assert rows[0]["published_after_trace"] is None
        assert rows[0]["batches"] == 1

    def test_pre_trace_id_events_span_none(self):
        rows = correlate([serve_event(1, -1)])
        assert rows[0]["trace_id_min"] is None
        assert rows[0]["trace_id_max"] is None

    def test_render(self):
        rows = correlate(
            [serve_event(1, 0)],
            [{"generation": 1, "model_version": 1, "trace_id": 0}],
        )
        text = render_contention_table(rows)
        assert "Recovery-vs-traffic contention" in text
        assert render_contention_table([]) == "(no serve batches to correlate)"
