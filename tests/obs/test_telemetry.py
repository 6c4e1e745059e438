"""Unit tests for the cross-process telemetry slab machinery.

Everything here runs on plain in-process uint64 arrays — the slab
layout, writer, reader, flight recorder and correlator are
buffer-agnostic by design.  The serve-integration tests (real shared
memory, real worker processes, SIGKILL post-mortems) live in
``tests/serve/test_fleet_telemetry.py``.
"""

import numpy as np
import pytest

from repro.obs.telemetry import (
    EV_ADOPT,
    EV_BATCH_END,
    EV_BATCH_START,
    EV_DEADLINE_MISS,
    FlightRecorder,
    TelemetrySlabReader,
    TelemetryWriter,
    correlate,
    render_contention_table,
    slab_words,
)
from repro.obs.trace import ServeBatchEvent


def make_slab(flight_slots=8):
    return np.zeros(slab_words(flight_slots), dtype=np.uint64)


def make_pair(flight_slots=8, worker_id=0):
    slab = make_slab(flight_slots)
    writer = TelemetryWriter(slab, worker_id)
    return writer, TelemetrySlabReader(slab)


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
    def test_freeze_detaches_from_buffer(self):
        writer, reader = make_pair()
        writer.record_event(EV_BATCH_START, 100, 0)
        reader.freeze()
        writer.record_event(EV_BATCH_END, 200, 0)  # lands in the live slab
        assert [e.name for e in reader.events()] == ["batch_start"]


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

    def test_freeze_keeps_the_final_rings(self):
        """After ``freeze`` (what the engine's ``stop`` does before it
        unlinks the slabs) every ring reads as it stood, and later
        writes to the old buffers do not show."""
        w0, r0 = make_pair(worker_id=0)
        w1, r1 = make_pair(worker_id=1)
        w0.record_event(EV_BATCH_START, 100, 0)
        w1.record_event(EV_BATCH_START, 50, 0)
        recorder = FlightRecorder({0: r0, 1: r1})
        recorder.freeze()
        w0.record_event(EV_BATCH_END, 300, 0)
        assert [e.name for e in recorder.postmortem(0)] == ["batch_start"]
        assert [(e.worker_id, e.t_ns) for e in recorder.all_events()] == [
            (1, 50), (0, 100),
        ]

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
