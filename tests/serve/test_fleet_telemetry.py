"""Serve-side telemetry integration: batch records, trace ids, post-mortems.

The three pins this file owns:

* each worker batch is recorded once, and the fleet's ``serve.*``
  metrics agree with the engine's own :class:`~repro.obs.trace.ServeTrace`;
* a worker SIGKILLed mid-flight leaves a decodable flight-recorder ring
  (the slab is engine-owned, so the crash cannot take it down), and the
  rings stay readable after ``stop()``;
* telemetry on vs off is *bit-identical* for a seeded concurrent
  attack-and-recover run — recording draws from no RNG.
"""

import glob
import os
import signal
import threading
import time

import pytest

from repro.core.encoder import Encoder
from repro.core.model import HDCClassifier
from repro.core.pipeline import RecoveryExperiment
from repro.core.recovery import RecoveryConfig
from repro.datasets.synthetic import make_prototype_classification
from repro.obs.export import render_prometheus
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.obs.telemetry import correlate, render_contention_table
from repro.serve import ServeRequest, ServingEngine


@pytest.fixture(scope="module")
def fitted():
    task = make_prototype_classification(
        "tele", num_features=12, num_classes=4, num_train=160, num_test=48,
        seed=3,
    )
    encoder = Encoder(num_features=12, dim=768, levels=8, seed=4)
    clf = HDCClassifier(encoder, num_classes=4, epochs=1, seed=5).fit(
        task.train_x, task.train_y
    )
    return task, clf


class TestFleetScrape:
    """The fleet's counters are the engine's ``serve.*`` metrics: each
    worker batch message is recorded once, engine-side, into the
    registry installed when the message arrives."""

    def test_fleet_counters_match_trace_totals(self, fitted):
        task, clf = fitted
        words = clf.encoder.encode_packed(task.test_x).words
        with use_metrics(MetricsRegistry()) as registry:
            with ServingEngine(clf, num_workers=2) as engine:
                for _ in range(4):
                    engine.submit(ServeRequest(words[:24])).result()
                    engine.submit(ServeRequest(words[24:])).result()
                trace = engine.trace
        assert len(trace) >= 2
        assert registry.counter("serve.batches") == len(trace)
        assert registry.counter("serve.requests") == trace.requests_served
        assert registry.counter("serve.queries") == trace.queries_served
        assert registry.counter("serve.deadline_expired") == (
            trace.requests_expired
        )
        duration = registry.histograms["serve.batch_duration_s"]
        assert duration.count == len(trace)
        assert duration.min > 0
        assert duration.total == pytest.approx(
            sum(event.duration_s for event in trace)
        )

    def test_registry_installed_after_start_counts_every_batch(self, fitted):
        """Collectors read the installed registry per batch message, so
        a registry installed while the engine runs meters every batch
        traced from then on."""
        task, clf = fitted
        words = clf.encoder.encode_packed(task.test_x).words
        with ServingEngine(clf, num_workers=2) as engine:
            engine.submit(ServeRequest(words)).result()
            before = len(engine.trace)
            with use_metrics(MetricsRegistry()) as registry:
                for _ in range(2):
                    engine.submit(ServeRequest(words[:24])).result()
                    engine.submit(ServeRequest(words[24:])).result()
                traced = len(engine.trace) - before
        assert traced >= 4
        assert registry.counter("serve.batches") == traced
        assert registry.histograms["serve.batch_duration_s"].count == traced

    def test_scrape_into_registry_and_prometheus(self, fitted):
        task, clf = fitted
        words = clf.encoder.encode_packed(task.test_x).words
        with use_metrics(MetricsRegistry()) as registry:
            with ServingEngine(clf, num_workers=2) as engine:
                engine.submit(ServeRequest(words)).result()
                trace = engine.trace
        assert registry.counter("serve.queries") == words.shape[0]
        assert registry.snapshot()["gauges"]["serve.queue_depth"] >= 0
        duration = registry.histograms["serve.batch_duration_s"]
        assert 0 < duration.percentile(50) <= duration.percentile(99)
        text = render_prometheus(registry)
        assert "repro_serve_queries" in text
        assert "# TYPE repro_serve_batch_duration_s summary" in text
        assert f"repro_serve_batch_duration_s_count {len(trace)}" in text


class TestBatchRecord:
    def test_stop_freezes_the_flight_rings(self, fitted):
        task, clf = fitted
        words = clf.encoder.encode_packed(task.test_x).words
        engine = ServingEngine(clf, num_workers=2)
        try:
            engine.submit(ServeRequest(words)).result()
            engine.submit(ServeRequest(words)).result()
        finally:
            engine.stop()
        # The slabs are unlinked; the rings read from their final copies.
        assert glob.glob(f"/dev/shm/{engine.config.prefix}*") == []
        ends = [
            e for w in (0, 1) for e in engine.flight_recorder.postmortem(w)
            if e.name == "batch_end"
        ]
        assert len(ends) == len(engine.trace)
        assert sum(e.args[1] for e in ends) == 2 * words.shape[0]

    def test_telemetry_disabled(self, fitted):
        task, clf = fitted
        words = clf.encoder.encode_packed(task.test_x[:4]).words
        with ServingEngine(clf, num_workers=1, telemetry=False) as engine:
            engine.submit(ServeRequest(words)).result()
            assert engine.flight_recorder is None
            prefix = engine.config.prefix
        assert glob.glob(f"/dev/shm/{prefix}*") == []


class TestTraceIds:
    def test_trace_ids_flow_into_batch_events(self, fitted):
        task, clf = fitted
        words = clf.encoder.encode_packed(task.test_x).words
        with ServingEngine(clf, num_workers=2) as engine:
            engine.submit(ServeRequest(words)).result()
            events = list(engine.trace)
        assert events
        # Every batch carries the lowest trace id it coalesced, and the
        # ids cover the submitted range without inventing new ones.
        ids = [e.trace_id for e in events]
        assert all(i >= 0 for i in ids)
        assert min(ids) == 0
        assert len(set(ids)) == len(ids)

    def test_publish_log_stamps_latest_trace_id(self, fitted):
        task, clf = fitted
        words = clf.encoder.encode_packed(task.test_x).words
        with ServingEngine(clf, num_workers=1) as engine:
            # Some traffic before the publish, and some after.
            engine.submit(ServeRequest(words)).result()
            publisher = engine.publisher_for(engine.tenants[0])
            publisher.publish(clf.model)
            engine.submit(ServeRequest(words)).result()
            log = publisher.publish_log
            trace = engine.trace
        # Generation 1 (startup) precedes all traffic; the re-publish is
        # stamped with the last pre-publish trace id.
        assert log[0]["generation"] == 1
        assert log[0]["trace_id"] == -1
        assert log[1]["trace_id"] >= 0
        rows = correlate(trace, log)
        assert rows[0]["generation"] == 1
        assert "contention" in render_contention_table(rows)

    def test_correlate_orders_traffic_around_publish(self, fitted):
        task, clf = fitted
        words = clf.encoder.encode_packed(task.test_x).words
        with ServingEngine(clf, num_workers=1) as engine:
            engine.submit(ServeRequest(words)).result()
            publisher = engine.publisher_for(engine.tenants[0])
            publisher.publish(clf.model)
            engine.submit(ServeRequest(words)).result()
            rows = correlate(engine.trace, publisher)
        by_gen = {row["generation"]: row for row in rows}
        new_gen = max(by_gen)
        assert new_gen >= 2
        published_after = by_gen[new_gen]["published_after_trace"]
        assert published_after is not None
        # The publish barrier: every batch on the new generation serves
        # only requests submitted after the publish was stamped.
        assert by_gen[new_gen]["trace_id_min"] > published_after


class TestFlightRecorderIntegration:
    def test_sigkilled_worker_ring_is_decodable(self, fitted):
        """The headline crash pin: SIGKILL the worker mid-stream, then
        read its last recorded moments out of the engine-owned slab."""
        task, clf = fitted
        words = clf.encoder.encode_packed(task.test_x).words
        engine = ServingEngine(clf, num_workers=1)
        prefix = engine.config.prefix
        try:
            # Real served traffic in the ring.
            engine.submit(ServeRequest(words)).result()
            victim = engine.workers[0]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=5.0)
            events = engine.flight_recorder.postmortem(0)
            names = [e.name for e in events]
            assert "batch_start" in names
            assert "batch_end" in names
            assert "generation_adopt" in names  # adopted gen 1 at startup
            # Timestamps are monotonic within the ring and the rendered
            # post-mortem table is produced without the worker.
            t = [e.t_ns for e in events]
            assert t == sorted(t)
            assert "Flight recorder: worker 0" in engine.flight_recorder.render(0)
        finally:
            engine.stop()
        assert glob.glob(f"/dev/shm/{prefix}*") == []

    def test_deadline_miss_recorded_in_ring(self, fitted):
        task, clf = fitted
        words = clf.encoder.encode_packed(task.test_x[:4]).words
        with ServingEngine(clf, num_workers=1) as engine:
            engine.submit(ServeRequest(words)).result()  # warm up
            future = engine.submit(ServeRequest(words, deadline=1e-9))
            assert future.result().expired
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                misses = [
                    e for e in engine.flight_recorder.postmortem(0)
                    if e.name == "deadline_miss"
                ]
                if misses:
                    break
                time.sleep(0.01)
        assert misses
        assert misses[0].args[0] == future.request_id

    def test_all_events_merges_workers(self, fitted):
        task, clf = fitted
        words = clf.encoder.encode_packed(task.test_x).words
        with ServingEngine(clf, num_workers=2) as engine:
            engine.submit(ServeRequest(words)).result()
            engine.submit(ServeRequest(words)).result()
            events = engine.flight_recorder.all_events()
        assert {e.worker_id for e in events} == {0, 1}
        t = [e.t_ns for e in events]
        assert t == sorted(t)


class TestBitIdentity:
    """Telemetry on vs off must not change a single bit of a seeded run."""

    def test_concurrent_attack_and_recover_identical(self, predict_rows):
        task = make_prototype_classification(
            "tele-live", num_features=16, num_classes=5, num_train=300,
            num_test=200, seed=0,
        )

        def run(telemetry: bool):
            experiment = RecoveryExperiment(
                dataset=task, dim=1_000, epochs=2, levels=16, seed=7
            )
            eval_words = experiment._eval_packed.words
            engine = ServingEngine(
                experiment.classifier, num_workers=2, telemetry=telemetry
            )
            stop = threading.Event()

            def traffic():
                while not stop.is_set():
                    predict_rows(engine, eval_words)

            thread = threading.Thread(target=traffic, daemon=True)
            thread.start()
            try:
                outcome = experiment.attack_and_recover(
                    0.2, config=RecoveryConfig(), passes=2, seed=11,
                    publisher=engine.publisher_for(engine.tenants[0]),
                )
                final = predict_rows(engine, eval_words)
            finally:
                stop.set()
                thread.join()
                engine.stop()
            return outcome, final, experiment.model.class_hv.copy()

        outcome_on, final_on, hv_on = run(telemetry=True)
        outcome_off, final_off, hv_off = run(telemetry=False)
        assert outcome_on.accuracy_trace == outcome_off.accuracy_trace
        assert outcome_on.recovered_accuracy == outcome_off.recovered_accuracy
        assert (final_on == final_off).all()
        assert (hv_on == hv_off).all()
