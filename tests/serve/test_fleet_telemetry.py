"""Serve-side telemetry integration: slabs, trace ids, SIGKILL post-mortems.

The three pins this file owns:

* fleet counters scraped out of worker shared memory agree with the
  engine's own :class:`~repro.obs.trace.ServeTrace` totals;
* a worker SIGKILLed mid-flight leaves a decodable flight-recorder ring
  (the slab is engine-owned, so the crash cannot take it down);
* telemetry on vs off is *bit-identical* for a seeded concurrent
  attack-and-recover run — recording draws from no RNG.
"""

import glob
import os
import signal
import threading
import time

import numpy as np
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
    def test_fleet_counters_match_trace_totals(self, fitted):
        task, clf = fitted
        words = clf.encoder.encode_packed(task.test_x).words
        with ServingEngine(clf, num_workers=2) as engine:
            engine.submit(ServeRequest(words)).result()
            engine.submit(ServeRequest(words)).result()
            merged = engine.scrape_telemetry(MetricsRegistry())
            trace = engine.trace
        assert merged["counters"]["batches"] == len(trace)
        assert merged["counters"]["requests"] == trace.requests_served
        assert merged["counters"]["queries"] == trace.queries_served
        assert merged["counters"]["expired"] == trace.requests_expired
        duration = merged["histograms"]["batch_duration_ns"]
        assert duration["count"] == len(trace)
        assert duration["min"] > 0

    def test_scrape_into_registry_and_prometheus(self, fitted):
        task, clf = fitted
        words = clf.encoder.encode_packed(task.test_x).words
        registry = MetricsRegistry()
        with ServingEngine(clf, num_workers=2) as engine:
            engine.submit(ServeRequest(words)).result()
            engine.scrape_telemetry(registry)
            ps = engine.telemetry.percentiles("batch_duration_ns")
        assert registry.counter("serve.fleet.queries") == words.shape[0]
        assert registry.snapshot()["gauges"][
            "serve.fleet.workers_reporting"
        ] >= 1
        assert 0 < ps[50.0] <= ps[99.0]
        text = render_prometheus(registry)
        assert "repro_serve_fleet_queries" in text
        assert "repro_serve_fleet_batch_duration_p95" in text

    def test_stop_scrapes_into_installed_registry(self, fitted):
        task, clf = fitted
        words = clf.encoder.encode_packed(task.test_x).words
        with use_metrics(MetricsRegistry()) as registry:
            engine = ServingEngine(clf, num_workers=1)
            try:
                engine.submit(ServeRequest(words)).result()
            finally:
                engine.stop()
            assert registry.counter("serve.fleet.queries") == words.shape[0]
        # Post-stop reads stay valid on the frozen final state.
        assert engine.telemetry.scrape()["counters"]["queries"] == (
            words.shape[0]
        )

    def test_telemetry_disabled(self, fitted):
        task, clf = fitted
        words = clf.encoder.encode_packed(task.test_x[:4]).words
        with ServingEngine(clf, num_workers=1, telemetry=False) as engine:
            engine.submit(ServeRequest(words)).result()
            assert engine.telemetry is None
            assert engine.flight_recorder is None
            with pytest.raises(RuntimeError, match="telemetry=False"):
                engine.scrape_telemetry()
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
            engine.publisher.publish(clf.model)
            engine.submit(ServeRequest(words)).result()
            log = engine.publisher.publish_log
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
            engine.publisher.publish(clf.model)
            engine.submit(ServeRequest(words)).result()
            rows = correlate(engine.trace, engine.publisher)
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
                    publisher=engine.publisher,
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
