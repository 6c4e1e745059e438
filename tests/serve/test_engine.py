"""Serving-engine tests: correctness, deadlines, backpressure, lifecycle.

Every test that starts workers also asserts the engine leaves no
``/dev/shm`` entry behind — including the satellite's worker-crash case,
where workers are SIGKILLed mid-flight and cleanup still falls to the
engine (segment creators unlink; attachers never do).
"""

import glob
import os
import signal
import sys
import threading
import time

import numpy as np
import pytest

from repro.core.encoder import Encoder
from repro.core.model import HDCClassifier
from repro.datasets.synthetic import make_prototype_classification
from repro.serve import Backpressure, ServeRequest, ServingEngine


def shm_entries(prefix: str) -> list[str]:
    return glob.glob(f"/dev/shm/{prefix}*")


@pytest.fixture(scope="module")
def fitted():
    task = make_prototype_classification(
        "serve", num_features=12, num_classes=4, num_train=160, num_test=48,
        seed=3,
    )
    encoder = Encoder(num_features=12, dim=768, levels=8, seed=4)
    clf = HDCClassifier(encoder, num_classes=4, epochs=1, seed=5).fit(
        task.train_x, task.train_y
    )
    return task, clf


class TestServing:
    def test_packed_predictions_match_model(self, fitted):
        task, clf = fitted
        reference = clf.predict(task.test_x)
        packed = clf.encoder.encode_packed(task.test_x)
        with ServingEngine(clf, num_workers=2) as engine:
            served = engine.submit(
                ServeRequest(packed.words)
            ).result().predictions
            prefix = engine.config.prefix
        assert (served == reference).all()
        assert shm_entries(prefix) == []

    def test_feature_predictions_match_model(self, fitted):
        task, clf = fitted
        reference = clf.predict(task.test_x)
        with ServingEngine(clf, num_workers=2) as engine:
            served = engine.submit(
                ServeRequest(task.test_x, features=True)
            ).result().predictions
        assert (served == reference).all()

    def test_single_request_roundtrip(self, fitted):
        task, clf = fitted
        words = clf.encoder.encode_packed(task.test_x[:5]).words
        with ServingEngine(clf, num_workers=1) as engine:
            result = engine.submit(ServeRequest(words)).result()
        assert result.ok and not result.expired
        assert (result.predictions == clf.predict(task.test_x[:5])).all()

    def test_trace_records_batches(self, fitted):
        task, clf = fitted
        words = clf.encoder.encode_packed(task.test_x).words
        with ServingEngine(clf, num_workers=2) as engine:
            engine.submit(ServeRequest(words)).result()
            trace = engine.trace
        assert len(trace) >= 1
        assert trace.queries_served == task.test_x.shape[0]
        assert trace.requests_expired == 0
        event = trace.events[0]
        assert event.generation >= 1
        assert event.duration_s >= 0.0
        # Round-trips exactly through JSONL like the recovery trace.
        from repro.obs.trace import ServeTrace

        assert ServeTrace.from_jsonl(trace.to_jsonl()).events == trace.events

    def test_mismatched_encoder_rejected(self, fitted):
        _, clf = fitted
        other = Encoder(num_features=12, dim=clf.encoder.dim * 2, levels=8,
                        seed=9)
        with pytest.raises(ValueError, match="dim"):
            ServingEngine(clf, encoder=other, num_workers=1)

    def test_feature_requests_need_encoder(self, fitted):
        task, clf = fitted
        with ServingEngine(clf.model, num_workers=1) as engine:
            with pytest.raises(ValueError, match="encoder"):
                engine.submit(ServeRequest(task.test_x[:2], features=True))


class TestDeadlinesAndBackpressure:
    def test_expired_deadline_is_reported_not_computed(self, fitted):
        task, clf = fitted
        words = clf.encoder.encode_packed(task.test_x[:4]).words
        with ServingEngine(clf, num_workers=1) as engine:
            # Warm the worker up so the expired request is not stuck
            # behind fork latency in a way that masks the deadline path.
            engine.submit(ServeRequest(words)).result()
            result = engine.submit(
                ServeRequest(words, deadline=1e-9)
            ).result()
        assert result.expired
        assert result.predictions is None
        assert not result.ok

    def test_backpressure_bounds_in_flight_requests(self, fitted):
        task, clf = fitted
        words = clf.encoder.encode_packed(task.test_x[:2]).words
        engine = ServingEngine(
            clf, num_workers=1, ring_slots=2, backpressure_timeout=0.05
        )
        try:
            # Fill both slots without dispatching (flush=False): the ring
            # is now saturated and the next submit must shed load.
            engine.submit(ServeRequest(words), flush=False)
            engine.submit(ServeRequest(words), flush=False)
            with pytest.raises(Backpressure, match="in flight"):
                engine.submit(ServeRequest(words), flush=False)
        finally:
            engine.stop()

    def test_submit_after_stop_rejected(self, fitted):
        task, clf = fitted
        words = clf.encoder.encode_packed(task.test_x[:2]).words
        engine = ServingEngine(clf, num_workers=1)
        engine.stop()
        with pytest.raises(RuntimeError, match="stopped"):
            engine.submit(ServeRequest(words))


class TestLifecycle:
    def test_stop_is_idempotent_and_releases_segments(self, fitted):
        _, clf = fitted
        engine = ServingEngine(clf, num_workers=2)
        prefix = engine.config.prefix
        assert shm_entries(prefix)  # control + ring + codebook + gen 1
        engine.stop()
        engine.stop()  # second stop must not raise
        assert shm_entries(prefix) == []

    def test_worker_crash_mid_batch_releases_segments(self, fitted):
        """SIGKILLed workers leak nothing: the engine owns every segment
        and unlinks them all on stop, and requests the dead workers held
        are failed instead of hanging their callers."""
        task, clf = fitted
        words = clf.encoder.encode_packed(task.test_x[:4]).words
        engine = ServingEngine(clf, num_workers=2, ring_slots=16)
        prefix = engine.config.prefix
        try:
            # Put real work in flight (below the frame-batch auto-flush
            # threshold, so nothing is served before the kill), then kill
            # both workers mid-batch.
            futures = [
                engine.submit(ServeRequest(words), flush=False)
                for _ in range(6)
            ]
            for worker in engine.workers:
                os.kill(worker.pid, signal.SIGKILL)
            engine.flush()
            time.sleep(0.05)
        finally:
            engine.stop()
        assert shm_entries(prefix) == []
        # Unserved requests were resolved as failures, not left pending.
        for future in futures:
            assert not future.result(timeout=1.0).ok

    def test_submit_after_last_worker_dies_fails_fast(self, fitted):
        """With every worker dead, a new submit has no replica to go to:
        it resolves expired at once instead of waiting for ``stop()``."""
        task, clf = fitted
        words = clf.encoder.encode_packed(task.test_x[:4]).words
        engine = ServingEngine(clf, num_workers=2)
        prefix = engine.config.prefix
        try:
            engine.submit(ServeRequest(words)).result()  # both forked
            for worker in engine.workers:
                os.kill(worker.pid, signal.SIGKILL)
            deadline = time.monotonic() + 5.0
            while engine.live_workers and time.monotonic() < deadline:
                time.sleep(0.01)
            assert engine.live_workers == 0
            result = engine.submit(ServeRequest(words)).result(timeout=1.0)
            assert result.expired and not result.ok
        finally:
            engine.stop()
        assert shm_entries(prefix) == []

    def test_engine_forgets_requests_consumed_by_callbacks(self, fitted):
        """The gateway's pattern: results consumed only through done
        callbacks, never ``result()``.  Once every request has resolved,
        the engine holds no per-request state at all."""
        task, clf = fitted
        words = clf.encoder.encode_packed(task.test_x[:2]).words
        expected = clf.predict(task.test_x[:2])
        total = 256
        got = []
        all_done = threading.Event()

        def on_done(result):
            got.append(result)
            if len(got) == total:
                all_done.set()

        with ServingEngine(clf, num_workers=2, ring_slots=64) as engine:
            for _ in range(total):
                engine.submit(
                    ServeRequest(words), flush=False
                ).add_done_callback(on_done)
            engine.flush()
            assert all_done.wait(30.0)
            assert engine.in_flight == 0
            with engine._lock:
                assert engine._pending == {}
                assert engine._frames == {}
                assert len(engine._free_slots) == engine.config.ring_slots
        assert len(got) == total
        for result in got:
            np.testing.assert_array_equal(result.predictions, expected)

    def test_callbacks_racing_resolution_fire_exactly_once(self, fitted):
        """Client threads register callbacks while collectors resolve the
        same futures (more workers than cores, tiny switch interval).
        Every callback fires exactly once with the future's one result,
        whether registered before or after resolution."""
        task, clf = fitted
        words = clf.encoder.encode_packed(task.test_x[:1]).words
        per_thread = 100
        seen: dict = {}
        errors = []

        def client(engine):
            try:
                for _ in range(per_thread):
                    future = engine.submit(ServeRequest(words))
                    hits = seen[future] = []
                    future.add_done_callback(hits.append)  # races
                    future.result(timeout=30.0)
                    future.add_done_callback(hits.append)  # resolved
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ServingEngine(clf, num_workers=3, ring_slots=16) as engine:
                threads = [
                    threading.Thread(target=client, args=(engine,))
                    for _ in range(4)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60.0)
                assert not any(thread.is_alive() for thread in threads)
                assert engine.in_flight == 0
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert len(seen) == 4 * per_thread
        for future, hits in seen.items():
            assert len(hits) == 2
            assert all(hit is future.result() for hit in hits)

    def test_worker_exit_keeps_segments_usable_by_survivors(self, fitted):
        task, clf = fitted
        reference = clf.predict(task.test_x)
        words = clf.encoder.encode_packed(task.test_x).words
        engine = ServingEngine(clf, num_workers=2)
        prefix = engine.config.prefix
        try:
            os.kill(engine.workers[0].pid, signal.SIGKILL)
            time.sleep(0.05)
            # The survivor serves everything.
            served = engine.submit(ServeRequest(words)).result().predictions
            assert (served == reference).all()
        finally:
            engine.stop()
        assert shm_entries(prefix) == []
