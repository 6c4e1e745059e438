"""Unified submit API tests: ServeRequest/ServeFuture, config.

Pins the API contract: ``submit`` takes a ``ServeRequest`` and returns a
``ServeFuture`` that owns the request's state (its result, done
callbacks and repeatable ``result()`` survive the engine forgetting the
request) and is the only way in — the bulk ``predict`` shims are gone;
``ServeConfig`` is keyword-only and its validation errors name the
offending field; ``repro.serve.__all__`` is the stable seven-name
surface; and ``stop()`` is idempotent and safe under
concurrent/atexit-style invocation.
"""

import threading

import numpy as np
import pytest

import repro.serve as serve_pkg
from repro.core.encoder import Encoder
from repro.core.model import HDCClassifier
from repro.datasets.synthetic import make_prototype_classification
from repro.serve import ServeConfig, ServeRequest, ServingEngine, ShardPlan
from repro.serve.engine import ServeFuture, TenantSlot


@pytest.fixture(scope="module")
def fitted():
    task = make_prototype_classification(
        "api", num_features=10, num_classes=4, num_train=120, num_test=32,
        seed=7,
    )
    encoder = Encoder(num_features=10, dim=512, levels=8, seed=8)
    clf = HDCClassifier(encoder, num_classes=4, epochs=1, seed=9).fit(
        task.train_x, task.train_y
    )
    return task, clf


@pytest.fixture(scope="module")
def engine(fitted):
    _, clf = fitted
    with ServingEngine(clf, num_workers=2) as eng:
        yield eng


class TestUnifiedSubmit:
    def test_submit_returns_future_with_result(self, fitted, engine):
        task, clf = fitted
        words = clf.encoder.encode_packed(task.test_x[:6]).words
        future = engine.submit(ServeRequest(words))
        assert isinstance(future, ServeFuture)
        result = future.result()
        assert result.ok
        np.testing.assert_array_equal(
            result.predictions, clf.predict(task.test_x[:6])
        )

    def test_future_result_is_repeatable(self, fitted, engine):
        task, clf = fitted
        words = clf.encoder.encode_packed(task.test_x[:3]).words
        future = engine.submit(ServeRequest(words))
        first = future.result()
        assert future.result() is first  # cached, not re-collected
        assert future.done()

    def test_feature_request(self, fitted, engine):
        task, clf = fitted
        future = engine.submit(ServeRequest(task.test_x[:5], features=True))
        np.testing.assert_array_equal(
            future.result().predictions, clf.predict(task.test_x[:5])
        )

    def test_done_callback_fires_once(self, fitted, engine):
        task, clf = fitted
        words = clf.encoder.encode_packed(task.test_x[:2]).words
        got = []
        event = threading.Event()
        future = engine.submit(ServeRequest(words))
        future.add_done_callback(lambda r: (got.append(r), event.set()))
        assert event.wait(10.0)
        assert len(got) == 1 and got[0].ok
        # Registering on an already-resolved request fires immediately.
        late = []
        future.add_done_callback(late.append)
        assert late == got

    def test_callback_added_after_result_fires_once(self, fitted, engine):
        """result() does not end the future: the engine has forgotten the
        request, but a later callback still fires, exactly once and
        immediately, and done()/result() stay repeatable."""
        task, clf = fitted
        words = clf.encoder.encode_packed(task.test_x[:3]).words
        future = engine.submit(ServeRequest(words))
        first = future.result()
        assert first.ok
        got = []
        future.add_done_callback(got.append)
        assert got == [first]
        assert future.done()
        assert future.result() is first
        assert future.done()
        assert got == [first]

    def test_submit_takes_only_serve_requests(self, fitted, engine):
        task, clf = fitted
        words = clf.encoder.encode_packed(task.test_x[:2]).words
        with pytest.raises(TypeError, match="ServeRequest"):
            engine.submit(words)
        assert not hasattr(engine, "submit_features")
        assert not hasattr(engine, "result")
        assert not hasattr(engine, "predict")
        assert not hasattr(engine, "predict_features")

    def test_client_trace_id_echoed(self, fitted, engine):
        task, clf = fitted
        words = clf.encoder.encode_packed(task.test_x[:2]).words
        future = engine.submit(ServeRequest(words, trace_id=777))
        assert future.client_trace_id == 777
        assert future.tenant == "default"
        future.result()

    def test_unknown_tenant_rejected(self, fitted, engine):
        task, clf = fitted
        words = clf.encoder.encode_packed(task.test_x[:2]).words
        with pytest.raises(KeyError, match="unknown tenant"):
            engine.submit(ServeRequest(words, tenant="nope"))

    def test_deadline_belongs_on_request(self, fitted, engine):
        task, clf = fitted
        words = clf.encoder.encode_packed(task.test_x[:2]).words
        with pytest.raises(TypeError, match="ServeRequest"):
            engine.submit(ServeRequest(words), deadline=1.0)


class TestServeConfig:
    def _tenant(self, **overrides):
        base = dict(
            index=0, tenant_id="default", prefix="p-t0",
            control_name="p-t0-control", dim=512, num_classes=4,
            shard_plan=ShardPlan.by_class(4, 1),
        )
        base.update(overrides)
        return TenantSlot(**base)

    def _config(self, **overrides):
        base = dict(
            prefix="p", ring_name="p-ring", ring_slots=8, slot_bytes=512,
            coalesce_requests=8, stall_ns=10**9,
            tenants=(self._tenant(),),
        )
        base.update(overrides)
        return ServeConfig(**base)

    def test_keyword_only(self):
        with pytest.raises(TypeError):
            ServeConfig("p", "p-ring", 8, 512, 8, 10**9)  # noqa

    @pytest.mark.parametrize(
        ("field", "value", "message"),
        [
            ("ring_slots", 0, "ServeConfig.ring_slots"),
            ("slot_bytes", 7, "ServeConfig.slot_bytes"),
            ("coalesce_requests", 0, "ServeConfig.coalesce_requests"),
            ("stall_ns", -1, "ServeConfig.stall_ns"),
            ("prefix", "", "ServeConfig.prefix"),
            ("tenants", (), "ServeConfig.tenants"),
            ("flight_slots", -1, "ServeConfig.flight_slots"),
            ("min_workers", 0, "ServeConfig.min_workers"),
        ],
    )
    def test_validation_names_offending_field(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            self._config(**{field: value})

    def test_max_workers_below_min_named(self):
        with pytest.raises(ValueError, match="ServeConfig.max_workers"):
            self._config(min_workers=4, max_workers=2)

    def test_sharding_single_tenant_only(self):
        sharded = self._tenant(shard_plan=ShardPlan.by_class(4, 2))
        other = self._tenant(
            index=1, tenant_id="b", prefix="p-t1",
            control_name="p-t1-control",
        )
        assert self._config(tenants=(sharded,)).shard_of(3) == 1
        assert self._config(tenants=(self._tenant(), other)).shard_of(3) == 0
        with pytest.raises(ValueError, match="ServeConfig.tenants"):
            self._config(tenants=(sharded, other))


class TestStableSurface:
    def test_all_is_the_stable_seven(self):
        assert serve_pkg.__all__ == [
            "GatewayClient",
            "GatewayServer",
            "ServeConfig",
            "ServeRequest",
            "ServingEngine",
            "ShardPlan",
            "TenantRegistry",
        ]

    def test_legacy_names_stay_importable(self):
        # Out of __all__, but still reachable for existing callers.
        for name in ("Backpressure", "ServeResult", "GenerationPublisher",
                     "ShmArray", "worker_main", "AsyncGatewayClient"):
            assert hasattr(serve_pkg, name), name


class TestStopSafety:
    def test_stop_is_idempotent_and_concurrent_safe(self, fitted):
        task, clf = fitted
        engine = ServingEngine(clf, num_workers=1)
        words = clf.encoder.encode_packed(task.test_x[:2]).words
        engine.submit(ServeRequest(words)).result()
        prefix = engine.config.prefix
        # Hammer stop from many threads at once — exactly one performs
        # the teardown; none raises; segments are unlinked exactly once.
        errors = []

        def _stop():
            try:
                engine.stop()
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=_stop) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        import glob

        assert glob.glob(f"/dev/shm/{prefix}*") == []
        # A late call (the atexit/signal-handler shape) is a no-op.
        engine.stop()
        # Telemetry stays scrapeable on the frozen copies.
        assert engine.scrape_telemetry() is not None
