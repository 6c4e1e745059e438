"""Gateway end-to-end tests: multi-tenant serving over TCP, admission
control shedding, per-tenant hot-swap isolation, and worker-SIGKILL
re-dispatch underneath a live gateway."""

import asyncio
import glob
import os
import signal
import time

import numpy as np
import pytest

from repro.core.encoder import Encoder
from repro.core.model import HDCClassifier
from repro.datasets.synthetic import make_prototype_classification
from repro.serve import (
    AsyncGatewayClient,
    GatewayClient,
    GatewayRejected,
    ServingEngine,
    TenantRegistry,
)
from repro.serve.gateway import AdmissionController, GatewayServer, TokenBucket
from repro.serve.protocol import RejectCode


def _fitted(seed, num_features=10, dim=512):
    task = make_prototype_classification(
        f"gw{seed}", num_features=num_features, num_classes=4,
        num_train=120, num_test=32, seed=seed,
    )
    encoder = Encoder(
        num_features=num_features, dim=dim, levels=8, seed=seed + 1
    )
    clf = HDCClassifier(
        encoder, num_classes=4, epochs=1, seed=seed + 2
    ).fit(task.train_x, task.train_y)
    return task, clf


@pytest.fixture(scope="module")
def stack():
    """Two tenants behind one engine behind one gateway."""
    task_a, clf_a = _fitted(21)
    task_b, clf_b = _fitted(33)
    registry = TenantRegistry()
    registry.add("alpha", clf_a)
    registry.add("beta", clf_b)
    engine = ServingEngine(registry, num_workers=2, ring_slots=32)
    server = GatewayServer(engine).start()
    yield {
        "engine": engine,
        "server": server,
        "alpha": (task_a, clf_a),
        "beta": (task_b, clf_b),
    }
    server.stop()
    engine.stop()


class TestTokenBucket:
    def test_burst_then_refill(self):
        bucket = TokenBucket(rate=10.0, burst=2.0)
        now = time.monotonic()
        assert bucket.try_take(now)
        assert bucket.try_take(now)
        assert not bucket.try_take(now)  # burst exhausted
        assert bucket.try_take(now + 0.2)  # 0.2s * 10/s = 2 tokens back

    def test_retry_after_refills_before_computing(self):
        bucket = TokenBucket(rate=10.0, burst=1.0)
        now = time.monotonic()
        assert bucket.try_take(now)
        assert not bucket.try_take(now)
        # Freshly drained: one token is 100 ms away.
        assert bucket.retry_after_s(now) == pytest.approx(0.1)
        # 50 ms later half a token has refilled -- the hint must track
        # the refill instead of re-quoting the stale 100 ms peek.
        assert bucket.retry_after_s(now + 0.05) == pytest.approx(0.05)
        # Once a whole token is back the hint clamps to zero.
        assert bucket.retry_after_s(now + 0.2) == 0.0
        assert bucket.try_take(now + 0.2)

    def test_validation(self):
        with pytest.raises(ValueError, match="rate and burst"):
            TokenBucket(rate=0, burst=1)


class TestAdmissionController:
    def test_order_of_refusals(self):
        ctrl = AdmissionController(
            ["a"], max_inflight=1, rate_limit=1000.0
        )
        assert ctrl.admit("ghost") == RejectCode.UNKNOWN_TENANT
        assert ctrl.admit("a") is None
        assert ctrl.admit("a") == RejectCode.OVERLOADED  # in-flight cap
        ctrl.release()
        assert ctrl.admit("a") is None
        ctrl.release()
        ctrl.drain()
        assert ctrl.admit("a") == RejectCode.SHUTTING_DOWN
        assert ctrl.shed[RejectCode.UNKNOWN_TENANT] == 1
        assert ctrl.shed_total == 3
        assert ctrl.admitted == 2

    def test_rate_limit_shed(self):
        ctrl = AdmissionController(
            ["a"], max_inflight=100, rate_limit=5.0, burst=2.0
        )
        codes = [ctrl.admit("a") for _ in range(4)]
        assert codes[:2] == [None, None]
        assert RejectCode.RATE_LIMITED in codes[2:]


class TestGatewayServing:
    def test_sync_client_both_tenants_match_references(self, stack):
        server = stack["server"]
        with GatewayClient("127.0.0.1", server.port) as client:
            client.ping()
            for name in ("alpha", "beta"):
                task, clf = stack[name]
                words = clf.encoder.encode_packed(task.test_x[:8]).words
                np.testing.assert_array_equal(
                    client.predict(words, tenant=name),
                    clf.predict(task.test_x[:8]),
                )
                np.testing.assert_array_equal(
                    client.predict(
                        task.test_x[:8], tenant=name, features=True
                    ),
                    clf.predict(task.test_x[:8]),
                )

    def test_default_tenant_is_first(self, stack):
        server = stack["server"]
        task, clf = stack["alpha"]
        words = clf.encoder.encode_packed(task.test_x[:4]).words
        with GatewayClient("127.0.0.1", server.port) as client:
            np.testing.assert_array_equal(
                client.predict(words),  # no tenant named
                clf.predict(task.test_x[:4]),
            )

    def test_unknown_tenant_typed_reject(self, stack):
        server = stack["server"]
        task, clf = stack["alpha"]
        words = clf.encoder.encode_packed(task.test_x[:2]).words
        with GatewayClient("127.0.0.1", server.port) as client:
            with pytest.raises(GatewayRejected) as info:
                client.predict(words, tenant="ghost")
        assert info.value.code == RejectCode.UNKNOWN_TENANT

    def test_async_client_pipelines_mixed_tenants(self, stack):
        server = stack["server"]

        async def run():
            client = await AsyncGatewayClient.connect(
                "127.0.0.1", server.port
            )
            coros = []
            expected = []
            for name in ("alpha", "beta") * 4:
                task, clf = stack[name]
                words = clf.encoder.encode_packed(task.test_x[:4]).words
                coros.append(client.predict(words, tenant=name))
                expected.append(clf.predict(task.test_x[:4]))
            results = await asyncio.gather(*coros)
            await client.close()
            return results, expected

        results, expected = asyncio.run(run())
        for got, want in zip(results, expected):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("wire", ["frames", "credited_batch"])
    def test_hot_swap_one_tenant_leaves_other_untouched(self, stack, wire):
        """Publishing generations for beta never perturbs alpha, whether
        alpha's requests arrive as single frames or as SUBMIT_BATCH
        entries over a credited connection, and nothing is shed."""
        server = stack["server"]
        engine = stack["engine"]
        task_a, clf_a = stack["alpha"]
        task_b, clf_b = stack["beta"]
        words_a = clf_a.encoder.encode_packed(task_a.test_x[:8]).words
        ref_a = clf_a.predict(task_a.test_x[:8])
        words_b = clf_b.encoder.encode_packed(task_b.test_x[:8]).words
        publisher = engine.publisher_for("beta")
        model_b = clf_b._require_model()
        generation = publisher.generation
        shed = server.admission.shed_total

        async def credited_batches():
            client = await AsyncGatewayClient.connect(
                "127.0.0.1", server.port, credited=True
            )
            try:
                assert client.credited
                for _ in range(3):
                    publisher.publish(model_b)  # hot-swap beta repeatedly
                    for got in await client.submit_batch(
                        [words_a] * 8, tenant="alpha"
                    ):
                        np.testing.assert_array_equal(got, ref_a)
                return await client.submit_batch([words_b], tenant="beta")
            finally:
                await client.close()

        if wire == "frames":
            with GatewayClient("127.0.0.1", server.port) as client:
                for _ in range(3):
                    publisher.publish(model_b)  # hot-swap beta repeatedly
                    np.testing.assert_array_equal(
                        client.predict(words_a, tenant="alpha"), ref_a
                    )
                served_b = client.predict(words_b, tenant="beta")
        else:
            (served_b,) = asyncio.run(credited_batches())
        # Beta itself still serves correctly on its newest snapshot.
        np.testing.assert_array_equal(
            served_b, clf_b.predict(task_b.test_x[:8])
        )
        assert engine.publisher_for("alpha").generation == 1
        assert publisher.generation == generation + 3
        assert server.admission.shed_total == shed


class TestShedding:
    def test_zero_shed_at_low_load(self):
        task, clf = _fitted(55)
        engine = ServingEngine(clf, num_workers=1)
        server = GatewayServer(engine, rate_limit=10_000.0).start()
        words = clf.encoder.encode_packed(task.test_x[:4]).words
        try:
            with GatewayClient("127.0.0.1", server.port) as client:
                for _ in range(20):
                    client.predict(words)
            assert server.admission.shed_total == 0
            assert server.admission.admitted == 20
        finally:
            server.stop()
            engine.stop()

    def test_rate_limit_sheds_typed(self):
        task, clf = _fitted(56)
        engine = ServingEngine(clf, num_workers=1)
        server = GatewayServer(
            engine, rate_limit=1.0, burst=2.0
        ).start()
        words = clf.encoder.encode_packed(task.test_x[:2]).words
        rejected = []
        try:
            with GatewayClient("127.0.0.1", server.port) as client:
                for _ in range(6):
                    try:
                        client.predict(words)
                    except GatewayRejected as exc:
                        rejected.append(exc.code)
            assert rejected, "expected the 2-token burst to exhaust"
            assert set(rejected) == {RejectCode.RATE_LIMITED}
            assert (
                server.admission.shed[RejectCode.RATE_LIMITED]
                == len(rejected)
            )
        finally:
            server.stop()
            engine.stop()

    def test_overload_sheds_when_inflight_cap_hit(self):
        task, clf = _fitted(57)
        # Tiny in-flight cap + async pipelining = guaranteed overlap.
        engine = ServingEngine(clf, num_workers=1, ring_slots=2)
        server = GatewayServer(engine, max_inflight=1).start()
        words = clf.encoder.encode_packed(task.test_x[:4]).words

        async def flood():
            client = await AsyncGatewayClient.connect(
                "127.0.0.1", server.port
            )
            outcomes = await asyncio.gather(
                *[client.predict(words) for _ in range(30)],
                return_exceptions=True,
            )
            await client.close()
            return outcomes

        try:
            outcomes = asyncio.run(flood())
            served = [o for o in outcomes if isinstance(o, np.ndarray)]
            shed = [o for o in outcomes if isinstance(o, GatewayRejected)]
            assert served, "some requests must get through"
            for got in served:
                np.testing.assert_array_equal(
                    got, clf.predict(task.test_x[:4])
                )
            assert shed, "the in-flight cap must shed under pipelining"
            assert {exc.code for exc in shed} == {RejectCode.OVERLOADED}
            assert (
                server.admission.shed[RejectCode.OVERLOADED] == len(shed)
            )
        finally:
            server.stop()
            engine.stop()

    def test_draining_gateway_sheds_shutting_down(self):
        task, clf = _fitted(58)
        engine = ServingEngine(clf, num_workers=1)
        server = GatewayServer(engine).start()
        words = clf.encoder.encode_packed(task.test_x[:2]).words
        try:
            with GatewayClient("127.0.0.1", server.port) as client:
                client.predict(words)
                server.admission.drain()
                with pytest.raises(GatewayRejected) as info:
                    client.predict(words)
            assert info.value.code == RejectCode.SHUTTING_DOWN
        finally:
            server.stop()
            engine.stop()


class TestCrashUnderGateway:
    def test_sigkilled_worker_requests_redispatch_through_gateway(self):
        """SIGKILL one worker mid-flight; the gateway still answers.

        The engine re-routes the dead worker's unserved ring entries to
        the survivor, so every admitted gateway request resolves with
        correct predictions — no client ever hangs.
        """
        task, clf = _fitted(59)
        engine = ServingEngine(clf, num_workers=2, ring_slots=64)
        server = GatewayServer(engine).start()
        words = clf.encoder.encode_packed(task.test_x[:4]).words
        expected = clf.predict(task.test_x[:4])
        prefix = engine.config.prefix

        async def drive():
            client = await AsyncGatewayClient.connect(
                "127.0.0.1", server.port
            )
            # Killing after the submits are in flight: some land on the
            # doomed worker and must be re-dispatched.
            first = asyncio.gather(
                *[client.predict(words) for _ in range(24)]
            )
            os.kill(engine.workers[0].pid, signal.SIGKILL)
            results = list(await first)
            # The gateway keeps serving on the survivor afterwards.
            results.extend(await asyncio.gather(
                *[client.predict(words) for _ in range(8)]
            ))
            await client.close()
            return results

        try:
            results = drive_results = asyncio.run(drive())
            assert len(drive_results) == 32
            for got in results:
                np.testing.assert_array_equal(got, expected)
        finally:
            server.stop()
            engine.stop()
        assert glob.glob(f"/dev/shm/{prefix}*") == []


class TestGatewayLifecycle:
    def test_engine_holds_nothing_after_gateway_traffic(self):
        """Gateway replies ride done callbacks; once a few hundred TCP
        requests are answered the engine keeps no state for any of
        them."""
        task, clf = _fitted(62)
        engine = ServingEngine(clf, num_workers=1, ring_slots=64)
        server = GatewayServer(engine).start()
        words = clf.encoder.encode_packed(task.test_x[:4]).words
        expected = clf.predict(task.test_x[:4])

        async def drive():
            client = await AsyncGatewayClient.connect(
                "127.0.0.1", server.port
            )
            results = []
            for _ in range(5):
                results.extend(await asyncio.gather(
                    *[client.predict(words) for _ in range(60)]
                ))
            await client.close()
            return results

        try:
            results = asyncio.run(drive())
            assert len(results) == 300
            for got in results:
                np.testing.assert_array_equal(got, expected)
            assert server.admission.inflight == 0
            assert engine.in_flight == 0
            with engine._lock:
                assert engine._pending == {}
                assert engine._frames == {}
        finally:
            server.stop()
            engine.stop()

    def test_stop_is_idempotent(self):
        task, clf = _fitted(61)
        engine = ServingEngine(clf, num_workers=1)
        server = GatewayServer(engine).start()
        server.stop()
        server.stop()
        engine.stop()

    def test_port_zero_picks_free_port(self, stack):
        assert stack["server"].port > 0


class TestBatchedSubmit:
    def test_sync_batch_both_tenants_match_references(self, stack):
        server = stack["server"]
        with GatewayClient("127.0.0.1", server.port) as client:
            for name in ("alpha", "beta"):
                task, clf = stack[name]
                words = clf.encoder.encode_packed(task.test_x[:6]).words
                expected = clf.predict(task.test_x[:6])
                results = client.submit_batch(
                    [words, words[:3], words], tenant=name
                )
                assert len(results) == 3
                np.testing.assert_array_equal(results[0], expected)
                np.testing.assert_array_equal(results[1], expected[:3])
                np.testing.assert_array_equal(results[2], expected)

    def test_sync_batch_features(self, stack):
        server = stack["server"]
        task, clf = stack["alpha"]
        expected = clf.predict(task.test_x[:4])
        with GatewayClient("127.0.0.1", server.port) as client:
            results = client.submit_batch(
                [task.test_x[:4], task.test_x[:2]],
                tenant="alpha", features=True,
            )
        np.testing.assert_array_equal(results[0], expected)
        np.testing.assert_array_equal(results[1], expected[:2])

    def test_async_batch_over_credited_connection(self, stack):
        server = stack["server"]
        task, clf = stack["beta"]
        words = clf.encoder.encode_packed(task.test_x[:8]).words
        expected = clf.predict(task.test_x[:8])

        async def go():
            client = await AsyncGatewayClient.connect(
                "127.0.0.1", server.port, credited=True
            )
            try:
                assert client.credited
                assert client.window > 0
                batches = await asyncio.gather(*[
                    client.submit_batch(
                        [words] * 4, tenant="beta"
                    )
                    for _ in range(5)
                ])
                return batches
            finally:
                await client.close()

        for batch in asyncio.run(go()):
            assert len(batch) == 4
            for got in batch:
                np.testing.assert_array_equal(got, expected)

    def test_batch_merges_past_engine_query_cap(self, stack):
        """More total rows than max_queries_per_request still serves:
        the gateway splits the batch into capped merged runs."""
        server = stack["server"]
        engine = stack["engine"]
        task, clf = stack["alpha"]
        words = clf.encoder.encode_packed(task.test_x[:8]).words
        expected = clf.predict(task.test_x[:8])
        count = (engine.max_queries_per_request // words.shape[0]) + 3
        with GatewayClient("127.0.0.1", server.port) as client:
            results = client.submit_batch(
                [words] * count, tenant="alpha"
            )
        assert len(results) == count
        for got in results:
            np.testing.assert_array_equal(got, expected)

    def test_batch_unknown_tenant_rejects_every_entry(self, stack):
        server = stack["server"]
        task, clf = stack["alpha"]
        words = clf.encoder.encode_packed(task.test_x[:2]).words
        with GatewayClient("127.0.0.1", server.port) as client:
            outcomes = client.submit_batch(
                [words, words], tenant="ghost", return_exceptions=True
            )
        assert len(outcomes) == 2
        for exc in outcomes:
            assert isinstance(exc, GatewayRejected)
            assert exc.code == RejectCode.UNKNOWN_TENANT

    def test_batch_raises_first_failure_without_flag(self, stack):
        server = stack["server"]
        task, clf = stack["alpha"]
        words = clf.encoder.encode_packed(task.test_x[:2]).words
        with GatewayClient("127.0.0.1", server.port) as client:
            with pytest.raises(GatewayRejected) as excinfo:
                client.submit_batch([words], tenant="ghost")
        assert excinfo.value.code == RejectCode.UNKNOWN_TENANT


class TestCreditBackpressure:
    def test_flooding_credited_client_paused_not_shed(self):
        task, clf = _fitted(58)
        engine = ServingEngine(clf, num_workers=1, ring_slots=4)
        server = GatewayServer(
            engine, max_inflight=2, connection_window=2
        ).start()
        words = clf.encoder.encode_packed(task.test_x[:4]).words
        expected = clf.predict(task.test_x[:4])

        async def flood():
            client = await AsyncGatewayClient.connect(
                "127.0.0.1", server.port, credited=True
            )
            try:
                assert client.window == 2
                results = await asyncio.gather(*[
                    client.predict(words) for _ in range(30)
                ])
                return results, client.credit_waits
            finally:
                await client.close()

        try:
            results, waits = asyncio.run(flood())
            assert len(results) == 30
            for got in results:
                np.testing.assert_array_equal(got, expected)
            assert waits > 0, "flood never blocked on credits"
            assert server.admission.shed_total == 0, \
                "credit-respecting client must be paused, never shed"
        finally:
            server.stop()
            engine.stop()

    def test_window_overrun_gets_typed_reject_and_refund(self):
        """A cooperative connection that ignores its window gets a
        typed OVERLOADED reject plus a CREDIT refund — the connection
        survives and well-behaved traffic still flows."""
        from repro.serve.protocol import (
            FLAG_CREDIT,
            Frame,
            FrameDecoder,
            FrameKind,
            decode_credit,
            decode_reject,
            encode_frame,
            encode_submit_batch,
        )

        task, clf = _fitted(59)
        engine = ServingEngine(clf, num_workers=1, ring_slots=4)
        server = GatewayServer(
            engine, max_inflight=2, connection_window=2
        ).start()
        words = clf.encoder.encode_packed(task.test_x[:2]).words

        async def overrun():
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            decoder = FrameDecoder()

            async def read_frames(n):
                frames = []
                while len(frames) < n:
                    frames.extend(decoder.feed(await reader.read(1 << 16)))
                return frames

            try:
                writer.write(encode_frame(Frame(
                    FrameKind.PING, trace_id=1, flags=FLAG_CREDIT
                )))
                await writer.drain()
                credit, pong = await read_frames(2)
                assert credit.kind == FrameKind.CREDIT
                window = decode_credit(credit.payload)
                assert pong.kind == FrameKind.PONG

                # Deliberately overrun: one batch bigger than the window.
                writer.write(encode_frame(Frame(
                    FrameKind.SUBMIT_BATCH,
                    trace_id=2,
                    payload=encode_submit_batch([words] * (window + 3)),
                )))
                await writer.drain()
                refund, reject = await read_frames(2)
                assert refund.kind == FrameKind.CREDIT
                assert decode_credit(refund.payload) == window + 3
                assert reject.kind == FrameKind.REJECT
                code, _, _ = decode_reject(reject.payload)
                assert code == int(RejectCode.OVERLOADED)

                # The connection is still serviceable afterwards.
                writer.write(encode_frame(Frame(
                    FrameKind.SUBMIT_BATCH,
                    trace_id=3,
                    payload=encode_submit_batch([words]),
                )))
                await writer.drain()
                frames = await read_frames(2)
                kinds = [f.kind for f in frames]
                assert FrameKind.RESPONSE_BATCH in kinds
            finally:
                writer.close()

        try:
            asyncio.run(overrun())
        finally:
            server.stop()
            engine.stop()

    def test_rate_limited_reject_carries_retry_hint(self):
        task, clf = _fitted(60)
        engine = ServingEngine(clf, num_workers=1)
        server = GatewayServer(engine, rate_limit=2.0, burst=1.0).start()
        words = clf.encoder.encode_packed(task.test_x[:2]).words
        try:
            with GatewayClient("127.0.0.1", server.port) as client:
                hint = None
                for _ in range(4):
                    try:
                        client.predict(words)
                    except GatewayRejected as exc:
                        assert exc.code == RejectCode.RATE_LIMITED
                        hint = exc.retry_after_ms
                        break
                assert hint is not None, "bucket never exhausted"
                # 2 tokens/s refill => next token within ~500 ms.
                assert 0 < hint <= 600
                assert "retry after" in str(
                    GatewayRejected(int(RejectCode.RATE_LIMITED),
                                    "x", retry_after_ms=hint)
                )
        finally:
            server.stop()
            engine.stop()


class TestAdmissionBatchOps:
    def test_admit_many_mixed_outcomes(self):
        ctrl = AdmissionController(["a"], max_inflight=2, rate_limit=None)
        codes = ctrl.admit_many("a", 4)
        assert codes[:2] == [None, None]
        assert codes[2:] == [RejectCode.OVERLOADED] * 2
        assert ctrl.inflight == 2
        ctrl.release(count=2)
        assert ctrl.inflight == 0
        assert ctrl.admit_many("ghost", 3) == \
            [RejectCode.UNKNOWN_TENANT] * 3

    def test_reserve_window_carves_admission_budget(self):
        ctrl = AdmissionController(["a"], max_inflight=4, rate_limit=None)
        granted = ctrl.reserve_window(3)
        assert granted == 3
        # Non-reserved traffic sees only the remaining budget.
        codes = ctrl.admit_many("a", 2)
        assert codes == [None, RejectCode.OVERLOADED]
        ctrl.release()
        # Reserved admissions are window-bounded by the gateway, not
        # by the shared cap.
        assert ctrl.admit_many("a", 3, reserved=True) == [None] * 3
        ctrl.release(reserved=True, count=3)
        ctrl.release_window(3)
        assert ctrl.reserve_window(99) == 4


class TestHttpIngress:
    @pytest.fixture(scope="class")
    def http_stack(self, stack):
        server = GatewayServer(
            stack["engine"], http_port=0
        ).start()
        yield {**stack, "server": server}
        server.stop()

    def _request(self, port, method, path, body=None):
        import http.client
        import json as _json

        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        try:
            conn.request(
                method, path,
                body=_json.dumps(body) if body is not None else None,
            )
            resp = conn.getresponse()
            payload = _json.loads(resp.read() or b"null")
            return resp.status, payload, dict(resp.getheaders())
        finally:
            conn.close()

    def test_predict_from_packed_words_and_features(self, http_stack):
        port = http_stack["server"].http_port
        task, clf = http_stack["alpha"]
        words = clf.encoder.encode_packed(task.test_x[:4]).words
        expected = clf.predict(task.test_x[:4]).tolist()
        status, payload, _ = self._request(
            port, "POST", "/v1/predict",
            {"tenant": "alpha", "packed": words.tolist()},
        )
        assert status == 200
        assert payload["predictions"] == expected
        status, payload, _ = self._request(
            port, "POST", "/v1/predict",
            {"tenant": "alpha", "features": task.test_x[:4].tolist()},
        )
        assert status == 200
        assert payload["predictions"] == expected

    def test_healthz(self, http_stack):
        port = http_stack["server"].http_port
        status, payload, _ = self._request(port, "GET", "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert set(payload["tenants"]) == {"alpha", "beta"}

    def test_unknown_tenant_is_404(self, http_stack):
        port = http_stack["server"].http_port
        status, payload, _ = self._request(
            port, "POST", "/v1/predict",
            {"tenant": "ghost", "packed": [[1, 2]]},
        )
        assert status == 404
        assert payload["error"] == "UNKNOWN_TENANT"

    def test_bad_body_is_400(self, http_stack):
        port = http_stack["server"].http_port
        status, payload, _ = self._request(
            port, "POST", "/v1/predict", {"tenant": "alpha"}
        )
        assert status == 400
        status, payload, _ = self._request(
            port, "POST", "/v1/predict",
            {"tenant": "alpha", "packed": [[1]], "features": [[1.0]]},
        )
        assert status == 400

    def test_unknown_route_is_404_and_wrong_method_405(self, http_stack):
        port = http_stack["server"].http_port
        status, _, _ = self._request(port, "GET", "/nope")
        assert status == 404
        status, _, _ = self._request(port, "GET", "/v1/predict")
        assert status == 405

    def test_rate_limited_is_429_with_retry_after(self, stack):
        server = GatewayServer(
            stack["engine"], rate_limit=1.0, burst=1.0, http_port=0
        ).start()
        task, clf = stack["alpha"]
        words = clf.encoder.encode_packed(task.test_x[:2]).words
        try:
            saw_429 = None
            for _ in range(4):
                status, payload, headers = self._request(
                    server.http_port, "POST", "/v1/predict",
                    {"tenant": "alpha", "packed": words.tolist()},
                )
                if status == 429:
                    saw_429 = (payload, headers)
                    break
            assert saw_429 is not None, "burst of 1 never throttled"
            payload, headers = saw_429
            assert payload["error"] == "RATE_LIMITED"
            assert payload["retry_after_ms"] > 0
            assert int(headers["Retry-After"]) >= 1
        finally:
            server.stop()
