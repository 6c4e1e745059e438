"""HTTP ingress error grades and cancellation-path regression tests.

Covers the full ``/v1/predict`` status ladder (400 / 429 / 503 / 504),
keep-alive reuse across mixed outcomes, and the aborting-client path:
the admission slot must be released exactly once and no "Future
exception was never retrieved" warning may escape the handler.
"""

import asyncio
import gc
import http.client
import json
import logging
import socket
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.encoder import Encoder
from repro.core.model import HDCClassifier
from repro.datasets.synthetic import make_prototype_classification
from repro.serve import ServingEngine, TenantRegistry
from repro.serve.gateway import GatewayServer
from repro.serve.http import _predict


def _fitted(seed, num_features=10, dim=512):
    task = make_prototype_classification(
        f"http{seed}", num_features=num_features, num_classes=4,
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
    task, clf = _fitted(51)
    registry = TenantRegistry()
    registry.add("alpha", clf)
    engine = ServingEngine(registry, num_workers=2, ring_slots=32)
    server = GatewayServer(engine, http_port=0).start()
    yield {"engine": engine, "server": server, "task": task, "clf": clf}
    server.stop()
    engine.stop()


def _request(port, method, path, body=None, conn=None):
    """One request; returns (status, payload, headers, connection)."""
    owned = conn is None
    if conn is None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request(
            method, path,
            body=json.dumps(body) if body is not None else None,
        )
        resp = conn.getresponse()
        payload = json.loads(resp.read() or b"null")
        return resp.status, payload, dict(resp.getheaders()), conn
    finally:
        if owned:
            conn.close()


class TestErrorGrades:
    def test_malformed_json_is_400(self, stack):
        port = stack["server"].http_port
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        try:
            conn.request("POST", "/v1/predict", body=b"{not json")
            resp = conn.getresponse()
            payload = json.loads(resp.read())
            assert resp.status == 400
            assert "not valid JSON" in payload["error"]
        finally:
            conn.close()

    def test_non_object_body_is_400(self, stack):
        port = stack["server"].http_port
        status, payload, _, _ = _request(
            port, "POST", "/v1/predict", [1, 2, 3]
        )
        assert status == 400
        assert "JSON object" in payload["error"]

    def test_empty_payload_rows_are_400(self, stack):
        port = stack["server"].http_port
        status, payload, _, _ = _request(
            port, "POST", "/v1/predict", {"tenant": "alpha", "packed": []}
        )
        assert status == 400

    def test_rate_limited_is_429_with_retry_after(self, stack):
        server = GatewayServer(
            stack["engine"], rate_limit=1.0, burst=1.0, http_port=0
        ).start()
        task, clf = stack["task"], stack["clf"]
        words = clf.encoder.encode_packed(task.test_x[:2]).words
        try:
            saw = None
            for _ in range(4):
                status, payload, headers, _ = _request(
                    server.http_port, "POST", "/v1/predict",
                    {"tenant": "alpha", "packed": words.tolist()},
                )
                if status == 429:
                    saw = (payload, headers)
                    break
            assert saw is not None, "burst of 1 never throttled"
            payload, headers = saw
            assert payload["error"] == "RATE_LIMITED"
            assert 0 < payload["retry_after_ms"] <= 1100
            assert int(headers["Retry-After"]) >= 1
        finally:
            server.stop()

    def test_draining_gateway_is_503(self, stack):
        server = GatewayServer(stack["engine"], http_port=0).start()
        task, clf = stack["task"], stack["clf"]
        words = clf.encoder.encode_packed(task.test_x[:2]).words
        try:
            server.admission.drain()
            status, payload, _, _ = _request(
                server.http_port, "POST", "/v1/predict",
                {"tenant": "alpha", "packed": words.tolist()},
            )
            assert status == 503
            assert payload["error"] == "SHUTTING_DOWN"
            status, payload, _, _ = _request(
                server.http_port, "GET", "/healthz"
            )
            assert status == 200
            assert payload["status"] == "draining"
        finally:
            server.stop()

    def test_expired_deadline_is_504(self, stack):
        port = stack["server"].http_port
        task, clf = stack["task"], stack["clf"]
        words = clf.encoder.encode_packed(task.test_x[:2]).words
        status, payload, _, _ = _request(
            port, "POST", "/v1/predict",
            {"tenant": "alpha", "packed": words.tolist(),
             "deadline_ms": 1e-6},
        )
        assert status == 504
        assert payload["error"] == "EXPIRED"
        assert stack["server"].admission.inflight == 0

    @pytest.mark.parametrize(
        "deadline_ms", ["Infinity", "NaN", "1e400", "-Infinity"]
    )
    def test_non_finite_deadline_is_400(self, stack, deadline_ms):
        """``1e400`` is valid JSON that parses to inf; an infinite
        deadline used to overflow past the handler and hold its
        admission token for good."""
        port = stack["server"].http_port
        task, clf = stack["task"], stack["clf"]
        words = clf.encoder.encode_packed(task.test_x[:2]).words
        body = '{"tenant": "alpha", "packed": %s, "deadline_ms": %s}' % (
            json.dumps(words.tolist()), deadline_ms
        )
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        try:
            conn.request("POST", "/v1/predict", body=body)
            resp = conn.getresponse()
            payload = json.loads(resp.read())
        finally:
            conn.close()
        assert resp.status == 400
        assert "deadline" in payload["error"]
        assert stack["server"].admission.inflight == 0
        assert stack["engine"].in_flight == 0

    def test_negative_content_length_is_400(self, stack):
        sock = socket.create_connection(
            ("127.0.0.1", stack["server"].http_port), timeout=5
        )
        try:
            sock.sendall(
                b"POST /v1/predict HTTP/1.1\r\nContent-Length: -1\r\n\r\n"
            )
            response = b""
            while chunk := sock.recv(4096):
                response += chunk
        finally:
            sock.close()
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert json.loads(body) == {"error": "content-length -1 is negative"}


class TestKeepAlive:
    def test_connection_survives_mixed_outcomes(self, stack):
        """One keep-alive connection rides 200 / 400 / 504 / 200."""
        port = stack["server"].http_port
        task, clf = stack["task"], stack["clf"]
        words = clf.encoder.encode_packed(task.test_x[:4]).words
        expected = clf.predict(task.test_x[:4]).tolist()
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        try:
            status, payload, headers, _ = _request(
                port, "POST", "/v1/predict",
                {"tenant": "alpha", "packed": words.tolist()}, conn=conn,
            )
            assert status == 200
            assert payload["predictions"] == expected
            assert headers["Connection"] == "keep-alive"
            sock = conn.sock
            assert sock is not None

            status, _, headers, _ = _request(
                port, "POST", "/v1/predict", {"tenant": "alpha"}, conn=conn,
            )
            assert status == 400
            assert headers["Connection"] == "keep-alive"

            status, _, _, _ = _request(
                port, "POST", "/v1/predict",
                {"tenant": "alpha", "packed": words.tolist(),
                 "deadline_ms": 1e-6},
                conn=conn,
            )
            assert status == 504

            status, payload, _, _ = _request(
                port, "POST", "/v1/predict",
                {"tenant": "alpha", "packed": words.tolist()}, conn=conn,
            )
            assert status == 200
            assert payload["predictions"] == expected
            # Same socket end to end: errors did not cost the connection.
            assert conn.sock is sock
        finally:
            conn.close()

    def test_connection_close_honoured(self, stack):
        port = stack["server"].http_port
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        try:
            conn.request("GET", "/healthz",
                         headers={"Connection": "close"})
            resp = conn.getresponse()
            assert resp.status == 200
            assert dict(resp.getheaders())["Connection"] == "close"
            resp.read()
            assert resp.isclosed()
        finally:
            conn.close()


class TestAbortingClient:
    def _drain_inflight(self, admission, timeout=5.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if admission.inflight == 0:
                return True
            time.sleep(0.01)
        return False

    def test_abort_mid_request_releases_admission(self, stack, caplog):
        """Client slams the socket shut after POSTing: the slot drains
        back to zero and asyncio logs no unretrieved-future error."""
        server, (task, clf) = stack["server"], (stack["task"], stack["clf"])
        words = clf.encoder.encode_packed(task.test_x[:4]).words
        body = json.dumps(
            {"tenant": "alpha", "packed": words.tolist()}
        ).encode()
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            for _ in range(4):
                sock = socket.create_connection(
                    ("127.0.0.1", server.http_port), timeout=5
                )
                sock.sendall(
                    b"POST /v1/predict HTTP/1.1\r\n"
                    b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
                )
                # Abort without ever reading the response.
                sock.setsockopt(
                    socket.SOL_SOCKET, socket.SO_LINGER,
                    b"\x01\x00\x00\x00\x00\x00\x00\x00",
                )
                sock.close()
            assert self._drain_inflight(server.admission)
            # A well-behaved request still works afterwards.
            status, payload, _, _ = _request(
                server.http_port, "POST", "/v1/predict",
                {"tenant": "alpha", "packed": words.tolist()},
            )
            assert status == 200
            gc.collect()
        assert not [
            r for r in caplog.records if "never retrieved" in r.getMessage()
        ]

    def test_stop_unwinds_parked_keepalive_handler(self, stack):
        """stop() must cancel HTTP handlers parked in readline, not
        leave them for the loop's final blanket cancel."""
        server = GatewayServer(stack["engine"], http_port=0).start()
        task, clf = stack["task"], stack["clf"]
        words = clf.encoder.encode_packed(task.test_x[:2]).words
        conn = http.client.HTTPConnection(
            "127.0.0.1", server.http_port, timeout=10
        )
        try:
            status, _, _, _ = _request(
                server.http_port, "POST", "/v1/predict",
                {"tenant": "alpha", "packed": words.tolist()}, conn=conn,
            )
            assert status == 200
            # The handler is now parked in readline on a live socket.
            start = time.monotonic()
            server.stop()
            assert time.monotonic() - start < 5.0
            assert server.admission.inflight == 0
            # The parked connection was unwound: reads see EOF.
            conn.sock.settimeout(5)
            assert conn.sock.recv(1) == b""
        finally:
            conn.close()


class TestPredictCancellationUnit:
    """Direct exercise of ``_predict``'s cancellation invariant, through
    a fake admission controller and engine behind the gateway's one
    request path."""

    def _gateway(self):
        admission = SimpleNamespace(draining=False)
        admission.released = 0
        admission.admit = lambda tenant: None

        def _release(*, reserved=False, count=1):
            assert not reserved
            admission.released += count

        admission.release = _release
        engine = SimpleNamespace(tenants=("alpha",), callbacks=[])

        def _submit(request):
            return SimpleNamespace(
                add_done_callback=engine.callbacks.append
            )

        engine.submit = _submit
        return SimpleNamespace(admission=admission, engine=engine)

    def test_cancel_mid_waiter_releases_slot_exactly_once(self):
        gateway = self._gateway()
        matrix = np.zeros((1, 8), dtype=np.uint64)

        async def scenario():
            handler = asyncio.ensure_future(
                _predict(gateway, matrix, False, "alpha", None)
            )
            await asyncio.sleep(0)  # submit, then park on the waiter
            assert len(gateway.engine.callbacks) == 1
            assert gateway.admission.released == 0
            handler.cancel()
            with pytest.raises(asyncio.CancelledError):
                await handler
            # The cancelled handler must NOT have released: the engine
            # still owns the request and releases via its callback.
            assert gateway.admission.released == 0
            result = SimpleNamespace(predictions=None, expired=True)
            gateway.engine.callbacks[0](result)
            await asyncio.sleep(0)  # run the scheduled _settle
            await asyncio.sleep(0)
            assert gateway.admission.released == 1

        asyncio.run(scenario())
        # A late result against the cancelled waiter is a set_result
        # no-op, never a stored exception -- nothing for the GC pass to
        # complain about.
        gc.collect()

    def test_late_result_after_cancel_settles_quietly(self):
        gateway = self._gateway()
        matrix = np.zeros((1, 8), dtype=np.uint64)
        flagged = []

        async def scenario():
            loop = asyncio.get_running_loop()
            loop.set_exception_handler(
                lambda lp, ctx: flagged.append(ctx)
            )
            handler = asyncio.ensure_future(
                _predict(gateway, matrix, False, "alpha", None)
            )
            await asyncio.sleep(0)
            handler.cancel()
            with pytest.raises(asyncio.CancelledError):
                await handler
            gateway.engine.callbacks[0](
                SimpleNamespace(predictions=np.array([1]), expired=False)
            )
            await asyncio.sleep(0)
            await asyncio.sleep(0)
            gc.collect()

        asyncio.run(scenario())
        gc.collect()
        assert flagged == []
        assert gateway.admission.released == 1
