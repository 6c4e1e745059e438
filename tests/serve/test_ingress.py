"""One outcome table for every gateway ingress.

A TCP single frame (on a plain and on a credited connection), a TCP
SUBMIT_BATCH frame (plain and credited) and an HTTP ``/v1/predict`` are
each driven through the same seven outcomes, and the exact reply is
asserted: frame kind, tenant, trace id, code, detail, retry hint and
CREDIT grants on TCP; status, JSON body and ``Retry-After`` on HTTP.
After every case the gateway holds no admission token and the engine no
in-flight request.  A NaN or ±inf feature row on each ingress is refused
the same typed way, and no worker dies of it.
"""

import asyncio
import http.client
import json

import numpy as np
import pytest

from repro.core.encoder import Encoder
from repro.core.model import HDCClassifier
from repro.datasets.synthetic import make_prototype_classification
from repro.serve import (
    GatewayClient,
    ServeRequest,
    ServingEngine,
    TenantRegistry,
)
from repro.serve.client import GatewayError, GatewayRejected
from repro.serve.engine import Backpressure
from repro.serve.gateway import GatewayServer
from repro.serve.protocol import (
    BATCH_REJECT_BASE,
    FLAG_CREDIT,
    ErrorCode,
    Frame,
    FrameDecoder,
    FrameKind,
    RejectCode,
    decode_credit,
    decode_predictions,
    decode_reject,
    decode_response_batch,
    decode_status,
    encode_array,
    encode_frame,
    encode_submit_batch,
)

EXPIRED_DETAIL = "deadline passed before the engine served the request"
RING_SLOTS = 4
BACKPRESSURE_TIMEOUT = 0.05
BATCH_ENTRIES = 2

INGRESSES = ["tcp_single", "tcp_single_credited", "tcp_batch",
             "tcp_batch_credited", "http"]
OUTCOMES = ["served", "shape_mismatch", "deadline_passed", "unknown_tenant",
            "draining", "engine_stopped", "backpressure"]


def _engine(clf, **kwargs):
    registry = TenantRegistry()
    registry.add("alpha", clf)
    return ServingEngine(registry, num_workers=1, ring_slots=RING_SLOTS,
                         **kwargs)


@pytest.fixture(scope="module")
def world():
    task = make_prototype_classification(
        "ingress", num_features=10, num_classes=4, num_train=120,
        num_test=16, seed=71,
    )
    encoder = Encoder(num_features=10, dim=512, levels=8, seed=72)
    clf = HDCClassifier(encoder, num_classes=4, epochs=1, seed=73).fit(
        task.train_x, task.train_y
    )
    words = clf.encoder.encode_packed(task.test_x[:4]).words
    live = _engine(clf)
    stopped = _engine(clf)
    throttled = _engine(clf, backpressure_timeout=BACKPRESSURE_TIMEOUT)
    yield {
        "clf": clf,
        "features": task.test_x[:4],
        "words": words,
        "expected": clf.predict(task.test_x[:4]),
        "live": live,
        "stopped": stopped,
        "throttled": throttled,
    }
    for engine in (live, stopped, throttled):
        engine.stop()


# -- request: what each outcome sends ----------------------------------


def _request(outcome, words):
    """(tenant, payload rows, deadline seconds) for one outcome."""
    if outcome == "shape_mismatch":
        return "alpha", words[:, :-1], None
    if outcome == "deadline_passed":
        return "alpha", words, 1e-9
    if outcome == "unknown_tenant":
        return "ghost", words, None
    return "alpha", words, None


def _batch_payloads(words):
    return [words, words[:2]]


async def _tcp_exchange(port, credited, request):
    """Send one request frame; return (window, frames up to the reply)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    decoder = FrameDecoder()
    pending: list = []

    async def next_frame():
        while not pending:
            data = await reader.read(1 << 16)
            assert data, "gateway closed the connection"
            pending.extend(decoder.feed(data))
        return pending.pop(0)

    try:
        window = 0
        if credited:
            writer.write(encode_frame(Frame(
                FrameKind.PING, trace_id=1, flags=FLAG_CREDIT
            )))
            await writer.drain()
            grant = await next_frame()
            assert grant.kind == FrameKind.CREDIT
            window = decode_credit(grant.payload)
            assert window > 0
            assert (await next_frame()).kind == FrameKind.PONG
        writer.write(request)
        await writer.drain()
        frames = [await next_frame()]
        while frames[-1].kind == FrameKind.CREDIT:
            frames.append(await next_frame())
        return window, frames
    finally:
        writer.close()


def _tcp_single(port, credited, tenant, payload, deadline):
    request = encode_frame(Frame(
        FrameKind.PACKED, tenant=tenant, trace_id=41,
        deadline_ns=int(deadline * 1e9) if deadline else 0,
        payload=encode_array(FrameKind.PACKED, payload),
    ))
    return asyncio.run(_tcp_exchange(port, credited, request))


def _tcp_batch(port, credited, tenant, payload, deadline):
    request = encode_frame(Frame(
        FrameKind.SUBMIT_BATCH, tenant=tenant, trace_id=42,
        deadline_ns=int(deadline * 1e9) if deadline else 0,
        payload=encode_submit_batch(
            _batch_payloads(payload), trace_ids=[7, 9]
        ),
    ))
    return asyncio.run(_tcp_exchange(port, credited, request))


def _http(port, tenant, payload, deadline):
    body = {"tenant": tenant, "packed": payload.tolist()}
    if deadline is not None:
        body["deadline_ms"] = deadline * 1e3
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request("POST", "/v1/predict", body=json.dumps(body))
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read()), dict(resp.getheaders())
    finally:
        conn.close()


# -- expected replies -----------------------------------------------------


def _shape_detail(words):
    return (f"expected (n, {words.shape[1]}) query words, "
            f"got {words[:, :-1].shape}")


def _status(outcome, words):
    """(batch status, detail) the outcome's single-entry reply carries."""
    return {
        "served": (0, ""),
        "shape_mismatch": (int(ErrorCode.BAD_REQUEST), _shape_detail(words)),
        "deadline_passed": (int(ErrorCode.EXPIRED), EXPIRED_DETAIL),
        "unknown_tenant": (BATCH_REJECT_BASE + RejectCode.UNKNOWN_TENANT,
                           "UNKNOWN_TENANT"),
        "draining": (BATCH_REJECT_BASE + RejectCode.SHUTTING_DOWN,
                     "SHUTTING_DOWN"),
        "engine_stopped": (BATCH_REJECT_BASE + RejectCode.SHUTTING_DOWN,
                           "engine is stopped"),
        "backpressure": (
            BATCH_REJECT_BASE + RejectCode.OVERLOADED,
            f"no free request slot within {BACKPRESSURE_TIMEOUT}s "
            f"({RING_SLOTS} in flight)",
        ),
    }[outcome]


_HTTP_EXPECTED = {
    "unknown_tenant": (404, {"error": "UNKNOWN_TENANT"}),
    "draining": (503, {"error": "SHUTTING_DOWN"}),
    "engine_stopped": (503, {"error": "SHUTTING_DOWN"}),
    "backpressure": (503, {"error": "OVERLOADED"}),
}


def _check_credits(frames, credited, window, entries):
    if credited:
        assert len(frames) == 2
        assert decode_credit(frames[0].payload) == entries
        assert entries <= window
    else:
        assert len(frames) == 1


def _check_single(frames, outcome, world, tenant):
    words, expected = world["words"], world["expected"]
    reply = frames[-1]
    assert reply.tenant == tenant
    assert reply.trace_id == 41
    status, detail = _status(outcome, words)
    if status == 0:
        assert reply.kind == FrameKind.RESPONSE
        np.testing.assert_array_equal(
            decode_predictions(reply.payload), expected
        )
    elif status >= BATCH_REJECT_BASE:
        assert reply.kind == FrameKind.REJECT
        assert decode_reject(reply.payload) == (
            status - BATCH_REJECT_BASE, detail, None
        )
    else:
        assert reply.kind == FrameKind.ERROR
        assert decode_status(reply.payload) == (status, detail)


def _check_batch(frames, outcome, world, tenant):
    words, expected = world["words"], world["expected"]
    reply = frames[-1]
    assert reply.kind == FrameKind.RESPONSE_BATCH
    assert reply.tenant == tenant
    assert reply.trace_id == 42
    batch = decode_response_batch(reply.payload)
    status, _ = _status(outcome, words)
    assert batch.trace_ids.tolist() == [7, 9]
    assert batch.statuses.tolist() == [status] * BATCH_ENTRIES
    if status == 0:
        np.testing.assert_array_equal(batch.predictions_for(0), expected)
        np.testing.assert_array_equal(
            batch.predictions_for(1), expected[:2]
        )
    else:
        assert batch.predictions.size == 0


def _check_http(reply, outcome, world):
    words, expected = world["words"], world["expected"]
    status, payload, headers = reply
    code, detail = _status(outcome, words)
    if code == 0:
        assert (status, payload) == (200, {"predictions": expected.tolist()})
    elif code == ErrorCode.BAD_REQUEST:
        assert (status, payload) == (400, {"error": detail})
    elif code == ErrorCode.EXPIRED:
        assert (status, payload) == (
            504, {"error": "EXPIRED", "detail": detail}
        )
    else:
        assert (status, payload) == _HTTP_EXPECTED[outcome]
    assert "Retry-After" not in headers
    assert headers["Content-Type"] == "application/json"


# -- the table ------------------------------------------------------------


@pytest.mark.parametrize("outcome", OUTCOMES)
@pytest.mark.parametrize("ingress", INGRESSES)
def test_ingress_outcome(world, ingress, outcome):
    engine = world[{"engine_stopped": "stopped",
                    "backpressure": "throttled"}.get(outcome, "live")]
    words = world["words"]
    tenant, payload, deadline = _request(outcome, words)
    server = GatewayServer(engine, http_port=0).start()
    blockers = []
    try:
        if outcome == "draining":
            server.admission.drain()
        elif outcome == "engine_stopped":
            engine.stop()
        elif outcome == "backpressure":
            # Fill the ring with requests that stay in the engine's
            # frame buffer: the gateway's submit finds no free slot.
            blockers = [
                engine.submit(ServeRequest(words), flush=False)
                for _ in range(RING_SLOTS)
            ]
        if ingress == "http":
            _check_http(
                _http(server.http_port, tenant, payload, deadline),
                outcome, world,
            )
        else:
            credited = ingress.endswith("_credited")
            single = ingress.startswith("tcp_single")
            send = _tcp_single if single else _tcp_batch
            window, frames = send(
                server.port, credited, tenant, payload, deadline
            )
            _check_credits(frames, credited, window,
                           1 if single else BATCH_ENTRIES)
            check = _check_single if single else _check_batch
            check(frames, outcome, world, tenant)
        assert server.admission.inflight == 0
    finally:
        if blockers:
            engine.flush()
            for future in blockers:
                assert future.result(timeout=30).ok
        server.stop()
    assert engine.in_flight == 0
    assert server.admission.inflight == 0


def test_typed_client_exceptions_match_the_table(world):
    """The typed client exceptions carry the table's codes and details."""
    engine = world["live"]
    words = world["words"]
    server = GatewayServer(engine).start()
    try:
        with GatewayClient("127.0.0.1", server.port) as client:
            with pytest.raises(GatewayError) as info:
                client.predict(words[:, :-1], tenant="alpha")
            assert info.value.code == ErrorCode.BAD_REQUEST
            assert _shape_detail(words) in str(info.value)
            with pytest.raises(GatewayError) as info:
                client.predict(words, tenant="alpha", deadline=1e-9)
            assert info.value.code == ErrorCode.EXPIRED
            outcomes = client.submit_batch(
                _batch_payloads(words), tenant="ghost",
                return_exceptions=True,
            )
            assert [exc.code for exc in outcomes] == \
                [RejectCode.UNKNOWN_TENANT] * BATCH_ENTRIES
            assert all(isinstance(exc, GatewayRejected) for exc in outcomes)
        assert server.admission.inflight == 0
    finally:
        server.stop()
    assert engine.in_flight == 0


# -- non-finite feature rows ----------------------------------------------


@pytest.fixture(scope="module")
def replicas(world):
    """Two replicas, so a poisoned frame re-routed after a worker death
    would reach (and kill) the second one too."""
    engine = ServingEngine(world["clf"], num_workers=2)
    server = GatewayServer(engine, http_port=0).start()
    yield engine, server
    server.stop()
    engine.stop()


def _features_http(port, rows):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request("POST", "/v1/predict",
                     body=json.dumps({"features": rows.tolist()}))
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("ingress", ["http", "tcp_single", "tcp_batch"])
def test_non_finite_features_are_bad_requests(world, replicas, ingress, bad):
    """A NaN or ±inf feature row is refused at submit with a typed
    BAD_REQUEST; no worker dies and the next request is served."""
    engine, server = replicas
    rows, expected = world["features"], world["expected"]
    poisoned = rows.copy()
    poisoned[1, 3] = bad
    detail = "non-finite value(s) (NaN/inf) at position(s) (1, 3)"
    if ingress == "http":
        status, payload = _features_http(server.http_port, poisoned)
        assert status == 400
        assert detail in payload["error"]
        status, payload = _features_http(server.http_port, rows)
        assert (status, payload) == (200, {"predictions": expected.tolist()})
    else:
        with GatewayClient("127.0.0.1", server.port, timeout=10) as client:
            if ingress == "tcp_single":
                with pytest.raises(GatewayError) as info:
                    client.predict(poisoned, features=True)
                error = info.value
                assert detail in str(error)
                served = client.predict(rows, features=True)
            else:
                # A batch reply carries per-entry codes, not details.
                error = client.submit_batch(
                    [rows[:1], poisoned], features=True,
                    return_exceptions=True,
                )[1]
                served = np.concatenate(client.submit_batch(
                    [rows[:1], rows[1:]], features=True,
                ))
            assert isinstance(error, GatewayError)
            assert error.code == ErrorCode.BAD_REQUEST
            np.testing.assert_array_equal(served, expected)
    assert engine.live_workers == 2
    assert engine.worker_errors == []
    assert server.admission.inflight == 0
    assert engine.in_flight == 0


@pytest.mark.parametrize("bad_entries", [(2,), (0,), (1,), (0, 2), (0, 1, 2)])
def test_bad_entries_refuse_only_themselves(world, replicas, bad_entries):
    """A SUBMIT_BATCH whose entries merge into one engine request, with
    NaN feature rows in some entries: every valid entry is served, and
    only the invalid ones answer BAD_REQUEST."""
    engine, server = replicas
    rows, expected = world["features"], world["expected"]
    poisoned = rows.copy()
    poisoned[1, 3] = float("nan")
    payloads = [rows[:2], rows[2:], rows]
    for i in bad_entries:
        payloads[i] = poisoned[: len(payloads[i])]
    with GatewayClient("127.0.0.1", server.port, timeout=10) as client:
        outcomes = client.submit_batch(
            payloads, features=True, return_exceptions=True
        )
    for i, want in enumerate([expected[:2], expected[2:], expected]):
        if i in bad_entries:
            assert isinstance(outcomes[i], GatewayError)
            assert outcomes[i].code == ErrorCode.BAD_REQUEST
        else:
            np.testing.assert_array_equal(outcomes[i], want)
    assert server.admission.inflight == 0
    assert engine.in_flight == 0


def test_split_entries_keep_their_own_refusals(world, replicas, monkeypatch):
    """Once a merged submit is split, an entry the engine then refuses
    for want of a slot answers OVERLOADED on its own: the entries it
    took are served, the invalid one is a BAD_REQUEST, and every
    admission token comes back."""
    engine, server = replicas
    rows, expected = world["features"], world["expected"]
    poisoned = rows.copy()
    poisoned[1, 3] = float("nan")
    submit_many = engine.submit_many

    def crowded(requests):
        # The merged submit and the first entry go through; the second
        # entry finds the ring full.
        if len(requests) == 1 and requests[0].payload.shape[0] == 1:
            raise Backpressure("no free request slot")
        return submit_many(requests)

    monkeypatch.setattr(engine, "submit_many", crowded)
    with GatewayClient("127.0.0.1", server.port, timeout=10) as client:
        outcomes = client.submit_batch(
            [rows[:2], rows[2:3], poisoned], features=True,
            return_exceptions=True,
        )
    np.testing.assert_array_equal(outcomes[0], expected[:2])
    assert isinstance(outcomes[1], GatewayRejected)
    assert outcomes[1].code == RejectCode.OVERLOADED
    assert isinstance(outcomes[2], GatewayError)
    assert outcomes[2].code == ErrorCode.BAD_REQUEST
    assert server.admission.inflight == 0
    assert engine.in_flight == 0
