"""Minimal HTTP/1.1 JSON ingress for the gateway (``POST /v1/predict``).

A deliberately small asyncio handler — no framework, no dependency —
that makes the gateway curl-able::

    curl -s http://127.0.0.1:8080/v1/predict \\
        -d '{"tenant": "alpha", "features": [[0.1, 0.9, ...]]}'

Requests ride the exact same path as binary-protocol traffic: one
entry settled by the gateway's ``_Reply`` — the same
:class:`~repro.serve.gateway.AdmissionController` decides admission
(so HTTP traffic is rate-limited and shed by the same policy, and
counted in the same metrics), the same
:meth:`~repro.serve.engine.ServingEngine.submit` serves it, and the
same failure table types a refused submit.  This module only parses
the request and renders the settled record as a status code:

====================  ======  =======================================
Reject / error        Status  Notes
====================  ======  =======================================
``RATE_LIMITED``      429     ``Retry-After`` header + JSON
                              ``retry_after_ms`` from the bucket's
                              refill rate
``OVERLOADED``        503
``SHUTTING_DOWN``     503
``UNKNOWN_TENANT``    404
``BAD_REQUEST``       400     malformed JSON / payload shape
``EXPIRED``           504     deadline passed before serving
====================  ======  =======================================

The body is JSON with one of ``features`` (rows of float features,
needs the tenant to have an encoder) or ``packed`` (rows of uint64
query words), plus optional ``tenant`` and ``deadline_ms``.  Replies
are ``{"predictions": [...]}``.  ``GET /healthz`` answers 200 with the
hosted tenant list.  Connections are keep-alive unless the client
sends ``Connection: close``.
"""

from __future__ import annotations

import asyncio
import json
import math
from functools import partial

import numpy as np

from repro.serve.engine import ServeRequest
from repro.serve.gateway import _Reply
from repro.serve.protocol import BATCH_REJECT_BASE, ErrorCode, RejectCode

__all__ = ["handle_http_connection"]

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

_REJECT_STATUS = {
    RejectCode.RATE_LIMITED: 429,
    RejectCode.OVERLOADED: 503,
    RejectCode.UNKNOWN_TENANT: 404,
    RejectCode.SHUTTING_DOWN: 503,
}

# Bound what one HTTP request may ask the gateway to buffer.
_MAX_BODY_BYTES = 8 * 1024 * 1024
_MAX_HEADER_BYTES = 16 * 1024


class _HttpError(Exception):
    """Carries a ready-to-send (status, json-payload, headers) triple."""

    def __init__(self, status: int, payload: dict, headers=None) -> None:
        super().__init__(payload.get("error", ""))
        self.status = status
        self.payload = payload
        self.headers = headers or {}


async def handle_http_connection(gateway, reader, writer) -> None:
    """Serve one HTTP/1.1 connection against ``gateway``."""
    task = asyncio.current_task()
    # Track the handler task exactly like binary-protocol connections:
    # ``GatewayServer.stop`` cancels tracked tasks during its graceful
    # phase, so keep-alive clients parked in ``readline`` (or aborted
    # clients whose handler is parked on an engine waiter) are unwound
    # deliberately instead of surviving until the loop's final blanket
    # cancel.
    if task is not None:
        gateway._connections.add(task)
    try:
        while True:
            line = await reader.readline()
            if not line:
                return
            if line in (b"\r\n", b"\n"):
                continue  # stray blank line between pipelined requests
            try:
                request = await _read_request(line, reader)
            except _HttpError as exc:
                await _respond(
                    writer, exc.status, exc.payload,
                    headers=exc.headers, close=True,
                )
                return
            method, target, headers, body, keep_alive = request
            try:
                status, payload, extra = await _route(
                    gateway, method, target, body
                )
            except _HttpError as exc:
                status, payload, extra = exc.status, exc.payload, exc.headers
            await _respond(
                writer, status, payload,
                headers=extra, close=not keep_alive,
            )
            if not keep_alive:
                return
    except (
        asyncio.CancelledError,
        asyncio.IncompleteReadError,
        ConnectionResetError,
        BrokenPipeError,
    ):
        pass
    finally:
        if task is not None:
            gateway._connections.discard(task)
        writer.close()


async def _read_request(request_line: bytes, reader):
    try:
        method, target, version = (
            request_line.decode("latin-1").strip().split(" ")
        )
    except ValueError:
        raise _HttpError(
            400, {"error": f"malformed request line {request_line!r}"}
        ) from None
    headers: dict[str, str] = {}
    header_bytes = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        header_bytes += len(line)
        if header_bytes > _MAX_HEADER_BYTES:
            raise _HttpError(431, {"error": "headers too large"})
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length", "0") or "0")
    except ValueError:
        raise _HttpError(
            400, {"error": "content-length is not an integer"}
        ) from None
    if length < 0:
        raise _HttpError(400, {"error": f"content-length {length} is negative"})
    if length > _MAX_BODY_BYTES:
        raise _HttpError(
            400, {"error": f"body of {length} bytes exceeds the "
                  f"{_MAX_BODY_BYTES}-byte cap"},
        )
    body = await reader.readexactly(length) if length else b""
    keep_alive = (
        headers.get("connection", "").lower() != "close"
        and version.upper() == "HTTP/1.1"
    )
    return method, target, headers, body, keep_alive


async def _route(gateway, method: str, target: str, body: bytes):
    target = target.split("?", 1)[0]
    if target == "/healthz":
        if method != "GET":
            raise _HttpError(405, {"error": "healthz is GET-only"})
        return 200, {
            "status": "draining" if gateway.admission.draining else "ok",
            "tenants": list(gateway.engine.tenants),
        }, {}
    if target != "/v1/predict":
        raise _HttpError(404, {"error": f"no route for {target}"})
    if method != "POST":
        raise _HttpError(405, {"error": "/v1/predict is POST-only"})
    payload, features, tenant, deadline = _parse_predict(gateway, body)
    return await _predict(gateway, payload, features, tenant, deadline)


def _parse_predict(gateway, body: bytes):
    try:
        doc = json.loads(body or b"null")
    except json.JSONDecodeError as exc:
        raise _HttpError(
            400, {"error": f"body is not valid JSON: {exc}"}
        ) from None
    if not isinstance(doc, dict):
        raise _HttpError(400, {"error": "body must be a JSON object"})
    if ("features" in doc) == ("packed" in doc):
        raise _HttpError(
            400,
            {"error": "body needs exactly one of 'features' (float rows) "
             "or 'packed' (uint64 query-word rows)"},
        )
    features = "features" in doc
    try:
        matrix = np.asarray(
            doc["features" if features else "packed"],
            dtype=np.float64 if features else np.uint64,
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise _HttpError(
            400, {"error": f"payload rows are not numeric: {exc}"}
        ) from None
    if matrix.ndim == 1:
        matrix = matrix[None, :]
    if matrix.ndim != 2 or matrix.shape[0] == 0:
        raise _HttpError(
            400, {"error": f"payload must be rows, got shape "
                  f"{matrix.shape}"},
        )
    tenant = doc.get("tenant") or gateway.engine.tenants[0]
    if not isinstance(tenant, str):
        raise _HttpError(400, {"error": "tenant must be a string"})
    deadline = None
    if doc.get("deadline_ms") is not None:
        try:
            deadline = float(doc["deadline_ms"]) / 1e3
        except (TypeError, ValueError):
            raise _HttpError(
                400, {"error": "deadline_ms must be a number"}
            ) from None
        if deadline <= 0:
            raise _HttpError(400, {"error": "deadline_ms must be > 0"})
    return matrix, features, tenant, deadline


async def _predict(gateway, matrix, features, tenant, deadline):
    loop = asyncio.get_running_loop()
    waiter = loop.create_future()
    reply = _Reply(
        gateway.admission, loop, _render, partial(_resolve, waiter), 1,
        tenant, 0, False,
    )
    reply.serve(
        [gateway.admission.admit(tenant)], _submit, gateway.engine,
        ServeRequest(
            matrix, features=features, deadline=deadline, tenant=tenant,
        ),
    )
    # Cancelled here (aborting client, stopping gateway) while the
    # engine still owns the request: the reply's done-callback releases
    # the admission token whenever the engine resolves, and ``_resolve``
    # drops the late response.  Propagate so the handler task finishes
    # cancelled instead of writing into a dead socket.
    return await waiter


def _submit(reply, engine, request):
    return ((0, 1, engine.submit(request)),)


def _resolve(waiter: asyncio.Future, response, _entries: int) -> None:
    """Hand a rendered response to its handler.

    A handler cancelled meanwhile left a done waiter: the response is
    dropped, never stored as an exception nobody retrieves.
    """
    if not waiter.done():
        waiter.set_result(response)


def _render(reply):
    """``(status, JSON payload, headers)`` of one settled request."""
    status = reply.statuses[0]
    if status == 0:
        return 200, {"predictions": reply.predictions[0].tolist()}, {}
    if status == ErrorCode.BAD_REQUEST:
        return 400, {"error": reply.detail}, {}
    if status == ErrorCode.EXPIRED:
        return 504, {"error": "EXPIRED", "detail": reply.detail}, {}
    code = RejectCode(status - BATCH_REJECT_BASE)
    payload: dict = {"error": code.name}
    headers: dict[str, str] = {}
    if code == RejectCode.RATE_LIMITED:
        retry_ms = reply.admission.retry_after_ms(reply.tenant)
        payload["retry_after_ms"] = retry_ms
        headers["Retry-After"] = str(max(1, math.ceil(retry_ms / 1000.0)))
    return _REJECT_STATUS[code], payload, headers


async def _respond(
    writer, status: int, payload: dict, *, headers=None, close: bool = False
) -> None:
    body = json.dumps(payload).encode("utf-8")
    lines = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        f"Connection: {'close' if close else 'keep-alive'}",
    ]
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body)
    try:
        await writer.drain()
    except (ConnectionResetError, BrokenPipeError):
        pass
