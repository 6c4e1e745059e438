"""Gateway clients: blocking :class:`GatewayClient` and
:class:`AsyncGatewayClient`.

Both speak the frame protocol of :mod:`repro.serve.protocol` against a
running :class:`~repro.serve.gateway.GatewayServer` and surface the
gateway's typed refusals as exceptions:

* :class:`GatewayRejected` — admission control shed the request
  (``.code`` is a :class:`~repro.serve.protocol.RejectCode`: rate
  limited, overloaded, unknown tenant, shutting down).  Retryable by
  design — the request never entered the engine.
* :class:`GatewayError` — the request was admitted but failed
  (``.code`` is an :class:`~repro.serve.protocol.ErrorCode`: bad
  request, deadline expired, internal).

The sync client is deliberately one-request-at-a-time (request →
response on a plain blocking socket): the simplest possible caller, and
what most tests and scripts want.  The async client pipelines — many
``predict`` coroutines share one connection, matched to responses by
``trace_id`` — and is what load generators and services should use.

Both clients batch: ``submit_batch`` packs N requests of one tenant
into a single ``SUBMIT_BATCH`` frame (one header, one contiguous query
block) and demuxes the single ``RESPONSE_BATCH`` reply, which is how
the wire path amortises per-request framing.

The async client additionally supports the gateway's credit-based
backpressure: ``connect(..., credited=True)`` performs the flagged-PING
handshake, after which sends block (instead of getting shed
``OVERLOADED``) while the server-granted window is exhausted —
:attr:`AsyncGatewayClient.credit_waits` counts how often that
happened.

Usage (sync)::

    with GatewayClient("127.0.0.1", server.port) as client:
        predictions = client.predict(query_words, tenant="alpha")
        per_request = client.submit_batch(payloads, tenant="alpha")

Usage (async)::

    async with await AsyncGatewayClient.connect(
        "127.0.0.1", server.port, credited=True
    ) as client:
        predictions = await client.predict(query_words, tenant="alpha")
"""

from __future__ import annotations

import asyncio
import socket
import threading

import numpy as np

from repro.serve.protocol import (
    BATCH_REJECT_BASE,
    FLAG_CREDIT,
    ErrorCode,
    Frame,
    FrameDecoder,
    FrameKind,
    ProtocolError,
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

__all__ = ["AsyncGatewayClient", "GatewayClient", "GatewayError",
           "GatewayRejected"]


class GatewayRejected(RuntimeError):
    """Admission control shed the request before it entered the engine.

    ``retry_after_ms`` carries the server's refill hint on
    ``RATE_LIMITED`` rejects (None otherwise): sleep that long and the
    tenant's token bucket will have a token again.
    """

    def __init__(
        self, code: int, detail: str, retry_after_ms: int | None = None
    ) -> None:
        try:
            self.code = RejectCode(code)
            name = self.code.name
        except ValueError:  # future server, unknown code
            self.code = code
            name = f"code {code}"
        self.retry_after_ms = retry_after_ms
        message = f"gateway rejected request ({name}): {detail}"
        if retry_after_ms is not None:
            message += f" (retry after {retry_after_ms}ms)"
        super().__init__(message)


class GatewayError(RuntimeError):
    """The request was admitted but the gateway reports it failed."""

    def __init__(self, code: int, detail: str) -> None:
        try:
            self.code = ErrorCode(code)
            name = self.code.name
        except ValueError:
            self.code = code
            name = f"code {code}"
        super().__init__(f"gateway request failed ({name}): {detail}")


def _request_frame(
    payload: np.ndarray,
    tenant: str,
    features: bool,
    deadline: float | None,
    trace_id: int,
) -> bytes:
    kind = FrameKind.FEATURES if features else FrameKind.PACKED
    return encode_frame(Frame(
        kind,
        tenant=tenant,
        trace_id=trace_id,
        deadline_ns=int(deadline * 1e9) if deadline else 0,
        payload=encode_array(kind, payload),
    ))


def _ping_frame(flags: int, trace_id: int) -> bytes:
    return encode_frame(Frame(FrameKind.PING, trace_id=trace_id, flags=flags))


def _decode_reply(frame: Frame) -> np.ndarray:
    if frame.kind == FrameKind.RESPONSE:
        return decode_predictions(frame.payload)
    if frame.kind == FrameKind.REJECT:
        raise GatewayRejected(*decode_reject(frame.payload))
    if frame.kind == FrameKind.ERROR:
        raise GatewayError(*decode_status(frame.payload))
    raise ProtocolError(f"unexpected reply frame kind {frame.kind.name}")


def _batch_frame(
    payloads,
    tenant: str,
    features: bool,
    deadline: float | None,
    trace_id: int,
) -> bytes:
    return encode_frame(Frame(
        FrameKind.SUBMIT_BATCH,
        tenant=tenant,
        trace_id=trace_id,
        deadline_ns=int(deadline * 1e9) if deadline else 0,
        payload=encode_submit_batch(payloads, features=features),
    ))


def _unpack_batch_reply(frame: Frame, count: int, return_exceptions: bool):
    """Per-request results out of one batch reply frame.

    A whole-batch ``REJECT``/``ERROR`` raises regardless of
    ``return_exceptions`` (nothing was partially served); per-entry
    failures raise the first one, or — with ``return_exceptions`` —
    take the exception object's place in the returned list.
    """
    if frame.kind != FrameKind.RESPONSE_BATCH:
        return _decode_reply(frame)  # raises the typed exception
    batch = decode_response_batch(frame.payload)
    if len(batch) != count:
        raise ProtocolError(
            f"batch reply carries {len(batch)} entries for a "
            f"{count}-request batch"
        )
    results: list = []
    for i in range(count):
        status = int(batch.statuses[i])
        if status == 0:
            results.append(batch.predictions_for(i).copy())
            continue
        if status >= BATCH_REJECT_BASE:
            exc: Exception = GatewayRejected(
                status - BATCH_REJECT_BASE, f"batch entry {i} rejected"
            )
        else:
            exc = GatewayError(status, f"batch entry {i} failed")
        if not return_exceptions:
            raise exc
        results.append(exc)
    return results


class GatewayClient:
    """Blocking single-connection, single-outstanding-request client."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout: float = 30.0,
    ) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._decoder = FrameDecoder()
        self._lock = threading.Lock()
        self._next_trace = 0

    def predict(
        self,
        payload: np.ndarray,
        *,
        tenant: str = "",
        features: bool = False,
        deadline: float | None = None,
    ) -> np.ndarray:
        """One request, one reply; raises the typed gateway exceptions."""
        return _decode_reply(self._round_trip(
            _request_frame, payload, tenant, features, deadline
        ))

    def submit_batch(
        self,
        payloads,
        *,
        tenant: str = "",
        features: bool = False,
        deadline: float | None = None,
        return_exceptions: bool = False,
    ) -> list:
        """N requests in one ``SUBMIT_BATCH`` frame; one reply round trip.

        Returns per-request prediction arrays in submit order.  A
        per-entry failure raises its typed exception, unless
        ``return_exceptions`` is set — then the exception object holds
        that entry's slot and the rest of the batch still comes back.
        """
        frame = self._round_trip(
            _batch_frame, payloads, tenant, features, deadline
        )
        return _unpack_batch_reply(frame, len(payloads), return_exceptions)

    def ping(self) -> None:
        """Round-trip a PING (liveness check)."""
        frame = self._round_trip(_ping_frame, 0)
        if frame.kind != FrameKind.PONG:
            raise ProtocolError(
                f"expected PONG, got {frame.kind.name}"
            )

    def _round_trip(self, encode, *args) -> Frame:
        """Send ``encode(*args, trace_id)``; read its reply."""
        with self._lock:
            trace_id = self._next_trace
            self._next_trace += 1
            self._sock.sendall(encode(*args, trace_id))
            frame = self._read_frame()
        if frame.trace_id != trace_id and frame.kind == FrameKind.PONG:
            raise ProtocolError("interleaved PONG on a sync connection")
        return frame

    def _read_frame(self) -> Frame:
        while True:
            frames = self._decoder.feed(self._recv())
            if frames:
                if len(frames) > 1:
                    raise ProtocolError(
                        "multiple replies to a single outstanding request"
                    )
                return frames[0]

    def _recv(self) -> bytes:
        data = self._sock.recv(1 << 16)
        if not data:
            raise ConnectionError("gateway closed the connection")
        return data

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:  # pragma: no cover
            pass

    def __enter__(self) -> "GatewayClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class AsyncGatewayClient:
    """Pipelining asyncio client: many in-flight requests, one socket.

    Replies are matched to callers by ``trace_id``; a background reader
    task demultiplexes the stream.  Create with :meth:`connect` —
    ``credited=True`` opts the connection into the gateway's
    credit-based backpressure (sends block while the window is
    exhausted instead of being shed ``OVERLOADED``).
    """

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._decoder = FrameDecoder()
        self._waiters: dict[int, asyncio.Future] = {}
        self._next_trace = 0
        self._closed = False
        self._credited = False
        self._window = 0
        self._credits = 0
        self._credit_event = asyncio.Event()
        self._credit_waits = 0
        self._reader_task = asyncio.get_running_loop().create_task(
            self._read_loop()
        )

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        *,
        timeout: float = 30.0,
        credited: bool = False,
    ) -> "AsyncGatewayClient":
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(host, port), timeout
        )
        sock = writer.get_extra_info("socket")
        if sock is not None:
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:  # pragma: no cover - non-TCP transports
                pass
        client = cls(reader, writer)
        if credited:
            # Flagged PING; the server's CREDIT grant (if any) lands
            # before the PONG, so the window is known when this
            # returns.  A denied grant degrades to a plain connection.
            await client.ping(flags=FLAG_CREDIT)
            client._credited = client._window > 0
        return client

    @property
    def credited(self) -> bool:
        """True when the server granted this connection a credit window."""
        return self._credited

    @property
    def window(self) -> int:
        """The server-granted credit window (0 when not credited)."""
        return self._window

    @property
    def credit_waits(self) -> int:
        """Times a send blocked waiting for the window to free up."""
        return self._credit_waits

    async def _take_credits(self, count: int) -> None:
        if not self._credited:
            return
        if count > self._window:
            raise ValueError(
                f"batch of {count} exceeds the connection's credit "
                f"window {self._window}; split it"
            )
        while self._credits < count:
            self._credit_waits += 1
            self._credit_event.clear()
            await self._credit_event.wait()
            if self._closed:
                raise ConnectionError("client is closed")
        self._credits -= count

    def _grant_credits(self, count: int) -> None:
        if self._window == 0:
            self._window = count  # handshake grant defines the window
        self._credits += count
        self._credit_event.set()

    async def predict(
        self,
        payload: np.ndarray,
        *,
        tenant: str = "",
        features: bool = False,
        deadline: float | None = None,
    ) -> np.ndarray:
        """Submit one request; awaits its predictions.

        Raises :class:`GatewayRejected` / :class:`GatewayError` with the
        server's typed code, mirroring the sync client.
        """
        return _decode_reply(await self._round_trip(
            1, _request_frame, payload, tenant, features, deadline
        ))

    async def submit_batch(
        self,
        payloads,
        *,
        tenant: str = "",
        features: bool = False,
        deadline: float | None = None,
        return_exceptions: bool = False,
    ) -> list:
        """N requests in one ``SUBMIT_BATCH`` frame; one reply frame back.

        Consumes ``len(payloads)`` credits on a credited connection
        (so the batch must fit the window).  Result semantics match
        :meth:`GatewayClient.submit_batch`.
        """
        count = len(payloads)
        frame = await self._round_trip(
            count, _batch_frame, payloads, tenant, features, deadline
        )
        return _unpack_batch_reply(frame, count, return_exceptions)

    async def ping(self, *, flags: int = 0) -> None:
        frame = await self._round_trip(0, _ping_frame, flags)
        if frame.kind != FrameKind.PONG:
            raise ProtocolError(f"expected PONG, got {frame.kind.name}")

    async def _round_trip(self, credits: int, encode, *args) -> Frame:
        """One frame out, the reply with its trace id back.

        Takes ``credits`` from the window first (on a credited
        connection), then sends ``encode(*args, trace_id)`` and awaits
        the reply the read loop matches to it.
        """
        if self._closed:
            raise ConnectionError("client is closed")
        if credits:
            await self._take_credits(credits)
        trace_id = self._next_trace
        self._next_trace += 1
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._waiters[trace_id] = future
        try:
            self._writer.write(encode(*args, trace_id))
            await self._writer.drain()
            return await future
        finally:
            self._waiters.pop(trace_id, None)

    async def _read_loop(self) -> None:
        try:
            while True:
                data = await self._reader.read(1 << 16)
                if not data:
                    self._fail_waiters(
                        ConnectionError("gateway closed the connection")
                    )
                    return
                for frame in self._decoder.feed(data):
                    if frame.kind == FrameKind.CREDIT:
                        self._grant_credits(decode_credit(frame.payload))
                        continue
                    waiter = self._waiters.get(frame.trace_id)
                    if waiter is not None and not waiter.done():
                        waiter.set_result(frame)
        except asyncio.CancelledError:
            self._fail_waiters(ConnectionError("client closed"))
        except ProtocolError as exc:
            self._fail_waiters(exc)

    def _fail_waiters(self, exc: Exception) -> None:
        self._closed = True
        self._credit_event.set()  # wake any send blocked on credits
        for waiter in self._waiters.values():
            if not waiter.done():
                waiter.set_exception(exc)

    async def close(self) -> None:
        self._closed = True
        self._reader_task.cancel()
        try:
            await self._reader_task
        except asyncio.CancelledError:
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass

    async def __aenter__(self) -> "AsyncGatewayClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()
