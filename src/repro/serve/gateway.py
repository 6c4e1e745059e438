"""Asyncio TCP ingress for the multi-tenant serving engine.

:class:`GatewayServer` is the network front door: it speaks the
length-prefixed binary frame protocol (:mod:`repro.serve.protocol`),
admits or sheds each request (:class:`AdmissionController`), and feeds
admitted work into a :class:`~repro.serve.engine.ServingEngine` through
the unified :class:`~repro.serve.engine.ServeRequest` surface.  Replies
ride :class:`~repro.serve.engine.ServeFuture` done-callbacks back onto
the event loop, so a slow engine never blocks the acceptor and one
connection's stall never delays another's responses.

**One request path.**  A single frame, a ``SUBMIT_BATCH`` frame and an
HTTP ``/v1/predict`` each become one :class:`_Reply`, which admits,
submits and settles their entries; the ingresses only decode requests
and render replies.

The server hosts its own event loop on a daemon thread —
``start()``/``stop()`` are plain synchronous calls, usable from tests,
benchmarks and ``with`` blocks, while everything network-facing stays
async inside.  With ``http_port`` set it additionally serves a minimal
HTTP/1.1 JSON ingress (``POST /v1/predict``, :mod:`repro.serve.http`)
through the *same* admission controller and engine path.

**The batched fast path.**  ``SUBMIT_BATCH`` frames carry N requests of
one tenant behind a single header; the gateway decodes them as numpy
views (:func:`~repro.serve.protocol.decode_submit_batch`), admits the
whole batch under one admission-lock acquisition
(:meth:`AdmissionController.admit_many`), hands the engine zero-copy
row slices of the wire buffer in one
:meth:`~repro.serve.engine.ServingEngine.submit_many` call, and answers
with a single ``RESPONSE_BATCH`` frame built off-loop by whichever
collector thread resolves the batch's last request.  Cooperative
clients sending *single* frames get a lighter version of the same
economy: every frame decoded from one read chunk is submitted with
``flush=False`` and the engine's frame buffer flushed once per chunk,
so adjacent singles coalesce into shared engine dispatch frames.

**Credit-based backpressure.**  A client that sets
:data:`~repro.serve.protocol.FLAG_CREDIT` on a PING opts its connection
into window flow control: the gateway reserves a slice of the global
in-flight budget (:meth:`AdmissionController.reserve_window`), grants
it as a ``CREDIT`` frame, and from then on bounds the connection by
that window instead of shedding per-request — every reply is preceded
by a ``CREDIT`` grant returning the credits its requests consumed, and
while the window is exhausted the gateway stops reading the socket
(``transport.pause_reading()``), pushing backpressure into TCP instead
of burning cycles shedding.  A credit-*respecting* client is therefore
never shed ``OVERLOADED``; a client that overruns its window gets a
typed ``OVERLOADED`` reject (credits refunded) and keeps its
connection.

**Admission policy** (checked in this order, each with a typed
:class:`~repro.serve.protocol.RejectCode`):

1. ``SHUTTING_DOWN`` — the server is draining; nothing new gets in.
2. ``UNKNOWN_TENANT`` — the frame names a tenant the engine does not
   host.
3. ``RATE_LIMITED`` — the tenant's token bucket is empty.  Each tenant
   gets ``rate_limit`` tokens/s with ``burst`` capacity, so one noisy
   tenant is throttled at the door instead of starving the others
   inside the engine.  The reject carries a ``retry_after_ms`` hint
   derived from the bucket's refill rate.
4. ``OVERLOADED`` — the unreserved in-flight budget (the global cap
   minus every cooperative connection's reserved window) is exhausted.
   Shedding here keeps ``engine.submit`` non-blocking: a free in-flight
   token implies a free ring slot, because the engine releases slots
   strictly before the gateway releases tokens, and reserved windows +
   the unreserved budget never exceed the ring.

Every shed is counted (``gateway.shed`` + per-code metrics and
:attr:`AdmissionController.shed` totals) — the CI smoke leg asserts
zero shed at low load and non-zero under deliberate overload.
"""

from __future__ import annotations

import asyncio
import math
import socket
import threading
import time
from functools import partial

from repro.obs.metrics import current as _metrics
from repro.serve.engine import Backpressure, ServeRequest, ServingEngine
from repro.serve.protocol import (
    BATCH_REJECT_BASE,
    FLAG_CREDIT,
    ErrorCode,
    Frame,
    FrameDecoder,
    FrameKind,
    ProtocolError,
    RejectCode,
    decode_array,
    decode_submit_batch,
    encode_credit,
    encode_frame,
    encode_predictions,
    encode_reject,
    encode_response_batch,
    encode_status,
)

__all__ = ["AdmissionController", "GatewayServer", "TokenBucket"]


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/s, ``burst`` capacity.

    Monotonic-clock lazy refill; ``try_take`` and ``retry_after_s``
    both refill to *now* before deciding.  Not thread-safe on its own —
    the admission controller serialises access under its lock.
    """

    __slots__ = ("_last", "_tokens", "burst", "rate")

    def __init__(self, rate: float, burst: float) -> None:
        if rate <= 0 or burst <= 0:
            raise ValueError(
                f"rate and burst must be > 0, got rate={rate} burst={burst}"
            )
        self.rate = float(rate)
        self.burst = float(burst)
        self._tokens = float(burst)
        self._last = time.monotonic()

    def try_take(self, now: float | None = None) -> bool:
        if now is None:
            now = time.monotonic()
        self._tokens = min(
            self.burst, self._tokens + (now - self._last) * self.rate
        )
        self._last = now
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False

    def retry_after_s(self, now: float | None = None) -> float:
        """Seconds until one token will have refilled (0 if one is free).

        Refills to ``now`` first.  It used to be a stale peek that
        assumed a just-failed :meth:`try_take` had already brought
        ``_tokens`` current — but callers like the HTTP ingress build
        ``Retry-After`` hints on their own schedule, and a peek taken
        later than the failed take over-reports the wait by however much
        has already refilled in between.
        """
        if now is None:
            now = time.monotonic()
        self._tokens = min(
            self.burst, self._tokens + (now - self._last) * self.rate
        )
        self._last = now
        if self._tokens >= 1.0:
            return 0.0
        return (1.0 - self._tokens) / self.rate


class AdmissionController:
    """Token-bucket rate limiting per tenant + global load shedding.

    ``max_inflight`` bounds requests admitted but not yet resolved;
    the gateway caps it at the engine's ring capacity so an admitted
    request always finds a free ring slot (``engine.submit`` never
    blocks the event loop).

    Cooperative connections carve their credit window out of the same
    budget via :meth:`reserve_window`: reserved admissions
    (``reserved=True``) are bounded by their connection's window (the
    gateway enforces it), the unreserved rest shares
    ``max_inflight - reserved`` — so the two together can never
    overrun the ring.
    """

    def __init__(
        self,
        tenants,
        *,
        max_inflight: int,
        rate_limit: float | None = None,
        burst: float | None = None,
    ) -> None:
        if max_inflight < 1:
            raise ValueError(
                f"max_inflight must be >= 1, got {max_inflight}"
            )
        self._lock = threading.Lock()
        self._tenants = set(tenants)
        self._buckets: dict[str, TokenBucket] = {}
        if rate_limit is not None:
            if burst is None:
                burst = max(1.0, rate_limit)
            self._buckets = {
                tenant: TokenBucket(rate_limit, burst)
                for tenant in self._tenants
            }
        self.max_inflight = max_inflight
        self._inflight_free = 0
        self._inflight_reserved = 0
        self._reserved = 0
        self.draining = False
        self.admitted = 0
        self.shed: dict[RejectCode, int] = {code: 0 for code in RejectCode}

    @property
    def inflight(self) -> int:
        with self._lock:
            return self._inflight_free + self._inflight_reserved

    @property
    def reserved(self) -> int:
        """Credits currently reserved by cooperative connections."""
        with self._lock:
            return self._reserved

    @property
    def shed_total(self) -> int:
        with self._lock:
            return sum(self.shed.values())

    def reserve_window(self, requested: int) -> int:
        """Carve a cooperative connection's credit window from the budget.

        Returns the granted window (possibly smaller than requested,
        possibly 0 when the budget is fully reserved — the connection
        then stays non-cooperative).  The caller must return the grant
        via :meth:`release_window` when the connection closes.
        """
        with self._lock:
            grant = max(0, min(requested, self.max_inflight - self._reserved))
            self._reserved += grant
        return grant

    def release_window(self, granted: int) -> None:
        """Return a closed cooperative connection's window."""
        with self._lock:
            self._reserved -= granted

    def _admit_locked(
        self, tenant: str, bucket: TokenBucket | None, now: float,
        reserved: bool,
    ) -> RejectCode | None:
        if self.draining:
            return RejectCode.SHUTTING_DOWN
        if tenant not in self._tenants:
            return RejectCode.UNKNOWN_TENANT
        if bucket is not None and not bucket.try_take(now):
            return RejectCode.RATE_LIMITED
        if reserved:
            # Capacity is guaranteed by the connection's reserved
            # window (the gateway bounds its in-flight to the window).
            self._inflight_reserved += 1
        else:
            if self._inflight_free >= self.max_inflight - self._reserved:
                return RejectCode.OVERLOADED
            self._inflight_free += 1
        self.admitted += 1
        return None

    def admit(
        self, tenant: str, *, reserved: bool = False
    ) -> RejectCode | None:
        """Admit one request for ``tenant``; a code means *shed*.

        An admitted request holds one in-flight token the caller MUST
        return via :meth:`release` exactly once (with the same
        ``reserved`` flag).
        """
        with self._lock:
            code = self._admit_locked(
                tenant, self._buckets.get(tenant), time.monotonic(),
                reserved,
            )
            if code is not None:
                self.shed[code] += 1
            inflight = self._inflight_free + self._inflight_reserved
        metrics = _metrics()
        if metrics.enabled:
            if code is not None:
                metrics.inc("gateway.shed")
                metrics.inc(f"gateway.shed.{code.name.lower()}")
            else:
                metrics.inc("gateway.admitted")
                metrics.gauge("gateway.inflight", inflight)
        return code

    def admit_many(
        self, tenant: str, count: int, *, reserved: bool = False
    ) -> list[RejectCode | None]:
        """Admit up to ``count`` requests of one tenant in one lock trip.

        Returns a per-request list of ``None`` (admitted — one token
        held, same :meth:`release` contract) or the shedding
        :class:`RejectCode`.  One clock read and one lock acquisition
        cover the whole batch — the admission-side share of the batched
        fast path.
        """
        codes: list[RejectCode | None] = []
        shed_counts: dict[RejectCode, int] = {}
        with self._lock:
            bucket = self._buckets.get(tenant)
            now = time.monotonic()
            for _ in range(count):
                code = self._admit_locked(tenant, bucket, now, reserved)
                codes.append(code)
                if code is not None:
                    self.shed[code] += 1
                    shed_counts[code] = shed_counts.get(code, 0) + 1
            inflight = self._inflight_free + self._inflight_reserved
        metrics = _metrics()
        if metrics.enabled:
            admitted = count - sum(shed_counts.values())
            if admitted:
                metrics.inc("gateway.admitted", admitted)
                metrics.gauge("gateway.inflight", inflight)
            for code, n in shed_counts.items():
                metrics.inc("gateway.shed", n)
                metrics.inc(f"gateway.shed.{code.name.lower()}", n)
        return codes

    def retry_after_ms(self, tenant: str) -> int:
        """Milliseconds until ``tenant``'s bucket refills one token."""
        with self._lock:
            bucket = self._buckets.get(tenant)
            if bucket is None:
                return 0
            return int(math.ceil(bucket.retry_after_s() * 1000.0))

    def release(self, *, reserved: bool = False, count: int = 1) -> None:
        """Return ``count`` admitted requests' in-flight tokens."""
        with self._lock:
            if reserved:
                self._inflight_reserved -= count
            else:
                self._inflight_free -= count

    def drain(self) -> None:
        """Reject everything from now on (server shutdown)."""
        with self._lock:
            self.draining = True


class _Connection:
    """Per-connection gateway state, touched only on the event loop.

    ``inflight``/``window`` implement the credit protocol for
    cooperative connections: the read loop stops pulling from the
    socket while ``inflight >= window`` and the reply path (hopping
    onto the loop via :meth:`deliver`) returns credits and resumes it.
    """

    __slots__ = ("cooperative", "inflight", "outbox", "resume", "window")

    def __init__(self, outbox: asyncio.Queue) -> None:
        self.outbox = outbox
        self.cooperative = False
        self.window = 0
        self.inflight = 0
        self.resume = asyncio.Event()
        self.resume.set()

    def charge(self, credits: int) -> None:
        self.inflight += credits
        if self.inflight >= self.window:
            self.resume.clear()

    def deliver(self, reply: bytes, credits: int = 0) -> None:
        """Enqueue one reply, returning ``credits`` to the connection.

        Runs on the event loop (reply paths coming off collector
        threads hop here via ``call_soon_threadsafe``).  On cooperative
        connections the credit grant is *prepended* to the reply bytes
        so client-side accounting is ahead of the response it unblocks.
        """
        if self.cooperative and credits:
            self.inflight -= credits
            reply = encode_frame(Frame(
                FrameKind.CREDIT, payload=encode_credit(credits)
            )) + reply
            if self.inflight < self.window:
                self.resume.set()
        self.outbox.put_nowait(reply)


# Statuses (RESPONSE_BATCH vocabulary) the one path records itself.
_EXPIRED = int(ErrorCode.EXPIRED)
_EXPIRED_DETAIL = "deadline passed before the engine served the request"
_OVERLOADED = BATCH_REJECT_BASE + RejectCode.OVERLOADED
_SHUTTING_DOWN = BATCH_REJECT_BASE + RejectCode.SHUTTING_DOWN


class _Reply:
    """The outcome record of one ingress unit, settled once per entry.

    A unit is what one ingress hands the gateway: a TCP single frame or
    an HTTP ``/v1/predict`` is one entry, a ``SUBMIT_BATCH`` frame one
    entry per request.  Each entry ends in one status of the
    ``RESPONSE_BATCH`` vocabulary (0 OK with its ``predictions``, an
    :class:`ErrorCode`, or ``BATCH_REJECT_BASE + RejectCode``);
    ``detail`` says why the unit's last failing entry failed.

    :meth:`serve` is the gateway's one request path.  Every admitted
    entry holds one admission token, returned exactly once: by the
    done-callback of the engine request serving it (:meth:`settle`) or
    when the engine refuses the submit.  Once the last entry settles,
    ``render(reply)`` builds the ingress's reply and
    ``deliver(reply, entries)`` takes it — on the settling collector
    thread the render runs off the event loop and the delivery makes one
    ``call_soon_threadsafe`` hop; a unit the engine never took is
    rendered and delivered on the loop at once.
    """

    __slots__ = ("_deliver", "_lock", "_loop", "_render", "_runs",
                 "admission", "detail", "offsets", "predictions",
                 "reserved", "statuses", "tenant", "trace_id", "trace_ids")
    # Set only where read, keeping a single frame's record small:
    # ``detail`` with each failing status, ``_runs`` with ``_lock``, and
    # ``offsets`` (per-entry row offsets, splitting a merged request's
    # predictions) and ``trace_ids`` (per-entry client trace ids) for
    # batches.

    def __init__(
        self, admission: AdmissionController,
        loop: asyncio.AbstractEventLoop, render, deliver, entries: int,
        tenant: str, trace_id: int, reserved: bool,
    ) -> None:
        self.admission = admission
        self._loop = loop
        self._render = render
        self._deliver = deliver
        self.statuses = [0] * entries
        self.predictions: list = [None] * entries
        self.tenant = tenant
        self.trace_id = trace_id
        self.reserved = reserved
        self._lock: threading.Lock | None = None

    def serve(self, codes, submit, *args) -> bool:
        """Admit, submit and settle the unit; True if the engine took it.

        ``codes`` holds each entry's admission outcome (None when
        admitted).  ``submit(reply, *args)`` submits the admitted
        entries and returns one ``(first, stop, future)`` per engine
        request, which serves entries ``first:stop``.
        """
        statuses = self.statuses
        admitted = codes.count(None)
        if admitted < len(statuses):
            for i, code in enumerate(codes):
                if code is not None:
                    statuses[i] = BATCH_REJECT_BASE + code
                    self.detail = code.name
        if admitted:
            try:
                runs = submit(self, *args)
            except (ProtocolError, ValueError, RuntimeError) as exc:
                status, detail = _refusal(exc), str(exc)
            else:
                if len(runs) > 1:
                    # Collector threads may settle runs concurrently.
                    self._lock = threading.Lock()
                    self._runs = len(runs)
                for first, stop, future in runs:
                    future.add_done_callback(
                        partial(self.settle, first, stop)
                    )
                return True
            # Submits are all-or-nothing: no admitted entry got in.
            self.admission.release(reserved=self.reserved, count=admitted)
            for i, code in enumerate(codes):
                if code is None:
                    statuses[i] = status
            self.detail = detail
        self._deliver(self._render(self), len(statuses))
        return False

    def settle(self, first: int, stop: int, result) -> None:
        """Done-callback of the engine request serving ``first:stop``.

        Runs on an engine collector thread.  A merged request's
        prediction rows are its entries' rows back to back; an expired
        one (one shared deadline) expires every entry it carried.
        """
        self.admission.release(reserved=self.reserved, count=stop - first)
        predictions = result.predictions
        if predictions is None:
            for i in range(first, stop):
                self.statuses[i] = _EXPIRED
            self.detail = _EXPIRED_DETAIL
        elif stop - first == 1:
            self.predictions[first] = predictions
        else:
            offsets = self.offsets
            base = offsets[first]
            for i in range(first, stop):
                self.predictions[i] = predictions[
                    offsets[i] - base:offsets[i + 1] - base
                ]
        if self._lock is not None:
            with self._lock:
                self._runs -= 1
                if self._runs:
                    return
        reply = self._render(self)
        try:
            self._loop.call_soon_threadsafe(
                self._deliver, reply, len(self.statuses)
            )
        except RuntimeError:
            pass  # loop already closed (connection torn down)


def _refusal(exc: Exception) -> int:
    """The status of an entry whose submit raised ``exc``."""
    if isinstance(exc, Backpressure):
        # Not expected (the in-flight cap <= ring slots), but the engine
        # may be shared with non-gateway submitters.
        return _OVERLOADED
    if isinstance(exc, RuntimeError):  # engine stopped underneath us
        return _SHUTTING_DOWN
    return int(ErrorCode.BAD_REQUEST)


def _submit_single(reply: _Reply, engine: ServingEngine, frame: Frame):
    request = ServeRequest(
        decode_array(frame.kind, frame.payload),
        features=frame.kind == FrameKind.FEATURES,
        deadline=frame.deadline_ns / 1e9 if frame.deadline_ns else None,
        tenant=reply.tenant,
        trace_id=frame.trace_id,
    )
    # Left in the engine's frame buffer: the read loop flushes once per
    # read chunk.
    return ((0, 1, engine.submit(request, flush=False)),)


def _submit_batch(reply: _Reply, engine: ServingEngine, batch, deadline):
    """Fold adjacent admitted entries into merged engine requests.

    A run's rows are already contiguous in the batch block, so one
    zero-copy slice serves the whole run as a single engine request
    (bounded by the engine's per-request query cap); a shed entry ends
    the run.  The engine refuses a submit as a whole, so when an
    invalid entry makes it refuse, the entries are submitted one by
    one: the valid ones are served and only the invalid ones answer
    ``BAD_REQUEST``.
    """
    cap = max(1, engine.max_queries_per_request)
    offsets = reply.offsets
    spans: list[tuple[int, int]] = []
    first = None
    for i, status in enumerate(reply.statuses):
        if first is not None and (
            status or offsets[i + 1] - offsets[first] > cap
        ):
            spans.append((first, i))
            first = None
        if first is None and not status:
            first = i
    if first is not None:
        spans.append((first, len(reply.statuses)))
    try:
        futures = engine.submit_many([
            _span_request(reply, batch, deadline, a, b) for a, b in spans
        ])
    except ValueError:
        return _submit_entries(reply, engine, batch, deadline, spans)
    return [(a, b, future) for (a, b), future in zip(spans, futures)]


def _span_request(reply: _Reply, batch, deadline, a: int, b: int):
    """The engine request serving entries ``a:b`` of a batch."""
    offsets = reply.offsets
    return ServeRequest(
        batch.block[offsets[a]:offsets[b]],
        features=batch.features,
        deadline=deadline,
        tenant=reply.tenant,
        trace_id=int(batch.trace_ids[a]),
    )


def _submit_entries(reply: _Reply, engine: ServingEngine, batch, deadline,
                    spans):
    """Submit the entries of ``spans`` one request each.

    An entry the engine refuses answers its own status (``BAD_REQUEST``
    for an invalid one) with its detail and returns its admission
    token; the entries it took are served.  If every entry is refused,
    the last refusal is raised, and :meth:`_Reply.serve` refuses the
    whole unit.
    """
    runs, refused = [], []
    for a, b in spans:
        for i in range(a, b):
            try:
                (future,) = engine.submit_many(
                    [_span_request(reply, batch, deadline, i, i + 1)]
                )
            except (ValueError, RuntimeError) as exc:
                refused.append((i, exc))
            else:
                runs.append((i, i + 1, future))
    if not runs:
        raise refused[-1][1]
    for i, exc in refused:
        reply.statuses[i] = _refusal(exc)
        reply.detail = str(exc)
    reply.admission.release(reserved=reply.reserved, count=len(refused))
    return runs


def _render_frame(reply: _Reply) -> bytes:
    """A single frame's reply: RESPONSE, REJECT or ERROR."""
    status = reply.statuses[0]
    if status == 0:
        kind = FrameKind.RESPONSE
        payload = encode_predictions(reply.predictions[0])
    elif status >= BATCH_REJECT_BASE:
        code = status - BATCH_REJECT_BASE
        retry = (
            reply.admission.retry_after_ms(reply.tenant)
            if code == RejectCode.RATE_LIMITED else None
        )
        kind = FrameKind.REJECT
        payload = encode_reject(code, reply.detail, retry)
    else:
        kind = FrameKind.ERROR
        payload = encode_status(status, reply.detail)
    return encode_frame(Frame(
        kind, tenant=reply.tenant, trace_id=reply.trace_id, payload=payload
    ))


def _render_batch(reply: _Reply) -> bytes:
    """A ``SUBMIT_BATCH`` frame's reply: one ``RESPONSE_BATCH``."""
    return encode_frame(Frame(
        FrameKind.RESPONSE_BATCH,
        tenant=reply.tenant,
        trace_id=reply.trace_id,
        payload=encode_response_batch(
            reply.trace_ids, reply.statuses, reply.predictions
        ),
    ))


class GatewayServer:
    """TCP gateway in front of one :class:`ServingEngine`.

    Parameters
    ----------
    engine:
        The (already-running) engine to serve.  The gateway does not
        own it: ``stop()`` drains the gateway but leaves the engine up.
    host, port:
        Listen address; port 0 picks a free port (read it back from
        :attr:`port` after :meth:`start`).
    rate_limit, burst:
        Per-tenant token bucket (tokens/s, capacity).  ``None`` rate
        disables rate limiting.
    max_inflight:
        Global admitted-but-unresolved cap; clamped to the engine's
        ring capacity (see :class:`AdmissionController`).
    connection_window:
        Credit window requested for each cooperative connection
        (clamped to what the admission budget can still reserve).
        Defaults to half the in-flight cap.
    http_port:
        When set, also serve the HTTP/1.1 JSON ingress
        (:mod:`repro.serve.http`) on this port (0 picks a free one —
        read :attr:`http_port` back after :meth:`start`).
    """

    def __init__(
        self,
        engine: ServingEngine,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        rate_limit: float | None = None,
        burst: float | None = None,
        max_inflight: int | None = None,
        connection_window: int | None = None,
        http_port: int | None = None,
    ) -> None:
        self.engine = engine
        self.host = host
        self._requested_port = port
        cap = engine.config.ring_slots
        self.admission = AdmissionController(
            engine.tenants,
            max_inflight=min(max_inflight, cap) if max_inflight else cap,
            rate_limit=rate_limit,
            burst=burst,
        )
        if connection_window is None:
            connection_window = max(1, self.admission.max_inflight // 2)
        if connection_window < 1:
            raise ValueError(
                f"connection_window must be >= 1, got {connection_window}"
            )
        self._connection_window = connection_window
        self._requested_http_port = http_port
        self.loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.AbstractServer | None = None
        self._http_server: asyncio.AbstractServer | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._start_error: BaseException | None = None
        self._connections: set[asyncio.Task] = set()
        self.port: int | None = None
        self.http_port: int | None = None

    # -- lifecycle -----------------------------------------------------

    def start(self, timeout: float = 10.0) -> "GatewayServer":
        """Spin up the loop thread and start listening; returns self."""
        if self._thread is not None:
            raise RuntimeError("gateway already started")
        self._thread = threading.Thread(
            target=self._run_loop, name="repro-gateway", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout):
            raise RuntimeError(f"gateway failed to start within {timeout}s")
        if self._start_error is not None:
            raise RuntimeError(
                f"gateway failed to start: {self._start_error!r}"
            )
        return self

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self.loop = loop
        try:
            self._server = loop.run_until_complete(asyncio.start_server(
                self._handle_connection, self.host, self._requested_port
            ))
            self.port = self._server.sockets[0].getsockname()[1]
            if self._requested_http_port is not None:
                from repro.serve.http import handle_http_connection

                async def _http(reader, writer):
                    await handle_http_connection(self, reader, writer)

                self._http_server = loop.run_until_complete(
                    asyncio.start_server(
                        _http, self.host, self._requested_http_port
                    )
                )
                self.http_port = (
                    self._http_server.sockets[0].getsockname()[1]
                )
        except BaseException as exc:  # surface bind errors to start()
            self._start_error = exc
            self._started.set()
            loop.close()
            return
        self._started.set()
        try:
            loop.run_forever()
        finally:
            # Cancel whatever survived the drain, then let the loop
            # unwind the cancellations before closing.
            for task in asyncio.all_tasks(loop):
                task.cancel()
            loop.run_until_complete(
                loop.shutdown_asyncgens()
            )
            loop.run_until_complete(asyncio.sleep(0))
            loop.close()

    def stop(self, timeout: float = 10.0) -> None:
        """Drain in-flight requests, close connections, stop the loop.

        Idempotent.  New requests are shed ``SHUTTING_DOWN`` the moment
        this is called; already-admitted ones get their responses
        (bounded by ``timeout``).
        """
        if self._thread is None or self.loop is None:
            return
        self.admission.drain()
        deadline = time.monotonic() + timeout
        while (self.admission.inflight > 0
               and time.monotonic() < deadline):
            time.sleep(0.01)
        loop = self.loop
        if loop.is_running():
            async def _shutdown() -> None:
                for server in (self._server, self._http_server):
                    if server is not None:
                        server.close()
                        await server.wait_closed()
                for task in list(self._connections):
                    task.cancel()
            try:
                asyncio.run_coroutine_threadsafe(
                    _shutdown(), loop
                ).result(timeout=timeout)
            except Exception:
                pass
            loop.call_soon_threadsafe(loop.stop)
        self._thread.join(timeout=timeout)
        self._thread = None

    def __enter__(self) -> "GatewayServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- connection handling -------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        sock = writer.get_extra_info("socket")
        if sock is not None:
            try:
                # Replies are small; never let Nagle hold them hostage.
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:  # pragma: no cover - non-TCP transports
                pass
        # One writer coroutine per connection serialises every reply —
        # engine done-callbacks only ever enqueue, so responses can
        # never interleave mid-frame.
        outbox: asyncio.Queue = asyncio.Queue()
        conn = _Connection(outbox)
        writer_task = asyncio.get_running_loop().create_task(
            self._write_replies(outbox, writer)
        )
        decoder = FrameDecoder()
        transport = writer.transport
        try:
            while True:
                if conn.cooperative and not conn.resume.is_set():
                    # Window exhausted: connection-level backpressure.
                    # Stop reading so in-transit frames queue in the
                    # kernel buffers instead of being shed one by one;
                    # the reply path returns credits and resumes us.
                    try:
                        transport.pause_reading()
                    except (AttributeError, RuntimeError):
                        pass
                    metrics = _metrics()
                    if metrics.enabled:
                        metrics.inc("gateway.paused")
                    await conn.resume.wait()
                    try:
                        transport.resume_reading()
                    except (AttributeError, RuntimeError):
                        pass
                data = await reader.read(1 << 16)
                if not data:
                    break
                try:
                    frames = decoder.feed(data)
                except ProtocolError as exc:
                    # Typed error back, then hang up: past a framing
                    # error the stream cannot be trusted.
                    await outbox.put(encode_frame(Frame(
                        FrameKind.ERROR,
                        payload=encode_status(
                            ErrorCode.BAD_REQUEST, str(exc)
                        ),
                    )))
                    break
                submitted = False
                for frame in frames:
                    submitted |= self._handle_frame(frame, conn)
                if submitted:
                    # Coalesced singles: one engine dispatch per read
                    # chunk, not one per frame.
                    self.engine.flush()
        except (asyncio.CancelledError, ConnectionResetError):
            pass
        finally:
            self._connections.discard(task)
            if conn.window:
                self.admission.release_window(conn.window)
            outbox.put_nowait(None)
            try:
                await writer_task
            except asyncio.CancelledError:
                pass
            # close() without awaiting wait_closed(): awaiting here can
            # itself be cancelled during loop shutdown and escape the
            # handler as a task exception; the transport finishes the
            # close on its own.
            writer.close()

    async def _write_replies(
        self, outbox: asyncio.Queue, writer: asyncio.StreamWriter
    ) -> None:
        while True:
            item = await outbox.get()
            if item is None:
                return
            try:
                writer.write(item)
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                return

    # -- frame handling ------------------------------------------------

    def _handle_frame(self, frame: Frame, conn: _Connection) -> bool:
        """Process one inbound frame; True if an engine submit needs a
        flush (the caller flushes once per read chunk)."""
        if frame.kind == FrameKind.PING:
            self._handle_ping(frame, conn)
            return False
        if frame.kind == FrameKind.SUBMIT_BATCH:
            self._handle_batch(frame, conn)
            return False
        if frame.kind not in (FrameKind.PACKED, FrameKind.FEATURES):
            conn.outbox.put_nowait(encode_frame(Frame(
                FrameKind.ERROR,
                trace_id=frame.trace_id,
                payload=encode_status(
                    ErrorCode.BAD_REQUEST,
                    f"gateway does not accept {frame.kind.name} frames",
                ),
            )))
            return False
        return self._handle_single(frame, conn)

    def _handle_ping(self, frame: Frame, conn: _Connection) -> None:
        if frame.flags & FLAG_CREDIT and not conn.cooperative:
            window = self.admission.reserve_window(self._connection_window)
            if window > 0:
                conn.cooperative = True
                conn.window = window
                # Grant before the PONG so the client sees its window
                # the moment the handshake completes.
                conn.outbox.put_nowait(encode_frame(Frame(
                    FrameKind.CREDIT, payload=encode_credit(window)
                )))
        conn.outbox.put_nowait(encode_frame(Frame(
            FrameKind.PONG, trace_id=frame.trace_id
        )))

    def _charge(
        self, frame: Frame, conn: _Connection, tenant: str, credits: int
    ) -> bool:
        """Charge ``credits`` to a cooperative connection; False on overrun.

        A frame that would overrun its connection's window gets a typed
        ``OVERLOADED`` reject with its credits refunded, and the
        connection survives — a client that respects its grants never
        lands here.
        """
        if conn.inflight + credits > conn.window:
            conn.outbox.put_nowait(encode_frame(Frame(
                FrameKind.CREDIT, payload=encode_credit(credits)
            )) + encode_frame(Frame(
                FrameKind.REJECT,
                tenant=tenant,
                trace_id=frame.trace_id,
                payload=encode_reject(RejectCode.OVERLOADED, "OVERLOADED"),
            )))
            return False
        conn.charge(credits)
        return True

    def _handle_single(self, frame: Frame, conn: _Connection) -> bool:
        tenant = frame.tenant or self.engine.tenants[0]
        if conn.cooperative and not self._charge(frame, conn, tenant, 1):
            return False
        reserved = conn.cooperative
        reply = _Reply(
            self.admission, self.loop, _render_frame, conn.deliver, 1,
            tenant, frame.trace_id, reserved,
        )
        return reply.serve(
            [self.admission.admit(tenant, reserved=reserved)],
            _submit_single, self.engine, frame,
        )

    def _handle_batch(self, frame: Frame, conn: _Connection) -> None:
        tenant = frame.tenant or self.engine.tenants[0]
        try:
            batch = decode_submit_batch(frame.payload)
        except ProtocolError as exc:
            conn.outbox.put_nowait(encode_frame(Frame(
                FrameKind.ERROR,
                tenant=tenant,
                trace_id=frame.trace_id,
                payload=encode_status(ErrorCode.BAD_REQUEST, str(exc)),
            )))
            return
        count = len(batch)
        if conn.cooperative and not self._charge(
            frame, conn, tenant, count
        ):
            return
        reserved = conn.cooperative
        reply = _Reply(
            self.admission, self.loop, _render_batch, conn.deliver, count,
            tenant, frame.trace_id, reserved,
        )
        reply.trace_ids = batch.trace_ids
        reply.offsets = batch.offsets.tolist()
        reply.serve(
            self.admission.admit_many(tenant, count, reserved=reserved),
            _submit_batch, self.engine, batch,
            frame.deadline_ns / 1e9 if frame.deadline_ns else None,
        )
