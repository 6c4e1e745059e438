"""Multi-tenant, multi-worker serving engine with live-recovery snapshots.

:class:`ServingEngine` owns the shared-memory substrate (per-tenant
control blocks, request payload ring, exported bound codebooks,
packed-model generations) and a pool of worker processes running
:func:`repro.serve.worker.worker_main`.  The canonical client surface is
one call:

* :meth:`ServingEngine.submit` — takes a :class:`ServeRequest` (encoded
  words or raw features, deadline, tenant, client trace id) and returns
  a :class:`ServeFuture`.  The ring is the bounded buffer: when every
  slot is in flight, submit blocks (bounded by ``backpressure_timeout``)
  and then raises :class:`Backpressure` — load is shed at the front
  door, not by unbounded queueing.

The future is the request's only handle.  The engine tracks a request
only while it is unresolved and forgets it the moment it resolves, so
per-request bookkeeping is constant-time and nothing accumulates however
many requests a long-lived engine serves.

Requests are *frame-batched*: submits accumulate into one queue message
(default 8 requests) so the per-message IPC cost — the dominant per-item
cost at micro-batch sizes — is amortised; workers then coalesce multiple
frames into a single packed distance computation per tenant.

Every engine serves through a :class:`~repro.serve.shard.ShardPlan`: an
unsharded engine gives each tenant the one-shard plan
``ShardPlan.by_class(num_classes, 1)``.  Each frame goes to one live
replica of every shard, each replica posts its plan's ``reply`` rows for
the frame, and the collector resolves the frame once every shard has
replied on one generation, through the plan's ``combine``.

**Multi-tenant serving** hangs off a
:class:`~repro.serve.registry.TenantRegistry`: each tenant is an
independent model with its own control block and
:class:`~repro.serve.shm.GenerationPublisher` stream
(:meth:`ServingEngine.publisher_for`), so a live recovery pass
hot-swaps one tenant's generations without touching any other tenant's
snapshots.  A bare model still works — it becomes the single
``"default"`` tenant, and :attr:`ServingEngine.publisher` keeps meaning
that tenant's publisher.

Live recovery plugs in through those publishers (each satisfies
:class:`repro.core.recovery.ModelPublisher`): pass one to
:meth:`repro.core.pipeline.RecoveryExperiment.attack_and_recover` and
every repaired model version is snapshotted as a new immutable
generation that workers adopt between batches.  Requests submitted after
a publish returns are always served on that generation or newer — which
is what makes a concurrent attack-and-recover run bit-identical to its
sequential reference, per tenant.

The worker pool is elastic: :meth:`ServingEngine.add_worker` spawns and
attaches a new worker live, :meth:`ServingEngine.remove_worker` retires
one gracefully (it drains, then exits; its unserved frames re-route to
survivors).  :class:`~repro.serve.autoscale.WorkerAutoscaler` drives
both from the ``serve.fleet.*`` telemetry, bounded by
``ServeConfig.min_workers`` / ``max_workers``.

With telemetry enabled (the default) the engine also owns one
shared-memory telemetry slab per worker (:mod:`repro.obs.telemetry`),
scraped through :attr:`ServingEngine.telemetry` /
:meth:`ServingEngine.scrape_telemetry`, with crash post-mortems through
:attr:`ServingEngine.flight_recorder` and monotonic ``trace_id``
correlation against recovery publishes
(:func:`repro.obs.telemetry.correlate`).
"""

from __future__ import annotations

import multiprocessing as mp
import threading
import time
import weakref
from dataclasses import KW_ONLY, dataclass
from multiprocessing import connection

import numpy as np

from repro.core.encoder import Encoder
from repro.core.model import HDCClassifier, HDCModel
from repro.obs.metrics import current as _metrics
from repro.obs.telemetry import (
    FlightRecorder,
    TelemetryAggregator,
    TelemetrySlabReader,
    slab_words,
)
from repro.obs.trace import ServeBatchEvent, ServeTrace
from repro.serve.registry import DEFAULT_TENANT, TenantRegistry
from repro.serve.shard import ShardPlan
from repro.serve.shm import (
    ControlBlock,
    GenerationPublisher,
    ShmArray,
    tenant_prefix,
    unique_name,
)
from repro.serve.worker import PAYLOAD_FEATURES, PAYLOAD_PACKED, worker_main

__all__ = [
    "Backpressure",
    "ServeConfig",
    "ServeFuture",
    "ServeRequest",
    "ServeResult",
    "ServingEngine",
    "TenantSlot",
]


class Backpressure(RuntimeError):
    """Raised when no ring slot frees up within the backpressure timeout."""


@dataclass(frozen=True)
class TenantSlot:
    """One tenant's share of the engine's shared-memory geometry.

    Pickled into workers as part of :class:`ServeConfig`; everything a
    worker needs to attach this tenant's control block, codebook and
    generation segments by name.  ``shard_plan`` is how the tenant's
    model splits across workers — ``ShardPlan.by_class(num_classes, 1)``
    when it is not sharded.
    """

    _: KW_ONLY
    index: int
    tenant_id: str
    prefix: str
    control_name: str
    dim: int
    num_classes: int
    shard_plan: ShardPlan
    codebook_name: str | None = None
    num_features: int = 0
    levels: int = 0
    low: float = 0.0
    high: float = 1.0

    @property
    def words(self) -> int:
        """Packed uint64 words per hypervector row."""
        return -(-self.dim // 64)


def _config_error(name: str, message: str) -> ValueError:
    return ValueError(f"ServeConfig.{name} {message}")


@dataclass(frozen=True, kw_only=True)
class ServeConfig:
    """Everything a worker needs to attach to the engine's shared state.

    Keyword-only and validated: every constraint violation raises a
    :class:`ValueError` that names the offending field.  Pickled once
    into each worker at spawn; all mutable coordination happens through
    the control blocks and the queues, never through this.
    """

    prefix: str
    ring_name: str
    ring_slots: int
    slot_bytes: int
    coalesce_requests: int
    stall_ns: int
    tenants: tuple[TenantSlot, ...] = ()
    # Telemetry-slab geometry: workers attach {telemetry_prefix}-w{id}
    # writable when a prefix is set; None disables worker telemetry.
    telemetry_prefix: str | None = None
    flight_slots: int = 0
    # Elastic worker-pool bounds enforced by add_worker/remove_worker
    # (and hence the autoscaler).
    min_workers: int = 1
    max_workers: int | None = None

    def __post_init__(self) -> None:
        if not self.prefix:
            raise _config_error("prefix", "must be a non-empty string")
        if self.ring_slots < 1:
            raise _config_error(
                "ring_slots", f"must be >= 1, got {self.ring_slots}"
            )
        if self.slot_bytes < 8 or self.slot_bytes % 8:
            raise _config_error(
                "slot_bytes",
                f"must be a positive multiple of 8, got {self.slot_bytes}",
            )
        if self.coalesce_requests < 1:
            raise _config_error(
                "coalesce_requests",
                f"must be >= 1, got {self.coalesce_requests}",
            )
        if self.stall_ns < 0:
            raise _config_error(
                "stall_ns", f"must be >= 0, got {self.stall_ns}"
            )
        if not self.tenants:
            raise _config_error("tenants", "must name at least one tenant")
        if self.flight_slots < 0:
            raise _config_error(
                "flight_slots", f"must be >= 0, got {self.flight_slots}"
            )
        if len(self.tenants) > 1 and any(
            slot.shard_plan != ShardPlan.by_class(slot.num_classes, 1)
            for slot in self.tenants
        ):
            raise _config_error(
                "tenants",
                "sharded serving supports a single tenant; got "
                f"{len(self.tenants)} tenants with a sharded plan",
            )
        if self.min_workers < 1:
            raise _config_error(
                "min_workers", f"must be >= 1, got {self.min_workers}"
            )
        if self.max_workers is not None and self.max_workers < self.min_workers:
            raise _config_error(
                "max_workers",
                f"must be >= min_workers ({self.min_workers}), "
                f"got {self.max_workers}",
            )

    def shard_of(self, worker_id: int) -> int:
        """The shard worker ``worker_id`` serves (its residue).

        Every tenant's plan has the same shard count: only a
        single-tenant engine is sharded.
        """
        return worker_id % self.tenants[0].shard_plan.num_shards


@dataclass(frozen=True)
class ServeRequest:
    """One request on the unified submit surface.

    ``payload`` is either packed query words ``(n, words)`` uint64
    (``features=False``) or raw feature rows ``(n, num_features)``
    float (``features=True``, needs the tenant to have an encoder).
    ``deadline`` is seconds from submit; ``tenant`` defaults to the
    engine's first tenant; ``trace_id`` is an optional *client*
    correlation id echoed on the returned future (the engine always
    assigns its own monotonic internal trace id for telemetry
    correlation).
    """

    payload: np.ndarray
    _: KW_ONLY
    features: bool = False
    deadline: float | None = None
    tenant: str | None = None
    trace_id: int | None = None


class ServeFuture:
    """The one handle to a submitted :class:`ServeRequest`, and its state.

    The future carries the request's state: its ring slot, result, wait
    event and done callbacks.  Ownership rule: the engine references a
    request only until it resolves — resolution frees the slot and drops
    the engine's entry — so from then on the future is the only handle;
    drop it and the request is gone.  Nothing looks a request up by
    ``request_id``, which stays only as a correlation id (worker flight
    events, :class:`ServeResult`).

    ``result()`` blocks for the terminal :class:`ServeResult` and is
    repeatable.  ``add_done_callback`` registers a ``fn(result)``
    invoked exactly once: immediately if the request has already
    resolved, otherwise from an engine collector thread, so callbacks
    must be quick and non-blocking (the gateway uses
    ``loop.call_soon_threadsafe``).

    The wait event is allocated lazily, only when a caller blocks before
    the request resolves: the common windowed-client pattern finds
    results already in, and a ``threading.Event`` per submit is a
    measurable share of the per-request cost.  ``_callbacks`` likewise
    starts None.  The engine mutates this state under its lock.
    """

    __slots__ = ("_callbacks", "_engine", "_event", "_result", "_slot",
                 "client_trace_id", "request_id", "tenant")

    def __init__(
        self,
        engine: "ServingEngine",
        request_id: int,
        slot: int,
        *,
        tenant: str,
        client_trace_id: int | None = None,
    ) -> None:
        self._engine = engine
        self.request_id = request_id
        self.tenant = tenant
        self.client_trace_id = client_trace_id
        self._slot = slot
        self._result: ServeResult | None = None
        self._event: threading.Event | None = None
        self._callbacks: list | None = None

    def done(self) -> bool:
        return self._result is not None

    def result(self, timeout: float | None = 30.0) -> "ServeResult":
        engine = self._engine
        if self._result is None:
            # The engine resolves under its lock, so after this block
            # either the result is in or an event exists for it to set.
            with engine._lock:
                if self._result is None and self._event is None:
                    self._event = threading.Event()
            if self._result is None and not self._event.wait(timeout):
                raise TimeoutError(
                    f"request {self.request_id} unresolved after {timeout}s"
                    + (
                        f" (worker errors: {engine._worker_errors})"
                        if engine._worker_errors
                        else ""
                    )
                )
        # A collector resolves a whole worker batch in one lock hold and
        # records the batch's trace event at the end of it; returning
        # through the lock means a caller always finds the batch that
        # served it in ``engine.trace``.
        with engine._lock:
            return self._result

    def add_done_callback(self, fn) -> None:
        with self._engine._lock:
            if self._result is None:
                if self._callbacks is None:
                    self._callbacks = []
                self._callbacks.append(fn)
                return
        fn(self._result)

    def _set_result(self, result: "ServeResult") -> None:
        """Settle the future (the engine holds its lock)."""
        self._result = result
        if self._event is not None:
            self._event.set()
        if self._callbacks:
            callbacks, self._callbacks = self._callbacks, None
            for fn in callbacks:
                try:
                    fn(result)
                except Exception:  # pragma: no cover - callback hygiene
                    pass

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        state = "done" if self.done() else "pending"
        return (
            f"ServeFuture(request_id={self.request_id}, "
            f"tenant={self.tenant!r}, {state})"
        )


@dataclass(frozen=True)
class ServeResult:
    """Terminal state of one request."""

    request_id: int
    predictions: np.ndarray | None
    expired: bool

    @property
    def ok(self) -> bool:
        return self.predictions is not None


class ServingEngine:
    """Concurrent packed-model serving across worker processes.

    Parameters
    ----------
    model:
        What to serve: an :class:`~repro.core.model.HDCModel`, a fitted
        :class:`~repro.core.model.HDCClassifier` (whose encoder is
        adopted unless ``encoder`` overrides it), or a
        :class:`~repro.serve.registry.TenantRegistry` hosting many of
        them.  Each tenant's current packed snapshot becomes its
        generation 1.
    encoder:
        Optional :class:`~repro.core.encoder.Encoder` for the bare-model
        form; with a registry, encoders are per-tenant and this must be
        None.
    num_workers:
        Initial worker process count (the pool is elastic between
        ``min_workers`` and ``max_workers``).
    ring_slots:
        Bound on concurrently in-flight requests (the backpressure
        limit).
    max_queries_per_request:
        Ring-slot capacity in query rows.
    frame_requests:
        Requests accumulated into one queue message before auto-flush.
    coalesce_requests:
        Upper bound on requests a worker folds into one batch.
    backpressure_timeout:
        Seconds :meth:`submit` waits for a free slot before raising
        :class:`Backpressure`; ``None`` waits forever.
    stall_timeout:
        Writer-heartbeat age (seconds) beyond which workers mark batches
        ``degraded``.
    telemetry / flight_slots:
        Per-worker shared-memory telemetry slabs (see
        :mod:`repro.obs.telemetry`); recording is RNG-free and
        batch-granular, so telemetry on vs off is bit-identical.
    shard_plan:
        Optional :class:`~repro.serve.shard.ShardPlan` (single-tenant
        engines only).  Worker ``w`` serves shard ``w % num_shards``.
        Without one, every tenant is served through its one-shard plan
        ``ShardPlan.by_class(num_classes, 1)``.
    min_workers / max_workers:
        Elastic-pool bounds for :meth:`add_worker` /
        :meth:`remove_worker` (and the autoscaler).  ``max_workers``
        defaults to unbounded.
    """

    def __init__(
        self,
        model: HDCModel | HDCClassifier | TenantRegistry,
        *,
        encoder: Encoder | None = None,
        num_workers: int = 2,
        ring_slots: int = 64,
        max_queries_per_request: int = 64,
        frame_requests: int = 8,
        coalesce_requests: int = 64,
        backpressure_timeout: float | None = None,
        stall_timeout: float = 2.0,
        telemetry: bool = True,
        flight_slots: int = 256,
        shard_plan: ShardPlan | None = None,
        min_workers: int = 1,
        max_workers: int | None = None,
    ) -> None:
        if isinstance(model, TenantRegistry):
            if encoder is not None:
                raise ValueError(
                    "encoder is per-tenant when serving a TenantRegistry; "
                    "pass it to TenantRegistry.add instead"
                )
            registry = model
        else:
            registry = TenantRegistry.single(
                DEFAULT_TENANT, model, encoder=encoder
            )
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        if ring_slots < 1:
            raise ValueError(f"ring_slots must be >= 1, got {ring_slots}")
        if max_queries_per_request < 1:
            raise ValueError(
                "max_queries_per_request must be >= 1, "
                f"got {max_queries_per_request}"
            )
        tenants = registry._attach()
        self.registry = registry
        if shard_plan and len(tenants) > 1:
            raise ValueError(
                "shard_plan requires a single-tenant engine; got "
                f"{len(tenants)} tenants"
            )
        plans = [
            shard_plan or ShardPlan.by_class(tenant.model.num_classes, 1)
            for tenant in tenants
        ]
        for tenant, plan in zip(tenants, plans):
            plan.validate(tenant.model.num_classes, tenant.model.dim)
        num_shards = plans[0].num_shards
        if num_workers % num_shards:
            raise ValueError(
                f"num_workers ({num_workers}) must be a multiple of "
                f"num_shards ({num_shards}) so every shard has equal "
                "replicas"
            )
        # One plan combines every frame: a sharded engine has one
        # tenant, and one-shard class plans all combine alike.
        self._plan = plans[0]
        self.model = tenants[0].model
        self.encoder = tenants[0].encoder
        self.dim = self.model.dim
        self.num_classes = self.model.num_classes
        self.max_queries_per_request = max_queries_per_request
        self.backpressure_timeout = backpressure_timeout
        self.trace = ServeTrace()
        self._stopped = False
        self._stop_lock = threading.Lock()
        self._worker_errors: list[tuple[int, str]] = []

        prefix = unique_name()
        self._owned_segments: list[ShmArray] = []
        self._controls: list[ControlBlock] = []
        self._publishers: list[GenerationPublisher] = []
        self._tenant_index: dict[str, int] = {}
        self._next_trace_id = 0
        slot_words = 0
        tenant_slots: list[TenantSlot] = []
        for i, (tenant, plan) in enumerate(zip(tenants, plans)):
            packed = tenant.model.packed()
            words = packed.words.shape[1]
            slot_words = max(slot_words, max_queries_per_request * words)
            t_prefix = tenant_prefix(prefix, i)
            codebook_name = None
            num_features = 0
            levels = 0
            low = 0.0
            high = 1.0
            if tenant.encoder is not None:
                codebook_name = f"{t_prefix}-codebook"
                self._owned_segments.append(ShmArray.create(
                    codebook_name, tenant.encoder.packed_codebook().words
                ))
                num_features = tenant.encoder.num_features
                levels = tenant.encoder.levels
                low = tenant.encoder.low
                high = tenant.encoder.high
                slot_words = max(
                    slot_words, max_queries_per_request * num_features
                )
            control = ControlBlock.create(f"{t_prefix}-control")
            publisher = GenerationPublisher(
                t_prefix, control, plan, trace_source=self._last_trace_id,
            )
            publisher.publish_packed(packed)  # generation 1
            # No recovery writer is running yet: deregister so an idle
            # serving-only engine never trips the stall detector.  The
            # next publish()/touch() (a recovery loop starting)
            # re-registers.
            publisher.end_writing()
            self._controls.append(control)
            self._publishers.append(publisher)
            self._tenant_index[tenant.tenant_id] = i
            tenant_slots.append(TenantSlot(
                index=i,
                tenant_id=tenant.tenant_id,
                prefix=t_prefix,
                control_name=control.name,
                dim=packed.dim,
                num_classes=packed.num_classes,
                shard_plan=plan,
                codebook_name=codebook_name,
                num_features=num_features,
                levels=levels,
                low=low,
                high=high,
            ))
        self.tenants = tuple(slot.tenant_id for slot in tenant_slots)

        ring_name = f"{prefix}-ring"
        self._ring = ShmArray.zeros(
            ring_name, (ring_slots, slot_words), np.uint64
        )
        self._owned_segments.append(self._ring)

        # Telemetry slabs: engine-owned (so flight rings survive worker
        # SIGKILL), one per worker, workers attach writable.  Workers
        # added later get their slab from _make_telemetry_slab.
        telemetry_prefix = f"{prefix}-telemetry" if telemetry else None
        self._telemetry_prefix = telemetry_prefix
        self._flight_slots = flight_slots if telemetry else 0
        self.telemetry: TelemetryAggregator | None = None
        self.flight_recorder: FlightRecorder | None = None
        if telemetry:
            self.telemetry = TelemetryAggregator({})
            self.flight_recorder = FlightRecorder({})

        self.config = ServeConfig(
            prefix=prefix,
            ring_name=ring_name,
            ring_slots=ring_slots,
            slot_bytes=slot_words * 8,
            coalesce_requests=coalesce_requests,
            stall_ns=int(stall_timeout * 1e9),
            tenants=tuple(tenant_slots),
            telemetry_prefix=telemetry_prefix,
            flight_slots=self._flight_slots,
            min_workers=min_workers,
            max_workers=max_workers,
        )

        self._ctx = mp.get_context("fork")
        # One private request queue per worker: frames are round-robined
        # across them and a dead worker's unserved frames re-routed to
        # survivors.  A shared queue would let a SIGKILLed worker die
        # holding the queue's reader lock and wedge every sibling.
        # Results are per-worker queues too, for the write-side mirror
        # of the same hazard.
        self._queues: list = []
        self._result_qs: list = []
        self._free_slots = list(range(ring_slots))
        self._slot_sem = threading.Semaphore(ring_slots)
        self._lock = threading.Lock()
        self._next_request_id = 0
        # Unresolved requests only: resolution pops the entry, leaving
        # the future as the request's sole owner.
        self._pending: dict[int, ServeFuture] = {}
        self._dead: set[int] = set()
        self._retiring: set[int] = set()
        self._outbox: list[tuple] = []
        self._frame_requests = max(1, frame_requests)
        # Load-aware dispatch state: requests outstanding per worker
        # (incremented per dispatched frame entry, decremented as its
        # replies arrive) — the same queue-depth quantity the
        # ``serve.fleet.shard*`` telemetry reports, tracked engine-side
        # so picking a replica never races a slab scrape.
        self._depth: list[int] = []
        self._replicas: dict[int, list[int]] = {
            s: [] for s in range(num_shards)
        }
        self._rr = {s: 0 for s in range(num_shards)}
        # Dispatched frames awaiting a reply from every shard, by frame
        # seq: {"entries", "workers": {shard: worker}, "replies"}.
        self._next_frame_seq = 0
        self._frames: dict[int, dict] = {}

        self.workers: list = []
        self._collectors: list[threading.Thread] = []
        # Initial workers fork before the collector threads start, so
        # the children never inherit a half-held thread state.
        for _ in range(num_workers):
            self._spawn_worker(start_collector=False)
        for worker in self.workers:
            worker.start()
        for i in range(num_workers):
            self._start_collector(i)
        self._monitor = threading.Thread(
            target=self._watch_workers, name="repro-serve-monitor",
            daemon=True,
        )
        self._monitor.start()
        self._finalizer = weakref.finalize(
            self,
            _emergency_cleanup,
            self.workers,
            self._owned_segments,
            self._publishers,
            self._controls,
        )

    def _last_trace_id(self) -> int:
        """The most recently assigned trace id (-1 before any submit).

        Wired into every tenant publisher as its ``trace_source``: each
        generation publish is stamped with this value, so every request
        submitted afterwards (a strictly greater trace id) is known to
        be served on that generation or newer.
        """
        return self._next_trace_id - 1

    # ------------------------------------------------------------------
    # Tenants
    # ------------------------------------------------------------------

    @property
    def publisher(self) -> GenerationPublisher:
        """The first tenant's publisher (single-tenant back-compat)."""
        return self._publishers[0]

    def publisher_for(self, tenant: str) -> GenerationPublisher:
        """The :class:`GenerationPublisher` of one tenant's stream.

        Hand it to a recovery pass to hot-swap that tenant's model live
        without touching any other tenant.
        """
        return self._publishers[self._require_tenant(tenant)]

    def _require_tenant(self, tenant: str | None) -> int:
        if tenant is None:
            return 0
        index = self._tenant_index.get(tenant)
        if index is None:
            raise KeyError(
                f"unknown tenant {tenant!r}; engine hosts {self.tenants}"
            )
        return index

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def submit(
        self,
        request: ServeRequest,
        *,
        deadline: float | None = None,
        flush: bool = True,
    ) -> ServeFuture:
        """Enqueue one :class:`ServeRequest`; returns its :class:`ServeFuture`.

        ``flush=False`` leaves the request in the current frame so
        callers issuing many submits amortise the queue hand-off (the
        frame auto-flushes every ``frame_requests`` submits; call
        :meth:`flush` after the last one).
        """
        if not isinstance(request, ServeRequest):
            raise TypeError(
                "submit() takes a ServeRequest; wrap query words as "
                f"ServeRequest(words), got {type(request).__name__}"
            )
        if deadline is not None:
            raise TypeError(
                "deadline belongs on the ServeRequest, not submit()"
            )
        return self._enqueue([request], flush=flush)[0]

    def submit_many(self, requests) -> list[ServeFuture]:
        """Bulk submit: many :class:`ServeRequest`\\ s, one dispatch frame.

        The batched fast path the gateway's ``SUBMIT_BATCH`` frames ride:
        payloads are validated per request, but ring slots, request ids
        and trace ids are allocated under **one** lock acquisition and
        the whole batch leaves as a single queue frame — the per-submit
        lock/dispatch cost is paid once per batch instead of once per
        request.  Returns one :class:`ServeFuture` per request, in
        order.

        The batch must fit the ring (``len(requests) <= ring_slots``);
        callers that meter admission against ring capacity (the gateway)
        satisfy this by construction.
        """
        if not requests:
            return []
        if len(requests) > self.config.ring_slots:
            raise ValueError(
                f"batch of {len(requests)} exceeds ring capacity "
                f"{self.config.ring_slots}; split it"
            )
        return self._enqueue(requests, flush=True)

    def _enqueue(self, requests, *, flush: bool) -> list[ServeFuture]:
        """The one allocation path behind every submit.

        Validates each payload, takes one ring slot per request (all or
        none, each wait bounded by ``backpressure_timeout``), then under
        one lock acquisition gives each request its ids, writes its
        payload into the ring, creates its future and appends its frame
        entry to the outbox.  The outbox (including anything
        frame-batched earlier) is dispatched when ``flush`` is set or it
        has reached ``frame_requests`` entries.
        """
        if self._stopped:
            raise RuntimeError("engine is stopped")
        prepared = []  # (payload_words, kind, deadline_ns, tenant_idx, ...)
        now_ns = time.monotonic_ns()
        for request in requests:
            tenant_idx = self._require_tenant(request.tenant)
            payload_words, kind = self._check_payload(request, tenant_idx)
            deadline_ns = (
                now_ns + int(request.deadline * 1e9)
                if request.deadline else 0
            )
            prepared.append(
                (payload_words, kind, deadline_ns, tenant_idx,
                 request.trace_id)
            )
        for acquired in range(len(prepared)):
            if not self._slot_sem.acquire(timeout=self.backpressure_timeout):
                for _ in range(acquired):
                    self._slot_sem.release()
                metrics = _metrics()
                if metrics.enabled:
                    metrics.inc("serve.backpressure_rejections")
                raise Backpressure(
                    f"no free request slot within "
                    f"{self.backpressure_timeout}s "
                    f"({self.config.ring_slots} in flight)"
                )
        futures: list[ServeFuture] = []
        n_queries_total = 0
        with self._lock:
            for (payload_words, kind, deadline_ns, tenant_idx,
                 client_trace_id) in prepared:
                slot = self._free_slots.pop()
                request_id = self._next_request_id
                self._next_request_id += 1
                # Monotonic trace id, stamped on the request frame and
                # carried through worker batches into ServeBatchEvent —
                # the join key for recovery-vs-traffic correlation.
                trace_id = self._next_trace_id
                self._next_trace_id += 1
                flat = payload_words.reshape(-1)
                self._ring.array[slot, : flat.shape[0]] = flat
                future = ServeFuture(
                    self, request_id, slot,
                    tenant=self.tenants[tenant_idx],
                    client_trace_id=client_trace_id,
                )
                self._pending[request_id] = future
                self._outbox.append(
                    (request_id, slot, payload_words.shape[0], deadline_ns,
                     kind, trace_id, tenant_idx)
                )
                n_queries_total += payload_words.shape[0]
                futures.append(future)
            should_flush = flush or len(self._outbox) >= self._frame_requests
            frame = self._take_outbox() if should_flush else None
        if frame:
            self._dispatch(frame)
        metrics = _metrics()
        if metrics.enabled:
            metrics.inc("serve.requests", len(prepared))
            metrics.inc("serve.queries", n_queries_total)
        return futures

    def _check_payload(
        self, request: ServeRequest, tenant_idx: int
    ) -> tuple[np.ndarray, int]:
        """Validate one request's payload against its tenant's geometry.

        Returns ``(payload_words, kind)`` where ``payload_words`` is the
        uint64 view the ring stores — a zero-copy view whenever the
        payload is already contiguous with the right dtype.
        """
        slot_cfg = self.config.tenants[tenant_idx]
        if request.features:
            if slot_cfg.codebook_name is None:
                raise ValueError(
                    f"tenant {slot_cfg.tenant_id!r}: feature requests need "
                    "an engine built with an encoder"
                )
            payload = np.ascontiguousarray(request.payload, dtype=np.float64)
            if (payload.ndim != 2
                    or payload.shape[1] != slot_cfg.num_features):
                raise ValueError(
                    f"expected (n, {slot_cfg.num_features}) features, "
                    f"got {payload.shape}"
                )
            payload_words = payload.view(np.uint64)
            kind = PAYLOAD_FEATURES
        else:
            payload_words = np.ascontiguousarray(
                request.payload, dtype=np.uint64
            )
            if (payload_words.ndim != 2
                    or payload_words.shape[1] != slot_cfg.words):
                raise ValueError(
                    f"expected (n, {slot_cfg.words}) query words, "
                    f"got {payload_words.shape}"
                )
            kind = PAYLOAD_PACKED
        n_queries = payload_words.shape[0]
        if n_queries < 1 or n_queries > self.max_queries_per_request:
            raise ValueError(
                f"request must carry 1..{self.max_queries_per_request} "
                f"queries, got {n_queries}"
            )
        return payload_words, kind

    def _take_outbox(self) -> list[tuple]:
        frame, self._outbox = self._outbox, []
        return frame

    def flush(self) -> None:
        """Dispatch any frame-batched requests still waiting locally."""
        with self._lock:
            frame = self._take_outbox()
        if frame:
            self._dispatch(frame)

    @property
    def in_flight(self) -> int:
        """Requests submitted but not yet resolved (gateway queue depth)."""
        return len(self._pending)

    def _dispatch(self, frame: list[tuple]) -> None:
        """Send one frame to a live replica of every shard, and track it.

        Each replica posts its shard's reply rows and the collector
        combines the full set — one reply under a one-shard plan.  The
        frame stays in ``_frames`` until it resolves, which is what lets
        :meth:`_handle_worker_death` re-route a crashed worker's
        unanswered frames: request payloads still sit in the ring (slots
        are freed only on resolution), so a survivor can serve them from
        the same slots.  A shard with no live replica fails the frame's
        requests at once.
        """
        with self._lock:
            targets: dict[int, int] = {}
            for shard in self._replicas:
                worker = self._pick_replica(shard)
                if worker is None:
                    self._fail_requests([entry[0] for entry in frame])
                    return
                targets[shard] = worker
            frame_seq = self._next_frame_seq
            self._next_frame_seq += 1
            for worker in targets.values():
                self._depth[worker] += len(frame)
            self._frames[frame_seq] = {
                "entries": frame, "workers": targets, "replies": {},
            }
        for worker in targets.values():
            self._queues[worker].put((frame_seq, frame))

    def _pick_replica(self, shard: int) -> int | None:
        """Least-loaded live replica of a shard (caller holds the lock).

        Depth is outstanding requests (see ``_depth``); ties break
        round-robin so equal-load replicas still alternate.  Retiring
        workers (graceful scale-down) take no new frames.
        """
        replicas = self._replicas[shard]
        if not replicas:
            return None
        start = self._rr[shard] % len(replicas)
        self._rr[shard] += 1
        best = None
        for i in range(len(replicas)):
            worker = replicas[(start + i) % len(replicas)]
            if worker in self._dead or worker in self._retiring:
                continue
            if best is None or self._depth[worker] < self._depth[best]:
                best = worker
        return best

    def _resolve_locked(
        self,
        request_id: int,
        *,
        predictions: np.ndarray | None,
        expired: bool,
        release_slot: bool = True,
    ) -> bool:
        """Resolve one live request and forget it (caller holds the lock).

        Pops the request from ``_pending`` — from here on its future is
        the only handle — releases its ring slot, then settles the
        future: wakes blocked waiters and fires done callbacks (which
        must be non-blocking — the gateway only hops onto its event
        loop).  Returns False when the request is not live: already
        resolved (e.g. served twice because a crashed worker's batch was
        re-routed and the original result arrived late anyway) or
        unknown.
        """
        future = self._pending.pop(request_id, None)
        if future is None:
            return False
        if release_slot:
            self._free_slots.append(future._slot)
            self._slot_sem.release()
        future._set_result(ServeResult(
            request_id=request_id, predictions=predictions, expired=expired
        ))
        return True

    def _fail_requests(self, request_ids) -> None:
        """Resolve requests as expired (caller holds the lock)."""
        for request_id in request_ids:
            self._resolve_locked(request_id, predictions=None, expired=True)

    # ------------------------------------------------------------------
    # Collector
    # ------------------------------------------------------------------

    def _collect(self, worker_idx: int) -> None:
        """Drain one worker's result queue (one thread per worker).

        Per-worker collectors mean a worker killed mid-message can stall
        only its own (now-useless) stream; all shared mutation below is
        serialised by ``self._lock`` regardless of which thread runs it.
        A message is one worker batch: per frame, the requests served (in
        reply-row order) and those found expired, plus one reply array
        holding every served row.  The batch is resolved and traced in
        one lock hold.
        """
        metrics = _metrics()
        while True:
            message = self._result_qs[worker_idx].get()
            if message is None:
                return
            if message[0] == "error":
                _, worker_id, tb = message
                self._worker_errors.append((worker_id, tb))
                if metrics.enabled:
                    metrics.inc("serve.worker_errors")
                continue
            _, worker_id, frames, rows, event_dict = message
            # The batch event names the replying shard and the
            # generation it served on.
            shard = event_dict["shard"]
            generation = event_dict["generation"]
            refire: list[tuple[int, list, int]] = []
            with self._lock:
                self._depth[worker_id] -= event_dict["requests"]
                offset = 0
                for frame_seq, served, expired in frames:
                    end = offset + sum(n for _, n in served)
                    frame = self._frames.get(frame_seq)
                    if frame is not None:
                        frame["replies"][shard] = (
                            generation, served, expired, rows[offset:end]
                        )
                        if len(frame["replies"]) == len(self._replicas):
                            self._combine_frame(
                                frame_seq, frame, refire, metrics
                            )
                    offset = end
                self._record_batch_locked(event_dict, metrics)
            for frame_seq, entries, worker in refire:
                self._queues[worker].put((frame_seq, entries))

    def _record_batch_locked(self, event_dict: dict, metrics) -> None:
        """Trace and meter one worker batch (caller holds the lock).

        Runs after the batch's requests have resolved: ``queue_depth``
        is the count of requests still live.
        """
        event = ServeBatchEvent(**event_dict, queue_depth=len(self._pending))
        self.trace.record(event)
        if not metrics.enabled:
            return
        metrics.inc("serve.batches")
        metrics.gauge("serve.queue_depth", event.queue_depth)
        metrics.gauge("serve.staleness_s", event.staleness_s)
        if event.adopted:
            metrics.inc("serve.adoptions")
            metrics.observe("serve.adoption_lag_s", event.adoption_lag_s)
        if event.degraded:
            metrics.inc("serve.degraded_batches")

    def _combine_frame(self, frame_seq, frame, refire, metrics) -> None:
        """Resolve a frame with a reply from every shard (lock held).

        A frame resolves only once every shard has replied *on the same
        generation*: combining across generations would mix model
        snapshots and break the live-recovery bit-identity contract.
        When replies disagree, the laggards (generations are monotonic,
        so the stale ones) are re-dispatched — appended to ``refire`` as
        ``(frame_seq, entries, worker)`` for the caller to put outside
        the lock; their replicas adopt the newest generation before
        re-serving, so the retry converges.
        """
        replies = frame["replies"]
        entries = frame["entries"]
        newest = max(reply[0] for reply in replies.values())
        stale = [s for s, reply in replies.items() if reply[0] < newest]
        if stale:
            workers = [self._pick_replica(shard) for shard in stale]
            if None in workers:
                # A shard lost its last replica: the frame can never
                # complete.
                self._fail_requests([entry[0] for entry in entries])
                del self._frames[frame_seq]
                return
            for shard, worker in zip(stale, workers):
                del replies[shard]
                frame["workers"][shard] = worker
                self._depth[worker] += len(entries)
                refire.append((frame_seq, entries, worker))
            if metrics.enabled:
                metrics.inc("serve.shard_redispatches", len(stale))
            return
        shards = sorted(replies)
        _, served, expired, _ = replies[shards[0]]
        tables = [replies[s][3] for s in shards]
        if any(replies[s][1] != served for s in shards[1:]):
            # Deadline checks diverged across shards: only requests
            # every shard served can combine; the rest expire.
            keep = set.intersection(
                *({req_id for req_id, _ in replies[s][1]} for s in shards)
            )
            served = [(req_id, n) for req_id, n in served if req_id in keep]
            expired = [entry[0] for entry in entries if entry[0] not in keep]
            tables = [
                _rows_of(replies[s][1], replies[s][3], keep) for s in shards
            ]
        if served:
            predictions = self._plan.combine(tables)
            offset = 0
            for req_id, n in served:
                self._resolve_locked(
                    req_id,
                    predictions=predictions[offset:offset + n],
                    expired=False,
                )
                offset += n
        self._fail_requests(expired)
        del self._frames[frame_seq]
        if metrics.enabled:
            metrics.inc("serve.frames_combined")
            if expired:
                metrics.inc("serve.deadline_expired", len(expired))

    # ------------------------------------------------------------------
    # Worker pool (spawn / retire / liveness)
    # ------------------------------------------------------------------

    def _spawn_worker(self, start_collector: bool = True) -> int:
        """Create queues, telemetry slab and process for one new worker.

        ``start_collector=False`` is the construction-time path: initial
        workers fork before any collector thread exists (children must
        not inherit a half-held thread state), then the engine starts
        processes and collectors in bulk.  Live additions start
        everything here.
        """
        idx = len(self.workers)
        q = self._ctx.Queue()
        rq = self._ctx.Queue()
        self._queues.append(q)
        self._result_qs.append(rq)
        if self._telemetry_prefix is not None:
            slab = ShmArray.zeros(
                f"{self._telemetry_prefix}-w{idx}",
                (slab_words(self._flight_slots),),
                np.uint64,
            )
            self._owned_segments.append(slab)
            reader = TelemetrySlabReader(slab.array)
            self.telemetry.add_reader(idx, reader)
            self.flight_recorder.add_reader(idx, reader)
        worker = self._ctx.Process(
            target=worker_main,
            args=(idx, self.config, q, rq),
            daemon=True,
            name=f"repro-serve-worker-{idx}",
        )
        self.workers.append(worker)
        with self._lock:
            self._depth.append(0)
            self._replicas[self.config.shard_of(idx)].append(idx)
        if start_collector:
            worker.start()
            self._start_collector(idx)
        return idx

    def _start_collector(self, idx: int) -> None:
        collector = threading.Thread(
            target=self._collect, args=(idx,),
            name=f"repro-serve-collector-{idx}", daemon=True,
        )
        self._collectors.append(collector)
        collector.start()

    @property
    def live_workers(self) -> int:
        """Workers accepting new frames (not dead, not retiring)."""
        with self._lock:
            return sum(
                1 for i in range(len(self.workers))
                if i not in self._dead and i not in self._retiring
            )

    def add_worker(self) -> int:
        """Spawn and attach one more worker live; returns its index.

        Bounded by ``ServeConfig.max_workers``.  The new worker attaches
        the existing shared segments and starts taking frames as soon as
        the dispatcher sees it (its load-aware depth starts at zero, so
        it naturally absorbs queued pressure).
        """
        if self._stopped:
            raise RuntimeError("engine is stopped")
        maximum = self.config.max_workers
        if maximum is not None and self.live_workers >= maximum:
            raise RuntimeError(
                f"worker pool already at max_workers ({maximum})"
            )
        idx = self._spawn_worker(start_collector=True)
        metrics = _metrics()
        if metrics.enabled:
            metrics.inc("serve.workers_added")
            metrics.gauge("serve.workers_live", self.live_workers)
        return idx

    def remove_worker(self) -> int | None:
        """Gracefully retire one worker (highest-index live one).

        The worker stops receiving frames immediately, drains what it
        already holds, serves it, and exits; the monitor then reaps it.
        Never drops below ``ServeConfig.min_workers`` (or below one live
        replica per shard) — returns None when no worker can be
        retired.
        """
        if self._stopped:
            raise RuntimeError("engine is stopped")
        with self._lock:
            live = [
                i for i in range(len(self.workers))
                if i not in self._dead and i not in self._retiring
            ]
            if len(live) <= self.config.min_workers:
                return None
            idx = live[-1]
            # Only retire a worker whose shard keeps a live replica.
            shard = self.config.shard_of(idx)
            if not any(self.config.shard_of(w) == shard for w in live[:-1]):
                return None
            self._retiring.add(idx)
        self._queues[idx].put(None)  # drain-then-exit sentinel
        metrics = _metrics()
        if metrics.enabled:
            metrics.inc("serve.workers_retired")
            metrics.gauge("serve.workers_live", self.live_workers)
        return idx

    def _watch_workers(self) -> None:
        """Detect worker deaths and re-route their unserved requests."""
        while not self._stopped:
            sentinels = {
                worker.sentinel: i
                for i, worker in enumerate(list(self.workers))
                if i not in self._dead and worker.pid is not None
            }
            if not sentinels:
                if self._stopped:
                    return
                time.sleep(0.05)
                continue
            for sentinel in connection.wait(list(sentinels), timeout=0.1):
                if self._stopped:
                    return
                worker_idx = sentinels[sentinel]
                self.workers[worker_idx].join(timeout=0.1)  # reap
                with self._lock:
                    self._dead.add(worker_idx)
                    planned = worker_idx in self._retiring
                self._handle_worker_death(worker_idx, planned=planned)

    def _handle_worker_death(
        self, worker_idx: int, planned: bool = False
    ) -> None:
        """Re-route the frames a dead worker left unanswered.

        A frame still missing this worker's shard reply goes to a
        surviving replica of the *same* shard: the shard's segments
        outlive the worker, and the request payloads sit in the ring
        (slots free only on resolution).  A reply already received from
        the dead worker stays valid.  With no surviving replica the
        frame can never combine, so its requests fail at once and no
        caller blocks on a result that can never arrive.  ``planned``
        marks a graceful retirement (scale-down), which re-routes the
        same way but is not counted as a crash.
        """
        metrics = _metrics()
        if metrics.enabled and not planned:
            metrics.inc("serve.worker_deaths")
        shard = self.config.shard_of(worker_idx)
        refire: list[tuple[int, list, int]] = []
        with self._lock:
            for frame_seq, frame in list(self._frames.items()):
                if (frame["workers"][shard] != worker_idx
                        or shard in frame["replies"]):
                    continue
                replacement = self._pick_replica(shard)
                if replacement is None:
                    self._fail_requests([e[0] for e in frame["entries"]])
                    del self._frames[frame_seq]
                    continue
                frame["workers"][shard] = replacement
                self._depth[replacement] += len(frame["entries"])
                refire.append((frame_seq, frame["entries"], replacement))
        for frame_seq, entries, worker in refire:
            self._queues[worker].put((frame_seq, entries))

    def scrape_telemetry(self, registry=None) -> dict:
        """Scrape every worker slab into ``registry`` (default: installed).

        Returns the merged fleet snapshot (see
        :meth:`~repro.obs.telemetry.TelemetryAggregator.scrape_into`).
        Raises if the engine was built with ``telemetry=False``.
        """
        if self.telemetry is None:
            raise RuntimeError("engine was built with telemetry=False")
        return self.telemetry.scrape_into(registry)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def stop(self, timeout: float = 10.0) -> None:
        """Drain, stop workers, release every shared segment.

        Idempotent *and* re-entrancy safe: a second call — including one
        arriving from an ``atexit`` hook or a signal handler that
        interrupts a stop already in progress (e.g. while a gateway is
        still draining) — returns immediately without re-unlinking shm
        segments or re-freezing telemetry.
        """
        if not self._stop_lock.acquire(blocking=False):
            # A stop is already running on another thread, or this very
            # thread was interrupted mid-stop by a signal handler that
            # re-entered; either way the first call owns the teardown.
            return
        try:
            if self._stopped:
                return
            self._stopped = True
            self.flush()
            for q in self._queues:
                q.put(None)
            deadline = time.monotonic() + timeout
            for worker in self.workers:
                worker.join(timeout=max(0.1, deadline - time.monotonic()))
                if worker.is_alive():
                    worker.terminate()
                    worker.join(timeout=1.0)
                    if worker.is_alive():  # pragma: no cover - last resort
                        worker.kill()
                        worker.join(timeout=1.0)
            for q in self._result_qs:
                q.put(None)
            for collector in self._collectors:
                # A collector stuck on a dead worker's torn stream never
                # sees its sentinel; it is a daemon thread, so leave it
                # behind.
                collector.join(timeout=max(0.1, deadline - time.monotonic()))
            self._monitor.join(timeout=timeout)
            # Fail anything a dead worker left unresolved so callers
            # can't block forever on a request that will never be
            # answered.
            with self._lock:
                for request_id in list(self._pending):
                    self._resolve_locked(
                        request_id,
                        predictions=None, expired=True, release_slot=False,
                    )
            for q in (*self._queues, *self._result_qs):
                q.close()
                q.cancel_join_thread()
            # Final telemetry scrape (workers are stopped, so this is
            # the complete picture), then freeze the readers onto
            # private copies so post-stop scrapes and post-mortems stay
            # valid, and release the slabs.
            if self.telemetry is not None:
                metrics = _metrics()
                if metrics.enabled:
                    self.telemetry.scrape_into(metrics)
                self.telemetry.freeze()
            for segment in self._owned_segments:
                segment.unlink()
            for publisher in self._publishers:
                publisher.end_writing = lambda: None  # control going away
                publisher.close()
            for control in self._controls:
                control.unlink()
            self._finalizer.detach()
        finally:
            self._stop_lock.release()

    def __enter__(self) -> "ServingEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    @property
    def worker_errors(self) -> list[tuple[int, str]]:
        """Tracebacks reported by crashed-but-not-killed workers."""
        return list(self._worker_errors)


def _rows_of(served, rows, keep) -> np.ndarray:
    """The reply ``rows`` of the requests in ``keep``, in ``served`` order."""
    parts = []
    offset = 0
    for req_id, n in served:
        if req_id in keep:
            parts.append(rows[offset:offset + n])
        offset += n
    return np.concatenate(parts) if parts else rows[:0]


def _emergency_cleanup(workers, segments, publishers, controls) -> None:
    """GC/interpreter-exit safety net: never leak processes or segments."""
    for worker in workers:
        if worker.is_alive():
            worker.terminate()
    for segment in segments:
        if segment is not None:
            try:
                segment.unlink()
            except Exception:
                pass
    for publisher in publishers:
        try:
            publisher.close()
        except Exception:
            pass
    for control in controls:
        try:
            control.unlink()
        except Exception:
            pass
