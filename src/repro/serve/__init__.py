"""Concurrent multi-worker, multi-tenant serving for packed HDC models.

The serving tier the ROADMAP's "as fast as the hardware allows" north
star calls for, built in layers:

* :mod:`repro.serve.shm` — the shared-memory substrate: named-segment
  arrays with an idempotent close/unlink lifecycle (``ShmArray``), a
  seqlock-guarded control block, and the single-writer
  ``GenerationPublisher`` that snapshots each repaired model version as
  an immutable generation.
* :mod:`repro.serve.worker` — the worker-process loop: dequeue +
  coalesce request frames, adopt the newest published generation of
  every referenced tenant between batches, degrade
  (serve-on-stale-snapshot) rather than block when a recovery writer
  stalls, answer with one packed XOR+popcount distance computation per
  tenant per batch.
* :mod:`repro.serve.registry` + :mod:`repro.serve.engine` — the
  client-facing :class:`ServingEngine` hosting a
  :class:`TenantRegistry` of models: bounded-ring submission with
  backpressure, the unified ``submit(ServeRequest) -> ServeFuture``
  surface, per-request deadlines, frame-batched dispatch, an elastic
  worker pool (``add_worker``/``remove_worker``), and a
  :class:`~repro.obs.trace.ServeTrace` of per-batch events.
* :mod:`repro.serve.protocol` + :mod:`repro.serve.gateway` +
  :mod:`repro.serve.client` — the network front door: a
  length-prefixed binary frame protocol whose batch-first path packs
  many requests into one ``SUBMIT_BATCH`` frame (decoded as zero-copy
  numpy views and merged into few engine submits), the asyncio
  :class:`GatewayServer` with per-tenant token-bucket admission,
  global load shedding, and credit-based connection backpressure
  (cooperative clients are paused, never shed), and
  :class:`GatewayClient` / ``AsyncGatewayClient`` — both batch-capable
  — as the canonical remote callers.
* :mod:`repro.serve.http` — a dependency-free HTTP/1.1 JSON ingress
  (``POST /v1/predict``, ``GET /healthz``) riding the same admission
  path; enable with ``GatewayServer(http_port=...)``.
* :mod:`repro.serve.autoscale` — ``WorkerAutoscaler`` steering the
  worker pool on windowed dispatch-wait p95 from the ``serve.fleet.*``
  telemetry, bounded by ``ServeConfig.min_workers``/``max_workers``.

Online recovery plugs in per tenant through
:meth:`ServingEngine.publisher_for`, which satisfies the
:class:`repro.core.recovery.ModelPublisher` protocol — hand it to
:class:`~repro.core.recovery.RobustHDRecovery` or
:meth:`repro.core.pipeline.RecoveryExperiment.attack_and_recover` and
workers adopt each repaired generation live, bit-identical to the
sequential reference run, without perturbing any other tenant.

Cross-process telemetry (on by default) rides on the same substrate:
each worker stamps a shared-memory telemetry slab
(:mod:`repro.obs.telemetry`) the engine scrapes into fleet-wide
``serve.fleet.*`` metrics (:attr:`ServingEngine.telemetry`), with a
crash-surviving flight-recorder ring decodable post-mortem
(:attr:`ServingEngine.flight_recorder`) and per-request trace ids that
:func:`repro.obs.telemetry.correlate` joins against recovery publish
announcements.

``__all__`` below is the *stable public surface* — everything else
remains importable from its defining submodule but carries no stability
promise.
"""

from repro.serve.client import (  # noqa: F401  (stable surface re-exports)
    AsyncGatewayClient,
    GatewayClient,
    GatewayError,
    GatewayRejected,
)
from repro.serve.engine import (  # noqa: F401
    Backpressure,
    ServeConfig,
    ServeFuture,
    ServeRequest,
    ServeResult,
    ServingEngine,
)
from repro.serve.gateway import GatewayServer  # noqa: F401
from repro.serve.registry import Tenant, TenantRegistry  # noqa: F401
from repro.serve.shard import ShardPlan, reduce_partial_tables  # noqa: F401
from repro.serve.shm import (  # noqa: F401
    ControlBlock,
    GenerationPublisher,
    ShmArray,
    attach_generation,
    unique_name,
)
from repro.serve.worker import worker_main  # noqa: F401

__all__ = [
    "GatewayClient",
    "GatewayServer",
    "ServeConfig",
    "ServeRequest",
    "ServingEngine",
    "ShardPlan",
    "TenantRegistry",
]
