"""Concurrent serving benchmark: multi-worker engine vs single process.

Measures the serving tier added on top of the PR 1 packed backend at a
request-serving shape (many independent micro-batch requests, the
deployment pattern the ROADMAP's "serve heavy traffic" north star
describes):

* **baseline** — the single-process packed path: one
  ``PackedModel.distances`` + argmin call per request, exactly what a
  caller of the PR 1 API does per arriving request;
* **engine** — :class:`repro.serve.ServingEngine` at 1/2/4 workers:
  requests flow through the bounded shared-memory ring, are
  frame-batched over the queue, and each worker coalesces queued
  requests into a single packed distance computation.  The win is
  coalescing — per-request dispatch overhead is paid once per *batch* —
  so it holds even when workers share cores with the client;
* **equivalence** — a seeded attack-and-recover run published live into
  a serving engine (workers adopting each repaired generation between
  batches) must end bit-identical — final model words and predictions —
  to the sequential reference; asserted before the numbers are written.

Results are written as JSON so future PRs have a perf trajectory to
regress against.

Usage::

    PYTHONPATH=src python benchmarks/bench_serve.py           # writes BENCH_serve.json
    PYTHONPATH=src python benchmarks/bench_serve.py --smoke   # CI smoke, prints JSON only

``--smoke`` shrinks every workload so the run takes a couple of seconds
and, unless ``--output`` is given explicitly, does not overwrite the
committed ``BENCH_serve.json``.  ``--telemetry`` scrapes the worker
shared-memory telemetry slabs and records true cross-worker batch
latency percentiles (fleet p50/p95/p99) per worker count;
``--prom-output PATH`` additionally exports the scraped fleet metrics in
Prometheus text format (CI publishes this as a workflow artifact).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.core import kernels
from repro.core.encoder import Encoder
from repro.core.model import HDCClassifier, HDCModel
from repro.core.pipeline import RecoveryExperiment
from repro.core.recovery import RecoveryConfig
from repro.datasets.synthetic import make_prototype_classification
from repro.obs.export import write_prometheus
from repro.obs.metrics import MetricsRegistry
from repro.serve import (
    AsyncGatewayClient,
    GatewayServer,
    ServeRequest,
    ServingEngine,
    ShardPlan,
    TenantRegistry,
)
from repro.serve.autoscale import WorkerAutoscaler

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_serve.json"
# bench_serving.py (the in-process packed-vs-float benchmark) owns this
# file; refusing it here keeps the near-homonym artifacts unambiguous.
FORBIDDEN_OUTPUT = "BENCH_serving.json"


def _worker_diagnostics(engine: ServingEngine) -> dict:
    """Per-worker load picture from the engine's batch-event trace.

    Totals over the engine's lifetime (warm-up and every repeat): batch
    and request counts, time spent waiting for dispatch vs serving, and
    model bytes streamed per query — the numbers that make a scaling
    plateau diagnosable (idle workers vs redundant scans) instead of a
    single headline rate.
    """
    workers: dict[str, dict] = {}
    for event in engine.trace:
        w = workers.setdefault(str(event.worker_id), {
            "shard": event.shard,
            "batches": 0, "requests": 0, "queries": 0,
            "dispatch_wait_s": 0.0, "busy_s": 0.0, "bytes_scanned": 0,
        })
        w["batches"] += 1
        w["requests"] += event.requests
        w["queries"] += event.queries
        w["dispatch_wait_s"] += event.dispatch_wait_s
        w["busy_s"] += event.duration_s
        w["bytes_scanned"] += event.bytes_scanned
    for w in workers.values():
        w["bytes_scanned_per_query"] = (
            w["bytes_scanned"] / w["queries"] if w["queries"] else 0.0
        )
    return workers


def _make_requests(encoder: Encoder, test_x: np.ndarray, queries: int,
                   count: int, distinct: int = 64) -> list[np.ndarray]:
    """``count`` packed request payloads of ``queries`` rows each."""
    rng = np.random.default_rng(3)
    pool = [
        np.ascontiguousarray(
            encoder.encode_packed(
                test_x[rng.integers(0, test_x.shape[0], queries)]
            ).words
        )
        for _ in range(min(distinct, count))
    ]
    return [pool[i % len(pool)] for i in range(count)]


def _drive(engine: ServingEngine, requests: list[np.ndarray],
           window: int) -> float:
    """Serve every request through the engine; returns wall seconds.

    Keeps up to ``window`` requests in flight: submits are frame-batched
    (``flush=False``) and results collected per window, the pattern a
    real client uses to keep the ring busy without tripping
    backpressure.
    """
    start = time.perf_counter()
    futures = []
    for payload in requests:
        futures.append(engine.submit(ServeRequest(payload), flush=False))
        if len(futures) >= window:
            engine.flush()
            for future in futures:
                future.result()
            futures = []
    engine.flush()
    for future in futures:
        future.result()
    return time.perf_counter() - start


class _Recorder:
    """Minimal in-process ModelPublisher for sequential reference runs."""

    def __init__(self):
        self.words = None
        self.version = 0
        self.generations = 0

    def publish(self, model):
        packed = model.packed()
        self.words = packed.words.copy()
        self.version = packed.version
        self.generations += 1
        return self.generations

    def touch(self):
        pass


def _predict_bulk(engine: ServingEngine, words: np.ndarray,
                  tenant: str | None = None) -> np.ndarray:
    """Ordered bulk predict over the unified ServeRequest surface."""
    step = engine.max_queries_per_request
    futures = []
    for start in range(0, words.shape[0], step):
        futures.append(engine.submit(
            ServeRequest(words[start : start + step], tenant=tenant),
            flush=False,
        ))
    engine.flush()
    return np.concatenate([
        future.result(timeout=60.0).predictions for future in futures
    ])


def bench_throughput(num_classes: int, num_features: int, dim: int,
                     levels: int, queries_per_request: int, requests: int,
                     worker_counts: tuple[int, ...], repeats: int,
                     telemetry: bool = False,
                     registry: MetricsRegistry | None = None,
                     num_shards: int = 1,
                     frame_requests: int = 32) -> dict:
    task = make_prototype_classification(
        "bench-serve", num_features=num_features, num_classes=num_classes,
        num_train=num_classes * 30, num_test=64, seed=0,
    )
    encoder = Encoder(num_features=num_features, dim=dim, levels=levels,
                      seed=1)
    classifier = HDCClassifier(
        encoder, num_classes=num_classes, epochs=1, seed=2
    ).fit(task.train_x, task.train_y)
    packed_model = classifier.model.packed()
    payloads = _make_requests(encoder, task.test_x, queries_per_request,
                              requests)

    # Single-process packed baseline: one distances+argmin per request,
    # and the reference predictions the engine must reproduce.
    reference = [
        np.argmin(packed_model.distances(payload), axis=1).astype(np.int64)
        for payload in payloads
    ]
    best_base = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for payload in payloads:
            np.argmin(packed_model.distances(payload), axis=1).astype(np.int64)
        best_base = min(best_base, time.perf_counter() - start)

    result = {
        "num_classes": num_classes,
        "num_features": num_features,
        "dim": dim,
        "queries_per_request": queries_per_request,
        "requests": requests,
        "num_shards": num_shards,
        "frame_requests": frame_requests,
        "baseline_requests_per_s": requests / best_base,
        "baseline_queries_per_s": requests * queries_per_request / best_base,
        "workers": {},
    }
    window = min(256, max(32, requests // 8))
    for workers in worker_counts:
        shard_plan = (
            ShardPlan.by_class(num_classes, num_shards)
            if num_shards > 1 else None
        )
        engine = ServingEngine(
            classifier,
            num_workers=workers,
            ring_slots=2 * window,
            max_queries_per_request=queries_per_request,
            frame_requests=frame_requests,
            coalesce_requests=256,
            shard_plan=shard_plan,
        )
        try:
            # Warm-up: first batches pay fork + first-adoption costs, and
            # double as a correctness check against the baseline.
            check = [
                engine.submit(ServeRequest(payload), flush=False)
                for payload in payloads[:window]
            ]
            engine.flush()
            for future, expected in zip(check, reference):
                got = future.result().predictions
                assert (got == expected).all(), \
                    "engine predictions diverged from the packed baseline"
            best = float("inf")
            for _ in range(repeats):
                best = min(best, _drive(engine, payloads, window))
            fleet = None
            if telemetry:
                # Fleet percentiles out of worker shared memory: true
                # cross-worker batch-latency distribution, merged from
                # the per-worker log2 bins.
                ps = engine.telemetry.percentiles(
                    "batch_duration_ns", (50.0, 95.0, 99.0)
                )
                fleet = {
                    f"batch_duration_ms_p{int(q)}": value / 1e6
                    for q, value in ps.items()
                }
                if registry is not None:
                    engine.scrape_telemetry(registry)
        finally:
            engine.stop()
        entry = {
            "requests_per_s": requests / best,
            "queries_per_s": requests * queries_per_request / best,
            "speedup_vs_baseline": best_base / best,
            "batches": len(engine.trace),
            "mean_requests_per_batch": (
                engine.trace.requests_served / max(1, len(engine.trace))
            ),
            "per_worker": _worker_diagnostics(engine),
        }
        if fleet is not None:
            entry["fleet"] = fleet
        result["workers"][str(workers)] = entry
    return result


def bench_word_shard_scale(dim: int, num_classes: int, num_shards: int,
                           queries_per_request: int, requests: int,
                           repeats: int) -> dict:
    """Word-sharded serving at a dimensionality no one worker should scan.

    A random 1-bit model at ``dim`` (10^6 in the full run: ~3 MB of
    packed words per full scan) served by ``num_shards`` word-sharded
    workers, each attaching and scanning only ``1/num_shards`` of every
    model row, with the engine summing the partial-popcount tables.
    Correctness is asserted against the in-process packed path before
    timing.
    """
    rng = np.random.default_rng(5)
    model = HDCModel(
        class_hv=rng.integers(0, 2, (num_classes, dim), dtype=np.uint8)
    )
    packed = model.packed()
    words = packed.words.shape[1]
    payloads = [
        rng.integers(0, 1 << 63, (queries_per_request, words),
                     dtype=np.uint64)
        for _ in range(min(32, requests))
    ]
    payloads = [payloads[i % len(payloads)] for i in range(requests)]
    reference = [
        np.argmin(packed.distances(p), axis=1).astype(np.int64)
        for p in payloads[:8]
    ]
    window = 32
    engine = ServingEngine(
        model,
        num_workers=num_shards,
        ring_slots=2 * window,
        max_queries_per_request=queries_per_request,
        frame_requests=window,
        shard_plan=ShardPlan.by_word(dim, num_shards),
    )
    try:
        for payload, expected in zip(payloads[:8], reference):
            got = engine.submit(ServeRequest(payload)).result().predictions
            assert (got == expected).all(), \
                "word-sharded predictions diverged from the packed baseline"
        best = float("inf")
        for _ in range(repeats):
            best = min(best, _drive(engine, payloads, window))
        diagnostics = _worker_diagnostics(engine)
    finally:
        engine.stop()
    return {
        "dim": dim,
        "num_classes": num_classes,
        "num_shards": num_shards,
        "queries_per_request": queries_per_request,
        "requests": requests,
        "model_bytes": int(packed.nbytes),
        "shard_bytes_per_worker": int(packed.nbytes // num_shards),
        "requests_per_s": requests / best,
        "queries_per_s": requests * queries_per_request / best,
        "per_worker": diagnostics,
    }


def bench_gpu_roofline(smoke: bool = False) -> dict:
    """Measured CPU kernel throughput vs the analytic GPU roofline.

    The numpy backend's measured ``distance_table`` queries/s is divided
    by the :class:`repro.pim.gpu.GPUModel` prediction — how far this
    host's CPU path sits below the analytic Figure 2 GPU model.
    """
    kw = dict(dim=1_024, batch=256, repeats=1) if smoke else {}
    return {
        "available_backends": kernels.available_backends(),
        "cpu": kernels.roofline_validation(kernels.get_backend("numpy"),
                                           **kw),
    }


def bench_live_recovery(num_classes: int, num_features: int, dim: int,
                        levels: int, error_rate: float, passes: int) -> dict:
    """Concurrent attack-and-recover vs the sequential reference.

    The sequential run records each published generation in-process; the
    concurrent run publishes into a live :class:`ServingEngine` that is
    serving traffic the whole time.  Both must end with bit-identical
    model words and predictions — the equivalence the epoch/snapshot
    protocol guarantees (recovery is the single writer; workers only
    ever adopt immutable snapshots).
    """
    import threading

    task = make_prototype_classification(
        "bench-recover", num_features=num_features, num_classes=num_classes,
        num_train=num_classes * 40, num_test=200, seed=0,
    )

    def experiment():
        return RecoveryExperiment(dataset=task, dim=dim, epochs=2,
                                  levels=levels, seed=7)

    recorder = _Recorder()
    reference = experiment()
    ref_outcome = reference.attack_and_recover(
        error_rate, config=RecoveryConfig(), passes=passes, seed=11,
        publisher=recorder,
    )
    ref_packed_words = recorder.words
    eval_words = reference._eval_packed.words

    concurrent = experiment()
    engine = ServingEngine(concurrent.classifier, num_workers=2)
    served_rounds = 0
    stop = threading.Event()

    def traffic():
        nonlocal served_rounds
        while not stop.is_set():
            _predict_bulk(engine, eval_words)
            served_rounds += 1

    thread = threading.Thread(target=traffic, daemon=True)
    start = time.perf_counter()
    thread.start()
    try:
        outcome = concurrent.attack_and_recover(
            error_rate, config=RecoveryConfig(), passes=passes, seed=11,
            publisher=engine.publisher,
        )
    finally:
        stop.set()
        thread.join()
    recover_s = time.perf_counter() - start
    final_predictions = _predict_bulk(engine, eval_words)
    generations = engine.publisher.generation
    trace = engine.trace
    engine.stop()

    reference_predictions = np.argmin(
        np.bitwise_count(
            ref_packed_words[None, :, :] ^ eval_words[:, None, :]
        ).sum(axis=2),
        axis=1,
    ).astype(np.int64)
    model_identical = bool(
        recorder.words is not None
        and (recorder.words == ref_packed_words).all()
        and outcome.accuracy_trace == ref_outcome.accuracy_trace
    )
    predictions_identical = bool(
        (final_predictions == reference_predictions).all()
    )
    assert model_identical, \
        "concurrent recovery diverged from the sequential reference model"
    assert predictions_identical, \
        "served predictions diverged from the sequential reference"
    return {
        "error_rate": error_rate,
        "passes": passes,
        "dim": dim,
        "recovered_accuracy": outcome.recovered_accuracy,
        "generations_published": generations,
        "adoptions": trace.adoptions,
        "degraded_batches": trace.degraded_batches,
        "traffic_rounds_during_recovery": served_rounds,
        "concurrent_recover_s": recover_s,
        "final_model_bit_identical": model_identical,
        "final_predictions_bit_identical": predictions_identical,
    }


def bench_gateway(tenants: int, num_features: int, dim: int, levels: int,
                  error_rate: float, passes: int, num_workers: int = 4,
                  max_workers: int = 6, min_soak_s: float = 3.0,
                  frame_batch: int = 1, sub_legs: bool = True,
                  registry: MetricsRegistry | None = None) -> dict:
    """Multi-tenant soak through the TCP gateway.

    ``tenants`` independent models share one engine behind one
    :class:`GatewayServer`.  An async client pipelines mixed-tenant
    traffic the whole time while tenant 0 is attacked and recovered
    concurrently through its own publisher stream, with the
    :class:`WorkerAutoscaler` running.  Every non-attacked tenant's
    response is checked bit-identical to its sequential reference on
    every round (hot-swap isolation); tenant 0 must match its own
    sequential attack-and-recover reference once recovery lands.

    ``frame_batch > 1`` drives the soak with ``SUBMIT_BATCH`` frames
    of that many requests over a *credited* connection (the engine's
    per-request query cap is raised so the gateway can merge each
    batch into few zero-copy engine submits); bit-identity is still
    asserted per entry, per round.

    With ``sub_legs`` (the unbatched base run), three extra facts are
    asserted and recorded: sequential round-trip latency percentiles
    over a sync client (a Nagle/delayed-ACK regression would push p50
    to ~40 ms; asserted < 25 ms), a typed non-zero shed counter under
    a deliberately tiny in-flight cap (overload sub-leg), and a
    credit-respecting flooding client that gets *paused*, never shed
    (backpressure sub-leg: zero OVERLOADED, ``credit_waits > 0``).
    """
    import asyncio
    import threading

    from repro.obs.metrics import set_metrics
    from repro.serve import GatewayRejected
    from repro.serve.client import GatewayClient
    from repro.serve.protocol import RejectCode

    if tenants < 2:
        raise ValueError("the gateway leg needs >= 2 tenants")
    if frame_batch < 1:
        raise ValueError("frame_batch must be >= 1")
    qpr = 8
    names = [f"tenant{i}" for i in range(tenants)]
    tasks = [
        make_prototype_classification(
            f"bench-gateway-{i}", num_features=num_features,
            num_classes=4 + i, num_train=(4 + i) * 40, num_test=64,
            seed=100 + i,
        )
        for i in range(tenants)
    ]

    def experiment(i):
        return RecoveryExperiment(dataset=tasks[i], dim=dim, epochs=2,
                                  levels=levels, seed=200 + i)

    experiments = [experiment(i) for i in range(tenants)]

    # Sequential reference for the attacked tenant: identical
    # attack-and-recover replayed into an in-process recorder.
    recorder = _Recorder()
    ref_outcome = experiment(0).attack_and_recover(
        error_rate, config=RecoveryConfig(), passes=passes, seed=11,
        publisher=recorder,
    )
    eval_words = [exp._eval_packed.words for exp in experiments]
    ref_predictions = np.argmin(
        np.bitwise_count(
            recorder.words[None, :, :] ^ eval_words[0][:, None, :]
        ).sum(axis=2),
        axis=1,
    ).astype(np.int64)
    # Fixed references for the tenants that are never touched.
    expected = {
        names[i]: np.argmin(
            experiments[i].classifier.model.packed()
            .distances(eval_words[i][:qpr]),
            axis=1,
        ).astype(np.int64)
        for i in range(1, tenants)
    }
    payloads = {names[i]: eval_words[i][:qpr] for i in range(tenants)}

    tenant_registry = TenantRegistry()
    for name, exp in zip(names, experiments):
        tenant_registry.add(name, exp.classifier)
    previous_metrics = set_metrics(registry) if registry is not None else None
    # Raising the per-request query cap for batched runs lets the
    # gateway merge a whole SUBMIT_BATCH into one zero-copy engine
    # submit (the fast path under test); requests still carry qpr
    # query rows each on the wire.
    engine = ServingEngine(
        tenant_registry, num_workers=num_workers, min_workers=2,
        max_workers=max_workers, ring_slots=128,
        max_queries_per_request=qpr * frame_batch,
    )
    server = GatewayServer(
        engine,
        connection_window=None if frame_batch == 1 else 128,
    ).start()
    scaler = WorkerAutoscaler(engine, interval_s=0.1).start()
    done = threading.Event()
    recovery: dict = {}

    def recover():
        try:
            recovery["outcome"] = experiments[0].attack_and_recover(
                error_rate, config=RecoveryConfig(), passes=passes, seed=11,
                publisher=engine.publisher_for(names[0]),
            )
        finally:
            done.set()

    async def drive():
        client = await AsyncGatewayClient.connect(
            "127.0.0.1", server.port, credited=frame_batch > 1
        )
        served = dict.fromkeys(names, 0)
        window = 4 * tenants
        rotate = 0
        # Recovery on a small task can land almost instantly; keep the
        # soak going for a floor duration so the record reflects
        # sustained mixed-tenant traffic (and the autoscaler gets real
        # ticks), not a single burst.
        soak_until = time.perf_counter() + min_soak_s

        async def pump(name):
            """Batched soak driver: pipelined SUBMIT_BATCH frames for
            one tenant over the shared credited connection,
            bit-identity checked per entry.  Several pumps per tenant
            keep the gateway's merge path saturated instead of
            round-tripping one batch at a time."""
            total = 0
            batch_payloads = [payloads[name]] * frame_batch
            while not done.is_set() or time.perf_counter() < soak_until:
                # Captured before issuing (same contract as below).
                settled = done.is_set()
                entries = await client.submit_batch(
                    batch_payloads, tenant=name
                )
                total += len(entries)
                got = np.asarray(entries)
                if name != names[0]:
                    assert (got == expected[name]).all(), (
                        f"{name} diverged from its sequential "
                        f"reference while tenant 0 was hot-swapping"
                    )
                elif settled:
                    assert (got == ref_predictions[:qpr]).all(), (
                        "tenant 0 diverged from its recovered "
                        "reference after recovery completed"
                    )
            return name, total

        try:
            if frame_batch > 1:
                depth = 3
                for name, total in await asyncio.gather(
                    *[pump(n) for n in names for _ in range(depth)]
                ):
                    served[name] += total
            while not done.is_set() or time.perf_counter() < soak_until:
                # Captured before issuing: only requests submitted after
                # the final generation published may be held to the
                # recovered reference.
                settled = done.is_set()
                batch = [names[(rotate + k) % tenants]
                         for k in range(window)]
                rotate += 1
                results = await asyncio.gather(
                    *[client.predict(payloads[n], tenant=n) for n in batch]
                )
                for name, got in zip(batch, results):
                    served[name] += 1
                    if name != names[0]:
                        assert (got == expected[name]).all(), (
                            f"{name} diverged from its sequential "
                            f"reference while tenant 0 was hot-swapping"
                        )
                    elif settled:
                        # Recovery landed: the attacked tenant is pinned
                        # to its final snapshot from here on.
                        assert (got == ref_predictions[:qpr]).all(), (
                            "tenant 0 diverged from its recovered "
                            "reference after recovery completed"
                        )
            # Recovery has landed: the attacked tenant must now serve
            # its sequential reference bit-for-bit, through the gateway.
            chunks = [eval_words[0][s : s + qpr]
                      for s in range(0, eval_words[0].shape[0], qpr)]
            parts = await asyncio.gather(
                *[client.predict(c, tenant=names[0]) for c in chunks]
            )
            credit = {
                "credited": client.credited,
                "window": client.window,
                "credit_waits": client.credit_waits,
            }
            return served, np.concatenate(parts), credit
        finally:
            await client.close()

    thread = threading.Thread(target=recover, daemon=True)
    start = time.perf_counter()
    thread.start()
    try:
        served, final_predictions, credit = asyncio.run(drive())
    finally:
        thread.join()
    wall = time.perf_counter() - start

    outcome = recovery["outcome"]
    model_identical = bool(
        outcome.accuracy_trace == ref_outcome.accuracy_trace
    )
    predictions_identical = bool(
        (final_predictions == ref_predictions).all()
    )
    assert model_identical, \
        "gateway-concurrent recovery diverged from the sequential reference"
    assert predictions_identical, \
        "attacked tenant's served predictions diverged from the reference"

    # Latency sub-leg: sequential round trips on the blocking client.
    # TCP_NODELAY on both ends keeps a loopback round trip in the
    # low-millisecond range; a Nagle/delayed-ACK regression would park
    # p50 near 40 ms and trip the assertion.
    latency = None
    if sub_legs:
        lat_samples = []
        with GatewayClient("127.0.0.1", server.port) as lat_client:
            lat_client.predict(payloads[names[1]], tenant=names[1])
            for _ in range(50 if min_soak_s < 1.0 else 200):
                t0 = time.perf_counter()
                lat_client.predict(payloads[names[1]], tenant=names[1])
                lat_samples.append((time.perf_counter() - t0) * 1e3)
        latency = {
            "samples": len(lat_samples),
            "round_trip_ms_p50": float(np.percentile(lat_samples, 50)),
            "round_trip_ms_p99": float(np.percentile(lat_samples, 99)),
        }
        assert latency["round_trip_ms_p50"] < 25.0, (
            f"sequential gateway round trip p50 "
            f"{latency['round_trip_ms_p50']:.1f} ms looks like a Nagle "
            f"regression (expected low single digits with TCP_NODELAY)"
        )

    admitted = server.admission.admitted
    shed_total = server.admission.shed_total
    assert shed_total == 0, \
        f"soak shed {shed_total} requests despite generous admission"
    scaler.stop()
    generations = engine.publisher_for(names[0]).generation
    batch_ps = engine.telemetry.percentiles(
        "batch_duration_ns", (50.0, 95.0)
    )
    wait_ps = engine.telemetry.percentiles("dispatch_wait_ns", (95.0,))
    if registry is not None:
        engine.scrape_telemetry(registry)
    workers_final = engine.live_workers
    server.stop()
    engine.stop()

    overload = None
    backpressure = None
    try:
        if sub_legs:
            # Overload sub-leg: a deliberately tiny in-flight cap under
            # async pipelining must shed with a typed OVERLOADED reject
            # while every admitted request still resolves correctly.
            flood_requests = 40
            sub_engine = ServingEngine(
                experiments[1].classifier, num_workers=1, ring_slots=2,
                max_queries_per_request=qpr,
            )
            sub_server = GatewayServer(sub_engine, max_inflight=1).start()

            async def flood():
                client = await AsyncGatewayClient.connect(
                    "127.0.0.1", sub_server.port
                )
                try:
                    return await asyncio.gather(
                        *[client.predict(payloads[names[1]],
                                         tenant="default")
                          for _ in range(flood_requests)],
                        return_exceptions=True,
                    )
                finally:
                    await client.close()

            try:
                outcomes = asyncio.run(flood())
            finally:
                sub_server.stop()
                sub_engine.stop()
            flood_served = [o for o in outcomes
                            if isinstance(o, np.ndarray)]
            flood_shed = [o for o in outcomes
                          if isinstance(o, GatewayRejected)]
            assert flood_served, "overload sub-leg starved every request"
            for got in flood_served:
                assert (got == expected[names[1]]).all(), \
                    "overload sub-leg served wrong predictions"
            assert flood_shed, \
                "overload sub-leg shed nothing; cap not enforced"
            assert {exc.code for exc in flood_shed} == \
                {RejectCode.OVERLOADED}
            overload = {
                "requests": flood_requests,
                "served": len(flood_served),
                "shed": len(flood_shed),
                "shed_rate": len(flood_shed) / flood_requests,
                "reject_code": "OVERLOADED",
            }

            # Backpressure sub-leg: the same flood over a *credited*
            # connection against a tiny window must be paused (client
            # blocks on credits), never shed — zero OVERLOADED rejects
            # for a credit-respecting client.
            bp_requests = 60
            bp_engine = ServingEngine(
                experiments[1].classifier, num_workers=1, ring_slots=4,
                max_queries_per_request=qpr,
            )
            bp_server = GatewayServer(
                bp_engine, max_inflight=2, connection_window=2
            ).start()

            async def cooperative_flood():
                client = await AsyncGatewayClient.connect(
                    "127.0.0.1", bp_server.port, credited=True
                )
                try:
                    got = await asyncio.gather(
                        *[client.predict(payloads[names[1]],
                                         tenant="default")
                          for _ in range(bp_requests)]
                    )
                    return got, client.window, client.credit_waits
                finally:
                    await client.close()

            try:
                bp_served, bp_window, bp_waits = asyncio.run(
                    cooperative_flood()
                )
            finally:
                bp_shed = bp_server.admission.shed_total
                bp_server.stop()
                bp_engine.stop()
            assert len(bp_served) == bp_requests, \
                "backpressure sub-leg dropped requests"
            for got in bp_served:
                assert (got == expected[names[1]]).all(), \
                    "backpressure sub-leg served wrong predictions"
            assert bp_shed == 0, (
                f"credit-respecting client was shed {bp_shed} times; "
                f"backpressure should pause, not reject"
            )
            assert bp_waits > 0, (
                "flood never waited on credits; the tiny window was "
                "not exercised"
            )
            backpressure = {
                "requests": bp_requests,
                "window": bp_window,
                "credit_waits": bp_waits,
                "shed_total": bp_shed,
                "paused_not_shed": True,
            }
    finally:
        if previous_metrics is not None:
            set_metrics(previous_metrics)

    total = sum(served.values())
    record = {
        "tenants": tenants,
        "tenant_ids": names,
        "dim": dim,
        "queries_per_request": qpr,
        "frame_batch": frame_batch,
        "credit": credit,
        "workers": {
            "initial": num_workers,
            "min": 2,
            "max": max_workers,
            "final": workers_final,
        },
        "duration_s": wall,
        "requests_served": total,
        "requests_per_s": total / wall,
        "per_tenant_requests": served,
        "admission": {
            "admitted": admitted,
            "shed_total": shed_total,
            "shed_rate": shed_total / max(1, admitted + shed_total),
            "zero_shed_at_low_load": shed_total == 0,
        },
        "autoscale": {
            "scale_ups": sum(
                1 for e in scaler.events if e["action"] == "up"
            ),
            "scale_downs": sum(
                1 for e in scaler.events if e["action"] == "down"
            ),
            "events": scaler.events[:32],
        },
        "fleet": {
            "batch_duration_ms_p50": batch_ps[50.0] / 1e6,
            "batch_duration_ms_p95": batch_ps[95.0] / 1e6,
            "dispatch_wait_ms_p95": wait_ps[95.0] / 1e6,
        },
        "recovery": {
            "tenant": names[0],
            "error_rate": error_rate,
            "passes": passes,
            "recovered_accuracy": outcome.recovered_accuracy,
            "generations_published": generations,
            "model_bit_identical": model_identical,
            "final_predictions_bit_identical": predictions_identical,
            "other_tenants_bit_identical_throughout": True,
        },
    }
    if latency is not None:
        record["latency"] = latency
    if overload is not None:
        record["overload"] = overload
    if backpressure is not None:
        record["backpressure"] = backpressure
    return record


def gateway_kwargs(smoke: bool, tenants: int = 2) -> dict:
    """Gateway soak sizing shared by ``run`` and ``--gateway-only``."""
    if smoke:
        return dict(tenants=tenants, num_features=16, dim=1_000, levels=8,
                    error_rate=0.15, passes=1, num_workers=2,
                    max_workers=3, min_soak_s=0.75)
    return dict(tenants=tenants, num_features=16, dim=2_000, levels=16,
                error_rate=0.2, passes=2, num_workers=4, max_workers=6,
                min_soak_s=3.0)


def bench_gateway_sweep(frame_batches, registry=None, **kw) -> dict:
    """Gateway soak at frame batch 1 plus batched SUBMIT_BATCH re-runs.

    The unbatched run (always executed, with its sub-legs) is the base
    record; each ``frame_batch > 1`` re-runs the full soak — same
    attack-and-recover, same per-entry bit-identity and zero-shed
    assertions — over a credited batching client, and lands under
    ``record["batched"][str(frame_batch)]`` with its speedup over the
    unbatched base.
    """
    sizes = sorted({int(f) for f in frame_batches})
    if sizes and sizes[0] < 1:
        raise ValueError(f"frame batches must be >= 1, got {sizes}")
    record = bench_gateway(**kw, registry=registry)
    batched = {}
    for fb in sizes:
        if fb == 1:
            continue
        rec = bench_gateway(**kw, frame_batch=fb, sub_legs=False,
                            registry=registry)
        batched[str(fb)] = {
            "frame_batch": fb,
            "duration_s": rec["duration_s"],
            "requests_served": rec["requests_served"],
            "requests_per_s": rec["requests_per_s"],
            "speedup_vs_unbatched": (
                rec["requests_per_s"] / record["requests_per_s"]
            ),
            "credit": rec["credit"],
            "admission": rec["admission"],
            "recovery": rec["recovery"],
        }
    if batched:
        record["batched"] = batched
    return record


def run(smoke: bool, telemetry: bool = False,
        registry: MetricsRegistry | None = None,
        shards: int | None = None, gateway: bool = False,
        tenants: int = 2, frame_batches=(1, 8, 32)) -> dict:
    if smoke:
        shards = shards or 2
        throughput_kw = dict(
            num_classes=6, num_features=16, dim=1_024, levels=8,
            queries_per_request=4, requests=512,
            worker_counts=(1, 2), repeats=1,
        )
        sharded_kw = dict(throughput_kw, requests=256,
                          worker_counts=(shards,))
        word_shard_kw = dict(dim=4_096, num_classes=6, num_shards=shards,
                             queries_per_request=4, requests=64, repeats=1)
        recovery_kw = dict(num_classes=4, num_features=16, dim=1_000,
                           levels=8, error_rate=0.15, passes=1)
    else:
        shards = shards or 4
        throughput_kw = dict(
            num_classes=26, num_features=32, dim=10_000, levels=32,
            queries_per_request=4, requests=4_096,
            worker_counts=(1, 2, 4), repeats=3,
        )
        sharded_kw = dict(throughput_kw, worker_counts=(shards,))
        word_shard_kw = dict(dim=1_000_000, num_classes=26,
                             num_shards=shards, queries_per_request=4,
                             requests=256, repeats=2)
        recovery_kw = dict(num_classes=5, num_features=16, dim=2_000,
                           levels=16, error_rate=0.2, passes=2)
    throughput = bench_throughput(**throughput_kw, telemetry=telemetry,
                                  registry=registry)
    # Same workload, class-sharded: each worker owns a row slice of the
    # model and large frames amortise dispatch, so the comparison against
    # the unsharded run at the same worker count is apples-to-apples.
    sharded = bench_throughput(**sharded_kw, telemetry=telemetry,
                               registry=registry, num_shards=shards,
                               frame_requests=256)
    unsharded_same_workers = throughput["workers"].get(str(shards))
    if unsharded_same_workers is not None:
        sharded["speedup_vs_unsharded_same_workers"] = (
            sharded["workers"][str(shards)]["requests_per_s"]
            / unsharded_same_workers["requests_per_s"]
        )
    results = {
        "schema": 5,
        "generated_by": "benchmarks/bench_serve.py"
        + (" --smoke" if smoke else "")
        + (" --telemetry" if telemetry else "")
        + (" --gateway" if gateway else ""),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "cpus": len(__import__("os").sched_getaffinity(0)),
        "kernel_backend": kernels.active_backend().name,
        "throughput": throughput,
        "throughput_class_sharded": sharded,
        "throughput_word_sharded": bench_word_shard_scale(**word_shard_kw),
        "gpu_roofline": bench_gpu_roofline(smoke=smoke),
        "live_recovery": bench_live_recovery(**recovery_kw),
    }
    if gateway:
        results["gateway"] = bench_gateway_sweep(
            frame_batches, **gateway_kwargs(smoke, tenants),
            registry=registry,
        )
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workloads (CI smoke); prints JSON only "
                             "unless --output is given")
    parser.add_argument("--output", type=Path, default=None,
                        help=f"where to write the JSON "
                             f"(default: {DEFAULT_OUTPUT})")
    parser.add_argument("--telemetry", action="store_true",
                        help="scrape worker telemetry slabs and record "
                             "fleet batch-latency percentiles "
                             "(p50/p95/p99) per worker count")
    parser.add_argument("--prom-output", type=Path, default=None,
                        help="also write the scraped fleet metrics in "
                             "Prometheus text format (implies "
                             "--telemetry)")
    parser.add_argument("--shards", type=int, default=None,
                        help="shard count for the sharded legs "
                             "(default: 2 smoke, 4 full)")
    parser.add_argument("--gateway", action="store_true",
                        help="also run the multi-tenant TCP gateway soak "
                             "(admission + autoscaling + concurrent "
                             "recovery on one tenant)")
    parser.add_argument("--tenants", type=int, default=2,
                        help="tenant count for the gateway leg "
                             "(default: 2)")
    parser.add_argument("--frame-batch", default="1,8,32",
                        help="comma-separated SUBMIT_BATCH sizes for "
                             "the gateway leg; 1 is the unbatched base "
                             "run, always executed (default: 1,8,32)")
    parser.add_argument("--gateway-only", action="store_true",
                        help="run just the gateway leg and merge its "
                             "record into the existing output JSON")
    args = parser.parse_args(argv)
    if args.output is not None and args.output.name == FORBIDDEN_OUTPUT:
        parser.error(
            f"{FORBIDDEN_OUTPUT} belongs to benchmarks/bench_serving.py; "
            f"this script writes {DEFAULT_OUTPUT.name}"
        )
    if args.shards is not None and args.shards < 2:
        parser.error("--shards must be >= 2")
    if args.tenants < 2:
        parser.error("--tenants must be >= 2")
    try:
        frame_batches = tuple(
            int(part) for part in args.frame_batch.split(",") if part
        )
    except ValueError:
        parser.error(f"--frame-batch must be comma-separated integers, "
                     f"got {args.frame_batch!r}")
    if any(fb < 1 for fb in frame_batches):
        parser.error("--frame-batch sizes must be >= 1")
    telemetry = args.telemetry or args.prom_output is not None

    registry = MetricsRegistry() if args.prom_output is not None else None
    if args.gateway_only:
        record = bench_gateway_sweep(
            frame_batches, **gateway_kwargs(args.smoke, args.tenants),
            registry=registry,
        )
        output = args.output or (None if args.smoke else DEFAULT_OUTPUT)
        results = {}
        if output is not None and output.exists():
            results = json.loads(output.read_text())
        results["schema"] = 5
        results["gateway"] = record
        print(json.dumps(record, indent=2))
    else:
        results = run(args.smoke, telemetry=telemetry, registry=registry,
                      shards=args.shards, gateway=args.gateway,
                      tenants=args.tenants, frame_batches=frame_batches)
        output = args.output
        if output is None and not args.smoke:
            output = DEFAULT_OUTPUT
        print(json.dumps(results, indent=2))
    if output is not None:
        output.write_text(json.dumps(results, indent=2) + "\n")
        print(f"\nwrote {output}", file=sys.stderr)
    if args.prom_output is not None:
        write_prometheus(registry, args.prom_output)
        print(f"wrote {args.prom_output}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
