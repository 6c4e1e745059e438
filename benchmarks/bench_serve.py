"""Concurrent serving benchmark: what only a multi-worker engine measures.

Each leg serves many independent micro-batch requests through
:class:`repro.serve.ServingEngine` and checks every reply against the
in-process packed path before it is timed:

* **throughput** — the engine at 1/2/4 workers against the
  single-process packed baseline (one ``PackedModel.distances`` +
  argmin call per request).  Requests flow through the bounded
  shared-memory ring, are frame-batched over the queue, and each worker
  coalesces queued requests into one packed distance computation;
* **class sharding** — the same workload with each worker owning a
  class-row slice of the model;
* **gateway** — a two-tenant soak through the TCP gateway while one
  tenant is attacked and recovered live, with sequential round-trip
  latency, overload (typed ``OVERLOADED`` shed) and credit backpressure
  (paused, never shed) sub-legs.

perfbench (``perfbench/run.py``) measures the single-tenant serve path
per layer, and ``benchmarks/bench_obs.py`` times the packed predict and
recovery paths; this benchmark does not repeat them.

Usage::

    PYTHONPATH=src python benchmarks/bench_serve.py           # writes BENCH_serve.json
    PYTHONPATH=src python benchmarks/bench_serve.py --smoke   # CI smoke, prints JSON only

``--smoke`` shrinks every workload so the run takes seconds and, unless
``--output`` is given, does not overwrite the committed
``BENCH_serve.json``.  ``--prom-output PATH`` records metrics over
every leg and exports them in Prometheus text format (the engines'
``serve.*`` batch counters and ``serve.batch_duration_s`` among them).

Each ``fleet`` block holds exact percentiles of the engine's batch
trace (``engine.trace``): worker batch durations and dispatch waits,
across every worker of the leg.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
import threading
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from _common import Recorder, host, write_record

from repro.core.encoder import Encoder
from repro.core.model import HDCClassifier
from repro.core.pipeline import RecoveryExperiment
from repro.core.recovery import RecoveryConfig
from repro.datasets.synthetic import make_prototype_classification
from repro.obs.export import write_prometheus
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.serve import (
    AsyncGatewayClient,
    GatewayClient,
    GatewayRejected,
    GatewayServer,
    ServeRequest,
    ServingEngine,
    ShardPlan,
    TenantRegistry,
)
from repro.serve.protocol import RejectCode

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_serve.json"


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


def _trace_ms(engine: ServingEngine, field: str, qs) -> dict:
    """Exact percentiles, in ms, of one batch-event field (seconds) over
    every worker batch in ``engine.trace``."""
    values = np.array([getattr(event, field) for event in engine.trace])
    return {q: float(np.percentile(values, q)) * 1e3 for q in qs}


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


def _check_and_time(engine: ServingEngine, payloads: list[np.ndarray],
                    reference: list[np.ndarray], window: int,
                    repeats: int) -> float:
    """Best-of-``repeats`` wall seconds to serve ``payloads``.

    The warm-up (first batches pay fork and first-adoption costs) serves
    the first ``len(reference)`` payloads and asserts the engine
    reproduces the in-process packed predictions.
    """
    check = [engine.submit(ServeRequest(payload), flush=False)
             for payload in payloads[: len(reference)]]
    engine.flush()
    for future, expected in zip(check, reference):
        assert (future.result().predictions == expected).all(), \
            "engine predictions diverged from the packed baseline"
    return min(_drive(engine, payloads, window) for _ in range(repeats))


def bench_throughput(num_classes: int, num_features: int, dim: int,
                     levels: int, queries_per_request: int, requests: int,
                     worker_counts: tuple[int, ...], repeats: int,
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
        with ServingEngine(
            classifier,
            num_workers=workers,
            ring_slots=2 * window,
            max_queries_per_request=queries_per_request,
            frame_requests=frame_requests,
            coalesce_requests=256,
            shard_plan=ShardPlan.by_class(num_classes, num_shards),
        ) as engine:
            best = _check_and_time(engine, payloads, reference[:window],
                                   window, repeats)
        result["workers"][str(workers)] = {
            "requests_per_s": requests / best,
            "queries_per_s": requests * queries_per_request / best,
            "speedup_vs_baseline": best_base / best,
            "batches": len(engine.trace),
            "mean_requests_per_batch": (
                engine.trace.requests_served / max(1, len(engine.trace))
            ),
            "per_worker": _worker_diagnostics(engine),
            "fleet": {
                f"batch_duration_ms_p{q}": ms for q, ms
                in _trace_ms(engine, "duration_s", (50, 95, 99)).items()
            },
        }
    return result


def _flood(classifier: HDCClassifier, payload: np.ndarray, requests: int,
           credited: bool, ring_slots: int, **server_kw) -> tuple:
    """Pipeline ``requests`` copies of ``payload`` at once into a fresh
    one-worker gateway; returns the per-request outcomes (predictions or
    the exception), the client's credit window and credit waits, and the
    server's shed count."""
    engine = ServingEngine(classifier, num_workers=1, ring_slots=ring_slots,
                           max_queries_per_request=payload.shape[0])
    server = GatewayServer(engine, **server_kw).start()

    async def flood():
        client = await AsyncGatewayClient.connect(
            "127.0.0.1", server.port, credited=credited
        )
        try:
            outcomes = await asyncio.gather(
                *[client.predict(payload, tenant="default")
                  for _ in range(requests)],
                return_exceptions=True,
            )
            return outcomes, client.window, client.credit_waits
        finally:
            await client.close()

    try:
        return (*asyncio.run(flood()), server.admission.shed_total)
    finally:
        server.stop()
        engine.stop()


def bench_gateway(tenants: int, num_features: int, dim: int, levels: int,
                  error_rate: float, passes: int, num_workers: int,
                  min_soak_s: float) -> dict:
    """Multi-tenant soak through the TCP gateway, plus three sub-legs.

    ``tenants`` independent models share one ``num_workers``-worker
    engine behind one :class:`GatewayServer`.  An async client
    pipelines mixed-tenant traffic the whole time while tenant 0 is
    attacked and recovered concurrently through its own publisher
    stream.  Every non-attacked tenant's
    response is checked bit-identical to its sequential reference on
    every round (hot-swap isolation); tenant 0 must match its own
    sequential attack-and-recover reference once recovery lands, and
    nothing may be shed.

    The sub-legs assert and record sequential round-trip latency over a
    sync client (a Nagle/delayed-ACK regression would push p50 to
    ~40 ms; asserted < 25 ms), a typed non-zero shed counter under a
    deliberately tiny in-flight cap (overload), and a credit-respecting
    flooding client that gets *paused*, never shed (backpressure: zero
    OVERLOADED, ``credit_waits > 0``).
    """
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
    recorder = Recorder()
    ref_outcome = experiment(0).attack_and_recover(
        error_rate, config=RecoveryConfig(), passes=passes, seed=11,
        publisher=recorder,
    )
    eval_words = [exp._eval_packed.words for exp in experiments]
    ref_predictions = recorder.predict(eval_words[0])
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
    engine = ServingEngine(
        tenant_registry, num_workers=num_workers, ring_slots=128,
        max_queries_per_request=qpr,
    )
    server = GatewayServer(engine).start()
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
        client = await AsyncGatewayClient.connect("127.0.0.1", server.port)
        served = dict.fromkeys(names, 0)
        window = 4 * tenants
        rotate = 0
        # Recovery on a small task can land almost instantly; keep the
        # soak going for a floor duration so the record reflects
        # sustained mixed-tenant traffic, not a single burst.
        soak_until = time.perf_counter() + min_soak_s
        try:
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
            return served, np.concatenate(parts)
        finally:
            await client.close()

    thread = threading.Thread(target=recover, daemon=True)
    start = time.perf_counter()
    thread.start()
    try:
        served, final_predictions = asyncio.run(drive())
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
    generations = engine.publisher_for(names[0]).generation
    batch_ms = _trace_ms(engine, "duration_s", (50, 95))
    wait_ms = _trace_ms(engine, "dispatch_wait_s", (95,))
    server.stop()
    engine.stop()

    # Overload sub-leg: a deliberately tiny in-flight cap under
    # async pipelining must shed with a typed OVERLOADED reject
    # while every admitted request still resolves correctly.
    flood_requests = 40
    outcomes, _, _, _ = _flood(
        experiments[1].classifier, payloads[names[1]], flood_requests,
        credited=False, ring_slots=2, max_inflight=1,
    )
    flood_served = [o for o in outcomes if isinstance(o, np.ndarray)]
    flood_shed = [o for o in outcomes if isinstance(o, GatewayRejected)]
    assert flood_served, "overload sub-leg starved every request"
    for got in flood_served:
        assert (got == expected[names[1]]).all(), \
            "overload sub-leg served wrong predictions"
    assert flood_shed, "overload sub-leg shed nothing; cap not enforced"
    assert {exc.code for exc in flood_shed} == {RejectCode.OVERLOADED}

    # Backpressure sub-leg: the same flood over a *credited*
    # connection against a tiny window must be paused (client
    # blocks on credits), never shed — zero OVERLOADED rejects for
    # a credit-respecting client.
    bp_requests = 60
    bp_outcomes, bp_window, bp_waits, bp_shed = _flood(
        experiments[1].classifier, payloads[names[1]], bp_requests,
        credited=True, ring_slots=4, max_inflight=2,
        connection_window=2,
    )
    for got in bp_outcomes:
        assert isinstance(got, np.ndarray), \
            f"backpressure sub-leg failed a request: {got!r}"
        assert (got == expected[names[1]]).all(), \
            "backpressure sub-leg served wrong predictions"
    assert bp_shed == 0, (
        f"credit-respecting client was shed {bp_shed} times; "
        f"backpressure should pause, not reject"
    )
    assert bp_waits > 0, (
        "flood never waited on credits; the tiny window was not "
        "exercised"
    )

    total = sum(served.values())
    return {
        "tenants": tenants,
        "tenant_ids": names,
        "dim": dim,
        "queries_per_request": qpr,
        "workers": num_workers,
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
        "fleet": {
            "batch_duration_ms_p50": batch_ms[50],
            "batch_duration_ms_p95": batch_ms[95],
            "dispatch_wait_ms_p95": wait_ms[95],
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
        "latency": latency,
        "overload": {
            "requests": flood_requests,
            "served": len(flood_served),
            "shed": len(flood_shed),
            "shed_rate": len(flood_shed) / flood_requests,
            "reject_code": "OVERLOADED",
        },
        "backpressure": {
            "requests": bp_requests,
            "window": bp_window,
            "credit_waits": bp_waits,
            "shed_total": bp_shed,
            "paused_not_shed": True,
        },
    }


def run(smoke: bool, registry: MetricsRegistry | None = None) -> dict:
    if smoke:
        shards = 2
        throughput_kw = dict(
            num_classes=6, num_features=16, dim=1_024, levels=8,
            queries_per_request=4, requests=512,
            worker_counts=(1, 2), repeats=1,
        )
        sharded_kw = dict(throughput_kw, requests=256,
                          worker_counts=(shards,))
        gateway_kw = dict(tenants=2, num_features=16, dim=1_000, levels=8,
                          error_rate=0.15, passes=1, num_workers=2,
                          min_soak_s=0.75)
    else:
        shards = 4
        throughput_kw = dict(
            num_classes=26, num_features=32, dim=10_000, levels=32,
            queries_per_request=4, requests=4_096,
            worker_counts=(1, 2, 4), repeats=3,
        )
        sharded_kw = dict(throughput_kw, worker_counts=(shards,))
        gateway_kw = dict(tenants=2, num_features=16, dim=2_000, levels=16,
                          error_rate=0.2, passes=2, num_workers=4,
                          min_soak_s=3.0)
    # The registry is installed before any engine starts: each engine's
    # collectors bind the installed registry when they start.
    with use_metrics(registry) if registry is not None else nullcontext():
        throughput = bench_throughput(**throughput_kw)
        # Same workload, class-sharded: each worker owns a row slice of
        # the model and large frames amortise dispatch, so the comparison
        # against the unsharded run at the same worker count is
        # apples-to-apples.
        sharded = bench_throughput(**sharded_kw, num_shards=shards,
                                   frame_requests=256)
        gateway = bench_gateway(**gateway_kw)
    sharded["speedup_vs_unsharded_same_workers"] = (
        sharded["workers"][str(shards)]["requests_per_s"]
        / throughput["workers"][str(shards)]["requests_per_s"]
    )
    return {
        "schema": 8,
        "generated_by": "benchmarks/bench_serve.py"
        + (" --smoke" if smoke else ""),
        **host(),
        "throughput": throughput,
        "throughput_class_sharded": sharded,
        "gateway": gateway,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workloads (CI smoke); prints JSON only "
                             "unless --output is given")
    parser.add_argument("--output", type=Path, default=None,
                        help=f"where to write the JSON "
                             f"(default: {DEFAULT_OUTPUT})")
    parser.add_argument("--prom-output", type=Path, default=None,
                        help="record metrics over every leg and write "
                             "them in Prometheus text format")
    args = parser.parse_args(argv)

    registry = MetricsRegistry() if args.prom_output is not None else None
    write_record(run(args.smoke, registry),
                 args.output or (None if args.smoke else DEFAULT_OUTPUT))
    if args.prom_output is not None:
        write_prometheus(registry, args.prom_output)
        print(f"wrote {args.prom_output}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
