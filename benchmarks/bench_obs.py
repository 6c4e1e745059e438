"""Observability overhead benchmark: instrumented vs no-op hot paths.

The serving and recovery hot paths carry metrics hooks
(:mod:`repro.obs.metrics`) and the recovery engine can additionally
record a structured per-block trace (:mod:`repro.obs.trace`).  This
benchmark measures what those hooks cost on the two paths that matter:

* **predict** — batched 1-bit classification through the packed
  XOR+popcount backend (D = 10,000, k = 12, batch 2,048 in the full
  run), no-op registry vs a recording
  :class:`~repro.obs.metrics.MetricsRegistry`;
* **recovery** — the block-batched recovery stream (m = 20 chunks,
  1,024 queries in the full run), no-op vs recording metrics vs full
  :class:`~repro.obs.trace.RecoveryTrace` capture;
* **telemetry** — the cross-process serving telemetry
  (:mod:`repro.obs.telemetry`): two multi-worker engines, flight rings
  on and off, built and warmed before either is timed (predictions
  asserted identical) and then timed in alternating pairs, plus a
  micro-measured per-batch recording cost (the batch's two flight-ring
  events) compared against the mean worker batch duration from the
  engine's batch trace.  The micro ratio is the gated number —
  multiprocess wall clock is too noisy to gate on.

Target: **< 5% overhead** with a recording registry installed (the
default no-op registry costs one attribute lookup + empty call per batch
and should be unmeasurable), and **< 5%** per-batch telemetry recording
cost relative to the batch it instruments.  The instrumented and no-op
arms run interleaved, alternating which goes first, and the gated
overhead is the median of the per-round time ratios, so host drift
between rounds cancels instead of reading as overhead.  The benchmark
asserts the results are bit-identical across all instrumentation modes
while it measures.

Usage::

    PYTHONPATH=src python benchmarks/bench_obs.py           # writes BENCH_obs.json
    PYTHONPATH=src python benchmarks/bench_obs.py --smoke   # CI smoke, prints JSON only

``--smoke`` shrinks the workloads to a couple of seconds and skips the
wall-clock overhead assertion (tiny workloads make percentage noise
meaningless); the telemetry record-cost gate applies in *both* modes —
it is a stable micro-measurement.  A full run exits non-zero if either
target is missed, a smoke run if the telemetry target is.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from _common import host, write_record

from repro.core.encoder import Encoder
from repro.core.model import HDCClassifier, HDCModel
from repro.core.recovery import RecoveryConfig, RobustHDRecovery
from repro.datasets.synthetic import make_prototype_classification
from repro.faults.api import attack
from repro.obs.metrics import (
    MetricsRegistry,
    NullMetrics,
    disable_metrics,
    use_metrics,
)
from repro.obs.telemetry import (
    EV_BATCH_END,
    EV_BATCH_START,
    FLIGHT_SLOTS,
    TelemetryWriter,
    slab_words,
)
from repro.serve import ServeRequest, ServingEngine

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_obs.json"
OVERHEAD_TARGET = 0.05


def _under(registry: MetricsRegistry, fn):
    """``fn`` as an arm that runs with ``registry`` installed."""
    def arm():
        with use_metrics(registry):
            return fn()
    return arm


def _paired(arms: dict, rounds: int) -> dict:
    """Time the arms interleaved, reversing their order every round, so
    each arm runs before and after each other arm equally often.

    Returns each arm's median wall seconds and, for every arm after the
    first (the no-op baseline), ``<arm>_overhead``: the median over
    rounds of its time over the baseline's time in the same round,
    minus one.
    """
    names = list(arms)
    times = {name: [] for name in names}
    for r in range(rounds):
        for name in names if r % 2 == 0 else names[::-1]:
            start = time.perf_counter()
            arms[name]()
            times[name].append(time.perf_counter() - start)
    base = np.array(times[names[0]])
    out = {name: float(np.median(t)) for name, t in times.items()}
    for name in names[1:]:
        ratios = np.array(times[name]) / base
        out[f"{name}_overhead"] = float(np.median(ratios)) - 1.0
    return out


def predict_bulk(engine: ServingEngine, words: np.ndarray) -> np.ndarray:
    """Ordered bulk predict: requests of at most
    ``max_queries_per_request`` rows, frame-batched, concatenated."""
    step = engine.max_queries_per_request
    futures = [
        engine.submit(ServeRequest(words[lo : lo + step]), flush=False)
        for lo in range(0, words.shape[0], step)
    ]
    engine.flush()
    return np.concatenate([
        future.result(timeout=60.0).predictions for future in futures
    ])


def _make_workload(dim: int, num_classes: int, batch: int, noise: float,
                   seed: int = 0):
    rng = np.random.default_rng(seed)
    prototypes = rng.integers(0, 2, (num_classes, dim), dtype=np.uint8)
    labels = rng.integers(0, num_classes, batch)
    queries = prototypes[labels].copy()
    queries[rng.random(queries.shape) < noise] ^= 1
    return HDCModel(prototypes), queries, labels


def bench_predict(dim: int, num_classes: int, batch: int,
                  rounds: int) -> dict:
    model, queries, _ = _make_workload(dim, num_classes, batch, noise=0.2)
    model.packed()  # warm the version-stamped cache
    registry = MetricsRegistry()
    noop = _under(NullMetrics(), lambda: model.predict(queries))
    recording = _under(registry, lambda: model.predict(queries))
    assert (recording() == noop()).all(), "metrics changed predictions"
    assert registry.counter("model.queries_served") > 0
    timed = _paired({"noop": noop, "metrics": recording}, rounds)
    return {
        "dim": dim,
        "num_classes": num_classes,
        "batch": batch,
        "rounds": rounds,
        "noop_qps": batch / timed["noop"],
        "metrics_qps": batch / timed["metrics"],
        "metrics_overhead": timed["metrics_overhead"],
    }


def bench_recovery(dim: int, num_classes: int, num_chunks: int, stream: int,
                   rounds: int) -> dict:
    model, queries, _ = _make_workload(dim, num_classes, stream, noise=0.2,
                                       seed=2)
    config = RecoveryConfig(num_chunks=num_chunks, block_size=256)

    def run(with_trace: bool):
        attacked, _ = attack(model, 0.05, "random", np.random.default_rng(3))
        rec = RobustHDRecovery(attacked, config, seed=7)
        if not with_trace:
            # Bypass the wrapper's always-on trace to measure the
            # bare engine: block calls with no trace argument.
            from repro.core.recovery import recover_block

            preds = np.empty(queries.shape[0], dtype=np.int64)
            for lo in range(0, queries.shape[0], config.block_size):
                hi = lo + config.block_size
                preds[lo:hi] = recover_block(
                    rec.model, queries[lo:hi], config, rec.rng
                )
            return preds, rec.model.class_hv
        preds = rec.process(queries)
        return preds, rec.model.class_hv

    registry = MetricsRegistry()
    arms = {
        "noop": _under(NullMetrics(), lambda: run(with_trace=False)),
        "metrics": _under(registry, lambda: run(with_trace=False)),
        "trace": _under(NullMetrics(), lambda: run(with_trace=True)),
    }
    ref = arms["noop"]()
    for name in ("metrics", "trace"):
        got = arms[name]()
        assert (got[0] == ref[0]).all(), f"{name} changed predictions"
        assert (got[1] == ref[1]).all(), f"{name} changed the repaired model"
    assert registry.counter("recovery.queries") > 0
    timed = _paired(arms, rounds)
    return {
        "dim": dim,
        "num_chunks": num_chunks,
        "stream": stream,
        "rounds": rounds,
        "noop_qps": stream / timed["noop"],
        "metrics_qps": stream / timed["metrics"],
        "trace_qps": stream / timed["trace"],
        "metrics_overhead": timed["metrics_overhead"],
        "trace_overhead": timed["trace_overhead"],
    }


def bench_telemetry(num_classes: int, num_features: int, dim: int,
                    levels: int, batch: int, rounds: int,
                    pairs: int) -> dict:
    """Serving-telemetry cost: flight rings on vs off, plus the micro
    record cost.

    The gated number is ``record_overhead_vs_batch``: the measured cost
    of one worker's per-batch recording (its batch start and batch end
    flight events) divided by the mean worker batch duration in the
    telemetry-on engine's trace.  Engine wall clock for both modes is
    reported alongside as context, not gated: both engines are built
    and warmed first (the first engine a process builds runs slower),
    then timed in ``pairs`` alternating rounds of ``rounds`` bulk
    predicts each, and ``wall_overhead`` is the median per-round ratio.
    """
    task = make_prototype_classification(
        "bench-obs-tele", num_features=num_features, num_classes=num_classes,
        num_train=num_classes * 30, num_test=max(64, batch), seed=0,
    )
    encoder = Encoder(num_features=num_features, dim=dim, levels=levels,
                      seed=1)
    classifier = HDCClassifier(
        encoder, num_classes=num_classes, epochs=1, seed=2
    ).fit(task.train_x, task.train_y)
    rng = np.random.default_rng(3)
    queries = np.ascontiguousarray(encoder.encode_packed(
        task.test_x[rng.integers(0, task.test_x.shape[0], batch)]
    ).words)

    disable_metrics()

    def serve(engine: ServingEngine):
        def arm():
            for _ in range(rounds):
                predict_bulk(engine, queries)
        return arm

    engines = {}
    try:
        for name, telemetry in (("off", False), ("on", True)):
            engines[name] = ServingEngine(classifier, num_workers=2,
                                          telemetry=telemetry)
        # Warm-up (fork + adoption) and the bit-identity check.
        preds = {name: predict_bulk(engine, queries)
                 for name, engine in engines.items()}
        assert (preds["on"] == preds["off"]).all(), \
            "telemetry changed predictions"
        # "off" first: the no-op baseline the overhead is read against.
        timed = _paired({"off": serve(engines["off"]),
                         "on": serve(engines["on"])}, pairs)
    finally:
        for engine in engines.values():
            engine.stop()
    durations = [event.duration_s for event in engines["on"].trace]
    mean_batch_ns = float(np.mean(durations)) * 1e9

    # Micro-measure the per-batch record path on an in-process slab
    # (identical code path — the writer is buffer-agnostic).
    writer = TelemetryWriter(
        np.zeros(slab_words(FLIGHT_SLOTS), dtype=np.uint64), 0
    )
    iters = 2_000
    best_record = float("inf")
    for _ in range(max(3, pairs)):
        start = time.perf_counter()
        for i in range(iters):
            writer.record_event(EV_BATCH_START, i, i, 8, i)
            writer.record_event(EV_BATCH_END, i, i, 32, 1_000)
        best_record = min(best_record, time.perf_counter() - start)
    record_ns = best_record / iters * 1e9

    return {
        "dim": dim,
        "batch": batch,
        "rounds": rounds,
        "pairs": pairs,
        "telemetry_on_qps": rounds * batch / timed["on"],
        "telemetry_off_qps": rounds * batch / timed["off"],
        "wall_overhead": timed["on_overhead"],
        "worker_batches": len(durations),
        "mean_batch_us": mean_batch_ns / 1e3,
        "record_cost_us": record_ns / 1e3,
        "record_overhead_vs_batch": record_ns / max(1.0, mean_batch_ns),
    }


def run(smoke: bool) -> dict:
    if smoke:
        predict_kw = dict(dim=2_048, num_classes=6, batch=256, rounds=4)
        recover_kw = dict(dim=2_000, num_classes=6, num_chunks=20,
                          stream=128, rounds=4)
        telemetry_kw = dict(num_classes=6, num_features=16, dim=1_024,
                            levels=8, batch=256, rounds=4, pairs=2)
    else:
        predict_kw = dict(dim=10_000, num_classes=12, batch=2_048,
                          rounds=64)
        recover_kw = dict(dim=10_000, num_classes=12, num_chunks=20,
                          stream=1_024, rounds=48)
        telemetry_kw = dict(num_classes=12, num_features=32, dim=4_096,
                            levels=16, batch=1_024, rounds=8, pairs=16)
    return {
        "schema": 4,
        "generated_by": "benchmarks/bench_obs.py"
        + (" --smoke" if smoke else ""),
        **host(),
        "overhead_target": OVERHEAD_TARGET,
        "predict": bench_predict(**predict_kw),
        "recovery": bench_recovery(**recover_kw),
        "telemetry": bench_telemetry(**telemetry_kw),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workloads (CI smoke); prints JSON only "
                             "unless --output is given, and skips the "
                             "overhead assertion")
    parser.add_argument("--output", type=Path, default=None,
                        help=f"where to write the JSON "
                             f"(default: {DEFAULT_OUTPUT})")
    args = parser.parse_args(argv)

    results = run(args.smoke)
    write_record(results,
                 args.output or (None if args.smoke else DEFAULT_OUTPUT))

    failed = False
    # The telemetry record cost is a stable micro-measurement: gate it in
    # smoke runs too (CI runs --smoke only).
    telemetry_overhead = results["telemetry"]["record_overhead_vs_batch"]
    if telemetry_overhead > OVERHEAD_TARGET:
        print(
            f"FAIL: telemetry record cost {telemetry_overhead:.1%} of a "
            f"worker batch exceeds the {OVERHEAD_TARGET:.0%} target",
            file=sys.stderr,
        )
        failed = True
    else:
        print(
            f"telemetry record cost within target: {telemetry_overhead:.1%} "
            f"of a worker batch < {OVERHEAD_TARGET:.0%}",
            file=sys.stderr,
        )
    if not args.smoke:
        worst = max(
            results["predict"]["metrics_overhead"],
            results["recovery"]["metrics_overhead"],
        )
        if worst > OVERHEAD_TARGET:
            print(
                f"FAIL: metrics overhead {worst:.1%} exceeds the "
                f"{OVERHEAD_TARGET:.0%} target",
                file=sys.stderr,
            )
            failed = True
        else:
            print(
                f"metrics overhead within target: worst {worst:.1%} "
                f"< {OVERHEAD_TARGET:.0%}",
                file=sys.stderr,
            )
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
