"""Serving-engine benchmark: packed XOR+popcount vs the float64 reference.

Measures the three hot paths of the RobustHD serving engine at the
paper's deployment shape (D = 10,000, k = 12 — the HAR workload):

* **predict** — batched 1-bit classification, packed Hamming search vs
  the float64 ``bipolar @ weights.T`` reference;
* **detect** — noisy-chunk detection over a query batch, one packed
  chunk-distance kernel call vs the seed's per-query float loop, at a
  word-aligned chunk size (D = 10,240, d = 512) and at an unaligned one
  (D = 10,000, d = 500: chunks start and end inside words);
* **recover** — the full online recovery step (confidence gate + chunk
  votes + probabilistic substitution) as a block-batched packed stream
  vs the seed's one-query-at-a-time float loop.

Both backends produce bit-identical predictions and identical seeded
recovery outcomes (asserted here and property-tested in
``tests/core``); the benchmark records throughput in queries/sec and the
speedup ratio as JSON so future PRs have a perf trajectory to regress
against.

Usage::

    PYTHONPATH=src python benchmarks/bench_serving.py            # writes BENCH_serving.json
    PYTHONPATH=src python benchmarks/bench_serving.py --quick    # CI smoke, prints JSON only

``--quick`` shrinks every workload so the run takes a couple of seconds
and, unless ``--output`` is given explicitly, does not overwrite the
committed ``BENCH_serving.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from repro.core import kernels
from repro.core.chunks import chunk_similarities, chunk_similarities_batch
from repro.core.encoder import Encoder
from repro.core.model import HDCModel
from repro.core.packed import float_backend
from repro.core.recovery import RecoveryConfig, RobustHDRecovery

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_serving.json"
# bench_serve.py (the multi-worker engine benchmark) owns this file;
# refusing it here keeps the near-homonym artifacts unambiguous.
FORBIDDEN_OUTPUT = "BENCH_serve.json"


def _time(fn, repeats: int) -> float:
    """Best-of-``repeats`` wall time of ``fn()`` in seconds."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _make_workload(dim: int, num_classes: int, batch: int, noise: float,
                   seed: int = 0):
    """A random-prototype model and near-prototype queries."""
    rng = np.random.default_rng(seed)
    prototypes = rng.integers(0, 2, (num_classes, dim), dtype=np.uint8)
    labels = rng.integers(0, num_classes, batch)
    queries = prototypes[labels].copy()
    queries[rng.random(queries.shape) < noise] ^= 1
    return HDCModel(prototypes), queries, labels


def bench_predict(dim: int, num_classes: int, batch: int, repeats: int) -> dict:
    model, queries, _ = _make_workload(dim, num_classes, batch, noise=0.2)
    with float_backend():
        ref = model.predict(queries)
        t_float = _time(lambda: model.predict(queries), repeats)
    model.packed()  # warm the version-stamped cache, as a serving loop would
    got = model.predict(queries)
    assert (got == ref).all(), "packed and float predictions diverged"
    t_packed = _time(lambda: model.predict(queries), repeats)
    return {
        "dim": dim,
        "num_classes": num_classes,
        "batch": batch,
        "float_qps": batch / t_float,
        "packed_qps": batch / t_packed,
        "speedup": t_float / t_packed,
    }


def bench_detect(dim: int, num_classes: int, num_chunks: int, batch: int,
                 repeats: int) -> dict:
    model, queries, _ = _make_workload(dim, num_classes, batch, noise=0.2,
                                       seed=1)

    def seed_loop():
        with float_backend():
            return np.stack(
                [chunk_similarities(model, q, num_chunks) for q in queries]
            )

    ref = seed_loop()
    got = chunk_similarities_batch(model, queries, num_chunks)
    assert (got == ref).all(), "packed and float chunk similarities diverged"
    t_loop = _time(seed_loop, max(1, repeats // 2))
    t_batch = _time(
        lambda: chunk_similarities_batch(model, queries, num_chunks), repeats
    )
    chunk_size = dim // num_chunks
    return {
        "dim": dim,
        "num_chunks": num_chunks,
        "word_aligned": chunk_size % 64 == 0,
        "batch": batch,
        "float_loop_qps": batch / t_loop,
        "packed_batch_qps": batch / t_batch,
        "speedup": t_loop / t_batch,
    }


def bench_recover(dim: int, num_classes: int, num_chunks: int, stream: int,
                  repeats: int) -> dict:
    model, queries, _ = _make_workload(dim, num_classes, stream, noise=0.2,
                                       seed=2)
    config = RecoveryConfig(num_chunks=num_chunks)
    attack_rng = np.random.default_rng(3)
    flips = attack_rng.choice(model.total_bits,
                              size=model.total_bits // 20, replace=False)

    def corrupted():
        from repro.faults.bitflip import flip_hdc_bits

        out = model.copy()
        flip_hdc_bits(out, flips)
        return out

    def run_seed_loop():
        rec = RobustHDRecovery(corrupted(), config, seed=7, block_size=1)
        with float_backend():
            preds = rec.process(queries)
        return preds, rec.model.class_hv

    def run_packed_blocks():
        rec = RobustHDRecovery(corrupted(), config, seed=7, block_size=256)
        preds = rec.process(queries)
        return preds, rec.model.class_hv

    ref_preds, ref_hv = run_seed_loop()
    got_preds, got_hv = run_packed_blocks()
    assert (ref_preds == got_preds).all(), "recovery predictions diverged"
    assert (ref_hv == got_hv).all(), "recovered models diverged"
    t_seq = _time(run_seed_loop, max(1, repeats // 2))
    t_blk = _time(run_packed_blocks, repeats)
    return {
        "dim": dim,
        "num_chunks": num_chunks,
        "stream": stream,
        "float_sequential_qps": stream / t_seq,
        "packed_block_qps": stream / t_blk,
        "speedup": t_seq / t_blk,
    }


def run(quick: bool) -> dict:
    if quick:
        predict_kw = dict(dim=2_048, num_classes=6, batch=256, repeats=2)
        detect_kw = dict(dim=2_560, num_classes=6, num_chunks=20, batch=64,
                         repeats=2)
        unaligned_kw = dict(dim=2_000, num_classes=6, num_chunks=20, batch=64,
                            repeats=2)
        recover_kw = dict(dim=2_000, num_classes=6, num_chunks=20, stream=128,
                          repeats=1)
    else:
        predict_kw = dict(dim=10_000, num_classes=12, batch=2_048, repeats=5)
        detect_kw = dict(dim=10_240, num_classes=12, num_chunks=20,
                         batch=512, repeats=5)
        unaligned_kw = dict(dim=10_000, num_classes=12, num_chunks=20,
                            batch=512, repeats=3)
        recover_kw = dict(dim=10_000, num_classes=12, num_chunks=20,
                          stream=1_024, repeats=3)
    return {
        "schema": 3,
        "generated_by": "benchmarks/bench_serving.py"
        + (" --quick" if quick else ""),
        "python": sys.version.split()[0],
        "cpus": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "hardware_popcount": hasattr(np, "bitwise_count"),
        "kernel_backend": kernels.active_backend().name,
        # Resolved encode block budget (field > REPRO_ENCODE_BLOCK_BYTES env
        # > default); shape-independent, reported for the perf trajectory.
        "encode_block_bytes": Encoder(num_features=1, dim=64,
                                      levels=2, seed=0).block_bytes(),
        "predict": bench_predict(**predict_kw),
        "detect_word_aligned": bench_detect(**detect_kw),
        "detect_unaligned": bench_detect(**unaligned_kw),
        "recover_step": bench_recover(**recover_kw),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="tiny workloads (CI smoke); prints JSON only "
                             "unless --output is given")
    parser.add_argument("--output", type=Path, default=None,
                        help=f"where to write the JSON "
                             f"(default: {DEFAULT_OUTPUT})")
    args = parser.parse_args(argv)
    if args.output is not None and args.output.name == FORBIDDEN_OUTPUT:
        parser.error(
            f"{FORBIDDEN_OUTPUT} belongs to benchmarks/bench_serve.py; "
            f"this script writes {DEFAULT_OUTPUT.name}"
        )

    results = run(args.quick)
    text = json.dumps(results, indent=2)
    print(text)
    output = args.output
    if output is None and not args.quick:
        output = DEFAULT_OUTPUT
    if output is not None:
        output.write_text(text + "\n")
        print(f"\nwrote {output}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
