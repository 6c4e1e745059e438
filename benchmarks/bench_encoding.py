"""Encoding & training benchmark: packed codebook engine vs the reference.

Measures the two paths this repo's packed encoding engine replaced at the
paper's deployment shape (n = 64 features, D = 10,000, L = 32 levels —
the HAR-sized workload):

* **encode** — ``Encoder.encode_batch`` via the precomputed packed bound
  codebook + carry-save-adder majority on the active kernel backend,
  vs the seed's ``(block, n, D)`` uint8 bound-tensor sum (kept as
  ``encode_batch_reference``), plus ``encode_packed`` emitting packed
  words directly (what the serving stack actually ingests — no unpack
  at all);
* **encode_backends** — ``encode_packed`` on every available CPU kernel
  backend (``numpy``, ``native``) at the shapes the serving benchmark
  encodes: the n = 64 shape above, a coalesced batch of the batched
  feature workload (n = 32, b = 256), one ucihar read (n = 561, b = 1)
  and the ucihar model fit (n = 561, b = 2,000);
* **fit** — ``HDCClassifier.fit_encoded``'s blocked GEMM + patch-forward
  perceptron vs the seed's ``np.add.at`` bundling and per-sample Python
  loop, with per-epoch and whole-fit timings;
* **partial_fit** — streaming single-pass bundling throughput.

Every timed pair is asserted bit-identical before timing (the same
equivalences are property-tested in ``tests/core``); results are written
as JSON, with the host's CPU count and the active kernel backend, so
future changes have a perf trajectory to regress against.

Usage::

    PYTHONPATH=src python benchmarks/bench_encoding.py           # writes BENCH_encoding.json
    PYTHONPATH=src python benchmarks/bench_encoding.py --smoke   # CI smoke, prints JSON only

``--smoke`` shrinks every workload so the run takes a couple of seconds
and, unless ``--output`` is given explicitly, does not overwrite the
committed ``BENCH_encoding.json``.
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

import numpy as np

from _common import host, write_record

from repro.core import kernels
from repro.core.encoder import Encoder, clear_codebook_cache
from repro.core.hypervector import class_bundle_counts
from repro.core.model import (
    HDCClassifier,
    _perceptron_epoch,
    _perceptron_epoch_reference,
)
from repro.core.packed import unpack
from repro.datasets.synthetic import make_classification

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_encoding.json"


def _time(fn, repeats: int) -> float:
    """Best-of-``repeats`` wall time of ``fn()`` in seconds."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_encode(num_features: int, dim: int, levels: int, batch: int,
                 repeats: int) -> dict:
    clear_codebook_cache()
    enc = Encoder(num_features=num_features, dim=dim, levels=levels, seed=0)
    rng = np.random.default_rng(0)
    features = rng.random((batch, num_features))

    ref = enc.encode_batch_reference(features)
    enc.packed_codebook()  # warm the lazy bound codebook, as serving would
    got = enc.encode_batch(features)
    assert (got == ref).all(), "packed and reference encodings diverged"
    assert (unpack(enc.encode_packed(features)) == ref).all(), \
        "encode_packed diverged from the reference"

    t_ref = _time(lambda: enc.encode_batch_reference(features),
                  max(1, repeats // 2))
    t_packed = _time(lambda: enc.encode_batch(features), repeats)
    t_words = _time(lambda: enc.encode_packed(features), repeats)
    codebook = enc.packed_codebook()
    return {
        "num_features": num_features,
        "dim": dim,
        "levels": levels,
        "batch": batch,
        "block_bytes": enc.block_bytes(),
        "rows_per_block_packed": enc.rows_per_block(packed=True),
        "rows_per_block_reference": enc.rows_per_block(packed=False),
        "bound_codebook_bytes": int(codebook.words.nbytes),
        "reference_rows_per_s": batch / t_ref,
        "packed_rows_per_s": batch / t_packed,
        "packed_words_rows_per_s": batch / t_words,
        "speedup": t_ref / t_packed,
        "speedup_packed_words": t_ref / t_words,
    }


def bench_encode_backends(dim: int, levels: int,
                          shapes: list[tuple[int, int]],
                          repeats: int) -> list[dict]:
    """``encode_packed`` µs/row on each available CPU kernel backend.

    ``shapes`` are ``(num_features, batch)`` pairs.  Every backend's
    words are asserted bit-identical before any is timed.
    """
    names = [name for name in ("numpy", "native")
             if kernels.available_backends()[name]]
    records = []
    for num_features, batch in shapes:
        clear_codebook_cache()
        enc = Encoder(num_features=num_features, dim=dim, levels=levels,
                      seed=0)
        features = np.random.default_rng(0).random((batch, num_features))
        enc.packed_codebook()
        words = {}
        for name in names:
            with kernels.use_kernel_backend(name):
                words[name] = enc.encode_packed(features).words
        first = words[names[0]]
        assert all((w == first).all() for w in words.values()), \
            f"kernel backends diverged at n={num_features}, b={batch}"
        us_per_row = {}
        for name in names:
            with kernels.use_kernel_backend(name):
                seconds = _time(lambda: enc.encode_packed(features), repeats)
            us_per_row[name] = seconds * 1e6 / batch
        record = {"num_features": num_features, "batch": batch,
                  "us_per_row": us_per_row}
        if len(names) == 2:
            record["native_speedup"] = us_per_row["numpy"] / us_per_row["native"]
        records.append(record)
    return records


def _fit_reference(encoded: np.ndarray, labels: np.ndarray, num_classes: int,
                   epochs: int, seed: int) -> tuple[np.ndarray, float, float]:
    """The seed's fit_encoded: scatter-add bundling + per-sample loop.

    Returns (accumulators, bundling seconds, per-epoch seconds) so the
    benchmark can report epoch-level and whole-fit speedups separately.
    """
    start = time.perf_counter()
    bipolar = encoded.astype(np.int64) * 2 - 1
    acc = np.zeros((num_classes, encoded.shape[1]), dtype=np.int64)
    np.add.at(acc, labels, bipolar)
    t_bundle = time.perf_counter() - start

    bipolar8 = (encoded.astype(np.int8) << 1) - 1
    rng = np.random.default_rng(seed)
    epoch_times = []
    for _ in range(epochs):
        start = time.perf_counter()
        wrong = _perceptron_epoch_reference(acc, bipolar8, labels, rng)
        epoch_times.append(time.perf_counter() - start)
        if wrong == 0:
            break
    return acc, t_bundle, sum(epoch_times) / len(epoch_times)


def bench_fit(num_features: int, dim: int, levels: int, num_classes: int,
              num_train: int, epochs: int, separation: float) -> dict:
    task = make_classification(
        "bench", num_features=num_features, num_classes=num_classes,
        num_train=num_train, num_test=2, separation=separation, seed=0,
    )
    enc = Encoder(num_features=num_features, dim=dim, levels=levels, seed=0)
    encoded = enc.encode_batch(task.train_x)
    labels = np.asarray(task.train_y, dtype=np.int64)

    ref_acc, t_bundle_ref, t_epoch_ref = _fit_reference(
        encoded, labels, num_classes, epochs, seed=0
    )
    t_fit_ref = t_bundle_ref + epochs * t_epoch_ref

    def fit_vectorised() -> HDCClassifier:
        clf = HDCClassifier(enc, num_classes=num_classes, epochs=epochs,
                            seed=0)
        clf.fit_encoded(encoded, labels)
        return clf

    # The first fit in a process varied 0.3-1.5 s on a 2-CPU host, so
    # one untimed fit (which is also the equivalence check) goes first.
    assert (fit_vectorised()._acc == ref_acc).all(), \
        "vectorised fit diverged from the per-sample reference"
    t_fit_vec = _time(fit_vectorised, 2)

    # Epoch-only comparison from the same starting accumulators.
    acc0 = class_bundle_counts(encoded, labels, num_classes)
    bipolar8 = (encoded.astype(np.int8) << 1) - 1
    acc_v = acc0.copy()
    start = time.perf_counter()
    _perceptron_epoch(acc_v, bipolar8, labels, np.random.default_rng(1))
    t_epoch_vec = time.perf_counter() - start

    # Streaming single-pass throughput over the same data.
    streamer = HDCClassifier(enc, num_classes=num_classes, epochs=0, seed=0)
    chunk = max(1, num_train // 8)
    start = time.perf_counter()
    for lo in range(0, num_train, chunk):
        streamer.partial_fit_encoded(encoded[lo:lo + chunk],
                                     labels[lo:lo + chunk])
    t_stream = time.perf_counter() - start

    return {
        "num_features": num_features,
        "dim": dim,
        "num_classes": num_classes,
        "num_train": num_train,
        "epochs": epochs,
        "reference_epoch_s": t_epoch_ref,
        "vectorised_epoch_s": t_epoch_vec,
        "epoch_speedup": t_epoch_ref / t_epoch_vec,
        "reference_fit_s": t_fit_ref,
        "vectorised_fit_s": t_fit_vec,
        "fit_speedup": t_fit_ref / t_fit_vec,
        "partial_fit_rows_per_s": num_train / t_stream,
    }


def run(smoke: bool) -> dict:
    if smoke:
        encode_kw = dict(num_features=16, dim=520, levels=8, batch=128,
                         repeats=2)
        backends_kw = dict(dim=520, levels=8, repeats=2,
                           shapes=[(16, 128), (9, 32), (33, 1)])
        fit_kw = dict(num_features=16, dim=512, levels=8, num_classes=4,
                      num_train=200, epochs=2, separation=1.2)
    else:
        encode_kw = dict(num_features=64, dim=10_000, levels=32, batch=1_024,
                         repeats=3)
        backends_kw = dict(dim=10_000, levels=32, repeats=3,
                           shapes=[(64, 1_024), (32, 256), (561, 1),
                                   (561, 2_000)])
        fit_kw = dict(num_features=64, dim=10_000, levels=32, num_classes=12,
                      num_train=3_000, epochs=3, separation=1.2)
    return {
        "schema": 3,
        "generated_by": "benchmarks/bench_encoding.py"
        + (" --smoke" if smoke else ""),
        **host(),
        "encode": bench_encode(**encode_kw),
        "encode_backends": bench_encode_backends(**backends_kw),
        "fit": bench_fit(**fit_kw),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workloads (CI smoke); prints JSON only "
                             "unless --output is given")
    parser.add_argument("--output", type=Path, default=None,
                        help=f"where to write the JSON "
                             f"(default: {DEFAULT_OUTPUT})")
    args = parser.parse_args(argv)

    write_record(run(args.smoke),
                 args.output or (None if args.smoke else DEFAULT_OUTPUT))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
