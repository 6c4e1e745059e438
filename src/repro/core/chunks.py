"""Noisy-chunk detection (paper Section 4.2).

After a query matches a class with high confidence, RobustHD splits both
the query and the class hypervectors into ``m`` chunks of size
``d = D / m`` and treats *each chunk as a small HDC model of its own*: the
query's chunk is classified against the corresponding chunk of every class
hypervector.  Chunks whose local winner agrees with the global (trusted)
prediction are *healthy*; chunks that locally prefer a different class are
flagged *faulty* — accumulated bit flips inside such a chunk have dragged
it away from where the clean model would place it.

Detection is purely a read-side computation; the repair itself lives in
:mod:`repro.core.recovery`.

Serving fast path: for a 1-bit model and binary (or already packed)
queries, per-chunk similarities are one call of the active kernel
backend's ``chunk_distance_table`` on the model's cached packed words, at
any chunk size ``d`` — a chunk may start and end inside a 64-bit word.
The chunk similarity is exactly ``d/2 - hamming`` per chunk,
bit-identical to the float einsum (every term is a multiple of 0.5,
summed exactly).  Only multi-bit models and float queries take the
einsum; ``queries.astype(np.float64)`` is how tests reach it.
"""

from __future__ import annotations

import numpy as np

from repro.core.hypervector import as_chunks
from repro.core.model import (
    HDCModel,
    _as_unpacked,
    _centered_weights,
    _query_words,
)
from repro.core.packed import PackedHypervectors
from repro.obs.metrics import current as _metrics

__all__ = [
    "chunk_similarities",
    "chunk_similarities_batch",
    "detect_faulty_chunks",
    "detect_faulty_chunks_batch",
    "chunk_accuracy_profile",
]


def chunk_similarities(
    model: HDCModel, query: np.ndarray, num_chunks: int
) -> np.ndarray:
    """Per-chunk similarity of one binary query to every class.

    Returns ``(num_chunks, k)``: entry ``(j, c)`` is the similarity of the
    query's ``j``-th chunk to class ``c``'s ``j``-th chunk, using the same
    centred-weight dot product as full-width inference so that the chunk
    votes sum exactly to the global similarity.
    """
    if query.ndim != 1:
        raise ValueError(f"expected a single 1-D query, got {query.ndim}-D")
    if query.shape[0] != model.dim:
        raise ValueError(f"query dim {query.shape[0]} != model dim {model.dim}")
    return chunk_similarities_batch(model, query[None, :], num_chunks)[0]


def chunk_similarities_batch(
    model: HDCModel,
    queries: np.ndarray | PackedHypervectors,
    num_chunks: int,
) -> np.ndarray:
    """Per-chunk similarities for a query batch, shape ``(b, m, k)``.

    The batched form of :func:`chunk_similarities`; one packed kernel
    call (or one einsum on the fallback path) replaces a Python loop
    over queries.  Accepts packed queries
    (:class:`~repro.core.packed.PackedHypervectors`), whose words the
    kernel consumes as-is; on the einsum path they are unpacked, so
    results never depend on the input form.
    """
    words = _query_words(model, queries)
    if num_chunks < 1 or model.dim % num_chunks != 0:
        # Delegate the error to as_chunks for a consistent message.
        as_chunks(np.empty(model.dim, dtype=np.uint8), num_chunks)
    metrics = _metrics()
    if words is not None:
        if metrics.enabled:
            metrics.inc("chunks.detect_batches_packed")
        distances = model.packed().chunk_distances(words, num_chunks)
        return (model.dim // num_chunks) / 2.0 - distances
    if metrics.enabled:
        metrics.inc("chunks.detect_batches_float")
    q_chunks = as_chunks(
        _as_unpacked(queries).astype(np.float64) * 2.0 - 1.0, num_chunks
    )  # (b, m, d)
    w = _centered_weights(model.class_hv, model.bits)  # (k, D)
    w_chunks = as_chunks(w, num_chunks)  # (k, m, d)
    return np.einsum("bmd,kmd->bmk", q_chunks, w_chunks)


def detect_faulty_chunks(
    model: HDCModel,
    query: np.ndarray,
    predicted: int,
    num_chunks: int,
    margin: float = 0.02,
) -> np.ndarray:
    """Boolean mask ``(num_chunks,)``; True marks a faulty chunk.

    A chunk is faulty when some other class beats the trusted global
    prediction ``predicted`` *locally by more than* ``margin * d``
    similarity (``d`` being the chunk size).  The margin matters: even on
    a perfectly clean model a small chunk occasionally prefers a
    neighbouring class by a hair — flagging those would let probabilistic
    substitution slowly erode a healthy model toward individual queries.
    Accumulated bit flips, by contrast, open local deficits well past a
    few percent of the chunk, so a small margin separates the two regimes
    cleanly (clean-model flag rates drop from ~14% to ~1-2% at
    ``margin=0.02`` while attacked chunks still trip the detector).
    ``margin=0`` recovers the strict mismatch rule.
    """
    if query.ndim != 1:
        raise ValueError(f"expected a single 1-D query, got {query.ndim}-D")
    return detect_faulty_chunks_batch(
        model,
        query[None, :],
        np.array([predicted], dtype=np.int64),
        num_chunks,
        margin,
    )[0]


def detect_faulty_chunks_batch(
    model: HDCModel,
    queries: np.ndarray | PackedHypervectors,
    predicted: np.ndarray,
    num_chunks: int,
    margin: float = 0.02,
) -> np.ndarray:
    """Faulty-chunk masks ``(b, num_chunks)`` for a batch of queries.

    ``predicted[i]`` is the trusted global label of ``queries[i]``; the
    per-chunk vote of query ``i`` is compared against it exactly as in
    :func:`detect_faulty_chunks`.  Queries may be uint8 bits or packed
    words (see :func:`chunk_similarities_batch`).
    """
    if not isinstance(queries, PackedHypervectors):
        queries = np.atleast_2d(queries)
    num_queries = len(queries)
    predicted = np.asarray(predicted, dtype=np.int64)
    if predicted.ndim != 1 or predicted.shape[0] != num_queries:
        raise ValueError(
            f"predicted must be (b,) labels for {num_queries} queries"
        )
    if predicted.size and (
        predicted.min() < 0 or predicted.max() >= model.num_classes
    ):
        bad = predicted[(predicted < 0) | (predicted >= model.num_classes)][0]
        raise ValueError(
            f"predicted class {bad} out of range [0, {model.num_classes})"
        )
    if margin < 0:
        raise ValueError(f"margin must be >= 0, got {margin}")
    sims = chunk_similarities_batch(model, queries, num_chunks)  # (b, m, k)
    best = sims.max(axis=2)  # (b, m)
    own = sims[np.arange(num_queries), :, predicted]  # (b, m)
    chunk_size = model.dim // num_chunks
    return (best - own) > margin * chunk_size


def chunk_accuracy_profile(
    model: HDCModel,
    queries: np.ndarray,
    labels: np.ndarray,
    num_chunks: int,
) -> np.ndarray:
    """Fraction of queries each chunk classifies correctly, ``(num_chunks,)``.

    A diagnostic used by the ablation benchmarks: on a clean model every
    chunk should perform well above chance; after an attack the profile
    dips exactly at the chunks that absorbed flips, which is the signal
    the detector exploits.  Computed as one batched sweep over all
    queries (one packed kernel call for a 1-bit model, a single einsum
    otherwise).
    """
    labels = np.asarray(labels, dtype=np.int64)
    queries = np.atleast_2d(queries)
    sims = chunk_similarities_batch(model, queries, num_chunks)  # (b, m, k)
    hits = (np.argmax(sims, axis=2) == labels[:, None]).sum(axis=0)
    return hits / np.float64(labels.shape[0])
