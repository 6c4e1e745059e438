"""Adaptive neural recovery: probabilistic substitution (paper Sections 4.1-4.3).

This is the paper's headline mechanism.  The HDC model sits in unreliable
memory; there is *no* clean copy anywhere, and no labelled data at
runtime.  RobustHD repairs the model using only the inference stream:

1. **Confidence gate** — each query is classified; predictions whose
   softmax confidence clears ``T_C`` are trusted as pseudo-labels
   (:mod:`repro.core.confidence`).
2. **Noisy-chunk detection** — for a trusted query, every chunk of the
   model is asked to re-classify the query locally; chunks that disagree
   with the trusted prediction are flagged faulty
   (:mod:`repro.core.chunks`).
3. **Probabilistic substitution** — inside each faulty chunk of the
   *predicted class only*, every element is replaced by the query's bit
   with probability ``S`` (the substitution rate): ``p·Q | (1-p)·C``.
   Because a trusted query is, in expectation, on the class's side of
   every decision boundary, cloning its bits pulls the corrupted chunk
   back toward the clean class hypervector; where query and class already
   agree the substitution is a no-op, so healthy bits inside a faulty
   chunk are mostly left alone.

The operation involves no arithmetic (bit selects only), matching the
paper's argument that it maps to cheap in-memory hardware.

Recovery is only defined for the binary (1-bit) deployment model — the
configuration the paper always uses — because substituting query *bits*
into multi-bit levels is not meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

import numpy as np

from repro.core import kernels
from repro.core.chunks import detect_faulty_chunks_batch
from repro.core.confidence import prediction_confidence
from repro.core.hypervector import as_chunks
from repro.core.model import HDCModel, _centered_weights, _is_binary
from repro.core.packed import (
    PackedHypervectors,
    _pack_bits,
    packed_backend_enabled,
    unpack,
)
from repro.obs.metrics import current as _metrics
from repro.obs.trace import RecoveryBlockEvent, RecoveryTrace, _as_nested_tuple

__all__ = [
    "ModelPublisher",
    "RecoveryConfig",
    "RecoveryStats",
    "probabilistic_substitution",
    "recover_step",
    "recover_block",
    "RobustHDRecovery",
]


@runtime_checkable
class ModelPublisher(Protocol):
    """Where a recovery writer announces new model generations.

    The online recovery loop is the single writer of the live model; a
    publisher is its outbound channel to concurrent readers (the
    :mod:`repro.serve` engine ships a shared-memory implementation, and
    any object with these two methods works — the protocol keeps
    ``repro.core`` free of serving dependencies):

    * :meth:`publish` — called after a processed block whose recovery
      writes bumped :attr:`HDCModel.version`; implementations snapshot
      ``model.packed()`` (fresh by the ``writable()``/``bump_version``
      contract) as a new immutable *generation* for readers to adopt.
    * :meth:`touch` — called after a block with no model write; a
      heartbeat so readers can distinguish "writer alive, model stable"
      from "writer stalled" (the serve tier's degraded-mode trigger).

    A generation is one logical snapshot but not necessarily one
    storage object: a sharded publisher
    (:class:`repro.serve.shm.GenerationPublisher` with a
    :class:`~repro.serve.shard.ShardPlan`) materialises each generation
    as one segment per model shard, all written before the generation
    becomes visible.  The recovery loop neither knows nor cares — one
    ``publish`` call, one generation number, one model version.
    """

    def publish(self, model: HDCModel) -> int:
        """Snapshot the model as a new generation; returns its number."""
        ...

    def touch(self) -> None:
        """Heartbeat: the writer is alive but published nothing new."""
        ...


@dataclass(frozen=True, kw_only=True)
class RecoveryConfig:
    """Hyper-parameters of the recovery loop.

    All fields are keyword-only: positional construction silently swapped
    meanings as fields were added, so ``RecoveryConfig(0.9, 0.2)`` is now
    a ``TypeError`` instead of a latent bug.

    Attributes
    ----------
    confidence_threshold:
        ``T_C`` — minimum softmax confidence for a prediction to be
        trusted as a pseudo-label.  Larger values update less often but
        more safely (Figure 3).
    substitution_rate:
        ``S`` — per-element probability of cloning the query bit into a
        faulty chunk.  Must outpace the attack rate to avoid error
        accumulation, but large values make the model chase single
        queries (Figure 3).
    num_chunks:
        ``m`` — how many chunks the model splits into for detection; the
        chunk size is ``d = D / m``.
    detection_margin:
        Fraction of the chunk size by which a rival class must beat the
        trusted prediction locally before the chunk counts as faulty (see
        :func:`repro.core.chunks.detect_faulty_chunks`).
    temperature:
        Temperature for the confidence computation.
    block_size:
        Default serving block size for :class:`RobustHDRecovery` and the
        pipeline's ``attack_and_recover`` — how many queries the batched
        engine gates at once per :func:`recover_block` call, and how
        often a publisher sees a new generation.  Never changes the
        results (the block engine exactly replays the sequential loop),
        and a model write does not invalidate batched work: it patches
        one class's similarities for the rows still ahead.
    """

    confidence_threshold: float = 0.85
    substitution_rate: float = 0.10
    num_chunks: int = 20
    detection_margin: float = 0.03
    temperature: float = 1.0
    block_size: int = 256

    def __post_init__(self) -> None:
        if not 0.0 <= self.confidence_threshold <= 1.0:
            raise ValueError(
                f"confidence_threshold must be in [0, 1], got "
                f"{self.confidence_threshold}"
            )
        if not 0.0 < self.substitution_rate <= 1.0:
            raise ValueError(
                f"substitution_rate must be in (0, 1], got "
                f"{self.substitution_rate}"
            )
        if self.num_chunks < 1:
            raise ValueError(f"num_chunks must be >= 1, got {self.num_chunks}")
        if self.detection_margin < 0:
            raise ValueError(
                f"detection_margin must be >= 0, got {self.detection_margin}"
            )
        if self.temperature <= 0:
            raise ValueError(f"temperature must be > 0, got {self.temperature}")
        if self.block_size < 1:
            raise ValueError(
                f"block_size must be >= 1, got {self.block_size}"
            )


@dataclass
class RecoveryStats:
    """Counters accumulated across recovery steps."""

    queries_seen: int = 0
    queries_trusted: int = 0
    chunks_checked: int = 0
    chunks_repaired: int = 0
    bits_substituted: int = 0
    confidence_trace: list[float] = field(default_factory=list)

    @property
    def trust_rate(self) -> float:
        """Fraction of queries whose prediction cleared ``T_C``."""
        if self.queries_seen == 0:
            return 0.0
        return self.queries_trusted / self.queries_seen


def probabilistic_substitution(
    target: np.ndarray,
    source: np.ndarray,
    rate: float,
    rng: np.random.Generator,
) -> int:
    """Clone ``source`` bits into ``target`` in place, each with prob. ``rate``.

    Returns the number of positions whose value actually changed (cloning
    an already-equal bit is a no-op and is not counted).  ``target`` and
    ``source`` must have the same shape; ``target`` is modified in place
    because it is a view into the live model tensor.
    """
    if target.shape != source.shape:
        raise ValueError(
            f"shape mismatch: target {target.shape} vs source {source.shape}"
        )
    if not 0.0 < rate <= 1.0:
        raise ValueError(f"rate must be in (0, 1], got {rate}")
    mask = rng.random(target.shape) < rate
    changed = int(np.count_nonzero(mask & (target != source)))
    target[mask] = source[mask]
    return changed


def _gate(
    model: HDCModel, sims: np.ndarray, config: RecoveryConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Predictions and confidences ``(b,)`` from similarities ``(b, k)``.

    The one place the confidence rule lives: a block's first gate and
    every re-gate after a model write go through it.  The rule is
    row-wise independent, so gating a row inside any block gives the
    values a query-at-a-time loop would.
    """
    if model.num_classes == 2:
        # With two classes every per-query-standardised confidence is a
        # constant (see repro.core.confidence); measure the margin in
        # absolute similarity-noise units instead.  For a 1-bit model the
        # per-dimension contribution to the class-score difference has
        # variance 1/2, so the noise std is sqrt(D / 2).
        return prediction_confidence(
            sims, config.temperature, method="noise",
            scale=float(np.sqrt(model.dim / 2.0)),
        )
    return prediction_confidence(sims, config.temperature)


def _class_similarities(
    model: HDCModel, queries: np.ndarray | PackedHypervectors, c: int
) -> np.ndarray:
    """Similarities ``(b,)`` of queries to class ``c`` alone.

    Column ``c`` of ``model.similarities(queries)``, computed the way it
    would be for the query form — packed words through the active
    kernel backend, uint8 rows through the float reference — but
    against one class and without counting as served queries.
    """
    if isinstance(queries, PackedHypervectors):
        class_words = model.packed().words[c : c + 1]
        distances = kernels.active_backend().distance_table(
            queries.words, class_words
        )
        return model.dim / 2.0 - distances[:, 0]
    bipolar = queries.astype(np.float64) * 2.0 - 1.0
    return bipolar @ _centered_weights(model.class_hv[c], model.bits)


def _substitute_faulty(
    model: HDCModel,
    query: np.ndarray,
    predicted: int,
    faulty: np.ndarray,
    config: RecoveryConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Repair the flagged chunks of one class in place.

    Returns the bits actually changed per flagged chunk, aligned with
    ``np.flatnonzero(faulty)`` (callers sum for the total and scatter
    into per-chunk trace cells).
    """
    with model.writable() as class_hv:
        class_chunks = as_chunks(class_hv[predicted], config.num_chunks)
        query_chunks = as_chunks(query, config.num_chunks)
        changed = np.array([
            probabilistic_substitution(
                class_chunks[j], query_chunks[j],
                config.substitution_rate, rng,
            )
            for j in np.flatnonzero(faulty)
        ], dtype=np.int64)
    return changed


def recover_step(
    model: HDCModel,
    query: np.ndarray,
    config: RecoveryConfig,
    rng: np.random.Generator,
    stats: RecoveryStats | None = None,
    trace: RecoveryTrace | None = None,
) -> int:
    """Run one RobustHD recovery step on a single query, in place.

    Classifies ``query``, and — if the prediction is trusted — detects the
    faulty chunks of the predicted class hypervector and repairs them by
    probabilistic substitution.  Returns the predicted label (always,
    trusted or not), since recovery rides along with normal inference.
    """
    if query.ndim != 1 or query.shape[0] != model.dim:
        raise ValueError(
            f"query must be a 1-D vector of length {model.dim}"
        )
    return int(
        recover_block(model, query[None, :], config, rng, stats, trace)[0]
    )


def recover_block(
    model: HDCModel,
    queries: np.ndarray | PackedHypervectors,
    config: RecoveryConfig,
    rng: np.random.Generator,
    stats: RecoveryStats | None = None,
    trace: RecoveryTrace | None = None,
) -> np.ndarray:
    """Run RobustHD recovery over a block of queries, in place.

    Semantically identical to calling :func:`recover_step` on each query
    in order — same predictions, same stats, same random draws — but the
    confidence gate runs once, vectorised over the whole block.  The
    rows are then walked in order: each trusted row is checked by the
    chunk-vote detector against the model as it stands at that row (one
    packed kernel call).  A substitution rewrites chunks of one class
    only, so afterwards only that class's similarity column is
    recomputed for the rows still ahead, and those rows are re-gated
    from the patched similarities.  Every similarity is an exact integer
    count, so the patched values equal a fresh gate; nothing else is
    recomputed and the sweep never restarts.

    Queries may arrive as uint8 bit rows or already packed
    (:class:`~repro.core.packed.PackedHypervectors`, the
    ``Encoder.encode_packed`` output).  Binary rows are packed once per
    block; packed streams feed the gate and the detector word-for-word,
    and only a trusted row that actually triggers a substitution is
    unpacked (the repair writes individual bits into the uint8 model
    tensor).  Under :func:`~repro.core.packed.float_backend`, or for
    non-binary rows, every similarity — the per-write patch included —
    comes from the float reference.  Results are bit-identical either
    way.

    If a ``trace`` is supplied, one
    :class:`~repro.obs.trace.RecoveryBlockEvent` is appended per call.
    Neither stats, trace, nor metrics recording ever draws from ``rng``,
    so observed and unobserved runs are bit-identical.

    Returns the ``(b,)`` predicted labels.
    """
    if model.bits != 1:
        raise ValueError(
            "recovery requires a binary (1-bit) model; "
            f"got bits={model.bits}"
        )
    if isinstance(queries, PackedHypervectors):
        query_dim = queries.dim
    else:
        queries = np.atleast_2d(queries)
        query_dim = queries.shape[1]
    if query_dim != model.dim:
        raise ValueError(
            f"queries must have dim {model.dim}, got {query_dim}"
        )
    # One query form for the whole block: packed words wherever the
    # packed engine would serve them, uint8 rows otherwise.
    if isinstance(queries, PackedHypervectors):
        if not packed_backend_enabled():
            queries = np.atleast_2d(unpack(queries))
    elif packed_backend_enabled() and _is_binary(queries):
        queries = PackedHypervectors(
            words=_pack_bits(queries.astype(np.uint8, copy=False)),
            dim=model.dim,
        )
    packed_rows = isinstance(queries, PackedHypervectors)
    num_queries = len(queries)
    metrics = _metrics()
    version_before = model.version
    total_trusted = 0
    total_flagged = 0
    total_bits = 0
    if trace is not None:
        ev_confidences: list[float] = []
        ev_trusted_per_class = np.zeros(model.num_classes, dtype=np.int64)
        ev_chunk_flags = np.zeros(
            (model.num_classes, config.num_chunks), dtype=np.int64
        )
        ev_chunk_repair_bits = np.zeros_like(ev_chunk_flags)
    with metrics.timer("recovery.recover_block"):
        sims = model.similarities(queries)  # (b, k)
        preds, conf = _gate(model, sims, config)
        for j in range(num_queries):
            if stats is not None:
                stats.queries_seen += 1
                stats.confidence_trace.append(float(conf[j]))
            if trace is not None:
                ev_confidences.append(float(conf[j]))
            if conf[j] < config.confidence_threshold:
                continue
            predicted = int(preds[j])
            faulty = detect_faulty_chunks_batch(
                model,
                queries[j : j + 1],
                preds[j : j + 1],
                config.num_chunks,
                config.detection_margin,
            )[0]  # (m,)
            total_trusted += 1
            flagged = int(faulty.sum())
            total_flagged += flagged
            if stats is not None:
                stats.queries_trusted += 1
                stats.chunks_checked += config.num_chunks
                stats.chunks_repaired += flagged
            if trace is not None:
                ev_trusted_per_class[predicted] += 1
                ev_chunk_flags[predicted] += faulty
            if not flagged:
                continue
            query_bits = unpack(queries[j]) if packed_rows else queries[j]
            per_chunk = _substitute_faulty(
                model, query_bits, predicted, faulty, config, rng
            )
            substituted = int(per_chunk.sum())
            total_bits += substituted
            if stats is not None:
                stats.bits_substituted += substituted
            if trace is not None:
                ev_chunk_repair_bits[predicted, np.flatnonzero(faulty)] += (
                    per_chunk
                )
            if substituted and j + 1 < num_queries:
                # Only class ``predicted`` changed: patch its column for
                # the rows ahead and re-gate them.
                rest = slice(j + 1, None)
                sims[rest, predicted] = _class_similarities(
                    model, queries[rest], predicted
                )
                preds[rest], conf[rest] = _gate(model, sims[rest], config)
    if trace is not None:
        trace.record(RecoveryBlockEvent(
            block_index=trace.next_block_index(),
            queries=num_queries,
            trusted=total_trusted,
            confidences=tuple(ev_confidences),
            trusted_per_class=tuple(int(t) for t in ev_trusted_per_class),
            num_chunks=config.num_chunks,
            chunk_flags=_as_nested_tuple(ev_chunk_flags),
            chunk_repair_bits=_as_nested_tuple(ev_chunk_repair_bits),
            bits_substituted=total_bits,
            model_version_before=version_before,
            model_version_after=model.version,
        ))
    if metrics.enabled:
        metrics.inc("recovery.blocks")
        metrics.inc("recovery.queries", num_queries)
        metrics.inc("recovery.queries_trusted", total_trusted)
        metrics.inc("recovery.chunks_flagged", total_flagged)
        metrics.inc("recovery.bits_substituted", total_bits)
        metrics.inc("recovery.model_writes", model.version - version_before)
        metrics.observe("recovery.block_trust_rate",
                        total_trusted / max(1, num_queries))
    return preds


class RobustHDRecovery:
    """Stateful online recovery wrapper around a deployed :class:`HDCModel`.

    Feed it the (unlabeled, already encoded) inference stream via
    :meth:`process`; it returns normal predictions while transparently
    repairing the model in place.  Every processed block appends a
    :class:`~repro.obs.trace.RecoveryBlockEvent` to :attr:`trace` — the
    single source of observability truth: :attr:`stats` (the cumulative
    :class:`RecoveryStats` for the Figure 3 analyses) and
    :attr:`last_trace` are both derived views of it.
    """

    def __init__(
        self,
        model: HDCModel,
        config: RecoveryConfig | None = None,
        seed: int = 0,
        block_size: int | None = None,
        publisher: ModelPublisher | None = None,
    ) -> None:
        self.config = config or RecoveryConfig()
        if model.dim % self.config.num_chunks != 0:
            raise ValueError(
                f"model dim {model.dim} is not divisible by num_chunks "
                f"{self.config.num_chunks}"
            )
        if model.bits != 1:
            raise ValueError("RobustHD recovery requires a 1-bit model")
        if block_size is None:
            block_size = self.config.block_size
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        self.model = model
        self.rng = np.random.default_rng(seed)
        self.trace = RecoveryTrace()
        self.block_size = block_size
        self.publisher = publisher
        # One entry per generation publish announcement: block index,
        # generation, model version, and — when the publisher echoes one
        # (see GenerationPublisher.trace_source) — the serve trace id the
        # publish was stamped with.  The recovery-side half of the
        # repro.obs.telemetry.correlate join.
        self.publish_log: list[dict] = []
        self._published_version: int | None = None

    @property
    def stats(self) -> RecoveryStats:
        """Cumulative counters, derived from :attr:`trace` on access."""
        trace = self.trace
        return RecoveryStats(
            queries_seen=trace.queries_seen,
            queries_trusted=trace.queries_trusted,
            chunks_checked=trace.chunks_checked,
            chunks_repaired=trace.chunks_flagged,
            bits_substituted=trace.bits_substituted,
            confidence_trace=trace.confidence_trace(),
        )

    @property
    def last_trace(self) -> RecoveryBlockEvent | None:
        """The most recent block event (``None`` before any block)."""
        return self.trace.last

    def process(
        self, queries: np.ndarray | PackedHypervectors
    ) -> np.ndarray:
        """Classify a batch of encoded queries ``(b, D)``, repairing as we go.

        Queries are processed sequentially — each repair changes the model
        the next query sees, which is exactly the online dynamic the paper
        studies.  Internally the stream is served in blocks of
        ``block_size`` through :func:`recover_block`, which gates each
        block in one vectorised pass while producing results identical
        to the one-query-at-a-time loop (``block_size`` sets the publish
        cadence; it never changes the results).

        Accepts the packed stream ``Encoder.encode_packed`` emits — the
        words flow through the gate and the detector unmodified (see
        :func:`recover_block`), with bit-identical predictions and
        repairs.

        When a ``publisher`` was supplied, each processed block is
        followed by a generation publish (if the block's repairs bumped
        the model version) or a heartbeat ``touch`` (if not).  Publishing
        draws from no RNG and reads the model through the version-stamped
        packed cache, so published and unpublished runs stay
        bit-identical — the property the serve tier's sequential-vs-
        concurrent equivalence tests pin.
        """
        if not isinstance(queries, PackedHypervectors):
            queries = np.atleast_2d(queries)
        num_queries = len(queries)
        preds = np.empty(num_queries, dtype=np.int64)
        for lo in range(0, num_queries, self.block_size):
            hi = lo + self.block_size
            preds[lo:hi] = recover_block(
                self.model, queries[lo:hi], self.config, self.rng,
                trace=self.trace,
            )
            self._announce()
        return preds

    def _announce(self) -> None:
        """Publish-or-heartbeat after one processed block (no-op without
        a publisher)."""
        if self.publisher is None:
            return
        version = self.model.version
        if version != self._published_version:
            generation = self.publisher.publish(self.model)
            self._published_version = version
            entry = {
                "block_index": len(self.trace) - 1,
                "generation": int(generation)
                if generation is not None else len(self.publish_log) + 1,
                "model_version": version,
            }
            # Publishers that stamp trace ids (GenerationPublisher with
            # a trace_source) echo the latest serve trace id; plain
            # publishers simply omit the field.
            trace_id = getattr(self.publisher, "last_publish_trace_id", None)
            if trace_id is not None:
                entry["trace_id"] = int(trace_id)
            self.publish_log.append(entry)
        else:
            self.publisher.touch()
