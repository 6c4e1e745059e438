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
# ``detect_faulty_chunks_batch`` is the detector's public batch form; the
# walk applies its rule to the block's chunk table instead of calling it,
# but it stays reachable here (perfbench/tracing.py wraps it by name).
from repro.core.chunks import (
    chunk_similarities_batch,
    detect_faulty_chunks_batch,  # noqa: F401
)
from repro.core.confidence import prediction_confidence
from repro.core.model import HDCModel, _is_binary
from repro.core.packed import PackedHypervectors, _pack_bits
from repro.obs.metrics import current as _metrics
from repro.obs.trace import RecoveryBlockEvent, RecoveryTrace

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
        How many queries :class:`RobustHDRecovery` (and everything
        built on it: the pipeline's ``attack_and_recover``, the
        adversary's scenarios) hands :func:`recover_block` at once, and
        so how often a publisher sees a new generation.  The one place
        the block size is set.  Never changes the results (the block
        engine exactly replays the sequential loop), and a model write
        does not invalidate batched work: it patches one class's
        similarities for the rows still ahead.
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


@dataclass(frozen=True)
class RecoveryStats:
    """Cumulative counters of a recovery run, read off its trace.

    A view, not a second record: :meth:`from_trace` builds it from the
    :class:`~repro.obs.trace.RecoveryTrace` the engine wrote.
    """

    queries_seen: int = 0
    queries_trusted: int = 0
    chunks_checked: int = 0
    chunks_repaired: int = 0
    bits_substituted: int = 0
    confidence_trace: list[float] = field(default_factory=list)

    @classmethod
    def from_trace(cls, trace: RecoveryTrace) -> "RecoveryStats":
        return cls(
            queries_seen=trace.queries_seen,
            queries_trusted=trace.queries_trusted,
            chunks_checked=trace.chunks_checked,
            chunks_repaired=trace.chunks_flagged,
            bits_substituted=trace.bits_substituted,
            confidence_trace=trace.confidence_trace(),
        )

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
    because it is a view into the live model tensor.  This is the rule
    for one chunk; :func:`recover_block` applies it to all of a row's
    flagged chunks in one :meth:`~repro.core.kernels.KernelBackend.repair_row`
    call, with the same draws.
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


def recover_step(
    model: HDCModel,
    query: np.ndarray,
    config: RecoveryConfig,
    rng: np.random.Generator,
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
        recover_block(model, query[None, :], config, rng, trace)[0]
    )


def _block_words(
    model: HDCModel, queries: np.ndarray | PackedHypervectors
) -> PackedHypervectors:
    """The block as packed words, validated for a write into the model.

    A repair copies query bits into the 1-bit model, so every value of
    an unpacked block must be 0 or 1 (float 0.0/1.0 included); anything
    else raises before the walk starts, naming the first offending
    ``(row, dim)``.
    """
    if isinstance(queries, PackedHypervectors):
        if queries.dim != model.dim:
            raise ValueError(
                f"queries must have dim {model.dim}, got {queries.dim}"
            )
        return queries
    queries = np.atleast_2d(queries)
    if queries.ndim != 2 or queries.shape[1] != model.dim:
        raise ValueError(
            f"queries must have dim {model.dim}, got shape {queries.shape}"
        )
    if not _is_binary(queries):
        bad = np.argwhere((queries != 0) & (queries != 1))
        if bad.size:
            row, dim = (int(i) for i in bad[0])
            raise ValueError(
                f"query value {queries[row, dim].item()!r} at (row {row}, dim "
                f"{dim}) is not 0 or 1: recovery writes query bits into "
                "the 1-bit model"
            )
    return PackedHypervectors(
        words=_pack_bits(queries.astype(np.uint8, copy=False)),
        dim=model.dim,
    )


def recover_block(
    model: HDCModel,
    queries: np.ndarray | PackedHypervectors,
    config: RecoveryConfig,
    rng: np.random.Generator,
    trace: RecoveryTrace | None = None,
) -> np.ndarray:
    """Run RobustHD recovery over a block of queries, in place.

    Semantically identical to calling :func:`recover_step` on each query
    in order — same predictions, same trace totals, same random draws —
    but the block's two tables are computed once: its similarities
    ``(b, k)``, gated in one vectorised pass, and its chunk
    similarities ``(b, m, k)`` (one packed kernel call).  The rows are
    then walked in order.  A trusted row's faulty chunks are read off
    its row of the chunk table by the detector's rule (a rival class
    beats the prediction locally by more than the margin); no kernel
    runs per row.  A row that flags chunks makes one model write: one
    draw of ``rng.random((c, d))`` for its ``c`` flagged chunks, in
    ascending chunk order (the stream per-chunk draws would give), and
    one :meth:`~repro.core.kernels.KernelBackend.repair_row` call of the
    active kernel backend.  That call substitutes the query's bits into
    the predicted class's uint8 row and adds each flipped bit's
    similarity change to that class's column of both tables for the
    rows still ahead, which are then re-gated.  Similarities are exact
    half-integers, so the patched tables equal a fresh computation;
    the model version bumps once per write and nothing repacks the
    model inside the walk.

    Queries may arrive as uint8 bit rows or already packed
    (:class:`~repro.core.packed.PackedHypervectors`, the
    ``Encoder.encode_packed`` output).  Unpacked rows must hold only 0s
    and 1s (any dtype); anything else raises a ``ValueError`` before the
    model is touched.  Rows are packed once per block, and the repair
    reads the packed words.  Under
    :func:`~repro.core.packed.float_backend` the two tables come from
    the float reference instead; nothing else changes, and results are
    bit-identical either way.

    The walk records each row once: its faulty-chunk mask, and the bits
    it repaired per (class, chunk).  A row's gate values are final once
    the walk has passed it, so the block's totals — trusted rows per
    class, chunk flags, bits substituted — are derived from those two
    arrays after the walk, and both the ``recovery.*`` metrics and (if
    a ``trace`` is supplied) one
    :class:`~repro.obs.trace.RecoveryBlockEvent` are built from them.
    Neither trace nor metrics recording ever draws from ``rng``, so
    observed and unobserved runs are bit-identical.

    Returns the ``(b,)`` predicted labels.
    """
    if model.bits != 1:
        raise ValueError(
            "recovery requires a binary (1-bit) model; "
            f"got bits={model.bits}"
        )
    block = _block_words(model, queries)
    words = block.words
    num_queries = len(block)
    num_classes, num_chunks = model.num_classes, config.num_chunks
    chunk_bits = model.dim // num_chunks
    margin = config.detection_margin * chunk_bits
    backend = kernels.active_backend()
    metrics = _metrics()
    version_before = model.version
    faulty = np.zeros((num_queries, num_chunks), dtype=bool)
    repair_bits = np.zeros((num_classes, num_chunks), dtype=np.int64)
    with metrics.timer("recovery.recover_block"):
        sims = model.similarities(block)  # (b, k)
        preds, conf = _gate(model, sims, config)
        table = chunk_similarities_batch(model, block, num_chunks)  # (b, m, k)
        for j in range(num_queries):
            if conf[j] < config.confidence_threshold:
                continue
            predicted = int(preds[j])
            row = table[j]
            faulty[j] = row.max(axis=1) - row[:, predicted] > margin
            chunks = np.flatnonzero(faulty[j])
            if not chunks.size:
                continue
            draws = rng.random((chunks.size, chunk_bits))
            ahead = slice(j + 1, None)
            with model.writable() as class_hv:
                changed = backend.repair_row(
                    class_hv[predicted], words[j], chunks, chunk_bits,
                    draws, config.substitution_rate, words[ahead],
                    table[ahead, :, predicted], sims[ahead, predicted],
                )
            repair_bits[predicted, chunks] += changed
            if changed.any() and j + 1 < num_queries:
                preds[ahead], conf[ahead] = _gate(model, sims[ahead], config)
    trusted = ~(conf < config.confidence_threshold)
    num_trusted = int(np.count_nonzero(trusted))
    bits_substituted = int(repair_bits.sum())
    if trace is not None:
        # Each flagged chunk counts once in its row's (class, chunk) cell.
        cells = preds[:, None] * num_chunks + np.arange(num_chunks)
        chunk_flags = np.bincount(
            cells[faulty], minlength=num_classes * num_chunks
        ).reshape(num_classes, num_chunks)
        trace.record(RecoveryBlockEvent(
            block_index=trace.next_index(),
            queries=num_queries,
            trusted=num_trusted,
            confidences=tuple(conf.tolist()),
            trusted_per_class=tuple(
                np.bincount(preds[trusted], minlength=num_classes).tolist()
            ),
            num_chunks=num_chunks,
            chunk_flags=tuple(map(tuple, chunk_flags.tolist())),
            chunk_repair_bits=tuple(map(tuple, repair_bits.tolist())),
            bits_substituted=bits_substituted,
            model_version_before=version_before,
            model_version_after=model.version,
        ))
    if metrics.enabled:
        metrics.inc("recovery.blocks")
        metrics.inc("recovery.queries", num_queries)
        metrics.inc("recovery.queries_trusted", num_trusted)
        metrics.inc("recovery.chunks_flagged", int(np.count_nonzero(faulty)))
        metrics.inc("recovery.bits_substituted", bits_substituted)
        metrics.inc("recovery.model_writes", model.version - version_before)
        metrics.observe("recovery.block_trust_rate",
                        num_trusted / max(1, num_queries))
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
        self.model = model
        self.rng = np.random.default_rng(seed)
        self.trace = RecoveryTrace()
        self.publisher = publisher
        self._published_version: int | None = None

    @property
    def stats(self) -> RecoveryStats:
        """Cumulative counters, derived from :attr:`trace` on access."""
        return RecoveryStats.from_trace(self.trace)

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
        ``config.block_size`` through :func:`recover_block`, which gates
        each block in one vectorised pass while producing results
        identical to the one-query-at-a-time loop (the block size sets
        the publish cadence; it never changes the results).

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
        concurrent equivalence tests pin.  The publisher keeps the record
        of what it published (``GenerationPublisher.publish_log``).
        """
        if not isinstance(queries, PackedHypervectors):
            queries = np.atleast_2d(queries)
        num_queries = len(queries)
        block_size = self.config.block_size
        preds = np.empty(num_queries, dtype=np.int64)
        for lo in range(0, num_queries, block_size):
            hi = lo + block_size
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
            self.publisher.publish(self.model)
            self._published_version = version
        else:
            self.publisher.touch()
