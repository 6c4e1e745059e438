"""Hyperdimensional classifier: training, quantised model, inference.

Training (Section 3.1) bundles the encoded hypervectors of each class into
one *class hypervector*; the set :math:`\\mathcal M = \\{C_1..C_k\\}` is the
learned model.  An optional perceptron-style retraining pass (standard in
the HDC literature the paper builds on, e.g. OnlineHD) adds mispredicted
queries to the correct class and subtracts them from the confused class,
which recovers a few accuracy points at no inference cost.

The deployed model is *quantised*: each element of a class hypervector is
stored with ``bits`` bits of precision.  The paper's Table 1 compares
1-bit and 2-bit models and always deploys 1-bit for maximum robustness; we
support arbitrary widths so that trade-off can be reproduced.

Inference computes, for a binary query ``Q`` and class ``C``, the
similarity

.. math:: \\delta(Q, C) = \\sum_i (2 Q_i - 1) \\cdot w(C_i)

where ``w`` maps the stored unsigned level to a centred weight.  For a
1-bit model this is exactly (a rescaling of) Hamming similarity, the
metric named in the paper; wider models generalise it to a few-level dot
product.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.core.encoder import Encoder
from repro.core.hypervector import class_bundle_counts
from repro.core.packed import (
    PackedHypervectors,
    PackedModel,
    _pack_bits,
    packed_backend_enabled,
    unpack,
)
from repro.obs.metrics import current as _metrics

__all__ = ["HDCModel", "HDCClassifier", "quantize_accumulator"]

# Samples per GEMM block in the vectorised perceptron epoch.  Large enough
# that the (block, k) similarity GEMM amortises Python overhead, small
# enough that the rank-1 patch-forward corrections after a misprediction
# touch a short tail (see HDCClassifier.fit_encoded).  64 measured fastest
# on the serving benchmark workload (mispredictions make patch cost scale
# with the block tail, so bigger is not better).
_FIT_BLOCK = 64


def _as_unpacked(encoded: np.ndarray | PackedHypervectors) -> np.ndarray:
    """Training-side normalisation: packed batches become uint8 bits."""
    if isinstance(encoded, PackedHypervectors):
        return np.atleast_2d(unpack(encoded))
    return np.asarray(encoded)


def quantize_accumulator(acc: np.ndarray, bits: int) -> np.ndarray:
    """Quantise signed integer accumulators to unsigned ``bits``-bit levels.

    ``acc`` has shape ``(k, D)`` and holds bipolar accumulation counts.
    Each row (class) is scaled independently by its maximum magnitude and
    mapped to the integer range ``[0, 2**bits - 1]``, with 0 counts landing
    in the middle.  For ``bits == 1`` this reduces to the sign threshold
    (majority vote), i.e. the classic binary HDC model.
    """
    if bits < 1:
        raise ValueError(f"bits must be >= 1, got {bits}")
    if bits > 8:
        raise ValueError(f"bits must be <= 8 to fit uint8 storage, got {bits}")
    acc = np.asarray(acc, dtype=np.float64)
    if acc.ndim != 2:
        raise ValueError(f"expected (k, D) accumulators, got {acc.ndim}-D")
    n_levels = 1 << bits
    if bits == 1:
        return (acc > 0).astype(np.uint8)
    scale = np.abs(acc).max(axis=1, keepdims=True)
    scale[scale == 0] = 1.0
    unit = acc / scale  # in [-1, 1]
    idx = np.floor((unit + 1.0) / 2.0 * n_levels).astype(np.int64)
    return np.clip(idx, 0, n_levels - 1).astype(np.uint8)


def _centered_weights(levels: np.ndarray, bits: int) -> np.ndarray:
    """Map unsigned ``bits``-bit levels to symmetric float weights.

    Level ``l`` becomes ``l - (2**bits - 1) / 2``; e.g. 1-bit {0,1} becomes
    {-0.5, +0.5} and 2-bit {0..3} becomes {-1.5, -0.5, +0.5, +1.5}.
    """
    offset = ((1 << bits) - 1) / 2.0
    return levels.astype(np.float64) - offset


def _is_binary(queries: np.ndarray) -> bool:
    """Whether an array is exactly 0/1-valued with an integer/bool dtype.

    Gate for packed dispatch: float queries (even float 0.0/1.0) keep the
    float64 reference path so behaviour for unconventional inputs is
    unchanged.  Uses min/max reductions rather than elementwise masks —
    this check sits on the serving hot path.
    """
    if queries.dtype == np.bool_:
        return True
    if not np.issubdtype(queries.dtype, np.integer):
        return False
    if queries.size == 0:
        return True
    if queries.max() > 1:
        return False
    return bool(
        np.issubdtype(queries.dtype, np.unsignedinteger) or queries.min() >= 0
    )


@dataclass
class HDCModel:
    """A trained, quantised HDC model: the per-class hypervectors.

    Attributes
    ----------
    class_hv:
        Array of shape ``(num_classes, dim)`` and dtype ``uint8``; each
        element holds an unsigned ``bits``-bit level.  This is the tensor
        an attacker sees in memory and the tensor RobustHD repairs.
    bits:
        Element precision.  ``total_bits`` is ``class_hv.size * bits``.

    Serving backends
    ----------------
    For a 1-bit model, :meth:`similarities` / :meth:`predict`
    transparently dispatch to the bit-packed XOR+popcount engine
    (:mod:`repro.core.packed`) with results bit-identical to the float64
    reference.  The packed word matrix is cached and stamped with the
    model :attr:`version`; **every in-place write to** ``class_hv``
    **must bump the version** — either through the :meth:`writable`
    context manager or an explicit :meth:`bump_version` — or the cache
    serves stale words.  All in-repo writers (the recovery loop,
    :mod:`repro.faults`) follow this contract.
    """

    class_hv: np.ndarray
    bits: int = 1
    # Cache-coherence state for the packed serving backend.  Not part of
    # the model's identity: excluded from init/repr/eq.
    _version: int = field(default=0, init=False, repr=False, compare=False)
    _packed_cache: PackedModel | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.class_hv.ndim != 2:
            raise ValueError(
                f"class_hv must be (num_classes, dim), got {self.class_hv.ndim}-D"
            )
        if self.bits < 1 or self.bits > 8:
            raise ValueError(f"bits must be in [1, 8], got {self.bits}")
        if self.class_hv.dtype != np.uint8:
            raise ValueError(f"class_hv must be uint8, got {self.class_hv.dtype}")
        max_level = (1 << self.bits) - 1
        if self.class_hv.max(initial=0) > max_level:
            raise ValueError(
                f"class_hv contains levels above {max_level} for bits={self.bits}"
            )

    @property
    def num_classes(self) -> int:
        return self.class_hv.shape[0]

    @property
    def dim(self) -> int:
        return self.class_hv.shape[1]

    @property
    def total_bits(self) -> int:
        """Number of memory bits occupied by the stored model."""
        return self.class_hv.size * self.bits

    def copy(self) -> "HDCModel":
        return HDCModel(class_hv=self.class_hv.copy(), bits=self.bits)

    # ------------------------------------------------------------------
    # Packed-backend cache coherence
    # ------------------------------------------------------------------

    @property
    def version(self) -> int:
        """Monotonic write counter; stamps the packed cache."""
        return self._version

    def bump_version(self) -> int:
        """Record an in-place write to ``class_hv``; invalidates caches.

        Call after *any* direct mutation of the stored tensor.  Writers
        that hold the mutation in one lexical block should prefer
        :meth:`writable`, which bumps automatically.
        """
        self._version += 1
        return self._version

    @contextmanager
    def writable(self) -> Iterator[np.ndarray]:
        """Context manager for in-place writes to ``class_hv``.

        Yields the live tensor and bumps :attr:`version` on exit, so the
        packed serving cache can never observe the mutation as current::

            with model.writable() as hv:
                hv[cls, victims] ^= 1
        """
        try:
            yield self.class_hv
        finally:
            self.bump_version()

    def packed(self) -> PackedModel:
        """The packed word matrix of a 1-bit model, cached per version.

        Packing a ``(k, D)`` model costs one ``np.packbits`` pass; the
        snapshot is reused until :attr:`version` changes (i.e. until
        someone writes to ``class_hv`` through the contract above).
        """
        if self.bits != 1:
            raise ValueError("packed() requires a 1-bit model")
        cache = self._packed_cache
        if cache is None or cache.version != self._version:
            cache = PackedModel(
                words=_pack_bits(self.class_hv),
                dim=self.dim,
                version=self._version,
            )
            self._packed_cache = cache
            _metrics().inc("model.pack_rebuilds")
        return cache

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------

    def similarities(
        self, queries: np.ndarray | PackedHypervectors
    ) -> np.ndarray:
        """Similarity of binary queries ``(b, D)`` to every class: ``(b, k)``.

        For a 1-bit model this is an affine rescaling of Hamming
        similarity, so argmax / softmax-confidence decisions are identical
        to the Hamming form in the paper.  1-bit binary queries dispatch
        to the packed XOR+popcount engine, which returns *exactly*
        ``D/2 - hamming`` — bit-identical to the float64 dot product
        (every term is a multiple of 0.5 and the sums are exact).

        Queries may also arrive already packed
        (:class:`~repro.core.packed.PackedHypervectors`, e.g. from
        :meth:`Encoder.encode_packed`): a 1-bit model consumes the words
        directly — no pack *or* unpack on the serving path; other
        precisions (or a disabled packed backend) unpack and fall through
        to the reference, so results never depend on the input form.
        """
        if isinstance(queries, PackedHypervectors):
            if queries.dim != self.dim:
                raise ValueError(
                    f"query dim {queries.dim} != model dim {self.dim}"
                )
            if self.bits == 1 and packed_backend_enabled():
                metrics = _metrics()
                if metrics.enabled:
                    metrics.inc("model.similarity_batches_packed")
                    metrics.inc("model.queries_served", len(queries))
                return self.dim / 2.0 - self.packed().distances(queries.words)
            queries = unpack(queries)
        queries = np.atleast_2d(queries)
        if queries.shape[1] != self.dim:
            raise ValueError(
                f"query dim {queries.shape[1]} != model dim {self.dim}"
            )
        metrics = _metrics()
        if self.bits == 1 and packed_backend_enabled() and _is_binary(queries):
            if metrics.enabled:
                metrics.inc("model.similarity_batches_packed")
                metrics.inc("model.queries_served", queries.shape[0])
            distances = self.packed().distances(
                _pack_bits(queries.astype(np.uint8, copy=False))
            )
            return self.dim / 2.0 - distances
        if metrics.enabled:
            metrics.inc("model.similarity_batches_float")
            metrics.inc("model.queries_served", queries.shape[0])
        bipolar = queries.astype(np.float64) * 2.0 - 1.0  # (b, D)
        weights = _centered_weights(self.class_hv, self.bits)  # (k, D)
        return bipolar @ weights.T

    def predict(
        self, queries: np.ndarray | PackedHypervectors
    ) -> np.ndarray:
        """Predicted class labels for binary queries ``(b, D)``.

        Accepts uint8 bit arrays or already-packed words (see
        :meth:`similarities`); labels are identical either way.
        """
        return np.argmax(self.similarities(queries), axis=1)


class HDCClassifier:
    """End-to-end HDC learner: encoder + class-hypervector training.

    Parameters
    ----------
    encoder:
        The :class:`~repro.core.encoder.Encoder` shared by training and
        inference (and by RobustHD recovery, which encodes live queries).
    num_classes:
        Number of labels ``k``.
    bits:
        Deployed model precision; the paper deploys 1 bit.
    epochs:
        Perceptron retraining epochs over the (already encoded) training
        set after the initial bundling; 0 reproduces pure single-pass
        bundling.
    seed:
        Seed for retraining shuffles.
    """

    def __init__(
        self,
        encoder: Encoder,
        num_classes: int,
        bits: int = 1,
        epochs: int = 3,
        seed: int = 0,
    ) -> None:
        if num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {num_classes}")
        if epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {epochs}")
        self.encoder = encoder
        self.num_classes = num_classes
        self.bits = bits
        self.epochs = epochs
        self.seed = seed
        self.model: HDCModel | None = None
        self._acc: np.ndarray | None = None
        self._stream_acc: np.ndarray | None = None
        self._stream_samples: int = 0

    @classmethod
    def from_model(
        cls,
        encoder: Encoder,
        model: HDCModel,
        *,
        epochs: int = 3,
        seed: int = 0,
    ) -> "HDCClassifier":
        """Wrap an existing trained :class:`HDCModel` in a serving classifier.

        This is the one sanctioned way to install a model that was not
        produced by :meth:`fit` on this instance (deserialisation, a
        recovered model adopted from another process, ...).  It
        re-establishes the fitted-state invariants by construction:

        * ``num_classes`` / ``bits`` are taken from the model, so they can
          never disagree with it;
        * ``encoder.dim`` must match ``model.dim`` (a mismatched pair
          would fail only at the first predict, with a confusing error);
        * training accumulators and streaming state are empty — the model
          is the only fitted state;
        * the model's packed-cache :attr:`HDCModel.version` starts at 0
          **by contract**: the caller hands over a freshly constructed
          :class:`HDCModel` (version 0 by dataclass init), and nothing in
          here writes to it, so the first ``packed()`` call packs exactly
          the adopted bits.
        """
        if encoder.dim != model.dim:
            raise ValueError(
                f"encoder dim {encoder.dim} != model dim {model.dim}"
            )
        classifier = cls(
            encoder,
            num_classes=model.num_classes,
            bits=model.bits,
            epochs=epochs,
            seed=seed,
        )
        classifier.model = model
        return classifier

    def fit(self, features: np.ndarray, labels: np.ndarray) -> "HDCClassifier":
        """Train on raw features ``(n_samples, n_features)`` and labels."""
        encoded = self.encoder.encode_batch(features)
        return self.fit_encoded(encoded, labels)

    def _validated_labels(self, count: int, labels: np.ndarray) -> np.ndarray:
        labels = np.asarray(labels, dtype=np.int64)
        if count != labels.shape[0]:
            raise ValueError(f"{count} samples but {labels.shape[0]} labels")
        if labels.min(initial=0) < 0 or labels.max(initial=0) >= self.num_classes:
            raise ValueError(
                f"labels must lie in [0, {self.num_classes}), got range "
                f"[{labels.min()}, {labels.max()}]"
            )
        return labels

    def fit_encoded(
        self, encoded: np.ndarray | PackedHypervectors, labels: np.ndarray
    ) -> "HDCClassifier":
        """Train from pre-encoded hypervectors ``(n_samples, D)``.

        One bundling pass builds the per-class accumulators, then
        ``epochs`` perceptron passes correct them on mispredicted samples.
        The perceptron is *vectorised but order-exact*: each shuffled
        epoch is swept in GEMM blocks of ``_FIT_BLOCK`` samples, and when
        sample ``j`` in a block is mispredicted its rank-1 accumulator
        update is *patched forward* into the two affected similarity
        columns of the block's remaining rows (one short matvec) instead
        of recomputing the block.  Every similarity any sample sees is
        exactly what the per-sample reference loop would have computed —
        all values are integer-valued float64 (``|sims| << 2**53``), so
        argmax and tie behaviour are identical and the trained
        accumulators are bit-identical (pinned by
        ``tests/core/test_model.py``).

        Accepts packed batches (``Encoder.encode_packed`` output); the
        bits are unpacked once for training, which needs them bipolar.
        """
        encoded = _as_unpacked(encoded)
        labels = self._validated_labels(encoded.shape[0], labels)
        metrics = _metrics()
        with metrics.timer("model.fit_encoded"):
            # int8 bipolar halves memory traffic 8x vs the former int64
            # matrix; blocks are converted to float64 once at GEMM time.
            bipolar = (encoded.astype(np.int8) << 1) - 1  # (n, D) in {-1, +1}
            acc = class_bundle_counts(encoded, labels, self.num_classes)

            rng = np.random.default_rng(self.seed)
            epochs_run = 0
            for _ in range(self.epochs):
                wrong = _perceptron_epoch(acc, bipolar, labels, rng)
                epochs_run += 1
                if wrong == 0:
                    break
        if metrics.enabled:
            metrics.inc("model.fit_runs")
            metrics.inc("model.fit_epochs", epochs_run)
            metrics.inc("model.fit_samples", encoded.shape[0])

        self._acc = acc
        self._stream_acc = None
        self._stream_samples = 0
        self.model = HDCModel(
            class_hv=quantize_accumulator(acc, self.bits), bits=self.bits
        )
        return self

    def partial_fit(
        self, features: np.ndarray, labels: np.ndarray
    ) -> "HDCClassifier":
        """Stream one chunk of raw features into the running bundle."""
        encoded = self.encoder.encode_batch(np.atleast_2d(features))
        return self.partial_fit_encoded(encoded, labels)

    def partial_fit_encoded(
        self, encoded: np.ndarray | PackedHypervectors, labels: np.ndarray
    ) -> "HDCClassifier":
        """Stream one chunk of pre-encoded samples into the running bundle.

        Single-pass training for datasets that don't fit in memory: each
        call folds the chunk's per-class bipolar sums into persistent
        ``int32`` accumulators (``num_classes * D * 4`` bytes — the only
        training state, independent of dataset size) and refreshes
        :attr:`model`.  Seeing every sample exactly once yields the same
        accumulators as a single ``fit_encoded`` bundling pass with
        ``epochs=0`` over the concatenated data, in any chunk order
        (addition commutes); there is no perceptron correction, which is
        the price of never holding the data.  Prefer :meth:`fit_encoded`
        whenever the encoded matrix fits in memory — the retraining
        epochs recover a few accuracy points.

        Mixing with :meth:`fit` / :meth:`fit_encoded` resets the stream:
        a full fit discards streaming state.
        """
        encoded = _as_unpacked(encoded)
        labels = self._validated_labels(encoded.shape[0], labels)
        metrics = _metrics()
        with metrics.timer("model.partial_fit"):
            chunk = class_bundle_counts(
                encoded, labels, self.num_classes, dtype=np.int32
            )
            if self._stream_acc is None:
                self._stream_acc = chunk
            else:
                if self._stream_acc.shape[1] != encoded.shape[1]:
                    raise ValueError(
                        f"dim {encoded.shape[1]} does not match the running "
                        f"stream accumulator dim {self._stream_acc.shape[1]}"
                    )
                self._stream_acc += chunk
            self._stream_samples += encoded.shape[0]
            self._acc = self._stream_acc
            self.model = HDCModel(
                class_hv=quantize_accumulator(self._stream_acc, self.bits),
                bits=self.bits,
            )
        if metrics.enabled:
            metrics.inc("model.partial_fit_batches")
            metrics.inc("model.fit_samples", encoded.shape[0])
        return self

    def _require_model(self) -> HDCModel:
        if self.model is None:
            raise RuntimeError("classifier is not fitted; call fit() first")
        return self.model

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predict labels for raw features ``(n_samples, n_features)``.

        For a deployed 1-bit model the features are encoded straight into
        packed words (:meth:`Encoder.encode_packed`) and served by
        XOR+popcount — the query never exists in unpacked form.
        """
        model = self._require_model()
        features = np.atleast_2d(features)
        if model.bits == 1 and packed_backend_enabled():
            return model.predict(self.encoder.encode_packed(features))
        return model.predict(self.encoder.encode_batch(features))

    def score(self, features: np.ndarray, labels: np.ndarray) -> float:
        """Classification accuracy on raw features."""
        preds = self.predict(features)
        return float(np.mean(preds == np.asarray(labels)))

    def score_encoded(
        self, encoded: np.ndarray | PackedHypervectors, labels: np.ndarray
    ) -> float:
        """Classification accuracy on pre-encoded (uint8 or packed) queries."""
        preds = self._require_model().predict(encoded)
        return float(np.mean(preds == np.asarray(labels)))


def _perceptron_epoch(
    acc: np.ndarray,
    bipolar: np.ndarray,
    labels: np.ndarray,
    rng: np.random.Generator,
) -> int:
    """One order-exact vectorised perceptron pass; mutates ``acc`` in place.

    ``bipolar`` is the ``(n, D)`` int8 ±1 training matrix.  The shuffled
    order is swept in blocks: one ``(block, k)`` GEMM prices every sample
    in the block against the accumulators *as of the block's start*, and
    each misprediction's rank-1 update is immediately patched into the two
    affected similarity columns of the rows after it (``d = tail @ v``),
    so later samples always see the post-update similarities — exactly
    the values the per-sample reference computes.  Exactness: every
    similarity is a sum of ``D`` terms in ``{-n..n}``, integer-valued and
    far below 2**53, so float64 holds it exactly and argmax (with numpy's
    first-max tie rule) matches the integer reference.

    Returns the number of mispredicted samples.  Draws exactly one
    ``rng.permutation`` — the same stream consumption as the reference
    loop, so seeds line up.
    """
    order = rng.permutation(bipolar.shape[0])
    accf = acc.astype(np.float64)
    wrong = 0
    for start in range(0, order.size, _FIT_BLOCK):
        blk = order[start : start + _FIT_BLOCK]
        blk_f = bipolar[blk].astype(np.float64)  # (b, D), one conversion
        sims = blk_f @ accf.T  # (b, k)
        blk_labels = labels[blk]
        for j in range(blk.size):
            pred = int(np.argmax(sims[j]))
            label = int(blk_labels[j])
            if pred == label:
                continue
            row = bipolar[blk[j]]
            acc[label] += row
            acc[pred] -= row
            v = blk_f[j]
            accf[label] += v
            accf[pred] -= v
            if j + 1 < blk.size:
                d = blk_f[j + 1 :] @ v
                sims[j + 1 :, label] += d
                sims[j + 1 :, pred] -= d
            wrong += 1
    return wrong


def _perceptron_epoch_reference(
    acc: np.ndarray,
    bipolar: np.ndarray,
    labels: np.ndarray,
    rng: np.random.Generator,
) -> int:
    """The per-sample perceptron pass the vectorised epoch must replay.

    Kept as the ground truth for the pinned equivalence test
    (``tests/core/test_model.py``); not used on any production path.
    """
    order = rng.permutation(bipolar.shape[0])
    wrong = 0
    for i in order:
        sims = acc @ bipolar[i].astype(np.int64)
        pred = int(np.argmax(sims))
        if pred != labels[i]:
            acc[labels[i]] += bipolar[i]
            acc[pred] -= bipolar[i]
            wrong += 1
    return wrong
