"""ID-level encoding of feature vectors into binary hypervectors.

Implements the encoding of Section 3.1 of the paper:

.. math::

    \\vec H = \\sum_{k=1}^{n} \\; \\lfloor f_k \\rceil_{\\mathcal F} \\oplus \\vec B_k

Each feature position ``k`` owns a random *base* (a.k.a. ID) hypervector
``B_k``; the feature's value is quantised to one of ``L`` levels and
replaced by the corresponding *level* hypervector; the two are XOR-bound;
and the ``n`` bound vectors are bundled (elementwise summed and
majority-thresholded) into the final binary hypervector ``H``.

Because any two base hypervectors are quasi-orthogonal, the encoding
retains *where* each feature sits in the input, while the level family
retains *how large* it is — and the final bundle spreads all of that
information holographically over all ``D`` dimensions, which is the root
of RobustHD's bit-flip robustness.

Encoding backends
-----------------
Two bit-identical implementations serve :meth:`Encoder.encode_batch`:

* the **reference** path materialises the ``(block, n, D)`` uint8 bound
  tensor and sums it (:meth:`Encoder.encode_batch_reference`);
* the **packed** path precomputes the bound codebook
  ``bound[k, l] = base[k] ⊕ level[l]`` once per encoder — stored packed,
  ``(n, L, D/64)`` uint64, lazily built and version-stamped like
  :class:`~repro.core.packed.PackedModel` — and majority-bundles the
  gathered per-feature words through the active
  :mod:`repro.core.kernels` backend's ``encode_words``: a bit-sliced
  carry-save C kernel where it compiled, else the NumPy adder tree
  (:func:`~repro.core.packed.bit_plane_sum` /
  :func:`~repro.core.packed.bit_plane_ge`).  A sample is encoded
  without ever re-XORing the codebooks or leaving the packed domain.

:meth:`Encoder.encode_packed` exposes the packed result directly as
:class:`~repro.core.packed.PackedHypervectors`, which the 1-bit serving
stack (:class:`~repro.core.model.HDCModel`, the recovery pipeline)
consumes with zero pack/unpack round-trips.

Both paths block their working set by :data:`ENCODE_BLOCK_BYTES`, and
base / level codebooks are shared across encoder instances with
identical ``(num_features, dim, levels, seed)`` so parameter sweeps stop
regenerating identical tables.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.core import kernels
from repro.core.hypervector import (
    bind,
    level_hypervectors,
    random_hypervectors,
)
from repro.core.packed import (
    PackedHypervectors,
    _pack_bits,
    unpack,
)
from repro.obs.metrics import current as _metrics

__all__ = [
    "ENCODE_BLOCK_BYTES",
    "Encoder",
    "PackedCodebook",
    "clear_codebook_cache",
    "encode_words_from_codebook",
    "quantize_features",
]

# Working-set budget (bytes) for blocked encoding: the seed's
# ``max_cells = 64_000_000`` uint8 cells (= 64 MB).
ENCODE_BLOCK_BYTES = 64_000_000

# Base/level codebooks shared across Encoder instances.  Sweeps and
# experiment grids construct many encoders with identical parameters;
# regenerating the tables (an rng pass over n*D + L*D cells) dominated
# Encoder construction.  Entries are marked read-only so sharing is safe.
_CODEBOOK_CACHE: OrderedDict[tuple, tuple[np.ndarray, np.ndarray]] = (
    OrderedDict()
)
_CODEBOOK_CACHE_SIZE = 8


def clear_codebook_cache() -> None:
    """Drop all cached base/level codebooks (mainly for tests)."""
    _CODEBOOK_CACHE.clear()


def _shared_codebooks(
    num_features: int, dim: int, levels: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Base/level tables for the given parameters, cached LRU."""
    key = (num_features, dim, levels, seed)
    cached = _CODEBOOK_CACHE.get(key)
    metrics = _metrics()
    if cached is not None:
        _CODEBOOK_CACHE.move_to_end(key)
        metrics.inc("encoder.codebook_cache_hits")
        return cached
    rng = np.random.default_rng(seed)
    base = random_hypervectors(num_features, dim, rng)
    level = level_hypervectors(levels, dim, rng)
    base.flags.writeable = False
    level.flags.writeable = False
    _CODEBOOK_CACHE[key] = (base, level)
    if len(_CODEBOOK_CACHE) > _CODEBOOK_CACHE_SIZE:
        _CODEBOOK_CACHE.popitem(last=False)
    metrics.inc("encoder.codebook_cache_misses")
    return base, level


def _check_finite(features: np.ndarray) -> None:
    """Raise ``ValueError`` naming where ``features`` holds NaN or ±inf.

    NaN survives ``np.clip`` and would quantise to an undefined
    (negative) level index, silently corrupting every downstream
    hypervector, and ±inf saturating to a boundary level would hide an
    upstream normalisation bug just as quietly.  A finite array costs
    one ``np.isfinite`` pass; positions are located only on failure.
    """
    finite = np.isfinite(features)
    if not finite.all():
        positions = np.argwhere(~finite)
        shown = ", ".join(
            str(tuple(int(i) for i in pos)) if positions.shape[1] > 1
            else str(int(pos[0]))
            for pos in positions[:8]
        )
        suffix = ", ..." if positions.shape[0] > 8 else ""
        raise ValueError(
            f"features contain {int(positions.shape[0])} non-finite "
            f"value(s) (NaN/inf) at position(s) {shown}{suffix}"
        )


def quantize_features(
    features: np.ndarray, levels: int, low: float, high: float
) -> np.ndarray:
    """Quantise real features into integer level indices ``0 .. levels-1``.

    Values are clipped to ``[low, high]`` first, so out-of-range inputs
    saturate instead of wrapping — saturation matches what a fixed sensor
    range does and keeps adjacent inputs adjacent in level space.
    Non-finite inputs raise (see :func:`_check_finite`).
    """
    if levels < 2:
        raise ValueError(f"levels must be >= 2, got {levels}")
    if not high > low:
        raise ValueError(f"need high > low, got low={low}, high={high}")
    features = np.asarray(features)
    _check_finite(features)
    clipped = np.clip(features, low, high)
    scaled = (clipped - low) / (high - low)  # in [0, 1]
    idx = np.floor(scaled * levels).astype(np.int64)
    return np.minimum(idx, levels - 1)


def encode_words_from_codebook(
    codebook_words: np.ndarray,
    idx: np.ndarray,
    *,
    rows_per_block: int = 4096,
) -> np.ndarray:
    """Packed encode of quantised level indices against a bound codebook.

    ``codebook_words`` is the ``(n, L, W)`` uint64 bound table
    (``bound[k, l] = base[k] ⊕ level[l]``, the
    :class:`PackedCodebook` word matrix) and ``idx`` the ``(b, n)``
    quantised level indices.  Each output row is the per-bit strict
    majority of the ``n`` bound rows its indices select, computed by
    the active :mod:`repro.core.kernels` backend's ``encode_words``
    (the native carry-save kernel where it compiled, else the NumPy
    adder tree) — all word-wide bitwise ops, no per-sample XOR and no
    unpacked intermediate.  Rows are encoded ``rows_per_block`` at a
    time to bound the NumPy tree's gathered working set.

    The codebook must be 3-D ``uint64`` with a unit-stride word axis
    (a word-column slice ``codebook_words[:, :, lo:hi]`` is read in
    place) and ``idx`` an integer ``(b, n)`` array with every entry in
    ``[0, L)``; anything else raises ``ValueError`` naming the first
    bad position.

    Module-level (rather than an :class:`Encoder` method) so processes
    that hold only the codebook *words* — e.g. serving workers attached
    to a shared-memory export — can encode without reconstructing an
    encoder, which would regenerate the base/level tables from scratch.
    Bit-identical to :meth:`Encoder.encode_packed` on the same codebook.
    """
    backend = kernels.active_backend()
    idx = np.asarray(idx)
    rows = max(1, int(rows_per_block))
    if idx.ndim != 2 or idx.shape[0] <= rows:
        return backend.encode_words(codebook_words, idx)
    # Check the whole batch first so an error names its position in
    # ``idx``, not in a block; the backend re-checks each block.
    idx = kernels.check_encode_operands(codebook_words, idx)
    return np.concatenate([
        backend.encode_words(codebook_words, idx[start : start + rows])
        for start in range(0, idx.shape[0], rows)
    ])


@dataclass(frozen=True)
class PackedCodebook:
    """Packed bound codebook ``bound[k, l] = base[k] ⊕ level[l]``.

    Attributes
    ----------
    words:
        ``(num_features, levels, ceil(dim / 64))`` uint64 — row ``(k, l)``
        is the packed bound hypervector for feature ``k`` at level ``l``.
        Footprint is ``n * L * D / 8`` bytes.
    dim:
        Logical dimensionality (pad bits are zero).
    version:
        The encoder codebook version this snapshot was built at; stale
        snapshots are rebuilt on the next :meth:`Encoder.packed_codebook`
        call, mirroring :class:`~repro.core.packed.PackedModel`.
    """

    words: np.ndarray
    dim: int
    version: int


@dataclass
class Encoder:
    """ID-level hypervector encoder for fixed-length feature vectors.

    Parameters
    ----------
    num_features:
        Length ``n`` of the input feature vectors.
    dim:
        Hypervector dimensionality ``D`` (paper uses 4k-10k).
    levels:
        Number of quantisation levels ``L`` for feature values.
    low, high:
        Expected dynamic range of (normalised) feature values; inputs are
        clipped to this range before quantisation.
    seed:
        Seed for the base/level hypervector tables.  Two encoders built
        with the same parameters and seed are identical, which is what
        lets train- and test-time encoding agree.

    The encoder owns two codebooks resolved at construction (shared,
    read-only, across instances with identical parameters):

    * ``base``  — shape ``(num_features, dim)``, i.i.d. random.
    * ``level`` — shape ``(levels, dim)``, correlated (see
      :func:`repro.core.hypervector.level_hypervectors`).

    A third, derived codebook — the packed bound table
    ``bound[k, l] = base[k] ⊕ level[l]`` — is built lazily on first use
    and cached per :attr:`codebook_version` (see
    :meth:`packed_codebook`).  Anyone replacing ``base``/``level`` in
    place must call :meth:`bump_codebook_version`, exactly like writers
    of ``HDCModel.class_hv`` bump the model version.
    """

    num_features: int
    dim: int = 10_000
    levels: int = 32
    low: float = 0.0
    high: float = 1.0
    seed: int = 0
    base: np.ndarray = field(init=False, repr=False)
    level: np.ndarray = field(init=False, repr=False)
    _codebook_version: int = field(default=0, init=False, repr=False)
    _packed_codebook: PackedCodebook | None = field(
        default=None, init=False, repr=False
    )

    def __post_init__(self) -> None:
        if self.num_features < 1:
            raise ValueError(f"num_features must be >= 1, got {self.num_features}")
        if self.dim < 2:
            raise ValueError(f"dim must be >= 2, got {self.dim}")
        self.base, self.level = _shared_codebooks(
            self.num_features, self.dim, self.levels, self.seed
        )

    # ------------------------------------------------------------------
    # Bound-codebook cache
    # ------------------------------------------------------------------

    @property
    def codebook_version(self) -> int:
        """Monotonic codebook write counter; stamps the bound codebook."""
        return self._codebook_version

    def bump_codebook_version(self) -> int:
        """Record a replacement of ``base``/``level``; invalidates caches."""
        self._codebook_version += 1
        return self._codebook_version

    def packed_codebook(self) -> PackedCodebook:
        """The packed bound codebook, built lazily and cached per version.

        Building costs one ``np.packbits`` pass over each codebook plus a
        broadcast XOR of the packed words; the snapshot occupies
        ``num_features * levels * dim / 8`` bytes and is reused until
        :attr:`codebook_version` changes.
        """
        cache = self._packed_codebook
        if cache is not None and cache.version == self._codebook_version:
            return cache
        base_words = _pack_bits(self.base)  # (n, W)
        level_words = _pack_bits(self.level)  # (L, W)
        words = np.bitwise_xor(
            base_words[:, None, :], level_words[None, :, :]
        )  # (n, L, W)
        cache = PackedCodebook(
            words=words, dim=self.dim, version=self._codebook_version
        )
        self._packed_codebook = cache
        _metrics().inc("encoder.bound_codebook_builds")
        return cache

    # ------------------------------------------------------------------
    # Block-size policy
    # ------------------------------------------------------------------

    def rows_per_block(self, packed: bool = True) -> int:
        """Samples encoded per block under :data:`ENCODE_BLOCK_BYTES`.

        The reference path holds a ``(rows, n, D)`` uint8 bound tensor
        (``n * D`` bytes per row); the packed path holds the gathered
        per-feature word arrays plus carry-save scratch of comparable
        size (``~2 * n * D / 8`` bytes per row), so it fits ~4x more rows
        in the same budget.
        """
        if packed:
            words = -(-self.dim // 64)
            per_row = 2 * self.num_features * words * 8
        else:
            per_row = self.num_features * self.dim
        return max(1, ENCODE_BLOCK_BYTES // per_row)

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------

    def encode(self, features: np.ndarray) -> np.ndarray:
        """Encode one feature vector ``(n,)`` into a binary hypervector ``(D,)``."""
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 1:
            raise ValueError(
                f"encode expects a 1-D feature vector, got {features.ndim}-D; "
                "use encode_batch for matrices"
            )
        return self.encode_batch(features[None, :])[0]

    def _validated_indices(self, features: np.ndarray) -> np.ndarray:
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2:
            raise ValueError(f"expected a 2-D batch, got {features.ndim}-D")
        if features.shape[1] != self.num_features:
            raise ValueError(
                f"expected {self.num_features} features, got {features.shape[1]}"
            )
        return quantize_features(features, self.levels, self.low, self.high)

    def encode_batch(self, features: np.ndarray) -> np.ndarray:
        """Encode a feature matrix ``(batch, n)`` into hypervectors ``(batch, D)``.

        Encoding is deterministic (majority ties resolve to 0) so the same
        input always produces the same hypervector, at train and test time.
        Runs the packed bound-codebook engine and unpacks its words;
        bit-identical to :meth:`encode_batch_reference` (property-tested).
        """
        idx = self._validated_indices(features)
        metrics = _metrics()
        with metrics.timer("encoder.encode_batch"):
            words = self._encode_words(idx)
            out = unpack(
                PackedHypervectors(words=words, dim=self.dim)
            )
        if metrics.enabled:
            metrics.inc("encoder.batches_packed")
            metrics.inc("encoder.rows_encoded", idx.shape[0])
        return out

    def encode_packed(self, features: np.ndarray) -> PackedHypervectors:
        """Encode a feature matrix straight into packed 64-bit words.

        Returns :class:`~repro.core.packed.PackedHypervectors` of shape
        ``(batch, ceil(dim / 64))`` — the representation the 1-bit
        serving stack consumes — without ever materialising the uint8
        hypervectors, so encode → predict → recover stays in the packed
        domain end-to-end.  Bit-identical to packing the output of
        :meth:`encode_batch`.
        """
        idx = self._validated_indices(features)
        metrics = _metrics()
        with metrics.timer("encoder.encode_packed"):
            words = self._encode_words(idx)
        if metrics.enabled:
            metrics.inc("encoder.batches_packed")
            metrics.inc("encoder.rows_encoded", idx.shape[0])
        return PackedHypervectors(words=words, dim=self.dim)

    def _encode_words(self, idx: np.ndarray) -> np.ndarray:
        """Packed encode of quantised level indices ``(b, n)`` → ``(b, W)``."""
        return encode_words_from_codebook(
            self.packed_codebook().words,
            idx,
            rows_per_block=self.rows_per_block(packed=True),
        )

    def encode_batch_reference(self, features: np.ndarray) -> np.ndarray:
        """Reference encoding via the materialised uint8 bound tensor.

        Kept as the ground truth the packed engine is property-tested
        against.  Blocked by the same :data:`ENCODE_BLOCK_BYTES` budget
        as the packed engine.
        """
        idx = self._validated_indices(features)
        metrics = _metrics()
        out = np.empty((idx.shape[0], self.dim), dtype=np.uint8)
        rows = self.rows_per_block(packed=False)
        with metrics.timer("encoder.encode_batch"):
            for start in range(0, idx.shape[0], rows):
                block_idx = idx[start : start + rows]  # (b, n)
                lvl = self.level[block_idx]  # (b, n, D)
                bound = bind(lvl, self.base[None, :, :])  # (b, n, D)
                counts = bound.sum(axis=1, dtype=np.int64)  # (b, D)
                out[start : start + block_idx.shape[0]] = (
                    2 * counts > self.num_features
                ).astype(np.uint8)
        if metrics.enabled:
            metrics.inc("encoder.batches_reference")
            metrics.inc("encoder.rows_encoded", idx.shape[0])
        return out
