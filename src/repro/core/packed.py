"""Bit-packed hypervector backend: 64 dimensions per machine word.

The reference representation in :mod:`repro.core.hypervector` stores one
dimension per ``uint8`` — transparent, sliceable, perfect for the
recovery loop's chunk views.  Deployment-grade HDC packs 64 dimensions
into each ``uint64`` word, shrinking the model 8x and turning binding and
Hamming similarity into word-wide XOR + popcount — the same operations
the DPIM substrate executes in memory.

This module is the *serving* backend: :class:`~repro.core.model.HDCModel`
transparently dispatches 1-bit ``similarities``/``predict`` and the
noisy-chunk detector (:mod:`repro.core.chunks`) through it, with
bit-identical results to the float reference (for a 1-bit model the
centred-weight dot product is exactly ``D/2 - hamming``, and both sides
are exact in float64).  Equivalence is guaranteed by property tests
(``tests/core/test_packed.py``); ``benchmarks/bench_obs.py`` times the
packed predict and recovery paths (``BENCH_obs.json``).

Conventions: dimension ``i`` lives in word ``i // 64``, bit ``i % 64``
(little-endian within the word).  Vectors whose dimensionality is not a
multiple of 64 are padded with zero bits; the pad never contributes to
distances because both operands carry identical zero pads.  Packing is
``np.packbits(..., bitorder="little")`` viewed as native ``uint64`` —
on a big-endian host the words are byte-swapped so the convention above
holds everywhere.

Population counts use ``np.bitwise_count`` (NumPy >= 2, the floor in
``pyproject.toml``).

The backend can be disabled globally — e.g. to A/B the float reference
against the packed engine in tests or benchmarks — via
:func:`set_packed_backend` or the :func:`float_backend` context manager.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

import numpy as np

__all__ = [
    "PackedHypervectors",
    "PackedModel",
    "bit_plane_ge",
    "bit_plane_sum",
    "pack",
    "unpack",
    "packed_bind",
    "packed_flip_bits",
    "packed_hamming_distance",
    "packed_popcount",
    "packed_single_bit_flips",
    "pack_model",
    "packed_backend_enabled",
    "set_packed_backend",
    "float_backend",
]

_WORD = 64
_BIG_ENDIAN = sys.byteorder == "big"

# Global backend switch.  True routes every 1-bit hot path (model
# similarities, chunk detection) through the packed engine; False forces
# the float64 reference everywhere.  Results are bit-identical either
# way — the switch exists for benchmarking and equivalence testing.
_PACKED_ENABLED = True


def packed_backend_enabled() -> bool:
    """Whether 1-bit hot paths dispatch to the packed engine."""
    return _PACKED_ENABLED


def set_packed_backend(enabled: bool) -> None:
    """Globally enable/disable packed dispatch (float reference otherwise)."""
    global _PACKED_ENABLED
    _PACKED_ENABLED = bool(enabled)


@contextmanager
def float_backend() -> Iterator[None]:
    """Temporarily force the float64 reference path on all hot paths."""
    previous = _PACKED_ENABLED
    set_packed_backend(False)
    try:
        yield
    finally:
        set_packed_backend(previous)


def _pack_bits(batch: np.ndarray) -> np.ndarray:
    """Pack a validated 0/1 ``(b, D)`` batch into ``(b, W)`` uint64 words.

    Internal: assumes binary values (callers validate).  The heavy
    lifting is ``np.packbits``'s C loop; any zero-padding up to the word
    boundary happens on the packed *bytes* (``D/8`` of the input size),
    never on the unpacked bits.
    """
    dim = batch.shape[1]
    packed_bytes = np.packbits(
        np.ascontiguousarray(batch, dtype=np.uint8), axis=1, bitorder="little"
    )  # (b, ceil(dim / 8)); packbits zero-fills a trailing partial byte
    word_bytes = (-(-dim // _WORD)) * (_WORD // 8)
    if packed_bytes.shape[1] != word_bytes:
        padded = np.zeros((batch.shape[0], word_bytes), dtype=np.uint8)
        padded[:, : packed_bytes.shape[1]] = packed_bytes
        packed_bytes = padded
    words = packed_bytes.view(np.uint64)
    if _BIG_ENDIAN:
        words = words.byteswap()
    return words


def pack(hvs: np.ndarray) -> "PackedHypervectors":
    """Pack binary hypervectors ``(..., D)`` into 64-bit words.

    Accepts a single vector or a batch; values must be 0/1.
    """
    hvs = np.asarray(hvs)
    if hvs.ndim not in (1, 2):
        raise ValueError(f"expected 1-D or 2-D input, got {hvs.ndim}-D")
    if ((hvs != 0) & (hvs != 1)).any():
        raise ValueError("hypervectors must be binary (0/1)")
    single = hvs.ndim == 1
    batch = hvs[None, :] if single else hvs
    words = _pack_bits(batch.astype(np.uint8, copy=False))
    return PackedHypervectors(words=words, dim=batch.shape[1], single=single)


def unpack(packed: "PackedHypervectors") -> np.ndarray:
    """Inverse of :func:`pack`: back to 0/1 ``uint8`` arrays."""
    words = np.ascontiguousarray(packed.words)
    if _BIG_ENDIAN:
        words = words.byteswap()
    as_bytes = words.view(np.uint8).reshape(words.shape[0], -1)
    flat = np.unpackbits(as_bytes, axis=1, bitorder="little")[:, : packed.dim]
    return flat[0] if packed.single else flat


def packed_popcount(words: np.ndarray) -> np.ndarray:
    """Population count summed over the last axis of a uint64 word array."""
    w = np.asarray(words)
    if w.dtype != np.uint64:
        raise ValueError(f"expected uint64 words, got {w.dtype}")
    return np.bitwise_count(w).sum(axis=-1, dtype=np.int64)


def packed_bind(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """XOR binding directly on packed words (broadcastable)."""
    return np.bitwise_xor(a, b)


def _add_bit_planes(x: list[np.ndarray], y: list[np.ndarray]) -> list[np.ndarray]:
    """Bitwise ripple-carry addition of two bit-plane numbers.

    ``x`` and ``y`` are little-endian lists of word arrays: bit ``i`` of
    the per-position counter lives in ``x[i]``.  Each addition step is a
    half or full adder expressed as word-wide XOR/AND/OR, so a whole
    batch of counters advances per numpy call.
    """
    out: list[np.ndarray] = []
    carry: np.ndarray | None = None
    for i in range(max(len(x), len(y))):
        bits = [
            p
            for p in (
                x[i] if i < len(x) else None,
                y[i] if i < len(y) else None,
                carry,
            )
            if p is not None
        ]
        if len(bits) == 1:
            plane, carry = bits[0], None
        elif len(bits) == 2:
            a, b = bits
            plane, carry = a ^ b, a & b
        else:
            a, b, c = bits
            t = a ^ b
            plane = t ^ c
            carry = (a & b) | (t & c)
        out.append(plane)
    if carry is not None:
        out.append(carry)
    return out


def bit_plane_sum(operands: list[np.ndarray]) -> list[np.ndarray]:
    """Sum binary word arrays *per bit position* into bit planes.

    ``operands`` is a list of equal-shape uint64 word arrays, each
    encoding one binary value per bit position.  The result is a
    little-endian list of planes: bit ``j`` of word position ``p`` across
    the planes spells the count of operands whose bit ``(p, j)`` is set —
    a carry-save adder tree evaluated with word-wide XOR/AND/OR, i.e. 64
    independent counters advance per machine word.  This is what lets
    majority bundling (the encoder's bundle step) run entirely in the
    packed domain.
    """
    if not operands:
        raise ValueError("bit_plane_sum needs at least one operand")
    if len(operands) == 1:
        return [operands[0]]
    mid = len(operands) // 2
    return _add_bit_planes(
        bit_plane_sum(operands[:mid]), bit_plane_sum(operands[mid:])
    )


def bit_plane_ge(planes: list[np.ndarray], threshold: int) -> np.ndarray:
    """Per-bit-position comparison ``count >= threshold`` of bit planes.

    ``planes`` is the little-endian counter representation produced by
    :func:`bit_plane_sum`; the result is a single word array whose bit is
    1 exactly where the counter meets the threshold — the majority rule
    of bundling, computed without ever leaving the packed domain.
    """
    if not planes:
        raise ValueError("bit_plane_ge needs at least one plane")
    ones = np.full_like(planes[0], np.uint64(0xFFFFFFFFFFFFFFFF))
    if threshold <= 0:
        return ones
    nbits = max(len(planes), int(threshold).bit_length())
    gt = np.zeros_like(planes[0])
    eq = ones
    for i in range(nbits - 1, -1, -1):
        want = (threshold >> i) & 1
        plane = planes[i] if i < len(planes) else None
        if plane is None:
            # Counter bit i is implicitly 0; if the threshold wants a 1
            # here, equality is impossible from this prefix on.
            if want:
                eq = np.zeros_like(eq)
            continue
        if want:
            eq = eq & plane
        else:
            gt = gt | (eq & plane)
            eq = eq & ~plane
    return gt | eq


def packed_hamming_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamming distance between packed word arrays (broadcastable).

    ``(W,)`` vs ``(k, W)`` returns ``(k,)`` — the query-vs-model search.
    """
    return packed_popcount(np.bitwise_xor(a, b))


def _bit_masks(bit_indices: np.ndarray, dim: int, num_words: int) -> np.ndarray:
    """``(W,)`` uint64 XOR mask with the given dimension-space bits set.

    Indices must be distinct and in ``[0, dim)`` — out-of-range bits
    would land in the zero padding above ``dim`` and silently break the
    pad-bits-are-zero invariant every popcount relies on.
    """
    idx = np.asarray(bit_indices, dtype=np.int64).ravel()
    if idx.size and (idx.min() < 0 or idx.max() >= dim):
        raise ValueError(
            f"bit indices must lie in [0, {dim}), got range "
            f"[{int(idx.min())}, {int(idx.max())}]"
        )
    if np.unique(idx).size != idx.size:
        raise ValueError("bit indices must be distinct")
    mask = np.zeros(num_words, dtype=np.uint64)
    np.bitwise_or.at(
        mask, idx // _WORD, np.uint64(1) << (idx % _WORD).astype(np.uint64)
    )
    return mask


def packed_flip_bits(
    words: np.ndarray, dim: int, bit_indices: np.ndarray
) -> np.ndarray:
    """Copy of packed ``words`` with the given dimension bits XOR-flipped.

    ``words`` is ``(W,)`` or ``(b, W)`` uint64; ``bit_indices`` are
    distinct dimension indices in ``[0, dim)`` applied to *every* row.
    This is the perturbation primitive for adversarial query search: a
    flip is its own inverse, so search loops can toggle candidate bits
    without unpacking.
    """
    w = np.asarray(words)
    if w.dtype != np.uint64:
        raise ValueError(f"expected uint64 words, got {w.dtype}")
    mask = _bit_masks(bit_indices, dim, w.shape[-1])
    return np.bitwise_xor(w, mask)


def packed_single_bit_flips(
    word_row: np.ndarray, dim: int, positions: np.ndarray
) -> np.ndarray:
    """Candidate matrix: row ``j`` is ``word_row`` with ``positions[j]``
    flipped.

    ``word_row`` is a single packed vector ``(W,)``; the result is
    ``(len(positions), W)``, ready for one batched distance call.  This
    turns one hill-climbing round of a bit-flip search into a single
    matrix op instead of ``len(positions)`` scalar probes.
    """
    row = np.asarray(word_row)
    if row.dtype != np.uint64:
        raise ValueError(f"expected uint64 words, got {row.dtype}")
    if row.ndim != 1:
        raise ValueError(f"expected a single (W,) row, got shape {row.shape}")
    pos = np.asarray(positions, dtype=np.int64).ravel()
    if pos.size and (pos.min() < 0 or pos.max() >= dim):
        raise ValueError(
            f"bit positions must lie in [0, {dim}), got range "
            f"[{int(pos.min())}, {int(pos.max())}]"
        )
    out = np.tile(row, (pos.size, 1))
    out[np.arange(pos.size), pos // _WORD] ^= (
        np.uint64(1) << (pos % _WORD).astype(np.uint64)
    )
    return out


@dataclass
class PackedHypervectors:
    """A batch of bit-packed hypervectors.

    Attributes
    ----------
    words:
        ``(batch, ceil(dim / 64))`` array of ``uint64``.
    dim:
        Logical dimensionality (pad bits beyond it are zero).
    single:
        Whether this was packed from a single 1-D vector (round-trips
        back to 1-D).
    """

    words: np.ndarray
    dim: int
    single: bool = False

    def __post_init__(self) -> None:
        if self.words.dtype != np.uint64 or self.words.ndim != 2:
            raise ValueError("words must be a 2-D uint64 array")
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        expected = -(-self.dim // _WORD)
        if self.words.shape[1] != expected:
            raise ValueError(
                f"dim {self.dim} needs {expected} words per vector, got "
                f"{self.words.shape[1]}"
            )

    @property
    def batch(self) -> int:
        return self.words.shape[0]

    @property
    def bytes_per_vector(self) -> int:
        """Storage footprint — 8x smaller than the uint8 representation."""
        return self.words.shape[1] * 8

    def __len__(self) -> int:
        return self.words.shape[0]

    def __getitem__(self, rows) -> "PackedHypervectors":
        """Select rows (slice, index array, or single int) as a packed batch.

        A single integer returns a one-row batch flagged ``single`` so it
        unpacks back to a 1-D vector.  Word data is a view where numpy
        slicing gives one — no repacking happens.
        """
        if isinstance(rows, (int, np.integer)):
            return PackedHypervectors(
                words=self.words[int(rows)][None, :], dim=self.dim, single=True
            )
        return PackedHypervectors(
            words=np.atleast_2d(self.words[rows]), dim=self.dim
        )

    def hamming_to(self, other: "PackedHypervectors") -> np.ndarray:
        """Pairwise-broadcast Hamming distances, ``(self.batch, other.batch)``.

        For one query against a model, prefer
        :func:`packed_hamming_distance` on the raw word arrays.
        """
        if other.dim != self.dim:
            raise ValueError(f"dim mismatch: {self.dim} vs {other.dim}")
        return _backend().distance_table(self.words, other.words)

    def bind(self, other: "PackedHypervectors") -> "PackedHypervectors":
        """Elementwise XOR binding of two equal-shape packed batches."""
        if other.dim != self.dim or other.batch != self.batch:
            raise ValueError("bind requires equal dim and batch")
        return PackedHypervectors(
            words=packed_bind(self.words, other.words),
            dim=self.dim,
            single=self.single and other.single,
        )


def _backend():
    """The active :mod:`repro.core.kernels` backend.

    The native C kernel where it compiled, else row-blocked NumPy; see
    ``kernels.set_kernel_backend`` / ``REPRO_KERNEL_BACKEND``.  The
    import is deferred because ``kernels`` imports this module at load
    time.
    """
    from repro.core import kernels

    return kernels.active_backend()


@dataclass(frozen=True)
class PackedModel:
    """An immutable packed snapshot of a 1-bit model's class hypervectors.

    Produced (and cached) by :meth:`repro.core.model.HDCModel.packed`.
    The ``version`` stamp ties the snapshot to the model state it was
    packed from: :class:`~repro.core.model.HDCModel` bumps its version on
    every in-place write (recovery substitutions, fault injection), which
    invalidates this snapshot on the next ``packed()`` call.

    Attributes
    ----------
    words:
        ``(num_classes, ceil(dim / 64))`` uint64 word matrix.
    dim:
        Logical dimensionality of the model.
    version:
        The model version this snapshot was packed at.
    """

    words: np.ndarray
    dim: int
    version: int

    @property
    def num_classes(self) -> int:
        return self.words.shape[0]

    @property
    def nbytes(self) -> int:
        """Size of the word matrix — what a shared-memory export needs."""
        return self.words.nbytes

    @classmethod
    def from_buffer(
        cls, buffer, num_classes: int, dim: int, version: int = 0
    ) -> "PackedModel":
        """Zero-copy read-only :class:`PackedModel` over an existing buffer.

        The word matrix is a view — nothing is copied, which is what
        makes shared-memory serving zero-copy per worker.  The view is
        marked read-only: the buffer belongs to the publisher and readers
        must never write through it.
        """
        words = np.ndarray(
            (num_classes, -(-dim // _WORD)), dtype=np.uint64, buffer=buffer
        )
        words.flags.writeable = False
        return cls(words=words, dim=dim, version=version)

    def distances(self, query_words: np.ndarray) -> np.ndarray:
        """Hamming distances ``(b, k)`` for packed query words ``(b, W)``."""
        return _backend().distance_table(np.atleast_2d(query_words), self.words)

    def chunk_distances(
        self, query_words: np.ndarray, num_chunks: int
    ) -> np.ndarray:
        """Per-chunk Hamming distances ``(b, m, k)`` for query words ``(b, W)``.

        Chunk ``j`` covers dimensions ``[j·d, (j+1)·d)`` with ``d = dim /
        num_chunks``, which must divide evenly; ``d`` need not be a
        multiple of 64.
        """
        if num_chunks < 1 or self.dim % num_chunks:
            raise ValueError(
                f"dim {self.dim} is not divisible into {num_chunks} chunks"
            )
        return _backend().chunk_distance_table(
            np.atleast_2d(query_words), self.words, num_chunks,
            self.dim // num_chunks,
        )


def pack_model(class_hv: np.ndarray, version: int = 0) -> PackedModel:
    """Pack a ``(k, D)`` 0/1 class-hypervector matrix into a snapshot."""
    packed = pack(class_hv)
    return PackedModel(words=packed.words, dim=packed.dim, version=version)
