"""Pluggable packed-kernel backends for encoding and serving.

Every 1-bit hot path in this repo bottoms out in one of three
primitives over packed uint64 words (64 dimensions per word):

* ``chunk_distance_table(queries, model, num_chunks, chunk_bits)`` — the
  per-chunk Hamming distances ``(b, m, k)`` between query words
  ``(b, W)`` and model words ``(k, W)``: XOR then popcount, summed over
  chunk ``j``'s bits ``[j·d, (j+1)·d)`` with ``d = chunk_bits``.  ``d``
  is any width — a chunk may start and end inside a word.  Its
  one-chunk case is ``distance_table(queries, model)``, the ``(b, k)``
  table that prediction and every serving worker score through; the
  noisy-chunk detector reads the per-chunk table.
* ``encode_words(codebook_words, idx)`` — the encoder's bundle: row
  ``i`` of the ``(b, W)`` result is the per-bit strict majority of the
  ``n`` bound-codebook rows ``codebook_words[k, idx[i, k]]``.  Every
  feature query is encoded through it before it can be predicted,
  detected or repaired.
* ``repair_row(row, query, chunks, chunk_bits, draws, rate, ahead,
  chunk_sims, sims)`` — one recovery write: probabilistic substitution
  of a query's bits into the flagged chunks of one uint8 class row, and
  the exact similarity change of every flipped bit added to that
  class's column of the chunk and similarity tables of the rows still
  ahead in the block, so the recovery walk never repacks the model or
  recomputes a table.

This module puts all three behind a :class:`KernelBackend` contract so
the computation can move between substrates without the callers
changing:

* :class:`NumpyPackedBackend` — the vectorised CPU path: row-blocked
  XOR + ``np.bitwise_count`` with reused scratch buffers and per-word
  counts summed per chunk; the ``bit_plane_sum``/``bit_plane_ge``
  adder tree over gathered word arrays for encoding; per-chunk packed
  flip masks for a repair.  The only path on hosts without a C
  compiler.
* :class:`ReferenceBackend` — the unpacked uint8 oracle: broadcast XOR
  on raw bits, a plain count of the unpacked bound rows, and a repair
  that compares unpacked bits chunk by chunk.  Slow, obviously
  correct, and the equivalence anchor the property tests pin every
  other backend against.
* :class:`NativeCpuBackend` — C kernels compiled on first use (cached
  per host) and the default wherever a C compiler is present: a fused
  XOR+popcount+accumulate chunk distance table, a bit-sliced carry-save
  majority encoder and a one-pass repair, each with no table-sized
  intermediates and the GIL released for the duration.

Backends are *stateless* over immutable inputs, so one instance is
shared process-wide.  The active backend is resolved in this order:
an explicit :func:`set_kernel_backend` call, the
``REPRO_KERNEL_BACKEND`` environment variable, then ``"native"`` when
the C kernels compiled on this host, falling back to ``"numpy"``.
Every distance computed through :meth:`PackedModel.distances
<repro.core.packed.PackedModel.distances>`,
:meth:`PackedModel.chunk_distances
<repro.core.packed.PackedModel.chunk_distances>` and
:meth:`PackedHypervectors.hamming_to
<repro.core.packed.PackedHypervectors.hamming_to>`, and every packed
encode through :func:`repro.core.encoder.encode_words_from_codebook`,
dispatches through the active backend.

Sharding note: the contract is defined on *word arrays*, not models, so
a shard of a model — a class-row slice or a 64-bit word-block slice —
is served by the same ``distance_table`` call on the sliced operands.
Word-block partials are exact partial popcounts (pad words are zero in
both operands and contribute nothing), which is what lets the serving
tier's reduce tree sum them back into full distances bit-identically
(see :mod:`repro.serve.shard`).  Encoding is per bit, so
``encode_words`` on a word-column slice ``codebook_words[:, :, lo:hi]``
is exactly that slice of the full encode; every backend reads the slice
in place.
"""

from __future__ import annotations

import functools
import os
from contextlib import contextmanager
from typing import Iterator

import numpy as np

from repro.core import packed as _packed

__all__ = [
    "KernelBackend",
    "NumpyPackedBackend",
    "ReferenceBackend",
    "NativeCpuBackend",
    "active_backend",
    "available_backends",
    "check_encode_operands",
    "get_backend",
    "set_kernel_backend",
    "use_kernel_backend",
]

# Cache-sized row blocking for the CPU path: a query block is read from
# RAM once and re-XORed against every class while resident in L2.
_ROW_BLOCK = 256
# Cap on the (rows, classes, words) uint64 XOR scratch — 64 Ki words is
# 512 KB, the empirical sweet spot on this class of host: small enough
# that the scratch lives in L2 across the XOR/count/sum passes, large
# enough that ufunc dispatch overhead stays negligible.
_SCRATCH_WORDS = 1 << 16


def _chunk_operands(
    queries: np.ndarray, model: np.ndarray, num_chunks: int, chunk_bits: int
) -> tuple[np.ndarray, np.ndarray]:
    """Validate a chunk-distance call; returns C-contiguous operands."""
    queries = np.ascontiguousarray(queries)
    model = np.ascontiguousarray(model)
    if queries.dtype != np.uint64 or model.dtype != np.uint64:
        raise ValueError(
            f"expected uint64 words, got {queries.dtype} vs {model.dtype}"
        )
    if queries.ndim != 2 or model.ndim != 2:
        raise ValueError(
            f"expected 2-D word arrays, got {queries.ndim}-D vs {model.ndim}-D"
        )
    words = queries.shape[1]
    if words != model.shape[1]:
        raise ValueError(
            f"word-count mismatch: queries have {words} words, "
            f"model has {model.shape[1]}"
        )
    if num_chunks < 1 or chunk_bits < 0:
        raise ValueError(
            f"expected num_chunks >= 1 and chunk_bits >= 0, got "
            f"{num_chunks} and {chunk_bits}"
        )
    if num_chunks * chunk_bits > 64 * words:
        raise ValueError(
            f"{num_chunks} chunks of {chunk_bits} bits exceed {words} words"
        )
    return queries, model


@functools.lru_cache(maxsize=32)
def _chunk_edges(num_chunks: int, chunk_bits: int) -> tuple[np.ndarray, ...]:
    """Word layout of the chunks ``[j·d, (j+1)·d)``, ``d = chunk_bits >= 1``.

    Returns ``(first, last, head_mask, tail_mask, whole_lo, whole_hi)``,
    each ``(m,)``: chunk ``j`` touches words ``first[j]..last[j]``; the
    words ``[whole_lo[j], whole_hi[j])`` lie wholly inside it, and the
    bits it owns of the edge words are ``head_mask[j]`` of word
    ``first[j]`` and ``tail_mask[j]`` of word ``last[j]`` (zero where
    that edge word is whole or is the head word already).
    """
    starts = np.arange(num_chunks, dtype=np.int64) * chunk_bits
    ends = starts + chunk_bits
    first, last = starts >> 6, (ends - 1) >> 6
    lo, hi = starts & 63, ((ends - 1) & 63) + 1  # bit spans, 1 <= hi <= 64
    one_word = first == last
    ones = np.uint64(0xFFFFFFFFFFFFFFFF)

    def span(a, b):  # bits [a, b) of a word, 0 <= a < b <= 64
        return (ones >> (64 - (b - a)).astype(np.uint64)) << a.astype(np.uint64)

    head_mask = np.where(one_word, span(lo, hi), span(lo, np.full_like(lo, 64)))
    head_mask[(lo == 0) & (~one_word | (hi == 64))] = 0
    tail_mask = span(np.zeros_like(hi), hi)
    tail_mask[one_word | (hi == 64)] = 0
    whole_lo = first + (head_mask != 0)
    whole_hi = last + 1 - (tail_mask != 0)
    edges = (first, last, head_mask, tail_mask, whole_lo, whole_hi)
    for array in edges:  # shared by every caller through the cache
        array.flags.writeable = False
    return edges


def check_encode_operands(codebook_words: np.ndarray, idx) -> np.ndarray:
    """Validate an encode call; returns ``idx`` as C-contiguous int64.

    The codebook must be a 3-D ``(n, L, W)`` uint64 array whose word
    axis has unit stride (a word-column slice of a larger codebook
    qualifies) and ``idx`` a ``(b, n)`` integer array with every entry
    in ``[0, L)``.  A C kernel reads ``codebook_words[k, idx[i, k]]``
    unchecked, so a bad index must fail here, naming its position.
    """
    if (
        not isinstance(codebook_words, np.ndarray)
        or codebook_words.dtype != np.uint64
        or codebook_words.ndim != 3
        or (codebook_words.strides[2] != 8 and codebook_words.shape[2] > 1)
        or codebook_words.strides[0] % 8
        or codebook_words.strides[1] % 8
    ):
        raise ValueError(
            "expected a 3-D uint64 (n, L, W) codebook with unit word stride"
        )
    n, levels = codebook_words.shape[:2]
    if n < 1:
        raise ValueError("codebook has no features")
    idx = np.asarray(idx)
    if idx.dtype.kind not in "iu":
        raise ValueError(f"level indices must be integers, got {idx.dtype}")
    if idx.ndim != 2 or idx.shape[1] != n:
        raise ValueError(f"expected (b, {n}) level indices, got {idx.shape}")
    idx = np.ascontiguousarray(idx, dtype=np.int64)
    # Negative indices wrap to huge unsigned values, so one unsigned
    # compare catches both ends of the range.
    if idx.size and idx.view(np.uint64).max() >= levels:
        bad = np.argwhere((idx < 0) | (idx >= levels))[0]
        row, feature = int(bad[0]), int(bad[1])
        raise ValueError(
            f"level index {int(idx[row, feature])} at (row {row}, feature "
            f"{feature}) is outside [0, {levels})"
        )
    return idx


def _repair_operands(
    row, query, chunks, chunk_bits, draws, ahead, chunk_sims, sims
) -> tuple[np.ndarray, ...]:
    """Validate a repair call; returns ``(query, chunks, draws, ahead)``
    C-contiguous, with ``chunks`` as int64.

    A C kernel writes ``row`` and the two table columns through raw
    pointers, so every shape, dtype and index is checked here.
    """
    if (
        not isinstance(row, np.ndarray) or row.dtype != np.uint8
        or row.ndim != 1 or not row.flags.writeable
    ):
        raise ValueError("expected a writeable 1-D uint8 class row")
    words = -(-row.shape[0] // 64)
    query = np.ascontiguousarray(query)
    ahead = np.ascontiguousarray(ahead)
    if (
        query.dtype != np.uint64 or ahead.dtype != np.uint64
        or query.shape != (words,) or ahead.ndim != 2
        or ahead.shape[1] != words
    ):
        raise ValueError(
            f"expected uint64 words: a ({words},) query and (r, {words}) "
            f"rows ahead, got {query.dtype}{query.shape} and "
            f"{ahead.dtype}{ahead.shape}"
        )
    rows = ahead.shape[0]
    for name, table, ndim in (
        ("chunk_sims", chunk_sims, 2), ("sims", sims, 1)
    ):
        if (
            not isinstance(table, np.ndarray) or table.dtype != np.float64
            or table.ndim != ndim or table.shape[0] != rows
            or not table.flags.writeable or any(s % 8 for s in table.strides)
        ):
            raise ValueError(
                f"{name} must be a writeable float64 {ndim}-D column with "
                f"{rows} rows"
            )
    num_chunks = chunk_sims.shape[1]
    if chunk_bits < 1 or num_chunks * chunk_bits > row.shape[0]:
        raise ValueError(
            f"{num_chunks} chunks of {chunk_bits} bits exceed the "
            f"{row.shape[0]}-bit row"
        )
    chunks = np.ascontiguousarray(chunks, dtype=np.int64)
    listed = chunks.tolist()  # a handful of indices: cheaper as a list
    if chunks.ndim != 1 or listed != sorted(set(listed)) or (listed and (
        listed[0] < 0 or listed[-1] >= num_chunks
    )):
        raise ValueError(
            f"chunks must be ascending distinct indices in [0, {num_chunks})"
        )
    draws = np.ascontiguousarray(draws)
    if draws.dtype != np.float64 or draws.shape != (chunks.size, chunk_bits):
        raise ValueError(
            f"expected ({chunks.size}, {chunk_bits}) float64 draws, got "
            f"{draws.dtype}{draws.shape}"
        )
    return query, chunks, draws, ahead


class KernelBackend:
    """Contract every packed-kernel backend implements.

    A backend implements three operations: it computes exact integer
    Hamming distances between packed uint64 word arrays
    (:meth:`chunk_distance_table` — per chunk, with the whole-row
    :meth:`distance_table`, defined here on top of it, as the one-chunk
    case), majority-bundles bound-codebook rows into packed encodings
    (:meth:`encode_words`), and applies one recovery write
    (:meth:`repair_row`).  Implementations must be bit-identical to
    :class:`ReferenceBackend` — the serving tier treats the table as
    ground truth (argmin ties included), the recovery walk replays a
    query-at-a-time loop from the patched tables, and the equivalence
    oracle in ``tests/core/test_kernels.py`` holds every backend to it.
    """

    #: Registry key and the ``kernel_backend`` tag in BENCH artifacts.
    name: str = "abstract"

    @classmethod
    def available(cls) -> bool:
        """Whether this backend can run in the current process."""
        return False

    def chunk_distance_table(
        self,
        queries: np.ndarray,
        model: np.ndarray,
        num_chunks: int,
        chunk_bits: int,
    ) -> np.ndarray:
        """Per-chunk Hamming distances ``(b, m, k)``, ``m = num_chunks``.

        Both operands are ``uint64`` word matrices sharing the word
        count ``W``; entry ``(i, j, c)`` counts the differing bits of
        query row ``i`` and model row ``c`` in chunk ``j``, the bits
        ``[j·d, (j+1)·d)`` with ``d = chunk_bits``.  ``d`` is given in
        bits because it need not be a multiple of 64, and because pad
        bits make ``64·W`` larger than the logical dimensionality.  Bits
        past ``m·d`` are not counted; ``m·d`` must not exceed ``64·W``.
        The result is ``int64``.
        """
        raise NotImplementedError

    def distance_table(
        self, queries: np.ndarray, model: np.ndarray
    ) -> np.ndarray:
        """Hamming distances ``(b, k)`` of query words vs model words.

        The one-chunk case of :meth:`chunk_distance_table`, over all
        ``64·W`` bits.  Pad bits (beyond the logical dimensionality)
        must be zero in both operands, which makes the table exact for
        full vectors *and* for word-block shards of them.
        """
        words = queries.shape[-1]
        return self.chunk_distance_table(queries, model, 1, 64 * words)[:, 0]

    def encode_words(
        self, codebook_words: np.ndarray, idx: np.ndarray
    ) -> np.ndarray:
        """Packed encodings ``(b, W)`` of level indices ``idx`` ``(b, n)``.

        ``codebook_words`` is the ``(n, L, W)`` uint64 bound codebook
        (``bound[k, l] = base[k] ⊕ level[l]``).  Bit ``j`` of output row
        ``i`` is set exactly when more than half of the ``n`` rows
        ``codebook_words[k, idx[i, k]]`` have bit ``j`` set (strict
        majority, ties to 0).  Operands are checked by
        :func:`check_encode_operands`; pad bits zero in the codebook
        stay zero in the result.
        """
        raise NotImplementedError

    def repair_row(
        self,
        row: np.ndarray,
        query: np.ndarray,
        chunks: np.ndarray,
        chunk_bits: int,
        draws: np.ndarray,
        rate: float,
        ahead: np.ndarray,
        chunk_sims: np.ndarray,
        sims: np.ndarray,
    ) -> np.ndarray:
        """One recovery write; returns the bits changed per chunk ``(c,)``.

        ``row`` is one class of a 1-bit model, ``(D,)`` uint8 0/1, and
        is written in place; ``query`` the ``(W,)`` packed words of the
        trusted query.  For each flagged chunk ``chunks[t]`` (ascending,
        distinct, ``< m``; chunk ``j`` is the bits ``[j·d, (j+1)·d)``
        with ``d = chunk_bits``) bit ``i`` of the row takes the query's
        bit wherever ``draws[t, i - j·d] < rate`` — the substitution
        ``p·Q | (1-p)·C`` — and the result counts, per chunk, the bits
        that actually changed.

        ``ahead`` holds the ``(r, W)`` packed words of the rows still
        ahead in the block; ``chunk_sims`` ``(r, m)`` and ``sims``
        ``(r,)`` are this class's columns of their chunk-similarity and
        similarity tables (float64 views, any strides).  Every changed
        bit moves a row's similarity by ``+1`` where that row's bit
        equals the new model bit and ``-1`` where it does not; the
        per-chunk sums are added to ``chunk_sims[:, chunks[t]]`` and
        their total to ``sims``.  Similarities of a 1-bit model are
        exact half-integers, so the patched columns equal a fresh
        computation.
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"<{type(self).__name__} name={self.name!r}>"


class NumpyPackedBackend(KernelBackend):
    """Vectorised NumPy kernels — the path on hosts without a C compiler.

    Distances are row-blocked XOR+popcount: per-word population counts,
    summed per chunk.  Word-aligned chunks sum a reshaped block of
    counts; otherwise whole words are summed through a running count
    and each chunk's edge words are counted under the chunk's bit mask.
    Population counts are ``np.bitwise_count``.  Encoding gathers each
    feature's bound rows and reduces them with the word-wide carry-save
    adder tree of :func:`~repro.core.packed.bit_plane_sum`, then
    thresholds the count planes with
    :func:`~repro.core.packed.bit_plane_ge` — about ``10·n`` word ops
    per 64 dimensions, each a separate NumPy call over the batch.  A
    repair gathers the drawn bits of every flagged chunk at once and
    patches the rows ahead through one packed flip mask per chunk.
    """

    name = "numpy"

    @classmethod
    def available(cls) -> bool:
        return True

    def chunk_distance_table(
        self,
        queries: np.ndarray,
        model: np.ndarray,
        num_chunks: int,
        chunk_bits: int,
    ) -> np.ndarray:
        queries, model = _chunk_operands(queries, model, num_chunks, chunk_bits)
        b, k = queries.shape[0], model.shape[0]
        words = queries.shape[1]
        out = np.zeros((b, num_chunks, k), dtype=np.int64)
        if not (out.size and chunk_bits):
            return out
        # One broadcast XOR per row block — 3 ufunc dispatches per
        # block rather than 3 per class row, which is what keeps small
        # serving batches cheap.  The block height caps the
        # (rows, k, words) scratch at ``_SCRATCH_WORDS`` uint64.
        rows = max(1, min(b, _ROW_BLOCK, _SCRATCH_WORDS // max(1, k * words)))
        xor_buf = np.empty((rows, k, words), dtype=np.uint64)
        count_buf = np.empty((rows, k, words), dtype=np.uint8)
        # Narrowest exact accumulator (a chunk's count reaches 64·W at
        # most): summing uint8 counts into uint16 is measurably faster
        # than into int64, and the int64 output assignment upcasts
        # losslessly.
        acc = np.uint16 if words * 64 <= np.iinfo(np.uint16).max else np.int64
        span = chunk_bits // 64
        if chunk_bits % 64:
            first, last, head, tail, whole_lo, whole_hi = _chunk_edges(
                num_chunks, chunk_bits
            )
        for lo in range(0, b, rows):
            n = min(rows, b - lo)
            xor = np.bitwise_xor(queries[lo : lo + n, None, :],
                                 model[None, :, :], out=xor_buf[:n])
            counts = np.bitwise_count(xor, out=count_buf[:n])
            if not chunk_bits % 64:
                per = counts[..., : num_chunks * span].reshape(
                    n, k, num_chunks, span
                ).sum(axis=-1, dtype=acc)
            else:
                running = np.zeros((n, k, words + 1), dtype=acc)
                np.cumsum(counts, axis=-1, dtype=acc, out=running[..., 1:])
                per = running[..., whole_hi] - running[..., whole_lo]
                per += np.bitwise_count(xor[..., first] & head)
                per += np.bitwise_count(xor[..., last] & tail)
            out[lo : lo + n] = per.transpose(0, 2, 1)
        return out

    def encode_words(
        self, codebook_words: np.ndarray, idx: np.ndarray
    ) -> np.ndarray:
        idx = check_encode_operands(codebook_words, idx)
        n = codebook_words.shape[0]
        operands = [codebook_words[k, idx[:, k]] for k in range(n)]
        planes = _packed.bit_plane_sum(operands)
        return _packed.bit_plane_ge(planes, n // 2 + 1)

    def repair_row(
        self,
        row: np.ndarray,
        query: np.ndarray,
        chunks: np.ndarray,
        chunk_bits: int,
        draws: np.ndarray,
        rate: float,
        ahead: np.ndarray,
        chunk_sims: np.ndarray,
        sims: np.ndarray,
    ) -> np.ndarray:
        query, chunks, draws, ahead = _repair_operands(
            row, query, chunks, chunk_bits, draws, ahead, chunk_sims, sims
        )
        # Row positions of the drawn bits, one line per flagged chunk.
        pos = chunks[:, None] * chunk_bits + np.arange(chunk_bits)
        bits = _unpack_bits(query)[pos]
        flips = (draws < rate) & (row[pos] != bits)
        changed = flips.sum(axis=1, dtype=np.int64)
        row[pos[flips]] = bits[flips]
        if not (len(ahead) and changed.any()):
            return changed
        # One packed mask of flipped bits per chunk; a row ahead agrees
        # with the new model bit where it equals the query's bit.
        masks = np.zeros((chunks.size, row.shape[0]), dtype=np.uint8)
        masks[np.nonzero(flips)[0], pos[flips]] = 1
        masks = _packed._pack_bits(masks)
        first = (chunks * chunk_bits) >> 6
        last = ((chunks + 1) * chunk_bits - 1) >> 6
        for t in np.flatnonzero(changed):
            span = slice(first[t], last[t] + 1)
            agree = np.bitwise_count(
                ~(ahead[:, span] ^ query[span]) & masks[t, span]
            ).sum(axis=1, dtype=np.int64)
            delta = 2 * agree - changed[t]
            chunk_sims[:, chunks[t]] += delta
            sims += delta
        return changed


def _unpack_bits(words: np.ndarray) -> np.ndarray:
    """``(..., W)`` uint64 words → ``(..., 64·W)`` uint8 bits, dimension
    ``i`` of a row at position ``i`` (word ``i // 64``, bit ``i % 64``)."""
    if _packed._BIG_ENDIAN:  # pragma: no cover - BE hosts only
        words = words.byteswap()
    as_bytes = np.ascontiguousarray(words).view(np.uint8)
    as_bytes = as_bytes.reshape(*words.shape[:-1], 8 * words.shape[-1])
    return np.unpackbits(as_bytes, axis=-1, bitorder="little")


class ReferenceBackend(KernelBackend):
    """Unpacked uint8 oracle: XOR, majority and repair on raw bits.

    Exact by construction and independent of every popcount and adder
    trick the fast paths use — the anchor all other backends are pinned
    against.
    """

    name = "reference"

    @classmethod
    def available(cls) -> bool:
        return True

    def chunk_distance_table(
        self,
        queries: np.ndarray,
        model: np.ndarray,
        num_chunks: int,
        chunk_bits: int,
    ) -> np.ndarray:
        queries, model = _chunk_operands(queries, model, num_chunks, chunk_bits)
        b, k = queries.shape[0], model.shape[0]
        xor = np.bitwise_xor(queries[:, None, :], model[None, :, :])
        bits = _unpack_bits(xor)[..., : num_chunks * chunk_bits]
        per = bits.reshape(b, k, num_chunks, chunk_bits).sum(
            axis=-1, dtype=np.int64
        )
        return np.ascontiguousarray(per.transpose(0, 2, 1))

    def encode_words(
        self, codebook_words: np.ndarray, idx: np.ndarray
    ) -> np.ndarray:
        idx = check_encode_operands(codebook_words, idx)
        n, _, words = codebook_words.shape
        bound = codebook_words[np.arange(n), idx]  # (b, n, W)
        counts = _unpack_bits(bound).sum(axis=1, dtype=np.int64)
        majority = np.packbits(2 * counts > n, axis=-1, bitorder="little")
        out = majority.view(np.uint64).reshape(idx.shape[0], words)
        return out.byteswap() if _packed._BIG_ENDIAN else out

    def repair_row(
        self,
        row: np.ndarray,
        query: np.ndarray,
        chunks: np.ndarray,
        chunk_bits: int,
        draws: np.ndarray,
        rate: float,
        ahead: np.ndarray,
        chunk_sims: np.ndarray,
        sims: np.ndarray,
    ) -> np.ndarray:
        query, chunks, draws, ahead = _repair_operands(
            row, query, chunks, chunk_bits, draws, ahead, chunk_sims, sims
        )
        bits, ahead_bits = _unpack_bits(query), _unpack_bits(ahead)
        changed = np.zeros(chunks.size, dtype=np.int64)
        for t, chunk in enumerate(chunks):
            lo = chunk * chunk_bits
            span = slice(lo, lo + chunk_bits)
            flipped = lo + np.flatnonzero(
                (draws[t] < rate) & (row[span] != bits[span])
            )
            row[flipped] = bits[flipped]
            changed[t] = flipped.size
            delta = np.where(
                ahead_bits[:, flipped] == bits[flipped], 1, -1
            ).sum(axis=1, dtype=np.int64)
            chunk_sims[:, chunk] += delta
            sims += delta
        return changed


# The C kernels.  ``repro_chunk_distance_table`` is the fused
# XOR+popcount+accumulate chunk distance table: one pass over the
# operands with no table-sized intermediates, the whole-row table
# (m = 1) taking the plain word loop.  ``repro_encode_words`` is the
# encoder's majority bundle, bit-sliced: per output row and per block of
# BLK words, 64 per-dimension counters per word live in local bit planes
# (plane p holds bit p of each counter).  Features are added 8 at a
# time through a carry-save tree of 7 full adders into planes 0-2 (the
# ones, twos and fours of the count); only the tree's weight-8 carry
# ripples into the higher planes, stopping as soon as it dies out.  The
# planes are then compared MSB-first against n / 2 + 1.  The codebook is
# read through its feature and level strides (in words), so a
# word-column slice of a larger codebook is encoded in place.
# ``repro_repair_row`` is one recovery write: the substitution into one
# uint8 class row chunk by chunk, each chunk's flipped bits gathered
# into a word mask, and one masked popcount per row ahead and chunk for
# the similarity patch.
# ``-march=native`` lets the compiler vectorise the popcount
# (AVX512-VPOPCNTDQ where the host has it) and the BLK-word adder
# loops; ``restrict`` is what licenses that vectorisation.
_NATIVE_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Differing bits of q and r in words [lo, hi). */
static inline uint64_t xor_popcount(const uint64_t *restrict q,
                                    const uint64_t *restrict r,
                                    int64_t lo, int64_t hi)
{
    uint64_t acc = 0;
    for (int64_t t = lo; t < hi; t++)
        acc += (uint64_t)__builtin_popcountll(q[t] ^ r[t]);
    return acc;
}

/* The one-chunk table over whole rows: out[i, c], one word loop per
   pair.  Kept out of line so it compiles exactly as a standalone
   distance table would. */
static __attribute__((noinline)) void
row_distance_table(const uint64_t *restrict queries,
                   const uint64_t *restrict model, int64_t *restrict out,
                   int64_t b, int64_t k, int64_t w)
{
    for (int64_t i = 0; i < b; i++) {
        const uint64_t *q = queries + i * w;
        for (int64_t c = 0; c < k; c++) {
            const uint64_t *r = model + c * w;
            uint64_t acc = 0;
            for (int64_t t = 0; t < w; t++)
                acc += (uint64_t)__builtin_popcountll(q[t] ^ r[t]);
            out[i * k + c] = (int64_t)acc;
        }
    }
}

/* out[i, j, c] = differing bits of queries[i] and model[c] in bits
   [j * d, (j + 1) * d), j < m, d >= 1; rows are w words long.  Whole
   words are counted unmasked; only a chunk's first and last words are
   masked, when the chunk starts or ends inside them. */
void repro_chunk_distance_table(const uint64_t *restrict queries,
                                const uint64_t *restrict model,
                                int64_t *restrict out,
                                int64_t b, int64_t k, int64_t w,
                                int64_t m, int64_t d)
{
    const uint64_t ones = ~(uint64_t)0;
    if (m == 1 && d == 64 * w) {
        row_distance_table(queries, model, out, b, k, w);
        return;
    }
    for (int64_t i = 0; i < b; i++) {
        const uint64_t *q = queries + i * w;
        for (int64_t c = 0; c < k; c++) {
            const uint64_t *r = model + c * w;
            int64_t *o = out + i * m * k + c;
            for (int64_t j = 0; j < m; j++) {
                int64_t lo = j * d, hi = lo + d;
                int64_t first = lo >> 6, last = hi >> 6;
                unsigned head = (unsigned)(lo & 63), tail = (unsigned)(hi & 63);
                uint64_t acc;
                if (first == last) {  /* bits [head, tail) of one word */
                    uint64_t mask = (ones >> (64 - (tail - head))) << head;
                    acc = (uint64_t)__builtin_popcountll(
                        (q[first] ^ r[first]) & mask);
                } else {
                    acc = (uint64_t)__builtin_popcountll(
                              (q[first] ^ r[first]) & (ones << head))
                        + xor_popcount(q, r, first + 1, last);
                    if (tail)
                        acc += (uint64_t)__builtin_popcountll(
                            (q[last] ^ r[last]) & (ones >> (64 - tail)));
                }
                o[j * k] = (int64_t)acc;
            }
        }
    }
}

#define BLK 8

/* Full adder on whole words: (carry, sum) of a + b + c per bit. */
#define CSA(carry, sum, a, b, c) do {                                   \
        uint64_t u_ = (a) ^ (b);                                        \
        (carry) = ((a) & (b)) | (u_ & (c));                             \
        (sum) = u_ ^ (c);                                               \
    } while (0)

static const uint64_t zero_block[BLK];

/* Majority of rows[k][off .. off+nw) over k < n into out[off ..). */
static inline __attribute__((always_inline)) void
encode_block(const uint64_t *const *rows, int64_t n, int nplanes,
             int64_t threshold, int64_t off, int nw,
             uint64_t *restrict out)
{
    uint64_t pl[64][BLK];
    memset(pl, 0, sizeof pl[0] * nplanes);
    for (int64_t k = 0; k < n; k += 8) {
        const uint64_t *a[8];
        for (int t = 0; t < 8; t++)
            a[t] = k + t < n ? rows[k + t] + off : zero_block;
        uint64_t carry[BLK];
        for (int j = 0; j < nw; j++) {
            uint64_t ones = pl[0][j], twos = pl[1][j], fours = pl[2][j];
            uint64_t t0, t1, f0, f1;
            CSA(t0, ones, ones, a[0][j], a[1][j]);
            CSA(t1, ones, ones, a[2][j], a[3][j]);
            CSA(f0, twos, twos, t0, t1);
            CSA(t0, ones, ones, a[4][j], a[5][j]);
            CSA(t1, ones, ones, a[6][j], a[7][j]);
            CSA(f1, twos, twos, t0, t1);
            CSA(carry[j], fours, fours, f0, f1);
            pl[0][j] = ones;
            pl[1][j] = twos;
            pl[2][j] = fours;
        }
        for (int p = 3; p < nplanes; p++) {
            uint64_t live = 0;
            for (int j = 0; j < nw; j++) {
                uint64_t c = pl[p][j] & carry[j];
                pl[p][j] ^= carry[j];
                carry[j] = c;
                live |= c;
            }
            if (!live)
                break;
        }
    }
    for (int j = 0; j < nw; j++) {
        uint64_t gt = 0, eq = ~(uint64_t)0;
        for (int p = nplanes - 1; p >= 0; p--) {
            uint64_t x = pl[p][j];
            if ((threshold >> p) & 1) {
                eq &= x;
            } else {
                gt |= eq & x;
                eq &= ~x;
            }
        }
        out[off + j] = gt | eq;
    }
}

/* out[i] = majority over k < n of codebook[k, idx[i, k]], w words each;
   feature rows start fs words apart, level rows ls words apart.
   Returns 0, or -1 if the row table could not be allocated. */
int repro_encode_words(const uint64_t *codebook, int64_t fs, int64_t ls,
                       const int64_t *restrict idx, uint64_t *restrict out,
                       int64_t b, int64_t n, int64_t w)
{
    const uint64_t **rows = malloc(sizeof *rows * (size_t)n);
    if (rows == NULL)
        return -1;
    int nplanes = 3;  /* counts reach n: bit_length(n) planes, >= 3 */
    while ((n >> nplanes) != 0)
        nplanes++;
    int64_t threshold = n / 2 + 1;  /* strict majority: 2 * count > n */
    for (int64_t i = 0; i < b; i++) {
        for (int64_t k = 0; k < n; k++)
            rows[k] = codebook + k * fs + idx[i * n + k] * ls;
        uint64_t *o = out + i * w;
        int64_t off = 0;
        for (; off + BLK <= w; off += BLK)
            encode_block(rows, n, nplanes, threshold, off, BLK, o);
        if (off < w)
            encode_block(rows, n, nplanes, threshold, off, (int)(w - off), o);
    }
    free(rows);
    return 0;
}

/* One recovery write (KernelBackend.repair_row).  For each flagged
   chunk j = chunks[t], t < c, bit i of [j * d, (j + 1) * d) takes the
   query's bit wherever draws[t * d + i - j * d] < rate; changed[t]
   counts the bits that changed.  Each changed bit moves the similarity
   of row s < r ahead by +1 where the row's bit equals the new model bit
   (the query's), else -1: per chunk 2 * agree - changed[t], added to
   chunk_sims[s * cs + j * cj] and to sims[s * ss] (strides in
   elements).  Rows are w words long.  Returns 0, or -1 if the flip
   mask could not be allocated. */
int repro_repair_row(uint8_t *restrict row, const uint64_t *restrict query,
                     const int64_t *restrict chunks, int64_t c, int64_t d,
                     const double *restrict draws, double rate,
                     const uint64_t *restrict ahead, int64_t r, int64_t w,
                     double *chunk_sims, int64_t cs, int64_t cj,
                     double *sims, int64_t ss, int64_t *restrict changed)
{
    uint64_t *flip = malloc(sizeof *flip * (size_t)(w ? w : 1));
    if (flip == NULL)
        return -1;
    for (int64_t t = 0; t < c; t++) {
        int64_t lo = chunks[t] * d, hi = lo + d;
        int64_t first = lo >> 6, last = (hi - 1) >> 6;
        const double *u = draws + t * d;
        int64_t n = 0;
        memset(flip + first, 0, sizeof *flip * (size_t)(last - first + 1));
        for (int64_t i = lo; i < hi; i++) {
            uint8_t q = (uint8_t)((query[i >> 6] >> (i & 63)) & 1);
            if (u[i - lo] < rate && row[i] != q) {
                row[i] = q;
                flip[i >> 6] |= (uint64_t)1 << (i & 63);
                n++;
            }
        }
        changed[t] = n;
        if (!n)
            continue;
        for (int64_t s = 0; s < r; s++) {
            const uint64_t *a = ahead + s * w;
            int64_t agree = 0;
            for (int64_t x = first; x <= last; x++)
                agree += __builtin_popcountll(~(a[x] ^ query[x]) & flip[x]);
            double delta = (double)(2 * agree - n);
            chunk_sims[s * cs + chunks[t] * cj] += delta;
            sims[s * ss] += delta;
        }
    }
    free(flip);
    return 0;
}
"""


def _build_native_kernel():
    """Compile (or reuse) the C kernels; returns the loaded ctypes library.

    The shared object is cached under the user's temp directory keyed by
    a hash of the source, so the compile happens once per host, not once
    per process — forked serving workers inherit the parent's loaded
    library.  Raises on any failure; :class:`NativeCpuBackend` turns
    that into ``available() == False`` and keeps the error text.
    """
    import ctypes
    import hashlib
    import shutil
    import subprocess
    import tempfile
    from pathlib import Path

    compiler = shutil.which("cc") or shutil.which("gcc")
    if compiler is None:
        raise RuntimeError("no C compiler on PATH")
    tag = hashlib.sha256(
        (_NATIVE_SOURCE + compiler).encode()
    ).hexdigest()[:16]
    cache = Path(tempfile.gettempdir()) / f"repro-kernels-{os.getuid()}"
    cache.mkdir(mode=0o700, exist_ok=True)
    so_path = cache / f"kernels-{tag}.so"
    if not so_path.exists():
        src = cache / f"kernels-{tag}.c"
        src.write_text(_NATIVE_SOURCE)
        tmp = cache / f"kernels-{tag}.{os.getpid()}.so"
        base = [compiler, "-O3", "-shared", "-fPIC",
                "-o", str(tmp), str(src)]
        try:
            subprocess.run(base[:2] + ["-march=native"] + base[2:],
                           check=True, capture_output=True, text=True,
                           timeout=120)
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired):
            subprocess.run(base, check=True, capture_output=True, text=True,
                           timeout=120)
        # Atomic publish so concurrently-starting processes never load a
        # half-written library.
        os.replace(tmp, so_path)
    lib = ctypes.CDLL(str(so_path))
    lib.repro_chunk_distance_table.argtypes = [
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
        ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
        ctypes.c_int64, ctypes.c_int64,
    ]
    lib.repro_chunk_distance_table.restype = None
    lib.repro_encode_words.argtypes = [
        ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64,
        ctypes.c_void_p, ctypes.c_void_p,
        ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
    ]
    lib.repro_encode_words.restype = ctypes.c_int
    lib.repro_repair_row.argtypes = [
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
        ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p, ctypes.c_double,
        ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64,
        ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64,
        ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p,
    ]
    lib.repro_repair_row.restype = ctypes.c_int
    return lib


class NativeCpuBackend(KernelBackend):
    """C kernels compiled on first use: distance table, encoder, repair.

    The chunk distance table fuses XOR, popcount, and the word-axis
    accumulation in one loop nest, so no ``(b, k, W)`` intermediate is
    ever materialised — on a popcount-capable CPU this is several times
    faster than the blocked NumPy path.  The encoder keeps each row's
    count planes for one 8-word block in a local array while it adds the
    block's ``n`` bound words, instead of sweeping the whole batch once
    per adder step as the NumPy tree does.  A repair walks each flagged
    chunk's bits once and patches the rows ahead with one masked
    popcount per word of the chunk.  ``available()`` is simply
    "the kernels compiled here"; when they did not, :meth:`build_error`
    says why, and hosts without a toolchain fall back to
    :class:`NumpyPackedBackend` through the default resolution.  ctypes
    releases the GIL for the duration of each call.
    """

    name = "native"
    _lib = None
    _build_error: str | None = None

    @classmethod
    def _load(cls):
        if cls._lib is None and cls._build_error is None:
            try:
                cls._lib = _build_native_kernel()
            except Exception as exc:  # any failure means "not available"
                detail = getattr(exc, "stderr", None) or ""
                cls._build_error = f"{type(exc).__name__}: {exc}\n{detail}"
        return cls._lib

    @classmethod
    def available(cls) -> bool:
        return cls._load() is not None

    @classmethod
    def build_error(cls) -> str | None:
        """Why the kernels did not build here (compiler output included),
        or ``None`` when they did."""
        cls._load()
        return cls._build_error

    def _require(self):
        lib = self._load()
        if lib is None:
            raise RuntimeError(
                f"native kernels failed to build: {self._build_error}"
            )
        return lib

    def chunk_distance_table(
        self,
        queries: np.ndarray,
        model: np.ndarray,
        num_chunks: int,
        chunk_bits: int,
    ) -> np.ndarray:
        lib = self._require()
        queries, model = _chunk_operands(queries, model, num_chunks, chunk_bits)
        b, k = queries.shape[0], model.shape[0]
        if not (b and k and chunk_bits):
            return np.zeros((b, num_chunks, k), dtype=np.int64)
        out = np.empty((b, num_chunks, k), dtype=np.int64)
        lib.repro_chunk_distance_table(
            queries.ctypes.data, model.ctypes.data, out.ctypes.data,
            b, k, queries.shape[1], num_chunks, chunk_bits,
        )
        return out

    def encode_words(
        self, codebook_words: np.ndarray, idx: np.ndarray
    ) -> np.ndarray:
        lib = self._require()
        idx = check_encode_operands(codebook_words, idx)
        n, _, words = codebook_words.shape
        out = np.empty((idx.shape[0], words), dtype=np.uint64)
        if out.size:
            feature_stride, level_stride = (
                stride // 8 for stride in codebook_words.strides[:2]
            )
            if lib.repro_encode_words(
                codebook_words.ctypes.data, feature_stride, level_stride,
                idx.ctypes.data, out.ctypes.data, idx.shape[0], n, words,
            ):
                raise MemoryError("native encode: row table allocation")
        return out

    def repair_row(
        self,
        row: np.ndarray,
        query: np.ndarray,
        chunks: np.ndarray,
        chunk_bits: int,
        draws: np.ndarray,
        rate: float,
        ahead: np.ndarray,
        chunk_sims: np.ndarray,
        sims: np.ndarray,
    ) -> np.ndarray:
        lib = self._require()
        query, chunks, draws, ahead = _repair_operands(
            row, query, chunks, chunk_bits, draws, ahead, chunk_sims, sims
        )
        changed = np.zeros(chunks.size, dtype=np.int64)
        if not chunks.size:
            return changed
        # The kernel writes the row at unit stride; a strided row is
        # repaired in a copy.
        target = row if row.flags.c_contiguous else row.copy()
        row_stride, chunk_stride = (s // 8 for s in chunk_sims.strides)
        if lib.repro_repair_row(
            target.ctypes.data, query.ctypes.data, chunks.ctypes.data,
            chunks.size, chunk_bits, draws.ctypes.data, rate,
            ahead.ctypes.data, len(ahead), query.shape[0],
            chunk_sims.ctypes.data, row_stride, chunk_stride,
            sims.ctypes.data, sims.strides[0] // 8, changed.ctypes.data,
        ):
            raise MemoryError("native repair: flip mask allocation")
        if target is not row:
            row[:] = target
        return changed


_BACKEND_CLASSES: dict[str, type[KernelBackend]] = {
    NumpyPackedBackend.name: NumpyPackedBackend,
    ReferenceBackend.name: ReferenceBackend,
    NativeCpuBackend.name: NativeCpuBackend,
}
_INSTANCES: dict[str, KernelBackend] = {}
_ACTIVE: KernelBackend | None = None


def available_backends() -> dict[str, bool]:
    """Availability of every registered backend in this process."""
    return {
        name: cls.available() for name, cls in _BACKEND_CLASSES.items()
    }


def get_backend(name: str) -> KernelBackend:
    """The shared instance of a registered backend (availability-checked)."""
    cls = _BACKEND_CLASSES.get(name)
    if cls is None:
        raise ValueError(
            f"unknown kernel backend {name!r}; registered: "
            f"{sorted(_BACKEND_CLASSES)}"
        )
    if not cls.available():
        raise RuntimeError(
            f"kernel backend {name!r} is not available in this process"
        )
    instance = _INSTANCES.get(name)
    if instance is None:
        instance = _INSTANCES[name] = cls()
    return instance


def set_kernel_backend(backend: KernelBackend | str | None) -> None:
    """Select the process-wide active backend.

    Accepts a registered name, a :class:`KernelBackend` instance, or
    ``None`` to fall back to the default resolution
    (``REPRO_KERNEL_BACKEND`` env var, then ``"native"`` where it
    compiled, then ``"numpy"``).
    """
    global _ACTIVE
    if backend is None:
        _ACTIVE = None
    elif isinstance(backend, str):
        _ACTIVE = get_backend(backend)
    elif isinstance(backend, KernelBackend):
        _ACTIVE = backend
    else:
        raise TypeError(
            f"expected backend name, instance, or None, got {type(backend)}"
        )


def _default_backend_name() -> str:
    """Default resolution when nothing is selected explicitly.

    The native C kernels when they compiled on this host, else the
    NumPy path.
    """
    if NativeCpuBackend.available():
        return "native"
    return "numpy"


def active_backend() -> KernelBackend:
    """The backend every packed distance and encode call dispatches
    through."""
    if _ACTIVE is not None:
        return _ACTIVE
    return get_backend(
        os.environ.get("REPRO_KERNEL_BACKEND") or _default_backend_name()
    )


@contextmanager
def use_kernel_backend(backend: KernelBackend | str) -> Iterator[KernelBackend]:
    """Temporarily activate a backend (restores the previous selection)."""
    global _ACTIVE
    previous = _ACTIVE
    set_kernel_backend(backend)
    try:
        yield active_backend()
    finally:
        _ACTIVE = previous
