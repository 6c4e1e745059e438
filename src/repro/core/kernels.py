"""Pluggable packed-kernel backends for encoding and serving.

Every 1-bit hot path in this repo bottoms out in one of four
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
  chunk_sims, sims)`` — the Python walk's write: probabilistic
  substitution of a query's bits into the flagged chunks of one uint8
  class row, and the exact similarity change of every flipped bit added
  to that class's column of the chunk and similarity tables of the rows
  still ahead in the block, so the recovery walk never repacks the
  model or recomputes a table.  The numpy and reference backends
  implement it; the native walk repairs inside its C call.
* ``recover_walk(class_hv, words, sims, table, gate, rng, flags,
  repair_bits, ...)`` — a recovery block's whole row walk: the
  confidence gate, the detector's rule on each trusted row's chunk
  similarities, and one write per row that flags chunks.

This module puts them behind a :class:`KernelBackend` contract so
the computation can move between substrates without the callers
changing:

* :class:`NumpyPackedBackend` — the vectorised CPU path: row-blocked
  XOR + ``np.bitwise_count`` with reused scratch buffers and per-word
  counts summed per chunk; the ``bit_plane_sum``/``bit_plane_ge``
  adder tree over gathered word arrays for encoding; per-chunk packed
  flip masks for a repair; the walk is the base class's Python loop.
  The only path on hosts without a C compiler.
* :class:`ReferenceBackend` — the unpacked uint8 oracle: broadcast XOR
  on raw bits, a plain count of the unpacked bound rows, and a repair
  that compares unpacked bits chunk by chunk.  Slow, obviously
  correct, and the equivalence anchor the property tests pin every
  other backend against.
* :class:`NativeCpuBackend` — C kernels compiled on first use (cached
  per host) and the default wherever a C compiler is present: a fused
  XOR+popcount+accumulate chunk distance table, a bit-sliced carry-save
  majority encoder, a one-pass repair and the whole recovery walk in
  one call, each with no table-sized intermediates and the GIL released
  for the duration.

Backends are *stateless* over immutable inputs, so one instance is
shared process-wide.  The active backend is resolved in this order:
the innermost :func:`use_kernel_backend` scope, the
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
a class-row shard of a model is served by the same ``distance_table``
call on the sliced operand (see :mod:`repro.serve.shard`).  Strided
operands are read in place: on a 64-bit word-column slice the tables
are exact partial popcounts (pad words are zero in both operands and
contribute nothing), and since encoding is per bit, ``encode_words`` on
a word-column slice ``codebook_words[:, :, lo:hi]`` is exactly that
slice of the full encode.
"""

from __future__ import annotations

import functools
import os
from contextlib import contextmanager
from typing import Callable, Iterator

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
    (:meth:`encode_words`) and walks a recovery block
    (:meth:`recover_walk`): a Python loop here whose every write is one
    :meth:`repair_row`, which the numpy and reference backends
    implement, and one C call on :class:`NativeCpuBackend`, which
    repairs inside it.  Implementations must be
    bit-identical to :class:`ReferenceBackend` — the serving tier treats
    the table as ground truth (argmin ties included), the recovery walk
    replays a query-at-a-time loop from the patched tables, and the
    equivalence oracle in ``tests/core/test_kernels.py`` holds every
    backend to it.
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
        """The Python walk's write; returns the bits changed per chunk ``(c,)``.

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

    def recover_walk(
        self,
        class_hv: np.ndarray,
        words: np.ndarray,
        sims: np.ndarray,
        table: np.ndarray,
        gate: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
        rng: np.random.Generator,
        flags: np.ndarray,
        repair_bits: np.ndarray,
        *,
        threshold: float,
        margin: float,
        rate: float,
        temperature: float,
        noise_scale: float | None,
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """The recovery walk over one block; returns ``(preds, conf, writes)``.

        ``class_hv`` is the ``(k, D)`` uint8 1-bit model, written in
        place; ``words`` the block's ``(b, W)`` packed rows; ``sims``
        ``(b, k)`` and ``table`` ``(b, m, k)`` its similarity and chunk
        similarity tables, patched in place; chunk ``j`` is the bits
        ``[j·d, (j+1)·d)`` with ``d = D // m``.  ``gate(rows)`` maps
        similarity rows to their predictions and confidences.  Rows are
        walked in order.  A row whose confidence is not below
        ``threshold`` is trusted; its chunks where a rival class beats
        the predicted one by more than ``margin`` are flagged, each
        adding 1 to ``flags[pred, chunk]`` ``(k, m)``.  A trusted row
        that flags ``c`` chunks makes one model write: ``c·d`` draws of
        ``rng.random``, in ascending chunk order, and one
        :meth:`repair_row` into the predicted class at substitution rate
        ``rate``, which patches the tables of the rows still ahead; each
        chunk's changed bits are added to ``repair_bits[pred, chunk]``
        ``(k, m)``.  A row's similarities are final once the walk has
        passed it, so the returned ``preds`` and ``conf`` are the gate
        over the final ``sims``; ``writes`` counts the model writes.

        This loop is the oracle every backend replays: the gate over
        the block, then, after each write that changed bits, over the
        rows ahead.  ``temperature`` and ``noise_scale`` (the gate's
        similarity-noise std at ``k = 2``, else ``None``) restate the
        gate's rule for a backend that evaluates it natively.
        """
        num_queries = words.shape[0]
        chunk_bits = class_hv.shape[1] // table.shape[1]
        preds, conf = gate(sims)
        writes = 0
        for j in range(num_queries):
            if conf[j] < threshold:
                continue
            predicted = int(preds[j])
            row = table[j]
            chunks = np.flatnonzero(
                row.max(axis=1) - row[:, predicted] > margin
            )
            if not chunks.size:
                continue
            flags[predicted, chunks] += 1
            writes += 1
            draws = rng.random((chunks.size, chunk_bits))
            ahead = slice(j + 1, None)
            changed = self.repair_row(
                class_hv[predicted], words[j], chunks, chunk_bits,
                draws, rate, words[ahead],
                table[ahead, :, predicted], sims[ahead, predicted],
            )
            repair_bits[predicted, chunks] += changed
            if changed.any() and j + 1 < num_queries:
                preds[ahead], conf[ahead] = gate(sims[ahead])
        return preds, conf, writes

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
# encoder's majority bundle, bit-sliced over whole vectors: per output
# row and per vector of VW words (the target's widest integer vector:
# 8 under AVX-512, 4 under AVX2, else 2), 64 * VW per-dimension counters
# live in vector-local bit planes (plane p holds bit p of each counter).
# Features are added 8 at a time through a carry-save tree of 7 full
# adders on vectors (one ``vpternlogq`` per carry or sum under AVX-512)
# into planes 0-2, the ones, twos and fours of the count, and the tree's
# weight-8 carry ripples through the higher planes; planes 0-5 are held
# in registers, so below 64 features the feature loop stores nothing.
# The planes are then compared MSB-first against n / 2 + 1, a vector at
# a time.  One routine encodes every vector of a row: when VW
# does not divide the row, the last vector ends at the row's last word
# and overlaps the one before it, and a row shorter than one vector is
# loaded into a zeroed one.  The codebook is read through its feature
# and level strides (in words), so a word-column slice of a larger
# codebook is encoded in place.
# ``repro_recover_walk`` is a block's whole recovery walk: per row it
# predicts the first maximum similarity, evaluates the confidence gate
# (handing a row whose confidence lies within a tiny band of the
# threshold back to Python, where rounding could decide it
# differently), flags chunks by the detector's rule, draws a write's
# doubles from the Generator's own bit generator — the ``next_double``
# calls ``Generator.random`` makes — and repairs: the substitution into
# one uint8 class row chunk by chunk, each chunk's flipped bits gathered
# into a word mask, and one masked popcount per row ahead and chunk for
# the similarity patch.
# ``-march=native`` lets the compiler vectorise the popcount
# (AVX512-VPOPCNTDQ where the host has it), with ``restrict`` licensing
# that vectorisation, and sets the encoder's vector width.
_NATIVE_SOURCE = r"""
#include <math.h>
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

/* VW words as one vector: the widest integer vector the target has
   (AVX-512, AVX2, else the SSE2 / NEON width), so every vector below is
   one register; GCC lowers a wider one through the stack, slower than a
   plain word loop.  Vectors live only in locals: a function taking or
   returning one would change the ABI on narrower targets (-Wpsabi). */
#if defined(__AVX512F__)
#define VW 8
#elif defined(__AVX2__)
#define VW 4
#else
#define VW 2
#endif
typedef uint64_t vec __attribute__((vector_size(8 * VW)));

/* Full adder on vectors: (carry, sum) of a + b + c per bit.  Operands
   are read more than once, so they must have no side effects. */
#define CSA(carry, sum, a, b, c) do {                                   \
        vec u_ = (a) ^ (b);                                             \
        (carry) = ((a) & (b)) | (u_ & (c));                             \
        (sum) = u_ ^ (c);                                               \
    } while (0)

/* Majority of rows[k][off .. off+nw) over k < n into out[off ..), for
   nw = VW, or nw < VW when the whole row is shorter (the vector's other
   words zero).  Count planes 0-5 are locals, held in registers, so for
   n < 64 the feature loop stores nothing; planes 6 and up are hi[6 ..].
   The weight-8 carry ripples through planes 3-5 unconditionally: above
   the count's top plane it is always zero. */
static inline __attribute__((always_inline)) void
encode_vector(const uint64_t *const *rows, int64_t n, int nplanes,
              int64_t threshold, int64_t off, int nw,
              uint64_t *restrict out)
{
    const size_t bytes = sizeof(uint64_t) * (size_t)nw;
    vec ones = {0}, twos = {0}, fours = {0};
    vec eights = {0}, sixteens = {0}, thirtytwos = {0}, hi[64];
    for (int p = 6; p < nplanes; p++)
        hi[p] = (vec){0};
    /* Feature k + t's words as a vector; zero past the last feature. */
#define FEATURE(t) ({ vec v_ = {0};                                     \
            if (k + (t) < n)                                            \
                memcpy(&v_, rows[k + (t)] + off, bytes);                \
            v_; })
#define RIPPLE(plane) do {                                              \
        vec c_ = (plane) & carry;                                       \
        (plane) ^= carry;                                               \
        carry = c_;                                                     \
    } while (0)
    for (int64_t k = 0; k < n; k += 8) {
        vec t0, t1, f0, f1, carry;
        CSA(t0, ones, ones, FEATURE(0), FEATURE(1));
        CSA(t1, ones, ones, FEATURE(2), FEATURE(3));
        CSA(f0, twos, twos, t0, t1);
        CSA(t0, ones, ones, FEATURE(4), FEATURE(5));
        CSA(t1, ones, ones, FEATURE(6), FEATURE(7));
        CSA(f1, twos, twos, t0, t1);
        CSA(carry, fours, fours, f0, f1);
        RIPPLE(eights);
        RIPPLE(sixteens);
        RIPPLE(thirtytwos);
        for (int p = 6; p < nplanes; p++)
            RIPPLE(hi[p]);
    }
#undef RIPPLE
#undef FEATURE
    hi[0] = ones;
    hi[1] = twos;
    hi[2] = fours;
    hi[3] = eights;
    hi[4] = sixteens;
    hi[5] = thirtytwos;
    vec gt = {0}, eq = ~(vec){0};
    for (int p = nplanes - 1; p >= 0; p--) {
        if ((threshold >> p) & 1) {
            eq &= hi[p];
        } else {
            gt |= eq & hi[p];
            eq &= ~hi[p];
        }
    }
    gt |= eq;
    memcpy(out + off, &gt, bytes);
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
        if (w < VW) {
            encode_vector(rows, n, nplanes, threshold, 0, (int)w, o);
            continue;
        }
        /* When VW does not divide w, the last vector ends at word w and
           recomputes words of the one before it rather than reading
           past the row. */
        for (int64_t off = 0; off < w; off += VW)
            encode_vector(rows, n, nplanes, threshold,
                          off + VW <= w ? off : w - VW, VW, o);
    }
    free(rows);
    return 0;
}

/* One recovery write, the C counterpart of the Python walk's
   KernelBackend.repair_row.  For each flagged
   chunk j = chunks[t], t < c, bit i of [j * d, (j + 1) * d) takes the
   query's bit wherever draws[t * d + i - j * d] < rate; changed[t]
   counts the bits that changed.  Each changed bit moves the similarity
   of row s < r ahead by +1 where the row's bit equals the new model bit
   (the query's), else -1: per chunk 2 * agree - changed[t], added to
   chunk_sims[s * cs + j * cj] and to sims[s * ss] (strides in
   elements).  Rows are w words long; flip is w words of scratch. */
static void repair(uint8_t *restrict row, const uint64_t *restrict query,
                   const int64_t *restrict chunks, int64_t c, int64_t d,
                   const double *restrict draws, double rate,
                   const uint64_t *restrict ahead, int64_t r, int64_t w,
                   double *chunk_sims, int64_t cs, int64_t cj,
                   double *sims, int64_t ss, int64_t *restrict changed,
                   uint64_t *restrict flip)
{
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
}

/* numpy.random's bitgen_t (numpy/random/bitgen.h), the struct a
   Generator's bit_generator.ctypes.bit_generator points to.  Generator
   .random() fills its output with next_double, one call per element. */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *);
    uint32_t (*next_uint32)(void *);
    double (*next_double)(void *);
    uint64_t (*next_raw)(void *);
} bitgen_t;

/* Half-width of the band around the gate's threshold, applied to the
   margin before the temperature and to the confidence, inside which
   this evaluation and NumPy's could round to different sides. */
#define GATE_BAND 1e-9

/* The gate's trust decision for one row s[0..k), k >= 2, whose first
   maximum is s[pred]: 1 trusted, 0 not, -1 within the band.  The margin
   is the winner's over the runner-up: in similarity-noise units when
   noise_scale > 0, else in standard deviations of the row (1 when the
   row is flat), as repro.core.confidence computes it. */
static int gate_row(const double *s, int64_t k, int64_t pred,
                    double threshold, double temperature, double noise_scale)
{
    double second = -INFINITY;
    for (int64_t c = 0; c < k; c++)
        if (c != pred && s[c] > second)
            second = s[c];
    double gap;
    if (noise_scale > 0) {
        gap = (s[pred] - second) / noise_scale;
    } else {
        double sum = 0.0, var = 0.0;
        for (int64_t c = 0; c < k; c++)
            sum += s[c];
        double mean = sum / (double)k;
        for (int64_t c = 0; c < k; c++)
            var += (s[c] - mean) * (s[c] - mean);
        double sd = sqrt(var / (double)k);
        if (sd == 0.0)
            sd = 1.0;
        gap = (s[pred] - mean) / sd - (second - mean) / sd;
    }
    double lo = 1.0 / (1.0 + exp(-(gap - GATE_BAND) / temperature));
    double hi = 1.0 / (1.0 + exp(-(gap + GATE_BAND) / temperature));
    if (hi < threshold - GATE_BAND)
        return 0;
    if (lo >= threshold + GATE_BAND)
        return 1;
    return -1;
}

/* The recovery walk (KernelBackend.recover_walk) over rows [start, b)
   of a block: words (b, w), sims (b, k), table (b, m, k), all
   C-contiguous; class c of the uint8 model starts rs bytes after class
   c - 1.  Row j is predicted as its first maximum similarity and
   trusted by gate_row, or by decided (0 or 1) when j == start and
   decided >= 0.  A trusted row flags chunk t where a class beats the
   predicted one in table[j, t] by more than margin; if it flags any, it
   draws c * d doubles from bitgen for its c flagged chunks and repairs
   the predicted class with them, patching the rows ahead.  flags and
   repair_bits (k, m) count the predicted class's flagged chunks and
   changed bits; writes[0] counts the repairs.  Returns b when the walk
   is done, the row whose trust gate_row left undecided, or -1 if
   scratch memory could not be allocated. */
int64_t repro_recover_walk(uint8_t *model, int64_t rs,
                           const uint64_t *restrict words, int64_t b,
                           int64_t w, double *sims, int64_t k,
                           double *table, int64_t m, int64_t d,
                           double threshold, double temperature,
                           double noise_scale, double margin, double rate,
                           bitgen_t *bitgen, int64_t start, int64_t decided,
                           int64_t *restrict flags,
                           int64_t *restrict repair_bits,
                           int64_t *restrict writes)
{
    double *draws = malloc(sizeof *draws * (size_t)(m * d != 0 ? m * d : 1));
    int64_t *chunks = malloc(sizeof *chunks * (size_t)(2 * m));
    uint64_t *flip = malloc(sizeof *flip * (size_t)(w ? w : 1));
    int64_t j = -1;
    if (draws == NULL || chunks == NULL || flip == NULL)
        goto done;
    int64_t *changed = chunks + m;
    for (j = start; j < b; j++) {
        const double *s = sims + j * k;
        int64_t pred = 0;
        for (int64_t c = 1; c < k; c++)
            if (s[c] > s[pred])
                pred = c;
        int trusted = j == start && decided >= 0
            ? (int)decided
            : gate_row(s, k, pred, threshold, temperature, noise_scale);
        if (trusted < 0)
            break;
        if (!trusted)
            continue;
        const double *row = table + j * m * k;
        int64_t c = 0;
        for (int64_t t = 0; t < m; t++) {
            const double *x = row + t * k;
            double top = x[0];
            for (int64_t i = 1; i < k; i++)
                if (x[i] > top)
                    top = x[i];
            if (top - x[pred] > margin)
                chunks[c++] = t;
        }
        if (!c)
            continue;
        for (int64_t i = 0; i < c * d; i++)
            draws[i] = bitgen->next_double(bitgen->state);
        repair(model + pred * rs, words + j * w, chunks, c, d, draws, rate,
               words + (j + 1) * w, b - j - 1, w,
               table + (j + 1) * m * k + pred, m * k, k,
               sims + (j + 1) * k + pred, k, changed, flip);
        for (int64_t t = 0; t < c; t++) {
            flags[pred * m + chunks[t]] += 1;
            repair_bits[pred * m + chunks[t]] += changed[t];
        }
        writes[0] += 1;
    }
done:
    free(draws);
    free(chunks);
    free(flip);
    return j;
}
"""


def _c_compiler() -> str | None:
    """The C compiler the kernels are built with, or ``None``."""
    import shutil

    return shutil.which("cc") or shutil.which("gcc")


def _compile_commands(compiler: str, src, out) -> tuple[list[str], list[str]]:
    """The build's two commands compiling ``src`` into the shared object
    ``out``: tuned to this host's CPU, and the portable fallback run
    when the first fails."""
    fallback = [compiler, "-O3", "-shared", "-fPIC",
                "-o", str(out), str(src), "-lm"]
    return fallback[:2] + ["-march=native"] + fallback[2:], fallback


def _build_native_kernel():
    """Compile (or reuse) the C kernels; returns the loaded ctypes library.

    The shared object is cached under the user's temp directory keyed by
    a hash of the source, so the compile happens once per host, not once
    per process — forked serving workers inherit the parent's loaded
    library.  Raises on any failure; :class:`NativeCpuBackend` turns
    that into ``available() == False`` and keeps the error text.
    """
    import hashlib
    import subprocess
    import tempfile
    from pathlib import Path

    compiler = _c_compiler()
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
        native, fallback = _compile_commands(compiler, src, tmp)
        try:
            subprocess.run(native, check=True, capture_output=True,
                           text=True, timeout=120)
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired):
            subprocess.run(fallback, check=True, capture_output=True,
                           text=True, timeout=120)
        # Atomic publish so concurrently-starting processes never load a
        # half-written library.
        os.replace(tmp, so_path)
    return _load_library(so_path)


def _load_library(path):
    """The kernel library built at ``path``, its signatures declared."""
    import ctypes

    lib = ctypes.CDLL(str(path))
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
    lib.repro_recover_walk.argtypes = [
        ctypes.c_void_p, ctypes.c_int64,
        ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64,
        ctypes.c_void_p, ctypes.c_int64,
        ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64,
        ctypes.c_double, ctypes.c_double, ctypes.c_double,
        ctypes.c_double, ctypes.c_double,
        ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64,
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
    ]
    lib.repro_recover_walk.restype = ctypes.c_int64
    return lib


class NativeCpuBackend(KernelBackend):
    """C kernels compiled on first use: distance table, encoder, walk.

    The chunk distance table fuses XOR, popcount, and the word-axis
    accumulation in one loop nest, so no ``(b, k, W)`` intermediate is
    ever materialised — on a popcount-capable CPU this is several times
    faster than the blocked NumPy path.  The encoder works on one
    vector of a row's words at a time, as wide as the compile target's
    integer vectors (8 words under AVX-512, 4 under AVX2, else 2): the
    vector's count planes stay in registers and vector locals while the
    row's ``n`` bound words stream past, 8 features per carry-save tree
    of vector full adders, instead of sweeping the whole batch once per
    adder step as the NumPy tree does.  A repair walks each flagged
    chunk's bits once and patches the rows ahead with one masked
    popcount per word of the chunk; the recovery walk runs every row of
    a block, its gate, detection, draws and repairs, in one call.
    ``available()`` is simply
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

    def recover_walk(
        self,
        class_hv: np.ndarray,
        words: np.ndarray,
        sims: np.ndarray,
        table: np.ndarray,
        gate: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
        rng: np.random.Generator,
        flags: np.ndarray,
        repair_bits: np.ndarray,
        *,
        threshold: float,
        margin: float,
        rate: float,
        temperature: float,
        noise_scale: float | None,
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """The walk in one GIL-released C call, drawing from ``rng``'s bit
        generator under its lock.

        The kernel evaluates the gate's rule itself; a row whose
        confidence lies within a tiny band of ``threshold``, where its
        rounding and NumPy's could disagree, is decided by ``gate`` and
        the walk resumes there.  The one ``gate`` call over the final
        ``sims`` then gives the block's predictions and confidences.
        """
        lib = self._require()
        words = _walk_operands(
            class_hv, words, sims, table, flags, repair_bits
        )
        num_queries, num_classes = sims.shape
        num_chunks = table.shape[1]
        if num_classes < 2:
            raise ValueError("need at least two classes to compute confidence")
        # The kernel writes each class at unit stride; a strided model is
        # walked in a copy.
        target = (class_hv if class_hv.strides[1] == 1
                  else np.ascontiguousarray(class_hv))
        bitgen = rng.bit_generator
        writes = np.zeros(1, dtype=np.int64)
        start, decided = 0, -1
        try:
            while start < num_queries:
                with bitgen.lock:
                    stop = lib.repro_recover_walk(
                        target.ctypes.data, target.strides[0],
                        words.ctypes.data, num_queries, words.shape[1],
                        sims.ctypes.data, num_classes, table.ctypes.data,
                        num_chunks, class_hv.shape[1] // num_chunks,
                        threshold, temperature, noise_scale or 0.0, margin,
                        rate, bitgen.ctypes.bit_generator, start, decided,
                        flags.ctypes.data, repair_bits.ctypes.data,
                        writes.ctypes.data,
                    )
                if stop < 0:
                    raise MemoryError("native recovery walk: scratch allocation")
                if stop == num_queries:
                    break
                _, conf = gate(sims[stop : stop + 1])
                start, decided = stop, int(not conf[0] < threshold)
        finally:
            if target is not class_hv:
                class_hv[...] = target
        return (*gate(sims), int(writes[0]))


def _walk_operands(
    class_hv, words, sims, table, flags, repair_bits
) -> np.ndarray:
    """Validate a native walk; returns ``words`` C-contiguous.

    The kernel reads and writes every operand through raw pointers, so
    the tables it patches and the records it fills must be C-contiguous
    arrays of the walk's shapes.
    """
    if (
        not isinstance(class_hv, np.ndarray) or class_hv.dtype != np.uint8
        or class_hv.ndim != 2 or not class_hv.flags.writeable
    ):
        raise ValueError("expected a writeable (k, D) uint8 model")
    (k, dim), words = class_hv.shape, np.ascontiguousarray(words)
    if words.dtype != np.uint64 or words.ndim != 2 or (
        words.shape[1] != -(-dim // 64)
    ):
        raise ValueError(
            f"expected (b, {-(-dim // 64)}) uint64 words, got "
            f"{words.dtype}{words.shape}"
        )
    b = words.shape[0]
    m = table.shape[1] if getattr(table, "ndim", 0) == 3 else 0
    for name, array, dtype, shape in (
        ("sims", sims, np.float64, (b, k)),
        ("table", table, np.float64, (b, m, k)),
        ("flags", flags, np.int64, (k, m)),
        ("repair_bits", repair_bits, np.int64, (k, m)),
    ):
        if (
            not isinstance(array, np.ndarray) or array.dtype != dtype
            or array.shape != shape or not array.flags.c_contiguous
            or not array.flags.writeable
        ):
            raise ValueError(
                f"{name} must be a writeable C-contiguous "
                f"{np.dtype(dtype).name}{shape} array"
            )
    if not 1 <= m <= dim:
        raise ValueError(f"{m} chunks do not fit the {dim}-bit model")
    return words


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
    """Activate a backend for the scope of a ``with`` block.

    Accepts a registered name (availability-checked) or a
    :class:`KernelBackend` instance; the previous selection comes back
    on exit.  Outside every scope the ``REPRO_KERNEL_BACKEND``
    environment variable, then the host default, decides.
    """
    global _ACTIVE
    if isinstance(backend, str):
        backend = get_backend(backend)
    elif not isinstance(backend, KernelBackend):
        raise TypeError(
            f"expected a backend name or instance, got {type(backend)}"
        )
    previous, _ACTIVE = _ACTIVE, backend
    try:
        yield backend
    finally:
        _ACTIVE = previous
