"""Model sharding for the concurrent serving engine.

A :class:`ShardPlan` splits a packed model's ``(k, W)`` word matrix into
shards along one of its two axes, and owns the rule that turns the
shards' answers back into predictions (:meth:`ShardPlan.reply` in the
worker, :meth:`ShardPlan.combine` in the engine):

* ``kind="class"`` — shard ``s`` holds a contiguous *row* range of class
  hypervectors ``(k_s, W)``.  A worker attached to it computes a
  distance table against *its* classes only and replies, per query row,
  its best distance and that class's global index; the engine keeps the
  closest reply per row, earlier shards winning ties, so the unsharded
  first-index tie behaviour holds.  This is the LogHD-style
  partitioning: the class axis is the natural split, and each worker's
  scan shrinks to ``1/S`` of the model.  An unsharded engine serves
  every tenant through the one-shard plan ``by_class(k, 1)``.
* ``kind="word"`` — shard ``s`` holds a contiguous *64-bit word column*
  range ``(k, W_s)``.  XOR+popcount distributes over word blocks, so
  each worker replies a *partial popcount* table ``(b, k)`` over its
  columns and the engine sums the partials with
  :func:`reduce_partial_tables` — a pairwise reduce tree, exact because
  integer addition is associative — before one argmin.  This is what
  lets ``D`` grow past what one worker's scan (or one segment) can hold:
  D = 10^6 splits into word blocks no single worker ever maps in full.

Pad bits never perturb either combine: dimensions beyond ``dim`` are
zero in the model *and* in every packed query (the :func:`~
repro.core.packed.pack` contract), XOR of equal zeros is zero, and zero
words contribute nothing to any partial popcount — so a word shard
containing the padded tail is still exact.

Plans are plain frozen data (picklable into
:class:`~repro.serve.engine.ServeConfig`), and the split geometry is
static for an engine's lifetime: generations change the model *bytes*,
never the shard *shape*.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ShardPlan",
    "reduce_partial_tables",
]

_WORD = 64


def _split_ranges(total: int, parts: int) -> tuple[tuple[int, int], ...]:
    """``parts`` contiguous half-open ranges covering ``[0, total)``.

    Balanced to within one unit, larger ranges first — the same
    convention as ``np.array_split``.
    """
    if parts < 1:
        raise ValueError(f"parts must be >= 1, got {parts}")
    if total < parts:
        raise ValueError(f"cannot split {total} items into {parts} shards")
    base, extra = divmod(total, parts)
    bounds = []
    lo = 0
    for s in range(parts):
        hi = lo + base + (1 if s < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return tuple(bounds)


@dataclass(frozen=True)
class ShardPlan:
    """How a ``(num_classes, words)`` packed word matrix splits into shards.

    Attributes
    ----------
    kind:
        ``"class"`` (row ranges over class hypervectors) or ``"word"``
        (column ranges over 64-bit words).
    bounds:
        One half-open ``(lo, hi)`` range per shard, contiguous and
        covering the full axis.
    """

    kind: str
    bounds: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.kind not in ("class", "word"):
            raise ValueError(f"kind must be 'class' or 'word', got {self.kind!r}")
        if not self.bounds:
            raise ValueError("a ShardPlan needs at least one shard")
        lo = 0
        for s, (a, b) in enumerate(self.bounds):
            if a != lo or b <= a:
                raise ValueError(
                    f"shard {s} bounds {(a, b)} must be contiguous and "
                    "non-empty"
                )
            lo = b

    @classmethod
    def by_class(cls, num_classes: int, num_shards: int) -> "ShardPlan":
        """Balanced row split of ``num_classes`` class hypervectors."""
        return cls(kind="class", bounds=_split_ranges(num_classes, num_shards))

    @classmethod
    def by_word(cls, dim: int, num_shards: int) -> "ShardPlan":
        """Balanced column split of the ``ceil(dim / 64)`` packed words."""
        return cls(kind="word", bounds=_split_ranges(-(-dim // _WORD),
                                                     num_shards))

    @property
    def num_shards(self) -> int:
        return len(self.bounds)

    @property
    def axis_size(self) -> int:
        """Total extent of the sharded axis (classes or words)."""
        return self.bounds[-1][1]

    def validate(self, num_classes: int, dim: int) -> None:
        """Check the plan covers this model geometry exactly."""
        expected = num_classes if self.kind == "class" else -(-dim // _WORD)
        if self.axis_size != expected:
            raise ValueError(
                f"{self.kind}-shard plan covers {self.axis_size} of "
                f"{expected} on a ({num_classes}, dim={dim}) model"
            )

    def shard_words(self, words: np.ndarray, shard: int) -> np.ndarray:
        """The ``(k_s, W)`` or ``(k, W_s)`` word slice of shard ``shard``."""
        lo, hi = self.bounds[shard]
        return words[lo:hi] if self.kind == "class" else words[:, lo:hi]

    def shard_shape(
        self, num_classes: int, dim: int, shard: int
    ) -> tuple[int, int]:
        """Word-matrix shape of one shard's segment."""
        lo, hi = self.bounds[shard]
        if self.kind == "class":
            return (hi - lo, -(-dim // _WORD))
        return (num_classes, hi - lo)

    def shard_dim(self, dim: int, shard: int) -> int:
        """Logical bit-dimensionality covered by one shard.

        For class shards the full ``dim``; for word shards the bit span
        of the word columns, clipped at ``dim`` so the trailing shard's
        pad bits stay outside the logical range (they are zero on both
        operands either way).
        """
        if self.kind == "class":
            return dim
        lo, hi = self.bounds[shard]
        return min(dim, hi * _WORD) - lo * _WORD

    def shard_queries(self, query_words: np.ndarray, shard: int) -> np.ndarray:
        """The query-word columns shard ``shard`` scans.

        Class shards scan full-width queries; word shards scan only
        their word columns.
        """
        if self.kind == "class":
            return query_words
        lo, hi = self.bounds[shard]
        return query_words[:, lo:hi]

    def reply(self, table: np.ndarray, shard: int) -> np.ndarray:
        """What shard ``shard``'s worker posts for its ``(b, ·)`` table.

        A class shard replies ``(b, 2)`` rows of (best distance, global
        class index): the argmin stays in the worker, and within a shard
        ties go to the lowest class.  A word shard replies its partial
        popcount table as is — no row of it decides anything until every
        shard's columns are summed.
        """
        if self.kind == "word":
            return table
        rows = np.empty((table.shape[0], 2), dtype=np.int64)
        rows[:, 0] = table.min(axis=1)
        rows[:, 1] = np.argmin(table, axis=1) + self.bounds[shard][0]
        return rows

    def combine(self, replies: list[np.ndarray]) -> np.ndarray:
        """Predictions ``(b,)`` int64 from every shard's reply, in shard order.

        Equal to ``argmin`` over the unsharded distance table, first
        index winning ties: word partials are summed first; class
        replies keep the closest row, and a tie keeps the earlier shard,
        whose classes all precede the later one's.
        """
        if self.kind == "word":
            return np.argmin(
                reduce_partial_tables(replies), axis=1
            ).astype(np.int64)
        best = replies[0]
        for rows in replies[1:]:
            best = np.where(rows[:, :1] < best[:, :1], rows, best)
        return np.ascontiguousarray(best[:, 1])


def reduce_partial_tables(tables: list[np.ndarray]) -> np.ndarray:
    """Sum word-shard partial-popcount tables ``(b, k)`` into distances.

    A pairwise reduce tree: log2(S) addition levels, each halving the
    operand count.  Integer addition is associative, so the tree is
    bit-exact regardless of arrival order — and the shape is the one a
    hierarchical substrate (PIM banks, multi-GPU) would execute, where
    each level halves the data crossing the interconnect.
    """
    if not tables:
        raise ValueError("reduce_partial_tables needs at least one table")
    level = list(tables)
    while len(level) > 1:
        nxt = [
            level[i] + level[i + 1] for i in range(0, len(level) - 1, 2)
        ]
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    return level[0]
