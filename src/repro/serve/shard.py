"""Model sharding for the concurrent serving engine.

A :class:`ShardPlan` splits a packed model's ``(k, W)`` word matrix into
shards along its class axis, and owns the rule that turns the shards'
answers back into predictions (:meth:`ShardPlan.reply` in the worker,
:meth:`ShardPlan.combine` in the engine).

Shard ``s`` holds a contiguous *row* range of class hypervectors
``(k_s, W)``.  A worker attached to it computes a distance table against
*its* classes only and replies, per query row, its best distance and
that class's global index; the engine keeps the closest reply per row,
earlier shards winning ties, so the unsharded first-index tie behaviour
holds.  This is the LogHD-style partitioning: the class axis is the
natural split, and each worker's scan shrinks to ``1/S`` of the model.
An unsharded engine serves every tenant through the one-shard plan
``by_class(k, 1)``.

Plans are plain frozen data (picklable into
:class:`~repro.serve.engine.ServeConfig`), and the split geometry is
static for an engine's lifetime: generations change the model *bytes*,
never the shard *shape*.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ShardPlan"]


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
    bounds:
        One half-open ``(lo, hi)`` class-row range per shard, contiguous
        and covering every class.
    """

    bounds: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
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
        return cls(bounds=_split_ranges(num_classes, num_shards))

    @property
    def num_shards(self) -> int:
        return len(self.bounds)

    @property
    def axis_size(self) -> int:
        """Total number of classes the plan covers."""
        return self.bounds[-1][1]

    def validate(self, num_classes: int, dim: int) -> None:
        """Check the plan covers this model geometry exactly."""
        if self.axis_size != num_classes:
            raise ValueError(
                f"class-shard plan covers {self.axis_size} of "
                f"{num_classes} on a ({num_classes}, dim={dim}) model"
            )

    def shard_words(self, words: np.ndarray, shard: int) -> np.ndarray:
        """The ``(k_s, W)`` word rows of shard ``shard``."""
        lo, hi = self.bounds[shard]
        return words[lo:hi]

    def shard_shape(self, dim: int, shard: int) -> tuple[int, int]:
        """Word-matrix shape of one shard's segment of a ``dim``-bit model."""
        lo, hi = self.bounds[shard]
        return (hi - lo, -(-dim // 64))

    def reply(self, table: np.ndarray, shard: int) -> np.ndarray:
        """What shard ``shard``'s worker posts for its ``(b, k_s)`` table.

        ``(b, 2)`` rows of (best distance, global class index): the
        argmin stays in the worker, and within a shard ties go to the
        lowest class.
        """
        rows = np.empty((table.shape[0], 2), dtype=np.int64)
        rows[:, 0] = table.min(axis=1)
        rows[:, 1] = np.argmin(table, axis=1) + self.bounds[shard][0]
        return rows

    def combine(self, replies: list[np.ndarray]) -> np.ndarray:
        """Predictions ``(b,)`` int64 from every shard's reply, in shard order.

        Equal to ``argmin`` over the unsharded distance table, first
        index winning ties: the closest row wins, and a tie keeps the
        earlier shard, whose classes all precede the later one's.
        """
        best = replies[0]
        for rows in replies[1:]:
            best = np.where(rows[:, :1] < best[:, :1], rows, best)
        return np.ascontiguousarray(best[:, 1])
