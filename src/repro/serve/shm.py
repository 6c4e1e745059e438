"""Shared-memory substrate for the concurrent serving engine.

Three pieces, all built on :mod:`multiprocessing.shared_memory`:

* :class:`ShmArray` — one numpy array in one named segment, with an
  idempotent close/unlink lifecycle (double-close is a no-op) and
  resource-tracker hygiene so *attaching* processes never unlink a
  segment they do not own (a well-known CPython < 3.13 footgun).
* :class:`ControlBlock` — a tiny fixed-layout segment of ``uint64``
  fields guarded by a sequence lock.  The single recovery writer
  publishes the current generation number, model geometry, and its
  heartbeat through it; serving workers read a consistent snapshot
  lock-free between micro-batches.
* :class:`GenerationPublisher` — the single-writer publish side of the
  epoch/snapshot protocol: each :meth:`~GenerationPublisher.publish`
  copies the model's packed words (fresh by the
  ``writable()``/``bump_version`` contract) into new immutable
  segments, one per shard of the engine's
  :class:`~repro.serve.shard.ShardPlan`, named ``{prefix}-g{N}-s{shard}``,
  flips the control block to point at them, and retires generations
  nobody can still be told to adopt.  It
  satisfies the :class:`repro.core.recovery.ModelPublisher` protocol,
  so a :class:`~repro.core.recovery.RobustHDRecovery` can announce
  repairs to live workers directly.

Memory-ordering note: the seqlock uses plain numpy stores.  That is
sound here because every reader observes the control block only *after*
a pipe read (dequeuing work) or retries until the sequence field is
stable, and on the platforms this repo targets (x86-64/TSO, AArch64 via
the kernel's IPC barriers) the paired syscalls on the queue path order
the stores.  The protocol additionally never hands out a generation
name before the segment is fully written, and workers retry an attach
that races a retirement.
"""

from __future__ import annotations

import secrets
import time
from dataclasses import dataclass

import numpy as np
from multiprocessing import resource_tracker, shared_memory

from repro.core.model import HDCModel
from repro.core.packed import PackedModel
from repro.obs.metrics import current as _metrics
from repro.serve.shard import ShardPlan

__all__ = [
    "ControlBlock",
    "GenerationPublisher",
    "ShmArray",
    "attach_generation",
    "tenant_prefix",
    "unique_name",
]


def unique_name(prefix: str = "repro-serve") -> str:
    """A collision-resistant shared-memory name prefix for one engine."""
    return f"{prefix}-{secrets.token_hex(4)}"


def tenant_prefix(prefix: str, index: int) -> str:
    """Per-tenant namespace under one engine's segment prefix.

    A multi-tenant engine gives tenant slot ``i`` its own control block
    (``{prefix}-t{i}-control``), codebook (``{prefix}-t{i}-codebook``)
    and generation stream (``{prefix}-t{i}-g{N}``), all under the
    engine's collision-resistant prefix so one glob still finds every
    segment the engine owns.
    """
    return f"{prefix}-t{index}"


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without resource-tracker ownership.

    On CPython < 3.13 ``SharedMemory(name, create=False)`` registers the
    segment with the process's resource tracker, which then *unlinks* it
    when this process exits — destroying a segment the publisher still
    owns.  3.13 added ``track=False``; older interpreters need the
    registration suppressed.  Suppression (a no-op ``register`` for the
    duration of the constructor) rather than register-then-unregister,
    because forked workers share the parent's tracker process: an
    unregister from a child would evict the *parent's* registration from
    the shared cache, and the parent's own unlink would then hit a
    tracker ``KeyError``.  Either way, attached segments are cleaned up
    only by their creator.
    """
    try:
        return shared_memory.SharedMemory(name=name, create=False, track=False)
    except TypeError:
        pass
    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name, create=False)
    finally:
        resource_tracker.register = original


class ShmArray:
    """A numpy array backed by a named shared-memory segment.

    Created segments copy the source array in; attached segments map the
    existing bytes zero-copy (read-only by default).  :meth:`close` and
    :meth:`unlink` are both idempotent, and :meth:`close` invalidates
    :attr:`array` — callers must not keep views across it.
    """

    def __init__(
        self, shm: shared_memory.SharedMemory, array: np.ndarray, owner: bool
    ) -> None:
        self._shm: shared_memory.SharedMemory | None = shm
        self._array: np.ndarray | None = array
        self._owner = owner
        self._unlinked = False
        self._name = shm.name

    @classmethod
    def create(cls, name: str, array: np.ndarray) -> "ShmArray":
        """Create segment ``name`` holding a copy of ``array``."""
        array = np.ascontiguousarray(array)
        shm = shared_memory.SharedMemory(
            name=name, create=True, size=array.nbytes
        )
        view = np.ndarray(array.shape, dtype=array.dtype, buffer=shm.buf)
        np.copyto(view, array)
        return cls(shm, view, owner=True)

    @classmethod
    def zeros(cls, name: str, shape: tuple, dtype) -> "ShmArray":
        """Create a zero-filled segment (e.g. the request ring)."""
        nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
        shm = shared_memory.SharedMemory(name=name, create=True, size=nbytes)
        view = np.ndarray(shape, dtype=dtype, buffer=shm.buf)
        view[:] = 0
        return cls(shm, view, owner=True)

    @classmethod
    def attach(
        cls, name: str, shape: tuple, dtype, readonly: bool = True
    ) -> "ShmArray":
        """Map an existing segment as an array of the given geometry."""
        shm = _attach_untracked(name)
        view = np.ndarray(shape, dtype=dtype, buffer=shm.buf)
        if readonly:
            view.flags.writeable = False
        return cls(shm, view, owner=False)

    @property
    def name(self) -> str:
        return self._name

    @property
    def array(self) -> np.ndarray:
        if self._array is None:
            raise ValueError("segment is closed")
        return self._array

    @property
    def closed(self) -> bool:
        return self._shm is None

    def close(self) -> None:
        """Unmap the segment.  A second close is a no-op."""
        shm, self._shm = self._shm, None
        self._array = None
        if shm is None:
            return
        try:
            shm.close()
        except BufferError:
            # A caller still holds a view into the mapping; the OS frees
            # it when the last reference dies (worst case process exit).
            # Never fatal — close() must be safe on every teardown path.
            pass

    def unlink(self) -> None:
        """Destroy the segment (creator only).  Idempotent; implies close."""
        if not self._owner or self._unlinked:
            self.close()
            return
        self._unlinked = True
        shm = self._shm
        self.close()
        try:
            if shm is not None:
                shm.unlink()
            else:  # closed earlier; re-attach briefly to unlink by name
                tmp = _attach_untracked(self._name)
                tmp.unlink()
                tmp.close()
        except FileNotFoundError:
            pass


# Control block layout: a seqlock word followed by the published fields.
# All uint64; monotonic nanosecond clocks fit comfortably.
_SEQ = 0
_GENERATION = 1
_MODEL_VERSION = 2
_NUM_CLASSES = 3
_DIM = 4
_PUBLISH_NS = 5
_HEARTBEAT_NS = 6
_WRITER_ACTIVE = 7
_FIELDS = 8


@dataclass(frozen=True)
class ControlSnapshot:
    """One consistent read of the control block."""

    generation: int
    model_version: int
    num_classes: int
    dim: int
    publish_ns: int
    heartbeat_ns: int
    writer_active: bool


class ControlBlock:
    """Seqlock-guarded publication record shared by writer and workers.

    Single writer (the publisher process), many lock-free readers.  The
    writer bumps the sequence word to odd, updates fields, bumps back to
    even; readers retry while the sequence is odd or changes under them.
    """

    def __init__(self, segment: ShmArray) -> None:
        self._segment = segment

    @classmethod
    def create(cls, name: str) -> "ControlBlock":
        return cls(ShmArray.zeros(name, (_FIELDS,), np.uint64))

    @classmethod
    def attach(cls, name: str) -> "ControlBlock":
        return cls(ShmArray.attach(name, (_FIELDS,), np.uint64,
                                   readonly=False))

    @property
    def name(self) -> str:
        return self._segment.name

    def write(self, **fields: int) -> None:
        """Seqlock update of the given fields (writer only)."""
        a = self._segment.array
        a[_SEQ] += np.uint64(1)  # odd: update in progress
        for key, value in fields.items():
            a[_FIELD_INDEX[key]] = np.uint64(int(value))
        a[_SEQ] += np.uint64(1)  # even: consistent

    def read(self) -> ControlSnapshot:
        """A consistent snapshot (readers; retries across writer updates)."""
        a = self._segment.array
        while True:
            s1 = int(a[_SEQ])
            if s1 & 1:
                continue
            snap = a[1:_FIELDS].copy()
            s2 = int(a[_SEQ])
            if s1 == s2:
                break
        return ControlSnapshot(
            generation=int(snap[_GENERATION - 1]),
            model_version=int(snap[_MODEL_VERSION - 1]),
            num_classes=int(snap[_NUM_CLASSES - 1]),
            dim=int(snap[_DIM - 1]),
            publish_ns=int(snap[_PUBLISH_NS - 1]),
            heartbeat_ns=int(snap[_HEARTBEAT_NS - 1]),
            writer_active=bool(snap[_WRITER_ACTIVE - 1]),
        )

    def close(self) -> None:
        self._segment.close()

    def unlink(self) -> None:
        self._segment.unlink()


_FIELD_INDEX = {
    "generation": _GENERATION,
    "model_version": _MODEL_VERSION,
    "num_classes": _NUM_CLASSES,
    "dim": _DIM,
    "publish_ns": _PUBLISH_NS,
    "heartbeat_ns": _HEARTBEAT_NS,
    "writer_active": _WRITER_ACTIVE,
}


def generation_segment(prefix: str, generation: int, shard: int) -> str:
    """Segment name of one shard of generation ``N`` under a prefix.

    Every generation is one segment per shard of the publisher's plan —
    a single ``-s0`` segment under an unsharded engine's one-shard plan.
    """
    return f"{prefix}-g{generation}-s{shard}"


def attach_generation(
    prefix: str,
    snapshot: ControlSnapshot,
    shard_plan: ShardPlan,
    shard: int,
) -> tuple[ShmArray, PackedModel]:
    """Map shard ``shard`` of the generation a control snapshot names.

    Zero-copy.  Returns the segment handle (the caller closes it on the
    next adoption) and a read-only :class:`~repro.core.packed.PackedModel`
    over its words: a class shard's model covers its row range at full
    width, a word shard's covers every class over its word columns (its
    ``dim`` is the shard's bit span — partial distances against it are
    exact partial popcounts).  May raise ``FileNotFoundError`` if the
    generation was retired between the control read and this call —
    callers re-read the control block and retry on the (newer)
    generation it now names.
    """
    shape = shard_plan.shard_shape(snapshot.num_classes, snapshot.dim, shard)
    segment = ShmArray.attach(
        generation_segment(prefix, snapshot.generation, shard),
        shape,
        np.uint64,
    )
    packed = PackedModel.from_buffer(
        segment.array, shape[0], shard_plan.shard_dim(snapshot.dim, shard),
        version=snapshot.model_version,
    )
    return segment, packed


class GenerationPublisher:
    """Single-writer publisher of immutable packed-model generations.

    Satisfies :class:`repro.core.recovery.ModelPublisher`.  Generations
    are numbered from 1, and each is written as one segment per shard of
    ``shard_plan``; ``retire_lag`` controls how many superseded
    generations stay mapped so a reader that just fetched the control
    block can still attach the segment it names (readers also retry via
    a fresh control read if they lose that race).

    :attr:`publish_log` is the one record of every publish: its
    generation, model version, publish time and trace id.
    ``trace_source`` is the trace-correlation hook: a zero-argument
    callable returning the latest serve ``trace_id`` assigned so far
    (the engine wires its submit counter in).  Each publish is stamped
    with that id — every request submitted with a later trace id is
    served on this generation or newer, which is what lets
    :func:`repro.obs.telemetry.correlate` join slow batches to the
    repair generation published under them.
    """

    def __init__(
        self,
        prefix: str,
        control: ControlBlock,
        shard_plan: ShardPlan,
        retire_lag: int = 2,
        trace_source: "callable | None" = None,
    ) -> None:
        if retire_lag < 1:
            raise ValueError(f"retire_lag must be >= 1, got {retire_lag}")
        self.prefix = prefix
        self.control = control
        self.retire_lag = retire_lag
        self.generation = 0
        self.trace_source = trace_source
        self.shard_plan = shard_plan
        self.publish_log: list[dict] = []
        self._segments: dict[int, list[ShmArray]] = {}

    def publish(self, model: HDCModel) -> int:
        """Snapshot ``model.packed()`` as the next generation."""
        return self.publish_packed(model.packed())

    def publish_packed(self, packed: PackedModel) -> int:
        generation = self.generation + 1
        plan = self.shard_plan
        plan.validate(packed.num_classes, packed.dim)
        # One immutable segment per shard, all fully written before the
        # control flip below — a generation is visible only as a complete
        # set, so no worker can combine across generations by attaching
        # early.
        segments = [
            ShmArray.create(
                generation_segment(self.prefix, generation, shard),
                plan.shard_words(packed.words, shard),
            )
            for shard in range(plan.num_shards)
        ]
        now = time.monotonic_ns()
        # Segment contents are complete before the control block names
        # the generation — readers can never map a half-written model.
        self.control.write(
            generation=generation,
            model_version=packed.version,
            num_classes=packed.num_classes,
            dim=packed.dim,
            publish_ns=now,
            heartbeat_ns=now,
            writer_active=1,
        )
        self._segments[generation] = segments
        self.generation = generation
        self.publish_log.append({
            "generation": generation,
            "model_version": packed.version,
            "trace_id": (
                int(self.trace_source())
                if self.trace_source is not None
                else None
            ),
            "publish_ns": now,
        })
        retired = generation - self.retire_lag
        for old in self._segments.pop(retired, ()):
            old.unlink()
        metrics = _metrics()
        if metrics.enabled:
            metrics.inc("serve.generations_published")
            metrics.gauge("serve.generation", generation)
        return generation

    def touch(self) -> None:
        """Heartbeat: writer alive, nothing new to publish."""
        self.control.write(
            heartbeat_ns=time.monotonic_ns(), writer_active=1
        )

    def end_writing(self) -> None:
        """Deregister the writer: staleness no longer implies a stall."""
        self.control.write(writer_active=0)

    def close(self) -> None:
        """Unlink every live generation segment.  Idempotent."""
        for segments in self._segments.values():
            for segment in segments:
                segment.unlink()
        self._segments.clear()
