"""Cross-process telemetry: the crash flight recorder and correlation.

Every served batch reaches the engine process as one message, which the
engine records once: a :class:`~repro.obs.trace.ServeBatchEvent` in
``engine.trace`` and the ``serve.*`` metrics.  What that message cannot
carry is a worker's last moments before it dies, and this module holds
the two pieces that cover the rest:

* **Flight recorder** — a bounded ring of recent structured events
  (batch start/end, generation adoption, deadline miss, stale serve)
  in one fixed-layout *telemetry slab* per worker (a small ``uint64``
  array the engine places in shared memory).  The slab is owned by the
  *engine*, so the ring survives a worker SIGKILL;
  :meth:`FlightRecorder.postmortem` decodes a dead worker's last
  moments after the crash.
* **Trace correlation** — :func:`correlate` joins a
  :class:`~repro.obs.trace.ServeTrace` against the publish
  announcements of a recovery writer (each stamped with the latest
  serve ``trace_id`` at publish time) into a per-generation contention
  table: which batches were slow while which repair generation was
  being published underneath them.

The slab code is *buffer-agnostic*: the layout, writer, reader and
recorder operate on any ``uint64`` numpy array, so the unit tests run
on plain in-process arrays while :mod:`repro.serve` wires the same code
to :class:`~repro.serve.shm.ShmArray` segments.  Recording touches no
RNG and sits at batch granularity — telemetry on vs off is
bit-identical for every seeded run (pinned by
``tests/serve/test_fleet_telemetry.py``), with overhead gated by
``benchmarks/bench_obs.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

__all__ = [
    "EVENT_NAMES",
    "EV_ADOPT",
    "EV_BATCH_END",
    "EV_BATCH_START",
    "EV_DEADLINE_MISS",
    "EV_STALE_SERVE",
    "FlightEvent",
    "FlightRecorder",
    "TelemetrySlabReader",
    "TelemetryWriter",
    "correlate",
    "render_contention_table",
    "slab_words",
]

TELEMETRY_SCHEMA = 3

# Events each serving worker's ring retains.
FLIGHT_SLOTS = 256

# ---------------------------------------------------------------------------
# Slab layout (all uint64 words)
#
#   [0..1]          header: schema, worker_id
#   [2]             ring head: the count of records ever written.  It is
#                   the commit: a record is visible once head covers it,
#                   so a SIGKILL mid-write loses at most the record
#                   being written.
#   [3..]           the flight ring, EVENT_WORDS words per record:
#                   kind, t_ns, arg0..arg3
# ---------------------------------------------------------------------------

_SCHEMA = 0
_WORKER_ID = 1
_RING_HEAD = 2
EVENT_WORDS = 6

# Flight-recorder event kinds.
EV_BATCH_START = 1
EV_BATCH_END = 2
EV_ADOPT = 3
EV_DEADLINE_MISS = 4
EV_STALE_SERVE = 5

EVENT_NAMES = {
    EV_BATCH_START: "batch_start",
    EV_BATCH_END: "batch_end",
    EV_ADOPT: "generation_adopt",
    EV_DEADLINE_MISS: "deadline_miss",
    EV_STALE_SERVE: "stale_serve",
}


def slab_words(flight_slots: int) -> int:
    """Total uint64 words of one telemetry slab."""
    if flight_slots < 1:
        raise ValueError(f"flight_slots must be >= 1, got {flight_slots}")
    return _RING_HEAD + 1 + flight_slots * EVENT_WORDS


def _flight_slots(array: np.ndarray) -> int:
    slots, rem = divmod(array.shape[0] - _RING_HEAD - 1, EVENT_WORDS)
    if array.ndim != 1 or slots < 1 or rem:
        raise ValueError(
            f"array of {array.shape} words is not a telemetry slab"
        )
    return slots


class TelemetryWriter:
    """Worker-side lock-free writer over one telemetry slab.

    The single writer of its slab.  Each event commits through the ring
    head word, so a reader never decodes a record before it is whole,
    and events can be recorded mid-batch.
    """

    def __init__(self, array: np.ndarray, worker_id: int) -> None:
        if array.dtype != np.uint64:
            raise ValueError(f"slab must be uint64, got {array.dtype}")
        # Every write goes through a memoryview of the slab: its items
        # are plain Python ints, which index and add several times
        # faster than numpy scalars on this once-per-batch path.
        self._w = memoryview(array)
        self._slots = _flight_slots(array)
        self._w[_SCHEMA] = TELEMETRY_SCHEMA
        self._w[_WORKER_ID] = worker_id

    def record_event(
        self, kind: int, t_ns: int,
        a0: int = 0, a1: int = 0, a2: int = 0, a3: int = 0,
    ) -> None:
        """Append one structured event to the flight-recorder ring."""
        w = self._w
        head = w[_RING_HEAD]
        base = _RING_HEAD + 1 + (head % self._slots) * EVENT_WORDS
        w[base + 0] = kind
        w[base + 1] = max(0, int(t_ns))
        w[base + 2] = max(0, int(a0))
        w[base + 3] = max(0, int(a1))
        w[base + 4] = max(0, int(a2))
        w[base + 5] = max(0, int(a3))
        w[_RING_HEAD] = head + 1  # commit


@dataclass(frozen=True)
class FlightEvent:
    """One decoded flight-recorder record."""

    worker_id: int
    sequence: int
    kind: int
    name: str
    t_ns: int
    args: tuple[int, ...]

    def to_dict(self) -> dict:
        return {
            "worker_id": self.worker_id,
            "sequence": self.sequence,
            "kind": self.kind,
            "name": self.name,
            "t_ns": self.t_ns,
            "args": list(self.args),
        }


class TelemetrySlabReader:
    """Engine-side reader of one worker's telemetry slab."""

    def __init__(self, array: np.ndarray) -> None:
        self._a = array
        self._slots = _flight_slots(array)

    def freeze(self) -> None:
        """Swap the live buffer for a private copy of its current state.

        Owners call this before unlinking the shared segment so
        post-stop post-mortems stay valid on the final slab contents
        instead of touching unmapped memory.
        """
        self._a = self._a.copy()

    def events(self) -> list[FlightEvent]:
        """Decode the flight ring, oldest first.

        Reads raw words with no lock — for a live worker the last record
        may be mid-write, for a dead one the ring is frozen; either way
        the head word bounds what is decoded.
        """
        a = self._a
        head = int(a[_RING_HEAD])
        count = min(head, self._slots)
        worker_id = int(a[_WORKER_ID])
        out = []
        for seq in range(head - count, head):
            base = _RING_HEAD + 1 + (seq % self._slots) * EVENT_WORDS
            kind = int(a[base])
            out.append(FlightEvent(
                worker_id=worker_id,
                sequence=seq,
                kind=kind,
                name=EVENT_NAMES.get(kind, f"unknown_{kind}"),
                t_ns=int(a[base + 1]),
                args=tuple(int(a[base + 2 + i]) for i in range(4)),
            ))
        return out


class FlightRecorder:
    """Post-mortem decoder over the per-worker flight rings.

    The rings live in engine-owned shared memory, so they outlive the
    workers that wrote them: after a crash (even SIGKILL mid-batch) the
    engine can replay a dead worker's last recorded moments.
    """

    def __init__(self, readers: Mapping[int, TelemetrySlabReader]) -> None:
        self._readers = dict(readers)

    def freeze(self) -> None:
        """Move every ring onto a private copy of its current contents.

        The owner calls this before it unlinks the slabs, so
        post-mortems read after a stop decode the final rings.
        """
        for reader in self._readers.values():
            reader.freeze()

    def postmortem(self, worker_id: int) -> list[FlightEvent]:
        """The retained events of one worker, oldest first."""
        reader = self._readers.get(worker_id)
        if reader is None:
            raise KeyError(f"no telemetry slab for worker {worker_id}")
        return reader.events()

    def all_events(self) -> list[FlightEvent]:
        """Every retained event across workers, in timestamp order."""
        out: list[FlightEvent] = []
        for reader in self._readers.values():
            out.extend(reader.events())
        out.sort(key=lambda e: (e.t_ns, e.worker_id, e.sequence))
        return out

    def render(self, worker_id: int) -> str:
        """One worker's ring as a fixed-width table."""
        # Deferred: repro.analysis pulls in repro.core, which imports
        # repro.obs for its instrumentation hooks.
        from repro.analysis.tables import render_table

        events = self.postmortem(worker_id)
        if not events:
            return f"(no flight events recorded for worker {worker_id})"
        t0 = events[0].t_ns
        rows = [
            [e.sequence, e.name, f"{(e.t_ns - t0) / 1e6:.3f}",
             *(str(a) for a in e.args)]
            for e in events
        ]
        return render_table(
            ["seq", "event", "t+ms", "arg0", "arg1", "arg2", "arg3"],
            rows,
            title=f"Flight recorder: worker {worker_id}",
        )


# ---------------------------------------------------------------------------
# Trace correlation
# ---------------------------------------------------------------------------


def _publish_entries(source) -> list[dict]:
    """Publish announcements from a log list or a publisher."""
    if source is None:
        return []
    log = getattr(source, "publish_log", source)
    return [dict(entry) for entry in log]


def correlate(serve_trace: Iterable, recovery_source=None) -> list[dict]:
    """Join serve batches against recovery publishes, per generation.

    ``serve_trace`` is a :class:`~repro.obs.trace.ServeTrace` (or any
    iterable of :class:`~repro.obs.trace.ServeBatchEvent`);
    ``recovery_source`` is a publish log — a list of announcement dicts,
    or any object with a ``publish_log`` attribute.  The
    :class:`~repro.serve.shm.GenerationPublisher`'s log is the one
    record of each publish.

    Returns one row per model generation that served traffic: how many
    batches/queries ran under it, their latency profile, degraded and
    expired counts, the serve ``trace_id`` span observed, and — when the
    publish log knows the generation — the trace id the publish was
    stamped with (``published_after_trace``: every request submitted
    later was served on this generation or newer).  This is the
    recovery-vs-traffic contention table: a slow query joins to the
    generation, and hence the recovery pass, being published under it.
    """
    publishes = {
        int(entry["generation"]): entry
        for entry in _publish_entries(recovery_source)
        if "generation" in entry
    }
    phases: dict[int, dict] = {}
    for event in serve_trace:
        phase = phases.setdefault(event.generation, {
            "batches": 0, "requests": 0, "queries": 0, "expired": 0,
            "degraded_batches": 0, "adoptions": 0,
            "durations": [], "trace_ids": [],
        })
        phase["batches"] += 1
        phase["requests"] += event.requests
        phase["queries"] += event.queries
        phase["expired"] += event.expired
        phase["degraded_batches"] += int(event.degraded)
        phase["adoptions"] += int(event.adopted)
        phase["durations"].append(event.duration_s)
        if event.trace_id >= 0:
            phase["trace_ids"].append(event.trace_id)
    rows = []
    for generation in sorted(phases):
        phase = phases[generation]
        durations = np.asarray(phase["durations"], dtype=np.float64)
        publish = publishes.get(generation, {})
        trace_ids = phase["trace_ids"]
        rows.append({
            "generation": generation,
            "published_after_trace": publish.get("trace_id"),
            "model_version": publish.get("model_version"),
            "batches": phase["batches"],
            "requests": phase["requests"],
            "queries": phase["queries"],
            "expired": phase["expired"],
            "degraded_batches": phase["degraded_batches"],
            "adoptions": phase["adoptions"],
            "mean_batch_s": float(durations.mean()),
            "p95_batch_s": float(np.percentile(durations, 95)),
            "max_batch_s": float(durations.max()),
            "trace_id_min": min(trace_ids) if trace_ids else None,
            "trace_id_max": max(trace_ids) if trace_ids else None,
        })
    return rows


def render_contention_table(rows: list[dict]) -> str:
    """Render :func:`correlate` output as a fixed-width table."""
    # Deferred import, same cycle-avoidance as FlightRecorder.render.
    from repro.analysis.tables import render_table

    if not rows:
        return "(no serve batches to correlate)"

    def opt(value) -> str:
        return "" if value is None else str(value)

    table_rows = [
        [row["generation"], opt(row["published_after_trace"]),
         row["batches"], row["queries"],
         f"{row['mean_batch_s'] * 1e3:.3f}",
         f"{row['p95_batch_s'] * 1e3:.3f}",
         f"{row['max_batch_s'] * 1e3:.3f}",
         row["degraded_batches"] or "", row["expired"] or ""]
        for row in rows
    ]
    return render_table(
        ["gen", "after trace", "batches", "queries", "mean ms", "p95 ms",
         "max ms", "degraded", "expired"],
        table_rows,
        title="Recovery-vs-traffic contention",
    )
