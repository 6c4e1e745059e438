"""Cross-process telemetry: shared-memory slabs, correlation, flight recorder.

The in-process :class:`~repro.obs.metrics.MetricsRegistry` cannot see
what :mod:`repro.serve` workers do — they are separate processes.  This
module closes that gap with three pieces, all built on one fixed-layout
*telemetry slab* per worker (a small ``uint64`` array the engine places
in shared memory):

* **Slab stats** — a seqlock-stamped section of counters plus
  log2-bucketed histograms that the worker updates lock-free once per
  coalesced batch (:class:`TelemetryWriter`), and the engine-side
  :class:`TelemetryAggregator` scrapes and merges into the installed
  :class:`~repro.obs.metrics.MetricsRegistry` — fleet-wide
  ``serve.fleet.*`` counters and true cross-worker latency percentiles.
* **Flight recorder** — a bounded ring of recent structured events
  (batch start/end, generation adoption, deadline miss, stale serve)
  inside the same slab.  The slab is owned by the *engine*, so the ring
  survives a worker SIGKILL; :meth:`FlightRecorder.postmortem` decodes
  a dead worker's last moments after the crash.
* **Trace correlation** — :func:`correlate` joins a
  :class:`~repro.obs.trace.ServeTrace` against the publish
  announcements of a recovery writer (each stamped with the latest
  serve ``trace_id`` at publish time) into a per-generation contention
  table: which batches were slow while which repair generation was
  being published underneath them.

Everything here is *buffer-agnostic*: the layout, writer, reader,
aggregator and recorder operate on any ``uint64`` numpy array, so the
unit tests run on plain in-process arrays while :mod:`repro.serve`
wires the same code to :class:`~repro.serve.shm.ShmArray` segments.
Recording touches no RNG and sits at batch granularity — telemetry on
vs off is bit-identical for every seeded run (pinned by
``tests/serve/test_fleet_telemetry.py``), with overhead gated by
``benchmarks/bench_obs.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.obs.metrics import MetricsRegistry
from repro.obs.metrics import current as _current_metrics

__all__ = [
    "EVENT_NAMES",
    "EV_ADOPT",
    "EV_BATCH_END",
    "EV_BATCH_START",
    "EV_DEADLINE_MISS",
    "EV_STALE_SERVE",
    "FlightEvent",
    "FlightRecorder",
    "SlabSnapshot",
    "TelemetryAggregator",
    "TelemetrySlabReader",
    "TelemetryWriter",
    "bucket_index",
    "bucket_percentile",
    "correlate",
    "render_contention_table",
    "slab_words",
]

TELEMETRY_SCHEMA = 2

# ---------------------------------------------------------------------------
# Slab layout (all uint64 words)
#
#   [0]                 seqlock sequence word for the stats section
#   [1..7]              header: schema, worker_id, pid, started_ns,
#                       last_batch_ns, shard+1 (0 = none recorded),
#                       (1 reserved)
#   [counters]          one word per COUNTER_FIELDS entry
#   [histograms]        per HIST_FIELDS entry: count, sum, min, max,
#                       then HIST_BINS log2 bins (bin b>=1 holds values
#                       v with v.bit_length() == b, i.e. 2^(b-1) <= v <
#                       2^b; bin 0 holds v == 0)
#   [flight ring]       head word, then FLIGHT_SLOT words per record:
#                       kind, t_ns, arg0..arg3.  The head word is the
#                       commit: a record is visible once head covers it,
#                       so a SIGKILL mid-write loses at most the record
#                       being written.
# ---------------------------------------------------------------------------

_SEQ = 0
_SCHEMA = 1
_WORKER_ID = 2
_PID = 3
_STARTED_NS = 4
_LAST_BATCH_NS = 5
# Shard id biased by one so an all-zero slab decodes as shard -1.
_SHARD_PLUS_1 = 6
_HEADER_WORDS = 8

COUNTER_FIELDS = (
    "batches",
    "requests",
    "queries",
    "expired",
    "adoptions",
    "degraded_batches",
)
_COUNTERS_OFF = _HEADER_WORDS

HIST_BINS = 64
_HIST_COUNT = 0
_HIST_SUM = 1
_HIST_MIN = 2
_HIST_MAX = 3
_HIST_HEADER = 4
_HIST_WORDS = _HIST_HEADER + HIST_BINS
HIST_FIELDS = ("batch_duration_ns", "batch_queries", "dispatch_wait_ns")
_HISTS_OFF = _COUNTERS_OFF + len(COUNTER_FIELDS)

_STATS_WORDS = _HISTS_OFF + len(HIST_FIELDS) * _HIST_WORDS
_RING_HEAD = _STATS_WORDS
EVENT_WORDS = 6

_U64_MAX = np.uint64(0xFFFFFFFFFFFFFFFF)

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
    return _STATS_WORDS + 1 + flight_slots * EVENT_WORDS


def _flight_slots(array: np.ndarray) -> int:
    slots, rem = divmod(array.shape[0] - _STATS_WORDS - 1, EVENT_WORDS)
    if array.ndim != 1 or slots < 1 or rem:
        raise ValueError(
            f"array of {array.shape} words is not a telemetry slab"
        )
    return slots


def bucket_index(value: int) -> int:
    """Log2 histogram bin of a non-negative integer value."""
    return min(HIST_BINS - 1, int(value).bit_length())


def bucket_value(bin_idx: int) -> float:
    """Representative value for a bin (geometric midpoint of its range)."""
    if bin_idx <= 0:
        return 0.0
    return float(2.0 ** (bin_idx - 0.5))


def bucket_percentile(bins: np.ndarray, q: float) -> float:
    """Approximate ``q``-th percentile of a log2-binned distribution.

    Nearest-rank semantics: the representative value of the bucket
    holding the ``ceil(q/100 * n)``-th smallest sample, so small-count
    tails (p99 of three samples) resolve to the max bucket rather than
    being pulled toward the median.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    counts = np.asarray(bins, dtype=np.int64)
    total = int(counts.sum())
    if total <= 0:
        return 0.0
    rank = max(1, int(np.ceil(q / 100.0 * total)))
    cumulative = 0
    for idx, count in enumerate(counts):
        cumulative += int(count)
        if cumulative >= rank:
            return bucket_value(idx)
    return bucket_value(len(counts) - 1)


class TelemetryWriter:
    """Worker-side lock-free writer over one telemetry slab.

    The single writer of its slab.  Stats updates (:meth:`record_batch`)
    are seqlock-stamped exactly like
    :class:`~repro.serve.shm.ControlBlock` writes — sequence to odd,
    update, sequence to even — so the engine-side scrape always merges a
    consistent snapshot.  Flight events commit through the ring head
    word, independent of the seqlock, so they can be recorded mid-batch.
    """

    def __init__(
        self, array: np.ndarray, worker_id: int, *,
        pid: int = 0, started_ns: int = 0,
    ) -> None:
        if array.dtype != np.uint64:
            raise ValueError(f"slab must be uint64, got {array.dtype}")
        # Every write goes through a memoryview of the slab: its items
        # are plain Python ints, which index and add several times
        # faster than numpy scalars on this once-per-batch path.
        self._w = memoryview(array)
        self._slots = _flight_slots(array)
        w = self._w
        w[_SCHEMA] = TELEMETRY_SCHEMA
        w[_WORKER_ID] = worker_id
        w[_PID] = pid
        w[_STARTED_NS] = started_ns
        for h in range(len(HIST_FIELDS)):
            w[_HISTS_OFF + h * _HIST_WORDS + _HIST_MIN] = _U64_MAX

    def _observe(self, hist_index: int, value: int) -> None:
        w = self._w
        base = _HISTS_OFF + hist_index * _HIST_WORDS
        v = max(0, int(value))
        w[base + _HIST_COUNT] += 1
        w[base + _HIST_SUM] += v
        if v < w[base + _HIST_MIN]:
            w[base + _HIST_MIN] = v
        if v > w[base + _HIST_MAX]:
            w[base + _HIST_MAX] = v
        w[base + _HIST_HEADER + bucket_index(v)] += 1

    def set_shard(self, shard: int) -> None:
        """Stamp the shard this worker serves (0 under a one-shard plan)."""
        self._w[_SHARD_PLUS_1] = shard + 1

    def record_batch(
        self,
        *,
        requests: int,
        queries: int,
        expired: int,
        duration_ns: int,
        adopted: bool,
        degraded: bool,
        now_ns: int,
        wait_ns: int = 0,
    ) -> None:
        """One seqlock-stamped stats update per coalesced worker batch."""
        w = self._w
        w[_SEQ] += 1  # odd: update in progress
        w[_LAST_BATCH_NS] = now_ns
        off = _COUNTERS_OFF
        w[off + 0] += 1
        w[off + 1] += requests
        w[off + 2] += queries
        w[off + 3] += expired
        if adopted:
            w[off + 4] += 1
        if degraded:
            w[off + 5] += 1
        self._observe(0, duration_ns)
        self._observe(1, queries)
        self._observe(2, wait_ns)
        w[_SEQ] += 1  # even: consistent

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
class SlabSnapshot:
    """One consistent scrape of a worker slab's stats section."""

    worker_id: int
    pid: int
    started_ns: int
    last_batch_ns: int
    counters: dict[str, int]
    histograms: dict[str, dict]
    torn: bool = False
    shard: int = -1

    def histogram_bins(self, name: str) -> np.ndarray:
        return np.asarray(self.histograms[name]["bins"], dtype=np.int64)


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


def _decode_stats(words: np.ndarray, torn: bool) -> SlabSnapshot:
    counters = {
        name: int(words[_COUNTERS_OFF + i])
        for i, name in enumerate(COUNTER_FIELDS)
    }
    histograms = {}
    for h, name in enumerate(HIST_FIELDS):
        base = _HISTS_OFF + h * _HIST_WORDS
        count = int(words[base + _HIST_COUNT])
        raw_min = words[base + _HIST_MIN]
        histograms[name] = {
            "count": count,
            "sum": int(words[base + _HIST_SUM]),
            "min": (
                None if count == 0 or raw_min == _U64_MAX else int(raw_min)
            ),
            "max": int(words[base + _HIST_MAX]) if count else None,
            "bins": words[base + _HIST_HEADER:base + _HIST_WORDS]
            .astype(np.int64),
        }
    return SlabSnapshot(
        worker_id=int(words[_WORKER_ID]),
        pid=int(words[_PID]),
        started_ns=int(words[_STARTED_NS]),
        last_batch_ns=int(words[_LAST_BATCH_NS]),
        counters=counters,
        histograms=histograms,
        torn=torn,
        shard=int(words[_SHARD_PLUS_1]) - 1,
    )


class TelemetrySlabReader:
    """Engine-side reader of one worker's telemetry slab."""

    def __init__(self, array: np.ndarray) -> None:
        self._a = array
        self._slots = _flight_slots(array)

    def freeze(self) -> None:
        """Swap the live buffer for a private copy of its current state.

        Owners call this before unlinking the shared segment so
        post-stop reads (late scrapes, post-mortems) stay valid on the
        final slab contents instead of touching unmapped memory.
        """
        self._a = self._a.copy()

    def scrape(self, max_retries: int = 1000) -> SlabSnapshot:
        """A seqlock-consistent snapshot of the stats section.

        A worker SIGKILLed mid-update leaves the sequence word odd
        forever; after ``max_retries`` the scrape falls through to a
        direct copy flagged ``torn`` so post-mortem reads never hang.
        """
        a = self._a
        for _ in range(max_retries):
            s1 = int(a[_SEQ])
            if s1 & 1:
                continue
            words = a[:_STATS_WORDS].copy()
            if int(a[_SEQ]) == s1:
                return _decode_stats(words, torn=False)
        return _decode_stats(a[:_STATS_WORDS].copy(), torn=True)

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


class TelemetryAggregator:
    """Scrape every worker slab and merge into a ``MetricsRegistry``.

    Counters are merged as *deltas* since the previous scrape, so
    repeated :meth:`scrape_into` calls keep the registry's
    ``serve.fleet.*`` counters exact rather than double-counting;
    latency percentiles are recomputed from the summed log2 bins each
    time — true cross-worker percentiles, not an average of per-worker
    ones.
    """

    def __init__(self, readers: Mapping[int, TelemetrySlabReader]) -> None:
        self._readers = dict(readers)
        self._scraped: dict[str, int] = {}

    def freeze(self) -> None:
        """Freeze every reader (see :meth:`TelemetrySlabReader.freeze`)."""
        for reader in self._readers.values():
            reader.freeze()

    def scrape(self) -> dict:
        """Merged fleet snapshot: counters summed, histogram bins summed."""
        counters = {name: 0 for name in COUNTER_FIELDS}
        hists = {
            name: {"count": 0, "sum": 0, "min": None, "max": None,
                   "bins": np.zeros(HIST_BINS, dtype=np.int64)}
            for name in HIST_FIELDS
        }
        workers = {}
        for worker_id, reader in self._readers.items():
            snap = reader.scrape()
            workers[worker_id] = snap
            for name in COUNTER_FIELDS:
                counters[name] += snap.counters[name]
            for name in HIST_FIELDS:
                src = snap.histograms[name]
                dst = hists[name]
                dst["count"] += src["count"]
                dst["sum"] += src["sum"]
                dst["bins"] += snap.histogram_bins(name)
                for key, pick in (("min", min), ("max", max)):
                    if src[key] is not None:
                        dst[key] = (
                            src[key] if dst[key] is None
                            else pick(dst[key], src[key])
                        )
        return {"counters": counters, "histograms": hists,
                "workers": workers}

    def percentiles(
        self, name: str, qs: Sequence[float] = (50.0, 95.0, 99.0)
    ) -> dict[float, float]:
        """Cross-worker percentiles of one slab histogram (raw units)."""
        bins = self.scrape()["histograms"][name]["bins"]
        return {q: bucket_percentile(bins, q) for q in qs}

    def scrape_into(self, registry: MetricsRegistry | None = None) -> dict:
        """Merge the fleet state into ``registry`` (default: installed).

        Counter deltas land on ``serve.fleet.<name>``; cross-worker batch
        latency percentiles on ``serve.fleet.batch_duration_p{50,95,99}``
        gauges (seconds).  Returns the merged snapshot.
        """
        if registry is None:
            registry = _current_metrics()
        merged = self.scrape()
        for name, value in merged["counters"].items():
            key = f"serve.fleet.{name}"
            delta = value - self._scraped.get(key, 0)
            self._scraped[key] = value
            if delta:
                registry.inc(key, delta)
        duration = merged["histograms"]["batch_duration_ns"]
        for q in (50, 95, 99):
            registry.gauge(
                f"serve.fleet.batch_duration_p{q}",
                bucket_percentile(duration["bins"], q) / 1e9,
            )
        registry.gauge(
            "serve.fleet.workers_reporting",
            sum(1 for snap in merged["workers"].values()
                if snap.counters["batches"]),
        )
        # Per-shard rollups: batches/queries per shard (shard 0 alone
        # under a one-shard plan), delta-merged like the fleet counters —
        # the load signal the engine's shard dispatcher balances on.
        shards: dict[int, dict[str, int]] = {}
        for snap in merged["workers"].values():
            if snap.shard < 0:
                continue
            agg = shards.setdefault(snap.shard, {"batches": 0, "queries": 0})
            agg["batches"] += snap.counters["batches"]
            agg["queries"] += snap.counters["queries"]
        for shard in sorted(shards):
            for name, value in shards[shard].items():
                key = f"serve.fleet.shard{shard}.{name}"
                delta = value - self._scraped.get(key, 0)
                self._scraped[key] = value
                if delta:
                    registry.inc(key, delta)
        return merged


class FlightRecorder:
    """Post-mortem decoder over the per-worker flight rings.

    The rings live in engine-owned shared memory, so they outlive the
    workers that wrote them: after a crash (even SIGKILL mid-batch) the
    engine can replay a dead worker's last recorded moments.
    """

    def __init__(self, readers: Mapping[int, TelemetrySlabReader]) -> None:
        self._readers = dict(readers)

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
