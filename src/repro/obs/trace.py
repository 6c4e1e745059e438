"""Structured recovery tracing: one event per processed recovery block.

End-to-end accuracy says *whether* a recovery run worked;
:class:`RecoveryTrace` records *why*.  Every call into the batched
recovery engine (:func:`repro.core.recovery.recover_block`) appends one
:class:`RecoveryBlockEvent` capturing the confidence distribution the
gate saw, how many queries were trusted (and for which classes), the
per-class chunk votes of the noisy-chunk detector, how many bits the
probabilistic substitution actually flipped back per chunk, and the
model version before/after — enough to reconstruct the full
:class:`~repro.core.recovery.RecoveryStats` and to join against the
injected :class:`~repro.faults.api.FaultMask` for the ground-truth
scorecard (:mod:`repro.obs.scorecard`).

Events are plain data: JSONL in, JSONL out, with exact float round-trip
(``json`` serialises Python floats via ``repr``).  Recording never draws
from any RNG, so traced and untraced runs are bit-identical.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import ClassVar, Generic, Iterator, Sequence, TypeVar

import numpy as np

__all__ = [
    "CampaignEvent",
    "CampaignTrace",
    "EventLog",
    "RecoveryBlockEvent",
    "RecoveryTrace",
    "ServeBatchEvent",
    "ServeTrace",
]

E = TypeVar("E")


@dataclass
class EventLog(Generic[E]):
    """An append-only log of plain-data events with exact JSONL round-trip.

    The one container behind :class:`RecoveryTrace`, :class:`ServeTrace`
    and :class:`CampaignTrace`: each subclass names its event type in
    :attr:`event_type` (decoded through its ``from_dict``) and adds only
    its aggregates and ``summary_table``.
    """

    event_type: ClassVar[type]

    events: list[E] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[E]:
        return iter(self.events)

    @property
    def last(self) -> E | None:
        return self.events[-1] if self.events else None

    def record(self, event: E) -> None:
        self.events.append(event)

    def next_index(self) -> int:
        """0-based position the next recorded event will take."""
        return len(self.events)

    def to_jsonl(self) -> str:
        """One compact JSON object per line, one line per event."""
        return "\n".join(
            json.dumps(e.to_dict(), separators=(",", ":"))
            for e in self.events
        )

    def write_jsonl(self, path: str | Path) -> Path:
        path = Path(path)
        text = self.to_jsonl()
        path.write_text(text + "\n" if text else "")
        return path

    @classmethod
    def from_jsonl(cls, text: str):
        return cls(events=[
            cls.event_type.from_dict(json.loads(line))
            for line in text.splitlines()
            if line.strip()
        ])

    @classmethod
    def read_jsonl(cls, path: str | Path):
        return cls.from_jsonl(Path(path).read_text())


@dataclass(frozen=True)
class RecoveryBlockEvent:
    """Everything the recovery engine observed over one query block.

    Attributes
    ----------
    block_index:
        0-based position of the block within its trace.
    queries / trusted:
        Block size and how many predictions cleared the confidence gate.
    confidences:
        Per-query gate confidence, in stream order (the concatenation
        across events reproduces ``RecoveryStats.confidence_trace``).
    trusted_per_class:
        ``(k,)`` — trusted pseudo-labels that landed on each class.
    num_chunks:
        Detector geometry ``m`` used for this block.
    chunk_flags:
        ``(k, m)`` nested lists — how often the detector flagged chunk
        ``j`` of class ``c`` faulty (the per-class chunk votes).
    chunk_repair_bits:
        ``(k, m)`` — bits actually flipped back by substitution, per
        chunk.  A flagged chunk with zero repaired bits was already in
        agreement with the trusted query wherever the clone mask landed.
    bits_substituted:
        Total bits changed over the block (``sum(chunk_repair_bits)``).
    model_version_before / model_version_after:
        :attr:`repro.core.model.HDCModel.version` around the block;
        ``after - before`` counts in-place model writes.
    """

    block_index: int
    queries: int
    trusted: int
    confidences: tuple[float, ...]
    trusted_per_class: tuple[int, ...]
    num_chunks: int
    chunk_flags: tuple[tuple[int, ...], ...]
    chunk_repair_bits: tuple[tuple[int, ...], ...]
    bits_substituted: int
    model_version_before: int
    model_version_after: int

    @property
    def num_classes(self) -> int:
        return len(self.trusted_per_class)

    @property
    def chunks_flagged(self) -> int:
        return int(sum(sum(row) for row in self.chunk_flags))

    @property
    def model_writes(self) -> int:
        return self.model_version_after - self.model_version_before

    def confidence_summary(self) -> dict:
        """min/mean/max of the block's gate confidences."""
        if not self.confidences:
            return {"min": 0.0, "mean": 0.0, "max": 0.0}
        arr = np.asarray(self.confidences)
        return {
            "min": float(arr.min()),
            "mean": float(arr.mean()),
            "max": float(arr.max()),
        }

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RecoveryBlockEvent":
        return cls(
            block_index=int(data["block_index"]),
            queries=int(data["queries"]),
            trusted=int(data["trusted"]),
            confidences=tuple(float(c) for c in data["confidences"]),
            trusted_per_class=tuple(int(t) for t in data["trusted_per_class"]),
            num_chunks=int(data["num_chunks"]),
            chunk_flags=tuple(
                tuple(int(v) for v in row) for row in data["chunk_flags"]
            ),
            chunk_repair_bits=tuple(
                tuple(int(v) for v in row) for row in data["chunk_repair_bits"]
            ),
            bits_substituted=int(data["bits_substituted"]),
            model_version_before=int(data["model_version_before"]),
            model_version_after=int(data["model_version_after"]),
        )


class RecoveryTrace(EventLog[RecoveryBlockEvent]):
    """An append-only log of :class:`RecoveryBlockEvent` records."""

    event_type = RecoveryBlockEvent

    # -- aggregates ----------------------------------------------------

    @property
    def queries_seen(self) -> int:
        return sum(e.queries for e in self.events)

    @property
    def queries_trusted(self) -> int:
        return sum(e.trusted for e in self.events)

    @property
    def chunks_checked(self) -> int:
        return sum(e.trusted * e.num_chunks for e in self.events)

    @property
    def chunks_flagged(self) -> int:
        return sum(e.chunks_flagged for e in self.events)

    @property
    def bits_substituted(self) -> int:
        return sum(e.bits_substituted for e in self.events)

    def confidence_trace(self) -> list[float]:
        """Per-query confidences across all events, in stream order."""
        out: list[float] = []
        for e in self.events:
            out.extend(e.confidences)
        return out

    def _geometry(self) -> tuple[int, int]:
        if not self.events:
            raise ValueError("trace has no events")
        first = self.events[0]
        return first.num_classes, first.num_chunks

    def flag_counts(self) -> np.ndarray:
        """``(k, m)`` — total detector flags per (class, chunk)."""
        k, m = self._geometry()
        out = np.zeros((k, m), dtype=np.int64)
        for e in self.events:
            out += np.asarray(e.chunk_flags, dtype=np.int64)
        return out

    def repair_bit_counts(self) -> np.ndarray:
        """``(k, m)`` — total bits substituted per (class, chunk)."""
        k, m = self._geometry()
        out = np.zeros((k, m), dtype=np.int64)
        for e in self.events:
            out += np.asarray(e.chunk_repair_bits, dtype=np.int64)
        return out

    def flagged_chunks(self) -> np.ndarray:
        """``(k, m)`` bool — chunks the detector flagged at least once."""
        return self.flag_counts() > 0

    # -- rendering -----------------------------------------------------

    def summary_table(self) -> str:
        """Per-block summary rendered via :mod:`repro.analysis.tables`."""
        # Deferred: repro.analysis pulls in repro.core, which imports
        # repro.obs for its instrumentation hooks.
        from repro.analysis.tables import render_table

        rows: list[Sequence[object]] = []
        for e in self.events:
            conf = e.confidence_summary()
            rows.append([
                e.block_index,
                e.queries,
                e.trusted,
                f"{conf['mean']:.3f}",
                e.chunks_flagged,
                e.bits_substituted,
                e.model_writes,
            ])
        rows.append([
            "total",
            self.queries_seen,
            self.queries_trusted,
            "",
            self.chunks_flagged,
            self.bits_substituted,
            sum(e.model_writes for e in self.events),
        ])
        return render_table(
            ["block", "queries", "trusted", "mean conf", "chunks flagged",
             "bits substituted", "model writes"],
            rows,
            title="Recovery trace",
        )


@dataclass(frozen=True)
class ServeBatchEvent:
    """Everything a serving worker observed over one coalesced batch.

    The concurrent serving engine (:mod:`repro.serve`) emits one event
    per worker micro-batch — the serving-side sibling of
    :class:`RecoveryBlockEvent`, with the same plain-data / exact-JSONL
    contract.

    Attributes
    ----------
    worker_id / batch_index:
        Which worker served the batch, and its 0-based per-worker batch
        counter.
    requests / queries:
        How many requests the worker coalesced into this batch and how
        many query rows they contained in total.
    expired:
        Requests whose deadline had already passed when the batch was
        assembled; they were answered with a deadline error *instead of*
        being computed (their queries are not counted as served work).
    generation / model_version:
        The packed-model generation the batch was served from and the
        :attr:`repro.core.model.HDCModel.version` it was published at.
    adopted:
        Whether the worker switched to a newer generation immediately
        before serving this batch.
    adoption_lag_s:
        Seconds between that generation's publish and its adoption here
        (0.0 when ``adopted`` is false).
    staleness_s:
        Age of the recovery writer's heartbeat at serve time; 0.0 when no
        writer is registered.
    degraded:
        True when the batch was served in degraded mode — the writer's
        heartbeat exceeded the engine's stall threshold, so the worker
        knowingly served a stale snapshot rather than block.
    queue_depth:
        Requests outstanding (submitted, not yet resolved) when the
        batch's results were collected — the client-side view of queue
        pressure.
    duration_s:
        Worker wall time from batch assembly to results posted.
    trace_id:
        Lowest request trace id coalesced into the batch — the join key
        against the publisher's publish log (see
        :func:`repro.obs.telemetry.correlate`).
    shard:
        The model shard the worker serves (0 under a one-shard plan).
    dispatch_wait_s:
        How long the worker sat waiting for dispatch before this batch.
    bytes_scanned:
        Model bytes the batch's queries streamed.
    tenants:
        Distinct tenants served in the batch.

    Every field is required: the engine builds each event straight from
    its worker's batch record, and JSONL decodes only complete records.
    """

    worker_id: int
    batch_index: int
    requests: int
    queries: int
    expired: int
    generation: int
    model_version: int
    adopted: bool
    adoption_lag_s: float
    staleness_s: float
    degraded: bool
    queue_depth: int
    duration_s: float
    trace_id: int
    shard: int
    dispatch_wait_s: float
    bytes_scanned: int
    tenants: int

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ServeBatchEvent":
        return cls(**data)


class ServeTrace(EventLog[ServeBatchEvent]):
    """An append-only log of :class:`ServeBatchEvent` records."""

    event_type = ServeBatchEvent

    # -- aggregates ----------------------------------------------------

    @property
    def requests_served(self) -> int:
        return sum(e.requests for e in self.events)

    @property
    def queries_served(self) -> int:
        return sum(e.queries for e in self.events)

    @property
    def requests_expired(self) -> int:
        return sum(e.expired for e in self.events)

    @property
    def degraded_batches(self) -> int:
        return sum(1 for e in self.events if e.degraded)

    @property
    def adoptions(self) -> int:
        return sum(1 for e in self.events if e.adopted)

    # -- rendering -----------------------------------------------------

    def summary_table(self) -> str:
        """Per-batch summary rendered via :mod:`repro.analysis.tables`."""
        # Deferred import, same cycle-avoidance as RecoveryTrace.
        from repro.analysis.tables import render_table

        rows: list[Sequence[object]] = []
        for e in self.events:
            rows.append([
                e.worker_id,
                e.batch_index,
                e.requests,
                e.queries,
                e.generation,
                "yes" if e.adopted else "",
                f"{e.staleness_s:.3f}",
                "DEGRADED" if e.degraded else "",
                e.expired,
            ])
        rows.append([
            "total", "", self.requests_served, self.queries_served, "", "",
            "", self.degraded_batches or "", self.requests_expired,
        ])
        return render_table(
            ["worker", "batch", "requests", "queries", "gen", "adopted",
             "staleness s", "mode", "expired"],
            rows,
            title="Serve trace",
        )


@dataclass(frozen=True)
class CampaignEvent:
    """One step of an adversarial campaign (:mod:`repro.adversary`).

    The campaign-side sibling of :class:`RecoveryBlockEvent` /
    :class:`ServeBatchEvent`, with the same plain-data / exact-JSONL
    contract.  One event per campaign step:

    * ``differential`` — an ensemble disagreement scan; ``queries`` is
      the probe count, ``successes`` the disagreeing inputs.
    * ``bitflip-search`` / ``feature-search`` — one perturbation search
      per probe input; ``successes`` counts found misclassifications,
      ``bits_flipped`` the total accepted perturbation steps.
    * ``adaptive-pass`` — one recovery pass of an adaptive scenario;
      ``accuracy`` is the post-pass eval accuracy.
    * ``strike`` — one adaptive-adversary fault injection between
      passes; ``bits_flipped`` counts injected bits, ``successes`` how
      many of them landed in cells the adversary observed being
      repaired (0 when the strike fell back to uniform targeting).

    Attributes
    ----------
    index:
        0-based position of the event within its trace.
    kind:
        Step discriminator (see above).
    scenario:
        Which campaign scenario emitted the event (e.g. ``"static"``,
        ``"adaptive"``, ``"adaptive-no-recovery"``, or ``""`` for
        scenario-free steps like the differential scan).
    seed:
        The seed governing the step's randomness (-1 for RNG-free
        steps).
    queries / successes / bits_flipped:
        Work and outcome counters; see the per-kind meanings above.
    accuracy:
        Eval accuracy measured at this step, or ``None`` when the step
        does not measure one.
    """

    index: int
    kind: str
    scenario: str
    seed: int
    queries: int
    successes: int
    bits_flipped: int
    accuracy: float | None = None

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignEvent":
        accuracy = data.get("accuracy")
        return cls(
            index=int(data["index"]),
            kind=str(data["kind"]),
            scenario=str(data["scenario"]),
            seed=int(data["seed"]),
            queries=int(data["queries"]),
            successes=int(data["successes"]),
            bits_flipped=int(data["bits_flipped"]),
            accuracy=None if accuracy is None else float(accuracy),
        )


class CampaignTrace(EventLog[CampaignEvent]):
    """An append-only log of :class:`CampaignEvent` records."""

    event_type = CampaignEvent

    # -- aggregates ----------------------------------------------------

    def by_kind(self, kind: str) -> list[CampaignEvent]:
        return [e for e in self.events if e.kind == kind]

    def by_scenario(self, scenario: str) -> list[CampaignEvent]:
        return [e for e in self.events if e.scenario == scenario]

    @property
    def probes(self) -> int:
        return sum(e.queries for e in self.events
                   if e.kind != "adaptive-pass")

    @property
    def successes(self) -> int:
        return sum(e.successes for e in self.events)

    @property
    def bits_flipped(self) -> int:
        return sum(e.bits_flipped for e in self.events)

    def accuracy_trace(self, scenario: str) -> list[float]:
        """Post-pass accuracies of one scenario, in pass order."""
        return [
            e.accuracy for e in self.by_scenario(scenario)
            if e.kind == "adaptive-pass" and e.accuracy is not None
        ]

    # -- rendering -----------------------------------------------------

    def summary_table(self) -> str:
        """Per-step summary rendered via :mod:`repro.analysis.tables`."""
        # Deferred import, same cycle-avoidance as RecoveryTrace.
        from repro.analysis.tables import render_table

        rows: list[Sequence[object]] = []
        for e in self.events:
            rows.append([
                e.index,
                e.kind,
                e.scenario,
                e.queries,
                e.successes,
                e.bits_flipped,
                "" if e.accuracy is None else f"{e.accuracy:.4f}",
            ])
        rows.append([
            "total", "", "", self.probes, self.successes,
            self.bits_flipped, "",
        ])
        return render_table(
            ["step", "kind", "scenario", "queries", "successes",
             "bits flipped", "accuracy"],
            rows,
            title="Campaign trace",
        )
