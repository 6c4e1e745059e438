"""Recovery observability layer: metrics, tracing, telemetry, scorecards.

Five zero-dependency components:

* :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of counters,
  gauges, histograms and monotonic timers, with a no-op default so
  un-instrumented callers pay ~nothing;
* :mod:`repro.obs.trace` — structured event logs with JSONL export and
  rendered summaries: :class:`RecoveryTrace` (one record per recovery
  block), :class:`ServeTrace` (one record per serving-worker
  micro-batch, emitted by :mod:`repro.serve`), and
  :class:`CampaignTrace` (one record per adversarial-campaign step,
  emitted by :mod:`repro.adversary`);
* :mod:`repro.obs.telemetry` — cross-process telemetry: a per-worker
  crash-surviving :class:`FlightRecorder` ring in shared memory, and
  :func:`correlate` joining serve batches against recovery publish
  announcements;
* :mod:`repro.obs.export` — Prometheus text and JSONL snapshot
  exporters rendered from :meth:`MetricsRegistry.snapshot`;
* :mod:`repro.obs.scorecard` — joins a trace against the injected
  :class:`~repro.faults.api.FaultMask` to report chunk-detection
  precision/recall/F1 and bit-level repair efficacy, and reduces
  adversarial campaigns to CI-gateable numbers
  (:class:`AdversaryScorecard`).
"""

from repro.obs.export import (
    append_jsonl,
    render_prometheus,
    snapshot_line,
    write_prometheus,
)
from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    NullMetrics,
    current,
    disable_metrics,
    enable_metrics,
    set_metrics,
    use_metrics,
)
from repro.obs.scorecard import (
    AdversaryScorecard,
    ChunkDetectionScore,
    FaultScorecard,
    adversary_scorecard,
    fault_scorecard,
)
from repro.obs.telemetry import (
    FlightEvent,
    FlightRecorder,
    TelemetrySlabReader,
    TelemetryWriter,
    correlate,
    render_contention_table,
)
from repro.obs.trace import (
    CampaignEvent,
    CampaignTrace,
    RecoveryBlockEvent,
    RecoveryTrace,
    ServeBatchEvent,
    ServeTrace,
)

__all__ = [
    "AdversaryScorecard",
    "CampaignEvent",
    "CampaignTrace",
    "ChunkDetectionScore",
    "FaultScorecard",
    "FlightEvent",
    "FlightRecorder",
    "Histogram",
    "MetricsRegistry",
    "NullMetrics",
    "RecoveryBlockEvent",
    "RecoveryTrace",
    "ServeBatchEvent",
    "ServeTrace",
    "TelemetrySlabReader",
    "TelemetryWriter",
    "adversary_scorecard",
    "append_jsonl",
    "correlate",
    "current",
    "disable_metrics",
    "enable_metrics",
    "fault_scorecard",
    "render_contention_table",
    "render_prometheus",
    "set_metrics",
    "snapshot_line",
    "use_metrics",
    "write_prometheus",
]
