"""Metric exporters: Prometheus text format and JSONL snapshots.

Both exporters render from :meth:`repro.obs.metrics.MetricsRegistry.snapshot`
— the single JSON-able view of everything recorded, including the
``serve.*`` series the serving engine records from each worker batch.
They add no collection of their own: export is a pure function of the
snapshot, so exporting never perturbs a run.

* :func:`render_prometheus` — Prometheus text exposition format
  (version 0.0.4): counters and gauges as single samples, histograms as
  summaries (``quantile`` labels plus ``_sum``/``_count``).  Metric
  names are sanitised (dots to underscores) under a ``repro_`` prefix.
* :func:`snapshot_line` / :func:`append_jsonl` — one compact JSON
  object per snapshot, suitable for appending to a JSONL file on a
  scrape cadence.  Empty histograms serialise ``min``/``max`` as
  ``null`` (never ``Infinity``), so strict JSON readers always parse.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from repro.obs.metrics import MetricsRegistry

__all__ = [
    "append_jsonl",
    "prometheus_name",
    "render_prometheus",
    "snapshot_line",
    "write_prometheus",
]

_PROMETHEUS_PREFIX = "repro"
_INVALID = re.compile(r"[^a-zA-Z0-9_:]")


def prometheus_name(name: str, prefix: str = _PROMETHEUS_PREFIX) -> str:
    """Sanitise a dotted metric name into a Prometheus metric name."""
    flat = _INVALID.sub("_", name.replace(".", "_"))
    if prefix:
        flat = f"{prefix}_{flat}"
    if flat[0].isdigit():
        flat = f"_{flat}"
    return flat


def _snapshot(source: MetricsRegistry | dict) -> dict:
    if isinstance(source, MetricsRegistry):
        return source.snapshot()
    return source


def _format_value(value) -> str:
    if value is None:
        return "NaN"
    return repr(float(value))


def render_prometheus(source: MetricsRegistry | dict) -> str:
    """The snapshot in Prometheus text exposition format.

    ``source`` is a registry or an existing ``snapshot()`` dict.
    Counters render as ``counter`` samples, gauges as ``gauge``,
    histograms as ``summary`` (p50/p95 quantiles from the retained
    reservoir, plus exact ``_sum`` and ``_count``).
    """
    snapshot = _snapshot(source)
    lines: list[str] = []
    for name, value in sorted(snapshot.get("counters", {}).items()):
        metric = prometheus_name(name)
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_format_value(value)}")
    for name, value in sorted(snapshot.get("gauges", {}).items()):
        metric = prometheus_name(name)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_format_value(value)}")
    for name, summary in sorted(snapshot.get("histograms", {}).items()):
        metric = prometheus_name(name)
        lines.append(f"# TYPE {metric} summary")
        for label, key in (("0.5", "p50"), ("0.95", "p95")):
            lines.append(
                f'{metric}{{quantile="{label}"}} '
                f"{_format_value(summary.get(key))}"
            )
        lines.append(f"{metric}_sum {_format_value(summary.get('sum'))}")
        lines.append(f"{metric}_count {int(summary.get('count', 0))}")
    return "\n".join(lines) + ("\n" if lines else "")


def write_prometheus(
    source: MetricsRegistry | dict, path: str | Path
) -> Path:
    """Write :func:`render_prometheus` output to ``path``."""
    path = Path(path)
    path.write_text(render_prometheus(source))
    return path


def snapshot_line(
    source: MetricsRegistry | dict, *, timestamp_ns: int | None = None
) -> str:
    """One compact JSON object for the snapshot (one JSONL line).

    The snapshot is JSON-strict by construction — empty histograms carry
    ``min``/``max`` as ``None`` — so ``json.dumps`` with
    ``allow_nan=False`` is safe and the output parses everywhere.
    """
    record = dict(_snapshot(source))
    if timestamp_ns is not None:
        record = {"timestamp_ns": int(timestamp_ns), **record}
    return json.dumps(record, separators=(",", ":"), allow_nan=False)


def append_jsonl(
    source: MetricsRegistry | dict,
    path: str | Path,
    *,
    timestamp_ns: int | None = None,
) -> Path:
    """Append one snapshot line to a JSONL file (created if missing)."""
    path = Path(path)
    with path.open("a") as handle:
        handle.write(snapshot_line(source, timestamp_ns=timestamp_ns) + "\n")
    return path
