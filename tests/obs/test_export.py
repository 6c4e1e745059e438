"""Tests for the Prometheus and JSONL metric exporters."""

import json

import pytest

from repro.obs.export import (
    append_jsonl,
    prometheus_name,
    render_prometheus,
    snapshot_line,
    write_prometheus,
)
from repro.obs.metrics import Histogram, MetricsRegistry


def make_registry():
    registry = MetricsRegistry()
    registry.inc("serve.batches", 12)
    registry.inc("serve.requests", 30)
    registry.gauge("serve.queue_depth", 4)
    for value in (0.001, 0.002, 0.004):
        registry.observe("serve.adoption_lag_s", value)
    return registry


class TestPrometheusNames:
    def test_dots_become_underscores(self):
        assert prometheus_name("serve.batch_duration_s") == (
            "repro_serve_batch_duration_s"
        )

    def test_invalid_chars_sanitised(self):
        assert prometheus_name("a-b c.d") == "repro_a_b_c_d"

    def test_leading_digit_guarded(self):
        assert prometheus_name("9lives", prefix="")[0] == "_"


class TestRenderPrometheus:
    def test_counters_gauges_histograms(self):
        text = render_prometheus(make_registry())
        assert "# TYPE repro_serve_batches counter" in text
        assert "repro_serve_batches 12.0" in text
        assert "# TYPE repro_serve_queue_depth gauge" in text
        assert "# TYPE repro_serve_adoption_lag_s summary" in text
        assert 'repro_serve_adoption_lag_s{quantile="0.5"}' in text
        assert "repro_serve_adoption_lag_s_count 3" in text
        assert text.endswith("\n")

    def test_accepts_snapshot_dict(self):
        snapshot = make_registry().snapshot()
        assert render_prometheus(snapshot) == (
            render_prometheus(make_registry())
        )

    def test_empty_registry_renders_empty(self):
        assert render_prometheus(MetricsRegistry()) == ""

    def test_write(self, tmp_path):
        path = write_prometheus(make_registry(), tmp_path / "metrics.prom")
        assert "repro_serve_requests" in path.read_text()


class TestJsonlSnapshots:
    def test_line_is_strict_json(self):
        record = json.loads(snapshot_line(make_registry()))
        assert record["counters"]["serve.batches"] == 12
        assert record["histograms"]["serve.adoption_lag_s"]["count"] == 3

    def test_empty_histogram_serialises_null_extremes(self):
        """The satellite fix: empty histograms must never emit inf."""
        registry = MetricsRegistry()
        registry.histograms["empty"] = Histogram()
        line = snapshot_line(registry)
        record = json.loads(line)  # json.loads in strict mode by default
        assert record["histograms"]["empty"]["min"] is None
        assert record["histograms"]["empty"]["max"] is None
        assert "Infinity" not in line

    def test_timestamp_leads_record(self):
        line = snapshot_line(make_registry(), timestamp_ns=123)
        assert line.startswith('{"timestamp_ns":123')

    def test_append_accumulates_lines(self, tmp_path):
        path = tmp_path / "snapshots.jsonl"
        append_jsonl(make_registry(), path, timestamp_ns=1)
        append_jsonl(make_registry(), path, timestamp_ns=2)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert [json.loads(x)["timestamp_ns"] for x in lines] == [1, 2]


class TestPrometheusEmptyHistogram:
    def test_empty_summary_renders_nan_not_crash(self):
        registry = MetricsRegistry()
        registry.histograms["empty"] = Histogram()
        text = render_prometheus(registry)
        assert "repro_empty_count 0" in text
