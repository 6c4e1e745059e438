"""Tests for the structured recovery trace."""

import json

import numpy as np
import pytest

from repro.core.encoder import Encoder
from repro.core.model import HDCClassifier
from repro.core.recovery import (
    RecoveryConfig,
    RecoveryStats,
    RobustHDRecovery,
    recover_block,
)
from repro.datasets.synthetic import make_prototype_classification
from repro.faults.api import attack
from repro.obs.trace import (
    RecoveryBlockEvent,
    RecoveryTrace,
    ServeBatchEvent,
    ServeTrace,
)


def make_event(block_index=0, **overrides):
    base = dict(
        block_index=block_index,
        queries=4,
        trusted=2,
        confidences=(0.9, 0.3, 0.95, 0.1),
        trusted_per_class=(1, 1),
        num_chunks=2,
        chunk_flags=((1, 0), (0, 1)),
        chunk_repair_bits=((3, 0), (0, 5)),
        bits_substituted=8,
        model_version_before=7,
        model_version_after=9,
    )
    base.update(overrides)
    return RecoveryBlockEvent(**base)


class TestEvent:
    def test_derived_properties(self):
        e = make_event()
        assert e.num_classes == 2
        assert e.chunks_flagged == 2
        assert e.model_writes == 2

    def test_confidence_summary(self):
        e = make_event()
        s = e.confidence_summary()
        assert s["min"] == pytest.approx(0.1)
        assert s["max"] == pytest.approx(0.95)

    def test_dict_round_trip(self):
        e = make_event()
        assert RecoveryBlockEvent.from_dict(e.to_dict()) == e


class TestTrace:
    def test_aggregates(self):
        trace = RecoveryTrace()
        trace.record(make_event(0))
        trace.record(make_event(1, bits_substituted=2,
                                chunk_repair_bits=((2, 0), (0, 0))))
        assert len(trace) == 2
        assert trace.queries_seen == 8
        assert trace.queries_trusted == 4
        assert trace.chunks_checked == 8
        assert trace.chunks_flagged == 4
        assert trace.bits_substituted == 10
        assert trace.last.block_index == 1

    def test_confidence_trace_concatenates(self):
        trace = RecoveryTrace()
        trace.record(make_event(0, confidences=(0.1, 0.2)))
        trace.record(make_event(1, confidences=(0.3,)))
        assert trace.confidence_trace() == [0.1, 0.2, 0.3]

    def test_grids(self):
        trace = RecoveryTrace()
        trace.record(make_event(0))
        trace.record(make_event(1))
        assert (trace.flag_counts() == [[2, 0], [0, 2]]).all()
        assert (trace.repair_bit_counts() == [[6, 0], [0, 10]]).all()
        assert (trace.flagged_chunks() == [[True, False], [False, True]]).all()

    def test_jsonl_round_trip_exact(self, tmp_path):
        trace = RecoveryTrace()
        trace.record(make_event(0, confidences=(0.1 + 0.2, 1 / 3)))
        trace.record(make_event(1))
        path = trace.write_jsonl(tmp_path / "trace.jsonl")
        back = RecoveryTrace.read_jsonl(path)
        assert back.events == trace.events  # floats round-trip exactly

    def test_empty_jsonl(self, tmp_path):
        path = RecoveryTrace().write_jsonl(tmp_path / "empty.jsonl")
        assert RecoveryTrace.read_jsonl(path).events == []

    def test_summary_table_renders(self):
        trace = RecoveryTrace()
        trace.record(make_event(0))
        text = trace.summary_table()
        assert "Recovery trace" in text
        assert "total" in text


def make_serve_event(**overrides):
    base = dict(
        worker_id=1,
        batch_index=3,
        requests=4,
        queries=17,
        expired=1,
        generation=2,
        model_version=9,
        adopted=True,
        adoption_lag_s=0.25,
        staleness_s=0.5,
        degraded=False,
        queue_depth=6,
        duration_s=0.001,
        trace_id=42,
        shard=0,
        dispatch_wait_s=0.002,
        bytes_scanned=4096,
        tenants=1,
    )
    base.update(overrides)
    return ServeBatchEvent(**base)


class TestServeBatchEventSerde:
    def test_dict_round_trip_keeps_trace_id(self):
        e = make_serve_event(trace_id=123)
        back = ServeBatchEvent.from_dict(e.to_dict())
        assert back == e
        assert back.trace_id == 123

    def test_jsonl_round_trip_with_trace_id(self, tmp_path):
        trace = ServeTrace()
        trace.record(make_serve_event(batch_index=0, trace_id=0))
        trace.record(make_serve_event(batch_index=1, trace_id=7))
        path = trace.write_jsonl(tmp_path / "serve.jsonl")
        back = ServeTrace.read_jsonl(path)
        assert back.events == trace.events
        assert [e.trace_id for e in back] == [0, 7]

    def test_incomplete_record_rejected(self):
        """Every field is required: a record missing one does not decode."""
        partial = make_serve_event().to_dict()
        del partial["trace_id"]
        with pytest.raises(TypeError, match="trace_id"):
            ServeTrace.from_jsonl(json.dumps(partial))


@pytest.fixture(scope="module")
def fitted():
    task = make_prototype_classification(
        "toy", num_features=40, num_classes=4, num_train=200, num_test=160,
        boundary_fraction=0.4, boundary_depth=(0.25, 0.45), seed=11,
    )
    encoder = Encoder(num_features=40, dim=1_000, seed=5)
    clf = HDCClassifier(encoder, num_classes=4, epochs=0).fit(
        task.train_x, task.train_y
    )
    return clf.model, encoder.encode_batch(task.test_x)


class TestLiveTracing:
    def test_recovery_emits_one_event_per_block(self, fitted):
        model, queries = fitted
        attacked, _ = attack(model, 0.10, "random", np.random.default_rng(2))
        recovery = RobustHDRecovery(
            attacked, RecoveryConfig(num_chunks=10, block_size=50), seed=3
        )
        recovery.process(queries)
        expected_blocks = -(-queries.shape[0] // 50)
        assert len(recovery.trace) == expected_blocks
        assert recovery.last_trace is recovery.trace.events[-1]
        assert [e.block_index for e in recovery.trace] == list(
            range(expected_blocks)
        )

    def test_stats_derived_from_trace(self, fitted):
        """The wrapper's stats are a view of the trace its blocks wrote."""
        model, queries = fitted
        config = RecoveryConfig(num_chunks=10, block_size=64)

        attacked, _ = attack(model, 0.10, "random", np.random.default_rng(2))
        recovery = RobustHDRecovery(attacked, config, seed=3)
        recovery.process(queries)

        reference, _ = attack(model, 0.10, "random", np.random.default_rng(2))
        trace = RecoveryTrace()
        rng = np.random.default_rng(3)
        for lo in range(0, queries.shape[0], 64):
            recover_block(reference, queries[lo:lo + 64], config, rng, trace)

        assert recovery.trace == trace
        stats = recovery.stats
        assert stats == RecoveryStats.from_trace(trace)
        assert stats.queries_seen == queries.shape[0]
        assert stats.chunks_checked == stats.queries_trusted * 10
        assert stats.bits_substituted == trace.repair_bit_counts().sum()
        assert stats.confidence_trace == trace.confidence_trace()

    def test_trace_never_draws_rng(self, fitted):
        """Traced and untraced runs repair the model identically."""
        model, queries = fitted
        config = RecoveryConfig(num_chunks=10)
        results = []
        for trace in (None, RecoveryTrace()):
            attacked, _ = attack(
                model, 0.10, "random", np.random.default_rng(2)
            )
            rng = np.random.default_rng(3)
            preds = recover_block(attacked, queries, config, rng, trace=trace)
            results.append((preds, attacked.class_hv.copy()))
        (p0, hv0), (p1, hv1) = results
        assert (p0 == p1).all()
        assert (hv0 == hv1).all()

    def test_event_totals_consistent(self, fitted):
        model, queries = fitted
        attacked, _ = attack(model, 0.10, "random", np.random.default_rng(2))
        recovery = RobustHDRecovery(
            attacked, RecoveryConfig(num_chunks=10, block_size=40), seed=3
        )
        recovery.process(queries)
        for e in recovery.trace:
            assert len(e.confidences) == e.queries
            assert sum(e.trusted_per_class) == e.trusted
            assert sum(sum(row) for row in e.chunk_repair_bits) == (
                e.bits_substituted
            )
            assert e.model_version_after >= e.model_version_before
