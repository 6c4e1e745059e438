"""Shared-memory substrate tests: lifecycle, control block, publisher.

The lifecycle tests pin the satellite requirement directly: a worker
killed mid-batch must not leak ``/dev/shm`` entries once the engine is
stopped, and double-close / double-unlink are no-ops on every handle
type.
"""

import glob

import numpy as np
import pytest

from repro.core.encoder import Encoder
from repro.core.model import HDCClassifier, HDCModel
from repro.core.recovery import ModelPublisher
from repro.obs.telemetry import correlate
from repro.obs.trace import ServeBatchEvent
from repro.serve.shard import ShardPlan
from repro.serve.shm import (
    _PUBLISH_LOG_LIMIT,
    ControlBlock,
    GenerationPublisher,
    ShmArray,
    attach_generation,
    generation_segment,
    unique_name,
)


def shm_entries(prefix: str) -> list[str]:
    return glob.glob(f"/dev/shm/{prefix}*")


class TestShmArray:
    def test_create_attach_roundtrip(self):
        name = unique_name("repro-test")
        data = np.arange(24, dtype=np.uint64).reshape(4, 6)
        created = ShmArray.create(name, data)
        try:
            attached = ShmArray.attach(name, (4, 6), np.uint64)
            assert (attached.array == data).all()
            assert not attached.array.flags.writeable
            attached.close()
        finally:
            created.unlink()
        assert shm_entries(name) == []

    def test_double_close_is_noop(self):
        name = unique_name("repro-test")
        created = ShmArray.create(name, np.zeros(8, dtype=np.uint64))
        try:
            attached = ShmArray.attach(name, (8,), np.uint64)
            attached.close()
            attached.close()  # second close must not raise
            assert attached.closed
            created.close()
            created.close()
        finally:
            created.unlink()

    def test_double_unlink_is_noop(self):
        name = unique_name("repro-test")
        created = ShmArray.create(name, np.zeros(8, dtype=np.uint64))
        created.unlink()
        created.unlink()  # second unlink must not raise
        assert shm_entries(name) == []

    def test_unlink_after_close_still_destroys(self):
        name = unique_name("repro-test")
        created = ShmArray.create(name, np.zeros(8, dtype=np.uint64))
        created.close()
        assert shm_entries(name)  # segment survives a plain close
        created.unlink()
        assert shm_entries(name) == []

    def test_attacher_never_unlinks(self):
        name = unique_name("repro-test")
        created = ShmArray.create(name, np.zeros(8, dtype=np.uint64))
        try:
            attached = ShmArray.attach(name, (8,), np.uint64)
            attached.unlink()  # non-owner: must only close, not destroy
            assert shm_entries(name)
        finally:
            created.unlink()

    def test_array_after_close_raises(self):
        name = unique_name("repro-test")
        created = ShmArray.create(name, np.zeros(8, dtype=np.uint64))
        created.close()
        with pytest.raises(ValueError, match="closed"):
            created.array
        created.unlink()


class TestControlBlock:
    def test_write_read_roundtrip(self):
        control = ControlBlock.create(unique_name("repro-test"))
        try:
            control.write(generation=3, model_version=7, num_classes=5,
                          dim=1000, publish_ns=123, heartbeat_ns=456,
                          writer_active=1)
            snap = control.read()
            assert snap.generation == 3
            assert snap.model_version == 7
            assert snap.num_classes == 5
            assert snap.dim == 1000
            assert snap.publish_ns == 123
            assert snap.heartbeat_ns == 456
            assert snap.writer_active
        finally:
            control.unlink()

    def test_partial_update_preserves_other_fields(self):
        control = ControlBlock.create(unique_name("repro-test"))
        try:
            control.write(generation=2, dim=640, writer_active=1)
            control.write(heartbeat_ns=999)
            snap = control.read()
            assert snap.generation == 2
            assert snap.dim == 640
            assert snap.heartbeat_ns == 999
        finally:
            control.unlink()

    def test_cross_handle_visibility(self):
        name = unique_name("repro-test")
        writer = ControlBlock.create(name)
        try:
            reader = ControlBlock.attach(name)
            writer.write(generation=9)
            assert reader.read().generation == 9
            reader.close()
        finally:
            writer.unlink()


@pytest.fixture
def trained_model() -> HDCModel:
    rng = np.random.default_rng(0)
    encoder = Encoder(num_features=8, dim=256, levels=8, seed=1)
    clf = HDCClassifier(encoder, num_classes=3, epochs=1, seed=2).fit(
        rng.random((60, 8)), rng.integers(0, 3, 60)
    )
    return clf.model


class TestGenerationPublisher:
    def test_satisfies_model_publisher_protocol(self):
        assert issubclass(GenerationPublisher, ModelPublisher)

    def test_publish_attach_roundtrip(self, trained_model):
        prefix = unique_name("repro-test")
        control = ControlBlock.create(f"{prefix}-control")
        plan = ShardPlan.by_class(trained_model.num_classes, 1)
        publisher = GenerationPublisher(prefix, control, plan)
        try:
            assert publisher.publish(trained_model) == 1
            segment, packed = attach_generation(
                prefix, control.read(), plan, 0
            )
            assert (packed.words == trained_model.packed().words).all()
            assert packed.dim == trained_model.dim
            assert not packed.words.flags.writeable
            segment.close()
        finally:
            publisher.close()
            control.unlink()
        assert shm_entries(prefix) == []

    def test_retire_lag_unlinks_superseded_generations(self, trained_model):
        prefix = unique_name("repro-test")
        control = ControlBlock.create(f"{prefix}-control")
        publisher = GenerationPublisher(
            prefix, control, ShardPlan.by_class(trained_model.num_classes, 1)
        )
        try:
            for expected in (1, 2, 3, 4):
                with trained_model.writable() as hv:
                    hv[0, 0] ^= 1
                assert publisher.publish(trained_model) == expected
            # Generations 1 and 2 retired, 3 and 4 still mapped.
            assert shm_entries(generation_segment(prefix, 1, 0)) == []
            assert shm_entries(generation_segment(prefix, 2, 0)) == []
            assert shm_entries(generation_segment(prefix, 3, 0))
            assert shm_entries(generation_segment(prefix, 4, 0))
        finally:
            publisher.close()
            control.unlink()
        assert shm_entries(prefix) == []

    def test_close_is_idempotent(self, trained_model):
        prefix = unique_name("repro-test")
        control = ControlBlock.create(f"{prefix}-control")
        publisher = GenerationPublisher(
            prefix, control, ShardPlan.by_class(trained_model.num_classes, 1)
        )
        try:
            publisher.publish(trained_model)
            publisher.close()
            publisher.close()  # second close must not raise
        finally:
            control.unlink()
        assert shm_entries(prefix) == []

    def test_touch_and_end_writing_flip_writer_state(self, trained_model):
        prefix = unique_name("repro-test")
        control = ControlBlock.create(f"{prefix}-control")
        publisher = GenerationPublisher(
            prefix, control, ShardPlan.by_class(trained_model.num_classes, 1)
        )
        try:
            publisher.publish(trained_model)
            assert control.read().writer_active
            publisher.end_writing()
            assert not control.read().writer_active
            before = control.read().heartbeat_ns
            publisher.touch()
            snap = control.read()
            assert snap.writer_active
            assert snap.heartbeat_ns >= before
        finally:
            publisher.close()
            control.unlink()

    def test_publish_log_keeps_the_newest_publishes(self, trained_model):
        """A long-running writer's log holds only the newest publishes,
        and ``correlate`` still joins traffic to each of them."""
        prefix = unique_name("repro-test")
        control = ControlBlock.create(f"{prefix}-control")
        trace_ids = iter(range(10, 10**9, 10))
        publisher = GenerationPublisher(
            prefix, control, ShardPlan.by_class(trained_model.num_classes, 1),
            trace_source=lambda: next(trace_ids),
        )
        extra = 5
        packed = trained_model.packed()
        try:
            for _ in range(_PUBLISH_LOG_LIMIT + extra):
                publisher.publish_packed(packed)
        finally:
            publisher.close()
            control.unlink()
        log = list(publisher.publish_log)
        assert len(log) == _PUBLISH_LOG_LIMIT
        newest = _PUBLISH_LOG_LIMIT + extra
        assert [e["generation"] for e in log] == list(
            range(extra + 1, newest + 1)
        )
        assert [e["trace_id"] for e in log] == [10 * g for g in
                                               range(extra + 1, newest + 1)]

        def served_on(generation):
            return ServeBatchEvent(
                worker_id=0, batch_index=0, requests=1, queries=1,
                expired=0, generation=generation, model_version=0,
                adopted=False, adoption_lag_s=0.0, staleness_s=0.0,
                degraded=False, queue_depth=0, duration_s=0.001,
                trace_id=10 * generation + 1, shard=0, dispatch_wait_s=0.0,
                bytes_scanned=0, tenants=1,
            )

        rows = correlate(
            [served_on(g) for g in (extra, extra + 1, newest)], publisher
        )
        joined = {row["generation"]: row["published_after_trace"]
                  for row in rows}
        # The evicted generation no longer joins; the oldest and the
        # newest kept ones do.
        assert joined == {extra: None, extra + 1: 10 * (extra + 1),
                          newest: 10 * newest}
