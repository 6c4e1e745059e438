"""Sharded-serving tests: plan geometry, combine rules, bit-identity.

The load-bearing properties:

* class- and word-sharded engines, one-shard plans included, produce
  predictions bit-identical to the in-process packed path (argmin ties
  included), and every plan's ``combine`` of its shards' ``reply`` rows
  equals the unsharded argmin;
* a concurrent attack-and-recover published into a sharded engine ends
  bit-identical to the sequential reference;
* killing one replica of a shard re-routes its work to the surviving
  replica; every test leaves ``/dev/shm`` clean.
"""

import glob
import os
import signal
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.encoder import Encoder
from repro.core.model import HDCClassifier, HDCModel
from repro.datasets.synthetic import make_prototype_classification
from repro.serve import (
    ServeRequest,
    ServingEngine,
    ShardPlan,
    reduce_partial_tables,
)


def shm_entries(prefix: str) -> list[str]:
    return glob.glob(f"/dev/shm/{prefix}*")


class TestShardPlanGeometry:
    def test_by_class_balanced_larger_first(self):
        plan = ShardPlan.by_class(26, 4)
        assert plan.kind == "class"
        assert plan.bounds == ((0, 7), (7, 14), (14, 20), (20, 26))
        assert plan.num_shards == 4
        assert plan.axis_size == 26

    def test_by_word_splits_ceil_words(self):
        plan = ShardPlan.by_word(1000, 2)  # ceil(1000/64) = 16 words
        assert plan.kind == "word"
        assert plan.bounds == ((0, 8), (8, 16))

    def test_rejects_more_shards_than_items(self):
        with pytest.raises(ValueError, match="cannot split"):
            ShardPlan.by_class(3, 4)

    def test_rejects_bad_kind_and_gaps(self):
        with pytest.raises(ValueError, match="kind"):
            ShardPlan(kind="row", bounds=((0, 1),))
        with pytest.raises(ValueError, match="contiguous"):
            ShardPlan(kind="class", bounds=((0, 2), (3, 4)))
        with pytest.raises(ValueError, match="contiguous"):
            ShardPlan(kind="class", bounds=((0, 2), (2, 2)))
        with pytest.raises(ValueError, match="at least one"):
            ShardPlan(kind="class", bounds=())

    def test_validate_against_model_geometry(self):
        plan = ShardPlan.by_class(8, 2)
        plan.validate(num_classes=8, dim=512)
        with pytest.raises(ValueError, match="covers"):
            plan.validate(num_classes=9, dim=512)
        word_plan = ShardPlan.by_word(512, 2)
        word_plan.validate(num_classes=8, dim=512)
        with pytest.raises(ValueError, match="covers"):
            word_plan.validate(num_classes=8, dim=1024)

    def test_shard_words_and_shapes(self):
        rng = np.random.default_rng(0)
        words = rng.integers(0, 2**63, (6, 10), dtype=np.uint64)
        cplan = ShardPlan.by_class(6, 2)
        assert (cplan.shard_words(words, 0) == words[:3]).all()
        assert cplan.shard_shape(6, 640, 1) == (3, 10)
        assert cplan.shard_dim(640, 1) == 640
        wplan = ShardPlan.by_word(640, 2)
        assert (wplan.shard_words(words, 1) == words[:, 5:]).all()
        assert wplan.shard_shape(6, 640, 0) == (6, 5)
        assert wplan.shard_dim(640, 0) == 320

    def test_trailing_word_shard_dim_clips_padding(self):
        # dim=1000 -> 16 words; last shard (words 8..16) spans bits
        # 512..1000, not 512..1024.
        plan = ShardPlan.by_word(1000, 2)
        assert plan.shard_dim(1000, 0) == 512
        assert plan.shard_dim(1000, 1) == 1000 - 512
        # Each shard's word count must round-trip through ceil(dim/64).
        for s in range(2):
            lo, hi = plan.bounds[s]
            assert -(-plan.shard_dim(1000, s) // 64) == hi - lo

    def test_shard_queries(self):
        rng = np.random.default_rng(1)
        q = rng.integers(0, 2**63, (4, 10), dtype=np.uint64)
        assert ShardPlan.by_class(6, 2).shard_queries(q, 1) is q
        assert (
            ShardPlan.by_word(640, 2).shard_queries(q, 0) == q[:, :5]
        ).all()


class TestCombineRules:
    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=9),
        st.integers(min_value=1, max_value=4),
        st.sampled_from(["class", "word"]),
        st.data(),
    )
    @settings(deadline=None, max_examples=60)
    def test_combined_replies_equal_unsharded_argmin(
        self, b, k, shards, kind, data
    ):
        rng = np.random.default_rng(
            data.draw(st.integers(min_value=0, max_value=2**31))
        )
        table = rng.integers(0, 4, (b, k)).astype(np.int64)
        # Force ties: one random column matches every row's minimum.
        table[:, rng.integers(k)] = table.min(axis=1)
        if kind == "class":
            plan = ShardPlan.by_class(k, min(shards, k))
            replies = [
                plan.reply(table[:, lo:hi], s)
                for s, (lo, hi) in enumerate(plan.bounds)
            ]
        else:
            plan = ShardPlan.by_word(64 * shards, shards)
            # Partial popcounts: each distance split over the shards.
            partials = rng.multinomial(table, np.full(shards, 1 / shards))
            replies = [
                plan.reply(np.ascontiguousarray(partials[:, :, s]), s)
                for s in range(shards)
            ]
        combined = plan.combine(replies)
        assert combined.dtype == np.int64
        assert (combined == np.argmin(table, axis=1)).all()

    @given(st.integers(min_value=1, max_value=9), st.data())
    @settings(deadline=None, max_examples=25)
    def test_reduce_tree_equals_flat_sum(self, parts, data):
        rng = np.random.default_rng(
            data.draw(st.integers(min_value=0, max_value=2**31))
        )
        tables = [
            rng.integers(0, 1000, (5, 3)).astype(np.int64)
            for _ in range(parts)
        ]
        flat = np.sum(np.stack(tables), axis=0)
        assert (reduce_partial_tables(tables) == flat).all()

    def test_reduce_tree_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            reduce_partial_tables([])


@pytest.fixture(scope="module")
def fitted():
    task = make_prototype_classification(
        "shard-serve", num_features=12, num_classes=5, num_train=200,
        num_test=64, seed=13,
    )
    encoder = Encoder(num_features=12, dim=1000, levels=8, seed=14)
    clf = HDCClassifier(encoder, num_classes=5, epochs=1, seed=15).fit(
        task.train_x, task.train_y
    )
    return task, clf


def plans_for(clf):
    return [
        ShardPlan.by_class(clf.model.num_classes, 1),
        ShardPlan.by_word(clf.encoder.dim, 1),
        ShardPlan.by_class(clf.model.num_classes, 2),
        ShardPlan.by_word(clf.encoder.dim, 2),
        ShardPlan.by_word(clf.encoder.dim, 3),
    ]


class TestShardedServing:
    def test_sharded_predictions_bit_identical(self, fitted):
        task, clf = fitted
        reference = clf.predict(task.test_x)
        words = clf.encoder.encode_packed(task.test_x).words
        for plan in plans_for(clf):
            engine = ServingEngine(
                clf, num_workers=plan.num_shards, shard_plan=plan
            )
            prefix = engine.config.prefix
            try:
                served = engine.submit(ServeRequest(words)).result()
                assert (served.predictions == reference).all()
            finally:
                engine.stop()
            assert shm_entries(prefix) == []

    def test_sharded_replicas_bit_identical(self, fitted):
        """Two replicas per shard: dispatch spreads, results agree."""
        task, clf = fitted
        reference = clf.predict(task.test_x)
        words = clf.encoder.encode_packed(task.test_x).words
        plan = ShardPlan.by_class(clf.model.num_classes, 2)
        with ServingEngine(clf, num_workers=4, shard_plan=plan) as engine:
            for _ in range(3):
                served = engine.submit(ServeRequest(words)).result()
                assert (served.predictions == reference).all()

    def test_sharded_feature_requests(self, fitted):
        task, clf = fitted
        reference = clf.predict(task.test_x)
        for plan in plans_for(clf):
            engine = ServingEngine(
                clf, num_workers=plan.num_shards, shard_plan=plan
            )
            try:
                served = engine.submit(
                    ServeRequest(task.test_x, features=True)
                ).result()
                assert (served.predictions == reference).all()
            finally:
                engine.stop()

    def test_worker_count_must_be_multiple_of_shards(self, fitted):
        _, clf = fitted
        plan = ShardPlan.by_class(clf.model.num_classes, 2)
        with pytest.raises(ValueError, match="multiple"):
            ServingEngine(clf, num_workers=3, shard_plan=plan)

    def test_plan_must_match_model(self, fitted):
        _, clf = fitted
        with pytest.raises(ValueError, match="covers"):
            ServingEngine(
                clf, num_workers=2,
                shard_plan=ShardPlan.by_class(clf.model.num_classes + 1, 2),
            )

    def test_sharded_deadline_expiry(self, fitted):
        task, clf = fitted
        words = clf.encoder.encode_packed(task.test_x[:4]).words
        plan = ShardPlan.by_class(clf.model.num_classes, 2)
        with ServingEngine(clf, num_workers=2, shard_plan=plan) as engine:
            # Warm both workers up first.
            engine.submit(ServeRequest(words)).result()
            result = engine.submit(
                ServeRequest(words, deadline=1e-9)
            ).result()
        assert result.expired and result.predictions is None

    def test_sharded_trace_records_shard_and_wait(self, fitted):
        task, clf = fitted
        words = clf.encoder.encode_packed(task.test_x).words
        plan = ShardPlan.by_word(clf.encoder.dim, 2)
        with ServingEngine(clf, num_workers=2, shard_plan=plan) as engine:
            engine.submit(ServeRequest(words)).result()
            events = list(engine.trace)
        shards_seen = {event.shard for event in events}
        assert shards_seen == {0, 1}
        assert all(event.dispatch_wait_s >= 0.0 for event in events)
        # A word shard scans its word columns only: bytes per query is
        # the shard's slice of the model, not the whole model.
        full_bytes = clf.model.packed().words.nbytes
        for event in events:
            assert 0 < event.bytes_scanned // max(1, event.queries) \
                < full_bytes


class TestShardedCrashRecovery:
    def test_replica_crash_reroutes_to_survivor(self, fitted):
        task, clf = fitted
        reference = clf.predict(task.test_x)
        words = clf.encoder.encode_packed(task.test_x).words
        plan = ShardPlan.by_class(clf.model.num_classes, 2)
        engine = ServingEngine(clf, num_workers=4, shard_plan=plan)
        prefix = engine.config.prefix
        try:
            served = engine.submit(ServeRequest(words)).result()
            assert (served.predictions == reference).all()
            # Kill one replica of shard 0 (workers 0 and 2 serve shard 0).
            os.kill(engine.workers[0].pid, signal.SIGKILL)
            time.sleep(0.05)
            served = engine.submit(ServeRequest(words)).result()
            assert (served.predictions == reference).all()
        finally:
            engine.stop()
        assert shm_entries(prefix) == []

    def test_shard_with_no_replica_fails_requests(self, fitted):
        task, clf = fitted
        words = clf.encoder.encode_packed(task.test_x[:4]).words
        plan = ShardPlan.by_class(clf.model.num_classes, 2)
        engine = ServingEngine(clf, num_workers=2, shard_plan=plan,
                               ring_slots=16)
        try:
            engine.submit(ServeRequest(words)).result()  # warm-up trip
            os.kill(engine.workers[1].pid, signal.SIGKILL)
            time.sleep(0.05)
            result = engine.submit(ServeRequest(words)).result(timeout=10.0)
            assert result.expired and not result.ok
        finally:
            engine.stop()


class TestShardedLiveRecovery:
    @pytest.mark.parametrize("kind", ["class", "word"])
    def test_concurrent_attack_and_recover_bit_identical(
        self, kind, predict_rows
    ):
        """The tentpole equivalence: attack-and-recover published into a
        *sharded* live engine ends bit-identical to the sequential
        reference — final model words and served predictions."""
        from repro.core.pipeline import RecoveryExperiment
        from repro.core.recovery import RecoveryConfig

        task = make_prototype_classification(
            "shard-recover", num_features=12, num_classes=4,
            num_train=160, num_test=80, seed=21,
        )

        class Recorder:
            def __init__(self):
                self.words = None
                self.generations = 0

            def publish(self, model):
                packed = model.packed()
                self.words = packed.words.copy()
                self.generations += 1
                return self.generations

            def touch(self):
                pass

        def experiment():
            return RecoveryExperiment(dataset=task, dim=1000, epochs=2,
                                      levels=8, seed=22)

        recorder = Recorder()
        reference = experiment()
        ref_outcome = reference.attack_and_recover(
            0.15, config=RecoveryConfig(), passes=1, seed=23,
            publisher=recorder,
        )
        eval_words = reference._eval_packed.words

        concurrent = experiment()
        plan = (
            ShardPlan.by_class(concurrent.classifier.model.num_classes, 2)
            if kind == "class"
            else ShardPlan.by_word(1000, 2)
        )
        engine = ServingEngine(
            concurrent.classifier, num_workers=2, shard_plan=plan
        )
        prefix = engine.config.prefix
        try:
            outcome = concurrent.attack_and_recover(
                0.15, config=RecoveryConfig(), passes=1, seed=23,
                publisher=engine.publisher,
            )
            served = predict_rows(engine, eval_words)
        finally:
            engine.stop()
        assert shm_entries(prefix) == []
        assert outcome.accuracy_trace == ref_outcome.accuracy_trace
        reference_predictions = np.argmin(
            np.bitwise_count(
                recorder.words[None, :, :] ^ eval_words[:, None, :]
            ).sum(axis=2),
            axis=1,
        ).astype(np.int64)
        assert (served == reference_predictions).all()


class TestShardedPublisher:
    def test_generation_segments_per_shard(self, fitted):
        """Each published generation materialises one segment per shard;
        retire unlinks the whole set."""
        task, clf = fitted
        plan = ShardPlan.by_word(clf.encoder.dim, 2)
        engine = ServingEngine(clf, num_workers=2, shard_plan=plan)
        prefix = engine.config.prefix
        try:
            gen_segments = [
                e for e in shm_entries(prefix) if "-g1-" in e
            ]
            assert len(gen_segments) == 2
            model = HDCModel(class_hv=clf.model.class_hv.copy())
            for _ in range(4):  # publish past retire_lag
                with model.writable() as hv:
                    hv[0, 0] ^= 1
                engine.publisher.publish(model)
            names = shm_entries(prefix)
            assert not any("-g1-" in e for e in names)  # retired set gone
            words = clf.encoder.encode_packed(task.test_x).words
            served = engine.submit(ServeRequest(words)).result().predictions
            expected = np.argmin(
                model.packed().distances(words), axis=1
            ).astype(np.int64)
            assert (served == expected).all()
        finally:
            engine.stop()
        assert shm_entries(prefix) == []
