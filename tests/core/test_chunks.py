"""Tests for noisy-chunk detection."""

import numpy as np
import pytest

from repro.core.chunks import (
    chunk_accuracy_profile,
    chunk_similarities,
    chunk_similarities_batch,
    detect_faulty_chunks,
    detect_faulty_chunks_batch,
)
from repro.core.encoder import Encoder
from repro.core.model import HDCClassifier, HDCModel
from repro.core.packed import pack
from repro.datasets.synthetic import make_prototype_classification
from repro.obs.metrics import MetricsRegistry, use_metrics


@pytest.fixture(scope="module")
def fitted():
    task = make_prototype_classification(
        "toy", num_features=40, num_classes=4, num_train=200, num_test=80,
        boundary_fraction=0.2, boundary_depth=(0.25, 0.4), seed=6,
    )
    encoder = Encoder(num_features=40, dim=1_000, seed=2)
    clf = HDCClassifier(encoder, num_classes=4, epochs=0).fit(
        task.train_x, task.train_y
    )
    encoded_test = encoder.encode_batch(task.test_x)
    return clf.model, encoded_test, np.asarray(task.test_y)


class TestChunkSimilarities:
    def test_chunks_sum_to_global(self, fitted):
        """Per-chunk scores partition the full similarity exactly."""
        model, queries, _ = fitted
        q = queries[0]
        sims = chunk_similarities(model, q, 10)
        total = model.similarities(q[None, :])[0]
        assert np.allclose(sims.sum(axis=0), total)

    def test_shape(self, fitted):
        model, queries, _ = fitted
        assert chunk_similarities(model, queries[0], 20).shape == (20, 4)

    def test_rejects_batch(self, fitted):
        model, queries, _ = fitted
        with pytest.raises(ValueError, match="single 1-D"):
            chunk_similarities(model, queries[:2], 10)

    def test_rejects_dim_mismatch(self, fitted):
        model, _, _ = fitted
        with pytest.raises(ValueError, match="dim"):
            chunk_similarities(model, np.zeros(999, dtype=np.uint8), 10)


class TestDetectFaultyChunks:
    def test_clean_model_mostly_healthy(self, fitted):
        model, queries, labels = fitted
        flags = 0
        for q in queries[:30]:
            pred = int(model.predict(q[None, :])[0])
            flags += detect_faulty_chunks(model, q, pred, 10, margin=0.03).sum()
        assert flags / (30 * 10) < 0.10

    def test_damaged_chunk_detected(self, fitted):
        """Concentrated damage in one chunk of the right class trips the
        detector for that chunk specifically."""
        model, queries, labels = fitted
        damaged = model.copy()
        q = queries[0]
        pred = int(model.predict(q[None, :])[0])
        # Invert chunk 3 of the predicted class outright.
        d = model.dim // 10
        damaged.class_hv[pred, 3 * d : 4 * d] ^= 1
        faulty = detect_faulty_chunks(damaged, q, pred, 10, margin=0.03)
        assert faulty[3]

    def test_margin_zero_is_strict(self, fitted):
        model, queries, _ = fitted
        q = queries[0]
        pred = int(model.predict(q[None, :])[0])
        strict = detect_faulty_chunks(model, q, pred, 10, margin=0.0)
        lenient = detect_faulty_chunks(model, q, pred, 10, margin=0.2)
        assert strict.sum() >= lenient.sum()

    def test_bad_predicted(self, fitted):
        model, queries, _ = fitted
        with pytest.raises(ValueError, match="predicted class"):
            detect_faulty_chunks(model, queries[0], 99, 10)

    def test_bad_margin(self, fitted):
        model, queries, _ = fitted
        with pytest.raises(ValueError, match="margin"):
            detect_faulty_chunks(model, queries[0], 0, 10, margin=-0.1)


class TestBatchedChunkOps:
    """The batched sweeps must equal per-query loops on both backends."""

    # dim=1280/m=20 gives word-aligned chunks; the fitted fixture
    # (dim=1000/m=10) gives chunks that start and end inside words.
    @pytest.fixture(scope="class")
    def aligned(self):
        rng = np.random.default_rng(21)
        model = HDCModel(rng.integers(0, 2, (5, 1280), dtype=np.uint8))
        queries = rng.integers(0, 2, (16, 1280), dtype=np.uint8)
        return model, queries

    def test_batch_equals_loop_aligned(self, aligned):
        model, queries = aligned
        batched = chunk_similarities_batch(model, queries, 20)
        looped = np.stack(
            [chunk_similarities(model, q, 20) for q in queries]
        )
        assert (batched == looped).all()

    def test_batch_equals_loop_fallback(self, fitted):
        model, queries, _ = fitted
        batched = chunk_similarities_batch(model, queries[:16], 10)
        looped = np.stack([
            chunk_similarities(model, q.astype(np.float64), 10)
            for q in queries[:16]
        ])
        assert (batched == looped).all()

    # Chunk sizes 1000, 125, 100, 25 and 1: none a multiple of 64.
    @pytest.mark.parametrize("num_chunks", [1, 8, 10, 40, 1000])
    def test_unaligned_packed_and_uint8_equal_einsum(self, fitted,
                                                     num_chunks):
        """At chunk sizes off the word grid, packed and uint8 queries
        take the packed kernel and equal the float einsum exactly."""
        model, queries, _ = fitted
        block = queries[:12]
        einsum = chunk_similarities_batch(
            model, block.astype(np.float64), num_chunks
        )
        with use_metrics(MetricsRegistry()) as registry:
            from_uint8 = chunk_similarities_batch(model, block, num_chunks)
            from_packed = chunk_similarities_batch(
                model, pack(block), num_chunks
            )
        assert registry.counter("chunks.detect_batches_packed") == 2
        assert registry.counter("chunks.detect_batches_float") == 0
        assert (from_uint8 == einsum).all()
        assert (from_packed == einsum).all()

    def test_detect_batch_equals_loop(self, aligned):
        model, queries = aligned
        preds = model.predict(queries)
        batched = detect_faulty_chunks_batch(model, queries, preds, 20, 0.02)
        looped = np.stack(
            [
                detect_faulty_chunks(model, q, int(p), 20, 0.02)
                for q, p in zip(queries, preds)
            ]
        )
        assert (batched == looped).all()

    def test_detect_batch_validates_predicted(self, aligned):
        model, queries = aligned
        with pytest.raises(ValueError, match="predicted class"):
            detect_faulty_chunks_batch(
                model, queries, np.full(queries.shape[0], 99), 20
            )
        with pytest.raises(ValueError, match="predicted must be"):
            detect_faulty_chunks_batch(model, queries, np.array([0]), 20)


class TestChunkAccuracyProfile:
    def test_batched_equals_loop_reference(self, fitted):
        """The vectorised profile matches the per-query loop it replaced."""
        model, queries, labels = fitted
        vectorised = chunk_accuracy_profile(
            model, queries[:40], labels[:40], 10
        )
        hits = np.zeros(10, dtype=np.int64)
        for query, label in zip(queries[:40], labels[:40]):
            sims = chunk_similarities(model, query, 10)
            hits += np.argmax(sims, axis=1) == label
        assert (vectorised == hits / 40.0).all()

    def test_profile_above_chance(self, fitted):
        model, queries, labels = fitted
        profile = chunk_accuracy_profile(model, queries[:40], labels[:40], 10)
        assert profile.shape == (10,)
        assert (profile > 1.0 / 4).all()  # every chunk beats chance

    def test_damage_dents_profile(self, fitted):
        model, queries, labels = fitted
        damaged = model.copy()
        d = model.dim // 10
        damaged.class_hv[:, 5 * d : 6 * d] ^= 1  # nuke chunk 5 of all classes
        clean = chunk_accuracy_profile(model, queries[:40], labels[:40], 10)
        hurt = chunk_accuracy_profile(damaged, queries[:40], labels[:40], 10)
        assert hurt[5] < clean[5]
