"""Tests for the HDC classifier and quantised model."""

import numpy as np
import pytest

from repro.core.encoder import Encoder
from repro.core.hypervector import class_bundle_counts, hamming_similarity
from repro.core.model import (
    HDCClassifier,
    HDCModel,
    _perceptron_epoch,
    _perceptron_epoch_reference,
    quantize_accumulator,
)
from repro.core.packed import pack, unpack
from repro.datasets.synthetic import make_prototype_classification


@pytest.fixture(scope="module")
def task():
    return make_prototype_classification(
        "toy", num_features=40, num_classes=4, num_train=240, num_test=120,
        boundary_fraction=0.3, boundary_depth=(0.25, 0.45), seed=5,
    )


@pytest.fixture(scope="module")
def encoder(task):
    return Encoder(num_features=task.num_features, dim=1_024, seed=1)


class TestQuantizeAccumulator:
    def test_one_bit_is_sign(self):
        acc = np.array([[-3, 0, 2, -1, 5]])
        out = quantize_accumulator(acc, 1)
        assert out.dtype == np.uint8
        assert list(out[0]) == [0, 0, 1, 0, 1]

    def test_two_bit_range(self):
        acc = np.array([[-10, -3, 3, 10]])
        out = quantize_accumulator(acc, 2)
        assert out.min() == 0 and out.max() == 3
        assert out[0, 0] == 0 and out[0, 3] == 3

    def test_per_class_scaling(self):
        """Each row scales by its own peak."""
        acc = np.array([[-1, 1], [-100, 100]])
        out = quantize_accumulator(acc, 2)
        assert (out[0] == out[1]).all()

    def test_zero_row_stable(self):
        out = quantize_accumulator(np.zeros((2, 4)), 2)
        assert out.shape == (2, 4)

    @pytest.mark.parametrize("bits", [0, 9])
    def test_bad_bits(self, bits):
        with pytest.raises(ValueError):
            quantize_accumulator(np.zeros((1, 4)), bits)

    def test_needs_2d(self):
        with pytest.raises(ValueError, match="k, D"):
            quantize_accumulator(np.zeros(4), 1)


class TestHDCModel:
    def test_validation(self):
        with pytest.raises(ValueError, match="uint8"):
            HDCModel(class_hv=np.zeros((2, 8), dtype=np.int64), bits=1)
        with pytest.raises(ValueError, match="levels above"):
            HDCModel(class_hv=np.full((2, 8), 2, dtype=np.uint8), bits=1)
        with pytest.raises(ValueError, match="num_classes, dim"):
            HDCModel(class_hv=np.zeros(8, dtype=np.uint8), bits=1)

    def test_properties(self):
        m = HDCModel(class_hv=np.zeros((3, 16), dtype=np.uint8), bits=2)
        assert m.num_classes == 3
        assert m.dim == 16
        assert m.total_bits == 3 * 16 * 2

    def test_copy_is_deep(self):
        m = HDCModel(class_hv=np.zeros((2, 8), dtype=np.uint8), bits=1)
        c = m.copy()
        c.class_hv[0, 0] = 1
        assert m.class_hv[0, 0] == 0

    def test_one_bit_similarity_equals_hamming(self):
        """Argmax under the centred dot product matches Hamming argmax."""
        rng = np.random.default_rng(2)
        hv = rng.integers(0, 2, (4, 256), dtype=np.uint8)
        m = HDCModel(class_hv=hv, bits=1)
        q = rng.integers(0, 2, 256, dtype=np.uint8)
        sims = m.similarities(q[None, :])[0]
        hams = np.array([hamming_similarity(q, hv[c]) for c in range(4)])
        assert np.argmax(sims) == np.argmax(hams)
        # And the ordering of all classes agrees, not just the winner.
        assert (np.argsort(sims) == np.argsort(hams)).all()

    def test_query_dim_mismatch(self):
        m = HDCModel(class_hv=np.zeros((2, 8), dtype=np.uint8), bits=1)
        with pytest.raises(ValueError, match="dim"):
            m.predict(np.zeros((1, 9), dtype=np.uint8))


class TestPackedModelCache:
    def _model_and_queries(self):
        rng = np.random.default_rng(9)
        m = HDCModel(rng.integers(0, 2, (5, 300), dtype=np.uint8))
        queries = rng.integers(0, 2, (12, 300), dtype=np.uint8)
        return m, queries

    def test_predict_packs_model_once(self, monkeypatch):
        """Two consecutive calls must reuse one packed snapshot."""
        import repro.core.model as model_mod

        m, queries = self._model_and_queries()
        real = model_mod._pack_bits
        packed_shapes = []

        def counting_pack(batch):
            packed_shapes.append(batch.shape)
            return real(batch)

        monkeypatch.setattr(model_mod, "_pack_bits", counting_pack)
        m.predict(queries)
        m.predict(queries)
        model_packs = [s for s in packed_shapes if s == m.class_hv.shape]
        assert len(model_packs) == 1

    def test_mutation_invalidates_cache(self):
        m, queries = self._model_and_queries()
        before = m.packed()
        assert m.packed() is before  # cached while untouched
        with m.writable() as hv:
            hv[0, :] ^= 1
        after = m.packed()
        assert after is not before
        assert after.version > before.version
        # The refreshed snapshot serves the mutated bits.
        expected = m.predict(queries.astype(np.float64))
        assert (m.predict(queries) == expected).all()

    def test_bump_version_is_explicit_contract(self):
        m, _ = self._model_and_queries()
        stale = m.packed()
        m.class_hv[0, 0] ^= 1  # direct write, contract violation...
        assert m.packed() is stale  # ...which the cache cannot see
        m.bump_version()  # honouring the contract refreshes it
        assert m.packed() is not stale

    def test_copy_does_not_share_cache(self):
        m, queries = self._model_and_queries()
        m.packed()
        c = m.copy()
        with c.writable() as hv:
            hv[:, :10] ^= 1
        for model in (m, c):
            expected = model.predict(queries.astype(np.float64))
            assert (model.predict(queries) == expected).all()

    def test_packed_rejects_multibit(self):
        m = HDCModel(class_hv=np.zeros((2, 64), dtype=np.uint8), bits=2)
        with pytest.raises(ValueError, match="1-bit"):
            m.packed()


class TestHDCClassifier:
    def test_learns_task(self, task, encoder):
        clf = HDCClassifier(encoder, num_classes=task.num_classes, epochs=0)
        clf.fit(task.train_x, task.train_y)
        assert clf.score(task.test_x, task.test_y) > 0.8

    def test_retraining_not_worse(self, task, encoder):
        encoded_train = encoder.encode_batch(task.train_x)
        encoded_test = encoder.encode_batch(task.test_x)
        base = HDCClassifier(
            encoder, num_classes=task.num_classes, epochs=0
        ).fit_encoded(encoded_train, task.train_y)
        tuned = HDCClassifier(
            encoder, num_classes=task.num_classes, epochs=3
        ).fit_encoded(encoded_train, task.train_y)
        acc0 = base.score_encoded(encoded_test, task.test_y)
        acc3 = tuned.score_encoded(encoded_test, task.test_y)
        assert acc3 >= acc0 - 0.05

    def test_two_bit_model_trains(self, task, encoder):
        clf = HDCClassifier(encoder, num_classes=task.num_classes, bits=2,
                            epochs=0)
        clf.fit(task.train_x, task.train_y)
        assert clf.model.bits == 2
        assert clf.score(task.test_x, task.test_y) > 0.7

    def test_deterministic(self, task, encoder):
        a = HDCClassifier(encoder, num_classes=task.num_classes, epochs=1,
                          seed=3).fit(task.train_x, task.train_y)
        b = HDCClassifier(encoder, num_classes=task.num_classes, epochs=1,
                          seed=3).fit(task.train_x, task.train_y)
        assert (a.model.class_hv == b.model.class_hv).all()

    def test_unfitted_predict_raises(self, encoder, task):
        clf = HDCClassifier(encoder, num_classes=task.num_classes)
        with pytest.raises(RuntimeError, match="not fitted"):
            clf.predict(task.test_x)

    def test_label_validation(self, encoder):
        clf = HDCClassifier(encoder, num_classes=3)
        encoded = np.zeros((2, 1_024), dtype=np.uint8)
        with pytest.raises(ValueError, match="labels must lie"):
            clf.fit_encoded(encoded, np.array([0, 3]))

    def test_sample_count_mismatch(self, encoder):
        clf = HDCClassifier(encoder, num_classes=3)
        with pytest.raises(ValueError, match="samples but"):
            clf.fit_encoded(
                np.zeros((2, 1_024), dtype=np.uint8), np.array([0])
            )

    def test_bad_construction(self, encoder):
        with pytest.raises(ValueError, match="num_classes"):
            HDCClassifier(encoder, num_classes=1)
        with pytest.raises(ValueError, match="epochs"):
            HDCClassifier(encoder, num_classes=3, epochs=-1)


class TestVectorisedFit:
    """The vectorised trainer must exactly replay the per-sample loop."""

    def _encoded(self, task, encoder):
        return (
            encoder.encode_batch(task.train_x),
            np.asarray(task.train_y, dtype=np.int64),
        )

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_epoch_matches_reference_loop(self, task, encoder, seed):
        encoded, labels = self._encoded(task, encoder)
        bipolar = (encoded.astype(np.int8) << 1) - 1
        acc_vec = class_bundle_counts(encoded, labels, task.num_classes)
        acc_ref = acc_vec.copy()
        wrong_vec = _perceptron_epoch(
            acc_vec, bipolar, labels, np.random.default_rng(seed)
        )
        wrong_ref = _perceptron_epoch_reference(
            acc_ref, bipolar, labels, np.random.default_rng(seed)
        )
        assert wrong_vec == wrong_ref
        assert (acc_vec == acc_ref).all()

    def test_full_fit_matches_reference_loop(self, task, encoder):
        """Pinned: fit_encoded == bundling + reference perceptron epochs."""
        encoded, labels = self._encoded(task, encoder)
        clf = HDCClassifier(
            encoder, num_classes=task.num_classes, epochs=3, seed=42
        ).fit_encoded(encoded, labels)

        acc = class_bundle_counts(encoded, labels, task.num_classes)
        bipolar = (encoded.astype(np.int8) << 1) - 1
        rng = np.random.default_rng(42)
        for _ in range(3):
            if _perceptron_epoch_reference(acc, bipolar, labels, rng) == 0:
                break
        assert (clf._acc == acc).all()
        assert (clf.model.class_hv == quantize_accumulator(acc, 1)).all()

    def test_bundling_matches_scatter_add(self, task, encoder):
        encoded, labels = self._encoded(task, encoder)
        acc = np.zeros(
            (task.num_classes, encoded.shape[1]), dtype=np.int64
        )
        np.add.at(acc, labels, encoded.astype(np.int64) * 2 - 1)
        assert (
            class_bundle_counts(encoded, labels, task.num_classes) == acc
        ).all()

    def test_fit_accepts_packed(self, task, encoder):
        encoded, labels = self._encoded(task, encoder)
        a = HDCClassifier(
            encoder, num_classes=task.num_classes, epochs=2, seed=0
        ).fit_encoded(encoded, labels)
        b = HDCClassifier(
            encoder, num_classes=task.num_classes, epochs=2, seed=0
        ).fit_encoded(pack(encoded), labels)
        assert (a.model.class_hv == b.model.class_hv).all()


class TestPartialFit:
    def test_chunked_stream_equals_single_pass_bundle(self, task, encoder):
        encoded = encoder.encode_batch(task.train_x)
        labels = np.asarray(task.train_y, dtype=np.int64)
        full = HDCClassifier(
            encoder, num_classes=task.num_classes, epochs=0, seed=0
        ).fit_encoded(encoded, labels)
        streamed = HDCClassifier(
            encoder, num_classes=task.num_classes, epochs=0, seed=0
        )
        for lo in range(0, encoded.shape[0], 37):
            streamed.partial_fit_encoded(
                encoded[lo : lo + 37], labels[lo : lo + 37]
            )
        assert (streamed.model.class_hv == full.model.class_hv).all()

    def test_chunk_order_irrelevant(self, task, encoder):
        encoded = encoder.encode_batch(task.train_x)
        labels = np.asarray(task.train_y, dtype=np.int64)
        fwd = HDCClassifier(encoder, num_classes=task.num_classes, epochs=0)
        rev = HDCClassifier(encoder, num_classes=task.num_classes, epochs=0)
        chunks = [(lo, lo + 60) for lo in range(0, encoded.shape[0], 60)]
        for lo, hi in chunks:
            fwd.partial_fit_encoded(encoded[lo:hi], labels[lo:hi])
        for lo, hi in reversed(chunks):
            rev.partial_fit_encoded(encoded[lo:hi], labels[lo:hi])
        assert (fwd._stream_acc == rev._stream_acc).all()

    def test_model_usable_after_each_chunk(self, task, encoder):
        encoded = encoder.encode_batch(task.train_x)
        labels = np.asarray(task.train_y, dtype=np.int64)
        clf = HDCClassifier(encoder, num_classes=task.num_classes, epochs=0)
        clf.partial_fit_encoded(encoded[:100], labels[:100])
        assert clf.model is not None
        assert clf.model.predict(encoded[:5]).shape == (5,)

    def test_stream_acc_is_int32(self, task, encoder):
        encoded = encoder.encode_batch(task.train_x[:50])
        labels = np.asarray(task.train_y[:50], dtype=np.int64)
        clf = HDCClassifier(encoder, num_classes=task.num_classes)
        clf.partial_fit_encoded(encoded, labels)
        assert clf._stream_acc.dtype == np.int32

    def test_partial_fit_raw_features(self, task, encoder):
        clf = HDCClassifier(encoder, num_classes=task.num_classes)
        clf.partial_fit(task.train_x[:80], task.train_y[:80])
        ref = HDCClassifier(
            encoder, num_classes=task.num_classes, epochs=0
        ).fit(task.train_x[:80], task.train_y[:80])
        assert (clf.model.class_hv == ref.model.class_hv).all()

    def test_dim_mismatch_rejected(self, task, encoder):
        clf = HDCClassifier(encoder, num_classes=task.num_classes)
        clf.partial_fit_encoded(
            np.zeros((4, 128), dtype=np.uint8), np.zeros(4, dtype=np.int64)
        )
        with pytest.raises(ValueError, match="stream accumulator"):
            clf.partial_fit_encoded(
                np.zeros((4, 64), dtype=np.uint8), np.zeros(4, dtype=np.int64)
            )

    def test_full_fit_resets_stream(self, task, encoder):
        encoded = encoder.encode_batch(task.train_x[:60])
        labels = np.asarray(task.train_y[:60], dtype=np.int64)
        clf = HDCClassifier(encoder, num_classes=task.num_classes, epochs=0)
        clf.partial_fit_encoded(encoded, labels)
        clf.fit_encoded(encoded, labels)
        assert clf._stream_acc is None

    def test_bad_labels_rejected(self, task, encoder):
        clf = HDCClassifier(encoder, num_classes=task.num_classes)
        with pytest.raises(ValueError, match="labels"):
            clf.partial_fit_encoded(
                np.zeros((2, 64), dtype=np.uint8),
                np.array([0, task.num_classes]),
            )


class TestPackedQueryIngest:
    @pytest.fixture(scope="class")
    def fitted(self, task, encoder):
        return HDCClassifier(
            encoder, num_classes=task.num_classes, epochs=0, seed=0
        ).fit(task.train_x, task.train_y)

    def test_similarities_match_uint8(self, task, encoder, fitted):
        encoded = encoder.encode_batch(task.test_x[:40])
        packed = encoder.encode_packed(task.test_x[:40])
        assert (
            fitted.model.similarities(packed)
            == fitted.model.similarities(encoded)
        ).all()

    def test_predict_matches_uint8(self, task, encoder, fitted):
        encoded = encoder.encode_batch(task.test_x[:40])
        packed = encoder.encode_packed(task.test_x[:40])
        assert (
            fitted.model.predict(packed) == fitted.model.predict(encoded)
        ).all()

    def test_float_queries_match_packed(self, task, encoder, fitted):
        packed = encoder.encode_packed(task.test_x[:10])
        want = fitted.model.predict(packed)
        as_float = unpack(packed).astype(np.float64)
        assert (fitted.model.predict(as_float) == want).all()

    def test_dim_mismatch_rejected(self, fitted):
        bad = pack(np.zeros((2, 64), dtype=np.uint8))
        with pytest.raises(ValueError, match="dim"):
            fitted.model.similarities(bad)

    def test_score_encoded_accepts_packed(self, task, encoder, fitted):
        encoded = encoder.encode_batch(task.test_x)
        packed = encoder.encode_packed(task.test_x)
        labels = np.asarray(task.test_y)
        assert fitted.score_encoded(packed, labels) == fitted.score_encoded(
            encoded, labels
        )

    def test_chunk_similarities_accept_packed(self, task, encoder, fitted):
        from repro.core.chunks import chunk_similarities_batch

        encoded = encoder.encode_batch(task.test_x[:8])
        packed = encoder.encode_packed(task.test_x[:8])
        for m in (2, 8):  # word-aligned (1024/8=128) and 1024/2=512
            assert (
                chunk_similarities_batch(fitted.model, packed, m)
                == chunk_similarities_batch(fitted.model, encoded, m)
            ).all()
