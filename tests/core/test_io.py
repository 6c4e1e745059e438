"""Tests for model persistence."""

import numpy as np
import pytest

from repro.core.encoder import Encoder
from repro.core.io import load_classifier, save_classifier
from repro.core.model import HDCClassifier
from repro.datasets.synthetic import make_prototype_classification


@pytest.fixture(scope="module")
def fitted():
    task = make_prototype_classification(
        "toy", num_features=20, num_classes=3, num_train=150, num_test=60,
        seed=14,
    )
    encoder = Encoder(num_features=20, dim=512, levels=16, seed=5)
    clf = HDCClassifier(encoder, num_classes=3, epochs=1, seed=2).fit(
        task.train_x, task.train_y
    )
    return task, clf


class TestSaveLoad:
    def test_roundtrip_predictions_identical(self, fitted, tmp_path):
        task, clf = fitted
        path = tmp_path / "model.npz"
        save_classifier(path, clf)
        loaded = load_classifier(path)
        assert (loaded.predict(task.test_x) == clf.predict(task.test_x)).all()

    def test_roundtrip_model_bits_identical(self, fitted, tmp_path):
        _, clf = fitted
        path = tmp_path / "model.npz"
        save_classifier(path, clf)
        loaded = load_classifier(path)
        assert (loaded.model.class_hv == clf.model.class_hv).all()
        assert loaded.model.bits == clf.model.bits

    def test_encoder_regenerated_identically(self, fitted, tmp_path):
        task, clf = fitted
        path = tmp_path / "model.npz"
        save_classifier(path, clf)
        loaded = load_classifier(path)
        x = task.test_x[:3]
        assert (
            loaded.encoder.encode_batch(x) == clf.encoder.encode_batch(x)
        ).all()

    def test_hyperparameters_preserved(self, fitted, tmp_path):
        _, clf = fitted
        path = tmp_path / "model.npz"
        save_classifier(path, clf)
        loaded = load_classifier(path)
        assert loaded.num_classes == clf.num_classes
        assert loaded.epochs == clf.epochs
        assert loaded.encoder.levels == clf.encoder.levels

    def test_unfitted_rejected(self, tmp_path):
        encoder = Encoder(num_features=4, dim=64, seed=0)
        clf = HDCClassifier(encoder, num_classes=2)
        with pytest.raises(ValueError, match="not fitted"):
            save_classifier(tmp_path / "m.npz", clf)

    def test_version_check(self, fitted, tmp_path):
        _, clf = fitted
        path = tmp_path / "model.npz"
        save_classifier(path, clf)
        data = dict(np.load(path))
        data["format_version"] = np.int64(99)
        np.savez_compressed(path, **data)
        with pytest.raises(ValueError, match="version"):
            load_classifier(path)


class TestEncodeBlockBytesPersistence:
    """The blocking budget is a constant: new files are v1 and carry
    none, and a v2 file's stored budget is read past."""

    @pytest.mark.parametrize("stored", [-1, 12_345])
    def test_v2_stored_budget_ignored(self, fitted, tmp_path, stored):
        task, clf = fitted
        path = tmp_path / "m.npz"
        save_classifier(path, clf)
        data = dict(np.load(path))
        # Rewrite the artefact as a v2 file: v1 plus the budget field
        # (-1 stood for "the default").
        data["format_version"] = np.int64(2)
        data["encode_block_bytes"] = np.int64(stored)
        np.savez_compressed(path, **data)
        loaded = load_classifier(path)
        assert repr(loaded.encoder) == repr(clf.encoder)
        assert (loaded.predict(task.test_x) == clf.predict(task.test_x)).all()

    def test_v1_file_loads_with_documented_default(self, fitted, tmp_path):
        _, clf = fitted
        path = tmp_path / "m.npz"
        save_classifier(path, clf)
        with np.load(path) as data:
            assert int(data["format_version"]) == 1
            assert "encode_block_bytes" not in data
        loaded = load_classifier(path)
        assert repr(loaded.encoder) == repr(clf.encoder)
        assert (loaded.model.class_hv == clf.model.class_hv).all()


class TestLoadedFittedStateInvariants:
    """Loading routes through HDCClassifier.from_model, not attribute
    assignment — a loaded model starts at packed-cache version 0 by
    contract and serves packed predictions immediately."""

    def test_loaded_model_version_zero(self, fitted, tmp_path):
        _, clf = fitted
        path = tmp_path / "m.npz"
        save_classifier(path, clf)
        loaded = load_classifier(path)
        assert loaded.model.version == 0

    def test_loaded_classifier_serves_packed_predictions(self, fitted,
                                                         tmp_path):
        task, clf = fitted
        path = tmp_path / "m.npz"
        save_classifier(path, clf)
        loaded = load_classifier(path)
        packed = loaded.encoder.encode_packed(task.test_x)
        # Packed ingest straight after load: exercises the packed cache
        # from version 0 and must match the original's predictions.
        assert (loaded.model.predict(packed) == clf.predict(task.test_x)).all()
        assert loaded.model.packed().version == 0

    def test_from_model_rejects_dim_mismatch(self, fitted):
        _, clf = fitted
        bad_encoder = Encoder(num_features=20, dim=clf.encoder.dim * 2,
                              levels=16, seed=5)
        with pytest.raises(ValueError, match="dim"):
            HDCClassifier.from_model(bad_encoder, clf.model)

    def test_num_classes_consistency_check(self, fitted, tmp_path):
        _, clf = fitted
        path = tmp_path / "m.npz"
        save_classifier(path, clf)
        data = dict(np.load(path))
        data["num_classes"] = np.int64(7)
        np.savez_compressed(path, **data)
        with pytest.raises(ValueError, match="num_classes"):
            load_classifier(path)
