"""Cross-module consistency checks tying the substrates together."""

import numpy as np
import pytest

from repro.core.encoder import Encoder
from repro.core.model import HDCClassifier
from repro.core.packed import pack, packed_hamming_distance
from repro.datasets.synthetic import make_prototype_classification
from repro.faults.api import attack
from repro.pim.dpim import DPIM
from repro.pim.executor import HDCExecutor
from repro.pim.mapping import map_hdc_model, writes_per_cell_per_inference


@pytest.fixture(scope="module")
def fitted():
    task = make_prototype_classification(
        "toy", num_features=24, num_classes=3, num_train=150, num_test=60,
        seed=18,
    )
    encoder = Encoder(num_features=24, dim=512, seed=8)
    clf = HDCClassifier(encoder, num_classes=3, epochs=0).fit(
        task.train_x, task.train_y
    )
    queries = encoder.encode_batch(task.test_x)
    return clf.model, queries


class TestThreeWayPredictionAgreement:
    def test_reference_packed_and_pim_agree(self, fitted):
        """The numpy reference, the packed backend and the functional
        crossbar executor all classify identically."""
        model, queries = fitted
        ref = model.predict(queries[:15].astype(np.float64))
        packed = model.predict(queries[:15])
        pim = HDCExecutor(model, tile_rows=512).classify_batch(queries[:15])
        assert (ref == packed).all()
        assert (ref == pim).all()

    def test_agreement_survives_attack(self, fitted):
        """All three backends see the *same* corrupted bits."""
        model, queries = fitted
        attacked, _ = attack(
            model, 0.15, "random", np.random.default_rng(0)
        )
        ref = attacked.predict(queries[:10].astype(np.float64))
        packed = attacked.predict(queries[:10])
        pim = HDCExecutor(attacked, tile_rows=512).classify_batch(queries[:10])
        assert (ref == packed).all()
        assert (ref == pim).all()


class TestCostModelCrossCheck:
    def test_executor_volume_below_analytic_classify(self, fitted):
        """The functional executor implements the XOR stage in-memory and
        the popcount peripherally, so its gate volume must be bounded by
        the analytic model's full in-memory classify (XOR + popcount)."""
        model, queries = fitted
        executor = HDCExecutor(model, tile_rows=512)
        executor.classify(queries[0])
        analytic = DPIM().hdc_classify(model.dim, model.num_classes)
        assert 0 < executor.cost.gate_evals <= analytic.gate_evals

    def test_mapping_consistent_with_model(self, fitted):
        model, _ = fitted
        placement = map_hdc_model(24, model.dim, model.num_classes)
        kernel = DPIM().hdc_inference(24, model.dim, model.num_classes)
        wpc = writes_per_cell_per_inference(placement, kernel)
        assert wpc > 0
        # More rotation, less wear.
        assert writes_per_cell_per_inference(placement, kernel, 64) < wpc


class TestPackedDistancesMatchModelScores:
    def test_argmin_distance_is_argmax_similarity(self, fitted):
        model, queries = fitted
        packed_model = pack(model.class_hv)
        for q in queries[:10]:
            dists = packed_hamming_distance(pack(q).words[0],
                                            packed_model.words)
            assert int(np.argmin(dists)) == int(model.predict(q[None, :])[0])
