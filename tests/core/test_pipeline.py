"""Tests for the end-to-end RecoveryExperiment pipeline."""

import numpy as np
import pytest

from repro.core.packed import float_backend
from repro.core.pipeline import RecoveryExperiment
from repro.core.recovery import RecoveryConfig
from repro.datasets.synthetic import make_prototype_classification


@pytest.fixture(scope="module")
def experiment():
    task = make_prototype_classification(
        "toy", num_features=50, num_classes=4, num_train=260, num_test=200,
        boundary_fraction=0.4, boundary_depth=(0.25, 0.45), seed=8,
    )
    return RecoveryExperiment(dataset=task, dim=2_000, epochs=0, stream_fraction=0.5,
                              seed=0)


class TestConstruction:
    def test_splits(self, experiment):
        assert experiment.stream_queries.shape[0] == 100
        assert experiment.eval_queries.shape[0] == 100
        assert experiment.eval_labels.shape[0] == 100

    def test_clean_accuracy_reasonable(self, experiment):
        assert experiment.clean_accuracy > 0.7

    def test_bad_stream_fraction(self):
        task = make_prototype_classification(
            "toy", num_features=10, num_classes=2, num_train=20, num_test=10,
            seed=1,
        )
        with pytest.raises(ValueError, match="stream_fraction"):
            RecoveryExperiment(dataset=task, dim=500, stream_fraction=1.0)


class TestAttackOnly:
    def test_loss_grows_with_rate(self, experiment):
        small = np.mean([experiment.attack_only(0.02, seed=s) for s in range(5)])
        large = np.mean([experiment.attack_only(0.25, seed=s) for s in range(5)])
        assert large > small

    def test_zero_rate_zero_loss(self, experiment):
        assert experiment.attack_only(0.0, seed=0) == 0.0

    def test_seeded(self, experiment):
        assert experiment.attack_only(0.1, seed=4) == experiment.attack_only(
            0.1, seed=4
        )


class TestAttackAndRecover:
    def test_outcome_structure(self, experiment):
        out = experiment.attack_and_recover(0.10, passes=2, seed=1)
        assert out.clean_accuracy == experiment.clean_accuracy
        assert len(out.accuracy_trace) == 2
        assert out.recovered_accuracy == out.accuracy_trace[-1]
        assert out.loss_without_recovery == pytest.approx(
            out.clean_accuracy - out.attacked_accuracy
        )
        assert out.stats.queries_seen == 2 * experiment.stream_queries.shape[0]

    def test_model_is_restored_between_runs(self, experiment):
        """attack_and_recover must not mutate the experiment's clean model."""
        before = experiment.model.class_hv.copy()
        experiment.attack_and_recover(0.10, passes=1, seed=2)
        assert (experiment.model.class_hv == before).all()

    def test_custom_config(self, experiment):
        config = RecoveryConfig(confidence_threshold=0.99,
                                substitution_rate=0.05)
        out = experiment.attack_and_recover(0.05, config, passes=1, seed=3)
        assert out.stats.queries_trusted <= out.stats.queries_seen

    def test_bad_passes(self, experiment):
        with pytest.raises(ValueError, match="passes"):
            experiment.attack_and_recover(0.1, passes=0)

    def test_packed_and_float_outcomes_identical(self, experiment):
        """End to end: the same seeded attack→recover run produces an
        identical RecoveryOutcome on the packed and float backends."""
        packed_out = experiment.attack_and_recover(0.10, passes=2, seed=6)
        with float_backend():
            float_out = experiment.attack_and_recover(0.10, passes=2, seed=6)
        assert packed_out.attacked_accuracy == float_out.attacked_accuracy
        assert packed_out.recovered_accuracy == float_out.recovered_accuracy
        assert packed_out.accuracy_trace == float_out.accuracy_trace
        assert (
            packed_out.stats.bits_substituted
            == float_out.stats.bits_substituted
        )
        assert (
            packed_out.stats.confidence_trace
            == float_out.stats.confidence_trace
        )

    def test_block_size_does_not_change_outcome(self, experiment):
        serial = experiment.attack_and_recover(
            0.10, RecoveryConfig(block_size=1), passes=1, seed=7
        )
        batched = experiment.attack_and_recover(
            0.10, RecoveryConfig(block_size=64), passes=1, seed=7
        )
        assert serial.recovered_accuracy == batched.recovered_accuracy
        assert serial.stats.bits_substituted == batched.stats.bits_substituted
