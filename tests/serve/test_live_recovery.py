"""Live-recovery serving tests: snapshot adoption, bit-identity, degraded mode.

The headline equivalence pin: a seeded attack-and-recover run publishing
generations into a serving engine under live traffic must end
bit-identical — final model words *and* served predictions — to the same
run executed sequentially with no serving tier attached.  Publishing
draws from no RNG and reads only the version-stamped packed cache, so
any divergence is a real concurrency bug.
"""

import glob
import threading
import time

import numpy as np
import pytest

from repro.core.packed import PackedModel
from repro.core.pipeline import RecoveryExperiment
from repro.core.recovery import ModelPublisher, RecoveryConfig
from repro.datasets.synthetic import make_prototype_classification
from repro.serve import ServingEngine


class RecordingPublisher:
    """In-process ModelPublisher keeping the last published snapshot."""

    def __init__(self):
        self.words = None
        self.version = 0
        self.generations = 0
        self.touches = 0

    def publish(self, model):
        packed = model.packed()
        self.words = packed.words.copy()
        self.version = packed.version
        self.generations += 1
        return self.generations

    def touch(self):
        self.touches += 1


@pytest.fixture(scope="module")
def task():
    return make_prototype_classification(
        "live", num_features=16, num_classes=5, num_train=300, num_test=200,
        seed=0,
    )


def make_experiment(task):
    return RecoveryExperiment(dataset=task, dim=1_000, epochs=2, levels=16,
                              seed=7)


def run_reference(task):
    recorder = RecordingPublisher()
    experiment = make_experiment(task)
    outcome = experiment.attack_and_recover(
        0.2, config=RecoveryConfig(), passes=2, seed=11, publisher=recorder,
    )
    return experiment, outcome, recorder


class TestPublisherContract:
    def test_recording_publisher_satisfies_protocol(self):
        assert isinstance(RecordingPublisher(), ModelPublisher)

    def test_publisher_does_not_change_outcome(self, task):
        bare = make_experiment(task).attack_and_recover(
            0.2, config=RecoveryConfig(), passes=2, seed=11,
        )
        _, published, recorder = run_reference(task)
        assert published.accuracy_trace == bare.accuracy_trace
        assert published.recovered_accuracy == bare.recovered_accuracy
        assert recorder.generations >= 1

    def test_blocks_without_writes_heartbeat_instead(self, task):
        from repro.core.recovery import RobustHDRecovery

        experiment = make_experiment(task)
        recorder = RecordingPublisher()
        recovery = RobustHDRecovery(
            experiment.model, RecoveryConfig(), seed=1, publisher=recorder,
        )
        # _announce runs once per processed block: the first announce
        # publishes the initial model as a generation; an announce with
        # no intervening model write must heartbeat, not republish an
        # identical generation; a write makes the next one publish again.
        recovery._announce()
        recovery._announce()
        assert (recorder.generations, recorder.touches) == (1, 1)
        with experiment.model.writable() as hv:
            hv[0, 0] ^= 1
        recovery._announce()
        assert (recorder.generations, recorder.touches) == (2, 1)


class TestConcurrentBitIdentity:
    def test_concurrent_run_matches_sequential_reference(
        self, task, predict_rows
    ):
        reference, ref_outcome, recorder = run_reference(task)
        eval_words = reference._eval_packed.words

        concurrent = make_experiment(task)
        engine = ServingEngine(concurrent.classifier, num_workers=2)
        prefix = engine.config.prefix
        stop = threading.Event()
        rounds = 0

        def traffic():
            nonlocal rounds
            while not stop.is_set():
                predict_rows(engine, eval_words)
                rounds += 1

        thread = threading.Thread(target=traffic, daemon=True)
        thread.start()
        try:
            outcome = concurrent.attack_and_recover(
                0.2, config=RecoveryConfig(), passes=2, seed=11,
                publisher=engine.publisher_for(engine.tenants[0]),
            )
            final_predictions = predict_rows(engine, eval_words)
        finally:
            stop.set()
            thread.join()
            engine.stop()

        # The run itself is unperturbed by concurrent serving...
        assert outcome.accuracy_trace == ref_outcome.accuracy_trace
        assert outcome.recovered_accuracy == ref_outcome.recovered_accuracy
        # ...the published generations match the sequential recorder...
        publisher = engine.publisher_for(engine.tenants[0])
        assert publisher.generation - 1 == recorder.generations
        # ...and the last served snapshot is bit-identical: model words
        # (via served predictions on the recovered model) included.
        ref_model = PackedModel(words=recorder.words, dim=1_000,
                                version=recorder.version)
        ref_predictions = np.argmin(ref_model.distances(eval_words), axis=1)
        assert (final_predictions == ref_predictions).all()
        assert rounds >= 1  # traffic genuinely overlapped the recovery
        assert glob.glob(f"/dev/shm/{prefix}*") == []

    def test_requests_after_publish_see_new_generation(
        self, task, predict_rows
    ):
        experiment = make_experiment(task)
        eval_words = experiment._eval_packed.words
        engine = ServingEngine(experiment.classifier, num_workers=1)
        try:
            predict_rows(engine, eval_words)  # generation 1 traffic
            model = experiment.model
            with model.writable() as hv:
                hv[:, 0] ^= 1  # flip every class's first bit
            engine.publisher_for(engine.tenants[0]).publish(model)
            served = predict_rows(engine, eval_words)
            expected = np.argmin(model.packed().distances(eval_words), axis=1)
            assert (served == expected).all()
            assert engine.trace.last.generation == 2
        finally:
            engine.stop()


class TestDegradedMode:
    def test_stalled_writer_flags_degraded_batches(self, task, predict_rows):
        experiment = make_experiment(task)
        eval_words = experiment._eval_packed.words
        engine = ServingEngine(experiment.classifier, num_workers=1,
                               stall_timeout=0.05)
        try:
            predict_rows(engine, eval_words)
            assert engine.trace.degraded_batches == 0
            # A writer registers (touch), then stalls past the threshold.
            engine.publisher_for(engine.tenants[0]).touch()
            time.sleep(0.2)
            predict_rows(engine, eval_words)
            last = engine.trace.last
            assert last.degraded
            assert last.staleness_s >= 0.05
            # Serving carried on regardless: availability over freshness.
            assert engine.trace.requests_expired == 0
        finally:
            engine.stop()

    def test_idle_engine_without_writer_is_not_degraded(
        self, task, predict_rows
    ):
        experiment = make_experiment(task)
        eval_words = experiment._eval_packed.words
        engine = ServingEngine(experiment.classifier, num_workers=1,
                               stall_timeout=0.05)
        try:
            time.sleep(0.2)  # far past the stall threshold, but no writer
            predict_rows(engine, eval_words)
            assert engine.trace.degraded_batches == 0
            assert engine.trace.last.staleness_s == 0.0
        finally:
            engine.stop()

    def test_finished_recovery_deregisters_writer(self, task, predict_rows):
        experiment = make_experiment(task)
        eval_words = experiment._eval_packed.words
        engine = ServingEngine(experiment.classifier, num_workers=1,
                               stall_timeout=0.05)
        try:
            experiment.attack_and_recover(
                0.2, config=RecoveryConfig(), passes=1, seed=11,
                publisher=engine.publisher_for(engine.tenants[0]),
            )
            time.sleep(0.2)  # recovery done; its silence is not a stall
            predict_rows(engine, eval_words)
            assert engine.trace.last is not None
            assert not engine.trace.last.degraded
        finally:
            engine.stop()
