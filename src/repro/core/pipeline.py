"""End-to-end RobustHD pipeline: train, attack, recover, evaluate.

This is the orchestration layer the recovery experiments (Table 4,
Figure 3) are built on.  A :class:`RecoveryExperiment` bundles:

* a trained :class:`~repro.core.model.HDCClassifier` on a dataset;
* a held-out *evaluation* split (labels used only for scoring);
* an unlabeled *stream* split that feeds the online recovery — distinct
  from the evaluation split so the recovered model is never adapted on
  the data it is scored on;
* seeded attack + recovery runs returning before/after quality loss and
  the recovery statistics.

All hypervectors are encoded once up front; the experiment then varies
only the stored model bits and the recovery hyper-parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.encoder import Encoder
from repro.core.model import HDCClassifier, HDCModel
from repro.core.packed import pack, packed_backend_enabled, unpack
from repro.core.recovery import (
    ModelPublisher,
    RecoveryConfig,
    RecoveryStats,
    RobustHDRecovery,
)
from repro.datasets.synthetic import Dataset
from repro.faults.api import FaultMask, attack
from repro.obs.metrics import current as _metrics
from repro.obs.scorecard import FaultScorecard, fault_scorecard
from repro.obs.trace import RecoveryTrace

__all__ = ["RecoveryOutcome", "RecoveryExperiment"]


@dataclass(frozen=True)
class RecoveryOutcome:
    """Result of one attack-then-recover run.

    Beyond the before/after accuracies, the outcome carries the full
    observability record of the run: the structured per-block
    :attr:`trace` (JSONL-exportable), the injected ground-truth
    :attr:`fault_mask`, and the :attr:`scorecard` joining the two
    (chunk-detection precision/recall/F1, bit-level repair efficacy).
    """

    clean_accuracy: float
    attacked_accuracy: float
    recovered_accuracy: float
    stats: RecoveryStats
    accuracy_trace: tuple[float, ...]
    trace: RecoveryTrace | None = None
    fault_mask: FaultMask | None = None
    scorecard: FaultScorecard | None = None

    @property
    def loss_without_recovery(self) -> float:
        return self.clean_accuracy - self.attacked_accuracy

    @property
    def loss_with_recovery(self) -> float:
        return self.clean_accuracy - self.recovered_accuracy


class RecoveryExperiment:
    """Reusable train-once / attack-and-recover-many harness.

    Parameters
    ----------
    dataset:
        Train/test task.  The test split is divided into an evaluation
        half (scored, labels used) and a stream half (fed unlabeled to
        the recovery loop); ``stream_fraction`` sets the divide.
    dim, bits, epochs, levels:
        HDC model hyper-parameters.
    stream_fraction:
        Fraction of the test split used as the unlabeled stream.
    seed:
        Seed for the encoder and training shuffles.

    All parameters are keyword-only — the hyper-parameter list has grown
    and positional construction invited silent transpositions.
    """

    def __init__(
        self,
        *,
        dataset: Dataset,
        dim: int = 10_000,
        bits: int = 1,
        epochs: int = 3,
        levels: int = 32,
        stream_fraction: float = 0.5,
        seed: int = 0,
    ) -> None:
        if not 0.0 < stream_fraction < 1.0:
            raise ValueError(
                f"stream_fraction must be in (0, 1), got {stream_fraction}"
            )
        self.dataset = dataset
        self.encoder = Encoder(
            num_features=dataset.num_features, dim=dim, levels=levels, seed=seed
        )
        self.classifier = HDCClassifier(
            self.encoder,
            num_classes=dataset.num_classes,
            bits=bits,
            epochs=epochs,
            seed=seed,
        ).fit(dataset.train_x, dataset.train_y)

        # The test split is encoded straight into packed words; the public
        # uint8 views (stream_queries / eval_queries) are unpacked from
        # them once for compatibility and for the float A/B path, while
        # scoring and the recovery stream consume the packed words with no
        # further pack/unpack (when the packed backend is enabled the
        # queries cross encode → predict → recover without ever being
        # repacked).  Both forms are bit-identical by construction.
        if packed_backend_enabled():
            packed_test = self.encoder.encode_packed(dataset.test_x)
            encoded_test = unpack(packed_test)
        else:
            encoded_test = self.encoder.encode_batch(dataset.test_x)
            packed_test = pack(encoded_test)
        split = int(round(dataset.num_test * stream_fraction))
        split = min(max(split, 1), dataset.num_test - 1)
        self.stream_queries = encoded_test[:split]
        self.eval_queries = encoded_test[split:]
        self._stream_packed = packed_test[:split]
        self._eval_packed = packed_test[split:]
        self.eval_labels = np.asarray(dataset.test_y[split:], dtype=np.int64)
        self.clean_accuracy = self._score(self.model)

    @property
    def model(self) -> HDCModel:
        model = self.classifier.model
        assert model is not None  # fitted in __init__
        return model

    def _score(self, model: HDCModel) -> float:
        queries = (
            self._eval_packed
            if packed_backend_enabled()
            else self.eval_queries
        )
        return float(np.mean(model.predict(queries) == self.eval_labels))

    def score(self, model: HDCModel) -> float:
        """Accuracy of ``model`` on the held-out evaluation split.

        Public for external drivers (e.g. :mod:`repro.adversary`) that
        score model variants between their own attack/recovery steps.
        """
        return self._score(model)

    def attack_only(
        self,
        error_rate: float,
        mode: str = "random",
        seed: int = 0,
        **attack_kwargs,
    ) -> float:
        """Quality loss without recovery at one error rate."""
        rng = np.random.default_rng(seed)
        attacked, _ = attack(self.model, error_rate, mode, rng, **attack_kwargs)
        return self.clean_accuracy - self._score(attacked)

    def attack_and_recover(
        self,
        error_rate: float,
        config: RecoveryConfig | None = None,
        passes: int = 3,
        mode: str = "random",
        seed: int = 0,
        publisher: ModelPublisher | None = None,
        **attack_kwargs,
    ) -> RecoveryOutcome:
        """Attack the model, run the unlabeled stream, score before/after.

        ``passes`` repeats the stream (the paper's recovery consumes an
        ongoing inference stream; repeating the finite stand-in stream
        approximates a longer deployment window).  The accuracy trace is
        sampled after every pass for the Figure 3 dynamics.

        The stream is served in blocks of ``config.block_size`` queries
        through the vectorised recovery engine
        (:func:`repro.core.recovery.recover_block`).  Results are
        identical to the query-at-a-time loop for any block size, and
        identical between the packed and float serving backends (see
        ``repro.core.packed``).

        The returned outcome carries the injected
        :class:`~repro.faults.api.FaultMask`, the structured
        :class:`~repro.obs.trace.RecoveryTrace`, and the ground-truth
        :class:`~repro.obs.scorecard.FaultScorecard` joining them.

        A ``publisher`` (see
        :class:`~repro.core.recovery.ModelPublisher`) lets the recovery
        writer announce each repaired model generation to a concurrent
        serving tier (:mod:`repro.serve`) while this run is in flight;
        results are bit-identical with or without one.
        """
        if passes < 1:
            raise ValueError(f"passes must be >= 1, got {passes}")
        metrics = _metrics()
        rng = np.random.default_rng(seed)
        with metrics.timer("pipeline.attack_and_recover"):
            attacked, mask = attack(
                self.model, error_rate, mode, rng, **attack_kwargs
            )
            attacked_accuracy = self._score(attacked)
            recovery = RobustHDRecovery(
                attacked, config, seed=seed + 1, publisher=publisher
            )
            accuracy_trace = []
            order_rng = np.random.default_rng(seed + 2)
            try:
                for _ in range(passes):
                    order = order_rng.permutation(
                        self.stream_queries.shape[0]
                    )
                    stream = (
                        self._stream_packed[order]
                        if packed_backend_enabled()
                        else self.stream_queries[order]
                    )
                    recovery.process(stream)
                    accuracy_trace.append(self._score(attacked))
            finally:
                # The recovery writer is done (or dead): deregister it so
                # concurrent readers stop treating heartbeat age as a
                # stall signal.  Optional on the ModelPublisher protocol —
                # only shared-state publishers have a registration.
                end_writing = getattr(publisher, "end_writing", None)
                if end_writing is not None:
                    end_writing()
        scorecard = fault_scorecard(
            recovery.trace,
            mask,
            clean_model=self.model,
            recovered_model=attacked,
        )
        if metrics.enabled:
            metrics.inc("pipeline.attack_recover_runs")
            metrics.gauge("pipeline.recovered_accuracy", accuracy_trace[-1])
            metrics.gauge("pipeline.attacked_accuracy", attacked_accuracy)
        return RecoveryOutcome(
            clean_accuracy=self.clean_accuracy,
            attacked_accuracy=attacked_accuracy,
            recovered_accuracy=accuracy_trace[-1],
            stats=recovery.stats,
            accuracy_trace=tuple(accuracy_trace),
            trace=recovery.trace,
            fault_mask=mask,
            scorecard=scorecard,
        )
