"""Tests for probabilistic substitution and the recovery loop."""

import hashlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro.core.pipeline as pipeline
import repro.core.recovery as recovery
from repro.core import kernels
from repro.core.encoder import Encoder
from repro.core.model import HDCClassifier, HDCModel
from repro.core.packed import pack
from repro.core.pipeline import RecoveryExperiment
from repro.core.recovery import (
    RecoveryConfig,
    RecoveryStats,
    RobustHDRecovery,
    _gate,
    probabilistic_substitution,
    recover_block,
    recover_step,
)
from repro.datasets import load
from repro.datasets.synthetic import make_prototype_classification
from repro.faults.api import attack
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.obs.trace import RecoveryBlockEvent, RecoveryTrace

BACKENDS = ["native", "numpy", "reference"]


def get_or_skip(name: str) -> kernels.KernelBackend:
    if not kernels.available_backends()[name]:
        pytest.skip(f"backend {name!r} unavailable in this environment")
    return kernels.get_backend(name)


@pytest.fixture(scope="module")
def fitted():
    task = make_prototype_classification(
        "toy", num_features=60, num_classes=5, num_train=300, num_test=200,
        boundary_fraction=0.4, boundary_depth=(0.25, 0.45), seed=7,
    )
    encoder = Encoder(num_features=60, dim=2_000, seed=3)
    clf = HDCClassifier(encoder, num_classes=5, epochs=0).fit(
        task.train_x, task.train_y
    )
    encoded_test = encoder.encode_batch(task.test_x)
    return clf.model, encoded_test, np.asarray(task.test_y)


class TestRecoveryConfig:
    def test_defaults_valid(self):
        RecoveryConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(confidence_threshold=1.5),
            dict(substitution_rate=0.0),
            dict(substitution_rate=1.5),
            dict(num_chunks=0),
            dict(detection_margin=-0.1),
            dict(temperature=0.0),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            RecoveryConfig(**kwargs)


class TestProbabilisticSubstitution:
    def test_rate_one_copies_everything(self):
        rng = np.random.default_rng(0)
        target = np.zeros(100, dtype=np.uint8)
        source = np.ones(100, dtype=np.uint8)
        changed = probabilistic_substitution(target, source, 1.0, rng)
        assert changed == 100
        assert (target == source).all()

    def test_in_place(self):
        rng = np.random.default_rng(1)
        target = np.zeros(50, dtype=np.uint8)
        view = target[10:30]
        probabilistic_substitution(view, np.ones(20, dtype=np.uint8), 1.0, rng)
        assert target[10:30].sum() == 20
        assert target[:10].sum() == 0

    def test_equal_vectors_change_nothing(self):
        rng = np.random.default_rng(2)
        target = rng.integers(0, 2, 100, dtype=np.uint8)
        changed = probabilistic_substitution(target, target.copy(), 0.5, rng)
        assert changed == 0

    @given(st.floats(min_value=0.05, max_value=0.95))
    def test_expected_change_rate(self, rate):
        rng = np.random.default_rng(3)
        target = np.zeros(4_000, dtype=np.uint8)
        source = np.ones(4_000, dtype=np.uint8)
        changed = probabilistic_substitution(target, source, rate, rng)
        assert abs(changed / 4_000 - rate) < 0.1

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            probabilistic_substitution(
                np.zeros(3, dtype=np.uint8), np.zeros(4, dtype=np.uint8),
                0.5, np.random.default_rng(0),
            )

    def test_bad_rate(self):
        with pytest.raises(ValueError, match="rate"):
            probabilistic_substitution(
                np.zeros(3, dtype=np.uint8), np.zeros(3, dtype=np.uint8),
                0.0, np.random.default_rng(0),
            )


class TestRecoverStep:
    def test_returns_prediction(self, fitted):
        model, queries, labels = fitted
        config = RecoveryConfig(num_chunks=20)
        pred = recover_step(
            model.copy(), queries[0], config, np.random.default_rng(0)
        )
        assert 0 <= pred < model.num_classes

    def test_untrusted_query_never_writes(self, fitted):
        model, queries, _ = fitted
        work = model.copy()
        config = RecoveryConfig(confidence_threshold=1.0, num_chunks=20)
        trace = RecoveryTrace()
        for q in queries[:20]:
            recover_step(work, q, config, np.random.default_rng(0), trace)
        assert (work.class_hv == model.class_hv).all()
        assert trace.queries_trusted == 0
        assert trace.queries_seen == 20

    def test_clean_model_barely_touched(self, fitted):
        """On an unattacked model the margin gate keeps repair volume tiny."""
        model, queries, _ = fitted
        work = model.copy()
        config = RecoveryConfig(num_chunks=20)
        rng = np.random.default_rng(1)
        trace = RecoveryTrace()
        for q in queries[:50]:
            recover_step(work, q, config, rng, trace)
        changed = np.mean(work.class_hv != model.class_hv)
        assert changed < 0.02
        assert trace.queries_seen == 50

    def test_multibit_model_rejected(self, fitted):
        model, queries, _ = fitted
        bad = HDCModel(class_hv=model.class_hv.copy(), bits=2)
        # valid levels for 2-bit, but recovery is binary-only
        with pytest.raises(ValueError, match="1-bit"):
            recover_step(
                bad, queries[0], RecoveryConfig(), np.random.default_rng(0)
            )

    def test_query_shape_validated(self, fitted):
        model, _, _ = fitted
        with pytest.raises(ValueError, match="1-D vector"):
            recover_step(
                model.copy(), np.zeros((2, model.dim), dtype=np.uint8),
                RecoveryConfig(), np.random.default_rng(0),
            )

    def test_stats_accumulate(self, fitted):
        model, queries, _ = fitted
        attacked, _ = attack(model, 0.10, "random",
                             np.random.default_rng(2))
        config = RecoveryConfig(confidence_threshold=0.5, num_chunks=20)
        trace = RecoveryTrace()
        rng = np.random.default_rng(3)
        for q in queries[:30]:
            recover_step(attacked, q, config, rng, trace)
        assert len(trace) == 30
        stats = RecoveryStats.from_trace(trace)
        assert stats.queries_seen == 30
        assert stats.queries_trusted > 0
        assert stats.chunks_checked == stats.queries_trusted * 20
        assert len(stats.confidence_trace) == 30
        assert 0.0 <= stats.trust_rate <= 1.0


class TestRecoverBlock:
    """Batched recovery must replay the sequential stream exactly."""

    def _attacked(self, fitted, seed=20):
        model, queries, _ = fitted
        return (
            attack(model, 0.10, "random",
                   np.random.default_rng(seed))[0],
            queries,
        )

    def _run(self, model, queries, block_size):
        work = model.copy()
        config = RecoveryConfig(confidence_threshold=0.5, num_chunks=20)
        rng = np.random.default_rng(7)
        trace = RecoveryTrace()
        preds = []
        for lo in range(0, queries.shape[0], block_size):
            preds.append(
                recover_block(
                    work, queries[lo : lo + block_size], config, rng, trace
                )
            )
        return work, np.concatenate(preds), trace

    def test_block_size_order_equivalent(self, fitted):
        """Any block size gives the same predictions, model, and trace
        totals as the one-query-at-a-time stream (identical RNG draw
        order)."""
        attacked, queries = self._attacked(fitted)
        ref_model, ref_preds, ref_trace = self._run(attacked, queries[:60], 1)
        ref_stats = RecoveryStats.from_trace(ref_trace)
        for block_size in (7, 60):
            work, preds, trace = self._run(attacked, queries[:60], block_size)
            assert (preds == ref_preds).all()
            assert (work.class_hv == ref_model.class_hv).all()
            assert RecoveryStats.from_trace(trace) == ref_stats
            assert (trace.flag_counts() == ref_trace.flag_counts()).all()
            assert (
                trace.repair_bit_counts() == ref_trace.repair_bit_counts()
            ).all()

    def test_reference_kernel_identical(self, fitted):
        attacked, queries = self._attacked(fitted)
        packed_model, packed_preds, packed_trace = self._run(
            attacked, queries[:60], 16
        )
        with kernels.use_kernel_backend("reference"):
            ref_model, ref_preds, ref_trace = self._run(
                attacked, queries[:60], 16
            )
        assert (packed_preds == ref_preds).all()
        assert (packed_model.class_hv == ref_model.class_hv).all()
        assert packed_trace == ref_trace

    def test_recover_step_is_block_of_one(self, fitted):
        attacked, queries = self._attacked(fitted)
        a, b = attacked.copy(), attacked.copy()
        config = RecoveryConfig(confidence_threshold=0.5, num_chunks=20)
        for q in queries[:20]:
            p_step = recover_step(a, q, config, np.random.default_rng(9))
            p_block = recover_block(
                b, q[None, :], config, np.random.default_rng(9)
            )
            assert p_step == p_block[0]
        assert (a.class_hv == b.class_hv).all()

    @pytest.mark.parametrize("name", BACKENDS)
    def test_one_table_per_block_and_one_walk(self, fitted, monkeypatch,
                                              name):
        """At chunk size 100 (not a multiple of 64) a block computes one
        similarity table and one packed chunk table and hands its walk
        to the backend in one call; every write draws ``c·100`` doubles
        for its ``c`` flagged chunks and nothing repacks the model
        inside the walk.  The Python walk (numpy, reference) gates the
        block once, then makes one ``rng.random((c, 100))`` draw, one
        ``repair_row`` call and one re-gate of the rows ahead per write;
        the native walk draws from the bit generator in C and gates
        once, over the final similarities."""
        backend = get_or_skip(name)
        attacked, queries = self._attacked(fitted)
        work = attacked.copy()
        work.packed()  # warm cache: any rebuild below is the walk's
        config = RecoveryConfig(confidence_threshold=0.5, num_chunks=20)
        gates, repairs, draws, walks = [], [], [], []

        def gate(*args):
            gates.append(len(args[1]))
            return _gate(*args)

        repair_row, recover_walk = backend.repair_row, backend.recover_walk

        def repair(row, query, chunks, chunk_bits, *args):
            changed = repair_row(row, query, chunks, chunk_bits, *args)
            repairs.append((len(chunks), len(args[2]), int(changed.sum())))
            return changed

        def walk(*args, **kwargs):
            walks.append(len(args[1]))
            return recover_walk(*args, **kwargs)

        class CountingRng(np.random.Generator):
            def random(self, size=None, *args, **kwargs):
                draws.append(size)
                return super().random(size, *args, **kwargs)

        monkeypatch.setattr(recovery, "_gate", gate)
        monkeypatch.setattr(backend, "repair_row", repair)
        monkeypatch.setattr(backend, "recover_walk", walk)
        rng, trace = CountingRng(np.random.PCG64(7)), RecoveryTrace()
        with kernels.use_kernel_backend(backend), \
                use_metrics(MetricsRegistry()) as registry:
            recover_block(work, queries[:60], config, rng, trace)
        writes = registry.counter("recovery.model_writes")
        assert writes >= 2
        assert walks == [60]
        assert registry.counter("model.queries_served") == 60
        assert registry.counter("chunks.detect_batches_float") == 0
        assert registry.counter("chunks.detect_batches_packed") == 1
        assert registry.counter("model.pack_rebuilds") == 0
        expected = np.random.default_rng(7)
        expected.random(trace.chunks_flagged * 100)
        assert rng.bit_generator.state == expected.bit_generator.state
        if name == "native":
            assert gates == [60]
            assert repairs == draws == []
            return
        assert len(repairs) == len(draws) == writes
        assert draws == [(chunks, 100) for chunks, _, _ in repairs]
        # Every write here changed bits with rows ahead: one re-gate each,
        # over exactly those rows.
        assert all(bits and ahead for _, ahead, bits in repairs)
        assert len(gates) == 1 + writes
        assert gates == [60] + [ahead for _, ahead, _ in repairs]

    def test_non_binary_rows_rejected_before_any_write(self):
        """A float row holding 7.0 used to be copied into the 1-bit
        model, leaving a uint8 row that its packed words contradict."""
        rng = np.random.default_rng(0)
        clean = rng.integers(0, 2, (4, 2_000), dtype=np.uint8)
        model = HDCModel(clean.copy())
        with model.writable() as class_hv:
            class_hv[0, :100] ^= 1  # chunk 0 of class 0 damaged
        queries = np.repeat(clean[:1].astype(np.float64), 50, axis=0)
        queries[3:, :5] = 7.0
        config = RecoveryConfig(
            confidence_threshold=0.5, substitution_rate=1.0, num_chunks=20,
            detection_margin=0.0,
        )
        before, version = model.class_hv.copy(), model.version
        with pytest.raises(ValueError, match=r"7\.0 at \(row 3, dim 0\)"):
            recover_block(model, queries, config, np.random.default_rng(1))
        assert (model.class_hv == before).all()
        assert model.version == version
        # Rows of 0.0 and 1.0 are bits: same walk as the uint8 rows.
        queries[3:, :5] = clean[0, :5]
        uint8_model = model.copy()
        preds = recover_block(model, queries, config,
                              np.random.default_rng(1))
        want = recover_block(uint8_model, queries.astype(np.uint8), config,
                             np.random.default_rng(1))
        assert (preds == want).all()
        assert (model.class_hv == uint8_model.class_hv).all()
        assert model.class_hv.max() == 1

    def test_empty_block(self, fitted):
        model, queries, _ = fitted
        preds = recover_block(
            model.copy(), queries[:0], RecoveryConfig(num_chunks=20),
            np.random.default_rng(0),
        )
        assert preds.shape == (0,)


def _merged(events: list[RecoveryBlockEvent]) -> RecoveryBlockEvent:
    """One event covering consecutive step events, as a block would."""
    def summed(field):
        return np.sum([np.asarray(getattr(e, field)) for e in events], axis=0)

    return RecoveryBlockEvent(
        block_index=events[0].block_index,
        queries=sum(e.queries for e in events),
        trusted=sum(e.trusted for e in events),
        confidences=tuple(c for e in events for c in e.confidences),
        trusted_per_class=tuple(int(t) for t in summed("trusted_per_class")),
        num_chunks=events[0].num_chunks,
        chunk_flags=tuple(tuple(int(v) for v in row)
                          for row in summed("chunk_flags")),
        chunk_repair_bits=tuple(tuple(int(v) for v in row)
                                for row in summed("chunk_repair_bits")),
        bits_substituted=sum(e.bits_substituted for e in events),
        model_version_before=events[0].model_version_before,
        model_version_after=events[-1].model_version_after,
    )


@st.composite
def damaged_streams(draw, many_writes=False, classes=None, edge=None):
    """A small damaged 1-bit model, a noisy query stream near its clean
    prototypes, and a recovery config that trusts and writes often.

    ``many_writes`` fixes ``T_C = 0.5`` (every row trusted), ``S = 1.0``
    and a zero margin on a longer stream, with every class damaged, so a
    block makes many model writes, each one patching the tables of many
    rows ahead.  ``classes`` fixes ``k`` (2 takes the noise gate).
    ``edge`` picks a case where a native walk's own evaluation of the
    gate could part from NumPy's:

    * ``"threshold_at_row"`` — ``T_C`` is the largest first-gate
      confidence in the stream's first half; the rows before it are
      untrusted, so nothing patches its row and its walked confidence
      is exactly ``T_C``;
    * ``"tied"`` — ``T_C = 0.5`` and some rows tie their top two classes
      (a zero margin, confidence exactly 0.5);
    * ``"flat"`` — every class is one prototype with its own disjoint
      damage of equal weight, and some rows are that prototype: all
      their similarities are equal (zero std);
    * ``"strided"`` — a model whose ``class_hv`` is not C-contiguous.

    Returns ``(model, queries, config, packed_input, layout)``.
    """
    k = classes or draw(st.integers(2, 6))
    num_chunks = draw(st.integers(3 if many_writes else 2, 8))
    chunk_bits = draw(st.sampled_from(
        [37, 63, 64, 65, 100, 128] if many_writes or edge == "flat"
        else [1, 37, 63, 64, 65, 100, 128]
    ))
    dim = num_chunks * chunk_bits
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    prototypes = rng.integers(0, 2, (k, dim), dtype=np.uint8)
    rows = (30, 80) if many_writes else (8, 40)
    labels = rng.integers(0, k, draw(st.integers(*rows)))
    queries = prototypes[labels]
    queries[rng.random(queries.shape) < 0.15] ^= 1
    damaged = prototypes.copy()
    # Clustered damage: about a third (with many_writes, half and at
    # least one) of each class's chunks get 70% of their bits flipped,
    # so the detector flags and substitution writes.
    hit = rng.random((k, num_chunks)) < (0.5 if many_writes else 0.35)
    if many_writes:
        hit[np.arange(k), rng.integers(0, num_chunks, k)] = True
    flips = rng.random((k, num_chunks, chunk_bits)) < 0.7
    damaged ^= (flips & hit[:, :, None]).reshape(k, dim).astype(np.uint8)
    threshold = 0.5 if many_writes or edge in ("tied", "flat") else draw(
        st.sampled_from([0.5, 0.55, 0.6]))
    if edge == "tied":
        # Row i copies class a where a and b agree and splits their
        # (even) disagreements evenly: equally far from both.
        for i in rng.choice(len(queries), len(queries) // 3 + 1, False):
            for a, b in zip(*np.triu_indices(k, 1)):
                differ = np.flatnonzero(damaged[a] != damaged[b])
                if differ.size % 2 == 0:
                    queries[i] = damaged[a]
                    queries[i, rng.permutation(differ)[: differ.size // 2]] ^= 1
                    break
    if edge == "flat":
        weight = dim // (4 * k)
        damaged[:] = prototypes[0]
        spots = rng.permutation(dim)[: k * weight].reshape(k, weight)
        damaged[np.arange(k)[:, None], spots] ^= 1
        queries[rng.random(len(queries)) < 0.5] = prototypes[0]
    config = RecoveryConfig(
        confidence_threshold=threshold,
        substitution_rate=1.0 if many_writes else draw(
            st.sampled_from([0.2, 0.5, 1.0])),
        num_chunks=num_chunks,
        detection_margin=0.0 if many_writes else draw(
            st.sampled_from([0.0, 0.02])),
    )
    model = HDCModel(damaged)
    if edge == "threshold_at_row":
        half = queries[: len(queries) // 2 + 1]
        _, conf = _gate(model, model.similarities(half), config)
        config = RecoveryConfig(
            confidence_threshold=float(conf.max()),
            substitution_rate=config.substitution_rate,
            num_chunks=num_chunks,
            detection_margin=config.detection_margin,
        )
    layout = draw(st.sampled_from(["F", "wide"])) if edge == "strided" else "C"
    return model, queries, config, draw(st.booleans()), layout


def _laid_out(model: HDCModel, layout: str) -> HDCModel:
    """A copy of ``model`` whose ``class_hv`` has the given memory layout:
    ``"C"``, ``"F"`` (column-major) or ``"wide"`` (C rows inside a wider
    buffer, so rows are not back to back)."""
    if layout == "F":
        return HDCModel(np.asfortranarray(model.class_hv))
    if layout == "wide":
        k, dim = model.class_hv.shape
        wide = np.zeros((k, dim + 13), dtype=np.uint8)
        wide[:, :dim] = model.class_hv
        return HDCModel(wide[:, :dim])
    return model.copy()


class TestBlockEqualsSteps:
    """Property: one recover_block over a block replays recover_step row
    by row — the model patched after every write — on any geometry, on
    every kernel backend, leaving the RNG where the steps leave it."""

    @staticmethod
    def _block(model, queries, config, packed_input, layout="C"):
        work, trace = _laid_out(model, layout), RecoveryTrace()
        rng = np.random.default_rng(3)
        preds = recover_block(
            work, pack(queries) if packed_input else queries, config,
            rng, trace,
        )
        return (preds, work.class_hv, RecoveryStats.from_trace(trace),
                trace.last, rng.bit_generator.state)

    @staticmethod
    def _steps(model, queries, config):
        work, trace = model.copy(), RecoveryTrace()
        rng = np.random.default_rng(3)
        preds = np.array([
            recover_step(work, q, config, rng, trace) for q in queries
        ])
        return (preds, work.class_hv, RecoveryStats.from_trace(trace),
                _merged(list(trace)), rng.bit_generator.state)

    def _check(self, model, queries, config, packed_input, layout="C"):
        expected = self._steps(model, queries, config)
        for name in BACKENDS:
            if not kernels.available_backends()[name]:
                continue
            with kernels.use_kernel_backend(name):
                got = self._block(model, queries, config, packed_input, layout)
            preds, class_hv, block_stats, event, state = got
            assert (preds == expected[0]).all(), name
            assert (class_hv == expected[1]).all(), name
            assert block_stats == expected[2], name
            assert event == expected[3], name
            assert state == expected[4], name
        return expected[3]

    @settings(max_examples=40)
    @given(damaged_streams())
    def test_block_replays_steps(self, case):
        self._check(*case)

    @settings(max_examples=25)
    @given(damaged_streams(many_writes=True))
    def test_many_writes_per_block_replay_steps(self, case):
        """Every write's table patch and re-gate feeds the rows after
        it: with a write on most trusted rows, a wrong patch or a
        missing re-gate shows up as a different walk."""
        event = self._check(*case)
        assume(event.model_writes >= 3)

    @settings(max_examples=25)
    @given(damaged_streams(classes=2))
    def test_two_classes_replay_steps(self, case):
        """``k = 2``: the gate measures margins in noise units."""
        self._check(*case)

    @settings(max_examples=25)
    @given(damaged_streams(edge="threshold_at_row"))
    def test_threshold_equal_to_a_row_confidence(self, case):
        """A row whose confidence is exactly ``T_C`` is trusted
        (``conf < T_C`` is false); a native walk cannot place it by its
        own rounding and asks the gate for that one row."""
        event = self._check(*case)
        assert event.trusted >= 1
        if not kernels.available_backends()["native"]:
            return
        rows = []

        def gate(*args):
            rows.append(len(args[1]))
            return _gate(*args)

        model, queries, config, packed_input, _ = case
        with pytest.MonkeyPatch.context() as patch, \
                kernels.use_kernel_backend("native"):
            patch.setattr(recovery, "_gate", gate)
            self._block(model, queries, config, packed_input)
        assert rows[0] == 1 and rows[-1] == len(queries)

    @settings(max_examples=25)
    @given(damaged_streams(edge="tied"))
    def test_tied_rows_at_half_threshold(self, case):
        """Tied top-two rows (confidence exactly 0.5) at ``T_C = 0.5``:
        trusted, predicted as the first of the tied classes."""
        self._check(*case)

    @settings(max_examples=25)
    @given(damaged_streams(edge="flat"))
    def test_flat_rows_replay_steps(self, case):
        """Rows whose similarities are all equal (zero std)."""
        self._check(*case)

    @settings(max_examples=15)
    @given(damaged_streams(edge="strided"))
    def test_strided_model_replays_steps(self, case):
        """A ``class_hv`` that is not C-contiguous is repaired in place."""
        self._check(*case)

    def test_write_flips_later_rows(self, fitted):
        """A block whose substitutions flip a later row's trust and
        prediction — rows the first gate got wrong — still replays the
        one-row-at-a-time stream exactly."""
        model, queries, _ = fitted
        attacked = attack(model, 0.10, "random", np.random.default_rng(4))[0]
        config = RecoveryConfig(confidence_threshold=0.6, num_chunks=20)
        block = queries[:150]
        first_preds, first_conf = _gate(
            attacked, attacked.similarities(block), config
        )
        preds, class_hv, stats, event, _ = self._block(
            attacked, block, config, packed_input=False
        )
        walked_conf = np.array(event.confidences)
        trust_flips = np.count_nonzero(
            (first_conf < config.confidence_threshold)
            != (walked_conf < config.confidence_threshold)
        )
        pred_flips = np.count_nonzero(first_preds != preds)
        assert trust_flips > 0 and pred_flips > 0
        expected = self._steps(attacked, block, config)
        assert (preds == expected[0]).all()
        assert (class_hv == expected[1]).all()
        assert stats == expected[2]
        assert event == expected[3]


# Six seeded clustered-damage episodes at dim 2,000, summarised as
# (model digest, trusted rows, chunks flagged, bits substituted, model
# writes).  Computed with the query-at-a-time walk's results; the
# packed, numpy and reference kernels and the float reference all give
# these.
GOLDEN_EPISODES = {
    101: ("8efe67b27d5352f4", 60, 45, 145, 25),
    102: ("1aec828577500acd", 130, 251, 1136, 95),
    103: ("8c907c1c45da3f03", 68, 135, 591, 44),
    104: ("3b40f96bac6b5068", 58, 5, 13, 4),
    105: ("b8aec94324453bb4", 63, 14, 65, 9),
    106: ("f2382c299dff2d9a", 59, 70, 282, 31),
}


class TestGoldenEpisodes:
    """A walk that changes any repair fails here, in tier-1, and not
    only in a benchmark's episode replay.  Confidences are not pinned:
    ``np.exp`` may differ by an ulp across CPUs."""

    @pytest.fixture(scope="class")
    def experiment(self):
        return RecoveryExperiment(dataset=load("ucihar", 600, 400), dim=2_000)

    @pytest.mark.parametrize("seed", sorted(GOLDEN_EPISODES))
    def test_episode_summary(self, experiment, seed, monkeypatch):
        attacked = []

        def keep(*args, **kwargs):
            model, mask = attack(*args, **kwargs)
            attacked.append(model)
            return model, mask

        monkeypatch.setattr(pipeline, "attack", keep)
        config = RecoveryConfig(
            confidence_threshold=0.7, substitution_rate=0.2, block_size=64,
        )
        trace = experiment.attack_and_recover(
            0.10, config, passes=2, mode="clustered", seed=seed,
            cluster_bits=256,
        ).trace
        digest = hashlib.sha256(
            attacked[0].packed().words.tobytes()
        ).hexdigest()[:16]
        summary = (digest, trace.queries_trusted, trace.chunks_flagged,
                   trace.bits_substituted,
                   sum(e.model_writes for e in trace))
        assert summary == GOLDEN_EPISODES[seed]


class TestRobustHDRecovery:
    def test_block_size_equivalence(self, fitted):
        """The streaming wrapper matches itself across block sizes."""
        model, queries, _ = fitted
        attacked, _ = attack(model, 0.10, "random",
                             np.random.default_rng(12))
        outs = []
        for block_size in (1, 32, 256):
            work = attacked.copy()
            rec = RobustHDRecovery(
                work,
                RecoveryConfig(confidence_threshold=0.5, block_size=block_size),
                seed=4,
            )
            preds = rec.process(queries[:80])
            outs.append((preds, work.class_hv.copy(), rec.stats))
        for preds, class_hv, stats in outs[1:]:
            assert (preds == outs[0][0]).all()
            assert (class_hv == outs[0][1]).all()
            assert stats.bits_substituted == outs[0][2].bits_substituted

    def test_bad_block_size(self):
        with pytest.raises(ValueError, match="block_size"):
            RecoveryConfig(block_size=0)

    def test_metrics_equal_trace_aggregates(self, fitted):
        """The recovery.* counters and the trace come from one record."""
        model, queries, _ = fitted
        attacked, _ = attack(model, 0.10, "random",
                             np.random.default_rng(12))
        rec = RobustHDRecovery(
            attacked,
            RecoveryConfig(confidence_threshold=0.5, block_size=32),
            seed=4,
        )
        with use_metrics(MetricsRegistry()) as registry:
            rec.process(queries[:100])
        trace = rec.trace
        assert trace.bits_substituted > 0
        assert registry.counter("recovery.blocks") == len(trace)
        assert registry.counter("recovery.queries") == trace.queries_seen
        assert registry.counter("recovery.queries_trusted") == (
            trace.queries_trusted
        )
        assert registry.counter("recovery.chunks_flagged") == (
            trace.chunks_flagged
        )
        assert registry.counter("recovery.bits_substituted") == (
            trace.bits_substituted
        )
        assert registry.counter("recovery.model_writes") == sum(
            e.model_writes for e in trace
        )

    def test_recovery_improves_attacked_model(self, fitted):
        """The paper's core claim at unit scale: online unsupervised
        recovery wins back accuracy lost to a 10% attack."""
        model, queries, labels = fitted
        clean_acc = float(np.mean(model.predict(queries) == labels))
        attacked, _ = attack(model, 0.10, "random",
                             np.random.default_rng(4))
        attacked_acc = float(np.mean(attacked.predict(queries) == labels))
        recovery = RobustHDRecovery(attacked, RecoveryConfig(), seed=5)
        stream, evalq = queries[:120], queries[120:]
        eval_labels = labels[120:]
        for _ in range(3):
            recovery.process(stream)
        recovered_acc = float(np.mean(attacked.predict(evalq) == eval_labels))
        eval_attacked = float(
            np.mean(
                attack(model, 0.10, "random",
                       np.random.default_rng(4))[0]
                .predict(evalq) == eval_labels
            )
        )
        assert recovered_acc >= eval_attacked - 0.02
        assert recovery.stats.bits_substituted > 0

    def test_process_returns_predictions(self, fitted):
        model, queries, _ = fitted
        recovery = RobustHDRecovery(model.copy(), RecoveryConfig(), seed=0)
        preds = recovery.process(queries[:10])
        assert preds.shape == (10,)
        assert ((preds >= 0) & (preds < model.num_classes)).all()

    def test_indivisible_chunks_rejected(self, fitted):
        model, _, _ = fitted
        with pytest.raises(ValueError, match="divisible"):
            RobustHDRecovery(model.copy(), RecoveryConfig(num_chunks=7))

    def test_multibit_rejected(self, fitted):
        model, _, _ = fitted
        bad = HDCModel(class_hv=model.class_hv.copy(), bits=2)
        with pytest.raises(ValueError, match="1-bit"):
            RobustHDRecovery(bad)


class TestRecoveryStats:
    def test_trust_rate_empty(self):
        stats = RecoveryStats()
        assert stats.trust_rate == 0.0

    def test_trust_rate_ratio(self):
        stats = RecoveryStats(queries_seen=10, queries_trusted=4)
        assert stats.trust_rate == pytest.approx(0.4)


class TestPackedStreamIngest:
    """A packed query stream must drive recovery bit-identically."""

    def test_process_packed_equals_uint8(self, fitted):
        model, encoded_test, _ = fitted
        stream = encoded_test[:120]
        packed_stream = pack(stream)
        rng = np.random.default_rng(0)
        attacked_a, _ = attack(model.copy(), 0.08, "random", rng)
        attacked_b = attacked_a.copy()

        rec_a = RobustHDRecovery(attacked_a, seed=9)
        rec_b = RobustHDRecovery(attacked_b, seed=9)
        preds_a = rec_a.process(stream)
        preds_b = rec_b.process(packed_stream)

        assert (preds_a == preds_b).all()
        assert (attacked_a.class_hv == attacked_b.class_hv).all()
        assert rec_a.stats.bits_substituted == rec_b.stats.bits_substituted
        assert rec_a.stats.queries_trusted == rec_b.stats.queries_trusted

    def test_recover_block_packed_equals_uint8(self, fitted):
        model, encoded_test, _ = fitted
        block = encoded_test[:60]
        rng = np.random.default_rng(1)
        attacked_a, _ = attack(model.copy(), 0.10, "random", rng)
        attacked_b = attacked_a.copy()
        config = RecoveryConfig()
        preds_a = recover_block(
            attacked_a, block, config, np.random.default_rng(4)
        )
        preds_b = recover_block(
            attacked_b, pack(block), config, np.random.default_rng(4)
        )
        assert (preds_a == preds_b).all()
        assert (attacked_a.class_hv == attacked_b.class_hv).all()

    def test_packed_dim_mismatch_rejected(self, fitted):
        model, _, _ = fitted
        bad = pack(np.zeros((2, 64), dtype=np.uint8))
        with pytest.raises(ValueError, match="dim"):
            recover_block(
                model, bad, RecoveryConfig(), np.random.default_rng(0)
            )
