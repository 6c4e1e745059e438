"""Tests for softmax/margin prediction confidence."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.confidence import confident_mask, prediction_confidence, softmax


class TestSoftmax:
    def test_sums_to_one(self):
        p = softmax(np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]]))
        assert np.allclose(p.sum(axis=1), 1.0)

    def test_stable_for_large_inputs(self):
        p = softmax(np.array([1e6, 1e6 + 1]))
        assert np.isfinite(p).all()

    def test_order_preserving(self):
        x = np.array([3.0, 1.0, 2.0])
        assert (np.argsort(softmax(x)) == np.argsort(x)).all()


class TestPredictionConfidence:
    def test_clear_winner_high_confidence(self):
        sims = np.array([[100.0, 10.0, 12.0, 11.0]])
        preds, conf = prediction_confidence(sims)
        assert preds[0] == 0
        assert conf[0] > 0.8

    def test_near_tie_low_confidence(self):
        sims = np.array([[50.0, 49.9, 10.0, 10.0]])
        _, conf = prediction_confidence(sims)
        assert conf[0] < 0.6

    def test_margin_method_range(self):
        rng = np.random.default_rng(0)
        sims = rng.normal(size=(50, 8))
        _, conf = prediction_confidence(sims, method="margin")
        assert (conf > 0.5).all() or np.allclose(conf[conf <= 0.5], 0.5)
        assert (conf <= 1.0).all()

    def test_softmax_method_range(self):
        rng = np.random.default_rng(1)
        sims = rng.normal(size=(50, 8))
        _, conf = prediction_confidence(sims, method="softmax")
        assert (conf > 1 / 8).all()
        assert (conf <= 1.0).all()

    @given(st.floats(min_value=1.0, max_value=1000.0))
    def test_scale_invariance(self, scale):
        """Z-scoring makes the confidence invariant to affine rescaling
        of the similarity values — Hamming counts vs dot products."""
        sims = np.array([[5.0, 3.0, 1.0]])
        _, base = prediction_confidence(sims)
        _, scaled = prediction_confidence(sims * scale + 7.0)
        assert np.allclose(base, scaled)

    def test_temperature_sharpens(self):
        sims = np.array([[5.0, 4.0, 1.0]])
        _, sharp = prediction_confidence(sims, temperature=0.1)
        _, soft = prediction_confidence(sims, temperature=5.0)
        assert sharp[0] > soft[0]

    def test_one_dim_input(self):
        preds, conf = prediction_confidence(np.array([1.0, 9.0]))
        assert preds.shape == (1,)
        assert preds[0] == 1

    def test_constant_row_no_nan(self):
        _, conf = prediction_confidence(np.array([[2.0, 2.0, 2.0]]))
        assert np.isfinite(conf).all()

    def test_bad_temperature(self):
        with pytest.raises(ValueError, match="temperature"):
            prediction_confidence(np.zeros((1, 3)), temperature=0.0)

    def test_bad_method(self):
        with pytest.raises(ValueError, match="method"):
            prediction_confidence(np.zeros((1, 3)), method="magic")

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="two classes"):
            prediction_confidence(np.zeros((1, 1)))


def standardised_reference(sims, temperature, method):
    """The confidence written with ``np.std`` and ``np.mean``, as it
    read before the row mean was computed once and shared."""
    sims = np.atleast_2d(np.asarray(sims, dtype=np.float64))
    std = sims.std(axis=1, keepdims=True)
    std[std == 0] = 1.0
    zscores = (sims - sims.mean(axis=1, keepdims=True)) / std
    preds = np.argmax(zscores, axis=1)
    if method == "softmax":
        probs = softmax(zscores / temperature, axis=1)
        return preds, probs[np.arange(probs.shape[0]), preds]
    top_two = np.partition(zscores, -2, axis=1)[:, -2:]
    gap = (top_two[:, 1] - top_two[:, 0]) / temperature
    return preds, 1.0 / (1.0 + np.exp(-gap))


@st.composite
def half_integer_tables(draw):
    """Similarity tables as a 1-bit model produces them: half-integers,
    narrow ranges (ties) to wide ones, with some constant rows."""
    b, k = draw(st.integers(1, 40)), draw(st.integers(2, 16))
    span = draw(st.sampled_from([1, 3, 50, 5_000]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sims = rng.integers(-span, span + 1, (b, k)) + draw(
        st.sampled_from([0.0, 0.5]))
    sims[rng.random(b) < 0.2] = draw(st.sampled_from([0.0, -2.5, 7.5]))
    return sims


class TestStandardisationBitIdentity:
    @given(half_integer_tables(), st.sampled_from(["margin", "softmax"]),
           st.sampled_from([1.0, 0.5, 3.0]))
    def test_equals_std_mean_formula(self, sims, method, temperature):
        """The shared-mean standardisation runs the float operations of
        ``np.std``/``np.mean``: predictions and confidences match the
        old formula bit for bit, ties and constant rows included."""
        preds, conf = prediction_confidence(sims, temperature, method)
        want_preds, want_conf = standardised_reference(
            sims, temperature, method)
        assert (preds == want_preds).all()
        assert conf.tobytes() == want_conf.tobytes()


class TestConfidentMask:
    def test_mask_thresholding(self):
        sims = np.array([[100.0, 0.0, 0.0, 0.0], [1.0, 1.4, 0.2, 1.5]])
        preds, conf, mask = confident_mask(sims, threshold=0.9)
        assert mask[0] and not mask[1]
        assert preds[0] == 0 and preds[1] == 3

    def test_margin_confidence_ceiling(self):
        """The margin confidence saturates at sigmoid(k / sqrt(k - 1)) —
        a one-hot winner cannot exceed it, so thresholds must be chosen
        below the ceiling for the class count in play."""
        for k in (2, 3, 8):
            sims = np.zeros((1, k))
            sims[0, 0] = 100.0
            _, conf = prediction_confidence(sims)
            ceiling = 1.0 / (1.0 + np.exp(-k / np.sqrt(k - 1)))
            assert conf[0] == pytest.approx(ceiling, abs=1e-9)

    def test_zero_threshold_trusts_all(self):
        sims = np.random.default_rng(2).normal(size=(10, 4))
        _, _, mask = confident_mask(sims, threshold=0.0)
        assert mask.all()
