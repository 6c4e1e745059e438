"""Tests for the ID-level encoder."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.encoder as encoder_module
from repro.core.encoder import (
    ENCODE_BLOCK_BYTES,
    Encoder,
    clear_codebook_cache,
    encode_words_from_codebook,
    quantize_features,
)
from repro.core.hypervector import hamming_distance
from repro.core import kernels
from repro.core.packed import PackedHypervectors, unpack


class TestQuantizeFeatures:
    def test_range_mapping(self):
        idx = quantize_features(np.array([0.0, 0.5, 1.0]), 4, 0.0, 1.0)
        assert list(idx) == [0, 2, 3]

    def test_clipping_saturates(self):
        idx = quantize_features(np.array([-5.0, 5.0]), 8, 0.0, 1.0)
        assert list(idx) == [0, 7]

    def test_full_range_covered(self):
        values = np.linspace(0, 1, 1000)
        idx = quantize_features(values, 16, 0.0, 1.0)
        assert set(idx) == set(range(16))

    @given(st.floats(min_value=0.0, max_value=1.0),
           st.integers(min_value=2, max_value=64))
    def test_always_in_range(self, value, levels):
        idx = quantize_features(np.array([value]), levels, 0.0, 1.0)
        assert 0 <= idx[0] < levels

    def test_monotone(self):
        values = np.sort(np.random.default_rng(0).random(100))
        idx = quantize_features(values, 10, 0.0, 1.0)
        assert (np.diff(idx) >= 0).all()

    def test_bad_levels(self):
        with pytest.raises(ValueError, match="levels"):
            quantize_features(np.zeros(3), 1, 0.0, 1.0)

    def test_bad_range(self):
        with pytest.raises(ValueError, match="high > low"):
            quantize_features(np.zeros(3), 4, 1.0, 1.0)


class TestEncoder:
    def test_shapes(self):
        enc = Encoder(num_features=10, dim=256, seed=0)
        assert enc.base.shape == (10, 256)
        assert enc.level.shape == (32, 256)
        out = enc.encode(np.random.default_rng(0).random(10))
        assert out.shape == (256,)
        assert out.dtype == np.uint8

    def test_batch_matches_single(self):
        enc = Encoder(num_features=8, dim=128, seed=1)
        rng = np.random.default_rng(2)
        batch = rng.random((5, 8))
        encoded = enc.encode_batch(batch)
        for i in range(5):
            assert (encoded[i] == enc.encode(batch[i])).all()

    def test_deterministic_across_instances(self):
        """Same parameters + seed => identical codebooks and encodings."""
        x = np.random.default_rng(3).random(6)
        a = Encoder(num_features=6, dim=128, seed=9).encode(x)
        b = Encoder(num_features=6, dim=128, seed=9).encode(x)
        assert (a == b).all()

    def test_different_seeds_differ(self):
        x = np.random.default_rng(3).random(6)
        a = Encoder(num_features=6, dim=512, seed=1).encode(x)
        b = Encoder(num_features=6, dim=512, seed=2).encode(x)
        assert (a != b).any()

    def test_locality(self):
        """Closer inputs encode to closer hypervectors."""
        enc = Encoder(num_features=20, dim=4_096, seed=4)
        rng = np.random.default_rng(5)
        x = rng.random(20)
        near = np.clip(x + 0.02, 0, 1)
        far = rng.random(20)
        d_near = hamming_distance(enc.encode(x), enc.encode(near))
        d_far = hamming_distance(enc.encode(x), enc.encode(far))
        assert d_near < d_far

    def test_identical_inputs_identical_codes(self):
        enc = Encoder(num_features=5, dim=128, seed=6)
        x = np.full(5, 0.3)
        assert (enc.encode(x) == enc.encode(x.copy())).all()

    def test_encode_rejects_matrix(self):
        enc = Encoder(num_features=5, dim=64, seed=0)
        with pytest.raises(ValueError, match="1-D"):
            enc.encode(np.zeros((2, 5)))

    def test_encode_batch_rejects_vector(self):
        enc = Encoder(num_features=5, dim=64, seed=0)
        with pytest.raises(ValueError, match="2-D"):
            enc.encode_batch(np.zeros(5))

    def test_feature_count_mismatch(self):
        enc = Encoder(num_features=5, dim=64, seed=0)
        with pytest.raises(ValueError, match="expected 5 features"):
            enc.encode_batch(np.zeros((2, 6)))

    def test_large_batch_block_split(self):
        """Batches larger than the internal working-set block agree with
        per-row encoding (covers the block loop)."""
        enc = Encoder(num_features=400, dim=2_000, seed=7)
        rng = np.random.default_rng(8)
        batch = rng.random((90, 400))  # forces multiple blocks
        encoded = enc.encode_batch(batch)
        assert (encoded[77] == enc.encode(batch[77])).all()

    @pytest.mark.parametrize(
        "kwargs", [dict(num_features=0, dim=64), dict(num_features=3, dim=1)]
    )
    def test_bad_construction(self, kwargs):
        with pytest.raises(ValueError):
            Encoder(seed=0, **kwargs)


class TestQuantizeNonFinite:
    def test_nan_raises_with_position(self):
        batch = np.array([[0.1, 0.2], [np.nan, 0.4]])
        with pytest.raises(ValueError, match=r"non-finite.*\(1, 0\)"):
            quantize_features(batch, 4, 0.0, 1.0)

    def test_inf_raises(self):
        with pytest.raises(ValueError, match="non-finite"):
            quantize_features(np.array([0.1, np.inf]), 4, 0.0, 1.0)

    def test_negative_inf_raises(self):
        with pytest.raises(ValueError, match="non-finite"):
            quantize_features(np.array([-np.inf]), 4, 0.0, 1.0)

    def test_count_reported(self):
        with pytest.raises(ValueError, match="3 non-finite"):
            quantize_features(
                np.array([np.nan, 1.0, np.nan, np.inf]), 4, 0.0, 1.0
            )

    def test_long_lists_truncated(self):
        with pytest.raises(ValueError, match=r"\.\.\."):
            quantize_features(np.full(20, np.nan), 4, 0.0, 1.0)

    def test_nan_propagates_to_encoder(self):
        enc = Encoder(num_features=3, dim=64, seed=0)
        with pytest.raises(ValueError, match="non-finite"):
            enc.encode(np.array([0.1, np.nan, 0.3]))


@st.composite
def encoder_and_batch(draw):
    """Random encoder geometry + feature batch, biased toward edge cases.

    Dims straddle the 64-bit word boundary (including non-multiples of
    64) and the 512-bit boundary of an 8-word vector, the widest the
    native kernel uses, with one multi-vector dim that ends in a partial
    vector; num_features includes the degenerate single-feature encoder
    and counts on both sides of the native kernel's 8-feature group.
    """
    num_features = draw(st.sampled_from([1, 2, 3, 7, 8, 9, 16, 33, 64]))
    dim = draw(st.sampled_from([2, 63, 64, 65, 127, 128, 130, 200, 256,
                                511, 512, 513, 1089]))
    levels = draw(st.sampled_from([2, 3, 8, 32]))
    if dim < levels:
        levels = 2
    batch = draw(st.integers(min_value=1, max_value=5))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rng = np.random.default_rng(seed)
    enc = Encoder(
        num_features=num_features, dim=dim, levels=levels, seed=seed % 97
    )
    return enc, rng.random((batch, num_features))


class TestPackedEncodingEquivalence:
    @given(encoder_and_batch())
    @settings(deadline=None)
    def test_packed_matches_reference(self, case):
        enc, batch = case
        assert (enc.encode_batch(batch) == enc.encode_batch_reference(batch)).all()

    @given(encoder_and_batch())
    @settings(deadline=None)
    def test_encode_packed_matches_reference(self, case):
        enc, batch = case
        packed = enc.encode_packed(batch)
        assert packed.dim == enc.dim
        assert (unpack(packed) == enc.encode_batch_reference(batch)).all()

    @given(encoder_and_batch())
    @settings(deadline=None)
    def test_reference_kernel_matches(self, case):
        enc, batch = case
        fast = enc.encode_batch(batch)
        with kernels.use_kernel_backend("reference"):
            assert (enc.encode_batch(batch) == fast).all()

    def test_single_feature_majority(self):
        """n=1: the bundle of one bound vector is that vector."""
        enc = Encoder(num_features=1, dim=100, levels=4, seed=0)
        x = np.array([[0.7]])
        idx = quantize_features(x, 4, 0.0, 1.0)[0, 0]
        expected = enc.base[0] ^ enc.level[idx]
        assert (enc.encode_batch(x)[0] == expected).all()

    def test_blocked_equals_unblocked(self):
        enc = Encoder(num_features=6, dim=130, seed=2)
        batch = np.random.default_rng(0).random((40, 6))
        idx = quantize_features(batch, enc.levels, enc.low, enc.high)
        blocked = encode_words_from_codebook(
            enc.packed_codebook().words, idx, rows_per_block=1
        )
        assert (blocked == enc.encode_packed(batch).words).all()
        assert (
            unpack(PackedHypervectors(words=blocked, dim=enc.dim))
            == enc.encode_batch(batch)
        ).all()


class TestBlockBytes:
    def test_default_matches_seed_heuristic(self):
        enc = Encoder(num_features=64, dim=10_000, seed=0)
        assert ENCODE_BLOCK_BYTES == 64_000_000
        # Reference path: identical blocking to the old hard-coded
        # max_cells // (n * dim) heuristic.
        assert enc.rows_per_block(packed=False) == 64_000_000 // (64 * 10_000)

    def test_rows_always_positive(self, monkeypatch):
        monkeypatch.setattr(encoder_module, "ENCODE_BLOCK_BYTES", 1)
        enc = Encoder(num_features=500, dim=10_000, seed=0)
        assert enc.rows_per_block(packed=True) == 1
        assert enc.rows_per_block(packed=False) == 1


class TestCodebookCache:
    def test_same_params_share_tables(self):
        clear_codebook_cache()
        a = Encoder(num_features=6, dim=128, levels=4, seed=11)
        b = Encoder(num_features=6, dim=128, levels=4, seed=11)
        assert a.base is b.base
        assert a.level is b.level

    def test_shared_tables_read_only(self):
        enc = Encoder(num_features=6, dim=128, seed=12)
        with pytest.raises(ValueError):
            enc.base[0, 0] = 1

    def test_different_params_differ(self):
        a = Encoder(num_features=6, dim=128, levels=4, seed=13)
        b = Encoder(num_features=6, dim=128, levels=8, seed=13)
        assert a.base is not b.base or a.level is not b.level

    def test_clear_forces_regeneration(self):
        a = Encoder(num_features=6, dim=128, seed=14)
        clear_codebook_cache()
        b = Encoder(num_features=6, dim=128, seed=14)
        assert a.base is not b.base
        assert (a.base == b.base).all()  # still deterministic

    def test_eviction_keeps_determinism(self):
        clear_codebook_cache()
        first = Encoder(num_features=2, dim=64, seed=100)
        for i in range(12):  # overflow the LRU
            Encoder(num_features=2, dim=64, seed=200 + i)
        again = Encoder(num_features=2, dim=64, seed=100)
        assert (first.base == again.base).all()


class TestPackedCodebook:
    def test_shape_and_reuse(self):
        enc = Encoder(num_features=5, dim=130, levels=4, seed=0)
        cb = enc.packed_codebook()
        assert cb.words.shape == (5, 4, 3)  # ceil(130 / 64) == 3
        assert cb.dim == 130
        assert enc.packed_codebook() is cb  # cached

    def test_words_match_bound_pairs(self):
        enc = Encoder(num_features=3, dim=100, levels=4, seed=1)
        cb = enc.packed_codebook()
        for k in range(3):
            for lvl in range(4):
                expected = enc.base[k] ^ enc.level[lvl]
                got = unpack(
                    PackedHypervectors(
                        words=cb.words[k, lvl][None, :], dim=100, single=True
                    )
                )
                assert (got == expected).all()

    def test_version_stamp_invalidates(self):
        enc = Encoder(num_features=3, dim=64, levels=4, seed=2)
        cb = enc.packed_codebook()
        enc.base = enc.base.copy()  # replace the table...
        enc.base[0] ^= 1
        enc.bump_codebook_version()  # ...and honour the write contract
        cb2 = enc.packed_codebook()
        assert cb2 is not cb
        assert cb2.version == enc.codebook_version
        assert (cb2.words != cb.words).any()

    def test_stale_codebook_not_served(self):
        enc = Encoder(num_features=2, dim=64, levels=2, seed=3)
        x = np.array([[0.1, 0.9]])
        before = enc.encode_batch(x)
        enc.base = 1 - enc.base
        enc.bump_codebook_version()
        after = enc.encode_batch(x)
        assert (after == enc.encode_batch_reference(x)).all()
        assert (before != after).any()
