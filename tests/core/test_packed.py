"""Equivalence tests: packed backend vs the uint8 reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.chunks import chunk_similarities_batch
from repro.core.hypervector import bind, hamming_distance
from repro.core.model import HDCModel
from repro.core.packed import (
    PackedHypervectors,
    bit_plane_ge,
    bit_plane_sum,
    pack,
    pack_model,
    packed_bind,
    packed_hamming_distance,
    packed_popcount,
    unpack,
)
from repro.obs.metrics import MetricsRegistry, use_metrics


@st.composite
def hv_batch(draw):
    dim = draw(st.integers(min_value=1, max_value=300))
    batch = draw(st.integers(min_value=1, max_value=6))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, (batch, dim), dtype=np.uint8)


class TestRoundtrip:
    @given(hv_batch())
    def test_pack_unpack_identity(self, hvs):
        assert (unpack(pack(hvs)) == hvs).all()

    def test_single_vector_roundtrip(self):
        rng = np.random.default_rng(0)
        hv = rng.integers(0, 2, 130, dtype=np.uint8)
        packed = pack(hv)
        assert packed.single
        out = unpack(packed)
        assert out.ndim == 1
        assert (out == hv).all()

    def test_non_multiple_of_64_padded(self):
        hvs = np.ones((2, 65), dtype=np.uint8)
        packed = pack(hvs)
        assert packed.words.shape == (2, 2)
        assert (unpack(packed) == hvs).all()

    def test_rejects_nonbinary(self):
        with pytest.raises(ValueError, match="binary"):
            pack(np.array([0, 2], dtype=np.uint8))

    def test_rejects_3d(self):
        with pytest.raises(ValueError, match="1-D or 2-D"):
            pack(np.zeros((2, 2, 2), dtype=np.uint8))


class TestEquivalence:
    @given(hv_batch())
    def test_hamming_matches_reference(self, hvs):
        packed = pack(hvs)
        for i in range(hvs.shape[0]):
            for j in range(hvs.shape[0]):
                ref = hamming_distance(hvs[i], hvs[j])
                got = packed_hamming_distance(
                    packed.words[i], packed.words[j]
                )
                assert int(got) == int(ref)

    @given(hv_batch())
    def test_bind_matches_reference(self, hvs):
        packed = pack(hvs)
        bound_ref = bind(hvs, hvs[::-1].copy())
        bound_packed = packed_bind(packed.words, pack(hvs[::-1].copy()).words)
        assert (
            unpack(PackedHypervectors(bound_packed, packed.dim)) == bound_ref
        ).all()

    def test_query_vs_model_broadcast(self):
        rng = np.random.default_rng(1)
        model = rng.integers(0, 2, (5, 200), dtype=np.uint8)
        query = rng.integers(0, 2, 200, dtype=np.uint8)
        pm, pq = pack(model), pack(query)
        got = packed_hamming_distance(pq.words[0], pm.words)
        ref = hamming_distance(query, model)
        assert (got == ref).all()

    def test_hamming_to_pairwise(self):
        rng = np.random.default_rng(2)
        a = rng.integers(0, 2, (3, 100), dtype=np.uint8)
        b = rng.integers(0, 2, (4, 100), dtype=np.uint8)
        table = pack(a).hamming_to(pack(b))
        assert table.shape == (3, 4)
        for i in range(3):
            for j in range(4):
                assert table[i, j] == hamming_distance(a[i], b[j])


class TestPopcount:
    def test_known_values(self):
        words = np.array([0, 1, 3, 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
        assert packed_popcount(words) == 0 + 1 + 2 + 64

    def test_axis_semantics(self):
        words = np.array(
            [[1, 1], [0xFF, 0]], dtype=np.uint64
        )
        out = packed_popcount(words)
        assert list(out) == [2, 8]

    def test_dtype_checked(self):
        with pytest.raises(ValueError, match="uint64"):
            packed_popcount(np.zeros(2, dtype=np.int64))


class TestStorage:
    def test_eight_x_compression(self):
        hvs = np.zeros((1, 10_240), dtype=np.uint8)
        packed = pack(hvs)
        assert packed.bytes_per_vector == 10_240 // 8

    def test_validation(self):
        with pytest.raises(ValueError, match="uint64"):
            PackedHypervectors(np.zeros((1, 2), dtype=np.int64), dim=128)
        with pytest.raises(ValueError, match="words per vector"):
            PackedHypervectors(np.zeros((1, 3), dtype=np.uint64), dim=128)
        with pytest.raises(ValueError, match="dim"):
            PackedHypervectors(np.zeros((1, 1), dtype=np.uint64), dim=0)

    def test_bind_method(self):
        rng = np.random.default_rng(3)
        a = rng.integers(0, 2, (2, 70), dtype=np.uint8)
        b = rng.integers(0, 2, (2, 70), dtype=np.uint8)
        out = pack(a).bind(pack(b))
        assert (unpack(out) == (a ^ b)).all()

    def test_bind_shape_checked(self):
        a = pack(np.zeros((1, 64), dtype=np.uint8))
        b = pack(np.zeros((2, 64), dtype=np.uint8))
        with pytest.raises(ValueError, match="equal"):
            a.bind(b)


# Odd dimensionalities deliberately straddle word and byte boundaries.
_ODD_DIMS = st.sampled_from([1, 7, 63, 64, 65, 100, 127, 128, 129, 300, 1000])


@st.composite
def model_and_queries(draw):
    """A 1-bit model plus a binary query batch at an awkward dimension."""
    dim = draw(_ODD_DIMS)
    k = draw(st.integers(min_value=2, max_value=6))
    batch = draw(st.integers(min_value=1, max_value=8))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rng = np.random.default_rng(seed)
    model = HDCModel(rng.integers(0, 2, (k, dim), dtype=np.uint8))
    queries = rng.integers(0, 2, (batch, dim), dtype=np.uint8)
    return model, queries


class TestBackendEquivalence:
    """The packed engine must be bit-identical to the float64 reference,
    which float queries take."""

    @given(model_and_queries())
    @settings(deadline=None)
    def test_similarities_bit_identical(self, mq):
        model, queries = mq
        packed_sims = model.similarities(queries)
        float_sims = model.similarities(queries.astype(np.float64))
        assert (packed_sims == float_sims).all()

    @given(model_and_queries())
    @settings(deadline=None)
    def test_predict_identical_including_ties(self, mq):
        model, queries = mq
        packed_preds = model.predict(queries)
        float_preds = model.predict(queries.astype(np.float64))
        assert (packed_preds == float_preds).all()

    @given(model_and_queries(), st.integers(min_value=1, max_value=4))
    @settings(deadline=None)
    def test_chunk_similarities_bit_identical(self, mq, chunk_factor):
        model, queries = mq
        divisors = [m for m in range(1, model.dim + 1) if model.dim % m == 0]
        num_chunks = divisors[min(chunk_factor, len(divisors) - 1)]
        packed_sims = chunk_similarities_batch(model, queries, num_chunks)
        float_sims = chunk_similarities_batch(
            model, queries.astype(np.float64), num_chunks
        )
        assert (packed_sims == float_sims).all()

    @given(hv_batch())
    def test_bind_roundtrip_odd_dims(self, hvs):
        packed = pack(hvs).bind(pack(hvs[::-1].copy()))
        assert (unpack(packed) == bind(hvs, hvs[::-1].copy())).all()

    @given(hv_batch())
    def test_hamming_matches_reference_vectorised(self, hvs):
        packed = pack(hvs)
        got = packed.hamming_to(packed)
        ref = np.bitwise_xor(hvs[:, None, :], hvs[None, :, :]).sum(
            axis=-1, dtype=np.int64
        )
        assert (got == ref).all()


QUERY_FORMS = {
    "uint8": lambda q: q,
    "bool": lambda q: q.astype(bool),
    "int64": lambda q: q.astype(np.int64),
    "float64": lambda q: q.astype(np.float64),
    "packed": pack,
}


class TestInputPicksPath:
    """The query's form alone picks the packed or the float path: a
    1-bit model packs 0/1 integer, bool and packed queries; float
    queries and a multi-bit model take the float64 reference.  Every
    form gets the same table."""

    @pytest.mark.parametrize("bits", [1, 2])
    @pytest.mark.parametrize("form", sorted(QUERY_FORMS))
    def test_counter_and_table(self, form, bits):
        rng = np.random.default_rng(5)
        model = HDCModel(
            rng.integers(0, 1 << bits, (4, 200), dtype=np.uint8), bits=bits
        )
        rows = rng.integers(0, 2, (6, 200), dtype=np.uint8)
        oracle = rows.astype(np.float64)
        want_sims = model.similarities(oracle)
        want_chunks = chunk_similarities_batch(model, oracle, 8)
        queries = QUERY_FORMS[form](rows)
        with use_metrics(MetricsRegistry()) as registry:
            sims = model.similarities(queries)
            chunks = chunk_similarities_batch(model, queries, 8)
        path, other = "packed", "float"
        if bits != 1 or form == "float64":
            path, other = other, path
        assert registry.counter(f"model.similarity_batches_{path}") == 1
        assert registry.counter(f"model.similarity_batches_{other}") == 0
        assert registry.counter(f"chunks.detect_batches_{path}") == 1
        assert registry.counter(f"chunks.detect_batches_{other}") == 0
        assert (sims == want_sims).all()
        assert (chunks == want_chunks).all()


class TestPopcountFastPath:
    def test_matches_lookup_table(self):
        """``np.bitwise_count`` agrees with a per-word string-count oracle."""
        rng = np.random.default_rng(11)
        words = rng.integers(0, 2**64, (8, 5), dtype=np.uint64)
        oracle = [sum(bin(int(w)).count("1") for w in row) for row in words]
        assert (packed_popcount(words) == np.array(oracle)).all()


class TestPackedModel:
    def test_pack_model_roundtrip(self):
        rng = np.random.default_rng(12)
        class_hv = rng.integers(0, 2, (4, 130), dtype=np.uint8)
        pm = pack_model(class_hv, version=5)
        assert pm.version == 5
        assert pm.num_classes == 4
        assert (
            unpack(PackedHypervectors(pm.words, pm.dim)) == class_hv
        ).all()

    def test_distances_match_reference(self):
        rng = np.random.default_rng(14)
        class_hv = rng.integers(0, 2, (5, 200), dtype=np.uint8)
        queries = rng.integers(0, 2, (9, 200), dtype=np.uint8)
        pm = pack_model(class_hv)
        got = pm.distances(pack(queries).words)
        ref = np.bitwise_xor(queries[:, None, :], class_hv[None, :, :]).sum(
            axis=-1, dtype=np.int64
        )
        assert (got == ref).all()


@st.composite
def word_operands(draw):
    """A stack of equal-shape uint64 word arrays plus their bit matrix."""
    num_operands = draw(st.integers(min_value=1, max_value=9))
    dim = draw(st.integers(min_value=1, max_value=150))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, (num_operands, dim), dtype=np.uint8)
    operands = [pack(bits[i : i + 1]).words for i in range(num_operands)]
    return operands, bits


class TestBitPlanes:
    @given(word_operands())
    @settings(deadline=None)
    def test_sum_planes_encode_counts(self, case):
        """The little-endian planes spell the per-position operand count."""
        operands, bits = case
        planes = bit_plane_sum(operands)
        dim = bits.shape[1]
        counts = np.zeros(dim, dtype=np.int64)
        for i, plane in enumerate(planes):
            plane_bits = unpack(
                PackedHypervectors(words=plane, dim=dim)
            )[0].astype(np.int64)
            counts += plane_bits << i
        assert (counts == bits.sum(axis=0)).all()

    @given(word_operands(), st.integers(min_value=-1, max_value=11))
    @settings(deadline=None)
    def test_ge_matches_integer_compare(self, case, threshold):
        operands, bits = case
        planes = bit_plane_sum(operands)
        out = bit_plane_ge(planes, threshold)
        dim = bits.shape[1]
        got = unpack(PackedHypervectors(words=out, dim=dim))[0]
        expected = (bits.sum(axis=0) >= threshold).astype(np.uint8)
        # Compare only real dims: pad bits of the all-ones threshold<=0
        # result are not meaningful.
        assert (got == expected).all()

    def test_sum_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            bit_plane_sum([])

    def test_ge_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            bit_plane_ge([], 1)

    def test_single_operand_identity(self):
        words = pack(np.array([[1, 0, 1]], dtype=np.uint8)).words
        planes = bit_plane_sum([words])
        assert len(planes) == 1
        assert planes[0] is words

    def test_plane_count_is_logarithmic(self):
        rng = np.random.default_rng(0)
        operands = [
            pack(rng.integers(0, 2, (2, 64), dtype=np.uint8)).words
            for _ in range(100)
        ]
        planes = bit_plane_sum(operands)
        # 100 operands need 7 counter bits; the adder tree may keep one
        # (all-zero) top carry plane untrimmed.
        assert len(planes) <= 8


class TestPackedIndexing:
    def test_len(self):
        packed = pack(np.zeros((5, 70), dtype=np.uint8))
        assert len(packed) == 5

    def test_int_index_returns_single(self):
        rng = np.random.default_rng(1)
        hvs = rng.integers(0, 2, (4, 130), dtype=np.uint8)
        packed = pack(hvs)
        row = packed[2]
        assert row.single
        assert (unpack(row) == hvs[2]).all()

    def test_slice_and_fancy_index(self):
        rng = np.random.default_rng(2)
        hvs = rng.integers(0, 2, (6, 70), dtype=np.uint8)
        packed = pack(hvs)
        assert (unpack(packed[1:4]) == hvs[1:4]).all()
        idx = np.array([5, 0, 3])
        assert (unpack(packed[idx]) == hvs[idx]).all()

    def test_views_share_words(self):
        packed = pack(np.ones((3, 64), dtype=np.uint8))
        assert np.shares_memory(packed[0:2].words, packed.words)


class TestPerturbationHelpers:
    """packed_flip_bits / packed_single_bit_flips vs the uint8 reference."""

    def test_flip_bits_matches_reference(self):
        from repro.core.packed import packed_flip_bits

        rng = np.random.default_rng(3)
        hvs = rng.integers(0, 2, (4, 130), dtype=np.uint8)
        idx = rng.choice(130, size=17, replace=False)
        flipped = packed_flip_bits(pack(hvs).words, 130, idx)
        expected = hvs.copy()
        expected[:, idx] ^= 1
        got = unpack(PackedHypervectors(words=flipped, dim=130, single=False))
        assert (got == expected).all()

    def test_flip_is_involution(self):
        from repro.core.packed import packed_flip_bits

        rng = np.random.default_rng(4)
        words = pack(rng.integers(0, 2, (2, 200), dtype=np.uint8)).words
        idx = np.array([0, 63, 64, 199])
        assert (
            packed_flip_bits(packed_flip_bits(words, 200, idx), 200, idx)
            == words
        ).all()

    def test_flip_preserves_pad_bits(self):
        from repro.core.packed import packed_flip_bits, packed_popcount

        hvs = np.ones((1, 70), dtype=np.uint8)
        flipped = packed_flip_bits(pack(hvs).words, 70, np.arange(70))
        # Every logical bit flipped to 0; pad bits must stay 0 too.
        assert packed_popcount(flipped).item() == 0

    def test_flip_validates_range_and_duplicates(self):
        from repro.core.packed import packed_flip_bits

        words = pack(np.zeros((1, 70), dtype=np.uint8)).words
        with pytest.raises(ValueError):
            packed_flip_bits(words, 70, np.array([70]))
        with pytest.raises(ValueError):
            packed_flip_bits(words, 70, np.array([-1]))
        with pytest.raises(ValueError):
            packed_flip_bits(words, 70, np.array([3, 3]))
        with pytest.raises(ValueError):
            packed_flip_bits(words.astype(np.int64), 70, np.array([3]))

    def test_single_bit_flips_candidates(self):
        from repro.core.packed import packed_single_bit_flips

        rng = np.random.default_rng(5)
        hv = rng.integers(0, 2, (1, 130), dtype=np.uint8)
        row = pack(hv).words[0]
        positions = np.array([0, 63, 64, 129, 7])
        cands = packed_single_bit_flips(row, 130, positions)
        assert cands.shape == (5, row.shape[0])
        for j, p in enumerate(positions):
            expected = hv[0].copy()
            expected[p] ^= 1
            got = unpack(PackedHypervectors(
                words=cands[j][None, :], dim=130, single=True
            ))
            assert (got == expected).all(), p

    def test_single_bit_flips_validation(self):
        from repro.core.packed import packed_single_bit_flips

        row = pack(np.zeros((1, 64), dtype=np.uint8)).words[0]
        with pytest.raises(ValueError):
            packed_single_bit_flips(row, 64, np.array([64]))
        with pytest.raises(ValueError):
            packed_single_bit_flips(row[None, :], 64, np.array([0]))
