"""Kernel-backend contract tests.

Every registered backend must produce chunk distance tables, distance
tables, encodings and recovery walks (and, on the Python walk's
backends, each ``repair_row`` write) bit-identical to
:class:`ReferenceBackend` — the unpacked uint8 oracle — over random
shapes, including operands with zeroed pad bits, chunks that start and
end inside a word, word-column slices (non-contiguous operands) and
strided table columns.
"""

import subprocess

import numpy as np
import pytest

from repro.core import kernels
from repro.core.confidence import prediction_confidence
from repro.core.packed import pack

RNG = np.random.default_rng(71)


def random_words(rows: int, words: int) -> np.ndarray:
    if words == 0:
        return np.zeros((rows, 0), dtype=np.uint64)
    raw = RNG.integers(0, 2, (rows, words * 64), dtype=np.uint8)
    return pack(raw).words


def padded_words(rows: int, dim: int) -> np.ndarray:
    """Packed words of a dim that is NOT word-aligned: pad bits zero."""
    raw = RNG.integers(0, 2, (rows, dim), dtype=np.uint8)
    return pack(raw).words


CPU_BACKENDS = ["numpy", "native"]
# The backends whose recovery walk is the base class's Python loop and
# so implement ``repair_row``; the native walk repairs inside its C
# call, pinned by ``TestRecoverWalk``.
REPAIR_BACKENDS = ["numpy", "reference"]
SHAPES = [(1, 1, 1), (4, 26, 157), (33, 7, 3), (256, 2, 16), (3, 64, 32)]


def get_or_skip(name: str) -> kernels.KernelBackend:
    if not kernels._BACKEND_CLASSES[name].available():
        pytest.skip(f"backend {name!r} unavailable in this environment")
    return kernels.get_backend(name)


class TestEquivalence:
    @pytest.mark.parametrize("name", CPU_BACKENDS)
    @pytest.mark.parametrize("b,k,w", SHAPES)
    def test_matches_reference_oracle(self, name, b, k, w):
        backend = get_or_skip(name)
        oracle = kernels.get_backend("reference")
        queries, model = random_words(b, w), random_words(k, w)
        got = backend.distance_table(queries, model)
        assert got.dtype == np.int64
        assert got.shape == (b, k)
        assert (got == oracle.distance_table(queries, model)).all()

    @pytest.mark.parametrize("name", CPU_BACKENDS)
    def test_padded_dims_are_exact(self, name):
        """Non-word-aligned dims: pad bits are zero in both operands and
        never perturb the table."""
        backend = get_or_skip(name)
        oracle = kernels.get_backend("reference")
        for dim in (1, 63, 65, 1000):
            queries, model = padded_words(9, dim), padded_words(5, dim)
            assert (
                backend.distance_table(queries, model)
                == oracle.distance_table(queries, model)
            ).all()

    @pytest.mark.parametrize("name", CPU_BACKENDS)
    def test_empty_operands(self, name):
        backend = get_or_skip(name)
        assert backend.distance_table(
            random_words(0, 5), random_words(3, 5)
        ).shape == (0, 3)
        zero_w = backend.distance_table(
            np.zeros((2, 0), np.uint64), np.zeros((3, 0), np.uint64)
        )
        assert zero_w.shape == (2, 3) and not zero_w.any()


# Chunk widths on, inside and straddling word boundaries.
CHUNK_BITS = [1, 63, 64, 65, 100, 500, 512]


def direct_chunk_distances(queries, model, num_chunks, chunk_bits):
    """Per-chunk mismatch counts straight from the unpacked bits."""
    dim = num_chunks * chunk_bits
    q = kernels._unpack_bits(queries)[:, :dim]
    m = kernels._unpack_bits(model)[:, :dim]
    diff = q[:, None, :] != m[None, :, :]  # (b, k, dim)
    per = diff.reshape(len(q), len(m), num_chunks, chunk_bits).sum(axis=-1)
    return per.transpose(0, 2, 1)


class TestChunkDistanceTable:
    @pytest.mark.parametrize("name", CPU_BACKENDS + ["reference"])
    @pytest.mark.parametrize("chunk_bits", CHUNK_BITS)
    @pytest.mark.parametrize("num_chunks", [1, 2, 7])
    def test_matches_reference_oracle(self, name, chunk_bits, num_chunks):
        backend = get_or_skip(name)
        dim = num_chunks * chunk_bits
        queries, model = padded_words(9, dim), padded_words(5, dim)
        got = backend.chunk_distance_table(queries, model, num_chunks,
                                           chunk_bits)
        assert got.dtype == np.int64
        assert got.shape == (9, num_chunks, 5)
        want = direct_chunk_distances(queries, model, num_chunks, chunk_bits)
        assert (got == want).all()
        oracle = kernels.get_backend("reference")
        assert (got == oracle.chunk_distance_table(
            queries, model, num_chunks, chunk_bits)).all()

    @pytest.mark.parametrize("name", CPU_BACKENDS + ["reference"])
    @pytest.mark.parametrize("chunk_bits", [1, 63, 65, 100])
    def test_bits_past_the_chunks_are_not_counted(self, name, chunk_bits):
        """Set bits after ``m·d`` (up to ``64·W``) never reach a chunk."""
        backend = get_or_skip(name)
        num_chunks = 3
        words = -(-num_chunks * chunk_bits // 64) + 1
        queries, model = random_words(4, words), random_words(6, words)
        got = backend.chunk_distance_table(queries, model, num_chunks,
                                           chunk_bits)
        want = direct_chunk_distances(queries, model, num_chunks, chunk_bits)
        assert (got == want).all()

    @pytest.mark.parametrize("name", CPU_BACKENDS + ["reference"])
    def test_zero_rows_classes_and_bits(self, name):
        backend = get_or_skip(name)
        q, m = random_words(3, 4), random_words(5, 4)
        assert backend.chunk_distance_table(q[:0], m, 2, 100).shape == (
            0, 2, 5)
        assert backend.chunk_distance_table(q, m[:0], 2, 100).shape == (
            3, 2, 0)
        assert backend.chunk_distance_table(q[:1], m[:1], 2, 100).shape == (
            1, 2, 1)
        empty = backend.chunk_distance_table(q, m, 4, 0)
        assert empty.shape == (3, 4, 5) and not empty.any()
        no_words = backend.chunk_distance_table(
            np.zeros((2, 0), np.uint64), np.zeros((3, 0), np.uint64), 1, 0
        )
        assert no_words.shape == (2, 1, 3) and not no_words.any()

    @pytest.mark.parametrize("name", CPU_BACKENDS + ["reference"])
    @pytest.mark.parametrize("chunk_bits", [63, 64, 100])
    def test_word_shard_operands(self, name, chunk_bits):
        """Column slices ``words[:, lo:hi]`` are read as the slice's own
        rows, not as views into the full rows."""
        backend = get_or_skip(name)
        queries, model = random_words(7, 20), random_words(4, 20)
        for lo, hi in ((0, 8), (3, 14), (12, 20)):
            q, m = queries[:, lo:hi], model[:, lo:hi]
            assert not m.flags.c_contiguous
            num_chunks = 64 * (hi - lo) // chunk_bits
            got = backend.chunk_distance_table(q, m, num_chunks, chunk_bits)
            want = direct_chunk_distances(
                np.ascontiguousarray(q), np.ascontiguousarray(m),
                num_chunks, chunk_bits,
            )
            assert (got == want).all()

    @pytest.mark.parametrize("name", CPU_BACKENDS + ["reference"])
    @pytest.mark.parametrize("b,k,w", SHAPES)
    def test_distance_table_is_the_one_chunk_case(self, name, b, k, w):
        backend = get_or_skip(name)
        queries, model = random_words(b, w), random_words(k, w)
        one_chunk = backend.chunk_distance_table(queries, model, 1, 64 * w)
        assert (backend.distance_table(queries, model)
                == one_chunk[:, 0]).all()

    @pytest.mark.parametrize("num_chunks,chunk_bits", [
        (0, 64), (2, -1), (3, 100),
    ])
    def test_geometry_validated(self, num_chunks, chunk_bits):
        """``m`` chunks of ``d`` bits must fit the ``64·W`` row bits."""
        q, m = random_words(2, 4), random_words(2, 4)
        for name, available in kernels.available_backends().items():
            if not available:
                continue
            with pytest.raises(ValueError, match="chunk"):
                kernels.get_backend(name).chunk_distance_table(
                    q, m, num_chunks, chunk_bits)


def random_codebook(n: int, levels: int, words: int) -> np.ndarray:
    return RNG.integers(0, np.iinfo(np.uint64).max, (n, levels, words),
                        dtype=np.uint64, endpoint=True)


# Feature counts cross the 8-operand carry-save group, the count-plane
# boundaries (8, 16, 64, 256 need one more plane than one less) and
# even-n majority ties; word counts straddle the native encoder's
# vectors (2, 4 or 8 words, by compile target).
ENCODE_FEATURES = [1, 2, 7, 8, 9, 15, 16, 17, 63, 64, 65, 255, 256, 561]
ENCODE_WORDS = [1, 7, 8, 9, 157]


class TestEncodeEquivalence:
    @pytest.mark.parametrize("name", CPU_BACKENDS)
    @pytest.mark.parametrize("n", ENCODE_FEATURES)
    def test_matches_reference_oracle(self, name, n):
        backend = get_or_skip(name)
        oracle = kernels.get_backend("reference")
        codebook = random_codebook(n, 4, 9)
        idx = RNG.integers(0, 4, (6, n))
        got = backend.encode_words(codebook, idx)
        assert got.dtype == np.uint64
        assert got.shape == (6, 9)
        assert (got == oracle.encode_words(codebook, idx)).all()

    @pytest.mark.parametrize("name", CPU_BACKENDS)
    @pytest.mark.parametrize("words", ENCODE_WORDS)
    def test_word_counts(self, name, words):
        backend = get_or_skip(name)
        oracle = kernels.get_backend("reference")
        codebook = random_codebook(17, 5, words)
        idx = RNG.integers(0, 5, (3, 17))
        assert (
            backend.encode_words(codebook, idx)
            == oracle.encode_words(codebook, idx)
        ).all()

    @pytest.mark.parametrize("name", CPU_BACKENDS)
    @pytest.mark.parametrize("n", [2, 16, 256])
    def test_ties_resolve_to_zero(self, name, n):
        """Half the features set every bit: each count is exactly n/2,
        which is not a strict majority; one more set feature is."""
        backend = get_or_skip(name)
        ones = np.iinfo(np.uint64).max
        codebook = np.zeros((n, 1, 10), dtype=np.uint64)
        codebook[: n // 2] = ones
        idx = np.zeros((2, n), dtype=np.int64)
        assert not backend.encode_words(codebook, idx).any()
        codebook[n // 2] = ones
        assert (backend.encode_words(codebook, idx) == ones).all()

    @pytest.mark.parametrize("name", CPU_BACKENDS + ["reference"])
    def test_word_slice_encodes_in_place(self, name):
        """A word-column view of the codebook (a strided operand) encodes
        to the same columns of the full encode."""
        backend = get_or_skip(name)
        codebook = random_codebook(33, 6, 20)
        idx = RNG.integers(0, 6, (7, 33))
        full = kernels.get_backend("reference").encode_words(codebook, idx)
        for lo, hi in ((0, 8), (3, 14), (9, 10), (12, 20)):
            view = codebook[:, :, lo:hi]
            assert not view.flags.c_contiguous
            assert (backend.encode_words(view, idx) == full[:, lo:hi]).all()

    @pytest.mark.parametrize("name", CPU_BACKENDS + ["reference"])
    def test_zero_rows_and_words(self, name):
        backend = get_or_skip(name)
        out = backend.encode_words(random_codebook(5, 3, 4),
                                   np.zeros((0, 5), dtype=np.int64))
        assert out.shape == (0, 4) and out.dtype == np.uint64
        out = backend.encode_words(np.zeros((5, 3, 0), dtype=np.uint64),
                                   np.zeros((2, 5), dtype=np.int64))
        assert out.shape == (2, 0)

    def test_dispatches_through_active_backend(self, monkeypatch):
        from repro.core.encoder import encode_words_from_codebook

        calls = []
        backend = kernels.ReferenceBackend()
        monkeypatch.setattr(
            backend, "encode_words",
            lambda cb, idx: calls.append(idx.shape)
            or kernels.ReferenceBackend.encode_words(backend, cb, idx),
        )
        codebook = random_codebook(9, 4, 3)
        idx = RNG.integers(0, 4, (10, 9))
        expected = encode_words_from_codebook(codebook, idx)
        with kernels.use_kernel_backend(backend):
            got = encode_words_from_codebook(codebook, idx, rows_per_block=4)
        assert calls == [(4, 9), (4, 9), (2, 9)]
        assert (got == expected).all()


def test_fallback_build_encodes_like_the_reference(tmp_path, monkeypatch):
    """The library the build's fallback command (no ``-march=native``)
    makes, whose vectors are narrower than the host build's, encodes
    the feature and word grids bit-identically too."""
    compiler = kernels._c_compiler()
    if compiler is None:
        pytest.skip("no C compiler in this environment")
    src, so = tmp_path / "kernels.c", tmp_path / "kernels.so"
    src.write_text(kernels._NATIVE_SOURCE)
    _, fallback = kernels._compile_commands(compiler, src, so)
    subprocess.run(fallback, check=True, capture_output=True, timeout=120)
    monkeypatch.setattr(kernels.NativeCpuBackend, "_lib",
                        kernels._load_library(so))
    backend = kernels.NativeCpuBackend()
    oracle = kernels.get_backend("reference")
    for n in ENCODE_FEATURES:
        codebook = random_codebook(n, 4, 9)
        idx = RNG.integers(0, 4, (6, n))
        assert (backend.encode_words(codebook, idx)
                == oracle.encode_words(codebook, idx)).all(), n
    for words in ENCODE_WORDS:
        codebook = random_codebook(17, 5, words)
        idx = RNG.integers(0, 5, (3, 17))
        assert (backend.encode_words(codebook, idx)
                == oracle.encode_words(codebook, idx)).all(), words


class TestEncodeValidation:
    """Out-of-range, negative and non-integer level indices are rejected
    before any backend reads the codebook with them."""

    @pytest.fixture(params=CPU_BACKENDS + ["reference"])
    def backend(self, request):
        return get_or_skip(request.param)

    def encode(self, backend, codebook, idx, **kw):
        from repro.core.encoder import encode_words_from_codebook

        with kernels.use_kernel_backend(backend):
            return encode_words_from_codebook(codebook, idx, **kw)

    def test_negative_index_rejected(self, backend):
        """-1 used to wrap to level L-1 through NumPy indexing."""
        codebook = random_codebook(4, 8, 2)
        with pytest.raises(ValueError, match=r"-1 at \(row 0, feature 0\)"):
            self.encode(backend, codebook, [[-1, 0, 1, 2]])
        with pytest.raises(ValueError, match="outside"):
            backend.encode_words(codebook, np.array([[0, 1, -1, 2]]))

    def test_index_equal_to_levels_rejected(self, backend):
        codebook = random_codebook(4, 8, 2)
        with pytest.raises(ValueError, match=r"8 at \(row 1, feature 3\)"):
            self.encode(backend, codebook, [[0, 1, 2, 3], [4, 5, 6, 8]])

    def test_float_index_rejected(self, backend):
        codebook = random_codebook(4, 8, 2)
        with pytest.raises(ValueError, match="integers"):
            self.encode(backend, codebook, [[0.0, 1.0, 2.0, 3.0]])

    def test_error_names_position_across_blocks(self, backend):
        codebook = random_codebook(3, 4, 2)
        idx = np.zeros((9, 3), dtype=np.int64)
        idx[7, 2] = 4
        with pytest.raises(ValueError, match=r"\(row 7, feature 2\)"):
            self.encode(backend, codebook, idx, rows_per_block=2)

    @pytest.mark.parametrize("idx", [np.zeros((2, 5), np.int64),
                                     np.zeros(4, np.int64)])
    def test_index_shape_rejected(self, backend, idx):
        with pytest.raises(ValueError, match=r"\(b, 4\)"):
            self.encode(backend, random_codebook(4, 8, 2), idx)

    @pytest.mark.parametrize("codebook", [
        np.zeros((4, 8, 2), dtype=np.int64),
        np.zeros((4, 16), dtype=np.uint64),
        np.zeros((4, 8, 4), dtype=np.uint64)[:, :, ::2],
    ], ids=["int64", "2-D", "strided-words"])
    def test_codebook_layout_rejected(self, backend, codebook):
        with pytest.raises(ValueError, match="unit word stride"):
            self.encode(backend, codebook, np.zeros((1, 4), np.int64))


def similarity_tables(ahead, model, num_chunks, chunk_bits):
    """Chunk ``(r, m, k)`` and whole-row ``(r, k)`` similarities of bit
    rows to a 1-bit model, straight from the unpacked bits (a matching
    bit counts +0.5, a differing one -0.5)."""
    agree = np.where(ahead[:, None, :] == model[None, :, :], 0.5, -0.5)
    span = num_chunks * chunk_bits
    per_chunk = agree[..., :span].reshape(
        len(ahead), len(model), num_chunks, chunk_bits
    ).sum(axis=-1)
    return per_chunk.transpose(0, 2, 1), agree.sum(axis=-1)


class TestRepairRow:
    """``repair_row``, the Python walk's write, against the reference:
    the row takes the query's bits where the draw is below the rate, and
    the patched table columns equal tables computed from scratch."""

    K, CLASS = 5, 3

    def run(self, name, chunk_bits, num_chunks, chunks, draws, rate,
            rows, seed=0, layout="C", extra_bits=0):
        backend = get_or_skip(name)
        rng = np.random.default_rng(seed)
        dim = num_chunks * chunk_bits + extra_bits
        model = rng.integers(0, 2, (self.K, dim), dtype=np.uint8)
        query = rng.integers(0, 2, dim, dtype=np.uint8)
        ahead = rng.integers(0, 2, (rows, dim), dtype=np.uint8)
        table, sims = similarity_tables(ahead, model, num_chunks, chunk_bits)
        table = np.array(table, order=layout)
        sims = np.array(sims, order=layout)
        before = model.copy()
        changed = backend.repair_row(
            model[self.CLASS], pack(query).words[0], chunks, chunk_bits,
            draws, rate, pack(ahead).words,
            table[:, :, self.CLASS], sims[:, self.CLASS],
        )
        return before, model, query, ahead, table, sims, changed

    def check(self, name, chunk_bits, num_chunks, chunks, draws, rate,
              rows, **kwargs):
        before, model, query, ahead, table, sims, changed = self.run(
            name, chunk_bits, num_chunks, chunks, draws, rate, rows, **kwargs
        )
        # The substitution, position by position.
        want = before.copy()
        want_changed = []
        for t, chunk in enumerate(chunks):
            span = slice(chunk * chunk_bits, (chunk + 1) * chunk_bits)
            take = draws[t] < rate
            want_changed.append(
                int(np.count_nonzero(take & (want[self.CLASS, span]
                                             != query[span])))
            )
            want[self.CLASS, span][take] = query[span][take]
        assert changed.dtype == np.int64
        assert changed.tolist() == want_changed
        assert (model == want).all()
        # The patched columns equal a fresh computation; the other
        # columns are untouched.
        fresh_table, fresh_sims = similarity_tables(
            ahead, model, num_chunks, chunk_bits)
        assert (table == fresh_table).all()
        assert (sims == fresh_sims).all()
        # Bit-identical to the reference backend.
        oracle = self.run("reference", chunk_bits, num_chunks, chunks, draws,
                          rate, rows, **kwargs)
        _, ref_model, _, _, ref_table, ref_sims, ref_changed = oracle
        for got, ref in ((model, ref_model), (table, ref_table),
                         (sims, ref_sims), (changed, ref_changed)):
            assert got.dtype == ref.dtype and (got == ref).all()
        return changed

    @pytest.mark.parametrize("name", REPAIR_BACKENDS)
    @pytest.mark.parametrize("chunk_bits", [64, 100, 250, 500])
    @pytest.mark.parametrize("rows", [0, 1, 9])
    def test_matches_fresh_tables(self, name, chunk_bits, rows):
        chunks = np.array([0, 2, 3, 5])
        draws = np.random.default_rng(chunk_bits).random((4, chunk_bits))
        changed = self.check(name, chunk_bits, 6, chunks, draws, 0.3, rows,
                             seed=chunk_bits + rows)
        assert changed.all()

    @pytest.mark.parametrize("name", REPAIR_BACKENDS)
    @pytest.mark.parametrize("chunk_bits", [64, 100, 250, 500])
    def test_every_chunk_flagged(self, name, chunk_bits):
        draws = np.random.default_rng(1).random((5, chunk_bits))
        self.check(name, chunk_bits, 5, np.arange(5), draws, 0.5, 7)

    @pytest.mark.parametrize("name", REPAIR_BACKENDS)
    def test_draws_that_flip_nothing(self, name):
        """Draws at or above the rate leave row and tables untouched."""
        draws = np.full((3, 100), 0.25)
        changed = self.check(name, 100, 4, np.array([0, 1, 3]), draws,
                             0.25, 6)
        assert changed.tolist() == [0, 0, 0]

    @pytest.mark.parametrize("name", REPAIR_BACKENDS)
    def test_no_chunks_flagged(self, name):
        changed = self.check(name, 100, 4, np.zeros(0, np.int64),
                             np.zeros((0, 100)), 1.0, 3)
        assert changed.shape == (0,)

    @pytest.mark.parametrize("name", REPAIR_BACKENDS)
    @pytest.mark.parametrize("layout", ["C", "F"])
    def test_strided_columns_and_unchunked_tail(self, name, layout):
        """Table columns of either memory layout, and row bits past
        ``m·d`` that no chunk covers (they count in the whole-row
        similarity only)."""
        draws = np.random.default_rng(2).random((2, 100))
        self.check(name, 100, 3, np.array([0, 2]), draws, 0.6, 8,
                   layout=layout, extra_bits=37)

    @pytest.mark.parametrize("name", REPAIR_BACKENDS)
    def test_strided_row(self, name):
        """A class row that is not contiguous is written in place."""
        backend = get_or_skip(name)
        rng = np.random.default_rng(3)
        model = np.asfortranarray(rng.integers(0, 2, (4, 128), np.uint8))
        query = rng.integers(0, 2, 128, dtype=np.uint8)
        assert not model[1].flags.c_contiguous
        backend.repair_row(
            model[1], pack(query).words[0], np.array([1]), 64,
            np.zeros((1, 64)), 1.0, np.zeros((0, 2), np.uint64),
            np.zeros((0, 2)), np.zeros(0),
        )
        assert (model[1, 64:] == query[64:]).all()


class TestRepairValidation:
    @pytest.fixture(params=REPAIR_BACKENDS)
    def backend(self, request):
        return get_or_skip(request.param)

    @staticmethod
    def operands(**override):
        ops = dict(
            row=np.zeros(200, np.uint8), query=np.zeros(4, np.uint64),
            chunks=np.array([0, 1]), chunk_bits=100,
            draws=np.zeros((2, 100)), rate=0.5,
            ahead=np.zeros((3, 4), np.uint64),
            chunk_sims=np.zeros((3, 2)), sims=np.zeros(3),
        )
        ops.update(override)
        return ops

    @pytest.mark.parametrize("override,match", [
        (dict(chunks=np.array([0, 2])), "chunks"),
        (dict(chunks=np.array([-1, 0])), "chunks"),
        (dict(chunks=np.array([1, 0])), "chunks"),
        (dict(chunks=np.array([1, 1])), "chunks"),
        (dict(draws=np.zeros((1, 100))), "draws"),
        (dict(draws=np.zeros((2, 100), np.float32)), "draws"),
        (dict(row=np.zeros(200, np.int8)), "uint8"),
        (dict(query=np.zeros(3, np.uint64)), "words"),
        (dict(ahead=np.zeros((3, 4), np.int64)), "words"),
        (dict(chunk_sims=np.zeros((2, 2))), "chunk_sims"),
        (dict(sims=np.zeros(3, np.float32)), "sims"),
        (dict(chunk_bits=101), "exceed"),
    ])
    def test_rejected(self, backend, override, match):
        with pytest.raises(ValueError, match=match):
            backend.repair_row(**self.operands(**override))

    def test_read_only_row_rejected(self, backend):
        row = np.zeros(200, np.uint8)
        row.flags.writeable = False
        with pytest.raises(ValueError, match="writeable"):
            backend.repair_row(**self.operands(row=row))


class TestRecoverWalk:
    """``recover_walk`` called directly: every backend leaves the model,
    the patched tables, the flag and repair records, the gate's values
    and the RNG where the reference's Python walk leaves them, on
    chunks of any width and with model bits past ``m·d`` that no chunk
    covers."""

    K = 4

    def walk(self, name, dim, num_chunks, threshold, rows=40, seed=5):
        backend = get_or_skip(name)
        rng = np.random.default_rng(seed)
        clean = rng.integers(0, 2, (self.K, dim), dtype=np.uint8)
        queries = clean[rng.integers(0, self.K, rows)]
        queries ^= (rng.random(queries.shape) < 0.2).astype(np.uint8)
        model = clean ^ (rng.random(clean.shape) < 0.3).astype(np.uint8)
        table, sims = similarity_tables(
            queries, model, num_chunks, dim // num_chunks
        )
        table, sims = np.ascontiguousarray(table), np.ascontiguousarray(sims)
        flags = np.zeros((self.K, num_chunks), dtype=np.int64)
        repair_bits = np.zeros((self.K, num_chunks), dtype=np.int64)
        draws = np.random.default_rng(seed + 1)
        preds, conf, writes = backend.recover_walk(
            model, pack(queries).words, sims, table, prediction_confidence,
            draws, flags, repair_bits, threshold=threshold, margin=0.0,
            rate=0.5, temperature=1.0, noise_scale=None,
        )
        return (model, sims, table, flags, repair_bits, preds, conf,
                np.array(writes), draws.bit_generator.state)

    @pytest.mark.parametrize("name", CPU_BACKENDS)
    @pytest.mark.parametrize("dim,num_chunks", [
        (256, 4), (200, 3), (301, 3), (130, 2), (640, 5),
    ])
    @pytest.mark.parametrize("threshold", [0.5, 0.6, 0.75])
    def test_matches_reference_walk(self, name, dim, num_chunks, threshold):
        got = self.walk(name, dim, num_chunks, threshold)
        want = self.walk("reference", dim, num_chunks, threshold)
        assert got[4].any() and got[7] > 0  # the walk wrote
        for a, b in zip(got[:-1], want[:-1]):
            assert a.dtype == b.dtype and (a == b).all()
        assert got[-1] == want[-1]

    def test_native_operands_rejected(self):
        backend = get_or_skip("native")
        ops = dict(
            class_hv=np.zeros((3, 200), np.uint8),
            words=np.zeros((5, 4), np.uint64), sims=np.zeros((5, 3)),
            table=np.zeros((5, 2, 3)), gate=prediction_confidence,
            rng=np.random.default_rng(0),
            flags=np.zeros((3, 2), np.int64),
            repair_bits=np.zeros((3, 2), np.int64), threshold=0.5,
            margin=0.0, rate=0.5, temperature=1.0, noise_scale=None,
        )
        for override, match in [
            (dict(class_hv=np.zeros((3, 200), np.int8)), "uint8"),
            (dict(words=np.zeros((5, 3), np.uint64)), "words"),
            (dict(sims=np.zeros((5, 3), order="F")), "sims"),
            (dict(table=np.zeros((5, 2, 3), np.float32)), "table"),
            (dict(flags=np.zeros((3, 3), np.int64)), "flags"),
            (dict(repair_bits=np.zeros((3, 2), np.int32)), "repair_bits"),
            (dict(table=np.zeros((5, 0, 3)), flags=np.zeros((3, 0), np.int64),
                  repair_bits=np.zeros((3, 0), np.int64)), "chunks"),
        ]:
            with pytest.raises(ValueError, match=match):
                backend.recover_walk(**{**ops, **override})


class TestValidation:
    def test_dtype_rejected(self):
        backend = kernels.get_backend("numpy")
        with pytest.raises(ValueError, match="uint64"):
            backend.distance_table(
                np.zeros((2, 3), np.int64), np.zeros((2, 3), np.uint64)
            )

    def test_shape_rejected(self):
        backend = kernels.get_backend("numpy")
        with pytest.raises(ValueError, match="2-D"):
            backend.distance_table(
                np.zeros(3, np.uint64), np.zeros((2, 3), np.uint64)
            )

    def test_word_mismatch_rejected(self):
        backend = kernels.get_backend("numpy")
        with pytest.raises(ValueError, match="word-count"):
            backend.distance_table(
                np.zeros((2, 3), np.uint64), np.zeros((2, 4), np.uint64)
            )


class TestRegistry:
    def test_available_backends_covers_registry(self):
        avail = kernels.available_backends()
        assert set(avail) == {"numpy", "reference", "native"}
        assert avail["numpy"] and avail["reference"]

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            kernels.get_backend("tpu")

    def test_unavailable_backend_rejected(self, monkeypatch):
        monkeypatch.setattr(kernels.NativeCpuBackend, "available",
                            classmethod(lambda cls: False))
        with pytest.raises(RuntimeError, match="not available"):
            kernels.get_backend("native")

    def test_instances_are_shared(self):
        assert kernels.get_backend("numpy") is kernels.get_backend("numpy")

    def test_use_kernel_backend_by_name_and_instance(self):
        with kernels.use_kernel_backend("reference"):
            assert kernels.active_backend().name == "reference"
            instance = kernels.NumpyPackedBackend()
            with kernels.use_kernel_backend(instance) as active:
                assert active is instance
                assert kernels.active_backend() is instance
            assert kernels.active_backend().name == "reference"

    def test_use_kernel_backend_rejects_garbage(self):
        before = kernels.active_backend()
        with pytest.raises(TypeError):
            with kernels.use_kernel_backend(42):
                pass
        with pytest.raises(ValueError, match="unknown kernel backend"):
            with kernels.use_kernel_backend("tpu"):
                pass
        assert kernels.active_backend() is before

    def test_env_var_resolution(self, monkeypatch):
        monkeypatch.setattr(kernels, "_ACTIVE", None)
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "reference")
        assert kernels.active_backend().name == "reference"

    def test_default_prefers_native_when_available(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL_BACKEND", raising=False)
        expected = (
            "native" if kernels.NativeCpuBackend.available() else "numpy"
        )
        assert kernels._default_backend_name() == expected

    def test_use_kernel_backend_restores(self):
        before = kernels.active_backend().name
        with kernels.use_kernel_backend("reference") as backend:
            assert backend.name == "reference"
            assert kernels.active_backend() is backend
        assert kernels.active_backend().name == before

    def test_distances_dispatch_through_active_backend(self):
        """PackedModel.distances honours the backend selection."""
        from repro.core.packed import PackedModel

        words = random_words(4, 6)
        model = PackedModel(words=words, dim=6 * 64, version=1)
        queries = random_words(3, 6)
        with kernels.use_kernel_backend("reference"):
            via_ref = model.distances(queries)
        assert (via_ref == model.distances(queries)).all()


class TestNativeBackend:
    def test_native_skips_cleanly_when_toolchain_missing(self):
        # available() never raises; it reports the compile outcome.
        assert kernels.NativeCpuBackend.available() in (True, False)

    def test_build_error_kept_when_compile_fails(self, monkeypatch):
        """A C error leaves the backend unavailable with the compiler's
        text on the class, not a silent fall-back to numpy."""
        import subprocess

        def broken():
            raise subprocess.CalledProcessError(
                1, ["cc"], stderr="kernels.c:1: error: expected ';'"
            )

        monkeypatch.setattr(kernels, "_build_native_kernel", broken)
        monkeypatch.setattr(kernels.NativeCpuBackend, "_lib", None)
        monkeypatch.setattr(kernels.NativeCpuBackend, "_build_error", None)
        assert not kernels.NativeCpuBackend.available()
        assert "expected ';'" in kernels.NativeCpuBackend.build_error()
        with pytest.raises(RuntimeError, match="expected ';'"):
            kernels.NativeCpuBackend().encode_words(
                random_codebook(2, 2, 1), np.zeros((1, 2), np.int64)
            )
