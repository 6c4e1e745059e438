"""Tests for the unified fault-injection API."""

import numpy as np
import pytest

from repro.core.model import HDCModel
from repro.faults.api import (
    ClusteredBitflipInjector,
    FaultInjector,
    FaultMask,
    InformedBitflipInjector,
    RandomBitflipInjector,
    TargetedBitflipInjector,
    attack,
    inject,
    make_injector,
)
from repro.faults.models import TransientFlipProcess


def make_model(k=3, dim=64, bits=1, seed=0):
    rng = np.random.default_rng(seed)
    hv = rng.integers(0, 1 << bits, (k, dim)).astype(np.uint8)
    return HDCModel(class_hv=hv, bits=bits)


class TestFaultMask:
    def test_sorted_and_validated(self):
        mask = FaultMask(bit_indices=np.array([5, 1, 3]), shape=(2, 8))
        assert (mask.bit_indices == [1, 3, 5]).all()
        assert mask.num_faults == 3
        assert mask.total_bits == 16

    def test_rejects_out_of_range(self):
        with pytest.raises(IndexError):
            FaultMask(bit_indices=np.array([16]), shape=(2, 8))
        with pytest.raises(IndexError):
            FaultMask(bit_indices=np.array([-1]), shape=(2, 8))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicates"):
            FaultMask(bit_indices=np.array([3, 3]), shape=(2, 8))

    def test_element_views(self):
        mask = FaultMask(bit_indices=np.array([0, 9, 15]), shape=(2, 8))
        classes, dims = mask.element_indices()
        assert (classes == [0, 1, 1]).all()
        assert (dims == [0, 1, 7]).all()
        assert (mask.per_class_counts() == [1, 2]).all()

    def test_chunk_views(self):
        mask = FaultMask(bit_indices=np.array([0, 1, 9]), shape=(2, 8))
        counts = mask.chunk_fault_counts(2)  # chunks of 4 dims
        assert (counts == [[2, 0], [1, 0]]).all()
        assert (mask.faulty_chunks(2) == [[True, False], [True, False]]).all()

    def test_chunk_geometry_validated(self):
        mask = FaultMask(bit_indices=np.array([0]), shape=(2, 8))
        with pytest.raises(ValueError, match="divisible"):
            mask.chunk_fault_counts(3)

    def test_apply_flips_exactly_masked_bits(self):
        model = make_model()
        mask = inject(model, 0.1, "random", np.random.default_rng(0))
        attacked = mask.applied_to(model)
        diff = np.flatnonzero(
            (attacked.class_hv != model.class_hv).reshape(-1)
        )
        assert (np.sort(mask.bit_indices) == diff).all()
        # Applying twice restores the original (XOR involution).
        mask.apply(attacked)
        assert (attacked.class_hv == model.class_hv).all()

    def test_apply_checks_shape(self):
        model = make_model(dim=64)
        mask = inject(model, 0.1, rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="mask built for"):
            mask.apply(make_model(dim=32))

    def test_apply_bumps_model_version(self):
        model = make_model()
        before = model.version
        inject(model, 0.1, rng=np.random.default_rng(0)).apply(model)
        assert model.version > before

    def test_dict_round_trip(self):
        mask = FaultMask(
            bit_indices=np.array([1, 5]), shape=(2, 8), mode="random",
            rate=0.1,
        )
        back = FaultMask.from_dict(mask.to_dict())
        assert (back.bit_indices == mask.bit_indices).all()
        assert back.shape == mask.shape
        assert back.mode == mask.mode
        assert back.rate == mask.rate


class TestProtocol:
    def test_builtin_injectors_satisfy_protocol(self):
        for injector in (
            RandomBitflipInjector(),
            TargetedBitflipInjector(),
            ClusteredBitflipInjector(),
            InformedBitflipInjector(np.zeros((1, 64), dtype=np.uint8)),
        ):
            assert isinstance(injector, FaultInjector)

    def test_make_injector(self):
        assert isinstance(make_injector("random"), RandomBitflipInjector)
        assert make_injector("clustered", cluster_bits=128).cluster_bits == 128
        with pytest.raises(ValueError, match="mode"):
            make_injector("nope")

    def test_inject_accepts_instance(self):
        model = make_model()
        mask = inject(
            model, 0.1, RandomBitflipInjector(), np.random.default_rng(0)
        )
        assert mask.num_faults == round(0.1 * model.total_bits)

    def test_instance_plus_kwargs_rejected(self):
        model = make_model()
        with pytest.raises(TypeError, match="kwargs"):
            inject(
                model, 0.1, RandomBitflipInjector(),
                np.random.default_rng(0), cluster_bits=64,
            )

    def test_injection_is_pure(self):
        model = make_model()
        snapshot = model.class_hv.copy()
        inject(model, 0.2, "random", np.random.default_rng(0))
        assert (model.class_hv == snapshot).all()

    def test_custom_injector_duck_types(self):
        class FirstBitsInjector:
            def inject(self, model, rate, rng):
                count = round(rate * model.total_bits)
                return FaultMask(
                    bit_indices=np.arange(count),
                    shape=model.class_hv.shape,
                    bits=model.bits,
                    mode="first",
                    rate=rate,
                )

        model = make_model()
        attacked, mask = attack(
            model, 0.1, FirstBitsInjector(), np.random.default_rng(0)
        )
        assert isinstance(FirstBitsInjector(), FaultInjector)
        assert (mask.bit_indices == np.arange(mask.num_faults)).all()
        assert (
            attacked.class_hv.reshape(-1)[: mask.num_faults]
            != model.class_hv.reshape(-1)[: mask.num_faults]
        ).all()


class TestAttack:
    def test_returns_copy_and_mask(self):
        model = make_model()
        attacked, mask = attack(model, 0.1, "random", np.random.default_rng(0))
        assert attacked is not model
        assert (model.class_hv == make_model().class_hv).all()
        assert mask.num_faults == round(0.1 * model.total_bits)

    @pytest.mark.parametrize("mode", ["random", "targeted", "clustered"])
    def test_mask_matches_damage(self, mode):
        model = make_model(dim=1024)
        attacked, mask = attack(model, 0.05, mode, np.random.default_rng(3))
        diff = np.flatnonzero(
            (attacked.class_hv != model.class_hv).reshape(-1)
        )
        assert (np.sort(mask.bit_indices) == diff).all()

    def test_informed_mode(self):
        model = make_model(dim=256)
        queries = np.random.default_rng(1).integers(
            0, 2, (20, 256), dtype=np.uint8
        )
        attacked, mask = attack(
            model, 0.05, "informed", np.random.default_rng(0),
            reference_queries=queries,
        )
        assert mask.mode == "informed"
        assert mask.num_faults == round(0.05 * model.total_bits)
        diff = np.flatnonzero(
            (attacked.class_hv != model.class_hv).reshape(-1)
        )
        assert (mask.bit_indices == diff).all()


class TestTransientProcessConvergence:
    def test_expose_uses_injector_and_keeps_mask(self):
        model = make_model(dim=512)
        process = TransientFlipProcess(0.05, seed=9)
        assert isinstance(process.injector, RandomBitflipInjector)
        before = model.class_hv.copy()
        flipped = process.expose(model)
        assert process.exposures == 1
        assert process.last_mask is not None
        assert process.last_mask.num_faults == flipped
        diff = np.flatnonzero((model.class_hv != before).reshape(-1))
        assert (process.last_mask.bit_indices == diff).all()

    def test_expose_matches_legacy_rng_stream(self):
        """Same seed, same damage as the pre-protocol implementation."""
        from repro.faults.bitflip import flip_hdc_bits, sample_random_bits

        new_model = make_model(dim=512)
        TransientFlipProcess(0.05, seed=9).expose(new_model)

        old_model = make_model(dim=512)
        rng = np.random.default_rng(9)
        flip_hdc_bits(
            old_model, sample_random_bits(old_model.total_bits, 0.05, rng)
        )
        assert (new_model.class_hv == old_model.class_hv).all()

    def test_custom_injector(self):
        model = make_model(dim=512)
        process = TransientFlipProcess(
            0.02, seed=1, injector=ClusteredBitflipInjector(cluster_bits=128)
        )
        process.expose(model)
        assert process.last_mask.mode == "clustered"


class TestUnseededCallStreams:
    """Regression: un-seeded inject/attack calls must not replay one mask.

    ``inject`` used to fall back to ``np.random.default_rng(0)`` on
    *every* call, so campaigns issuing back-to-back un-seeded attacks
    silently injected identical masks.  The fallback is now salted with
    a per-process call counter; explicit rng/seed streams are untouched.
    """

    def test_unseeded_back_to_back_masks_differ(self):
        model = make_model(dim=512)
        first = inject(model, 0.05)
        second = inject(model, 0.05)
        assert first.num_faults == second.num_faults > 0
        assert not np.array_equal(first.bit_indices, second.bit_indices)

    def test_unseeded_attacks_differ(self):
        model = make_model(dim=512)
        _, first = attack(model, 0.05)
        _, second = attack(model, 0.05)
        assert not np.array_equal(first.bit_indices, second.bit_indices)

    def test_explicit_rng_stream_unchanged(self):
        """The documented legacy stream: rng-passed calls stay

        bit-identical to sampling directly with the same generator."""
        from repro.faults.bitflip import sample_random_bits

        model = make_model(dim=512)
        mask = inject(model, 0.05, rng=np.random.default_rng(7))
        expected = np.sort(sample_random_bits(
            model.total_bits, 0.05, np.random.default_rng(7)
        ))
        assert (mask.bit_indices == expected).all()

    def test_explicit_rng_is_replayable(self):
        model = make_model(dim=512)
        a = inject(model, 0.05, rng=np.random.default_rng(3))
        b = inject(model, 0.05, rng=np.random.default_rng(3))
        assert (a.bit_indices == b.bit_indices).all()
