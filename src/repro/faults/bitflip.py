"""Bit-flip attack primitives (paper Sections 2 and 6.2).

Two attack modes are evaluated throughout the paper:

* **Random attack** — any stored bit may flip; bits are drawn uniformly
  without replacement from the model's whole memory footprint.  This also
  models technology noise (retention failures, relaxed DRAM refresh,
  worn-out NVM cells).
* **Targeted attack** — the worst case: the attacker flips the *most
  significant* bits first (sign/high-magnitude planes of fixed-point
  weights, exponent bits of floats).  For a binary HDC model every bit is
  the MSB of its element, which is exactly why HDC's random and targeted
  rows in Table 3 coincide.

An attack "rate" of ``r`` flips ``round(r * total_bits)`` *distinct* bits.
All attacks return corrupted copies; the clean victim object is never
modified (the experiments need both to measure quality loss).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.baselines.quantization import FixedPointTensor, FloatTensor
from repro.core.model import HDCModel

__all__ = [
    "num_bits_to_flip",
    "sample_random_bits",
    "sample_targeted_bits",
    "sample_clustered_bits",
    "attack_tensor",
    "attack_tensors",
    "hdc_msb_first_bit_order",
    "flip_hdc_bits",
]

AttackMode = str  # "random" | "targeted" | "clustered"
_MODES = ("random", "targeted", "clustered")
DEFAULT_CLUSTER_BITS = 512


def _check_mode(mode: str) -> None:
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")


def num_bits_to_flip(total_bits: int, rate: float) -> int:
    """How many distinct bits a rate-``rate`` attack flips."""
    if total_bits < 1:
        raise ValueError(f"total_bits must be >= 1, got {total_bits}")
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"rate must be in [0, 1], got {rate}")
    return int(round(rate * total_bits))


def sample_random_bits(
    total_bits: int, rate: float, rng: np.random.Generator
) -> np.ndarray:
    """Uniformly sample distinct flat bit addresses for a random attack."""
    count = num_bits_to_flip(total_bits, rate)
    return rng.choice(total_bits, size=count, replace=False)


def sample_targeted_bits(
    msb_order: np.ndarray, rate: float, rng: np.random.Generator
) -> np.ndarray:
    """Pick the first ``round(rate * total)`` addresses of an MSB-first order.

    Within each significance plane the victim elements are chosen at
    random (the attacker knows bit significance, not which weights matter
    most), so the plane boundaries stay sharp but the element order is
    shuffled.
    """
    total_bits = msb_order.shape[0]
    count = num_bits_to_flip(total_bits, rate)
    if count == 0:
        return np.empty(0, dtype=np.int64)
    # Shuffle within planes: msb_order lists whole planes contiguously and
    # every plane has total/width entries.
    num_elements = _plane_size(msb_order)
    order = msb_order.reshape(-1, num_elements).copy()
    for plane in order:
        rng.shuffle(plane)
    return order.reshape(-1)[:count]


def sample_clustered_bits(
    total_bits: int,
    rate: float,
    rng: np.random.Generator,
    cluster_bits: int = DEFAULT_CLUSTER_BITS,
) -> np.ndarray:
    """Sample bit addresses with Row-Hammer-style physical locality.

    Disturbance attacks and retention failures do not scatter uniformly:
    they hit the physically adjacent cells of a hammered or weak DRAM
    row.  This sampler models that locality — the memory is divided into
    aligned ``cluster_bits`` spans ("rows"), victim spans are drawn at
    random, and *half* the bits inside each victim span flip (cells flip
    only where the stored charge opposes the disturbance, which for
    random data is about half of them).

    The overall budget matches the uniform attack: ``round(rate *
    total_bits)`` flips, concentrated in ``~rate * total / (cluster/2)``
    victim spans.  Note this is the damage model under which chunk-level
    detection earns its keep — uniform damage spreads thinly over every
    chunk, clustered damage razes a few.
    """
    if cluster_bits < 2:
        raise ValueError(f"cluster_bits must be >= 2, got {cluster_bits}")
    budget = num_bits_to_flip(total_bits, rate)
    if budget == 0:
        return np.empty(0, dtype=np.int64)
    cluster_bits = min(cluster_bits, total_bits)
    flips_per_cluster = cluster_bits // 2
    num_spans = max(1, total_bits // cluster_bits)
    num_victims = min(num_spans, max(1, round(budget / flips_per_cluster)))
    victims = rng.choice(num_spans, size=num_victims, replace=False)
    picks = []
    remaining = budget
    for span in victims:
        base = span * cluster_bits
        take = min(flips_per_cluster, remaining)
        offsets = rng.choice(cluster_bits, size=take, replace=False)
        picks.append(base + offsets)
        remaining -= take
        if remaining <= 0:
            break
    out = np.concatenate(picks)
    if remaining > 0:
        # The victim spans absorb num_victims * flips_per_cluster bits,
        # short of the budget whenever budget / flips_per_cluster rounds
        # down (or the memory has too few spans): spill the remainder
        # uniformly over untouched addresses.  The pool is the sorted
        # complement of ``out``, so the draw picks the same addresses as
        # ``rng.choice(np.setdiff1d(np.arange(total_bits), out), ...)``.
        keep = np.ones(total_bits, dtype=bool)
        keep[out] = False
        pool = np.flatnonzero(keep)
        out = np.concatenate([out, rng.choice(pool, size=remaining,
                                              replace=False)])
    return out


def _plane_size(msb_order: np.ndarray) -> int:
    """Infer elements-per-plane from an MSB-first address list."""
    total = msb_order.shape[0]
    # Plane boundaries occur every `elements` entries; width divides total.
    # The order arrays built by the tensor classes store planes
    # contiguously, so consecutive entries within a plane differ by
    # exactly `width`.  Recover width from the first stride.
    if total < 2:
        return total
    width = int(abs(int(msb_order[1]) - int(msb_order[0])))
    if width == 0 or total % width != 0:
        raise ValueError("malformed msb_order array")
    return total // width


def attack_tensor(
    tensor: FixedPointTensor | FloatTensor,
    rate: float,
    mode: str,
    rng: np.random.Generator,
) -> FixedPointTensor | FloatTensor:
    """Return a corrupted copy of one bit-addressable weight tensor."""
    _check_mode(mode)
    out = tensor.copy()
    if mode == "random":
        bits = sample_random_bits(tensor.total_bits, rate, rng)
    elif mode == "clustered":
        bits = sample_clustered_bits(tensor.total_bits, rate, rng)
    else:
        bits = sample_targeted_bits(tensor.msb_first_bit_order(), rate, rng)
    out.flip_bits(bits)
    return out


def attack_tensors(
    tensors: Sequence[FixedPointTensor | FloatTensor],
    rate: float,
    mode: str,
    rng: np.random.Generator,
) -> list[FixedPointTensor | FloatTensor]:
    """Attack a parameter list as one contiguous memory region.

    A multi-layer model's weights sit back to back in memory; the attacker
    flips ``rate`` of the bits of the *whole* region, so a layer's share of
    the damage is proportional to its footprint.  For the targeted mode
    each tensor's own MSB-first order is honoured, with the bit budget
    split proportionally.
    """
    _check_mode(mode)
    totals = np.array([t.total_bits for t in tensors], dtype=np.int64)
    grand_total = int(totals.sum())
    budget = num_bits_to_flip(grand_total, rate)
    out = [t.copy() for t in tensors]
    if budget == 0:
        return out
    if mode == "random":
        addresses = rng.choice(grand_total, size=budget, replace=False)
        offsets = np.concatenate([[0], np.cumsum(totals)])
        for i, t in enumerate(out):
            local = addresses[
                (addresses >= offsets[i]) & (addresses < offsets[i + 1])
            ] - offsets[i]
            t.flip_bits(local)
    else:
        # Proportional budget, largest-remainder rounding so the totals
        # match the global budget exactly.
        exact = budget * totals / grand_total
        counts = np.floor(exact).astype(np.int64)
        remainder = budget - int(counts.sum())
        if remainder > 0:
            extra = np.argsort(-(exact - counts))[:remainder]
            counts[extra] += 1
        for t, count in zip(out, counts):
            local_rate = count / t.total_bits if t.total_bits else 0.0
            bits = sample_targeted_bits(t.msb_first_bit_order(), local_rate, rng)
            t.flip_bits(bits)
    return out


def hdc_msb_first_bit_order(model: HDCModel) -> np.ndarray:
    """MSB-first flat bit addresses of a stored HDC model.

    Element ``e``'s bit ``p`` (0 = LSB) has flat address
    ``e * bits + p``; planes are listed most significant first.
    """
    planes = np.arange(model.bits - 1, -1, -1, dtype=np.int64)
    elements = np.arange(model.class_hv.size, dtype=np.int64)
    return (elements[None, :] * model.bits + planes[:, None]).reshape(-1)


def flip_hdc_bits(model: HDCModel, bit_indices: np.ndarray) -> None:
    """Flip flat bit addresses of a stored HDC model, in place.

    Mutates through :meth:`~repro.core.model.HDCModel.writable` so the
    model's packed serving cache is invalidated.
    """
    idx = np.asarray(bit_indices, dtype=np.int64)
    if idx.size == 0:
        return
    if idx.min() < 0 or idx.max() >= model.total_bits:
        raise IndexError(f"bit index out of range [0, {model.total_bits})")
    with model.writable() as class_hv:
        flat = class_hv.reshape(-1)
        elements = idx // model.bits
        positions = (idx % model.bits).astype(np.uint8)
        np.bitwise_xor.at(flat, elements, (1 << positions).astype(np.uint8))
