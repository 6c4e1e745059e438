"""RobustHD core: hypervector algebra, encoding, learning, recovery."""

from repro.core.confidence import confident_mask, prediction_confidence, softmax
from repro.core.encoder import (
    Encoder,
    PackedCodebook,
    clear_codebook_cache,
    encode_words_from_codebook,
    quantize_features,
)
from repro.core.io import load_classifier, save_classifier
from repro.core.hypervector import (
    bind,
    bundle,
    class_bundle_counts,
    hamming_distance,
    hamming_similarity,
    level_hypervectors,
    normalized_hamming_similarity,
    permute,
    random_hypervector,
    random_hypervectors,
)
from repro.core.model import HDCClassifier, HDCModel
from repro.core.packed import (
    PackedHypervectors,
    PackedModel,
    pack,
    pack_model,
    packed_flip_bits,
    packed_single_bit_flips,
    unpack,
)
from repro.core.recovery import (
    ModelPublisher,
    RecoveryConfig,
    RecoveryStats,
    RobustHDRecovery,
    probabilistic_substitution,
    recover_block,
    recover_step,
)

__all__ = [
    "Encoder",
    "ModelPublisher",
    "PackedCodebook",
    "PackedHypervectors",
    "PackedModel",
    "HDCClassifier",
    "HDCModel",
    "RecoveryConfig",
    "RecoveryStats",
    "RobustHDRecovery",
    "bind",
    "bundle",
    "class_bundle_counts",
    "clear_codebook_cache",
    "confident_mask",
    "encode_words_from_codebook",
    "hamming_distance",
    "hamming_similarity",
    "level_hypervectors",
    "load_classifier",
    "normalized_hamming_similarity",
    "pack",
    "pack_model",
    "packed_flip_bits",
    "packed_single_bit_flips",
    "permute",
    "prediction_confidence",
    "probabilistic_substitution",
    "quantize_features",
    "random_hypervector",
    "random_hypervectors",
    "recover_block",
    "recover_step",
    "save_classifier",
    "unpack",
    "softmax",
]
