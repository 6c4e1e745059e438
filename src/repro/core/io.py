"""Saving and loading trained RobustHD models.

A deployed RobustHD system needs two artefacts: the quantised class
hypervectors (:class:`~repro.core.model.HDCModel`) and the encoder
*parameters* (the codebooks regenerate deterministically from the seed,
so only the construction arguments are stored — a few integers instead
of ``(n + levels) x D`` bits).

The on-disk format is a single ``.npz`` file.  Loading re-derives the
encoder and wraps everything in a ready-to-serve
:class:`~repro.core.model.HDCClassifier` via
:meth:`~repro.core.model.HDCClassifier.from_model`, so a loaded
classifier satisfies the fitted-state invariants by construction (in
particular its packed-cache version starts at 0 by contract).

Format history
--------------
* **v1** — model bits + encoder parameters.  New files are written as
  v1.
* **v2** — v1 plus an ``encode_block_bytes`` field, from when the
  encoder's blocking budget was a per-encoder option.  The budget is
  now the constant :data:`repro.core.encoder.ENCODE_BLOCK_BYTES`, so v2
  files still load and their stored budget is ignored (it never changed
  an encoding, only how many rows were encoded at a time).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.core.encoder import Encoder
from repro.core.model import HDCClassifier, HDCModel

__all__ = ["save_classifier", "load_classifier"]

_FORMAT_VERSION = 1
_READABLE_VERSIONS = (1, 2)


def save_classifier(path: str | Path, classifier: HDCClassifier) -> None:
    """Persist a fitted classifier (model bits + encoder parameters)."""
    model = classifier.model
    if model is None:
        raise ValueError("classifier is not fitted; nothing to save")
    encoder = classifier.encoder
    np.savez_compressed(
        Path(path),
        format_version=_FORMAT_VERSION,
        class_hv=model.class_hv,
        bits=model.bits,
        num_features=encoder.num_features,
        dim=encoder.dim,
        levels=encoder.levels,
        low=encoder.low,
        high=encoder.high,
        encoder_seed=encoder.seed,
        num_classes=classifier.num_classes,
        epochs=classifier.epochs,
        classifier_seed=classifier.seed,
    )


def load_classifier(path: str | Path) -> HDCClassifier:
    """Load a classifier saved by :func:`save_classifier`.

    The encoder codebooks are regenerated from the stored parameters and
    seed, so encodings produced by the loaded classifier are bit-for-bit
    identical to the original's.  Reads v1 and v2 files (see the module
    docstring); a v2 file's stored blocking budget is ignored.
    """
    path = Path(path)
    with np.load(path) as data:
        version = int(data["format_version"])
        if version not in _READABLE_VERSIONS:
            raise ValueError(
                f"unsupported model format version {version} "
                "(this build reads versions 1 and 2)"
            )
        encoder = Encoder(
            num_features=int(data["num_features"]),
            dim=int(data["dim"]),
            levels=int(data["levels"]),
            low=float(data["low"]),
            high=float(data["high"]),
            seed=int(data["encoder_seed"]),
        )
        model = HDCModel(
            class_hv=np.ascontiguousarray(data["class_hv"]),
            bits=int(data["bits"]),
        )
        num_classes = int(data["num_classes"])
        if num_classes != model.num_classes:
            raise ValueError(
                f"stored num_classes {num_classes} does not match the "
                f"stored model ({model.num_classes} class hypervectors)"
            )
        classifier = HDCClassifier.from_model(
            encoder,
            model,
            epochs=int(data["epochs"]),
            seed=int(data["classifier_seed"]),
        )
    return classifier
