"""Prediction confidence for RobustHD (paper Section 4.1).

RobustHD passes the per-class similarity values through a normalisation
block — a softmax — to obtain per-class confidences.  A prediction is
*trusted* (and therefore allowed to drive unsupervised recovery) only when
the winning class's confidence clears a threshold ``T_C``.  The confidence
captures not just how similar the query is to the winner but also its
margin over every other class, which is what makes it a usable proxy for
"this prediction is probably correct" on a possibly-corrupted model.
"""

from __future__ import annotations

import numpy as np

__all__ = ["softmax", "prediction_confidence", "confident_mask"]


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``."""
    x = np.asarray(x, dtype=np.float64)
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def prediction_confidence(
    similarities: np.ndarray,
    temperature: float = 1.0,
    method: str = "margin",
    scale: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Winning class and its normalised confidence for each query.

    Parameters
    ----------
    similarities:
        Array ``(batch, k)`` of similarity scores (any affine scale; the
        scores are standardised per query first).  A 1-D array is treated
        as a single query.
    temperature:
        Temperature over the *standardised* similarities; smaller values
        sharpen the confidence.  Each query's scores are z-scored (zero
        mean, unit variance across classes) so that confidences are
        comparable across models with different similarity scales
        (Hamming counts grow with D; dot products grow with bit width).
    method:
        ``"margin"`` (default) — the softmax restricted to the top two
        classes, i.e. a sigmoid of the winner's margin over the runner-up
        in standard-deviation units.  It lives in ``(0.5, 1]`` for every
        class count, so a threshold ``T_C`` carries across datasets.
        Note the ceiling: a one-hot winner's z-gap is ``k / sqrt(k - 1)``,
        so the confidence saturates at ``sigmoid(k / sqrt(k - 1))``
        (~0.88 at k=2, ~0.97 at k=12); pick ``T_C`` below the ceiling for
        the class count in play — the default 0.85 is usable from k=2 up.
        ``"softmax"`` — the full softmax probability of the winner, in
        ``(1/k, 1]``; matches the paper's formula verbatim but its scale
        depends on ``k``.
        ``"noise"`` — a sigmoid of the winner's *raw* margin over the
        runner-up in units of ``scale`` (pass the similarity noise
        std, e.g. ``sqrt(D / 2)`` for a 1-bit model's centred dot
        products).  This is the only usable form at ``k = 2``: with two
        classes every per-query-standardised statistic is a constant
        (the z-gap is exactly 2), so ``margin`` and ``softmax`` cannot
        discriminate at all — ``noise`` measures the margin against an
        absolute reference instead.
    scale:
        Required by ``method="noise"``; ignored otherwise.

    Both capture what Section 4.1 asks of the confidence: "not only how
    similar a query is with a certain class but also what its margin is
    to other class hypervectors".

    Returns
    -------
    (predictions, confidences):
        ``predictions`` is ``(batch,)`` int64 argmax labels;
        ``confidences`` is ``(batch,)`` float64.
    """
    if temperature <= 0:
        raise ValueError(f"temperature must be > 0, got {temperature}")
    if method not in ("margin", "softmax", "noise"):
        raise ValueError(
            f"method must be 'margin', 'softmax' or 'noise', got {method!r}"
        )
    sims = np.atleast_2d(np.asarray(similarities, dtype=np.float64))
    if sims.shape[1] < 2:
        raise ValueError("need at least two classes to compute confidence")
    if method == "noise":
        if scale is None or scale <= 0:
            raise ValueError("method='noise' requires a positive scale")
        preds = np.argmax(sims, axis=1)
        top_two = np.partition(sims, -2, axis=1)[:, -2:]
        gap = (top_two[:, 1] - top_two[:, 0]) / scale / temperature
        conf = 1.0 / (1.0 + np.exp(-gap))
        return preds, conf
    # The float operations of ``sims.std`` and ``sims.mean`` along axis
    # 1, bit for bit, with the row mean and the centred table computed
    # once and shared by the deviation and the z-scores.
    k = sims.shape[1]
    centred = sims - np.add.reduce(sims, axis=1, keepdims=True) / k
    std = np.sqrt(np.add.reduce(centred * centred, axis=1, keepdims=True) / k)
    std[std == 0] = 1.0
    zscores = centred / std
    preds = np.argmax(zscores, axis=1)
    if method == "softmax":
        probs = softmax(zscores / temperature, axis=1)
        conf = probs[np.arange(probs.shape[0]), preds]
    else:
        top_two = np.partition(zscores, -2, axis=1)[:, -2:]
        gap = (top_two[:, 1] - top_two[:, 0]) / temperature
        conf = 1.0 / (1.0 + np.exp(-gap))
    return preds, conf


def confident_mask(
    similarities: np.ndarray,
    threshold: float,
    temperature: float = 1.0,
    method: str = "margin",
    scale: float | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Predictions, confidences and the boolean trust mask ``conf >= T_C``.

    ``scale`` is forwarded to :func:`prediction_confidence` and is
    required by ``method="noise"`` — the only usable method at ``k = 2``,
    where the per-query-standardised statistics behind ``margin`` and
    ``softmax`` are constants.
    """
    preds, conf = prediction_confidence(similarities, temperature, method, scale)
    return preds, conf, conf >= threshold
