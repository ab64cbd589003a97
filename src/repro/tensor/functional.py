"""Functional building blocks on :class:`~repro.tensor.Tensor`.

These are the loss functions and stateless transforms used throughout the
TGNN models and the TASER adaptive sampler.  Everything is expressed as
vectorised whole-array operations.

All float math here is composed from :class:`~repro.tensor.Tensor` ops, so
it runs on the array runtime of :mod:`~repro.tensor.backend`.
:func:`linear`, :func:`layer_norm`, :func:`mixer_block`,
:func:`temporal_attention`, :func:`graphmixer_aggregate`,
:func:`edge_predictor`, :func:`sampler_encode` and :func:`sampler_head` are
single graph nodes defined beside the engine (:mod:`repro.tensor.tensor`) and
re-exported here.  Only
mask plumbing (boolean arrays, ``-1e30`` fill values, dropout keep-masks)
touches numpy directly; it moves no float math, and builds every mask in the
dtype of the tensor it scales.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .tensor import (Tensor, concatenate, edge_predictor, graphmixer_aggregate,
                     layer_norm, linear, mixer_block, sampler_encode, sampler_head,
                     temporal_attention, where)

__all__ = [
    "sigmoid",
    "binary_cross_entropy_with_logits",
    "dropout",
    "dropout_keep",
    "layer_norm",
    "linear",
    "mixer_block",
    "temporal_attention",
    "graphmixer_aggregate",
    "edge_predictor",
    "sampler_encode",
    "sampler_head",
    "masked_softmax",
    "concatenate",
    "where",
]


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------


def sigmoid(x: Tensor) -> Tensor:
    return x.sigmoid()


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def binary_cross_entropy_with_logits(logits: Tensor, targets: Tensor,
                                     reduction: str = "mean") -> Tensor:
    """Numerically-stable BCE on raw logits.

    Implements ``max(x, 0) - x*y + log(1 + exp(-|x|))`` which is the standard
    stable formulation.  This is the model loss :math:`L_{model}` (Eq. 10) used
    for self-supervised dynamic link prediction.
    """
    zeros = Tensor(np.zeros_like(logits.data))
    loss = where(logits.data > 0, logits, zeros) - logits * targets \
        + ((-logits.abs()).exp() + 1.0).log()
    if reduction == "mean":
        return loss.mean()
    if reduction == "sum":
        return loss.sum()
    if reduction == "none":
        return loss
    raise ValueError(f"unknown reduction {reduction!r}")


# ---------------------------------------------------------------------------
# stateless layers
# ---------------------------------------------------------------------------


def dropout_keep(shape, p: float, training: bool,
                 rng: Optional[np.random.Generator], dtype) -> Optional[np.ndarray]:
    """The scaled keep-mask inverted dropout multiplies a ``shape`` tensor
    of ``dtype`` by: ``1 / (1 - p)`` where kept, 0 where dropped.  ``None`` —
    and no draw — when not training or ``p == 0``."""
    if not training or p <= 0.0:
        return None
    if rng is None:
        raise ValueError("dropout with p > 0 in training mode needs an explicit rng")
    return (rng.random(shape) >= p).astype(dtype) / (1.0 - p)


def dropout(x: Tensor, p: float, training: bool,
            rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout; identity when not training or ``p == 0``."""
    keep = dropout_keep(x.shape, p, training, rng, x.dtype)
    return x if keep is None else x * Tensor(keep)


def masked_softmax(scores: Tensor, mask: np.ndarray, axis: int = -1) -> Tensor:
    """Softmax where positions with ``mask == False`` receive zero weight.

    Used by the temporal aggregators and the adaptive neighbor decoder when a
    neighborhood has fewer valid neighbors than the padded budget.
    """
    mask = np.asarray(mask, dtype=bool)
    dtype = scores.dtype.type
    neg = Tensor(np.where(mask, dtype(0.0), dtype(-1e30)))
    out = (scores + neg).softmax(axis=axis)
    # Zero-out any masked positions explicitly (handles fully-masked rows).
    return out * Tensor(mask.astype(scores.dtype))
