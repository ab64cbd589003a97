"""Functional building blocks on :class:`~repro.tensor.Tensor`.

These are the loss functions and stateless transforms used throughout the
TGNN models and the TASER adaptive sampler.  Everything is expressed as
vectorised whole-array operations.

All float math here is composed from :class:`~repro.tensor.Tensor` ops, so
it runs on the array runtime of :mod:`~repro.tensor.backend`.
:func:`linear`, :func:`layer_norm`, :func:`mixer_block`,
:func:`temporal_attention` and :func:`scatter_rows` are single graph nodes
defined beside the engine (:mod:`repro.tensor.tensor`) and re-exported here.  Only
mask plumbing (boolean arrays, ``-1e30`` fill values, dropout keep-masks)
touches numpy directly; it moves no float math, and builds every mask in the
dtype of the tensor it scales.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .tensor import (Tensor, concatenate, layer_norm, linear, mixer_block,
                     scatter_rows, stack, temporal_attention, where)

__all__ = [
    "sigmoid",
    "softmax",
    "log_softmax",
    "relu",
    "leaky_relu",
    "gelu",
    "tanh",
    "binary_cross_entropy_with_logits",
    "cross_entropy",
    "mse_loss",
    "dropout",
    "dropout_keep",
    "layer_norm",
    "linear",
    "mixer_block",
    "temporal_attention",
    "scatter_rows",
    "masked_softmax",
    "masked_mean",
    "concatenate",
    "stack",
    "where",
]


# ---------------------------------------------------------------------------
# activations (thin wrappers so callers can stay functional-style)
# ---------------------------------------------------------------------------


def sigmoid(x: Tensor) -> Tensor:
    return x.sigmoid()


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    return x.softmax(axis=axis)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    return x.log_softmax(axis=axis)


def relu(x: Tensor) -> Tensor:
    return x.relu()


def leaky_relu(x: Tensor, negative_slope: float = 0.2) -> Tensor:
    return x.leaky_relu(negative_slope)


def gelu(x: Tensor) -> Tensor:
    return x.gelu()


def tanh(x: Tensor) -> Tensor:
    return x.tanh()


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


def cross_entropy(logits: Tensor, target_index: np.ndarray,
                  reduction: str = "mean") -> Tensor:
    """Multi-class cross entropy over the last axis given integer targets."""
    logp = logits.log_softmax(axis=-1)
    rows = np.arange(logits.shape[0])
    picked = logp[rows, np.asarray(target_index, dtype=np.int64)]
    loss = -picked
    if reduction == "mean":
        return loss.mean()
    if reduction == "sum":
        return loss.sum()
    return loss


def mse_loss(pred: Tensor, target: Tensor, reduction: str = "mean") -> Tensor:
    diff = pred - target
    loss = diff * diff
    if reduction == "mean":
        return loss.mean()
    if reduction == "sum":
        return loss.sum()
    return loss


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


def masked_mean(x: Tensor, mask: np.ndarray, axis: int) -> Tensor:
    """Mean over ``axis`` counting only positions where ``mask`` is True."""
    mask = np.asarray(mask, dtype=x.dtype)
    while mask.ndim < x.ndim:
        mask = mask[..., None]
    total = (x * Tensor(mask)).sum(axis=axis)
    count = np.maximum(mask.sum(axis=axis), 1.0)
    return total / Tensor(count)
