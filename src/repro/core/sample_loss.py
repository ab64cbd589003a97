"""REINFORCE-style auxiliary losses for co-training the adaptive sampler.

The neighbor selection is non-differentiable, so the sampler parameters
``theta`` cannot receive gradients from the model loss directly.  Following
Section III-B, the gradient of the model loss w.r.t. ``theta`` is estimated
with the log-derivative trick (Eq. 23) and materialised as an auxiliary
*sample loss* whose autograd gradient equals that estimate: every term except
``log q_theta(u_j)`` is frozen (treated as a constant coefficient).

Two estimators are provided:

``sensitivity`` (default, aggregator-agnostic)
    Every selected neighbor's message is multiplied by a *gate* initialised
    to one.  After back-propagating the model loss, ``dL/dgate_j`` measures
    exactly how much the loss would change if neighbor ``j``'s contribution
    were scaled — the Monte-Carlo coefficient ``f(u_j)`` of Eq. (23) for the
    message-expectation form of any aggregator (Eq. 22).  For TGAT this
    coincides with the ``a_ij [V]_j . dL/dh`` term of Eq. (25); for
    GraphMixer with the ``w'_jk mu_jk . dL/dh`` term of Eq. (26).

``tgat_analytic``
    Adds the explicit ``beta * h_v`` self-term and the ``1/alpha`` variance
    scaling of Eq. (25) on top of the gate sensitivity, using the attention
    weights captured from the outermost TGAT layer.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..models.minibatch import HopData
from ..tensor import Tensor

__all__ = ["sensitivity_sample_loss", "tgat_analytic_sample_loss", "build_sample_loss"]


def _accumulate(terms: List[Tensor]) -> Optional[Tensor]:
    if not terms:
        return None
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


def _centered_coefficients(sensitivity: np.ndarray, mask: np.ndarray,
                           alpha: float) -> np.ndarray:
    """Scale and variance-reduce the per-neighbor REINFORCE coefficients.

    Subtracting the per-neighborhood mean coefficient is the standard
    score-function control variate: it leaves the gradient estimate unbiased
    (the expected score is zero) while removing the common-mode component
    that otherwise dominates the variance of small ``n`` Monte-Carlo samples.
    ``alpha`` is the paper's variance-control scaling (Eq. 25).
    """
    mask = mask.astype(sensitivity.dtype)
    counts = np.maximum(mask.sum(axis=1, keepdims=True), 1.0)
    mean = (sensitivity * mask).sum(axis=1, keepdims=True) / counts
    return ((sensitivity - mean) / alpha) * mask


def sensitivity_sample_loss(hops: List[HopData], batch_size: int,
                            alpha: float = 2.0) -> Optional[Tensor]:
    """Generic sample loss ``sum_j coeff_j * log q(u_j)`` from gate sensitivities.

    Must be called *after* the model loss has been back-propagated (the gate
    gradients are read at that point).  Returns ``None`` when no hop carries
    adaptive-sampling information (e.g. baseline runs).
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    terms: List[Tensor] = []
    for hop in hops:
        if hop.log_prob is None:
            continue
        sensitivity = hop.gate_sensitivity()
        if sensitivity is None:
            continue
        coeff = _centered_coefficients(sensitivity, hop.batch.mask, alpha)
        terms.append((hop.log_prob * Tensor(coeff)).sum())
    total = _accumulate(terms)
    return None if total is None else total / float(batch_size)


def tgat_analytic_sample_loss(hops: List[HopData], batch_size: int,
                              embeddings: Tensor,
                              attention: Optional[np.ndarray],
                              alpha: float = 2.0, beta: float = 1.0
                              ) -> Optional[Tensor]:
    """Eq. (25) estimator for the outermost TGAT layer.

    The neighbor-value term ``a_ij [V]_j . dL/dh`` is taken from the gate
    sensitivity of the outermost hop; the analytic correction adds the
    ``beta * a_ij (dL/dh . h_v)`` self-term and scales everything by
    ``1/alpha``; a target that several roots share (one row of ``attention``
    and of the gate) takes the sum of their self-terms.  Deeper hops fall
    back to the generic sensitivity estimator.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    terms: List[Tensor] = []
    for level, hop in enumerate(hops):
        if hop.log_prob is None:
            continue
        sensitivity = hop.gate_sensitivity()
        if sensitivity is None:
            continue
        coeff = sensitivity
        if level == 0 and attention is not None and embeddings.grad is not None \
                and attention.shape == hop.batch.mask.shape:
            # dL/dh_v . h_v per root, summed over the roots that share a
            # target and broadcast over that target's neighbors.
            self_term = np.zeros(hop.num_targets, dtype=embeddings.data.dtype)
            np.add.at(self_term, hop.inverse,
                      (embeddings.grad * embeddings.data).sum(axis=1))
            coeff = coeff + beta * attention * self_term[:, None]
        coeff = _centered_coefficients(coeff, hop.batch.mask, alpha)
        terms.append((hop.log_prob * Tensor(coeff)).sum())
    total = _accumulate(terms)
    return None if total is None else total / float(batch_size)


def build_sample_loss(kind: str, hops: List[HopData], batch_size: int,
                      embeddings: Tensor,
                      attention: Optional[np.ndarray] = None,
                      alpha: float = 2.0, beta: float = 1.0) -> Optional[Tensor]:
    """Dispatch on the configured estimator name."""
    if kind == "sensitivity":
        return sensitivity_sample_loss(hops, batch_size, alpha=alpha)
    if kind == "tgat_analytic":
        return tgat_analytic_sample_loss(hops, batch_size, embeddings, attention,
                                         alpha=alpha, beta=beta)
    raise ValueError(f"unknown sample-loss estimator {kind!r}")
