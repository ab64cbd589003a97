"""REINFORCE-style auxiliary losses for co-training the adaptive sampler.

The neighbor selection is non-differentiable, so the sampler parameters
``theta`` cannot receive gradients from the model loss directly.  Following
Section III-B, the gradient of the model loss w.r.t. ``theta`` is estimated
with the log-derivative trick (Eq. 23) and materialised as an auxiliary
*sample loss* whose autograd gradient equals that estimate: every term except
``log q_theta(u_j)`` is frozen (treated as a constant coefficient).

One function, :func:`build_sample_loss`, computes both estimators:

``sensitivity`` (default, aggregator-agnostic)
    Every selected neighbor's message is multiplied by a *gate* initialised
    to one.  After back-propagating the model loss, ``dL/dgate_j`` measures
    exactly how much the loss would change if neighbor ``j``'s contribution
    were scaled — the Monte-Carlo coefficient ``f(u_j)`` of Eq. (23) for the
    message-expectation form of any aggregator (Eq. 22).  For TGAT this
    coincides with the ``a_ij [V]_j . dL/dh`` term of Eq. (25); for
    GraphMixer with the ``w'_jk mu_jk . dL/dh`` term of Eq. (26).

``tgat_analytic``
    Adds Eq. (25)'s explicit ``beta * h_v`` self-term to the outermost hop's
    gate sensitivity, using the attention weights captured from the
    outermost TGAT layer.  Both scale by Eq. (25)'s ``1/alpha``.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..models.minibatch import HopData
from ..tensor import Tensor

__all__ = ["build_sample_loss", "SAMPLE_ALPHA", "SAMPLE_BETA"]

#: Eq. (25)'s alpha (gradient-variance control) and beta (target-vs-neighbor
#: importance ratio): the values every training step uses.
SAMPLE_ALPHA, SAMPLE_BETA = 2.0, 1.0


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


def build_sample_loss(kind: str, hops: List[HopData], batch_size: int,
                      embeddings: Tensor,
                      attention: Optional[np.ndarray] = None,
                      alpha: float = SAMPLE_ALPHA,
                      beta: float = SAMPLE_BETA) -> Optional[Tensor]:
    """Sample loss ``sum_j coeff_j * log q(u_j) / batch_size`` of the
    estimator ``kind`` (``"sensitivity"`` or ``"tgat_analytic"``).

    Must be called *after* the model loss has been back-propagated (the gate
    gradients are read at that point).  Every hop's coefficient is its gate
    sensitivity, centred and scaled by ``1/alpha``.  Under ``tgat_analytic``
    with the outermost TGAT layer's ``attention``, the outermost hop's
    coefficient also takes Eq. (25)'s ``beta * a_ij (dL/dh . h_v)``
    self-term; a target that several roots share (one row of ``attention``
    and of the gate) takes the sum of their self-terms.  Returns ``None``
    when no hop carries adaptive-sampling information (e.g. baseline runs).
    """
    if kind not in ("sensitivity", "tgat_analytic"):
        raise ValueError(f"unknown sample-loss estimator {kind!r}")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if kind == "sensitivity":
        attention = None
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
