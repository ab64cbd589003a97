"""Ranking metrics for transductive temporal link prediction.

The paper follows the DistTGL protocol: every positive edge is ranked against
49 randomly sampled negative destination nodes and performance is reported as
Mean Reciprocal Rank (MRR).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

__all__ = ["reciprocal_ranks", "mrr", "hits_at_k", "ranking_report"]


def reciprocal_ranks(pos_scores: np.ndarray, neg_scores: np.ndarray) -> np.ndarray:
    """Reciprocal rank of each positive among its negatives.

    Parameters
    ----------
    pos_scores:
        ``(B,)`` scores of the positive destinations.
    neg_scores:
        ``(B, K)`` scores of the ``K`` negative destinations of each positive.

    Ties are resolved optimistic/pessimistic-averaged (a tie contributes half
    a rank), which keeps the metric unbiased when a model outputs identical
    scores.  A score that is not finite has no rank (a NaN compares false
    with everything, so a NaN positive would rank first): it raises
    ``ValueError``.
    """
    pos_scores = np.asarray(pos_scores, dtype=np.float64)
    neg_scores = np.asarray(neg_scores, dtype=np.float64)
    if pos_scores.ndim != 1 or neg_scores.ndim != 2 \
            or neg_scores.shape[0] != pos_scores.shape[0]:
        raise ValueError("pos_scores must be (B,) and neg_scores (B, K)")
    bad = np.count_nonzero(~np.isfinite(pos_scores)) + np.count_nonzero(~np.isfinite(neg_scores))
    if bad:
        raise ValueError(f"{bad} of {pos_scores.size + neg_scores.size} scores are "
                         "not finite (NaN or infinite); they cannot be ranked")
    higher = (neg_scores > pos_scores[:, None]).sum(axis=1)
    ties = (neg_scores == pos_scores[:, None]).sum(axis=1)
    ranks = 1.0 + higher + 0.5 * ties
    return 1.0 / ranks


def mrr(pos_scores: np.ndarray, neg_scores: np.ndarray) -> float:
    """Mean Reciprocal Rank of the positives against their negatives."""
    return float(reciprocal_ranks(pos_scores, neg_scores).mean())


def hits_at_k(pos_scores: np.ndarray, neg_scores: np.ndarray, k: int) -> float:
    """Fraction of positives ranked within the top-``k``."""
    if k <= 0:
        raise ValueError("k must be positive")
    rr = reciprocal_ranks(pos_scores, neg_scores)
    return float((rr >= 1.0 / k).mean())


def ranking_report(pos_scores: np.ndarray, neg_scores: np.ndarray) -> Dict[str, float]:
    """MRR plus Hits@{1,3,10} in one dictionary."""
    return {
        "mrr": mrr(pos_scores, neg_scores),
        "hits@1": hits_at_k(pos_scores, neg_scores, 1),
        "hits@3": hits_at_k(pos_scores, neg_scores, 3),
        "hits@10": hits_at_k(pos_scores, neg_scores, 10),
    }
