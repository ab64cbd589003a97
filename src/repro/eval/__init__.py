"""Evaluation: ranking metrics, negative sampling, MRR evaluator."""

from .metrics import reciprocal_ranks, mrr, hits_at_k, ranking_report
from .negative_sampling import destination_pool, NegativeSampler
from .evaluator import LinkPredictionEvaluator, score_link_queries

__all__ = [
    "reciprocal_ranks",
    "mrr",
    "hits_at_k",
    "ranking_report",
    "destination_pool",
    "NegativeSampler",
    "LinkPredictionEvaluator",
    "score_link_queries",
]
