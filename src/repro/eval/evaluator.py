"""MRR evaluation of a trained TGNN + (optional) adaptive sampler.

Implements the DistTGL protocol used by the paper: every evaluation edge is
scored against ``num_negatives`` randomly drawn destination nodes *at the
same timestamp* and ranked by the edge predictor.

Evaluation batches are prepared through the shared prep runtime
(:class:`~repro.core.prep.PrepPipeline`), the same staged pipeline that
serves training: eval therefore benefits from the deduplicated fused gather
and its cache accounting, and any prep optimisation automatically covers
the evaluation path.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..graph.splits import TemporalSplit
from ..models.base import TGNNBackbone
from ..models.edge_predictor import EdgePredictor
from ..tensor import no_grad
from ..utils.rng import new_rng
from .metrics import ranking_report
from .negative_sampling import NegativeSampler

__all__ = ["LinkPredictionEvaluator", "score_link_queries", "SCORING_CHUNK_ROOTS"]

#: roots (src + dst + negatives) scored per no-grad forward — the order of a
#: training step's 300-600 roots.  Unbounded, a 50-edge x 51-root forward makes
#: hop-2 sampler activations of ~35 MB each, above glibc's 32 MB mmap ceiling:
#: every such array is mapped, page-faulted in and unmapped again.  The bound
#: counts roots before the forward-only batch drops repeated ``(node, t)``
#: queries, so a chunk's edges never depend on how many of its roots repeat.
SCORING_CHUNK_ROOTS = 512


def score_link_queries(prep, backbone: TGNNBackbone, predictor: EdgePredictor,
                       src: np.ndarray, dst: np.ndarray, ts: np.ndarray,
                       negatives: np.ndarray,
                       batch_edges: Optional[int] = None
                       ) -> Tuple[np.ndarray, np.ndarray]:
    """Logits of ``(src, dst, ts)`` queries and of their negative destinations.

    The one scoring loop behind offline MRR and prequential evaluation:
    ``negatives`` is the whole ``(edges, k)`` matrix, drawn by the caller
    before chunking so the ranking does not depend on ``batch_edges``.
    Scores in chunks of ``batch_edges`` edges (default: as many as keep a
    forward within :data:`SCORING_CHUNK_ROOTS` roots) under ``no_grad`` and
    evaluation mode, and returns ``(pos (edges,), neg (edges, k))``.  Each
    chunk is one forward-only mini-batch, which computes every distinct
    ``(node, t)`` once per hop.  Callers run it under
    :meth:`~repro.sampling.NeighborFinder.draws_from` with a generator they
    own, so a stochastic finder policy draws nothing from the training stream.
    """
    k = negatives.shape[1]
    if batch_edges is None:
        batch_edges = max(1, SCORING_CHUNK_ROOTS // (2 + k))
    pos_scores = np.empty(src.size)
    neg_scores = np.empty((src.size, k))
    was_training = backbone.training
    backbone.eval()
    predictor.eval()
    try:
        with no_grad():
            for start in range(0, src.size, batch_edges):
                chunk = slice(start, min(start + batch_edges, src.size))
                b = chunk.stop - chunk.start
                # Root layout [src | dst | negatives (row-major)] is
                # assembled by the prep runtime.
                prepared = prep.prepare_eval(src[chunk], dst[chunk], ts[chunk],
                                             negatives[chunk])
                embeddings = backbone.embed(prepared.minibatch)
                h_src = embeddings[:b]
                pos_scores[chunk] = predictor(h_src, embeddings[b:2 * b]).data
                # Repeat each source embedding once per negative.
                src_rep = h_src[np.repeat(np.arange(b), k)]
                neg_scores[chunk] = predictor(
                    src_rep, embeddings[2 * b:]).data.reshape(b, k)
    finally:
        backbone.train(was_training)
        predictor.train(was_training)
    return pos_scores, neg_scores


class LinkPredictionEvaluator:
    """Ranks positive destinations against sampled negatives.

    Parameters
    ----------
    split:
        The temporal split whose ``train``/``val``/``test`` edges are scored.
    prep:
        The shared :class:`~repro.core.prep.PrepPipeline` that builds the
        evaluation mini-batches (only its generator stages are used).  The
        evaluator owns the generators of its negatives and of the finder's
        draws while it scores, so scoring never perturbs training streams.
    """

    def __init__(self, split: TemporalSplit, prep, backbone: TGNNBackbone,
                 predictor: EdgePredictor, num_negatives: int = 49,
                 max_edges: Optional[int] = 300,
                 batch_edges: Optional[int] = None, seed: int = 0) -> None:
        if num_negatives <= 0:
            raise ValueError("num_negatives must be positive")
        self.split = split
        self.prep = prep
        self.backbone = backbone
        self.predictor = predictor
        self.num_negatives = num_negatives
        self.max_edges = max_edges
        self.batch_edges = batch_edges
        self.rng = new_rng(seed)
        self.negatives = NegativeSampler(split.graph, seed=seed + 1)

    def _select_edges(self, which: str) -> np.ndarray:
        index = {"train": self.split.train_idx, "val": self.split.val_idx,
                 "test": self.split.test_idx}[which]
        if index.size == 0:
            raise ValueError(f"{which} split is empty")
        if self.max_edges is not None and index.size > self.max_edges:
            # Evenly spaced subsample keeps temporal coverage of the split.
            picks = np.linspace(0, index.size - 1, self.max_edges).astype(np.int64)
            return index[picks]
        return index

    def evaluate(self, which: str = "test") -> Dict[str, float]:
        """Return MRR / Hits@K over the requested split."""
        graph = self.split.graph
        edges = self._select_edges(which)
        dst = graph.dst[edges]
        negatives = self.negatives.sample_matrix(edges.size, self.num_negatives,
                                                 exclude=dst)
        with self.prep.generator.finder.draws_from(self.rng):
            pos, neg = score_link_queries(self.prep, self.backbone,
                                          self.predictor, graph.src[edges], dst,
                                          graph.ts[edges], negatives,
                                          self.batch_edges)
        return ranking_report(pos, neg)
