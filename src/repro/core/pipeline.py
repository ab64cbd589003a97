"""Per-layer prep stages: the thin stage wrapper the prep runtime drives.

:class:`MiniBatchGenerator` implements the ``candidates -> gather ->
encode -> assemble`` stages of the unified prep runtime
(:class:`~repro.core.prep.PrepPipeline`) — the per-iteration data path of
Fig. 2 (b)-(d).  For every TGNN layer it

1. asks the neighbor finder for ``m`` *candidate* neighbors per target
   (``m = n`` when adaptive neighbor sampling is disabled) — *candidates*,
2. slices candidate node/edge features through the simulated memory
   hierarchy via the feature store's deduplicated fused gather (one gathered
   row and one cache probe per unique id) — *gather*,
3. optionally runs the adaptive neighbor sampler to keep the ``n`` most
   informative candidates — *encode*, and
4. expands the frontier with the *selected* neighbors only (Algorithm 1)
   and stacks the hops into a :class:`~repro.models.MiniBatch` — *assemble*.

Per-phase wall-clock time is recorded in the supplied
:class:`~repro.utils.Timer` under the section names used by the paper's
runtime tables: ``NF`` (neighbor finding), ``FS`` (feature slicing) and
``AS`` (adaptive sampling).

The NF + FS stages of a layer are :meth:`MiniBatchGenerator.layer_candidates`.
Consumers never call this class directly — they go through the prep
runtime, which is the single producer of
:class:`~repro.core.prep.PreparedBatch`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..device.memory import FeatureStore
from ..models.minibatch import HopData, MiniBatch
from ..sampling.base import NeighborBatch, NeighborFinder
from ..sampling.recursive import flatten_frontier, unique_targets
from ..utils.timer import Timer
from .neighbor_sampler import AdaptiveNeighborSampler

__all__ = ["CandidateSlice", "MiniBatchGenerator"]


@dataclass
class CandidateSlice:
    """One layer's candidate neighborhood with its sliced features.

    Produced by :meth:`MiniBatchGenerator.layer_candidates` and consumed by
    :meth:`MiniBatchGenerator.build`.
    """

    #: candidate neighbors of each target, arrays of shape (R, m).
    candidates: NeighborBatch
    #: edge features of the candidate interactions, shape (R, m, d_e) or None.
    edge_feat: Optional[np.ndarray]
    #: node features of the candidate neighbor nodes, shape (R, m, d_v) or None.
    neigh_node_feat: Optional[np.ndarray]
    #: node features of the layer's targets, shape (R, d_v) or None.
    target_node_feat: Optional[np.ndarray]


class MiniBatchGenerator:
    """Builds :class:`~repro.models.MiniBatch` objects for training/evaluation."""

    def __init__(self, finder: NeighborFinder, feature_store: FeatureStore,
                 num_layers: int, num_neighbors: int, num_candidates: int,
                 adaptive_sampler: Optional[AdaptiveNeighborSampler] = None,
                 timer: Optional[Timer] = None) -> None:
        if num_layers <= 0:
            raise ValueError("num_layers must be positive")
        if num_candidates < num_neighbors:
            raise ValueError("num_candidates (m) must be >= num_neighbors (n)")
        self.finder = finder
        self.feature_store = feature_store
        self.num_layers = num_layers
        self.num_neighbors = num_neighbors
        self.num_candidates = num_candidates
        self.adaptive_sampler = adaptive_sampler
        self.timer = timer if timer is not None else Timer()

    # -- helpers -----------------------------------------------------------------

    @property
    def uses_adaptive_sampling(self) -> bool:
        return self.adaptive_sampler is not None

    def _candidate_budget(self) -> int:
        return self.num_candidates if self.uses_adaptive_sampling else self.num_neighbors

    def _slice_candidate_features(self, candidates: NeighborBatch,
                                  target_nodes: np.ndarray):
        """Gather edge/node features of the candidate neighborhood."""
        store = self.feature_store
        edge_feat = store.slice_edge_features(candidates.eids, candidates.mask)
        neigh_feat = store.slice_node_features(candidates.nodes, candidates.mask)
        target_feat = store.slice_node_features(target_nodes)
        return edge_feat, neigh_feat, target_feat

    @staticmethod
    def _gather_columns(array: Optional[np.ndarray], columns: np.ndarray
                        ) -> Optional[np.ndarray]:
        """``array[r, columns[r]]`` per row: the ``(R, n, ...)`` selection of
        an ``(R, m, ...)`` candidate array.  One fancy index on the two
        leading axes; ``np.take_along_axis`` builds the same result through a
        broadcast index over every trailing element, ~7x slower here."""
        if array is None:
            return None
        return array[np.arange(columns.shape[0])[:, None], columns]

    # -- layer stage (NF + FS) ---------------------------------------------------------

    def layer_candidates(self, target_nodes: np.ndarray,
                         target_times: np.ndarray,
                         rng: Optional[np.random.Generator] = None
                         ) -> CandidateSlice:
        """NF + FS of one layer: sample candidates and slice their features.

        This stage depends only on the graph and the query frontier, never
        on trainable state.  ``rng`` is the generator of the finder's draws
        (``None``: the finder's own stream).
        """
        with self.timer.section("NF"):
            candidates = self.finder.sample(target_nodes, target_times,
                                            self._candidate_budget(), rng=rng)
        # Roots with no past interactions yield fully-masked rows whose slots
        # hold the padding sentinel; downstream feature slicing and
        # aggregation rely on that contract, so enforce it at the source.
        candidates.check_padding()
        with self.timer.section("FS"):
            edge_feat, neigh_feat, target_feat = self._slice_candidate_features(
                candidates, target_nodes)
        return CandidateSlice(candidates=candidates, edge_feat=edge_feat,
                              neigh_node_feat=neigh_feat,
                              target_node_feat=target_feat)

    def slice_root_features(self, root_nodes: np.ndarray) -> Optional[np.ndarray]:
        """FS of the root queries."""
        with self.timer.section("FS"):
            return self.feature_store.slice_node_features(root_nodes)

    # -- main entry point ------------------------------------------------------------

    def build(self, root_nodes: np.ndarray, root_times: np.ndarray,
              train: bool = True,
              rng: Optional[np.random.Generator] = None) -> MiniBatch:
        """Build the full multi-hop mini-batch for the given root queries.

        A training batch (``train=True``) has one target per row at every
        hop: each row draws its own Gumbel selection, gate and log-prob.  A
        forward-only batch builds every hop on the *distinct* ``(node, t)``
        queries of its level — the roots, then each flattened frontier — and
        records in :attr:`~repro.models.HopData.inverse` where each row went,
        so nothing downstream computes a repeated query twice.

        ``rng`` is the generator of the finder's draws at every hop
        (``None``: the finder's own stream).  Scoring passes one per chunk,
        which is what lets chunks run on several threads.
        """
        root_nodes = np.asarray(root_nodes, dtype=np.int64)
        root_times = np.asarray(root_times, dtype=np.float64)
        minibatch = MiniBatch(root_nodes=root_nodes, root_times=root_times)

        cur_nodes, cur_times = root_nodes, root_times
        for layer in range(self.num_layers):
            inverse = None
            if not train:
                cur_nodes, cur_times, inverse = unique_targets(cur_nodes, cur_times)
            if layer == 0:
                minibatch.root_node_feat = self.slice_root_features(cur_nodes)
            stage = self.layer_candidates(cur_nodes, cur_times, rng=rng)
            candidates = stage.candidates
            edge_feat = stage.edge_feat
            neigh_feat = stage.neigh_node_feat
            target_feat = stage.target_node_feat

            if self.uses_adaptive_sampling:
                with self.timer.section("AS"):
                    selection = self.adaptive_sampler(
                        candidates, self.num_neighbors,
                        edge_feat=edge_feat, neigh_node_feat=neigh_feat,
                        target_node_feat=target_feat, greedy=not train)
                    selected = candidates.select(selection.columns)
                    hop = HopData(
                        batch=selected,
                        edge_feat=self._gather_columns(edge_feat, selection.columns),
                        neigh_node_feat=self._gather_columns(neigh_feat, selection.columns),
                        target_node_feat=target_feat,
                        log_prob=selection.log_prob if train else None,
                        candidates=candidates,
                    )
            else:
                hop = HopData(batch=candidates, edge_feat=edge_feat,
                              neigh_node_feat=neigh_feat,
                              target_node_feat=target_feat)

            if train and self.uses_adaptive_sampling:
                hop.make_gate()
            hop.inverse = inverse
            minibatch.hops.append(hop)
            cur_nodes, cur_times = flatten_frontier(hop.batch)

        return minibatch
