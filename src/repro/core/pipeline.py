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
Every batch runs them on the distinct ``(node, t)`` queries of each level, a
forward-only batch (scoring, serving) per row tile;
:meth:`MiniBatchGenerator.hop_tile` is one tile's stage in the embedding
pass.  Training and scoring go through the prep runtime, the single producer
of :class:`~repro.core.prep.PreparedBatch`.

Every stochastic draw of a tile — the finder's, then the adaptive sampler's
Gumbel selection — comes from that tile's own generator, seeded by one raw
draw of the caller's generator (:meth:`MiniBatchGenerator.build`); neither
the finder nor the sampler holds random state.

The generator is the only reader of the T-CSR (through its finder) and of
the event log (through its feature store), so it holds the live history and
is the one place it grows: :meth:`MiniBatchGenerator.ingest` appends a chunk
to the log and to the streaming T-CSR that wraps its finder's T-CSR, and
re-points the finder at the merged T-CSR.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..device.memory import FeatureStore
from ..graph.tcsr import StreamingTCSR
from ..models.minibatch import HopData, MiniBatch
from ..sampling.base import NeighborBatch, NeighborFinder
from ..sampling.gpu_finder import GPUNeighborFinder
from ..sampling.recursive import flatten_frontier, unique_targets
from ..utils.rng import TileGenerator
from ..utils.tiles import ONE_TILE, Tiles
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

    #: a level's distinct ``(node, t)`` queries and each row's index among
    #: them; Fig. 1's per-row baseline swaps it (:mod:`repro.bench.breakdown`).
    distinct = staticmethod(unique_targets)

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
        #: the streaming T-CSR of the live history: it wraps the finder's
        #: T-CSR, so a generator that never ingests holds no other array.
        self.stcsr = StreamingTCSR(finder.tcsr)

    # -- live history ------------------------------------------------------------

    def ingest(self, src: np.ndarray, dst: np.ndarray, ts: np.ndarray,
               edge_feat: Optional[np.ndarray] = None) -> None:
        """Grow the live history by one chunk of events.

        The event log is the feature store's graph.  The chunk is appended
        to the log, which checks it (a rejected chunk raises ``ValueError``
        and leaves log and T-CSR as they were), then merged into the
        streaming T-CSR, and the finder is re-pointed at the merged T-CSR,
        which is bitwise :func:`~repro.graph.tcsr.build_tcsr` of the log.
        """
        self.feature_store.graph.append_events(src, dst, ts, edge_feat)
        self.stcsr.append(src, dst, ts)
        self.finder = GPUNeighborFinder(self.stcsr.snapshot(),
                                        policy=self.finder.policy)

    # -- helpers -----------------------------------------------------------------

    @property
    def uses_adaptive_sampling(self) -> bool:
        return self.adaptive_sampler is not None

    def _candidate_budget(self) -> int:
        return self.num_candidates if self.uses_adaptive_sampling else self.num_neighbors

    def _slice_features(self, neighbors: NeighborBatch):
        """Gather edge/node features of a neighborhood and of its targets."""
        store = self.feature_store
        edge_feat = store.slice_edge_features(neighbors.eids, neighbors.mask)
        neigh_feat = store.slice_node_features(neighbors.nodes, neighbors.mask)
        target_feat = store.slice_node_features(neighbors.root_nodes)
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

    def _find(self, target_nodes: np.ndarray, target_times: np.ndarray,
              budget: int, rng: np.random.Generator) -> NeighborBatch:
        """NF: ``budget`` past neighbors of each target."""
        with self.timer.section("NF"):
            neighbors = self.finder.sample(target_nodes, target_times, budget, rng)
        # Roots with no past interactions yield fully-masked rows whose slots
        # hold the padding sentinel; downstream feature slicing and
        # aggregation rely on that contract, so enforce it at the source.
        neighbors.check_padding()
        return neighbors

    def layer_candidates(self, target_nodes: np.ndarray,
                         target_times: np.ndarray,
                         rng: np.random.Generator) -> CandidateSlice:
        """NF + FS of one layer: sample candidates and slice their features.

        This stage depends only on the graph, the query frontier and ``rng``
        (the generator of the finder's draws), never on trainable state.
        """
        candidates = self._find(target_nodes, target_times,
                                self._candidate_budget(), rng)
        with self.timer.section("FS"):
            edge_feat, neigh_feat, target_feat = self._slice_features(candidates)
        return CandidateSlice(candidates=candidates, edge_feat=edge_feat,
                              neigh_node_feat=neigh_feat,
                              target_node_feat=target_feat)

    def slice_root_features(self, root_nodes: np.ndarray) -> Optional[np.ndarray]:
        """FS of the root queries.  Kept for the frozen
        benchmarks/e2e/tracer.py, which patches it by name."""
        with self.timer.section("FS"):
            return self.feature_store.slice_node_features(root_nodes)

    # -- level and tile stages --------------------------------------------------------

    def _hop_features(self, neighbors: NeighborBatch) -> HopData:
        """FS of a tile: the hop of ``neighbors`` with its neighbors' and its
        targets' features."""
        with self.timer.section("FS"):
            edge_feat, neigh_feat, target_feat = self._slice_features(neighbors)
        return HopData(batch=neighbors, edge_feat=edge_feat,
                       neigh_node_feat=neigh_feat, target_node_feat=target_feat,
                       gathered=True)

    def _draw(self, target_nodes: np.ndarray, target_times: np.ndarray,
              rng: np.random.Generator, features: bool,
              train: bool = False) -> HopData:
        """NF (+ FS + AS with the adaptive sampler) of a tile: the selected
        neighbors of each target, with their features when ``features``.

        ``rng`` is the tile's generator: the finder draws from it, then, with
        ``train``, the adaptive sampler draws one Gumbel selection per target
        and the hop keeps its ``log_prob`` and a gate; otherwise the sampler
        picks greedily.  Candidate features live only inside this call."""
        if self.adaptive_sampler is None:
            selected = self._find(target_nodes, target_times, self.num_neighbors, rng)
            return self._hop_features(selected) if features else HopData(batch=selected)
        stage = self.layer_candidates(target_nodes, target_times, rng)
        with self.timer.section("AS"):
            selection = self.adaptive_sampler(
                stage.candidates, self.num_neighbors, edge_feat=stage.edge_feat,
                neigh_node_feat=stage.neigh_node_feat,
                target_node_feat=stage.target_node_feat,
                rng=rng if train else None)
        columns = selection.columns
        hop = HopData(batch=stage.candidates.select(columns))
        if features:
            hop.edge_feat = self._gather_columns(stage.edge_feat, columns)
            hop.neigh_node_feat = self._gather_columns(stage.neigh_node_feat, columns)
            hop.target_node_feat = stage.target_node_feat
            hop.gathered = True
        if train:
            hop.log_prob = selection.log_prob
            hop.make_gate()
        return hop

    def hop_tile(self, hop: HopData, index: int, rows: slice) -> HopData:
        """Tile ``index`` (rows ``rows``) of a level, with its features.  A
        training level holds them and is its own (one) tile.  A drawn
        forward-only level's selected neighbors are sliced and their features
        gathered; an undrawn one (the deepest level of a scoring call) draws
        the tile here, from its own seed in :attr:`HopData.seeds`, and keeps
        the candidates' features of the selected neighbors."""
        if hop.gathered:
            return hop
        batch = hop.batch
        if batch.budget:
            return self._hop_features(batch.rows(rows))
        return self._draw(batch.root_nodes[rows], batch.root_times[rows],
                          TileGenerator(int(hop.seeds[index])), features=True)

    # -- main entry point ------------------------------------------------------------

    def build(self, root_nodes: np.ndarray, root_times: np.ndarray,
              rng: np.random.Generator, train: bool = True,
              tiles: Optional[Tiles] = None) -> MiniBatch:
        """Build the full multi-hop mini-batch for the given root queries,
        level by level: each level — the roots, then each flattened frontier
        — is reduced to its distinct ``(node, t)`` queries once, and
        :attr:`~repro.models.HopData.inverse` records where each row went.
        The level's distinct targets run the finder, and with the adaptive
        sampler the candidate gather and the selection.

        A training batch (``train=True``) is one tile per level, and each
        level keeps its selected neighbors' features; with the adaptive
        sampler each distinct target draws one Gumbel selection, and the hop
        keeps its ``log_prob`` and gate.  A target that several rows reach
        shares that draw: its gate's gradient is the sum over its uses.

        A forward-only batch (``train=False``) selects greedily, and its
        levels are cut into ``tiles`` (default: one).  A level keeps only its
        targets, ``inverse`` and the selected neighbors' ids / times / mask:
        :meth:`~repro.models.TGNNBackbone.embed` gathers each tile's features
        through :meth:`hop_tile`.  A deepest level of more than one tile keeps
        only its targets (a batch of budget 0) and the seeds of its tiles:
        :meth:`hop_tile` draws each tile where it is embedded, so no array of
        that level outlives its tile.

        ``rng`` is the caller's generator.  Every tile draws — the finder,
        then a training batch's Gumbel selection — from its own generator
        (:class:`~repro.utils.rng.TileGenerator`), seeded by one raw draw of
        ``rng`` per tile, taken in tile order before the level's tiles run;
        so ``rng`` advances by exactly one raw draw per tile of each level,
        and the batch does not depend on the threads that ran the tiles.  A
        training batch is the one-tile case: one raw draw per level.
        """
        if train and tiles is not None:
            raise ValueError("a training batch is one tile per level")
        tiles = tiles or ONE_TILE
        minibatch = MiniBatch(root_nodes=np.asarray(root_nodes, dtype=np.int64),
                              root_times=np.asarray(root_times, dtype=np.float64))
        nodes, times = minibatch.root_nodes, minibatch.root_times
        for layer in range(self.num_layers):
            if layer:
                nodes, times = flatten_frontier(minibatch.hops[-1].batch)
            nodes, times, inverse = self.distinct(nodes, times)
            cut = tiles.split(nodes.size)
            count = len(cut)
            seeds = rng.bit_generator.random_raw(count)
            if layer == self.num_layers - 1 and count > 1:
                minibatch.hops.append(HopData(
                    batch=NeighborBatch.targets(nodes, times), inverse=inverse,
                    seeds=seeds))
                break
            parts = [None] * count

            def draw(index: int, rows: slice, nodes=nodes, times=times,
                     seeds=seeds, parts=parts) -> None:
                parts[index] = self._draw(nodes[rows], times[rows],
                                          TileGenerator(int(seeds[index])),
                                          features=train, train=train)

            tiles.run(draw, cut)
            hop = parts[0] if count == 1 else \
                HopData(batch=NeighborBatch.concatenate([p.batch for p in parts]))
            hop.inverse = inverse
            minibatch.hops.append(hop)
        return minibatch
