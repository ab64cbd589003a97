"""Base class shared by the TGNN backbones (TGAT, GraphMixer).

A backbone turns a :class:`~repro.models.minibatch.MiniBatch` into dynamic
node embeddings for its root queries (Eq. 1-2).  The level-wise expansion is
shared here; the per-layer COMB function — one graph node per layer, which
forms the messages ``h_u || x_uvt || Phi(dt)`` inside its kernel — is what
each backbone specialises.

Everything a backbone computes is Tensor math, so the whole propagation phase
(the ``PP`` section of Table III) runs on the array runtime
(:mod:`repro.tensor.backend`).
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from ..nn import Module
from ..tensor import Tensor, concatenate
from ..utils.tiles import ONE_TILE, Tiles
from .minibatch import HopData, MiniBatch

__all__ = ["TGNNBackbone"]


class TGNNBackbone(Module):
    """Common scaffolding of temporal GNN backbones.

    Subclasses must set :attr:`num_layers` and implement
    :meth:`aggregate` — the per-layer COMB function of Eq. (2).
    """

    num_layers: int = 1

    def __init__(self, node_dim: int, edge_dim: int, hidden_dim: int,
                 time_dim: int) -> None:
        super().__init__()
        self.node_dim = node_dim
        self.edge_dim = edge_dim
        self.hidden_dim = hidden_dim
        self.time_dim = time_dim

    # -- layer-0 embeddings -------------------------------------------------------

    def base_embedding(self, node_feat: Optional[np.ndarray], count: int
                       ) -> Optional[Tensor]:
        """Layer-0 node state: projected raw features, or zeros when absent.

        A backbone whose :meth:`aggregate` accepts it may return ``None``
        instead of a zero tensor — the *zero state*.  It is a statement about
        structure (no node features to project), never the result of
        inspecting values, and it lets layer 1 skip the arithmetic on it.
        """
        raise NotImplementedError

    # -- per-layer aggregation ------------------------------------------------------

    def aggregate(self, layer: int, h_target: Optional[Tensor],
                  h_neighbors: Optional[Tensor], hop: HopData) -> Tensor:
        """COMB of layer ``layer`` (1-indexed): combine target and neighbor
        states (whatever :meth:`base_embedding` returns, at layer 1)."""
        raise NotImplementedError

    # -- level-wise embedding computation ----------------------------------------------

    def embed(self, minibatch: MiniBatch,
              hop_tile: Callable[[HopData, int, slice], HopData],
              tiles: Optional[Tiles] = None) -> Tensor:
        """Compute final-layer dynamic embeddings of the mini-batch roots.

        The batch holds one hop per level of distinct ``(node, t)`` targets,
        each with an :attr:`~repro.models.HopData.inverse`; it is computed
        level by level, deepest first, each level over the row tiles of
        ``tiles`` (default: one).  A tile gets its hop and features from
        ``hop_tile(hop, index, rows)``, reads the level beneath through that
        level's ``inverse`` and runs every aggregate its level needs: the
        hop-``l`` targets' layer-``k`` states are aggregated from their
        neighbors' layer-``k-1`` states, computed one level deeper.  A level
        keeps only the layer states of its distinct targets.

        The reads through ``inverse`` are differentiable gathers, so a
        target that several rows reach gets the sum of their gradients.  The
        result has one row per root.
        """
        if minibatch.num_hops < self.num_layers:
            raise ValueError(
                f"minibatch has {minibatch.num_hops} hops but the model needs "
                f"{self.num_layers}")
        tiles = tiles or ONE_TILE
        below: Optional[List[Optional[Tensor]]] = None
        inverse: Optional[np.ndarray] = None
        for level in reversed(range(self.num_layers)):
            hop = minibatch.hops[level]
            cut = tiles.split(hop.batch.root_nodes.size)
            parts: List[Optional[List[Optional[Tensor]]]] = [None] * len(cut)

            def embed_tile(index: int, rows: slice, hop=hop, below=below,
                           inverse=inverse, parts=parts,
                           layers=self.num_layers - level) -> None:
                tile = hop_tile(hop, index, rows)
                count, n = tile.batch.nodes.shape
                shape = (count, n, self.hidden_dim)
                if below is None:
                    # The deepest level: its neighbors' layer-0 state comes
                    # from their own features, one row per slot.
                    feat = tile.neigh_node_feat
                    state = self.base_embedding(
                        None if feat is None else feat.reshape(count * n, -1),
                        count * n)
                    neighbors = [None if state is None else state.reshape(shape)]
                else:
                    slots = inverse[rows.start * n:rows.stop * n]
                    neighbors = [None if state is None else
                                 state[slots].reshape(shape) for state in below]
                state = self.base_embedding(tile.target_node_feat, count)
                states = [state]
                for layer in range(1, layers + 1):
                    state = self.aggregate(layer, state, neighbors[layer - 1], tile)
                    states.append(state)
                parts[index] = states

            tiles.run(embed_tile, cut)
            below = parts[0] if len(parts) == 1 else \
                [None if layer[0] is None else concatenate(layer, axis=0)
                 for layer in zip(*parts)]
            inverse = hop.inverse
        return below[-1][inverse]
