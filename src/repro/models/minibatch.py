"""Mini-batch containers consumed by the TGNN backbones.

The mini-batch generation pipeline (neighbor finding -> feature slicing ->
optional adaptive neighbor sampling) produces a :class:`MiniBatch`: one
:class:`HopData` per TGNN layer, containing the selected neighbors, their
sliced features, and the hooks needed to co-train the adaptive sampler
(selection log-probabilities and per-neighbor gates whose gradient gives the
loss sensitivity used by the REINFORCE sample loss).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..sampling.base import NeighborBatch
from ..sampling.recursive import flatten_frontier, unique_targets
from ..tensor import Tensor

__all__ = ["HopData", "MiniBatch"]


@dataclass
class HopData:
    """Sampled neighborhood of one hop plus its sliced features.

    ``R`` denotes the number of targets at this hop (``B`` for hop 1,
    ``B * n_1`` for hop 2, ...); ``n`` is the per-target neighbor budget.
    A deduplicated hop (forward-only batches) has one target per distinct
    ``(node, t)`` of the level it expands instead, and :attr:`inverse` maps
    the level's rows to them.
    """

    #: selected neighbors of each target, arrays of shape (R, n).
    batch: NeighborBatch
    #: edge features of the selected interactions, shape (R, n, d_e) or None.
    edge_feat: Optional[np.ndarray] = None
    #: node features of the selected neighbor nodes, shape (R, n, d_v) or None.
    neigh_node_feat: Optional[np.ndarray] = None
    #: node features of the hop's targets, shape (R, d_v) or None.
    target_node_feat: Optional[np.ndarray] = None
    #: log q_theta of the selected neighbors, shape (R, n); set by the
    #: adaptive neighbor sampler and consumed by the sample loss.
    log_prob: Optional[Tensor] = None
    #: per-neighbor multiplicative gate (ones); after backward its gradient
    #: measures the model-loss sensitivity to each selected neighbor.
    gate: Optional[Tensor] = None
    #: candidate pool the adaptive sampler chose from (for diagnostics).
    candidates: Optional[NeighborBatch] = None
    #: index of each row of the level this hop expands (the roots for hop 1,
    #: the previous hop's flattened neighbor slots after it) among the hop's
    #: distinct targets; None when the hop has one target per row.
    inverse: Optional[np.ndarray] = None

    @property
    def num_targets(self) -> int:
        return self.batch.batch_size

    @property
    def budget(self) -> int:
        return self.batch.budget

    def make_gate(self) -> Tensor:
        """Create (and remember) a fresh all-ones gate for this hop."""
        self.gate = Tensor.ones(self.num_targets, self.budget, requires_grad=True)
        return self.gate

    def gate_sensitivity(self) -> Optional[np.ndarray]:
        """Per-neighbor model-loss sensitivity, available after backward."""
        if self.gate is None or self.gate.grad is None:
            return None
        return self.gate.grad


@dataclass
class MiniBatch:
    """All hops of a sampled computation graph for one batch of root queries."""

    #: root nodes (positives' sources, destinations and negative destinations
    #: concatenated), shape (B,).
    root_nodes: np.ndarray
    #: query timestamps of the roots, shape (B,).
    root_times: np.ndarray
    #: per-hop sampled data, outermost hop first (hops[0] = neighbors of roots).
    hops: List[HopData] = field(default_factory=list)
    #: node features of the first hop's targets, shape (B, d_v) — or one row
    #: per distinct root when that hop is deduplicated — or None.
    root_node_feat: Optional[np.ndarray] = None

    @property
    def batch_size(self) -> int:
        return int(self.root_nodes.shape[0])

    @property
    def num_hops(self) -> int:
        return len(self.hops)

    def check_invariants(self) -> None:
        """Validate the hop cascade: hop l+1's targets are the queries of
        hop l's flattened neighbor slots — one per slot, or each distinct
        ``(node, t)`` once with an :attr:`HopData.inverse` that maps every
        slot back to its own query."""
        nodes, times = self.root_nodes, self.root_times
        for i, hop in enumerate(self.hops):
            targets = hop.batch
            if hop.inverse is None:
                assert hop.num_targets == nodes.size, (
                    f"hop {i} has {hop.num_targets} targets, expected {nodes.size}")
                reached = targets.root_nodes, targets.root_times
            else:
                assert hop.inverse.shape == nodes.shape, (
                    f"hop {i} inverse has shape {hop.inverse.shape}, "
                    f"expected {nodes.shape}")
                distinct = unique_targets(targets.root_nodes, targets.root_times)[0]
                assert distinct.size == hop.num_targets, (
                    f"hop {i} repeats a (node, t) target")
                assert np.array_equal(np.unique(hop.inverse),
                                      np.arange(hop.num_targets)), (
                    f"hop {i} has targets no row reaches")
                reached = (targets.root_nodes[hop.inverse],
                           targets.root_times[hop.inverse])
            assert np.array_equal(reached[0], nodes) and \
                np.array_equal(reached[1], times), (
                    f"hop {i} rows do not reach their own (node, t) target")
            targets.check_invariants()
            nodes, times = flatten_frontier(targets)
