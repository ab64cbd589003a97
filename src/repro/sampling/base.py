"""Common types and the abstract interface of temporal neighbor finders.

A *neighbor finder* answers batched queries ``(v_i, t_i) -> N_s(v_i, t_i)``:
for each target node at a given time it returns up to ``budget`` past
interactions ``(u, e, t_u)`` with ``t_u < t_i``.  Results are padded to the
budget and accompanied by a validity mask, which is the layout the temporal
aggregators and the adaptive sampler consume directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..graph.tcsr import TCSR, _any

__all__ = ["NeighborBatch", "NeighborFinder", "PAD_NODE", "PAD_EDGE"]

#: Padding sentinel for invalid neighbor slots (kept >= 0 so it can be used to
#: index feature matrices safely; the mask must always be honoured).
PAD_NODE = 0
PAD_EDGE = 0


@dataclass
class NeighborBatch:
    """Padded result of a batched temporal-neighborhood query.

    All arrays have shape ``(B, budget)`` where ``B`` is the number of root
    queries.  ``mask`` marks valid slots; padded slots contain the sentinel
    node/edge id ``0`` and timestamp ``0.0`` and must be ignored downstream.
    """

    #: root node of each query, shape (B,)
    root_nodes: np.ndarray
    #: query timestamp of each root, shape (B,)
    root_times: np.ndarray
    #: neighbor node ids, shape (B, budget)
    nodes: np.ndarray
    #: original event ids (for edge feature lookup), shape (B, budget)
    eids: np.ndarray
    #: neighbor interaction timestamps, shape (B, budget)
    times: np.ndarray
    #: validity mask, shape (B, budget)
    mask: np.ndarray

    def __post_init__(self) -> None:
        self.root_nodes = np.ascontiguousarray(self.root_nodes, dtype=np.int64)
        self.root_times = np.ascontiguousarray(self.root_times, dtype=np.float64)
        self.nodes = np.ascontiguousarray(self.nodes, dtype=np.int64)
        self.eids = np.ascontiguousarray(self.eids, dtype=np.int64)
        self.times = np.ascontiguousarray(self.times, dtype=np.float64)
        self.mask = np.ascontiguousarray(self.mask, dtype=bool)

    @property
    def batch_size(self) -> int:
        return int(self.root_nodes.shape[0])

    @property
    def budget(self) -> int:
        return int(self.nodes.shape[1])

    def delta_t(self) -> np.ndarray:
        """Relative timespans ``t_root - t_neighbor`` (zero on padded slots)."""
        delta = self.root_times[:, None] - self.times
        return np.where(self.mask, delta, 0.0)

    def valid_counts(self) -> np.ndarray:
        """Number of valid neighbors per root, shape (B,)."""
        return self.mask.sum(axis=1)

    def frequencies(self) -> np.ndarray:
        """Within-neighborhood appearance count of each neighbor node.

        Used by the frequency encoding (Eq. 12): a node that interacted with
        the root several times inside the sampled neighborhood has frequency
        equal to that repetition count.  Padded slots get frequency 0.

        Computed as a vectorised pairwise-equality reduction, ``O(B m^2)``
        with small constants — for the budgets used here (m <= 25) this is
        far cheaper than per-row ``np.unique`` calls.
        """
        same = self.nodes[:, :, None] == self.nodes[:, None, :]
        valid_pair = self.mask[:, :, None] & self.mask[:, None, :]
        freq = (same & valid_pair).sum(axis=2)
        return np.where(self.mask, freq, 0)

    def check_padding(self) -> None:
        """Verify that every invalid slot holds the padding sentinel.

        Roots with no past interactions (e.g. the first event of a node, or a
        query at the very start of the timeline) produce fully-masked rows.
        The padding sentinel is the *valid* node/edge id ``0`` so that padded
        slots can index feature matrices safely — which means any consumer
        that ignores ``mask`` silently reads node-0/edge-0 data.  This check
        pins the producer half of that contract: padded slots must contain
        exactly ``PAD_NODE``/``PAD_EDGE``/``0.0`` so masked feature slicing
        zeroes them out deterministically.  Raises ``ValueError`` (not a bare
        assert, which ``python -O`` would compile out) — the pipeline runs it
        on every finder result.
        """
        invalid = ~self.mask
        if _any(self.nodes[invalid]):
            raise ValueError("padded neighbor slots must hold the PAD_NODE sentinel")
        if _any(self.eids[invalid]):
            raise ValueError("padded neighbor slots must hold the PAD_EDGE sentinel")
        if _any(self.times[invalid]):
            raise ValueError("padded neighbor slots must have timestamp 0.0")

    def check_invariants(self) -> None:
        """Assert structural invariants (shapes, causality, padding)."""
        b = self.batch_size
        assert self.root_times.shape == (b,)
        assert self.nodes.shape == self.eids.shape == self.times.shape == self.mask.shape
        # Causality: every valid neighbor interaction strictly precedes the query time.
        assert np.all(self.times[self.mask] < np.repeat(self.root_times, self.budget
                                                        ).reshape(self.mask.shape)[self.mask]), \
            "neighbor finder returned a non-causal (future) interaction"

    @staticmethod
    def targets(root_nodes: np.ndarray, root_times: np.ndarray) -> "NeighborBatch":
        """The queries alone: a batch of budget 0, its neighbors not drawn."""
        empty = np.empty((root_nodes.size, 0))
        return NeighborBatch(root_nodes, root_times, empty, empty, empty, empty)

    def rows(self, rows: slice) -> "NeighborBatch":
        """The queries of the slice ``rows`` with their neighborhoods."""
        if rows == slice(0, self.root_nodes.shape[0]):
            return self
        return NeighborBatch(self.root_nodes[rows], self.root_times[rows],
                             self.nodes[rows], self.eids[rows],
                             self.times[rows], self.mask[rows])

    @staticmethod
    def concatenate(parts: List["NeighborBatch"]) -> "NeighborBatch":
        """One batch holding the queries of ``parts``, in order."""
        if len(parts) == 1:
            return parts[0]
        return NeighborBatch(*(np.concatenate([getattr(part, name) for part in parts])
                               for name in ("root_nodes", "root_times", "nodes",
                                            "eids", "times", "mask")))

    def select(self, columns: np.ndarray) -> "NeighborBatch":
        """Gather a per-row subset of columns (used by the adaptive sampler).

        Parameters
        ----------
        columns:
            Integer array of shape ``(B, n)`` with ``n <= budget``; each row
            lists the column indices to keep for that root.
        """
        rows = np.arange(self.batch_size)[:, None]
        return NeighborBatch(
            root_nodes=self.root_nodes,
            root_times=self.root_times,
            nodes=self.nodes[rows, columns],
            eids=self.eids[rows, columns],
            times=self.times[rows, columns],
            mask=self.mask[rows, columns],
        )


class NeighborFinder:
    """Abstract batched temporal neighbor finder over a T-CSR graph.

    The runtime's finder is :class:`~repro.sampling.GPUNeighborFinder`; the
    paper's two baselines implement this interface as benchmark fixtures in
    :mod:`repro.bench.finders`.  A finder holds one immutable
    :class:`~repro.graph.tcsr.TCSR` snapshot and **no random state**: every
    draw comes from the generator the caller passes to :meth:`sample`, so a
    finder is a pure function of the snapshot, the queries and that
    generator.  The streaming subsystem swaps in a fresh finder per ingested
    chunk without touching any random stream.

    Parameters
    ----------
    tcsr:
        The temporal CSR adjacency to answer queries against.
    policy:
        Static sampling policy for oversubscribed neighborhoods:
        ``"uniform"`` (uniform without replacement, draws from the caller's
        generator) or ``"recent"`` (deterministic most-recent, draws
        nothing).
    """

    def __init__(self, tcsr: TCSR, policy: str = "uniform") -> None:
        if policy not in ("uniform", "recent"):
            raise ValueError(f"unknown sampling policy {policy!r}")
        self.tcsr = tcsr
        self.policy = policy

    def sample(self, nodes: np.ndarray, times: np.ndarray, budget: int,
               rng: np.random.Generator) -> NeighborBatch:
        """Sample up to ``budget`` past neighbors for each ``(node, time)`` query.

        Parameters
        ----------
        nodes, times:
            Parallel ``(B,)`` arrays of query roots and query timestamps.
        budget:
            Maximum neighbors per root; shorter neighborhoods are padded (see
            :class:`NeighborBatch` and :meth:`NeighborBatch.check_padding`).
        rng:
            Generator of this call's random draws.

        Returns
        -------
        NeighborBatch
            Padded ``(B, budget)`` arrays with a validity mask.  Every valid
            entry is strictly earlier than its query time (causality).
        """
        raise NotImplementedError
