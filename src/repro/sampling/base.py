"""Common types and the abstract interface of temporal neighbor finders.

A *neighbor finder* answers batched queries ``(v_i, t_i) -> N_s(v_i, t_i)``:
for each target node at a given time it returns up to ``budget`` past
interactions ``(u, e, t_u)`` with ``t_u < t_i``.  Results are padded to the
budget and accompanied by a validity mask, which is the layout the temporal
aggregators and the adaptive sampler consume directly.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from ..graph.tcsr import TCSR

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
        if self.nodes[invalid].any():
            raise ValueError("padded neighbor slots must hold the PAD_NODE sentinel")
        if self.eids[invalid].any():
            raise ValueError("padded neighbor slots must hold the PAD_EDGE sentinel")
        if self.times[invalid].any():
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

    Concrete finders (``original`` per-query CPU, ``tgl`` pointer-array,
    ``gpu`` block-centric vectorised) share this interface and are built via
    :func:`repro.sampling.make_finder`.  A finder is **stateless with respect
    to the graph**: it holds a reference to one immutable
    :class:`~repro.graph.tcsr.TCSR` snapshot, which is how the streaming
    subsystem swaps in a fresh snapshot per ingested chunk.

    Parameters
    ----------
    tcsr:
        The temporal CSR adjacency to answer queries against.
    policy:
        Static sampling policy for oversubscribed neighborhoods:
        ``"uniform"`` (uniform without replacement, consumes RNG),
        ``"recent"`` (deterministic most-recent — the policy the AOT batch
        engine can vectorise over a whole epoch), or ``"inverse_timespan"``
        (probability proportional to 1 / (t - t_u)).
    seed:
        Seed of the finder's private RNG stream.  Engines rely on every
        stochastic draw happening in exactly the training order, so the RNG
        must never be shared across threads.
    """

    #: human-readable name used by the benchmark harness.
    name: str = "abstract"
    #: whether the finder requires queries in chronological order
    #: (True for the TGL pointer-array finder).
    requires_chronological: bool = False

    def __init__(self, tcsr: TCSR, policy: str = "uniform",
                 seed: int = 0) -> None:
        if policy not in ("uniform", "recent", "inverse_timespan"):
            raise ValueError(f"unknown sampling policy {policy!r}")
        self.tcsr = tcsr
        self.policy = policy
        self.rng = np.random.default_rng(seed)

    def sample(self, nodes: np.ndarray, times: np.ndarray, budget: int) -> NeighborBatch:
        """Sample up to ``budget`` past neighbors for each ``(node, time)`` query.

        Parameters
        ----------
        nodes, times:
            Parallel ``(B,)`` arrays of query roots and query timestamps.
        budget:
            Maximum neighbors per root; shorter neighborhoods are padded (see
            :class:`NeighborBatch` and :meth:`NeighborBatch.check_padding`).

        Returns
        -------
        NeighborBatch
            Padded ``(B, budget)`` arrays with a validity mask.  Every valid
            entry is strictly earlier than its query time (causality).
        """
        raise NotImplementedError

    def reset(self) -> None:
        """Reset any internal state (pointer arrays; the RNG is preserved).

        Called by the trainer at every epoch boundary for finders with
        ``requires_chronological=True``.
        """

    @contextmanager
    def draws_from(self, rng: np.random.Generator):
        """Take every random draw from ``rng`` instead, for the duration.

        Scoring runs under it with a generator its caller owns, so a
        forward-only pass never advances the training stream.
        """
        saved, self.rng = self.rng, rng
        try:
            yield self
        finally:
            self.rng = saved
