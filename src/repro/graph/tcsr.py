"""T-CSR: the temporal CSR structure introduced by TGL (Zhou et al., 2022).

The T-CSR stores, for every node, its (bidirected) temporal adjacency list
sorted by timestamp.  A neighbor finder can then locate the candidate set
``N(v, t) = {(u, t_u) : (v, u, t_u) in E, t_u < t}`` with a single binary
search for the *pivot* position of ``t`` inside the node's segment — exactly
the access pattern the paper's GPU neighbor finder (Algorithm 2) relies on.

Arrays
------
``indptr``   ``(|V| + 1,)``  segment boundaries per node.
``indices``  ``(2|E|,)``     neighbor node id of each directed half-edge.
``eid``      ``(2|E|,)``     original event id (for edge-feature lookup).
``ts``       ``(2|E|,)``     event timestamp, non-decreasing inside a segment.

Every :class:`TCSR` also holds the float composite keys of its one batched
probe, :meth:`TCSR.pivots` (8 bytes per entry, built once at construction);
the scalar :meth:`TCSR.pivot` is its reference.

Canonical segment order
-----------------------
Entries inside a node segment are ordered by ``(ts, event id, direction)``
with the forward half-edge before the reverse one.  Since every event log is
in time order, this is exactly the order in which a live stream appends
half-edges, so :class:`StreamingTCSR` — the T-CSR a live history grows
(:meth:`~repro.core.pipeline.MiniBatchGenerator.ingest`), which merges each
appended chunk into a fresh compact :class:`TCSR` — holds a T-CSR
**bitwise-identical** to a one-shot :func:`build_tcsr` over the same events
(asserted by the streaming test suite).  It checks a chunk with the event
log's own checker, :func:`~repro.graph.temporal_graph.check_chunk`.

Construction cost
-----------------
Both builders order half-edges by node with one stable sort of the node ids
cast to the narrowest unsigned dtype that holds ``num_nodes - 1``.  Up to
65 536 nodes (every generated graph here; the paper's Wikipedia, Reddit and
GDELT) that key is 8 or 16 bits and NumPy's stable sort is an ``O(E)`` radix
sort; on wider keys it is ``O(E log E)``.  An event log is in time order by
construction, so :func:`build_tcsr` sorts nothing else.  An append sorts
only its chunk, then writes every entry of the merged T-CSR once:
``O(E + chunk)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .temporal_graph import TemporalGraph, check_chunk

__all__ = ["TCSR", "build_tcsr", "StreamingTCSR"]

#: whether any entry of a 1-D array is nonzero: the reduction itself, one C
#: call (``ndarray.any`` wraps it in a Python helper).
_any = np.logical_or.reduce


@dataclass
class TCSR:
    """Temporal CSR adjacency; see module docstring for array layout."""

    indptr: np.ndarray
    indices: np.ndarray
    eid: np.ndarray
    ts: np.ndarray
    num_nodes: int

    def __post_init__(self) -> None:
        self.indptr = np.ascontiguousarray(self.indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(self.indices, dtype=np.int64)
        self.eid = np.ascontiguousarray(self.eid, dtype=np.int64)
        self.ts = np.ascontiguousarray(self.ts, dtype=np.float64)
        # The composite search keys of :meth:`pivots`, built once: the arrays
        # above are never written after construction (an append merges into
        # a *fresh* TCSR).
        if self.num_entries:
            t_min, t_max = float(self.ts.min()), float(self.ts.max())
        else:
            t_min, t_max = 0.0, 1.0
        self._t_min = t_min
        #: strictly larger than any normalised timestamp, separating segments.
        self._offset = (t_max - t_min) * 1.000001 + 1.0
        keys = np.repeat(np.arange(self.num_nodes, dtype=np.float64),
                         np.diff(self.indptr))
        keys *= self._offset
        keys += self.ts - t_min
        #: ``node * offset + (ts - t_min)`` per entry, sorted like the entries.
        self._keys = keys

    @property
    def num_entries(self) -> int:
        return int(self.indices.shape[0])

    def neighborhood(self, node: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Views (no copy) of the full temporal adjacency of ``node``.

        Returns ``(neighbor_ids, event_ids, timestamps)`` sorted by time.
        """
        lo, hi = int(self.indptr[node]), int(self.indptr[node + 1])
        return self.indices[lo:hi], self.eid[lo:hi], self.ts[lo:hi]

    def pivot(self, node: int, t: float) -> int:
        """Index (absolute, into ``indices``) of the first entry with ts >= t.

        All entries in ``[indptr[node], pivot)`` are strictly earlier than
        ``t`` and therefore form the valid temporal neighborhood at ``t``.
        """
        lo, hi = int(self.indptr[node]), int(self.indptr[node + 1])
        return lo + int(np.searchsorted(self.ts[lo:hi], t, side="left"))

    def pivots(self, nodes: np.ndarray, times: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`pivot` for a batch of (node, time) queries.

        Equivalent to one binary search per thread block in Algorithm 2 but
        performed as a single ``searchsorted`` over the composite keys
        ``node * offset + (ts - t_min)``: segments are node-ordered and
        time-sorted within, so the key array is sorted.

        The float key rounds: once ``node * offset`` is large its ulp swallows
        real timestamp gaps, and the search stops short of strictly earlier
        entries whose key collides with the query's.  The result is therefore
        clamped into the node's segment and walked to the exact pivot by
        comparing timestamps — zero steps unless a key collided, so the
        answer always equals the scalar :meth:`pivot` (rounding is monotone,
        so an unrepaired key would lose history, never leak the future).
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        times = np.asarray(times, dtype=np.float64)
        query_keys = nodes * self._offset \
            + np.minimum(np.maximum(times - self._t_min, 0.0), self._offset - 1.0)
        pivots = self._keys.searchsorted(query_keys)
        ts = self.ts
        if ts.shape[0] == 0:
            return pivots
        lo, hi = self.indptr[nodes], self.indptr[nodes + 1]
        pivots = np.minimum(np.maximum(pivots, lo), hi)
        last = ts.shape[0] - 1
        while True:
            early = (pivots < hi) & (ts[np.minimum(pivots, last)] < times)
            if not _any(early):
                break
            pivots += early
        while True:
            # pivots - 1 == -1 only where pivots == lo == 0, masked out.
            late = (pivots > lo) & (ts[pivots - 1] >= times)
            if not _any(late):
                break
            pivots -= late
        return pivots

    def check_invariants(self) -> None:
        """Raise AssertionError when any structural invariant is violated."""
        assert self.indptr.shape[0] == self.num_nodes + 1, "indptr length mismatch"
        assert self.indptr[0] == 0, "indptr must start at zero"
        assert np.all(np.diff(self.indptr) >= 0), "indptr must be non-decreasing"
        assert self.indptr[-1] == self.num_entries, "indptr must end at num_entries"
        assert self.indices.shape == self.eid.shape == self.ts.shape, "parallel array mismatch"
        if self.num_entries:
            assert self.indices.min() >= 0 and self.indices.max() < self.num_nodes, \
                "neighbor id out of range"
        # Timestamps non-decreasing inside each segment: a step between two
        # entries may descend only where the second one starts a segment.
        starts = np.zeros(self.num_entries + 1, dtype=bool)
        starts[self.indptr] = True
        unsorted = np.flatnonzero(~(np.diff(self.ts) >= 0) & ~starts[1:-1])
        if unsorted.size:
            node = int(np.searchsorted(self.indptr, unsorted[0], side="right")) - 1
            raise AssertionError(f"segment of node {node} not time-sorted")


def _half_edges(src: np.ndarray, dst: np.ndarray, eid: np.ndarray,
                ts: np.ndarray):
    """Expand events into half-edges in the **canonical** entry order.

    The two half-edges of each event are interleaved — forward
    ``(src -> dst)`` immediately followed by reverse ``(dst -> src)`` — so
    that, on events in time order, a stable sort by node realises the
    canonical segment order ``(ts, event id, direction)``.  Both the batch
    builder and the incremental appender go through this single definition;
    changing it in one place cannot silently break the append-vs-rebuild
    bitwise invariant.

    Returns ``(rows, cols, eids, tss)``.
    """
    rows = np.stack([src, dst], axis=1).reshape(-1)
    cols = np.stack([dst, src], axis=1).reshape(-1)
    return rows, cols, np.repeat(eid, 2), np.repeat(ts, 2)


def _node_order(rows: np.ndarray, num_nodes: int) -> np.ndarray:
    """``argsort(rows, kind="stable")`` on the narrowest unsigned key that
    holds ``num_nodes - 1``: a radix sort up to 16 bits (module docstring)."""
    key = np.min_scalar_type(max(num_nodes - 1, 0))
    return np.argsort(rows.astype(key), kind="stable")


def build_tcsr(graph: TemporalGraph) -> TCSR:
    """Build the T-CSR adjacency from an event list.

    As in TGL, each event contributes adjacency entries to *both* endpoints,
    so destination nodes also see their history.  Both directions carry the
    same event id, hence the same edge feature.
    """
    e = graph.num_edges
    rows, cols, eid, ts = _half_edges(graph.src, graph.dst, np.arange(e),
                                      graph.ts)

    # The log is in time order, so one stable sort by node leaves each node
    # segment in the canonical order: one permutation, one gather per array.
    order = _node_order(rows, graph.num_nodes)

    counts = np.bincount(rows, minlength=graph.num_nodes)
    indptr = np.zeros(graph.num_nodes + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])

    cols, eid, ts = cols[order], eid[order], ts[order]
    # Release the half-edge temporaries before the T-CSR builds its keys.
    del rows, order
    return TCSR(indptr=indptr, indices=cols, eid=eid, ts=ts,
                num_nodes=graph.num_nodes)


class StreamingTCSR:
    """A live history's T-CSR: one compact :class:`TCSR` that each append
    replaces.

    :meth:`append` orders the chunk's half-edges by node as
    :func:`build_tcsr` does and merges them into one fresh :class:`TCSR`:
    every old segment keeps its entries in order, moved up by the chunk
    entries of the nodes before it, and the chunk's per-node runs go to the
    segments' tails.  The merge writes every entry once (``O(E + chunk)``),
    and its result is **bitwise-identical** to ``build_tcsr`` over the same
    chronological event log, since the canonical segment order
    ``(ts, event id, direction)`` is the order of arrival.  :meth:`snapshot`
    returns the held :class:`TCSR`; it is never written, so a finder that
    reads it goes on reading the history as it stood.
    """

    def __init__(self, tcsr: TCSR) -> None:
        self._tcsr = tcsr
        #: events so far (two half-edges each): the next event id.
        self._num_events = tcsr.num_entries // 2
        self._last_ts = float(tcsr.ts.max()) if tcsr.num_entries else -np.inf

    @classmethod
    def from_graph(cls, graph: TemporalGraph) -> "StreamingTCSR":
        """Wrap :func:`build_tcsr` of an event log."""
        return cls(build_tcsr(graph))

    @property
    def num_events(self) -> int:
        """Number of events appended so far (the next event id)."""
        return self._num_events

    @property
    def num_entries(self) -> int:
        """Number of adjacency entries (half-edges)."""
        return self._tcsr.num_entries

    def append(self, src: np.ndarray, dst: np.ndarray, ts: np.ndarray
               ) -> "StreamingTCSR":
        """Merge a chunk of chronologically ordered events into a fresh T-CSR.

        Event ids continue the running counter (``num_events``), matching the
        row order of the event log's edge-feature matrix.  The chunk must
        pass the event log's own rules (:func:`~repro.graph.temporal_graph.check_chunk`);
        a rejected chunk raises ``ValueError`` and changes nothing.
        """
        old = self._tcsr
        src, dst, ts = check_chunk(src, dst, ts, old.num_nodes, self._last_ts)
        k = int(src.size)
        if k == 0:
            return self

        eid = np.arange(self._num_events, self._num_events + k, dtype=np.int64)
        rows, cols, eids, tss = _half_edges(src, dst, eid, ts)
        order = _node_order(rows, old.num_nodes)
        indptr = old.indptr.copy()
        indptr[1:] += np.cumsum(np.bincount(rows, minlength=old.num_nodes))
        # The j-th chunk entry in node order, of node v, lands past the old
        # segments of nodes 0..v and the j chunk entries before it.
        pos = old.indptr[rows[order] + 1] + np.arange(rows.size)
        old_slot = np.ones(int(indptr[-1]), dtype=bool)
        old_slot[pos] = False
        merged = []
        for before, chunk in ((old.indices, cols), (old.eid, eids), (old.ts, tss)):
            array = np.empty(old_slot.size, dtype=before.dtype)
            array[old_slot] = before
            array[pos] = chunk[order]
            merged.append(array)
        self._tcsr = TCSR(indptr, *merged, num_nodes=old.num_nodes)
        self._num_events += k
        self._last_ts = float(ts[-1])
        return self

    def snapshot(self) -> TCSR:
        """The held :class:`TCSR`: bitwise ``build_tcsr`` of the log so far."""
        return self._tcsr
