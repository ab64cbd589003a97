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

Canonical segment order
-----------------------
Entries inside a node segment are ordered by ``(ts, event id, direction)``
with the forward half-edge before the reverse one.  For chronologically
sorted event logs this is exactly the order in which a live stream appends
half-edges, so :class:`StreamingTCSR` — the incrementally appendable variant
used by the streaming subsystem — produces snapshots **bitwise-identical**
to a one-shot :func:`build_tcsr` over the same events (asserted by the
streaming test suite).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .temporal_graph import TemporalGraph

__all__ = ["TCSR", "build_tcsr", "StreamingTCSR"]


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
        # Lazily-built composite probe keys for the batched pivot search (see
        # :meth:`pivots`).  The arrays above are treated as immutable after
        # construction (the streaming builder emits a *fresh* TCSR per
        # snapshot), so the cache never needs invalidation.
        self._probe_cache: Optional[Tuple[np.ndarray, int, np.ndarray]] = None

    @property
    def num_entries(self) -> int:
        return int(self.indices.shape[0])

    def degree(self, node: int) -> int:
        """Number of (directed) adjacency entries of ``node`` over all time."""
        return int(self.indptr[node + 1] - self.indptr[node])

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

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

    def _probe_keys(self) -> Tuple[np.ndarray, int, np.ndarray]:
        """Composite ``(node, timestamp-rank)`` keys for the batched probe.

        Timestamps are replaced by their *rank* in the sorted unique-timestamp
        array, so the composite key ``node * (U + 1) + rank`` is exact int64
        arithmetic — unlike a float ``node * offset + (ts - t_min)`` key, it
        cannot lose a duplicate-timestamp boundary to rounding.  The key array
        is sorted by construction (segments are node-ordered and time-sorted
        within), making one global ``searchsorted`` equivalent to a per-segment
        binary search.  Built lazily on first use; a concurrent first call from
        two threads is a benign idempotent race.
        """
        cache = self._probe_cache
        if cache is None:
            unique_ts = np.unique(self.ts)
            base = int(unique_ts.size) + 1
            entry_node = np.repeat(np.arange(self.num_nodes, dtype=np.int64),
                                   np.diff(self.indptr))
            keys = entry_node * base + np.searchsorted(unique_ts, self.ts,
                                                       side="left")
            cache = self._probe_cache = (unique_ts, base, keys)
        return cache

    def pivots(self, nodes: np.ndarray, times: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`pivot` for a batch of (node, time) queries.

        The exact oracle the finder tests compare against (no program path
        calls it: the GPU finder searches cheaper float keys and repairs
        their rounding, see ``GPUNeighborFinder.batched_pivots``).  The
        per-query segment searches collapse into one ``searchsorted`` over
        composite ``(node, timestamp-rank)`` keys, exactly matching the
        scalar :meth:`pivot` — including on duplicate timestamps, where the
        integer rank keys are immune to the float-composite precision hazard.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        times = np.asarray(times, dtype=np.float64)
        unique_ts, base, keys = self._probe_keys()
        # rank_q = number of unique timestamps strictly below the query time;
        # an entry with ts < t has rank < rank_q, so the first key >= the
        # query key is exactly the scalar pivot.
        rank_q = np.searchsorted(unique_ts, times, side="left")
        return np.searchsorted(keys, nodes * base + rank_q,
                               side="left").astype(np.int64)

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
        # Timestamps sorted within each node segment.
        for node in range(self.num_nodes):
            lo, hi = self.indptr[node], self.indptr[node + 1]
            seg = self.ts[lo:hi]
            assert np.all(np.diff(seg) >= 0), f"segment of node {node} not time-sorted"


def _half_edges(src: np.ndarray, dst: np.ndarray, eid: np.ndarray,
                ts: np.ndarray, add_reverse: bool):
    """Expand events into half-edges in the **canonical** entry order.

    With ``add_reverse`` the two half-edges of each event are interleaved —
    forward ``(src -> dst)`` immediately followed by reverse ``(dst -> src)``
    — so that a stable sort by (ts, position) realises the canonical segment
    order ``(ts, event id, direction)``.  Both the batch builder and the
    incremental appender go through this single definition; changing it in
    one place cannot silently break the append-vs-rebuild bitwise invariant.

    Returns ``(rows, cols, eids, tss)``.
    """
    if not add_reverse:
        return src, dst, eid, ts
    rows = np.stack([src, dst], axis=1).reshape(-1)
    cols = np.stack([dst, src], axis=1).reshape(-1)
    return rows, cols, np.repeat(eid, 2), np.repeat(ts, 2)


def build_tcsr(graph: TemporalGraph, add_reverse: bool = True) -> TCSR:
    """Build the T-CSR adjacency from an event list.

    Parameters
    ----------
    graph:
        The dynamic graph.
    add_reverse:
        When True (default, matching TGL) each event contributes adjacency
        entries to *both* endpoints, so destination nodes also see their
        history.  Both directions carry the same event id, hence the same
        edge feature.
    """
    e = graph.num_edges
    rows, cols, eid, ts = _half_edges(graph.src, graph.dst, np.arange(e),
                                      graph.ts, add_reverse)

    # Counting sort by (row, ts): first order by ts, then stable-sort by row so
    # each node segment remains chronologically sorted.
    order_t = np.argsort(ts, kind="stable")
    rows_t, cols_t, eid_t, ts_t = rows[order_t], cols[order_t], eid[order_t], ts[order_t]
    order_r = np.argsort(rows_t, kind="stable")
    rows_s, cols_s, eid_s, ts_s = rows_t[order_r], cols_t[order_r], eid_t[order_r], ts_t[order_r]

    counts = np.bincount(rows, minlength=graph.num_nodes)
    indptr = np.zeros(graph.num_nodes + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])

    return TCSR(indptr=indptr, indices=cols_s, eid=eid_s, ts=ts_s,
                num_nodes=graph.num_nodes)


class StreamingTCSR:
    """Incrementally appendable T-CSR with amortized-doubling segment growth.

    The batch :func:`build_tcsr` sorts the full half-edge list — ``O(E log E)``
    per rebuild, which a live event stream cannot afford on every arrival.
    ``StreamingTCSR`` instead keeps every node's temporal adjacency segment in
    a shared physical heap *with slack capacity*:

    * :meth:`append` places a chunk of chronologically ordered events at its
      nodes' segment tails in ``O(chunk)`` amortized time;
    * a segment that outgrows its capacity is relocated to the end of the heap
      with its capacity doubled (classic amortized doubling), and the heap
      itself also grows geometrically, so the per-half-edge append cost is
      ``O(1)`` amortized;
    * :meth:`snapshot` compacts the padded segments into an exact
      :class:`TCSR` in one vectorised gather — **bitwise-identical** to
      ``build_tcsr`` over the same event log (the canonical segment order
      ``(ts, event id, direction)`` equals chronological arrival order).

    Abandoned segment slots (holes left behind by relocation) are bounded by
    the geometric growth at roughly 2x the live capacity; :meth:`compact`
    rebuilds a tight layout when the waste matters.  Snapshots are cached and
    invalidated by the next append, so alternating ingest/train phases pay the
    ``O(E)`` gather once per window.
    """

    #: capacity multiplier applied when a segment is relocated.
    GROWTH = 2.0
    #: smallest capacity allocated to a non-empty segment.
    MIN_SEGMENT_CAPACITY = 4

    def __init__(self, num_nodes: int, add_reverse: bool = True,
                 initial_capacity: int = 1024) -> None:
        if num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        self.num_nodes = int(num_nodes)
        self.add_reverse = bool(add_reverse)
        self._seg_start = np.zeros(self.num_nodes, dtype=np.int64)
        self._seg_len = np.zeros(self.num_nodes, dtype=np.int64)
        self._seg_cap = np.zeros(self.num_nodes, dtype=np.int64)
        capacity = max(int(initial_capacity), 1)
        self._indices = np.zeros(capacity, dtype=np.int64)
        self._eid = np.zeros(capacity, dtype=np.int64)
        self._ts = np.zeros(capacity, dtype=np.float64)
        #: physical high-water mark of the heap (allocated segment space).
        self._heap_end = 0
        self._num_events = 0
        self._num_entries = 0
        self._last_ts = -np.inf
        self._snapshot: Optional[TCSR] = None

    @classmethod
    def from_graph(cls, graph: TemporalGraph, add_reverse: bool = True
                   ) -> "StreamingTCSR":
        """Seed a streaming T-CSR with an existing (chronological) event log."""
        g = graph if graph.is_chronological else graph.sort_by_time()
        per_event = 2 if add_reverse else 1
        stcsr = cls(g.num_nodes, add_reverse=add_reverse,
                    initial_capacity=max(1024, 2 * per_event * g.num_edges))
        stcsr.append(g.src, g.dst, g.ts)
        return stcsr

    # -- properties -----------------------------------------------------------

    @property
    def num_events(self) -> int:
        """Number of events appended so far (the next event id)."""
        return self._num_events

    @property
    def num_entries(self) -> int:
        """Number of live adjacency entries (half-edges)."""
        return self._num_entries

    @property
    def last_timestamp(self) -> float:
        """Timestamp of the most recently appended event (-inf when empty)."""
        return self._last_ts

    @property
    def physical_size(self) -> int:
        """Allocated heap entries, including slack and abandoned holes."""
        return int(self._indices.shape[0])

    # -- ingestion ------------------------------------------------------------

    def append(self, src: np.ndarray, dst: np.ndarray, ts: np.ndarray
               ) -> "StreamingTCSR":
        """Append a chunk of chronologically ordered events.

        Event ids continue the running counter (``num_events``), matching the
        row order of the event log's edge-feature matrix.  Raises
        ``ValueError`` when the chunk is out of chronological order (within
        itself or against previously appended events) or references node ids
        outside ``[0, num_nodes)``.
        """
        src = np.ascontiguousarray(src, dtype=np.int64)
        dst = np.ascontiguousarray(dst, dtype=np.int64)
        ts = np.ascontiguousarray(ts, dtype=np.float64)
        if not (src.shape == dst.shape == ts.shape) or src.ndim != 1:
            raise ValueError("src, dst and ts must be identical one-dimensional arrays")
        k = int(src.size)
        if k == 0:
            return self
        if min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= self.num_nodes:
            raise ValueError(f"appended node id out of range [0, {self.num_nodes})")
        if np.any(np.diff(ts) < 0):
            raise ValueError("appended events must be sorted chronologically")
        if ts[0] < self._last_ts:
            raise ValueError(
                f"appended events must not precede already-ingested ones "
                f"(got timestamp {float(ts[0])!r} after {self._last_ts!r})")

        eid = np.arange(self._num_events, self._num_events + k, dtype=np.int64)
        rows, cols, eids, tss = _half_edges(src, dst, eid, ts, self.add_reverse)

        counts = np.bincount(rows, minlength=self.num_nodes)
        growing = np.nonzero(self._seg_len + counts > self._seg_cap)[0]
        if growing.size:
            self._grow_segments(growing, counts[growing])

        # Scatter the chunk's entries to their segment tails, preserving the
        # within-chunk arrival order per node (stable sort by row).
        order = np.argsort(rows, kind="stable")
        rows_s = rows[order]
        run_start = np.nonzero(np.r_[True, rows_s[1:] != rows_s[:-1]])[0]
        run_len = np.diff(np.r_[run_start, rows_s.size])
        within = np.arange(rows_s.size) - np.repeat(run_start, run_len)
        pos = self._seg_start[rows_s] + self._seg_len[rows_s] + within
        self._indices[pos] = cols[order]
        self._eid[pos] = eids[order]
        self._ts[pos] = tss[order]

        self._seg_len += counts
        self._num_events += k
        self._num_entries += int(rows.size)
        self._last_ts = float(ts[-1])
        self._snapshot = None
        return self

    def _grow_segments(self, nodes: np.ndarray, incoming: np.ndarray) -> None:
        """Relocate overflowing segments to the heap end with doubled capacity."""
        need = self._seg_len[nodes] + incoming
        new_caps = np.maximum(self.MIN_SEGMENT_CAPACITY,
                              np.ceil(self.GROWTH * need)).astype(np.int64)
        self._reserve(self._heap_end + int(new_caps.sum()))
        starts = self._heap_end + np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(new_caps[:-1], dtype=np.int64)])
        for i, node in enumerate(nodes):
            length = int(self._seg_len[node])
            if length:
                old = int(self._seg_start[node])
                new = int(starts[i])
                self._indices[new:new + length] = self._indices[old:old + length]
                self._eid[new:new + length] = self._eid[old:old + length]
                self._ts[new:new + length] = self._ts[old:old + length]
        self._seg_start[nodes] = starts
        self._seg_cap[nodes] = new_caps
        self._heap_end += int(new_caps.sum())

    def _reserve(self, total: int) -> None:
        """Grow the physical heap geometrically to hold ``total`` entries."""
        if total <= self._indices.shape[0]:
            return
        new_size = max(int(total), 2 * self._indices.shape[0])
        for name in ("_indices", "_eid", "_ts"):
            old = getattr(self, name)
            fresh = np.zeros(new_size, dtype=old.dtype)
            fresh[:self._heap_end] = old[:self._heap_end]
            setattr(self, name, fresh)

    # -- reading --------------------------------------------------------------

    def snapshot(self) -> TCSR:
        """Compact into an exact :class:`TCSR` (cached until the next append).

        The result is bitwise-identical to ``build_tcsr`` over the same
        chronological event log — the invariant the streaming subsystem's
        property tests pin down.
        """
        if self._snapshot is None:
            indptr = np.zeros(self.num_nodes + 1, dtype=np.int64)
            np.cumsum(self._seg_len, out=indptr[1:])
            total = int(indptr[-1])
            within = np.arange(total, dtype=np.int64) \
                - np.repeat(indptr[:-1], self._seg_len)
            gather = np.repeat(self._seg_start, self._seg_len) + within
            self._snapshot = TCSR(indptr=indptr, indices=self._indices[gather],
                                  eid=self._eid[gather], ts=self._ts[gather],
                                  num_nodes=self.num_nodes)
        return self._snapshot

    def compact(self) -> "StreamingTCSR":
        """Rebuild a tight heap layout, reclaiming relocation holes."""
        new_caps = np.maximum(self.MIN_SEGMENT_CAPACITY,
                              np.ceil(self.GROWTH * self._seg_len)).astype(np.int64)
        new_caps[self._seg_len == 0] = 0
        starts = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(new_caps[:-1], dtype=np.int64)])
        total = int(new_caps.sum())
        snap = self.snapshot()
        indices = np.zeros(max(total, 1), dtype=np.int64)
        eid = np.zeros(max(total, 1), dtype=np.int64)
        ts = np.zeros(max(total, 1), dtype=np.float64)
        within = np.arange(self._num_entries, dtype=np.int64) \
            - np.repeat(snap.indptr[:-1], self._seg_len)
        pos = np.repeat(starts, self._seg_len) + within
        indices[pos] = snap.indices
        eid[pos] = snap.eid
        ts[pos] = snap.ts
        self._indices, self._eid, self._ts = indices, eid, ts
        self._seg_start, self._seg_cap = starts, new_caps
        self._heap_end = total
        return self
