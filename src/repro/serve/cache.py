"""Node-embedding cache with bounded staleness for the serving layer.

Training reuses *feature* rows (:mod:`repro.device.cache`); serving reuses
*embeddings*.  A temporal-GNN embedding is a function of ``(node, t)`` — the
node's neighborhood strictly before ``t`` — so a cached embedding is only an
approximation of the exact one a later query would compute.  The cache makes
that approximation explicit with two configurable staleness bounds:

* **event-count staleness** (``staleness_events``): an entry computed when
  the engine had observed ``e0`` events is invalid once the engine has
  observed more than ``e0 + staleness_events`` events — ingestion invalidates
  embeddings because it changes the neighborhoods they summarise;
* **time staleness** (``staleness_time``): an entry computed for query time
  ``t0`` may serve a query at time ``t`` only while ``|t - t0| <=
  staleness_time`` — the temporal analogue of a TTL.

Either bound may be ``None`` (unbounded).  With both bounds at ``None`` a hit
is exact *only* when the query time matches the cached entry's compute time,
so the default construction keeps time staleness at ``0.0`` — i.e. a hit
requires the identical ``(node, t)`` query — and serving engines opt in to
approximation explicitly.

Eviction follows the :class:`~repro.device.cache.FeatureCache` idioms:
capacity-bounded content, per-node access **frequencies** accumulated on
lookup, lowest-frequency-first replacement with a deterministic tie-break
(older entry, then smaller node id), and occurrence-weighted hit/miss
accounting with ``hit_rate_history`` closed out by :meth:`end_epoch`.
Everything is pure numpy state driven only by the request sequence — no wall
clock — which is what makes served scores bitwise-reproducible in replay
mode (see ``docs/ARCHITECTURE.md``, "Serving layer").
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

__all__ = ["NodeEmbeddingCache"]


class NodeEmbeddingCache:
    """Fixed-capacity store of per-node embedding rows with staleness bounds.

    Parameters
    ----------
    num_nodes:
        Size of the node-id universe (grown by :meth:`grow` on ingestion).
    capacity:
        Maximum number of cached embedding rows (0 disables caching).
    staleness_events:
        Maximum observed-event age of a served entry, or ``None`` (no bound).
    staleness_time:
        Maximum ``|query_t - computed_t|`` of a served entry, or ``None``
        (no bound).  The default ``0.0`` only serves exact ``(node, t)``
        repeats.
    """

    def __init__(self, num_nodes: int, capacity: int,
                 staleness_events: Optional[int] = None,
                 staleness_time: Optional[float] = 0.0) -> None:
        if num_nodes < 0:
            raise ValueError(f"num_nodes must be >= 0, got {num_nodes}")
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        if staleness_events is not None and staleness_events < 0:
            raise ValueError("staleness_events must be >= 0 or None")
        if staleness_time is not None and staleness_time < 0:
            raise ValueError("staleness_time must be >= 0 or None")
        self.num_nodes = int(num_nodes)
        self.capacity = int(capacity)
        self.staleness_events = staleness_events
        self.staleness_time = staleness_time
        #: node -> occupied slot (-1 when not cached).
        self.slot_of = np.full(self.num_nodes, -1, dtype=np.int64)
        #: slot -> node (-1 when free).
        self.node_of = np.full(self.capacity, -1, dtype=np.int64)
        #: embedding rows, allocated lazily once the embedding dim is known.
        self.rows: Optional[np.ndarray] = None
        #: per-slot compute metadata for the staleness checks.
        self.computed_time = np.zeros(self.capacity, dtype=np.float64)
        self.computed_event = np.zeros(self.capacity, dtype=np.int64)
        #: per-node access frequency (the FeatureCache replacement statistic).
        self.frequency = np.zeros(self.num_nodes, dtype=np.int64)
        #: monotone insertion stamp, the deterministic eviction tie-break.
        self._stamp = 0
        self._slot_stamp = np.zeros(self.capacity, dtype=np.int64)
        self._num_cached = 0
        # -- accounting (FeatureCache idiom) ----------------------------------
        self._epoch_hits = 0
        self._epoch_requests = 0
        self.hit_rate_history: List[float] = []
        self.eviction_count = 0

    # -- interface -------------------------------------------------------------

    def lookup(self, nodes: np.ndarray, times: np.ndarray,
               now_event: int) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Probe the cache for ``(node, t)`` queries.

        Returns ``(hit_mask, rows)`` where ``rows`` holds the cached
        embedding of every hit (``rows[hit_mask]`` are valid; missed
        positions are zero) or ``None`` when nothing has ever been inserted.
        Every request — hit or miss, fresh or stale — increments the node's
        access frequency, exactly like :class:`~repro.device.cache.
        FeatureCache` records accesses for its replacement policy.
        """
        nodes = np.asarray(nodes, dtype=np.int64).reshape(-1)
        times = np.asarray(times, dtype=np.float64).reshape(-1)
        if nodes.shape != times.shape:
            raise ValueError("nodes and times must be parallel arrays")
        if nodes.size and (nodes.min() < 0 or nodes.max() >= self.num_nodes):
            raise ValueError("node id outside the cache universe "
                             f"[0, {self.num_nodes})")
        np.add.at(self.frequency, nodes, 1)

        slots = self.slot_of[nodes]
        hits = slots >= 0
        if hits.any() and self.rows is not None:
            occupied = slots[hits]
            fresh = np.ones(occupied.size, dtype=bool)
            if self.staleness_events is not None:
                fresh &= (now_event - self.computed_event[occupied]
                          <= self.staleness_events)
            if self.staleness_time is not None:
                fresh &= (np.abs(times[hits] - self.computed_time[occupied])
                          <= self.staleness_time)
            hits[np.nonzero(hits)[0][~fresh]] = False
        else:
            hits[:] = False

        self._epoch_hits += int(hits.sum())
        self._epoch_requests += int(nodes.size)
        rows = None
        if self.rows is not None:
            rows = np.zeros((nodes.size, self.rows.shape[1]),
                            dtype=self.rows.dtype)
            if hits.any():
                rows[hits] = self.rows[self.slot_of[nodes[hits]]]
        return hits, rows

    def insert(self, nodes: np.ndarray, rows: np.ndarray, times: np.ndarray,
               now_event: int) -> None:
        """Install freshly computed embeddings (one row per node).

        A node already cached is updated in place; new nodes take free slots
        first, then evict the lowest-frequency occupants (ties broken by
        oldest insertion stamp, then smallest node id — fully deterministic,
        mirroring the frequency-based replacement of
        :class:`~repro.device.cache.DynamicFeatureCache`).  When more new
        nodes arrive than the capacity holds, only the most frequent
        ``capacity`` of them are kept.
        """
        if self.capacity == 0:
            return
        nodes = np.asarray(nodes, dtype=np.int64).reshape(-1)
        times = np.asarray(times, dtype=np.float64).reshape(-1)
        rows = np.asarray(rows)
        if rows.ndim != 2 or rows.shape[0] != nodes.size:
            raise ValueError("rows must have shape (len(nodes), dim)")
        order = np.argsort(nodes, kind="stable")
        by_node = nodes[order]
        last = np.ones(nodes.size, dtype=bool)
        last[:-1] = by_node[1:] != by_node[:-1]
        if not last.all():
            # Last write wins, deterministically: keep the final occurrence.
            keep = np.sort(order[last])
            nodes, times, rows = nodes[keep], times[keep], rows[keep]
        if self.rows is None:
            self.rows = np.zeros((self.capacity, rows.shape[1]),
                                 dtype=rows.dtype)

        # In-place refresh of already-cached nodes.
        slots = self.slot_of[nodes]
        cached = slots >= 0
        if cached.any():
            self._install(slots[cached], nodes[cached], rows[cached],
                          times[cached], now_event)
        new_nodes = nodes[~cached]
        if new_nodes.size == 0:
            return
        new_rows, new_times = rows[~cached], times[~cached]

        free = np.nonzero(self.node_of < 0)[0]
        take = min(free.size, new_nodes.size)
        if take:
            self._install(free[:take], new_nodes[:take], new_rows[:take],
                          new_times[:take], now_event)
            new_nodes = new_nodes[take:]
            new_rows, new_times = new_rows[take:], new_times[take:]
        if new_nodes.size == 0:
            return

        # Keep only the most frequent newcomers if they overflow capacity,
        # then evict the weakest occupants for the rest.
        if new_nodes.size > self.capacity:
            order = np.lexsort((new_nodes, -self.frequency[new_nodes]))
            keep = np.sort(order[:self.capacity])
            new_nodes, new_rows, new_times = (new_nodes[keep], new_rows[keep],
                                              new_times[keep])
        occupants = self.node_of
        # Lowest frequency first; ties -> oldest stamp -> smallest node id.
        order = np.lexsort((occupants, self._slot_stamp,
                            self.frequency[occupants]))
        victims = order[:new_nodes.size]
        self.slot_of[occupants[victims]] = -1
        self.eviction_count += int(victims.size)
        self._install(victims, new_nodes, new_rows, new_times, now_event)

    def _install(self, slots: np.ndarray, nodes: np.ndarray, rows: np.ndarray,
                 times: np.ndarray, now_event: int) -> None:
        self.rows[slots] = rows
        self.computed_time[slots] = times
        self.computed_event[slots] = now_event
        newly = self.node_of[slots] < 0
        self._num_cached += int(newly.sum())
        self.node_of[slots] = nodes
        self.slot_of[nodes] = slots
        # One stamp per install call keeps the tie-break order-insensitive
        # to the within-call slot permutation.
        self._stamp += 1
        self._slot_stamp[slots] = self._stamp

    def grow(self, num_nodes: int) -> None:
        """Extend the node-id universe (ingestion added nodes).

        Mirrors :meth:`repro.device.cache.FeatureCache.grow`: shrinking is
        rejected, new nodes start uncached with zero frequency.
        """
        if num_nodes < self.num_nodes:
            raise ValueError(
                f"cannot shrink the node universe ({self.num_nodes} -> {num_nodes})")
        extra = num_nodes - self.num_nodes
        if extra:
            self.slot_of = np.concatenate(
                [self.slot_of, np.full(extra, -1, dtype=np.int64)])
            self.frequency = np.concatenate(
                [self.frequency, np.zeros(extra, dtype=np.int64)])
        self.num_nodes = int(num_nodes)

    def end_epoch(self) -> None:
        """Close an accounting epoch (FeatureCache idiom): record the hit
        rate and reset the counters.  Content is *not* replaced here — the
        serving cache evicts on insert, not at epoch boundaries."""
        rate = (self._epoch_hits / self._epoch_requests) \
            if self._epoch_requests else 0.0
        self.hit_rate_history.append(float(rate))
        self._epoch_hits = 0
        self._epoch_requests = 0

    # -- helpers ---------------------------------------------------------------

    @property
    def num_cached(self) -> int:
        return self._num_cached

    @property
    def current_hit_rate(self) -> float:
        return (self._epoch_hits / self._epoch_requests) \
            if self._epoch_requests else 0.0

    def cached_nodes(self) -> np.ndarray:
        """Sorted node ids currently cached."""
        return np.sort(self.node_of[self.node_of >= 0])

