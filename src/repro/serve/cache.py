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

from ..device.precision import roundtrip_rows

__all__ = ["NodeEmbeddingCache", "TieredNodeEmbeddingCache"]


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


class TieredNodeEmbeddingCache(NodeEmbeddingCache):
    """Embedding cache re-budgeted as hot fp32 / warm fp16 / cold int8 slots.

    The slot array is partitioned into three contiguous tier regions: a VRAM
    byte budget of ``byte_budget_rows`` full-width rows buys
    ``hot_fraction`` of those bytes as fp32 slots, ``warm_fraction`` as fp16
    slots (2 per fp32-row budget) and the remainder as per-row-affine int8
    slots (4 per) — at the default 0.3/0.3 split, 2.5x the rows of an
    uncompressed cache with the same bytes.

    A row pays its slot's quantization loss: :meth:`_install` applies the
    destination tier's round-trip (:func:`repro.device.precision.
    roundtrip_rows`) before storing, and :meth:`end_epoch` *rebalances* —
    occupants are re-ranked by ``(-frequency, stamp, node)`` and reassigned
    to slots in rank order, so an entry that cools demotes hot -> warm ->
    cold instead of being evicted (precision lost to a cold slot is only
    recovered when a fresh embedding is reinserted).  Free-slot allocation
    already hands out hot slots first (ascending slot order), so newly
    computed embeddings start at full width.  Everything stays a pure
    function of the request sequence: served scores remain
    bitwise-reproducible in replay.
    """

    #: bytes per element of the hot/warm/cold slot regions.
    TIER_ITEMSIZES = (4, 2, 1)
    _TIERS = ((4, "fp32"), (2, "fp16"), (1, "int8"))

    def __init__(self, num_nodes: int, byte_budget_rows: int,
                 staleness_events: Optional[int] = None,
                 staleness_time: Optional[float] = 0.0,
                 hot_fraction: float = 0.3,
                 warm_fraction: float = 0.3) -> None:
        if byte_budget_rows < 0:
            raise ValueError(
                f"byte_budget_rows must be >= 0, got {byte_budget_rows}")
        if not (0.0 <= hot_fraction <= 1.0 and 0.0 <= warm_fraction <= 1.0
                and hot_fraction + warm_fraction <= 1.0):
            raise ValueError(
                "hot_fraction and warm_fraction must be in [0, 1] with "
                f"hot + warm <= 1, got hot={hot_fraction} warm={warm_fraction}")
        self.byte_budget_rows = int(byte_budget_rows)
        hot_slots = int(byte_budget_rows * hot_fraction)
        warm_slots = int(byte_budget_rows * warm_fraction * 2)
        cold_slots = int(byte_budget_rows
                         * (1.0 - hot_fraction - warm_fraction) * 4)
        capacity = hot_slots + warm_slots + cold_slots
        super().__init__(num_nodes, capacity,
                         staleness_events=staleness_events,
                         staleness_time=staleness_time)
        #: slot -> residency-tier bytes/element (hot region first).
        self._slot_tier = np.empty(capacity, dtype=np.int64)
        self._slot_tier[:hot_slots] = 4
        self._slot_tier[hot_slots:hot_slots + warm_slots] = 2
        self._slot_tier[hot_slots + warm_slots:] = 1

    @property
    def effective_capacity_multiplier(self) -> float:
        """Cached rows per row an uncompressed cache of equal bytes holds."""
        if self.byte_budget_rows == 0:
            return 1.0
        return self.capacity / self.byte_budget_rows

    def tier_counts(self) -> dict:
        """Currently occupied slot counts per residency tier."""
        occupied = self.node_of >= 0
        return {tier: int((self._slot_tier[occupied] == itemsize).sum())
                for itemsize, tier in self._TIERS}

    def _quantize_for_slots(self, slots: np.ndarray,
                            rows: np.ndarray) -> np.ndarray:
        rows = np.array(rows)
        for itemsize, tier in self._TIERS:
            in_tier = self._slot_tier[slots] == itemsize
            if in_tier.any():
                rows[in_tier] = roundtrip_rows(tier, rows[in_tier])
        return rows

    def _install(self, slots: np.ndarray, nodes: np.ndarray, rows: np.ndarray,
                 times: np.ndarray, now_event: int) -> None:
        super()._install(slots, nodes, self._quantize_for_slots(slots, rows),
                         times, now_event)

    def end_epoch(self) -> None:
        super().end_epoch()
        self._rebalance()

    def _rebalance(self) -> None:
        """Reassign occupants to slots in frequency-rank order (demotion)."""
        if self.rows is None:
            return
        occupied = np.nonzero(self.node_of >= 0)[0]
        if occupied.size == 0:
            return
        nodes = self.node_of[occupied]
        # Hottest first; ties -> oldest stamp -> smallest node id, matching
        # the eviction tie-break (in reverse) so the ranking is total.
        order = np.lexsort((nodes, self._slot_stamp[occupied],
                            -self.frequency[nodes]))
        src = occupied[order]
        ranked_nodes = nodes[order]
        rows = self.rows[src].copy()
        times = self.computed_time[src].copy()
        events = self.computed_event[src].copy()
        stamps = self._slot_stamp[src].copy()
        dst = np.arange(src.size)
        self.node_of[:] = -1
        self.node_of[dst] = ranked_nodes
        self.slot_of[ranked_nodes] = dst
        self.rows[dst] = self._quantize_for_slots(dst, rows)
        self.computed_time[dst] = times
        self.computed_event[dst] = events
        self._slot_stamp[dst] = stamps
