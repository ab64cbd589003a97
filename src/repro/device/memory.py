"""Simulated CPU-GPU feature store with byte-level transfer accounting.

:class:`FeatureStore` is the component the training loop calls to *slice*
node/edge features for a sampled mini-batch.  It models the paper's memory
hierarchy:

* node features (and model weights) live in VRAM — reads are cheap;
* edge features live in host RAM; a :class:`~repro.device.cache.FeatureCache`
  holds a subset in VRAM, the rest is read over PCIe with zero-copy access.

Every slice call records how many bytes travelled each path and how much
*simulated* time that movement costs under the configured
:class:`~repro.device.costmodel.TransferCostModel`.  The runtime-breakdown
harness adds this simulated feature-slicing time to the measured compute time
to regenerate Fig. 1 and Table III.

The store is the **dedup choke point** of the prep runtime
(``repro.core.prep``): multi-hop candidate sets contain the same node/edge
ids many times over, so every gather first collapses its request to unique
ids (a sorted unique + inverse map), gathers/converts each unique row once,
probes the cache once per unique id, and scatters the rows back to the
requesting slots.  Outputs are bitwise-identical to the naive per-slot
gather; bytes and simulated transfer time reflect the unique rows actually
moved.  The cache counts no hits: the store weights its hit mask by the
occurrence counts, so ``SliceStats`` is the one account of edge-cache hits
and its hit/miss counters are unaffected by dedup.  The achieved redundancy
elimination is surfaced as ``SliceStats.dedup_ratio`` through
:meth:`FeatureStore.snapshot`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .. import tensor as _tensor
from ..graph.temporal_graph import TemporalGraph
from .cache import FeatureCache
from .costmodel import TransferCostModel

__all__ = ["SliceStats", "FeatureStore"]


@dataclass
class SliceStats:
    """Cumulative accounting of the feature-slicing path.

    Counters are plain fields; *all* mutation of a live store's stats happens
    under the owning :class:`FeatureStore`'s lock (the program itself slices
    from one thread per store, but callers may drive a serve engine from a
    thread pool).  Readers that need a consistent multi-field view must go
    through :meth:`FeatureStore.snapshot` rather than read the live fields,
    which can tear between two counter updates.
    """

    bytes_from_vram: float = 0.0
    bytes_from_ram: float = 0.0
    requests: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    simulated_seconds: float = 0.0
    #: valid node/edge id occurrences requested through the store.
    ids_requested: int = 0
    #: unique ids actually gathered/probed at the dedup choke point.
    ids_unique: int = 0

    def reset(self) -> None:
        self.bytes_from_vram = 0.0
        self.bytes_from_ram = 0.0
        self.requests = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.simulated_seconds = 0.0
        self.ids_requested = 0
        self.ids_unique = 0

    def copy(self) -> "SliceStats":
        return SliceStats(bytes_from_vram=self.bytes_from_vram,
                          bytes_from_ram=self.bytes_from_ram,
                          requests=self.requests,
                          cache_hits=self.cache_hits,
                          cache_misses=self.cache_misses,
                          simulated_seconds=self.simulated_seconds,
                          ids_requested=self.ids_requested,
                          ids_unique=self.ids_unique)

    def merge(self, other: "SliceStats") -> "SliceStats":
        """Accumulate another accounting into this one (shard aggregation).

        Counters are order-insensitive sums, so merging per-shard snapshots
        in shard order is deterministic.  Returns ``self`` for chaining.
        """
        self.bytes_from_vram += other.bytes_from_vram
        self.bytes_from_ram += other.bytes_from_ram
        self.requests += other.requests
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        self.simulated_seconds += other.simulated_seconds
        self.ids_requested += other.ids_requested
        self.ids_unique += other.ids_unique
        return self

    @property
    def hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def dedup_ratio(self) -> float:
        """How many requested id occurrences each unique gather row served.

        ``> 1`` means the deduplicated fused gather eliminated redundant
        feature gathers / cache probes (TASER-style redundancy elimination);
        ``1.0`` for an idle store.
        """
        return self.ids_requested / self.ids_unique if self.ids_unique else 1.0


class FeatureStore:
    """Feature slicing with a simulated VRAM cache and PCIe cost accounting.

    Parameters
    ----------
    graph:
        The dynamic graph whose features are being served.
    edge_cache:
        Optional cache over edge ids.  ``None`` models the baseline where
        every edge feature is fetched from host RAM each iteration.

    Bytes moved are converted to simulated seconds by a
    :class:`~repro.device.costmodel.TransferCostModel`.  Node features are
    resident in VRAM, as in the paper (they are small for all five datasets).

    Gathers always read the graph's own feature arrays, hit or miss, so cache
    state never influences values — only byte accounting.
    """

    def __init__(self, graph: TemporalGraph,
                 edge_cache: Optional[FeatureCache] = None) -> None:
        self.graph = graph
        self.edge_cache = edge_cache
        self.cost_model = TransferCostModel()
        self.stats = SliceStats()
        # Guards stats/cache accounting.  Accumulated counts are
        # order-insensitive sums, so the lock is all that is needed for
        # deterministic accounting.  Every mutation of ``stats`` — including
        # reset and epoch rollover — must hold this lock; consistent reads go
        # through :meth:`snapshot`.
        self._lock = threading.Lock()
        # Transfer accounting charges the graph arrays' own width per row, so
        # SliceStats/TransferCostModel see the bytes that actually move.
        self._edge_bytes_per_row = 0
        if graph.edge_feat is not None:
            self._edge_bytes_per_row = graph.edge_feat.itemsize * graph.edge_dim
        self._node_bytes_per_row = 0
        if graph.node_feat is not None:
            self._node_bytes_per_row = graph.node_feat.itemsize * graph.node_dim

    @property
    def edge_bytes_per_row(self) -> int:
        """Bytes one stored edge-feature row occupies."""
        return self._edge_bytes_per_row

    @property
    def node_bytes_per_row(self) -> int:
        """Bytes one stored node-feature row occupies."""
        return self._node_bytes_per_row

    # -- dedup choke point -----------------------------------------------------

    @staticmethod
    def _deduplicate(flat: np.ndarray, valid: Optional[np.ndarray]):
        """Unique-id decomposition of one gather request.

        Returns ``(unique_ids, inverse, valid_counts)`` with
        ``unique_ids[inverse] == flat`` and ``valid_counts[i]`` the number of
        *valid* occurrences of ``unique_ids[i]`` in the request (``valid``
        ``None``: every slot is).  This is the single choke point of the prep
        runtime's deduplicated fused gather: everything downstream (feature
        gather, cache probe, transfer accounting) operates per unique id and
        scatters back via ``inverse``.

        ``np.unique(flat, return_inverse=True)``'s own sort-and-mark — the
        same sort kind, the same ``unique_ids`` and ``inverse`` — without the
        Python layers around it, which cost a small request more than the
        arithmetic.
        """
        order = flat.argsort(kind="quicksort")
        ordered = flat[order]
        first = np.empty(ordered.shape, dtype=bool)
        first[:1] = True
        np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
        unique_ids = ordered[first]
        inverse = np.empty(order.shape, dtype=np.intp)
        inverse[order] = first.cumsum() - 1
        valid_counts = np.bincount(inverse if valid is None else inverse[valid],
                                   minlength=unique_ids.size)
        return unique_ids, inverse, valid_counts

    # -- edge features ---------------------------------------------------------

    def slice_edge_features(self, edge_ids: np.ndarray,
                            mask: Optional[np.ndarray] = None) -> Optional[np.ndarray]:
        """Gather edge feature rows for (possibly padded) ``edge_ids``.

        Returns an array shaped like ``edge_ids`` with a trailing feature axis,
        or ``None`` when the graph has no edge features.  Padded positions
        (``mask == False``) produce zero rows and are not accounted.

        The gather is *deduplicated and fused*: duplicate ids inside the
        request collapse to one gathered row and one cache probe, and the
        result is scattered back to every requesting slot through the inverse
        map — bitwise-identical output, strictly less gather/cache/transfer
        work.  Hit/miss counters stay occurrence-weighted (hit rates are
        unchanged by dedup); byte and simulated-time accounting reflect the
        unique rows actually moved.
        """
        edge_feat = self.graph.edge_feat
        if edge_feat is None:
            return None
        edge_ids = np.asarray(edge_ids, dtype=np.int64)
        valid = None if mask is None else np.asarray(mask, dtype=bool).reshape(-1)

        unique_ids, inverse, valid_counts = self._deduplicate(edge_ids.reshape(-1),
                                                              valid)
        live = valid_counts > 0
        live_ids = unique_ids[live]
        live_counts = valid_counts[live]
        requested = int(np.add.reduce(valid_counts))
        with self._lock:
            self.stats.requests += 1
            self.stats.ids_requested += requested
            self.stats.ids_unique += int(live_ids.size)
            if self.edge_cache is not None and live_ids.size:
                hits = self.edge_cache.lookup(live_ids, live_counts)
                n_hit_unique = int(hits.sum())
                n_hit = int(live_counts[hits].sum())
            else:
                n_hit_unique, n_hit = 0, 0
            n_miss_unique = int(live_ids.size - n_hit_unique)
            self.stats.cache_hits += n_hit
            self.stats.cache_misses += requested - n_hit
            hit_bytes = float(n_hit_unique * self._edge_bytes_per_row)
            miss_bytes = n_miss_unique * self._edge_bytes_per_row
            self.stats.bytes_from_vram += hit_bytes
            self.stats.bytes_from_ram += miss_bytes
            self.stats.simulated_seconds += self.cost_model.vram_time(
                hit_bytes, num_rows=n_hit_unique)
            if n_miss_unique:
                self.stats.simulated_seconds += self.cost_model.pcie_time(
                    miss_bytes, num_rows=n_miss_unique)

        # Fused gather: each unique row once, scattered via inverse.  The
        # graph stores features in the compute dtype (float32), so the cast
        # is a no-op: rows are never widened on the way in.
        rows = edge_feat[unique_ids].astype(_tensor.COMPUTE_DTYPE, copy=False)
        features = rows[inverse]
        if valid is not None:
            features *= valid[:, None]
        return features.reshape(*edge_ids.shape, rows.shape[1])

    # -- node features ----------------------------------------------------------

    def slice_node_features(self, node_ids: np.ndarray,
                            mask: Optional[np.ndarray] = None) -> Optional[np.ndarray]:
        """Gather node feature rows (VRAM-resident).

        Deduplicated like :meth:`slice_edge_features`: one gathered/converted
        row and one accounted transfer row per *unique* node id.
        """
        node_feat = self.graph.node_feat
        if node_feat is None:
            return None
        node_ids = np.asarray(node_ids, dtype=np.int64)
        valid = None if mask is None else np.asarray(mask, dtype=bool).reshape(-1)
        unique_ids, inverse, valid_counts = self._deduplicate(node_ids.reshape(-1),
                                                              valid)
        n_unique = int(np.count_nonzero(valid_counts))
        nbytes = float(n_unique * self._node_bytes_per_row)
        with self._lock:
            self.stats.ids_requested += int(np.add.reduce(valid_counts))
            self.stats.ids_unique += n_unique
            self.stats.bytes_from_vram += nbytes
            self.stats.simulated_seconds += self.cost_model.vram_time(
                nbytes, num_rows=n_unique)
        rows = node_feat[unique_ids].astype(_tensor.COMPUTE_DTYPE, copy=False)
        features = rows[inverse]
        if valid is not None:
            features *= valid[:, None]
        return features.reshape(*node_ids.shape, rows.shape[1])

    # -- epoch plumbing ------------------------------------------------------------

    def end_epoch(self) -> None:
        """Propagate the epoch boundary to the cache replacement policy."""
        with self._lock:
            if self.edge_cache is not None:
                self.edge_cache.end_epoch()

    def reset_stats(self) -> None:
        with self._lock:
            self.stats.reset()

    def snapshot(self) -> SliceStats:
        """A consistent copy of the accounting counters.

        Reading the live :attr:`stats` fields individually can tear against a
        concurrent slice on another thread (e.g. ``hit_rate`` observing the
        hit counter of one request and the miss counter of the next); the
        snapshot copies all fields under the store lock.
        """
        with self._lock:
            return self.stats.copy()
