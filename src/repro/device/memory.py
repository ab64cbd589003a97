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
ids (``np.unique`` + inverse map), gathers/converts each unique row once,
probes the cache once per unique id, and scatters the rows back to the
requesting slots.  Outputs are bitwise-identical to the naive per-slot
gather; bytes and simulated transfer time reflect the unique rows actually
moved, while hit/miss counters stay occurrence-weighted so hit rates are
unaffected by dedup.  The achieved redundancy elimination is surfaced as
``SliceStats.dedup_ratio`` through :meth:`FeatureStore.snapshot`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Optional

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

    def as_dict(self) -> Dict[str, float]:
        return {
            "bytes_from_vram": self.bytes_from_vram,
            "bytes_from_ram": self.bytes_from_ram,
            "requests": self.requests,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "hit_rate": self.hit_rate,
            "simulated_seconds": self.simulated_seconds,
            "ids_requested": self.ids_requested,
            "ids_unique": self.ids_unique,
            "dedup_ratio": self.dedup_ratio,
        }


class FeatureStore:
    """Feature slicing with a simulated VRAM cache and PCIe cost accounting.

    Parameters
    ----------
    graph:
        The dynamic graph whose features are being served.
    edge_cache:
        Optional cache over edge ids.  ``None`` models the baseline where
        every edge feature is fetched from host RAM each iteration.
    cost_model:
        Converts bytes moved to simulated seconds.
    node_features_on_device:
        The paper keeps node features resident in VRAM (they are small for
        all five datasets); set False to model them as host-resident too.

    Gathers always read the graph's own feature arrays, hit or miss, so cache
    state never influences values — only byte accounting.
    """

    def __init__(self, graph: TemporalGraph,
                 edge_cache: Optional[FeatureCache] = None,
                 cost_model: Optional[TransferCostModel] = None,
                 node_features_on_device: bool = True) -> None:
        self.graph = graph
        self.edge_cache = edge_cache
        self.cost_model = cost_model if cost_model is not None else TransferCostModel()
        self.node_features_on_device = node_features_on_device
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
    def _deduplicate(flat: np.ndarray, valid: np.ndarray):
        """Unique-id decomposition of one gather request.

        Returns ``(unique_ids, inverse, valid_counts)`` with
        ``unique_ids[inverse] == flat`` and ``valid_counts[i]`` the number of
        *valid* occurrences of ``unique_ids[i]`` in the request.  This is the
        single choke point of the prep runtime's deduplicated fused gather:
        everything downstream (feature gather, cache probe, transfer
        accounting) operates per unique id and scatters back via ``inverse``.
        """
        unique_ids, inverse = np.unique(flat, return_inverse=True)
        valid_counts = np.bincount(inverse, weights=valid,
                                   minlength=unique_ids.size).astype(np.int64)
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
        if self.graph.edge_feat is None:
            return None
        edge_ids = np.asarray(edge_ids, dtype=np.int64)
        flat = edge_ids.reshape(-1)
        valid = np.ones(flat.shape[0], dtype=bool) if mask is None \
            else np.asarray(mask, dtype=bool).reshape(-1)

        unique_ids, inverse, valid_counts = self._deduplicate(flat, valid)
        live = valid_counts > 0
        live_ids = unique_ids[live]
        live_counts = valid_counts[live]
        requested = int(valid_counts.sum())
        with self._lock:
            self.stats.requests += 1
            self.stats.ids_requested += requested
            self.stats.ids_unique += int(live_ids.size)
            if self.edge_cache is not None and live_ids.size:
                hits = self.edge_cache.lookup_unique(live_ids, live_counts)
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
        rows = self.graph.edge_feat[unique_ids].astype(
            _tensor.COMPUTE_DTYPE, copy=False)
        features = rows[inverse]
        if mask is not None:
            features = features * valid[:, None]
        return features.reshape(*edge_ids.shape, self.graph.edge_dim)

    # -- node features ----------------------------------------------------------

    def slice_node_features(self, node_ids: np.ndarray,
                            mask: Optional[np.ndarray] = None) -> Optional[np.ndarray]:
        """Gather node feature rows (VRAM-resident unless configured otherwise).

        Deduplicated like :meth:`slice_edge_features`: one gathered/converted
        row and one accounted transfer row per *unique* node id.
        """
        if self.graph.node_feat is None:
            return None
        node_ids = np.asarray(node_ids, dtype=np.int64)
        flat = node_ids.reshape(-1)
        valid = np.ones(flat.shape[0], dtype=bool) if mask is None \
            else np.asarray(mask, dtype=bool).reshape(-1)
        unique_ids, inverse, valid_counts = self._deduplicate(flat, valid)
        n_unique = int((valid_counts > 0).sum())
        nbytes = float(n_unique * self._node_bytes_per_row)
        with self._lock:
            self.stats.ids_requested += int(valid_counts.sum())
            self.stats.ids_unique += n_unique
            if self.node_features_on_device:
                self.stats.bytes_from_vram += nbytes
                self.stats.simulated_seconds += self.cost_model.vram_time(
                    nbytes, num_rows=n_unique)
            else:
                self.stats.bytes_from_ram += nbytes
                self.stats.simulated_seconds += self.cost_model.pcie_time(
                    nbytes, num_rows=n_unique)
        rows = self.graph.node_feat[unique_ids].astype(
            _tensor.COMPUTE_DTYPE, copy=False)
        features = rows[inverse]
        if mask is not None:
            features = features * valid[:, None]
        return features.reshape(*node_ids.shape, self.graph.node_dim)

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
