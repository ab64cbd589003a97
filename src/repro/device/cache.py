"""GPU feature caches.

Implements the paper's dynamic edge-feature cache (Algorithm 3) together with
the Oracle cache used as its upper bound in Fig. 3(b) and two static baseline
policies.  A cache decides, for every requested edge id, whether its feature
row is served from (simulated) VRAM or from host RAM over PCIe; the actual
byte accounting lives in :mod:`repro.device.memory`.

All caches share the same interface:

``lookup(edge_ids) -> hit_mask``
    boolean array marking which requests hit the cache (also records the
    access for the replacement policy),
``lookup_unique(unique_ids, counts) -> hit_mask``
    deduplicated form used by the prep runtime's fused gather: one bitmap
    probe and one frequency update per *unique* id, with the epoch hit/miss
    accounting weighted by the occurrence counts so the recorded numbers
    are identical to probing the full duplicate-bearing stream,
``end_epoch()``
    apply the replacement policy at an epoch boundary,
``hit_rate_history``
    per-epoch hit rates for Fig. 3(b).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..utils.rng import new_rng

__all__ = ["FeatureCache", "DynamicFeatureCache", "OracleCache",
           "StaticRandomCache", "StaticDegreeCache"]


class FeatureCache:
    """Base class: fixed-capacity set of cached edge ids with hit accounting."""

    def __init__(self, num_edges: int, capacity: int) -> None:
        if capacity < 0 or capacity > num_edges:
            raise ValueError(f"capacity must be in [0, num_edges], got {capacity}")
        self.num_edges = num_edges
        self.capacity = capacity
        #: membership bitmap of the cached edge set.
        self.cached = np.zeros(num_edges, dtype=bool)
        # per-epoch accounting
        self._epoch_hits = 0
        self._epoch_requests = 0
        self.hit_rate_history: List[float] = []
        self.replacement_count = 0

    # -- interface ------------------------------------------------------------

    def lookup(self, edge_ids: np.ndarray) -> np.ndarray:
        """Return hit mask for ``edge_ids`` and record the accesses."""
        edge_ids = np.asarray(edge_ids, dtype=np.int64).reshape(-1)
        hits = self.cached[edge_ids]
        self._epoch_hits += int(hits.sum())
        self._epoch_requests += int(edge_ids.size)
        self._record(edge_ids)
        return hits

    def lookup_unique(self, unique_ids: np.ndarray,
                      counts: np.ndarray) -> np.ndarray:
        """Return hit mask for deduplicated ``unique_ids``.

        ``counts`` holds each unique id's occurrence multiplicity in the
        original request stream.  The cache is probed (and the replacement
        policy's statistics updated) once per unique id — strictly less work
        than :meth:`lookup` on the full stream — while the per-epoch hit/miss
        accounting stays occurrence-weighted, so hit rates are bitwise
        identical to the non-deduplicated path.
        """
        unique_ids = np.asarray(unique_ids, dtype=np.int64).reshape(-1)
        counts = np.asarray(counts, dtype=np.int64).reshape(-1)
        if unique_ids.shape != counts.shape:
            raise ValueError("unique_ids and counts must be parallel arrays")
        hits = self.cached[unique_ids]
        self._epoch_hits += int(counts[hits].sum())
        self._epoch_requests += int(counts.sum())
        self._record_unique(unique_ids, counts)
        return hits

    def _record(self, edge_ids: np.ndarray) -> None:
        """Hook for policies that track access statistics."""

    def _record_unique(self, unique_ids: np.ndarray, counts: np.ndarray) -> None:
        """Deduplicated form of :meth:`_record` (ids are unique, weighted).

        Defaults to expanding back into :meth:`_record` so a policy that
        overrides only the classic hook still sees every access; policies
        override this too when they can exploit the unique-id form directly
        (see :class:`DynamicFeatureCache`).
        """
        self._record(np.repeat(unique_ids, counts))

    def end_epoch(self) -> None:
        """Close the epoch: store the hit rate and run the replacement policy."""
        rate = (self._epoch_hits / self._epoch_requests) if self._epoch_requests else 0.0
        self.hit_rate_history.append(float(rate))
        self._epoch_hits = 0
        self._epoch_requests = 0
        self._replace()

    def _replace(self) -> None:
        """Replacement policy hook (default: static, never replaces)."""

    def grow(self, num_edges: int, capacity: Optional[int] = None) -> None:
        """Extend the cacheable edge-id universe (streaming ingestion).

        Newly appended edges start uncached; the replacement policy adopts
        them at the next epoch boundary once their access frequencies exist.
        ``capacity`` optionally raises the cache capacity along with the
        universe (e.g. to keep a fixed VRAM ratio); shrinking is rejected so
        cached content never has to be evicted mid-epoch.
        """
        # Validate both arguments before mutating anything, so a rejected
        # call leaves the cache fully consistent.
        if num_edges < self.num_edges:
            raise ValueError(
                f"cannot shrink the edge universe ({self.num_edges} -> {num_edges})")
        if capacity is not None:
            if capacity < self.capacity:
                raise ValueError(
                    f"cannot shrink cache capacity ({self.capacity} -> {capacity})")
            if capacity > num_edges:
                raise ValueError("capacity must not exceed num_edges")
        extra = num_edges - self.num_edges
        if extra:
            self.cached = np.concatenate([self.cached, np.zeros(extra, dtype=bool)])
        self.num_edges = num_edges
        if capacity is not None:
            self.capacity = capacity

    # -- helpers ---------------------------------------------------------------

    @property
    def current_hit_rate(self) -> float:
        return (self._epoch_hits / self._epoch_requests) if self._epoch_requests else 0.0

    def cached_ids(self) -> np.ndarray:
        return np.nonzero(self.cached)[0]

    def _set_cache(self, edge_ids: np.ndarray) -> None:
        self.cached[:] = False
        if edge_ids.size:
            self.cached[edge_ids[:self.capacity]] = True


class DynamicFeatureCache(FeatureCache):
    """The paper's dynamic GPU edge-feature cache (Algorithm 3).

    Access frequencies ``Q`` are accumulated during the epoch; at the epoch
    boundary the cache content is swapped to the top-``k`` most frequent
    edges *only if* the overlap between the current cache and that top-``k``
    set has dropped below the threshold ``epsilon`` — keeping maintenance
    cost at ``O(|E|)`` and avoiding needless churn once the access pattern
    stabilises under Adam.
    """

    def __init__(self, num_edges: int, capacity: int, epsilon: float = 0.8,
                 seed: int = 0) -> None:
        super().__init__(num_edges, capacity)
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError("epsilon must be in [0, 1]")
        self.epsilon = epsilon
        #: per-epoch access frequency Q (Algorithm 3, line 6).
        self.frequency = np.zeros(num_edges, dtype=np.int64)
        # Algorithm 3 line 2: initialise with a random cache content.
        rng = new_rng(seed)
        if capacity > 0:
            self._set_cache(rng.choice(num_edges, size=capacity, replace=False))

    def _record(self, edge_ids: np.ndarray) -> None:
        np.add.at(self.frequency, edge_ids, 1)

    def _record_unique(self, unique_ids: np.ndarray, counts: np.ndarray) -> None:
        # Ids are unique, so plain fancy-index accumulation replaces the much
        # slower ``np.add.at`` scatter — same resulting frequencies.
        self.frequency[unique_ids] += counts

    def grow(self, num_edges: int, capacity: Optional[int] = None) -> None:
        extra = num_edges - self.num_edges
        super().grow(num_edges, capacity=capacity)
        if extra > 0:
            self.frequency = np.concatenate(
                [self.frequency, np.zeros(extra, dtype=np.int64)])

    def _top_k(self) -> np.ndarray:
        if self.capacity == 0:
            return np.empty(0, dtype=np.int64)
        # argpartition is O(|E|); exact ordering inside the top-k is irrelevant.
        return np.argpartition(-self.frequency, self.capacity - 1)[:self.capacity]

    def _replace(self) -> None:
        if self.capacity == 0:
            self.frequency[:] = 0
            return
        top = self._top_k()
        overlap = int(self.cached[top].sum())
        if overlap < self.epsilon * self.capacity:
            self._set_cache(top)
            self.replacement_count += 1
        self.frequency[:] = 0


class OracleCache(FeatureCache):
    """Clairvoyant per-epoch cache: caches the top-k edges of the *next* epoch.

    Used as the upper bound in Fig. 3(b).  The driver must call
    :meth:`preload` with the access stream of the upcoming epoch before the
    epoch starts.
    """

    def preload(self, upcoming_edge_ids: np.ndarray) -> None:
        counts = np.bincount(np.asarray(upcoming_edge_ids, dtype=np.int64).reshape(-1),
                             minlength=self.num_edges)
        if self.capacity > 0:
            top = np.argpartition(-counts, self.capacity - 1)[:self.capacity]
            self._set_cache(top)
        self.replacement_count += 1


class StaticRandomCache(FeatureCache):
    """Static baseline: a random subset of edges cached once, never replaced."""

    def __init__(self, num_edges: int, capacity: int, seed: int = 0) -> None:
        super().__init__(num_edges, capacity)
        rng = new_rng(seed)
        if capacity > 0:
            self._set_cache(rng.choice(num_edges, size=capacity, replace=False))


class StaticDegreeCache(FeatureCache):
    """Static baseline: cache the edges incident to the highest-degree nodes.

    This is the temporal analogue of degree-/PageRank-based data tiering for
    static GNNs (GNS, Data Tiering, Quiver): edges touching hub nodes are the
    most likely to be sampled as supporting neighbors.
    """

    def __init__(self, num_edges: int, capacity: int,
                 edge_src: np.ndarray, edge_dst: np.ndarray,
                 num_nodes: int) -> None:
        super().__init__(num_edges, capacity)
        degree = np.bincount(edge_src, minlength=num_nodes) \
            + np.bincount(edge_dst, minlength=num_nodes)
        edge_score = degree[edge_src] + degree[edge_dst]
        if capacity > 0:
            top = np.argpartition(-edge_score, capacity - 1)[:capacity]
            self._set_cache(top)
