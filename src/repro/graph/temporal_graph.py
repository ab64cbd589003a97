"""Continuous-Time Dynamic Graph (CTDG) container.

A dynamic graph is a sequence of timestamped interaction events
``(u, v, x_uvt, t)`` (Section II of the paper).  :class:`TemporalGraph` stores
the event stream in structure-of-arrays layout (contiguous numpy arrays) so
that mini-batch slicing, chronological splitting and T-CSR construction are
all cheap vectorised operations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

__all__ = ["TemporalGraph"]


@dataclass
class TemporalGraph:
    """Event-list representation of a dynamic graph.

    Attributes
    ----------
    src, dst:
        ``(E,)`` int64 arrays of source / destination node ids.
    ts:
        ``(E,)`` float64 array of event timestamps.
    num_nodes:
        Total number of nodes ``|V|`` (ids are in ``[0, num_nodes)``).
    edge_feat:
        Optional ``(E, d_e)`` float32 edge feature matrix (``x_uvt``).
    node_feat:
        Optional ``(|V|, d_v)`` float32 node feature matrix.
    meta:
        Free-form metadata (dataset name, bipartite partition sizes, planted
        ground-truth used by tests, ...).
    """

    src: np.ndarray
    dst: np.ndarray
    ts: np.ndarray
    num_nodes: int
    edge_feat: Optional[np.ndarray] = None
    node_feat: Optional[np.ndarray] = None
    meta: Dict = field(default_factory=dict)

    # -- validation -------------------------------------------------------------

    def __post_init__(self) -> None:
        self.src = np.ascontiguousarray(self.src, dtype=np.int64)
        self.dst = np.ascontiguousarray(self.dst, dtype=np.int64)
        self.ts = np.ascontiguousarray(self.ts, dtype=np.float64)
        if not (self.src.shape == self.dst.shape == self.ts.shape):
            raise ValueError("src, dst and ts must have identical shapes")
        if self.src.ndim != 1:
            raise ValueError("event arrays must be one-dimensional")
        if self.num_edges and (self.src.max() >= self.num_nodes or self.dst.max() >= self.num_nodes):
            raise ValueError("node id out of range for num_nodes")
        if self.num_edges and (self.src.min() < 0 or self.dst.min() < 0):
            raise ValueError("negative node id")
        if self.edge_feat is not None:
            self.edge_feat = np.ascontiguousarray(self.edge_feat, dtype=np.float32)
            if self.edge_feat.shape[0] != self.num_edges:
                raise ValueError("edge_feat must have one row per event")
        if self.node_feat is not None:
            self.node_feat = np.ascontiguousarray(self.node_feat, dtype=np.float32)
            if self.node_feat.shape[0] != self.num_nodes:
                raise ValueError("node_feat must have one row per node")

    # -- basic properties -----------------------------------------------------------

    @property
    def num_edges(self) -> int:
        return int(self.src.shape[0])

    @property
    def edge_dim(self) -> int:
        return 0 if self.edge_feat is None else int(self.edge_feat.shape[1])

    @property
    def node_dim(self) -> int:
        return 0 if self.node_feat is None else int(self.node_feat.shape[1])

    @property
    def is_chronological(self) -> bool:
        """True when events are already sorted by timestamp (stable order)."""
        return bool(np.all(np.diff(self.ts) >= 0)) if self.num_edges > 1 else True

    def __len__(self) -> int:
        return self.num_edges

    def __repr__(self) -> str:  # pragma: no cover
        return (f"TemporalGraph(|V|={self.num_nodes}, |E|={self.num_edges}, "
                f"d_v={self.node_dim}, d_e={self.edge_dim})")

    # -- streaming ingestion ----------------------------------------------------------

    def append_events(self, src: np.ndarray, dst: np.ndarray, ts: np.ndarray,
                      edge_feat: Optional[np.ndarray] = None) -> "TemporalGraph":
        """Append a chunk of chronologically ordered events **in place**.

        The event arrays are backed by private over-allocated buffers that
        grow with amortized doubling, so repeated appends cost ``O(chunk)``
        amortized rather than ``O(E)`` per call; the public ``src``/``dst``/
        ``ts``/``edge_feat`` attributes are re-pointed at views of the live
        prefix after every append.  Consumers that read those attributes
        through the graph object (e.g. the device
        :class:`~repro.device.memory.FeatureStore`, which slices
        ``graph.edge_feat`` on every request) therefore stay consistent
        without any re-registration.

        Constraints enforced with actionable errors:

        * node ids must lie in ``[0, num_nodes)`` — streaming does not grow
          the node set (presets have a fixed node universe);
        * timestamps must be non-decreasing within the chunk and must not
          precede the latest existing event (chronological ingestion);
        * ``edge_feat`` must be present with matching width iff the graph
          already has edge features.

        ``meta`` is left untouched: planted ground-truth arrays keep
        describing the originally generated events.

        Returns ``self`` for chaining.
        """
        src = np.ascontiguousarray(src, dtype=np.int64)
        dst = np.ascontiguousarray(dst, dtype=np.int64)
        ts = np.ascontiguousarray(ts, dtype=np.float64)
        if not (src.shape == dst.shape == ts.shape) or src.ndim != 1:
            raise ValueError("appended src, dst and ts must be identical 1-D arrays")
        k = int(src.size)
        if k == 0:
            return self
        if min(src.min(), dst.min()) < 0 \
                or max(src.max(), dst.max()) >= self.num_nodes:
            raise ValueError(
                f"appended node id out of range [0, {self.num_nodes}); "
                "streaming ingestion does not grow the node set")
        if np.any(np.diff(ts) < 0):
            raise ValueError("appended events must be sorted chronologically")
        if self.num_edges and ts[0] < self.ts[-1]:
            raise ValueError(
                f"appended events must not precede existing ones "
                f"(got timestamp {float(ts[0])!r} after {float(self.ts[-1])!r})")
        if (edge_feat is None) != (self.edge_feat is None):
            raise ValueError(
                "appended chunk must carry edge features iff the graph has them "
                f"(graph edge_dim={self.edge_dim}, chunk has "
                f"{'no features' if edge_feat is None else 'features'})")
        if edge_feat is not None:
            edge_feat = np.ascontiguousarray(edge_feat, dtype=np.float32)
            if edge_feat.shape != (k, self.edge_dim):
                raise ValueError(
                    f"appended edge_feat must have shape ({k}, {self.edge_dim}), "
                    f"got {edge_feat.shape}")

        n = self.num_edges
        self._ensure_event_capacity(n + k)
        self._buf_src[n:n + k] = src
        self._buf_dst[n:n + k] = dst
        self._buf_ts[n:n + k] = ts
        self.src = self._buf_src[:n + k]
        self.dst = self._buf_dst[:n + k]
        self.ts = self._buf_ts[:n + k]
        if edge_feat is not None:
            self._buf_edge_feat[n:n + k] = edge_feat
            self.edge_feat = self._buf_edge_feat[:n + k]
        return self

    def _ensure_event_capacity(self, total: int) -> None:
        """Grow the private event buffers geometrically to hold ``total`` rows."""
        capacity = getattr(self, "_event_capacity", 0)
        if total <= capacity:
            return
        new_capacity = max(total, 2 * capacity, 2 * self.num_edges, 64)
        n = self.num_edges
        buf_src = np.zeros(new_capacity, dtype=np.int64)
        buf_dst = np.zeros(new_capacity, dtype=np.int64)
        buf_ts = np.zeros(new_capacity, dtype=np.float64)
        buf_src[:n] = self.src
        buf_dst[:n] = self.dst
        buf_ts[:n] = self.ts
        self._buf_src, self._buf_dst, self._buf_ts = buf_src, buf_dst, buf_ts
        if self.edge_feat is not None:
            buf_feat = np.zeros((new_capacity, self.edge_dim), dtype=np.float32)
            buf_feat[:n] = self.edge_feat
            self._buf_edge_feat = buf_feat
        self._event_capacity = new_capacity

    # -- transforms -----------------------------------------------------------------

    def sort_by_time(self) -> "TemporalGraph":
        """Return a copy with events sorted chronologically (stable)."""
        order = np.argsort(self.ts, kind="stable")
        return self.select_events(order)

    def select_events(self, index: np.ndarray) -> "TemporalGraph":
        """Return a new graph restricted to ``index`` (keeps node ids / features)."""
        index = np.asarray(index)
        return TemporalGraph(
            src=self.src[index],
            dst=self.dst[index],
            ts=self.ts[index],
            num_nodes=self.num_nodes,
            edge_feat=None if self.edge_feat is None else self.edge_feat[index],
            node_feat=self.node_feat,
            meta=dict(self.meta),
        )

    def time_slice(self, t_start: float, t_end: float) -> "TemporalGraph":
        """Events with ``t_start <= ts < t_end`` (graph must not be reordered)."""
        mask = (self.ts >= t_start) & (self.ts < t_end)
        return self.select_events(np.nonzero(mask)[0])

    def latest_events(self, count: int) -> "TemporalGraph":
        """Keep only the ``count`` most recent events.

        Mirrors the paper's protocol for large datasets: *"for large-scale
        datasets with more than one million temporal edges, we use the latest
        one million edges"* (Section IV-A).
        """
        if count >= self.num_edges:
            return self
        g = self if self.is_chronological else self.sort_by_time()
        return g.select_events(np.arange(g.num_edges - count, g.num_edges))

    # -- statistics used by Table II and the generators -------------------------------

    def degree_counts(self) -> np.ndarray:
        """Total interaction count per node (out + in)."""
        deg = np.bincount(self.src, minlength=self.num_nodes)
        deg += np.bincount(self.dst, minlength=self.num_nodes)
        return deg

    def repeat_ratio(self) -> float:
        """Fraction of events that repeat an earlier (src, dst) pair.

        Dynamic graphs have many repeated edges between the same two nodes at
        different timestamps — one of the two noise sources the paper targets.
        """
        if self.num_edges == 0:
            return 0.0
        pairs = self.src.astype(np.int64) * self.num_nodes + self.dst
        _, counts = np.unique(pairs, return_counts=True)
        return float((counts - 1).sum() / self.num_edges)

    def timespan(self) -> Tuple[float, float]:
        if self.num_edges == 0:
            return (0.0, 0.0)
        return float(self.ts.min()), float(self.ts.max())

    def statistics(self) -> Dict[str, float]:
        """Summary statistics in the shape of the paper's Table II."""
        return {
            "num_nodes": self.num_nodes,
            "num_edges": self.num_edges,
            "node_dim": self.node_dim,
            "edge_dim": self.edge_dim,
            "repeat_ratio": self.repeat_ratio(),
            "max_degree": int(self.degree_counts().max()) if self.num_edges else 0,
        }
