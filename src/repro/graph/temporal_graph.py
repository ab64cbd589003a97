"""Continuous-Time Dynamic Graph (CTDG) container.

A dynamic graph is a sequence of timestamped interaction events
``(u, v, x_uvt, t)`` (Section II of the paper).  :class:`TemporalGraph` stores
the event stream in structure-of-arrays layout (contiguous numpy arrays) so
that mini-batch slicing, chronological splitting and T-CSR construction are
all cheap vectorised operations.

The events are in time order by construction: a whole log is checked with
the rules of an appended chunk (:func:`check_chunk`), so a log out of time
order raises and no consumer sorts or checks the order again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

__all__ = ["LABEL_DTYPE", "TemporalGraph", "check_chunk"]

#: The planted labels of one event: a uniformly random (noise) destination,
#: and a destination in its source's community at the event's time.
LABEL_DTYPE = np.dtype([("is_noise", bool), ("uses_current_community", bool)])

#: The per-event arrays of a log, one row per event (``edge_feat`` and
#: ``labels`` are optional): what slicing, sharing and appending carry.
EVENT_FIELDS = ("src", "dst", "ts", "edge_feat", "labels")


def node_id_array(ids) -> np.ndarray:
    """Node ids (of a graph or an appended chunk) as a contiguous int64 array.

    Raises ``ValueError`` unless ``ids`` has an integer dtype: a cast would
    truncate a float id (``1.7`` read as node 1) and read a bool as node 0
    or 1.
    """
    ids = np.asarray(ids)
    if ids.dtype.kind not in "iu":
        raise ValueError(f"node ids must be integers, got dtype {ids.dtype}")
    return np.ascontiguousarray(ids, dtype=np.int64)


def check_chunk(src, dst, ts, num_nodes: int, last_ts: float):
    """The rules of an event log and of every chunk appended to it (and to
    its T-CSR).

    Node ids are integers (:func:`node_id_array`) in ``[0, num_nodes)``:
    ingestion does not grow the node set.  Timestamps are finite,
    non-decreasing within the chunk and not below ``last_ts``, the latest
    event already appended (``-inf`` for a whole log).  Returns
    ``(src, dst, ts)`` as contiguous int64, int64 and float64 arrays; raises
    ``ValueError`` otherwise.
    """
    src, dst = node_id_array(src), node_id_array(dst)
    ts = np.ascontiguousarray(ts, dtype=np.float64)
    if not (src.shape == dst.shape == ts.shape) or src.ndim != 1:
        raise ValueError("src, dst and ts must be identical 1-D arrays")
    if not src.size:
        return src, dst, ts
    if min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= num_nodes:
        raise ValueError(
            f"node id out of range [0, {num_nodes}); "
            "streaming ingestion does not grow the node set")
    if not np.isfinite(ts).all():
        raise ValueError("timestamps must be finite")
    if np.any(np.diff(ts) < 0):
        raise ValueError("events must be sorted chronologically: sort them by "
                         "timestamp (a stable argsort) first")
    if ts[0] < last_ts:
        raise ValueError(
            f"appended events must not precede already-ingested ones "
            f"(got timestamp {float(ts[0])!r} after {float(last_ts)!r})")
    return src, dst, ts


@dataclass
class TemporalGraph:
    """Event-list representation of a dynamic graph.

    Attributes
    ----------
    src, dst:
        ``(E,)`` int64 arrays of source / destination node ids (given with
        an integer dtype: :func:`node_id_array`).
    ts:
        ``(E,)`` float64 array of finite, non-decreasing event timestamps.
    num_nodes:
        Total number of nodes ``|V|`` (ids are in ``[0, num_nodes)``).
    edge_feat:
        Optional ``(E, d_e)`` finite float32 edge feature matrix (``x_uvt``).
    node_feat:
        Optional ``(|V|, d_v)`` finite float32 node feature matrix.
    meta:
        Scalars (dataset name, bipartite partition sizes), the generator
        config and per-node arrays (planted communities); no per-event array.
    labels:
        Optional ``(E,)`` :data:`LABEL_DTYPE` array: each event's planted
        noise labels (Section I's two noise types).
    """

    src: np.ndarray
    dst: np.ndarray
    ts: np.ndarray
    num_nodes: int
    edge_feat: Optional[np.ndarray] = None
    node_feat: Optional[np.ndarray] = None
    meta: Dict = field(default_factory=dict)
    labels: Optional[np.ndarray] = None

    # -- validation -------------------------------------------------------------

    def __post_init__(self) -> None:
        self.src, self.dst, self.ts = check_chunk(self.src, self.dst, self.ts,
                                                  self.num_nodes, -np.inf)
        if self.edge_feat is not None:
            self.edge_feat = np.ascontiguousarray(self.edge_feat, dtype=np.float32)
            if self.edge_feat.shape[0] != self.num_edges:
                raise ValueError("edge_feat must have one row per event")
            if not np.isfinite(self.edge_feat).all():
                raise ValueError("edge features must be finite")
        if self.node_feat is not None:
            self.node_feat = np.ascontiguousarray(self.node_feat, dtype=np.float32)
            if self.node_feat.shape[0] != self.num_nodes:
                raise ValueError("node_feat must have one row per node")
            if not np.isfinite(self.node_feat).all():
                raise ValueError("node features must be finite")
        if self.labels is not None:
            self.labels = np.ascontiguousarray(self.labels)
            if self.labels.dtype != LABEL_DTYPE or self.labels.shape != (self.num_edges,):
                raise ValueError(f"labels must be one row of {LABEL_DTYPE} per event")

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

    #: Events are in time order by construction; the name stays because the
    #: frozen benchmarks/e2e/workloads.py reads ``graph.is_chronological``.
    is_chronological = True

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
        amortized rather than ``O(E)`` per call; the public event arrays
        (:data:`EVENT_FIELDS`) are re-pointed at views of the live prefix
        after every append.  Consumers that read those attributes
        through the graph object (e.g. the device
        :class:`~repro.device.memory.FeatureStore`, which slices
        ``graph.edge_feat`` on every request) therefore stay consistent
        without any re-registration.

        The chunk must pass :func:`check_chunk` against this log, and
        ``edge_feat`` must be present with matching width iff the graph
        already has edge features, and finite once cast to float32.  A
        rejected chunk changes nothing.

        A chunk carries no planted labels, so an accepted non-empty one sets
        ``labels`` to ``None``.

        Returns ``self`` for chaining.
        """
        src, dst, ts = check_chunk(src, dst, ts, self.num_nodes,
                                   self.ts[-1] if self.num_edges else -np.inf)
        k = int(src.size)
        if k == 0:
            return self
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
            if not np.isfinite(edge_feat).all():
                raise ValueError("appended edge features must be finite")

        n = self.num_edges
        self.labels = None
        self._ensure_event_capacity(n + k)
        chunk = dict(src=src, dst=dst, ts=ts, edge_feat=edge_feat)
        for name, buffer in self._buffers.items():
            buffer[n:n + k] = chunk[name]
            setattr(self, name, buffer[:n + k])
        return self

    def _ensure_event_capacity(self, total: int) -> None:
        """Grow the private event buffers geometrically to hold ``total`` rows."""
        capacity = getattr(self, "_event_capacity", 0)
        if total <= capacity:
            return
        new_capacity = max(total, 2 * capacity, 2 * self.num_edges, 64)
        self._buffers = {}
        for name in EVENT_FIELDS:
            array = getattr(self, name)
            if array is not None:
                buffer = np.zeros((new_capacity,) + array.shape[1:], dtype=array.dtype)
                buffer[:self.num_edges] = array
                self._buffers[name] = buffer
        self._event_capacity = new_capacity

    # -- transforms -----------------------------------------------------------------

    def _event_arrays(self, transform) -> Dict[str, Optional[np.ndarray]]:
        """``transform`` of each per-event array (:data:`EVENT_FIELDS`);
        an absent one stays ``None``."""
        return {name: None if getattr(self, name) is None
                else transform(getattr(self, name)) for name in EVENT_FIELDS}

    def shared_view(self) -> "TemporalGraph":
        """Return a graph over read-only views of this one's event arrays.

        Every per-event array (:data:`EVENT_FIELDS`) is viewed: nothing is
        copied, and a write through the view raises.  Its first
        :meth:`append_events` moves its events into private buffers, so
        appending to the view never writes this graph; appending to this
        graph in place writes past the view's rows, which it never reads.
        Node features and ``meta`` entries are shared as by
        :meth:`select_events`.  Views of a checked log break none of its
        rules, so the view is not checked again (that would be a pass over
        every event and feature).
        """
        def read_only(array: np.ndarray) -> np.ndarray:
            view = array.view()
            view.flags.writeable = False
            return view

        view = object.__new__(TemporalGraph)
        vars(view).update(self._event_arrays(read_only), num_nodes=self.num_nodes,
                          node_feat=self.node_feat, meta=dict(self.meta))
        return view

    def select_events(self, index: np.ndarray) -> "TemporalGraph":
        """Return a new graph restricted to ``index`` (keeps node ids / features).

        ``index`` must keep the events in time order (an increasing index
        does).  Every per-event array (:data:`EVENT_FIELDS`) is sliced; node
        features and the ``meta`` entries are shared.
        """
        index = np.asarray(index)
        return TemporalGraph(num_nodes=self.num_nodes, node_feat=self.node_feat,
                             meta=dict(self.meta),
                             **self._event_arrays(lambda array: array[index]))

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
