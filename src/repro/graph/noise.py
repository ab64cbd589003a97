"""Noise measurement and injection utilities for dynamic graphs.

The paper identifies two noise types in dynamic graphs (Section I):
*deprecated links* and *skewed neighborhood distributions*.  This module
provides (a) measurement helpers that quantify both on any
:class:`~repro.graph.TemporalGraph` and (b) random-edge injection, the
corruption the fraud-detection example sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..utils.rng import new_rng
from .temporal_graph import TemporalGraph

__all__ = [
    "NoiseReport",
    "measure_noise",
    "inject_random_edges",
]


@dataclass
class NoiseReport:
    """Summary of noise-related statistics of a dynamic graph."""

    #: fraction of events flagged as uniformly-random noise (requires planted meta).
    noise_edge_fraction: Optional[float]
    #: fraction of events whose destination does *not* match the source's
    #: community at event time (deprecated or noisy), requires planted meta.
    stale_edge_fraction: Optional[float]
    #: fraction of repeated (src, dst) events — skew indicator.
    repeat_ratio: float
    #: Gini coefficient of the node interaction-count distribution — skew indicator.
    degree_gini: float


def _gini(values: np.ndarray) -> float:
    """Gini coefficient of a non-negative sample (0 = equal, 1 = maximal skew)."""
    v = np.sort(np.asarray(values, dtype=np.float64))
    if v.size == 0 or v.sum() == 0:
        return 0.0
    n = v.size
    cum = np.cumsum(v)
    return float((n + 1 - 2 * (cum / cum[-1]).sum()) / n)


def measure_noise(graph: TemporalGraph) -> NoiseReport:
    """Quantify the two paper-identified noise types on ``graph``.

    When the graph was produced by :func:`repro.graph.generators.generate_ctdg`
    the planted per-event flags are used; otherwise only the structural skew
    measures are available.
    """
    meta = graph.meta
    noise_frac = None
    stale_frac = None
    if "event_is_noise" in meta:
        noise_frac = float(np.mean(meta["event_is_noise"]))
    if "event_uses_current_community" in meta:
        stale_frac = float(1.0 - np.mean(meta["event_uses_current_community"]))
    return NoiseReport(
        noise_edge_fraction=noise_frac,
        stale_edge_fraction=stale_frac,
        repeat_ratio=graph.repeat_ratio(),
        degree_gini=_gini(graph.degree_counts()),
    )


def inject_random_edges(graph: TemporalGraph, fraction: float,
                        seed: int = 0) -> TemporalGraph:
    """Add ``fraction * |E|`` uniformly-random events (extra noise).

    New events copy the timestamp of a random existing event (so the temporal
    distribution is preserved) and receive i.i.d. Gaussian edge features when
    the graph has edge features.  The merged log is put in time order by one
    stable sort, applied to the events, their features and the planted
    per-event ``meta`` labels alike: an injected event is labelled noise and
    never uses its source's current community.
    """
    if fraction < 0:
        raise ValueError("fraction must be non-negative")
    rng = new_rng(seed)
    extra = int(round(fraction * graph.num_edges))
    if extra == 0:
        return graph
    src = rng.integers(0, graph.num_nodes, size=extra)
    dst = rng.integers(0, graph.num_nodes, size=extra)
    ts = graph.ts[rng.integers(0, graph.num_edges, size=extra)]
    ts = np.concatenate([graph.ts, ts])
    order = np.argsort(ts, kind="stable")
    edge_feat = None
    if graph.edge_feat is not None:
        edge_feat = np.concatenate([
            graph.edge_feat,
            rng.standard_normal((extra, graph.edge_dim)).astype(np.float32),
        ])[order]
    meta = dict(graph.meta)
    for key, injected in (("event_is_noise", True),
                          ("event_uses_current_community", False)):
        if key in meta:
            meta[key] = np.concatenate([
                meta[key], np.full(extra, injected)])[order]
    return TemporalGraph(
        src=np.concatenate([graph.src, src])[order],
        dst=np.concatenate([graph.dst, dst])[order],
        ts=ts[order],
        num_nodes=graph.num_nodes,
        edge_feat=edge_feat,
        node_feat=graph.node_feat,
        meta=meta,
    )
