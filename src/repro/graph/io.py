"""Saving and loading dynamic graphs as ``.npz`` archives.

Synthetic datasets are cheap to regenerate, but experiment pipelines often
want to freeze the exact event stream (e.g. to share a benchmark workload or
to diff two noise-injection settings).  ``save_graph``/``load_graph`` persist
the full :class:`~repro.graph.TemporalGraph` including its planted ground
truth: the per-event ``labels`` and every array of ``meta``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

import numpy as np

from .generators import CTDGConfig
from .temporal_graph import TemporalGraph

__all__ = ["save_graph", "load_graph"]


def save_graph(graph: TemporalGraph, path: Union[str, Path]) -> Path:
    """Serialise ``graph`` (events, features, labels, metadata) to a ``.npz``
    file: each ndarray of ``meta`` as ``meta_<key>``, its scalars and config
    as JSON."""
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(".npz")
    arrays = {
        "src": graph.src,
        "dst": graph.dst,
        "ts": graph.ts,
        "num_nodes": np.asarray(graph.num_nodes),
    }
    if graph.edge_feat is not None:
        arrays["edge_feat"] = graph.edge_feat
    if graph.node_feat is not None:
        arrays["node_feat"] = graph.node_feat
    if graph.labels is not None:
        arrays["labels"] = graph.labels

    scalar_meta = {}
    for key, value in graph.meta.items():
        if isinstance(value, np.ndarray):
            arrays[f"meta_{key}"] = value
        elif isinstance(value, CTDGConfig):
            scalar_meta["config"] = {k: (v if not isinstance(v, (np.integer, np.floating))
                                         else v.item())
                                     for k, v in vars(value).items()}
        elif isinstance(value, (str, int, float, bool)):
            scalar_meta[key] = value
    arrays["meta_json"] = np.frombuffer(json.dumps(scalar_meta).encode("utf-8"),
                                        dtype=np.uint8)
    np.savez_compressed(path, **arrays)
    return path


def load_graph(path: Union[str, Path]) -> TemporalGraph:
    """Load a graph previously written by :func:`save_graph` (and checked)."""
    path = Path(path)
    with np.load(path, allow_pickle=False) as data:
        meta = {}
        if "meta_json" in data:
            scalar_meta = json.loads(bytes(data["meta_json"].tobytes()).decode("utf-8"))
            config = scalar_meta.pop("config", None)
            meta.update(scalar_meta)
            if config is not None:
                meta["config"] = CTDGConfig(**config)
        for name in data.files:
            if name.startswith("meta_") and name != "meta_json":
                meta[name[len("meta_"):]] = data[name]
        return TemporalGraph(
            src=data["src"],
            dst=data["dst"],
            ts=data["ts"],
            num_nodes=int(data["num_nodes"]),
            edge_feat=data["edge_feat"] if "edge_feat" in data else None,
            node_feat=data["node_feat"] if "node_feat" in data else None,
            meta=meta,
            labels=data["labels"] if "labels" in data else None,
        )
