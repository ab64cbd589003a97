"""Temporal neighbor finders and sampling policies."""

from .base import NeighborBatch, NeighborFinder, PAD_NODE, PAD_EDGE
from .cpu_finder import OriginalNeighborFinder
from .tgl_finder import TGLNeighborFinder
from .gpu_finder import GPUNeighborFinder
from .recursive import sample_multi_hop, flatten_frontier, unique_targets

__all__ = [
    "NeighborBatch",
    "NeighborFinder",
    "PAD_NODE",
    "PAD_EDGE",
    "OriginalNeighborFinder",
    "TGLNeighborFinder",
    "GPUNeighborFinder",
    "sample_multi_hop",
    "flatten_frontier",
    "unique_targets",
]


def make_finder(kind: str, tcsr, policy: str = "uniform", seed: int = 0) -> NeighborFinder:
    """Factory: ``kind`` in {"original", "tgl", "gpu"}."""
    kinds = {
        "original": OriginalNeighborFinder,
        "tgl": TGLNeighborFinder,
        "gpu": GPUNeighborFinder,
    }
    if kind not in kinds:
        raise ValueError(f"unknown finder kind {kind!r}; choose from {sorted(kinds)}")
    return kinds[kind](tcsr, policy=policy, seed=seed)


__all__.append("make_finder")
