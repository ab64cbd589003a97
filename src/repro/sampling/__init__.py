"""TASER's temporal neighbor finder and multi-hop expansion."""

from .base import NeighborBatch, NeighborFinder, PAD_NODE, PAD_EDGE
from .gpu_finder import GPUNeighborFinder
from .recursive import sample_multi_hop, flatten_frontier, unique_targets

__all__ = [
    "NeighborBatch",
    "NeighborFinder",
    "PAD_NODE",
    "PAD_EDGE",
    "GPUNeighborFinder",
    "sample_multi_hop",
    "flatten_frontier",
    "unique_targets",
]
