"""TGNN backbones, mini-batch containers and the link-prediction head."""

from .minibatch import HopData, MiniBatch
from .base import TGNNBackbone, build_messages
from .edge_predictor import EdgePredictor
from .tgat import TGAT
from .graphmixer import GraphMixer

__all__ = [
    "HopData",
    "MiniBatch",
    "TGNNBackbone",
    "build_messages",
    "EdgePredictor",
    "TGAT",
    "GraphMixer",
]


def make_backbone(name: str, node_dim: int, edge_dim: int, hidden_dim: int = 100,
                  time_dim: int = 100, num_neighbors: int = 10, num_heads: int = 2,
                  dropout: float = 0.1, rng=None):
    """Factory for the two backbones evaluated in the paper.

    ``name`` is ``"tgat"`` (2-layer attention, uniform neighbors) or
    ``"graphmixer"`` (1-layer MLP-Mixer, most-recent neighbors);
    ``num_heads`` is TGAT's only.
    """
    key = name.lower()
    if key == "tgat":
        return TGAT(node_dim, edge_dim, hidden_dim=hidden_dim, time_dim=time_dim,
                    num_heads=num_heads, dropout=dropout, rng=rng)
    if key == "graphmixer":
        return GraphMixer(node_dim, edge_dim, hidden_dim=hidden_dim, time_dim=time_dim,
                          num_neighbors=num_neighbors, dropout=dropout, rng=rng)
    raise ValueError(f"unknown backbone {name!r}; choose 'tgat' or 'graphmixer'")


__all__.append("make_backbone")
