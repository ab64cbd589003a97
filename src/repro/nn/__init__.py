"""Neural-network layers built on the repro autograd engine."""

from .module import Module, ModuleList, Parameter
from .layers import Linear, LayerNorm, Dropout
from .mixer import MixerBlock, FeedForward
from .attention import TemporalAttention
from . import init

__all__ = [
    "Module",
    "ModuleList",
    "Parameter",
    "Linear",
    "LayerNorm",
    "Dropout",
    "MixerBlock",
    "FeedForward",
    "TemporalAttention",
    "init",
]
