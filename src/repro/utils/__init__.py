"""Shared utilities: deterministic RNG management, timing and row tiles.

Configuration helpers live in :mod:`repro.core.config`; the deprecated
``repro.utils.config`` re-export shim has been removed.
"""

from .rng import new_rng, spawn_rngs
from .tiles import Tiles
from .timer import Timer

__all__ = [
    "new_rng",
    "spawn_rngs",
    "Tiles",
    "Timer",
]
