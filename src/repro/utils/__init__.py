"""Shared utilities: deterministic RNG management and timing.

Configuration helpers live in :mod:`repro.core.config`; the deprecated
``repro.utils.config`` re-export shim has been removed.
"""

from .rng import RngMixin, new_rng, spawn_rngs, seed_everything
from .timer import Timer

__all__ = [
    "RngMixin",
    "new_rng",
    "spawn_rngs",
    "seed_everything",
    "Timer",
]
