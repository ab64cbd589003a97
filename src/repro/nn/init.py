"""Weight initialisation schemes (Xavier/Glorot)."""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["xavier_uniform", "zeros", "ones"]


def _fans(shape: Tuple[int, ...]) -> Tuple[int, int]:
    if len(shape) < 2:
        fan = shape[0] if shape else 1
        return fan, fan
    receptive = int(np.prod(shape[2:])) if len(shape) > 2 else 1
    fan_in = shape[1] * receptive
    fan_out = shape[0] * receptive
    return fan_in, fan_out


def xavier_uniform(shape: Tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    fan_in, fan_out = _fans(shape)
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def zeros(shape: Tuple[int, ...]) -> np.ndarray:
    return np.zeros(shape)


def ones(shape: Tuple[int, ...]) -> np.ndarray:
    return np.ones(shape)
