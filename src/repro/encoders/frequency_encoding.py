"""Frequency encoding (Eq. 12): sinusoidal encoding of neighbor repetition.

Dynamic graphs contain many repeated edges between the same node pair.  The
TASER neighbor encoder feeds the sampler the *within-neighborhood frequency*
of each neighbor node through a sinusoidal (positional) encoding, so the
sampler can distinguish a "best friend" neighbor repeated dozens of times
from a one-off interaction.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from .. import tensor as _tensor
from ..nn.module import Module
from ..tensor import Tensor

__all__ = ["FrequencyEncoder"]


class FrequencyEncoder(Module):
    """Sinusoidal (transformer positional) encoding of integer frequencies."""

    def __init__(self, dim: int, base: float = 10000.0) -> None:
        super().__init__()
        if dim <= 0:
            raise ValueError("frequency-encoding dimension must be positive")
        self.dim = dim
        self.base = base
        half = np.arange(dim) // 2
        #: per-channel inverse wavelength 1 / base^{2i/d}; channels alternate
        #: sin (even) / cos (odd), mirroring Eq. (12), so a pair shares one.
        self.inv_wavelength = base ** (-2.0 * half / dim)

    def forward(self, frequency: Union[np.ndarray, Tensor]) -> Tensor:
        """Encode integer frequencies; output shape ``frequency.shape + (dim,)``."""
        dtype = _tensor.COMPUTE_DTYPE
        freq = np.asarray(frequency.data if isinstance(frequency, Tensor) else frequency,
                          dtype=dtype)
        # One angle per sin/cos pair, each transcendental over its own channels.
        angles = freq[..., None] * self.inv_wavelength[0::2].astype(dtype)
        enc = np.empty(freq.shape + (self.dim,), dtype=dtype)
        enc[..., 0::2] = np.sin(angles)
        enc[..., 1::2] = np.cos(angles[..., :self.dim // 2])
        return Tensor(enc)
