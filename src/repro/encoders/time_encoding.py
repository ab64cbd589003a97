"""Time encodings: map relative timespans to vectors.

Two encoders from the paper:

* :class:`LearnableTimeEncoder` — TGAT's learnable encoding
  ``Phi(dt) = cos(dt * w + b)`` (Eq. 3) with trainable ``w`` and ``b``.
* :class:`FixedTimeEncoder` — GraphMixer's fixed encoding
  ``Phi(dt) = cos(dt * omega)`` with ``omega_i = alpha^{-(i-1)/beta}``
  (Eq. 8).  TASER's neighbor *encoder* reuses this fixed variant (Section
  III-B) because a fixed encoding keeps the sampler's probability landscape
  stable while the aggregator trains.

Both encoders are one kernel of the array runtime each
(``time_encoding_forward`` / ``_backward``, ``fixed_time_encoding``).
The fixed encoding is a constant of the graph (``requires_grad=False``), so
the composite kernels downstream of it — the sampler's ``Linear`` /
``LayerNorm`` nodes — compute no gradient for it.

Timespans are not model quantities: they stay float64 (they reach 1e6-1e7,
past float32's 24 bits), the kernels take the cosine of the float64 phase
``dt * w + b``, and only that cosine is cast to
``repro.tensor.COMPUTE_DTYPE``.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from .. import tensor as _tensor
from ..nn.module import Module, Parameter
from ..tensor import Tensor
from ..tensor.backend import get_backend

__all__ = ["LearnableTimeEncoder", "FixedTimeEncoder"]


def _timespans(delta_t: Union[np.ndarray, Tensor]) -> np.ndarray:
    return np.asarray(delta_t.data if isinstance(delta_t, Tensor) else delta_t,
                      dtype=np.float64)


class LearnableTimeEncoder(Module):
    """TGAT time encoding ``cos(dt * w + b)`` with learnable frequencies."""

    def __init__(self, dim: int, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if dim <= 0:
            raise ValueError("time-encoding dimension must be positive")
        rng = rng if rng is not None else np.random.default_rng()
        self.dim = dim
        # Initialise frequencies on a log scale (same heuristic as the TGAT code).
        init_w = 1.0 / 10 ** np.linspace(0, 4, dim)
        self.w = Parameter(init_w)
        self.b = Parameter(np.zeros(dim))

    def forward(self, delta_t: Union[np.ndarray, Tensor]) -> Tensor:
        """Encode relative timespans; output shape ``delta_t.shape + (dim,)``."""
        dt, w, b = _timespans(delta_t), self.w, self.b
        return Tensor(get_backend().time_encoding_forward(dt, w.data, b.data),
                      parents=(w, b), op="time_encoding",
                      rule=lambda g: get_backend().time_encoding_backward(
                          g, dt, w.data, b.data))


class FixedTimeEncoder(Module):
    """GraphMixer fixed time encoding ``cos(dt * omega)`` (no learnable state)."""

    def __init__(self, dim: int) -> None:
        super().__init__()
        if dim <= 0:
            raise ValueError("time-encoding dimension must be positive")
        self.dim = dim
        # GraphMixer's alpha = beta = sqrt(dim) spreads the frequencies
        # geometrically from 1 down to ~alpha^{-dim/beta}.
        alpha = beta = float(np.sqrt(dim))
        i = np.arange(1, dim + 1, dtype=np.float64)
        self.omega = alpha ** (-(i - 1) / beta)

    def forward(self, delta_t: Union[np.ndarray, Tensor]) -> Tensor:
        return Tensor(get_backend().fixed_time_encoding(
            _timespans(delta_t), self.omega, _tensor.COMPUTE_DTYPE))
