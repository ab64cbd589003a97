"""Core layers: Linear, LayerNorm, Dropout, MLP, Sequential.

All layers take an explicit ``rng`` at construction so initialisation is
reproducible, following the repository-wide determinism convention.

Every layer runs on the array runtime (:mod:`repro.tensor.backend`).
``Linear`` and ``LayerNorm`` are one graph node each
(:func:`repro.tensor.functional.linear`,
:func:`repro.tensor.functional.layer_norm`) with an analytic backward over a
kernel pair; the remaining layers are composed from Tensor ops.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from ..tensor import Tensor
from ..tensor import functional as F
from . import init
from .module import Module, ModuleList, Parameter

__all__ = ["Linear", "LayerNorm", "Dropout", "MLP", "Sequential", "Identity", "Activation"]


class Linear(Module):
    """Affine transformation ``y = x W^T + b`` with weight shape ``(out, in)``."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform((out_features, in_features), rng))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Linear({self.in_features}, {self.out_features})"


class LayerNorm(Module):
    """Layer normalisation over the last dimension with learnable affine."""

    def __init__(self, dim: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.weight = Parameter(init.ones((dim,)))
        self.bias = Parameter(init.zeros((dim,)))

    def forward(self, x: Tensor) -> Tensor:
        return F.layer_norm(x, self.weight, self.bias, eps=self.eps)


class Dropout(Module):
    """Inverted dropout, active only in training mode."""

    def __init__(self, p: float = 0.1, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self._rng = rng if rng is not None else np.random.default_rng()

    def keep_mask(self, shape, dtype) -> Optional[np.ndarray]:
        """The keep-mask :meth:`forward` would draw for a ``shape`` input of
        ``dtype`` (:func:`repro.tensor.functional.dropout_keep`)."""
        return F.dropout_keep(shape, self.p, self.training, self._rng, dtype)

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, training=self.training, rng=self._rng)


class Identity(Module):
    """Pass-through layer (useful as a default component)."""

    def forward(self, x: Tensor) -> Tensor:
        return x


class Activation(Module):
    """Wrap a functional activation as a module (``relu``/``gelu``/...)."""

    _FUNCS: dict = {
        "relu": F.relu,
        "gelu": F.gelu,
        "tanh": F.tanh,
        "sigmoid": F.sigmoid,
        "leaky_relu": F.leaky_relu,
        "identity": lambda x: x,
    }

    def __init__(self, name: str = "relu") -> None:
        super().__init__()
        if name not in self._FUNCS:
            raise ValueError(f"unknown activation {name!r}; choose from {sorted(self._FUNCS)}")
        self.name = name

    def forward(self, x: Tensor) -> Tensor:
        return self._FUNCS[self.name](x)


class Sequential(Module):
    """Run child modules in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self.layers = ModuleList(list(modules))

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x


class MLP(Module):
    """Multi-layer perceptron with configurable hidden sizes and activation."""

    def __init__(self, in_dim: int, hidden_dims: Sequence[int], out_dim: int,
                 activation: str = "relu", dropout: float = 0.0,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        dims = [in_dim, *hidden_dims, out_dim]
        layers: List[Module] = []
        for i, (d_in, d_out) in enumerate(zip(dims[:-1], dims[1:])):
            layers.append(Linear(d_in, d_out, rng=rng))
            if i < len(dims) - 2:
                layers.append(Activation(activation))
                if dropout > 0:
                    layers.append(Dropout(dropout, rng=rng))
        self.net = Sequential(*layers)

    def forward(self, x: Tensor) -> Tensor:
        return self.net(x)
