"""Module / Parameter abstractions (the ``torch.nn.Module`` substitute).

A :class:`Module` recursively tracks :class:`Parameter` objects and child
modules, exposing ``parameters()``, ``state_dict()`` / ``load_state_dict()``
and a train/eval mode flag that layers such as dropout consult.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from .. import tensor as _tensor
from ..tensor import Tensor

__all__ = ["Parameter", "Module"]


class Parameter(Tensor):
    """A :class:`Tensor` flagged as a learnable parameter.

    Always ``repro.tensor.COMPUTE_DTYPE``: :mod:`repro.nn.init` draws
    initial values at the generator's native width — the stream is the same
    whatever the compute dtype — and they are cast here.
    """

    def __init__(self, data, requires_grad: bool = True):
        super().__init__(data, requires_grad=requires_grad,
                         dtype=_tensor.COMPUTE_DTYPE)


class Module:
    """Base class for all neural-network modules.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; those are automatically registered and discoverable through
    :meth:`parameters` and :meth:`named_parameters`.
    """

    def __init__(self) -> None:
        self._parameters: "OrderedDict[str, Parameter]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()
        self.training: bool = True

    # -- attribute registration -------------------------------------------------

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", OrderedDict())[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())[name] = value
        object.__setattr__(self, name, value)

    # -- forward ----------------------------------------------------------------

    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    # -- parameter traversal ------------------------------------------------------

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for mod_name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{mod_name}.")

    def parameters(self) -> List[Parameter]:
        return [p for _, p in self.named_parameters()]

    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        yield (prefix.rstrip("."), self)
        for name, module in self._modules.items():
            yield from module.named_modules(prefix=f"{prefix}{name}.")

    def num_parameters(self) -> int:
        """Total number of learnable scalars."""
        return int(sum(p.data.size for p in self.parameters()))

    # -- training-mode toggles -----------------------------------------------------

    def train(self, mode: bool = True) -> "Module":
        # Not through __setattr__: a bool is never registered, and serving
        # flips the mode of every submodule twice per flush.
        object.__setattr__(self, "training", mode)
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    # -- gradient helpers ------------------------------------------------------------

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    # -- serialisation -----------------------------------------------------------------

    def state_dict(self) -> Dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray], strict: bool = True) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if strict and (missing or unexpected):
            raise KeyError(f"state_dict mismatch: missing={sorted(missing)} "
                           f"unexpected={sorted(unexpected)}")
        for name, value in state.items():
            if name in own:
                if own[name].data.shape != value.shape:
                    raise ValueError(f"shape mismatch for {name}: "
                                     f"{own[name].data.shape} vs {value.shape}")
                # A copy in the receiving parameter's dtype: a wider
                # checkpoint must not widen the model.
                own[name].data = value.astype(own[name].data.dtype)


class ModuleList(Module):
    """A list of modules whose parameters are all registered."""

    def __init__(self, modules: Optional[List[Module]] = None) -> None:
        super().__init__()
        self._items: List[Module] = []
        for m in (modules or []):
            self.append(m)

    def append(self, module: Module) -> None:
        idx = len(self._items)
        self._items.append(module)
        self._modules[str(idx)] = module

    def __iter__(self):
        return iter(self._items)

    def __getitem__(self, idx: int) -> Module:
        return self._items[idx]

    def __len__(self) -> int:
        return len(self._items)


__all__.append("ModuleList")
