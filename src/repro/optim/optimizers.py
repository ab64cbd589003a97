"""The first-order optimiser: Adam.

The paper trains both the TGNN backbone and the adaptive neighbor sampler
with Adam (learning rate 1e-4 in the reference configuration); the dynamic
GPU cache design explicitly relies on Adam's stabilising effect on the edge
access pattern (Section III-D), so Adam is the one optimiser here.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

import numpy as np

from ..nn.module import Parameter

__all__ = ["Optimizer", "Adam", "clip_grad_norm"]

#: Adam's moment decay rates and denominator floor (Kingma & Ba's defaults).
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class Optimizer:
    """Base optimiser holding a flat list of parameters."""

    def __init__(self, params: Iterable[Parameter], lr: float) -> None:
        self.params: List[Parameter] = list(params)
        if not self.params:
            raise ValueError("optimizer received an empty parameter list")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        raise NotImplementedError

    def state_dict(self) -> Dict:
        return {"lr": self.lr}

    def load_state_dict(self, state: Dict) -> None:
        self.lr = state.get("lr", self.lr)


class Adam(Optimizer):
    """Adam optimiser (Kingma & Ba, 2015)."""

    def __init__(self, params: Iterable[Parameter], lr: float = 1e-4,
                 weight_decay: float = 0.0) -> None:
        super().__init__(params, lr)
        self.weight_decay = weight_decay
        self.t = 0
        self._m: List[Optional[np.ndarray]] = [None] * len(self.params)
        self._v: List[Optional[np.ndarray]] = [None] * len(self.params)

    def step(self) -> None:
        self.t += 1
        b1t = 1.0 - ADAM_BETA1 ** self.t
        b2t = 1.0 - ADAM_BETA2 ** self.t
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            if self._m[i] is None:
                self._m[i] = np.zeros_like(p.data)
                self._v[i] = np.zeros_like(p.data)
            self._m[i] = ADAM_BETA1 * self._m[i] + (1 - ADAM_BETA1) * grad
            self._v[i] = ADAM_BETA2 * self._v[i] + (1 - ADAM_BETA2) * grad * grad
            m_hat = self._m[i] / b1t
            v_hat = self._v[i] / b2t
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)

    def state_dict(self) -> Dict:
        return {"lr": self.lr, "t": self.t}

    def load_state_dict(self, state: Dict) -> None:
        super().load_state_dict(state)
        self.t = state.get("t", self.t)


def clip_grad_norm(params: Iterable[Parameter], max_norm: float) -> float:
    """Clip the global gradient 2-norm in place; returns the pre-clip norm."""
    params = [p for p in params if p.grad is not None]
    if not params:
        return 0.0
    total = float(np.sqrt(sum(float((p.grad ** 2).sum()) for p in params)))
    if total > max_norm and total > 0:
        scale = max_norm / (total + 1e-12)
        for p in params:
            p.grad *= scale
    return total
