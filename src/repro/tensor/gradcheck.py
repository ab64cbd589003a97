"""Finite-difference gradient checking for the autograd engine.

Used by the test suite to validate every backward rule against a numerical
Jacobian-vector product.  The check perturbs each input element in turn, so it
is only intended for small tensors.
"""

from __future__ import annotations

from typing import Callable, Sequence, Tuple

import numpy as np

from .tensor import Tensor

__all__ = ["gradcheck", "numerical_grad"]


def numerical_grad(fn: Callable[..., Tensor], inputs: Sequence[Tensor],
                   index: int, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of ``sum(fn(*inputs))`` w.r.t. ``inputs[index]``."""
    base = inputs[index].data
    grad = np.zeros_like(base, dtype=np.float64)
    it = np.nditer(base, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = base[idx]
        base[idx] = orig + eps
        plus = float(fn(*inputs).data.sum())
        base[idx] = orig - eps
        minus = float(fn(*inputs).data.sum())
        base[idx] = orig
        grad[idx] = (plus - minus) / (2.0 * eps)
        it.iternext()
    return grad


def gradcheck(fn: Callable[..., Tensor], inputs: Sequence[Tensor],
              eps: float = 1e-6, atol: float = 1e-4, rtol: float = 1e-3) -> bool:
    """Return True when analytic and numerical gradients agree for all inputs.

    Raises ``AssertionError`` with a diagnostic message on mismatch so pytest
    failures point at the offending operand.
    """
    for t in inputs:
        t.zero_grad()
    out = fn(*inputs)
    out.backward(np.ones_like(out.data))
    for i, t in enumerate(inputs):
        if not t.requires_grad:
            continue
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        numeric = numerical_grad(fn, list(inputs), i, eps=eps)
        if not np.allclose(analytic, numeric, atol=atol, rtol=rtol):
            diff = np.abs(analytic - numeric).max()
            raise AssertionError(
                f"gradcheck failed for input {i}: max abs diff {diff:.3e}\n"
                f"analytic:\n{analytic}\nnumeric:\n{numeric}"
            )
    return True
