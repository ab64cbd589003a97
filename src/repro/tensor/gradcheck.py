"""Finite-difference gradient checking for the autograd engine.

Used by the test suite to validate every backward rule against a numerical
Jacobian-vector product.  The check perturbs each input element in turn, so it
is only intended for small tensors.

Central differences with ``eps = 1e-6`` need float64: the check casts nothing
— it runs the function through the very kernels the float32 program runs —
and refuses an input of any other dtype by name (:class:`GradcheckDtypeError`)
instead of comparing noise.  A test gets float64 modules by rebinding
``repro.tensor.COMPUTE_DTYPE`` while it constructs them.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .tensor import Tensor

__all__ = ["gradcheck", "numerical_grad", "GradcheckDtypeError"]


class GradcheckDtypeError(TypeError):
    """A gradient check was handed an input that is not float64."""


def _require_float64(inputs: Sequence[Tensor]) -> None:
    for i, t in enumerate(inputs):
        if t.data.dtype != np.float64:
            raise GradcheckDtypeError(
                f"gradcheck input {i} is {t.data.dtype}, not float64: finite "
                "differences at eps ~ 1e-6 are noise in a narrower type")


def numerical_grad(fn: Callable[..., Tensor], inputs: Sequence[Tensor],
                   index: int, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of ``sum(fn(*inputs))`` w.r.t. ``inputs[index]``."""
    _require_float64(inputs)
    base = inputs[index].data
    grad = np.zeros_like(base)
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
    _require_float64(inputs)
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
