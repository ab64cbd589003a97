"""Numpy-backed reverse-mode autograd engine (PyTorch substitute).

All ndarray math in the engine's forward/backward hot paths goes through the
one array runtime of :mod:`~repro.tensor.backend` (:func:`get_backend`).
"""

from .tensor import Tensor, concatenate, stack, where, no_grad, is_grad_enabled
from . import functional
from .backend import ReferenceBackend, get_backend
from .gradcheck import gradcheck, numerical_grad

__all__ = [
    "Tensor",
    "concatenate",
    "stack",
    "where",
    "no_grad",
    "is_grad_enabled",
    "functional",
    "gradcheck",
    "numerical_grad",
    "ReferenceBackend",
    "get_backend",
]
