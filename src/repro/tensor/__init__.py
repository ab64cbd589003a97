"""Numpy-backed reverse-mode autograd engine (PyTorch substitute).

All ndarray math in the engine's forward/backward hot paths goes through the
one array runtime of :mod:`~repro.tensor.backend` (:func:`get_backend`).

Numeric types
-------------
:data:`COMPUTE_DTYPE` is the one dtype of every model quantity — parameters,
gathered features, encodings, activations, gradients, optimiser moments.  Two
rules keep it that way without a switch: kernels and autograd never name a
dtype (every result takes the dtype of its floating inputs), and the
boundaries that turn non-array or stored data into model quantities
(:class:`Tensor` construction from Python numbers, ``Parameter``, the
encoders, the precision codecs, the feature store) read this constant *at
call time*.  It is not configuration: the program runs float32 and nothing
else; the test suite rebinds it to double precision while it builds the
modules whose gradients it checks (:mod:`~repro.tensor.gradcheck`), and those
arrays then flow through the same kernels.  See "Numeric types" in
``docs/ARCHITECTURE.md``.
"""

import numpy as np

#: dtype of every model quantity; read as ``repro.tensor.COMPUTE_DTYPE`` at
#: call time, never copied into another module's namespace.
COMPUTE_DTYPE = np.float32

from .tensor import Tensor, concatenate, stack, where, no_grad, is_grad_enabled
from . import functional
from .backend import MixedDtypeError, ReferenceBackend, get_backend
from .gradcheck import GradcheckDtypeError, gradcheck, numerical_grad

__all__ = [
    "COMPUTE_DTYPE",
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
    "MixedDtypeError",
    "GradcheckDtypeError",
    "get_backend",
]
