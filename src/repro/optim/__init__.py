"""The Adam optimiser and gradient clipping."""

from .optimizers import Optimizer, Adam, clip_grad_norm

__all__ = ["Optimizer", "Adam", "clip_grad_norm"]
