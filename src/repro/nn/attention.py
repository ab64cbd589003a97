"""Parameters of the multi-head attention inside the TGAT aggregator.

TGAT (Eq. 4-7 of the paper) attends from a single query (the target node at
time ``t``) over the messages of its sampled temporal neighborhood, with a
per-neighbor validity mask so padded neighborhoods (nodes with fewer
historical interactions than the budget) are excluded.

The whole aggregate — time encoding, messages, the score → masked-softmax →
weighted-sum chain here, output projection and merge — is one graph node
(:func:`repro.tensor.functional.temporal_attention`) over a kernel pair of
the array runtime, so this module only owns the attention's parameters and its
dropout generator.  The composition of ``Linear`` / batched-matmul /
``masked_softmax`` nodes the kernel replaces is the oracle of
``tests/test_tensor_ops.py``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .layers import Dropout, Linear
from .module import Module

__all__ = ["TemporalAttention"]


class TemporalAttention(Module):
    """Multi-head attention of one target query over its neighbor messages.

    This is the COMB function of the TGAT aggregator: the query is built from
    the target node state concatenated with the zero time-encoding, while keys
    and values are built from the neighbor messages (Eq. 4-6).  A parameter
    container: :class:`repro.models.TGAT` hands ``w_q`` / ``w_k`` / ``w_v`` /
    ``w_out`` to the aggregate's node and draws ``drop``'s keep-mask for the
    ``(B, out_dim)`` projection output.
    """

    def __init__(self, query_dim: int, message_dim: int, out_dim: int,
                 num_heads: int = 2, dropout: float = 0.1,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if out_dim % num_heads != 0:
            raise ValueError(f"out_dim ({out_dim}) must be divisible by num_heads ({num_heads})")
        rng = rng if rng is not None else np.random.default_rng()
        self.num_heads = num_heads
        self.head_dim = out_dim // num_heads
        self.out_dim = out_dim
        self.w_q = Linear(query_dim, out_dim, rng=rng)
        self.w_k = Linear(message_dim, out_dim, rng=rng)
        self.w_v = Linear(message_dim, out_dim, rng=rng)
        self.w_out = Linear(out_dim, out_dim, rng=rng)
        self.drop = Dropout(dropout, rng=rng)
