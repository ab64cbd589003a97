"""Identity encoding (Eq. 13): distinguish equal-frequency neighbors.

For a neighborhood ``{(u_1, t_1), ..., (u_m, t_m)}`` sorted by recency, the
identity encoding of neighbor ``j`` is the indicator vector
``IE(u_j, i) = 1[u_j == u_i]`` over all positions ``i``.  Two neighbors that
are the *same node* appearing at different timestamps share an identical
row/column pattern, letting the sampler recognise recurrences even when their
frequencies coincide with other nodes'.
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

from .. import tensor as _tensor
from ..nn.module import Module
from ..tensor import Tensor

__all__ = ["IdentityEncoder", "sort_by_recency"]


def sort_by_recency(nodes: np.ndarray, times: np.ndarray, mask: np.ndarray
                    ) -> np.ndarray:
    """Column permutation sorting each neighborhood by decreasing timestamp.

    Padded (invalid) entries are pushed to the end.  Returns an integer array
    of shape ``(B, m)`` usable with ``np.take_along_axis`` /
    :meth:`repro.sampling.NeighborBatch.select`.
    """
    # Invalid entries get -inf so they sort last under descending order.
    keyed = np.where(mask, times, -np.inf)
    return np.argsort(-keyed, axis=1, kind="stable")


class IdentityEncoder(Module):
    """Pairwise same-node indicator encoding of a sampled neighborhood."""

    def __init__(self, budget: int) -> None:
        super().__init__()
        if budget <= 0:
            raise ValueError("budget must be positive")
        self.budget = budget

    def forward(self, nodes: Union[np.ndarray, Tensor],
                mask: Union[np.ndarray, None] = None) -> Tensor:
        """Encode neighbor identities.

        Parameters
        ----------
        nodes:
            ``(B, m)`` neighbor node ids (ideally recency-sorted).
        mask:
            optional ``(B, m)`` validity mask; padded entries produce
            all-zero rows and columns.

        Returns
        -------
        Tensor of shape ``(B, m, m)`` where entry ``[b, j, i]`` is 1 when
        neighbors ``j`` and ``i`` of root ``b`` are the same node.
        """
        ids = np.asarray(nodes.data if isinstance(nodes, Tensor) else nodes, dtype=np.int64)
        if ids.ndim != 2 or ids.shape[1] != self.budget:
            raise ValueError(f"expected (B, {self.budget}) node ids, got {ids.shape}")
        same = ids[:, :, None] == ids[:, None, :]
        if mask is not None:
            m = np.asarray(mask, dtype=bool)
            same = same & m[:, :, None] & m[:, None, :]
        return Tensor(same.astype(_tensor.COMPUTE_DTYPE))
