"""Temporal adaptive mini-batch selection (Section III-A, Eq. 10-11).

The baseline TGNN pipeline walks the training edges chronologically.  TASER
instead maintains an importance score ``P(e)`` per training edge and samples
each mini-batch from the distribution proportional to ``P``.  After the
forward pass the scores of the just-used positive edges are refreshed to
``sigmoid(logit) + gamma``: confidently-predicted (low-noise) edges get
larger scores, and the ``gamma`` floor keeps a uniform exploration component
so noisy-but-informative samples are never starved.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..utils.rng import new_rng

__all__ = ["MiniBatchSelector", "ChronologicalSelector", "AdaptiveMiniBatchSelector"]


class MiniBatchSelector:
    """Interface: yields arrays of *training-set-local* edge indices."""

    def __init__(self, num_train: int, batch_size: int) -> None:
        if num_train <= 0:
            raise ValueError("empty training set")
        if batch_size <= 0:
            raise ValueError("batch size must be positive")
        self.num_train = num_train
        self.batch_size = batch_size

    @property
    def num_batches(self) -> int:
        return (self.num_train + self.batch_size - 1) // self.batch_size

    def epoch(self) -> Iterator[np.ndarray]:
        """Yield the mini-batches of one epoch."""
        raise NotImplementedError

    def update(self, indices: np.ndarray, logits: np.ndarray) -> None:
        """Feed back the positive-edge logits of the last batch (no-op by default)."""


class ChronologicalSelector(MiniBatchSelector):
    """Baseline: consecutive chronological slices of the training set."""

    def epoch(self) -> Iterator[np.ndarray]:
        for start in range(0, self.num_train, self.batch_size):
            yield np.arange(start, min(start + self.batch_size, self.num_train),
                            dtype=np.int64)


class AdaptiveMiniBatchSelector(MiniBatchSelector):
    """Importance-proportional mini-batch sampling with logit feedback (Eq. 11)."""

    def __init__(self, num_train: int, batch_size: int, gamma: float = 0.1,
                 seed: int = 0) -> None:
        super().__init__(num_train, batch_size)
        if gamma < 0:
            raise ValueError("gamma must be non-negative")
        self.gamma = gamma
        self.rng = new_rng(seed)
        #: importance scores P, initialised uniformly (Section III-A).
        self.scores = np.ones(num_train, dtype=np.float64)

    # -- sampling -------------------------------------------------------------------

    def probabilities(self) -> np.ndarray:
        total = self.scores.sum()
        if total <= 0:
            return np.full(self.num_train, 1.0 / self.num_train)
        return self.scores / total

    def sample_batch(self) -> np.ndarray:
        """Draw one mini-batch ~ P (without replacement within the batch)."""
        size = min(self.batch_size, self.num_train)
        return self.rng.choice(self.num_train, size=size, replace=False,
                               p=self.probabilities())

    def epoch(self) -> Iterator[np.ndarray]:
        """One epoch = the same number of batches as the chronological baseline."""
        for _ in range(self.num_batches):
            yield self.sample_batch()

    # -- feedback (Eq. 11) -------------------------------------------------------------

    def update(self, indices: np.ndarray, logits: np.ndarray) -> None:
        """Refresh ``P(e) = sigmoid(logit_e) + gamma`` for the used positives."""
        indices = np.asarray(indices, dtype=np.int64)
        logits = np.asarray(logits, dtype=np.float64)
        if indices.shape != logits.shape:
            raise ValueError("indices and logits must align")
        self.scores[indices] = 1.0 / (1.0 + np.exp(-logits)) + self.gamma

    # -- diagnostics ----------------------------------------------------------------------

    def effective_sample_size(self) -> float:
        """ESS of the importance distribution (1 = one dominant edge, N = uniform)."""
        p = self.probabilities()
        return float(1.0 / np.sum(p ** 2))
