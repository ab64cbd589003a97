"""Chronological train/validation/test splitting of dynamic graphs.

TGNN evaluation is transductive and strictly chronological: the model trains
on the earliest events and is evaluated on later ones (the paper uses
60%/20%/20% splits, and caps large datasets at the most recent one million
events).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .temporal_graph import TemporalGraph

__all__ = ["TemporalSplit", "chronological_split"]


@dataclass
class TemporalSplit:
    """Index-based chronological split over a temporal graph."""

    graph: TemporalGraph
    train_idx: np.ndarray
    val_idx: np.ndarray
    test_idx: np.ndarray

    def __post_init__(self) -> None:
        for name in ("train_idx", "val_idx", "test_idx"):
            setattr(self, name, np.ascontiguousarray(getattr(self, name), dtype=np.int64))

    @property
    def num_train(self) -> int:
        return int(self.train_idx.size)

    @property
    def num_val(self) -> int:
        return int(self.val_idx.size)

    @property
    def num_test(self) -> int:
        return int(self.test_idx.size)

    def check_invariants(self) -> None:
        """Assert the split is disjoint, covering and chronological."""
        all_idx = np.concatenate([self.train_idx, self.val_idx, self.test_idx])
        assert all_idx.size == np.unique(all_idx).size, "split indices overlap"
        assert all_idx.size <= self.graph.num_edges, "split larger than graph"
        ts = self.graph.ts
        if self.num_train and self.num_val:
            assert ts[self.train_idx].max() <= ts[self.val_idx].min() + 1e-12, \
                "train events must precede validation events"
        if self.num_val and self.num_test:
            assert ts[self.val_idx].max() <= ts[self.test_idx].min() + 1e-12, \
                "validation events must precede test events"


def chronological_split(graph: TemporalGraph,
                        train_ratio: float = 0.6,
                        val_ratio: float = 0.2,
                        max_events: Optional[int] = None) -> TemporalSplit:
    """Split ``graph`` chronologically into train/val/test.

    Parameters
    ----------
    graph:
        Input dynamic graph (in time order, as every log is).
    train_ratio, val_ratio:
        Fractions of events for training and validation; the remainder is the
        test set.  Defaults follow the paper (60/20/20).
    max_events:
        When given, only the most recent ``max_events`` events are split
        (paper protocol for graphs with more than one million edges); earlier
        events remain in the graph as history for neighbor finding but are
        never used as supervision.
    """
    if not 0 < train_ratio < 1 or not 0 <= val_ratio < 1 or train_ratio + val_ratio >= 1:
        raise ValueError("invalid split ratios")
    e = graph.num_edges
    start = 0 if max_events is None or max_events >= e else e - max_events
    usable = e - start
    n_train = int(round(usable * train_ratio))
    n_val = int(round(usable * val_ratio))
    train_idx = np.arange(start, start + n_train)
    val_idx = np.arange(start + n_train, start + n_train + n_val)
    test_idx = np.arange(start + n_train + n_val, e)
    return TemporalSplit(graph=graph, train_idx=train_idx, val_idx=val_idx, test_idx=test_idx)
