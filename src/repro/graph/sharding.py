"""Event-log sharding for data-parallel training (graph layer).

TGL-style distributed TGNN systems scale past one worker by *partitioning
the temporal edge log*: each worker owns one shard of the events, builds its
own T-CSR over them, and generates mini-batches independently; gradients are
synchronized at batch barriers.  :class:`TemporalShardPlan` is the graph
layer's half of that design — a deterministic, validated partition of a
:class:`~repro.graph.temporal_graph.TemporalGraph` into ``W`` shards.

Two partition policies are provided:

``temporal``
    ``W`` contiguous, near-equal chronological ranges.  Every shard is a
    dense slice of the timeline, so per-shard neighbor histories are
    complete *within the shard's era* — the right choice when the workload
    is dominated by recent-neighbor queries and drift is mild.

``hash``
    Events are routed by a deterministic hash of their **source node**, so
    all outgoing events of a node land in the same shard and per-source
    temporal neighborhoods stay intact.  Shard timelines interleave and
    per-shard event counts are only approximately balanced.

Invariants (asserted by :meth:`TemporalShardPlan.check_invariants` and the
test suite):

* every event of the source log belongs to **exactly one** shard;
* per-shard event indices are strictly increasing, so each shard view is
  in time order, as its source log is;
* the plan is a pure function of ``(graph, num_shards, policy)`` — no RNG.

A ``W = 1`` plan of either policy is the identity partition: its single
shard view contains every event in the original order, which is what makes
the sharded trainer's single-worker mode bitwise-identical to the
single-process trainer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from .temporal_graph import TemporalGraph

__all__ = ["SHARD_POLICIES", "ShardSpec", "TemporalShardPlan", "make_shard_plan"]

SHARD_POLICIES = ("temporal", "hash")

#: multiplicative constant of the Fibonacci/Knuth integer hash (2^64 / phi),
#: chosen over ``node_id % W`` so that consecutive source ids do not map to
#: consecutive shards (datasets commonly assign ids chronologically).
_HASH_MULTIPLIER = np.uint64(11400714819323198485)


@dataclass
class ShardSpec:
    """One shard of a :class:`TemporalShardPlan`."""

    #: shard position in ``[0, num_shards)``.
    index: int
    #: strictly-increasing indices into the source log's event arrays.
    event_indices: np.ndarray
    #: edge-feature cache capacity assigned from the global budget.
    cache_capacity: int = 0

    @property
    def num_events(self) -> int:
        return int(self.event_indices.size)


@dataclass
class TemporalShardPlan:
    """A deterministic partition of an event log into worker shards."""

    graph: TemporalGraph
    policy: str
    shards: List[ShardSpec] = field(default_factory=list)

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def shard_graph(self, index: int) -> TemporalGraph:
        """Materialise shard ``index`` as a :class:`TemporalGraph` view.

        The view keeps the full node universe (ids, node features), so node
        identity is global across shards — only the event rows are split.
        """
        return self.graph.select_events(self.shards[index].event_indices)

    def check_invariants(self) -> None:
        """Assert the partition is exact: disjoint, covering, chronological."""
        counts = np.zeros(self.graph.num_edges, dtype=np.int64)
        for shard in self.shards:
            idx = shard.event_indices
            assert idx.dtype == np.int64, "shard indices must be int64"
            if idx.size > 1:
                assert np.all(np.diff(idx) > 0), \
                    f"shard {shard.index} indices must be strictly increasing"
            np.add.at(counts, idx, 1)
        assert np.all(counts == 1), \
            "every event must belong to exactly one shard"

    def describe(self) -> Dict:
        """Machine-readable plan summary (used by the scaling benchmark)."""
        return {
            "policy": self.policy,
            "num_shards": self.num_shards,
            "num_events": self.graph.num_edges,
            "shard_events": [s.num_events for s in self.shards],
            "shard_cache_capacity": [s.cache_capacity for s in self.shards],
        }


def _apportion(total: int, weights: np.ndarray) -> np.ndarray:
    """Split an integer budget proportionally to ``weights`` (largest
    remainder), so per-shard slices sum exactly to ``total``."""
    weights = np.asarray(weights, dtype=np.float64)
    if total <= 0 or weights.sum() <= 0:
        return np.zeros(weights.size, dtype=np.int64)
    exact = total * weights / weights.sum()
    floors = np.floor(exact).astype(np.int64)
    remainder = int(total - floors.sum())
    if remainder:
        # Ties broken by shard index: deterministic.
        order = np.argsort(-(exact - floors), kind="stable")
        floors[order[:remainder]] += 1
    return floors


def make_shard_plan(graph: TemporalGraph, num_shards: int,
                    policy: str = "temporal",
                    cache_ratio: float = 0.0) -> TemporalShardPlan:
    """Partition ``graph`` into ``num_shards`` worker shards.

    Parameters
    ----------
    graph:
        Source event log (in time order, as every log is).
    num_shards:
        Number of workers ``W`` (>= 1).
    policy:
        ``"temporal"`` (contiguous chronological ranges) or ``"hash"``
        (route by source node, Fibonacci integer hash).
    cache_ratio:
        Fraction of the *global* edge count budgeted for VRAM feature
        caching; the integer budget ``round(cache_ratio * E)`` is split
        across shards proportionally to shard size (largest remainder), so
        ``W`` workers never hold more cached features than one worker would.
    """
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    if policy not in SHARD_POLICIES:
        raise ValueError(
            f"unknown shard policy {policy!r}: choose 'temporal' (contiguous "
            "chronological ranges) or 'hash' (route events by source node)")
    e = graph.num_edges
    if num_shards > max(e, 1):
        raise ValueError(
            f"cannot split {e} events into {num_shards} shards: every shard "
            "needs at least one event (reduce --workers)")

    if policy == "temporal" or num_shards == 1:
        bounds = np.linspace(0, e, num_shards + 1).round().astype(np.int64)
        index_lists = [np.arange(bounds[w], bounds[w + 1], dtype=np.int64)
                       for w in range(num_shards)]
    else:  # hash by source node
        hashed = (graph.src.astype(np.uint64) * _HASH_MULTIPLIER) >> np.uint64(32)
        owner = (hashed % np.uint64(num_shards)).astype(np.int64)
        index_lists = [np.nonzero(owner == w)[0].astype(np.int64)
                       for w in range(num_shards)]

    empty = [w for w, idx in enumerate(index_lists) if idx.size == 0]
    if empty:
        raise ValueError(
            f"shard(s) {empty} received no events under the {policy!r} policy "
            f"({e} events, {num_shards} shards); use fewer workers or the "
            "'temporal' policy, which balances counts exactly")

    budget = int(round(cache_ratio * e))
    capacities = _apportion(budget, np.array([idx.size for idx in index_lists]))
    shards = [ShardSpec(index=w, event_indices=index_lists[w],
                        cache_capacity=int(capacities[w]))
              for w in range(num_shards)]
    plan = TemporalShardPlan(graph=graph, policy=policy, shards=shards)
    plan.check_invariants()
    return plan
