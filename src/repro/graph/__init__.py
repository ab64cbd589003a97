"""Dynamic-graph substrate: event lists, T-CSR, generators, noise, splits."""

from .temporal_graph import TemporalGraph
from .tcsr import TCSR, build_tcsr, StreamingTCSR
from .generators import CTDGConfig, generate_ctdg, generate_drift_sequence
from .datasets import DATASET_NAMES, dataset_config, load_dataset, dataset_table
from .noise import NoiseReport, measure_noise, inject_random_edges
from .splits import TemporalSplit, chronological_split
from .sharding import (SHARD_POLICIES, ShardSpec, TemporalShardPlan,
                       make_shard_plan)

__all__ = [
    "SHARD_POLICIES",
    "ShardSpec",
    "TemporalShardPlan",
    "make_shard_plan",
    "TemporalGraph",
    "TCSR",
    "build_tcsr",
    "StreamingTCSR",
    "CTDGConfig",
    "generate_ctdg",
    "generate_drift_sequence",
    "DATASET_NAMES",
    "dataset_config",
    "load_dataset",
    "dataset_table",
    "NoiseReport",
    "measure_noise",
    "inject_random_edges",
    "TemporalSplit",
    "chronological_split",
]
