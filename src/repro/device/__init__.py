"""Simulated GPU memory hierarchy: caches, feature store, cost model."""

from .costmodel import TransferCostModel
from .cache import (FeatureCache, DynamicFeatureCache, OracleCache,
                    StaticRandomCache, StaticDegreeCache)
from .memory import FeatureStore, SliceStats

__all__ = [
    "TransferCostModel",
    "FeatureCache",
    "DynamicFeatureCache",
    "OracleCache",
    "StaticRandomCache",
    "StaticDegreeCache",
    "FeatureStore",
    "SliceStats",
]
