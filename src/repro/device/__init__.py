"""Simulated GPU memory hierarchy: caches, feature store, cost model."""

from .costmodel import TransferCostModel
from .cache import (FeatureCache, DynamicFeatureCache, TieredFeatureCache,
                    OracleCache, StaticRandomCache, StaticDegreeCache)
from .memory import FeatureStore, SliceStats
from .precision import (PrecisionCodec, Fp32Codec, Fp16Codec, Int8Codec,
                        PrecisionPolicy, PRECISION_TIERS,
                        resolve_precision_name, roundtrip_rows,
                        DEFAULT_PRECISION, PRECISION_ENV_VAR)

__all__ = [
    "TransferCostModel",
    "FeatureCache",
    "DynamicFeatureCache",
    "TieredFeatureCache",
    "OracleCache",
    "StaticRandomCache",
    "StaticDegreeCache",
    "FeatureStore",
    "SliceStats",
    "PrecisionCodec",
    "Fp32Codec",
    "Fp16Codec",
    "Int8Codec",
    "PrecisionPolicy",
    "PRECISION_TIERS",
    "resolve_precision_name",
    "roundtrip_rows",
    "DEFAULT_PRECISION",
    "PRECISION_ENV_VAR",
]
