"""Online link-prediction serving layer (micro-batched query engine).

See :mod:`repro.serve.engine` for the dataflow and the deterministic replay
contract, and :mod:`repro.serve.cache` for the bounded-staleness
node-embedding cache.
"""

from .cache import NodeEmbeddingCache
from .engine import (LinkQuery, ServeEngine, ServeResult, ServeStats,
                     VirtualClock, scores_hash)

__all__ = ["NodeEmbeddingCache", "LinkQuery", "ServeEngine", "ServeResult",
           "ServeStats", "VirtualClock", "scores_hash"]
