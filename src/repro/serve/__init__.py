"""Online link-prediction serving layer (micro-batched query engine).

See :mod:`repro.serve.engine` for the dataflow and the deterministic replay
contract.
"""

from .engine import (LinkQuery, ServeEngine, ServeResult, ServeStats,
                     VirtualClock, scores_hash)

__all__ = ["LinkQuery", "ServeEngine", "ServeResult", "ServeStats",
           "VirtualClock", "scores_hash"]
