"""TASER core: adaptive mini-batch selection, adaptive neighbor sampling,
sample losses, the unified batch-prep runtime (``repro.core.prep``), the
batch engines and the end-to-end trainer."""

from .config import TaserConfig, asdict_shallow
from .minibatch_selector import (MiniBatchSelector, ChronologicalSelector,
                                 AdaptiveMiniBatchSelector)
from .decoders import (NeighborDecoder, LinearDecoder, GATDecoder, GATv2Decoder,
                       TransformerDecoder, make_decoder)
from .neighbor_sampler import AdaptiveNeighborSampler, NeighborSelection
from .sample_loss import (sensitivity_sample_loss, tgat_analytic_sample_loss,
                          build_sample_loss)
from .pipeline import MiniBatchGenerator, CandidateSlice
from .prep import PreparedBatch, PrepPipeline
from .prefetcher import (BatchEngine, AOTBatchEngine, make_engine,
                         plan_capability, ENGINE_MODES)
from .trainer import TaserTrainer, TrainResult, EpochStats
from .streaming import (EventChunk, EventStream, split_warmup, StreamStats,
                        StreamResult, StreamingTrainer)

__all__ = [
    "EventChunk",
    "EventStream",
    "split_warmup",
    "StreamStats",
    "StreamResult",
    "StreamingTrainer",
    "CandidateSlice",
    "PreparedBatch",
    "PrepPipeline",
    "BatchEngine",
    "AOTBatchEngine",
    "make_engine",
    "plan_capability",
    "ENGINE_MODES",
    "TaserConfig",
    "asdict_shallow",
    "MiniBatchSelector",
    "ChronologicalSelector",
    "AdaptiveMiniBatchSelector",
    "NeighborDecoder",
    "LinearDecoder",
    "GATDecoder",
    "GATv2Decoder",
    "TransformerDecoder",
    "make_decoder",
    "AdaptiveNeighborSampler",
    "NeighborSelection",
    "sensitivity_sample_loss",
    "tgat_analytic_sample_loss",
    "build_sample_loss",
    "MiniBatchGenerator",
    "TaserTrainer",
    "TrainResult",
    "EpochStats",
]
