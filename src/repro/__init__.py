"""repro — a full reproduction of TASER (IPDPS 2024).

TASER: Temporal Adaptive Sampling for Fast and Accurate Dynamic Graph
Representation Learning.  The package contains every substrate the paper
depends on (autograd engine, TGNN backbones, temporal-graph containers and
generators, neighbor finders, a simulated GPU memory hierarchy) plus the
paper's contribution (adaptive mini-batch selection, adaptive neighbor
sampling, the GPU neighbor finder and the dynamic feature cache).

Quickstart
----------
>>> from repro import load_dataset, TaserConfig, TaserTrainer
>>> graph = load_dataset("wikipedia")
>>> trainer = TaserTrainer(graph, TaserConfig(backbone="tgat", epochs=3))
>>> result = trainer.fit()
>>> round(result.test_mrr, 3)  # doctest: +SKIP

BLAS runs on one thread unless the environment says otherwise: importing
``repro`` before numpy defaults ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS``
and ``MKL_NUM_THREADS`` to 1.  Multi-threaded OpenBLAS stalls on the float32
GEMMs of a training step, and its threads would fight the evaluator's
scoring threads for the same cores.
"""

import os as _os
import sys as _sys

_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" not in _sys.modules:
    for _var in _BLAS_VARS:
        _os.environ.setdefault(_var, "1")


def _blas_threads_at_import():
    """Threads BLAS was told to use, or ``None`` when nothing told it (numpy
    loaded before ``repro`` with no thread variable set: every CPU)."""
    counts = []
    for var in _BLAS_VARS:
        try:
            count = int(_os.environ[var])
        except (KeyError, ValueError):
            continue
        if count > 0:
            counts.append(count)
    return max(counts) if counts else None


#: BLAS threads ``repro`` saw when it was imported; sizes the scoring pool.
_BLAS_THREADS = _blas_threads_at_import()

from .graph import (TemporalGraph, TCSR, build_tcsr, CTDGConfig, generate_ctdg,
                    load_dataset, dataset_config, dataset_table, DATASET_NAMES,
                    chronological_split, TemporalSplit)
from .core import (TaserConfig, TaserTrainer, TrainResult,
                   AdaptiveMiniBatchSelector, AdaptiveNeighborSampler,
                   MiniBatchGenerator)
from .models import TGAT, GraphMixer, EdgePredictor, make_backbone
from .sampling import GPUNeighborFinder, NeighborBatch
from .device import (DynamicFeatureCache, OracleCache, FeatureStore,
                     TransferCostModel)
from .eval import LinkPredictionEvaluator, mrr

__version__ = "1.1.0"

__all__ = [
    "TemporalGraph", "TCSR", "build_tcsr", "CTDGConfig", "generate_ctdg",
    "load_dataset", "dataset_config", "dataset_table", "DATASET_NAMES",
    "chronological_split", "TemporalSplit",
    "TaserConfig", "TaserTrainer", "TrainResult",
    "AdaptiveMiniBatchSelector", "AdaptiveNeighborSampler", "MiniBatchGenerator",
    "TGAT", "GraphMixer", "EdgePredictor", "make_backbone",
    "GPUNeighborFinder", "NeighborBatch",
    "DynamicFeatureCache", "OracleCache", "FeatureStore", "TransferCostModel",
    "LinkPredictionEvaluator", "mrr",
    "__version__",
]
