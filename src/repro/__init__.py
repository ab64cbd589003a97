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

Allocator policy
----------------
Importing ``repro`` also sets three glibc ``mallopt`` parameters, once:

* ``M_MMAP_THRESHOLD`` = 32 MB and ``M_TRIM_THRESHOLD`` = 64 MB — the
  ceiling glibc's own dynamic threshold climbs to, fixed from the start.  A
  step's graph dies at its last use (a backward consumes it), so the heap top
  is free between steps; with glibc's defaults it would be trimmed after
  each step and faulted back in by the next, and a multi-MB temporary below
  the dynamic threshold would be a fresh ``mmap`` each time.
* ``M_ARENA_MAX`` = 1 — every thread allocates from the main arena.  With an
  arena per thread each scoring thread keeps its own freed pages, and peak
  RSS grows by one tile's working set per thread.

The policy is skipped on a libc other than glibc, and when the environment
already sets a glibc malloc tunable (``MALLOC_ARENA_MAX``,
``MALLOC_MMAP_THRESHOLD_``, ``MALLOC_TRIM_THRESHOLD_`` or
``GLIBC_TUNABLES``): the caller's choice wins.  :data:`ALLOCATOR_POLICY`
records what was applied or why nothing was; ``repro train|stream|serve``
report it in their JSON results.
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

#: the allocator policy as ``mallopt`` parameters of glibc's ``<malloc.h>``:
#: ``(name, param, value)``.
_MALLOC_POLICY = (("M_MMAP_THRESHOLD", -3, 32 << 20),
                  ("M_TRIM_THRESHOLD", -1, 64 << 20),
                  ("M_ARENA_MAX", -8, 1))
_MALLOC_TUNABLES = ("MALLOC_ARENA_MAX", "MALLOC_MMAP_THRESHOLD_",
                    "MALLOC_TRIM_THRESHOLD_", "GLIBC_TUNABLES")


def _apply_allocator_policy() -> dict:
    """Apply the allocator policy (see "Allocator policy" above) unless the
    libc is not glibc or the environment tunes glibc malloc itself; return
    the record of what happened."""
    try:
        libc = _os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):
        libc = None
    if not libc:
        return {"applied": False, "reason": "libc is not glibc"}
    preset = [var for var in _MALLOC_TUNABLES if var in _os.environ]
    if preset:
        return {"applied": False, "libc": libc,
                "reason": "environment sets " + ", ".join(preset)}
    import ctypes
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    settings = {name: value for name, param, value in _MALLOC_POLICY
                if mallopt(param, value) == 1}
    return {"applied": len(settings) == len(_MALLOC_POLICY), "libc": libc,
            "settings": settings}


#: what the allocator policy did at import: ``applied``, the ``libc``, and the
#: ``settings`` it made or the ``reason`` it made none.
ALLOCATOR_POLICY = _apply_allocator_policy()

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
    "ALLOCATOR_POLICY", "__version__",
]
