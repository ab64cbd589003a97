"""Runtime-breakdown experiments (Fig. 1 and Table III).

The breakdown separates an epoch into the four phases of Table III:
``NF`` (neighbor finding), ``AS`` (adaptive neighbor sampling), ``FS``
(feature slicing) and ``PP`` (forward/backward propagation and optimiser
steps).  An epoch's ``runtime`` holds measured seconds only; the cost model's
simulated PCIe/VRAM transfer seconds are ``FeatureStore.snapshot()``'s, and
only the table view below adds the two (as ``FS_sim_seconds``).

Normalisation to simulated device seconds
-----------------------------------------
The paper runs the dense-compute phases (propagation, adaptive sampling and
the block-centric neighbor finder) on a GPU, while the baseline finders of
:mod:`repro.bench.finders` run on the host CPU and the feature slicing cost
is data movement.
This reproduction measures everything on a CPU with numpy, which inflates the
dense-compute phases by roughly two orders of magnitude relative to a GPU and
would flip the paper's ratios.  ``runtime_breakdown`` therefore converts the
device-side phases into *simulated device seconds* by dividing the measured
numpy time by ``device_speedup`` (default 64, an explicit and documented
calibration constant), while host-side phases (the baseline finders) keep
their measured wall-clock and feature slicing keeps its byte/row-level
cost model.  Only the *relative* structure of the resulting tables is
interpreted, never the absolute seconds.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from ..core import TaserConfig, TaserTrainer
from ..graph.temporal_graph import TemporalGraph
from ..sampling import GPUNeighborFinder
from .finders import OriginalNeighborFinder, use_finder

__all__ = ["BreakdownRow", "normalise_runtime", "runtime_breakdown",
           "system_configurations", "loss_trajectory_hash",
           "DEVICE_COMPUTE_SPEEDUP"]

#: default numpy-CPU -> simulated-GPU conversion factor for dense compute.
DEVICE_COMPUTE_SPEEDUP = 64.0


def normalise_runtime(runtime: Dict[str, float], finder: type,
                      device_speedup: float = DEVICE_COMPUTE_SPEEDUP
                      ) -> Dict[str, float]:
    """Convert one epoch's measured phase times to simulated device seconds.

    Applies the module-docstring normalisation to one epoch's runtime dict
    plus the store's ``simulated_seconds`` as ``FS_sim_seconds``: the
    dense-compute phases (PP, AS, and NF under ``GPUNeighborFinder``) are
    divided by ``device_speedup``; the host-side finders keep measured
    wall-clock, and feature slicing is the modelled ``FS_sim_seconds`` plus
    the device-converted measured gather time ``FS``.
    """
    if device_speedup <= 0:
        raise ValueError("device_speedup must be positive")
    nf = runtime.get("NF", 0.0)
    if issubclass(finder, GPUNeighborFinder):
        nf /= device_speedup
    return {
        "NF": nf,
        "AS": runtime.get("AS", 0.0) / device_speedup,
        "FS": (runtime.get("FS_sim_seconds", 0.0)
               + runtime.get("FS", 0.0) / device_speedup),
        "PP": runtime.get("PP", 0.0) / device_speedup,
    }


def loss_trajectory_hash(trajectories: List[List[float]]) -> str:
    """Stable digest of a per-epoch loss-trajectory list (full float repr).

    The digest of the fig1 and shard-scaling benchmarks' determinism
    pairs: two runs of the same config under the same seed must produce the
    same digest, and ``tools/bench_gate.py`` enforces each
    ``hash``/``replay_hash`` pair for equality.
    """
    blob = json.dumps(trajectories, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


@dataclass
class BreakdownRow:
    """One row of Table III: a system configuration and its per-epoch phases.

    Besides the four phase times, a row carries the prep-runtime gather
    statistics of the run (dedup ratio and unique-id counts from
    ``FeatureStore.snapshot()``) and a digest of the per-batch loss
    trajectory for run-vs-replay determinism checks.
    """

    label: str
    nf: float
    adaptive: float
    fs: float
    pp: float
    #: gather dedup ratio (requested candidate ids / unique ids gathered);
    #: 1.0 when the feature store exposes no dedup accounting.
    dedup_ratio: float = 1.0
    #: candidate id occurrences requested through the feature store.
    ids_requested: int = 0
    #: unique ids actually gathered at the dedup choke point.
    ids_unique: int = 0
    #: digest of the run's per-epoch batch-loss trajectories.
    loss_hash: str = ""
    #: per-epoch batch-loss trajectories (for replay comparisons).
    batch_losses: List[List[float]] = field(default_factory=list, repr=False)

    @property
    def total(self) -> float:
        return self.nf + self.adaptive + self.fs + self.pp

    @property
    def minibatch_generation_fraction(self) -> float:
        """Share of the epoch spent generating mini-batches (NF + FS)."""
        return (self.nf + self.fs) / self.total if self.total else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {"NF": self.nf, "AS": self.adaptive, "FS": self.fs, "PP": self.pp,
                "Total": self.total}


def per_row_targets(nodes: np.ndarray, times: np.ndarray) -> tuple:
    """Every row of a level is its own query: the original TGAT prep, which
    finds, slices and propagates repeated and padded rows alike."""
    return nodes, times, np.arange(nodes.size)


def runtime_breakdown(graph: TemporalGraph, config: TaserConfig, label: str,
                      epochs: int = 1,
                      device_speedup: float = DEVICE_COMPUTE_SPEEDUP,
                      warmup_epochs: int = 0,
                      finder: type = GPUNeighborFinder,
                      per_row: bool = False) -> BreakdownRow:
    """Train ``epochs`` epochs under ``config`` and average the phase times.

    The row's neighbor finder is the class ``finder``, swapped into the
    trainer before its first epoch (:func:`~repro.bench.finders.use_finder`).
    Dense-compute phases (PP, AS, and NF under the block-centric
    ``GPUNeighborFinder``) are divided by ``device_speedup`` to express them
    in simulated device seconds; see the module docstring.  With ``per_row``
    the trainer's levels keep every row (:func:`per_row_targets`), as Fig. 1's
    original TGAT does, instead of their distinct queries.

    The first ``warmup_epochs`` epochs (clamped to ``epochs - 1``) are
    *trained but not timed*: they advance the model and appear in the loss
    trajectory — so the determinism hashes are independent of warm-up — but
    their phase times are excluded from the averages.  The first epoch of a
    cell absorbs one-off costs the later epochs never pay (numpy/allocator
    warm-up, page-cache state left behind by whichever cell ran before it),
    and benches that compare cells against each other time only the steady
    state so run order cannot masquerade as a backend regression.
    """
    if device_speedup <= 0:
        raise ValueError("device_speedup must be positive")
    warmup = min(max(int(warmup_epochs), 0), epochs - 1)
    trainer = TaserTrainer(graph, config)
    use_finder(trainer, finder)
    if per_row:
        trainer.generator.distinct = per_row_targets
    totals = {"NF": 0.0, "AS": 0.0, "FS": 0.0, "FS_sim_seconds": 0.0,
              "PP": 0.0}
    ids_requested = 0
    ids_unique = 0
    trajectories: List[List[float]] = []
    for epoch in range(epochs):
        stats = trainer.train_epoch()
        # Per-epoch slice counters are still live right after train_epoch
        # (reset happens at the top of the next epoch).
        snap = trainer.feature_store.snapshot()
        if epoch >= warmup:
            runtime = dict(stats.runtime, FS_sim_seconds=snap.simulated_seconds)
            for key in totals:
                totals[key] += runtime.get(key, 0.0)
        trajectories.append(list(stats.batch_losses))
        ids_requested += snap.ids_requested
        ids_unique += snap.ids_unique
    # FS = modelled PCIe/VRAM transfer time plus the measured gather compute
    # converted to device seconds (the gather kernel runs on the GPU in the
    # paper); the deterministic transfer component dominates, so the cache
    # effect is not drowned by wall-clock jitter of the CPU gather.
    per_epoch = {key: value / (epochs - warmup) for key, value in totals.items()}
    phases = normalise_runtime(per_epoch, finder, device_speedup)
    dedup_ratio = (ids_requested / ids_unique) if ids_unique else 1.0
    return BreakdownRow(label=label, nf=phases["NF"], adaptive=phases["AS"],
                        fs=phases["FS"], pp=phases["PP"],
                        dedup_ratio=float(dedup_ratio),
                        ids_requested=ids_requested, ids_unique=ids_unique,
                        loss_hash=loss_trajectory_hash(trajectories),
                        batch_losses=trajectories)


def system_configurations(base: TaserConfig) -> List[tuple]:
    """The five ``(label, config, finder)`` rows of Table III, derived from a
    TASER base config; ``finder`` is the class :func:`runtime_breakdown`
    runs the row on.

    Baseline      original per-query CPU finder, no feature cache.
    +GPU NF       TASER's block-centric finder, still no cache.
    +10/20/30%    GPU finder plus the dynamic feature cache at that capacity.
    """
    from dataclasses import replace

    return [
        ("Baseline", replace(base, cache_ratio=0.0), OriginalNeighborFinder),
        ("+GPU NF", replace(base, cache_ratio=0.0), GPUNeighborFinder),
        ("+10% Cache", replace(base, cache_ratio=0.1), GPUNeighborFinder),
        ("+20% Cache", replace(base, cache_ratio=0.2), GPUNeighborFinder),
        ("+30% Cache", replace(base, cache_ratio=0.3), GPUNeighborFinder),
    ]
