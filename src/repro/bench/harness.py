"""Benchmark harness shared by the ``benchmarks/`` suite.

Each paper table/figure has a dedicated benchmark module; this harness holds
the pieces they share: building a trainer for a named dataset + method
variant, formatting result tables, and the runtime-breakdown experiment of
Fig. 1 / Table III.

Scale control
-------------
The benchmark defaults are sized so the whole suite finishes on a laptop CPU
in minutes.  Environment variables scale them up toward the paper's setting:

``REPRO_BENCH_SCALE``   multiplies dataset sizes (default 1.0).
``REPRO_BENCH_EPOCHS``  overrides the number of training epochs.
``REPRO_BENCH_DATASETS`` comma-separated dataset list for the accuracy table.
``REPRO_BENCH_OUTPUT``  directory for the machine-readable ``BENCH_*.json``
                        result files (default: current working directory).

Machine-readable results
------------------------
:func:`emit_bench_json` writes each benchmark's results as ``BENCH_<name>.json``
so CI can upload them as artifacts and future PRs can track the performance
trajectory.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..core import TaserConfig, TaserTrainer, TrainResult
from ..graph import load_dataset
from ..graph.temporal_graph import TemporalGraph

__all__ = [
    "bench_scale",
    "bench_epochs",
    "bench_datasets",
    "bench_output_dir",
    "emit_bench_json",
    "quick_config",
    "variant_config",
    "VARIANTS",
    "run_variant",
    "format_table",
    "geometric_mean",
    "attach_scaling_efficiency",
    "EFFICIENCY_TOLERANCE",
]

#: allowed slack on per-worker scaling efficiency before it is flagged as a
#: measurement artifact.  Efficiency is ``speedup / W`` against the ``W=1``
#: baseline; values meaningfully above 1.0 mean the baseline was mis-measured
#: (e.g. it paid one-time process warm-up costs the other cells did not — the
#: exact bug documented in docs/BENCHMARKS.md under "Warm-up ordering"), not
#: that the hardware scaled superlinearly.
EFFICIENCY_TOLERANCE = 0.15

#: the four method rows of Table I: (adaptive_minibatch, adaptive_neighbor).
VARIANTS: Dict[str, Tuple[bool, bool]] = {
    "Baseline": (False, False),
    "w/ Ada. Mini-Batch": (True, False),
    "w/ Ada. Neighbor": (False, True),
    "TASER": (True, True),
}


def bench_scale() -> float:
    """Dataset-size multiplier from the environment (default 1.0)."""
    return float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def bench_epochs(default: int) -> int:
    """Training epochs, overridable via ``REPRO_BENCH_EPOCHS``."""
    return int(os.environ.get("REPRO_BENCH_EPOCHS", str(default)))


def bench_datasets(default: Sequence[str]) -> List[str]:
    """Datasets used by the accuracy benchmarks (``REPRO_BENCH_DATASETS``)."""
    raw = os.environ.get("REPRO_BENCH_DATASETS")
    if not raw:
        return list(default)
    return [name.strip() for name in raw.split(",") if name.strip()]


def bench_output_dir() -> Path:
    """Directory the ``BENCH_*.json`` result files are written to."""
    return Path(os.environ.get("REPRO_BENCH_OUTPUT", "."))


def emit_bench_json(name: str, payload: Dict) -> Path:
    """Write one benchmark's results as machine-readable ``BENCH_<name>.json``.

    The payload is wrapped with the run's scale so CI artifacts from
    different runs are comparable.
    """
    record = {
        "benchmark": name,
        "scale": bench_scale(),
        "unix_time": time.time(),
        "results": payload,
    }
    path = bench_output_dir() / f"BENCH_{name}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=2, sort_keys=True, default=float) + "\n")
    return path


def quick_config(backbone: str = "graphmixer", **overrides) -> TaserConfig:
    """CPU-sized TASER configuration used across the benchmark suite.

    Every field can be overridden; ``epochs`` additionally honours
    ``REPRO_BENCH_EPOCHS``.
    """
    base = dict(
        backbone=backbone,
        hidden_dim=16,
        time_dim=8,
        num_neighbors=5,
        num_candidates=10,
        batch_size=200,
        epochs=bench_epochs(5),
        max_batches_per_epoch=12,
        lr=2e-3,
        sampler_lr=1e-3,
        dropout=0.0,
        eval_max_edges=200,
        eval_negatives=49,
        cache_ratio=0.2,
    )
    base.update(overrides)
    return TaserConfig(**base)


def variant_config(variant: str, backbone: str, **overrides) -> TaserConfig:
    """Configuration of one Table-I row."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; choose from {list(VARIANTS)}")
    adaptive_minibatch, adaptive_neighbor = VARIANTS[variant]
    return quick_config(backbone=backbone, adaptive_minibatch=adaptive_minibatch,
                        adaptive_neighbor=adaptive_neighbor, **overrides)


def run_variant(dataset: str, variant: str, backbone: str, seed: int = 0,
                graph: Optional[TemporalGraph] = None,
                **overrides) -> TrainResult:
    """Train one (dataset, variant, backbone) cell and return its result."""
    graph = graph if graph is not None else load_dataset(dataset, scale=bench_scale(),
                                                         seed=seed)
    config = variant_config(variant, backbone, seed=seed, **overrides)
    trainer = TaserTrainer(graph, config)
    return trainer.fit(evaluate_val=False)


def attach_scaling_efficiency(workers: Dict[str, Dict],
                              tolerance: float = EFFICIENCY_TOLERANCE) -> List[str]:
    """Fill in ``speedup_vs_w1`` / ``efficiency`` and sanity-check them.

    ``workers`` maps the worker count (as a string, the JSON key) to a cell
    dict carrying ``trained_events_per_second``; each cell gains its speedup
    over the ``"1"`` cell and the per-worker efficiency ``speedup / W``.

    Returns a list of human-readable violations for every cell whose
    efficiency exceeds ``1.0 + tolerance``.  Parallel speedup cannot beat
    ``W`` on real work, so super-tolerance efficiency is evidence that the
    baseline cell was mis-measured (see ``EFFICIENCY_TOLERANCE``); callers
    decide whether to assert (scaled benchmark runs) or warn (noisy smoke
    runs).
    """
    if "1" not in workers:
        raise ValueError("workers must contain the W=1 baseline cell '1'")
    base = float(workers["1"]["trained_events_per_second"])
    violations: List[str] = []
    for key, entry in workers.items():
        w = int(key)
        throughput = float(entry["trained_events_per_second"])
        speedup = throughput / base if base else float("inf")
        entry["speedup_vs_w1"] = speedup
        entry["efficiency"] = speedup / w
        if entry["efficiency"] > 1.0 + tolerance:
            violations.append(
                f"W={w}: efficiency {entry['efficiency']:.2f} > "
                f"{1.0 + tolerance:.2f} — the W=1 baseline is likely "
                "mis-measured (missing warm-up?)")
    return violations


def geometric_mean(values: Iterable[float]) -> float:
    vals = np.asarray(list(values), dtype=np.float64)
    if vals.size == 0 or np.any(vals <= 0):
        return float("nan")
    return float(np.exp(np.log(vals).mean()))


def format_table(rows: Dict[str, Dict[str, float]], value_format: str = "{:.4f}",
                 title: str = "") -> str:
    """Render a nested dict as an aligned text table (rows x columns)."""
    columns = sorted({c for cols in rows.values() for c in cols})
    header = [""] + columns
    lines = []
    if title:
        lines.append(title)
    widths = [max(len(str(r)) for r in list(rows) + [""]) + 2] + \
        [max(len(c), 10) + 2 for c in columns]
    lines.append("".join(h.ljust(w) for h, w in zip(header, widths)))
    for name, cols in rows.items():
        cells = [str(name).ljust(widths[0])]
        for col, width in zip(columns, widths[1:]):
            value = cols.get(col)
            cell = "-" if value is None else value_format.format(value)
            cells.append(cell.ljust(width))
        lines.append("".join(cells))
    return "\n".join(lines)
