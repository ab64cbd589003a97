"""Benchmark harness: shared configuration and runtime-breakdown tooling."""

from .harness import (bench_scale, bench_epochs, bench_datasets,
                      bench_output_dir, emit_bench_json, quick_config,
                      variant_config, VARIANTS, run_variant, format_table,
                      attach_scaling_efficiency, EFFICIENCY_TOLERANCE)
from .breakdown import (BreakdownRow, normalise_runtime, runtime_breakdown,
                        system_configurations)

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
    "attach_scaling_efficiency",
    "EFFICIENCY_TOLERANCE",
    "BreakdownRow",
    "normalise_runtime",
    "runtime_breakdown",
    "system_configurations",
]
