"""Cost model of the simulated CPU-GPU memory hierarchy.

The original system measures wall-clock time of real PCIe transfers and VRAM
reads.  Without a GPU we account the *bytes moved on each path* and convert
them to seconds with a simple linear latency/bandwidth model.  The defaults
approximate the paper's testbed (PCIe 4.0 x16 host-to-device zero-copy
reads vs. GDDR6 VRAM reads), but the benchmark conclusions only depend on the
ratio between the two paths, not the absolute constants.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["TransferCostModel"]


@dataclass(frozen=True)
class TransferCostModel:
    """Linear time model for data movement in the simulated hierarchy.

    Feature slicing gathers *individual rows* scattered across the feature
    matrix, so the dominant cost of zero-copy PCIe access is not the raw
    bandwidth but the per-row transaction overhead (each row is a separate
    small, random read across the interconnect).  The model therefore charges
    ``rows * row_overhead + bytes / bandwidth + latency`` per request on each
    path.
    """

    #: effective PCIe zero-copy read bandwidth (bytes/second).  Zero-copy access
    #: over PCIe reaches only a fraction of the theoretical 32 GB/s link rate.
    pcie_bandwidth: float = 12e9
    #: effective VRAM read bandwidth for cache hits (bytes/second).
    vram_bandwidth: float = 700e9
    #: fixed per-request latency of a host-memory (zero-copy) access batch (seconds).
    pcie_latency: float = 20e-6
    #: fixed per-request latency of a VRAM access batch (seconds).
    vram_latency: float = 2e-6
    #: per-row overhead of a random zero-copy host read (seconds/row).
    pcie_row_overhead: float = 4e-7
    #: per-row overhead of a VRAM gather (seconds/row).
    vram_row_overhead: float = 1e-8

    def pcie_time(self, num_bytes: float, num_rows: float = 0.0,
                  num_requests: int = 1) -> float:
        """Seconds to read ``num_rows`` rows / ``num_bytes`` over PCIe (zero-copy)."""
        if num_bytes < 0 or num_rows < 0:
            raise ValueError("num_bytes and num_rows must be non-negative")
        return (num_requests * self.pcie_latency + num_rows * self.pcie_row_overhead
                + num_bytes / self.pcie_bandwidth)

    def vram_time(self, num_bytes: float, num_rows: float = 0.0,
                  num_requests: int = 1) -> float:
        """Seconds to read ``num_rows`` rows / ``num_bytes`` from the VRAM cache."""
        if num_bytes < 0 or num_rows < 0:
            raise ValueError("num_bytes and num_rows must be non-negative")
        return (num_requests * self.vram_latency + num_rows * self.vram_row_overhead
                + num_bytes / self.vram_bandwidth)
