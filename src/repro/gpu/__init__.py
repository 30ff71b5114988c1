"""Analytic GPU performance model.

No GPU is required (or used) anywhere in this library: the paper's
throughput experiments (Figs. 7-10) are regenerated from a calibrated
analytic model instead of wall-clock kernel timings.  The model has three
layers:

* :mod:`repro.gpu.device` — the hardware catalog (Table I of the paper)
  plus the Xeon Gold 6148 CPU reference.
* :mod:`repro.gpu.pcie` — host-device transfer times (16-lane PCIe 3.0 in
  the paper; NVLink available for what-if studies).
* :mod:`repro.gpu.kernel` — roofline-style kernel-time model for the
  compression codecs, calibrated against published cuZFP/SZ throughputs.
* :mod:`repro.gpu.runtime` — composes the above into the init / kernel /
  memcpy / free timelines of Fig. 7 and the throughput summaries of
  Figs. 8-10.
"""

from repro.gpu.device import (
    CPU_XEON_6148,
    GPU_CATALOG,
    V100,
    CPUSpec,
    GPUSpec,
)
from repro.gpu.kernel import (
    CodecKernelModel,
    cpu_throughput,
    kernel_time,
)
from repro.gpu.pcie import Interconnect, PCIE3_X16, NVLINK2, transfer_time
from repro.gpu.node import (
    InSituOverhead,
    NodeSpec,
    SUMMIT_NODE,
    node_insitu_overhead,
)
from repro.gpu.runtime import (
    GPUCompressionRun,
    TimelineStage,
    simulate_compression,
    simulate_decompression,
)

__all__ = [
    "GPUSpec",
    "CPUSpec",
    "GPU_CATALOG",
    "V100",
    "CPU_XEON_6148",
    "Interconnect",
    "PCIE3_X16",
    "NVLINK2",
    "transfer_time",
    "CodecKernelModel",
    "kernel_time",
    "cpu_throughput",
    "TimelineStage",
    "GPUCompressionRun",
    "simulate_compression",
    "simulate_decompression",
    "NodeSpec",
    "SUMMIT_NODE",
    "InSituOverhead",
    "node_insitu_overhead",
]
