"""Hardware catalog: the GPUs of Table I and the reference CPU.

Values are transcribed from Table I of the paper ("Specifications of
Different GPUs Used in Our Experiments").  The K80 is a dual-chip board;
per the paper's footnotes its shader count, peak performance and
bandwidth are per chip x2 — the model uses a single chip (the paper's
kernels run on one), with :attr:`GPUSpec.dual_chip` recording the fact.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class GPUSpec:
    """One row of Table I."""

    name: str
    release_year: int
    architecture: str
    compute_capability: str
    memory_gb: float
    memory_type: str
    shaders: int
    peak_tflops_fp32: float
    mem_bandwidth_gbps: float
    dual_chip: bool = False

    @property
    def peak_flops(self) -> float:
        return self.peak_tflops_fp32 * 1e12

    @property
    def mem_bandwidth(self) -> float:
        """Bytes per second."""
        return self.mem_bandwidth_gbps * 1e9


@dataclass(frozen=True)
class CPUSpec:
    """Reference CPU (20-core Intel Xeon Gold 6148, PantaRhei cluster)."""

    name: str
    cores: int
    base_clock_ghz: float
    mem_bandwidth_gbps: float


RTX_2080TI = GPUSpec("Nvidia RTX 2080Ti", 2018, "Turing", "7.5", 11, "GDDR6", 4352, 13.0, 448.0)
V100 = GPUSpec("Nvidia Tesla V100", 2017, "Volta", "7.0-7.2", 16, "HBM2", 5120, 14.0, 900.0)
TITAN_V = GPUSpec("Nvidia Titan V", 2017, "Volta", "7.0-7.2", 12, "HBM2", 5120, 15.0, 650.0)
GTX_1080TI = GPUSpec("Nvidia GTX 1080Ti", 2017, "Pascal", "6.0-6.2", 11, "GDDR5X", 3584, 11.0, 485.0)
P6000 = GPUSpec("Nvidia P6000", 2016, "Pascal", "6.0-6.2", 24, "GDDR5X", 3840, 13.0, 433.0)
P100 = GPUSpec("Nvidia Tesla P100", 2016, "Pascal", "6.0-6.2", 16, "HBM2", 3584, 9.5, 732.0)
K80 = GPUSpec("Nvidia Tesla K80", 2014, "Kepler 2.0", "3.0-3.7", 12, "GDDR5", 2496, 4.0, 240.0, dual_chip=True)

#: Table I, in the paper's row order.
GPU_CATALOG: tuple[GPUSpec, ...] = (
    RTX_2080TI,
    V100,
    TITAN_V,
    GTX_1080TI,
    P6000,
    P100,
    K80,
)

CPU_XEON_6148 = CPUSpec("Intel Xeon Gold 6148", cores=20, base_clock_ghz=2.4, mem_bandwidth_gbps=128.0)
