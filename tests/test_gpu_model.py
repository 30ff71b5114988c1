"""Tests for the analytic GPU performance model."""

import pytest

from repro.errors import ConfigError, DataError
from repro.gpu import (
    CPU_XEON_6148,
    GPU_CATALOG,
    NVLINK2,
    PCIE3_X16,
    V100,
    cpu_throughput,
    kernel_time,
    simulate_compression,
    simulate_decompression,
    transfer_time,
)
from repro.gpu.device import K80

N = 512**3


class TestDeviceCatalog:
    def test_table1_has_seven_gpus(self):
        assert len(GPU_CATALOG) == 7

    def test_paper_specs_v100(self):
        assert V100.shaders == 5120
        assert V100.peak_tflops_fp32 == 14.0
        assert V100.mem_bandwidth_gbps == 900.0
        assert V100.architecture == "Volta"

    def test_k80_is_dual_chip(self):
        assert K80.dual_chip

    def test_cpu_reference(self):
        assert CPU_XEON_6148.cores == 20


class TestPCIe:
    def test_transfer_time_linear_in_size(self):
        t1 = transfer_time(1e9)
        t2 = transfer_time(2e9)
        assert t2 > t1
        assert t2 - t1 == pytest.approx(1e9 / PCIE3_X16.effective_bandwidth)

    def test_latency_floor(self):
        assert transfer_time(1) >= PCIE3_X16.latency_s

    def test_zero_bytes_costs_nothing(self):
        assert transfer_time(0) == 0.0

    def test_nvlink_faster(self):
        assert transfer_time(1e9, NVLINK2) < transfer_time(1e9, PCIE3_X16)


class TestKernelModel:
    def test_time_increases_with_rate(self):
        times = [kernel_time(V100, "cuzfp", "compress", N, r) for r in (1, 4, 16)]
        assert times == sorted(times)

    def test_better_gpu_is_faster(self):
        assert kernel_time(V100, "cuzfp", "compress", N, 4) < kernel_time(
            K80, "cuzfp", "compress", N, 4
        )

    def test_decompress_cheaper_than_compress(self):
        assert kernel_time(V100, "cuzfp", "decompress", N, 4) <= kernel_time(
            V100, "cuzfp", "compress", N, 4
        )

    def test_unknown_codec_raises(self):
        with pytest.raises(ConfigError):
            kernel_time(V100, "mgard", "compress", N, 4)

    def test_invalid_sizes_raise(self):
        with pytest.raises(DataError):
            kernel_time(V100, "cuzfp", "compress", 0, 4)


class TestCPUThroughput:
    def test_single_core_baselines(self):
        assert cpu_throughput("sz", "compress") == pytest.approx(180e6)
        assert cpu_throughput("zfp", "decompress") == pytest.approx(800e6)

    def test_openmp_scaling_below_linear(self):
        one = cpu_throughput("sz", "compress", 1)
        twenty = cpu_throughput("sz", "compress", 20)
        assert one * 10 < twenty < one * 20

    def test_zfp_omp_decompression_na(self):
        # The paper's Fig. 8 "N/A" cell.
        assert cpu_throughput("zfp", "decompress", 20) is None

    def test_threads_capped_at_cores(self):
        assert cpu_throughput("sz", "compress", 100) == cpu_throughput(
            "sz", "compress", 20
        )

    def test_unknown_codec_raises(self):
        with pytest.raises(ConfigError):
            cpu_throughput("fpzip", "compress")


class TestRuntime:
    def test_compression_stage_order(self):
        run = simulate_compression(N, 4)
        assert [s.name for s in run.stages] == ["init", "kernel", "memcpy", "free"]

    def test_decompression_stage_order(self):
        run = simulate_decompression(N, 4)
        assert [s.name for s in run.stages] == ["init", "memcpy", "kernel", "free"]

    def test_memcpy_scales_with_rate(self):
        lo = simulate_compression(N, 1).breakdown()["memcpy"]
        hi = simulate_compression(N, 16).breakdown()["memcpy"]
        assert hi > lo * 10

    def test_all_rates_beat_uncompressed_baseline(self):
        # Fig. 7's headline: compression always beats raw transfer.
        for rate in (1, 2, 4, 8, 16):
            run = simulate_compression(N, rate)
            assert run.total_seconds < run.baseline_seconds

    def test_memcpy_dominates_kernel_at_high_rate(self):
        # Paper: "the main performance bottleneck is the data transfer".
        run = simulate_compression(N, 8)
        assert run.breakdown()["memcpy"] > run.kernel_seconds

    def test_overall_throughput_below_kernel_throughput(self):
        run = simulate_compression(N, 4)
        assert run.overall_throughput < run.kernel_throughput

    def test_kernel_throughput_decreases_with_rate(self):
        # Fig. 10.
        ks = [simulate_compression(N, r).kernel_throughput for r in (1, 2, 4, 8, 16)]
        assert ks == sorted(ks, reverse=True)

    def test_compressed_bytes_accounting(self):
        run = simulate_compression(1000, 8, value_bytes=4)
        assert run.original_bytes == 4000
        assert run.compressed_bytes == 1000

    def test_invalid_inputs_raise(self):
        with pytest.raises(DataError):
            simulate_compression(0, 4)
        with pytest.raises(DataError):
            simulate_compression(100, -1)
