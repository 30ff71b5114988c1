"""Tests for the FPC lossless baseline and image rendering."""

import numpy as np
import pytest

from repro.errors import CorruptStreamError, DataError
from repro.foresight.imaging import read_pgm, render_slice, write_pgm
from repro.lossless.fpc import fpc_compress, fpc_decompress


class TestFPC:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_exact_round_trip(self, dtype):
        rng = np.random.default_rng(0)
        data = (rng.standard_normal(2001) * 1e5).astype(dtype)
        back = fpc_decompress(fpc_compress(data))
        assert back.dtype == dtype
        assert np.array_equal(back.view(np.uint8), data.view(np.uint8))

    def test_odd_length_float32(self):
        data = np.arange(7, dtype=np.float32)
        assert np.array_equal(fpc_decompress(fpc_compress(data)), data)

    def test_shape_preserved(self):
        data = np.zeros((3, 5, 7), dtype=np.float64)
        assert fpc_decompress(fpc_compress(data)).shape == (3, 5, 7)

    def test_special_values_survive(self):
        data = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-300, -1e300])
        back = fpc_decompress(fpc_compress(data))
        assert np.array_equal(back.view(np.uint64), data.view(np.uint64))

    def test_smooth_data_compresses_well(self):
        data = np.linspace(0, 1, 4096)
        ratio = data.nbytes / len(fpc_compress(data))
        assert ratio > 2.0

    def test_paper_claim_under_2x_on_cosmology_fields(self, nyx_small, hacc_small):
        """Section II-A: lossless ratios 'typically lower than 2:1 for
        dense scientific data'."""
        for field in (nyx_small.fields["dark_matter_density"],
                      hacc_small.fields["vx"]):
            ratio = field.nbytes / len(fpc_compress(field))
            assert ratio < 2.0

    def test_lossy_beats_lossless_by_far(self, nyx_small):
        """The paper's framing: lossy reaches 5-15x where lossless stalls."""
        from repro.compressors import SZCompressor

        field = nyx_small.fields["dark_matter_density"]
        lossless_ratio = field.nbytes / len(fpc_compress(field))
        lossy = SZCompressor().compress(field, error_bound=float(field.std()) * 1e-2)
        assert lossy.compression_ratio > 3 * lossless_ratio

    def test_integer_dtype_rejected(self):
        with pytest.raises(DataError):
            fpc_compress(np.arange(10))

    def test_bad_magic_raises(self):
        with pytest.raises(CorruptStreamError):
            fpc_decompress(b"XXXX" + b"\x00" * 64)


class TestImaging:
    def test_render_and_read_pgm(self, tmp_path, nyx_small):
        img = render_slice(nyx_small.fields["baryon_density"])
        assert img.dtype == np.uint8 and img.ndim == 2
        path = write_pgm(tmp_path / "slice.pgm", img)
        back = read_pgm(path)
        assert np.array_equal(back, img)

    def test_pinned_scaling_makes_renders_comparable(self, nyx_small):
        f = nyx_small.fields["baryon_density"]
        vmin, vmax = float(f[f > 0].min()), float(f.max())
        a = render_slice(f, vmin=vmin, vmax=vmax)
        b = render_slice(f * 1.0, vmin=vmin, vmax=vmax)
        assert np.array_equal(a, b)

    def test_visually_similar_reconstruction(self, nyx_small):
        """Fig. 1's visual point: the PW_REL=0.1 render is nearly pixel-
        identical to the original."""
        from repro.compressors.sz import GPUSZ

        f = nyx_small.fields["baryon_density"]
        sz = GPUSZ()
        recon = sz.decompress(sz.compress_pwrel_via_log(f, 0.1))
        vmin, vmax = float(f[f > 0].min()), float(f.max())
        a = render_slice(f, vmin=vmin, vmax=vmax).astype(int)
        b = render_slice(recon, vmin=vmin, vmax=vmax).astype(int)
        assert np.mean(np.abs(a - b)) < 3.0  # of 255 gray levels

    def test_axis_and_index_selection(self, nyx_small):
        f = nyx_small.fields["temperature"]
        img0 = render_slice(f, axis=0, index=3)
        img1 = render_slice(f, axis=1, index=3)
        assert img0.shape == img1.shape
        assert not np.array_equal(img0, img1)

    def test_constant_field_renders_black(self):
        img = render_slice(np.ones((8, 8, 8)), log_scale=False)
        assert img.max() == 0

    def test_validation(self, tmp_path):
        with pytest.raises(DataError):
            render_slice(np.zeros((4, 4)))
        with pytest.raises(DataError):
            render_slice(np.zeros((4, 4, 4)), axis=3)
        with pytest.raises(DataError):
            write_pgm(tmp_path / "x.pgm", np.zeros((4, 4), dtype=np.float32))
        with pytest.raises(DataError):
            read_pgm(__file__)
