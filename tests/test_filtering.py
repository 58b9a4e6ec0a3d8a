"""Per-point filter gains and chi, the kernel's CSI estimate, DD maps, and the response function."""

import math

import numpy as np
import pytest

from ofdm_isac.channel import FrameDims, Scene, Target, steering_vectors
from ofdm_isac.constellation import draw_symbols, make_uniform
from ofdm_isac.filtering import MF, RF, dd_transform, point_chi, point_gain, wiener
from ofdm_isac.pcs import penalty_f


def dd_transform_oracle(a):
    """Direct double-sum evaluation of the unitary DD transform."""
    n, m = a.shape
    out = np.zeros((n, m), dtype=complex)
    for k in range(n):
        for p in range(m):
            acc = 0.0 + 0.0j
            for nn in range(n):
                for mm in range(m):
                    acc += a[nn, mm] * np.exp(2j * np.pi * nn * k / n) * np.exp(-2j * np.pi * mm * p / m)
            out[k, p] = acc / math.sqrt(n * m)
    return out


class TestFilterMatrix:
    def test_mf_conjugates(self):
        x = np.array([[1 + 0j, 1 + 2j], [0.5 - 0.5j, -1j]])
        np.testing.assert_allclose(point_gain(x, MF), np.conj(x))

    def test_rf_inverts(self):
        x = np.array([[2 + 0j, 4j], [1 - 1j, -2 + 0j]])
        g = point_gain(x, RF)
        np.testing.assert_allclose(g, 1.0 / x)
        assert g[0, 0] == pytest.approx(0.5)

    def test_wf_unit_modulus_half(self):
        x = np.exp(1j * np.linspace(0, 2, 6)).reshape(2, 3)
        np.testing.assert_allclose(point_gain(x, wiener(1.0)), np.conj(x) / 2.0, atol=1e-15)

    def test_rf_zero_symbol_hazard(self):
        # ShapedConstellation rejects zero points; the RF penalty guards raw points itself
        x = np.array([1 + 0j, 0j, 1 + 0j, 1 + 0j])
        with pytest.raises(ValueError, match="division hazard"):
            penalty_f(x, RF, 1.0)


class TestChiMatrix:
    def test_rf_all_ones(self, kernel_frames):
        scene = Scene((Target(1.0, 1.0, 2.0),), 0.1)
        _, _, chi, _ = kernel_frames(make_uniform("qam", 16), RF, FrameDims(3, 4), scene, 8)
        np.testing.assert_allclose(chi, 1.0, atol=1e-12)

    def test_psk_mf_all_ones(self):
        c = make_uniform("psk", 8)
        x = c.points[draw_symbols(c, np.random.default_rng(1), 12)].reshape(3, 4)
        np.testing.assert_allclose(point_chi(x, MF), 1.0, atol=1e-12)

    def test_wf_three_quarters(self):
        x = np.full((2, 2), math.sqrt(3.0) + 0j)
        np.testing.assert_allclose(point_chi(x, wiener(1.0)), 0.75, atol=1e-15)


class TestEstimateCsi:
    """Hhat = Y o G as the frame kernel forms it."""

    SCENE = Scene((Target(1.0, 2.0, 1.0),), 0.0)

    def test_noise_free_rf_recovers_h(self, kernel_frames):
        h, _, _, hhat = kernel_frames(make_uniform("qam", 16), RF, FrameDims(8, 4), self.SCENE, 8, seed=3)
        np.testing.assert_allclose(hhat, h, atol=1e-12)

    def test_noise_free_mf_scales_by_power(self, kernel_frames):
        h, g, chi, hhat = kernel_frames(make_uniform("qam", 16), MF, FrameDims(8, 4), self.SCENE, 8, seed=3)
        power = np.abs(g) ** 2  # |x|^2, as g = conj(x)
        np.testing.assert_allclose(chi, power, rtol=1e-15)
        np.testing.assert_allclose(hhat, h * power, atol=1e-12)

    def test_zero_echo(self, kernel_frames):
        scene = Scene((Target(0.0, 2.0, 1.0),), 0.0)
        _, _, _, hhat = kernel_frames(make_uniform("qam", 16), MF, FrameDims(8, 4), scene, 8)
        np.testing.assert_array_equal(hhat, 0)


class TestDdTransform:
    def test_matches_direct_sum_oracle(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        np.testing.assert_allclose(dd_transform(a), dd_transform_oracle(a), atol=1e-12)

    def test_constant_frame_single_bin(self):
        lam = dd_transform(np.ones((2, 2)))
        power = np.abs(lam) ** 2
        assert lam[0, 0] == pytest.approx(2.0)
        assert power[0, 0] == pytest.approx(4.0)
        assert power.sum() == pytest.approx(4.0)

    def test_unitary_norm_preservation(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((16, 8)) + 1j * rng.standard_normal((16, 8))
        assert np.linalg.norm(dd_transform(a)) == pytest.approx(np.linalg.norm(a), rel=1e-10)

    def test_steering_outer_product_peak(self):
        b, c = steering_vectors(FrameDims(4, 2), Target(1.0, 1.0, 0.0))
        h = np.outer(b, np.conj(c))
        oracle = dd_transform_oracle(h)
        power = np.abs(dd_transform(h)) ** 2
        np.testing.assert_allclose(power, np.abs(oracle) ** 2, atol=1e-12)
        assert power[1, 0] == pytest.approx(8.0, rel=1e-12)
        mask = np.ones((4, 2), bool)
        mask[1, 0] = False
        assert np.max(power[mask]) < 1e-12


class TestResponseFunction:
    """r(k, p): the unitary 2D-DFT of the real filtered spectrum chi."""

    def test_flat_chi_is_delta(self):
        r = dd_transform(np.ones((8, 4)))
        assert r[0, 0] == pytest.approx(math.sqrt(32.0))
        off = np.abs(r) ** 2
        off[0, 0] = 0.0
        assert off.max() < 1e-20

    def test_r00_is_mean_times_sqrt_nm(self):
        rng = np.random.default_rng(0)
        chi_vals = rng.random((8, 4))
        r = dd_transform(chi_vals)
        assert r[0, 0].real == pytest.approx(chi_vals.sum() / math.sqrt(32.0), rel=1e-12)
        assert abs(r[0, 0].imag) < 1e-12

    def test_parseval(self):
        rng = np.random.default_rng(1)
        chi_vals = rng.random((16, 8))
        r = dd_transform(chi_vals)
        assert np.sum(np.abs(r) ** 2) == pytest.approx(np.sum(chi_vals**2), rel=1e-10)

    def test_rf_response_delta_per_realization(self):
        c = make_uniform("qam", 64)
        x = c.points[draw_symbols(c, np.random.default_rng(3), 128)].reshape(16, 8)
        power = np.abs(dd_transform(point_chi(x, RF))) ** 2
        peak = power[0, 0]
        power[0, 0] = 0.0
        assert power.max() / peak < 1e-10

    def test_mean_peak_dominates_sidelobes(self):
        # averaged over many frames the response peak exceeds every sidelobe bin
        c = make_uniform("qam", 64)
        rng_frames = 1000
        dims = FrameDims(16, 8)
        acc = np.zeros(dims.shape)
        for s in range(rng_frames):
            x = c.points[draw_symbols(c, np.random.default_rng(s), dims.size)].reshape(dims.shape)
            acc += np.abs(dd_transform(point_chi(x, MF))) ** 2
        acc /= rng_frames
        peak = acc[0, 0]
        acc[0, 0] = 0.0
        assert acc.max() <= peak

    def test_wf_low_snr_equals_scaled_mf(self):
        c = make_uniform("qam", 64)
        x = c.points[draw_symbols(c, np.random.default_rng(9), 64)].reshape(8, 8)
        snr = 1e-6
        g_wf = point_gain(x, wiener(snr))
        g_mf = point_gain(x, MF)
        rel = np.abs(g_wf - snr * g_mf) / np.abs(snr * g_mf)
        assert rel.max() < 1e-4
