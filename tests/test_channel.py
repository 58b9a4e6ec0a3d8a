"""Frame geometry, steering vectors, CSI synthesis, and echo statistics."""

import math

import numpy as np
import pytest

from ofdm_isac.channel import (
    ComplexFrame,
    FrameDims,
    Scene,
    Target,
    bins_from_physical,
    build_csi,
    complex_normal,
    scene_from_dict,
    scene_to_dict,
    steering_vectors,
    synthesize_echo,
)
from ofdm_isac.filtering import dd_transform


class TestSteering:
    def test_zero_delay_all_ones(self):
        b, c = steering_vectors(FrameDims(8, 4), Target(1.0, 0.0, 0.0))
        np.testing.assert_allclose(b, np.ones(8))
        np.testing.assert_allclose(c, np.ones(4))

    def test_fourth_roots_of_unity(self):
        b, _ = steering_vectors(FrameDims(4, 2), Target(1.0, 1.0, 0.0))
        np.testing.assert_allclose(b, [1, -1j, -1, 1j], atol=1e-15)

    def test_unit_modulus_fractional_bin(self):
        b, c = steering_vectors(FrameDims(16, 8), Target(1.0, 2.37, 5.91))
        np.testing.assert_allclose(np.abs(b), 1.0, atol=1e-14)
        np.testing.assert_allclose(np.abs(c), 1.0, atol=1e-14)

    def test_out_of_range_bins(self):
        with pytest.raises(ValueError, match="delay_bin"):
            steering_vectors(FrameDims(8, 4), Target(1.0, 8.0, 0.0))
        with pytest.raises(ValueError, match="doppler_bin"):
            steering_vectors(FrameDims(8, 4), Target(1.0, 0.0, 4.0))


class TestBuildCsi:
    def test_single_unit_target_all_ones(self):
        scene = Scene((Target(1.0, 0.0, 0.0, gain=1.0 + 0j),), 0.0)
        h = build_csi(FrameDims(4, 3), scene, mode="fixed")
        np.testing.assert_allclose(h.entries, np.ones((4, 3)))

    def test_empty_scene_rejected(self):
        with pytest.raises(ValueError, match="at least one target"):
            build_csi(FrameDims(4, 3), Scene((), 1.0))

    def test_orthogonal_targets_frobenius(self):
        # distinct integer bins give orthogonal DFT columns
        a1, a2 = 1.3 - 0.4j, -0.2 + 2.1j
        scene = Scene(
            (
                Target(abs(a1) ** 2, 1.0, 0.0, gain=a1),
                Target(abs(a2) ** 2, 5.0, 3.0, gain=a2),
            ),
            0.0,
        )
        dims = FrameDims(16, 8)
        h = build_csi(dims, scene, mode="fixed")
        expected = dims.size * (abs(a1) ** 2 + abs(a2) ** 2)
        assert np.linalg.norm(h.entries) ** 2 == pytest.approx(expected, rel=1e-9)

    def test_random_mode_reproducible(self):
        scene = Scene((Target(1.0, 2.0, 1.0),), 0.1)
        a = build_csi(FrameDims(8, 4), scene, seed=11)
        b = build_csi(FrameDims(8, 4), scene, seed=11)
        np.testing.assert_array_equal(a.entries, b.entries)

    def test_random_gain_statistics(self):
        scene = Scene((Target(0.7, 1.0, 1.0), Target(0.5, 3.0, 2.0)), 0.1)
        dims = FrameDims(4, 4)
        total_var = 1.2
        draws = 10_000
        samples = np.array([build_csi(dims, scene, seed=s).entries[1, 1] for s in range(draws)])
        # per-entry mean ~ CN(0, total/draws); |mean| bound from 3 sigma per quadrature
        sigma_mean = math.sqrt(total_var / 2.0 / draws)
        assert abs(samples.mean().real) < 3 * sigma_mean
        assert abs(samples.mean().imag) < 3 * sigma_mean
        power = np.mean(np.abs(samples) ** 2)
        sigma_power = total_var / math.sqrt(draws)  # |h|^2 is exponential
        assert abs(power - total_var) < 3 * sigma_power

    def test_single_target_dd_peak(self):
        # one on-grid target: unitary 2D-DFT concentrates everything in one bin
        alpha = 0.8 - 1.1j
        dims = FrameDims(8, 4)
        scene = Scene((Target(abs(alpha) ** 2, 3.0, 2.0, gain=alpha),), 0.0)
        h = build_csi(dims, scene, mode="fixed")
        lam = dd_transform(h.entries)
        power = np.abs(lam) ** 2
        assert power[3, 2] == pytest.approx(dims.size * abs(alpha) ** 2, rel=1e-9)
        rest = power.copy()
        rest[3, 2] = 0.0
        assert rest.max() < 1e-9 * power[3, 2]


class TestEcho:
    def test_noise_free_exact(self):
        dims = FrameDims(4, 4)
        scene = Scene((Target(1.0, 1.0, 1.0, gain=0.5 + 0.5j),), 0.0)
        h = build_csi(dims, scene, mode="fixed")
        x = ComplexFrame(np.full(dims.shape, 2.0 - 1.0j), "symbols")
        y = synthesize_echo(h, x, 0.0, seed=0)
        np.testing.assert_allclose(y.entries, h.entries * x.entries)

    def test_all_ones_symbols_recover_h(self):
        dims = FrameDims(6, 5)
        scene = Scene((Target(1.0, 2.0, 3.0),), 0.0)
        h = build_csi(dims, scene, seed=4)
        y = synthesize_echo(h, ComplexFrame(np.ones(dims.shape), "symbols"), 0.0)
        np.testing.assert_allclose(y.entries, h.entries)

    def test_pure_noise_variance(self):
        dims = FrameDims(400, 250)  # 1e5 entries
        h = ComplexFrame(np.zeros(dims.shape), "csi")
        x = ComplexFrame(np.ones(dims.shape), "symbols")
        noise_var = 0.37
        y = synthesize_echo(h, x, noise_var, seed=99)
        emp = float(np.mean(np.abs(y.entries) ** 2))
        sigma = noise_var / math.sqrt(dims.size)  # |z|^2 exponential
        assert abs(emp - noise_var) < 3 * sigma

    def test_shape_mismatch(self):
        h = ComplexFrame(np.zeros((4, 4)), "csi")
        x = ComplexFrame(np.ones((4, 5)), "symbols")
        with pytest.raises(ValueError, match="shape mismatch"):
            synthesize_echo(h, x, 0.1)


class TestFrames:
    def test_chi_role_must_be_real(self):
        with pytest.raises(ValueError, match="real-valued"):
            ComplexFrame(np.full((2, 2), 1.0 + 1.0j), "chi")

    def test_unknown_role(self):
        with pytest.raises(ValueError, match="unknown frame role"):
            ComplexFrame(np.zeros((2, 2)), "whatever")


class TestSceneConfig:
    def test_roundtrip(self):
        dims = FrameDims(32, 16)
        scene = Scene((Target(1.0, 3.0, 2.0), Target(0.1, 9.0, 0.0, gain=0.3 - 0.1j)), 0.25)
        dims2, scene2 = scene_from_dict(scene_to_dict(dims, scene))
        assert dims2 == dims
        assert scene2.noise_var == scene.noise_var
        assert scene2.targets[1].gain == scene.targets[1].gain
        assert scene2.targets[0].gain_var == 1.0

    def test_missing_field(self):
        with pytest.raises(ValueError, match="missing field"):
            scene_from_dict({"N": 8, "M": 4, "targets": []})

    def test_bins_from_physical(self):
        dims = FrameDims(64, 32)
        # 120 kHz spacing, ~8.9 us symbols, 1 us delay, 2 kHz Doppler
        k, p = bins_from_physical(dims, 120e3, 8.9e-6, delay_s=1e-6, doppler_hz=2e3)
        assert k == pytest.approx(64 * 120e3 * 1e-6)
        assert p == pytest.approx(32 * 8.9e-6 * 2e3)


class TestComplexNormal:
    @pytest.mark.parametrize("shape", [(), (1,), (7,), (3, 5), (4, 16, 8)])
    @pytest.mark.parametrize("seed", [0, 1, 99])
    def test_matches_two_draw_expression(self, seed, shape):
        """Same stream and bits as s * (N(0,1) + 1j N(0,1)), real parts drawn first."""
        for var in (1.0, 0.398, 1e-3):
            rng = np.random.default_rng(seed)
            s = math.sqrt(var / 2.0)
            want = s * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
            got = complex_normal(np.random.default_rng(seed), var, shape)
            assert got.shape == np.shape(want)
            assert np.array_equal(got, want)
