"""Frame geometry, steering vectors, the kernel's CSI and echo, and the complex normal draw."""

import math

import numpy as np
import pytest

from ofdm_isac.channel import FrameDims, Scene, Target, complex_normal, steering_vectors, target_cell
from ofdm_isac.constellation import make_shaped, make_uniform
from ofdm_isac.filtering import MF, RF, dd_transform, point_chi, point_gain, wiener
from ofdm_isac.detection import detection_cell
from ofdm_isac import metrics
from ofdm_isac.metrics import empirical_dd_profile, empirical_metrics, far_region_mask, identity_checks

QAM16 = make_uniform("qam", 16)


def outer(dims, target):
    b, c = steering_vectors(dims, target)
    return np.outer(b, np.conj(c))


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


class TestTargetCell:
    """The one rule from a target's bins to its grid cell, and its callers' agreement with it."""

    DIMS = FrameDims(16, 16)

    @pytest.mark.parametrize("bins, cell", [
        ((3.0, 5.0), (3, 5)),  # on the grid
        ((2.4, 7.6), (2, 8)),  # off the grid: the nearest cell
        ((15.6, 2.4), (0, 2)),  # nearest to 16, which wraps to delay cell 0
        ((2.5, 3.5), (2, 4)),  # exact halves go to the even bin
    ], ids=["on-grid", "off-grid", "wrapping", "halves-to-even"])
    def test_cell(self, bins, cell):
        assert target_cell(self.DIMS, Target(1.0, *bins)) == cell

    def test_detection_cell_is_the_weak_targets_cell(self):
        weak = Target(0.1, 15.6, 2.4)
        assert detection_cell(self.DIMS, Scene((Target(1.0, 5.0, 9.0), weak), 0.1)) == target_cell(self.DIMS, weak)

    def test_far_region_is_that_of_the_cell(self):
        off_grid = far_region_mask(self.DIMS, Scene((Target(1.0, 15.6, 2.4),), 0.1))
        on_grid = far_region_mask(self.DIMS, Scene((Target(1.0, 0.0, 2.0),), 0.1))
        np.testing.assert_array_equal(off_grid, on_grid)
        assert not off_grid[0].any() and not off_grid[:, 2].any()


class TestBuildCsi:
    """The CSI H the frame kernel builds: a sum of gain-weighted steering outer products."""

    def test_single_unit_target_all_ones(self, kernel_frames):
        scene = Scene((Target(1.0, 0.0, 0.0),), 0.0)
        h, *_ = kernel_frames(QAM16, MF, FrameDims(4, 3), scene, 8)
        np.testing.assert_array_equal(outer(FrameDims(4, 3), scene.targets[0]), np.ones((4, 3)))
        # every frame is its own gain times the all-ones steering product
        np.testing.assert_array_equal(h, np.broadcast_to(h[:, :1, :1], h.shape))
        assert np.all(h[:, 0, 0] != 0)

    @pytest.mark.parametrize("run", [
        lambda scene: empirical_metrics(QAM16, MF, FrameDims(4, 3), scene, 10, 0),
        lambda scene: identity_checks(QAM16, (MF, RF), FrameDims(4, 3), scene, 10, 0),
        lambda scene: empirical_dd_profile(QAM16, MF, FrameDims(4, 3), scene, 10, 0),
    ], ids=["empirical_metrics", "identity_checks", "empirical_dd_profile"])
    def test_empty_scene_rejected(self, monkeypatch, run):
        """The frame chain's one target rule refuses a scene without targets before any batch is drawn."""
        monkeypatch.setattr(metrics, "_draw_batch", lambda *a: pytest.fail("a batch was drawn"))
        with pytest.raises(ValueError, match="at least one target"):
            run(Scene((), 1.0))

    def test_orthogonal_targets_frobenius(self, kernel_frames):
        # distinct integer bins give orthogonal DFT columns
        a1, a2 = 1.3 - 0.4j, -0.2 + 2.1j
        scene = Scene((Target(abs(a1) ** 2, 1.0, 0.0), Target(abs(a2) ** 2, 5.0, 3.0)), 0.0)
        dims = FrameDims(16, 8)
        h, *_ = kernel_frames(QAM16, MF, dims, scene, 20)
        s1, s2 = (outer(dims, t) for t in scene.targets)
        g1, g2 = (np.einsum("fnm,nm->f", h, np.conj(s)) / dims.size for s in (s1, s2))
        np.testing.assert_allclose(h, g1[:, None, None] * s1 + g2[:, None, None] * s2, atol=1e-12)
        expected = dims.size * (np.abs(g1) ** 2 + np.abs(g2) ** 2)
        np.testing.assert_allclose(np.linalg.norm(h, axis=(1, 2)) ** 2, expected, rtol=1e-9)

    def test_random_mode_reproducible(self, kernel_frames):
        scene = Scene((Target(1.0, 2.0, 1.0),), 0.1)
        a = kernel_frames(QAM16, MF, FrameDims(8, 4), scene, 10, seed=11)
        b = kernel_frames(QAM16, MF, FrameDims(8, 4), scene, 10, seed=11)
        for got, want in zip(a, b):
            np.testing.assert_array_equal(got, want)

    def test_random_gain_statistics(self, kernel_frames):
        scene = Scene((Target(0.7, 1.0, 1.0), Target(0.5, 3.0, 2.0)), 0.1)
        dims = FrameDims(4, 4)
        total_var = 1.2
        draws = 10_000
        h, *_ = kernel_frames(QAM16, MF, dims, scene, draws)
        samples = h[:, 1, 1]
        # per-entry mean ~ CN(0, total/draws); |mean| bound from 3 sigma per quadrature
        sigma_mean = math.sqrt(total_var / 2.0 / draws)
        assert abs(samples.mean().real) < 3 * sigma_mean
        assert abs(samples.mean().imag) < 3 * sigma_mean
        power = np.mean(np.abs(samples) ** 2)
        sigma_power = total_var / math.sqrt(draws)  # |h|^2 is exponential
        assert abs(power - total_var) < 3 * sigma_power

    def test_single_target_dd_peak(self, kernel_frames):
        # one on-grid target: rank-one CSI, and the unitary 2D-DFT concentrates everything in one bin
        dims = FrameDims(8, 4)
        scene = Scene((Target(abs(0.8 - 1.1j) ** 2, 3.0, 2.0),), 0.0)
        h, *_ = kernel_frames(QAM16, MF, dims, scene, 16)
        alpha = h[:, 0, 0]  # both steering vectors start at 1
        np.testing.assert_allclose(h, alpha[:, None, None] * outer(dims, scene.targets[0]), atol=1e-12)
        power = np.abs(dd_transform(h)) ** 2
        np.testing.assert_allclose(power[:, 3, 2], dims.size * np.abs(alpha) ** 2, rtol=1e-9)
        rest = power.copy()
        rest[:, 3, 2] = 0.0
        assert np.all(rest.max(axis=(1, 2)) < 1e-9 * power[:, 3, 2])


class TestEcho:
    """The kernel's echo Y = H o X + Z, seen through Hhat = Y o G."""

    def test_noise_free_exact(self, kernel_frames):
        scene = Scene((Target(0.5, 1.0, 1.0),), 0.0)
        h, g, _, hhat = kernel_frames(QAM16, MF, FrameDims(4, 4), scene, 8)
        x = np.conj(g)  # MF: g = conj(x)
        np.testing.assert_array_equal(hhat, (h * x) * g)

    def test_all_ones_symbols_recover_h(self, kernel_frames):
        # unit-modulus symbols under MF: chi = |x|^2 is all ones, so Hhat = H
        scene = Scene((Target(1.0, 2.0, 3.0),), 0.0)
        h, _, chi, hhat = kernel_frames(make_uniform("psk", 8), MF, FrameDims(6, 5), scene, 8, seed=4)
        np.testing.assert_allclose(chi, 1.0, atol=1e-12)
        np.testing.assert_allclose(hhat, h)

    def test_pure_noise_variance(self, kernel_frames):
        dims = FrameDims(400, 250)  # 1e5 entries
        noise_var = 0.37
        scene = Scene((Target(0.0, 0.0, 0.0),), noise_var)
        # a gainless target leaves Hhat = Z / x, and unit-modulus x keeps |Z|
        h, _, _, hhat = kernel_frames(make_uniform("psk", 4), RF, dims, scene, 1, seed=99)
        np.testing.assert_array_equal(h, 0)
        emp = float(np.mean(np.abs(hhat) ** 2))
        sigma = noise_var / math.sqrt(dims.size)  # |z|^2 exponential
        assert abs(emp - noise_var) < 3 * sigma


class TestFrames:
    def test_chi_role_must_be_real(self):
        """x * g is real for every kind: the kernel keeps only the real part of its chi table."""
        books = (QAM16, make_uniform("psk", 8), make_shaped("qam", 64, np.arange(64) % 7 + 1.0))
        for c in books:
            for f in (MF, RF, wiener(0.5)):
                chi = c.points * point_gain(c.points, f)
                scale = max(1.0, float(np.max(np.abs(chi))))
                assert float(np.max(np.abs(chi.imag))) <= 1e-9 * scale
                np.testing.assert_allclose(chi.real, point_chi(c.points, f), rtol=1e-12)


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
