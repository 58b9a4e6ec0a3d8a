"""Mutual-information estimator against quadrature oracles and its MC behavior."""

import math

import numpy as np
import pytest
from scipy.special import logsumexp

from ofdm_isac.air import (
    AirConfig,
    air_estimate,
    air_quadrature,
    noise_entropy,
)
from ofdm_isac.channel import FrameDims
from ofdm_isac.constellation import ShapedConstellation, make_shaped, make_uniform
from ofdm_isac.filtering import wiener
from ofdm_isac.pcs import PcsConfig, c0_bounds, mba_solve


def bpsk_mi_bits_gh(real_noise_var, nodes=127):
    """Gauss-Hermite oracle for antipodal signaling over a real AWGN channel."""
    t, w = np.polynomial.hermite.hermgauss(nodes)
    y = 1.0 + math.sqrt(2.0 * real_noise_var) * t
    p_y = 0.5 * (
        np.exp(-((y - 1.0) ** 2) / (2 * real_noise_var))
        + np.exp(-((y + 1.0) ** 2) / (2 * real_noise_var))
    ) / math.sqrt(2 * math.pi * real_noise_var)
    h_y = -np.sum(w / math.sqrt(math.pi) * np.log(p_y)) / math.log(2.0)
    return h_y - 0.5 * math.log2(2 * math.pi * math.e * real_noise_var)


def gh_product_air_bits(c, noise_var, nodes=64):
    """K x K Gauss-Hermite product rule for the AIR, one alphabet point at a time."""
    t, w = np.polynomial.hermite.hermgauss(nodes)
    noise = math.sqrt(noise_var) * (t[:, None] + 1j * t[None, :]).reshape(-1)
    weights = (w[:, None] * w[None, :]).reshape(-1) / math.pi
    support = np.flatnonzero(c.probs > 0)
    log_p = np.log(c.probs[support])
    centers = c.points[support]
    mean_lse = 0.0
    for i in support:
        y = c.points[i] + noise
        dist = np.abs(y[:, None] - centers[None, :]) ** 2
        mean_lse += c.probs[i] * float(weights @ logsumexp(log_p - dist / noise_var, axis=1))
    return (-mean_lse - 1.0) / math.log(2.0)


class TestNoiseEntropy:
    def test_zero_bits(self):
        assert noise_entropy(1.0 / (math.pi * math.e)) == pytest.approx(0.0, abs=1e-14)

    def test_one_bit(self):
        assert noise_entropy(2.0 / (math.pi * math.e)) == pytest.approx(1.0, abs=1e-14)

    def test_doubling_adds_one_bit(self):
        for var in (0.01, 0.7, 5.0):
            assert noise_entropy(2 * var) - noise_entropy(var) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            noise_entropy(0.0)


class TestAirEstimate:
    def test_degenerate_input_carries_no_information(self):
        c = ShapedConstellation(np.array([1 + 0j, 3 + 0j]), np.array([1.0, 0.0]), "qam", 2)
        assert air_estimate(c, AirConfig(0.5, mc_samples=20_000, seed=1)) == 0.0

    def test_qam64_entropy_ceiling(self):
        c = make_uniform("qam", 64)
        bits = air_estimate(c, AirConfig(1e-6, mc_samples=200_000, seed=0))
        assert bits == pytest.approx(6.0, abs=0.01)

    def test_bpsk_matches_gauss_hermite(self):
        # complex noise CN(0, 2) puts unit variance in the signal dimension
        bits = air_estimate(make_uniform("psk", 2), AirConfig(2.0, mc_samples=300_000, seed=0))
        oracle = bpsk_mi_bits_gh(1.0)
        assert oracle == pytest.approx(0.486, abs=1e-3)
        assert bits == pytest.approx(oracle, abs=0.01)

    def test_rotation_invariant(self):
        # the half-step PSK phase convention cannot matter over circular noise
        a = air_estimate(make_uniform("psk", 2), AirConfig(1.0, mc_samples=100_000, seed=3))
        rotated = ShapedConstellation(np.array([1 + 0j, -1 + 0j]), np.array([0.5, 0.5]), "psk", 2)
        b = air_estimate(rotated, AirConfig(1.0, mc_samples=100_000, seed=3))
        assert a == pytest.approx(b, abs=0.01)

    def test_monotone_in_snr(self):
        c = make_uniform("qam", 16)
        low = air_estimate(c, AirConfig(1.0, mc_samples=100_000, seed=4))
        high = air_estimate(c, AirConfig(0.1, mc_samples=100_000, seed=4))
        assert high > low + 0.02  # far beyond 3 sigma of MC error

    def test_bounded_by_entropy_and_capacity(self):
        probs = np.linspace(1, 3, 16)
        c = make_shaped("qam", 16, probs / probs.sum())
        for var in (0.05, 0.5, 2.0):
            bits = air_estimate(c, AirConfig(var, mc_samples=50_000, seed=6))
            assert 0.0 <= bits <= c.entropy_bits() + 1e-12
            assert bits <= math.log2(1.0 + 1.0 / var) + 0.05

    def test_error_decays_with_sample_count(self):
        c = make_uniform("qam", 16)
        small = [air_estimate(c, AirConfig(0.5, mc_samples=4_000, seed=s)) for s in range(10)]
        large = [air_estimate(c, AirConfig(0.5, mc_samples=16_000, seed=s + 100)) for s in range(10)]
        ratio = np.std(small) / np.std(large)
        assert 1.2 < ratio < 3.3  # ~2 expected for a 4x sample increase


class TestAirQuadrature:
    def test_bpsk_matches_gauss_hermite(self):
        bits = air_quadrature(make_uniform("psk", 2), AirConfig(2.0))
        assert bits == pytest.approx(bpsk_mi_bits_gh(1.0), abs=1e-5)

    def test_qam64_entropy_ceiling(self):
        assert air_quadrature(make_uniform("qam", 64), AirConfig(1e-6)) == pytest.approx(6.0, abs=1e-9)

    def test_zero_probability_point_changes_nothing(self):
        base = make_shaped("qam", 16, np.linspace(1, 2, 16))
        extended = ShapedConstellation(
            np.append(base.points, 0.3 + 0.1j), np.append(base.probs, 0.0), "qam", 17
        )
        np.testing.assert_array_equal(extended.points[:16], base.points)
        cfg = AirConfig(0.3)
        assert air_quadrature(extended, cfg) == air_quadrature(base, cfg)

    def test_degenerate_input_carries_no_information(self):
        c = ShapedConstellation(np.array([1 + 0j, 3 + 0j]), np.array([1.0, 0.0]), "qam", 2)
        assert air_quadrature(c, AirConfig(0.5)) == 0.0

    @pytest.mark.parametrize("noise_var", [0.02, 0.1])
    def test_agrees_with_64_node_rule(self, noise_var):
        c = make_uniform("qam", 64)
        bits = air_quadrature(c, AirConfig(noise_var))
        assert bits == pytest.approx(gh_product_air_bits(c, noise_var), abs=5e-4)

    @pytest.mark.parametrize("noise_var", [0.02, 0.1])
    def test_solver_output_agrees_with_64_node_rule(self, noise_var):
        snr = 10.0**0.4
        f = wiener(snr)
        dims = FrameDims(64, 32)
        lo, hi = c0_bounds(64, f, dims, 1.0, 1.0 / snr)
        c0 = lo + 0.5 * (hi - lo)
        sol = mba_solve(
            PcsConfig("qam", 64, f, dims, 1.0, 1.0 / snr, AirConfig(noise_var), c0)
        )
        c = make_shaped("qam", 64, sol.probs)
        assert sol.air_bits == pytest.approx(gh_product_air_bits(c, noise_var), abs=5e-4)

    def test_agrees_with_monte_carlo(self):
        c = make_shaped("qam", 64, np.linspace(1, 3, 64))
        cfg = AirConfig(0.02, mc_samples=1_000_000, seed=12)
        assert air_quadrature(c, cfg) == pytest.approx(air_estimate(c, cfg), abs=5e-3)
