"""Mutual-information estimator against quadrature oracles and its MC behavior."""

import math

import numpy as np
import pytest
from scipy.special import logsumexp

from ofdm_isac.air import air_estimate, air_quadrature
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


class TestAirEstimate:
    def test_degenerate_input_carries_no_information(self):
        c = ShapedConstellation(np.array([1 + 0j, 3 + 0j]), np.array([1.0, 0.0]), "qam", 2)
        assert air_estimate(c, 0.5, samples=20_000, seed=1) == 0.0

    def test_qam64_entropy_ceiling(self):
        c = make_uniform("qam", 64)
        bits = air_estimate(c, 1e-6, samples=200_000, seed=0)
        assert bits == pytest.approx(6.0, abs=0.01)

    def test_bpsk_matches_gauss_hermite(self):
        # complex noise CN(0, 2) puts unit variance in the signal dimension
        bits = air_estimate(make_uniform("psk", 2), 2.0, samples=300_000, seed=0)
        oracle = bpsk_mi_bits_gh(1.0)
        assert oracle == pytest.approx(0.486, abs=1e-3)
        assert bits == pytest.approx(oracle, abs=0.01)

    def test_rotation_invariant(self):
        # the half-step PSK phase convention cannot matter over circular noise
        a = air_estimate(make_uniform("psk", 2), 1.0, samples=100_000, seed=3)
        rotated = ShapedConstellation(np.array([1 + 0j, -1 + 0j]), np.array([0.5, 0.5]), "psk", 2)
        b = air_estimate(rotated, 1.0, samples=100_000, seed=3)
        assert a == pytest.approx(b, abs=0.01)

    def test_monotone_in_snr(self):
        c = make_uniform("qam", 16)
        low = air_estimate(c, 1.0, samples=100_000, seed=4)
        high = air_estimate(c, 0.1, samples=100_000, seed=4)
        assert high > low + 0.02  # far beyond 3 sigma of MC error

    def test_bounded_by_entropy_and_capacity(self):
        probs = np.linspace(1, 3, 16)
        c = make_shaped("qam", 16, probs / probs.sum())
        for var in (0.05, 0.5, 2.0):
            bits = air_estimate(c, var, samples=50_000, seed=6)
            assert 0.0 <= bits <= c.entropy_bits() + 1e-12
            assert bits <= math.log2(1.0 + 1.0 / var) + 0.05

    def test_error_decays_with_sample_count(self):
        c = make_uniform("qam", 16)
        small = [air_estimate(c, 0.5, samples=4_000, seed=s) for s in range(10)]
        large = [air_estimate(c, 0.5, samples=16_000, seed=s + 100) for s in range(10)]
        ratio = np.std(small) / np.std(large)
        assert 1.2 < ratio < 3.3  # ~2 expected for a 4x sample increase

    @pytest.mark.skipif(not np.__version__.startswith("2.4."), reason="bits pinned under numpy 2.4")
    @pytest.mark.parametrize("c, noise_var, samples, seed, bits", [
        (make_uniform("qam", 64), 0.02, 50_000, 3, 5.223756145756087),
        (make_shaped("qam", 16, np.r_[np.zeros(3), np.linspace(0, 1, 13)]), 0.1, 30_000, 1, 2.569873745409919),
    ], ids=["uniform-qam64", "shaped-qam16"])
    def test_pinned(self, c, noise_var, samples, seed, bits):
        """Bits taken when the draw had its own inverse-CDF search: the chains' cell search draws the same symbols."""
        assert air_estimate(c, noise_var, samples=samples, seed=seed) == bits


class TestAirQuadrature:
    def test_bpsk_matches_gauss_hermite(self):
        bits = air_quadrature(make_uniform("psk", 2), 2.0)
        assert bits == pytest.approx(bpsk_mi_bits_gh(1.0), abs=1e-5)

    def test_qam64_entropy_ceiling(self):
        assert air_quadrature(make_uniform("qam", 64), 1e-6) == pytest.approx(6.0, abs=1e-9)

    def test_zero_probability_point_changes_nothing(self):
        base = make_shaped("qam", 16, np.linspace(1, 2, 16))
        extended = ShapedConstellation(
            np.append(base.points, 0.3 + 0.1j), np.append(base.probs, 0.0), "qam", 17
        )
        np.testing.assert_array_equal(extended.points[:16], base.points)
        assert air_quadrature(extended, 0.3) == air_quadrature(base, 0.3)

    def test_degenerate_input_carries_no_information(self):
        c = ShapedConstellation(np.array([1 + 0j, 3 + 0j]), np.array([1.0, 0.0]), "qam", 2)
        assert air_quadrature(c, 0.5) == 0.0

    @pytest.mark.parametrize("noise_var", [0.02, 0.1])
    def test_agrees_with_64_node_rule(self, noise_var):
        c = make_uniform("qam", 64)
        bits = air_quadrature(c, noise_var)
        assert bits == pytest.approx(gh_product_air_bits(c, noise_var), abs=5e-4)

    @pytest.mark.parametrize("noise_var", [0.02, 0.1])
    def test_solver_output_agrees_with_64_node_rule(self, noise_var):
        snr = 10.0**0.4
        f = wiener(snr)
        dims = FrameDims(64, 32)
        lo, hi = c0_bounds(64, f, dims, 1.0, 1.0 / snr)
        c0 = lo + 0.5 * (hi - lo)
        sol = mba_solve(
            PcsConfig("qam", 64, f, dims, 1.0, 1.0 / snr, noise_var, c0)
        )
        c = make_shaped("qam", 64, sol.probs)
        assert sol.air_bits == pytest.approx(gh_product_air_bits(c, noise_var), abs=5e-4)

    def test_agrees_with_monte_carlo(self):
        c = make_shaped("qam", 64, np.linspace(1, 3, 64))
        assert air_quadrature(c, 0.02) == pytest.approx(air_estimate(c, 0.02, samples=1_000_000, seed=12), abs=5e-3)
