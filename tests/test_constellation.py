"""Constellation construction, moments, chi statistics, and sampling."""

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ofdm_isac.constellation import (
    Family,
    ShapedConstellation,
    chi_stats,
    draw_symbols,
    load_codebook,
    make_shaped,
    make_uniform,
    moment_abs_pow,
    sample_symbols,
    save_codebook,
    symbol_index,
)
from ofdm_isac.filtering import MF, RF, wiener


def enumerate_qam_moments(order):
    """Independent oracle: exact moments of the normalized odd-integer grid."""
    side = math.isqrt(order)
    levels = [2 * i - (side - 1) for i in range(side)]
    sq = [a * a + b * b for a in levels for b in levels]
    mean = sum(sq) / order
    fourth = sum(v * v for v in sq) / order / mean**2
    inv = sum(mean / v for v in sq) / order
    return fourth, inv


class TestConstruction:
    def test_qpsk_points_on_diagonals(self):
        c = make_uniform(Family.PSK, 4)
        expected = np.exp(1j * np.array([np.pi / 4, 3 * np.pi / 4, 5 * np.pi / 4, 7 * np.pi / 4]))
        np.testing.assert_allclose(c.points, expected, atol=1e-15)
        np.testing.assert_allclose(c.probs, 0.25)

    @pytest.mark.parametrize("family,order", [("psk", 8), ("qam", 4), ("qam", 64), ("qam", 1024)])
    def test_unit_power_and_simplex(self, family, order):
        c = make_uniform(family, order)
        assert abs(math.fsum(c.probs) - 1.0) < 1e-12
        assert abs(math.fsum(c.probs * np.abs(c.points) ** 2) - 1.0) < 1e-12
        assert np.unique(c.points).size == order

    def test_qam_points_row_major(self):
        c = make_uniform("qam", 16)
        order = np.lexsort((c.points.imag, c.points.real))
        np.testing.assert_array_equal(order, np.arange(16))

    def test_shaped_rescales_power(self):
        probs = np.zeros(16)
        probs[0] = probs[-1] = 0.5  # corners only
        c = make_shaped("qam", 16, probs)
        assert abs(math.fsum(c.probs * np.abs(c.points) ** 2) - 1.0) < 1e-12

    def test_bad_orders_rejected(self):
        with pytest.raises(ValueError, match="unsupported QAM order"):
            make_uniform("qam", 32)
        with pytest.raises(ValueError, match="unsupported PSK order"):
            make_uniform("psk", 3)

    def test_negative_probs_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            make_shaped("qam", 4, [0.5, 0.6, -0.1, 0.0])

    def test_zero_modulus_point_rejected(self):
        with pytest.raises(ValueError, match="nonzero modulus"):
            ShapedConstellation(np.array([0j, 1 + 0j]), np.array([0.5, 0.5]), "qam", 2)


class TestMoments:
    def test_psk_fourth_moment_is_one(self):
        for order in (2, 4, 8, 16):
            assert moment_abs_pow(make_uniform("psk", order), 4.0) == pytest.approx(1.0, abs=1e-14)

    def test_qam64_fourth_moment(self):
        fourth, _ = enumerate_qam_moments(64)
        c = make_uniform("qam", 64)
        assert moment_abs_pow(c, 4.0) == pytest.approx(fourth, rel=1e-13)
        assert moment_abs_pow(c, 4.0) == pytest.approx(29.0 / 21.0, rel=1e-13)

    def test_qam64_inverse_square_moment(self):
        _, inv = enumerate_qam_moments(64)
        assert moment_abs_pow(make_uniform("qam", 64), -2.0) == pytest.approx(inv, rel=1e-13)
        assert moment_abs_pow(make_uniform("qam", 64), -2.0) == pytest.approx(2.685417, abs=1e-6)

    def test_qam16_inverse_square_moment(self):
        assert moment_abs_pow(make_uniform("qam", 16), -2.0) == pytest.approx(17.0 / 9.0, rel=1e-13)


class TestChiStats:
    def test_psk_mf(self):
        s = chi_stats(make_uniform("psk", 4), MF)
        assert s.mean_chi == pytest.approx(1.0, abs=1e-14)
        assert s.mean_chi_sq == pytest.approx(1.0, abs=1e-14)
        assert s.var_chi == pytest.approx(0.0, abs=1e-14)
        assert s.mean_gain_sq == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("family,order", [("psk", 8), ("qam", 16), ("qam", 64)])
    def test_rf_is_flat(self, family, order):
        c = make_uniform(family, order)
        s = chi_stats(c, RF)
        assert s.mean_chi == 1.0
        assert s.var_chi == 0.0
        assert s.mean_gain_sq == pytest.approx(moment_abs_pow(c, -2.0), rel=1e-13)

    def test_single_point_wf(self):
        c = ShapedConstellation(np.array([1.0 + 0j]), np.array([1.0]), "psk", 1)
        s = chi_stats(c, wiener(1.0))
        assert s.mean_chi == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("order", [16, 64, 1024])
    @pytest.mark.parametrize("snr", [0.1, 1.0, 100.0])
    def test_variance_identity_and_mean_bound(self, order, snr):
        c = make_uniform("qam", order)
        for f in (MF, RF, wiener(snr)):
            s = chi_stats(c, f)
            assert s.var_chi >= 0.0
            assert abs(s.var_chi - (s.mean_chi_sq - s.mean_chi**2)) < 1e-12
            assert s.mean_chi <= 1.0 + 1e-12

    def test_wf_approaches_rf_at_high_snr(self):
        c = make_uniform("qam", 64)
        s_wf = chi_stats(c, wiener(1e6))
        s_rf = chi_stats(c, RF)
        assert abs(s_wf.mean_chi - s_rf.mean_chi) / s_rf.mean_chi < 1e-3
        assert abs(s_wf.mean_gain_sq - s_rf.mean_gain_sq) / s_rf.mean_gain_sq < 1e-3

    def test_wf_low_snr_gain_limit(self):
        # g ~ snr * x!*, so E|g|^2 / snr^2 -> E|x|^2 = 1
        c = make_uniform("qam", 64)
        snr = 1e-8
        s = chi_stats(c, wiener(snr))
        assert s.mean_gain_sq / snr**2 == pytest.approx(1.0, rel=1e-6)

    def test_wf_requires_positive_snr(self):
        with pytest.raises(ValueError, match="snr_in > 0"):
            wiener(0.0)


class TestSampling:
    def test_same_seed_identical(self):
        c = make_uniform("qam", 16)
        a = sample_symbols(c, 1000, seed=7)
        b = sample_symbols(c, 1000, seed=7)
        np.testing.assert_array_equal(a, b)

    def test_degenerate_distribution(self):
        probs = np.zeros(16)
        probs[3] = 1.0
        c = make_shaped("qam", 16, probs)
        x = sample_symbols(c, 500, seed=0)
        np.testing.assert_array_equal(x, np.full(500, c.points[3]))

    def test_qpsk_frequencies_within_3_sigma(self):
        c = make_uniform("psk", 4)
        n = 1_000_000
        x = sample_symbols(c, n, seed=123)
        sigma = math.sqrt(n * 0.25 * 0.75)
        for point in c.points:
            count = int(np.sum(x == point))
            assert abs(count - n * 0.25) < 3 * sigma

    def test_empirical_fourth_moment_lln(self):
        c = make_uniform("qam", 64)
        n = 1_000_000
        x = sample_symbols(c, n, seed=5)
        emp = float(np.mean(np.abs(x) ** 4))
        exact = moment_abs_pow(c, 4.0)
        std = math.sqrt((moment_abs_pow(c, 8.0) - exact**2) / n)
        assert abs(emp - exact) < 3 * std


class TestCodebookFile:
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        probs = rng.random(64)
        c = make_shaped("qam", 64, probs / probs.sum())
        path = tmp_path / "cb.json"
        save_codebook(path, c, snr_in=2.5, filter_kind="wf", c0=123.4, provenance="test")
        loaded, meta = load_codebook(path)
        np.testing.assert_array_equal(loaded.probs, c.probs)
        np.testing.assert_allclose(loaded.points, c.points, rtol=0, atol=0)
        assert meta["filter"] == "wf"
        assert meta["c0"] == 123.4

    def test_schema_fields(self, tmp_path):
        path = tmp_path / "cb.json"
        save_codebook(path, make_uniform("psk", 8))
        data = json.loads(path.read_text())
        assert set(data) == {"family", "order", "probs", "snr_in", "filter", "c0", "provenance"}
        assert len(data["probs"]) == 8


def circle(weights):
    """Alphabet of len(weights) distinct unit-circle points carrying the weights."""
    q = len(weights)
    return ShapedConstellation(np.exp(2j * np.pi * np.arange(q) / q), np.asarray(weights, float), "psk", q)


def searchsorted_draw(c, uniforms):
    """Reference inverse-CDF index: the clipped searchsorted over cumsum(probs)."""
    idx = np.searchsorted(np.cumsum(c.probs), uniforms, side="right")
    return np.minimum(idx, c.order - 1)


class FixedUniforms:
    """Stands in for a Generator whose ``random`` returns chosen uniforms."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64)

    def random(self, shape):
        return self.values.reshape(shape)


@st.composite
def distributions(draw):
    q = draw(st.integers(2, 256))
    weight = st.one_of(st.just(0.0), st.floats(1e-12, 1e-9), st.floats(1e-12, 1.0))
    weights = draw(st.lists(weight, min_size=q, max_size=q))
    spike = draw(st.integers(0, q - 1))
    weights[spike] = draw(st.floats(0.5, 1.0))  # positive mass; other points may be 1e-12 spikes
    return weights


class TestDrawSymbols:
    @settings(max_examples=80, deadline=None)
    @given(weights=distributions(), seed=st.integers(0, 2**32 - 1))
    @example(weights=[1.0] * 10, seed=0)  # cumsum ends just below 1
    @example(weights=[1.0] * 49, seed=0)  # cumsum ends just above 1
    def test_equals_clipped_searchsorted(self, weights, seed):
        c = circle(weights)
        got = draw_symbols(c, np.random.default_rng(seed), (3, 257))
        want = searchsorted_draw(c, np.random.default_rng(seed).random((3, 257)))
        np.testing.assert_array_equal(got, want)

    @settings(max_examples=40, deadline=None)
    @given(weights=distributions())
    @example(weights=[1.0] * 10)
    @example(weights=[1.0] * 49)
    def test_exact_at_cut_points(self, weights):
        c = circle(weights)
        cut = np.cumsum(c.probs)
        below = np.nextafter(cut, -np.inf)
        above = np.nextafter(cut, np.inf)
        u = np.concatenate([cut, below, above, [0.0, 1.0 - 2.0**-53, 0.5]])
        u = u[(u >= 0.0) & (u < 1.0)]
        got = draw_symbols(c, FixedUniforms(u), u.shape)
        np.testing.assert_array_equal(got, searchsorted_draw(c, u))

    @pytest.mark.parametrize(
        "shaped, seed, digest",
        [
            (False, 0, "85447ccc9c02b675509129f2f8751117b0b63a419c5eb50f3a451498d69b0daf"),
            (False, 2026, "ddbdc4f86ce3fb3025a91d8c6479b3e40fa44238f3a94839317e8a758edbb732"),
            (True, 0, "63f04b129e0ee72366c59f63abdc4928f3847c0240b859c415cc5f738515e8e3"),
            (True, 2026, "dac1d5023ce6f5b8c8133a6e562ce5f70c63ed2f7e0dfd8b26139482984a3960"),
        ],
    )
    def test_pinned_stream(self, shaped, seed, digest):
        """Digests taken from the searchsorted draw; a change here changes every Monte Carlo result."""
        if shaped:
            weights = np.arange(64) % 7 + 1.0
            weights[5] = 0.0
            c = make_shaped("qam", 64, weights)
        else:
            c = make_uniform("qam", 64)
        idx = draw_symbols(c, np.random.default_rng(seed), (16, 64, 32))
        assert hashlib.sha256(idx.astype("<i8").tobytes()).hexdigest() == digest


class TestSymbolIndex:
    @settings(max_examples=60, deadline=None)
    @given(
        weights=distributions(),
        seed=st.integers(0, 2**32 - 1),
        shape=st.lists(st.integers(1, 9), min_size=1, max_size=3).map(tuple),
    )
    @example(weights=[1.0] * 10, seed=0, shape=(4, 64))  # cumsum ends just below 1: the last cut clips
    @example(weights=[1.0] * 49, seed=0, shape=(4, 64))  # cumsum ends just above 1
    @example(weights=[0.0, 1.0, 0.0, 0.0], seed=1, shape=(200,))  # zero-probability points at both ends
    def test_uniforms_then_index_is_the_draw(self, weights, seed, shape):
        """A shared draw maps its uniforms to exactly the indices draw_symbols gives on that stream."""
        c = circle(weights)
        got = symbol_index(c, np.random.default_rng(seed).random(shape))
        want = draw_symbols(c, np.random.default_rng(seed), shape)
        assert got.shape == want.shape == shape
        np.testing.assert_array_equal(got, want)
