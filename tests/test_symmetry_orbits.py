"""The alphabet's symmetry orbits, and the orbit solve and quadrature against full-alphabet oracles."""

import math
import warnings

import numpy as np
import pytest

from ofdm_isac import pcs
from ofdm_isac.air import (
    GH_NODES,
    air_quadrature,
    gauss_hermite_outputs,
    log_likelihood_table,
    row_logsumexp,
    symmetry_orbits,
)
from ofdm_isac.channel import FrameDims
from ofdm_isac.constellation import ShapedConstellation, make_shaped, make_uniform
from ofdm_isac.filtering import MF, RF, wiener
from ofdm_isac.pcs import PcsConfig, c0_bounds, effective_budget, mba_solve, penalty_f

SNR = 10.0**0.4
DIMS = FrameDims(64, 32)
FILTERS = {"mf": MF, "rf": RF, "wf": wiener(SNR)}
TILTED = 0.6 + 0.8j  # h / conj(h) is not a power of j: the alphabet h x keeps only the rotations


def turned(c, gain):
    """The alphabet gain * x that y = gain x + n presents to the receiver, with c's law."""
    return ShapedConstellation(gain * c.points, c.probs, c.family, c.order)


def full_quadrature(c, var, gain=1.0, nodes=GH_NODES):
    """The Gauss-Hermite AIR of y = gain x + n, n ~ CN(0, var), summed over every point with p > 0,
    in the quadrature's row blocks: the outputs and the likelihoods are centred on gain x."""
    keep = c.probs > 0
    probs = c.probs[keep]
    centers = gain * c.points[keep]
    y, node_w = gauss_hermite_outputs(centers, var, nodes)
    row_w = (probs[:, None] * node_w[None, :]).ravel()
    mean_lse = 0.0
    for start in range(0, y.size, 8192):
        block = slice(start, start + 8192)
        a = log_likelihood_table(y[block], centers, var)
        a += np.log(probs)
        mean_lse += float(row_w[block] @ row_logsumexp(a))
    bits = (-mean_lse - 1.0) / math.log(2.0)
    return min(max(bits, 0.0), c.entropy_bits())


def full_solve(cfg):
    """The Blahut-Arimoto loop on every point of the alphabet: each point's bank rows and its own p(x)."""
    points = make_uniform(cfg.family, cfg.order).points
    energy = np.abs(points) ** 2
    fpen = penalty_f(points, cfg.filt, cfg.gain_var / cfg.noise_var)
    c0_eff = effective_budget(cfg)
    budget_norm = c0_eff / (cfg.dims.size * cfg.noise_var)
    var = cfg.comm_noise_var
    y, node_w = gauss_hermite_outputs(points, var, pcs.BANK_NODES)
    ll = log_likelihood_table(y, points, var)
    own_idx = np.repeat(np.arange(cfg.order), node_w.size)
    own_ll = ll[np.arange(ll.shape[0]), own_idx]
    p = np.full(cfg.order, 1.0 / cfg.order)
    converged = False
    for iters in range(1, cfg.max_outer_iters + 1):
        logp = np.log(np.clip(p, pcs.P_FLOOR, None))
        lse = row_logsumexp(ll + logp)
        t = (logp[own_idx] + own_ll - lse).reshape(cfg.order, -1) @ node_w
        p_next, _, _ = pcs._constrained_update(t, fpen, energy, budget_norm)
        delta = float(((p_next - p) ** 2).sum())
        p = p_next
        if delta <= cfg.tol:
            converged = True
            break
    return p, full_quadrature(make_shaped(cfg.family, cfg.order, p), var), iters, converged


class TestSymmetryOrbits:
    @pytest.mark.parametrize("order, count", [(16, 3), (64, 10), (256, 36)])
    def test_square_qam_at_real_gain(self, order, count):
        reps, sizes, orbit_of = symmetry_orbits(make_uniform("qam", order).points)
        assert reps.size == count and sizes.sum() == order
        assert set(sizes.tolist()) == {4, 8}  # the diagonal points' orbits have 4, the others 8

    @pytest.mark.parametrize("gain", [1j, -1.0, (1 + 1j) / math.sqrt(2.0), 2.0 - 2.0j])
    def test_reflections_kept_when_the_gain_is_on_an_axis_or_diagonal(self, gain):
        got = symmetry_orbits(gain * make_uniform("qam", 64).points)
        want = symmetry_orbits(make_uniform("qam", 64).points)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("order", [16, 64, 256])
    def test_only_rotations_at_a_tilted_gain(self, order):
        points = TILTED * make_uniform("qam", order).points
        reps, sizes, orbit_of = symmetry_orbits(points)
        assert reps.size == order // 4 and np.all(sizes == 4)
        for r, rep in enumerate(reps):
            members = points[orbit_of == r]
            want = points[rep] * np.array([1, 1j, -1, -1j])
            np.testing.assert_array_equal(np.sort_complex(members), np.sort_complex(want))

    @pytest.mark.parametrize(
        "order, gain, sizes",
        [(2, 1.0, [2]), (2, TILTED, [2]), (4, 1.0, [4]), (4, TILTED, [4]), (8, 1.0, [8]), (8, TILTED, [4, 4])],
    )
    def test_psk(self, order, gain, sizes):
        assert symmetry_orbits(gain * make_uniform("psk", order).points)[1].tolist() == sizes

    @pytest.mark.parametrize("family, order", [("qam", 16), ("qam", 64), ("qam", 256), ("psk", 8), ("psk", 64)])
    @pytest.mark.parametrize("gain", [1.0, TILTED])
    def test_members_share_energy_and_penalty(self, family, order, gain):
        points = gain * make_uniform(family, order).points
        reps, sizes, orbit_of = symmetry_orbits(points)
        assert np.all(reps[orbit_of] <= np.arange(order))  # each orbit's representative is its least index
        for f in FILTERS.values():
            pen = penalty_f(points, f, SNR)
            np.testing.assert_allclose(pen, pen[reps][orbit_of], rtol=1e-14, atol=0.0)
        energy = np.abs(points) ** 2
        np.testing.assert_allclose(energy, energy[reps][orbit_of], rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("family, order", [("qam", 16), ("qam", 64), ("psk", 8), ("psk", 16)])
@pytest.mark.parametrize("gain", [1.0, TILTED])
def test_orbit_quadrature_matches_the_full_sum(family, order, gain):
    uniform = make_uniform(family, order)
    orbit_of = symmetry_orbits(gain * uniform.points)[2]
    for c in (uniform, make_shaped(family, order, 1.0 + orbit_of)):
        c = turned(c, gain)
        assert air_quadrature(c, 0.05) == pytest.approx(full_quadrature(c, 0.05), rel=0.0, abs=1e-12)


@pytest.mark.parametrize("gain", [0.6 + 0.8j, 0.3 + 1.1j])
def test_a_gain_is_a_noise_variance(gain):
    """y = h x + n with n ~ CN(0, var) has the AIR of y = x + n' with n' ~ CN(0, var / |h|^2): dividing by h
    is an invertible map of the output. At 60 x 60 nodes the two full sums agree to rounding. At the reported
    20 x 20 rule a tilted h puts the noise grid at an angle, and they differ by that rule's error: 7e-9 bits at
    0.6+0.8j, 8e-8 at 0.3+1.1j."""
    c = make_shaped("qam", 64, np.arange(64) % 7 + 1.0)
    at_gain = full_quadrature(c, 0.1, gain, nodes=60)
    folded = full_quadrature(c, 0.1 / abs(gain) ** 2, nodes=60)
    assert abs(at_gain - folded) <= 1e-12


def _grid():
    """Every filter and budget fraction on each alphabet at both comm noise variances, except 256-QAM's subset."""
    alphabets = [("qam", 16), ("psk", 8), ("psk", 16), ("qam", 64), ("psk", 64)]
    cases = [(fam, order, filt, frac, var) for fam, order in alphabets
             for filt in FILTERS for frac in (0.2, 0.5, 0.8) for var in (0.02, 0.1)]
    cases += [("qam", 256, filt, 0.5, 0.02) for filt in FILTERS] + [("qam", 256, "wf", 0.2, 0.1)]
    return cases


@pytest.mark.parametrize("family, order", sorted({case[:2] for case in _grid()}))
def test_orbit_solve_matches_the_full_alphabet_solve(family, order):
    for fam, q, filt, frac, var in _grid():
        if (fam, q) != (family, order):
            continue
        f = FILTERS[filt]
        lo, hi = c0_bounds(order, f, DIMS, 1.0, 1.0 / SNR, family)
        cfg = PcsConfig(family, order, f, DIMS, 1.0, 1.0 / SNR, var, lo + frac * (hi - lo))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the tightest budgets are clamped to the alphabet's floor
            sol = mba_solve(cfg)
            probs, air_bits, iters, converged = full_solve(cfg)
        case = (filt, frac, var)
        assert (sol.outer_iters, sol.converged) == (iters, converged), case
        assert abs(sol.air_bits - air_bits) <= 1e-12, case
        assert np.max(np.abs(sol.codebook.probs - probs)) <= 1e-15, case
