"""Probabilistic constellation shaping: maximize AIR under a sensing-MSE budget.

The solver alternates the two Blahut-Arimoto updates on a fixed bank, the
BANK_NODES x BANK_NODES Gauss-Hermite outputs around each point (y is continuous):

  1) posterior update  q(x|y) = p(x) p(y|x) / sum_x' p(x') p(y|x')
  2) Gibbs update      p(x) ~ exp(E_{y|x}[log q(x|y)] - l1 f(x) - l2 |x|^2)

where f(x) is the per-point sensing-MSE penalty of the active filter and the
multipliers (l1, l2) minimize the update's convex dual by Newton's method:
l2 alone first, with l1 = 0 accepted whenever that law meets the MSE budget
(complementary slackness), else both, so the budget holds with equality. The
bank needs no seed, so a solve is deterministic; the reported AIR of the final
distribution is the finer Gauss-Hermite quadrature ``air.air_quadrature``.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq  # noqa: F401

# brentq, air_estimate and complex_normal are unused here but stay importable:
# perfbench/tracing.py wraps pcs.brentq, pcs.air_estimate and pcs.complex_normal
from .air import AirConfig, air_estimate, air_quadrature, gauss_hermite_outputs, log_likelihood_table  # noqa: F401
# bound as ``logsumexp``: perfbench/tracing.py wraps pcs.logsumexp as the posterior span
from .air import row_logsumexp as logsumexp
from .channel import FrameDims, complex_normal  # noqa: F401
from .constellation import Family, make_shaped, make_uniform
from .filtering import RF_MIN_MODULUS, FilterKind, FilterType
from .metrics import closed_form_metrics

P_FLOOR = 1e-300
# Gauss-Hermite nodes per real dimension of the solver's bank. On 64-QAM at comm noise
# variance 0.02, 20x20 nodes give the same AIR to 5 decimals and take 1.9x as long.
BANK_NODES = 10


class SolverError(RuntimeError):
    """Raised when a multiplier solve cannot converge; carries diagnostics."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


@dataclass(frozen=True)
class PcsConfig:
    """One shaping problem: alphabet seed, filter, scene, channel and budget."""

    family: Family | str
    order: int
    filt: FilterKind
    dims: FrameDims
    gain_var: float
    noise_var: float
    comm: AirConfig
    c0: float
    tol: float = 1e-5
    max_outer_iters: int = 500

    def __post_init__(self):
        object.__setattr__(self, "family", Family(self.family))
        # each check is written so that nan fails it
        if not self.tol > 0:
            raise ValueError(f"tol must be > 0, got {self.tol}")
        if not self.noise_var > 0:
            raise ValueError("solver requires noise_var > 0 (finite input SNR)")
        if not self.gain_var > 0:
            raise ValueError(f"gain_var must be > 0, got {self.gain_var}")
        if self.max_outer_iters < 1:
            raise ValueError(f"max_outer_iters must be >= 1, got {self.max_outer_iters}")


@dataclass(frozen=True)
class PcsSolution:
    probs: np.ndarray
    air_bits: float
    sensing_mse: float
    lambda1: float
    lambda2: float
    outer_iters: int
    objective_trace: list[float]
    trace_rows: list[tuple]
    c0_requested: float
    c0_effective: float
    converged: bool


@dataclass(frozen=True)
class TradeoffPoint:
    c0: float
    air_bits: float
    sensing_mse: float
    probs: np.ndarray | None
    error: str | None = None
    converged: bool = False
    outer_iters: int = 0


def penalty_f(points, f: FilterKind, snr_in: float) -> np.ndarray:
    """Per-point sensing-MSE penalty, normalized by NM*noise_var.

    ``snr_in`` is the scene input SNR; the WF form assumes the filter is
    matched to it (callers scale the expectation by NM*noise_var to recover
    the MSE budget).
    """
    if not snr_in > 0:
        raise ValueError(f"snr_in must be > 0, got {snr_in}")
    sq = np.abs(np.asarray(points)) ** 2
    if f.kind is FilterType.MF:
        return snr_in * (sq**2 - 1.0) + 1.0
    if f.kind is FilterType.RF:
        if float(np.min(sq)) < RF_MIN_MODULUS**2:
            raise ValueError("RF division hazard: zero-modulus point")
        return 1.0 / sq
    return 1.0 / (sq + 1.0 / snr_in)


def c0_bounds(
    order: int,
    f: FilterKind,
    dims: FrameDims,
    gain_var: float,
    noise_var: float,
    family: Family | str = Family.QAM,
) -> tuple[float, float]:
    """Meaningful budget range: uniform-PSK MSE (best) to uniform-alphabet MSE (worst).

    For a PSK alphabet both ends coincide (the penalty is constant on the circle).
    """
    lo = closed_form_metrics(make_uniform(Family.PSK, order), f, dims, gain_var, noise_var).mse
    if Family(family) is Family.PSK:
        return lo, lo
    hi = closed_form_metrics(make_uniform(Family.QAM, order), f, dims, gain_var, noise_var).mse
    return lo, hi


def min_penalty_on_simplex(penalties: np.ndarray, energies: np.ndarray) -> tuple[float, np.ndarray]:
    """Minimize p.f over the simplex with p.e = 1 (LP; optimum has <= 2 support points).

    This is the alphabet-achievable floor of the normalized sensing MSE; it can
    sit strictly above the uniform-PSK bound when no unit-modulus shell exists.
    """
    q = len(penalties)
    best_val = math.inf
    best_p = None
    eps = 1e-12
    exact = np.abs(energies - 1.0) <= eps
    if exact.any():
        i = int(np.argmin(np.where(exact, penalties, math.inf)))
        best_val = float(penalties[i])
        best_p = np.zeros(q)
        best_p[i] = 1.0
    lows = np.flatnonzero(energies < 1.0 - eps)
    highs = np.flatnonzero(energies > 1.0 + eps)
    if lows.size and highs.size:
        e_lo = energies[lows][:, None]
        e_hi = energies[highs][None, :]
        w = (e_hi - 1.0) / (e_hi - e_lo)
        vals = w * penalties[lows][:, None] + (1.0 - w) * penalties[highs][None, :]
        i, j = np.unravel_index(int(np.argmin(vals)), vals.shape)
        if float(vals[i, j]) < best_val:
            best_val = float(vals[i, j])
            best_p = np.zeros(q)
            best_p[lows[i]] = float(w[i, j])
            best_p[highs[j]] = 1.0 - float(w[i, j])
    if best_p is None:
        raise SolverError("power constraint infeasible on this alphabet")
    return best_val, best_p


def _gibbs_law(t, F, b):
    """The law p ~ exp(t - lam.F) whose feature means E_p[F] equal ``b``, and its multipliers lam.

    lam minimizes the convex dual log sum exp(t - lam.F) + lam.b by Newton's method: the
    gradient is the gap b - E_p[F] and the Hessian is Cov_p[F]. Each step is halved until
    the gap's norm shrinks; the dual's value is flat to rounding near its minimum, so it
    cannot steer the step. A feature constant on the alphabet keeps a zero multiplier.
    """
    free = np.ptp(F, axis=1) >= 1e-12
    F, b, lam = F[free], b[free], np.zeros(len(F))

    def law(x):
        a = t - x @ F
        w = np.exp(a - a.max())
        p = w / w.sum()
        return p, b - F @ p

    x = lam[free]
    p, gap = law(x)
    for _ in range(100):
        if np.all(np.abs(gap) <= 1e-13 * np.abs(b)):
            lam[free] = x
            return p, lam
        centered = F - (F @ p)[:, None]
        step = np.linalg.lstsq((centered * p) @ centered.T, gap, rcond=None)[0]
        s = 1.0
        while (trial := law(x - s * step))[1] @ trial[1] >= gap @ gap and s > 2.0**-40:
            s *= 0.5
        x = x - s * step
        p, gap = trial
    raise SolverError("multiplier Newton iteration did not converge", {"lambda": x.tolist(), "gap": gap.tolist()})


def _constrained_update(t, fpen, energy, budget_norm):
    """One Gibbs update: power alone when that law meets the MSE budget (l1 = 0), else both."""
    p, (l2,) = _gibbs_law(t, energy[None], np.ones(1))
    if float(p @ fpen) <= budget_norm * (1.0 + 1e-12):
        return p, 0.0, float(l2)
    p, (l1, l2) = _gibbs_law(t, np.stack([fpen, energy]), np.array([budget_norm, 1.0]))
    return p, float(l1), float(l2)


def effective_budget(cfg: PcsConfig) -> tuple[float, float, float]:
    """Clamp the requested budget into the achievable range; returns (c0_eff, c_lo, c_hi)."""
    snr_in = cfg.gain_var / cfg.noise_var
    points = make_uniform(cfg.family, cfg.order).points
    fpen = penalty_f(points, cfg.filt, snr_in)
    energy = np.abs(points) ** 2
    scale = cfg.dims.size * cfg.noise_var
    c_lo, c_hi = c0_bounds(cfg.order, cfg.filt, cfg.dims, cfg.gain_var, cfg.noise_var, cfg.family)
    lp_val, _ = min_penalty_on_simplex(fpen, energy)
    lower = min(scale * lp_val * (1.0 + 1e-3), c_hi)
    c0_eff = min(max(cfg.c0, lower), c_hi)
    if not math.isclose(c0_eff, cfg.c0, rel_tol=1e-12, abs_tol=0.0):
        warnings.warn(
            f"c0={cfg.c0:g} outside the achievable range "
            f"[{lower:g}, {c_hi:g}]; clamped to {c0_eff:g}",
            stacklevel=2,
        )
    return c0_eff, c_lo, c_hi


def mba_solve(cfg: PcsConfig) -> PcsSolution:
    """Run the modified Blahut-Arimoto iteration until the iterates settle.

    Terminates when ||p_next - p||^2 <= tol or after max_outer_iters. The
    returned distribution satisfies the simplex exactly, and the unit-power constraint
    and sensing_mse <= c0_effective (equality when lambda1 > 0) to a relative 1e-13.
    The bank and the work table are freed before the AIR quadrature runs.
    """
    points = make_uniform(cfg.family, cfg.order).points
    energy = np.abs(points) ** 2
    snr_in = cfg.gain_var / cfg.noise_var
    if cfg.filt.kind is FilterType.WF and not math.isclose(cfg.filt.snr_in, snr_in, rel_tol=1e-9):
        warnings.warn(
            f"WF snr_in={cfg.filt.snr_in:g} differs from the scene value {snr_in:g}; "
            "the MSE budget assumes the matched value",
            stacklevel=2,
        )
    fpen = penalty_f(points, cfg.filt, snr_in)
    scale = cfg.dims.size * cfg.noise_var
    c0_eff, _, _ = effective_budget(cfg)
    budget_norm = c0_eff / scale

    var = cfg.comm.comm_noise_var
    centers = complex(cfg.comm.channel_gain) * points
    y, node_w = gauss_hermite_outputs(centers, var, BANK_NODES)
    ll = log_likelihood_table(y, centers, var)
    own_idx = np.repeat(np.arange(cfg.order), node_w.size)
    own_ll = ll[np.arange(ll.shape[0]), own_idx]

    work = np.empty_like(ll)  # ll + log p, overwritten by each posterior step
    p = np.full(cfg.order, 1.0 / cfg.order)
    trace: list[float] = []
    rows: list[tuple] = []
    l1 = l2 = 0.0
    converged = False
    iters = 0
    for iters in range(1, cfg.max_outer_iters + 1):
        logp = np.log(np.clip(p, P_FLOOR, None))
        lse = logsumexp(np.add(ll, logp, out=work))
        t = (logp[own_idx] + own_ll - lse).reshape(cfg.order, -1) @ node_w
        p_next, l1, l2 = _constrained_update(t, fpen, energy, budget_norm)
        # surrogate of the updated (always feasible) iterate against the current
        # posterior; this sequence is non-decreasing even when the uniform seed
        # violates the budget
        objective = float(p_next @ (t - np.log(np.clip(p_next, P_FLOOR, None))))
        trace.append(objective)
        rows.append(
            (iters, objective, scale * float(p_next @ fpen), float(p_next @ energy), l1, l2)
        )
        delta = float(((p_next - p) ** 2).sum())
        p = p_next
        if delta <= cfg.tol:
            converged = True
            break

    del ll, own_ll, work  # free the bank before the quadrature allocates its blocks
    sensing_mse = scale * float(p @ fpen)
    shaped = make_shaped(cfg.family, cfg.order, p)
    air_bits = air_quadrature(shaped, cfg.comm)
    return PcsSolution(
        probs=p,
        air_bits=air_bits,
        sensing_mse=sensing_mse,
        lambda1=l1,
        lambda2=l2,
        outer_iters=iters,
        objective_trace=trace,
        trace_rows=rows,
        c0_requested=cfg.c0,
        c0_effective=c0_eff,
        converged=converged,
    )


def tradeoff_sweep(cfg: PcsConfig, c0_grid) -> list[TradeoffPoint]:
    """One independent solve per budget, in increasing order; errors do not stop the sweep.

    Each solve rebuilds the same quadrature bank and recomputes the budget
    bounds; nothing is carried from one budget to the next. The
    ``tradeoff`` command then passes every solved codebook to one
    ``detection_probability`` call, so every budget's P_d comes from one shared
    trial set and differences along the frontier come from the codebooks, not
    from the draw.
    """
    points: list[TradeoffPoint] = []
    for c0 in sorted(float(v) for v in c0_grid):
        try:
            sol = mba_solve(dataclasses.replace(cfg, c0=c0))
            points.append(
                TradeoffPoint(
                    c0, sol.air_bits, sol.sensing_mse, sol.probs,
                    converged=sol.converged, outer_iters=sol.outer_iters,
                )
            )
        except SolverError as exc:
            points.append(TradeoffPoint(c0, math.nan, math.nan, None, error=str(exc)))
    return points
