"""Probabilistic constellation shaping: maximize AIR under a sensing-MSE budget.

The constraints depend on |x| only, and the channel and the noise grid are
invariant under the maps of ``air.symmetry_orbits``, so the optimum is constant
on each orbit O of the alphabet and the solver works on the orbit masses
P(O) = |O| p(x). It alternates the two Blahut-Arimoto updates on a fixed bank,
the BANK_NODES x BANK_NODES Gauss-Hermite outputs around one representative x
of each orbit (y is continuous; 1,000 rows for 64-QAM):

  1) posterior update  q(x|y) = p(x) p(y|x) / sum_x' p(x') p(y|x'), x' over every point
  2) Gibbs update      P(O) ~ |O| exp(E_{y|x}[log q(x|y)] - l1 f(x) - l2 |x|^2)

where f(x) = snr_in (chi(x) - 1)^2 + |g(x)|^2 is the exact per-point sensing
MSE of the active filter, normalized by NM*noise_var (for any filter, a WF
mismatched to the scene included), and the multipliers (l1, l2) minimize the
update's convex dual by Newton's method: l2 alone first, with l1 = 0 accepted
whenever that law meets the MSE budget (complementary slackness), else both, so
the budget holds with equality. The bank needs no seed, so a solve is
deterministic; the reported AIR of the final distribution is the finer
Gauss-Hermite quadrature ``air.air_quadrature``.
A solve's one result type is ``PcsSolution``; ``tradeoff_sweep`` pairs each
budget with its solution or the ``SolverError`` its solve raised.
"""

from __future__ import annotations

import dataclasses
import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq  # noqa: F401

# brentq, air_estimate and complex_normal are unused here but stay importable:
# perfbench/tracing.py wraps pcs.brentq, pcs.air_estimate and pcs.complex_normal
from .air import (  # noqa: F401
    air_estimate, air_quadrature, check_variance, gauss_hermite_outputs, log_likelihood_table, symmetry_orbits,
)
# bound as ``logsumexp``: perfbench/tracing.py wraps pcs.logsumexp as the posterior span
from .air import row_logsumexp as logsumexp
from .channel import FrameDims, check_int, complex_normal  # noqa: F401
from .constellation import Family, make_shaped, make_uniform
from .filtering import RF_MIN_MODULUS, FilterKind, FilterType, point_chi, point_gain
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
    comm_noise_var: float  # the AIR's channel y = x + n, n ~ CN(0, comm_noise_var)
    c0: float
    tol: float = 1e-5
    max_outer_iters: int = 500

    def __post_init__(self):
        object.__setattr__(self, "family", Family(self.family))
        # each check is written so that nan fails it
        if not self.tol > 0:
            raise ValueError(f"tol must be > 0, got {self.tol}")
        for name in ("noise_var", "gain_var", "comm_noise_var"):
            check_variance(name, getattr(self, name))
        object.__setattr__(self, "max_outer_iters", check_int("max_outer_iters", self.max_outer_iters, 1))
        if math.isnan(self.c0):  # an infinite budget is clamped, with a warning, by the solve
            raise ValueError("c0 must be a number, got nan")


@dataclass(frozen=True)
class PcsSolution:
    probs: np.ndarray
    air_bits: float
    sensing_mse: float
    outer_iters: int
    trace_rows: list[tuple]  # (iter, objective, mse, power, lambda1, lambda2) per iteration; the last row's are final
    c0_effective: float
    converged: bool


def penalty_f(points, f: FilterKind, snr_in: float) -> np.ndarray:
    """Per-point sensing-MSE penalty snr_in * (chi - 1)^2 + |g|^2, normalized by NM*noise_var.

    It is the exact per-symbol CSI MSE of any filter, WF at any ``snr_in`` included:
    ``snr_in`` is the scene input SNR, and chi and g come from ``point_chi`` and
    ``point_gain``. Callers scale the expectation by NM*noise_var to recover the
    MSE budget.
    """
    if not snr_in > 0:
        raise ValueError(f"snr_in must be > 0, got {snr_in}")
    points = np.asarray(points)
    if f.kind is FilterType.RF and float(np.min(np.abs(points))) < RF_MIN_MODULUS:
        raise ValueError("RF division hazard: zero-modulus point")
    return snr_in * (point_chi(points, f) - 1.0) ** 2 + np.abs(point_gain(points, f)) ** 2


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
        try:
            step = np.linalg.lstsq((centered * p) @ centered.T, gap, rcond=None)[0]
        except np.linalg.LinAlgError as exc:  # "SVD did not converge": this budget's solve fails, not the run
            diagnostics = {"lambda": x.tolist(), "gap": gap.tolist()}
            raise SolverError(f"multiplier Newton step failed: {exc}", diagnostics) from exc
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


def _caller_stacklevel() -> int:
    """``warnings.warn``'s stacklevel, from the function that warns, of the first frame outside this package."""
    frame, level = sys._getframe(1), 1
    while frame is not None and frame.f_globals.get("__name__", "").partition(".")[0] == __package__:
        frame, level = frame.f_back, level + 1
    return level


def effective_budget(cfg: PcsConfig) -> float:
    """The requested budget clamped into the achievable range."""
    snr_in = cfg.gain_var / cfg.noise_var
    points = make_uniform(cfg.family, cfg.order).points
    fpen = penalty_f(points, cfg.filt, snr_in)
    energy = np.abs(points) ** 2
    scale = cfg.dims.size * cfg.noise_var
    _, c_hi = c0_bounds(cfg.order, cfg.filt, cfg.dims, cfg.gain_var, cfg.noise_var, cfg.family)
    lp_val, _ = min_penalty_on_simplex(fpen, energy)
    lower = min(scale * lp_val * (1.0 + 1e-3), c_hi)
    c0_eff = min(max(cfg.c0, lower), c_hi)
    if not math.isclose(c0_eff, cfg.c0, rel_tol=1e-12, abs_tol=0.0):
        warnings.warn(
            f"c0={cfg.c0:g} outside the achievable range "
            f"[{lower:g}, {c_hi:g}]; clamped to {c0_eff:g}",
            stacklevel=_caller_stacklevel(),
        )
    return c0_eff


def mba_solve(cfg: PcsConfig) -> PcsSolution:
    """Run the modified Blahut-Arimoto iteration until the iterates settle.

    The iteration runs on the orbit masses P(O) of ``air.symmetry_orbits``: the
    constraints and the channel are invariant under its maps, so the optimum is
    constant on each orbit and p(x) = P(O) / |O|. Terminates when
    ||p_next - p||^2 = sum_O (P_next(O) - P(O))^2 / |O| <= tol or after
    max_outer_iters. The returned distribution satisfies the simplex exactly,
    and the unit-power constraint and sensing_mse <= c0_effective (equality when
    the last trace row's lambda1 > 0) to a relative 1e-13. The bank and the work
    table are freed before the AIR quadrature runs.
    """
    points = make_uniform(cfg.family, cfg.order).points
    snr_in = cfg.gain_var / cfg.noise_var
    reps, sizes, orbit_of = symmetry_orbits(points)
    log_sizes = np.log(sizes)
    energy = np.abs(points[reps]) ** 2
    fpen = penalty_f(points[reps], cfg.filt, snr_in)
    scale = cfg.dims.size * cfg.noise_var
    c0_eff = effective_budget(cfg)
    budget_norm = c0_eff / scale

    var = cfg.comm_noise_var
    y, node_w = gauss_hermite_outputs(points[reps], var, BANK_NODES)
    ll = log_likelihood_table(y, points, var)
    own_idx = np.repeat(reps, node_w.size)
    own_ll = ll[np.arange(ll.shape[0]), own_idx]

    work = np.empty_like(ll)  # ll + log p, overwritten by each posterior step
    mass = sizes / cfg.order
    rows: list[tuple] = []
    converged = False
    for iters in range(1, cfg.max_outer_iters + 1):
        logp = np.log(np.clip(mass / sizes, P_FLOOR, None))[orbit_of]
        lse = logsumexp(np.add(ll, logp, out=work))
        t = (logp[own_idx] + own_ll - lse).reshape(reps.size, -1) @ node_w
        mass_next, l1, l2 = _constrained_update(t + log_sizes, fpen, energy, budget_norm)
        # surrogate of the updated (always feasible) iterate against the current
        # posterior; this sequence is non-decreasing even when the uniform seed
        # violates the budget
        objective = float(mass_next @ (t - np.log(np.clip(mass_next / sizes, P_FLOOR, None))))
        rows.append(
            (iters, objective, scale * float(mass_next @ fpen), float(mass_next @ energy), l1, l2)
        )
        delta = float(((mass_next - mass) ** 2 / sizes).sum())
        mass = mass_next
        if delta <= cfg.tol:
            converged = True
            break

    del ll, own_ll, work  # free the bank before the quadrature allocates its blocks
    p = (mass / sizes)[orbit_of]
    shaped = make_shaped(cfg.family, cfg.order, p)
    air_bits = air_quadrature(shaped, cfg.comm_noise_var)
    return PcsSolution(
        probs=p,
        air_bits=air_bits,
        sensing_mse=scale * float(mass @ fpen),
        outer_iters=iters,
        trace_rows=rows,
        c0_effective=c0_eff,
        converged=converged,
    )


def tradeoff_sweep(cfg: PcsConfig, c0_grid) -> list[tuple[float, PcsSolution | SolverError]]:
    """One independent solve per budget: ``(c0, solution or the SolverError it raised)`` pairs in
    increasing budget order, so one budget's failure does not stop the sweep. A nan budget
    raises ValueError before the first solve.

    Each solve rebuilds the same orbit bank (the Gauss-Hermite outputs around
    each symmetry orbit's representative) and recomputes the budget bounds;
    nothing is carried from one budget to the next. The
    ``tradeoff`` command then passes every solved codebook to one
    ``detection_probability`` call, so every budget's P_d comes from one shared
    trial set and differences along the frontier come from the codebooks, not
    from the draw.
    """
    problems = [dataclasses.replace(cfg, c0=c0) for c0 in sorted(float(v) for v in c0_grid)]
    sweep: list[tuple[float, PcsSolution | SolverError]] = []
    for problem in problems:
        try:
            sweep.append((problem.c0, mba_solve(problem)))
        except SolverError as exc:
            sweep.append((problem.c0, exc))
    return sweep
