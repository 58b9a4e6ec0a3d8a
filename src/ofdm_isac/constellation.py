"""PSK/QAM alphabets with shaped input distributions and their moments.

Every closed-form sensing metric is driven by probability-weighted moments of
the alphabet (|x|^4, |x|^-2, and the filtered-spectrum statistics), so this
module computes them with compensated summation to keep the tight invariant
tolerances stable up to 1024-QAM.

Conventions: QAM points are the square odd-integer grid ordered row-major
(ascending real, then ascending imaginary); PSK points sit at phases
2*pi*(k + 1/2)/Q in ascending order (QPSK lands on the diagonals). Power is
normalized so that sum p_i |x_i|^2 = 1 under the stored distribution.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .channel import check_int
from .filtering import FilterKind, point_chi, point_gain

SIMPLEX_TOL = 1e-12
POWER_TOL = 1e-12


class Family(str, Enum):
    PSK = "psk"
    QAM = "qam"


@dataclass(frozen=True)
class ShapedConstellation:
    """Discrete complex alphabet plus an input probability vector.

    Construction renormalizes: probs are projected to the simplex and points
    are rescaled to unit average power under those probs, so shaped (non
    uniform) distributions keep the transmit-power normalization.
    """

    points: np.ndarray
    probs: np.ndarray
    family: Family
    order: int

    def __post_init__(self):
        points = np.asarray(self.points, dtype=np.complex128).copy()
        probs = np.asarray(self.probs, dtype=np.float64).copy()
        if self.order < 1:
            raise ValueError(f"order must be positive, got {self.order}")
        if points.shape != (self.order,) or probs.shape != (self.order,):
            raise ValueError(
                f"points/probs must have shape ({self.order},), "
                f"got {points.shape} and {probs.shape}"
            )
        if np.any(probs < 0) or not np.all(np.isfinite(probs)):
            raise ValueError("probs must be finite and nonnegative")
        total = math.fsum(probs)
        if total <= 0:
            raise ValueError("probs must have positive mass")
        probs /= total
        moduli = np.abs(points)
        if np.any(moduli == 0):
            raise ValueError("constellation points must have nonzero modulus")
        if np.unique(points).size != self.order:
            raise ValueError("constellation points must be pairwise distinct")
        power = math.fsum(probs * moduli**2)
        points /= math.sqrt(power)
        points.setflags(write=False)
        probs.setflags(write=False)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "family", Family(self.family))
        if abs(math.fsum(self.probs) - 1.0) > SIMPLEX_TOL:
            raise ValueError("probability normalization failed")
        if abs(math.fsum(self.probs * np.abs(self.points) ** 2) - 1.0) > POWER_TOL:
            raise ValueError("unit-power normalization failed")

    def entropy_bits(self) -> float:
        p = self.probs[self.probs > 0]
        return float(-math.fsum(p * np.log2(p)))


@dataclass(frozen=True)
class ChiStats:
    """Alphabet statistics of the filtered spectrum chi and the filter gain g."""

    mean_chi: float
    mean_chi_sq: float
    var_chi: float
    mean_gain_sq: float


def _qam_grid(order: int) -> np.ndarray:
    side = math.isqrt(order)
    if side * side != order or order & (order - 1) or order < 4:
        raise ValueError(
            f"unsupported QAM order {order}: must be a square power of two (4, 16, 64, ...)"
        )
    levels = 2 * np.arange(side) - (side - 1)
    re, im = np.meshgrid(levels, levels, indexing="ij")
    return (re + 1j * im).reshape(-1)


def _psk_circle(order: int) -> np.ndarray:
    if order < 2 or order & (order - 1):
        raise ValueError(f"unsupported PSK order {order}: must be a power of two >= 2")
    phases = 2.0 * np.pi * (np.arange(order) + 0.5) / order
    return np.exp(1j * phases)


def make_uniform(family: Family | str, order: int) -> ShapedConstellation:
    """Uniform-probability PSK or square-QAM alphabet with unit average power."""
    return make_shaped(family, order, np.full(order, 1 / order))


def make_shaped(family: Family | str, order: int, probs) -> ShapedConstellation:
    """Alphabet of the given family/order carrying an arbitrary distribution."""
    family = Family(family)
    points = _psk_circle(order) if family is Family.PSK else _qam_grid(order)
    return ShapedConstellation(points, np.asarray(probs, dtype=np.float64), family, order)


def moment_abs_pow(c: ShapedConstellation, exponent: float) -> float:
    """Probability-weighted modulus moment sum_i p_i |x_i|^exponent."""
    if not math.isfinite(exponent):
        raise ValueError(f"exponent must be finite, got {exponent}")
    return math.fsum(c.probs * np.abs(c.points) ** exponent)


def chi_stats(c: ShapedConstellation, f: FilterKind) -> ChiStats:
    """Moments of chi = x*g and |g|^2 under the input distribution."""
    chi = point_chi(c.points, f)
    gain = point_gain(c.points, f)
    mean_chi = math.fsum(c.probs * chi)
    mean_chi_sq = math.fsum(c.probs * chi**2)
    var_chi = math.fsum(c.probs * (chi - mean_chi) ** 2)
    mean_gain_sq = math.fsum(c.probs * np.abs(gain) ** 2)
    return ChiStats(mean_chi, mean_chi_sq, var_chi, mean_gain_sq)


def _cell_tables(books) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Cells of [0, 1) cut at every codebook's CDF cuts, their guide table, and each codebook's point
    index per cell: ``table[_guide_search(cuts, guide, u)]`` is the inverse-CDF index
    min(searchsorted(cumsum(p), u, 'right'), Q-1) for every codebook, from one search."""
    # a codebook's last cut is inf, not its sum: the clip to Q-1, as the last point takes every u past the others
    book_cuts = [np.append(np.cumsum(c.probs)[:-1], np.inf) for c in books]
    cuts = np.unique(np.concatenate(book_cuts))
    lowest = np.concatenate(([-np.inf], cuts[:-1]))  # each cell's least u
    return cuts, _guide_table(cuts), [np.searchsorted(cut, lowest, side="right") for cut in book_cuts]


def _guide_table(cut: np.ndarray) -> np.ndarray:
    """``_guide_search``'s starts: the count of cuts <= k/K per bucket k, K >= 8 len(cut) a power of two."""
    k = 1 << (8 * cut.size - 1).bit_length()
    return np.searchsorted(cut, np.arange(k) / k, side="right")


def _guide_search(cut: np.ndarray, guide: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Count of ``cut`` entries <= each u, for nondecreasing cuts ending at inf and u in [0, 1).

    Exact guide-table search (Chen & Asau 1974): bucket floor(u K) of ``_guide_table(cut)``
    gives a start that never overshoots; passes step the rest.
    """
    flat = u.reshape(-1)
    idx = guide[(flat * guide.size).astype(np.intp)]
    todo = np.flatnonzero(cut[idx] <= flat)
    while todo.size:
        idx[todo] += 1
        todo = todo[cut[idx[todo]] <= flat[todo]]
    return idx.reshape(u.shape)


def draw_symbols(c: ShapedConstellation, rng: np.random.Generator, shape) -> np.ndarray:
    """Inverse-CDF point indices of ``shape`` fresh uniforms, by the chains' one cell search."""
    cuts, guide, (table,) = _cell_tables((c,))
    return table[_guide_search(cuts, guide, rng.random(shape))]


def save_codebook(
    path: str | Path,
    c: ShapedConstellation,
    snr_in: float | None = None,
    filter_kind: str | None = None,
    c0: float | None = None,
    provenance: str = "",
) -> None:
    """Write a codebook JSON; probabilities round-trip exactly on reload."""
    data = {
        "family": c.family.value,
        "order": c.order,
        "probs": [float(p) for p in c.probs],
        "snr_in": snr_in,
        "filter": filter_kind,
        "c0": c0,
        "provenance": provenance,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def load_codebook(path: str | Path) -> tuple[ShapedConstellation, dict]:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"codebook must be a JSON object, got {type(data).__name__}")
    try:
        c = make_shaped(data["family"], check_int("order", data["order"], 1), data["probs"])
    except KeyError as exc:
        raise ValueError(f"codebook missing field {exc}") from exc
    meta = {k: data.get(k) for k in ("snr_in", "filter", "c0", "provenance")}
    return c, meta
