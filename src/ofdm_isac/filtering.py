"""Temporal-frequency filtering (matched / reciprocal / Wiener) and DD transforms.

The filter G acts entrywise on the echo, one gain g per symbol x: MF
conjugates the symbols, RF divides them out (zero-forcing), WF regularizes
the division with the inverse input SNR. The filtered spectrum chi = x * g is
real for all three kinds; its unitary 2D-DFT is the delay-Doppler response
function.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

RF_MIN_MODULUS = 1e-12


class FilterType(str, Enum):
    MF = "mf"
    RF = "rf"
    WF = "wf"


@dataclass(frozen=True)
class FilterKind:
    """Filter selector; ``snr_in`` (linear) is required by WF and ignored otherwise."""

    kind: FilterType
    snr_in: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "kind", FilterType(self.kind))
        if self.kind is FilterType.WF:
            if self.snr_in is None or not self.snr_in > 0:  # also rejects nan
                raise ValueError(f"WF requires snr_in > 0, got {self.snr_in}")


MF = FilterKind(FilterType.MF)
RF = FilterKind(FilterType.RF)


def wiener(snr_in: float) -> FilterKind:
    return FilterKind(FilterType.WF, snr_in)


def point_gain(x: np.ndarray, f: FilterKind) -> np.ndarray:
    """Entrywise filter gain g for symbol values x."""
    x = np.asarray(x)
    if f.kind is FilterType.MF:
        return np.conj(x)
    if f.kind is FilterType.RF:
        return 1.0 / x
    return np.conj(x) / (np.abs(x) ** 2 + 1.0 / f.snr_in)


def point_chi(x: np.ndarray, f: FilterKind) -> np.ndarray:
    """Entrywise filtered spectrum chi = x * g (real for all three kinds)."""
    x = np.asarray(x)
    if f.kind is FilterType.MF:
        return np.abs(x) ** 2
    if f.kind is FilterType.RF:
        return np.ones(x.shape)
    sq = np.abs(x) ** 2
    return sq / (sq + 1.0 / f.snr_in)


def dd_transform(a: np.ndarray) -> np.ndarray:
    """Unitary 2D-DFT used throughout: (1/sqrt(NM)) sum a[n,m] e^{+j2pi nk/N} e^{-j2pi mp/M}.

    Accepts batched input with the frame on the last two axes.
    """
    a = np.asarray(a, dtype=np.complex128)
    n, m = a.shape[-2], a.shape[-1]
    out = np.fft.ifft(a, axis=-2)
    np.fft.fft(out, axis=-1, out=out)
    out *= np.sqrt(n / m)
    return out
