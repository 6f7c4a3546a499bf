"""Spectral grids and gridded power spectra."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SpectralGridSpec:
    """Uniform grid over [0, 1) cycles/sample per axis.

    Axis i carries counts[i] points; point m has frequency m / counts[i]
    and angular frequency 2 pi m / counts[i].
    """

    counts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "counts", tuple(int(c) for c in self.counts))
        if not self.counts or any(c < 1 for c in self.counts):
            raise ValueError(f"grid counts must all be >= 1, got {self.counts}")

    @property
    def d(self) -> int:
        return len(self.counts)

    @property
    def size(self) -> int:
        out = 1
        for c in self.counts:
            out *= c
        return out

    def frequencies(self, axis: int) -> np.ndarray:
        return np.arange(self.counts[axis]) / self.counts[axis]

    def angular(self, axis: int) -> np.ndarray:
        return 2.0 * np.pi * self.frequencies(axis)


@dataclass(frozen=True, eq=False)
class SpectrumEstimate:
    """Strictly positive power values indexed power[m_0, ..., m_{d-1}]."""

    grid: SpectralGridSpec
    power: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.power, dtype=float)
        object.__setattr__(self, "power", arr)
        if arr.shape != self.grid.counts:
            raise ValueError(
                f"power shape {arr.shape} does not match grid counts {self.grid.counts}"
            )
        if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
            raise ValueError("power values must be finite and strictly positive")


def _roots(count: int) -> np.ndarray:
    """The count roots of unity e^{+j 2 pi m / count}, m = 0..count-1."""
    return np.exp(2j * np.pi / count * np.arange(count))


def _phases(count: int, lags, rows=None, roots=None) -> np.ndarray:
    """(len(rows), len(lags)) table of e^{+j 2 pi m t / count}, m in ``rows``
    (all of 0..count-1 by default).

    m t is reduced to whole turns, mod count, by the lookup, so every
    entry is one of the count roots of unity as computed once and the
    table is exactly periodic in t: lags at or beyond the grid alias onto
    the same column values, and a few rows at a time equal the whole
    table's. A caller that forms it so passes ``roots``, its
    ``_roots(count)`` computed once. Every transform between a lag box and
    a grid reads its phases from here.
    """
    m = np.arange(count) if rows is None else rows
    roots = _roots(count) if roots is None else roots
    return roots.take(np.multiply.outer(m, lags), mode="wrap")
