"""Minimum-variance baseline, analytic operation counts, and lag matching.

The cost model is the symbolic flop count of both estimators over a
spectral grid, kept in exact rational arithmetic; it mirrors the
algorithm steps (a zero-block inversion at 3/2 n^3 plus the block
Fourier sum at every stage), not measured instruction counts.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .correlation import CorrelationSignal, _hermitian, _lag_gather, _wrap
from .errors import DimensionMismatch, SizeMismatch
from .grid import SpectralGridSpec, SpectrumEstimate
from .indexing import DimSpec, Nesting

# Below this magnitude the per-lag matching error is reported absolutely.
NEAR_ZERO_LAG = 1e-12


class AliasingWarning(UserWarning):
    """The spectral grid is too coarse to resolve every stored lag."""


def capon_spectrum(r_inv, spec: DimSpec, grid: SpectralGridSpec) -> SpectrumEstimate:
    """Minimum-variance spectrum S(w) = 1 / (a(w)^H R^{-1} a(w)).

    Steering vectors have unit-modulus entries a(w)[i] = e^{-j w.m(i)}
    with m(i) the multi-index of flat index i under the identity nesting,
    matching the sample-stacking convention of the assembled matrix.
    The denominator depends on R^{-1} only through its sums B(t) along
    the index differences m(i) - m(j) = t (Musicus' fast minimum-variance
    form): it is sum_t B(t) e^{+j w.t}, one inverse DFT of B wrapped onto
    the grid as t mod C. Time O(q^2 + |G| log |G|), memory O(q^2 + |G|).
    """
    a = np.asarray(r_inv, dtype=complex)
    if a.shape != (spec.q, spec.q):
        raise SizeMismatch(f"inverse shape {a.shape}, expected {(spec.q,) * 2}")
    if grid.d != spec.d:
        raise DimensionMismatch(f"{grid.d}-d grid for a {spec.d}-d spec")
    box = tuple(2 * g - 1 for g in spec.gamma)
    gather = _lag_gather(spec.gamma, Nesting.identity(spec.d)).ravel()
    sums = (np.bincount(gather, a.real.ravel(), math.prod(box))
            + 1j * np.bincount(gather, a.imag.ravel(), math.prod(box)))
    wrapped = np.zeros(grid.counts, dtype=complex)
    np.add.at(wrapped, _wrap(spec.gamma, grid.counts), sums.reshape(box))
    denominator = np.fft.ifftn(wrapped, norm="forward").real
    return SpectrumEstimate(grid, 1.0 / denominator)


@dataclass(frozen=True)
class CostReport:
    """Exact operation counts for both methods on one configuration."""

    gamma: tuple[int, ...]
    counts: tuple[int, ...]
    per_stage: tuple[tuple[int, Fraction], ...]
    sequential_total: Fraction
    capon_total: Fraction


def _check_cost_args(spec: DimSpec, grid: SpectralGridSpec) -> None:
    if grid.d != spec.d:
        raise DimensionMismatch(f"{grid.d}-d grid for a {spec.d}-d spec")


def sequential_stage_costs(spec: DimSpec, grid: SpectralGridSpec) -> tuple[tuple[int, Fraction], ...]:
    """Per-stage counts (t, ops) for t = 1..d.

    Stage t charges [3/2 q_{t-1}^3 + q_{t-1} q_t] at every point of the
    grid over the already-explicit axes t-1..d-1, with q_t the product of
    the first t orders.
    """
    _check_cost_args(spec, grid)
    d = spec.d
    prefix = [1]
    for g in spec.gamma:
        prefix.append(prefix[-1] * g)
    out = []
    for t in range(1, d + 1):
        bracket = Fraction(3, 2) * prefix[t - 1] ** 3 + Fraction(prefix[t - 1] * prefix[t])
        grid_factor = 1
        for axis in range(t - 1, d):
            grid_factor *= grid.counts[axis]
        out.append((t, bracket * grid_factor))
    return tuple(out)


def sequential_cost(spec: DimSpec, grid: SpectralGridSpec) -> Fraction:
    """Total sequential count: the sum of the per-stage terms."""
    return sum((ops for _, ops in sequential_stage_costs(spec, grid)), Fraction(0))


def capon_cost(spec: DimSpec, grid: SpectralGridSpec) -> Fraction:
    """Minimum-variance count: q^2 times the full grid size.

    This counts the paper's direct evaluation, one quadratic form
    a^H R^{-1} a per grid point. ``capon_spectrum`` does O(q^2 + |G| log |G|)
    instead: one fold of R^{-1} into the lag box and one inverse FFT.
    """
    _check_cost_args(spec, grid)
    return Fraction(spec.q**2 * grid.size)


def cost_report(spec: DimSpec, grid: SpectralGridSpec) -> CostReport:
    per_stage = sequential_stage_costs(spec, grid)
    return CostReport(
        gamma=spec.gamma,
        counts=grid.counts,
        per_stage=per_stage,
        sequential_total=sum((ops for _, ops in per_stage), Fraction(0)),
        capon_total=capon_cost(spec, grid),
    )


@dataclass(frozen=True)
class LagMatch:
    """One lag of a matching report."""

    lag: tuple[int, ...]
    original: complex
    reconstructed: complex
    error: float
    mode: str  # "rel", or "abs" when the original lag is near zero


@dataclass(frozen=True)
class MatchReport:
    """Per-lag reconstruction errors of a gridded spectrum."""

    gamma: tuple[int, ...]
    counts: tuple[int, ...]
    per_lag: tuple[LagMatch, ...]

    @property
    def max_error(self) -> float:
        return max(entry.error for entry in self.per_lag)


def correlation_match(s: SpectrumEstimate, c: CorrelationSignal) -> MatchReport:
    """Reconstruct every stored lag from the gridded spectrum.

    r_hat(t) is the grid mean of S(w) e^{-j w.t}, the discrete inverse of
    the synthesis convention: one forward DFT of S read at cell t mod C.
    Each lag reports |r_hat - r| / |r|, or the absolute difference when
    |r| falls below the near-zero threshold. Warns when some axis has
    fewer than 2 gamma_i - 1 points, where reconstructed lags alias.
    """
    if s.grid.d != c.d:
        raise DimensionMismatch(f"{s.grid.d}-d spectrum for a {c.d}-d signal")
    coarse = [axis for axis in range(c.d)
              if s.grid.counts[axis] < 2 * c.gamma[axis] - 1]
    if coarse:
        warnings.warn(
            f"grid counts {s.grid.counts} under-resolve the lag box for axes {coarse}",
            AliasingWarning,
            stacklevel=2,
        )
    reconstructed = _hermitian(
        np.fft.fftn(s.power)[_wrap(c.gamma, s.grid.counts)] / s.grid.size
    )
    magnitude = np.abs(c.lags)
    near = magnitude < NEAR_ZERO_LAG
    error = np.abs(reconstructed - c.lags) / np.where(near, 1.0, magnitude)
    entries = [
        LagMatch(lag, original, rhat, err, "abs" if abs_mode else "rel")
        for lag, original, rhat, err, abs_mode in zip(
            itertools.product(*(range(1 - g, g) for g in c.gamma)),
            c.lags.ravel().tolist(), reconstructed.ravel().tolist(),
            error.ravel().tolist(), near.ravel().tolist())
    ]
    return MatchReport(c.gamma, s.grid.counts, tuple(entries))
