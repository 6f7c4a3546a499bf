"""Minimum-variance baseline, analytic operation counts, and lag matching.

The cost model is the symbolic flop count of both estimators over a
spectral grid, kept in exact rational arithmetic; it mirrors the
algorithm steps (a zero-block inversion at 3/2 n^3 plus the block
Fourier sum at every stage), not measured instruction counts.

Capon's denominator and lag matching both move between the lag box and
the grid by separable partial DFTs: one axis at a time against a
(C_i, 2 gamma_i - 1) table of phases, so only the box's lags are
formed or read, never a full-grid FFT. On a grid that resolves the
box a pass costs at most |G| (2 gamma_i - 1) complex multiply-adds,
8 |G| (2 gamma_i - 1) flops as one GEMM, against about 5 |G| log2 |G|
flops for an FFT of the grid. Like the sweep, both run on one BLAS
thread: their GEMMs are small, and a second thread sharing a core with
other work made them up to tens of times slower.

Lag matching reads every stored lag back from a gridded spectrum and
reports the whole lag box as one read-only record array.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .correlation import CorrelationSignal, _hermitian
from .errors import DimensionMismatch, SizeMismatch
from .grid import SpectralGridSpec, SpectrumEstimate, _phases
from .indexing import DimSpec
from .linalg import one_blas_thread

# Below this magnitude the per-lag matching error is reported absolutely.
NEAR_ZERO_LAG = 1e-12


class AliasingWarning(UserWarning):
    """The spectral grid is too coarse to resolve every stored lag."""


@one_blas_thread
def capon_spectrum(r_inv, spec: DimSpec, grid: SpectralGridSpec) -> SpectrumEstimate:
    """Minimum-variance spectrum S(w) = 1 / (a(w)^H R^{-1} a(w)).

    Steering vectors have unit-modulus entries a(w)[i] = e^{-j w.m(i)}
    with m(i) the multi-index of flat index i under the identity nesting,
    matching the sample-stacking convention of the assembled matrix.
    The denominator depends on R^{-1} only through its sums B(t) along
    the index differences m(i) - m(j) = t (Musicus' fast minimum-variance
    form): it is sum_t B(t) e^{+j w.t}, a partial DFT of the lag box
    taken one axis at a time against that axis's phase table, which
    reads t mod C exactly. On a grid that resolves the box the pass over
    axis i costs at most |G| (2 gamma_i - 1) multiply-adds, so the time
    is O(q^2 + sum_i |G| (2 gamma_i - 1)).

    The sums are folded one dimension at a time, slowest first, each by
    the 2 gamma_i - 1 diagonal sums of R^{-1}'s two axes of that
    dimension, so every B(t) is a tree of d sums of at most gamma_i
    terms. The first fold's (2 gamma_{d-1} - 1) / gamma_{d-1}^2 share of
    R^{-1}, 0.19 of it on orders of 10, sets the memory beside R^{-1} and
    the |G| output; no q^2 temporary is formed.
    """
    a = np.asarray(r_inv, dtype=complex)
    if a.shape != (spec.q, spec.q):
        raise SizeMismatch(f"inverse shape {a.shape}, expected {(spec.q,) * 2}")
    if grid.d != spec.d:
        raise DimensionMismatch(f"{grid.d}-d grid for a {spec.d}-d spec")
    sums = _fold(a, spec.gamma)
    *tables, last = _box_phases(spec.gamma, grid.counts)
    for table in reversed(tables):
        # contracts the lag axis before the last and prepends its frequency
        # axis, so the last lag axis stays contiguous and last
        sums = np.tensordot(table, sums, axes=(1, -2))
    # only the real part is formed: the last lag axis meets the table as one
    # real GEMM of (re, im) pairs against (cos, -sin)
    power = np.tensordot(sums.view(float), last.conj().view(float), axes=(-1, 1))
    np.divide(1.0, power, out=power)
    return SpectrumEstimate(grid, power)


def _fold(a: np.ndarray, gamma) -> np.ndarray:
    """Lag sums B(t) of the q x q ``a`` over m(i) - m(j) = t, on the centred
    lag box (2 gamma_0 - 1, ..., 2 gamma_{d-1} - 1).

    ``a`` is read as (gamma_{d-1}, ..., gamma_0, gamma_{d-1}, ..., gamma_0),
    the identity nesting's digits slowest first for the row and then the
    column. Each fold takes the diagonal sums of the leading row and column
    digit axes that remain, the sum over i_k - j_k = t_k at offset -t_k, and
    prepends t_k's axis to the lags folded so far.
    """
    sums, d = a.reshape(tuple(reversed(gamma)) * 2), len(gamma)
    for k, g in enumerate(reversed(gamma)):
        # k lag axes lead; the row digit axis of this dimension follows them
        # and its column digit axis is always axis d
        shape = sums.shape[:k] + sums.shape[k + 1:d] + sums.shape[d + 1:]
        out = np.empty((2 * g - 1,) + shape, dtype=complex)
        for lag in range(1 - g, g):
            np.trace(sums, offset=-lag, axis1=k, axis2=d, out=out[lag + g - 1, ...])
        sums = out
    return sums


def _box_phases(gamma, counts) -> list[np.ndarray]:
    """Per-axis (C_i, 2 gamma_i - 1) phase tables e^{+j w_m t} of the
    centred lag box t = 1 - gamma_i .. gamma_i - 1 on the grid."""
    return [_phases(count, np.arange(1 - g, g)) for g, count in zip(gamma, counts)]


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


def capon_cost(spec: DimSpec, grid: SpectralGridSpec) -> Fraction:
    """Minimum-variance count: q^2 times the full grid size.

    This counts the paper's direct evaluation, one quadratic form
    a^H R^{-1} a per grid point. ``capon_spectrum`` does
    O(q^2 + sum_i |G| (2 gamma_i - 1)) instead: one fold of R^{-1} into
    the lag box and one partial DFT pass per axis.
    """
    _check_cost_args(spec, grid)
    return Fraction(spec.q**2 * grid.size)


def cost_report(spec: DimSpec, grid: SpectralGridSpec) -> CostReport:
    """Both methods' counts on one configuration: the sequential per-stage
    terms and their sum, and the minimum-variance total."""
    per_stage = sequential_stage_costs(spec, grid)
    return CostReport(
        gamma=spec.gamma,
        counts=grid.counts,
        per_stage=per_stage,
        sequential_total=sum((ops for _, ops in per_stage), Fraction(0)),
        capon_total=capon_cost(spec, grid),
    )


@dataclass(frozen=True, eq=False)
class MatchReport:
    """Per-lag reconstruction errors of a gridded spectrum.

    ``per_lag`` is a read-only record array, one record per stored lag in
    lexicographic order. Its fields: ``lag``, the (d,) int centred offsets
    t; ``original`` and ``reconstructed``, the complex r(t) and r_hat(t);
    ``error``, the float |r_hat - r| / |r|, or |r_hat - r| when ``mode`` is
    "abs" (|r| near zero) rather than "rel". Each field is also a column
    over the whole box, e.g. ``report.per_lag.error``.
    """

    gamma: tuple[int, ...]
    counts: tuple[int, ...]
    per_lag: np.recarray

    @property
    def max_error(self) -> float:
        return float(self.per_lag.error.max())


def correlation_match(s: SpectrumEstimate, c: CorrelationSignal) -> MatchReport:
    """Reconstruct every stored lag from the gridded spectrum.

    r_hat(t) is the grid mean of S(w) e^{-j w.t}, the discrete inverse of
    the synthesis convention, which is the forward DFT of S at cell
    t mod C. It is formed only on the lag box, by one partial DFT pass
    per axis against the conjugate phase tables. Each lag reports
    |r_hat - r| / |r|, or the absolute difference when |r| falls below
    the near-zero threshold. Warns when some axis has fewer than
    2 gamma_i - 1 points, where reconstructed lags alias.
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
    tables = [table.conj() for table in _box_phases(c.gamma, s.grid.counts)]
    with one_blas_thread:
        # the real power meets the first table as one real GEMM, the table's
        # (re, im) pairs read as two real columns per lag
        box = np.tensordot(s.power, tables[0].view(float), axes=(0, 0)).view(complex)
        for table in tables[1:]:
            box = np.tensordot(box, table, axes=(0, 0))
    reconstructed = _hermitian(box / s.grid.size).ravel()
    original = c.lags.ravel()
    magnitude = np.abs(original)
    near = magnitude < NEAR_ZERO_LAG
    error = np.abs(reconstructed - original) / np.where(near, 1.0, magnitude)
    lags = np.indices(c.lags.shape).reshape(c.d, -1).T - (np.array(c.gamma) - 1)
    per_lag = np.rec.fromarrays(
        [lags, original, reconstructed, error, np.where(near, "abs", "rel")],
        dtype=[("lag", np.int64, (c.d,)), ("original", complex), ("reconstructed", complex),
               ("error", float), ("mode", "U3")],
    )
    per_lag.flags.writeable = False
    return MatchReport(c.gamma, s.grid.counts, per_lag)
