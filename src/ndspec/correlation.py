"""Correlation signals on a bounded lag box and their block matrices.

A correlation signal holds one complex value per lag tuple t with
|t_i| <= gamma_i - 1 and satisfies c(-t) = conj(c(t)). Signals come from
three places: the biased empirical estimator over a sampled tensor,
closed-form synthesis from a spectral composition, or the ``ndcorr``
text file format. Assembly turns a signal into the q x q Hermitian
matrix R[i, j] = c(m(i) - m(j)) under a chosen dimension nesting.

Spectral convention: the analysis kernel is e^{+j w n}, so a unit
spectral mass at frequency f (cycles/sample) contributes e^{-j 2 pi f.t}
to the lags, and a planted peak shows up at grid index round(f * C).

Two index maps carry every transform between the lag box and an array
cell: the index-difference gather of assembly (R = lags.take(gather))
and the periodic wrap of lag t onto cell t mod C of a C-point axis.
Sums over a grid of C points see lags only through t mod C, so a grid
coarser than the lag box (C < 2 gamma - 1) aliases lags onto shared
cells exactly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    FileFormatError,
    InsufficientData,
    NotPositiveDefinite,
)
from .indexing import DimSpec, Nesting, strides
from .linalg import cholesky

# Loader / constructor tolerance for Hermitian symmetry, relative to the
# largest lag magnitude.
HERMITIAN_REL_TOL = 1e-9

NDCORR_MAGIC = "ndcorr 1"


def _fmt(x: float) -> str:
    """Shortest round-trip decimal form; negative zero collapses to 0.0."""
    return repr(float(x) + 0.0)


@dataclass(frozen=True)
class CorrelationSignal:
    """Lag function on the box prod [-(gamma_i - 1), gamma_i - 1].

    ``lags`` has shape (2 gamma_0 - 1, ..., 2 gamma_{d-1} - 1); the value
    at lag t lives at array index t + gamma - 1, so the zero lag sits at
    the center.
    """

    gamma: tuple[int, ...]
    lags: np.ndarray

    def __post_init__(self):
        gamma = tuple(int(g) for g in self.gamma)
        if not gamma or any(g < 1 for g in gamma):
            raise ValueError(f"orders must all be >= 1, got {gamma}")
        arr = np.asarray(self.lags, dtype=complex)
        expected = tuple(2 * g - 1 for g in gamma)
        if arr.shape != expected:
            raise ValueError(f"lag array shape {arr.shape}, expected {expected}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("lag values must be finite")
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "lags", arr)
        scale = float(np.max(np.abs(arr), initial=0.0))
        mirrored = np.conj(np.flip(arr))
        if np.max(np.abs(arr - mirrored), initial=0.0) > HERMITIAN_REL_TOL * max(scale, 1e-300):
            raise ValueError("lag values violate Hermitian symmetry c(-t) = conj(c(t))")
        center = arr[tuple(g - 1 for g in gamma)]
        if abs(center.imag) > HERMITIAN_REL_TOL * max(scale, 1e-300) or center.real < -HERMITIAN_REL_TOL * scale:
            raise ValueError(f"zero lag must be real and non-negative, got {center}")

    @property
    def d(self) -> int:
        return len(self.gamma)

    @property
    def zero_lag(self) -> float:
        return float(self.lags[tuple(g - 1 for g in self.gamma)].real)

    def value(self, t) -> complex:
        """Lag value at an integer tuple t, bounds-checked."""
        t = tuple(int(v) for v in t)
        if len(t) != self.d:
            raise DimensionMismatch(f"lag tuple of length {len(t)} for a {self.d}-d signal")
        if any(abs(v) > g - 1 for v, g in zip(t, self.gamma)):
            raise IndexError(f"lag {t} outside the stored box")
        return complex(self.lags[tuple(v + g - 1 for v, g in zip(t, self.gamma))])

    def with_ridge(self, eps: float) -> "CorrelationSignal":
        """Copy with eps * c(0) added at the zero lag (diagonal loading of R)."""
        if not 0 <= eps < math.inf:
            raise ValueError(f"ridge must be finite and >= 0, got {eps}")
        lags = self.lags.copy()
        lags[tuple(g - 1 for g in self.gamma)] += eps * self.zero_lag
        return CorrelationSignal(self.gamma, lags)

    def scaled(self, alpha: float) -> "CorrelationSignal":
        if alpha <= 0:
            raise ValueError("scale must be > 0")
        return CorrelationSignal(self.gamma, self.lags * alpha)

    @classmethod
    def from_forward_lags(cls, values) -> "CorrelationSignal":
        """1D signal from the values at lags 0..gamma-1; the negative half
        is filled in by conjugate mirroring."""
        vals = np.asarray(values, dtype=complex)
        if vals.ndim != 1 or vals.size < 1:
            raise ValueError("expected a non-empty 1D array of forward lags")
        g = vals.size
        lags = np.concatenate([np.conj(vals[:0:-1]), vals])
        return cls((g,), lags)


def _hermitian(lags) -> np.ndarray:
    """Exactly Hermitian part (c(t) + conj(c(-t))) / 2 of a centered lag box.

    Halving before the sum keeps lags near the top of the double range finite.
    """
    return lags / 2 + np.conj(np.flip(lags)) / 2


def _lag_gather(gamma, nesting: Nesting) -> np.ndarray:
    """q x q flat lag-box index of m(i) - m(j): R = lags.take(gather).

    m(.) maps a flat index to its per-dimension digits under the nesting;
    the lag-box offset of a digit difference is the difference of the
    digits' own offsets, shifted to the center.
    """
    spec = DimSpec(gamma)
    st = strides(spec, nesting)
    box = tuple(2 * g - 1 for g in spec.gamma)
    flats = np.arange(spec.q)
    slots = [nesting.slot_of(dim) for dim in range(spec.d)]
    digits = tuple((flats // st.q[slot]) % st.extents[slot] for slot in slots)
    offsets = np.ravel_multi_index(digits, box)
    center = np.ravel_multi_index(tuple(g - 1 for g in spec.gamma), box)
    return offsets[:, None] - offsets[None, :] + center


def _wrap(gamma, counts) -> tuple[np.ndarray, ...]:
    """Open-mesh index of the lag box on a periodic grid: lag t -> t mod C."""
    return np.ix_(*[np.arange(1 - g, g) % c for g, c in zip(gamma, counts)])


def estimate_correlation(x, gamma) -> CorrelationSignal:
    """Biased lag estimate c(t) = (1/N) sum_n x(n+t) conj(x(n)).

    The sum runs over every n with both n and n+t inside the sample box;
    N is the total sample count, which keeps the assembled matrix
    positive semi-definite. Computed as a circular FFT autocorrelation
    zero-padded to n_i + gamma_i - 1 points per axis, where no stored lag
    wraps. Raises InsufficientData when some requested order exceeds the
    sample count along its axis.
    """
    arr = np.asarray(x, dtype=complex)
    if arr.ndim < 1:
        arr = arr.reshape(1)
    gamma = tuple(int(g) for g in gamma)
    if len(gamma) != arr.ndim:
        raise DimensionMismatch(
            f"{len(gamma)} orders for a {arr.ndim}-dimensional signal"
        )
    for axis, (g, n) in enumerate(zip(gamma, arr.shape)):
        if g < 1:
            raise ValueError(f"orders must all be >= 1, got {gamma}")
        if g > n:
            raise InsufficientData(
                f"order {g} exceeds the {n} samples along axis {axis}"
            )
    padded = tuple(n + g - 1 for n, g in zip(arr.shape, gamma))
    axes = tuple(range(arr.ndim))
    spectrum = np.fft.fftn(arr, padded, axes)
    circular = np.fft.ifftn(spectrum * spectrum.conj(), axes=axes)
    return CorrelationSignal(gamma, _hermitian(circular[_wrap(gamma, padded)] / arr.size))


@dataclass(frozen=True)
class SpectralComposition:
    """Point peaks, single-axis planes, and white noise in the spectrum.

    peaks: (frequency tuple in [0,1)^d, power > 0) pairs.
    planes: (axis, frequency in [0,1), power > 0) triples; a plane has
        uniform unit density over every other axis, so its lag
        contribution is confined to lags whose other components vanish.
    noise_var: white noise variance, contributing only at the zero lag.
    """

    peaks: tuple = ()
    planes: tuple = ()
    noise_var: float = 0.0

    def __post_init__(self):
        peaks = tuple((tuple(float(f) for f in fs), float(p)) for fs, p in self.peaks)
        planes = tuple((int(a), float(f), float(p)) for a, f, p in self.planes)
        object.__setattr__(self, "peaks", peaks)
        object.__setattr__(self, "planes", planes)
        object.__setattr__(self, "noise_var", float(self.noise_var))
        for fs, p in peaks:
            if not 0 < p < math.inf:
                raise ValueError(f"peak powers must be finite and > 0, got {p}")
            if any(not 0 <= f < 1 for f in fs):
                raise ValueError(f"peak frequencies must lie in [0, 1), got {fs}")
        for axis, f, p in planes:
            if not 0 < p < math.inf:
                raise ValueError(f"plane powers must be finite and > 0, got {p}")
            if axis < 0:
                raise ValueError("plane axis must be >= 0")
            if not 0 <= f < 1:
                raise ValueError(f"plane frequency must lie in [0, 1), got {f}")
        if not 0 <= self.noise_var < math.inf:
            raise ValueError(f"noise variance must be finite and >= 0, got {self.noise_var}")

    def mirrored(self) -> "SpectralComposition":
        """Composition with the conjugate mirror of every component added."""
        peaks = self.peaks + tuple(
            (tuple((-f) % 1.0 for f in fs), p) for fs, p in self.peaks
        )
        planes = self.planes + tuple(
            (axis, (-f) % 1.0, p) for axis, f, p in self.planes
        )
        return SpectralComposition(peaks, planes, self.noise_var)


def synth_correlation(comp: SpectralComposition, gamma,
                      symmetrize: bool = False) -> CorrelationSignal:
    """Closed-form lags of a spectral composition.

    A peak of power P at frequency tuple f contributes P e^{-j 2 pi f.t};
    a plane on one axis contributes P e^{-j 2 pi f t_axis} at lags whose
    other components are zero; white noise adds its variance at the zero
    lag. With ``symmetrize`` the conjugate mirror of every component is
    added first, which makes all lags real.
    """
    gamma = tuple(int(g) for g in gamma)
    d = len(gamma)
    for fs, _ in comp.peaks:
        if len(fs) != d:
            raise DimensionMismatch(
                f"peak frequency tuple {fs} for a {d}-dimensional signal"
            )
    for axis, _, _ in comp.planes:
        if axis >= d:
            raise DimensionMismatch(f"plane axis {axis} for a {d}-dimensional signal")
    if symmetrize:
        comp = comp.mirrored()

    mesh = np.ix_(*[np.arange(1 - g, g) for g in gamma])
    center = tuple(g - 1 for g in gamma)
    acc = np.zeros(tuple(2 * g - 1 for g in gamma), dtype=complex)
    for fs, power in comp.peaks:
        acc += power * np.exp(-2j * np.pi * sum(f * t for f, t in zip(fs, mesh)))
    for axis, f, power in comp.planes:
        line = center[:axis] + (slice(None),) + center[axis + 1:]
        acc[line] += power * np.exp(-2j * np.pi * f * mesh[axis].ravel())
    acc[center] += comp.noise_var
    return CorrelationSignal(gamma, _hermitian(acc))


@dataclass(frozen=True)
class BlockToeplitzMatrix:
    """Hermitian matrix of a correlation signal under one nesting.

    Shift-invariant along every nested dimension slot (d-time Toeplitz).
    """

    spec: DimSpec
    nesting: Nesting
    entries: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=complex)
        if arr.shape != (self.spec.q, self.spec.q):
            raise ValueError(f"entries shape {arr.shape}, expected {(self.spec.q,) * 2}")
        scale = float(np.max(np.abs(arr), initial=0.0))
        if np.max(np.abs(arr - arr.conj().T), initial=0.0) > HERMITIAN_REL_TOL * max(scale, 1e-300):
            raise ValueError("entries are not Hermitian")
        object.__setattr__(self, "entries", arr)


def assemble(c: CorrelationSignal, nesting: Nesting | None = None) -> BlockToeplitzMatrix:
    """q x q matrix R[i, j] = c(m(i) - m(j)) under a nesting.

    m(.) maps a flat index to its per-dimension digits; differences are
    taken per original dimension label, so the result is Hermitian and
    carries a Toeplitz character in every slot.
    """
    spec = DimSpec(c.gamma)
    if nesting is None:
        nesting = Nesting.identity(spec.d)
    entries = c.lags.take(_lag_gather(spec.gamma, nesting))
    return BlockToeplitzMatrix(spec, nesting, entries)


def check_positive_definite(r) -> bool:
    """True iff Cholesky succeeds with every pivot above the scale floor."""
    entries = r.entries if isinstance(r, BlockToeplitzMatrix) else np.asarray(r)
    try:
        cholesky(entries)
    except NotPositiveDefinite:
        return False
    return True


def ndcorr_lines(c: CorrelationSignal) -> list[str]:
    """Text lines of the ``ndcorr 1`` format.

    Line 1 is the magic, line 2 the orders, then one line per lag tuple
    in lexicographic order: the integer lag components followed by the
    real and imaginary parts.
    """
    lines = [NDCORR_MAGIC, "gamma: " + " ".join(str(g) for g in c.gamma)]
    for t, v in zip(itertools.product(*(range(1 - g, g) for g in c.gamma)),
                    c.lags.ravel().tolist()):
        lines.append(" ".join([str(ti) for ti in t] + [_fmt(v.real), _fmt(v.imag)]))
    return lines


def save_ndcorr(c: CorrelationSignal, path) -> None:
    """Write the ``ndcorr 1`` text format to a file."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(ndcorr_lines(c)) + "\n")


def load_ndcorr(path) -> CorrelationSignal:
    """Read an ``ndcorr 1`` file, validating shape and Hermitian symmetry."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0] != NDCORR_MAGIC:
        raise FileFormatError(f"{path}: missing '{NDCORR_MAGIC}' header line")
    if len(lines) < 2 or not lines[1].startswith("gamma:"):
        raise FileFormatError(f"{path}: missing 'gamma:' line")
    try:
        gamma = tuple(int(tok) for tok in lines[1].split()[1:])
    except ValueError as exc:
        raise FileFormatError(f"{path}: malformed gamma line: {lines[1]!r}") from exc
    if not gamma or any(g < 1 for g in gamma):
        raise FileFormatError(f"{path}: invalid orders {gamma}")
    d = len(gamma)
    shape = tuple(2 * g - 1 for g in gamma)
    expected_rows = math.prod(shape)
    rows = lines[2:]
    if len(rows) != expected_rows:
        raise FileFormatError(
            f"{path}: expected {expected_rows} lag lines, found {len(rows)}"
        )
    lags = np.zeros(shape, dtype=complex)
    seen = np.zeros(shape, dtype=bool)
    for ln in rows:
        toks = ln.split()
        if len(toks) != d + 2:
            raise FileFormatError(f"{path}: malformed lag line: {ln!r}")
        try:
            t = tuple(int(tok) for tok in toks[:d])
            re, im = float(toks[d]), float(toks[d + 1])
        except ValueError as exc:
            raise FileFormatError(f"{path}: malformed lag line: {ln!r}") from exc
        if any(abs(ti) > g - 1 for ti, g in zip(t, gamma)):
            raise FileFormatError(f"{path}: lag {t} outside the box for orders {gamma}")
        idx = tuple(ti + g - 1 for ti, g in zip(t, gamma))
        if seen[idx]:
            raise FileFormatError(f"{path}: duplicate lag {t}")
        seen[idx] = True
        lags[idx] = complex(re, im)
    try:
        return CorrelationSignal(gamma, lags)
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc
