"""Multi-index arithmetic for nested block matrices.

A vector of per-dimension orders defines a box of multi-indices. A
nesting (a permutation of the dimension labels) decides which dimension
varies fastest in the flattened index; ``digits`` decodes every flat
index into its per-dimension digits, the one place that layout is read.
Walking maps transport flat indices between two nestings while keeping
the per-dimension digits; the Toeplitz-character predicate tests shift
invariance of a matrix along one nested slot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IndexOutOfRange, InvalidNesting, SizeMismatch

# Entry-equality tolerances for character checks; characters are exact
# for assembled matrices, so these only absorb float noise.
CHAR_REL_TOL = 1e-10
CHAR_ABS_TOL = 1e-12


@dataclass(frozen=True)
class DimSpec:
    """Per-dimension orders; the flat index space has size q = prod(gamma)."""

    gamma: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "gamma", tuple(int(g) for g in self.gamma))
        if not self.gamma:
            raise ValueError("at least one dimension required")
        if any(g < 1 for g in self.gamma):
            raise ValueError(f"orders must be >= 1, got {self.gamma}")

    @property
    def d(self) -> int:
        return len(self.gamma)

    @property
    def q(self) -> int:
        return math.prod(self.gamma)


@dataclass(frozen=True)
class Nesting:
    """Dimension labels ordered from fastest-varying slot to slowest."""

    dims: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(v) for v in self.dims))
        if sorted(self.dims) != list(range(len(self.dims))):
            raise InvalidNesting(
                f"nesting {self.dims} is not a permutation of 0..{len(self.dims) - 1}"
            )

    @classmethod
    def identity(cls, d: int) -> "Nesting":
        return cls(tuple(range(d)))

    @property
    def d(self) -> int:
        return len(self.dims)


def _check_nesting(spec: DimSpec, nesting: Nesting) -> None:
    if nesting.d != spec.d:
        raise InvalidNesting(
            f"nesting over {nesting.d} dimensions does not fit {spec.d}-dimensional spec"
        )


def digits(spec: DimSpec, nesting: Nesting) -> np.ndarray:
    """(q, d) digits of every flat index under a nesting: row i holds the
    per-dimension digits of flat index i, column k those of dimension k,
    and slot 0 varies fastest."""
    _check_nesting(spec, nesting)
    slowest_first = nesting.dims[::-1]
    out = np.empty((spec.q, spec.d), dtype=np.intp)
    out[:, slowest_first] = np.stack(
        np.unravel_index(np.arange(spec.q), [spec.gamma[k] for k in slowest_first]), axis=1
    )
    return out


def walking_map(spec: DimSpec, src: Nesting, dst: Nesting) -> np.ndarray:
    """Flat-index permutation carrying one nesting into another: the
    digits of each source flat index, raveled in the destination's slot
    order. Per-dimension digits are preserved, so the result is a
    bijection."""
    _check_nesting(spec, dst)
    slowest_first = dst.dims[::-1]
    return np.ravel_multi_index(tuple(digits(spec, src)[:, slowest_first].T),
                                [spec.gamma[k] for k in slowest_first])


def apply_walking(m, perm) -> np.ndarray:
    """Permutation similarity: out[perm[i], perm[j]] = m[i, j]."""
    a, p = np.asarray(m), np.asarray(perm)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise SizeMismatch(f"expected a square matrix, got shape {a.shape}")
    if p.shape != a.shape[:1]:
        raise SizeMismatch(
            f"matrix of size {a.shape[0]} does not match permutation of shape {p.shape}"
        )
    if not np.array_equal(np.sort(p), np.arange(p.size)):
        raise ValueError("permutation is not a bijection of its index range")
    out = np.empty_like(a)
    out[np.ix_(p, p)] = a
    return out


def has_toeplitz_character(m, spec: DimSpec, u: int, nesting: Nesting) -> bool:
    """Whether entries depend on slot-u digits only through their difference.

    Every entry is compared against its canonical representative (the
    difference moved to the row digit, column digit zeroed, all other
    digits fixed) within tolerance.
    """
    a = np.asarray(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] != spec.q:
        raise SizeMismatch(f"expected a {spec.q} x {spec.q} matrix, got shape {a.shape}")
    all_digits = digits(spec, nesting)
    if not 0 <= u < spec.d:
        raise IndexOutOfRange(f"slot {u} outside [0, {spec.d})")
    digit = all_digits[:, nesting.dims[u]]
    stride = math.prod(spec.gamma[k] for k in nesting.dims[:u])
    flats = np.arange(spec.q)
    di = digit[:, None]
    dj = digit[None, :]
    diff = di - dj
    rows = flats[:, None] + (np.maximum(diff, 0) - di) * stride
    cols = flats[None, :] + (np.maximum(-diff, 0) - dj) * stride
    ref = a[rows, cols]
    tol = np.maximum(CHAR_ABS_TOL, CHAR_REL_TOL * np.maximum(np.abs(a), np.abs(ref)))
    return bool(np.all(np.abs(a - ref) <= tol))
