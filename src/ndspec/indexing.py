"""Multi-index arithmetic for nested block matrices.

A vector of per-dimension orders defines a box of multi-indices. A
nesting (a permutation of the dimension labels) decides which dimension
varies fastest in the flattened index, giving each slot a stride.
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

    def slot_of(self, dim: int) -> int:
        """Slot occupied by a dimension label (the inverse permutation)."""
        return self.dims.index(dim)


@dataclass(frozen=True)
class Strides:
    """Per-slot strides and extents for one flattening."""

    q: tuple[int, ...]
    extents: tuple[int, ...]

    @property
    def size(self) -> int:
        return self.q[-1] * self.extents[-1]


@dataclass(frozen=True)
class IndexPermutation:
    """A bijection of the flat index range 0..q-1."""

    mapping: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "mapping", tuple(int(v) for v in self.mapping))
        if sorted(self.mapping) != list(range(len(self.mapping))):
            raise ValueError("mapping is not a bijection of its index range")

    def __len__(self) -> int:
        return len(self.mapping)

    def inverse(self) -> "IndexPermutation":
        inv = np.empty(len(self.mapping), dtype=np.int64)
        inv[np.asarray(self.mapping)] = np.arange(len(self.mapping))
        return IndexPermutation(tuple(inv.tolist()))


def _check_nesting(spec: DimSpec, nesting: Nesting) -> None:
    if nesting.d != spec.d:
        raise InvalidNesting(
            f"nesting over {nesting.d} dimensions does not fit {spec.d}-dimensional spec"
        )


def strides(spec: DimSpec, nesting: Nesting) -> Strides:
    """Slot strides under a nesting: slot 0 has stride 1 and varies fastest."""
    _check_nesting(spec, nesting)
    extents = tuple(spec.gamma[dim] for dim in nesting.dims)
    qs = [1]
    for ext in extents[:-1]:
        qs.append(qs[-1] * ext)
    return Strides(tuple(qs), extents)


def flat_of_multi(multi, st: Strides) -> int:
    """Flatten a per-slot digit tuple: sum of digit * stride."""
    if len(multi) != len(st.q):
        raise IndexOutOfRange(f"expected {len(st.q)} components, got {len(multi)}")
    for slot, (digit, ext) in enumerate(zip(multi, st.extents)):
        if not 0 <= digit < ext:
            raise IndexOutOfRange(f"component {slot} = {digit} outside [0, {ext})")
    return sum(int(digit) * s for digit, s in zip(multi, st.q))


def multi_of_flat(flat: int, st: Strides) -> tuple[int, ...]:
    """Per-slot digits of a flat index; inverse of flat_of_multi."""
    if not 0 <= flat < st.size:
        raise IndexOutOfRange(f"flat index {flat} outside [0, {st.size})")
    return tuple((flat // s) % ext for s, ext in zip(st.q, st.extents))


def walking_map(spec: DimSpec, src: Nesting, dst: Nesting) -> IndexPermutation:
    """Flat-index permutation carrying one nesting into another.

    Digit l of a source flat index belongs to dimension src.dims[l]; the
    destination index re-weights it by the stride of the slot that same
    dimension occupies in the destination nesting. Per-dimension digits
    are preserved, so the result is a bijection.
    """
    st_src = strides(spec, src)
    st_dst = strides(spec, dst)
    # stride each source slot's digit gets in the destination flattening
    weights = np.array([st_dst.q[dst.slot_of(dim)] for dim in src.dims])
    digits = (np.arange(spec.q)[:, None] // np.array(st_src.q)) % np.array(st_src.extents)
    return IndexPermutation(tuple((digits @ weights).tolist()))


def apply_walking(m, perm: IndexPermutation) -> np.ndarray:
    """Permutation similarity: out[perm(i), perm(j)] = m[i, j]."""
    a = np.asarray(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise SizeMismatch(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] != len(perm):
        raise SizeMismatch(
            f"matrix of size {a.shape[0]} does not match permutation of length {len(perm)}"
        )
    p = np.asarray(perm.mapping)
    out = np.empty_like(a)
    out[np.ix_(p, p)] = a
    return out


def has_toeplitz_character(m, spec: DimSpec, u: int, nesting: Nesting,
                           rel_tol: float = CHAR_REL_TOL,
                           abs_tol: float = CHAR_ABS_TOL) -> bool:
    """Whether entries depend on slot-u digits only through their difference.

    Every entry is compared against its canonical representative (the
    difference moved to the row digit, column digit zeroed, all other
    digits fixed) within tolerance.
    """
    a = np.asarray(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] != spec.q:
        raise SizeMismatch(f"expected a {spec.q} x {spec.q} matrix, got shape {a.shape}")
    st = strides(spec, nesting)
    if not 0 <= u < spec.d:
        raise IndexOutOfRange(f"slot {u} outside [0, {spec.d})")
    flats = np.arange(spec.q)
    digit = (flats // st.q[u]) % st.extents[u]
    di = digit[:, None]
    dj = digit[None, :]
    diff = di - dj
    rows = flats[:, None] + (np.maximum(diff, 0) - di) * st.q[u]
    cols = flats[None, :] + (np.maximum(-diff, 0) - dj) * st.q[u]
    ref = a[rows, cols]
    tol = np.maximum(abs_tol, rel_tol * np.maximum(np.abs(a), np.abs(ref)))
    return bool(np.all(np.abs(a - ref) <= tol))
