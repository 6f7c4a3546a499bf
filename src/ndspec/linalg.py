"""Stacked Hermitian positive definite factorization and inversion.

Every function takes a stack of matrices, shape (..., n, n); a single
matrix is a stack with no leading axes. Hermitian inputs are read from
the lower triangle. The whole stack goes through one numpy LAPACK call;
only when it fails is it factored again matrix by matrix with scipy's
zpotrf, in C order, to name the first failing matrix and pivot.
"""

from __future__ import annotations

import ctypes
import functools
import threading
from contextlib import ContextDecorator
from pathlib import Path

import numpy as np
from scipy.linalg.lapack import zpotrf

from .errors import NotPositiveDefinite, SizeMismatch

# Pivot floor relative to the largest diagonal entry of each matrix.
PD_PIVOT_REL = 1e-12


@functools.cache
def _numpy_openblas_threads():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None
    when numpy uses another BLAS."""
    for path in (Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("*openblas*"):
        lib = ctypes.CDLL(str(path))
        for name in ("scipy_openblas", "openblas"):
            if hasattr(lib, f"{name}_set_num_threads64_"):
                get = getattr(lib, f"{name}_get_num_threads64_")
                put = getattr(lib, f"{name}_set_num_threads64_")
                get.argtypes, get.restype = (), ctypes.c_int
                put.argtypes, put.restype = (ctypes.c_int,), None
                return get, put
    return None


class _OneBlasThread(ContextDecorator):
    """Run the enclosed calls on one thread of numpy's bundled OpenBLAS and
    restore the caller's count when the outermost call returns (no-op for
    another BLAS). A second thread that must be woken, or that shares a
    core with other work, made the sweep's calls cost up to tens of times
    their single-thread time. ``find`` returns (get, set) of the count."""

    def __init__(self, find):
        self.find, self.lock, self.depth, self.saved = find, threading.Lock(), 0, 1

    def __enter__(self):
        with self.lock:
            calls = self.find()
            if calls and self.depth == 0:
                self.saved = calls[0]()
                calls[1](1)
            self.depth += 1

    def __exit__(self, *exc):
        with self.lock:
            self.depth -= 1
            calls = self.find()
            if calls and self.depth == 0:
                calls[1](self.saved)


one_blas_thread = _OneBlasThread(_numpy_openblas_threads)


def _factor_one(a: np.ndarray, floor: float, index: tuple[int, ...]) -> np.ndarray:
    """Lower factor of one matrix; the first pivot at or below ``floor``
    (or the one LAPACK rejects) is reported with ``index``."""
    lower, info = zpotrf(a, lower=1, clean=1)
    done = info - 1 if info > 0 else a.shape[-1]
    pivots = lower.diagonal().real[:done] ** 2
    low = np.flatnonzero(~(pivots > floor))
    if low.size:
        k, value = int(low[0]), float(pivots[low[0]])
    elif info > 0:
        k, value = done, float(lower[done, done].real)
    else:
        return lower
    raise NotPositiveDefinite(
        f"pivot {k} is {value:.6g} (floor {floor:.6g})",
        pivot_index=k, pivot_value=value, index=index,
    )


@one_blas_thread
def cholesky(h) -> np.ndarray:
    """Lower Cholesky factors of a stack of Hermitian positive definite
    matrices.

    A pivot passes when its square, diag(L)^2, is above 1e-12 times the
    largest diagonal entry of its matrix. On failure NotPositiveDefinite
    names the first failing matrix in C order (``index``) and its first
    failing pivot.
    """
    a = np.asarray(h, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise SizeMismatch(f"expected square matrices, got shape {a.shape}")
    return _cholesky(a, PD_PIVOT_REL * np.max(np.diagonal(a, axis1=-2, axis2=-1).real,
                                              axis=-1, initial=0.0))


def _cholesky(a: np.ndarray, floors) -> np.ndarray:
    """``cholesky`` of a complex stack with given absolute pivot floors,
    an array with one floor per matrix."""
    try:
        lower = np.linalg.cholesky(a)
        pivots = np.diagonal(lower, axis1=-2, axis2=-1).real ** 2
        if np.all(pivots > floors[..., None]):
            return lower
    except np.linalg.LinAlgError:
        pass
    lower = np.empty_like(a)
    for index in np.ndindex(a.shape[:-2]):
        lower[index] = _factor_one(a[index], float(floors[index]), index)
    return lower


@one_blas_thread
def invert_pd(h) -> np.ndarray:
    """Inverses of a stack of Hermitian positive definite matrices.

    Cholesky factorization, then L^{-H} L^{-1}; each result is
    symmetrized to exact Hermitian form.
    """
    # numpy's LAPACK inverts L rather than scipy's solve_triangular: calls
    # that alternate between the two libraries' BLAS thread pools stall for
    # milliseconds each. Each temporary is dropped as soon as it is used and
    # the symmetrization runs in place: the dense q x q inverse is the
    # memory peak of its callers.
    linv = np.linalg.inv(cholesky(h))
    inv = linv.conj().swapaxes(-1, -2) @ linv
    del linv
    inv += inv.conj().swapaxes(-1, -2)
    inv *= 0.5
    return inv
