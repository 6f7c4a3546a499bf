"""Stacked Hermitian positive definite factorization and inversion.

Every function takes a stack of matrices, shape (..., n, n); a single
matrix is a stack with no leading axes. Hermitian inputs are read from
the lower triangle. The whole stack is factored in one numpy LAPACK call;
only when it fails is it factored again matrix by matrix with scipy's
zpotrf, in C order, to name the first failing matrix and pivot.

A single matrix is inverted from its factor in place by scipy's zpotri,
about a quarter of the work of inverting the factor and multiplying it
out. A stack stays in numpy's batched calls: zpotri takes one matrix per
Python call, and a sweep stage's stack can hold thousands of small zero
blocks. Its factors are inverted by ``_invert_lower``, the triangular
inverse that the sequential estimator's block recursion uses too. A
stack of 1 x 1 matrices, the last sweep stage's zero blocks, is inverted
by a reciprocal when it would factor.
"""

from __future__ import annotations

import ctypes
import functools
import importlib
import threading
from contextlib import ContextDecorator
from pathlib import Path

import numpy as np
from scipy.linalg.lapack import zpotrf, zpotri

from .errors import NotPositiveDefinite, SizeMismatch

# Pivot floor relative to the largest diagonal entry of each matrix.
PD_PIVOT_REL = 1e-12
# Rows per block when the mirror of a single q x q inverse is filled, so the
# temporaries stay a small fraction of the matrix.
_ROW_BLOCK = 64
# Largest triangular factor that _invert_lower hands to np.linalg.inv whole.
_TRIANGULAR_LEAF = 32


@functools.cache
def _openblas_calls(package: str):
    """(get, set) of the thread count of the OpenBLAS bundled with numpy or
    scipy (``package``), or None when it uses another BLAS. The symbols
    carry a ``64_`` suffix in a build with 64-bit integers and none in one
    with 32-bit integers."""
    libs = Path(importlib.import_module(package).__file__).resolve().parent.parent
    for path in (libs / f"{package}.libs").glob("*openblas*"):
        lib = ctypes.CDLL(str(path))
        for name in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                if hasattr(lib, f"{name}_set_num_threads{suffix}"):
                    get = getattr(lib, f"{name}_get_num_threads{suffix}")
                    put = getattr(lib, f"{name}_set_num_threads{suffix}")
                    get.argtypes, get.restype = (), ctypes.c_int
                    put.argtypes, put.restype = (ctypes.c_int,), None
                    return get, put
    return None


@functools.cache
def _openblas_threads():
    """(get, set) pairs of numpy's and scipy's bundled OpenBLAS, in that
    order; empty when neither uses one."""
    return tuple(calls for calls in map(_openblas_calls, ("numpy", "scipy")) if calls)


class _OneBlasThread(ContextDecorator):
    """Run the enclosed calls on one thread of each bundled OpenBLAS and
    restore the caller's counts when the outermost call returns (no-op for
    another BLAS). A second thread that must be woken, or that shares a
    core with other work, made the sweep's calls cost up to tens of times
    their single-thread time. ``find`` returns the (get, set) pairs of the
    counts, or None."""

    def __init__(self, find):
        self.find, self.lock, self.depth, self.saved = find, threading.Lock(), 0, ()

    def __enter__(self):
        with self.lock:
            if self.depth == 0:
                self.saved = tuple((put, get()) for get, put in self.find() or ())
                for put, _ in self.saved:
                    put(1)
            self.depth += 1

    def __exit__(self, *exc):
        with self.lock:
            self.depth -= 1
            if self.depth == 0:
                for put, count in self.saved:
                    put(count)


one_blas_thread = _OneBlasThread(_openblas_threads)


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
    raise NotPositiveDefinite(pivot_index=k, pivot_value=value, index=index, floor=floor)


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
    """Inverses of a stack of Hermitian positive definite matrices, each
    exactly Hermitian with a real diagonal.

    The factor is ``cholesky``'s, with its pivot floor and refusals. A
    single matrix (``ndim == 2``) is then inverted in place in its factor's
    memory by LAPACK's zpotri; a stack takes the batched triangular
    inverse of L by ``_invert_lower`` and the product L^{-H} L^{-1}, which
    beats a Python call per matrix on the sweep's many small zero blocks.
    A stack of 1 x 1 matrices whose real parts are all positive and finite
    is inverted by the reciprocal of its real part; any other takes the
    factorization, so it is refused as before.
    """
    a = np.asarray(h, dtype=complex)
    if a.shape[-2:] == (1, 1):
        re = a.real
        if np.all((re > 0.0) & (re < np.inf)):
            return (1.0 / re).astype(complex)
    lower = cholesky(a)
    if lower.ndim == 2 and lower.size:
        # C-ordered L is Fortran-ordered L^T, an upper factor of conj(h):
        # zpotri leaves the upper triangle of conj(h)^{-1} there, which is
        # the lower triangle of h^{-1} in C order, and copies nothing.
        inv, _ = zpotri(lower.T, lower=0, overwrite_c=1)
        return _mirror_lower(inv.T)
    # each temporary is dropped as soon as it is used and the symmetrization
    # runs in place
    linv = _invert_lower(lower)
    del lower
    inv = linv.conj().swapaxes(-1, -2) @ linv
    del linv
    inv += inv.conj().swapaxes(-1, -2)
    inv *= 0.5
    return inv


def _invert_lower(lower: np.ndarray) -> np.ndarray:
    """Inverses of a stack of nonsingular lower triangular matrices by the
    2 x 2 block recursion [A 0; B C]^{-1} = [A^{-1} 0; -C^{-1} B A^{-1} C^{-1}],
    with np.linalg.inv at leaves of _TRIANGULAR_LEAF or fewer rows. This is
    the blocking of LAPACK's trtri (stability: Du Croz & Higham 1992). At
    h = 100 it takes under half the time of np.linalg.inv on the whole
    factor, an LU solve against the identity that ignores the zeros.
    """
    n = lower.shape[-1]
    if n <= _TRIANGULAR_LEAF:
        return np.linalg.inv(lower)
    k = n // 2
    a_inv, c_inv = _invert_lower(lower[..., :k, :k]), _invert_lower(lower[..., k:, k:])
    inv = np.zeros_like(lower)
    inv[..., :k, :k], inv[..., k:, k:] = a_inv, c_inv
    inv[..., k:, :k] = -(c_inv @ (lower[..., k:, :k] @ a_inv))
    return inv


def _mirror_lower(a: np.ndarray) -> np.ndarray:
    """Fill the strict upper triangle of the square ``a`` from its
    conjugated strict lower triangle and make its diagonal real, in place.

    Rows go in blocks of _ROW_BLOCK, so the temporaries stay a small
    fraction of ``a``: the q x q inverse is the memory peak of Capon.
    """
    n = a.shape[0]
    rows = min(n, _ROW_BLOCK)
    upper = np.arange(n) > np.arange(rows)[:, None]
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        np.copyto(a[start:stop, start:], a[start:, start:stop].conj().T,
                  where=upper[:stop - start, :n - start])
    a.flat[::n + 1] = a.diagonal().real
    return a
