"""Stacked Hermitian positive definite factorization and inversion.

Every function takes a stack of matrices, shape (..., n, n); a single
matrix is a stack with no leading axes. Hermitian inputs are read from
the lower triangle. The whole stack is factored in one numpy LAPACK call;
only when it fails is it factored again matrix by matrix, in C order, to
name the first failing matrix and pivot. numpy alone names it, halving
the failing matrix into a leading block and its Schur complement until
one pivot is left.

A single matrix is inverted from its factor in place by scipy's zpotri,
about a quarter of the work of inverting the factor and multiplying it
out; it is the only call into scipy. A stack stays in numpy's batched
calls: zpotri takes one matrix per Python call, and a sweep stage's stack
can hold thousands of small zero blocks. Its factors are inverted by
``_invert_lower``, the triangular inverse that the sequential estimator's
block recursion uses too. A stack of 1 x 1 matrices, the last sweep
stage's zero blocks, is inverted by a reciprocal when it would factor. An
inverse that overflows the double range is refused with OverflowError.

scipy is imported at its first use, so a sequential estimate, which
inverts only stacks, never loads it, not even when it is refused.
"""

from __future__ import annotations

import ctypes
import functools
import importlib
import sys
import threading
from contextlib import ContextDecorator
from pathlib import Path

import numpy as np

from .errors import NotPositiveDefinite, SizeMismatch

# Pivot floor relative to the largest diagonal entry of each matrix.
PD_PIVOT_REL = 1e-12
# Rows per block when the mirror of a single q x q inverse is filled, so the
# temporaries stay a small fraction of the matrix.
_ROW_BLOCK = 64
# Largest triangular factor that _invert_lower hands to np.linalg.inv whole.
_TRIANGULAR_LEAF = 32
# Smallest positive number whose reciprocal invert_pd takes without a check:
# the reciprocal is at most half the largest double.
_RECIPROCAL_MIN = 2.0 / np.finfo(float).max


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


def _openblas_threads():
    """(get, set) pairs of numpy's bundled OpenBLAS and, once scipy.linalg
    is loaded, scipy's, in that order; empty when neither uses one. Before
    that, scipy's OpenBLAS is not even loaded."""
    packages = ("numpy", "scipy") if "scipy.linalg" in sys.modules else ("numpy",)
    return tuple(calls for calls in map(_openblas_calls, packages) if calls)


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


def _lapack():
    """scipy's LAPACK wrappers, imported at first use."""
    from scipy.linalg import lapack

    return lapack


@np.errstate(over="ignore", invalid="ignore")
def _factor_one(a: np.ndarray, floor: float, index: tuple[int, ...]) -> np.ndarray:
    """Lower factor of one matrix; its first pivot at or below ``floor``,
    or the first that LAPACK rejects, is reported with ``index``.

    A matrix that fails is halved until one pivot is left: when its
    leading half fails, the pivot is there; when that half passes, it is
    in the Schur complement of the half, a22 - a21 a11^{-1} a21^H, whose
    pivots continue the whole matrix's. The last 1 x 1 complement is the
    failing pivot's value, as LAPACK's potrf forms it; one that overflows
    is -inf, as there, and raises no warning.
    """
    def factor(b):
        """The lower factor of ``b``, or None if a pivot fails."""
        try:
            lower = np.linalg.cholesky(b)
        except np.linalg.LinAlgError:
            return None
        return lower if np.all(np.diagonal(lower).real ** 2 > floor) else None

    lower = factor(a)
    if lower is not None:
        return lower
    k = 0  # pivots of the whole matrix before a's first
    while a.shape[-1] > 1:
        m = a.shape[-1] // 2
        lead = factor(a[:m, :m])
        if lead is None:
            a = a[:m, :m]
        else:  # L21^H = L11^{-1} a21^H, and the complement a22 - L21 L21^H
            right = np.linalg.solve(lead, a[m:, :m].conj().T)
            a, k = a[m:, m:] - right.conj().T @ right, k + m
    raise NotPositiveDefinite(pivot_index=k, pivot_value=float(a[0, 0].real), index=index,
                              floor=floor)


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


def invert_pd(h) -> np.ndarray:
    """Inverses of a stack of Hermitian positive definite matrices, each
    exactly Hermitian with a real diagonal.

    The factor is ``cholesky``'s, with its pivot floor and refusals, which
    numpy names. A single matrix (``ndim == 2``) is then inverted in place
    in its factor's memory by LAPACK's zpotri, the one call into scipy; a
    stack takes the batched triangular inverse of L by ``_invert_lower``
    and the product L^{-H} L^{-1}, which beats a Python call per matrix on
    the sweep's many small zero blocks. A stack of 1 x 1 matrices whose
    real parts are all finite and large enough for their reciprocals to
    stay finite is inverted by the reciprocal of its real part; any other
    takes the factorization, so it is refused as before.

    scipy is loaded before the pin of ``one_blas_thread`` is entered, so
    the pin holds scipy's OpenBLAS to one thread too.

    A matrix whose inverse overflows, one with an eigenvalue below about
    1e-308, raises OverflowError naming the first such matrix in C order.
    """
    a = np.asarray(h, dtype=complex)
    if a.shape[-2:] == (1, 1):
        re = a.real
        if np.all((re >= _RECIPROCAL_MIN) & (re < np.inf)):
            return (1.0 / re).astype(complex)
    lapack = _lapack() if a.ndim == 2 else None
    with one_blas_thread:
        lower = cholesky(a)
        if lower.ndim == 2 and lower.size:
            # C-ordered L is Fortran-ordered L^T, an upper factor of conj(h):
            # zpotri leaves the upper triangle of conj(h)^{-1} there, which is
            # the lower triangle of h^{-1} in C order, and copies nothing.
            inv, _ = lapack.zpotri(lower.T, lower=0, overwrite_c=1)
            return _finite(_mirror_lower(inv.T))
        with np.errstate(over="ignore", invalid="ignore"):
            # each temporary is dropped as soon as it is used and the
            # symmetrization runs in place, halving first so that an inverse
            # within the double range stays within it
            linv = _invert_lower(lower)
            del lower
            inv = linv.conj().swapaxes(-1, -2) @ linv
            del linv
            inv *= 0.5
            inv += inv.conj().swapaxes(-1, -2)
    return _finite(inv)


def _finite(inv: np.ndarray) -> np.ndarray:
    """``inv``, a stack of Hermitian positive definite inverses, unless one
    of them overflowed. No entry of such a matrix exceeds its largest
    diagonal entry, so its diagonal is all that is checked."""
    diagonal = np.diagonal(inv, axis1=-2, axis2=-1).real
    if diagonal.max(initial=0.0) < np.inf:
        return inv
    index = np.unravel_index(np.argmin(diagonal < np.inf), diagonal.shape)[:-1]
    where = f" of matrix {tuple(map(int, index))}" if index else ""
    raise OverflowError(f"the inverse{where} overflows the double range")


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
