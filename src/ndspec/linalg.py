"""Stacked Hermitian positive definite factorization and inversion.

Every function takes a stack of matrices, shape (..., n, n); a single
matrix is a stack with no leading axes. Hermitian inputs are read from
the lower triangle. The whole stack is factored in one numpy LAPACK call;
only when it fails is it factored again matrix by matrix, in C order, to
name the first failing matrix and pivot. numpy alone names it, halving
the failing matrix into a leading block and its Schur complement until
one pivot is left.

The arithmetic runs in one of two configurations: with LAPACKE's
zpotrf_work and zpotri_work and CBLAS's ztrsm and zherk from the OpenBLAS
that numpy bundles, the library whose thread count ``one_blas_thread``
pins, or on numpy alone. ``_lapack`` returns the four calls, bound through
ctypes all together or not at all, or None. The ``_work`` variants skip
LAPACKE's NaN scan of the matrix.

``_factor_single``, the one factor of a single matrix, serves Capon's
inverse and each order of the block recursion. zpotrf factors one
C-ordered copy of the matrix in place, where numpy's Cholesky would copy
it into Fortran order and back. A factor that zpotrf rejects or whose
pivots miss the floor, and every factor on numpy alone, is numpy's, which
accepts the matrix or names the refusal. A zpotrf factor's strict upper
triangle is unspecified and goes only to zpotri and ztrsm; numpy's factor
is zero there, as numpy's solves and ``_invert_lower`` need. zpotri
inverts a single factor in place, about a quarter of the work of
inverting the factor and multiplying it out. ``_solve_downdate`` solves
with each recursion factor by two ztrsm calls and updates the error by
one zherk, or by numpy's solves, with no inverse of the factor. A stack
stays in numpy's batched calls: zpotri takes one matrix per Python call,
and a sweep stage's stack can hold thousands of small zero blocks.
``_invert_lower``, the package's one triangular inverse, serves the
stacked inverse and, on numpy alone, the single one, which multiply it
out in GEMMs; np.linalg.inv of the whole factor, on one thread, measured
1.2 times its time on 64 factors of 33 rows and 1.8 to 3.1 times on 32
to 1 factors of 48 to 100 rows. A stack of 1 x 1 matrices, the last sweep
stage's zero blocks, is inverted by a reciprocal when it would factor. An
inverse that overflows the double range is refused with OverflowError.
"""

from __future__ import annotations

import ctypes
import functools
import threading
from contextlib import ContextDecorator
from pathlib import Path
from typing import NamedTuple

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
# LAPACKE's matrix_layout for column-major (Fortran-ordered) arrays.
_COLUMN_MAJOR = 102
# CBLAS's enumerations, as the C ints that its calls take unconverted:
# row-major (C-ordered) arrays, a triangular matrix on the left, the upper
# or lower triangle, no or conjugate transposition, and a diagonal that is
# not all ones.
_ROW_MAJOR, _LEFT, _UPPER, _LOWER, _NO_TRANS, _CONJ_TRANS, _NON_UNIT = map(
    ctypes.c_int, (101, 141, 121, 122, 111, 113, 131))
# 1 + 0j, the factor ztrsm takes by address.
_ONE = (ctypes.c_double * 2)(1.0, 0.0)


class _OpenBlas(NamedTuple):
    """The calls of numpy's bundled OpenBLAS that the package uses: the
    (get, set) pair of its thread count, its LAPACKE zpotrf_work and
    zpotri_work, which take (matrix layout, uplo, n, a, lda) and return
    info, and its CBLAS ztrsm and zherk; the last four are all None where
    the library lacks one of them."""

    threads: tuple
    zpotrf: object
    zpotri: object
    ztrsm: object
    zherk: object


@functools.cache
def _openblas() -> _OpenBlas | None:
    """numpy's bundled OpenBLAS, or None when numpy uses another BLAS. Its
    four calls are bound all together or not at all. The symbols carry a
    ``64_`` suffix in a build with 64-bit integers and none in one with
    32-bit integers; the integer arguments of the LAPACKE and CBLAS calls
    follow its suffix, and CBLAS's enumerations are C ints."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in libs.glob("*openblas*"):
        lib = ctypes.CDLL(str(path))
        for prefix in ("scipy_", ""):
            for suffix, integer in (("64_", ctypes.c_int64), ("", ctypes.c_int32)):
                if not hasattr(lib, f"{prefix}openblas_set_num_threads{suffix}"):
                    continue
                get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}")
                put = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}")
                get.argtypes, get.restype = (), ctypes.c_int
                put.argtypes, put.restype = (ctypes.c_int,), None
                enum, address, real = ctypes.c_int, ctypes.c_void_p, ctypes.c_double
                # layout, uplo, n, a, lda; returns info
                lapacke = ((enum, ctypes.c_char, integer, address, integer), integer)
                signatures = {
                    "LAPACKE_zpotrf_work": lapacke,
                    "LAPACKE_zpotri_work": lapacke,
                    # order, side, uplo, trans, diag, m, n, alpha, a, lda, b, ldb
                    "cblas_ztrsm": ((enum,) * 5 + (integer, integer, address, address, integer,
                                                   address, integer), None),
                    # order, uplo, trans, n, k, alpha, a, lda, beta, c, ldc
                    "cblas_zherk": ((enum,) * 3 + (integer, integer, real, address, integer,
                                                   real, address, integer), None),
                }
                calls = [getattr(lib, f"{prefix}{name}{suffix}", None) for name in signatures]
                if any(call is None for call in calls):
                    return _OpenBlas((get, put), None, None, None, None)
                for call, (argtypes, restype) in zip(calls, signatures.values()):
                    call.argtypes, call.restype = argtypes, restype
                return _OpenBlas((get, put), *calls)
    return None


def _blas_threads():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None."""
    return getattr(_openblas(), "threads", None)


def _lapack() -> _OpenBlas | None:
    """numpy's bundled OpenBLAS when it has the four calls, else None; each
    helper reads it once, so its calls come from one configuration."""
    blas = _openblas()
    return blas if blas is not None and blas.zpotrf is not None else None


class _OneBlasThread(ContextDecorator):
    """Run the enclosed calls on one thread of numpy's bundled OpenBLAS and
    restore the caller's count when the outermost call returns (no-op for
    another BLAS). A second thread that must be woken, or that shares a
    core with other work, made the sweep's calls cost up to tens of times
    their single-thread time. ``find`` returns the (get, set) pair of the
    count, or None."""

    def __init__(self, find):
        self.find, self.lock, self.depth, self.saved = find, threading.Lock(), 0, None

    def __enter__(self):
        with self.lock:
            if self.depth == 0:
                self.saved = None
                if calls := self.find():
                    get, put = calls
                    self.saved = put, get()
                    put(1)
            self.depth += 1

    def __exit__(self, *exc):
        with self.lock:
            self.depth -= 1
            if self.depth == 0 and self.saved:
                put, count = self.saved
                put(count)


one_blas_thread = _OneBlasThread(_blas_threads)


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
    numpy names. A single matrix (``ndim == 2``) is factored by
    ``_factor_single`` and, with numpy's OpenBLAS calls, inverted in place
    by LAPACK's zpotri, in one copy of the input, on the one thread that
    ``one_blas_thread`` pins; a nonzero ``info`` from zpotri raises
    LinAlgError. A stack, and a single matrix without those calls, takes
    the batched triangular inverse of L by ``_invert_lower`` and the
    product L^{-H} L^{-1}, which beats a Python call per matrix on the
    sweep's many small zero blocks. A stack of 1 x 1 matrices whose real
    parts are all finite and large enough for their reciprocals to stay
    finite is inverted by the reciprocal of its real part; any other takes
    the factorization, so it is refused as before.

    A matrix whose inverse overflows, one with an eigenvalue below about
    1e-308, raises OverflowError naming the first such matrix in C order.
    """
    a = np.asarray(h, dtype=complex)
    if a.shape[-2:] == (1, 1):
        re = a.real
        if np.all((re >= _RECIPROCAL_MIN) & (re < np.inf)):
            return (1.0 / re).astype(complex)
    with one_blas_thread:
        # cholesky refuses a non-square matrix before any pointer is passed
        if a.ndim == 2 and a.size and a.shape[0] == a.shape[1]:
            lower = _factor_single(a, PD_PIVOT_REL * np.max(a.diagonal().real))
        else:
            lower = cholesky(a)
        return _finite(_cholesky_inverse(lower))


def _cholesky_inverse(lower: np.ndarray) -> np.ndarray:
    """(L L^H)^{-1}, exactly Hermitian with a real diagonal, for a stack of
    nonsingular lower triangular L.

    With numpy's OpenBLAS calls, a single nonempty factor from
    ``_factor_single`` is inverted in place by zpotri; a nonzero ``info``
    raises LinAlgError. C-ordered L is column-major L^T, an upper factor of
    conj(L L^H): zpotri leaves the upper triangle of its inverse there,
    which is the lower triangle of (L L^H)^{-1} in C order, and
    ``_mirror_lower`` fills the rest. A stack, or a single factor without
    those calls, must be zero above its diagonal: it takes the batched
    triangular inverse of L by ``_invert_lower`` and the product
    L^{-H} L^{-1}, halved before it is symmetrized in place so that an
    inverse within the double range stays within it. Neither path warns
    on overflow, which the caller checks.
    """
    lapack = _lapack()
    if lapack is not None and lower.ndim == 2 and lower.size:
        n = lower.shape[0]
        info = lapack.zpotri(_COLUMN_MAJOR, b"U", n, _address(lower), n)
        if info:
            raise np.linalg.LinAlgError(f"zpotri failed with info {info}")
        return _mirror_lower(lower)
    with np.errstate(over="ignore", invalid="ignore"):
        # each temporary is dropped as soon as it is used
        linv = _invert_lower(lower)
        del lower
        inv = linv.conj().swapaxes(-1, -2) @ linv
        del linv
        inv *= 0.5
        inv += inv.conj().swapaxes(-1, -2)
    return inv


def _solve_downdate(lower: np.ndarray, b: np.ndarray, p: np.ndarray) -> None:
    """With Q = L L^H and ``lower`` its factor from ``_factor_single``,
    overwrite the C-ordered (m, k) ``b`` with Q^{-1} b and subtract W^H W,
    W = L^{-1} b, from the C-ordered (k, k) ``p``, in place.

    With numpy's OpenBLAS calls, a triangular solve (ztrsm) takes b to W
    in place, a Hermitian rank-m update (zherk) subtracts W^H W from the
    upper triangle of ``p`` in C order, leaving its strict lower triangle
    as it was, and a second solve takes W to L^{-H} W. Without them, numpy
    solves for W and L^{-H} W and updates all of ``p``. Neither forms
    L^{-1}, which loses the small pivots of a near-singular matrix and
    refuses some that the dense Cholesky accepts.
    """
    lapack = _lapack()
    if lapack is None:
        w = np.linalg.solve(lower, b)
        p -= w.conj().T @ w
        b[...] = np.linalg.solve(lower.conj().T, w)
        return
    m, k = b.shape
    if lower.shape != (m, m) or p.shape != (k, k) or not (
            lower.dtype == b.dtype == p.dtype == np.complex128):
        raise ValueError(f"cannot solve with a {lower.shape} {lower.dtype} factor for a "
                         f"{b.shape} {b.dtype} block and a {p.shape} {p.dtype} error")
    at, b_at = _address(lower), _address(b)
    lapack.ztrsm(_ROW_MAJOR, _LEFT, _LOWER, _NO_TRANS, _NON_UNIT, m, k, _ONE, at, m, b_at, k)
    lapack.zherk(_ROW_MAJOR, _UPPER, _CONJ_TRANS, k, m, -1.0, b_at, k, 1.0, _address(p), k)
    lapack.ztrsm(_ROW_MAJOR, _LEFT, _LOWER, _CONJ_TRANS, _NON_UNIT, m, k, _ONE, at, m, b_at, k)


def _address(a: np.ndarray) -> int:
    """The address of the writable C-contiguous array ``a``, which must
    outlive its use; any other array raises. It takes a third of the time
    of ``a.ctypes.data``, which the recursion would pay four times an
    order. Every pointer that the package passes comes from here."""
    return ctypes.addressof(ctypes.c_char.from_buffer(a))


def _factor_single(a: np.ndarray, floor) -> np.ndarray:
    """The lower Cholesky factor of one nonempty square complex matrix,
    whose pivots diag(L)^2 pass the absolute ``floor``, C-ordered in an
    array whose strict upper triangle is unspecified.

    zpotrf factors one C-ordered copy of ``a`` in place: read column-major,
    the copy is a^T = conj(a), and the upper factor U of conj(a) that it
    leaves there reads back in C order as U^T, the lower factor of ``a``;
    the pivot check refuses a NaN, which the _work call does not scan for.
    When zpotrf rejects a pivot, a pivot misses the floor, or numpy's
    OpenBLAS lacks the calls, ``_cholesky`` decides: numpy's factor, zero
    above its diagonal, or the refusal that it names for every caller.
    """
    lapack, n = _lapack(), a.shape[0]
    if lapack is not None:
        lower = a.copy()
        if (lapack.zpotrf(_COLUMN_MAJOR, b"U", n, _address(lower), n) == 0
                and np.all(lower.diagonal().real ** 2 > floor)):
            return lower
        del lower
    return np.ascontiguousarray(_cholesky(a, floor))


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
    fraction of ``a``: Capon's memory peak is its q x q input and the one
    copy of it that ``invert_pd`` factors and inverts in place.
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
