import ctypes
import sys
import threading
import types

import numpy as np
import pytest

from conftest import random_correlation, random_pd_matrix, run_fresh
from ndspec import (
    DimSpec,
    SpectralGridSpec,
    assemble,
    capon_spectrum,
    correlation_match,
    estimator,
    invert_pd,
    linalg,
    sequential_spectrum,
)
from ndspec.errors import NotPositiveDefinite, SizeMismatch
from ndspec.linalg import cholesky


class TestCholesky:
    def test_identity(self):
        assert np.array_equal(cholesky(np.eye(3)), np.eye(3))

    def test_hand_factor_2x2(self):
        lower = cholesky(np.array([[2.0, 1.0], [1.0, 2.0]]))
        expected = np.array([[np.sqrt(2.0), 0.0], [1.0 / np.sqrt(2.0), np.sqrt(1.5)]])
        np.testing.assert_allclose(lower, expected, rtol=1e-12)

    def test_reports_failing_pivot(self):
        with pytest.raises(NotPositiveDefinite) as info:
            cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert info.value.pivot_index == 1

    def test_zero_matrix_fails_at_first_pivot(self):
        with pytest.raises(NotPositiveDefinite) as info:
            cholesky(np.zeros((2, 2)))
        assert info.value.pivot_index == 0

    def test_reconstruction_up_to_27(self):
        rng = np.random.default_rng(10)
        for n in (2, 3, 5, 9, 27):
            h = random_pd_matrix(rng, n)
            lower = cholesky(h)
            scale = np.max(np.abs(h))
            assert np.max(np.abs(lower @ lower.conj().T - h)) <= 1e-10 * scale
            assert np.all(np.diag(lower).real > 0)
            assert np.max(np.abs(np.diag(lower).imag)) == 0.0

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            cholesky(np.zeros((2, 3)))

    def test_stack_matches_matrix_by_matrix(self):
        rng = np.random.default_rng(14)
        stack = np.stack([np.stack([random_pd_matrix(rng, 4) for _ in range(3)])
                          for _ in range(2)])
        lower = cholesky(stack)
        assert lower.shape == (2, 3, 4, 4)
        for index in np.ndindex(2, 3):
            np.testing.assert_allclose(lower[index], cholesky(stack[index]),
                                       rtol=1e-13, atol=1e-15)

    def test_stack_names_first_failing_matrix_in_c_order(self):
        stack = np.stack([np.eye(2)] * 6).reshape(2, 3, 2, 2)
        stack[1, 0] = [[1.0, 2.0], [2.0, 1.0]]
        stack[1, 2] = [[-2.0, 0.0], [0.0, 1.0]]
        with pytest.raises(NotPositiveDefinite) as info:
            cholesky(stack)
        assert info.value.index == (1, 0)
        assert info.value.pivot_index == 1
        assert info.value.pivot_value == -3.0

    def test_relative_pivot_floor(self):
        # positive pivots at or below 1e-12 of the largest diagonal entry fail
        with pytest.raises(NotPositiveDefinite) as info:
            cholesky(np.stack([np.eye(2), np.diag([1.0, 1e-13])]))
        assert info.value.index == (1,)
        assert info.value.pivot_index == 1
        assert info.value.pivot_value == pytest.approx(1e-13, rel=1e-12)
        assert np.all(np.isfinite(cholesky(np.diag([1.0, 1e-11]))))


class TestInvertPd:
    def test_scaled_identity(self):
        np.testing.assert_allclose(invert_pd(0.25 * np.eye(3)), 4.0 * np.eye(3),
                                   rtol=1e-14)

    def test_hand_inverse_2x2(self):
        out = invert_pd(np.array([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(
            out, np.array([[2.0, -1.0], [-1.0, 2.0]]) / 3.0, rtol=1e-12
        )

    def test_residual_on_random_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            h = random_pd_matrix(rng, 5)
            residual = np.max(np.abs(h @ invert_pd(h) - np.eye(5)))
            assert residual < 1e-9

    def test_involution(self):
        rng = np.random.default_rng(12)
        h = random_pd_matrix(rng, 6)
        back = invert_pd(invert_pd(h))
        assert np.max(np.abs(back - h)) <= 1e-8 * np.max(np.abs(h))

    def test_output_exactly_hermitian(self):
        rng = np.random.default_rng(13)
        out = invert_pd(random_pd_matrix(rng, 7))
        assert np.array_equal(out, out.conj().T)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            invert_pd(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_stack_matches_matrix_by_matrix(self):
        rng = np.random.default_rng(15)
        stack = np.stack([random_pd_matrix(rng, 5) for _ in range(4)])
        out = invert_pd(stack)
        for k in range(4):
            np.testing.assert_allclose(out[k], np.linalg.inv(stack[k]),
                                       rtol=1e-10, atol=1e-12)
            assert np.array_equal(out[k], out[k].conj().T)

    @staticmethod
    def ill_conditioned(rng, n, cond):
        """Hermitian positive definite matrix with eigenvalues spread
        logarithmically from 1 down to 1 / ``cond``."""
        q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        a = (q * np.logspace(0, -np.log10(cond), n)) @ q.conj().T
        return 0.5 * (a + a.conj().T)

    def test_single_matches_stack_path(self):
        rng = np.random.default_rng(18)
        cases = [random_pd_matrix(rng, n) for n in (1, 2, 9, 64, 65, 150)]
        cases += [self.ill_conditioned(rng, n, cond) for n, cond in
                  ((5, 1e6), (27, 1e10), (70, 1e12), (130, 1e9))]
        for h in cases:
            single, stacked = invert_pd(h), invert_pd(h[None])[0]
            bound = 1e-12 * np.linalg.cond(h) * np.max(np.abs(stacked))
            assert np.max(np.abs(single - stacked)) <= bound

    @pytest.mark.parametrize("h", [40, 100])
    def test_stack_over_a_triangular_leaf_matches_per_matrix_inverse(self, h):
        # factors above linalg._TRIANGULAR_LEAF rows take the block recursion
        rng = np.random.default_rng(h)
        stack = np.stack([random_pd_matrix(rng, h), self.ill_conditioned(rng, h, 1e6),
                          self.ill_conditioned(rng, h, 1e10)])
        out = invert_pd(stack)
        for a, inv in zip(stack, out):
            expected = np.linalg.inv(a)
            bound = 1e-12 * np.linalg.cond(a) * np.max(np.abs(expected))
            assert np.max(np.abs(inv - expected)) <= bound
            assert np.array_equal(inv, inv.conj().T)

    def test_single_exactly_hermitian_with_real_diagonal(self):
        rng = np.random.default_rng(19)
        for n in (1, 3, 63, 64, 65, 129, 200):
            out = invert_pd(random_pd_matrix(rng, n))
            assert np.array_equal(out, out.conj().T)
            assert np.all(out.diagonal().imag == 0.0)
            assert not np.any(np.signbit(out.diagonal().imag))

    def test_leaves_the_input_unmodified(self):
        rng = np.random.default_rng(20)
        for h in (random_pd_matrix(rng, 70), np.asfortranarray(random_pd_matrix(rng, 5))):
            kept = h.copy()
            out = invert_pd(h)
            assert np.array_equal(h, kept)
            assert not np.shares_memory(out, h)
            np.testing.assert_allclose(out @ h, np.eye(h.shape[0]), atol=1e-9)

    @pytest.mark.parametrize("h, pivot, value", [
        (np.array([[1.0, 2.0], [2.0, 1.0]]), 1, -3.0),
        (np.diag([1.0, 1e-13, 1.0]), 1, 1e-13),
        (np.array([[4.0, 2.0, 0.0], [2.0, 1.0 + 1e-13, 0.0], [0.0, 0.0, 1.0]]), 1, 1e-13),
        (np.zeros((3, 3)), 0, 0.0),
    ])
    def test_single_refusal_names_the_pivot(self, h, pivot, value):
        with pytest.raises(NotPositiveDefinite) as info:
            invert_pd(h)
        assert info.value.pivot_index == pivot
        assert info.value.pivot_value == pytest.approx(value, rel=1e-3, abs=1e-300)
        assert info.value.index == ()
        with pytest.raises(NotPositiveDefinite) as factored:
            cholesky(h)
        assert (info.value.pivot_index, info.value.pivot_value, info.value.index) == (
            factored.value.pivot_index, factored.value.pivot_value, factored.value.index)

    def test_non_square_single_matrix(self):
        with pytest.raises(SizeMismatch):
            invert_pd(np.zeros((2, 3)))

    def test_scalar_stack_is_the_reciprocal_of_its_real_part(self):
        # 1 x 1 blocks, as at every sweep's last stage: the factorization
        # reads only the real part of a diagonal, and so does the reciprocal
        a = np.array([2.0, 0.3 + 0.7j, 1e-300, 7.0 - 1e300j, 3.0]).reshape(5, 1, 1)
        out = invert_pd(a)
        assert out.dtype == complex and out.shape == a.shape
        assert np.array_equal(out, 1.0 / a.real)
        linv = np.linalg.inv(np.linalg.cholesky(a))
        np.testing.assert_allclose(out, linv.conj() * linv, rtol=1e-14)
        assert np.array_equal(invert_pd(a[1]), 1.0 / a[1].real)

    @pytest.mark.parametrize("bad", [0.0, -1.0, -0.0, np.nan, np.inf, 1j])
    def test_scalar_stack_refusal_names_the_block_and_pivot(self, bad):
        # what the factorization reports: the first failing block in C
        # order, pivot 0 and the real part, signed zero and NaN included
        a = np.array([1.0, 2.0, bad, bad], dtype=complex).reshape(2, 2, 1, 1)
        with pytest.raises(NotPositiveDefinite) as info:
            invert_pd(a)
        value = complex(bad).real
        assert info.value.index == (1, 0) and info.value.pivot_index == 0
        assert np.array_equal(info.value.pivot_value, value, equal_nan=True)
        assert np.signbit(info.value.pivot_value) == np.signbit(value)
        with pytest.raises(NotPositiveDefinite) as single:
            invert_pd(a[1, 0])
        assert single.value.index == () and single.value.pivot_index == 0


def _without_zpotri(monkeypatch, h):
    """``invert_pd(h)`` as where numpy bundles no OpenBLAS with zpotri."""
    with monkeypatch.context() as patched:
        patched.setattr(linalg, "_openblas", lambda: None)
        return invert_pd(h)


def _lapack():
    """The four calls of numpy's bundled OpenBLAS; skips the test where it
    has none."""
    if linalg._lapack() is None:
        pytest.skip("numpy bundles no OpenBLAS with LAPACKE and CBLAS here")
    return linalg._lapack()


def _ldl(n, k, pivot):
    """L D L^H with L unit lower triangular and D = I but D_k = ``pivot``:
    the Schur complement that the Cholesky factorization meets at pivot k
    is ``pivot``."""
    rng = np.random.default_rng((n, k))
    lower = np.tril(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), -1)
    lower = lower / np.sqrt(n) + np.eye(n)
    d = np.ones(n)
    d[k] = pivot
    return (lower * d) @ lower.conj().T


@pytest.mark.parametrize("n", [5, 33, 70, 200])
@pytest.mark.parametrize("at", ["first", "second", "middle", "last"])
@pytest.mark.parametrize("pivot", [-0.5, 1e-14])
def test_a_built_failure_is_named_at_its_pivot(n, at, pivot, monkeypatch):
    # below the floor, 1e-12 of the largest diagonal entry, or negative; the
    # value within n eps of the largest diagonal entry, as a factorization
    # forms it, through cholesky and invert_pd, alone and in a stack, and
    # through invert_pd where numpy's BLAS has no zpotri
    k = {"first": 0, "second": 1, "middle": n // 2, "last": n - 1}[at]
    a = _ldl(n, k, pivot)
    stack = np.stack([np.eye(n), a, _ldl(n, 0, -1.0)]).reshape(1, 3, n, n)
    bound = n * np.finfo(float).eps * a.diagonal().real.max()
    for call in (cholesky, invert_pd, lambda h: _without_zpotri(monkeypatch, h)):
        for h, index in ((a, ()), (stack, (0, 1))):
            with pytest.raises(NotPositiveDefinite) as info:
                call(h)
            assert (info.value.index, info.value.pivot_index) == (index, k)
            assert abs(info.value.pivot_value - pivot) <= bound


class TestInverseOverflow:
    """A positive definite matrix whose inverse overflows is refused, not
    returned as inf and not with a warning."""

    TINY = np.array([[2e-310, 1e-310], [1e-310, 2e-310]])

    @pytest.mark.parametrize("h, where", [
        (TINY, ""),
        (np.stack([np.eye(2), TINY, TINY]), " of matrix (1,)"),
        (np.array([[1e-310]]), ""),
        (np.array([[[1.0]], [[4.0]], [[1e-310]]]), " of matrix (2,)"),
    ], ids=["single", "stack", "1x1", "1x1 stack"])
    def test_refused_with_the_first_matrix_named(self, h, where):
        with pytest.raises(OverflowError) as info:
            invert_pd(h)
        assert str(info.value) == f"the inverse{where} overflows the double range"

    @pytest.mark.parametrize("h", [TINY * 1e10, np.stack([np.eye(2), TINY * 1e10]),
                                   np.array([[1e-300]]), np.array([[[1.0]], [[1e-300]]])],
                             ids=["single", "stack", "1x1", "1x1 stack"])
    def test_representable_inverse_is_returned(self, h):
        inv = invert_pd(h)
        np.testing.assert_allclose(inv @ h, np.broadcast_to(np.eye(h.shape[-1]), h.shape),
                                   atol=1e-12)


class TestWithoutZpotri:
    """Where numpy bundles no OpenBLAS with zpotri, a single matrix is
    factored by numpy and inverted by the triangular inverse: the same
    inverse, exactly Hermitian, and the same refusals."""

    def test_matches_the_lapack_path(self, monkeypatch):
        rng = np.random.default_rng(21)
        for n in (1, 2, 9, 33, 64, 65, 150):
            h = random_pd_matrix(rng, n)
            lapack, fallback = invert_pd(h), _without_zpotri(monkeypatch, h)
            assert np.max(np.abs(fallback - lapack)) <= 1e-12 * np.max(np.abs(lapack))

    def test_exactly_hermitian_with_real_diagonal(self, monkeypatch):
        rng = np.random.default_rng(22)
        for n in (1, 3, 63, 64, 65, 129):
            out = _without_zpotri(monkeypatch, random_pd_matrix(rng, n))
            assert np.array_equal(out, out.conj().T)
            assert np.all(out.diagonal().imag == 0.0)
            assert not np.any(np.signbit(out.diagonal().imag))

    def test_overflow_is_refused(self, monkeypatch):
        with pytest.raises(OverflowError) as info:
            _without_zpotri(monkeypatch, TestInverseOverflow.TINY)
        assert str(info.value) == "the inverse overflows the double range"


def test_a_zpotrf_refusal_is_decided_by_numpy(monkeypatch):
    # a factor that zpotrf rejects, or whose pivot misses the floor, goes to
    # numpy's cholesky, which here accepts the matrix: the inverse is unchanged
    real = _lapack()
    h = random_pd_matrix(np.random.default_rng(25), 40)
    expected = invert_pd(h)
    for info in (0, 3):
        def zpotrf(layout, uplo, n, data, lda, info=info):
            np.ctypeslib.as_array(ctypes.cast(data, ctypes.POINTER(ctypes.c_double)),
                                  (2 * n * n,))[:] = 0.0
            return info
        monkeypatch.setattr(linalg, "_openblas", lambda blas=real._replace(zpotrf=zpotrf): blas)
        np.testing.assert_allclose(invert_pd(h), expected, rtol=1e-12, atol=1e-14)


def test_the_zpotrf_factor_is_numpys():
    rng = np.random.default_rng(26)
    for n in (1, 5, 64, 129):
        h = random_pd_matrix(rng, n)
        lower = np.tril(linalg._factor_single(h, linalg.PD_PIVOT_REL * h.diagonal().real.max()))
        factor = cholesky(h)
        assert lower.flags.c_contiguous
        assert np.max(np.abs(lower - factor)) <= 1e-13 * np.max(np.abs(factor))


class TestSolveDowndate:
    """The recursion's step: b <- Q^{-1} b and P -= W^H W, W = L^{-1} b, by
    ztrsm and zherk on numpy's OpenBLAS, or by the triangular inverse and
    GEMMs without it."""

    @pytest.mark.parametrize("m, k", [(1, 1), (3, 5), (40, 7)])
    @pytest.mark.parametrize("blas", [True, False], ids=["openblas", "without"])
    def test_matches_the_dense_arithmetic(self, m, k, blas, monkeypatch):
        if blas:
            _lapack()
        else:
            monkeypatch.setattr(linalg, "_openblas", lambda: None)
        rng = np.random.default_rng((m, k))
        q, p = random_pd_matrix(rng, m), 10 * random_pd_matrix(rng, k)
        lower = cholesky(q)
        b = rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))
        w = np.linalg.solve(lower, b)
        expected_b, expected_p = np.linalg.solve(q, b), p - w.conj().T @ w
        out_b, out_p = b.copy(), p.copy()
        linalg._solve_downdate(lower, out_b, out_p)
        upper = np.triu(np.ones((k, k), dtype=bool))
        assert np.max(np.abs(out_b - expected_b)) <= 1e-12 * np.max(np.abs(expected_b))
        assert np.max(np.abs(out_p - expected_p)[upper]) <= 1e-12 * np.max(np.abs(expected_p))
        if blas:  # the strict lower triangle, which no factorization reads, is left as it was
            assert np.array_equal(out_p[~upper], p[~upper])

    def test_refuses_arrays_it_cannot_pass(self):
        _lapack()
        lower, p = np.eye(2, dtype=complex), np.eye(2, dtype=complex)
        with pytest.raises(ValueError, match="float64 factor"):
            linalg._solve_downdate(lower.real.copy(), np.ones((2, 2), complex), p)
        with pytest.raises(ValueError, match=r"\(2, 3\) complex128 block"):
            linalg._solve_downdate(lower, np.ones((2, 3), complex), p)
        with pytest.raises(TypeError, match="not C contiguous"):
            linalg._solve_downdate(lower, np.ones((2, 4), complex)[:, :2], p)


def test_the_lapacke_calls_are_the_work_variants():
    # the _work calls skip LAPACKE's scan of the whole triangle for NaN
    # before each call; the CBLAS calls are bound beside them
    blas = _lapack()
    names = {field: getattr(blas, field).__name__ for field in ("zpotrf", "zpotri", "ztrsm",
                                                                "zherk")}
    suffix = "64_" if names["zpotri"].endswith("64_") else ""
    assert {field: name.removeprefix("scipy_") for field, name in names.items()} == {
        "zpotrf": f"LAPACKE_zpotrf_work{suffix}", "zpotri": f"LAPACKE_zpotri_work{suffix}",
        "ztrsm": f"cblas_ztrsm{suffix}", "zherk": f"cblas_zherk{suffix}"}


def test_the_four_calls_are_bound_all_together_or_not_at_all(monkeypatch):
    # a library without cblas_zherk still gives the thread count that
    # one_blas_thread pins, and none of the other calls: a zpotrf factor,
    # whose strict upper triangle is unspecified, never meets numpy's solves
    _lapack()

    class Library:
        """A library with every symbol that ``_openblas`` looks up but
        cblas_zherk."""

        def __init__(self, path):
            self.path = path

        def __getattr__(self, name):
            if "cblas_zherk" in name:
                raise AttributeError(name)
            call = types.SimpleNamespace(__name__=name)
            setattr(self, name, call)
            return call

    monkeypatch.setattr(ctypes, "CDLL", Library)
    blas = linalg._openblas.__wrapped__()
    get, put = blas.threads
    assert get.__name__.endswith("openblas_get_num_threads64_")
    assert (get.restype, put.argtypes) == (ctypes.c_int, (ctypes.c_int,))
    assert blas[1:] == (None,) * 4
    monkeypatch.setattr(linalg, "_openblas", lambda: blas)
    assert linalg._blas_threads() == (get, put) and linalg._lapack() is None


@pytest.mark.parametrize("info", [1, -4])
def test_a_nonzero_zpotri_info_raises(monkeypatch, info):
    blas = _lapack()._replace(zpotri=lambda *args: info)
    monkeypatch.setattr(linalg, "_openblas", lambda: blas)
    with pytest.raises(np.linalg.LinAlgError, match=f"info {info}"):
        invert_pd(random_pd_matrix(np.random.default_rng(23), 4))


_FIRST_INVERSE = """
import json, sys
import numpy as np
from ndspec import invert_pd, linalg

get, put = linalg._blas_threads()
put(2)
real, seen = linalg._openblas(), []

def zpotri(*args):
    seen.append(get())
    return real.zpotri(*args)

blas = real._replace(zpotri=zpotri)
linalg._openblas = lambda: blas
h = np.array([[2.0, 1.0], [1.0, 2.0]])
np.testing.assert_allclose(invert_pd(h), np.linalg.inv(h), rtol=1e-14)
print(json.dumps([seen, get(), "scipy.linalg" in sys.modules]))
"""


class TestOneBlasThread:
    @staticmethod
    def fake(count):
        """A pin whose thread count lives in ``count[0]``, and the counts it set."""
        calls = []

        def put(n):
            calls.append(n)
            count[0] = n

        return linalg._OneBlasThread(lambda: (lambda: count[0], put)), calls

    def test_nested_calls_set_once_and_restore_once(self):
        count = [4]
        pin, calls = self.fake(count)
        with pin:
            with pin:
                assert count[0] == 1
            assert count[0] == 1
        assert count[0] == 4 and calls == [1, 4]

    def test_restores_after_an_exception(self):
        count = [3]
        pin, _ = self.fake(count)

        @pin
        def fails():
            raise NotPositiveDefinite("x")

        with pytest.raises(NotPositiveDefinite):
            fails()
        assert count[0] == 3

    def test_overlapping_threads_restore_the_callers_count(self):
        count = [2]
        pin, _ = self.fake(count)
        inside, release = threading.Barrier(2), threading.Event()

        def hold():
            with pin:
                inside.wait()
                release.wait()

        other = threading.Thread(target=hold)
        other.start()
        with pin:
            inside.wait()
            release.set()
        other.join()
        assert count[0] == 2

    def test_many_threads_never_lose_the_callers_count(self):
        count = [3]
        pin, _ = self.fake(count)
        seen = []

        def work():
            for _ in range(200):
                with pin:
                    seen.append(count[0])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work) for _ in range(8)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert len(seen) == 8 * 200 and set(seen) == {1}
        assert count[0] == 3

    def test_without_openblas_does_nothing(self):
        pin = linalg._OneBlasThread(lambda: None)
        with pin:
            assert np.array_equal(invert_pd(np.eye(2)), np.eye(2))

    def test_estimate_pins_once(self, monkeypatch):
        # the recursion and the three stages nest inside the estimate's entry
        count = [4]
        pin, calls = self.fake(count)
        monkeypatch.setattr(linalg.one_blas_thread, "find", pin.find)
        sequential_spectrum(random_correlation(np.random.default_rng(19), (2, 3, 2)),
                            SpectralGridSpec((3, 4, 5)))
        assert calls == [1, 4]

    @staticmethod
    def openblas_get():
        """The thread-count getter of numpy's bundled OpenBLAS; skips the
        test when numpy is built with another BLAS."""
        config = getattr(np.__config__, "CONFIG", {})
        if "openblas" not in config.get("Build Dependencies", {}).get("blas", {}).get("name", ""):
            pytest.skip("numpy is not built with OpenBLAS here")
        assert linalg._blas_threads() is not None
        return linalg._blas_threads()[0]

    def test_first_inverse_of_a_process_calls_zpotri_once_on_one_thread(self):
        # the process's first inverse runs zpotri once, inside the pin, on
        # one thread; a caller's count of 2 is restored, and scipy is never
        # loaded
        self.openblas_get()
        _lapack()
        assert run_fresh(_FIRST_INVERSE) == [[1], 2, False]

    @staticmethod
    def spy(monkeypatch, names, get):
        """Route each named call of numpy's OpenBLAS through a spy, in one
        patched record of the library; returns the list it fills with
        (name, thread count) per call. Skips the test when the library
        lacks the calls."""
        real, seen = _lapack(), []

        def spy(call, name):
            return lambda *args: seen.append((name, get())) or call(*args)

        blas = real._replace(**{name: spy(getattr(real, name), name) for name in names})
        monkeypatch.setattr(linalg, "_openblas", lambda: blas)
        return seen

    def test_sweep_runs_on_one_thread(self, monkeypatch):
        get = self.openblas_get()
        before = get()
        seen = self.spy(monkeypatch, ("zpotrf", "ztrsm", "zherk", "zpotri"), get)

        class CountedBlocks(np.ndarray):
            """Stage blocks whose products record the thread count."""

            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                if ufunc is np.matmul:
                    seen.append(("fourier sum", get()))
                plain = [x.view(np.ndarray) if isinstance(x, CountedBlocks) else x
                         for x in inputs]
                return getattr(ufunc, method)(*plain, **kwargs)

        stage_field = estimator.StageField
        monkeypatch.setattr(estimator, "StageField", lambda spec, stage, blocks, *weight: (
            stage_field(spec, stage, blocks.view(CountedBlocks), *weight)))
        rng = np.random.default_rng(16)
        sequential_spectrum(random_correlation(rng, (2, 3)), SpectralGridSpec((4, 5)))
        # per recursion order that extends the predictor (gamma_1 = 3, h = 2):
        # one zpotrf of Q, a triangular solve, the Hermitian update of P and
        # a second solve; the last order's zpotrf, then one zpotri for
        # P^{-1}. Stage 1 sweeps the predictor with the known P^{-1} and
        # factors nothing, and stage 2's 1 x 1 blocks take a reciprocal; then
        # one Fourier-sum GEMM per chunk of each swept axis: stage 1's 5
        # frequencies in chunks of 2 (128 B of temporaries each, beside 80 B
        # of roots, within the recursion's 384 B), the last stage's 4 in
        # chunks of ceil(4 / 8) = 1
        order = ["zpotrf", "ztrsm", "zherk", "ztrsm"]
        assert [name for name, _ in seen] == (
            order * 2 + ["zpotrf", "zpotri"] + ["fourier sum"] * (3 + 4))
        assert {count for _, count in seen} == {1}
        assert get() == before

    def test_lag_box_transforms_run_on_one_thread(self, monkeypatch):
        get = self.openblas_get()
        contract, seen = np.tensordot, []
        monkeypatch.setattr(np, "tensordot",
                            lambda *args, **kwargs: seen.append(get()) or contract(*args, **kwargs))
        gamma, grid = (2, 3), SpectralGridSpec((4, 5))
        c = random_correlation(np.random.default_rng(18), gamma)
        put = linalg._blas_threads()[1]
        original = get()
        try:
            put(2)
            capon_spectrum(invert_pd(assemble(c).entries), DimSpec(gamma), grid)
            correlation_match(sequential_spectrum(c, grid), c)
            assert get() == 2
        finally:
            put(original)
        # one partial DFT pass per axis in each
        assert seen == [1] * 4

    def test_single_inverse_calls_zpotri_once_on_one_thread(self, monkeypatch):
        # Capon's single inverse: zpotrf, then zpotri from the same OpenBLAS,
        # each once and both inside the pin
        get = self.openblas_get()
        seen = self.spy(monkeypatch, ("zpotrf", "zpotri"), get)
        h = random_pd_matrix(np.random.default_rng(17), 6)
        put, original = linalg._blas_threads()[1], get()
        try:
            # a caller's count other than 1, so that restoring it shows
            put(2)
            np.testing.assert_allclose(invert_pd(h), np.linalg.inv(h), rtol=1e-10, atol=1e-12)
            assert get() == 2
        finally:
            put(original)
        assert seen == [("zpotrf", 1), ("zpotri", 1)]
