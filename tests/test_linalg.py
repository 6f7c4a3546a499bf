import sys
import threading

import numpy as np
import pytest

from conftest import random_correlation, random_pd_matrix
from ndspec import SpectralGridSpec, cholesky, invert_pd, linalg, sequential_spectrum
from ndspec.errors import NotPositiveDefinite, SizeMismatch


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

    def test_sweep_runs_on_one_thread(self, monkeypatch):
        config = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {})
        if "openblas" not in config.get("blas", {}).get("name", ""):
            pytest.skip("numpy is not built with OpenBLAS here")
        assert linalg._numpy_openblas_threads() is not None
        get = linalg._numpy_openblas_threads()[0]
        before, seen = get(), []
        factor, fourier_sum = np.linalg.cholesky, np.tensordot
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: seen.append(get()) or factor(a))
        monkeypatch.setattr(np, "tensordot", lambda *a, **k: seen.append(get()) or fourier_sum(*a, **k))
        rng = np.random.default_rng(16)
        sequential_spectrum(random_correlation(rng, (2, 3)), SpectralGridSpec((4, 5)))
        # one factorization per recursion order (gamma_1 = 3) and per stage
        # (d = 2), then one Fourier sum per index of each swept axis
        assert len(seen) == 3 + 2 + 5 + 4 and set(seen) == {1}
        assert get() == before
