import importlib.util
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    random_correlation,
    random_correlation_1d,
    random_pd_matrix,
    separable_correlation,
)
from ndspec import (
    CorrelationSignal,
    DimSpec,
    SpectralComposition,
    SpectralGridSpec,
    ar_spectrum_1d,
    assemble,
    invert_pd,
    levinson_1d,
    sequential_spectrum,
    synth_correlation,
)
import ndspec
from ndspec import estimator, linalg
from ndspec.errors import DimensionMismatch, NotPositiveDefinite, SizeMismatch
from ndspec.grid import _phases, _roots
from ndspec.estimator import (
    StageField,
    _forward_predictor,
    _toeplitz_blocks,
    stage_update,
)
from ndspec.linalg import cholesky
from ndspec.oracle import cross_check, dense_column, dense_sweep, init_stage


def reference_update(field, grid):
    """Blocks of the next stage by the direct sum, point by point and
    frequency by frequency."""
    spec, x = field.spec, field.stage
    dim = spec.d - x
    count = grid.counts[dim]
    h = field.block_size
    new_h = h // spec.gamma[dim - 1] if x < spec.d else 1
    out = np.empty(field.counts + (count, h // new_h, new_h, new_h), dtype=complex)
    for point in np.ndindex(*field.counts):
        blocks = field.blocks[point]
        g0_inv = np.linalg.inv(blocks[0])
        for m in range(count):
            w = 2.0 * np.pi * m / count
            summed = sum(blocks[k] * np.exp(1j * k * w) for k in range(len(blocks)))
            full = summed @ g0_inv @ summed.conj().T
            for k in range(h // new_h):
                out[point + (m, k)] = full[k * new_h:(k + 1) * new_h, :new_h]
    return out


def whole_axis_update(field, grid):
    """Blocks of the next stage from one inverse FFT over the whole new
    axis: Fourier sums at every frequency held at once."""
    spec, x = field.spec, field.stage
    dim = spec.d - x
    count = grid.counts[dim]
    h = field.block_size
    new_h = h // spec.gamma[dim - 1] if x < spec.d else 1
    g0_inv = np.linalg.inv(field.blocks[..., 0, :, :])[..., None, :, :]
    summed = np.fft.ifft(field.blocks, n=count, axis=-3, norm="forward")
    full = summed @ g0_inv @ summed[..., :new_h, :].conj().swapaxes(-1, -2)
    return full.reshape(field.counts + (count, h // new_h, new_h, new_h))


def first_block_column(c):
    """The recursion's first block-column x P^{-1}."""
    x, p_inv = _forward_predictor(c)
    return x @ p_inv


def update_peak(update, *args):
    """tracemalloc peak of one call of ``update``, in bytes, and its output."""
    tracemalloc.start()
    try:
        out = update(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, out


def block_sum(field, m, count):
    """M(w) = sum_k G(k) e^{j k w} at w = 2 pi m / count, at every
    processed point."""
    phases = np.exp(2j * np.pi * m * np.arange(field.n_blocks) / count)
    return np.tensordot(field.blocks, phases, axes=([-3], [0]))


class TestLevinson:
    def test_white_noise(self):
        res = levinson_1d(CorrelationSignal.from_forward_lags([1.0, 0.0, 0.0]))
        assert np.array_equal(res.p, [1.0, 0.0, 0.0])
        assert res.rho == 1.0
        assert np.array_equal(res.sigmas, [0.0, 0.0])

    def test_single_step(self):
        res = levinson_1d(CorrelationSignal.from_forward_lags([1.0, 0.5]))
        np.testing.assert_allclose(res.p, [1.0, -0.5], rtol=1e-15)
        assert res.rho == pytest.approx(0.75, rel=1e-15)
        np.testing.assert_allclose(res.sigmas, [-0.5], rtol=1e-15)

    def test_near_singular_step(self):
        res = levinson_1d(CorrelationSignal.from_forward_lags([1.0, 0.99]))
        np.testing.assert_allclose(res.sigmas, [-0.99], rtol=1e-15)
        assert res.rho == pytest.approx(0.0199, rel=1e-12)

    def test_rejects_reflection_on_unit_circle(self):
        with pytest.raises(NotPositiveDefinite) as info:
            levinson_1d(CorrelationSignal.from_forward_lags([1.0, 1.1]))
        assert info.value.pivot_index == 1

    def test_rejects_nd_input(self):
        rng = np.random.default_rng(0)
        with pytest.raises(DimensionMismatch):
            levinson_1d(random_correlation(rng, (2, 2)))

    def test_overflowing_reflection_is_refused_without_warnings(self):
        # c(1) / c(0) overflows, and |sigma| = inf is refused as any
        # |sigma| >= 1; warnings are errors in this suite
        with pytest.raises(NotPositiveDefinite) as info:
            levinson_1d(CorrelationSignal.from_forward_lags([5e-324, 1.0]))
        assert (info.value.pivot_index, info.value.pivot_value) == (1, np.inf)

    def test_solves_the_normal_equations(self):
        # R p = rho e_0 with p normalized to p[0] = 1
        rng = np.random.default_rng(1)
        for _ in range(10):
            c = random_correlation_1d(rng, 6)
            res = levinson_1d(c)
            r = assemble(c).entries
            lhs = r @ (res.p / res.rho)
            expected = np.zeros(6, dtype=complex)
            expected[0] = 1.0
            np.testing.assert_allclose(lhs, expected, atol=1e-10)
            assert abs(res.p[0] - 1.0) == 0.0
            assert np.all(np.abs(res.sigmas) < 1.0)
            assert res.rho == pytest.approx(
                c.zero_lag * np.prod(1.0 - np.abs(res.sigmas) ** 2), rel=1e-12
            )


class TestArSpectrum1d:
    def test_white_is_flat(self):
        res = levinson_1d(CorrelationSignal.from_forward_lags([0.3, 0.0]))
        s = ar_spectrum_1d(res, SpectralGridSpec((16,)))
        np.testing.assert_allclose(s.power, 0.3, rtol=1e-14)

    def test_hand_values_at_0_and_pi(self):
        res = levinson_1d(CorrelationSignal.from_forward_lags([1.0, 0.5]))
        s = ar_spectrum_1d(res, SpectralGridSpec((2,)))
        assert s.power[0] == pytest.approx(3.0, rel=1e-12)
        assert s.power[1] == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_rejects_nd_grid(self):
        res = levinson_1d(CorrelationSignal.from_forward_lags([1.0, 0.5]))
        with pytest.raises(DimensionMismatch):
            ar_spectrum_1d(res, SpectralGridSpec((4, 4)))


class TestInitStage:
    def test_1d_reads_first_column(self):
        r_inv = np.array([[2.0, -1.0], [-1.0, 2.0]]) / 3.0
        field = init_stage(r_inv, DimSpec((2,)))
        assert field.stage == 1
        assert field.counts == ()
        assert field.blocks.shape == (2, 1, 1)
        assert field.blocks[0, 0, 0] == pytest.approx(2.0 / 3.0)
        assert field.blocks[1, 0, 0] == pytest.approx(-1.0 / 3.0)

    def test_diagonal_inverse_gives_zero_cross_blocks(self):
        c = synth_correlation(SpectralComposition(noise_var=0.25), (2, 3))
        field = dense_column(c)
        assert field.blocks.shape == (3, 2, 2)
        np.testing.assert_allclose(field.blocks[0], 4.0 * np.eye(2), rtol=1e-12)
        assert np.all(field.blocks[1] == 0.0)
        assert np.all(field.blocks[2] == 0.0)

    def test_blocks_match_brute_force_inverse(self):
        rng = np.random.default_rng(2)
        c = random_correlation(rng, (2, 2))
        oracle = np.linalg.inv(assemble(c).entries)
        field = dense_column(c)
        np.testing.assert_allclose(field.blocks[0], oracle[0:2, 0:2], atol=1e-10)
        np.testing.assert_allclose(field.blocks[1], oracle[2:4, 0:2], atol=1e-10)

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            init_stage(np.eye(3), DimSpec((2, 2)))


class TestFourierBlockSum:
    def test_zero_index_is_plain_sum(self):
        rng = np.random.default_rng(3)
        c = random_correlation(rng, (3, 2))
        field = dense_column(c)
        out = block_sum(field, 0, 8)
        np.testing.assert_allclose(out, field.blocks.sum(axis=0), rtol=1e-14)

    def test_single_block_is_constant_in_frequency(self):
        rng = np.random.default_rng(4)
        c = random_correlation(rng, (3, 1))
        field = dense_column(c)
        assert field.n_blocks == 1
        for m in range(4):
            np.testing.assert_allclose(block_sum(field, m, 4), field.blocks[0],
                                       rtol=1e-14)

    def test_1d_matches_prediction_polynomial(self):
        # first-column identity: G(k) = p_k / rho
        c = CorrelationSignal.from_forward_lags([1.0, 0.5])
        res = levinson_1d(c)
        field = dense_column(c)
        for m in range(8):
            w = 2.0 * np.pi * m / 8.0
            expected = (1.0 + res.p[1] * np.exp(1j * w)) / res.rho
            out = block_sum(field, m, 8)
            assert out[0, 0] == pytest.approx(expected, rel=1e-12)


# Orders and grids of the sweep checks: after the first three, 5 blocks
# folded onto 4 and onto 3 frequencies, one-point axes, and chunks with a
# shorter last chunk
SWEEP_CASES = (((3, 2), (4, 5)), ((2, 3, 2), (3, 4, 5)), ((3, 3, 3), (4, 4, 4)),
               ((2, 5), (3, 4)), ((5, 2), (3, 4)), ((3, 2), (1, 1)),
               ((2, 3), (17, 33)), ((2, 2, 3), (9, 1, 17)))


class TestStageUpdate:
    @pytest.mark.parametrize("count, n_blocks", [(1, 1), (1, 4), (2, 3), (5, 3), (7, 7),
                                                 (8, 10), (32, 4), (256, 16)])
    def test_phase_table_is_the_sweeps_expression(self, count, n_blocks):
        # the sweep's spectra stay bit for bit what they were before the
        # phases moved into one helper shared with Capon and matching, and
        # before the sweep formed them three rows (a chunk's) at a time
        m, lags = np.arange(count), np.arange(n_blocks)
        inline = np.exp(2j * np.pi / count * m)[np.outer(m, lags) % count]
        assert np.array_equal(_phases(count, lags), inline)
        roots = _roots(count)
        chunks = [_phases(count, lags, m[start:start + 3], roots) for start in range(0, count, 3)]
        assert np.array_equal(np.concatenate(chunks), inline)

    def test_1d_final_stage_holds_spectral_inverse(self):
        c = CorrelationSignal.from_forward_lags([1.0, 0.5])
        res = levinson_1d(c)
        grid = SpectralGridSpec((8,))
        field = stage_update(dense_column(c), grid)
        assert field.stage == 2
        assert field.counts == (8,)
        assert field.blocks.shape == (8, 1, 1, 1)
        w = grid.angular(0)
        poly = 1.0 + res.p[1] * np.exp(1j * w)
        np.testing.assert_allclose(field.blocks[:, 0, 0, 0].real,
                                   np.abs(poly) ** 2 / res.rho, rtol=1e-12)

    def test_white_noise_blocks_stay_diagonal(self):
        var = 0.25
        c = synth_correlation(SpectralComposition(noise_var=var), (2, 2, 2))
        grid = SpectralGridSpec((4, 4, 4))
        field = dense_column(c)
        for expected_h in (2, 1):
            field = stage_update(field, grid)
            h = field.block_size
            assert h == expected_h
            for point in np.ndindex(*field.counts):
                np.testing.assert_allclose(field.blocks[point + (0,)],
                                           np.eye(h) / var, rtol=1e-11)
                if field.n_blocks > 1:
                    assert np.max(np.abs(field.blocks[point + (1,)])) < 1e-12

    def test_separable_stage_is_scaled_inverse_block(self):
        # c(t0, t1) = c0(t0) c1(t1): after one stage the field is the
        # 1D spectral inverse of c1 times the inverse matrix of c0
        rng = np.random.default_rng(5)
        c0 = random_correlation_1d(rng, 2)
        c1 = random_correlation_1d(rng, 2)
        c = separable_correlation([c0, c1])
        grid = SpectralGridSpec((8, 8))
        field = stage_update(dense_column(c), grid)
        res1 = levinson_1d(c1)
        inv0 = np.linalg.inv(assemble(c0).entries)
        w = grid.angular(1)
        poly = 1.0 + res1.p[1] * np.exp(1j * w)
        spectral_inverse = np.abs(poly) ** 2 / res1.rho
        for m in range(8):
            reconstructed = np.stack(
                [field.blocks[m, 0, 0, 0], field.blocks[m, 1, 0, 0]]
            )
            np.testing.assert_allclose(
                reconstructed, spectral_inverse[m] * inv0[:, 0], atol=1e-10
            )

    def test_raw_congruence_is_hermitian_before_symmetrization(self):
        rng = np.random.default_rng(6)
        c = random_correlation(rng, (2, 3))
        field = dense_column(c)
        g0_inv = invert_pd(field.blocks[0])
        for m in range(6):
            summed = block_sum(field, m, 6)
            raw = summed @ g0_inv @ summed.conj().T
            asymmetry = np.max(np.abs(raw - raw.conj().T))
            assert asymmetry <= 1e-12 * np.max(np.abs(raw))

    def test_final_scalar_is_real_before_symmetrization(self):
        rng = np.random.default_rng(7)
        c = random_correlation_1d(rng, 4)
        field = dense_column(c)
        g0_inv = invert_pd(field.blocks[0])
        for m in range(8):
            summed = block_sum(field, m, 8)
            raw = (summed @ g0_inv @ summed.conj().T)[0, 0]
            assert abs(raw.imag) <= 1e-10 * abs(raw.real)

    def test_matches_direct_sum_reference(self):
        rng = np.random.default_rng(12)
        for gamma, counts in SWEEP_CASES:
            c = random_correlation(rng, gamma)
            grid = SpectralGridSpec(counts)
            field = dense_column(c)
            for _ in gamma:
                expected = reference_update(field, grid)
                field = stage_update(field, grid)
                assert field.blocks.shape == expected.shape
                err = np.max(np.abs(field.blocks - expected))
                assert err <= 1e-12 * np.max(np.abs(expected)), (gamma, field.stage)

    def test_last_stage_allocates_at_most_1_5x_its_input_and_output(self):
        # a cube-shaped last stage: 1 x 1 blocks, 4 per point on a 32 x 32
        # processed grid, swept onto 32 frequencies
        rng = np.random.default_rng(18)
        blocks = 0.1 * (rng.standard_normal((32, 32, 4, 1, 1))
                        + 1j * rng.standard_normal((32, 32, 4, 1, 1)))
        blocks[:, :, 0] = 1.0
        field = StageField(DimSpec((4, 4, 4)), 3, blocks)
        grid = SpectralGridSpec((32, 32, 32))
        stage_update(field, grid)
        peak, out = update_peak(stage_update, field, grid)
        bound = 1.5 * (blocks.nbytes + out.blocks.nbytes)
        assert peak <= bound, (peak, bound)
        # the same stage from one FFT over the whole axis does not fit
        whole_peak, whole = update_peak(whole_axis_update, field, grid)
        np.testing.assert_allclose(whole, out.blocks, rtol=1e-12)
        assert whole_peak > bound, (whole_peak, bound)

    @pytest.mark.parametrize("gamma, counts", [((4, 4, 4), (32, 32, 32)),
                                               ((10, 10, 10), (8, 8, 8))])
    def test_benchmark_shapes_sweep_every_earlier_stage_in_one_chunk(self, gamma, counts):
        # cube and wide: the budget covers each earlier stage's whole axis,
        # and the last stage keeps chunks of ceil(C / 8)
        spec, grid, d = DimSpec(gamma), SpectralGridSpec(counts), len(gamma)
        for x in range(1, d + 1):
            dim = d - x
            h, new_h = math.prod(gamma[:dim]), math.prod(gamma[:max(dim - 1, 0)])
            blocks = np.empty(counts[:dim:-1] + (gamma[dim], h, h), dtype=complex)
            chunk = estimator._chunk(StageField(spec, x, blocks), grid, new_h)
            if x < d:
                assert chunk >= counts[dim], (x, chunk)
            else:
                assert chunk == -(-counts[0] // 8)

    def test_mid_sweep_failure_names_stage_and_point(self):
        # gamma = (2, 2) at stage 2: 1 x 1 zero blocks 1, -1, -2, 1 on a
        # 4-point processed axis; the first failing point in C order is (1,)
        blocks = np.zeros((4, 2, 1, 1), dtype=complex)
        blocks[:, 0, 0, 0] = [1.0, -1.0, -2.0, 1.0]
        field = StageField(DimSpec((2, 2)), 2, blocks)
        with pytest.raises(NotPositiveDefinite) as info:
            stage_update(field, SpectralGridSpec((4, 4)))
        assert info.value.stage == 2
        assert info.value.frequency == (1,)
        assert info.value.pivot_index == 0
        assert info.value.pivot_value == -1.0

    @pytest.mark.parametrize("bad", [0.0, -2.0, -0.0, np.nan, 1j, 0.5 - 1e-300j])
    def test_last_stage_refusal_matches_the_factorization(self, bad):
        # the 1 x 1 zero blocks' reciprocal takes only positive finite real
        # parts; any other block is refused by the factorization, as before,
        # and an imaginary part is ignored as the factorization ignores it
        blocks = np.zeros((4, 2, 1, 1), dtype=complex)
        blocks[:, 0, 0, 0] = [1.0, 2.0, bad, 1.0]
        blocks[:, 1, 0, 0] = 0.1
        field = StageField(DimSpec((2, 2)), 2, blocks)
        value = complex(bad).real
        if value > 0:
            out = stage_update(field, SpectralGridSpec((4, 4))).blocks[2, :, 0, 0, 0]
            w = 2.0 * np.pi * np.arange(4) / 4
            expected = np.abs(bad + 0.1 * np.exp(1j * w)) ** 2 / value
            np.testing.assert_allclose(out.real, expected, rtol=1e-12)
            return
        with pytest.raises(NotPositiveDefinite) as info:
            stage_update(field, SpectralGridSpec((4, 4)))
        assert (info.value.stage, info.value.frequency, info.value.pivot_index) == (2, (2,), 0)
        assert np.array_equal(info.value.pivot_value, value, equal_nan=True)
        assert np.signbit(info.value.pivot_value) == np.signbit(value)

    def test_rejects_update_after_completion(self):
        c = CorrelationSignal.from_forward_lags([1.0, 0.5])
        grid = SpectralGridSpec((4,))
        field = stage_update(dense_column(c), grid)
        with pytest.raises(ValueError):
            stage_update(field, grid)


class TestFirstBlockColumn:
    @pytest.mark.parametrize("gamma", [(5,), (3, 2), (2, 3, 2), (3, 3, 3), (4, 1), (1, 4)])
    def test_matches_dense_first_block_column(self, gamma):
        rng = np.random.default_rng(sum(gamma) * len(gamma))
        for _ in range(3):
            c = random_correlation(rng, gamma)
            dense = dense_column(c).blocks
            blocks = first_block_column(c)
            assert blocks.shape == dense.shape
            assert np.max(np.abs(blocks - dense)) <= 1e-11 * np.max(np.abs(dense))

    def test_1d_is_the_prediction_polynomial_over_its_error_power(self):
        rng = np.random.default_rng(13)
        for order in (1, 2, 4, 8, 16):
            c = random_correlation_1d(rng, order)
            res = levinson_1d(c)
            column = first_block_column(c)[:, 0, 0]
            expected = res.p / res.rho
            assert np.max(np.abs(column - expected)) <= 1e-13 * np.max(np.abs(expected))

    @pytest.mark.parametrize("gamma", [(3,), (3, 2), (2, 3, 2), (3, 3, 3)])
    def test_blocks_are_persymmetric(self, gamma):
        # J T(k) J = T(k)^T, with J the reversal of the inner flat index
        c = random_correlation(np.random.default_rng(14), gamma)
        t = _toeplitz_blocks(c)
        entries = assemble(c).entries
        h = t.shape[-1]
        assert np.array_equal(t, np.stack([entries[k * h:(k + 1) * h, :h]
                                           for k in range(gamma[-1])]))
        assert np.array_equal(t[:, ::-1, ::-1], t.swapaxes(-1, -2))

    def test_builds_no_q_by_q_array(self):
        c = random_correlation(np.random.default_rng(15), (10, 10, 10))
        grid = SpectralGridSpec((2, 2, 2))
        sequential_spectrum(c, grid)
        tracemalloc.start()
        try:
            sequential_spectrum(c, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 1000 ** 2

    def test_holds_at_most_four_block_columns(self):
        # the predictor x and the lag row, each about gamma h^2 complex
        # values, plus h x h temporaries and one block pair's products
        c = random_correlation(np.random.default_rng(15), (10, 10, 10))
        _forward_predictor(c)
        peak, (x, _) = update_peak(_forward_predictor, c)
        assert peak <= 3 * x.nbytes, peak / x.nbytes

    @pytest.mark.parametrize("inner", [(), (2, 3), (8, 8)])
    @pytest.mark.parametrize("g", [1, 2, 3, 4, 5, 6])
    def test_every_order_matches_the_dense_column(self, inner, g):
        # h = 1 (scalar Levinson), 6 (every pair in one product) and 64
        # (one pair per product); odd and even n + 1 update a self-paired
        # middle block or none
        gamma = inner + (g,)
        h = math.prod(inner)
        assert (estimator._PAIR_BYTES // (2 * 16 * h * h) <= 1) == (h >= 64)
        c = random_correlation(np.random.default_rng(100 + g), gamma)
        dense = dense_column(c).blocks
        err = np.max(np.abs(first_block_column(c) - dense)) / np.max(np.abs(dense))
        assert err <= 1e-12 * np.linalg.cond(assemble(c).entries), err

    @pytest.mark.parametrize("pairs_per_step", [1, 2, 3, 64])
    def test_pair_grouping_does_not_change_the_predictor(self, pairs_per_step, monkeypatch):
        # orders up to 7, so up to four pairs, taken in groups of every size
        c = random_correlation(np.random.default_rng(23), (2, 2, 9))
        x, p_inv = _forward_predictor(c)
        monkeypatch.setattr(estimator, "_PAIR_BYTES", pairs_per_step * 2 * 16 * 4 * 4)
        grouped, grouped_p_inv = _forward_predictor(c)
        assert np.max(np.abs(grouped - x)) <= 1e-13 * np.max(np.abs(x))
        assert np.max(np.abs(grouped_p_inv - p_inv)) <= 1e-13 * np.max(np.abs(p_inv))


class TestWithoutOpenBlas:
    """Where numpy bundles no OpenBLAS, the recursion factors each order by
    numpy's Cholesky, solves with it by numpy's solves and takes P^{-1}
    from the triangular inverse: the same predictor, the same P^{-1} and
    the same refusals as zpotrf, the triangular solves and zpotri."""

    @staticmethod
    def both(c, monkeypatch, run=lambda call: call()):
        """``run`` of _forward_predictor(c) on numpy's OpenBLAS, then
        without it."""
        if linalg._openblas() is None:
            pytest.skip("numpy does not bundle OpenBLAS here")
        blas = run(lambda: _forward_predictor(c))
        with monkeypatch.context() as patched:
            patched.setattr(linalg, "_openblas", lambda: None)
            return blas, run(lambda: _forward_predictor(c))

    @staticmethod
    def error(a, b):
        return np.max(np.abs(a - b)) / np.max(np.abs(a))

    @pytest.mark.parametrize("gamma", [(3, 4), (2, 3, 2)])
    def test_same_predictor_and_error_inverse(self, gamma, monkeypatch):
        c = random_correlation(np.random.default_rng(31), gamma)
        (x, p_inv), (fallback_x, fallback_p_inv) = self.both(c, monkeypatch)
        assert self.error(x, fallback_x) <= 1e-12
        assert self.error(p_inv, fallback_p_inv) <= 1e-12
        assert np.array_equal(p_inv, p_inv.conj().T)

    def test_near_singular_corpus_input(self, monkeypatch):
        # band 1 input 344, condition 2.1e12: the two paths round apart by
        # up to about 1e-14 of the condition number over the corpus's 691
        # inputs that both accept (2.6e-2 here), so a fixed 1e-12 holds only
        # on well-conditioned inputs
        gamma, c = _near_singular().corpus_input(ndspec, 1, 344)
        unit = c._unit_scaled()[1]
        bound = 1e-12 * np.linalg.cond(assemble(unit).entries)
        (x, p_inv), (fallback_x, fallback_p_inv) = self.both(unit, monkeypatch)
        assert gamma == (3, 4)
        assert self.error(x, fallback_x) <= bound
        assert self.error(p_inv, fallback_p_inv) <= bound

    @pytest.mark.parametrize("index, gamma", [(16, (3, 4)), (115, (2, 2, 3))])
    def test_refused_corpus_input(self, index, gamma, monkeypatch):
        # band 1: pivot 1.2e-12 against a floor of 5.0e-12, and 9.5e-13
        # against 7.7e-12
        corpus_gamma, c = _near_singular().corpus_input(ndspec, 1, index)
        unit = c._unit_scaled()[1]
        blas, fallback = self.both(unit, monkeypatch, _pivot_refused)
        assert corpus_gamma == gamma
        assert blas.stage == fallback.stage == 1
        assert blas.pivot_index == fallback.pivot_index


class TestInvertLower:
    @pytest.mark.parametrize("n", [1, 31, 32, 33, 100, 129])
    def test_matches_the_dense_inverse(self, n):
        lower = cholesky(random_pd_matrix(np.random.default_rng(n), n))
        inv = linalg._invert_lower(lower)
        expected = np.linalg.inv(lower)
        assert inv.shape == (n, n) and not np.any(np.triu(inv, 1))
        assert np.max(np.abs(inv - expected)) <= 1e-12 * np.max(np.abs(expected))
        assert np.max(np.abs(inv @ lower - np.eye(n))) <= 1e-12

    def test_badly_scaled_diagonal(self):
        # L = D U with diag(D) from 1e-8 to 1e8 and U unit lower triangular:
        # column j of L^{-1} = U^{-1} D^{-1} scales as 1 / D_j
        rng = np.random.default_rng(21)
        n = 100
        unit = np.eye(n) + 0.1 * np.tril(rng.standard_normal((n, n))
                                         + 1j * rng.standard_normal((n, n)), -1) / np.sqrt(n)
        lower = np.logspace(-8, 8, n)[:, None] * unit
        inv = linalg._invert_lower(lower)
        expected = np.linalg.inv(lower)
        column_scale = np.max(np.abs(expected), axis=0)
        assert np.max(np.abs(inv - expected) / column_scale) <= 1e-12

    @pytest.mark.parametrize("gamma", [(6, 6, 4), (8, 8, 3), (10, 10, 2)])
    def test_recursion_on_near_singular_lines_with_blocks_over_a_leaf(self, gamma, monkeypatch):
        # h = 36, 64 and 100 rows, condition numbers 8e6 to 5e11: the
        # triangular solves, and where numpy bundles no OpenBLAS numpy's
        # solves and the last factor inverted by the block recursion
        h = int(np.prod(gamma[:-1]))
        assert h > linalg._TRIANGULAR_LEAF
        for n_lines, noise in ((h // 2, 1e-8), (2 * h, 1e-9)):
            c = _lines(gamma, n_lines, noise, 3)
            dense = dense_column(c).blocks
            bound = 1e-12 * np.linalg.cond(assemble(c).entries)
            for lookup in (linalg._openblas, lambda: None):
                with monkeypatch.context() as patched:
                    patched.setattr(linalg, "_openblas", lookup)
                    err = np.max(np.abs(first_block_column(c) - dense)) / np.max(np.abs(dense))
                assert err <= bound, (n_lines, noise, lookup(), err)


def _lines(gamma, n_lines, noise, seed):
    """n_lines unit spectral lines in white noise: R has rank n_lines plus
    noise, so its Cholesky pivot n_lines is about the noise variance."""
    rng = np.random.default_rng(seed)
    peaks = tuple((tuple(rng.random(len(gamma))), 1.0) for _ in range(n_lines))
    return synth_correlation(SpectralComposition(peaks=peaks, noise_var=noise), gamma)


def _boosted(gamma, factor, seed):
    """A positive definite signal with its lags at slowest-axis offset +-2
    scaled by ``factor``: block-rows 0 and 1 of R are unchanged."""
    c = random_correlation(np.random.default_rng(seed), gamma)
    lags = c.lags.copy()
    g = gamma[-1]
    lags[..., [g - 3, g + 1]] *= factor
    return CorrelationSignal(gamma, lags)


def _pivot_refused(call):
    try:
        call()
    except NotPositiveDefinite as exc:
        return exc
    return None


class TestRefusalParity:
    """The recursion refuses exactly where the dense Cholesky of the
    assembled matrix does, at the same pivot. Every pivot here is kept
    well away from the floor: within rounding of it, the two
    factorizations may fall on different sides."""

    GAMMAS = [(4,), (2, 3), (2, 2, 3)]

    def check(self, c, expected_pivot):
        dense = _pivot_refused(lambda: cholesky(assemble(c).entries))
        sequential = _pivot_refused(
            lambda: sequential_spectrum(c, SpectralGridSpec((4,) * c.d)))
        if expected_pivot is None:
            assert dense is None and sequential is None
            return dense
        assert dense.pivot_index == expected_pivot
        assert sequential.pivot_index == expected_pivot
        assert sequential.stage == 1 and sequential.frequency == ()
        return sequential

    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_non_positive_definite_at_order_2(self, gamma):
        h = int(np.prod(gamma[:-1]))
        for factor in (3.0, 10.0):
            exc = self.check(_boosted(gamma, factor, 3), 2 * h)
            assert exc.pivot_value < 0

    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_singular_inside_block_row_2(self, gamma):
        h = int(np.prod(gamma[:-1]))
        self.check(_lines(gamma, 2 * h + 1, 1e-14, 4), 2 * h + 1)
        self.check(_lines(gamma, 2 * h, 0.0, 3), 2 * h)

    @pytest.mark.parametrize("gamma", [(2, 2), (2, 3)])
    def test_names_the_dense_pivot_inside_a_block_row(self, gamma):
        # three lines on the diagonal f_0 = f_1: x(0, 1) = x(1, 0), so the
        # backward error Q of block-row 1 fails at k = 0, while its
        # persymmetric twin P = J conj(Q) J would fail at k = 1
        peaks = tuple(((f, f), 1.0) for f in (0.1, 0.35, 0.7))
        self.check(synth_correlation(SpectralComposition(peaks=peaks, noise_var=1e-14),
                                     gamma), 2)

    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_pivot_between_own_and_dense_floor_is_refused(self, gamma):
        # the block-row-2 Schur complement is all noise, about 1e-14: its
        # pivots pass 1e-12 times its own scale but not 1e-12 c(0)
        h = int(np.prod(gamma[:-1]))
        c = _lines(gamma, 2 * h, 1e-14, 3)
        r = assemble(c).entries
        n = 2 * h
        schur = r[n:n + h, n:n + h] - r[n:n + h, :n] @ np.linalg.solve(r[:n, :n], r[:n, n:n + h])
        exc = self.check(c, 2 * h)
        assert 1e-12 * np.max(schur.diagonal().real) < exc.pivot_value < 1e-12 * c.zero_lag
        np.linalg.cholesky(r)

    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_near_singular_is_accepted_by_both(self, gamma):
        h = int(np.prod(gamma[:-1]))
        self.check(_lines(gamma, 2 * h, 1e-9, 3), None)

    @pytest.mark.parametrize("gamma", [(2, 3), (3, 3), (2, 2, 3)])
    def test_lines_on_a_frequency_lattice_are_accepted_by_both(self, gamma):
        # two frequencies per axis make T(0) and every Q near-singular: an
        # explicit Q^{-1} in the Schur update refuses most of these seeds
        for seed in range(6):
            rng = np.random.default_rng(seed)
            axes = [rng.random(2) for _ in gamma]
            peaks = tuple((tuple(float(rng.choice(f)) for f in axes), 1.0) for _ in range(6))
            self.check(synth_correlation(SpectralComposition(peaks=peaks, noise_var=1e-10),
                                         gamma), None)


class TestSequentialSpectrum:
    def test_1d_equals_levinson_oracle(self):
        rng = np.random.default_rng(8)
        grid = SpectralGridSpec((64,))
        for order in (2, 4, 8):
            c = random_correlation_1d(rng, order)
            oracle = ar_spectrum_1d(levinson_1d(c), grid)
            estimate = sequential_spectrum(c, grid)
            rel = np.max(np.abs(estimate.power - oracle.power) / oracle.power)
            assert rel < 1e-10

    @pytest.mark.parametrize("order, count", [(1, 3), (3, 64), (16, 5), (16, 100)])
    def test_1d_from_the_predictor_equals_levinson_oracle(self, order, count):
        # stage 1 is the last: the predictor's Fourier sums through P^{-1},
        # folded onto a short axis or taken in chunks of ceil(C / 8)
        c = random_correlation_1d(np.random.default_rng(order * count), order)
        grid = SpectralGridSpec((count,))
        oracle = ar_spectrum_1d(levinson_1d(c), grid).power
        power = sequential_spectrum(c, grid).power
        assert np.max(np.abs(power - oracle) / oracle) < 1e-10

    def test_stage_1_from_the_predictor_matches_the_dense_sweep(self):
        # M_x P^{-1} M_x,top^H against the dense inverse's column swept with
        # its zero block inverted at stage 1
        rng = np.random.default_rng(12)
        for gamma, counts in SWEEP_CASES:
            c = random_correlation(rng, gamma)
            grid = SpectralGridSpec(counts)
            dense = dense_sweep(c, grid)
            power = sequential_spectrum(c, grid).power
            regular = dense < 1e9 * np.median(dense)
            rel = np.abs(power - dense)[regular] / dense[regular]
            assert np.max(rel) <= 1e-10, (gamma, np.max(rel))

    def test_white_noise_is_flat(self):
        c = synth_correlation(SpectralComposition(noise_var=0.1), (2, 2))
        s = sequential_spectrum(c, SpectralGridSpec((5, 5)))
        np.testing.assert_allclose(s.power, 0.1, rtol=1e-12)

    def test_2d_separable_is_a_product(self):
        rng = np.random.default_rng(9)
        grid1 = SpectralGridSpec((8,))
        c0 = random_correlation_1d(rng, 2)
        c1 = random_correlation_1d(rng, 2)
        s0 = ar_spectrum_1d(levinson_1d(c0), grid1)
        s1 = ar_spectrum_1d(levinson_1d(c1), grid1)
        joint = sequential_spectrum(separable_correlation([c0, c1]),
                                    SpectralGridSpec((8, 8)))
        expected = np.outer(s0.power, s1.power)
        assert np.max(np.abs(joint.power - expected) / expected) < 1e-8

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(10)
        c = random_correlation(rng, (2, 3))
        grid = SpectralGridSpec((6, 6))
        base = sequential_spectrum(c, grid)
        for alpha in (0.1, 7.0):
            scaled = sequential_spectrum(c.scaled(alpha), grid)
            rel = np.max(np.abs(scaled.power - alpha * base.power)
                         / (alpha * base.power))
            assert rel < 1e-12

    def test_powers_of_four_scale_the_spectrum_exactly(self):
        c = random_correlation(np.random.default_rng(12), (2, 3, 2))
        grid = SpectralGridSpec((4, 5, 3))
        base = sequential_spectrum(c, grid).power
        for factor in (4.0**100, 4.0**-100):
            scaled = sequential_spectrum(CorrelationSignal(c.gamma, c.lags * factor), grid)
            assert np.array_equal(scaled.power, base * factor)

    @pytest.mark.parametrize("forward", [[5e-324], [1e-310, 5e-311], [1e300, 5e299]])
    def test_extreme_scales_give_the_ar_spectrum(self, forward):
        # c(0) at the ends of the double range: the recursion's inverse once
        # overflowed below about 1e-308; warnings are errors in this suite
        grid = SpectralGridSpec((8,))
        s = sequential_spectrum(CorrelationSignal.from_forward_lags(forward), grid)
        c0 = forward[0]
        sigma = -forward[1] / c0 if len(forward) > 1 else 0.0
        w = grid.angular(0)
        expected = c0 * (1 - sigma**2) / np.abs(1 + sigma * np.exp(1j * w)) ** 2
        np.testing.assert_allclose(s.power, expected, rtol=1e-12)

    @pytest.mark.parametrize("factor", [1.0, 4.0**200, 4.0**-200])
    def test_refusals_report_the_signal_units(self, factor):
        c = CorrelationSignal.from_forward_lags(np.array([3.0, 2.9, 2.5, 1.0]) * factor)
        with pytest.raises(NotPositiveDefinite) as info:
            sequential_spectrum(c, SpectralGridSpec((4,)))
        dense = _pivot_refused(lambda: invert_pd(assemble(c).entries))
        assert info.value.pivot_index == dense.pivot_index == 2
        assert info.value.pivot_value == pytest.approx(dense.pivot_value, rel=1e-12)
        assert info.value.pivot_value == pytest.approx(-0.2711864406779711 * factor, rel=1e-12)
        assert info.value.floor == 1e-12 * c.zero_lag
        assert str(info.value).startswith(
            f"pivot 2 is {info.value.pivot_value:.6g} (floor {info.value.floor:.6g}) [stage 1")

    @pytest.mark.parametrize("forward", [[1e-200, 1e120], [1e-220, 1e100, 5e99],
                                         [3e-300, 1e20]])
    def test_a_floor_below_the_unit_scale_is_reported_in_the_signal_units(self, forward):
        # c(0) about 1e-320 of the largest lag: 1e-12 c(0) underflows to 0
        # at unit scale, yet is representable in the signal's units, where
        # the dense Cholesky of the unscaled matrix reads it
        c = CorrelationSignal.from_forward_lags(forward)
        _, unit = c._unit_scaled()
        assert 1e-12 * unit.zero_lag == 0.0 < 1e-12 * c.zero_lag
        with pytest.raises(NotPositiveDefinite) as info:
            sequential_spectrum(c, SpectralGridSpec((4,)))
        dense = _pivot_refused(lambda: invert_pd(assemble(c).entries))
        got = info.value
        assert (got.pivot_index, got.pivot_value, got.floor) == (
            dense.pivot_index, dense.pivot_value, dense.floor) == (1, -np.inf, 1e-12 * forward[0])
        assert str(got) == (f"pivot 1 is -inf (floor {1e-12 * forward[0]:.6g}) "
                            "[stage 1, initial point]")

    @pytest.mark.parametrize("check", [cross_check,
                                       lambda c: dense_sweep(c, SpectralGridSpec((4,)))],
                             ids=["cross_check", "dense_sweep"])
    def test_the_oracles_report_a_floor_below_the_unit_scale_in_the_signal_units(self, check):
        # the dense oracles run on the same unit-scale lags; the CLI's Capon
        # branch is checked in tests/test_cli.py
        with pytest.raises(NotPositiveDefinite) as info:
            check(CorrelationSignal.from_forward_lags([1e-200, 1e120]))
        assert str(info.value) == "pivot 1 is -inf (floor 1e-212) [stage 1, initial point]"

    @pytest.mark.parametrize("forward, floor", [([5e-324, 1.0], "0"),
                                                ([1e-310, 1.0, 0.5], "9.88131e-323")])
    def test_overflowing_recursion_is_refused_without_warnings(self, forward, floor):
        # c(0) far below c(1): the first factor's inverse overflows the next
        # Schur complement, which the recursion refuses as the dense path
        # does; warnings are errors in this suite
        c = CorrelationSignal.from_forward_lags(forward)
        with pytest.raises(NotPositiveDefinite) as info:
            sequential_spectrum(c, SpectralGridSpec((8,)))
        dense = _pivot_refused(lambda: invert_pd(assemble(c).entries))
        got = info.value
        assert (got.pivot_index, got.pivot_value, got.floor) == (
            dense.pivot_index, dense.pivot_value, dense.floor) == (1, -np.inf, dense.floor)
        assert str(got) == f"pivot 1 is -inf (floor {floor}) [stage 1, initial point]"

    def test_stage_refusals_report_the_inverse_units(self, monkeypatch):
        # a stage refuses in the units of the inverse, so its pivot value
        # moves against the signal's scale
        def refuse(field, grid):
            value = float(field.blocks[(0,) * field.blocks.ndim].real)
            raise NotPositiveDefinite(pivot_index=0, pivot_value=-value,
                                      floor=1e-12 * value).tagged(2, (1,))

        monkeypatch.setattr(estimator, "stage_update", refuse)
        c = random_correlation(np.random.default_rng(13), (2, 2))
        errors = []
        for factor in (1.0, 4.0**-150):
            scaled = CorrelationSignal(c.gamma, c.lags * factor)
            with pytest.raises(NotPositiveDefinite) as info:
                sequential_spectrum(scaled, SpectralGridSpec((3, 3)))
            errors.append(info.value)
        assert errors[1].pivot_value == errors[0].pivot_value * 4.0**150
        assert errors[1].floor == errors[0].floor * 4.0**150
        assert (errors[1].stage, errors[1].frequency) == (2, (1,))
        assert str(errors[1]) == (f"pivot 0 is {errors[1].pivot_value:.6g} "
                                  f"(floor {errors[1].floor:.6g}) [stage 2, grid indices (1,)]")

    def test_grid_dimension_mismatch(self):
        c = CorrelationSignal.from_forward_lags([1.0, 0.5])
        with pytest.raises(DimensionMismatch):
            sequential_spectrum(c, SpectralGridSpec((4, 4)))

    def test_grid_bound_estimate_allocates_at_most_20_bytes_per_cell(self):
        # the power, 8 bytes a cell, is written once, in grid order, by the
        # last stage; its input, block-major copy and chunk temporaries add
        # about 9 more
        c = random_correlation(np.random.default_rng(19), (4, 4, 4))
        grid = SpectralGridSpec((32, 32, 32))
        sequential_spectrum(c, grid)
        peak, s = update_peak(sequential_spectrum, c, grid)
        assert peak <= 20 * grid.size, peak / grid.size
        assert s.power.flags.c_contiguous

    def test_a_long_axis_before_the_last_stays_within_the_budget(self):
        # gamma = (10, 10) on an (8, 4096) grid: stage 1 sweeps 4096
        # frequencies, whose temporaries in chunks of ceil(C / 8) would
        # exceed the last stage's
        c = random_correlation(np.random.default_rng(22), (10, 10))
        grid = SpectralGridSpec((8, 4096))
        points, g, h = 4096, 10, 10
        # the larger of the last stage's working set (8 B per cell of power,
        # and a ceil(8 / 8)-frequency chunk of complex Fourier sums and their
        # conjugates at every point) and the recursion's 2 gamma h^2 values
        budget = max(8 * grid.size + 2 * 16 * points, 2 * 16 * g * h * h)
        x, p_inv = _forward_predictor(c)
        field = StageField(DimSpec((g, g)), 1, x, p_inv)
        stage_update(field, grid)
        peak, out = update_peak(stage_update, field, grid)
        # besides its output, the stage holds the budget, its chunks' phase
        # rows and roots of unity included, give or take a few kB of array
        # objects
        held = peak - out.blocks.nbytes
        assert held <= budget + 2**12, (held, budget)
        # the documented footprint: the power, the last stage's chunk
        # temporaries, its input field and block-major copy (10 complex
        # blocks at each point), and the recursion's values; its zero blocks'
        # reciprocals, 16 B a point, are the rest
        footprint = (8 * grid.size + 2 * 16 * points + 2 * 16 * g * points
                     + 2 * 16 * g * h * h + 16 * points)
        sequential_spectrum(c, grid)
        peak, _ = update_peak(sequential_spectrum, c, grid)
        assert peak <= footprint, (peak, footprint)

    def test_not_positive_definite_is_tagged(self):
        c = CorrelationSignal.from_forward_lags([0.5, 1.0])
        with pytest.raises(NotPositiveDefinite) as info:
            sequential_spectrum(c, SpectralGridSpec((4,)))
        assert info.value.stage == 1
        assert info.value.frequency == ()

    def test_walking_cross_check_agrees(self):
        # the recursion's column against the dense inverse's, and the
        # reversed nesting's inverse walked back against the direct one
        rng = np.random.default_rng(11)
        c = random_correlation(rng, (2, 3))
        cross_check(c)

    @pytest.mark.parametrize("gamma", [(3,), (2, 3)])
    def test_cross_check_compares_the_recursion_with_the_dense_inverse(self, gamma, monkeypatch):
        c = random_correlation(np.random.default_rng(17), gamma)
        grid = SpectralGridSpec((4,) * len(gamma))
        honest = estimator._forward_predictor

        def perturbed(c):
            x, p_inv = honest(c)
            return x * (1 + 1e-6), p_inv

        monkeypatch.setattr(estimator, "_forward_predictor", perturbed)
        sequential_spectrum(c, grid)
        with pytest.raises(ArithmeticError, match="first block-column"):
            cross_check(c)


_INDEFINITE = np.array([[1.0, 2.0], [2.0, 1.0]])
_PIVOT_3_SIGNAL = np.array([[5, -5, 2], [0, 8, 0], [2, -5, 5]], dtype=complex)


def _stage_field(stage, zero_block):
    """A (2, 2) field at ``stage`` whose zero block at the first point, or
    at point (1,) of stage 2, is ``zero_block``; every other block is 1."""
    if stage == 1:
        blocks = np.zeros((2, 2, 2), dtype=complex)
        blocks[0] = zero_block
    else:
        blocks = np.ones((3, 2, 1, 1), dtype=complex)
        blocks[1, 0] = zero_block
    return StageField(DimSpec((2, 2)), stage, blocks)


def _single_refusal():
    return _pivot_refused(lambda: cholesky(_INDEFINITE))


def _raise(exc):
    raise exc


# source -> (refusing call, str, (message, pivot_index, pivot_value, floor,
# index, stage, frequency))
REFUSALS = {
    "cholesky": (lambda: cholesky(_INDEFINITE), "pivot 1 is -3 (floor 1e-12)",
                 (None, 1, -3.0, 1e-12, (), None, None)),
    "cholesky stack": (lambda: cholesky(np.stack([np.eye(2), _INDEFINITE])),
                       "pivot 1 is -3 (floor 1e-12)", (None, 1, -3.0, 1e-12, (1,), None, None)),
    "recursion": (lambda: sequential_spectrum(CorrelationSignal((2, 2), _PIVOT_3_SIGNAL),
                                              SpectralGridSpec((3, 3))),
                  "pivot 3 is -2.625 (floor 8e-12) [stage 1, initial point]",
                  (None, 3, -2.625, 8e-12, None, 1, ())),
    "stage 1": (lambda: stage_update(_stage_field(1, _INDEFINITE), SpectralGridSpec((4, 3))),
                "pivot 1 is -3 (floor 1e-12) [stage 1, initial point]",
                (None, 1, -3.0, 1e-12, None, 1, ())),
    "stage 2": (lambda: stage_update(_stage_field(2, -2.0), SpectralGridSpec((4, 3))),
                "pivot 0 is -2 (floor 0) [stage 2, grid indices (1,)]",
                (None, 0, -2.0, 0.0, None, 2, (1,))),
    "scaled up": (lambda: _raise(_single_refusal()._scaled(3)),
                  "pivot 1 is -192 (floor 6.4e-11)", (None, 1, -192.0, 6.4e-11, (), None, None)),
    "scaled down": (lambda: _raise(_single_refusal()._scaled(-3)),
                    "pivot 1 is -0.046875 (floor 1.5625e-14)",
                    (None, 1, -0.046875, 1.5625e-14, (), None, None)),
    "scaled tagged": (lambda: _raise(_single_refusal().tagged(2, (0, 1))._scaled(-1)),
                      "pivot 1 is -0.75 (floor 2.5e-13) [stage 2, grid indices (0, 1)]",
                      (None, 1, -0.75, 2.5e-13, None, 2, (0, 1))),
    "levinson zero lag": (lambda: levinson_1d(CorrelationSignal.from_forward_lags([0.0, 0.0])),
                          "zero lag is not positive",
                          ("zero lag is not positive", 0, 0.0, None, None, None, None)),
    "levinson reflection": (
        lambda: levinson_1d(CorrelationSignal.from_forward_lags([1.0, 2.0])),
        "reflection coefficient 1 has modulus 2 >= 1",
        ("reflection coefficient 1 has modulus 2 >= 1", 1, 2.0, None, None, None, None)),
}


@pytest.mark.parametrize("source", list(REFUSALS))
def test_every_refusal_source_pins_its_text_and_fields(source):
    call, text, fields = REFUSALS[source]
    with pytest.raises(NotPositiveDefinite) as info:
        call()
    exc = info.value
    got = (exc.message, exc.pivot_index, exc.pivot_value, exc.floor,
           exc.index, exc.stage, exc.frequency)
    assert str(exc) == text
    assert got[:2] + got[3:] == fields[:2] + fields[3:]
    assert got[2] == pytest.approx(fields[2], rel=1e-12)


def _near_singular():
    """The seeded near-singular corpus of scripts/near_singular.py."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "near_singular.py"
    spec = importlib.util.spec_from_file_location("near_singular", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_near_singular_input_accepted_by_both_paths(monkeypatch):
    # band 1 input 359: a 40-digit elimination of R puts pivot 26 at
    # 2.13e-11, three times its floor 7.0e-12. The recursion's triangular
    # solves accept it, as the dense Cholesky does, on numpy's OpenBLAS and
    # without it; an explicit inverse of each factor in W = L^{-1} Delta
    # refused it there with -1.09e-11. The dense sweep, which inverts its
    # stage-1 zero block in double, is not the reference on such an input,
    # so the spectra are pinned only to their measured 0.068 apart, within
    # a margin of 1.5x.
    corpus = _near_singular()
    gamma, c = corpus.corpus_input(ndspec, 1, 359)
    grid = SpectralGridSpec((corpus.GRID_COUNT,) * len(gamma))
    assert gamma == (3, 3, 3)
    dense = dense_sweep(c, grid)
    for lookup in (linalg._openblas, lambda: None):
        with monkeypatch.context() as patched:
            patched.setattr(linalg, "_openblas", lookup)
            sequential = sequential_spectrum(c, grid).power
        assert np.all(np.isfinite(sequential)) and np.all(sequential > 0)
        assert corpus.regular_difference(dense, sequential) <= 0.1


def test_near_singular_corpus_is_refused_where_the_dense_sweep_refuses():
    # the first 16 inputs of each noise band: 19 of the 48 are refused, each
    # by both paths at the same stage, grid point and pivot index; where both
    # accept, the condition of these inputs leaves 5e-3 between the spectra
    corpus = _near_singular()
    rows = corpus.compare(((ndspec, corpus.dense), (ndspec, corpus.sequential)), 16)
    refused = 0
    for label, dense, sequential in rows:
        if isinstance(dense, tuple) or isinstance(sequential, tuple):
            refused += 1
            assert isinstance(dense, tuple) and isinstance(sequential, tuple), label
            assert dense[:3] == sequential[:3], label
        else:
            assert corpus.regular_difference(dense, sequential) <= 1e-2, label
    assert (len(rows), refused) == (48, 19)


def test_near_singular_corpus_is_refused_alike_without_openblas(monkeypatch):
    # where numpy bundles no OpenBLAS the recursion factors and solves by
    # numpy, and the same 19 inputs are refused at the same pivots
    monkeypatch.setattr(linalg, "_openblas", lambda: None)
    test_near_singular_corpus_is_refused_where_the_dense_sweep_refuses()
