import itertools
from fractions import Fraction

import numpy as np
import pytest

from conftest import random_correlation
from ndspec import (
    AliasingWarning,
    CorrelationSignal,
    DimSpec,
    Nesting,
    SpectralComposition,
    SpectralGridSpec,
    SpectrumEstimate,
    assemble,
    capon_cost,
    capon_spectrum,
    correlation_match,
    cost_report,
    invert_pd,
    multi_of_flat,
    sequential_cost,
    sequential_spectrum,
    sequential_stage_costs,
    strides,
    synth_correlation,
)
from ndspec.errors import DimensionMismatch, SizeMismatch

VI_COMPOSITION = SpectralComposition(
    peaks=(((0.1, 0.3, 0.7), 1.0), ((0.1, 0.6, 0.2), 1.0)),
    planes=((0, 0.6, 1.0),),
    noise_var=0.1,
)

# Grids coarser than the lag box on some axes (C_i < 2 gamma_i - 1,
# including 1- and 2-point axes), where lags alias onto shared cells.
COARSE_CASES = [
    ((3, 2, 4), (2, 1, 5)),
    ((4, 3), (9, 2)),
    ((5,), (3,)),
    ((2, 3), (1, 4)),
]


def capon_by_steering(r_inv, gamma, counts):
    """1 / (a^H R^{-1} a) with explicit steering vectors, point by point."""
    st = strides(DimSpec(gamma), Nesting.identity(len(gamma)))
    m = np.array([multi_of_flat(i, st) for i in range(st.size)])
    out = np.empty(counts)
    for k in np.ndindex(*counts):
        a = np.exp(-1j * m @ (2 * np.pi * np.array(k) / np.array(counts)))
        out[k] = 1.0 / np.real(a.conj() @ r_inv @ a)
    return out


def mean_of_kernels(power, t):
    """Grid mean of S(w) e^{-j w.t} with one phase kernel per axis."""
    phase = np.ones(power.shape, dtype=complex)
    for axis, (count, ti) in enumerate(zip(power.shape, t)):
        kernel = np.exp(-2j * np.pi * np.arange(count) * ti / count)
        phase = phase * kernel.reshape([count if a == axis else 1 for a in range(power.ndim)])
    return np.mean(power * phase)


class TestCapon:
    @pytest.mark.parametrize("gamma, counts", COARSE_CASES)
    def test_matches_steering_formula_on_coarse_grids(self, gamma, counts):
        rng = np.random.default_rng(len(gamma) + sum(counts))
        r_inv = invert_pd(assemble(random_correlation(rng, gamma)).entries)
        s = capon_spectrum(r_inv, DimSpec(gamma), SpectralGridSpec(counts))
        np.testing.assert_allclose(s.power, capon_by_steering(r_inv, gamma, counts),
                                   rtol=1e-12)

    def test_white_noise(self):
        # a^H a = q makes the white level var / q
        var = 0.1
        c = synth_correlation(SpectralComposition(noise_var=var), (2, 3))
        spec = DimSpec((2, 3))
        s = capon_spectrum(invert_pd(assemble(c).entries), spec,
                           SpectralGridSpec((4, 4)))
        np.testing.assert_allclose(s.power, var / spec.q, rtol=1e-12)

    def test_scalar_case_returns_zero_lag(self):
        c = CorrelationSignal((1,), np.array([2.5 + 0.0j]))
        s = capon_spectrum(invert_pd(assemble(c).entries), DimSpec((1,)),
                           SpectralGridSpec((8,)))
        np.testing.assert_allclose(s.power, 2.5, rtol=1e-14)

    def test_cube_peaks_dominate(self):
        c = synth_correlation(VI_COMPOSITION, (3, 3, 3))
        s = capon_spectrum(invert_pd(assemble(c).entries), DimSpec((3, 3, 3)),
                           SpectralGridSpec((10, 10, 10)))
        flat_order = np.argsort(s.power, axis=None)[::-1]
        top_two = {np.unravel_index(i, s.power.shape) for i in flat_order[:2]}
        assert top_two == {(1, 3, 7), (1, 6, 2)}

    def test_positive_everywhere(self):
        rng = np.random.default_rng(20)
        c = random_correlation(rng, (2, 2))
        s = capon_spectrum(invert_pd(assemble(c).entries), DimSpec((2, 2)),
                           SpectralGridSpec((6, 6)))
        assert np.all(s.power > 0.0)

    def test_shape_checks(self):
        with pytest.raises(SizeMismatch):
            capon_spectrum(np.eye(3), DimSpec((2, 2)), SpectralGridSpec((4, 4)))
        with pytest.raises(DimensionMismatch):
            capon_spectrum(np.eye(4), DimSpec((2, 2)), SpectralGridSpec((4,)))


class TestCostModel:
    def test_hand_value_d1(self):
        spec, grid = DimSpec((2,)), SpectralGridSpec((4,))
        assert sequential_cost(spec, grid) == 14
        assert capon_cost(spec, grid) == 16
        assert sequential_stage_costs(spec, grid) == ((1, Fraction(14)),)

    def test_hand_values_d2(self):
        spec, grid = DimSpec((2, 2)), SpectralGridSpec((4, 4))
        stages = dict(sequential_stage_costs(spec, grid))
        assert stages[2] == 80
        assert stages[1] == 56
        assert sequential_cost(spec, grid) == 136
        assert capon_cost(spec, grid) == 256

    def test_totals_are_per_stage_sums(self):
        spec, grid = DimSpec((2, 3, 2)), SpectralGridSpec((4, 6, 8))
        report = cost_report(spec, grid)
        assert report.sequential_total == sum(ops for _, ops in report.per_stage)
        assert report.capon_total == capon_cost(spec, grid)

    def test_reference_regime_exact_spot_value(self):
        # order 10, five dimensions, uniform grid of 2 per axis
        spec = DimSpec((10,) * 5)
        total = sequential_cost(spec, SpectralGridSpec((2,) * 5))
        assert total == 3_008_052_840_368
        assert capon_cost(spec, SpectralGridSpec((2,) * 5)) == 320_000_000_000

    def test_reference_regime_monotone_and_integral(self):
        spec = DimSpec((10,) * 5)
        previous_seq, previous_capon = None, None
        for count in (2, 4, 8, 16, 32, 64):
            grid = SpectralGridSpec((count,) * 5)
            seq, cap = sequential_cost(spec, grid), capon_cost(spec, grid)
            assert seq.denominator == 1 and cap.denominator == 1
            if previous_seq is not None:
                assert seq > previous_seq and cap > previous_capon
            previous_seq, previous_capon = seq, cap

    def test_reference_regime_dominance_from_four_points_up(self):
        spec = DimSpec((10,) * 5)
        for count in (4, 8, 16, 32, 64):
            grid = SpectralGridSpec((count,) * 5)
            assert sequential_cost(spec, grid) < capon_cost(spec, grid)

    def test_dimension_check(self):
        with pytest.raises(DimensionMismatch):
            sequential_cost(DimSpec((2, 2)), SpectralGridSpec((4,)))


class TestCorrelationMatch:
    @pytest.mark.parametrize("gamma, counts", COARSE_CASES)
    def test_matches_kernel_mean_on_coarse_grids(self, gamma, counts):
        rng = np.random.default_rng(len(gamma) * sum(counts))
        c = random_correlation(rng, gamma)
        s = SpectrumEstimate(SpectralGridSpec(counts), rng.random(counts) + 0.1)
        with pytest.warns(AliasingWarning):
            report = correlation_match(s, c)
        lags = list(itertools.product(*(range(1 - g, g) for g in gamma)))
        assert [entry.lag for entry in report.per_lag] == lags
        rhat = {entry.lag: entry.reconstructed for entry in report.per_lag}
        for t in lags:
            assert abs(rhat[t] - mean_of_kernels(s.power, t)) <= 1e-14 * s.power.max()
            assert rhat[tuple(-ti for ti in t)] == rhat[t].conjugate()
        for entry in report.per_lag:
            assert entry.original == c.value(entry.lag)
            assert entry.error == pytest.approx(
                abs(entry.reconstructed - entry.original) / abs(entry.original), rel=1e-15)

    def test_flat_spectrum_matches_white_noise(self):
        var = 0.1
        c = synth_correlation(SpectralComposition(noise_var=var), (2,))
        flat = SpectrumEstimate(SpectralGridSpec((8,)), np.full(8, var))
        report = correlation_match(flat, c)
        assert report.max_error < 1e-15
        modes = {entry.lag: entry.mode for entry in report.per_lag}
        assert modes[(0,)] == "rel"
        assert modes[(1,)] == "abs"

    def test_ar1_dense_grid(self):
        c = CorrelationSignal.from_forward_lags([1.0, 0.5])
        s = sequential_spectrum(c, SpectralGridSpec((256,)))
        report = correlation_match(s, c)
        assert report.max_error < 1e-3

    def test_error_decays_with_grid_doubling(self):
        c = CorrelationSignal.from_forward_lags([1.0, 0.9])
        errors = []
        for count in (64, 128, 256, 512):
            s = sequential_spectrum(c, SpectralGridSpec((count,)))
            errors.append(correlation_match(s, c).max_error)
        for coarse, fine in zip(errors, errors[1:]):
            assert fine <= 1.1 * coarse

    def test_2d_reports_every_lag(self):
        rng = np.random.default_rng(21)
        c = random_correlation(rng, (3, 3))
        s = sequential_spectrum(c, SpectralGridSpec((32, 32)))
        report = correlation_match(s, c)
        assert len(report.per_lag) == 25
        assert all(np.isfinite(entry.error) for entry in report.per_lag)

    def test_warns_on_coarse_grid(self):
        c = CorrelationSignal.from_forward_lags([1.0, 0.5])
        s = SpectrumEstimate(SpectralGridSpec((2,)), np.full(2, 1.0))
        with pytest.warns(AliasingWarning):
            correlation_match(s, c)

    def test_dimension_mismatch(self):
        c = CorrelationSignal.from_forward_lags([1.0, 0.5])
        s = SpectrumEstimate(SpectralGridSpec((4, 4)), np.ones((4, 4)))
        with pytest.raises(DimensionMismatch):
            correlation_match(s, c)
