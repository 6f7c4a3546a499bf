import itertools
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    capon_spectrum,
    correlation_match,
    cost_report,
    invert_pd,
    sequential_spectrum,
    synth_correlation,
)
from ndspec.baselines import capon_cost, sequential_stage_costs
from ndspec.correlation import _lag_gather
from ndspec.errors import DimensionMismatch, SizeMismatch
from ndspec.indexing import digits

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
    m = digits(DimSpec(gamma), Nesting.identity(len(gamma)))
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


@st.composite
def boxes_on_grids(draw):
    """Orders up to 4 and grid counts up to 9 on 1 to 3 axes, with a seed;
    the counts reach C = 1 and C < 2 gamma - 1, where lags alias."""
    d = draw(st.integers(1, 3))
    gamma = tuple(draw(st.integers(1, 4)) for _ in range(d))
    counts = tuple(draw(st.integers(1, 9)) for _ in range(d))
    return gamma, counts, draw(st.integers(0, 2**32 - 1))


class TestPartialDftProperties:
    @given(boxes_on_grids())
    @example(((4,), (1,), 0))
    @example(((4, 2, 3), (3, 1, 9), 1))
    @settings(max_examples=40, deadline=None)
    def test_capon_equals_the_steering_form(self, case):
        gamma, counts, seed = case
        r_inv = invert_pd(assemble(random_correlation(np.random.default_rng(seed), gamma)).entries)
        s = capon_spectrum(r_inv, DimSpec(gamma), SpectralGridSpec(counts))
        np.testing.assert_allclose(s.power, capon_by_steering(r_inv, gamma, counts), rtol=1e-12)

    @given(boxes_on_grids())
    @example(((4,), (1,), 0))
    @example(((4, 2, 3), (3, 1, 9), 1))
    @settings(max_examples=40, deadline=None)
    def test_every_lag_is_the_kernel_mean(self, case):
        gamma, counts, seed = case
        rng = np.random.default_rng(seed)
        c = random_correlation(rng, gamma)
        s = SpectrumEstimate(SpectralGridSpec(counts), rng.random(counts) + 0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AliasingWarning)
            report = correlation_match(s, c)
        for entry in report.per_lag:
            assert abs(entry.reconstructed - mean_of_kernels(s.power, entry.lag)) \
                <= 1e-12 * s.power.max()


def extended_tables(gamma, counts, sign):
    """Per-axis tables e^{sign j 2 pi (m t mod C) / C} in long double."""
    pi = 4 * np.arctan(np.longdouble(1))
    tables = []
    for g, count in zip(gamma, counts):
        turns = (np.outer(np.arange(count), np.arange(1 - g, g)) % count).astype(np.longdouble)
        angle = 2 * pi * turns / count
        tables.append(np.cos(angle) + sign * 1j * np.sin(angle))
    return tables


def extended_fold(r_inv, gamma):
    """Lag sums B(t) of ``r_inv`` over m(i) - m(j) = t, summed in long double."""
    gather = _lag_gather(gamma, Nesting.identity(len(gamma))).ravel()
    order = np.argsort(gather, kind="stable")
    box = tuple(2 * g - 1 for g in gamma)
    starts = np.searchsorted(gather[order], np.arange(np.prod(box)))
    values = r_inv.ravel()[order].astype(np.clongdouble)
    return np.add.reduceat(values, starts).reshape(box)


def extended_denominator(r_inv, gamma, counts):
    """Capon's denominator a^H R^{-1} a on the grid, folded and transformed
    in long double."""
    reference = extended_fold(r_inv, gamma)
    for table in extended_tables(gamma, counts, +1):
        reference = np.tensordot(reference, table, axes=(0, 1))
    return reference.real


LONG_DOUBLE = pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                                 reason="long double has double's precision here")


@LONG_DOUBLE
class TestExtendedPrecision:
    """The lag-box transforms against the same sums in long double, on the
    line spectrum of the benchmark's cube at seed 7: orders (4, 4, 4) on
    32^3, lines on cells (30, 9, 9) and (30, 27, 29), the f_0 = 0.6 plane
    and white noise 0.1. The line cells stand 5e16 above the median."""

    gamma, counts = (4, 4, 4), (32, 32, 32)

    def signal(self):
        peaks = tuple((tuple(m / 32 for m in cell), 1.0) for cell in ((30, 9, 9), (30, 27, 29)))
        return synth_correlation(SpectralComposition(peaks=peaks, planes=((0, 0.6, 1.0),),
                                                     noise_var=0.1), self.gamma)

    def test_capon_denominator(self):
        r_inv = invert_pd(assemble(self.signal()).entries)
        denominator = 1.0 / capon_spectrum(r_inv, DimSpec(self.gamma),
                                           SpectralGridSpec(self.counts)).power
        reference = extended_denominator(r_inv, self.gamma, self.counts)
        rel = np.abs(denominator - reference) / np.abs(reference)
        assert rel.max() <= 1e-12

    def test_reconstructed_lags(self):
        c = self.signal()
        s = sequential_spectrum(c, SpectralGridSpec(self.counts))
        assert s.power.max() > 1e16 * np.median(s.power)
        reconstructed = correlation_match(s, c).per_lag.reconstructed
        reference = s.power.astype(np.longdouble)
        for table in extended_tables(self.gamma, self.counts, -1):
            reference = np.tensordot(reference, table, axes=(0, 0))
        reference = reference.ravel() / s.power.size
        rel = np.abs(reconstructed - reference) / np.abs(reference)
        assert np.median(rel) <= 1e-15
        # measured 9.6e-9 (a full-grid FFT: 3.8e-9), at the small lags
        # that the line cells swamp
        assert rel.max() <= 1e-7


class TestWideFold:
    """Capon's fold on the benchmark's wide input at seed 7: the product of
    three seeded order-10 factors, q = 1000, on 8^3."""

    gamma, counts = (10, 10, 10), (8, 8, 8)

    @pytest.fixture(scope="class")
    def r_inv(self):
        rng = np.random.default_rng(7)
        factors = [random_correlation(rng, (g,)) for g in self.gamma]
        lags = factors[0].lags
        for factor in factors[1:]:
            lags = np.multiply.outer(lags, factor.lags)
        return invert_pd(assemble(CorrelationSignal(self.gamma, lags)).entries)

    @LONG_DOUBLE
    def test_denominator_within_1e12_of_long_double(self, r_inv):
        # a fold of sequential sums over whole diagonals measured 2.2e-12
        denominator = 1.0 / capon_spectrum(r_inv, DimSpec(self.gamma),
                                           SpectralGridSpec(self.counts)).power
        reference = extended_denominator(r_inv, self.gamma, self.counts)
        rel = np.abs(denominator - reference) / np.abs(reference)
        assert rel.max() <= 1e-12

    def test_fold_memory_is_a_fraction_of_the_inverse(self, r_inv):
        # the first fold keeps 19 / 100 of R^{-1}; a q^2 gather index and
        # real and imaginary copies kept about r_inv.nbytes
        grid = SpectralGridSpec(self.counts)
        tracemalloc.start()
        try:
            capon_spectrum(r_inv, DimSpec(self.gamma), grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < r_inv.nbytes / 4 + 8 * grid.size


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
        assert cost_report(spec, grid).sequential_total == 14
        assert capon_cost(spec, grid) == 16
        assert sequential_stage_costs(spec, grid) == ((1, Fraction(14)),)

    def test_hand_values_d2(self):
        spec, grid = DimSpec((2, 2)), SpectralGridSpec((4, 4))
        stages = dict(sequential_stage_costs(spec, grid))
        assert stages[2] == 80
        assert stages[1] == 56
        assert cost_report(spec, grid).sequential_total == 136
        assert capon_cost(spec, grid) == 256

    def test_totals_are_per_stage_sums(self):
        spec, grid = DimSpec((2, 3, 2)), SpectralGridSpec((4, 6, 8))
        report = cost_report(spec, grid)
        assert report.sequential_total == sum(ops for _, ops in report.per_stage)
        assert report.capon_total == capon_cost(spec, grid)

    def test_reference_regime_exact_spot_value(self):
        # order 10, five dimensions, uniform grid of 2 per axis
        spec = DimSpec((10,) * 5)
        total = cost_report(spec, SpectralGridSpec((2,) * 5)).sequential_total
        assert total == 3_008_052_840_368
        assert capon_cost(spec, SpectralGridSpec((2,) * 5)) == 320_000_000_000

    def test_reference_regime_monotone_and_integral(self):
        spec = DimSpec((10,) * 5)
        previous_seq, previous_capon = None, None
        for count in (2, 4, 8, 16, 32, 64):
            grid = SpectralGridSpec((count,) * 5)
            seq, cap = cost_report(spec, grid).sequential_total, capon_cost(spec, grid)
            assert seq.denominator == 1 and cap.denominator == 1
            if previous_seq is not None:
                assert seq > previous_seq and cap > previous_capon
            previous_seq, previous_capon = seq, cap

    def test_reference_regime_dominance_from_four_points_up(self):
        spec = DimSpec((10,) * 5)
        for count in (4, 8, 16, 32, 64):
            grid = SpectralGridSpec((count,) * 5)
            assert cost_report(spec, grid).sequential_total < capon_cost(spec, grid)

    def test_dimension_check(self):
        with pytest.raises(DimensionMismatch):
            cost_report(DimSpec((2, 2)), SpectralGridSpec((4,)))


class TestCorrelationMatch:
    @pytest.mark.parametrize("gamma, counts", COARSE_CASES)
    def test_matches_kernel_mean_on_coarse_grids(self, gamma, counts):
        rng = np.random.default_rng(len(gamma) * sum(counts))
        c = random_correlation(rng, gamma)
        s = SpectrumEstimate(SpectralGridSpec(counts), rng.random(counts) + 0.1)
        with pytest.warns(AliasingWarning):
            report = correlation_match(s, c)
        lags = list(itertools.product(*(range(1 - g, g) for g in gamma)))
        assert [tuple(entry.lag) for entry in report.per_lag] == lags
        rhat = {tuple(entry.lag): entry.reconstructed for entry in report.per_lag}
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
        modes = {tuple(entry.lag): entry.mode for entry in report.per_lag}
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
        with pytest.raises(ValueError):
            report.per_lag.error[0] = 0.0
        assert np.array_equal(report.per_lag.error.reshape(c.lags.shape),
                              np.reshape([entry.error for entry in report.per_lag], c.lags.shape))
        assert type(report.max_error) is float

    def test_warns_on_coarse_grid(self):
        c = CorrelationSignal.from_forward_lags([1.0, 0.5])
        s = SpectrumEstimate(SpectralGridSpec((2,)), np.full(2, 1.0))
        with pytest.warns(AliasingWarning) as record:
            correlation_match(s, c)
        assert record[0].filename == __file__

    def test_dimension_mismatch(self):
        c = CorrelationSignal.from_forward_lags([1.0, 0.5])
        s = SpectrumEstimate(SpectralGridSpec((4, 4)), np.ones((4, 4)))
        with pytest.raises(DimensionMismatch):
            correlation_match(s, c)
