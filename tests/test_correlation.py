import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import random_correlation
from ndspec import (
    CorrelationSignal,
    DimSpec,
    Nesting,
    SpectralComposition,
    apply_walking,
    assemble,
    check_positive_definite,
    estimate_correlation,
    load_ndcorr,
    save_ndcorr,
    synth_correlation,
    walking_map,
)
from ndspec.errors import DimensionMismatch, FileFormatError, InsufficientData

VI_COMPOSITION = SpectralComposition(
    peaks=(((0.1, 0.3, 0.7), 1.0), ((0.1, 0.6, 0.2), 1.0)),
    planes=((0, 0.6, 1.0),),
    noise_var=0.1,
)


def biased_lags(x, gamma):
    """Direct biased sum c(t) = (1/N) sum_n x(n+t) conj(x(n)) over the box."""
    out = np.zeros(tuple(2 * g - 1 for g in gamma), dtype=complex)
    for t in itertools.product(*(range(1 - g, g) for g in gamma)):
        acc = 0j
        for n in np.ndindex(*x.shape):
            m = tuple(ni + ti for ni, ti in zip(n, t))
            if all(0 <= mi < size for mi, size in zip(m, x.shape)):
                acc += x[m] * np.conj(x[n])
        out[tuple(ti + g - 1 for ti, g in zip(t, gamma))] = acc / x.size
    return out


def closed_form_lags(comp, gamma):
    """Peaks, planes and noise summed lag by lag from their closed forms."""
    out = np.zeros(tuple(2 * g - 1 for g in gamma), dtype=complex)
    for t in itertools.product(*(range(1 - g, g) for g in gamma)):
        acc = sum(power * np.exp(-2j * np.pi * math.fsum(f * ti for f, ti in zip(fs, t)))
                  for fs, power in comp.peaks)
        for axis, f, power in comp.planes:
            if all(ti == 0 for other, ti in enumerate(t) if other != axis):
                acc += power * np.exp(-2j * np.pi * f * t[axis])
        if not any(t):
            acc += comp.noise_var
        out[tuple(ti + g - 1 for ti, g in zip(t, gamma))] = acc
    return out


def is_exactly_hermitian(lags):
    return np.array_equal(lags, np.conj(np.flip(lags)))


class TestEstimate:
    @pytest.mark.parametrize("shape, gamma", [
        ((9,), (9,)),
        ((5, 4), (2, 4)),
        ((3, 4, 2), (3, 2, 2)),
        ((4, 3, 3), (4, 3, 1)),
    ])
    def test_matches_biased_sum(self, shape, gamma):
        rng = np.random.default_rng(sum(shape))
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        c = estimate_correlation(x, gamma)
        np.testing.assert_allclose(c.lags, biased_lags(x, gamma), rtol=0,
                                   atol=1e-14 * c.zero_lag)
        assert is_exactly_hermitian(c.lags)

    def test_ones_2d_counts_overlaps(self):
        c = estimate_correlation(np.ones((3, 3)), (2, 2))
        np.testing.assert_allclose(c.lags, biased_lags(np.ones((3, 3)), (2, 2)),
                                   rtol=0, atol=1e-15)
        assert c.value((0, 0)) == pytest.approx(1.0)
        assert c.value((1, -1)) == pytest.approx(4.0 / 9.0)
        assert is_exactly_hermitian(c.lags)

    def test_ones_signal(self):
        c = estimate_correlation(np.array([1.0, 1.0, 1.0]), (2,))
        assert c.value((0,)) == pytest.approx(1.0)
        assert c.value((1,)) == pytest.approx(2.0 / 3.0)

    def test_impulse_signal(self):
        c = estimate_correlation(np.array([1.0, 0.0, 0.0]), (2,))
        assert c.value((0,)) == pytest.approx(1.0 / 3.0)
        assert c.value((1,)) == 0.0

    def test_zero_signal(self):
        c = estimate_correlation(np.zeros((3, 3)), (2, 2))
        assert np.all(c.lags == 0.0)

    def test_insufficient_data(self):
        with pytest.raises(InsufficientData):
            estimate_correlation(np.ones(3), (4,))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            estimate_correlation(np.ones((3, 3)), (2,))

    @given(
        hnp.arrays(
            shape=st.tuples(st.integers(2, 5), st.integers(2, 5)),
            dtype=np.complex128,
            elements=st.complex_numbers(max_magnitude=5, allow_nan=False,
                                        allow_infinity=False),
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_hermitian_bit_exact(self, samples):
        c = estimate_correlation(samples, (2, 2))
        mirrored = np.conj(c.lags[::-1, ::-1])
        assert np.array_equal(c.lags, mirrored)

    def test_assembled_estimate_is_positive_semidefinite(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            x = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            c = estimate_correlation(x, (3, 2))
            eigs = np.linalg.eigvalsh(assemble(c).entries)
            assert eigs.min() >= -1e-10 * c.zero_lag


class TestSynth:
    def test_matches_closed_form_with_unequal_orders(self):
        comp = SpectralComposition(
            peaks=(((0.13, 0.71, 0.4), 0.7), ((0.9, 0.05, 0.62), 1.3)),
            planes=((0, 0.37, 0.5), (2, 0.81, 0.25)),
            noise_var=0.2,
        )
        gamma = (2, 3, 4)
        c = synth_correlation(comp, gamma)
        np.testing.assert_allclose(c.lags, closed_form_lags(comp, gamma),
                                   rtol=0, atol=1e-14 * c.zero_lag)
        assert is_exactly_hermitian(c.lags)
        assert is_exactly_hermitian(synth_correlation(comp, gamma, symmetrize=True).lags)

    def test_noise_only(self):
        c = synth_correlation(SpectralComposition(noise_var=0.1), (2, 3))
        assert c.zero_lag == pytest.approx(0.1)
        rest = c.lags.copy()
        rest[1, 2] = 0.0
        assert np.all(rest == 0.0)

    def test_single_peak_quarter_cycle(self):
        comp = SpectralComposition(peaks=(((0.25,), 1.0),))
        c = synth_correlation(comp, (2,))
        assert c.value((0,)) == pytest.approx(1.0)
        assert c.value((1,)) == pytest.approx(np.exp(-0.5j * np.pi), abs=1e-15)

    def test_cube_zero_lag_is_total_power(self):
        c = synth_correlation(VI_COMPOSITION, (3, 3, 3))
        assert c.zero_lag == pytest.approx(3.1, rel=1e-15)

    def test_additive_up_to_reassociation(self):
        a = SpectralComposition(peaks=(((0.13, 0.4), 0.7),), noise_var=0.3)
        b = SpectralComposition(
            peaks=(((0.52, 0.9), 1.1),), planes=((1, 0.25, 0.4),), noise_var=0.2
        )
        union = SpectralComposition(
            peaks=a.peaks + b.peaks,
            planes=a.planes + b.planes,
            noise_var=a.noise_var + b.noise_var,
        )
        ca = synth_correlation(a, (3, 3))
        cb = synth_correlation(b, (3, 3))
        cu = synth_correlation(union, (3, 3))
        np.testing.assert_allclose(cu.lags, ca.lags + cb.lags, rtol=0, atol=1e-14)

    def test_symmetrize_makes_lags_real(self):
        comp = SpectralComposition(peaks=(((0.2, 0.35), 1.0),), noise_var=0.1)
        c = synth_correlation(comp, (3, 3), symmetrize=True)
        assert np.max(np.abs(c.lags.imag)) < 1e-14
        assert c.zero_lag == pytest.approx(2.1)

    def test_plane_confined_to_its_axis(self):
        comp = SpectralComposition(planes=((1, 0.25, 2.0),))
        c = synth_correlation(comp, (2, 3))
        assert c.value((0, 1)) == pytest.approx(2.0 * np.exp(-0.5j * np.pi), abs=1e-14)
        assert c.value((1, 1)) == 0.0
        assert c.value((1, 0)) == 0.0

    def test_rejects_mismatched_composition(self):
        with pytest.raises(DimensionMismatch):
            synth_correlation(SpectralComposition(peaks=(((0.1, 0.2), 1.0),)), (2,))
        with pytest.raises(DimensionMismatch):
            synth_correlation(SpectralComposition(planes=((2, 0.1, 1.0),)), (2, 2))

    def test_composition_validation(self):
        with pytest.raises(ValueError):
            SpectralComposition(peaks=(((0.1,), 0.0),))
        with pytest.raises(ValueError):
            SpectralComposition(peaks=(((1.5,), 1.0),))
        with pytest.raises(ValueError):
            SpectralComposition(noise_var=-0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_composition_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            SpectralComposition(peaks=(((0.1,), bad),))
        with pytest.raises(ValueError):
            SpectralComposition(planes=((0, 0.2, bad),))
        with pytest.raises(ValueError):
            SpectralComposition(noise_var=bad)


class TestSignalType:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            CorrelationSignal((2,), np.array([0.5j, 1.0, 0.2]))

    def test_rejects_negative_zero_lag(self):
        with pytest.raises(ValueError):
            CorrelationSignal((2,), np.array([0.2, -1.0, 0.2]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_lags(self, bad):
        with pytest.raises(ValueError):
            CorrelationSignal((2,), np.array([0.2, 1.0, 0.2 + bad * 1j]))
        with pytest.raises(ValueError):
            CorrelationSignal((1,), np.array([bad]))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            CorrelationSignal((2,), np.zeros(4))

    def test_from_forward_lags(self):
        c = CorrelationSignal.from_forward_lags([1.0, 0.5j])
        assert c.gamma == (2,)
        assert c.value((-1,)) == -0.5j

    def test_value_bounds(self):
        c = CorrelationSignal.from_forward_lags([1.0, 0.5])
        with pytest.raises(IndexError):
            c.value((2,))
        with pytest.raises(DimensionMismatch):
            c.value((1, 1))

    def test_with_ridge(self):
        c = CorrelationSignal.from_forward_lags([2.0, 0.5])
        assert c.with_ridge(0.25).zero_lag == pytest.approx(2.5)
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                c.with_ridge(bad)


class TestAssemble:
    def test_1d_hand_value(self):
        c = CorrelationSignal.from_forward_lags([2.0, 1.0])
        r = assemble(c)
        assert np.array_equal(r.entries, np.array([[2.0, 1.0], [1.0, 2.0]]))

    def test_noise_only_is_scaled_identity(self):
        c = synth_correlation(SpectralComposition(noise_var=0.3), (2, 2))
        r = assemble(c)
        assert np.array_equal(r.entries, 0.3 * np.eye(4))

    def test_commutes_with_walking_all_nesting_pairs(self):
        rng = np.random.default_rng(4)
        for gamma in [(2, 3), (2, 2, 3)]:
            c = random_correlation(rng, gamma)
            spec = DimSpec(gamma)
            for src_dims in itertools.permutations(range(spec.d)):
                for dst_dims in itertools.permutations(range(spec.d)):
                    src, dst = Nesting(src_dims), Nesting(dst_dims)
                    direct = assemble(c, dst).entries
                    walked = apply_walking(
                        assemble(c, src).entries, walking_map(spec, src, dst)
                    )
                    assert np.array_equal(direct, walked)

    def test_hermitian(self):
        rng = np.random.default_rng(5)
        r = assemble(random_correlation(rng, (3, 2)))
        assert np.array_equal(r.entries, r.entries.conj().T)


class TestPositiveDefiniteCheck:
    def test_noise_identity(self):
        c = synth_correlation(SpectralComposition(noise_var=0.1), (2, 2))
        assert check_positive_definite(assemble(c))

    def test_zero_matrix(self):
        assert not check_positive_definite(np.zeros((3, 3)))

    def test_cube_composition(self):
        c = synth_correlation(VI_COMPOSITION, (3, 3, 3))
        assert check_positive_definite(assemble(c))


class TestNdcorrFile:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(6)
        c = random_correlation(rng, (2, 3))
        path = tmp_path / "c.ndcorr"
        save_ndcorr(c, path)
        loaded = load_ndcorr(path)
        assert loaded.gamma == c.gamma
        assert np.array_equal(loaded.lags, c.lags)

    def test_deterministic_bytes(self, tmp_path):
        rng = np.random.default_rng(7)
        c = random_correlation(rng, (3,))
        first, second = tmp_path / "a", tmp_path / "b"
        save_ndcorr(c, first)
        save_ndcorr(c, second)
        assert first.read_bytes() == second.read_bytes()

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad"
        path.write_text("ndcorr 2\ngamma: 2\n-1 0.5 0.0\n0 1.0 0.0\n1 0.5 0.0\n")
        with pytest.raises(FileFormatError):
            load_ndcorr(path)

    def test_rejects_hermitian_violation(self, tmp_path):
        path = tmp_path / "bad"
        path.write_text("ndcorr 1\ngamma: 2\n-1 0.5 0.25\n0 1.0 0.0\n1 0.5 0.0\n")
        with pytest.raises(FileFormatError):
            load_ndcorr(path)

    def test_rejects_missing_and_duplicate_rows(self, tmp_path):
        path = tmp_path / "short"
        path.write_text("ndcorr 1\ngamma: 2\n0 1.0 0.0\n1 0.5 0.0\n")
        with pytest.raises(FileFormatError):
            load_ndcorr(path)
        path.write_text("ndcorr 1\ngamma: 2\n0 1.0 0.0\n0 1.0 0.0\n1 0.5 0.0\n")
        with pytest.raises(FileFormatError):
            load_ndcorr(path)

    def test_rejects_malformed_tokens(self, tmp_path):
        path = tmp_path / "tok"
        path.write_text("ndcorr 1\ngamma: 2\n-1 x 0.0\n0 1.0 0.0\n1 x 0.0\n")
        with pytest.raises(FileFormatError):
            load_ndcorr(path)
