import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import character_matrix, random_correlation
from ndspec import (
    DimSpec,
    Nesting,
    apply_walking,
    assemble,
    has_toeplitz_character,
    walking_map,
)
from ndspec.errors import IndexOutOfRange, InvalidNesting, SizeMismatch
from ndspec.indexing import digits

small_specs = st.lists(st.integers(1, 3), min_size=1, max_size=3).map(
    lambda gs: DimSpec(tuple(gs))
)


@st.composite
def spec_with_nesting(draw):
    spec = draw(small_specs)
    return spec, Nesting(tuple(draw(st.permutations(range(spec.d)))))


@st.composite
def spec_with_two_nestings(draw):
    spec = draw(small_specs)
    first = Nesting(tuple(draw(st.permutations(range(spec.d)))))
    second = Nesting(tuple(draw(st.permutations(range(spec.d)))))
    return spec, first, second


class TestDigits:
    def test_hand_values(self):
        # flat 5 of gamma = (2, 3) is the last cell under either nesting
        spec = DimSpec((2, 3))
        assert digits(spec, Nesting((0, 1)))[5].tolist() == [1, 2]
        assert digits(spec, Nesting((1, 0)))[5].tolist() == [1, 2]
        assert digits(spec, Nesting((0, 1)))[1].tolist() == [1, 0]
        assert digits(spec, Nesting((1, 0)))[1].tolist() == [0, 1]

    def test_stride_hand_values(self):
        # the slower slot of gamma = (2, 3) first steps at flat 2 under (0, 1)
        # and at flat 3 under (1, 0): strides (1, 2) and (1, 3)
        spec = DimSpec((2, 3))
        assert digits(spec, Nesting((0, 1)))[2].tolist() == [0, 1]
        assert digits(spec, Nesting((1, 0)))[3].tolist() == [1, 0]
        assert np.array_equal(digits(DimSpec((5,)), Nesting((0,))),
                              np.arange(5)[:, None])

    def test_zero_row(self):
        assert digits(DimSpec((2, 3)), Nesting((1, 0)))[0].tolist() == [0, 0]

    def test_1d_identity(self):
        out = digits(DimSpec((4,)), Nesting((0,)))
        assert out.dtype == np.intp
        assert np.array_equal(out, np.arange(4)[:, None])

    def test_extents_follow_nesting(self):
        # under (1, 0) dimension 1 (order 3) is slot 0 and cycles fastest
        out = digits(DimSpec((2, 3)), Nesting((1, 0)))
        assert out[:, 1].tolist() == [0, 1, 2, 0, 1, 2]
        assert out[:, 0].tolist() == [0, 0, 0, 1, 1, 1]

    def test_rejects_wrong_dimension_count(self):
        with pytest.raises(InvalidNesting):
            digits(DimSpec((2, 3)), Nesting((0,)))

    def test_nesting_must_be_a_permutation(self):
        with pytest.raises(InvalidNesting):
            Nesting((0, 0))
        with pytest.raises(InvalidNesting):
            Nesting((1, 2))

    @given(spec_with_nesting())
    def test_rows_are_distinct_and_inside_the_box(self, case):
        spec, nesting = case
        out = digits(spec, nesting)
        assert out.shape == (spec.q, spec.d)
        assert np.all(out >= 0) and np.all(out < np.array(spec.gamma))
        assert len({tuple(row) for row in out.tolist()}) == spec.q

    @given(spec_with_nesting())
    def test_ravels_back_to_the_flat_index(self, case):
        # slot 0 fastest: raveling the slot digits slowest-first gives 0..q-1
        spec, nesting = case
        slowest_first = nesting.dims[::-1]
        flats = np.ravel_multi_index(tuple(digits(spec, nesting)[:, slowest_first].T),
                                     [spec.gamma[k] for k in slowest_first])
        assert np.array_equal(flats, np.arange(spec.q))


class TestWalkingMap:
    @given(spec_with_nesting())
    def test_identity_when_nestings_agree(self, case):
        spec, nest = case
        assert np.array_equal(walking_map(spec, nest, nest), np.arange(spec.q))

    def test_hand_enumeration_gamma_2_3(self):
        # digits under (0,1) move to slots (1,0): flat 1 = multi (1,0) -> 3
        spec = DimSpec((2, 3))
        perm = walking_map(spec, Nesting((0, 1)), Nesting((1, 0)))
        assert perm.tolist() == [0, 3, 1, 4, 2, 5]

    @given(spec_with_two_nestings())
    def test_bijection(self, case):
        spec, src, dst = case
        perm = walking_map(spec, src, dst)
        assert perm.dtype == np.intp
        assert np.array_equal(np.sort(perm), np.arange(spec.q))

    @given(spec_with_two_nestings())
    def test_composes_to_identity(self, case):
        spec, src, dst = case
        forward = walking_map(spec, src, dst)
        backward = walking_map(spec, dst, src)
        assert np.array_equal(backward[forward], np.arange(spec.q))
        assert np.array_equal(backward, np.argsort(forward))

    def test_rejects_mismatched_nesting(self):
        with pytest.raises(InvalidNesting):
            walking_map(DimSpec((2, 3)), Nesting((0, 1)), Nesting((0,)))


class TestApplyWalking:
    def test_identity_permutation(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((6, 6))
        out = apply_walking(m, np.arange(6))
        assert np.array_equal(out, m)

    def test_identity_matrix_is_fixed(self):
        perm = walking_map(DimSpec((2, 3)), Nesting((0, 1)), Nesting((1, 0)))
        assert np.array_equal(apply_walking(np.eye(6), perm), np.eye(6))

    def test_scatter_convention(self):
        # entry (1, 0) lands at (perm(1), perm(0)) = (3, 0)
        perm = walking_map(DimSpec((2, 3)), Nesting((0, 1)), Nesting((1, 0)))
        m = np.zeros((6, 6))
        m[1, 0] = 7.0
        out = apply_walking(m, perm)
        assert out[3, 0] == 7.0

    def test_size_mismatch(self):
        perm = np.arange(3)
        with pytest.raises(SizeMismatch):
            apply_walking(np.eye(4), perm)
        with pytest.raises(SizeMismatch):
            apply_walking(np.zeros((2, 3)), perm)
        with pytest.raises(SizeMismatch):
            apply_walking(np.eye(3), perm[None, :])

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            apply_walking(np.eye(3), np.array([0, 0, 1]))
        with pytest.raises(ValueError):
            apply_walking(np.eye(3), np.array([0, 1, 3]))

    def test_preserves_trace_and_determinant(self):
        # permutation similarity keeps the eigenvalue multiset
        rng = np.random.default_rng(1)
        spec = DimSpec((2, 3))
        perm = walking_map(spec, Nesting((0, 1)), Nesting((1, 0)))
        for _ in range(10):
            m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            walked = apply_walking(m, perm)
            assert np.trace(walked) == pytest.approx(np.trace(m), rel=1e-12)
            assert np.linalg.det(walked) == pytest.approx(np.linalg.det(m), rel=1e-12)


class TestToeplitzCharacter:
    def test_ordinary_toeplitz_1d(self):
        spec = DimSpec((2,))
        nest = Nesting((0,))
        assert has_toeplitz_character(np.array([[2.0, 1.0], [1.0, 2.0]]), spec, 0, nest)

    def test_constant_diagonals_suffice_without_symmetry(self):
        spec = DimSpec((2,))
        nest = Nesting((0,))
        assert has_toeplitz_character(np.array([[2.0, 1.0], [5.0, 2.0]]), spec, 0, nest)

    def test_detects_violation(self):
        spec = DimSpec((3,))
        nest = Nesting((0,))
        m = np.array([[1.0, 2.0, 3.0], [4.0, 1.0, 2.0], [7.0, 5.0, 1.0]])
        assert m[1, 0] != m[2, 1]
        assert not has_toeplitz_character(m, spec, 0, nest)

    def test_assembled_matrix_has_every_character(self):
        rng = np.random.default_rng(2)
        signal = random_correlation(rng, (2, 3, 2))
        for dims in [(0, 1, 2), (2, 0, 1)]:
            nest = Nesting(dims)
            matrix = assemble(signal, nest)
            for u in range(3):
                assert has_toeplitz_character(matrix.entries, matrix.spec, u, nest)

    def test_size_and_slot_checks(self):
        spec = DimSpec((2, 3))
        with pytest.raises(SizeMismatch):
            has_toeplitz_character(np.eye(4), spec, 0, Nesting((0, 1)))
        with pytest.raises(IndexOutOfRange):
            has_toeplitz_character(np.eye(6), spec, 2, Nesting((0, 1)))

    @given(spec_with_two_nestings(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_walking_transports_characters(self, case, data):
        # a (u, src)-character matrix walked to dst carries the character in
        # the slot where dst places the same dimension
        spec, src, dst = case
        u = data.draw(st.integers(0, spec.d - 1))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        m = character_matrix(rng, spec, u, src)
        assert has_toeplitz_character(m, spec, u, src)
        walked = apply_walking(m, walking_map(spec, src, dst))
        new_slot = dst.dims.index(src.dims[u])
        assert has_toeplitz_character(walked, spec, new_slot, dst)
