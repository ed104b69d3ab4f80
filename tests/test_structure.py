import itertools

import pytest
from hypothesis import given, settings, strategies as st

from vilenkin_lab.errors import ResolutionError
from vilenkin_lab.structure import (
    VilenkinStructure,
    cylinder_cells,
    index_to_digits,
    leading_position,
)

from group_oracles import (
    GroupPoint,
    add_points,
    basis_point,
    cell_to_point,
    point_cylinder_cells,
    zero_point,
)


class TestConstruction:
    def test_scale_table(self, mixed232):
        assert mixed232.M == (1, 2, 6, 12)
        assert mixed232.lam == 3
        assert mixed232.size == 12

    def test_pattern_repeats(self):
        vs = VilenkinStructure.from_pattern((2, 3), 5)
        assert vs.m == (2, 3, 2, 3, 2)

    def test_scale_ratios_match_generators(self):
        vs = VilenkinStructure.from_pattern((3, 4, 2), 7)
        for k in range(vs.N):
            assert vs.M[k + 1] == vs.m[k] * vs.M[k]
        assert all(a < b for a, b in zip(vs.M, vs.M[1:]))

    def test_rejects_small_generators(self):
        with pytest.raises(ValueError):
            VilenkinStructure.from_m((2, 1, 2))
        with pytest.raises(ValueError):
            VilenkinStructure.from_m(())


class TestIndexDigits:
    def test_mixed_radix_example(self, mixed232):
        assert index_to_digits(7, mixed232) == (1, 0, 1)

    def test_zero(self, mixed232):
        assert index_to_digits(0, mixed232) == (0, 0, 0)

    def test_binary_expansion(self):
        vs = VilenkinStructure.from_pattern((2,), 4)
        assert index_to_digits(13, vs) == (1, 0, 1, 1)

    def test_round_trip_exhaustive(self, mixed232, walsh3):
        for vs in (mixed232, walsh3):
            for n in range(vs.size):
                digits = index_to_digits(n, vs)
                assert all(0 <= d < vs.m[j] for j, d in enumerate(digits))
                assert sum(d * vs.M[j] for j, d in enumerate(digits)) == n

    def test_range_error(self, mixed232):
        with pytest.raises(ResolutionError):
            index_to_digits(12, mixed232)

    def test_always_full_length(self, mixed232):
        assert index_to_digits(5, mixed232) == (1, 2, 0)
        with pytest.raises(ValueError):
            index_to_digits(-1, mixed232)

    @settings(derandomize=True, max_examples=50)
    @given(st.lists(st.integers(min_value=2, max_value=5), min_size=1, max_size=6),
           st.integers(min_value=0, max_value=10**6))
    def test_round_trip_random_structures(self, gens, raw):
        vs = VilenkinStructure.from_m(gens)
        n = raw % vs.size
        assert sum(d * vs.M[j] for j, d in enumerate(index_to_digits(n, vs))) == n


class TestLeadingPosition:
    def test_examples(self, mixed232):
        walsh = VilenkinStructure.from_pattern((2,), 4)
        assert leading_position(5, walsh) == 2
        assert leading_position(1, walsh) == 0
        assert leading_position(7, mixed232) == 2

    def test_brackets_scale_table(self, mixed2323):
        for n in range(1, mixed2323.size):
            pos = leading_position(n, mixed2323)
            assert mixed2323.M[pos] <= n < mixed2323.M[pos + 1]

    def test_zero_rejected(self, mixed232):
        with pytest.raises(ValueError):
            leading_position(0, mixed232)


class TestGroupOperations:
    # The pointwise model the cell-id geometry is checked against.

    def test_componentwise_addition(self):
        vs = VilenkinStructure.from_m((2, 3))
        x = GroupPoint((1, 2))
        assert add_points(x, x, vs) == GroupPoint((0, 1))

    def test_identity_and_inverse(self, mixed232):
        zero = zero_point(mixed232)
        for cell in range(mixed232.size):
            x = cell_to_point(cell, mixed232)
            assert add_points(x, zero, mixed232) == x
            inverse = GroupPoint(tuple(-d % mk for d, mk in zip(x.digits, mixed232.m)))
            assert add_points(x, inverse, mixed232) == zero

    def test_abelian_group_laws_exhaustive(self, mixed232):
        pts = [cell_to_point(c, mixed232) for c in range(mixed232.size)]
        for x, y in itertools.product(pts, repeat=2):
            assert add_points(x, y, mixed232) == add_points(y, x, mixed232)
        for x, y, z in itertools.islice(itertools.product(pts, repeat=3), 0, None, 7):
            lhs = add_points(add_points(x, y, mixed232), z, mixed232)
            rhs = add_points(x, add_points(y, z, mixed232), mixed232)
            assert lhs == rhs

    def test_structure_mismatch_rejected(self, mixed232, walsh3):
        x = zero_point(mixed232)
        y = GroupPoint((0, 0, 0, 0))
        with pytest.raises(ValueError):
            add_points(x, y, mixed232)
        bad = GroupPoint((0, 5, 0))
        with pytest.raises(ValueError):
            add_points(x, bad, mixed232)


class TestBasisPoints:
    def test_single_digit(self):
        walsh = VilenkinStructure.from_pattern((2,), 5)
        assert basis_point(2, 1, walsh).digits == (0, 0, 1, 0, 0)
        vs = VilenkinStructure.from_m((2, 3))
        assert basis_point(1, 2, vs).digits == (0, 2)

    def test_zero_digit_rejected(self):
        vs = VilenkinStructure.from_m((2, 3))
        with pytest.raises(ValueError):
            basis_point(1, 0, vs)
        with pytest.raises(ValueError):
            basis_point(1, 3, vs)
        with pytest.raises(ResolutionError):
            basis_point(2, 1, vs)


class TestCells:
    def test_point_cell_round_trip(self, mixed232):
        for cell in range(mixed232.size):
            x = cell_to_point(cell, mixed232)
            assert sum(d * mixed232.cell_weight(j) for j, d in enumerate(x.digits)) == cell

    def test_full_group_cylinder(self, mixed232):
        cells = cylinder_cells(0, 0, mixed232)
        assert cells == range(0, mixed232.size)

    def test_single_cell_cylinder(self, mixed232):
        assert cylinder_cells(5, mixed232.N, mixed232) == range(5, 6)

    def test_half_group(self, walsh3):
        cells = cylinder_cells(0, 1, walsh3)
        assert cells == range(0, 4)
        assert len(cells) * walsh3.M[1] == walsh3.size

    def test_nesting_and_measure(self, mixed2323):
        vs = mixed2323
        for cell in range(0, vs.size, 5):
            for depth in range(vs.N):
                outer = cylinder_cells(cell, depth, vs)
                inner = cylinder_cells(cell, depth + 1, vs)
                assert inner.start >= outer.start and inner.stop <= outer.stop
                assert len(outer) == len(inner) * vs.m[depth]

    def test_membership_matches_digit_prefix(self, mixed2323):
        vs = mixed2323
        x = cell_to_point(17, vs)
        for depth in range(vs.N + 1):
            cells = cylinder_cells(17, depth, vs)
            for cell in range(vs.size):
                y = cell_to_point(cell, vs)
                inside = y.digits[:depth] == x.digits[:depth]
                assert (cell in cells) == inside

    def test_depth_beyond_resolution(self, mixed232):
        with pytest.raises(ResolutionError):
            cylinder_cells(0, 4, mixed232)

    def test_cell_outside_structure(self, mixed232):
        for cell in (-1, mixed232.size):
            with pytest.raises(ValueError):
                cylinder_cells(cell, 1, mixed232)

    @pytest.mark.parametrize("gens", [(2, 3, 2, 3), (5, 3), (2,) * 5], ids=["2x3x2x3", "5x3", "walsh5"])
    def test_cell_ids_match_digit_vector_model(self, gens):
        vs = VilenkinStructure.from_m(gens)
        for cell in range(vs.size):
            x = cell_to_point(cell, vs)
            for depth in range(vs.N + 1):
                assert cylinder_cells(cell, depth, vs) == point_cylinder_cells(x, depth, vs)
