import cmath
import itertools
from dataclasses import replace

import numpy as np
import pytest

from vilenkin_lab import frozen
from vilenkin_lab.errors import ResolutionError
from vilenkin_lab.kernels import (
    dirichlet_kernel,
    fejer_kernel,
    fejer_lower_bound_cells,
    lacunary_index,
    verify_fejer_lower_bounds,
)
from vilenkin_lab.structure import (
    VilenkinStructure,
    cell_digit_table,
    character_rows,
    root_tables,
)

from group_oracles import (
    GroupPoint,
    add_points,
    basis_point,
    cell_to_point,
    character,
    character_column,
    index_to_digits,
    point_cylinder_cells,
    rademacher,
    rademacher_column,
    zero_point,
)


def brute_character(n, x, vs):
    # independent evaluation straight from the defining product
    digits = index_to_digits(n, vs)
    value = 1 + 0j
    for k in range(vs.N):
        value *= cmath.exp(2j * cmath.pi * digits[k] * x.digits[k] / vs.m[k])
    return value


class TestRademacher:
    def test_walsh_sign(self, walsh3):
        x = GroupPoint((1, 0, 0))
        assert rademacher(0, x, walsh3) == pytest.approx(-1)

    def test_zero_digit(self, mixed232):
        assert rademacher(1, zero_point(mixed232), mixed232) == pytest.approx(1)

    def test_third_root(self, mixed232):
        x = GroupPoint((0, 1, 0))
        assert rademacher(1, x, mixed232) == pytest.approx(cmath.exp(2j * cmath.pi / 3))

    def test_unit_modulus_and_order(self, mixed2323):
        for k in range(mixed2323.N):
            col = rademacher_column(k, mixed2323)
            assert np.abs(np.abs(col) - 1).max() < 1e-12
            assert np.abs(col ** mixed2323.m[k] - 1).max() < 1e-12

    def test_coordinate_out_of_range(self, mixed232):
        with pytest.raises(ResolutionError):
            rademacher(3, zero_point(mixed232), mixed232)


class TestCharacter:
    def test_trivial_character(self, mixed2323):
        assert np.abs(character_column(0, mixed2323) - 1).max() == 0

    def test_walsh_first_character(self, walsh3):
        assert character(1, GroupPoint((1, 0, 0)), walsh3) == pytest.approx(-1)

    def test_scale_index_is_rademacher(self, mixed2323):
        for k in range(mixed2323.N):
            col = character_column(mixed2323.M[k], mixed2323)
            assert np.abs(col - rademacher_column(k, mixed2323)).max() < 1e-12

    def test_matches_direct_product_formula(self, mixed232):
        for n in range(mixed232.size):
            for cell in range(mixed232.size):
                x = cell_to_point(cell, mixed232)
                assert character(n, x, mixed232) == pytest.approx(
                    brute_character(n, x, mixed232)
                )

    def test_column_matches_pointwise(self, mixed2323):
        for n in range(0, mixed2323.size, 5):
            col = character_column(n, mixed2323)
            for cell in range(0, mixed2323.size, 7):
                x = cell_to_point(cell, mixed2323)
                assert col[cell] == pytest.approx(character(n, x, mixed2323))

    def test_multiplicative_in_argument_exhaustive(self, walsh3):
        pts = [cell_to_point(c, walsh3) for c in range(walsh3.size)]
        for n in range(walsh3.size):
            for x, y in itertools.product(pts, repeat=2):
                lhs = character(n, add_points(x, y, walsh3), walsh3)
                rhs = character(n, x, walsh3) * character(n, y, walsh3)
                assert lhs == pytest.approx(rhs)

    def test_multiplicative_randomized_larger(self):
        vs = VilenkinStructure.from_m((3, 2, 4, 2, 3))
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(vs.size))
            x = cell_to_point(int(rng.integers(vs.size)), vs)
            y = cell_to_point(int(rng.integers(vs.size)), vs)
            lhs = character(n, add_points(x, y, vs), vs)
            rhs = character(n, x, vs) * character(n, y, vs)
            assert abs(lhs - rhs) < 1e-12

    def test_pointwise_product_adds_index_digits(self, mixed2323):
        # characters multiply to the character whose index digits are the
        # digitwise modular sums
        vs = mixed2323
        rng = np.random.default_rng(11)
        for _ in range(60):
            a, b = (int(v) for v in rng.integers(vs.size, size=2))
            da = index_to_digits(a, vs)
            db = index_to_digits(b, vs)
            c = sum(((x + y) % vs.m[j]) * vs.M[j] for j, (x, y) in enumerate(zip(da, db)))
            prod = character_column(a, vs) * character_column(b, vs)
            assert np.abs(prod - character_column(c, vs)).max() < 1e-12

    def test_no_carry_index_splitting(self, mixed2323):
        # for t < m[n] and j < M[n] the index t*M[n] + j factors the character
        vs = mixed2323
        for n in range(1, vs.N):
            for t in range(1, vs.m[n]):
                for j in range(vs.M[n]):
                    prod = character_column(t * vs.M[n], vs) * character_column(j, vs)
                    whole = character_column(t * vs.M[n] + j, vs)
                    assert np.abs(whole - prod).max() < 1e-12


AXIS_STRUCTURES = [(5,), (7, 3), (2, 3, 2, 3), (7, 2, 7), (3, 2, 5, 4, 2), (2, 3, 4, 5, 2)]


class TestColumnsFromAxes:
    # The rows read cell digits as array axes; the oracle character_column
    # indexes the digit table instead, and the two must agree bit for bit.

    @staticmethod
    def row(n, vs):
        return character_rows(np.array([n]), vs)[0]

    @pytest.mark.parametrize("gens", AXIS_STRUCTURES)
    def test_character_column_bitwise_equal_to_digit_table(self, gens):
        vs = VilenkinStructure.from_m(gens)
        for n in range(vs.size):
            assert self.row(n, vs).tobytes() == character_column(n, vs).tobytes()

    @pytest.mark.parametrize("gens", AXIS_STRUCTURES + [(2,), (2,) * 3, (2,) * 8, (2,) * 9, (3, 5, 2, 4)])
    def test_character_rows_bitwise_equal_to_columns(self, gens):
        # Blocks of consecutive indices of every height, one row included,
        # against the table oracle, which skips the zero digits that the
        # rows multiply by 1 + 0j.
        vs = VilenkinStructure.from_m(gens)
        columns = [character_column(n, vs).tobytes() for n in range(vs.size)]
        for count in (1, 2, 3, 7, 64, vs.size):
            for first in range(0, vs.size, count):
                rows = character_rows(np.arange(first, min(first + count, vs.size)), vs)
                assert [row.tobytes() for row in rows] == columns[first : first + count]

    @pytest.mark.parametrize("gens", [(7, 3), (2, 3, 2, 3), (3, 5, 2, 4), (2,), (2,) * 3, (2,) * 8, (2,) * 9])
    def test_character_rows_of_any_index_array(self, gens):
        # Unsorted, repeated and strided index arrays give the oracle's row
        # for each entry, in the order given.
        vs = VilenkinStructure.from_m(gens)
        rng = np.random.default_rng(vs.size)
        for idx in (
            rng.permutation(vs.size),
            rng.integers(vs.size, size=2 * vs.size),
            np.array([vs.size - 1] * 3 + [0, 0]),
            np.arange(vs.size)[::-3],
            np.arange(vs.size)[1::5],
        ):
            rows = character_rows(idx, vs)
            assert rows.shape == (len(idx), vs.size)
            assert [row.tobytes() for row in rows] == [character_column(int(n), vs).tobytes() for n in idx]

    def test_walsh_rows_at_criterion_4_size(self):
        # Walsh 2^16: n = 2^k - 1 meets cells with every popcount 0..k of
        # n AND the bit-reversed cell, so every power of the root is read.
        vs = VilenkinStructure.from_pattern((2,), 16)
        rng = np.random.default_rng(16)
        idx = np.concatenate([2 ** np.arange(17) - 1, rng.integers(vs.size, size=4)])
        rows = character_rows(idx, vs)
        for n, row in zip(idx, rows):
            assert row.tobytes() == character_column(int(n), vs).tobytes()

    def test_character_rows_range_validation(self, mixed2323):
        for idx in ([], [-1], [0, 36], [3, 40, 2], [-5, 7]):
            with pytest.raises(ResolutionError):
                character_rows(np.array(idx, dtype=np.int64), mixed2323)

    @pytest.mark.parametrize("gens", AXIS_STRUCTURES)
    def test_rademacher_column_bitwise_equal_to_digit_table(self, gens):
        vs = VilenkinStructure.from_m(gens)
        for k in range(vs.N):
            expected = root_tables(vs)[k][cell_digit_table(vs)[k]]
            assert rademacher_column(k, vs).tobytes() == expected.tobytes()

    # naive_analyze conjugates its character blocks in place and the Fejer
    # sweep multiplies them in place, so no row may view a cached table
    @pytest.mark.parametrize("gens", [(5,), (2, 3, 2, 3), (2,) * 6])
    def test_columns_are_fresh_writable_arrays(self, gens):
        vs = VilenkinStructure.from_m(gens)
        for make, arg in ((self.row, vs.size - 1), (self.row, 0), (rademacher_column, vs.N - 1)):
            col = make(arg, vs)
            expected = col.copy()
            assert col.flags.writeable
            assert not any(np.shares_memory(col, t) for t in root_tables(vs))
            col[:] = 0
            assert make(arg, vs).tobytes() == expected.tobytes()


class TestDirichletKernel:
    def test_first_kernel_constant(self, mixed232):
        assert np.abs(dirichlet_kernel(1, mixed232).values - 1).max() < 1e-12

    def test_block_value_on_mixed_structure(self, mixed232):
        # order 6 = M[2]: value 6 on the depth-2 cylinder at zero, else 0
        d6 = dirichlet_kernel(6, mixed232).values
        expected = np.zeros(12)
        expected[:2] = 6.0
        assert np.abs(d6 - expected).max() < 1e-12

    def test_brute_force_character_sum(self, walsh3):
        for n in (2, 3, 5, 7, 8):
            brute = np.zeros(walsh3.size, dtype=np.complex128)
            for k in range(n):
                brute += character_column(k, walsh3)
            assert np.abs(dirichlet_kernel(n, walsh3).values - brute).max() < 1e-12

    def test_value_at_zero_and_integral(self, mixed2323):
        for n in range(1, mixed2323.size + 1):
            kernel = dirichlet_kernel(n, mixed2323)
            assert kernel.values[0] == pytest.approx(n)
            assert kernel.values.mean() == pytest.approx(1)

    def test_closed_form_at_scale_orders(self, mixed2323, walsh6):
        for vs in (mixed2323, walsh6):
            for j in range(vs.N + 1):
                kernel = dirichlet_kernel(vs.M[j], vs)
                expected = np.zeros(vs.size)
                expected[: vs.size // vs.M[j]] = vs.M[j]
                assert np.abs(kernel.values - expected).max() < 1e-12

    def test_shift_identity(self, mixed2323):
        # D_{M[n] + j} = D_{M[n]} + character(M[n]) * D_j for j <= M[n]
        vs = mixed2323
        for n in range(1, vs.N):
            psi = character_column(vs.M[n], vs)
            base = dirichlet_kernel(vs.M[n], vs).values
            for j in range(1, vs.M[n] + 1):
                lhs = dirichlet_kernel(vs.M[n] + j, vs).values
                rhs = base + psi * dirichlet_kernel(j, vs).values
                assert np.abs(lhs - rhs).max() < 1e-12

    def test_order_bounds(self, mixed232):
        for kernel in (dirichlet_kernel, fejer_kernel):
            with pytest.raises(ValueError):
                kernel(0, mixed232)
            with pytest.raises(ResolutionError):
                kernel(13, mixed232)


class TestFejerKernel:
    def test_first_kernel_constant(self, mixed232):
        assert np.abs(fejer_kernel(1, mixed232).values - 1).max() < 1e-12

    def test_value_at_zero(self, walsh6):
        assert fejer_kernel(2, walsh6).values[0] == pytest.approx(1.5)
        for n in (1, 3, 7, 20, 64):
            assert fejer_kernel(n, walsh6).values[0] == pytest.approx((n + 1) / 2)

    def test_brute_force_average_of_dirichlet(self, walsh3):
        n = 5
        brute = np.zeros(walsh3.size, dtype=np.complex128)
        for k in range(1, n + 1):
            brute += dirichlet_kernel(k, walsh3).values
        brute /= n
        assert np.abs(fejer_kernel(n, walsh3).values - brute).max() < 1e-12

    def test_integral_one(self, mixed2323):
        for n in (1, 2, 5, 17, 36):
            assert fejer_kernel(n, mixed2323).values.mean() == pytest.approx(1)


class TestLacunaryIndex:
    def test_dyadic_value(self):
        vs = VilenkinStructure.from_pattern((2,), 7)
        assert lacunary_index(3, vs) == 85

    def test_level_zero(self, mixed232):
        assert lacunary_index(0, mixed232) == 1

    def test_mixed_value(self, mixed2323):
        assert lacunary_index(2, mixed2323) == 43

    def test_resolution_guard(self, mixed232):
        with pytest.raises(ResolutionError):
            lacunary_index(2, mixed232)


class TestLowerBoundCatalogue:
    def test_void_below_three(self, mixed2323):
        assert fejer_lower_bound_cells(2, mixed2323) == []

    def test_single_entry_at_three(self):
        vs = VilenkinStructure.from_pattern((2,), 5)
        cat = fejer_lower_bound_cells(3, vs)
        assert len(cat) == 1
        entry = cat[0]
        assert (entry.k, entry.s) == (0, 2)
        assert entry.depth == 5
        assert entry.base == 17  # digits (1, 0, 0, 0, 1)
        assert entry.bound == pytest.approx(4.0)

    def test_enumeration_at_four(self):
        # independent enumeration of the index set and bound values
        vs = VilenkinStructure.from_pattern((2,), 7)
        cat = fejer_lower_bound_cells(4, vs)
        pairs = [(e.k, e.s) for e in cat]
        assert pairs == [(0, 2), (0, 3), (1, 3)]
        expected_bounds = [vs.M[2 * k] * vs.M[2 * s] / 4 for k, s in pairs]
        assert [e.bound for e in cat] == pytest.approx(expected_bounds)
        assert [e.bound for e in cat] == pytest.approx([4.0, 16.0, 64.0])

    def test_catalogue_counts_nonbinary(self):
        vs = VilenkinStructure.from_m((3, 2, 4, 2, 2, 2, 2))
        cat = fejer_lower_bound_cells(3, vs)
        # only (k, s) = (0, 2); digits range over [1, m[0]) x [1, m[4])
        assert len(cat) == (vs.m[0] - 1) * (vs.m[4] - 1)

    def test_bounds_hold_exhaustively(self):
        for level in (3, 4):
            vs = VilenkinStructure.from_pattern((2,), 2 * level - 1)
            check = verify_fejer_lower_bounds(level, vs)
            assert frozen.FEJER_BOUND_MARGIN_MIN.passes(check.worst_margin)

    def test_bounds_hold_on_mixed_structure(self):
        vs = VilenkinStructure.from_m((2, 3, 2, 3, 2))
        check = verify_fejer_lower_bounds(3, vs)
        assert frozen.FEJER_BOUND_MARGIN_MIN.passes(check.worst_margin)

    def test_substituted_catalogue_can_fail(self):
        # a catalogue asking for more than the kernel gives on one cylinder
        vs = VilenkinStructure.from_pattern((2,), 5)
        cat = fejer_lower_bound_cells(3, vs)
        margin = verify_fejer_lower_bounds(3, vs, catalogue=cat[:1]).worst_margin
        raised = [replace(cat[0], bound=cat[0].bound + margin + 1.0)]
        check = verify_fejer_lower_bounds(3, vs, catalogue=raised)
        assert not frozen.FEJER_BOUND_MARGIN_MIN.passes(check.worst_margin)
        assert check.worst_margin == pytest.approx(-1.0)
        assert check.entries == 1 and check.cells_checked == len(cat[0].cells)

    @pytest.mark.parametrize(
        "gens, level",
        [((2,) * 5, 3), ((2,) * 7, 4), ((3, 2, 4, 2, 3), 3), ((2, 3, 2, 3, 2, 3, 2), 4)],
        ids=["walsh5", "walsh7", "3x2x4x2x3", "2x3x2x3x2x3x2"],
    )
    def test_cells_match_digit_vector_model(self, gens, level):
        # each entry's base cell and range, rebuilt from its two basis points
        vs = VilenkinStructure.from_m(gens)
        cat = fejer_lower_bound_cells(level, vs)
        assert cat
        for e in cat:
            x = add_points(basis_point(2 * e.k, e.digit_low, vs), basis_point(2 * e.s, e.digit_high, vs), vs)
            assert cell_to_point(e.base, vs) == x
            assert e.cells == point_cylinder_cells(x, e.depth, vs)
