import numpy as np
import pytest

from vilenkin_lab.errors import CapacityError
from vilenkin_lab.kernels import dirichlet_kernel, lacunary_index
from vilenkin_lab.counterexamples import (
    block_gap_norm,
    build_critical_example,
    build_sparse_critical_example,
    critical_atom,
    kernel_halfnorm_scan,
    modulus_ratio_report,
    sparse_divergence_statistic,
    sparse_modulus_ratio_report,
    weak_divergence_statistic,
)
from vilenkin_lab.norms import modulus_of_continuity, validate_atom, weak_lp_quasinorm
from vilenkin_lab.structure import VilenkinStructure, character_column
from vilenkin_lab.transform import Spectrum, analyze, fejer_mean, partial_sum, synthesize

from group_oracles import assemble_from_atoms, condexp


@pytest.fixture(scope="module")
def walsh5():
    return VilenkinStructure.from_pattern((2,), 5)


@pytest.fixture(scope="module")
def dense_small(walsh5):
    # depth 3 on a 32-cell dyadic structure: blocks [1,2), [2,4), [4,8), [8,16)
    return build_critical_example(0.25, 3, walsh5)


@pytest.fixture(scope="module")
def sparse_small(walsh5):
    # depth 1 needs resolution 2*M[1] + 1 = 5
    return build_sparse_critical_example(1, walsh5)


class TestDenseConstruction:
    def test_coefficient_blocks(self, dense_small):
        vs = dense_small.vs
        coeffs = dense_small.spectrum.coeffs
        assert coeffs[0] == 0
        for i in range(4):
            block = coeffs[vs.M[i] : vs.M[i + 1]]
            assert np.abs(block - vs.M[i]).max() == 0
        assert np.abs(coeffs[vs.M[4] :]).max() == 0

    def test_block_value_example(self):
        vs = VilenkinStructure.from_pattern((2,), 4)
        ex = build_critical_example(0.25, 2, vs)
        assert ex.spectrum.coeffs[5] == pytest.approx(4.0)  # 5 sits in [4, 8)

    def test_mixed_structure_blocks(self):
        vs = VilenkinStructure.from_m((2, 3, 2, 3))
        ex = build_critical_example(0.25, 2, vs)
        coeffs = ex.spectrum.coeffs
        assert coeffs[1] == pytest.approx(1.0)
        assert np.abs(coeffs[2:6] - 2.0).max() == 0
        assert np.abs(coeffs[6:12] - 6.0).max() == 0
        assert np.abs(coeffs[12:]).max() == 0

    def test_depth_zero_single_atom(self, walsh5):
        ex = build_critical_example(0.25, 0, walsh5)
        coeffs = ex.spectrum.coeffs
        assert coeffs[0] == 0
        assert coeffs[1] == pytest.approx(1.0)
        assert np.abs(coeffs[2:]).max() == 0

    def test_spectrum_independent_of_exponent(self, walsh5):
        a = build_critical_example(0.25, 3, walsh5).spectrum.coeffs
        b = build_critical_example(1 / 3, 3, walsh5).spectrum.coeffs
        assert np.abs(a - b).max() == 0

    def test_spectrum_matches_atom_assembly_route(self, dense_small):
        # sum of weight * analyze(atom) must reproduce the exact block fill
        d = dense_small.decomposition
        total = np.zeros(dense_small.vs.size, dtype=np.complex128)
        for mu, atom in zip(d.coefficients, d.atoms):
            total += mu * analyze(atom).coeffs
        assert np.abs(total - dense_small.spectrum.coeffs).max() < 1e-10

    def test_exponent_range(self, walsh5):
        with pytest.raises(ValueError):
            build_critical_example(0.5, 2, walsh5)
        with pytest.raises(CapacityError):
            build_critical_example(0.25, 5, walsh5)
        # past the end of the scale table: still the capacity error
        with pytest.raises(CapacityError, match="resolution >= 7"):
            build_critical_example(0.25, 6, walsh5)
        with pytest.raises(ValueError, match="depth must be >= 0"):
            build_critical_example(0.25, -1, walsh5)


class TestDenseAtoms:
    def test_atom_values_dyadic_example(self, walsh5):
        a = critical_atom(1, 0.25, walsh5)
        width = walsh5.size // 4
        assert np.abs(a.values[:width] - 8.0).max() < 1e-12
        assert np.abs(a.values[width : 2 * width] + 8.0).max() < 1e-12
        assert np.abs(a.values[2 * width :]).max() < 1e-12

    def test_atoms_have_zero_mean(self, dense_small):
        for atom in dense_small.decomposition.atoms:
            assert abs(atom.values.mean()) < 1e-12

    def test_atom_spectrum_is_block_indicator(self, walsh5):
        k, p = 2, 0.25
        a = critical_atom(k, p, walsh5)
        coeffs = analyze(a).coeffs
        scale = walsh5.M[k] ** (1.0 / p - 1.0) / walsh5.lam
        expected = np.zeros(walsh5.size, dtype=np.complex128)
        expected[walsh5.M[k] : walsh5.M[k + 1]] = scale
        assert np.abs(coeffs - expected).max() < 1e-10

    def test_atoms_certify(self, dense_small):
        d = dense_small.decomposition
        for atom, interval in zip(d.atoms, d.intervals):
            assert validate_atom(atom, d.p, interval).valid


class TestDenseMartingaleStructure:
    def test_levels_match_atom_assembly(self, dense_small):
        # the level-n conditional expectation equals the assembled partial
        # sums of the atoms (higher atoms drop out automatically)
        for level in range(dense_small.vs.N + 1):
            via_levels = condexp(dense_small.spectrum, level).values
            via_atoms = assemble_from_atoms(dense_small.decomposition, level)
            assert np.abs(via_levels - via_atoms.values).max() < 1e-10

    def test_modulus_vanishes_only_past_truncation(self, dense_small):
        # tail keeps block depth while level <= depth; empties at depth + 1
        assert modulus_of_continuity(dense_small.spectrum, dense_small.depth, 0.25) > 0
        assert modulus_of_continuity(
            dense_small.spectrum, dense_small.depth + 1, 0.25
        ) == pytest.approx(0.0)

    def test_dominant_term_of_gap(self, dense_small):
        # S_{M[k]+1} - S_{M[k]} picks out exactly M[k] * character(M[k])
        vs = dense_small.vs
        for k in (1, 2):
            diff = (
                partial_sum(dense_small.spectrum, vs.M[k] + 1).values
                - partial_sum(dense_small.spectrum, vs.M[k]).values
            )
            expected = vs.M[k] * character_column(vs.M[k], vs)
            assert np.abs(diff - expected).max() < 1e-10


class TestDenseReports:
    def test_modulus_rows(self, dense_small):
        rows = modulus_ratio_report(dense_small, [1, 2])
        for row in rows:
            assert row.omega > 0
            assert row.ratio == pytest.approx(row.omega / row.bound)
            assert row.ratio_power == pytest.approx(row.ratio**0.25)

    def test_divergence_forms(self, dense_small):
        # the statistic is the p-powered weak quasinorm of the Fejer gap at M[k] + 1
        vs = dense_small.vs
        for k in (1, 2):
            gap = fejer_mean(dense_small.spectrum, vs.M[k] + 1) - synthesize(dense_small.spectrum)
            power = weak_divergence_statistic(dense_small, k)
            assert power == weak_lp_quasinorm(gap, 0.25, "p_power")
            assert power ** (1 / 0.25) == weak_lp_quasinorm(gap, 0.25)
            assert power > 0

    def test_divergence_scale_guard(self, dense_small):
        with pytest.raises(ValueError):
            weak_divergence_statistic(dense_small, dense_small.depth)

    def test_companion_gap_positive(self, dense_small):
        assert block_gap_norm(dense_small, 2) > 0


class TestSparseConstruction:
    def test_coefficient_blocks(self, sparse_small):
        vs = sparse_small.vs
        coeffs = sparse_small.spectrum.coeffs
        assert np.abs(coeffs[:16]).max() == 0
        assert np.abs(coeffs[16:32] - 4.0).max() == 0  # M[4] / M[1]^2

    def test_second_scale_blocks(self):
        vs = VilenkinStructure.from_pattern((2,), 9)
        ex = build_sparse_critical_example(2, vs)
        coeffs = ex.spectrum.coeffs
        assert np.abs(coeffs[16:32] - 4.0).max() == 0
        assert np.abs(coeffs[256:512] - 16.0).max() == 0  # M[8] / M[2]^2
        assert np.abs(coeffs[32:256]).max() == 0

    def test_capacity_error_names_requirement(self):
        vs = VilenkinStructure.from_pattern((2,), 8)
        with pytest.raises(CapacityError, match="resolution >= 9"):
            build_sparse_critical_example(2, vs)
        with pytest.raises(CapacityError, match="scale table too short"):
            build_sparse_critical_example(9, vs)
        with pytest.raises(ValueError):
            build_sparse_critical_example(0, vs)

    def test_atom_certifies_at_half_exponent(self, sparse_small):
        d = sparse_small.decomposition
        for atom, interval in zip(d.atoms, d.intervals):
            cert = validate_atom(atom, 0.5, interval)
            assert cert.valid

    def test_atom_spectrum_block(self, walsh5):
        a = critical_atom(2 * walsh5.M[1], 0.5, walsh5)
        coeffs = analyze(a).coeffs
        expected = np.zeros(walsh5.size, dtype=np.complex128)
        expected[16:32] = 8.0  # M[4] / lam
        assert np.abs(coeffs - expected).max() < 1e-10


class TestSparseIdentities:
    def test_partial_sums_factor_through_kernel(self, sparse_small):
        # for orders j in the populated block, the partial sum beyond the
        # block start is the modulated Dirichlet kernel of the overhang
        vs = sparse_small.vs
        base = partial_sum(sparse_small.spectrum, 16).values
        psi = character_column(16, vs)
        for j in range(17, lacunary_index(vs.M[1], vs) + 1):
            lhs = partial_sum(sparse_small.spectrum, j).values
            rhs = base + 4.0 * psi * dirichlet_kernel(j - 16, vs).values
            assert np.abs(lhs - rhs).max() < 1e-10

    def test_gap_reconstruction_from_four_terms(self, sparse_small):
        # the lacunary Fejer gap splits into mean, overhang, and two
        # multiples of the function itself
        vs = sparse_small.vs
        q = lacunary_index(vs.M[1], vs)        # 21
        q_prev = lacunary_index(vs.M[1] - 1, vs)  # 5
        block = vs.M[2 * vs.M[1]]              # 16
        assert block + q_prev == q
        f = sparse_small.function()
        spec = sparse_small.spectrum
        direct = (fejer_mean(spec, q) - f).values

        overhang = np.zeros(vs.size, dtype=np.complex128)
        for j in range(block + 1, q + 1):
            overhang += partial_sum(spec, j).values
        reconstructed = (
            block * fejer_mean(spec, block).values / q
            + overhang / q
            - block * f.values / q
            - q_prev * f.values / q
        )
        assert np.abs(direct - reconstructed).max() < 1e-10

    def test_divergence_statistic_positive(self, sparse_small):
        assert sparse_divergence_statistic(sparse_small, 1) > 0

    def test_divergence_scale_guard(self):
        vs = VilenkinStructure.from_pattern((2,), 9)
        ex = build_sparse_critical_example(2, vs)
        with pytest.raises(ValueError):
            sparse_divergence_statistic(ex, 3)
        # every in-range scale fits by construction: the build requirement
        # already reserves room for the largest lacunary order
        assert lacunary_index(vs.M[2], vs) <= vs.size

    def test_modulus_report_staircase(self, sparse_small):
        rows = sparse_modulus_ratio_report(sparse_small, [1, 2, 3, 4, 5])
        omegas = [r.omega for r in rows]
        assert omegas[0] > 0
        # single-block tail: constant until the block is swallowed at n = 5
        assert omegas[0] == pytest.approx(omegas[3])
        assert omegas[4] == pytest.approx(0.0)


class TestCalibrationRegression:
    """Freeze the gate-facing statistics at reference scale so silent
    algorithm changes surface as diffs rather than as gate drift."""

    def test_dense_reference_values(self):
        vs = VilenkinStructure.from_pattern((2,), 11)
        ex = build_critical_example(0.25, 10, vs)
        assert weak_divergence_statistic(ex, 3) == pytest.approx(0.7630223378, rel=1e-6)
        assert weak_divergence_statistic(ex, 8) == pytest.approx(0.8786019770, rel=1e-6)
        rows = modulus_ratio_report(ex, [1, 8])
        assert rows[0].ratio == pytest.approx(6.2065, rel=1e-3)
        assert rows[1].ratio == pytest.approx(3.1842, rel=1e-3)

    def test_sparse_reference_values(self):
        vs = VilenkinStructure.from_pattern((2,), 17)
        ex = build_sparse_critical_example(3, vs)
        assert sparse_divergence_statistic(ex, 1) == pytest.approx(2.5894, rel=1e-3)
        assert sparse_divergence_statistic(ex, 3) == pytest.approx(1.4310, rel=1e-3)
        rows = sparse_modulus_ratio_report(ex, [8, 16])
        assert rows[0].ratio == pytest.approx(8.9532, rel=1e-3)
        # exact-arithmetic value is 4; the float route adds ~1e-5 of
        # half-power-amplified synthesis residue on the zero cells
        assert rows[1].ratio == pytest.approx(4.0, rel=1e-4)

    def test_kernel_scan_reference_values(self):
        vs = VilenkinStructure.from_pattern((2,), 15)
        rows = kernel_halfnorm_scan([2, 7], vs)
        assert rows[0].halfnorm == pytest.approx(3.2456, rel=1e-3)
        assert rows[1].halfnorm == pytest.approx(10.1558, rel=1e-3)


class TestMixedStructureSupport:
    def test_reports_finite_on_nonbinary_generators(self):
        vs = VilenkinStructure.from_m((2, 3, 2, 3, 2, 3))
        ex = build_critical_example(0.25, 4, vs)
        stat = weak_divergence_statistic(ex, 2)
        assert np.isfinite(stat) and stat > 0
        rows = modulus_ratio_report(ex, [1, 2, 3])
        assert all(np.isfinite(r.ratio) and r.ratio > 0 for r in rows)


class TestKernelScan:
    def test_rows_positive_and_ratio(self, walsh5):
        rows = kernel_halfnorm_scan([1, 2], walsh5)
        for row in rows:
            assert row.halfnorm > 0
            assert row.ratio == pytest.approx(row.halfnorm / max(row.level, 1))

    def test_capacity_guard(self, walsh5):
        with pytest.raises(Exception):
            kernel_halfnorm_scan([3], walsh5)  # needs M table past resolution 5
