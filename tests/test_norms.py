from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vilenkin_lab.kernels import dirichlet_kernel
from vilenkin_lab.norms import (
    REPORT_LEVELS,
    AtomicDecomposition,
    _weak_level_scan,
    CylinderInterval,
    hardy_norm,
    lp_quasinorm,
    modulus_of_continuity,
    norm_report,
    validate_atom,
    weak_lp_quasinorm,
)
from vilenkin_lab.rng import XorShift64Star
from vilenkin_lab.structure import VilenkinStructure
from vilenkin_lab.transform import Spectrum, StepFunction, analyze, synthesize

from group_oracles import assemble_from_atoms, character_column


@pytest.fixture(scope="module")
def walsh4():
    return VilenkinStructure.from_pattern((2,), 4)


def block_function(vs):
    # 4 on the depth-2 cylinder at zero, 0 elsewhere
    values = np.zeros(vs.size)
    values[: vs.size // 4] = 4.0
    return StepFunction(vs, values)


class TestLpQuasinorm:
    def test_constant(self, mixed2323):
        f = StepFunction(mixed2323, np.full(mixed2323.size, -2.0 + 0j))
        for p in (0.25, 0.5, 1.0, 2.0):
            assert lp_quasinorm(f, p) == pytest.approx(2.0)

    def test_single_block_half_exponent(self, walsh4):
        assert lp_quasinorm(block_function(walsh4), 0.5) == pytest.approx(0.25)

    def test_characters_are_unimodular(self, mixed2323):
        for n in (1, 7, 20):
            f = StepFunction(mixed2323, character_column(n, mixed2323))
            for p in (0.25, 1.0, 3.0):
                assert lp_quasinorm(f, p) == pytest.approx(1.0)

    def test_invalid_exponent(self, mixed232):
        f = StepFunction(mixed232, np.ones(12))
        with pytest.raises(ValueError):
            lp_quasinorm(f, 0.0)

    @settings(derandomize=True, max_examples=40)
    @given(st.integers(min_value=0, max_value=10**6), st.sampled_from([0.25, 0.5, 1.0]))
    def test_quasi_triangle_inequality(self, seed, p):
        vs = VilenkinStructure.from_pattern((2,), 4)
        rng = XorShift64Star(seed + 1)
        f = StepFunction(vs, rng.complex_uniforms(vs.size))
        g = StepFunction(vs, rng.complex_uniforms(vs.size))
        lhs = lp_quasinorm(f + g, p) ** p
        rhs = lp_quasinorm(f, p) ** p + lp_quasinorm(g, p) ** p
        assert lhs <= rhs + 1e-10


class TestWeakQuasinorm:
    def test_constant_both_forms(self, mixed2323):
        f = StepFunction(mixed2323, np.full(mixed2323.size, 3.0 + 0j))
        assert weak_lp_quasinorm(f, 0.5, form="p_power") == pytest.approx(3.0**0.5)
        assert weak_lp_quasinorm(f, 0.5, form="root") == pytest.approx(3.0)

    def test_single_block_level_scan(self, walsh4):
        # two-level distribution: best of 4^p * (1/4) over the achieved levels
        f = block_function(walsh4)
        assert weak_lp_quasinorm(f, 0.5, form="p_power") == pytest.approx(0.5)
        assert weak_lp_quasinorm(f, 0.5, form="root") == pytest.approx(0.25)

    def test_root_form_below_lp(self, mixed2323):
        for seed in range(10):
            f = StepFunction(mixed2323, XorShift64Star(seed + 9).complex_uniforms(36))
            for p in (0.25, 0.5, 1.0):
                assert weak_lp_quasinorm(f, p) <= lp_quasinorm(f, p) + 1e-12

    def test_matches_brute_force_over_levels(self, walsh4):
        f = StepFunction(walsh4, XorShift64Star(77).complex_uniforms(walsh4.size))
        mags = np.abs(f.values)
        brute = max(
            v**0.25 * np.mean(mags >= v) for v in np.unique(mags) if v > 0
        )
        assert weak_lp_quasinorm(f, 0.25, form="p_power") == pytest.approx(brute)

    def test_unknown_form(self, mixed232):
        with pytest.raises(ValueError):
            weak_lp_quasinorm(StepFunction(mixed232, np.ones(12)), 0.5, form="median")

    def test_level_scan_dominates_dense_lambda_grid(self, walsh4):
        # the supremum over a fine grid of strict-inequality evaluations can
        # approach but never exceed the level-scan value
        f = StepFunction(walsh4, XorShift64Star(123).complex_uniforms(walsh4.size))
        mags = np.abs(f.values)
        exact = weak_lp_quasinorm(f, 0.25, form="p_power")
        grid = np.linspace(1e-9, mags.max() * 1.001, 4000)
        brute = max(lam**0.25 * np.mean(mags > lam) for lam in grid)
        assert brute <= exact + 1e-12
        assert brute > 0.98 * exact


def loop_weak_level_scan(f, p):
    # the level-by-level scan the vectorised one replaced, kept as its oracle
    mags = np.abs(f.values)
    ordered = np.sort(mags)
    levels = np.unique(ordered)
    best = 0.0
    profile = []
    size = len(mags)
    for v in levels[::-1]:
        if v <= 0:
            continue
        measure = (size - np.searchsorted(ordered, v, side="left")) / size
        profile.append((float(v), float(measure)))
        best = max(best, float(v**p * measure))
    return best, profile


def single_nonzero_values(size, p):
    # one nonzero cell whose magnitude, if this machine's array power rounds
    # any of a few thousand magnitudes differently from the scalar power, is
    # one such magnitude
    mags = np.abs(XorShift64Star(17).complex_uniforms(4096))
    differs = [v for v in mags if (np.array([v]) ** p)[0] != v**p]
    values = np.zeros(size, dtype=np.complex128)
    values[size // 3] = differs[0] if differs else mags[0]
    return values


def weak_scan_inputs(vs, p):
    size = vs.size
    rng = XorShift64Star(2718)
    tied = np.zeros(size, dtype=np.complex128)
    tied[: size // 4] = 4.0  # at p = 1/2, 4^p * 1/4 == 1^p * 1/2: a tie
    tied[size // 4 : size // 2] = -1.0
    return {
        "random": rng.complex_uniforms(size),
        "few-magnitudes": np.array([1, 2, 3, 0, 1j, -2])[np.arange(size) * 7 % 6],
        "tied": tied,
        "all-zero": np.zeros(size, dtype=np.complex128),
        "all-equal": np.full(size, 3.0 - 4.0j),
        "single-nonzero": single_nonzero_values(size, p),
    }


class TestWeakLevelScan:
    @pytest.mark.parametrize("p", [0.25, 1 / 3, 0.5, 1.0])
    def test_matches_level_loop(self, p):
        vs = VilenkinStructure.from_m((2, 3, 4, 5, 2, 3))
        for name, values in weak_scan_inputs(vs, p).items():
            f = StepFunction(vs, values)
            best, levels, measure = _weak_level_scan(f, p)
            oracle_best, oracle_profile = loop_weak_level_scan(f, p)
            assert type(best) is float, name
            assert best.hex() == oracle_best.hex(), name
            assert list(zip(levels.tolist(), measure.tolist())) == oracle_profile, name
            report = norm_report(f, p)
            assert report.weak_p_power.hex() == oracle_best.hex(), name
            assert report.levels == tuple(oracle_profile[:REPORT_LEVELS]), name

    @pytest.mark.parametrize("value", [0.0, 2.5, -1j])
    def test_single_cell_matches_level_loop(self, value):
        # The run-start mask on one cell; the scan reads only f.values.
        f = SimpleNamespace(values=np.array([value], dtype=np.complex128))
        best, levels, measure = _weak_level_scan(f, 0.5)
        oracle_best, oracle_profile = loop_weak_level_scan(f, 0.5)
        assert best.hex() == oracle_best.hex()
        assert list(zip(levels.tolist(), measure.tolist())) == oracle_profile


class TestHardyNorm:
    def test_constant(self, mixed2323):
        coeffs = np.zeros(mixed2323.size, dtype=np.complex128)
        coeffs[0] = 2.0
        assert hardy_norm(Spectrum(mixed2323, coeffs), 0.5) == pytest.approx(2.0)

    def test_single_walsh_character(self, walsh4):
        coeffs = np.zeros(walsh4.size, dtype=np.complex128)
        coeffs[1] = 1.0
        assert hardy_norm(Spectrum(walsh4, coeffs), 0.5) == pytest.approx(1.0)

    def test_dominates_lp(self, mixed2323):
        for seed in range(5):
            s = Spectrum(mixed2323, XorShift64Star(seed + 40).complex_uniforms(36))
            f = synthesize(s)
            for p in (0.25, 0.5, 1.0):
                assert hardy_norm(s, p) >= lp_quasinorm(f, p) - 1e-12


class TestModulus:
    def test_vanishes_when_band_limited(self, walsh4):
        coeffs = np.zeros(walsh4.size, dtype=np.complex128)
        coeffs[:4] = 1.0
        s = Spectrum(walsh4, coeffs)
        assert modulus_of_continuity(s, 2, 0.5) == pytest.approx(0.0)
        assert modulus_of_continuity(s, walsh4.N, 0.5) == pytest.approx(0.0)

    def test_level_zero_removes_mean(self, walsh4):
        s = Spectrum(walsh4, XorShift64Star(81).complex_uniforms(walsh4.size))
        tail = s.coeffs.copy()
        tail[0] = 0.0
        expected = hardy_norm(Spectrum(walsh4, tail), 0.5)
        assert modulus_of_continuity(s, 0, 0.5) == pytest.approx(expected)

    def test_matches_explicit_partial_sum_route(self, walsh4):
        # independent route: max over levels of |S_{M[l]} tail| via explicit
        # partial sums, then the plain quasinorm of that maximum
        from vilenkin_lab.transform import partial_sum

        s = Spectrum(walsh4, XorShift64Star(83).complex_uniforms(walsh4.size))
        p, level = 0.25, 1
        tail = s.coeffs.copy()
        tail[: walsh4.M[level]] = 0.0
        ts = Spectrum(walsh4, tail)
        stack = np.stack(
            [np.abs(partial_sum(ts, walsh4.M[l]).values) for l in range(walsh4.N + 1)]
        )
        oracle = lp_quasinorm(StepFunction(walsh4, stack.max(axis=0)), p)
        assert modulus_of_continuity(s, level, p) == pytest.approx(oracle, rel=1e-10)

    def test_tail_support_shrinks(self, walsh4):
        s = Spectrum(walsh4, XorShift64Star(82).complex_uniforms(walsh4.size))
        supports = []
        for level in range(walsh4.N + 1):
            tail = s.coeffs.copy()
            tail[: walsh4.M[level]] = 0.0
            supports.append(int(np.count_nonzero(tail)))
        assert all(a >= b for a, b in zip(supports, supports[1:]))
        assert supports[-1] == 0


class TestAtoms:
    def test_kernel_difference_atom(self, walsh4):
        # 4 * (D_4 - D_2): 8 on the depth-2 cylinder, -8 on the rest of
        # the depth-1 cylinder; a valid 1/4-atom on that interval
        a = 4.0 * (dirichlet_kernel(4, walsh4) - dirichlet_kernel(2, walsh4))
        interval = CylinderInterval(0, 1)
        cert = validate_atom(a, 0.25, interval)
        assert cert.valid
        assert cert.sup_ratio == pytest.approx(0.5)
        width = walsh4.size // 4
        assert np.abs(a.values[:width] - 8.0).max() < 1e-12
        assert np.abs(a.values[width : 2 * width] + 8.0).max() < 1e-12

    def test_atom_just_over_the_sup_bound_fails(self, walsh4):
        # 8 * (D_4 - D_2) has sup 16 = measure(I)^{-4} on the depth-1
        # cylinder, so it sits on the bound; 1e-9 more is past the slack
        a = 8.0 * (dirichlet_kernel(4, walsh4) - dirichlet_kernel(2, walsh4))
        interval = CylinderInterval(0, 1)
        cert = validate_atom(a, 0.25, interval)
        assert cert.sup_ratio == 1.0 and cert.valid
        over = validate_atom((1.0 + 1e-9) * a, 0.25, interval)
        assert over.sup_ratio == pytest.approx(1.000000001, rel=1e-15)
        assert not over.sup_ok and not over.valid

    def test_zero_function_is_degenerate_atom(self, walsh4):
        a = StepFunction(walsh4, np.zeros(walsh4.size))
        cert = validate_atom(a, 0.5, CylinderInterval(0, 2))
        assert cert.valid

    def test_constant_fails_zero_mean(self, walsh4):
        a = StepFunction(walsh4, np.ones(walsh4.size))
        cert = validate_atom(a, 0.5, CylinderInterval(0, 0))
        assert not cert.zero_mean_ok
        assert not cert.valid

    def test_oversized_supremum_fails(self, walsh4):
        values = np.zeros(walsh4.size)
        width = walsh4.size // 2
        values[:width] = 5.0
        values[width : 2 * width] = -5.0
        a = StepFunction(walsh4, values)  # sup 5 > measure(I_0)^{-2} = 1
        cert = validate_atom(a, 0.5, CylinderInterval(0, 0))
        assert not cert.sup_ok

    def test_support_leak_fails(self, walsh4):
        values = np.zeros(walsh4.size)
        values[0] = 1.0
        values[-1] = -1.0
        a = StepFunction(walsh4, values)
        cert = validate_atom(a, 0.5, CylinderInterval(0, 1))
        assert not cert.support_ok


class TestAssembly:
    def test_single_atom_top_level(self, walsh4):
        a = 4.0 * (dirichlet_kernel(4, walsh4) - dirichlet_kernel(2, walsh4))
        d = AtomicDecomposition((1.0,), (a,), 0.25,
                                (CylinderInterval(0, 1),))
        out = assemble_from_atoms(d, walsh4.N)
        assert np.abs(out.values - a.values).max() < 1e-10
        assert validate_atom(a, d.p, d.intervals[0]).valid

    def test_empty_decomposition_raises(self):
        d = AtomicDecomposition((), (), 0.5)
        with pytest.raises(ValueError):
            assemble_from_atoms(d, 2)  # no structure to build on

    def test_hardy_norm_controlled_by_estimate(self, walsh4):
        # measured equivalence ratio on a two-atom assembly stays modest
        a1 = 4.0 * (dirichlet_kernel(4, walsh4) - dirichlet_kernel(2, walsh4))
        a2 = 0.5 * (dirichlet_kernel(2, walsh4) - dirichlet_kernel(1, walsh4))
        d = AtomicDecomposition((1.0, 0.25), (a1, a2), 0.25)
        out = assemble_from_atoms(d, walsh4.N)
        # (sum |mu_k|^p)^(1/p), the scale the Hardy norm is compared to
        estimate = sum(abs(c) ** d.p for c in d.coefficients) ** (1.0 / d.p)
        ratio = hardy_norm(analyze(out), 0.25) / estimate
        assert 0 < ratio < 4


class TestNormReport:
    def test_fields_consistent(self, walsh4):
        f = StepFunction(walsh4, XorShift64Star(90).complex_uniforms(walsh4.size))
        report = norm_report(f, 0.5)
        assert report.weak_root == pytest.approx(report.weak_p_power ** 2)
        assert report.weak_root <= report.lp + 1e-12
        assert report.hardy is not None and report.hardy >= report.lp - 1e-12
        assert report.p == 0.5
        assert len(report.levels) <= 16
