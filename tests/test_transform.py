import tracemalloc

import numpy as np
import pytest

from vilenkin_lab import transform
from vilenkin_lab.errors import ResolutionError
from vilenkin_lab.kernels import dirichlet_kernel, fejer_kernel
from vilenkin_lab.rng import XorShift64Star
from vilenkin_lab.structure import VilenkinStructure, cell_digit_table, character_column
from vilenkin_lab.transform import (
    FejerWeight,
    Spectrum,
    StepFunction,
    _block_maximum,
    _run_stages,
    _stage_matrices,
    analyze,
    fejer_mean,
    iter_fejer_means,
    maximal_function,
    naive_analyze,
    partial_sum,
    synthesize,
    weighted_maximal_fejer,
)

from group_oracles import condexp, convolve, naive_synthesize


def random_function(vs, seed):
    return StepFunction(vs, XorShift64Star(seed).complex_uniforms(vs.size))


def random_spectrum(vs, seed):
    return Spectrum(vs, XorShift64Star(seed).complex_uniforms(vs.size))


def dense_block_values(vs):
    # Integer value M[i] on [M[i], M[i+1]): the dense block spectrum, whose
    # rounding noise shows any fused multiply-add in a stage.
    out = np.zeros(vs.size, dtype=np.complex128)
    for i in range(vs.N):
        out[vs.M[i] : vs.M[i + 1]] = vs.M[i]
    return out


def einsum_stages(flat, vs, conjugate):
    # One dense einsum per stage, the reference _run_stages must match bitwise.
    mats = _stage_matrices(vs)
    a = flat
    for j in range(vs.N):
        mat = mats[j].conj() if conjugate else mats[j]
        high = vs.M[j]
        mj = vs.m[j]
        low = vs.size // (high * mj)
        a = np.einsum("kd,hdl->hkl", mat, a.reshape(high, mj, low)).reshape(-1)
    return a


class TestAnalyze:
    def test_constant_collapses_to_mean(self, mixed2323):
        f = StepFunction(mixed2323, np.full(mixed2323.size, 2.5 - 1j))
        s = analyze(f)
        assert s.coeffs[0] == pytest.approx(2.5 - 1j)
        assert np.abs(s.coeffs[1:]).max() < 1e-12

    def test_halfgroup_indicator(self):
        vs = VilenkinStructure.from_pattern((2,), 4)
        values = np.zeros(vs.size)
        values[: vs.size // 2] = 1.0
        s = analyze(StepFunction(vs, values))
        assert s.coeffs[0] == pytest.approx(0.5)
        assert s.coeffs[1] == pytest.approx(0.5)
        assert np.abs(s.coeffs[2:]).max() < 1e-12

    @pytest.mark.parametrize(
        "gens", [(2, 3, 2), (2,) * 8, (3, 2, 4, 5), (2, 3, 2, 3), (7, 2), (6,)]
    )
    def test_matches_direct_summation(self, gens):
        vs = VilenkinStructure.from_m(gens)
        f = random_function(vs, 17)
        fast = analyze(f).coeffs
        direct = naive_analyze(f)
        assert np.abs(fast - direct).max() / np.abs(direct).max() < 1e-10

    def test_parseval(self, mixed2323):
        for seed in range(5):
            f = random_function(mixed2323, 100 + seed)
            s = analyze(f)
            lhs = np.mean(np.abs(f.values) ** 2)
            rhs = np.sum(np.abs(s.coeffs) ** 2)
            assert abs(lhs - rhs) / lhs < 1e-10

    def test_orthonormality_small_gram(self, mixed232):
        mat = np.array([character_column(n, mixed232) for n in range(mixed232.size)])
        gram = mat @ mat.conj().T / mixed232.size
        assert np.abs(gram - np.eye(mixed232.size)).max() < 1e-12


class TestCoefficientOrder:
    # The coefficient order is a transpose of the stage output's axes; the
    # digit-table gather/scatter it replaced must give the same bits.

    @staticmethod
    def table_order(vs):
        digits = cell_digit_table(vs)
        return sum(digits[j] * vs.M[j] for j in range(vs.N))

    @pytest.mark.parametrize(
        "gens", [(2,) * 6, (2, 3, 2, 3), (3, 2, 5, 4, 2), (2, 3, 4, 5, 2), (5,), (7, 3)]
    )
    def test_bitwise_equal_to_digit_table_permutation(self, gens):
        vs = VilenkinStructure.from_m(gens)
        order = self.table_order(vs)
        f = random_function(vs, 71)
        coeffs = np.empty(vs.size, dtype=np.complex128)
        coeffs[order] = _run_stages(f.values, vs, conjugate=False)
        assert analyze(f).coeffs.tobytes() == (coeffs / vs.size).tobytes()
        s = random_spectrum(vs, 72)
        values = _run_stages(s.coeffs[order], vs, conjugate=True)
        assert synthesize(s).values.tobytes() == values.tobytes()

    @pytest.mark.parametrize("gens", [(2,) * 16, (3, 4, 5) * 3, (2,) * 17])
    def test_first_analyze_peak_memory(self, gens):
        # A fresh structure builds no per-cell index table: the transient
        # peak stays a small multiple of the array itself.
        vs = VilenkinStructure.from_m(gens)
        f = random_function(vs, 73)
        tracemalloc.start()
        try:
            analyze(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * f.values.nbytes


class TestStageLoop:
    # The radix-2 stages run as tiled butterflies; they must round exactly
    # as the dense einsum stage does.

    @staticmethod
    def assert_matches_einsum(vs, conjugate):
        dense = dense_block_values(vs)
        # -dense carries -0.0 imaginary parts, which einsum returns as +0.0.
        for flat in (random_function(vs, 74).values, dense, -dense):
            before = flat.tobytes()
            got = _run_stages(flat, vs, conjugate)
            assert got.tobytes() == einsum_stages(flat, vs, conjugate).tobytes()
            assert flat.tobytes() == before

    @pytest.mark.parametrize(
        "gens",
        [
            (2,) * 5,
            (2,) * 16,
            (2,) * 17,
            (3, 5) + (2,) * 13,
            (4,) + (2,) * 15,
            (2, 3, 2, 3),
            (5,),
            (7, 3),
            (3,) + (2,) * 15,
            (2,),
            (2, 2),
        ],
    )
    @pytest.mark.parametrize("conjugate", [False, True])
    def test_bitwise_equal_to_einsum_stages(self, gens, conjugate):
        self.assert_matches_einsum(VilenkinStructure.from_m(gens), conjugate)

    @pytest.mark.parametrize(
        "gens", [(2,) * 12, (3,) + (2,) * 10, (3, 5) + (2,) * 4, (2,) * 5]
    )
    @pytest.mark.parametrize("conjugate", [False, True])
    def test_bitwise_equal_with_small_tiles(self, monkeypatch, gens, conjugate):
        # 64-cell tiles run column slabs, the mid-block transpose and a
        # partial last chunk on structures of at most 2^12 cells.
        monkeypatch.setattr(transform, "_BLOCK", 2**6)
        self.assert_matches_einsum(VilenkinStructure.from_m(gens), conjugate)

    def test_odd_block_width_is_transposed(self, monkeypatch):
        # Width 2^13 splits as 2^6 x 2^7: after the transpose no stage pairs
        # cells closer than 2^6 apart, where the last stage would pair
        # neighbours without it.
        lows = []
        butterflies = transform._butterflies

        def spy(x, y, scratch, stages):
            lows.extend(low for low, _ in stages)
            return butterflies(x, y, scratch, stages)

        monkeypatch.setattr(transform, "_butterflies", spy)
        vs = VilenkinStructure.from_m((3, 5) + (2,) * 13)
        _run_stages(random_function(vs, 75).values, vs, conjugate=False)
        chunks = -(-vs.M[2] // (transform._BLOCK // 2**13))
        assert len(lows) == 13 * chunks
        assert min(lows) == 2**6

    @pytest.mark.parametrize("gens", [(2,) * 17, (3,) + (2,) * 16])
    def test_peak_memory_is_one_array_plus_tiles(self, gens):
        # Tiles are written back into one output array, the einsum result
        # when there is one: no second full-size buffer or input copy.
        vs = VilenkinStructure.from_m(gens)
        flat = random_function(vs, 76).values
        _run_stages(flat, vs, conjugate=False)
        tracemalloc.start()
        try:
            _run_stages(flat, vs, conjugate=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= flat.nbytes + 64 * transform._BLOCK


class TestSynthesize:
    def test_single_character(self, mixed2323):
        for n in (0, 1, 7, 35):
            coeffs = np.zeros(mixed2323.size, dtype=np.complex128)
            coeffs[n] = 1.0
            f = synthesize(Spectrum(mixed2323, coeffs))
            assert np.abs(f.values - character_column(n, mixed2323)).max() < 1e-12

    def test_zero_spectrum(self, mixed232):
        f = synthesize(Spectrum(mixed232, np.zeros(12)))
        assert np.abs(f.values).max() == 0

    def test_round_trips(self, mixed2323):
        f = random_function(mixed2323, 3)
        assert np.abs(synthesize(analyze(f)).values - f.values).max() < 1e-12
        s = random_spectrum(mixed2323, 4)
        assert np.abs(analyze(synthesize(s)).coeffs - s.coeffs).max() < 1e-12

    def test_direct_synthesis_oracle(self, mixed232):
        s = random_spectrum(mixed232, 9)
        fast = synthesize(s).values
        direct = naive_synthesize(s.coeffs, mixed232)
        assert np.abs(fast - direct).max() < 1e-10


class TestPartialSum:
    def test_full_order_recovers_function(self, mixed2323):
        s = random_spectrum(mixed2323, 21)
        f = synthesize(s)
        assert np.abs(partial_sum(s, mixed2323.size).values - f.values).max() < 1e-12

    def test_order_zero_vanishes(self, mixed2323):
        s = random_spectrum(mixed2323, 22)
        assert np.abs(partial_sum(s, 0).values).max() == 0

    def test_scale_orders_are_block_averages(self, mixed2323):
        # independent oracle: average the synthesized values over each cylinder
        vs = mixed2323
        s = random_spectrum(vs, 23)
        f = synthesize(s).values
        for level in range(vs.N + 1):
            width = vs.size // vs.M[level]
            oracle = np.repeat(f.reshape(vs.M[level], width).mean(axis=1), width)
            got = partial_sum(s, vs.M[level]).values
            assert np.abs(got - oracle).max() < 1e-10

    def test_order_beyond_resolution(self, mixed232):
        with pytest.raises(ResolutionError):
            partial_sum(random_spectrum(mixed232, 1), 13)


class TestFejerMean:
    def test_order_one_is_mean(self, mixed2323):
        s = random_spectrum(mixed2323, 31)
        out = fejer_mean(s, 1)
        assert np.abs(out.values - s.coeffs[0]).max() < 1e-12

    def test_two_term_weights(self, walsh3):
        coeffs = np.zeros(walsh3.size, dtype=np.complex128)
        coeffs[0] = coeffs[1] = 1.0
        out = analyze(fejer_mean(Spectrum(walsh3, coeffs), 2)).coeffs
        assert out[0] == pytest.approx(1.0)
        assert out[1] == pytest.approx(0.5)
        assert np.abs(out[2:]).max() < 1e-12

    def test_matches_average_of_partial_sums(self, mixed2323):
        # brute-force oracle: average S_1..S_n directly
        s = random_spectrum(mixed2323, 32)
        for n in (1, 2, 5, 12, 36):
            brute = np.zeros(mixed2323.size, dtype=np.complex128)
            for k in range(1, n + 1):
                brute += partial_sum(s, k).values
            brute /= n
            assert np.abs(fejer_mean(s, n).values - brute).max() < 1e-10

    def test_matches_kernel_convolution(self, walsh3):
        s = random_spectrum(walsh3, 33)
        f = synthesize(s)
        for n in (1, 3, 6, 8):
            via_kernel = convolve(f, fejer_kernel(n, walsh3))
            assert np.abs(fejer_mean(s, n).values - via_kernel.values).max() < 1e-10

    def test_band_limited_decomposition_identity(self, mixed2323):
        # sigma_n f - f = (M[b]/n) * (sigma_{M[b]} f - f) when the spectrum
        # stops below M[b]
        vs = mixed2323
        rng = XorShift64Star(34)
        for b in (1, 2, 3):
            coeffs = np.zeros(vs.size, dtype=np.complex128)
            coeffs[: vs.M[b]] = rng.complex_uniforms(vs.M[b])
            s = Spectrum(vs, coeffs)
            f = synthesize(s)
            for n in range(vs.M[b] + 1, vs.size + 1, 7):
                lhs = (fejer_mean(s, n) - f).values
                rhs = (vs.M[b] / n) * (fejer_mean(s, vs.M[b]) - f).values
                assert np.abs(lhs - rhs).max() < 1e-12

    def test_reproduces_constants_at_every_order(self, mixed2323):
        coeffs = np.zeros(mixed2323.size, dtype=np.complex128)
        coeffs[0] = 2.0 - 1.0j
        s = Spectrum(mixed2323, coeffs)
        for n in range(1, mixed2323.size + 1):
            assert np.abs(fejer_mean(s, n).values - (2.0 - 1.0j)).max() < 1e-12

    def test_order_validation(self, mixed232):
        s = random_spectrum(mixed232, 35)
        with pytest.raises(ValueError):
            fejer_mean(s, 0)
        with pytest.raises(ResolutionError):
            fejer_mean(s, 13)


class TestConvolve:
    def test_identity_element(self, mixed2323):
        # the scale-M[N] Dirichlet kernel acts as the identity
        f = random_function(mixed2323, 41)
        out = convolve(f, dirichlet_kernel(mixed2323.size, mixed2323))
        assert np.abs(out.values - f.values).max() < 1e-10

    def test_constant_projects_to_mean(self, mixed2323):
        f = random_function(mixed2323, 42)
        ones = StepFunction(mixed2323, np.ones(mixed2323.size))
        out = convolve(f, ones)
        assert np.abs(out.values - f.values.mean()).max() < 1e-12

    def test_spectrum_multiplies(self, mixed232):
        f = random_function(mixed232, 43)
        g = random_function(mixed232, 44)
        lhs = analyze(convolve(f, g)).coeffs
        rhs = analyze(f).coeffs * analyze(g).coeffs
        assert np.abs(lhs - rhs).max() < 1e-10

    def test_commutative(self, mixed232):
        f = random_function(mixed232, 45)
        g = random_function(mixed232, 46)
        assert np.abs(convolve(f, g).values - convolve(g, f).values).max() < 1e-10

    def test_structure_mismatch(self, mixed232, walsh3):
        f = random_function(mixed232, 47)
        g = random_function(walsh3, 48)
        with pytest.raises(ValueError):
            convolve(f, g)


class TestCondexp:
    def test_level_zero_is_mean(self, mixed2323):
        s = random_spectrum(mixed2323, 51)
        out = condexp(s, 0)
        assert np.abs(out.values - s.coeffs[0]).max() < 1e-12

    def test_top_level_is_identity(self, mixed2323):
        s = random_spectrum(mixed2323, 52)
        f = synthesize(s)
        assert np.abs(condexp(s, mixed2323.N).values - f.values).max() < 1e-12

    def test_agrees_with_partial_sum_route(self, mixed2323):
        s = random_spectrum(mixed2323, 53)
        for level in range(mixed2323.N + 1):
            via_blocks = condexp(s, level).values
            via_spectrum = partial_sum(s, mixed2323.M[level]).values
            assert np.abs(via_blocks - via_spectrum).max() < 1e-10


class TestMaximalFunction:
    def test_constant(self, mixed2323):
        coeffs = np.zeros(mixed2323.size, dtype=np.complex128)
        coeffs[0] = -3.0 + 4.0j
        out = maximal_function(Spectrum(mixed2323, coeffs))
        assert np.abs(out.values - 5.0).max() < 1e-12

    def test_single_character_walsh(self, walsh3):
        coeffs = np.zeros(walsh3.size, dtype=np.complex128)
        coeffs[1] = 1.0
        out = maximal_function(Spectrum(walsh3, coeffs))
        assert np.abs(out.values - 1.0).max() < 1e-12

    def test_dominates_function(self, mixed2323):
        s = random_spectrum(mixed2323, 61)
        f = synthesize(s)
        out = maximal_function(s)
        assert np.all(out.values.real >= np.abs(f.values) - 1e-12)

    def test_matches_levelwise_oracle(self, mixed2323):
        s = random_spectrum(mixed2323, 62)
        stack = np.stack(
            [np.abs(condexp(s, level).values) for level in range(mixed2323.N + 1)]
        )
        assert np.abs(maximal_function(s).values - stack.max(axis=0)).max() < 1e-10


    def test_bitwise_equal_to_repeat_formula(self):
        vs = VilenkinStructure.from_m((3, 2, 5, 4, 2))
        s = random_spectrum(vs, 64)
        values = synthesize(s).values
        best = np.abs(values)
        means = values
        for level in range(vs.N - 1, -1, -1):
            means = means.reshape(vs.M[level], vs.m[level]).mean(axis=1)
            best = np.maximum(best, np.repeat(np.abs(means), vs.size // vs.M[level]))
        assert maximal_function(s).values.tobytes() == best.astype(np.complex128).tobytes()

    @pytest.mark.parametrize("gens", [(2,) * 17, (2, 3, 4, 5, 2, 3, 4, 5, 3, 4), (5,)])
    def test_bitwise_equal_to_full_resolution_loop(self, gens):
        # Oracle: every level's block-mean magnitude folded into a full-size
        # running maximum, one pass over all cells per level.
        vs = VilenkinStructure.from_m(gens)
        f = random_function(vs, 65)
        best = np.abs(f.values)
        means = f.values
        for level in range(vs.N - 1, -1, -1):
            means = means.reshape(vs.M[level], vs.m[level]).mean(axis=1)
            blocks = best.reshape(vs.M[level], -1)
            np.maximum(blocks, np.abs(means)[:, None], out=blocks)
        assert _block_maximum(f).values.tobytes() == best.astype(np.complex128).tobytes()


class TestFejerWeight:
    def test_quarter_exponent(self):
        w = FejerWeight.for_p(0.25)
        assert w.exponent == pytest.approx(2.0)
        assert w.log_power == 0
        assert w.at(3) == pytest.approx(16.0)

    def test_half_exponent(self):
        w = FejerWeight.for_p(0.5)
        assert w.exponent == pytest.approx(0.0)
        assert w.log_power == 2
        assert w.at(1) == pytest.approx(np.log(2.0) ** 2)

    def test_range_validation(self):
        for bad in (0.0, -1.0, 0.75, 1.0):
            with pytest.raises(ValueError):
                FejerWeight.for_p(bad)


class TestWeightedMaximal:
    def test_zero_function(self, mixed2323):
        out = weighted_maximal_fejer(Spectrum(mixed2323, np.zeros(36)), 0.25, 36)
        assert np.abs(out.values).max() == 0

    def test_matches_per_order_oracle(self, mixed232):
        s = random_spectrum(mixed232, 71)
        p = 0.25
        w = FejerWeight.for_p(p)
        stack = np.stack(
            [np.abs(fejer_mean(s, n).values) / w.at(n) for n in range(1, 13)]
        )
        out = weighted_maximal_fejer(s, p, 12)
        assert np.abs(out.values - stack.max(axis=0)).max() < 1e-10

    def test_running_means_match_direct(self, mixed2323):
        s = random_spectrum(mixed2323, 72)
        for n, sigma in iter_fejer_means(s, 20):
            direct = fejer_mean(s, n).values
            assert np.abs(sigma - direct).max() < 1e-10


class TestStepFunctionArithmetic:
    def test_add_sub_scale(self, mixed232):
        f = random_function(mixed232, 81)
        g = random_function(mixed232, 82)
        assert np.abs((f + g).values - (f.values + g.values)).max() == 0
        assert np.abs((f - g).values - (f.values - g.values)).max() == 0
        assert np.abs((2j * f).values - 2j * f.values).max() == 0

    def test_length_validation(self, mixed232):
        with pytest.raises(ValueError):
            StepFunction(mixed232, np.zeros(11))
        with pytest.raises(ValueError):
            Spectrum(mixed232, np.zeros(13))
