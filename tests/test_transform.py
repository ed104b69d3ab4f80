import itertools
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from vilenkin_lab import transform
from vilenkin_lab.errors import ResolutionError
from vilenkin_lab.kernels import dirichlet_kernel, fejer_kernel
from vilenkin_lab.rng import XorShift64Star
from vilenkin_lab.structure import VilenkinStructure, cell_digit_table, root_powers
from vilenkin_lab.transform import (
    FejerWeight,
    Spectrum,
    StepFunction,
    _block_maximum,
    _run_stages,
    analyze,
    fejer_mean,
    fejer_mean_blocks,
    iter_fejer_means,
    maximal_function,
    naive_analyze,
    partial_sum,
    synthesize,
    weighted_maximal_fejer,
)

from vilenkin_lab.counterexamples import critical_atom
from vilenkin_lab.experiments import (
    family_character_polynomial,
    family_damped_critical,
    max_weighted_ratio,
)

from group_oracles import (
    character_column,
    condexp,
    convolve,
    fejer_recurrence,
    naive_synthesize,
    per_order_weighted_ratio,
)


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


def spy_blocks(monkeypatch):
    """Record the length of every block of characters transform builds."""
    lengths = []
    rows = transform.character_rows

    def spy(indices, vs):
        lengths.append(len(indices))
        return rows(indices, vs)

    monkeypatch.setattr(transform, "character_rows", spy)
    return lengths


def cancelling_values(vs):
    """Inputs whose stages meet exact +-x pairs, where a butterfly's
    difference is an exact zero, and inputs with -0.0 parts: the butterflies
    match einsum there only because no plane holds -0.0."""
    z = XorShift64Star(77).complex_uniforms(vs.size)
    # a constant times the parity of some bits of the cell index: exact
    # +-x pairs at every pairing distance
    bits = np.arange(vs.size) & 0b1011010110110101
    for shift in (8, 4, 2, 1):
        bits ^= bits >> shift
    pattern = np.where(bits & 1, -z[0], z[0])
    # neighbouring cells equal or opposite
    pairs = np.repeat(z[::2], 2)[: vs.size]
    pairs[1::4] *= -1
    # -0.0 parts, which the tile read turns into +0.0
    signed_zeros = z.copy()
    signed_zeros.real[::3] = -0.0
    signed_zeros.imag[::5] = -0.0
    zeros = np.where(pattern.real > 0, pattern, complex(-0.0, -0.0))
    return pattern, -pattern, pairs, signed_zeros, zeros, np.full(vs.size, complex(-0.0, -0.0))


def einsum_stages(flat, vs, conjugate):
    # One dense einsum per stage against root_powers, conjugated for
    # analysis: the reference _run_stages must match bitwise.
    a = flat
    for j in range(vs.N):
        mat = root_powers(vs)[j].conj() if conjugate else root_powers(vs)[j]
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


class TestNaiveAnalyze:
    # The direct transform takes its characters a block of rows at a time;
    # each coefficient must still be the 1-D mean against its own column.

    @staticmethod
    def per_coefficient(f, idx):
        return np.array([(f.values * character_column(int(n), f.vs).conj()).mean() for n in idx])

    @pytest.mark.parametrize("gens", [(2,) * 8, (2, 3, 2, 3), (3, 5, 2, 4), (7, 3)])
    def test_bitwise_equal_to_per_coefficient_means(self, gens, monkeypatch):
        vs = VilenkinStructure.from_m(gens)
        f = random_function(vs, 18)
        rng = np.random.default_rng(vs.size)
        monkeypatch.setattr(transform, "_BLOCK", 3 * vs.size)
        blocks = spy_blocks(monkeypatch)
        for idx in (None, rng.permutation(vs.size)[:50], np.arange(1, vs.size, 5), [vs.size - 1, 0, 0, 5]):
            blocks.clear()
            want = self.per_coefficient(f, range(vs.size) if idx is None else idx)
            assert naive_analyze(f, idx).tobytes() == want.tobytes()
            assert len(blocks) > 1 and max(blocks) == 3
            assert sum(blocks) == len(want)

    def test_bitwise_equal_at_the_default_block(self):
        # Criterion 4's 2^12 analysis runs blocks of 8 rows.
        vs = VilenkinStructure.from_pattern((2,), 12)
        f = random_function(vs, 19)
        idx = np.arange(3, vs.size, 37)
        assert naive_analyze(f, idx).tobytes() == self.per_coefficient(f, idx).tobytes()

    def test_empty_index_array(self, mixed232):
        assert naive_analyze(random_function(mixed232, 20), []).shape == (0,)


class TestCoefficientOrder:
    # The coefficient order is a transpose of the stage output's axes; the
    # digit-table gather/scatter it replaced must give the same bits.

    @staticmethod
    def table_order(vs):
        digits = cell_digit_table(vs)
        return sum(digits[j] * vs.M[j] for j in range(vs.N))

    GENS = [(2,) * 6, (2, 3, 2, 3), (3, 2, 5, 4, 2), (2, 3, 4, 5, 2), (5,), (7, 3)]

    @pytest.mark.parametrize("gens", GENS)
    def test_bitwise_equal_to_digit_table_permutation(self, gens):
        self.check(gens)

    # With _SPLIT_CELLS at 1 every reversal runs in tiles, as from 2^18
    # cells on, synthesis's reversal of the spectrum included.  (1024, 64):
    # the first axes of the permutation that reach _RUN cells already hold
    # more than _BLOCK, so a tile is one run wide.  (16,) * 4 splits its
    # einsum stages, so the tiles read a flat copy of the transposed stage
    # output.
    @pytest.mark.parametrize("gens", GENS + [(1024, 64), (2,) * 16, (16,) * 4])
    def test_tiled_reversal_bitwise_equal_to_digit_table_permutation(self, monkeypatch, gens):
        monkeypatch.setattr(transform, "_SPLIT_CELLS", 1)
        self.check(gens)

    def check(self, gens):
        vs = VilenkinStructure.from_m(gens)
        order = self.table_order(vs)
        f = random_function(vs, 71)
        coeffs = np.empty(vs.size, dtype=np.complex128)
        coeffs[order] = _run_stages(f.values, vs, conjugate=True).reshape(-1)
        assert analyze(f).coeffs.tobytes() == (coeffs / vs.size).tobytes()
        s = random_spectrum(vs, 72)
        values = _run_stages(s.coeffs[order], vs, conjugate=False)
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


def band_limited(coeffs, vs, level):
    """``coeffs`` with every coefficient from M[level] on set to zero."""
    out = coeffs.copy()
    out[vs.M[level] :] = 0
    return out


class TestBandLimitedSynthesis:
    # A spectrum supported below M[L] is synthesized on the first L
    # coordinates and repeated over each L-cylinder; the full-structure
    # stages on the permuted spectrum stay the oracle, byte for byte.

    @pytest.mark.parametrize(
        "gens",
        [
            (2,) * 5,
            (2,) * 17,
            (3, 5) + (2,) * 13,
            (4,) + (2,) * 15,
            (2, 3, 2, 3),
            (2, 3, 4, 5, 2, 3, 4, 5, 3, 4),
            (3,) + (2,) * 15,
            (7, 3),
            (5,),
            (2,),
        ],
    )
    def test_bitwise_equal_to_full_structure_stages(self, gens):
        vs = VilenkinStructure.from_m(gens)
        order = TestCoefficientOrder.table_order(vs)
        dense = dense_block_values(vs)
        # -dense carries -0.0 parts, above M[L] too once band-limited.
        for base in (random_spectrum(vs, 77).coeffs, dense, -dense):
            for level in range(vs.N + 1):
                coeffs = band_limited(base, vs, level)
                got = synthesize(Spectrum(vs, coeffs)).values
                want = _run_stages(coeffs[order], vs, conjugate=False)
                assert got.tobytes() == want.tobytes(), f"L = {level}"

    @pytest.mark.parametrize("gens", [(2,) * 10, (2, 3, 4, 5, 3), (3, 5) + (2,) * 4])
    def test_stages_run_on_the_support_level_only(self, gens, monkeypatch):
        sizes = []
        run_stages = transform._run_stages

        def spy(flat, vs, *args, **kwargs):
            sizes.append(vs.size)
            return run_stages(flat, vs, *args, **kwargs)

        monkeypatch.setattr(transform, "_run_stages", spy)
        vs = VilenkinStructure.from_m(gens)
        base = random_spectrum(vs, 78).coeffs
        for level in range(vs.N + 1):
            sizes.clear()
            synthesize(Spectrum(vs, band_limited(base, vs, level)))
            assert sizes == [vs.M[max(level, 1)]], f"L = {level}"
        # one nonzero coefficient in the top block is full support
        sizes.clear()
        top = np.zeros(vs.size, dtype=np.complex128)
        top[-1] = 1.0
        synthesize(Spectrum(vs, top))
        assert sizes == [vs.size]

    @pytest.mark.parametrize("gens", [(2,) * 17, (3,) + (2,) * 16])
    @pytest.mark.parametrize("level", [1, 9, 15])
    def test_peak_memory_is_the_output_plus_coarse_arrays(self, gens, level):
        # No full-size temporary: not the permuted spectrum, not a mask of
        # its zeros, not the full-structure stage output.
        vs = VilenkinStructure.from_m(gens)
        s = Spectrum(vs, band_limited(random_spectrum(vs, 79).coeffs, vs, level))
        synthesize(s)
        tracemalloc.start()
        try:
            synthesize(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= s.coeffs.nbytes + 2 * 16 * vs.M[level] + 4096


class TestStageLoop:
    # The radix-2 stages run as tiled butterflies; they must round exactly
    # as the dense einsum stage does.

    GENS = [
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
    ]

    @staticmethod
    def assert_matches_einsum(vs, conjugate):
        dense = dense_block_values(vs)
        # -dense carries -0.0 imaginary parts, which einsum returns as +0.0.
        inputs = (random_function(vs, 74).values, dense, -dense, *cancelling_values(vs))
        for flat in inputs:
            before = flat.tobytes()
            got = _run_stages(flat, vs, conjugate)
            assert got.tobytes() == einsum_stages(flat, vs, conjugate).tobytes()
            assert flat.tobytes() == before

    @pytest.mark.parametrize("gens", GENS)
    @pytest.mark.parametrize("conjugate", [False, True])
    def test_bitwise_equal_to_einsum_stages(self, gens, conjugate):
        self.assert_matches_einsum(VilenkinStructure.from_m(gens), conjugate)

    def test_every_radix_2_coordinate_has_one_root(self):
        # The butterflies take one w for all their stages, read at the
        # first of them.
        roots = {
            root_powers(vs)[j][1, 1].tobytes()
            for vs in map(VilenkinStructure.from_m, self.GENS)
            for j in range(vs.N)
            if vs.m[j] == 2
        }
        assert len(roots) == 1

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

        def spy(x, y, scratch, stage_lows, w_imag):
            lows.extend(stage_lows)
            return butterflies(x, y, scratch, stage_lows, w_imag)

        monkeypatch.setattr(transform, "_butterflies", spy)
        vs = VilenkinStructure.from_m((3, 5) + (2,) * 13)
        _run_stages(random_function(vs, 75).values, vs, conjugate=True)
        chunks = -(-vs.M[2] // (transform._BLOCK // 2**13))
        assert len(lows) == 13 * chunks
        assert min(lows) == 2**6

    @pytest.mark.parametrize("gens", [(2,) * 17, (3,) + (2,) * 16])
    def test_peak_memory_is_one_array_plus_tiles(self, gens):
        # Tiles are written back into one output array, the einsum result
        # when there is one: no second full-size buffer or input copy.
        vs = VilenkinStructure.from_m(gens)
        flat = random_function(vs, 76).values
        _run_stages(flat, vs, conjugate=True)
        tracemalloc.start()
        try:
            _run_stages(flat, vs, conjugate=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= flat.nbytes + 64 * transform._BLOCK


class TestEinsumSplit:
    # From the first einsum stage s whose rows would hold fewer than _RUN
    # cells, the stages run on the array transposed as (M[s], rest), if
    # M[s] >= _RUN.  Each output entry is the same sum in the same order.

    # The three random-parseval benchmark structures (172800 cells), then
    # (3,) * 11; (3,5,4,3,5,4)+(2,)*4 splits at s = 4 and then runs a
    # butterfly tail, (16,) * 4 at s = 2.
    SPLIT = [
        (2, 3, 4, 5, 2, 3, 4, 5, 3, 4),
        (3, 5, 2, 4, 3, 5, 2, 4, 3, 4),
        (5, 4, 3, 2, 5, 4, 3, 2, 4, 3),
        (3,) * 11,
        (3, 5, 4, 3, 5, 4) + (2,) * 4,
        (16,) * 4,
    ]
    # (3, 4, 5, 3, 4) first has short rows at s = 1 with M[1] = 3, and
    # (16,) * 3 at s = 1 with M[1] = 16, though M[2] = 256.
    UNSPLIT = [(2, 3, 2, 3), (7, 3), (5,), (3, 5) + (2,) * 13, (3, 4, 5, 3, 4), (16,) * 3]

    @staticmethod
    def einsum_shapes(monkeypatch):
        """Record the shape of the array operand of every np.einsum call,
        each share of a shared stage included."""
        shapes = []
        einsum = np.einsum

        def spy(subscripts, mat, a, **kwargs):
            shapes.append(a.shape)
            return einsum(subscripts, mat, a, **kwargs)

        monkeypatch.setattr(np, "einsum", spy)
        return shapes

    @staticmethod
    def einsum_count(vs):
        r0 = vs.N
        while r0 > 0 and vs.m[r0 - 1] == 2:
            r0 -= 1
        return r0

    # On one worker a stage of at least _SPLIT_CELLS multiply-adds is one
    # share written through einsum's ``out``; the oracle is plain einsum.
    @pytest.mark.parametrize("gens", SPLIT + UNSPLIT)
    @pytest.mark.parametrize("conjugate", [False, True])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_bitwise_equal_to_einsum_stages(self, gens, conjugate, workers, monkeypatch):
        monkeypatch.setattr(transform, "_WORKERS", workers)
        vs = VilenkinStructure.from_m(gens)
        TestStageLoop.assert_matches_einsum(vs, conjugate)
        # with ``reverse`` the stages read the spectrum in digit-table order
        order = TestCoefficientOrder.table_order(vs)
        dense = dense_block_values(vs)
        for coeffs in (random_spectrum(vs, 88).coeffs, dense, -dense):
            got = _run_stages(coeffs, vs, conjugate, reverse=True)
            assert got.tobytes() == einsum_stages(coeffs[order], vs, conjugate).tobytes()

    # A stage of at least _SPLIT_CELLS multiply-adds runs as one einsum per
    # worker; a share cut along the rows must still leave rows of at least
    # _RUN cells.
    @pytest.mark.parametrize("gens", SPLIT)
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_every_stage_acts_on_long_rows(self, gens, workers, monkeypatch):
        monkeypatch.setattr(transform, "_WORKERS", workers)
        vs = VilenkinStructure.from_m(gens)
        flat = random_function(vs, 89).values
        shapes = self.einsum_shapes(monkeypatch)
        _run_stages(flat, vs, conjugate=True)
        shared = [vs.size * vs.m[j] >= transform._SPLIT_CELLS for j in range(self.einsum_count(vs))]
        assert len(shapes) == sum(workers if share else 1 for share in shared)
        assert min(shape[-1] for shape in shapes) >= transform._RUN
        # the stages before the split keep today's layout, so some stage
        # would act on rows of fewer than _RUN cells without it
        assert min(vs.size // vs.M[j + 1] for j in range(self.einsum_count(vs))) < transform._RUN

    @pytest.mark.parametrize("gens", UNSPLIT)
    def test_short_leading_blocks_take_no_transpose(self, gens, monkeypatch):
        # one worker, so that each stage is one einsum over its whole array
        monkeypatch.setattr(transform, "_WORKERS", 1)
        vs = VilenkinStructure.from_m(gens)
        flat = random_function(vs, 90).values
        shapes = self.einsum_shapes(monkeypatch)
        got = _run_stages(flat, vs, conjugate=True)
        want = [(vs.M[j], vs.m[j], vs.size // vs.M[j + 1]) for j in range(self.einsum_count(vs))]
        assert shapes == want
        assert got.shape == (vs.size,) and got.flags.c_contiguous

    @staticmethod
    def traced_peak(call):
        call()
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("gens", SPLIT)
    @pytest.mark.parametrize("reverse", [False, True])
    def test_split_adds_at_most_one_array_to_the_peak(self, gens, reverse):
        vs = VilenkinStructure.from_m(gens)
        flat = random_function(vs, 91).values
        order = TestCoefficientOrder.table_order(vs)
        got = self.traced_peak(lambda: _run_stages(flat, vs, conjugate=True, reverse=reverse))
        want = self.traced_peak(lambda: einsum_stages(flat[order] if reverse else flat, vs, True))
        assert got <= want + flat.nbytes


# Above 2^18 cells with radices 2 to 5 and a radix-5 last stage: every stage
# is an einsum, and the stages split at s = 5.
MIXED_LARGE = (4, 3, 5, 2, 3, 4, 5, 3, 4, 5)
RANDOM_PARSEVAL = TestEinsumSplit.SPLIT[:3]


class TestThreadedTiles:
    # From _SPLIT_CELLS cells on, the slab tiles, the chunk tiles and the
    # tiles of the coefficient permutation are shared among _WORKERS
    # threads, and so is each einsum stage of at least _SPLIT_CELLS
    # multiply-adds.  Each share reads and writes only its own cells, so
    # the bytes are those of one worker.

    @staticmethod
    def record_shares(monkeypatch):
        """Record (task, call, count, thread, start, stop) for every share
        run, ``call`` numbering the _in_shares calls."""
        shares = []
        calls = itertools.count()
        in_shares = transform._in_shares

        def spy(count, work, task):
            call = next(calls)

            def recorded(start, stop):
                shares.append((task.__name__, call, count, threading.get_ident(), start, stop))
                task(start, stop)

            in_shares(count, work, recorded)

        monkeypatch.setattr(transform, "_in_shares", spy)
        return shares

    @staticmethod
    def assert_split(shares, workers, loops):
        # One transform: each loop named in ``loops`` (once per run) gave
        # one contiguous share to each worker, the shares covered every tile
        # exactly once, and more than one thread ran them.
        by_call = {}
        for task, call, count, thread, start, stop in shares:
            by_call.setdefault((task, call, count), []).append((thread, start, stop))
        assert sorted(task for task, _, _ in by_call) == sorted(loops)
        for (task, _, count), runs in by_call.items():
            assert len(runs) == workers, task
            tiles = sorted(tile for _, start, stop in runs for tile in range(start, stop))
            assert tiles == list(range(count)), task
            assert len({thread for thread, _, _ in runs}) > 1, task
        shares.clear()
        return [count for _, _, count in by_call]

    # Walsh 2^19 runs the slab loop and the chunk loop; analyze then
    # permutes its coefficients, and synthesize permutes its spectrum first.
    # The radix-3 structure also shares its first stage, an einsum.
    # MIXED_LARGE shares its ten stages and its permutation, which reads a
    # flat copy of the transposed view its split leaves.  The
    # random-parseval structures and (5,) * 7 have fewer than _SPLIT_CELLS
    # cells but share every stage.  3 workers cannot share Walsh 2^19's 16
    # tiles evenly.
    WALSH_LOOPS = (["copy", "run_chunks", "run_slabs"],) * 2
    EINSUM_FIRST_LOOPS = (["stage", "copy", "run_chunks", "run_slabs"],) * 2
    MIXED_LOOPS = (["stage"] * 10 + ["copy"], ["copy"] + ["stage"] * 10)
    STAGE_LOOPS = {gens: (["stage"] * len(gens),) * 2 for gens in RANDOM_PARSEVAL + [(5,) * 7]}

    @pytest.mark.parametrize(
        "gens, workers, loops",
        [
            ((2,) * 19, 2, WALSH_LOOPS),
            ((3,) + (2,) * 18, 2, EINSUM_FIRST_LOOPS),
            ((2,) * 19, 3, WALSH_LOOPS),
            ((3,) + (2,) * 18, 3, EINSUM_FIRST_LOOPS),
            (MIXED_LARGE, 2, MIXED_LOOPS),
            (MIXED_LARGE, 3, MIXED_LOOPS),
        ] + [(gens, workers, loops) for gens, loops in STAGE_LOOPS.items() for workers in (2, 3)],
        ids=["2^19", "3x2^18", "2^19-uneven", "3x2^18-3-workers", "mixed", "mixed-3-workers"]
        + [f"{name}-{workers}-workers" for name in ("parseval-a", "parseval-b", "parseval-c", "5^7")
           for workers in (2, 3)],
    )
    def test_bitwise_equal_to_one_worker(self, monkeypatch, gens, workers, loops):
        vs = VilenkinStructure.from_m(gens)
        f = random_function(vs, 80)
        s = random_spectrum(vs, 81)
        monkeypatch.setattr(transform, "_WORKERS", 1)
        want = analyze(f).coeffs, synthesize(s).values
        monkeypatch.setattr(transform, "_WORKERS", workers)
        shares = self.record_shares(monkeypatch)
        # switch threads as often as the interpreter allows, so that the
        # shares interleave finely
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = analyze(f).coeffs
            counts = self.assert_split(shares, workers, loops[0])
            got = got, synthesize(s).values
            counts += self.assert_split(shares, workers, loops[1])
        finally:
            sys.setswitchinterval(interval)
        assert [x.tobytes() for x in got] == [x.tobytes() for x in want]
        if workers == 3 and gens == (2,) * 19:
            assert all(count % workers for count in counts), counts

    @pytest.mark.parametrize(
        "module, name, gens",
        [(transform, "_butterflies", (2,) * 18), (np, "einsum", (5,) * 7)],
        ids=["butterfly-tile", "einsum-share"],
    )
    def test_worker_exception_reaches_the_caller(self, monkeypatch, module, name, gens):
        original = getattr(module, name)

        def fail_off_main(*args, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("share failed in a worker")
            return original(*args, **kwargs)

        monkeypatch.setattr(transform, "_WORKERS", 2)
        monkeypatch.setattr(module, name, fail_off_main)
        f = random_function(VilenkinStructure.from_m(gens), 82)
        with pytest.raises(RuntimeError, match="share failed in a worker"):
            analyze(f)

    @staticmethod
    def traced_peak(call):
        call()  # fills the cached root tables and tile indices
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("workers", [2, 3])
    def test_peak_memory_is_one_array_plus_tiles_per_worker(self, monkeypatch, workers):
        monkeypatch.setattr(transform, "_WORKERS", workers)
        vs = VilenkinStructure.from_pattern((2,), 18)
        flat = random_function(vs, 83).values
        peak = self.traced_peak(lambda: _run_stages(flat, vs, conjugate=True))
        assert peak <= flat.nbytes + workers * 64 * transform._BLOCK

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_synthesis_peak_memory_is_the_output_plus_tiles_per_worker(self, monkeypatch, workers):
        # A full-support Walsh synthesis updates its permuted copy of the
        # spectrum in place: that copy is the output, and no other
        # full-size array is made.
        monkeypatch.setattr(transform, "_WORKERS", workers)
        s = random_spectrum(VilenkinStructure.from_pattern((2,), 18), 87)
        peak = self.traced_peak(lambda: synthesize(s))
        assert peak <= s.coeffs.nbytes + workers * 64 * transform._BLOCK

    def test_small_transforms_start_no_thread(self):
        # Transforms below _SPLIT_CELLS cells whose einsum stages stay below
        # _SPLIT_CELLS multiply-adds, which include all that a check makes,
        # start no thread; a 2^18 round trip and a 172800-cell mixed one
        # start their workers and join them.
        code = "\n".join([
            "import threading",
            "from vilenkin_lab import transform",
            "from vilenkin_lab.rng import XorShift64Star",
            "from vilenkin_lab.structure import VilenkinStructure",
            "from vilenkin_lab.transform import StepFunction, analyze, synthesize",
            "started = []",
            "start = threading.Thread.start",
            "threading.Thread.start = lambda thread: started.append(thread) or start(thread)",
            "def round_trip(vs):",
            "    synthesize(analyze(StepFunction(vs, XorShift64Star(84).complex_uniforms(vs.size))))",
            "round_trip(VilenkinStructure.from_pattern((2,), 16))",
            "round_trip(VilenkinStructure.from_m((2, 3, 2, 3)))",
            "round_trip(VilenkinStructure.from_pattern((3,), 10))",
            "round_trip(VilenkinStructure.from_m((2, 3, 4, 5, 2, 3, 4, 5, 3)))",
            "print(threading.active_count(), len(started))",
            "round_trip(VilenkinStructure.from_pattern((2,), 18))",
            "print(threading.active_count(), len(started), transform._WORKERS)",
            "started.clear()",
            f"round_trip(VilenkinStructure.from_m({RANDOM_PARSEVAL[0]}))",
            "print(threading.active_count(), len(started), transform._WORKERS)",
        ])
        package_parent = str(Path(transform.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_parent, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120, env=env, check=True)
        small, large, mixed = (list(map(int, line.split())) for line in proc.stdout.splitlines())
        assert small == [1, 0]
        active, started, workers = large
        # six split loops: analyze's slabs, chunks and permutation, then
        # synthesize's permutation, slabs and chunks
        assert (active, started) == (1, 6 * (workers - 1))
        # twenty shared stages, ten in each direction; below _SPLIT_CELLS
        # cells the permutation stays on the calling thread
        assert mixed == [1, 20 * (workers - 1), workers]


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


def layered_function(vs, seed):
    # Random values constant on the cylinders of every level, the coarse
    # levels weighted most, so that the maximum at a cell comes from
    # coarse and fine levels alike, not only from the finest ones as on
    # plain random values.
    rng = XorShift64Star(seed)
    values = np.zeros(vs.size, dtype=np.complex128)
    for level in range(vs.N + 1):
        values += np.repeat(rng.complex_uniforms(vs.M[level]), vs.size // vs.M[level]) / (level + 1)
    return StepFunction(vs, values)


def full_resolution_maximum(f):
    # Oracle for _block_maximum: every level's block-mean magnitude folded
    # into a full-size running maximum, one pass over all cells per level.
    vs = f.vs
    best = np.abs(f.values)
    means = f.values
    for level in range(vs.N - 1, -1, -1):
        means = means.reshape(vs.M[level], vs.m[level]).mean(axis=1)
        blocks = best.reshape(vs.M[level], -1)
        np.maximum(blocks, np.abs(means)[:, None], out=blocks)
    return best



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

    FULL_RESOLUTION_GENS = [(2,) * 17, (2, 3, 4, 5, 2, 3, 4, 5, 3, 4), (5,)]

    @pytest.mark.parametrize("gens", FULL_RESOLUTION_GENS)
    def test_bitwise_equal_to_full_resolution_loop(self, gens):
        f = random_function(VilenkinStructure.from_m(gens), 65)
        assert _block_maximum(f).tobytes() == full_resolution_maximum(f).tobytes()

    @pytest.mark.parametrize("gens", FULL_RESOLUTION_GENS)
    def test_layered_bitwise_equal_to_full_resolution_loop(self, gens):
        f = layered_function(VilenkinStructure.from_m(gens), 66)
        assert _block_maximum(f).tobytes() == full_resolution_maximum(f).tobytes()


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


SWEEP_STRUCTURES = [(2,) * 8, (2,) * 10, (2, 3, 2, 3), (3, 5, 2, 4), (2, 3, 4, 5, 2)]


def zero_runs_spectrum(vs):
    """A random spectrum with zero runs at the first two and the last three
    rows of each block under the current block budget, and at the last order."""
    rows = max(transform._BLOCK // vs.size, 1)
    coeffs = XorShift64Star(vs.size).complex_uniforms(vs.size)
    for start in range(0, vs.size, rows):
        coeffs[start : start + 2] = 0
        coeffs[max(start - 3, 0) : start] = 0
    coeffs[-1] = 0
    return Spectrum(vs, coeffs)


def sweep_inputs(vs):
    """The critical atom, the damped critical spectrum and the zero-run spectrum."""
    return {
        "atom": analyze(critical_atom(2, 0.25, vs)),
        "damped": family_damped_critical(vs, vs.N - 1, 0.25),
        "zero-runs": zero_runs_spectrum(vs),
    }


def assert_sweep_matches_recurrence(s, n_max):
    got = list(iter_fejer_means(s, n_max))
    want = list(fejer_recurrence(s, n_max))
    assert [n for n, _ in got] == [n for n, _ in want] == list(range(1, n_max + 1))
    for (n, sigma), (_, expected) in zip(got, want):
        assert sigma.tobytes() == expected.tobytes(), f"order {n}"


class TestBlockedSweep:
    # The blocked sweep must give the one-order recurrence byte for byte:
    # its carry between blocks, its zero rows and its complex divisor each
    # round exactly as the recurrence does.

    @pytest.mark.parametrize("gens", SWEEP_STRUCTURES)
    def test_every_mean_bitwise_equal_to_recurrence(self, gens):
        vs = VilenkinStructure.from_m(gens)
        for s in sweep_inputs(vs).values():
            assert_sweep_matches_recurrence(s, vs.size)

    @pytest.mark.parametrize("gens", [(2,) * 8, (2, 3, 2, 3), (3, 5, 2, 4)])
    def test_partial_sweeps(self, gens):
        vs = VilenkinStructure.from_m(gens)
        rows = max(transform._BLOCK // vs.size, 1)
        s = zero_runs_spectrum(vs)
        for n_max in {1, 2, min(rows + 5, vs.size), vs.size - 3}:
            assert_sweep_matches_recurrence(s, n_max)

    @pytest.mark.parametrize("block", [1, 2, 3, 5, 7])
    @pytest.mark.parametrize("gens", [(2,) * 6, (2, 3, 2, 3), (3, 5, 2, 4)])
    def test_small_blocks(self, gens, block, monkeypatch):
        # A budget under M[N] cells gives one-row blocks; the others give
        # blocks of a few rows, most of them not dividing M[N].  The inputs
        # are built before the budget changes, since the stages read it too.
        vs = VilenkinStructure.from_m(gens)
        inputs = sweep_inputs(vs)
        blocks = spy_blocks(monkeypatch)
        for budget in (block * vs.size, vs.size // 2):
            monkeypatch.setattr(transform, "_BLOCK", budget)
            for s in (inputs["atom"], inputs["damped"], zero_runs_spectrum(vs)):
                blocks.clear()
                assert_sweep_matches_recurrence(s, vs.size)
                assert len(blocks) == -(-vs.size // max(budget // vs.size, 1)) > 1
            assert_sweep_matches_recurrence(inputs["zero-runs"], vs.size - 1)

    def test_one_row_blocks_at_the_block_budget(self):
        vs = VilenkinStructure.from_pattern((2,), 15)
        assert vs.size >= transform._BLOCK
        coeffs = np.zeros(vs.size, dtype=np.complex128)
        coeffs[[0, 2, 3, 6]] = XorShift64Star(15).complex_uniforms(4)
        assert_sweep_matches_recurrence(Spectrum(vs, coeffs), 7)

    def test_blocks_hold_the_yielded_rows(self, mixed2323, monkeypatch):
        s = random_spectrum(mixed2323, 73)
        monkeypatch.setattr(transform, "_BLOCK", 7 * mixed2323.size)
        blocks = list(fejer_mean_blocks(s, 30))
        assert [first for first, _ in blocks] == [1, 8, 15, 22, 29]
        assert [len(block) for _, block in blocks] == [7, 7, 7, 7, 2]
        stacked = np.concatenate([block for _, block in blocks])
        assert stacked.tobytes() == np.array([sigma for _, sigma in iter_fejer_means(s, 30)]).tobytes()

    @pytest.mark.parametrize("n_max", [0, 37])
    def test_sweep_bound_validation(self, mixed2323, n_max):
        s = random_spectrum(mixed2323, 74)
        with pytest.raises(ResolutionError):
            next(iter_fejer_means(s, n_max))
        with pytest.raises(ResolutionError):
            next(fejer_mean_blocks(s, n_max))

    @pytest.mark.parametrize("p", [0.25, 1 / 3, 0.5])
    @pytest.mark.parametrize("gens", [(2,) * 8, (2, 3, 2, 3), (3, 5, 2, 4)])
    def test_max_weighted_ratio_bitwise_equal_to_per_order_norms(self, gens, p):
        # One sweep for several p gives each p's ratio as its own sweep does,
        # a repeated p included.
        vs = VilenkinStructure.from_m(gens)
        ps = (p, 0.5, 0.25)
        for name, s in sweep_inputs(vs).items():
            for n_max in (vs.size, vs.size - 3):
                want = tuple(per_order_weighted_ratio(s, q, n_max) for q in ps)
                assert min(want) > 0, name
                assert max_weighted_ratio(s, ps, n_max) == want, name
                assert max_weighted_ratio(s, (p,), n_max) == want[:1], name

    @pytest.mark.parametrize("seed, p", [(1012, 0.25), (1001, 1 / 3)])
    def test_max_weighted_ratio_roots_with_the_scalar_power(self, seed, p):
        # Random spectra of criterion 12's family whose largest ratio moves by
        # an ulp, on AVX-512 hosts, if the 1/p root takes the array power.
        vs = VilenkinStructure.from_pattern((2,), 8)
        s = family_character_polynomial(vs, vs.N, XorShift64Star(seed))
        ps = (p, 0.5)
        want = tuple(per_order_weighted_ratio(s, q, vs.size) for q in ps)
        assert max_weighted_ratio(s, ps, vs.size) == want
        assert max_weighted_ratio(s, (p,), vs.size) == want[:1]


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
