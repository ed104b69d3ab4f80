"""Both critical families come from one assembly; these tests keep the two
builders and the sparse atom it replaced, and compare them bit for bit.

The oracles below are the separate dense and sparse constructions as they
were written before the sparse family became the dense construction at
p = 1/2 on the doubled scales 2*M[i].
"""

import functools

import numpy as np
import pytest

from vilenkin_lab.counterexamples import (
    block_spectrum,
    build_critical_example,
    build_sparse_critical_example,
    critical_atom,
)
from vilenkin_lab.kernels import dirichlet_kernel
from vilenkin_lab.norms import CylinderInterval
from vilenkin_lab.structure import VilenkinStructure, zero_point


def old_blocks(vs, blocks):
    coeffs = np.zeros(vs.size, dtype=np.complex128)
    for lo, hi, value in blocks:
        coeffs[lo:hi] = value
    return coeffs


def old_dense(p, depth, vs):
    blocks = [(vs.M[i], vs.M[i + 1], float(vs.M[i])) for i in range(depth + 1)]
    weights = tuple(vs.lam / vs.M[i] ** (1.0 / p - 2.0) for i in range(depth + 1))
    atoms = tuple(critical_atom(i, p, vs) for i in range(depth + 1))
    intervals = tuple(CylinderInterval(zero_point(vs), i) for i in range(depth + 1))
    return old_blocks(vs, blocks), weights, atoms, intervals


@functools.lru_cache(maxsize=None)  # shared by the three sparse depths
def old_sparse_atom(i, vs):
    j = 2 * vs.M[i]
    scale = vs.M[j] / vs.lam
    diff = dirichlet_kernel(vs.M[j + 1], vs) - dirichlet_kernel(vs.M[j], vs)
    return scale * diff


def old_sparse(depth, vs):
    blocks, weights, atoms, intervals = [], [], [], []
    for i in range(1, depth + 1):
        j = 2 * vs.M[i]
        blocks.append((vs.M[j], vs.M[j + 1], vs.M[j] / (vs.M[i] * vs.M[i])))
        weights.append(vs.lam / (vs.M[i] * vs.M[i]))
        atoms.append(old_sparse_atom(i, vs))
        intervals.append(CylinderInterval(zero_point(vs), j))
    return old_blocks(vs, blocks), tuple(weights), tuple(atoms), tuple(intervals)


def assert_bitwise_equal(ex, oracle):
    coeffs, weights, atoms, intervals = oracle
    d = ex.decomposition
    assert ex.spectrum.coeffs.tobytes() == coeffs.tobytes()
    assert [w.hex() for w in d.coefficients] == [w.hex() for w in weights]
    assert len(d.atoms) == len(atoms)
    for got, want in zip(d.atoms, atoms):
        assert got.values.tobytes() == want.values.tobytes()
    assert d.intervals == intervals
    assert d.p == ex.p


@pytest.mark.parametrize("p", [0.25, 1 / 3], ids=["p=1/4", "p=1/3"])
@pytest.mark.parametrize(
    "vs",
    [VilenkinStructure.from_pattern((2,), 11), VilenkinStructure.from_pattern((2, 3), 8)],
    ids=["2^11", "(2,3)^8"],
)
def test_dense_equals_old_builder(p, vs):
    depth = vs.N - 1
    ex = build_critical_example(p, depth, vs)
    assert (ex.p, ex.depth) == (p, depth)
    assert_bitwise_equal(ex, old_dense(p, depth, vs))


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_sparse_equals_old_builder(depth):
    vs = VilenkinStructure.from_pattern((2,), 17)
    ex = build_sparse_critical_example(depth, vs)
    assert (ex.p, ex.depth) == (0.5, depth)
    assert_bitwise_equal(ex, old_sparse(depth, vs))


@pytest.mark.parametrize("gens", [(2,), (3,), (2, 3)], ids=["2^9", "3^7", "(2,3)^7"])
def test_sparse_atom_is_the_dense_atom_on_the_doubled_scale(gens):
    vs = VilenkinStructure.from_pattern(gens, 9 if gens == (2,) else 7)
    scales = [i for i in range(1, vs.N + 1) if 2 * vs.M[i] + 1 <= vs.N]
    assert scales
    for i in scales:
        got = critical_atom(2 * vs.M[i], 0.5, vs)
        assert got.values.tobytes() == old_sparse_atom(i, vs).values.tobytes()


def test_block_spectrum_fills_listed_blocks_only():
    vs = VilenkinStructure.from_m((2, 3, 2, 3, 2))
    assert block_spectrum(vs, []).coeffs.tobytes() == np.zeros(vs.size, complex).tobytes()
    # blocks 0, 2 and 4 are not contiguous; blocks 1 and 3 stay zero
    got = block_spectrum(vs, [(4, -2.5), (0, 1), (2, 1j)]).coeffs
    want = np.zeros(vs.size, dtype=np.complex128)
    want[1:2] = 1
    want[6:12] = 1j
    want[36:72] = -2.5
    assert got.tobytes() == want.tobytes()
