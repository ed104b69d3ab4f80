"""Both critical families come from one assembly; these tests keep the two
builders and the sparse atom it replaced, and compare them bit for bit.

The oracles below are the separate dense and sparse constructions as they
were written before the sparse family became the dense construction at
p = 1/2 on the doubled scales 2*M[i].

The last test holds the weighted Fejer ratio of one critical atom against
an integer Walsh oracle; it is a known defect and marked as such.
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
from vilenkin_lab.experiments import max_weighted_ratio
from vilenkin_lab.kernels import dirichlet_kernel
from vilenkin_lab.norms import CylinderInterval
from vilenkin_lab.structure import VilenkinStructure
from vilenkin_lab.transform import FejerWeight, analyze


def old_blocks(vs, blocks):
    coeffs = np.zeros(vs.size, dtype=np.complex128)
    for lo, hi, value in blocks:
        coeffs[lo:hi] = value
    return coeffs


def old_dense(p, depth, vs):
    blocks = [(vs.M[i], vs.M[i + 1], float(vs.M[i])) for i in range(depth + 1)]
    weights = tuple(vs.lam / vs.M[i] ** (1.0 / p - 2.0) for i in range(depth + 1))
    atoms = tuple(critical_atom(i, p, vs) for i in range(depth + 1))
    intervals = tuple(CylinderInterval(0, i) for i in range(depth + 1))
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
        intervals.append(CylinderInterval(0, j))
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


def exact_atom_weighted_ratio(k, p, N):
    """max over n <= 2^N of ||sigma_n a||_p / (weight_p(n) ||a||_{H_p}) for the
    critical atom a at scale k on Walsh 2^N, from integer Walsh sums.

    a is a constant times the coefficients 1 on [2^k, 2^(k+1)), so
    n sigma_n a = constant * sum_{j<n} (n - j) c_j w_j with w_j(x) the parity
    of j & x, exact in integers.  |a| is the constant times 2^k on the
    k-cylinder (measure 2^-k) and a has mean zero there, so its maximal
    function is |a|.  The constant cancels from the ratio.
    """
    size = 2**N
    j = np.arange(size)
    parity = np.zeros((size, size), dtype=np.int64)
    for bit in range(N):
        parity ^= ((j[:, None] & j[None, :]) >> bit) & 1
    walsh = 1 - 2 * parity
    coeffs = np.zeros(size, dtype=np.int64)
    coeffs[2**k : 2 ** (k + 1)] = 1
    weight = FejerWeight.for_p(p)
    hardy = 2**k * 2.0 ** (-k / p)
    best = 0.0
    for n in range(1, size + 1):
        numerator = ((n - j[:n]) * coeffs[:n]) @ walsh[:n]
        lp = np.mean(np.abs(numerator).astype(float) ** p) ** (1 / p)
        best = max(best, lp / (n * weight.at(n) * hardy))
    return best


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="max_weighted_ratio carries transform rounding: at cells where sigma_n of the "
    "atom is exactly 0, rounding noise is raised to the power p in sigma_n and in the "
    "maximal function (1.1e-3 relative low at p = 1/4, 5.5e-8 at p = 1/2)",
)
@pytest.mark.parametrize("p", [0.25, 0.5], ids=["p=1/4", "p=1/2"])
def test_maximal_bound_atom_ratio_equals_integer_oracle(p):
    # maximal_bound.csv's max_ratio: the critical atom at scale 2 on Walsh 2^8
    # attains every seed's maximum.  Exact: 0.39149155272166 at p = 1/4 and
    # 0.32853430644103 at p = 1/2.
    vs = VilenkinStructure.from_pattern((2,), 8)
    got = max_weighted_ratio(analyze(critical_atom(2, p, vs)), p, vs.size)
    assert got == pytest.approx(exact_atom_weighted_ratio(2, p, vs.N), rel=1e-9)
