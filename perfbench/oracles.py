"""Independent oracles for the benchmark's output checks.

Nothing here imports ``vilenkin_lab``: every value is recomputed from the
definitions in the package documentation (the xorshift64* update formula,
the closed form of scale-order Dirichlet kernels, the Walsh character as a
parity, the Fejer mean's coefficient weights), so a defect in the library
cannot hide in its own oracle.
"""

from __future__ import annotations

import math

import numpy as np

_MASK = (1 << 64) - 1
_MULT = 2685821657736338717
_ZERO_SEED = 0x9E3779B97F4A7C15


def xorshift_complex(seed: int, count: int) -> list[complex]:
    """First ``count`` complex samples of the documented xorshift64* stream."""
    x = seed & _MASK or _ZERO_SEED
    doubles = []
    for _ in range(2 * count):
        x ^= x >> 12
        x = (x ^ (x << 25)) & _MASK
        x ^= x >> 27
        doubles.append(2.0 * ((((x * _MULT) & _MASK) >> 11) * 2.0**-53) - 1.0)
    return [complex(doubles[2 * i], doubles[2 * i + 1]) for i in range(count)]


def block_coeffs(M: list[int], blocks: list[tuple[int, float]], size: int) -> np.ndarray:
    """Spectrum with value v on the index block [M[i], M[i+1]) for each (i, v)."""
    c = np.zeros(size, dtype=np.complex128)
    for i, v in blocks:
        c[M[i] : M[i + 1]] = v
    return c


# ---------------------------------------------------------------------------
# dense critical family: every function below is a combination of the
# scale-order Dirichlet kernels D_{M[j]} = M[j] * 1{cell in the j-cylinder
# through 0}, so it depends on a cell only through its level, the largest j
# whose cylinder around 0 contains the cell.


def level_cells(M: list[int]) -> list[slice]:
    """Cells of each level L = 0..N, as contiguous slices.

    Level L < N holds the cells in [M[N] / M[L+1], M[N] / M[L]); cell 0
    alone has level N.
    """
    N = len(M) - 1
    size = M[-1]
    return [slice(size // M[L + 1], size // M[L]) for L in range(N)] + [slice(0, 1)]


def dense_table(M: list[int], lo: int, depth: int, cap: int | None = None) -> list[int]:
    """Per-level values of sum_{i=lo..depth} M[i] * (E_cap D_{M[i+1]} - E_cap D_{M[i]}).

    E_cap D_{M[j]} = D_{M[min(j, cap)]}, and cap defaults to N, where E_cap
    is the identity: the table is then the dense blocks lo..depth
    themselves.  Exact integers throughout.
    """
    N = len(M) - 1
    cap = N if cap is None else cap
    table = []
    for L in range(N + 1):
        v = 0
        for i in range(lo, depth + 1):
            a, b = min(i + 1, cap), min(i, cap)
            v += M[i] * ((M[a] if L >= a else 0) - (M[b] if L >= b else 0))
        table.append(v)
    return table


def dense_coeffs(M: list[int], lo: int, depth: int) -> np.ndarray:
    """Spectrum of the dense blocks lo..depth: value M[i] on [M[i], M[i+1])."""
    return block_coeffs(M, [(i, M[i]) for i in range(lo, depth + 1)], M[-1])


def subtract_dense(values: np.ndarray, M: list[int], lo: int, depth: int) -> np.ndarray:
    """Subtract the dense blocks lo..depth from cell values, in place."""
    for cells, v in zip(level_cells(M), dense_table(M, lo, depth)):
        values[cells] -= v
    return values


def dense_error(values: np.ndarray, M: list[int], depth: int) -> float:
    """max |values - dense blocks 0..depth|, one level at a time."""
    return max(
        float(np.abs(values[cells] - v).max()) for cells, v in zip(level_cells(M), dense_table(M, 0, depth))
    )


def dense_coeff_error(coeffs: np.ndarray, M: list[int], depth: int) -> float:
    """max |coeffs - dense spectrum of blocks 0..depth|, one block at a time."""
    err = abs(complex(coeffs[0]))
    for i in range(len(M) - 1):
        want = M[i] if i <= depth else 0
        err = max(err, float(np.abs(coeffs[M[i] : M[i + 1]] - want).max()))
    return err


def dense_modulus(M: list[int], depth: int, k: int, p: float) -> float:
    """Hardy quasinorm of the dense spectrum with every block below k removed."""
    N = len(M) - 1
    maxima = [0] * (N + 1)
    for n in range(N + 1):
        for L, v in enumerate(dense_table(M, k, depth, n)):
            maxima[L] = max(maxima[L], abs(v))
    counts = [cells.stop - cells.start for cells in level_cells(M)]
    total = math.fsum(c * float(v) ** p for c, v in zip(counts, maxima))
    return (total / M[-1]) ** (1.0 / p)


# ---------------------------------------------------------------------------
# Walsh synthesis: on the dyadic group the n-th character at cell x is
# (-1)^popcount(n & reverse(x)), so synthesis is a Hadamard transform read
# in bit-reversed order.


def walsh_synthesize(coeffs: np.ndarray) -> np.ndarray:
    size = coeffs.size
    bits = size.bit_length() - 1
    a = np.array(coeffs, dtype=np.complex128)
    h = 1
    while h < size:
        a = a.reshape(-1, 2, h)
        a = np.stack((a[:, 0] + a[:, 1], a[:, 0] - a[:, 1]), axis=1)
        h *= 2
    x = np.arange(size)
    rev = np.zeros(size, dtype=np.int64)
    for b in range(bits):
        rev |= ((x >> b) & 1) << (bits - 1 - b)
    return a.reshape(size)[rev]


def fejer_coeffs(coeffs: np.ndarray, n: int) -> np.ndarray:
    out = np.zeros_like(coeffs)
    out[:n] = coeffs[:n] * (1.0 - np.arange(n) / n)
    return out


# ---------------------------------------------------------------------------
# quasinorms of cell values


def lp(values: np.ndarray, p: float) -> float:
    return float(np.mean(np.abs(values) ** p) ** (1.0 / p))


def weak_profile(values: np.ndarray, p: float) -> tuple[float, np.ndarray, np.ndarray]:
    """sup_v v^p * measure(|f| >= v) over the achieved magnitudes v > 0.

    Also returns the distinct positive magnitudes in descending order and
    the measure of the set where |f| reaches each.
    """
    mags = np.sort(np.abs(values))[::-1]
    levels, first = np.unique(-mags, return_index=True)
    levels = -levels
    ends = np.append(first[1:], mags.size)
    measure = ends / mags.size
    keep = levels > 0
    levels, measure = levels[keep], measure[keep]
    best = float(np.max(levels**p * measure)) if levels.size else 0.0
    return best, levels, measure


def maximal(values: np.ndarray, m: tuple[int, ...]) -> np.ndarray:
    """sup over levels of |block mean| on the cylinders of each level."""
    size = values.size
    best = np.abs(values)
    width = 1
    means = values
    for mj in reversed(m):
        width *= mj
        means = means.reshape(-1, mj).mean(axis=1)
        best = np.maximum(best, np.repeat(np.abs(means), width))
    return best
