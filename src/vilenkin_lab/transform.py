"""Step functions, spectra, and the fast mixed-radix character transform.

A :class:`StepFunction` stores one complex value per depth-N cell; a
:class:`Spectrum` stores one coefficient per character index below M[N].
``analyze`` and ``synthesize`` convert between them with a decimation-in-
digit factorization, one radix-m_j stage per coordinate, giving cost
O(M[N] * sum_j m_j) instead of the O(M[N]^2) direct summation, which is
kept as :func:`naive_analyze` for cross-checking.

Every stage in the trailing run of radix-2 stages (all of them on Walsh)
runs as a real add/multiply butterfly on separate real and imaginary
planes, tile by tile while the tile is in cache: the stages acting across
blocks wider than ``_BLOCK`` cells on column slabs, the rest on chunks of
whole blocks, transposed once halfway so that no stage pairs neighbouring
cells.  Each butterfly rounds every operation exactly as the dense stage's
sum of products does, so the output is bit-identical to it (a test compares
the two byte for byte).  Stages of any other radix, and radix-2 stages
before the last stage of another radix, are a dense ``einsum`` against their
stage matrix.  The butterflies keep the unsnapped root w = exp(i*pi) of the
root tables, whose imaginary part is about 1.2e-16: snapping it to -1 would
move stored records, so it waits for the benchmark change of ROADMAP item 1.

Every operation is pure and the reduction order inside each output entry
is fixed (stages ascend in coordinate, each output entry sums its stage
inputs in ascending digit), so results do not depend on scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from .errors import ResolutionError
from .structure import VilenkinStructure, character_column, root_tables


@dataclass
class StepFunction:
    """Complex-valued function constant on each depth-N cell."""

    vs: VilenkinStructure
    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=np.complex128)
        if arr.shape != (self.vs.size,):
            raise ValueError(
                f"expected {self.vs.size} cell values, got shape {arr.shape}"
            )
        self.values = arr

    def _require_same(self, other: "StepFunction") -> None:
        if self.vs != other.vs:
            raise ValueError("step functions live on different structures")

    def __add__(self, other: "StepFunction") -> "StepFunction":
        self._require_same(other)
        return StepFunction(self.vs, self.values + other.values)

    def __sub__(self, other: "StepFunction") -> "StepFunction":
        self._require_same(other)
        return StepFunction(self.vs, self.values - other.values)

    def __mul__(self, scalar: complex) -> "StepFunction":
        return StepFunction(self.vs, self.values * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "StepFunction":
        return StepFunction(self.vs, -self.values)


@dataclass
class Spectrum:
    """Character coefficients f^(0), ..., f^(M[N]-1) of a step function."""

    vs: VilenkinStructure
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.coeffs, dtype=np.complex128)
        if arr.shape != (self.vs.size,):
            raise ValueError(
                f"expected {self.vs.size} coefficients, got shape {arr.shape}"
            )
        self.coeffs = arr


@lru_cache(maxsize=32)
def _stage_matrices(vs: VilenkinStructure) -> tuple[np.ndarray, ...]:
    # Analysis stage for coordinate j: entry [k, d] = exp(-2*pi*i*k*d/m_j),
    # built by root-table lookup for determinism.
    mats = []
    for j, mj in enumerate(vs.m):
        k = np.arange(mj)
        mat = root_tables(vs)[j][np.outer(k, k) % mj].conj()
        mat.setflags(write=False)
        mats.append(mat)
    return tuple(mats)


# Cells per cache tile of the radix-2 stages in _run_stages.
_BLOCK = 2**15


def _run_stages(flat: np.ndarray, vs: VilenkinStructure, conjugate: bool) -> np.ndarray:
    mats = _stage_matrices(vs)
    # Stages from r0 on are radix 2 and run as butterflies; the rest as einsum.
    r0 = vs.N
    while r0 > 0 and vs.m[r0 - 1] == 2:
        r0 -= 1
    a = flat
    for j in range(r0):
        mat = mats[j].conj() if conjugate else mats[j]
        high = vs.M[j]
        mj = vs.m[j]
        low = vs.size // (high * mj)
        a = np.einsum("kd,hdl->hkl", mat, a.reshape(high, mj, low)).reshape(-1)
    if r0 == vs.N:
        return a
    # Each tile is read from a and written back to out once all its stages
    # are done, so the einsum result is updated in place and the caller's
    # array is never written.  The read adds +0.0: einsum accumulates onto
    # +0.0 and so never returns -0.0, and neither may the butterflies.
    out = a if r0 else np.empty_like(flat)
    w_imag = [(mats[j][1, 1].conj() if conjugate else mats[j][1, 1]).imag for j in range(vs.N)]
    # Stages from tail on act inside blocks of width <= _BLOCK cells and run
    # on chunks of whole blocks; stages r0..tail-1 act across the rows of
    # (M[r0], rows, width) and run on column slabs of rows x cols cells.
    tail = r0
    while vs.size // vs.M[tail] > _BLOCK:
        tail += 1
    width = vs.size // vs.M[tail]
    rows = vs.M[tail] // vs.M[r0]
    cols = min(width, max(_BLOCK // rows, 1))
    per = max(_BLOCK // width, 1)
    cells = min(per, vs.M[tail]) * width
    planes = np.empty((2, 2, max(rows * cols, cells)))
    scratch = np.empty((2, planes.shape[2] // 2))
    if tail > r0:
        src = a.view(np.float64).reshape(vs.M[r0], rows, width, 2)
        dst = out.view(np.float64).reshape(vs.M[r0], rows, width, 2)
        stages = [(vs.M[tail] // vs.M[j + 1] * cols, w_imag[j]) for j in range(r0, tail)]
        x, y = planes[:, :, : rows * cols]
        for h in range(vs.M[r0]):
            for c in range(0, width, cols):
                np.add(src[h, :, c : c + cols].transpose(2, 0, 1), 0.0, out=x.reshape(2, rows, cols))
                done, _ = _butterflies(x, y, scratch, stages)
                np.copyto(dst[h, :, c : c + cols].transpose(2, 0, 1), done.reshape(2, rows, cols))
        a = out
    # Block (hi, lo) is transposed to (lo, hi) halfway, so that no stage
    # pairs cells closer than min(hi, lo) apart.
    half = (width.bit_length() - 1) // 2
    hi = 2**half
    lo = width // hi
    first = [(vs.size // vs.M[j + 1], w_imag[j]) for j in range(tail, tail + half)]
    second = [(vs.size // vs.M[j + 1] * hi, w_imag[j]) for j in range(tail + half, vs.N)]
    src = a.view(np.float64).reshape(vs.M[tail], width, 2)
    dst = out.view(np.float64).reshape(vs.M[tail], width, 2)
    for b in range(0, vs.M[tail], per):
        g = min(per, vs.M[tail] - b)
        x = planes[0, :, : g * width]
        y = planes[1, :, : g * width]
        np.add(src[b : b + g].transpose(2, 0, 1), 0.0, out=x.reshape(2, g, width))
        x, y = _butterflies(x, y, scratch, first)
        np.copyto(y.reshape(2, g, lo, hi), x.reshape(2, g, hi, lo).transpose(0, 1, 3, 2))
        x, _ = _butterflies(y, x, scratch, second)
        back = x.reshape(2, g, lo, hi).transpose(0, 1, 3, 2)
        np.copyto(dst[b : b + g].transpose(2, 0, 1).reshape(2, g, hi, lo), back)
    return out


def _butterflies(
    x: np.ndarray, y: np.ndarray, scratch: np.ndarray, stages: list[tuple[int, float]]
) -> tuple[np.ndarray, np.ndarray]:
    # Radix-2 stages, matrix [[1, 1], [1, w]] with w.real == -1, on the
    # (re, im) planes x, each stage pairing cells `low` apart and writing
    # into the other buffer; returns (result, spare).  einsum forms each
    # product as re*re - im*im and re*im + im*re, then adds it onto the
    # running sum; one ufunc per operation rounds each step once, exactly as
    # it does.  A complex np.multiply by w may fuse multiply-adds and round
    # differently.
    t = scratch[:, : x.shape[1] // 2]
    for low, w_imag in stages:
        s = x.reshape(2, -1, 2, low)
        d = y.reshape(2, -1, 2, low)
        p = t.reshape(2, -1, low)
        np.add(s[:, :, 0], s[:, :, 1], out=d[:, :, 0])
        np.multiply(s[::-1, :, 1], w_imag, out=p)
        np.add(p[0], s[0, :, 1], out=p[0])
        np.subtract(p[1], s[1, :, 1], out=p[1])
        np.subtract(s[0, :, 0], p[0], out=d[0, :, 1])
        np.add(s[1, :, 0], p[1], out=d[1, :, 1])
        x, y = y, x
    return x, y


def analyze(f: StepFunction) -> Spectrum:
    """Character coefficients of ``f`` via the factorized fast transform."""
    vs = f.vs
    packed = _run_stages(f.values, vs, conjugate=False)
    # Stage j leaves coefficient digit j on axis j of packed.reshape(vs.m);
    # the index sum_j k_j * M[j] is C order over the reversed axes.
    coeffs = packed.reshape(vs.m).transpose().reshape(-1)
    coeffs /= vs.size
    return Spectrum(vs, coeffs)


def synthesize(s: Spectrum) -> StepFunction:
    """Step function with the given coefficients (inverse of analyze)."""
    vs = s.vs
    packed = s.coeffs.reshape(vs.m[::-1]).transpose().reshape(-1)
    return StepFunction(vs, _run_stages(packed, vs, conjugate=True))


def naive_analyze(f: StepFunction, indices: np.ndarray | None = None) -> np.ndarray:
    """Direct O(M^2) coefficient computation, the oracle for ``analyze``.

    Each requested coefficient is the mean of ``f`` against the conjugated
    character column; no factorization across coefficients is used.
    """
    vs = f.vs
    idx = np.arange(vs.size) if indices is None else np.asarray(indices)
    out = np.empty(len(idx), dtype=np.complex128)
    for pos, n in enumerate(idx):
        out[pos] = (f.values * character_column(int(n), vs).conj()).mean()
    return out


def partial_sum(s: Spectrum, n: int) -> StepFunction:
    """Partial sum with the first ``n`` coefficients; n = 0 gives zero."""
    vs = s.vs
    if not 0 <= n <= vs.size:
        raise ResolutionError(f"partial-sum order {n} not in [0, {vs.size}]")
    kept = np.zeros(vs.size, dtype=np.complex128)
    kept[:n] = s.coeffs[:n]
    return synthesize(Spectrum(vs, kept))


def fejer_coefficients(s: Spectrum, n: int) -> Spectrum:
    """Spectrum of the n-th Fejer mean: coefficient j scaled by 1 - j/n."""
    vs = s.vs
    if n < 1:
        raise ValueError(f"Fejer mean needs order >= 1, got {n}")
    if n > vs.size:
        raise ResolutionError(f"Fejer order {n} exceeds M[N] = {vs.size}")
    out = np.zeros(vs.size, dtype=np.complex128)
    out[:n] = s.coeffs[:n] * (1.0 - np.arange(n) / n)
    return Spectrum(vs, out)


def fejer_mean(s: Spectrum, n: int) -> StepFunction:
    """The n-th Fejer (arithmetic) mean of the partial sums."""
    return synthesize(fejer_coefficients(s, n))


def _block_maximum(f: StepFunction) -> StepFunction:
    # Pyramid of block-mean magnitudes from the finest level down; the
    # running maximum is then carried back up at each level's resolution,
    # and only the last step touches every cell.
    vs = f.vs
    means = f.values
    mags = []
    for level in range(vs.N - 1, -1, -1):
        means = means.reshape(vs.M[level], vs.m[level]).mean(axis=1)
        mags.append(np.abs(means))
    run = mags.pop()
    for level in range(1, vs.N):
        mag = mags.pop()
        blocks = mag.reshape(vs.M[level - 1], vs.m[level - 1])
        np.maximum(blocks, run[:, None], out=blocks)
        run = mag
    best = np.abs(f.values)
    blocks = best.reshape(vs.M[vs.N - 1], vs.m[vs.N - 1])
    np.maximum(blocks, run[:, None], out=blocks)
    return StepFunction(vs, best.astype(np.complex128))


def maximal_function(s: Spectrum) -> StepFunction:
    """Pointwise maximum of |conditional expectation| over all levels."""
    return _block_maximum(synthesize(s))


@dataclass(frozen=True)
class FejerWeight:
    """Normalizing weight (n+1)^(1/p - 2) * log(n+1)^(2*floor(1/2 + p)).

    For p < 1/2 the log power is 0; at p = 1/2 the power exponent is 0 and
    the log power is 2.  Natural logarithm throughout; the argument n + 1
    keeps the weight positive from n = 1 on.
    """

    p: float
    exponent: float
    log_power: int

    @classmethod
    def for_p(cls, p: float) -> "FejerWeight":
        if not 0 < p <= 0.5:
            raise ValueError(f"weight defined for p in (0, 1/2], got {p}")
        return cls(p=p, exponent=1.0 / p - 2.0, log_power=2 * math.floor(0.5 + p))

    def at(self, n: int) -> float:
        return (n + 1.0) ** self.exponent * math.log(n + 1.0) ** self.log_power


def iter_fejer_means(s: Spectrum, n_max: int) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (n, values of the n-th Fejer mean) for n = 1..n_max.

    Runs the recurrence S_n = S_{n-1} + coefficient * character and the
    running sum of partial sums, costing O(n_max * M[N]) overall; the
    accumulation order is fixed (ascending n).
    """
    vs = s.vs
    if not 1 <= n_max <= vs.size:
        raise ResolutionError(f"sweep bound {n_max} not in [1, {vs.size}]")
    partial = np.zeros(vs.size, dtype=np.complex128)
    total = np.zeros(vs.size, dtype=np.complex128)
    for n in range(1, n_max + 1):
        c = s.coeffs[n - 1]
        if c != 0:
            partial = partial + c * character_column(n - 1, vs)
        total = total + partial
        yield n, total / n


def weighted_maximal_fejer(s: Spectrum, p: float, n_max: int) -> StepFunction:
    """Pointwise sup over n <= n_max of |Fejer mean| / weight(n)."""
    weight = FejerWeight.for_p(p)
    best = np.zeros(s.vs.size, dtype=np.float64)
    for n, sigma in iter_fejer_means(s, n_max):
        np.maximum(best, np.abs(sigma) / weight.at(n), out=best)
    return StepFunction(s.vs, best.astype(np.complex128))
