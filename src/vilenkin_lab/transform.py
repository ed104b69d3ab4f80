"""Step functions, spectra, and the fast mixed-radix character transform.

A :class:`StepFunction` stores one complex value per depth-N cell; a
:class:`Spectrum` stores one coefficient per character index below M[N].
``analyze`` and ``synthesize`` convert between them with a decimation-in-
digit factorization: one dense radix-m_j stage per coordinate, giving cost
O(M[N] * sum_j m_j) instead of the O(M[N]^2) direct summation, which is
kept as :func:`naive_analyze` for cross-checking.

Every operation is pure and the reduction order inside each output entry
is fixed (stages ascend in coordinate, accumulation loops ascend in
index), so results do not depend on scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from .errors import ResolutionError
from .structure import (
    VilenkinStructure,
    cell_digit_table,
    character_column,
    root_tables,
)


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

    def integral(self) -> complex:
        """Exact Haar integral: the mean of the cell values."""
        return complex(self.values.mean())

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


@lru_cache(maxsize=32)
def _coeff_order(vs: VilenkinStructure) -> np.ndarray:
    # After the stage loop, the flat array is indexed by coefficient digits
    # packed in cell order; entry i of this table is the integer index
    # sum_j digit_j(i) * M[j] of that packed position.
    digits = cell_digit_table(vs)
    order = np.zeros(vs.size, dtype=np.int64)
    for j in range(vs.N):
        order += digits[j] * vs.M[j]
    order.setflags(write=False)
    return order


def _run_stages(flat: np.ndarray, vs: VilenkinStructure, conjugate: bool) -> np.ndarray:
    mats = _stage_matrices(vs)
    a = flat
    for j in range(vs.N):
        mat = mats[j].conj() if conjugate else mats[j]
        high = vs.M[j]
        mj = vs.m[j]
        low = vs.size // (high * mj)
        a = np.einsum("kd,hdl->hkl", mat, a.reshape(high, mj, low)).reshape(-1)
    return a


def analyze(f: StepFunction) -> Spectrum:
    """Character coefficients of ``f`` via the factorized fast transform."""
    vs = f.vs
    packed = _run_stages(f.values, vs, conjugate=False)
    coeffs = np.empty(vs.size, dtype=np.complex128)
    coeffs[_coeff_order(vs)] = packed
    return Spectrum(vs, coeffs / vs.size)


def synthesize(s: Spectrum) -> StepFunction:
    """Step function with the given coefficients (inverse of analyze)."""
    vs = s.vs
    packed = s.coeffs[_coeff_order(vs)]
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


def naive_synthesize(coeffs: np.ndarray, vs: VilenkinStructure) -> np.ndarray:
    """Direct O(M^2) synthesis oracle: sum of coefficient * character."""
    out = np.zeros(vs.size, dtype=np.complex128)
    for n, c in enumerate(np.asarray(coeffs)):
        if c != 0:
            out += c * character_column(n, vs)
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


def convolve(f: StepFunction, g: StepFunction) -> StepFunction:
    """Group convolution (f * g)(x) = integral of f(t) g(x - t) dt.

    Computed by the direct double sum with group subtraction, so it stays
    independent of the transform; the coefficient product rule is a checked
    property, not the implementation.
    """
    if f.vs != g.vs:
        raise ValueError("convolution operands live on different structures")
    vs = f.vs
    digits = cell_digit_table(vs)
    mods = np.array(vs.m, dtype=np.int64).reshape(vs.N, 1)
    weights = np.array([vs.cell_weight(j) for j in range(vs.N)], dtype=np.int64)
    out = np.empty(vs.size, dtype=np.complex128)
    for x in range(vs.size):
        xd = digits[:, x].reshape(vs.N, 1)
        ids = weights @ ((xd - digits) % mods)
        out[x] = (f.values * g.values[ids]).mean()
    return StepFunction(vs, out)


def condexp(s: Spectrum, level: int) -> StepFunction:
    """Conditional expectation on the depth-``level`` cylinder algebra.

    Implemented as the block average of the synthesized values; agreement
    with the partial sum of order M[level] is a tested identity.
    """
    vs = s.vs
    if not 0 <= level <= vs.N:
        raise ResolutionError(f"level {level} not in [0, {vs.N}]")
    values = synthesize(s).values
    width = vs.size // vs.M[level]
    means = values.reshape(vs.M[level], width).mean(axis=1)
    return StepFunction(vs, np.repeat(means, width))


def maximal_function(s: Spectrum) -> StepFunction:
    """Pointwise maximum of |conditional expectation| over all levels."""
    vs = s.vs
    values = synthesize(s).values
    best = np.abs(values)
    means = values
    for level in range(vs.N - 1, -1, -1):
        means = means.reshape(vs.M[level], vs.m[level]).mean(axis=1)
        blocks = best.reshape(vs.M[level], -1)
        np.maximum(blocks, np.abs(means)[:, None], out=blocks)
    return StepFunction(vs, best.astype(np.complex128))


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


def fejer_weight(n: int, p: float) -> float:
    return FejerWeight.for_p(p).at(n)


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
