"""The pointwise group model and the direct oracles the fast paths are checked against.

The library names a point only by the id of its depth-N cell.  The model
here keeps the group's own description instead: a point is its digit
vector, addition is digitwise modulo m_j, and a character is evaluated at a
point as a product of Rademacher values.  The direct oracles (synthesis by
summing characters, convolution by the double sum with group subtraction,
conditional expectation by block means, assembly from atoms, the Fejer
means one order at a time) share nothing with the staged transform beyond
the root tables; their character columns come from the digit table, not
from ``character_rows``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from vilenkin_lab import experiments
from vilenkin_lab.errors import ResolutionError
from vilenkin_lab.norms import AtomicDecomposition, hardy_norm, lp_quasinorm
from vilenkin_lab.structure import (
    VilenkinStructure,
    cell_digit_table,
    root_tables,
)
from vilenkin_lab.transform import (
    FejerWeight,
    Spectrum,
    StepFunction,
    analyze,
    partial_sum,
    synthesize,
)


def index_to_digits(n: int, vs: VilenkinStructure) -> tuple[int, ...]:
    """Expand an integer in the generalized number system of ``vs``.

    Returns digits (d_0, ..., d_{N-1}) with n = sum_j d_j * M[j] and
    d_j in [0, m[j]).
    """
    if n < 0:
        raise ValueError(f"index must be >= 0, got {n}")
    if n >= vs.size:
        raise ResolutionError(f"index {n} >= M[{vs.N}] = {vs.size}")
    return tuple((n // vs.M[j]) % vs.m[j] for j in range(vs.N))


@dataclass(frozen=True)
class GroupPoint:
    """A point of the group as its digit vector, one digit per coordinate."""

    digits: tuple[int, ...]


def _check_point(x: GroupPoint, vs: VilenkinStructure) -> None:
    if len(x.digits) != vs.N:
        raise ValueError(
            f"point has {len(x.digits)} digits, structure expects {vs.N}"
        )
    for k, d in enumerate(x.digits):
        if not 0 <= d < vs.m[k]:
            raise ValueError(f"digit {d} at position {k} not in [0, {vs.m[k]})")


def zero_point(vs: VilenkinStructure) -> GroupPoint:
    return GroupPoint((0,) * vs.N)


def basis_point(position: int, value: int, vs: VilenkinStructure) -> GroupPoint:
    """Point with digit ``value`` at ``position`` and zeros elsewhere.

    ``value`` must lie in [1, m[position]).
    """
    if not 0 <= position < vs.N:
        raise ResolutionError(f"position {position} not below resolution {vs.N}")
    if not 1 <= value < vs.m[position]:
        raise ValueError(
            f"digit {value} at position {position} not in [1, {vs.m[position]})"
        )
    digits = [0] * vs.N
    digits[position] = value
    return GroupPoint(tuple(digits))


def add_points(x: GroupPoint, y: GroupPoint, vs: VilenkinStructure) -> GroupPoint:
    """Coordinatewise modular addition (no carries)."""
    _check_point(x, vs)
    _check_point(y, vs)
    return GroupPoint(
        tuple((a + b) % mk for a, b, mk in zip(x.digits, y.digits, vs.m))
    )


def cell_to_point(cell: int, vs: VilenkinStructure) -> GroupPoint:
    """Point whose depth-N cell has id ``cell``."""
    if not 0 <= cell < vs.size:
        raise ValueError(f"cell id {cell} not in [0, {vs.size})")
    digits = []
    rem = cell
    for j in range(vs.N):
        w = vs.cell_weight(j)
        digits.append(rem // w)
        rem %= w
    return GroupPoint(tuple(digits))


def point_cylinder_cells(x: GroupPoint, depth: int, vs: VilenkinStructure) -> range:
    """Cell-id range of the depth-``depth`` cylinder through ``x``, from its
    first ``depth`` digits and their cell weights."""
    _check_point(x, vs)
    if not 0 <= depth <= vs.N:
        raise ResolutionError(f"cylinder depth {depth} not in [0, {vs.N}]")
    width = vs.size // vs.M[depth]
    start = sum(x.digits[j] * vs.cell_weight(j) for j in range(depth))
    return range(start, start + width)


def rademacher(k: int, x: GroupPoint, vs: VilenkinStructure) -> complex:
    """Value of the k-th generalized Rademacher function at ``x``."""
    if not 0 <= k < vs.N:
        raise ResolutionError(f"coordinate {k} not below resolution {vs.N}")
    return complex(root_tables(vs)[k][x.digits[k] % vs.m[k]])


def character(n: int, x: GroupPoint, vs: VilenkinStructure) -> complex:
    """Value of the n-th character at ``x`` (product of Rademacher powers)."""
    if not 0 <= n < vs.size:
        raise ResolutionError(f"character index {n} not below M[N] = {vs.size}")
    value = 1 + 0j
    for k, nk in enumerate(index_to_digits(n, vs)):
        if nk:
            value *= complex(root_tables(vs)[k][(nk * x.digits[k]) % vs.m[k]])
    return value


def character_column(n: int, vs: VilenkinStructure) -> np.ndarray:
    """Values of the n-th character on all cells, by digit-table lookup: the
    root of each nonzero index digit at every cell's digit, multiplied onto
    1 in ascending coordinate.  ``structure.character_rows`` must give the
    same bits (it also multiplies by the 1 + 0j of each zero digit)."""
    col = np.ones(vs.size, dtype=np.complex128)
    digits = cell_digit_table(vs)
    for j, nj in enumerate(index_to_digits(n, vs)):
        if nj:
            col = col * root_tables(vs)[j][(nj * digits[j]) % vs.m[j]]
    return col


def rademacher_column(k: int, vs: VilenkinStructure) -> np.ndarray:
    """Values of the k-th generalized Rademacher function on all cells."""
    if not 0 <= k < vs.N:
        raise ResolutionError(f"coordinate {k} not below resolution {vs.N}")
    # Cell ids are C order over vs.m, so digit k of a cell is the middle
    # axis of the (M[k], m[k], rest) view.
    col = np.empty(vs.size, dtype=np.complex128)
    col.reshape(vs.M[k], vs.m[k], -1)[...] = root_tables(vs)[k][:, None]
    return col


def naive_synthesize(coeffs: np.ndarray, vs: VilenkinStructure) -> np.ndarray:
    """Direct O(M^2) synthesis oracle: sum of coefficient * character."""
    out = np.zeros(vs.size, dtype=np.complex128)
    for n, c in enumerate(np.asarray(coeffs)):
        if c != 0:
            out += c * character_column(n, vs)
    return out


def fejer_recurrence(s: Spectrum, n_max: int):
    """Yield (n, values of the n-th Fejer mean) for n = 1..n_max, one order
    at a time: S_n = S_{n-1} + coefficient * character, skipped for a zero
    coefficient, and the running sum of partial sums divided by n."""
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


def per_order_weighted_ratio(s: Spectrum, p: float, n_max: int) -> float:
    """max over n <= n_max of ||sigma_n f||_p / (weight_p(n) * ||f||_{H_p}),
    0 for f = 0, with each sigma_n from :func:`fejer_recurrence` normed by
    ``lp_quasinorm`` on its own."""
    denom = hardy_norm(s, p)
    if denom == 0:
        return 0.0
    weight = FejerWeight.for_p(p)
    best = 0.0
    for n, sigma in fejer_recurrence(s, n_max):
        best = max(best, lp_quasinorm(StepFunction(s.vs, sigma), p) / (weight.at(n) * denom))
    return best


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


def assemble_from_atoms(d: AtomicDecomposition, level: int) -> StepFunction:
    """Level-``level`` martingale term: sum of mu_k times the level-M[level]
    partial sum of each atom.

    An empty decomposition has no structure to build on and raises.
    """
    if not d.atoms:
        raise ValueError("empty decomposition has no structure to assemble on")
    vs = d.atoms[0].vs
    if not 0 <= level <= vs.N:
        raise ResolutionError(f"level {level} not in [0, {vs.N}]")
    total = np.zeros(vs.size, dtype=np.complex128)
    for idx, (mu, atom) in enumerate(zip(d.coefficients, d.atoms)):
        if atom.vs != vs:
            raise ValueError(f"atom {idx} lives on a different structure")
        total += mu * partial_sum(analyze(atom), vs.M[level]).values
    return StepFunction(vs, total)


def per_function_parseval(vs: VilenkinStructure, rng, count: int) -> float:
    """``experiments.parseval_worst_rel`` as a per-function loop: one
    sampler call per function."""
    worst_rel = 0.0
    for _ in range(count):
        f = StepFunction(vs, rng.complex_uniforms(vs.size))
        s = analyze(f)
        lhs = float(np.mean(np.abs(f.values) ** 2))
        rhs = float(np.sum(np.abs(s.coeffs) ** 2))
        worst_rel = max(worst_rel, abs(lhs - rhs) / max(lhs, 1e-300))
    return worst_rel


def scalar_weighted_ratio(spec: Spectrum, ps: tuple[float, ...], n_max: int) -> tuple[float, ...]:
    """``experiments.max_weighted_ratio`` as a per-order loop: each row of
    the blocks of ``experiments.fejer_mean_blocks`` (read at call time, so
    a test may replace it) rooted with the scalar power, divided by the
    scalar weight and taken into the running best with ``max``."""
    mf = experiments.maximal_function(spec)
    best = [0.0] * len(ps)
    denoms = [experiments.lp_quasinorm(mf, p) for p in ps]
    swept = [(i, p, FejerWeight.for_p(p), denom)
             for i, (p, denom) in enumerate(zip(ps, denoms)) if denom != 0]
    if not swept:
        return tuple(best)
    for first, sigma in experiments.fejer_mean_blocks(spec, n_max):
        mags = np.abs(sigma)
        for i, p, weight, denom in swept:
            means = np.mean(mags**p, axis=1)
            for n, mean in enumerate(means, first):
                best[i] = max(best[i], float(mean ** (1.0 / p)) / (weight.at(n) * denom))
    return tuple(best)
