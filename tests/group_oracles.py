"""The pointwise group model and the direct oracles the fast paths are checked against.

The library names a point only by the id of its depth-N cell.  The model
here keeps the group's own description instead: a point is its digit
vector, addition is digitwise modulo m_j, and a character is evaluated at a
point as a product of Rademacher values.  The direct oracles (synthesis by
summing characters, convolution by the double sum with group subtraction,
conditional expectation by block means, assembly from atoms) share nothing
with the staged transform beyond the root tables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from vilenkin_lab.errors import ResolutionError
from vilenkin_lab.norms import AtomicDecomposition
from vilenkin_lab.structure import (
    VilenkinStructure,
    cell_digit_table,
    character_column,
    index_to_digits,
    root_tables,
)
from vilenkin_lab.transform import Spectrum, StepFunction, analyze, partial_sum, synthesize


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
