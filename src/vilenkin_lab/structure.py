"""Bounded Vilenkin group arithmetic.

A group is described by a generating sequence ``m = (m_0, m_1, ...)`` of
integers >= 2.  The scale table ``M`` satisfies ``M[0] = 1`` and
``M[k+1] = m[k] * M[k]``.  Truncating at a working resolution ``N``
identifies the group with the ``M[N]`` cylinder cells of depth ``N``; every
function handled by this package is constant on those cells, so integrals
are exact finite sums.

Two mixed-radix digit conventions coexist and must not be confused:

* integer indices (used for characters and spectra) expand as
  ``n = sum_j n_j * M[j]``, digit 0 carrying the smallest weight;
* cells of depth ``N`` are ordered like subintervals of ``[0, 1)``: the
  cell id of a point ``x`` is ``sum_j x_j * (M[N] // M[j+1])``, digit 0
  carrying the largest weight, which makes every cylinder a contiguous
  range of cell ids.

All operations here are pure; a :class:`VilenkinStructure` is immutable and
freely shareable across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import ResolutionError


@dataclass(frozen=True)
class VilenkinStructure:
    """Generating sequence, its scale table, and the working resolution.

    Attributes:
        m: generating sequence, one integer >= 2 per coordinate, length N.
        M: scale table of length N + 1 with M[0] = 1, M[k+1] = m[k] * M[k].
        lam: the largest generator actually used (the boundedness constant).
        N: working resolution, i.e. the number of coordinates kept.
    """

    m: tuple[int, ...]
    M: tuple[int, ...]
    lam: int
    N: int

    @classmethod
    def from_m(cls, m: Sequence[int]) -> "VilenkinStructure":
        """Build a structure from an explicit generating sequence."""
        seq = tuple(int(v) for v in m)
        if not seq:
            raise ValueError("generating sequence must be non-empty")
        for k, v in enumerate(seq):
            if v < 2:
                raise ValueError(f"generator m[{k}] = {v} must be >= 2")
        scales = [1]
        for v in seq:
            scales.append(scales[-1] * v)
        return cls(m=seq, M=tuple(scales), lam=max(seq), N=len(seq))

    @classmethod
    def from_pattern(cls, pattern: Sequence[int], depth: int) -> "VilenkinStructure":
        """Repeat ``pattern`` cyclically until ``depth`` coordinates exist."""
        pat = tuple(int(v) for v in pattern)
        if not pat:
            raise ValueError("pattern must be non-empty")
        if depth < 1:
            raise ValueError("depth must be >= 1")
        reps = -(-depth // len(pat))
        return cls.from_m((pat * reps)[:depth])

    @property
    def size(self) -> int:
        """Number of depth-N cells, i.e. M[N]."""
        return self.M[self.N]

    def cell_weight(self, j: int) -> int:
        """Weight of digit ``j`` in the cell ordering: M[N] // M[j+1]."""
        return self.M[self.N] // self.M[j + 1]


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


def digits_to_index(digits: Sequence[int], vs: VilenkinStructure) -> int:
    """Inverse of :func:`index_to_digits`; validates every digit."""
    if len(digits) > vs.N:
        raise ResolutionError(f"{len(digits)} digits exceed resolution {vs.N}")
    total = 0
    for j, d in enumerate(digits):
        if not 0 <= d < vs.m[j]:
            raise ValueError(f"digit {d} at position {j} not in [0, {vs.m[j]})")
        total += d * vs.M[j]
    return total


def leading_position(n: int, vs: VilenkinStructure) -> int:
    """Position of the highest nonzero digit of ``n`` (requires n >= 1).

    Satisfies M[result] <= n < M[result + 1].
    """
    if n < 1:
        raise ValueError("leading position is undefined for n = 0")
    if n >= vs.M[vs.N]:
        raise ResolutionError(f"index {n} >= M[N] = {vs.M[vs.N]}")
    pos = 0
    for j in range(vs.N):
        if vs.M[j] <= n:
            pos = j
        else:
            break
    return pos


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


def sub_points(x: GroupPoint, y: GroupPoint, vs: VilenkinStructure) -> GroupPoint:
    """Coordinatewise modular subtraction (no borrows)."""
    _check_point(x, vs)
    _check_point(y, vs)
    return GroupPoint(
        tuple((a - b) % mk for a, b, mk in zip(x.digits, y.digits, vs.m))
    )


def point_to_cell(x: GroupPoint, vs: VilenkinStructure) -> int:
    """Cell id of a point in the canonical (interval) order."""
    _check_point(x, vs)
    return sum(d * vs.cell_weight(j) for j, d in enumerate(x.digits))


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


def cylinder_cells(x: GroupPoint, depth: int, vs: VilenkinStructure) -> range:
    """Contiguous cell-id range of the depth-``depth`` cylinder through ``x``.

    The range holds M[N] // M[depth] cells, so its measure is 1 / M[depth].
    """
    _check_point(x, vs)
    if not 0 <= depth <= vs.N:
        raise ResolutionError(f"cylinder depth {depth} not in [0, {vs.N}]")
    width = vs.size // vs.M[depth]
    start = sum(x.digits[j] * vs.cell_weight(j) for j in range(depth))
    return range(start, start + width)


@lru_cache(maxsize=32)
def cell_digit_table(vs: VilenkinStructure) -> np.ndarray:
    """Digit matrix of shape (N, M[N]): row j holds digit j of every cell.

    An int64 table of N * M[N] entries, read only by the direct
    ``convolve`` oracle; the fast paths read digits as array axes.
    """
    ids = np.arange(vs.size, dtype=np.int64)
    rows = np.empty((vs.N, vs.size), dtype=np.int64)
    for j in range(vs.N):
        rows[j] = (ids // vs.cell_weight(j)) % vs.m[j]
    rows.setflags(write=False)
    return rows


@lru_cache(maxsize=32)
def root_tables(vs: VilenkinStructure) -> tuple[np.ndarray, ...]:
    """Per-coordinate tables of m_j-th roots of unity, exp(2*pi*i*t/m_j).

    Characters are evaluated by table lookup so the only transcendental
    calls happen here, once per structure.
    """
    tables = []
    for mj in vs.m:
        t = np.exp(2j * np.pi * np.arange(mj) / mj)
        t.setflags(write=False)
        tables.append(t)
    return tuple(tables)


def rademacher_column(k: int, vs: VilenkinStructure) -> np.ndarray:
    """Values of the k-th generalized Rademacher function on all cells."""
    if not 0 <= k < vs.N:
        raise ResolutionError(f"coordinate {k} not below resolution {vs.N}")
    # Cell ids are C order over vs.m, so digit k of a cell is the middle
    # axis of the (M[k], m[k], rest) view.
    col = np.empty(vs.size, dtype=np.complex128)
    col.reshape(vs.M[k], vs.m[k], -1)[...] = root_tables(vs)[k][:, None]
    return col


def character_column(n: int, vs: VilenkinStructure) -> np.ndarray:
    """Values of the n-th character on all cells, in cell order.

    The character is the product over coordinates of the k-th Rademacher
    function raised to the k-th digit of ``n``.
    """
    if not 0 <= n < vs.size:
        raise ResolutionError(f"character index {n} not below M[N] = {vs.size}")
    col = np.ones(vs.size, dtype=np.complex128)
    roots = root_tables(vs)
    for j, nj in enumerate(index_to_digits(n, vs)):
        if nj:
            view = col.reshape(vs.M[j], vs.m[j], -1)
            view *= roots[j][(nj * np.arange(vs.m[j])) % vs.m[j]][:, None]
    return col
