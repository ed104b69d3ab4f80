"""Bounded Vilenkin groups: scale tables, digit expansions and cells.

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

A point of the group is named only by the id of its depth-N cell.

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
        seq = tuple(m)
        if not seq:
            raise ValueError("generating sequence must be non-empty")
        for k, v in enumerate(seq):
            if not isinstance(v, (int, np.integer)) or v < 2:
                raise ValueError(f"generator m[{k}] = {v!r} must be an integer >= 2")
        seq = tuple(int(v) for v in seq)
        scales = [1]
        for v in seq:
            scales.append(scales[-1] * v)
        return cls(m=seq, M=tuple(scales), lam=max(seq), N=len(seq))

    @classmethod
    def from_pattern(cls, pattern: Sequence[int], depth: int) -> "VilenkinStructure":
        """Repeat ``pattern`` cyclically until ``depth`` coordinates exist."""
        pat = tuple(pattern)
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


def cylinder_cells(cell: int, depth: int, vs: VilenkinStructure) -> range:
    """Contiguous cell-id range of the depth-``depth`` cylinder through ``cell``.

    The cylinder holds the cells that share the first ``depth`` digits of
    ``cell``; those digits carry the weights that are multiples of
    M[N] // M[depth], so the range is the width-aligned block containing
    ``cell``.  It holds M[N] // M[depth] cells, so its measure is
    1 / M[depth].
    """
    if not 0 <= cell < vs.size:
        raise ValueError(f"cell id {cell} not in [0, {vs.size})")
    if not 0 <= depth <= vs.N:
        raise ResolutionError(f"cylinder depth {depth} not in [0, {vs.N}]")
    width = vs.size // vs.M[depth]
    start = cell - cell % width
    return range(start, start + width)


@lru_cache(maxsize=32)
def cell_digit_table(vs: VilenkinStructure) -> np.ndarray:
    """Digit matrix of shape (N, M[N]): row j holds digit j of every cell.

    An int64 table of N * M[N] entries.  No fast path reads it (they read
    digits as array axes); the benchmark tracer pins it by name, and the
    tests' direct convolution oracle indexes it.
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


@lru_cache(maxsize=32)
def root_powers(vs: VilenkinStructure) -> tuple[np.ndarray, ...]:
    """Per-coordinate (m_j, m_j) tables: entry [d, t] of table j is the j-th
    Rademacher function raised to the digit d, at digit t, looked up in
    :func:`root_tables` as exp(2*pi*i*(d*t mod m_j)/m_j)."""
    tables = []
    for j, mj in enumerate(vs.m):
        k = np.arange(mj)
        t = root_tables(vs)[j][np.outer(k, k) % mj]
        t.setflags(write=False)
        tables.append(t)
    return tuple(tables)


@lru_cache(maxsize=32)
def _walsh_tables(vs: VilenkinStructure) -> tuple[np.ndarray, np.ndarray]:
    """Tables of the closed-form Walsh characters (every m_j = 2).

    ``powers[k]`` is the non-trivial root w of :func:`root_tables`
    multiplied onto 1 + 0j k times, k = 0..N, by the same ``np.multiply``
    and in the same operand order as the digit-by-digit path.  ``rev[x]``
    is cell id x with its N bits reversed: cell digit j has weight
    2^(N-1-j) and index digit j weight 2^j, so bit j of ``n & rev[x]`` is
    set exactly where both digits are 1.  ``rev`` takes the smallest
    unsigned type that holds M[N] - 1, 32 bits at the 2^22 cell cap.
    """
    w = root_tables(vs)[0][1:]
    powers = np.ones(vs.N + 1, dtype=np.complex128)
    for k in range(1, vs.N + 1):
        np.multiply(powers[k - 1 : k], w, out=powers[k : k + 1])
    ids = np.arange(vs.size, dtype=np.min_scalar_type(vs.size - 1))
    rev = np.zeros_like(ids)
    for j in range(vs.N):
        rev |= ((ids >> (vs.N - 1 - j)) & 1) << j
    powers.setflags(write=False)
    rev.setflags(write=False)
    return powers, rev


def character_rows(indices: np.ndarray, vs: VilenkinStructure) -> np.ndarray:
    """Values of the characters ``indices`` (a 1-D int array, in any order,
    repeats allowed) on all cells, one row per index, in cell order.

    The n-th character is the product over coordinates of the j-th
    Rademacher function raised to the j-th digit of ``n``, multiplied onto
    1 in ascending j.  After the multiplies for coordinates up to j a value
    depends only on the first j + 1 digits of its cell, so each multiply
    acts on those M[j+1] prefixes and the rows grow to all cells as the
    digits are taken.  A digit 0 multiplies by 1 + 0j, which returns every
    value unchanged: x * (1 + 0j) differs from x only where x has a -0.0
    part, and no product of root-table entries has one (the entries have
    none, and a product part rounds to -0.0 only from a -0.0 factor part or
    a zero value).

    On a Walsh structure (every m_j = 2) each factor is therefore 1 + 0j or
    the root w = exp(i*pi), and the value at cell x is w multiplied onto
    1 + 0j k times, where k = popcount(n AND the bit-reversed x) counts the
    coordinates at which both digits are 1.  Those rows are looked up in
    the k-th powers of :func:`_walsh_tables`, bit for bit the product the
    digit-by-digit path forms.
    """
    idx = np.asarray(indices)
    if idx.size == 0 or idx.min() < 0 or idx.max() >= vs.size:
        raise ResolutionError(f"character indices must be non-empty and in [0, M[N] = {vs.size})")
    if vs.lam == 2:
        powers, rev = _walsh_tables(vs)
        return np.take(powers, np.bitwise_count(idx.astype(rev.dtype)[:, None] & rev))
    count = len(idx)
    digits = idx[:, None] // np.array(vs.M[:-1]) % np.array(vs.m)
    rows = np.ones((count, 1), dtype=np.complex128)
    for j, powers in enumerate(root_powers(vs)):
        grown = np.empty((count, vs.M[j], vs.m[j]), dtype=np.complex128)
        # C order runs the inner loop along the prefixes, not along digit j
        np.multiply(
            rows[:, None, :], powers[digits[:, j], :, None],
            out=grown.transpose(0, 2, 1), order="C",
        )
        rows = grown.reshape(count, -1)
    return rows
