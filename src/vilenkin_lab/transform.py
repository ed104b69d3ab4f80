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
cells.  A stage is four ufunc calls, each over both planes: with a and b
the cells it pairs, d0 = a + b, t = (b.im, b.re) * (w.imag, -w.imag),
u = b + t and d1 = a - u.  Rounding to nearest is odd, so u rounds to minus
the dense stage's w * b up to the sign of a zero, and a - u rounds as its
a + w * b wherever a has no -0.0 part.  No plane ever holds -0.0: a tile
read adds +0.0, and a sum or difference is -0.0 only from a -0.0 operand.
So the output is bit-identical to the dense stage's sum of products (a test
compares the two byte for byte, on inputs with exact cancellations and
-0.0 parts too).  Stages of any other radix, and radix-2 stages
before the last stage of another radix, are a dense ``einsum`` against their
stage matrix.  The butterflies keep the unsnapped root w = exp(i*pi) of the
root tables, whose imaginary part is about 1.2e-16: snapping it to -1 would
move stored records, so it waits for the benchmark change of ROADMAP item 1.

Einsum stage j acts on rows of M[N] / M[j+1] consecutive cells, which
shrink stage by stage, and a stage costs more per cell on short rows.  So
the einsum stages run in two halves, as in Bailey's four-step FFT layout:
from the first stage s whose rows would hold fewer than ``_RUN`` cells,
if M[s] >= ``_RUN``, the array is transposed once as
(M[s], M[N] / M[s]), so that every later stage acts on rows of at least
M[s] cells.  The split depends on the structure alone.  The stage output is
viewed back in stage order at the end: analysis reads that transposed view
in its coefficient permutation, the butterflies and synthesis a copy.  Each
output entry is still one sum over the same inputs in the same order, so
no byte changes.

:func:`synthesize` runs only the stages a spectrum needs.  By Paley's lemma
a spectrum supported below M[L] is constant on L-cylinders, the blocks of
M[N] / M[L] consecutive cells.  So the least such L >= 1 is found from the
top block down, the stages of the first L coordinates run on the M[L]
coefficients, and each value is repeated over its block.  The bytes are
those of the full synthesis: every stage above L sees input only at digit 0
of its axis, where it multiplies by 1 and adds w * 0, and 1 * x + w * 0
rounds to x; neither path returns -0.0 (einsum starts from +0.0, and the
butterflies add +0.0 when they read a tile).  Partial sums, Fejer means,
the kernels and the maximal function all synthesize this way.

A :class:`StepFunction` or :class:`Spectrum` may also hold a stack of B
rows on one structure, one function or spectrum each, and
:func:`analyze`, :func:`synthesize`, :func:`maximal_function` and
:func:`fejer_mean_blocks` take such a stack in one pass; one function is
the one-row case of the same code.  The stages give the transform a
leading row axis: each loop runs the B * M[j] blocks of all rows as it
runs one row's M[j] (butterfly chunks and slabs, and einsum stages over
B * M[j] / lead rows), the split transposes each row alone, and the
coefficient permutation reverses each row.  Every row meets the same
operations, on the same values in the same order, as a call on it alone
would, so each row keeps that call's bytes; a stacked synthesis runs at
the largest support level of its rows, which by Paley's lemma keeps each
row's bytes too.  The thresholds count the cells of the whole stack, so a
stack of ``_SPLIT_CELLS`` cells shares its loops among the workers and
reverses in tiles, as one function of that size does.  Stacks let many
small transforms share one call's set-up: ``check`` analyzes criterion
1's random functions, transforms criterion 5's spectra and synthesizes and
sweeps the ``maximal_bound`` sample family a stack at a time.

Every direct sum over characters takes them from :func:`character_blocks`,
blocks of max(_BLOCK // (B * M[N]), 1) rows of ``character_rows`` for a
stack of B functions.
:func:`naive_analyze` takes the mean of ``f`` against each conjugated row.
:func:`fejer_mean_blocks` scales each row by the coefficient of each
spectrum, adds the partial sums and their running sum row by row in
ascending order, carries them from block to block, and divides by the
orders.  It equals the one-order recurrence byte for byte (the tests keep
that recurrence as the oracle); :func:`iter_fejer_means` yields the same
means one row at a time.

The coefficient order is the digit reversal of the stage order: index
sum_j k_j * M[j] holds what the stages leave at digits (k_0, ..., k_{N-1}).
Below ``_SPLIT_CELLS`` cells :func:`_digit_reversed` is numpy's copy of
the transposed view, which analysis then divides by M[N] in place.  From
``_SPLIT_CELLS`` cells on it moves the order tile by tile, as in Bailey's
blocked FFT layout: a tile fixes the middle axes, gathers runs of at least
``_RUN`` (2 KB) consecutive input cells with one small cached index
permutation per group of axes, and writes runs of consecutive output
cells.  Analysis divides each tile by M[N] while it is in cache, which
rounds as dividing the whole array does.  Synthesis reverses the spectrum
the same way before its first stage, and its stages then update that
copy in place.

A transform of at least ``_SPLIT_CELLS`` (2^18) cells shares its work
among one thread per CPU the process may run on: the column slabs, then
the chunks, and the tiles of the coefficient permutation, each cut into
contiguous shares.  So does each einsum stage of at least ``_SPLIT_CELLS``
multiply-adds (M[N] * m_j), the column-parallel reading of Bailey's
layout: its shares cut the leading axis h of its (h, m_j, l) array, or l
when h has fewer entries than there are workers, and each writes its part
of one output array that the calling thread made.  The calling thread runs
the first share and a thread started for the call each of the others; a
loop starts only once the one before it is done.  Each share has its own
tile buffers, and each tile or share reads and writes only its own cells,
with the same numpy operations in the same order as on one thread, so the
bytes cannot change.  Work under 2^18 cells or multiply-adds, and all
work on one worker, runs on the calling thread and starts no thread.  The
maximal function's block-mean pyramid runs on the calling thread.

Every operation is pure and the reduction order inside each output entry
is fixed (stages ascend in coordinate, each output entry sums its stage
inputs in ascending digit), so results do not depend on scheduling.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator

import numpy as np

from .errors import ResolutionError
from .structure import VilenkinStructure, character_rows, root_powers


def _rows_of(arr: np.ndarray, size: int, what: str) -> np.ndarray:
    arr = np.asarray(arr, dtype=np.complex128)
    if arr.ndim not in (1, 2) or arr.shape[-1] != size:
        raise ValueError(f"expected {size} {what}, or rows of them, got shape {arr.shape}")
    return arr


@dataclass
class StepFunction:
    """Complex-valued function constant on each depth-N cell.

    ``values`` is one row of M[N] cell values, or a stack of such rows, one
    function each (see :func:`analyze`).
    """

    vs: VilenkinStructure
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = _rows_of(self.values, self.vs.size, "cell values")

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


@dataclass
class Spectrum:
    """Character coefficients f^(0), ..., f^(M[N]-1) of a step function.

    ``coeffs`` is one row of M[N] coefficients, or a stack of such rows, one
    spectrum each (see :func:`synthesize`).
    """

    vs: VilenkinStructure
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        self.coeffs = _rows_of(self.coeffs, self.vs.size, "coefficients")


# Cells per cache tile of the radix-2 stages in _run_stages, and per block
# of characters in character_blocks.
_BLOCK = 2**15

# Cells in each run a tile of the coefficient permutation reads (2 KB), and
# in the shortest rows an einsum stage acts on after the split.
_RUN = 2**7

# Loops of at least _SPLIT_CELLS work (cells, or an einsum stage's
# multiply-adds) share it among _WORKERS threads, one per CPU this process
# may run on, and transforms of at least _SPLIT_CELLS cells reverse their
# coefficient order in tiles; smaller work runs on the calling thread and
# starts no thread.
_SPLIT_CELLS = 2**18
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def character_blocks(
    indices: np.ndarray, vs: VilenkinStructure, stack: int = 1
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (offset, character_rows(indices[offset : offset + rows], vs))
    for blocks of rows = max(_BLOCK // (stack * M[N]), 1) indices, in order:
    a block applied to each of ``stack`` functions holds at most _BLOCK
    cells, unless one row alone does."""
    rows = max(_BLOCK // (stack * vs.size), 1)
    for offset in range(0, len(indices), rows):
        yield offset, character_rows(indices[offset : offset + rows], vs)


def _in_shares(count: int, work: int, task: Callable[[int, int], None]) -> None:
    """Run ``task(start, stop)`` on contiguous shares of range(count).

    ``work`` measures the whole loop: the cells of a tile loop, or the
    M[N] * m_j multiply-adds of an einsum stage.  Work of at least
    _SPLIT_CELLS gets one share per worker: the calling thread runs the
    first and a new thread each of the others.  Less runs whole on the
    calling thread.  Returns once every share is done, raising the first
    exception a share raised.
    """
    shares = min(_WORKERS, count) if work >= _SPLIT_CELLS else 1
    bounds = [count * i // shares for i in range(shares + 1)]
    errors = []

    def run(start: int, stop: int) -> None:
        try:
            task(start, stop)
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=run, args=share) for share in zip(bounds[1:-1], bounds[2:])]
    for thread in threads:
        thread.start()
    run(bounds[0], bounds[1])
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


@lru_cache(maxsize=64)
def _digit_offsets(shape: tuple[int, ...], start: int, stop: int) -> np.ndarray:
    """sum_j d_j * prod(shape[:j]) over the axes [start, stop) of ``shape``,
    for each of their digit tuples (d_start, ..., d_{stop-1}) in C order."""
    out = np.zeros(1, dtype=np.intp)
    for j in range(start, stop):
        out = (out[:, None] + np.arange(shape[j]) * math.prod(shape[:j])).reshape(-1)
    return out


def _digit_reversed(flat: np.ndarray, shape: tuple[int, ...], divisor: int | None = None) -> np.ndarray:
    """``row.reshape(shape[::-1]).transpose().reshape(-1)`` for each row of
    prod(shape) entries of ``flat``, as a (rows, prod(shape)) array, divided
    by ``divisor`` when one is given.

    Below _SPLIT_CELLS cells in all, numpy copies the transposed view and
    the copy is divided in place.  From _SPLIT_CELLS cells on the reversal
    runs in tiles, shared among the workers: the leading axes [0, a) of
    ``shape`` make up runs of at least _RUN input cells, and its trailing
    axes [b, n) runs of as many output cells as fit a tile of _BLOCK cells.
    Viewed as (A, len(bases), T), A and T the products of shape[:a] and
    shape[b:], tile t of a row's output is ``row[bases[t] + index].T``:
    index is (T, A), each of its rows a permutation of A consecutive input
    cells, and each row of the tile is T consecutive output cells.  The
    offsets of each group of axes are cached per shape.  Each tile is
    gathered into a buffer, divided there, and copied into place.  Either
    way every value is copied, and divided once.

    ``flat`` may be any array whose C order is the input rows, such as the
    transposed view :func:`_run_stages` leaves after a split.  The copy of
    the transposed view reads it in place; the tiles read
    ``flat.reshape(rows, -1)``, which copies such a view.
    """
    size = math.prod(shape)
    rows = flat.size // size
    out = np.empty((rows, size), dtype=flat.dtype)
    if flat.size < _SPLIT_CELLS:
        axes = (0, *range(len(shape), 0, -1))
        np.copyto(out.reshape(rows, *shape), flat.reshape(rows, *shape[::-1]).transpose(axes))
        if divisor is not None:
            out /= divisor
        return out
    flat = flat.reshape(rows, size)
    a = 0
    while a < len(shape) and math.prod(shape[:a]) < _RUN:
        a += 1
    lead = math.prod(shape[:a])
    b = a
    while b < len(shape) and lead * math.prod(shape[b:]) > _BLOCK:
        b += 1
    index = _digit_offsets(shape, b, len(shape))[:, None] + _digit_offsets(shape, 0, a)
    bases = _digit_offsets(shape, a, b)
    dst = out.reshape(rows, lead, len(bases), -1)

    def copy(start: int, stop: int) -> None:
        tile = np.empty(index.shape, dtype=flat.dtype)
        for share in range(start, stop):
            row, t = divmod(share, len(bases))
            np.take(flat[row, bases[t] :], index, out=tile, mode="clip")
            if divisor is not None:
                np.divide(tile, divisor, out=tile)
            np.copyto(dst[row, :, t], tile.T)

    _in_shares(rows * len(bases), flat.size, copy)
    return out


def _einsum_stage(mat: np.ndarray, src: np.ndarray) -> np.ndarray:
    """``np.einsum("kd,hdl->hkl", mat, src)``, the stage of radix m = len(mat)
    on the (h, m, l) array ``src``.

    A stage of at least _SPLIT_CELLS multiply-adds (M[N] * m) is shared
    among the workers: contiguous shares of its axis h, or of its axis l
    when h has fewer entries than there are workers, each written into its
    part of one output array made here, so that no worker allocates a
    full-size array.  Every output entry is the same sum over d as in the
    whole call, so the bytes are those of the whole call.  On one worker
    the stage is one share, run on the calling thread.  A smaller stage is
    the whole call, without ``out``.
    """
    work = src.size * len(mat)
    if work < _SPLIT_CELLS:
        return np.einsum("kd,hdl->hkl", mat, src)
    dst = np.empty(src.shape, dtype=np.complex128)
    axis = 0 if src.shape[0] >= _WORKERS else 2

    def stage(start: int, stop: int) -> None:
        share = (slice(None),) * axis + (slice(start, stop),)
        np.einsum("kd,hdl->hkl", mat, src[share], out=dst[share])

    _in_shares(src.shape[axis], work, stage)
    return dst


def _run_stages(flat: np.ndarray, vs: VilenkinStructure, conjugate: bool, reverse: bool = False) -> np.ndarray:
    # Synthesis stage j multiplies by root_powers(vs)[j], analysis by its
    # conjugate.  ``flat`` is one row of M[N] entries or a (stack, M[N])
    # array of rows, each transformed alone: every loop below runs the
    # stack * M[j] blocks of all rows as it runs one row's M[j].  With
    # ``reverse`` the stages read _digit_reversed(flat, vs.m), spectra in
    # stage order.  The result's C order is the stage output's: an array
    # shaped as ``flat``, or after a split of the einsum stages a view that
    # transposes each row back.
    stack = flat.size // vs.size
    powers = root_powers(vs)
    # Stages from r0 on are radix 2 and run as butterflies; the rest as einsum.
    r0 = vs.N
    while r0 > 0 and vs.m[r0 - 1] == 2:
        r0 -= 1
    # Stages from tail on act inside blocks of width <= _BLOCK cells and run
    # on chunks of whole blocks; stages r0..tail-1 act across the rows of
    # (M[r0], rows, width) and run on column slabs of rows x cols cells.
    tail = r0
    while vs.size // vs.M[tail] > _BLOCK:
        tail += 1
    a = _digit_reversed(flat, vs.m) if reverse else flat
    # Einsum stage j acts on rows of size // M[j+1] cells; s is the first
    # whose rows would hold fewer than _RUN.  From _SPLIT_CELLS
    # multiply-adds on, a stage is shared among the workers.
    s = 0
    while s < r0 and vs.size // vs.M[s + 1] >= _RUN:
        s += 1
    lead = 1
    for j in range(r0):
        if j == s and vs.M[s] >= _RUN:
            # Each row transposed as (M[s], rest), stage j >= s acts on
            # (M[j] / M[s], m_j, rest), rows of at least M[s] cells.
            lead = vs.M[s]
            a = a.reshape(stack, lead, -1).transpose(0, 2, 1).copy()
        mat = powers[j].conj() if conjugate else powers[j]
        a = _einsum_stage(mat, a.reshape(stack * vs.M[j] // lead, vs.m[j], -1)).reshape(-1)
    if lead > 1:
        # Stage order again: the caller takes the view, the butterflies a copy.
        a = a.reshape(*flat.shape[:-1], -1, lead).swapaxes(-1, -2)
        if r0 < vs.N:
            a = a.reshape(-1)
    if r0 == vs.N:
        return a if lead > 1 else a.reshape(flat.shape)
    # Each tile is read from a and written back to out once all its stages
    # are done, so an array made here (the einsum result or the reversed
    # spectra) is updated in place and the caller's array is never
    # written.  The read adds +0.0: einsum accumulates onto +0.0 and so
    # never returns -0.0, and neither may the butterflies.
    out = np.empty_like(flat) if a is flat else a
    # Every radix-2 coordinate has the root table [1, exp(i*pi)].
    w = powers[r0][1, 1]
    w_imag = (w.conj() if conjugate else w).imag
    # Each share of tiles (see _in_shares) has its own planes and scratch.
    width = vs.size // vs.M[tail]
    rows = vs.M[tail] // vs.M[r0]
    cols = min(width, max(_BLOCK // rows, 1))
    if tail > r0:
        src = a.view(np.float64).reshape(stack * vs.M[r0], rows, width, 2)
        dst = out.view(np.float64).reshape(stack * vs.M[r0], rows, width, 2)
        lows = [vs.M[tail] // vs.M[j + 1] * cols for j in range(r0, tail)]
        slabs = width // cols

        def run_slabs(start: int, stop: int) -> None:
            x, y = np.empty((2, 2, rows * cols))
            scratch = np.empty((2, rows * cols // 2))
            for tile in range(start, stop):
                h, c = divmod(tile, slabs)
                c *= cols
                np.add(src[h, :, c : c + cols].transpose(2, 0, 1), 0.0, out=x.reshape(2, rows, cols))
                done, _ = _butterflies(x, y, scratch, lows, w_imag)
                np.copyto(dst[h, :, c : c + cols].transpose(2, 0, 1), done.reshape(2, rows, cols))

        _in_shares(stack * vs.M[r0] * slabs, flat.size, run_slabs)
        a = out
    # Block (hi, lo) is transposed to (lo, hi) halfway, so that no stage
    # pairs cells closer than min(hi, lo) apart.
    half = (width.bit_length() - 1) // 2
    hi = 2**half
    lo = width // hi
    first = [vs.size // vs.M[j + 1] for j in range(tail, tail + half)]
    second = [vs.size // vs.M[j + 1] * hi for j in range(tail + half, vs.N)]
    blocks = stack * vs.M[tail]
    src = a.view(np.float64).reshape(blocks, width, 2)
    dst = out.view(np.float64).reshape(blocks, width, 2)
    per = max(_BLOCK // width, 1)
    cells = min(per, blocks) * width

    def run_chunks(start: int, stop: int) -> None:
        planes = np.empty((2, 2, cells))
        scratch = np.empty((2, cells // 2))
        for b in range(start * per, min(stop * per, blocks), per):
            g = min(per, blocks - b)
            x = planes[0, :, : g * width]
            y = planes[1, :, : g * width]
            np.add(src[b : b + g].transpose(2, 0, 1), 0.0, out=x.reshape(2, g, width))
            x, y = _butterflies(x, y, scratch, first, w_imag)
            np.copyto(y.reshape(2, g, lo, hi), x.reshape(2, g, hi, lo).transpose(0, 1, 3, 2))
            x, _ = _butterflies(y, x, scratch, second, w_imag)
            back = x.reshape(2, g, lo, hi).transpose(0, 1, 3, 2)
            np.copyto(dst[b : b + g].transpose(2, 0, 1).reshape(2, g, hi, lo), back)

    _in_shares(-(-blocks // per), flat.size, run_chunks)
    return out.reshape(flat.shape)


def _butterflies(
    x: np.ndarray, y: np.ndarray, scratch: np.ndarray, lows: list[int], w_imag: float
) -> tuple[np.ndarray, np.ndarray]:
    # Radix-2 stages, matrix [[1, 1], [1, w]] with w.real == -1, on the
    # (re, im) planes x, each stage pairing cells `low` apart and writing
    # into the other buffer; returns (result, spare).  einsum gives output 1
    # as a + w*b, where w*b = (-b.re - b.im*w.imag, -b.im + b.re*w.imag),
    # each product and each sum rounded once.  Here a stage is 4 ufunc
    # calls over both planes, each rounding once:
    #   d0 = a + b,  t = (b.im, b.re) * (w.imag, -w.imag),  u = b + t,
    #   d1 = a - u.
    # Rounding to nearest is odd, so the parts of u round to minus einsum's
    # parts of w*b, up to the sign of a zero, and d1 is einsum's a + w*b
    # wherever a has no -0.0 part.  No plane ever holds one: a tile read
    # adds +0.0, and a sum or difference rounds to -0.0 only from a -0.0
    # operand.  A complex np.multiply by w may fuse multiply-adds and round
    # differently.
    t = scratch[:, : x.shape[1] // 2]
    w = np.array([w_imag, -w_imag]).reshape(2, 1, 1)
    for low in lows:
        s = x.reshape(2, -1, 2, low)
        d = y.reshape(2, -1, 2, low)
        u = t.reshape(2, -1, low)
        np.add(s[:, :, 0], s[:, :, 1], out=d[:, :, 0])
        np.multiply(s[::-1, :, 1], w, out=u)
        np.add(s[:, :, 1], u, out=u)
        np.subtract(s[:, :, 0], u, out=d[:, :, 1])
        x, y = y, x
    return x, y


def analyze(f: StepFunction) -> Spectrum:
    """Character coefficients of ``f`` via the factorized fast transform.

    A stack of functions gives the stack of their spectra, each row byte for
    byte the analysis of that row alone: one function is the one-row case.
    """
    vs = f.vs
    packed = _run_stages(f.values, vs, conjugate=True)
    # Stage j leaves coefficient digit j on axis j of a row of
    # packed.reshape(vs.m); the index sum_j k_j * M[j] is C order over the
    # reversed axes.
    return Spectrum(vs, _digit_reversed(packed, vs.m[::-1], vs.size).reshape(f.values.shape))


def synthesize(s: Spectrum) -> StepFunction:
    """Step function with the given coefficients (inverse of analyze).

    The spectrum's support level L is the least L >= 1 with every
    coefficient from M[L] on zero (-0.0 counts as zero).  Such a spectrum
    is constant on L-cylinders, which are the blocks of M[N] / M[L]
    consecutive cells, so it is synthesized on the first L coordinates and
    each value repeated over its block.  This is exact: every stage above
    L sees input only at digit 0 of its axis, and 1 * x + w * 0 rounds to
    x, while neither path returns -0.0.  Full support is the case L = N.

    A stack of spectra gives the stack of their functions, synthesized
    together at the largest support level of the rows.  Each row keeps the
    bytes of its own synthesis, since any level at or above a row's support
    gives that row's full-synthesis bytes.
    """
    vs = s.vs
    coeffs = s.coeffs.reshape(-1, vs.size)
    level = vs.N
    while level > 1 and not coeffs[:, vs.M[level - 1] : vs.M[level]].any():
        level -= 1
    coarse = VilenkinStructure.from_m(vs.m[:level])
    values = _run_stages(coeffs[:, : coarse.size], coarse, conjugate=False, reverse=True)
    # The stages may return a transposed view; repeat and reshape read it in C order.
    if level < vs.N:
        values = np.repeat(values, vs.size // coarse.size)
    return StepFunction(vs, values.reshape(s.coeffs.shape))


def naive_analyze(f: StepFunction, indices: np.ndarray | None = None) -> np.ndarray:
    """Direct O(M^2) coefficient computation, the oracle for ``analyze``.

    Each requested coefficient is the mean of ``f`` against its conjugated
    character row, taken a block of rows at a time; no factorization across
    coefficients is used.  Each block is conjugated and multiplied in place.
    """
    vs = f.vs
    idx = np.arange(vs.size) if indices is None else np.asarray(indices)
    out = np.empty(len(idx), dtype=np.complex128)
    for offset, rows in character_blocks(idx, vs):
        np.conjugate(rows, out=rows)
        np.multiply(f.values, rows, out=rows)
        out[offset : offset + len(rows)] = rows.mean(axis=1)
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


def _block_maximum(f: StepFunction) -> np.ndarray:
    # Pointwise maximum over all levels of |block mean| of f's values, real,
    # for each row of a stack.  Pyramid of block-mean magnitudes from the
    # finest level down; the running maximum is then carried back up at
    # each level's resolution, and only the last step touches every cell.
    # A radix-2 mean is one add and the same division as ``mean``'s, so the
    # bytes match; the longer sums of other radices keep ``mean``, whose
    # summation order differs from a plain ascending sum.
    vs = f.vs
    stack = f.values.shape[:-1]
    means = f.values
    mags = []
    for level in range(vs.N - 1, -1, -1):
        blocks = means.reshape(*stack, vs.M[level], vs.m[level])
        if vs.m[level] == 2:
            means = blocks[..., 0] + blocks[..., 1]
            means /= 2
        else:
            means = blocks.mean(axis=-1)
        mags.append(np.abs(means))
    run = mags.pop()
    for level in range(1, vs.N):
        mag = mags.pop()
        blocks = mag.reshape(*stack, vs.M[level - 1], vs.m[level - 1])
        np.maximum(blocks, run[..., None], out=blocks)
        run = mag
    best = np.abs(f.values)
    blocks = best.reshape(*stack, vs.M[vs.N - 1], vs.m[vs.N - 1])
    np.maximum(blocks, run[..., None], out=blocks)
    return best


def maximal_function(s: Spectrum) -> StepFunction:
    """Pointwise maximum of |conditional expectation| over all levels, for
    each row of a stack of spectra."""
    return StepFunction(s.vs, _block_maximum(synthesize(s)))


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


def fejer_mean_blocks(s: Spectrum, n_max: int) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (first, block) for the Fejer means of orders 1..n_max, where row
    i of the block holds the values of the (first + i)-th mean: one row of
    cell values, or for a stack of spectra one such row per spectrum.

    The blocks are those of :func:`character_blocks` for the stack, each
    made once and applied to every spectrum.  Their rows are the recurrence
    S_n = S_{n-1} + coefficient * character, then the running sum of
    partial sums, added row by row in ascending n and carried from the last
    row of one block into the first of the next.  A zero coefficient adds
    zeros, which leave the sums as they were, as skipping the order does:
    the sums start at +0.0, so they never hold a -0.0 part, the one value
    that adding +0.0 would change.  Each running sum is divided by its
    order as a complex number, as dividing by the integer n does.  The
    result is byte for byte the one-order-at-a-time recurrence of each
    spectrum, at O(n_max * M[N]) cost per spectrum.
    """
    vs = s.vs
    if not 1 <= n_max <= vs.size:
        raise ResolutionError(f"sweep bound {n_max} not in [1, {vs.size}]")
    coeffs = s.coeffs.reshape(-1, vs.size)
    partial = total = np.zeros(coeffs.shape, dtype=np.complex128)
    # The terms and the running sums of every block share two buffers, so
    # that no block's arrays are fresh pages again; the sums carried to the
    # next block are copied out of them.
    buffers = None
    for first, chars in character_blocks(np.arange(n_max), vs, len(coeffs)):
        count = len(chars)
        if buffers is None:
            buffers = np.empty((2, count, *coeffs.shape), dtype=np.complex128)
        terms, sums = buffers[:, :count]
        # terms[i, r] = coefficient first + i of spectrum r times its character
        np.multiply(coeffs[:, first : first + count].T[:, :, None], chars[:, None], out=terms)
        for i in range(count):
            partial = np.add(partial, terms[i], out=terms[i])
            total = np.add(total, partial, out=sums[i])
        partial, total = partial.copy(), total.copy()
        n = np.arange(first + 1, first + count + 1, dtype=np.complex128)
        yield first + 1, (sums / n[:, None, None]).reshape(count, *s.coeffs.shape)


def iter_fejer_means(s: Spectrum, n_max: int) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (n, values of the n-th Fejer mean) for n = 1..n_max, each a row
    of a :func:`fejer_mean_blocks` block."""
    for first, block in fejer_mean_blocks(s, n_max):
        for n, sigma in enumerate(block, first):
            yield n, sigma


def weighted_maximal_fejer(s: Spectrum, p: float, n_max: int) -> StepFunction:
    """Pointwise sup over n <= n_max of |Fejer mean| / weight(n)."""
    weight = FejerWeight.for_p(p)
    best = np.zeros(s.vs.size, dtype=np.float64)
    for n, sigma in iter_fejer_means(s, n_max):
        np.maximum(best, np.abs(sigma) / weight.at(n), out=best)
    return StepFunction(s.vs, best.astype(np.complex128))
