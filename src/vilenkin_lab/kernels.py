"""Dirichlet and Fejer kernels and the Fejer-kernel lower-bound catalogue.

Kernels are materialized as step functions at full resolution so pointwise
claims about them can be verified cell by cell.  The module also builds
the catalogue of cylinders on which the scaled Fejer kernel along the
lacunary index sequence admits an explicit lower bound, and a checker that
verifies the bound exhaustively and returns its worst margin, which criterion
3 and the ``kernels`` runner hold to ``frozen.FEJER_BOUND_MARGIN_MIN``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ResolutionError
from .structure import VilenkinStructure, cylinder_cells
from .transform import Spectrum, StepFunction, fejer_mean, partial_sum


def _all_ones(vs: VilenkinStructure) -> Spectrum:
    return Spectrum(vs, np.ones(vs.size, dtype=np.complex128))


def dirichlet_kernel(n: int, vs: VilenkinStructure) -> StepFunction:
    """Sum of the first ``n`` characters, for 1 <= n <= M[N]."""
    if n < 1:
        raise ValueError(f"Dirichlet kernel needs order >= 1, got {n}")
    return partial_sum(_all_ones(vs), n)


def fejer_kernel(n: int, vs: VilenkinStructure) -> StepFunction:
    """Arithmetic mean of the first ``n`` Dirichlet kernels, for 1 <= n <= M[N]."""
    return fejer_mean(_all_ones(vs), n)


def lacunary_index(level: int, vs: VilenkinStructure) -> int:
    """Alternating even-scale sum M[2*level] + M[2*level - 2] + ... + M[0]."""
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")
    if 2 * level > vs.N:
        raise ResolutionError(
            f"lacunary level {level} needs resolution >= {2 * level}, have {vs.N}"
        )
    return sum(vs.M[2 * i] for i in range(level + 1))


@dataclass(frozen=True)
class LowerBoundCell:
    """One catalogued cylinder with its guaranteed kernel lower bound.

    The cylinder has depth 2*s + 1 and passes through the cell ``base``,
    whose digits are ``digit_low`` at coordinate 2*k, ``digit_high`` at
    coordinate 2*s and 0 elsewhere.  On it, ``index * |fejer_kernel(index)|``
    is at least ``bound``.
    """

    k: int
    s: int
    digit_low: int
    digit_high: int
    depth: int
    base: int
    cells: range
    bound: float


def fejer_lower_bound_cells(level: int, vs: VilenkinStructure) -> list[LowerBoundCell]:
    """Catalogue of cylinders where the scaled Fejer kernel stays large.

    For ``level`` = A the catalogued kernel index is the lacunary index at
    A - 1.  Pairs of even coordinates (2k, 2s) with s >= k + 2 and one
    nonzero digit at each carry the bound M[2k] * M[2s] / 4.  Empty for
    A < 3 (the index set is void).
    """
    if level < 3:
        return []
    if 2 * level - 1 > vs.N:
        raise ResolutionError(
            f"catalogue level {level} needs resolution >= {2 * level - 1}, have {vs.N}"
        )
    out = []
    for k in range(level - 2):
        for s in range(k + 2, level):
            depth = 2 * s + 1
            for dk in range(1, vs.m[2 * k]):
                for ds in range(1, vs.m[2 * s]):
                    base = dk * vs.cell_weight(2 * k) + ds * vs.cell_weight(2 * s)
                    out.append(
                        LowerBoundCell(
                            k=k,
                            s=s,
                            digit_low=dk,
                            digit_high=ds,
                            depth=depth,
                            base=base,
                            cells=cylinder_cells(base, depth, vs),
                            bound=vs.M[2 * k] * vs.M[2 * s] / 4.0,
                        )
                    )
    return out


@dataclass(frozen=True)
class BoundCheck:
    """Result of verifying a lower-bound catalogue cell by cell."""

    kernel_index: int
    entries: int
    cells_checked: int
    worst_margin: float  # min over cells of scaled kernel minus bound; 0 if none


def verify_fejer_lower_bounds(
    level: int,
    vs: VilenkinStructure,
    catalogue: list[LowerBoundCell] | None = None,
) -> BoundCheck:
    """Check every catalogued cylinder against the scaled Fejer kernel.

    Accepts an externally built catalogue so alternative index readings
    can be tested against the same kernel.
    """
    if catalogue is None:
        catalogue = fejer_lower_bound_cells(level, vs)
    index = lacunary_index(level - 1, vs)
    scaled = index * np.abs(fejer_kernel(index, vs).values)
    worst = min((float(np.min(scaled[e.cells.start : e.cells.stop]) - e.bound) for e in catalogue),
                default=0.0)
    return BoundCheck(
        kernel_index=index,
        entries=len(catalogue),
        cells_checked=sum(len(e.cells) for e in catalogue),
        worst_margin=worst,
    )
