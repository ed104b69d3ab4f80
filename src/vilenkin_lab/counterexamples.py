"""Martingales with critically slow modulus decay and diverging Fejer means.

Two families are built, both assembled from atoms of the form
scale * (dirichlet_kernel(M[k+1]) - dirichlet_kernel(M[k])):

* the dense family places one atom at every scale k <= depth and is tuned
  to an exponent p < 1/2; its coefficients equal M[i] on the index block
  [M[i], M[i+1]) and vanish elsewhere;
* the sparse family places atoms only at the doubled scales 2*M[i] and is
  the boundary case p = 1/2; its coefficients equal M[2*M[i]] / M[i]^2 on
  [M[2*M[i]], M[2*M[i]+1]).

Spectra are filled from these block laws with exact integer (or exact
dyadic) values; the equivalence with the atom-by-atom assembly route is a
tested identity rather than the construction path.  A truncation depth A
replaces the infinite object; statistics are only offered in ranges where
the truncation cannot change them, or they include the computed (not
estimated) tail contribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import CapacityError
from .kernels import dirichlet_kernel, fejer_kernel, lacunary_index
from .norms import (
    AtomicDecomposition,
    CylinderInterval,
    lp_quasinorm,
    modulus_of_continuity,
    weak_lp_quasinorm,
)
from .structure import VilenkinStructure, zero_point
from .transform import Spectrum, StepFunction, fejer_mean, synthesize


def _block_spectrum(vs: VilenkinStructure, blocks: list[tuple[int, int, float]]) -> Spectrum:
    coeffs = np.zeros(vs.size, dtype=np.complex128)
    for lo, hi, value in blocks:
        coeffs[lo:hi] = value
    return Spectrum(vs, coeffs)


def critical_atom(k: int, p: float, vs: VilenkinStructure) -> StepFunction:
    """Atom at scale k for the dense family, supported on the k-cylinder.

    Equals M[k]^(1/p - 1) / lam times the difference of the Dirichlet
    kernels of orders M[k+1] and M[k]; this passes the atom certificate
    with interval depth k for every admissible p.
    """
    if not 0 < p < 1:
        raise ValueError(f"atom exponent must lie in (0, 1), got {p}")
    if k + 1 > vs.N:
        raise CapacityError(
            f"atom at scale {k} needs resolution >= {k + 1}, have {vs.N}"
        )
    scale = vs.M[k] ** (1.0 / p - 1.0) / vs.lam
    diff = dirichlet_kernel(vs.M[k + 1], vs) - dirichlet_kernel(vs.M[k], vs)
    return scale * diff


@dataclass
class CriticalExample:
    """Martingale of either family, truncated at ``depth``.

    The dense family has exponent p < 1/2 and ``depth`` is its top scale;
    the sparse family has p = 1/2 and ``depth`` counts its atoms.
    """

    p: float
    depth: int
    vs: VilenkinStructure
    spectrum: Spectrum
    decomposition: AtomicDecomposition

    def function(self) -> StepFunction:
        return synthesize(self.spectrum)


def build_critical_example(p: float, depth: int, vs: VilenkinStructure) -> CriticalExample:
    """Assemble the dense family up to scale ``depth``.

    Coefficient block i carries the exact integer M[i]; the atom list and
    its weights lam / M[i]^(1/p - 2) are kept alongside for certificate
    and assembly checks.
    """
    if not 0 < p < 0.5:
        raise ValueError(f"dense family needs p in (0, 1/2), got {p}")
    if depth + 1 > vs.N:
        raise CapacityError(
            f"depth {depth} needs resolution >= {depth + 1}, have {vs.N}"
        )
    blocks = [(vs.M[i], vs.M[i + 1], float(vs.M[i])) for i in range(depth + 1)]
    weights = tuple(vs.lam / vs.M[i] ** (1.0 / p - 2.0) for i in range(depth + 1))
    atoms = tuple(critical_atom(i, p, vs) for i in range(depth + 1))
    intervals = tuple(CylinderInterval(zero_point(vs), i) for i in range(depth + 1))
    return CriticalExample(
        p=p,
        depth=depth,
        vs=vs,
        spectrum=_block_spectrum(vs, blocks),
        decomposition=AtomicDecomposition(weights, atoms, p, intervals),
    )


@dataclass(frozen=True)
class ModulusRow:
    """One row of a modulus-decay sweep: measured value vs reference rate.

    ``omega`` is the homogeneous (1/p-th root) modulus and ``ratio`` its
    quotient by the rate; ``ratio_power`` is the p-th power of that
    quotient, i.e. the same comparison carried out on the additive
    p-powered quantities.  Gate constants in the acceptance suite apply to
    ``ratio_power``; both columns are always reported.
    """

    n: int
    omega: float
    bound: float
    ratio: float
    ratio_power: float


def _modulus_rows(
    ex: CriticalExample, ns: list[int], rate: Callable[[int], float]
) -> list[ModulusRow]:
    rows = []
    for n in ns:
        omega = modulus_of_continuity(ex.spectrum, n, ex.p)
        bound = rate(n)
        ratio = omega / bound
        rows.append(
            ModulusRow(
                n=n, omega=omega, bound=bound, ratio=ratio, ratio_power=ratio**ex.p
            )
        )
    return rows


def modulus_ratio_report(ex: CriticalExample, ns: list[int]) -> list[ModulusRow]:
    """Modulus of continuity against the rate M[n]^-(1/p - 2), per level."""
    return _modulus_rows(ex, ns, lambda n: float(ex.vs.M[n]) ** -(1.0 / ex.p - 2.0))


def _fejer_gap(ex: CriticalExample, order: int) -> StepFunction:
    return fejer_mean(ex.spectrum, order) - ex.function()


def weak_divergence_statistic(ex: CriticalExample, k: int) -> float:
    """Weak quasinorm of the Fejer gap at order M[k] + 1.

    The p-powered form sup_v v^p * measure(|gap| >= v), the quantity the
    divergence gates are calibrated on.
    """
    if k >= ex.depth:
        raise ValueError(f"scale {k} not below truncation depth {ex.depth}")
    return weak_lp_quasinorm(_fejer_gap(ex, ex.vs.M[k] + 1), ex.p, form="p_power")


def block_gap_norm(ex: CriticalExample, k: int) -> float:
    """Companion statistic: plain quasinorm of the gap at order M[k]."""
    if k > ex.vs.N:
        raise ValueError(f"scale {k} exceeds resolution {ex.vs.N}")
    return lp_quasinorm(_fejer_gap(ex, ex.vs.M[k]), ex.p)


def sparse_required_resolution(depth: int, vs: VilenkinStructure) -> int:
    if depth > vs.N:
        raise CapacityError(
            f"sparse depth {depth} exceeds resolution {vs.N}, scale table too short"
        )
    return 2 * vs.M[depth] + 1


def sparse_critical_atom(i: int, vs: VilenkinStructure) -> StepFunction:
    """Atom at the doubled scale 2*M[i], supported on that cylinder."""
    if i < 1:
        raise ValueError(f"sparse atoms start at scale 1, got {i}")
    need = sparse_required_resolution(i, vs)
    if vs.N < need:
        raise CapacityError(
            f"sparse atom {i} needs resolution >= {need}, have {vs.N}"
        )
    j = 2 * vs.M[i]
    scale = vs.M[j] / vs.lam
    diff = dirichlet_kernel(vs.M[j + 1], vs) - dirichlet_kernel(vs.M[j], vs)
    return scale * diff


def build_sparse_critical_example(depth: int, vs: VilenkinStructure) -> CriticalExample:
    """Assemble the sparse family up to scale ``depth``.

    Coefficient block i carries M[2*M[i]] / M[i]^2 on the block starting
    at M[2*M[i]].  Raises a capacity error naming the required resolution
    when the structure is too coarse.
    """
    if depth < 1:
        raise ValueError(f"sparse depth must be >= 1, got {depth}")
    need = sparse_required_resolution(depth, vs)
    if vs.N < need:
        raise CapacityError(
            f"sparse depth {depth} needs resolution >= {need}, have {vs.N}"
        )
    blocks = []
    weights = []
    atoms = []
    intervals = []
    for i in range(1, depth + 1):
        j = 2 * vs.M[i]
        blocks.append((vs.M[j], vs.M[j + 1], vs.M[j] / (vs.M[i] * vs.M[i])))
        weights.append(vs.lam / (vs.M[i] * vs.M[i]))
        atoms.append(sparse_critical_atom(i, vs))
        intervals.append(CylinderInterval(zero_point(vs), j))
    return CriticalExample(
        p=0.5,
        depth=depth,
        vs=vs,
        spectrum=_block_spectrum(vs, blocks),
        decomposition=AtomicDecomposition(
            tuple(weights), tuple(atoms), 0.5, tuple(intervals)
        ),
    )


def sparse_modulus_ratio_report(ex: CriticalExample, ns: list[int]) -> list[ModulusRow]:
    """Modulus of continuity against the rate 1 / n^2, per level."""
    return _modulus_rows(ex, ns, lambda n: 1.0 / (n * n))


def sparse_divergence_statistic(ex: CriticalExample, k: int) -> float:
    """Half-exponent quasinorm of the Fejer gap at the lacunary order.

    The Fejer order is the lacunary index at level M[k]; a capacity error
    names the shortfall when that order exceeds M[N].
    """
    if not 1 <= k <= ex.depth:
        raise ValueError(f"scale {k} not in [1, {ex.depth}]")
    vs = ex.vs
    order = lacunary_index(vs.M[k], vs)
    if order > vs.size:
        raise CapacityError(
            f"Fejer order {order} exceeds M[N] = {vs.size}; increase resolution"
        )
    return lp_quasinorm(_fejer_gap(ex, order), ex.p)


@dataclass(frozen=True)
class HalfNormRow:
    """One row of the kernel growth scan: half-power integral and its slope."""

    level: int
    halfnorm: float
    ratio: float


def kernel_halfnorm_scan(levels: list[int], vs: VilenkinStructure) -> list[HalfNormRow]:
    """Integral of |index * fejer_kernel(index)|^(1/2) along lacunary orders.

    ``ratio`` divides by the level; a positive floor on it over a range
    exhibits the linear growth mechanism behind the sparse divergence.
    """
    rows = []
    for level in levels:
        order = lacunary_index(level, vs)
        if order > vs.size:
            raise CapacityError(
                f"lacunary order {order} at level {level} exceeds M[N] = {vs.size}"
            )
        scaled = order * np.abs(fejer_kernel(order, vs).values)
        halfnorm = float(np.mean(np.sqrt(scaled)))
        rows.append(
            HalfNormRow(level=level, halfnorm=halfnorm, ratio=halfnorm / max(level, 1))
        )
    return rows
