"""Martingales with critically slow modulus decay and diverging Fejer means.

Both families are one construction: an atom
scale * (dirichlet_kernel(M[j+1]) - dirichlet_kernel(M[j])) at each scale j
of a list, with a weight per atom:

* the dense family places an atom at every scale j <= depth and is tuned
  to an exponent p < 1/2; its coefficients equal M[j] on the index block
  [M[j], M[j+1]) and vanish elsewhere;
* the sparse family is the same construction at p = 1/2 on the doubled
  scales j = 2*M[i], each term divided by M[i]^2; its coefficients equal
  M[j] / M[i]^2 on [M[j], M[j+1]).

Spectra are filled from these block laws with exact integer (or exact
dyadic) values; the equivalence with the atom-by-atom assembly route is a
tested identity rather than the construction path.  Each atom synthesizes
its own two Dirichlet kernels: D_{M[j]} is constant on j-cylinders
(Paley's lemma), so it is synthesized on j coordinates and sharing kernels
between atoms would save next to nothing.  A truncation depth A
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
from .structure import VilenkinStructure
from .transform import Spectrum, StepFunction, fejer_mean, synthesize


def block_spectrum(vs: VilenkinStructure, blocks: list[tuple[int, float]]) -> Spectrum:
    """Spectrum with ``value`` on each index block [M[j], M[j+1]) of
    ``blocks = [(j, value), ...]`` and zero elsewhere."""
    coeffs = np.zeros(vs.size, dtype=np.complex128)
    for j, value in blocks:
        coeffs[vs.M[j] : vs.M[j + 1]] = value
    return Spectrum(vs, coeffs)


def critical_atom(k: int, p: float, vs: VilenkinStructure) -> StepFunction:
    """Atom at scale k of either family, supported on the k-cylinder.

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


def _require_top_scale(depth: int, top: int, vs: VilenkinStructure) -> None:
    """Both families' resolution check, run before their scales read M."""
    if top + 1 > vs.N:
        raise CapacityError(f"depth {depth} needs resolution >= {top + 1}, have {vs.N}")


def _critical_example(
    p: float, depth: int, vs: VilenkinStructure, scales: list[tuple[int, float, float]]
) -> CriticalExample:
    """Place ``critical_atom(j, p)`` with weight w at each ``(j, w, c)`` of
    ``scales``; the spectrum carries c on block j."""
    return CriticalExample(
        p,
        depth,
        vs,
        block_spectrum(vs, [(j, c) for j, _, c in scales]),
        AtomicDecomposition(
            tuple(w for _, w, _ in scales),
            tuple(critical_atom(j, p, vs) for j, _, _ in scales),
            p,
            tuple(CylinderInterval(0, j) for j, _, _ in scales),
        ),
    )


def build_critical_example(p: float, depth: int, vs: VilenkinStructure) -> CriticalExample:
    """Assemble the dense family up to scale ``depth``.

    Coefficient block i carries the exact integer M[i]; the atom list and
    its weights lam / M[i]^(1/p - 2) are kept alongside for certificate
    and assembly checks.
    """
    if not 0 < p < 0.5:
        raise ValueError(f"dense family needs p in (0, 1/2), got {p}")
    if depth < 0:
        raise ValueError(f"dense depth must be >= 0, got {depth}")
    _require_top_scale(depth, depth, vs)
    M = vs.M
    scales = [(i, vs.lam / M[i] ** (1.0 / p - 2.0), float(M[i])) for i in range(depth + 1)]
    return _critical_example(p, depth, vs, scales)


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


def _tail_level(s: Spectrum, n: int) -> int:
    """The first level j >= n whose block [M[j], M[j+1]) holds a non-zero
    coefficient, or N when none does; the tail above M[n] is the tail above
    M[j].  A level outside [0, N] is returned as it is."""
    vs, j = s.vs, n
    while 0 <= j < vs.N and not s.coeffs[vs.M[j] : vs.M[j + 1]].any():
        j += 1
    return j


def tail_modulus(s: Spectrum, p: float) -> Callable[[int], float]:
    """``n -> modulus_of_continuity(s, n, p)`` with one Hardy norm per
    distinct tail: levels whose tails hold the same coefficients share it.
    The memo lives as long as the returned function."""
    omegas: dict[int, float] = {}

    def modulus(n: int) -> float:
        j = _tail_level(s, n)
        if j not in omegas:
            omegas[j] = modulus_of_continuity(s, j, p)
        return omegas[j]

    return modulus


def _modulus_rows(
    ex: CriticalExample, ns: list[int], rate: Callable[[int], float]
) -> list[ModulusRow]:
    modulus = tail_modulus(ex.spectrum, ex.p)
    rows = []
    for n in ns:
        omega = modulus(n)
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


def _fejer_gap(ex: CriticalExample, order: int, f: StepFunction | None) -> StepFunction:
    # The gap statistics take f = ex.function(), synthesized here when the
    # caller has not: a runner taking several statistics of one example
    # synthesizes it once and passes it to each.
    return fejer_mean(ex.spectrum, order) - (ex.function() if f is None else f)


def weak_divergence_statistic(ex: CriticalExample, k: int, f: StepFunction | None = None) -> float:
    """Weak quasinorm of the Fejer gap at order M[k] + 1.

    The p-powered form sup_v v^p * measure(|gap| >= v), the quantity the
    divergence gates are calibrated on.  ``f``, when given, is
    ``ex.function()``.
    """
    if k >= ex.depth:
        raise ValueError(f"scale {k} not below truncation depth {ex.depth}")
    return weak_lp_quasinorm(_fejer_gap(ex, ex.vs.M[k] + 1, f), ex.p, form="p_power")


def block_gap_norm(ex: CriticalExample, k: int, f: StepFunction | None = None) -> float:
    """Companion statistic: plain quasinorm of the gap at order M[k].
    ``f``, when given, is ``ex.function()``."""
    if k > ex.vs.N:
        raise ValueError(f"scale {k} exceeds resolution {ex.vs.N}")
    return lp_quasinorm(_fejer_gap(ex, ex.vs.M[k], f), ex.p)


def build_sparse_critical_example(depth: int, vs: VilenkinStructure) -> CriticalExample:
    """Assemble the sparse family up to scale ``depth``: the dense
    construction at p = 1/2 on the scales 2*M[i], i = 1..depth, with
    term i divided by M[i]^2.

    Coefficient block 2*M[i] carries M[2*M[i]] / M[i]^2 and its atom the
    weight lam / M[i]^2.  Raises a capacity error naming the required
    resolution when the structure is too coarse.
    """
    if depth < 1:
        raise ValueError(f"sparse depth must be >= 1, got {depth}")
    if depth > vs.N:
        raise CapacityError(
            f"sparse depth {depth} exceeds resolution {vs.N}, scale table too short"
        )
    M = vs.M
    _require_top_scale(depth, 2 * M[depth], vs)
    scales = [(2 * M[i], vs.lam / (M[i] * M[i]), M[2 * M[i]] / (M[i] * M[i]))
              for i in range(1, depth + 1)]
    return _critical_example(0.5, depth, vs, scales)


def sparse_modulus_ratio_report(ex: CriticalExample, ns: list[int]) -> list[ModulusRow]:
    """Modulus of continuity against the rate 1 / n^2, per level."""
    return _modulus_rows(ex, ns, lambda n: 1.0 / (n * n))


def sparse_divergence_statistic(ex: CriticalExample, k: int, f: StepFunction | None = None) -> float:
    """Half-exponent quasinorm of the Fejer gap at the lacunary order.

    The Fejer order is the lacunary index at level M[k]; a capacity error
    names the shortfall when that order exceeds M[N].  ``f``, when given,
    is ``ex.function()``.
    """
    if not 1 <= k <= ex.depth:
        raise ValueError(f"scale {k} not in [1, {ex.depth}]")
    vs = ex.vs
    order = lacunary_index(vs.M[k], vs)
    if order > vs.size:
        raise CapacityError(
            f"Fejer order {order} exceeds M[N] = {vs.size}; increase resolution"
        )
    return lp_quasinorm(_fejer_gap(ex, order, f), ex.p)


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
