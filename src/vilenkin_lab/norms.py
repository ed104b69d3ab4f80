"""Lebesgue and Hardy quasinorms, modulus of continuity, and atoms.

The weak quasinorm of a step function is computed exactly: on a function
taking finitely many magnitudes v, the supremum over lambda of
lambda^p * measure(|f| > lambda) is attained as a left limit at an
achieved magnitude, so evaluating v^p * measure(|f| >= v) at each distinct
v and taking the maximum gives the supremum with no discretization error.
Both the p-powered value and its homogeneous 1/p-th root are exposed;
statistics elsewhere in the package state which form they report.

A martingale is represented here by its finest level, i.e. a spectrum at
resolution N; coarser levels are conditional expectations.  For spectra
supported below M[N] this makes the maximal-function norm exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import frozen
from .errors import ResolutionError
from .structure import VilenkinStructure, cylinder_cells
from .transform import Spectrum, StepFunction, _block_maximum, maximal_function


def _lp(mags: np.ndarray, p: float) -> float:
    return float(np.mean(mags**p) ** (1.0 / p))


def lp_quasinorm(f: StepFunction, p: float) -> float:
    """(integral of |f|^p)^(1/p), an exact finite sum on cell values."""
    if p <= 0:
        raise ValueError(f"exponent must be positive, got {p}")
    return _lp(np.abs(f.values), p)


def _weak_level_scan(f: StepFunction, p: float) -> tuple[float, np.ndarray, np.ndarray]:
    """(sup_v v^p * measure(|f| >= v), the positive levels v descending, their measures)."""
    ordered = np.sort(np.abs(f.values))
    size = len(ordered)
    # Each distinct level starts a run of ordered, and the cells from that
    # run's start on are those with |f| >= level.
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    starts = starts[ordered[starts] > 0][::-1]
    levels = ordered[starts]
    measure = (size - starts) / size
    if not len(levels):
        return 0.0, levels, measure
    # The array power may round an ulp away from the scalar one, so the
    # levels near the array maximum are recomputed with the scalar power.
    weighted = levels**p * measure
    near = np.flatnonzero(weighted >= weighted.max() * (1.0 - 1e-12))
    best = max(float(levels[i] ** p * measure[i]) for i in near)
    return best, levels, measure


def weak_lp_quasinorm(f: StepFunction, p: float, form: str = "root") -> float:
    """Weak quasinorm, exact over the achieved magnitude levels.

    ``form="p_power"`` returns sup_v v^p * measure(|f| >= v) itself;
    ``form="root"`` (default) returns its 1/p-th root, the homogeneous
    quantity comparable with :func:`lp_quasinorm`.
    """
    if p <= 0:
        raise ValueError(f"exponent must be positive, got {p}")
    if form not in ("root", "p_power"):
        raise ValueError(f"unknown form {form!r}")
    best = _weak_level_scan(f, p)[0]
    return best if form == "p_power" else best ** (1.0 / p)


def hardy_norm(s: Spectrum, p: float) -> float:
    """Quasinorm of the maximal function over all cylinder levels."""
    if p <= 0:
        raise ValueError(f"exponent must be positive, got {p}")
    return lp_quasinorm(maximal_function(s), p)


def modulus_of_continuity(s: Spectrum, level: int, p: float) -> float:
    """Hardy quasinorm of the tail above the level-``level`` partial sum.

    Zeroes every coefficient below M[level] and measures what remains.
    """
    vs = s.vs
    if not 0 <= level <= vs.N:
        raise ResolutionError(f"level {level} not in [0, {vs.N}]")
    tail = s.coeffs.copy()
    tail[: vs.M[level]] = 0.0
    return hardy_norm(Spectrum(vs, tail), p)


@dataclass(frozen=True)
class CylinderInterval:
    """A cylinder given by a base cell id and a depth; measure 1 / M[depth]."""

    base: int
    depth: int

    def measure(self, vs: VilenkinStructure) -> float:
        return 1.0 / vs.M[self.depth]


@dataclass(frozen=True)
class AtomCertificate:
    """Outcome of the three atom conditions with numeric residuals.

    ``sup_ratio`` is sup|a| * measure(I)^(1/p); the bound condition asks
    for <= 1.  ``support_leak`` is the largest magnitude outside I.
    """

    interval: CylinderInterval
    p: float
    zero_mean_ok: bool
    zero_mean_residual: float
    sup_ok: bool
    sup_ratio: float
    support_ok: bool
    support_leak: float

    @property
    def valid(self) -> bool:
        return self.zero_mean_ok and self.sup_ok and self.support_ok


def validate_atom(
    a: StepFunction, p: float, interval: CylinderInterval
) -> AtomCertificate:
    """Check zero mean on I, the sup bound, and support containment.

    ``frozen.ATOM_SUP_RATIO_MAX`` holds sup|a| * |I|^(1/p), and
    ``frozen.ATOM_RESIDUAL_MAX`` the zero-mean residual over sup|a| and the
    largest magnitude outside I over max(sup|a|, 1); their 1e-12 slack lets
    kernels synthesized in floating point certify cleanly.  A function
    vanishing identically is a valid degenerate atom.
    """
    vs = a.vs
    if not 0 <= interval.depth <= vs.N:
        raise ResolutionError(f"interval depth {interval.depth} not in [0, {vs.N}]")
    cells = cylinder_cells(interval.base, interval.depth, vs)
    inside = slice(cells.start, cells.stop)
    mags = np.abs(a.values)
    sup = float(mags.max())

    mean_residual = abs(complex(np.sum(a.values[inside]))) / vs.size
    zero_mean_ok = frozen.ATOM_RESIDUAL_MAX.passes(mean_residual / sup) if sup > 0 else True

    sup_ratio = sup * interval.measure(vs) ** (1.0 / p)
    sup_ok = frozen.ATOM_SUP_RATIO_MAX.passes(sup_ratio)

    outside = np.concatenate([mags[: cells.start], mags[cells.stop :]])
    leak = float(outside.max()) if outside.size else 0.0
    support_ok = frozen.ATOM_RESIDUAL_MAX.passes(leak / max(sup, 1.0))

    return AtomCertificate(
        interval=interval,
        p=p,
        zero_mean_ok=zero_mean_ok,
        zero_mean_residual=mean_residual,
        sup_ok=sup_ok,
        sup_ratio=sup_ratio,
        support_ok=support_ok,
        support_leak=leak,
    )


@dataclass
class AtomicDecomposition:
    """Scalar coefficients paired with atoms, all on one structure."""

    coefficients: tuple[float, ...]
    atoms: tuple[StepFunction, ...]
    p: float
    intervals: tuple[CylinderInterval, ...] = field(default=())

    def __post_init__(self) -> None:
        if len(self.coefficients) != len(self.atoms):
            raise ValueError("coefficient and atom counts differ")
        if self.intervals and len(self.intervals) != len(self.atoms):
            raise ValueError("interval and atom counts differ")


REPORT_LEVELS = 16  # weak-level profile entries a NormReport keeps


@dataclass(frozen=True)
class NormReport:
    """Bundle of the quasinorms of one function at one exponent."""

    p: float
    lp: float
    weak_root: float
    weak_p_power: float
    hardy: float
    levels: tuple[tuple[float, float], ...]  # (magnitude, measure at least)


def norm_report(f: StepFunction, p: float) -> NormReport:
    """Compute all quasinorms of ``f`` at exponent ``p`` in one pass, with
    the first ``REPORT_LEVELS`` of its weak-level profile."""
    if p <= 0:
        raise ValueError(f"exponent must be positive, got {p}")
    weak_p, levels, measure = _weak_level_scan(f, p)
    # f is the finest level of its martingale, so its own values carry
    # every conditional expectation the maximal function needs.
    hardy = _lp(_block_maximum(f), p)
    return NormReport(
        p=p,
        lp=lp_quasinorm(f, p),
        weak_root=weak_p ** (1.0 / p),
        weak_p_power=weak_p,
        hardy=hardy,
        levels=tuple(zip(levels[:REPORT_LEVELS].tolist(), measure[:REPORT_LEVELS].tolist())),
    )
