"""Gate suite: one callable per acceptance criterion, shared by the CLI
``check`` command and the test suite.

Each criterion returns a :class:`CriterionResult` with a pass flag and a
one-line detail string; nothing here mutates state, so criteria can run in
any order.  A :class:`Workspace` memoizes the three critical examples that
criteria 6 to 9 share.  The statistics and gate predicates live in
:mod:`vilenkin_lab.experiments`, next to the runners that record them, so a
criterion and a runner never disagree about what a gate means.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import frozen
from .counterexamples import (
    build_critical_example,
    build_sparse_critical_example,
    kernel_halfnorm_scan,
    modulus_ratio_report,
    sparse_divergence_statistic,
    sparse_modulus_ratio_report,
    weak_divergence_statistic,
)
from .experiments import (
    atom_certificates,
    dense_law_error,
    dirichlet_errors,
    family_character_polynomial,
    family_smoothed_indicator,
    gram_error,
    kernel_scan_ok,
    modulus_ok,
    parseval_worst_rel,
    ratio_cv,
    ratio_cv_ok,
    relative_roundoff_ok,
    roundoff_ok,
    scale_sweep,
    scale_sweep_gates,
    scale_sweep_ok,
    seed_maxima,
    sparse_divergence_ok,
    sparse_law_error,
    sparse_modulus_ok,
    weak_divergence_ok,
)
from .kernels import verify_fejer_lower_bounds
from .rng import XorShift64Star
from .structure import VilenkinStructure
from .transform import StepFunction, analyze, fejer_mean, naive_analyze, synthesize


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{self.number:2d}] {status} {self.name} ({self.seconds:.2f}s) {self.detail}"


def _walsh(depth: int) -> VilenkinStructure:
    return VilenkinStructure.from_pattern((2,), depth)


_MIXED = VilenkinStructure.from_m((2, 3, 2, 3))


class Workspace:
    """The three critical examples criteria 6 to 9 share, each built on
    first use: ``dense_example(p)`` for p = 1/4 and 1/3, and
    ``sparse_example()``."""

    def __init__(self) -> None:
        self.dense_example = functools.cache(lambda p: build_critical_example(p, 10, _walsh(11)))
        self.sparse_example = functools.cache(lambda: build_sparse_critical_example(3, _walsh(17)))


def _criterion(number: int, name: str, time_limit: float = np.inf):
    """Turn ``body(ws) -> (ok, detail)`` into a timed criterion that also
    fails when it takes ``time_limit`` seconds or more."""

    def wrap(body: Callable[[Workspace], tuple[bool, str]]):
        @functools.wraps(body)
        def criterion(ws: Workspace) -> CriterionResult:
            start = time.perf_counter()
            ok, detail = body(ws)
            secs = time.perf_counter() - start
            return CriterionResult(number, name, ok and secs < time_limit, detail, secs)

        return criterion

    return wrap


@_criterion(1, "orthonormality-and-parseval", time_limit=5.0)
def criterion_1(ws: Workspace) -> tuple[bool, str]:
    structures = (_MIXED, _walsh(10))
    worst_gram = max(gram_error(vs) for vs in structures)
    worst_rel = max(parseval_worst_rel(vs, XorShift64Star(11), 100) for vs in structures)
    ok = roundoff_ok(worst_gram) and relative_roundoff_ok(worst_rel)
    return ok, f"gram_err={worst_gram:.2e} parseval_rel={worst_rel:.2e}"


@_criterion(2, "dirichlet-closed-form")
def criterion_2(ws: Workspace) -> tuple[bool, str]:
    worst = max(max(dirichlet_errors(vs)) for vs in (_MIXED, _walsh(10)))
    return roundoff_ok(worst), f"max_err={worst:.2e}"


@_criterion(3, "fejer-kernel-lower-bounds", time_limit=30.0)
def criterion_3(ws: Workspace) -> tuple[bool, str]:
    worst = np.inf
    cells = 0
    for level in (3, 4, 5, 6):
        vs = _walsh(2 * level - 1)
        check = verify_fejer_lower_bounds(level, vs)
        worst = min(worst, check.worst_margin)
        cells += check.cells_checked
        if not check.ok:
            return False, f"violated at level {level}, margin {check.worst_margin:.3e}"
    return True, f"cells={cells} worst_margin={worst:.3f}"


@_criterion(4, "fast-transform-vs-direct")
def criterion_4(ws: Workspace) -> tuple[bool, str]:
    worst_rel = 0.0
    for vs in (_MIXED, _walsh(10), _walsh(12)):
        rng = XorShift64Star(4000 + vs.size)
        f = StepFunction(vs, rng.complex_uniforms(vs.size))
        fast = analyze(f).coeffs
        direct = naive_analyze(f)
        rel = float(np.abs(fast - direct).max() / np.abs(direct).max())
        worst_rel = max(worst_rel, rel)
    if not relative_roundoff_ok(worst_rel):
        return False, f"agreement_rel={worst_rel:.2e}"

    vs = _walsh(16)
    rng = XorShift64Star(16)
    f = StepFunction(vs, rng.complex_uniforms(vs.size))
    fast_t = np.inf
    for _ in range(3):
        t0 = time.perf_counter()
        analyze(f)
        fast_t = min(fast_t, time.perf_counter() - t0)
    sample = np.arange(0, vs.size, vs.size // 128)
    t0 = time.perf_counter()
    naive_analyze(f, sample)
    naive_est = (time.perf_counter() - t0) / len(sample) * vs.size
    speedup = naive_est / fast_t
    ok = speedup >= frozen.MIN_SPEEDUP
    return ok, (
        f"agreement_rel={worst_rel:.2e} fast={fast_t * 1e3:.1f}ms "
        f"naive~{naive_est:.0f}s (extrapolated from 128 coeffs) "
        f"speedup~{speedup:.0f}x (gate {frozen.MIN_SPEEDUP:g}x)"
    )


@_criterion(5, "fejer-coefficient-algebra")
def criterion_5(ws: Workspace) -> tuple[bool, str]:
    vs = _walsh(8)
    rng = XorShift64Star(55)
    worst_law = 0.0
    worst_ident = 0.0
    for _ in range(50):
        band_level = 1 + rng.next_u64() % (vs.N - 2)
        band = vs.M[band_level]
        spec = family_character_polynomial(vs, band_level, rng)
        n = band + 1 + rng.next_u64() % (vs.size - band)

        sigma = fejer_mean(spec, n)
        back = analyze(sigma).coeffs
        expected = np.zeros(vs.size, dtype=np.complex128)
        expected[:n] = spec.coeffs[:n] * (1.0 - np.arange(n) / n)
        worst_law = max(worst_law, float(np.abs(back - expected).max()))

        f = synthesize(spec)
        lhs = (fejer_mean(spec, n) - f).values
        rhs = (band / n) * (fejer_mean(spec, band) - f).values
        worst_ident = max(worst_ident, float(np.abs(lhs - rhs).max()))
    ok = roundoff_ok(worst_law) and roundoff_ok(worst_ident)
    return ok, f"law_err={worst_law:.2e} identity_err={worst_ident:.2e}"


@_criterion(6, "coefficient-laws-exact")
def criterion_6(ws: Workspace) -> tuple[bool, str]:
    errs = [dense_law_error(ws.dense_example(p)) for p in (0.25, 1 / 3)]
    errs.append(sparse_law_error(ws.sparse_example()))
    worst = max(errs)
    return roundoff_ok(worst), f"max_dev={worst:.2e}"


@_criterion(7, "atom-certificates")
def criterion_7(ws: Workspace) -> tuple[bool, str]:
    checked = 0
    for ex in (ws.dense_example(0.25), ws.dense_example(1 / 3), ws.sparse_example()):
        for interval, cert in zip(ex.decomposition.intervals, atom_certificates(ex)):
            checked += 1
            if not cert.valid:
                return False, (
                    f"atom failed at depth {interval.depth}: mean_ok={cert.zero_mean_ok} "
                    f"sup_ratio={cert.sup_ratio:.6f} support_ok={cert.support_ok}"
                )
    return True, f"atoms_checked={checked}"


@_criterion(8, "modulus-decay-gates")
def criterion_8(ws: Workspace) -> tuple[bool, str]:
    dense_rows = modulus_ratio_report(ws.dense_example(0.25), list(range(1, 9)))
    dense_max = max(r.ratio_power for r in dense_rows)
    sparse_rows = sparse_modulus_ratio_report(ws.sparse_example(), list(range(5, 17)))
    sparse_max = max(r.ratio_power for r in sparse_rows)
    ok = modulus_ok(dense_max) and sparse_modulus_ok(sparse_max)
    return ok, (
        f"dense_max={dense_max:.3f} (gate {frozen.MODULUS_RATIO_POWER_MAX:g}) "
        f"sparse_max={sparse_max:.3f} (gate {frozen.SPARSE_MODULUS_RATIO_POWER_MAX:g})"
    )


@_criterion(9, "divergence-gates", time_limit=60.0)
def criterion_9(ws: Workspace) -> tuple[bool, str]:
    dense = ws.dense_example(0.25)
    dense_min = min(weak_divergence_statistic(dense, k) for k in range(3, 9))
    sparse = ws.sparse_example()
    sparse_min = min(sparse_divergence_statistic(sparse, k) for k in (1, 2, 3))
    ok = weak_divergence_ok(dense_min) and sparse_divergence_ok(sparse_min)
    return ok, (
        f"dense_min={dense_min:.3f} (gate {frozen.WEAK_DIVERGENCE_MIN:g}) "
        f"sparse_min={sparse_min:.3f} (gate {frozen.SPARSE_DIVERGENCE_MIN:g})"
    )


@_criterion(10, "kernel-growth-scan")
def criterion_10(ws: Workspace) -> tuple[bool, str]:
    rows = kernel_halfnorm_scan(list(range(2, 8)), _walsh(15))
    worst = min(r.ratio for r in rows)
    return kernel_scan_ok(worst), f"min_ratio={worst:.3f} (gate {frozen.KERNEL_SCAN_RATIO_MIN:g})"


@_criterion(11, "fejer-convergence-surrogate")
def criterion_11(ws: Workspace) -> tuple[bool, str]:
    vs = _walsh(10)
    band_spec = family_character_polynomial(vs, 2, XorShift64Star(111))
    smooth_spec = family_smoothed_indicator(vs, 2, 4, 3 * vs.size // 4)
    gates = [
        scale_sweep_gates(scale_sweep(spec, p))
        for spec in (band_spec, smooth_spec)
        for p in (0.25, 0.5)
    ]
    worst_final = max(final for final, _ in gates)
    worst_backslide = max(backslide for _, backslide in gates)
    return scale_sweep_ok(worst_final, worst_backslide), (
        f"final_max={worst_final:.4f} (gate {frozen.FINAL_GAP_MAX:g}) "
        f"backslide_max={worst_backslide:.3f} (gate {frozen.BACKSLIDE_FACTOR_MAX:g})"
    )


@_criterion(12, "weighted-ratio-stability")
def criterion_12(ws: Workspace) -> tuple[bool, str]:
    # cv_random is the spread of the random spectra alone: the critical atom
    # reaches the maximum for every seed, so cv itself reads 0.
    vs = _walsh(8)
    details = []
    ok = True
    ps = (0.25, 0.5)
    per_p = seed_maxima(
        vs, ps, first_seed=1000, seeds=10, randoms=3, atom_scale=2, damping=0.25, n_max=vs.size
    )
    for p, (maxima, random_maxima) in zip(ps, per_p):
        cv = ratio_cv(maxima)
        ok = ok and ratio_cv_ok(cv)
        details.append(
            f"p={p:g}: max={max(maxima):.4f} cv={cv:.4%} cv_random={ratio_cv(random_maxima):.4%}"
        )
    return ok, "; ".join(details) + f" (gate {frozen.MAX_RATIO_CV_MAX:.0%})"


CRITERIA: tuple[Callable[[Workspace], CriterionResult], ...] = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
    criterion_11,
    criterion_12,
)


def run_all(echo: Callable[[str], None] | None = None) -> list[CriterionResult]:
    ws = Workspace()
    results = []
    for fn in CRITERIA:
        result = fn(ws)
        results.append(result)
        if echo:
            echo(result.line())
    return results
