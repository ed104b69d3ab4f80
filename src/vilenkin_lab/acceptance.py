"""Gate suite: one callable per acceptance criterion, shared by the CLI
``check`` command and the test suite.

Each criterion returns a :class:`CriterionResult` with a pass flag and a
one-line detail string; nothing here mutates state, so criteria can run in
any order.  Each criterion takes ``records``, called as ``records(name)``
or ``records(name, p)`` like :func:`_shipped_records`; :func:`run_all`
passes one cache of that function, so criteria 6 to 10 and 12 gate one run
of each shipped config under ``configs/`` they read, plus one construction
of the dense example at p = 1/3 for criteria 6 and 7, and only records are
kept, never an array.  The others build their own small fixtures.  The
statistics live in :mod:`vilenkin_lab.experiments`, next to the runners
that record them, and each bound is a :class:`vilenkin_lab.frozen.Gate`
that criteria and runners both call.  Every gated statistic is judged and
printed by :func:`vilenkin_lab.frozen.gated` as ``name=value (gate bound)``,
except criterion 4's timings, criterion 7's count and criterion 12's
percents, so a criterion and a runner never disagree about what a gate
means, and what ``check`` prints is what ``run`` writes.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import frozen
from .frozen import gated
from .experiments import (
    SHIPPED_DIR,
    build_structure,
    dense_construction,
    dirichlet_errors,
    family_character_polynomial,
    family_smoothed_indicator,
    gram_error,
    load_config,
    parseval_worst_rel,
    run_experiment,
    scale_sweep,
    scale_sweep_gates,
)
from .kernels import verify_fejer_lower_bounds
from .reporting import ExperimentRecord
from .rng import XorShift64Star
from .structure import VilenkinStructure
from .transform import Spectrum, StepFunction, analyze, fejer_coefficients, naive_analyze, synthesize


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


def _shipped_records(name: str, p: float | None = None) -> list[ExperimentRecord]:
    """The records of ``configs/<name>.json``; with ``p``, the construction
    record alone of that dense config at exponent p in place of its own."""
    raw = json.loads((SHIPPED_DIR / f"{name}.json").read_text(encoding="utf-8"))
    if p is None:
        return run_experiment(load_config(raw)).records
    raw["p_values"] = [p]
    raw["parameters"]["p"] = p
    cfg = load_config(raw)
    return [dense_construction(cfg, build_structure(cfg), [])[1]]


Records = Callable[..., list[ExperimentRecord]]


def _column(records: list[ExperimentRecord], name: str) -> list[float]:
    """The ``name`` value of each record that has one."""
    return [r.values[name] for r in records if name in r.values]


def _constructions(records: Records) -> list[dict[str, float]]:
    """The construction record of the dense example at the shipped p = 1/4
    and at p = 1/3, and of the sparse example."""
    runs = (records("counterexample_2a"), records("counterexample_2a", 1 / 3),
            records("counterexample_2b"))
    return [r.values for run in runs for r in run if r.index["block"] == "construction"]


def _criterion(number: int, name: str, time_gate: frozen.Gate | None = None):
    """Turn ``body(records) -> (ok, detail)`` into a timed criterion that also
    fails when its seconds fail ``time_gate``, and then names them."""

    def wrap(body: Callable[[Records], tuple[bool, str]]):
        @functools.wraps(body)
        def criterion(records: Records) -> CriterionResult:
            start = time.perf_counter()
            ok, detail = body(records)
            secs = time.perf_counter() - start
            if time_gate and not time_gate.passes(secs):
                _, timing = gated(("seconds", secs, time_gate, ".2f"))
                ok, detail = False, f"{detail} {timing}"
            return CriterionResult(number, name, ok, detail, secs)

        return criterion

    return wrap


@_criterion(1, "orthonormality-and-parseval", frozen.CRITERION_1_SECONDS_MAX)
def criterion_1(records: Records) -> tuple[bool, str]:
    structures = (_MIXED, _walsh(10))
    worst_gram = max(gram_error(vs) for vs in structures)
    worst_rel = max(parseval_worst_rel(vs, XorShift64Star(11), 100) for vs in structures)
    return gated(("gram_err", worst_gram, frozen.ROUNDOFF_MAX, ".2e"),
                 ("parseval_rel", worst_rel, frozen.RELATIVE_ROUNDOFF_MAX, ".2e"))


@_criterion(2, "dirichlet-closed-form")
def criterion_2(records: Records) -> tuple[bool, str]:
    worst = max(max(dirichlet_errors(vs)) for vs in (_MIXED, _walsh(10)))
    return gated(("max_err", worst, frozen.ROUNDOFF_MAX, ".2e"))


@_criterion(3, "fejer-kernel-lower-bounds", frozen.CRITERION_3_SECONDS_MAX)
def criterion_3(records: Records) -> tuple[bool, str]:
    checks = [verify_fejer_lower_bounds(level, _walsh(2 * level - 1)) for level in (3, 4, 5, 6)]
    worst = min(check.worst_margin for check in checks)
    ok, detail = gated(("worst_margin", worst, frozen.FEJER_BOUND_MARGIN_MIN, ".3f"))
    return ok, f"cells={sum(check.cells_checked for check in checks)} {detail}"


@_criterion(4, "fast-transform-vs-direct")
def criterion_4(records: Records) -> tuple[bool, str]:
    worst_rel = 0.0
    for vs in (_MIXED, _walsh(10), _walsh(12)):
        rng = XorShift64Star(4000 + vs.size)
        f = StepFunction(vs, rng.complex_uniforms(vs.size))
        fast = analyze(f).coeffs
        direct = naive_analyze(f)
        rel = float(np.abs(fast - direct).max() / np.abs(direct).max())
        worst_rel = max(worst_rel, rel)
    if not frozen.RELATIVE_ROUNDOFF_MAX.passes(worst_rel):
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
    return frozen.MIN_SPEEDUP.passes(speedup), (
        f"agreement_rel={worst_rel:.2e} fast={fast_t * 1e3:.1f}ms "
        f"naive~{naive_est:.0f}s (extrapolated from 128 coeffs) "
        f"speedup~{speedup:.0f}x (gate {frozen.MIN_SPEEDUP.bound:g}x)"
    )


@_criterion(5, "fejer-coefficient-algebra")
def criterion_5(records: Records) -> tuple[bool, str]:
    # 50 band-limited spectra, each with a Fejer order n above its band;
    # the four transforms each run once on the stack of all 50.
    vs = _walsh(8)
    rng = XorShift64Star(55)
    specs, bands, orders = [], [], []
    for _ in range(50):
        band_level = 1 + rng.next_u64() % (vs.N - 2)
        bands.append(vs.M[band_level])
        specs.append(family_character_polynomial(vs, band_level, rng))
        orders.append(bands[-1] + 1 + rng.next_u64() % (vs.size - bands[-1]))

    def fejer_means(order):
        rows = [fejer_coefficients(spec, n).coeffs for spec, n in zip(specs, order)]
        return synthesize(Spectrum(vs, np.array(rows)))

    sigma = fejer_means(orders)
    back = analyze(sigma).coeffs
    expected = np.zeros((len(specs), vs.size), dtype=np.complex128)
    for row, spec, n in zip(expected, specs, orders):
        row[:n] = spec.coeffs[:n] * (1.0 - np.arange(n) / n)
    worst_law = float(np.abs(back - expected).max())

    f = synthesize(Spectrum(vs, np.array([spec.coeffs for spec in specs])))
    lhs = (sigma - f).values
    scale = np.array([band / n for band, n in zip(bands, orders)], dtype=np.complex128)
    rhs = scale[:, None] * (fejer_means(bands) - f).values
    worst_ident = float(np.abs(lhs - rhs).max())
    return gated(("law_err", worst_law, frozen.ROUNDOFF_MAX, ".2e"),
                 ("identity_err", worst_ident, frozen.ROUNDOFF_MAX, ".2e"))


@_criterion(6, "coefficient-laws-exact")
def criterion_6(records: Records) -> tuple[bool, str]:
    worst = max(c["law_err"] for c in _constructions(records))
    return gated(("max_dev", worst, frozen.ROUNDOFF_MAX, ".2e"))


@_criterion(7, "atom-certificates")
def criterion_7(records: Records) -> tuple[bool, str]:
    constructions = _constructions(records)
    certified = sum(c["atoms_ok"] == 1.0 for c in constructions)
    return certified == len(constructions), f"atoms_ok={certified}/{len(constructions)} constructions"


@_criterion(8, "modulus-decay-gates")
def criterion_8(records: Records) -> tuple[bool, str]:
    dense_max = max(_column(records("counterexample_2a"), "ratio_power"))
    sparse_max = max(_column(records("counterexample_2b"), "ratio_power"))
    return gated(("dense_max", dense_max, frozen.MODULUS_RATIO_POWER_MAX, ".3f"),
                 ("sparse_max", sparse_max, frozen.SPARSE_MODULUS_RATIO_POWER_MAX, ".3f"))


@_criterion(9, "divergence-gates", frozen.CRITERION_9_SECONDS_MAX)
def criterion_9(records: Records) -> tuple[bool, str]:
    dense_min = min(_column(records("counterexample_2a"), "weak_power"))
    sparse_min = min(_column(records("counterexample_2b"), "halfnorm_gap"))
    return gated(("dense_min", dense_min, frozen.WEAK_DIVERGENCE_MIN, ".3f"),
                 ("sparse_min", sparse_min, frozen.SPARSE_DIVERGENCE_MIN, ".3f"))


@_criterion(10, "kernel-growth-scan")
def criterion_10(records: Records) -> tuple[bool, str]:
    worst = min(_column(records("kernel_scan"), "ratio"))
    return gated(("min_ratio", worst, frozen.KERNEL_SCAN_RATIO_MIN, ".3f"))


@_criterion(11, "fejer-convergence-surrogate")
def criterion_11(records: Records) -> tuple[bool, str]:
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
    return gated(("final_max", worst_final, frozen.FINAL_GAP_MAX, ".4f"),
                 ("backslide_max", worst_backslide, frozen.BACKSLIDE_FACTOR_MAX, ".3f"))


@_criterion(12, "weighted-ratio-stability")
def criterion_12(records: Records) -> tuple[bool, str]:
    run = records("maximal_bound")
    details = []
    ok = True
    for summary in [r for r in run if "cv" in r.values]:
        p, cv = summary.index["p"], summary.values["cv"]
        best = max(_column([r for r in run if r.index["p"] == p], "max_ratio"))
        ok = ok and frozen.MAX_RATIO_CV_MAX.passes(cv)
        details.append(f"p={p:g}: max={best:.4f} cv={cv:.4%}")
    return ok, "; ".join(details) + f" (gate {frozen.MAX_RATIO_CV_MAX.bound:.0%})"


CRITERIA: tuple[Callable[[Records], CriterionResult], ...] = (
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
    records = functools.cache(_shipped_records)
    results = []
    for fn in CRITERIA:
        result = fn(records)
        results.append(result)
        if echo:
            echo(result.line())
    return results
