"""Config-driven experiment runners behind the command-line harness.

Each experiment is one :class:`Experiment` in ``EXPERIMENTS``.  Its runner
is handed an :class:`ExperimentConfig` and the structure built from it,
produces sorted :class:`~vilenkin_lab.reporting.ExperimentRecord` rows, and
reports an exit code: 0 for success, 2 when an assertion-grade check fails.
A config that asks for nothing raises ``ValueError`` (exit 2); capacity
violations raise :class:`~vilenkin_lab.errors.CapacityError`, which the
CLI maps to exit code 3.  All randomness flows through the seeded
xorshift generator, so identical config plus seed reproduces identical
records byte for byte.
"""

from __future__ import annotations

import json
import os
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import frozen
from .errors import CapacityError
from .counterexamples import (
    CriticalExample,
    block_spectrum,
    build_critical_example,
    build_sparse_critical_example,
    block_gap_norm,
    critical_atom,
    kernel_halfnorm_scan,
    modulus_ratio_report,
    sparse_divergence_statistic,
    sparse_modulus_ratio_report,
    weak_divergence_statistic,
)
from .kernels import dirichlet_kernel, verify_fejer_lower_bounds, fejer_lower_bound_cells
from .norms import AtomCertificate, hardy_norm, lp_quasinorm, modulus_of_continuity, validate_atom
from .reporting import ExperimentRecord, config_hash
from .rng import XorShift64Star
from .serialize import load_function, save_function
from .structure import VilenkinStructure, character_column, cylinder_cells, leading_position
from .transform import (
    FejerWeight,
    Spectrum,
    StepFunction,
    analyze,
    fejer_coefficients,
    fejer_mean,
    iter_fejer_means,
    synthesize,
)

DEFAULT_CELL_CAP = 2**22
ENV_CELL_CAP = "VILENKIN_CELL_CAP"
CONFIG_KEYS = frozenset(
    {"experiment", "structure", "resolution", "p_values", "parameters", "seed", "output"}
)
OUTPUT_FORMATS = ("csv", "json")

def _dense_p(parameters: dict) -> float:
    return float(parameters.get("p", 0.25))


@dataclass
class ExperimentConfig:
    experiment: str
    structure: dict
    resolution: int | None
    p_values: tuple[float, ...]
    parameters: dict
    seed: int
    output_path: str | None
    output_format: str
    raw: dict = field(repr=False, default_factory=dict)

    @property
    def hash(self) -> str:
        return config_hash(self.raw)


def load_config(source: dict | str | Path) -> ExperimentConfig:
    if isinstance(source, (str, Path)):
        raw = json.loads(Path(source).read_text(encoding="utf-8"))
    else:
        raw = dict(source)
    unknown = sorted(raw.keys() - CONFIG_KEYS)
    if unknown:
        raise ValueError(f"unknown config keys {unknown}; accepted: {sorted(CONFIG_KEYS)}")
    experiment = raw.get("experiment")
    if experiment not in EXPERIMENTS:
        raise ValueError(
            f"unknown experiment {experiment!r}; expected one of {tuple(EXPERIMENTS)}"
        )
    declared = EXPERIMENTS[experiment]
    structure = raw.get("structure")
    if not isinstance(structure, dict) or not ({"m", "pattern"} & structure.keys()):
        raise ValueError("config needs structure.m or structure.pattern")
    generators = "m" if "m" in structure else "pattern"
    unknown = sorted(structure.keys() - ({"m"} if generators == "m" else {"pattern", "repeat_to"}))
    if unknown:
        raise ValueError(f"unknown structure keys {unknown}; accepted: m, or pattern with repeat_to")
    if not isinstance(structure[generators], (list, tuple)):
        raise ValueError(f"structure.{generators} must be a list, got {structure[generators]!r}")
    p_values = raw.get("p_values", [])
    if not isinstance(p_values, (list, tuple)):
        raise ValueError(f"p_values must be a list, got {p_values!r}")
    p_values = tuple(float(p) for p in p_values)
    for p in p_values:
        if not 0 < p <= 1:
            raise ValueError(f"p value {p} outside (0, 1]")
    parameters = raw.get("parameters", {})
    if not isinstance(parameters, dict):
        raise ValueError(f"parameters must be an object, got {parameters!r}")
    parameters = dict(parameters)
    resolution, seed = raw.get("resolution"), raw.get("seed", 1)
    if not (resolution is None or isinstance(resolution, int)) or not isinstance(seed, int):
        raise ValueError(f"resolution and seed must be integers, got {resolution!r} and {seed!r}")
    unknown = sorted(parameters.keys() - declared.keys)
    if unknown:
        raise ValueError(
            f"unknown parameters {unknown} for {experiment}; accepted: {sorted(declared.keys)}"
        )
    ignored = [p for p in p_values if not declared.computes_p(p, parameters)]
    if ignored:
        raise ValueError(f"{experiment} computes nothing at p_values {ignored}")
    if parameters.get("family") == "from-file" and "function_path" not in parameters:
        raise ValueError("family from-file needs parameters.function_path")
    if "function_path" in parameters and parameters.get("family") != "from-file":
        raise ValueError("parameters.function_path is read only with family from-file")
    output = raw.get("output", {})
    if not isinstance(output, dict):
        raise ValueError(f"output must be an object with path and format, got {output!r}")
    unknown = sorted(output.keys() - {"path", "format"})
    if unknown:
        raise ValueError(f"unknown output keys {unknown}; accepted: path, format")
    if output.get("format", "csv") not in OUTPUT_FORMATS:
        raise ValueError(f"output format {output['format']!r} not in {OUTPUT_FORMATS}")
    return ExperimentConfig(
        experiment=experiment,
        structure=structure,
        resolution=resolution,
        p_values=p_values,
        parameters=parameters,
        seed=seed,
        output_path=output.get("path"),
        output_format=output.get("format", "csv"),
        raw=raw,
    )


def build_structure(cfg: ExperimentConfig, cap: int | None = None) -> VilenkinStructure:
    spec = cfg.structure
    if "m" in spec:
        vs = VilenkinStructure.from_m(spec["m"])
    else:
        depth = spec.get("repeat_to", cfg.resolution)
        if depth is None:
            raise ValueError("pattern structure needs repeat_to or resolution")
        vs = VilenkinStructure.from_pattern(spec["pattern"], int(depth))
    if cfg.resolution is not None and cfg.resolution != vs.N:
        raise ValueError(f"structure has resolution {vs.N} but resolution says {cfg.resolution}")
    limit = int(cap if cap is not None else os.environ.get(ENV_CELL_CAP) or DEFAULT_CELL_CAP)
    if vs.size > limit:
        raise CapacityError(
            f"structure needs {vs.size} cells, over the cap of {limit}; "
            "raise --cells-cap to allow it"
        )
    return vs


@dataclass
class ExperimentResult:
    records: list[ExperimentRecord]
    exit_code: int
    messages: list[str]


def _rec(cfg: ExperimentConfig, index: dict, values: dict) -> ExperimentRecord:
    return ExperimentRecord(cfg.experiment, index, values, cfg.hash)


# ---------------------------------------------------------------------------
# test-function families


def family_character_polynomial(vs: VilenkinStructure, band: int, rng: XorShift64Star) -> Spectrum:
    """Random spectrum supported below M[band]."""
    coeffs = np.zeros(vs.size, dtype=np.complex128)
    coeffs[: vs.M[band]] = rng.complex_uniforms(vs.M[band])
    return Spectrum(vs, coeffs)


def family_smoothed_indicator(
    vs: VilenkinStructure, base_depth: int, window_level: int, base_cell: int = 0
) -> Spectrum:
    """Cylinder indicator smoothed by the Fejer window of order M[window_level]."""
    values = np.zeros(vs.size, dtype=np.complex128)
    cells = cylinder_cells(base_cell, base_depth, vs)
    values[cells.start : cells.stop] = 1.0
    return fejer_coefficients(analyze(StepFunction(vs, values)), vs.M[window_level])


def family_damped_critical(vs: VilenkinStructure, depth: int, damping: float) -> Spectrum:
    """Blockwise spectrum M[i] * damping^i, a fast-decaying relative of the
    dense divergence family."""
    return block_spectrum(vs, [(i, vs.M[i] * damping**i) for i in range(depth + 1)])


def build_family(cfg: ExperimentConfig, vs: VilenkinStructure, rng: XorShift64Star) -> Spectrum:
    params = cfg.parameters
    name = params.get("family", "character-polynomial")
    if name == "character-polynomial":
        return family_character_polynomial(vs, int(params.get("band", 2)), rng)
    if name == "smoothed-indicator":
        return family_smoothed_indicator(
            vs,
            int(params.get("base_depth", 2)),
            int(params.get("window_level", 4)),
            int(params.get("base_cell", 0)),
        )
    if name == "damped-critical":
        depth = int(params.get("depth", vs.N - 1))
        return family_damped_critical(vs, depth, float(params.get("damping", 0.25)))
    if name == "from-file":
        obj = load_function(params["function_path"])
        if obj.vs != vs:
            raise ValueError("function file was saved on a different structure")
        return obj if isinstance(obj, Spectrum) else analyze(obj)
    raise ValueError(f"unknown test-function family {name!r}")


# ---------------------------------------------------------------------------
# runners, each next to the statistics and gates it shares with the check suite


def roundoff_ok(err: float) -> bool:
    """Gate on the absolute error of a quantity the library knows exactly."""
    return err < frozen.ROUNDOFF_MAX


def relative_roundoff_ok(rel: float) -> bool:
    """Gate on a relative round-off error (Parseval, fast vs direct)."""
    return rel < frozen.RELATIVE_ROUNDOFF_MAX


def gram_error(vs: VilenkinStructure) -> float:
    """Largest entry of the character Gram matrix minus the identity."""
    mat = np.empty((vs.size, vs.size), dtype=np.complex128)
    for n in range(vs.size):
        mat[n] = character_column(n, vs)
    gram = mat @ mat.conj().T
    gram /= vs.size
    gram.flat[:: vs.size + 1] -= 1.0
    return float(np.abs(gram).max())


def parseval_worst_rel(vs: VilenkinStructure, rng: XorShift64Star, count: int) -> float:
    """Worst relative Parseval error over ``count`` random functions."""
    worst_rel = 0.0
    for _ in range(count):
        f = StepFunction(vs, rng.complex_uniforms(vs.size))
        s = analyze(f)
        lhs = float(np.mean(np.abs(f.values) ** 2))
        rhs = float(np.sum(np.abs(s.coeffs) ** 2))
        worst_rel = max(worst_rel, abs(lhs - rhs) / max(lhs, 1e-300))
    return worst_rel


def _at_least_one(params: dict, key: str, default: int) -> int:
    """A count that asks for nothing (below 1) is a config error."""
    count = int(params.get(key, default))
    if count < 1:
        raise ValueError(f"{key} must be >= 1, got {count}")
    return count


def _levels(params: dict, name: str, lo: int, hi: int) -> list[int]:
    """Levels ``<name>_lo`` to ``<name>_hi`` inclusive; an empty range is a config error."""
    lo, hi = int(params.get(f"{name}_lo", lo)), int(params.get(f"{name}_hi", hi))
    if lo > hi:
        raise ValueError(f"{name}_lo..{name}_hi is the empty range {lo}..{hi}")
    return list(range(lo, hi + 1))


def run_gram(cfg: ExperimentConfig, vs: VilenkinStructure) -> ExperimentResult:
    count = _at_least_one(cfg.parameters, "functions", 100)
    if vs.size > 4096:
        raise CapacityError(
            f"gram experiment materializes a {vs.size}x{vs.size} matrix; "
            "limit is 4096 cells"
        )
    gram_err = gram_error(vs)
    worst_rel = parseval_worst_rel(vs, XorShift64Star(cfg.seed), count)
    ok = roundoff_ok(gram_err) and relative_roundoff_ok(worst_rel)
    records = [
        _rec(
            cfg,
            {"structure": "x".join(map(str, vs.m))},
            {
                "gram_max_err": gram_err,
                "parseval_worst_rel": worst_rel,
                "functions": float(count),
                "passed": float(ok),
            },
        )
    ]
    msgs = [] if ok else [f"gram/parseval failure: {gram_err:.3e}, {worst_rel:.3e}"]
    return ExperimentResult(records, 0 if ok else 2, msgs)


def dirichlet_errors(vs: VilenkinStructure) -> list[float]:
    """Max error of D_{M[j]} against its closed form M[j] * 1_{I_j}, j = 0..N."""
    errors = []
    for j in range(vs.N + 1):
        kernel = dirichlet_kernel(vs.M[j], vs)
        expected = np.zeros(vs.size)
        cells = cylinder_cells(0, j, vs)
        expected[cells.start : cells.stop] = vs.M[j]
        errors.append(float(np.abs(kernel.values - expected).max()))
    return errors


def run_kernels(cfg: ExperimentConfig, vs: VilenkinStructure) -> ExperimentResult:
    level = int(cfg.parameters.get("bound_level", (vs.N + 1) // 2))
    catalogue = fejer_lower_bound_cells(level, vs)
    if not catalogue:
        raise ValueError(f"bound_level {level} gives an empty lower-bound catalogue")
    errors = dirichlet_errors(vs)
    records = [
        _rec(cfg, {"check": "closed-form", "j": j}, {"max_err": err})
        for j, err in enumerate(errors)
    ]
    check = verify_fejer_lower_bounds(level, vs, catalogue)
    for entry in catalogue:
        records.append(
            _rec(
                cfg,
                {"check": "lower-bound", "k": entry.k, "s": entry.s,
                 "digit_low": entry.digit_low, "digit_high": entry.digit_high},
                {"bound": entry.bound, "cells": float(len(entry.cells))},
            )
        )
    records.append(
        _rec(
            cfg,
            {"check": "lower-bound-summary", "level": level},
            {
                "kernel_index": float(check.kernel_index),
                "entries": float(check.entries),
                "worst_margin": check.worst_margin,
                "passed": float(check.ok),
            },
        )
    )
    ok = roundoff_ok(max(errors)) and check.ok
    msgs = [] if ok else [
        f"kernel checks failed: closed-form err {max(errors):.3e}, "
        f"bound margin {check.worst_margin:.3e}"
    ]
    return ExperimentResult(records, 0 if ok else 2, msgs)


def _log_spaced_orders(vs: VilenkinStructure, points: int) -> list[int]:
    grid = set(np.unique(np.geomspace(1, vs.size, points).astype(int)))
    grid.update(vs.M[1 : vs.N + 1])
    return sorted(grid)


def scale_sweep(spec: Spectrum, p: float) -> list[float]:
    """Relative L^p Fejer gap ||sigma_{M[k]} f - f|| / ||f|| for k = 2..N."""
    vs = spec.vs
    f = synthesize(spec)
    norm_f = lp_quasinorm(f, p)
    return [lp_quasinorm(fejer_mean(spec, vs.M[k]) - f, p) / norm_f for k in range(2, vs.N + 1)]


def scale_sweep_gates(rel: list[float]) -> tuple[float, float]:
    """The top-scale gap and the largest ratio of a gap to its running minimum."""
    return rel[-1], max(v / min(rel[: i + 1]) for i, v in enumerate(rel))


def scale_sweep_ok(final: float, backslide: float) -> bool:
    return final <= frozen.FINAL_GAP_MAX and backslide <= frozen.BACKSLIDE_FACTOR_MAX


def run_convergence(cfg: ExperimentConfig, vs: VilenkinStructure) -> ExperimentResult:
    if vs.N < 2:
        raise ValueError(f"the scale sweep runs k = 2..N and is empty at resolution {vs.N}")
    rng = XorShift64Star(cfg.seed)
    spec = build_family(cfg, vs, rng)
    f = synthesize(spec)
    points = int(cfg.parameters.get("grid_points", 25))
    records = []
    messages = []
    for p in cfg.p_values or (0.25, 0.5):
        weight = FejerWeight.for_p(p) if p <= 0.5 else None
        for n in _log_spaced_orders(vs, points):
            gap = lp_quasinorm(fejer_mean(spec, n) - f, p)
            pos = leading_position(n, vs) if n < vs.size else vs.N
            omega = modulus_of_continuity(spec, pos, p)
            bound_term = weight.at(n) * omega if weight else float("nan")
            records.append(
                _rec(
                    cfg,
                    {"p": p, "block": "grid", "n": n},
                    {"gap": gap, "omega": omega, "bound_term": bound_term},
                )
            )
        rel = scale_sweep(spec, p)
        for i, g in enumerate(rel):
            records.append(
                _rec(
                    cfg,
                    {"p": p, "block": "scales", "n": i + 2},
                    {"scale_gap_rel": g, "running_min": min(rel[: i + 1])},
                )
            )
        final, backslide = scale_sweep_gates(rel)
        ok = scale_sweep_ok(final, backslide)
        records.append(
            _rec(
                cfg,
                {"p": p, "block": "summary", "n": 0},
                {"final_gap_rel": final, "backslide": backslide, "passed": float(ok)},
            )
        )
        if not ok:
            messages.append(
                f"convergence gate failed at p={p}: final {final:.4f}, "
                f"backslide {backslide:.3f}"
            )
    return ExperimentResult(records, 2 if messages else 0, messages)


def dense_law_error(ex: CriticalExample) -> float:
    """Max deviation of the dense spectrum from its law: M[i] on block i."""
    vs = ex.vs
    expected = block_spectrum(vs, [(i, vs.M[i]) for i in range(ex.depth + 1)])
    return float(np.abs(ex.spectrum.coeffs - expected.coeffs).max())


def sparse_law_error(ex: CriticalExample) -> float:
    """Max deviation of the sparse spectrum from M[j] / M[i]^2 on block j = 2 M[i]."""
    M = ex.vs.M
    expected = block_spectrum(
        ex.vs, [(2 * M[i], M[2 * M[i]] / (M[i] * M[i])) for i in range(1, ex.depth + 1)]
    )
    return float(np.abs(ex.spectrum.coeffs - expected.coeffs).max())


def atom_certificates(ex: CriticalExample) -> list[AtomCertificate]:
    """One certificate per atom of the example's decomposition, in order."""
    d = ex.decomposition
    return [validate_atom(a, d.p, iv) for a, iv in zip(d.atoms, d.intervals)]


def _construction_record(
    cfg: ExperimentConfig, law_err: float, ex, messages: list[str]
) -> ExperimentRecord:
    atoms_ok = all(cert.valid for cert in atom_certificates(ex))
    if not (roundoff_ok(law_err) and atoms_ok):
        messages.append(f"construction checks failed: law {law_err:.3e}, atoms {atoms_ok}")
    return _rec(cfg, {"block": "construction", "i": 0},
                {"law_err": law_err, "atoms_ok": float(atoms_ok)})


def _modulus_records(cfg: ExperimentConfig, rows: list, records: list[ExperimentRecord]) -> float:
    """Append one record per modulus row; return the largest ratio_power."""
    records.extend(
        _rec(cfg, {"block": "modulus", "i": r.n},
             {"omega": r.omega, "bound": r.bound, "ratio": r.ratio, "ratio_power": r.ratio_power})
        for r in rows
    )
    return max(r.ratio_power for r in rows)


def modulus_ok(worst_ratio_power: float) -> bool:
    return worst_ratio_power <= frozen.MODULUS_RATIO_POWER_MAX


def weak_divergence_ok(worst_stat: float) -> bool:
    return worst_stat >= frozen.WEAK_DIVERGENCE_MIN


def run_counterexample_2a(cfg: ExperimentConfig, vs: VilenkinStructure) -> ExperimentResult:
    params = cfg.parameters
    p = _dense_p(params)
    depth = int(params.get("depth", 10))
    modulus_levels = _levels(params, "modulus", 1, min(8, depth - 2))
    divergence_levels = _levels(params, "divergence", 3, min(8, depth - 2))
    ex = build_critical_example(p, depth, vs)

    messages = []
    # coefficient law and atom certificates are assertion-grade
    records = [_construction_record(cfg, dense_law_error(ex), ex, messages)]

    rows = modulus_ratio_report(ex, modulus_levels)
    worst_ratio = _modulus_records(cfg, rows, records)
    if not modulus_ok(worst_ratio):
        messages.append(f"modulus ratio {worst_ratio:.3f} over gate")

    stats = []
    for k in divergence_levels:
        stat = weak_divergence_statistic(ex, k)
        root = stat ** (1.0 / ex.p)  # bit for bit the root form of weak_lp_quasinorm
        companion = block_gap_norm(ex, k)
        stats.append(stat)
        records.append(
            _rec(cfg, {"block": "divergence", "i": k},
                 {"weak_power": stat, "weak_root": root, "companion_gap": companion})
        )
    worst_stat = min(stats)
    if not weak_divergence_ok(worst_stat):
        messages.append(f"weak divergence {worst_stat:.3f} under gate")

    dump = params.get("dump_function")
    if dump:
        save_function(ex.spectrum, dump)
    return ExperimentResult(records, 2 if messages else 0, messages)


def sparse_modulus_ok(worst_ratio_power: float) -> bool:
    return worst_ratio_power <= frozen.SPARSE_MODULUS_RATIO_POWER_MAX


def sparse_divergence_ok(worst_stat: float) -> bool:
    return worst_stat >= frozen.SPARSE_DIVERGENCE_MIN


def run_counterexample_2b(cfg: ExperimentConfig, vs: VilenkinStructure) -> ExperimentResult:
    params = cfg.parameters
    depth = int(params.get("depth", 3))
    modulus_levels = _levels(params, "modulus", 5, 16)
    # the builder rejects depth < 1, so the divergence levels 1..depth are never empty
    ex = build_sparse_critical_example(depth, vs)

    messages = []
    records = [_construction_record(cfg, sparse_law_error(ex), ex, messages)]

    rows = sparse_modulus_ratio_report(ex, modulus_levels)
    worst_ratio = _modulus_records(cfg, rows, records)
    if not sparse_modulus_ok(worst_ratio):
        messages.append(f"sparse modulus ratio {worst_ratio:.3f} over gate")

    stats = [sparse_divergence_statistic(ex, k) for k in range(1, depth + 1)]
    records.extend(
        _rec(cfg, {"block": "divergence", "i": k}, {"halfnorm_gap": stat})
        for k, stat in enumerate(stats, start=1)
    )
    worst_stat = min(stats)
    if not sparse_divergence_ok(worst_stat):
        messages.append(f"sparse divergence {worst_stat:.3f} under gate")

    dump = params.get("dump_function")
    if dump:
        save_function(ex.spectrum, dump)
    return ExperimentResult(records, 2 if messages else 0, messages)


def kernel_scan_ok(worst_ratio: float) -> bool:
    return worst_ratio >= frozen.KERNEL_SCAN_RATIO_MIN


def run_kernel_scan(cfg: ExperimentConfig, vs: VilenkinStructure) -> ExperimentResult:
    rows = kernel_halfnorm_scan(_levels(cfg.parameters, "level", 2, 7), vs)
    records = [
        _rec(cfg, {"level": r.level}, {"halfnorm": r.halfnorm, "ratio": r.ratio})
        for r in rows
    ]
    worst = min(r.ratio for r in rows)
    ok = kernel_scan_ok(worst)
    return ExperimentResult(
        records,
        0 if ok else 2,
        [] if ok else [f"kernel scan ratio {worst:.3f} under gate"],
    )


def max_weighted_ratio(spec: Spectrum, p: float, n_max: int) -> float:
    """max over n <= n_max of ||sigma_n f||_p / (weight_p(n) * ||f||_{H_p}); 0 for f = 0."""
    vs = spec.vs
    denom = hardy_norm(spec, p)
    if denom == 0:
        return 0.0
    weight = FejerWeight.for_p(p)
    best = 0.0
    for n, sigma in iter_fejer_means(spec, n_max):
        val = lp_quasinorm(StepFunction(vs, sigma), p) / (weight.at(n) * denom)
        best = max(best, val)
    return best


def seed_maxima(
    vs: VilenkinStructure, p: float, first_seed: int, seeds: int, randoms: int,
    atom_scale: int, damping: float, n_max: int,
) -> tuple[list[float], list[float]]:
    """Per-seed maxima of :func:`max_weighted_ratio` over the sample family,
    and the same maxima over the seed's random spectra alone.

    Seed ``s`` draws ``randoms`` random spectra from ``first_seed + s``; the
    family adds the critical atom at ``atom_scale`` and the damped critical
    spectrum, which do not depend on the seed.
    """
    fixed = max(
        max_weighted_ratio(analyze(critical_atom(atom_scale, p, vs)), p, n_max),
        max_weighted_ratio(family_damped_critical(vs, vs.N - 1, damping), p, n_max),
    )
    random_maxima = []
    for s in range(seeds):
        rng = XorShift64Star(first_seed + s)
        random_maxima.append(max(
            (max_weighted_ratio(family_character_polynomial(vs, vs.N, rng), p, n_max)
             for _ in range(randoms)),
            default=0.0,
        ))
    return [max(r, fixed) for r in random_maxima], random_maxima


def ratio_cv(maxima: list[float]) -> float:
    """Coefficient of variation of per-seed maxima; inf when their mean is 0."""
    arr = np.array(maxima)
    return float(arr.std() / arr.mean()) if arr.mean() > 0 else float("inf")


def ratio_cv_ok(cv: float) -> bool:
    # A non-finite maximum makes cv NaN, which fails the comparison.
    return cv < frozen.MAX_RATIO_CV_MAX


def run_maximal_bound(cfg: ExperimentConfig, vs: VilenkinStructure) -> ExperimentResult:
    params = cfg.parameters
    seeds = _at_least_one(params, "seeds", 10)
    records = []
    messages = []
    for p in cfg.p_values or (0.25, 0.5):
        maxima, _ = seed_maxima(
            vs, p, first_seed=cfg.seed, seeds=seeds,
            randoms=int(params.get("random_functions", 3)),
            atom_scale=int(params.get("atom_scale", 2)),
            damping=float(params.get("damping", 0.25)),
            n_max=int(params.get("n_max", vs.size)),
        )
        for s, best in enumerate(maxima):
            records.append(_rec(cfg, {"p": p, "seed": s}, {"max_ratio": best}))
        cv = ratio_cv(maxima)
        ok = ratio_cv_ok(cv)
        records.append(
            _rec(cfg, {"p": p, "seed": seeds},
                 {"cv": cv, "mean_max_ratio": float(np.mean(maxima)), "passed": float(ok)})
        )
        if not ok:
            messages.append(f"ratio instability at p={p}: cv {cv:.4f}")
    return ExperimentResult(records, 2 if messages else 0, messages)


@dataclass(frozen=True)
class Experiment:
    """A runner, the ``parameters`` keys it reads (any other key is a config
    error), and whether it computes anything at exponent p given its
    parameters (any other ``p_values`` entry is a config error)."""

    run: Callable[[ExperimentConfig, VilenkinStructure], ExperimentResult]
    keys: tuple[str, ...]
    computes_p: Callable[[float, dict], bool]


EXPERIMENTS = {
    "gram": Experiment(run_gram, ("functions",), lambda p, params: False),
    "kernels": Experiment(run_kernels, ("bound_level",), lambda p, params: False),
    "convergence": Experiment(run_convergence, (
        "grid_points", "family", "band", "base_depth", "window_level", "base_cell", "depth",
        "damping", "function_path",
    ), lambda p, params: True),
    "counterexample-2a": Experiment(run_counterexample_2a, (
        "p", "depth", "modulus_lo", "modulus_hi", "divergence_lo", "divergence_hi",
        "dump_function",
    ), lambda p, params: p == _dense_p(params)),
    "counterexample-2b": Experiment(
        run_counterexample_2b, ("depth", "modulus_lo", "modulus_hi", "dump_function"),
        lambda p, params: p == 0.5,
    ),
    "kernel-scan": Experiment(
        run_kernel_scan, ("level_lo", "level_hi"), lambda p, params: p == 0.5  # half-power integral
    ),
    "maximal-bound": Experiment(
        run_maximal_bound, ("seeds", "random_functions", "n_max", "atom_scale", "damping"),
        lambda p, params: p <= 0.5,
    ),
}


def run_experiment(cfg: ExperimentConfig, cap: int | None = None) -> ExperimentResult:
    return EXPERIMENTS[cfg.experiment].run(cfg, build_structure(cfg, cap))
