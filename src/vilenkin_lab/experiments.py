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

import itertools
import json
import math
import sys
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import lru_cache
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
    tail_modulus,
    weak_divergence_statistic,
)
from .kernels import dirichlet_kernel, verify_fejer_lower_bounds, fejer_lower_bound_cells
from .norms import lp_quasinorm, validate_atom
from .reporting import ExperimentRecord, config_hash
from .rng import XorShift64Star
from .serialize import load_function, save_function
from .structure import VilenkinStructure, cylinder_cells, leading_position
from .transform import (
    FejerWeight,
    Spectrum,
    StepFunction,
    analyze,
    character_blocks,
    fejer_coefficients,
    fejer_mean,
    fejer_mean_blocks,
    maximal_function,
    synthesize,
)

DEFAULT_CELL_CAP = 2**22
CONFIG_KEYS = frozenset(
    {"experiment", "structure", "resolution", "p_values", "parameters", "seed", "output"}
)
OUTPUT_FORMATS = ("csv", "json")
# the shipped configs, read from the source tree
SHIPPED_DIR = Path(__file__).resolve().parents[2] / "configs"

def _dense_p(parameters: dict) -> float:
    return _param(parameters, "p", 0.25, float)


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


def _is_integer(value) -> bool:
    # JSON true and false load as bool, a subclass of int
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_integer(value) or isinstance(value, float)


def _param(params: dict, key: str, default, kind: type = int, lo=-math.inf, hi=math.inf):
    """``params[key]``, or ``default`` when it is absent, as ``kind``.

    An int parameter takes a JSON integer only and a float one any finite
    JSON number; neither takes a bool.  A value outside [lo, hi] is a config
    error too.
    """
    value = params.get(key, default)
    if not (_is_integer(value) if kind is int else _is_number(value)):
        raise ValueError(f"{key} must be {'an integer' if kind is int else 'a number'}, got {value!r}")
    if not lo <= value <= hi:
        raise ValueError(f"{key} = {value} not in [{lo}, {hi}]")
    if kind is float and not abs(value) <= sys.float_info.max:
        raise ValueError(f"{key} = {value} is not a finite number")
    return kind(value)


def load_config(source: dict | str | Path) -> ExperimentConfig:
    if isinstance(source, (str, Path)):
        raw = json.loads(Path(source).read_text(encoding="utf-8"))
    else:
        raw = dict(source)
    if not isinstance(raw, dict):
        raise ValueError(f"config must be a JSON object, got {raw!r}")
    unknown = sorted(raw.keys() - CONFIG_KEYS)
    if unknown:
        raise ValueError(f"unknown config keys {unknown}; accepted: {sorted(CONFIG_KEYS)}")
    experiment = raw.get("experiment")
    if not isinstance(experiment, str) or experiment not in EXPERIMENTS:
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
    if not all(_is_integer(v) for v in structure[generators]):
        raise ValueError(f"structure.{generators} must hold integers, got {structure[generators]!r}")
    if "repeat_to" in structure and not _is_integer(structure["repeat_to"]):
        raise ValueError(f"structure.repeat_to must be an integer, got {structure['repeat_to']!r}")
    p_values = raw.get("p_values", [])
    if not isinstance(p_values, (list, tuple)) or not all(_is_number(p) for p in p_values):
        raise ValueError(f"p_values must be a list of numbers, got {p_values!r}")
    p_values = tuple(float(p) for p in p_values)
    for p in p_values:
        if not 0 < p <= 1:
            raise ValueError(f"p value {p} outside (0, 1]")
    parameters = raw.get("parameters", {})
    if not isinstance(parameters, dict):
        raise ValueError(f"parameters must be an object, got {parameters!r}")
    parameters = dict(parameters)
    resolution, seed = raw.get("resolution"), raw.get("seed", 1)
    if not (resolution is None or _is_integer(resolution)) or not _is_integer(seed):
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
    named = {key: parameters[key] for key in ("family", "function_path", "dump_function") if key in parameters}
    if not all(isinstance(value, str) for value in named.values()):
        raise ValueError(f"parameters {sorted(named)} must be strings, got {named}")
    output = raw.get("output", {})
    if not isinstance(output, dict):
        raise ValueError(f"output must be an object with path and format, got {output!r}")
    unknown = sorted(output.keys() - {"path", "format"})
    if unknown:
        raise ValueError(f"unknown output keys {unknown}; accepted: path, format")
    if output.get("format", "csv") not in OUTPUT_FORMATS:
        raise ValueError(f"output format {output['format']!r} not in {OUTPUT_FORMATS}")
    if output.get("path") is not None and not isinstance(output["path"], str):
        raise ValueError(f"output.path must be a string, got {output['path']!r}")
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


def build_structure(cfg: ExperimentConfig, cap: int = DEFAULT_CELL_CAP) -> VilenkinStructure:
    spec = cfg.structure
    depth = len(spec["m"]) if "m" in spec else spec.get("repeat_to", cfg.resolution)
    if depth is None:
        raise ValueError("pattern structure needs repeat_to or resolution")
    # every generator is >= 2, so M[N] >= 2^N: refuse before building the
    # scale table, whose big integers take O(N^2) bits
    if depth > cap.bit_length() - 1:
        raise CapacityError(
            f"structure has {depth} coordinates, so at least 2^{depth} cells, over the cap "
            f"of {cap}; raise --cells-cap to allow it"
        )
    if "m" in spec:
        vs = VilenkinStructure.from_m(spec["m"])
    else:
        vs = VilenkinStructure.from_pattern(spec["pattern"], depth)
    if cfg.resolution is not None and cfg.resolution != vs.N:
        raise ValueError(f"structure has resolution {vs.N} but resolution says {cfg.resolution}")
    if vs.size > cap:
        # the bit length, since a huge radix gives M[N] too many digits to print
        bits = vs.size.bit_length()
        raise CapacityError(
            f"structure has at least 2^{bits - 1} cells (a {bits}-bit count), over the cap "
            f"of {cap}; raise --cells-cap to allow it"
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
    dense divergence family.  A damping that overflows a block value is a
    config error."""
    try:
        blocks = [(i, vs.M[i] * damping**i) for i in range(depth + 1)]
        if all(math.isfinite(value) for _, value in blocks):
            return block_spectrum(vs, blocks)
    except OverflowError:
        pass
    raise ValueError(f"damping = {damping} overflows a block value M[i] * damping^i")


def build_family(cfg: ExperimentConfig, vs: VilenkinStructure, rng: XorShift64Star) -> Spectrum:
    params = cfg.parameters
    name = params.get("family", "character-polynomial")
    if name == "character-polynomial":
        return family_character_polynomial(vs, _param(params, "band", 2, lo=0, hi=vs.N), rng)
    if name == "smoothed-indicator":
        return family_smoothed_indicator(
            vs,
            _param(params, "base_depth", 2),
            _param(params, "window_level", 4, lo=0, hi=vs.N),
            _param(params, "base_cell", 0),
        )
    if name == "damped-critical":
        depth = _param(params, "depth", vs.N - 1, lo=0, hi=vs.N - 1)
        return family_damped_critical(vs, depth, _param(params, "damping", 0.25, float))
    if name == "from-file":
        obj = load_function(params["function_path"])
        if obj.vs != vs:
            raise ValueError("function file was saved on a different structure")
        return obj if isinstance(obj, Spectrum) else analyze(obj)
    raise ValueError(f"unknown test-function family {name!r}")


# ---------------------------------------------------------------------------
# runners, each next to the statistics it shares with the check suite


def gram_error(vs: VilenkinStructure) -> float:
    """Largest entry of the character Gram matrix minus the identity."""
    mat = np.empty((vs.size, vs.size), dtype=np.complex128)
    for offset, rows in character_blocks(np.arange(vs.size), vs):
        mat[offset : offset + len(rows)] = rows
    gram = mat @ mat.conj().T
    gram /= vs.size
    gram.flat[:: vs.size + 1] -= 1.0
    return float(np.abs(gram).max())


def parseval_worst_rel(vs: VilenkinStructure, rng: XorShift64Star, count: int) -> float:
    """Worst relative Parseval error over ``count`` random functions, drawn
    in one call as ``count`` consecutive runs of the stream."""
    worst_rel = 0.0
    for values in rng.complex_uniforms(count * vs.size).reshape(count, vs.size):
        f = StepFunction(vs, values)
        s = analyze(f)
        lhs = float(np.mean(np.abs(f.values) ** 2))
        rhs = float(np.sum(np.abs(s.coeffs) ** 2))
        worst_rel = max(worst_rel, abs(lhs - rhs) / max(lhs, 1e-300))
    return worst_rel


def _levels(params: dict, name: str, lo: int, hi: int) -> list[int]:
    """Levels ``<name>_lo`` to ``<name>_hi`` inclusive; an empty range is a config error."""
    lo, hi = _param(params, f"{name}_lo", lo), _param(params, f"{name}_hi", hi)
    if lo > hi:
        raise ValueError(f"{name}_lo..{name}_hi is the empty range {lo}..{hi}")
    return list(range(lo, hi + 1))


def run_gram(cfg: ExperimentConfig, vs: VilenkinStructure) -> ExperimentResult:
    count = _param(cfg.parameters, "functions", 100, lo=1)
    if vs.size > 4096:
        raise CapacityError(
            f"gram experiment materializes a {vs.size}x{vs.size} matrix; "
            "limit is 4096 cells"
        )
    gram_err = gram_error(vs)
    worst_rel = parseval_worst_rel(vs, XorShift64Star(cfg.seed), count)
    ok = frozen.ROUNDOFF_MAX.passes(gram_err) and frozen.RELATIVE_ROUNDOFF_MAX.passes(worst_rel)
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
    level = _param(cfg.parameters, "bound_level", (vs.N + 1) // 2)
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
    ok = frozen.ROUNDOFF_MAX.passes(max(errors)) and check.ok
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
    """The top-scale gap and the largest ratio of a gap to its running
    minimum.  Once a gap is 0 the minimum stays 0: a later gap of 0 reads
    ratio 1.0 (no backslide), a later positive gap inf."""
    mins = itertools.accumulate(rel, min)
    return rel[-1], max(v / low if low else (math.inf if v else 1.0) for v, low in zip(rel, mins))


def run_convergence(cfg: ExperimentConfig, vs: VilenkinStructure) -> ExperimentResult:
    if vs.N < 2:
        raise ValueError(f"the scale sweep runs k = 2..N and is empty at resolution {vs.N}")
    rng = XorShift64Star(cfg.seed)
    spec = build_family(cfg, vs, rng)
    if not spec.coeffs.any():
        raise ValueError("the test function is 0, so its relative Fejer gaps are undefined")
    f = synthesize(spec)
    points = _param(cfg.parameters, "grid_points", 25, lo=0, hi=vs.size)
    records = []
    messages = []
    for p in cfg.p_values or (0.25, 0.5):
        weight = FejerWeight.for_p(p) if p <= 0.5 else None
        modulus = tail_modulus(spec, p)
        for n in _log_spaced_orders(vs, points):
            gap = lp_quasinorm(fejer_mean(spec, n) - f, p)
            omega = modulus(leading_position(n, vs) if n < vs.size else vs.N)
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
        ok = frozen.FINAL_GAP_MAX.passes(final) and frozen.BACKSLIDE_FACTOR_MAX.passes(backslide)
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


def _construction_record(
    cfg: ExperimentConfig, ex: CriticalExample, law: list[tuple[int, float]], messages: list[str]
) -> ExperimentRecord:
    """The example's deviation from its coefficient ``law``, a value per
    index block as :func:`block_spectrum` takes it, and whether every atom
    of its decomposition passes its certificate."""
    law_err = float(np.abs(ex.spectrum.coeffs - block_spectrum(ex.vs, law).coeffs).max())
    d = ex.decomposition
    atoms_ok = all(validate_atom(a, d.p, iv).valid for a, iv in zip(d.atoms, d.intervals))
    if not (frozen.ROUNDOFF_MAX.passes(law_err) and atoms_ok):
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


def run_counterexample_2a(cfg: ExperimentConfig, vs: VilenkinStructure) -> ExperimentResult:
    params = cfg.parameters
    p = _dense_p(params)
    depth = _param(params, "depth", 10)
    modulus_levels = _levels(params, "modulus", 1, min(8, depth - 2))
    divergence_levels = _levels(params, "divergence", 3, min(8, depth - 2))
    ex = build_critical_example(p, depth, vs)

    messages = []
    # the coefficient law, M[i] on block i, and the atom certificates are assertion-grade
    records = [_construction_record(cfg, ex, [(i, vs.M[i]) for i in range(depth + 1)], messages)]

    rows = modulus_ratio_report(ex, modulus_levels)
    worst_ratio = _modulus_records(cfg, rows, records)
    if not frozen.MODULUS_RATIO_POWER_MAX.passes(worst_ratio):
        messages.append(f"modulus ratio {worst_ratio:.3f} over gate")

    stats = []
    f = ex.function()
    for k in divergence_levels:
        stat = weak_divergence_statistic(ex, k, f)
        root = stat ** (1.0 / ex.p)  # bit for bit the root form of weak_lp_quasinorm
        companion = block_gap_norm(ex, k, f)
        stats.append(stat)
        records.append(
            _rec(cfg, {"block": "divergence", "i": k},
                 {"weak_power": stat, "weak_root": root, "companion_gap": companion})
        )
    worst_stat = min(stats)
    if not frozen.WEAK_DIVERGENCE_MIN.passes(worst_stat):
        messages.append(f"weak divergence {worst_stat:.3f} under gate")

    dump = params.get("dump_function")
    if dump:
        save_function(ex.spectrum, dump)
    return ExperimentResult(records, 2 if messages else 0, messages)


def run_counterexample_2b(cfg: ExperimentConfig, vs: VilenkinStructure) -> ExperimentResult:
    params = cfg.parameters
    depth = _param(params, "depth", 3)
    modulus_levels = _levels(params, "modulus", 5, 16)
    # the builder rejects depth < 1, so the divergence levels 1..depth are never empty
    ex = build_sparse_critical_example(depth, vs)

    messages = []
    # the coefficient law: M[j] / M[i]^2 on block j = 2 M[i]
    M = vs.M
    law = [(2 * M[i], M[2 * M[i]] / (M[i] * M[i])) for i in range(1, depth + 1)]
    records = [_construction_record(cfg, ex, law, messages)]

    rows = sparse_modulus_ratio_report(ex, modulus_levels)
    worst_ratio = _modulus_records(cfg, rows, records)
    if not frozen.SPARSE_MODULUS_RATIO_POWER_MAX.passes(worst_ratio):
        messages.append(f"sparse modulus ratio {worst_ratio:.3f} over gate")

    f = ex.function()
    stats = [sparse_divergence_statistic(ex, k, f) for k in range(1, depth + 1)]
    records.extend(
        _rec(cfg, {"block": "divergence", "i": k}, {"halfnorm_gap": stat})
        for k, stat in enumerate(stats, start=1)
    )
    worst_stat = min(stats)
    if not frozen.SPARSE_DIVERGENCE_MIN.passes(worst_stat):
        messages.append(f"sparse divergence {worst_stat:.3f} under gate")

    dump = params.get("dump_function")
    if dump:
        save_function(ex.spectrum, dump)
    return ExperimentResult(records, 2 if messages else 0, messages)


def run_kernel_scan(cfg: ExperimentConfig, vs: VilenkinStructure) -> ExperimentResult:
    rows = kernel_halfnorm_scan(_levels(cfg.parameters, "level", 2, 7), vs)
    records = [
        _rec(cfg, {"level": r.level}, {"halfnorm": r.halfnorm, "ratio": r.ratio})
        for r in rows
    ]
    worst = min(r.ratio for r in rows)
    ok = frozen.KERNEL_SCAN_RATIO_MIN.passes(worst)
    return ExperimentResult(
        records,
        0 if ok else 2,
        [] if ok else [f"kernel scan ratio {worst:.3f} under gate"],
    )


def max_weighted_ratio(spec: Spectrum, ps: tuple[float, ...], n_max: int) -> tuple[float, ...]:
    """For each p of ``ps``, max over n <= n_max of
    ||sigma_n f||_p / (weight_p(n) * ||f||_{H_p}); 0 for f = 0.

    One sweep of the Fejer means and one maximal function serve every p.
    """
    mf = maximal_function(spec)
    best = [0.0] * len(ps)
    denoms = [lp_quasinorm(mf, p) for p in ps]
    swept = [(i, p, denom) for i, (p, denom) in enumerate(zip(ps, denoms)) if denom != 0]
    if not swept:
        return tuple(best)
    for first, sigma in fejer_mean_blocks(spec, n_max):
        mags = np.abs(sigma)
        for i, p, denom in swept:
            # lp_quasinorm of each row: the array power and the mean per
            # block.  The array root can miss the scalar one by an ulp, so
            # the ratios near the block's largest are recomputed with the
            # scalar power, as _weak_level_scan does.  fmax skips NaN rows,
            # as max() against the running best does.
            means = np.mean(mags**p, axis=1)
            scale = _weights(p, n_max)[first - 1 : first - 1 + len(means)] * denom
            ratios = means ** (1.0 / p) / scale
            top = np.fmax.reduce(ratios)
            if top > 0:
                for k in np.flatnonzero(ratios >= top * (1.0 - 1e-12)):
                    best[i] = max(best[i], float(means[k] ** (1.0 / p)) / float(scale[k]))
    return tuple(best)


@lru_cache(maxsize=16)
def _weights(p: float, n_max: int) -> np.ndarray:
    """FejerWeight.for_p(p).at(n) for n = 1..n_max, each from the scalar
    weight; read-only, as the cache shares it."""
    weight = FejerWeight.for_p(p)
    out = np.array([weight.at(n) for n in range(1, n_max + 1)])
    out.flags.writeable = False
    return out


def seed_maxima(
    vs: VilenkinStructure, ps: tuple[float, ...], first_seed: int, seeds: int, randoms: int,
    atom_scale: int, damping: float, n_max: int,
) -> list[list[float]]:
    """For each p of ``ps``, the per-seed maxima of
    :func:`max_weighted_ratio` over the sample family.

    Seed ``s`` draws ``randoms`` random spectra from ``first_seed + s``; the
    family adds the critical atom at ``atom_scale`` and the damped critical
    spectrum, which do not depend on the seed.  Only the atom depends on p,
    so every other spectrum is swept once for all of ``ps``.
    """
    atoms = [max_weighted_ratio(analyze(critical_atom(atom_scale, p, vs)), (p,), n_max)[0]
             for p in ps]
    damped = max_weighted_ratio(family_damped_critical(vs, vs.N - 1, damping), ps, n_max)
    per_seed = []  # per seed, one ratio tuple (over ps) per random spectrum
    for s in range(seeds):
        rng = XorShift64Star(first_seed + s)
        per_seed.append([max_weighted_ratio(family_character_polynomial(vs, vs.N, rng), ps, n_max)
                         for _ in range(randoms)])
    return [[max(atoms[i], damped[i], *(ratios[i] for ratios in spectra)) for spectra in per_seed]
            for i in range(len(ps))]


def ratio_cv(maxima: list[float]) -> float:
    """Coefficient of variation of per-seed maxima; inf when their mean is 0."""
    arr = np.array(maxima)
    return float(arr.std() / arr.mean()) if arr.mean() > 0 else float("inf")


def run_maximal_bound(cfg: ExperimentConfig, vs: VilenkinStructure) -> ExperimentResult:
    params = cfg.parameters
    seeds = _param(params, "seeds", 10, lo=1)
    records = []
    messages = []
    ps = cfg.p_values or (0.25, 0.5)
    per_p = seed_maxima(
        vs, ps, first_seed=cfg.seed, seeds=seeds,
        randoms=_param(params, "random_functions", 3, lo=0),
        atom_scale=_param(params, "atom_scale", 2, lo=0),
        damping=_param(params, "damping", 0.25, float),
        n_max=_param(params, "n_max", vs.size),
    )
    for p, maxima in zip(ps, per_p):
        for s, best in enumerate(maxima):
            records.append(_rec(cfg, {"p": p, "seed": s}, {"max_ratio": best}))
        cv = ratio_cv(maxima)
        ok = frozen.MAX_RATIO_CV_MAX.passes(cv)
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


def run_experiment(cfg: ExperimentConfig, cap: int = DEFAULT_CELL_CAP) -> ExperimentResult:
    return EXPERIMENTS[cfg.experiment].run(cfg, build_structure(cfg, cap))
