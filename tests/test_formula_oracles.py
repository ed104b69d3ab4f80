"""Each spectral formula has one home; these tests keep the copies it replaced.

The kernels, the smoothing window, the convergence modulus and the Hardy
value of ``norm_report`` are computed through ``transform`` and ``norms``.
The formulas they used to carry are kept here as oracles and compared bit
for bit, except where a test says otherwise.
"""

import numpy as np
import pytest

from vilenkin_lab.experiments import (
    build_family,
    family_smoothed_indicator,
    load_config,
    run_experiment,
)
from vilenkin_lab.kernels import dirichlet_kernel, fejer_kernel
from vilenkin_lab.norms import hardy_norm, norm_report
from vilenkin_lab.rng import XorShift64Star
from vilenkin_lab.structure import VilenkinStructure, leading_position
from vilenkin_lab.transform import Spectrum, StepFunction, analyze, synthesize

from group_oracles import cell_to_point, point_cylinder_cells

STRUCTURES = [(2,) * 6, (2, 3, 2, 3), (3, 2, 5, 4, 2)]


@pytest.fixture(params=STRUCTURES, ids=lambda m: "x".join(map(str, m)))
def vs(request):
    return VilenkinStructure.from_m(request.param)


def old_dirichlet(n, vs):
    coeffs = np.zeros(vs.size, dtype=np.complex128)
    coeffs[:n] = 1.0
    return synthesize(Spectrum(vs, coeffs)).values


def old_fejer(n, vs):
    coeffs = np.zeros(vs.size, dtype=np.complex128)
    coeffs[:n] = 1.0 - np.arange(n) / n
    return synthesize(Spectrum(vs, coeffs)).values


def old_smoothed_indicator(vs, base_depth, window_level, base_cell):
    values = np.zeros(vs.size, dtype=np.complex128)
    cells = point_cylinder_cells(cell_to_point(base_cell, vs), base_depth, vs)
    values[cells.start : cells.stop] = 1.0
    spec = analyze(StepFunction(vs, values))
    window = vs.M[window_level]
    out = np.zeros(vs.size, dtype=np.complex128)
    out[:window] = spec.coeffs[:window] * (1.0 - np.arange(window) / window)
    return out


def old_omega(spec, n, p):
    vs = spec.vs
    pos = leading_position(n, vs) if n < vs.size else vs.N
    tail = spec.coeffs.copy()
    tail[: vs.M[pos]] = 0.0
    return hardy_norm(Spectrum(vs, tail), p)


def test_kernels_equal_their_coefficient_formulas(vs):
    for n in range(1, vs.size + 1):
        assert dirichlet_kernel(n, vs).values.tobytes() == old_dirichlet(n, vs).tobytes()
        assert fejer_kernel(n, vs).values.tobytes() == old_fejer(n, vs).tobytes()


def test_smoothed_indicator_equals_windowed_coefficients(vs):
    for base_depth in range(vs.N + 1):
        for window_level in range(vs.N + 1):
            for base_cell in (0, vs.size // 2 + 1, vs.size - 1):
                got = family_smoothed_indicator(vs, base_depth, window_level, base_cell)
                want = old_smoothed_indicator(vs, base_depth, window_level, base_cell)
                assert got.coeffs.tobytes() == want.tobytes()


@pytest.mark.parametrize("family", ["character-polynomial", "smoothed-indicator"])
def test_convergence_omega_equals_tail_formula(vs, family):
    cfg = load_config({
        "experiment": "convergence",
        "structure": {"m": list(vs.m)},
        "p_values": [0.25, 0.5, 1.0],
        "parameters": {"family": family, "band": 2, "window_level": 3, "grid_points": 12},
        "seed": 5,
    })
    spec = build_family(cfg, vs, XorShift64Star(cfg.seed))
    grid = [r for r in run_experiment(cfg).records if r.index["block"] == "grid"]
    assert len(grid) > vs.N
    for rec in grid:
        want = old_omega(spec, rec.index["n"], rec.index["p"])
        assert np.float64(rec.values["omega"]).tobytes() == np.float64(want).tobytes()


def test_norm_report_hardy_is_the_maximal_function_of_its_values(vs):
    # Bitwise: hardy_norm synthesizes its spectrum, norm_report starts from values.
    for seed in (1, 2, 3):
        spec = Spectrum(vs, XorShift64Star(seed).complex_uniforms(vs.size))
        f = synthesize(spec)
        for p in (0.25, 0.5, 1.0):
            assert norm_report(f, p).hardy == hardy_norm(spec, p)


def test_norm_report_hardy_against_round_trip_formula(vs):
    # The old formula hardy_norm(analyze(f), p) maximizes the round-tripped
    # values, which differ from f by rounding.  Not bitwise: over 200 seeds
    # and p in {1/4, 1/2, 1} on these structures the relative difference
    # reached 1.05e-15, so the bound is 2e-15 (about 9 ulps).
    for seed in range(1, 11):
        f = StepFunction(vs, XorShift64Star(seed).complex_uniforms(vs.size))
        for p in (0.25, 0.5, 1.0):
            got = norm_report(f, p).hardy
            want = hardy_norm(analyze(f), p)
            assert abs(got - want) <= 2e-15 * want
