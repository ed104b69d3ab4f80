"""The benchmark's own tests: oracles agree with the library, every
workload's output check rejects a corrupted output, and the tracer nests
spans and derives self time.

    python3 -m pytest perfbench/selftest.py

(Not named ``test_*.py``, so the package's own suite does not collect it.)
"""

from __future__ import annotations

import dataclasses
import json
import sys

import numpy as np
import pytest

from worker import SRC

sys.path.insert(0, str(SRC))

import oracles  # noqa: E402
from workloads import ROOT, CapSpectral, GateSuite, RandomParseval  # noqa: E402

from vilenkin_lab.experiments import load_config, run_experiment  # noqa: E402
from vilenkin_lab.norms import hardy_norm, weak_lp_quasinorm  # noqa: E402
from vilenkin_lab.reporting import write_records  # noqa: E402
from vilenkin_lab.rng import XorShift64Star  # noqa: E402
from vilenkin_lab.structure import VilenkinStructure  # noqa: E402
from vilenkin_lab.transform import (  # noqa: E402
    Spectrum, StepFunction, maximal_function, synthesize,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def one_pass(workload) -> list:
    workload.setup()
    outputs = []
    workload.run_pass(lambda label, output: outputs.append((label, output)))
    for label, output in outputs:
        assert workload.check(label, output) == [], label
    return outputs


# -- oracles ------------------------------------------------------------------


def test_xorshift_oracle_matches_sampler():
    for seed in (0, 1, 2**64 - 1, 123456789):
        assert list(XorShift64Star(seed).complex_uniforms(6)) == oracles.xorshift_complex(seed, 6)


@pytest.mark.parametrize("m", [(2,) * 7, (2, 3, 4, 5, 3)])
def test_dense_closed_form_and_walsh_synthesis(m):
    vs = VilenkinStructure.from_m(m)
    M = list(vs.M)
    c = oracles.block_coeffs(M, [(i, M[i]) for i in range(vs.N)], vs.size)
    got = synthesize(Spectrum(vs, c)).values
    assert oracles.dense_error(got, M, vs.N - 1) < 1e-12 * np.abs(got).max()
    if set(m) == {2}:
        r = XorShift64Star(5).complex_uniforms(vs.size)
        assert np.allclose(synthesize(Spectrum(vs, r)).values, oracles.walsh_synthesize(r), atol=1e-12)


def test_quasinorm_oracles_match_library():
    vs = VilenkinStructure.from_m((2, 3, 4, 2))
    values = XorShift64Star(9).complex_uniforms(vs.size)
    values[:10] = values[10]  # repeated magnitudes
    f = StepFunction(vs, values)
    spec = Spectrum(vs, np.fft.fft(values) / vs.size)  # any spectrum
    assert oracles.weak_profile(values, 0.5)[0] == pytest.approx(weak_lp_quasinorm(f, 0.5, "p_power"), rel=1e-12)
    assert oracles.lp(oracles.maximal(synthesize(spec).values, vs.m), 0.5) == pytest.approx(
        hardy_norm(spec, 0.5), rel=1e-12
    )
    assert np.allclose(oracles.maximal(synthesize(spec).values, vs.m), maximal_function(spec).values.real)


# -- output checks fail on corrupted outputs ----------------------------------


def test_cap_spectral_check_rejects_corruption():
    # Seed 5 draws the shallow level 2, where a modulus 1% low falls below
    # the exact value; at deep levels the library's rounding excess alone
    # is larger than 1% (see the README's known defect).
    wl = CapSpectral(seed=5, depth=10)
    (label, (omega, weak, values, coeffs)), *_ = one_pass(wl)
    bad_values, bad_coeffs = values.copy(), coeffs.copy()
    bad_values[3] += 1.0
    bad_coeffs[5] *= 1.001
    for corrupted in (
        (omega * 0.99, weak, values, coeffs),
        (omega * 100, weak, values, coeffs),
        (omega, weak * (1 + 1e-7), values, coeffs),
        (omega, weak, bad_values, coeffs),
        (omega, weak, values, bad_coeffs),
    ):
        assert wl.check(label, corrupted)


def test_cap_spectral_modulus_band_at_the_cell_cap():
    # At 2^22 cells and a deep level the rounding term is several times the
    # exact modulus; the measured band still rejects a doubled modulus.
    from vilenkin_lab.norms import modulus_of_continuity

    wl = CapSpectral(seed=1)
    wl.setup()
    k = 20
    omega = modulus_of_continuity(wl.example.spectrum, k, 0.25)
    assert wl._check_modulus(k, omega) == []
    assert wl._check_modulus(k, 2 * omega)


def test_random_parseval_check_rejects_corruption():
    wl = RandomParseval(seed=4, structures=((2, 3, 4, 5), (5, 2, 3, 2, 4)))
    (label, (f, spec, parseval, back, report)), *_ = one_pass(wl)
    shifted = f.values.copy()
    shifted[0] += 1e-3
    bad_spec = Spectrum(spec.vs, spec.coeffs * (1 + 1e-6))
    for corrupted in (
        (StepFunction(f.vs, shifted), spec, parseval, back, report),
        (f, bad_spec, parseval, back, report),
        (f, spec, 1e-6, back, report),
        (f, spec, parseval, back * 1.001, report),
        (f, spec, parseval, back, dataclasses.replace(report, hardy=report.hardy * 1.001)),
        (f, spec, parseval, back, dataclasses.replace(report, weak_p_power=report.weak_p_power * 1.001)),
        (f, spec, parseval, back, dataclasses.replace(report, levels=report.levels[1:])),
    ):
        assert wl.check(label, corrupted)


def test_gate_suite_check_rejects_corruption(tmp_path):
    wl = GateSuite(seed=1)
    assert wl.check(("criterion", 2), "[ 2] PASS dirichlet-closed-form (0.00s) max_err=6e-14") == []
    assert wl.check(("criterion", 2), "[ 2] FAIL dirichlet-closed-form (0.00s) max_err=6e-1")
    cfg = load_config(ROOT / "configs" / "kernel_scan.json")
    result = run_experiment(cfg)
    path = tmp_path / "kernel_scan.csv"
    write_records(result.records, path)
    assert wl.check(("config", "kernel_scan"), (cfg, result, path)) == []
    assert wl.check(("config", "kernel_scan"), (cfg, dataclasses.replace(result, exit_code=2), path))
    lines = path.read_text().splitlines()
    cells = lines[2].split(",")
    cells[2] = repr(float(cells[2]) * (1 + 1e-6))
    lines[2] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    assert wl.check(("config", "kernel_scan"), (cfg, result, path))


def _rewrite_cell(path, row: int, column: str, value) -> None:
    lines = path.read_text().splitlines()
    header = lines[1].split(",")
    cells = lines[2 + row].split(",")
    cells[header.index(column)] = repr(value(float(cells[header.index(column)])))
    lines[2 + row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("stem, column", [("kernels_walsh", "max_err"), ("convergence_walsh", "omega")])
def test_gate_suite_check_ignores_rounding_noise(tmp_path, stem, column):
    # Cells at the rounding floor move by O(1) of themselves when a refactor
    # reorders the sums; doubling them must not fail the check, while a
    # real error in the same column must.
    wl = GateSuite(seed=1)
    cfg = load_config(ROOT / "configs" / f"{stem}.json")
    result = run_experiment(cfg)
    path = tmp_path / f"{stem}.csv"
    write_records(result.records, path)
    _, rows = GateSuite.read_rows(path)
    noise = next(i for i, row in enumerate(rows) if row[column] and 0 < float(row[column]) < 1e-12)
    _rewrite_cell(path, noise, column, lambda v: 2 * v)
    assert wl.check(("config", stem), (cfg, result, path)) == []
    _rewrite_cell(path, noise, column, lambda v: v + 1e-6)
    assert wl.check(("config", stem), (cfg, result, path))


# -- tracing ------------------------------------------------------------------


def test_tracer_nests_spans_and_names_every_layer_metric():
    from tracing import Tracer, layer_metrics, span_totals
    from vilenkin_lab import norms, transform

    tracer = Tracer()
    tracer.install()
    try:
        vs = VilenkinStructure.from_pattern((2,), 8)
        spec = Spectrum(vs, XorShift64Star(1).complex_uniforms(vs.size))
        tracer.begin_op(0)
        norms.hardy_norm(spec, 0.5)
        transform.weighted_maximal_fejer(spec, 0.5, 16)
        tracer.end_op()
        tracer.begin_op(1)
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert transform.synthesize.__module__ == "vilenkin_lab.transform"
    assert not hasattr(norms.hardy_norm, "__wrapped__")
    synth = next(s for s in tracer.spans if s[0] == "transform.synthesize")
    assert tracer.spans[synth[3]][0] == "transform.maximal_function"
    totals = span_totals(tracer.spans)
    assert totals["transform.iter_fejer_means"]["steps"] == 16
    assert totals["norms.hardy_norm"]["busy_s"] < totals["norms.hardy_norm"]["total_s"]
    metrics = layer_metrics(tracer.spans, tracer.cache_deltas)
    assert metrics["transform.synthesize.calls"] == 1
    assert metrics["transform.stage_macs"] == vs.size * 2 * vs.N
    wanted = {m["name"] for m in SPEC["per_layer"]}
    produced_elsewhere = {n for n in wanted if n.startswith(("ref.", "trace."))}
    assert set(metrics) == wanted - produced_elsewhere


def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [w["name"] for w in SPEC["workloads"]] + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")["bound"] == max(
        m["bound"] for m in SPEC["end_to_end"]
    )
