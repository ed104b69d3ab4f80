"""Criteria fail on named wrong inputs (ROADMAP item 10).

Each row monkeypatches one library function that a criterion's statistic
reads, runs the real criterion on a fresh cache of the shipped-config
records, as ``run_all`` does, and expects a FAIL with the statistic the
row names; the same criterion passes on the unmutated library.
``test_record_past_its_bound_fails_its_criterion`` shows that the criteria
read the records; these rows show that a wrong input moves a statistic
past its gate.

Criterion 6 fails on a dense builder whose block values depart from the
runner's law, because the runner keeps its own copy of those values; a
fault in ``block_spectrum``, which builds both sides, still cannot fail it.
"""

import functools

import pytest

from vilenkin_lab import acceptance, experiments, kernels, transform
from vilenkin_lab.counterexamples import block_spectrum, build_critical_example
from vilenkin_lab.experiments import (
    family_damped_critical,
    scale_sweep,
    scale_sweep_gates,
    scale_sweep_ok,
)
from vilenkin_lab.structure import VilenkinStructure


def scaled_dense(ratio):
    """``build_critical_example`` with block i carrying M[i] * ratio^i in
    place of M[i]; the atoms are left as built."""

    def build(p, depth, vs):
        ex = build_critical_example(p, depth, vs)
        ex.spectrum = block_spectrum(vs, [(i, vs.M[i] * ratio**i) for i in range(depth + 1)])
        return ex

    return build


def divergent_smoothed_indicator(vs, *args):
    """Criterion 11's smooth fixture replaced by the undamped dense
    spectrum, M[i] on blocks 0..9, whose Fejer means diverge."""
    return family_damped_critical(vs, 9, 1.0)


def dirichlet_one_order_off(n, vs):
    """D_{n+1} in place of D_n (D_{n-1} at n = M[N])."""
    return kernels.dirichlet_kernel(n + 1 if n < vs.size else n - 1, vs)


_run_stages = transform._run_stages


def unconjugated_stages(flat, vs, conjugate):
    """The transform stages with the synthesis roots in analysis too.  The
    Walsh roots are real, so only criterion 4's mixed (2,3,2,3) structure
    shows the fault."""
    return _run_stages(flat, vs, conjugate=False)


# (criterion, module, function, mutant, the detail the failure prints)
MUTANTS = [
    (2, experiments, "dirichlet_kernel", dirichlet_one_order_off, "max_err=1.00e+00"),
    (4, transform, "_run_stages", unconjugated_stages, "agreement_rel=1.34e+00"),
    (9, experiments, "build_critical_example", scaled_dense(0.5), "dense_min=0.250"),
    (8, experiments, "build_critical_example", scaled_dense(2.0), "dense_max=6.510"),
    (6, experiments, "build_critical_example", scaled_dense(0.5), "max_dev=1.02e+03"),
    (6, experiments, "build_critical_example", scaled_dense(2.0), "max_dev=1.05e+06"),
    (11, acceptance, "family_smoothed_indicator", divergent_smoothed_indicator, "final_max=0.3486"),
]
IDS = ["2-dirichlet-one-order-off", "4-unconjugated-analysis", "9-dense-decaying",
       "8-dense-growing", "6-dense-decaying", "6-dense-growing", "11-divergent-smooth-fixture"]


@pytest.fixture(scope="module")
def shipped():
    return functools.cache(acceptance._shipped_records)


@pytest.mark.parametrize("number", sorted({row[0] for row in MUTANTS}))
def test_unmutated_criterion_passes(shipped, number):
    result = acceptance.CRITERIA[number - 1](shipped)
    assert result.passed, result.line()


@pytest.mark.parametrize("number, module, name, mutant, detail", MUTANTS, ids=IDS)
def test_mutant_fails_its_criterion(monkeypatch, number, module, name, mutant, detail):
    monkeypatch.setattr(module, name, mutant)
    result = acceptance.CRITERIA[number - 1](functools.cache(acceptance._shipped_records))
    assert not result.passed and detail in result.detail, result.line()


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 5: at p = 1/4 the scale sweep passes the divergent dense family "
    "(final gap 0.0491, gate 0.05); only p = 1/2 fails it",
)
def test_quarter_p_sweep_fails_the_divergent_family():
    spec = divergent_smoothed_indicator(VilenkinStructure.from_pattern((2,), 10))
    assert not scale_sweep_ok(*scale_sweep_gates(scale_sweep(spec, 0.25)))
