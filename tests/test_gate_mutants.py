"""Criteria fail on named wrong inputs (ROADMAP item 10).

Each row monkeypatches one library function that a criterion's statistic
reads, runs the real criterion on a fresh cache of the shipped-config
records, as ``run_all`` does, and expects a FAIL with the statistic the
row names, read back from the detail and past the gate the row names; the
same criterion passes on the unmutated library.  A wrong
input that its criterion still passes is a strict xfail naming the ROADMAP
item meant to catch it.
``test_record_past_its_bound_fails_its_criterion`` shows that the criteria
read the records; these rows show that a wrong input moves a statistic
past its gate.

Criterion 6 fails on a dense builder whose block values depart from the
runner's law, because the runner keeps its own copy of those values; a
fault in ``block_spectrum``, which builds both sides, still cannot fail it.
"""

import dataclasses
import functools
import re

import numpy as np
import pytest

from vilenkin_lab import acceptance, counterexamples, experiments, frozen, kernels, transform
from vilenkin_lab.counterexamples import block_spectrum, build_critical_example
from vilenkin_lab.experiments import family_damped_critical, scale_sweep, scale_sweep_gates
from vilenkin_lab.structure import VilenkinStructure


def weighted_dense(weight):
    """``build_critical_example`` with block i carrying M[i] * weight(i) in
    place of M[i]; the atoms are left as built."""

    def build(p, depth, vs):
        ex = build_critical_example(p, depth, vs)
        ex.spectrum = block_spectrum(vs, [(i, vs.M[i] * weight(i)) for i in range(depth + 1)])
        return ex

    return build


def scaled_dense(ratio):
    """Block i carries M[i] * ratio^i."""
    return weighted_dense(lambda i: ratio**i)


def divergent_smoothed_indicator(vs, *args):
    """Criterion 11's smooth fixture replaced by the undamped dense
    spectrum, M[i] on blocks 0..9, whose Fejer means diverge."""
    return family_damped_critical(vs, 9, 1.0)


def dirichlet_one_order_off(n, vs):
    """D_{n+1} in place of D_n (D_{n-1} at n = M[N])."""
    return kernels.dirichlet_kernel(n + 1 if n < vs.size else n - 1, vs)


_fejer_kernel = kernels.fejer_kernel
_catalogue = kernels.fejer_lower_bound_cells


def catalogue_bounds_doubled(level, vs):
    """The catalogued cylinders, each with twice its lower bound."""
    return [dataclasses.replace(entry, bound=2 * entry.bound) for entry in _catalogue(level, vs)]


def fejer_kernel_one_order_down(n, vs):
    """K_{n-1} in place of K_n."""
    return _fejer_kernel(n - 1, vs)


def fejer_law_one_order_up(s, n):
    """The n-th Fejer mean with coefficient k scaled by 1 - k/(n+1), not 1 - k/n."""
    coeffs = np.zeros(s.vs.size, dtype=np.complex128)
    coeffs[:n] = s.coeffs[:n] * (1.0 - np.arange(n) / (n + 1))
    return transform.synthesize(transform.Spectrum(s.vs, coeffs))


_weights = experiments._weights


def weights_over_root(p, n_max):
    """The Fejer weights divided by sqrt(n + 1), a weight that falls behind
    the sharp one as n grows."""
    return _weights(p, n_max) / np.sqrt(np.arange(2, n_max + 2))


_character_rows = transform.character_rows


def one_character_conjugated(indices, vs):
    """Character rows with row 2 conjugated.  Index 2 has digit 1 in the
    radix-3 coordinate of (2,3,2,3), so its conjugate is another character
    there; every Walsh character is real and unchanged."""
    rows = _character_rows(indices, vs)
    hit = np.asarray(indices) == 2
    rows[hit] = rows[hit].conj()
    return rows


_run_stages = transform._run_stages


def unconjugated_stages(flat, vs, conjugate):
    """The transform stages with the synthesis roots in analysis too.  The
    Walsh roots are real, so only criterion 4's mixed (2,3,2,3) structure
    shows the fault."""
    return _run_stages(flat, vs, conjugate=False)


# (criterion, module, function, mutant, the detail the failure prints, the
# gate that statistic is held to: None for criterion 12's cv, printed in
# percent)
MUTANTS = [
    (1, transform, "character_rows", one_character_conjugated, "gram_err=1.00e+00",
     frozen.ROUNDOFF_MAX),
    (2, experiments, "dirichlet_kernel", dirichlet_one_order_off, "max_err=1.00e+00",
     frozen.ROUNDOFF_MAX),
    (3, kernels, "fejer_lower_bound_cells", catalogue_bounds_doubled, "worst_margin=-11385.000",
     frozen.FEJER_BOUND_MARGIN_MIN),
    (4, transform, "_run_stages", unconjugated_stages, "agreement_rel=1.34e+00",
     frozen.RELATIVE_ROUNDOFF_MAX),
    (5, acceptance, "fejer_mean", fejer_law_one_order_up, "law_err=2.08e-02",
     frozen.ROUNDOFF_MAX),
    (9, experiments, "build_critical_example", scaled_dense(0.5), "dense_min=0.250",
     frozen.WEAK_DIVERGENCE_MIN),
    (8, experiments, "build_critical_example", scaled_dense(2.0), "dense_max=6.510",
     frozen.MODULUS_RATIO_POWER_MAX),
    (6, experiments, "build_critical_example", scaled_dense(0.5), "max_dev=1.02e+03",
     frozen.ROUNDOFF_MAX),
    (6, experiments, "build_critical_example", scaled_dense(2.0), "max_dev=1.05e+06",
     frozen.ROUNDOFF_MAX),
    (11, acceptance, "family_smoothed_indicator", divergent_smoothed_indicator, "final_max=0.3486",
     frozen.FINAL_GAP_MAX),
]
IDS = ["1-one-character-conjugated", "2-dirichlet-one-order-off", "3-catalogue-bounds-doubled",
       "4-unconjugated-analysis", "5-fejer-law-one-order-up",
       "9-dense-decaying", "8-dense-growing", "6-dense-decaying", "6-dense-growing",
       "11-divergent-smooth-fixture"]


def undetected(reason):
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason)


# Wrong inputs that pass their criterion today: strict xfails that name the
# ROADMAP item meant to catch them and the statistic they read.
UNDETECTED = [
    pytest.param(
        3, kernels, "fejer_kernel", fejer_kernel_one_order_down, "worst_margin=",
        frozen.FEJER_BOUND_MARGIN_MIN,
        marks=undetected("ROADMAP item 10: K_{n-1} clears every catalogued lower bound "
                         "(worst_margin=2.004, unmutated 1.000, gate >= -1e-9)"),
    ),
    pytest.param(
        10, counterexamples, "fejer_kernel", kernels.dirichlet_kernel, "min_ratio=",
        frozen.KERNEL_SCAN_RATIO_MIN,
        marks=undetected("ROADMAP item 10: the scan on D_n in place of K_n reads "
                         "min_ratio=3.100 (unmutated 1.451, gate >= 0.3); a floor "
                         "cannot fail a kernel that grows faster"),
    ),
    pytest.param(
        8, experiments, "build_critical_example", weighted_dense(lambda i: i + 1), "dense_max=",
        frozen.MODULUS_RATIO_POWER_MAX,
        marks=undetected("ROADMAP item 13: the dense family M[i]*(i+1) reads "
                         "dense_max=2.526 (gate <= 4)"),
    ),
    pytest.param(
        9, experiments, "build_critical_example", weighted_dense(lambda i: 1 / (i + 1)), "dense_min=",
        frozen.WEAK_DIVERGENCE_MIN,
        marks=undetected("ROADMAP item 13: the dense family M[i]/(i+1) reads "
                         "dense_min=0.503 (gate >= 0.5)"),
    ),
    pytest.param(
        12, experiments, "_weights", weights_over_root, "cv=", None,
        marks=undetected("ROADMAP item 4: with the weights divided by sqrt(n+1) the "
                         "maxima read max=1.0346 at p=1/4 and 0.8692 at p=1/2 (unmutated "
                         "0.3910 and 0.3285), but the critical atom attains every seed's "
                         "maximum, so cv=0.0000% passes"),
    ),
]
UNDETECTED_IDS = ["3-fejer-kernel-one-order-down", "10-dirichlet-kernel-scan", "8-dense-times-level",
                  "9-dense-over-level", "12-weights-over-root"]


@pytest.fixture(scope="module")
def shipped():
    return functools.cache(acceptance._shipped_records)


@pytest.mark.parametrize("number", sorted({row[0] for row in MUTANTS}))
def test_unmutated_criterion_passes(shipped, number):
    result = acceptance.CRITERIA[number - 1](shipped)
    assert result.passed, result.line()


@pytest.mark.parametrize("number, module, name, mutant, detail, gate", MUTANTS + UNDETECTED,
                         ids=IDS + UNDETECTED_IDS)
def test_mutant_fails_its_criterion(monkeypatch, number, module, name, mutant, detail, gate):
    monkeypatch.setattr(module, name, mutant)
    result = acceptance.CRITERIA[number - 1](functools.cache(acceptance._shipped_records))
    assert not result.passed and detail in result.detail, result.line()
    if gate is not None:
        # the named statistic itself is past its gate, not a sibling in the same criterion
        statistic = detail.split("=")[0]
        value = float(re.search(rf"\b{statistic}=([^\s;)]+)", result.detail)[1])
        assert not gate.passes(value), result.line()


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 5: at p = 1/4 the scale sweep passes the divergent dense family "
    "(final gap 0.0491, gate 0.05); only p = 1/2 fails it",
)
def test_quarter_p_sweep_fails_the_divergent_family():
    spec = divergent_smoothed_indicator(VilenkinStructure.from_pattern((2,), 10))
    final, backslide = scale_sweep_gates(scale_sweep(spec, 0.25))
    assert not (frozen.FINAL_GAP_MAX.passes(final) and frozen.BACKSLIDE_FACTOR_MAX.passes(backslide))
