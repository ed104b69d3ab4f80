"""Gate suite: every check the package must pass, one test per criterion.

Each test prints the standard one-line PASS/FAIL summary produced by the
criterion runner (visible with ``pytest -s`` or on failure).  The last
criterion test drives the installed command-line interface end to end.
The tests after it pin the gate predicates the criteria and the experiment
runners share: each can fail, and each frozen bound has one of them.
"""

import ast
import math
import subprocess
import sys
import time
from pathlib import Path

import pytest

from vilenkin_lab import acceptance, experiments, frozen

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SRC_DIR = Path(__file__).resolve().parent.parent / "src" / "vilenkin_lab"


@pytest.fixture(scope="module")
def workspace():
    return acceptance.Workspace()


def _run(criterion, workspace, **kwargs):
    result = criterion(workspace, **kwargs)
    print(result.line())
    assert result.passed, result.line()
    return result


def test_criterion_01_orthonormality_and_parseval(workspace):
    result = _run(acceptance.criterion_1, workspace)
    assert result.seconds < 5.0


def test_criterion_02_dirichlet_closed_form(workspace):
    _run(acceptance.criterion_2, workspace)


def test_criterion_03_fejer_kernel_lower_bounds(workspace):
    result = _run(acceptance.criterion_3, workspace)
    assert result.seconds < 30.0


def test_criterion_04_fast_transform_vs_direct(workspace):
    _run(acceptance.criterion_4, workspace)


def test_criterion_05_fejer_coefficient_algebra(workspace):
    _run(acceptance.criterion_5, workspace)


def test_criterion_06_coefficient_laws_exact(workspace):
    _run(acceptance.criterion_6, workspace)


def test_criterion_07_atom_certificates(workspace):
    _run(acceptance.criterion_7, workspace)


def test_criterion_08_modulus_decay_gates(workspace):
    _run(acceptance.criterion_8, workspace)


def test_criterion_09_divergence_gates(workspace):
    result = _run(acceptance.criterion_9, workspace)
    assert result.seconds < 60.0


def test_criterion_10_kernel_growth_scan(workspace):
    _run(acceptance.criterion_10, workspace)


def test_criterion_11_fejer_convergence_surrogate(workspace):
    _run(acceptance.criterion_11, workspace)


def test_criterion_12_weighted_ratio_stability(workspace):
    _run(acceptance.criterion_12, workspace)


def test_criterion_13_cli_determinism_and_check(tmp_path):
    # byte-identical reruns of a shipped config
    config = CONFIG_DIR / "counterexample_2a.json"
    outs = []
    for name in ("first.csv", "second.csv"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "vilenkin_lab.cli", "run", str(config),
             "--out", str(out)],
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]

    # the full gate suite exits 0 in under five minutes
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "vilenkin_lab.cli", "check"],
        capture_output=True, text=True, timeout=330,
    )
    elapsed = time.perf_counter() - start
    print(proc.stdout)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert elapsed < 300.0
    line = f"[13] PASS cli-determinism-and-check ({elapsed:.2f}s) byte-identical reruns, check exit 0"
    print(line)


def _below(x):
    return math.nextafter(x, -math.inf)


def _above(x):
    return math.nextafter(x, math.inf)


@pytest.mark.parametrize(
    "gate, inside, outside",
    [
        (experiments.roundoff_ok, _below(frozen.ROUNDOFF_MAX), frozen.ROUNDOFF_MAX),
        (experiments.relative_roundoff_ok,
         _below(frozen.RELATIVE_ROUNDOFF_MAX), frozen.RELATIVE_ROUNDOFF_MAX),
        (experiments.modulus_ok,
         frozen.MODULUS_RATIO_POWER_MAX, _above(frozen.MODULUS_RATIO_POWER_MAX)),
        (experiments.sparse_modulus_ok,
         frozen.SPARSE_MODULUS_RATIO_POWER_MAX, _above(frozen.SPARSE_MODULUS_RATIO_POWER_MAX)),
        (experiments.weak_divergence_ok,
         frozen.WEAK_DIVERGENCE_MIN, _below(frozen.WEAK_DIVERGENCE_MIN)),
        (experiments.sparse_divergence_ok,
         frozen.SPARSE_DIVERGENCE_MIN, _below(frozen.SPARSE_DIVERGENCE_MIN)),
        (experiments.kernel_scan_ok,
         frozen.KERNEL_SCAN_RATIO_MIN, _below(frozen.KERNEL_SCAN_RATIO_MIN)),
        (lambda final: experiments.scale_sweep_ok(final, 1.0),
         frozen.FINAL_GAP_MAX, _above(frozen.FINAL_GAP_MAX)),
        (lambda backslide: experiments.scale_sweep_ok(0.0, backslide),
         frozen.BACKSLIDE_FACTOR_MAX, _above(frozen.BACKSLIDE_FACTOR_MAX)),
        (experiments.ratio_cv_ok, _below(frozen.MAX_RATIO_CV_MAX), frozen.MAX_RATIO_CV_MAX),
        (experiments.ratio_cv_ok, 0.0, math.nan),
    ],
    ids=[
        "roundoff", "relative-roundoff", "modulus", "sparse-modulus", "weak-divergence",
        "sparse-divergence", "kernel-scan", "final-gap", "backslide", "ratio-cv",
        "ratio-cv-nan",
    ],
)
def test_gate_predicate_boundary(gate, inside, outside):
    assert gate(inside)
    assert not gate(outside)


class _BoundComparisons(ast.NodeVisitor):
    """Record, for each frozen bound, the innermost functions that compare it."""

    def __init__(self, bounds: set[str]) -> None:
        self.where: dict[str, set[str]] = {name: set() for name in bounds}
        self.scope = "<module>"

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        outer, self.scope = self.scope, f"{self.scope}.{node.name}"
        self.generic_visit(node)
        self.scope = outer

    def visit_Compare(self, node: ast.Compare) -> None:
        for sub in ast.walk(node):
            name = sub.attr if isinstance(sub, ast.Attribute) else getattr(sub, "id", None)
            if name in self.where:
                self.where[name].add(self.scope)
        self.generic_visit(node)


def test_each_frozen_bound_is_compared_in_one_function():
    tree = ast.parse((SRC_DIR / "frozen.py").read_text(encoding="utf-8"))
    bounds = {t.id for node in tree.body if isinstance(node, ast.Assign) for t in node.targets}
    bounds.discard("MIN_SPEEDUP")  # also the CLI default; the check reads it from Workspace
    found = _BoundComparisons(bounds)
    for path in sorted(SRC_DIR.glob("*.py")):
        found.scope = path.stem
        found.visit(ast.parse(path.read_text(encoding="utf-8")))
    assert {name: len(fns) for name, fns in found.where.items()} == dict.fromkeys(bounds, 1), (
        found.where
    )
