"""Gate suite: every check the package must pass, one test per criterion.

The installed command-line interface runs the suite once per module
(``vilenkin-lab check`` in a subprocess); each criterion test asserts its
own PASS line and time limit from that run's output, visible with
``pytest -s`` or on failure.  The last criterion test also checks the
command's exit code and elapsed time and reruns a shipped config for
byte-identical output.  The tests after it pin the frozen gates the
criteria and the experiment runners share: each fails just past its bound,
no comparison in ``src/`` reads a bound outside its gate, and every gate is
read by the package.  The last ones show that criteria 6 to 10 and 12
read one run of each shipped config and fail on a record past its bound.
"""

import ast
import copy
import itertools
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import vilenkin_lab
from vilenkin_lab import acceptance, experiments, frozen
from vilenkin_lab.rng import XorShift64Star

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SRC_DIR = Path(__file__).resolve().parent.parent / "src" / "vilenkin_lab"
LINE = re.compile(r"\[\s*(\d+)\] (PASS|FAIL) \S+ \(([0-9.]+)s\)")


def _cli(*args, timeout):
    # the CLI subprocesses import the package this test imported
    package_parent = str(Path(vilenkin_lab.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_parent, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "vilenkin_lab.cli", *args],
        capture_output=True, text=True, timeout=timeout, env=env,
    )


@pytest.fixture(scope="module")
def check_run():
    """One ``vilenkin-lab check``: the process, its wall time, and the
    printed (line, status, seconds) of each criterion by number."""
    start = time.perf_counter()
    proc = _cli("check", timeout=330)
    elapsed = time.perf_counter() - start
    print(proc.stdout)
    lines = {}
    for line in proc.stdout.splitlines():
        m = LINE.match(line)
        if m:
            lines[int(m[1])] = (line, m[2], float(m[3]))
    return proc, elapsed, lines


def _run(number, check_run, time_limit=math.inf):
    _, _, lines = check_run
    assert number in lines, check_run[0].stdout + check_run[0].stderr
    line, status, seconds = lines[number]
    print(line)
    assert status == "PASS", line
    assert seconds < time_limit, line


def test_criterion_01_orthonormality_and_parseval(check_run):
    _run(1, check_run, time_limit=5.0)


def test_criterion_02_dirichlet_closed_form(check_run):
    _run(2, check_run)


def test_criterion_03_fejer_kernel_lower_bounds(check_run):
    _run(3, check_run, time_limit=30.0)


def test_criterion_04_fast_transform_vs_direct(check_run):
    _run(4, check_run)


def test_criterion_05_fejer_coefficient_algebra(check_run):
    _run(5, check_run)


def test_criterion_06_coefficient_laws_exact(check_run):
    _run(6, check_run)


def test_criterion_07_atom_certificates(check_run):
    _run(7, check_run)


def test_criterion_08_modulus_decay_gates(check_run):
    _run(8, check_run)


def test_criterion_09_divergence_gates(check_run):
    _run(9, check_run, time_limit=60.0)


def test_criterion_10_kernel_growth_scan(check_run):
    _run(10, check_run)


def test_criterion_11_fejer_convergence_surrogate(check_run):
    _run(11, check_run)


def test_criterion_12_weighted_ratio_stability(check_run):
    _run(12, check_run)


def test_criterion_13_cli_determinism_and_check(check_run, tmp_path):
    # byte-identical reruns of a shipped config
    config = CONFIG_DIR / "counterexample_2a.json"
    outs = []
    for name in ("first.csv", "second.csv"):
        out = tmp_path / name
        proc = _cli("run", str(config), "--out", str(out), timeout=300)
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]

    # the full gate suite exits 0 in under five minutes, every criterion reported
    proc, elapsed, lines = check_run
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert elapsed < 300.0
    assert sorted(lines) == list(range(1, 13)), proc.stdout
    line = f"[13] PASS cli-determinism-and-check ({elapsed:.2f}s) byte-identical reruns, check exit 0"
    print(line)


def _below(x):
    return math.nextafter(x, -math.inf)


def _above(x):
    return math.nextafter(x, math.inf)


@pytest.mark.parametrize(
    "gate, inside, outside",
    [
        (frozen.ROUNDOFF_MAX, _below(1e-12), 1e-12),
        (frozen.RELATIVE_ROUNDOFF_MAX, _below(1e-10), 1e-10),
        (frozen.MODULUS_RATIO_POWER_MAX, 4.0, _above(4.0)),
        (frozen.SPARSE_MODULUS_RATIO_POWER_MAX, 8.0, _above(8.0)),
        (frozen.WEAK_DIVERGENCE_MIN, 0.5, _below(0.5)),
        (frozen.SPARSE_DIVERGENCE_MIN, 0.05, _below(0.05)),
        (frozen.KERNEL_SCAN_RATIO_MIN, 0.3, _below(0.3)),
        (frozen.FINAL_GAP_MAX, 0.05, _above(0.05)),
        (frozen.BACKSLIDE_FACTOR_MAX, 2.0, _above(2.0)),
        (frozen.MAX_RATIO_CV_MAX, _below(0.10), 0.10),
        (frozen.MAX_RATIO_CV_MAX, 0.0, math.nan),
        (frozen.MIN_SPEEDUP, 20.0, _below(20.0)),
    ],
    ids=[
        "roundoff", "relative-roundoff", "modulus", "sparse-modulus", "weak-divergence",
        "sparse-divergence", "kernel-scan", "final-gap", "backslide", "ratio-cv",
        "ratio-cv-nan", "min-speedup",
    ],
)
def test_gate_predicate_boundary(gate, inside, outside):
    assert gate.passes(inside)
    assert not gate.passes(outside)


GATES = {name for name, value in vars(frozen).items() if isinstance(value, frozen.Gate)}


def _src_trees():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC_DIR.glob("*.py"))}


def test_no_comparison_in_src_reads_a_gate():
    # Gate.passes is the one comparison with each bound
    found = []
    for module, tree in _src_trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare):
                for sub in ast.walk(node):
                    name = sub.attr if isinstance(sub, ast.Attribute) else getattr(sub, "id", None)
                    if name in GATES or name == "bound":
                        found.append(f"{module}:{node.lineno}: {ast.unparse(node)}")
    assert not found, found


def test_every_gate_is_read_outside_frozen():
    trees = _src_trees()
    frozen_tree = trees.pop("frozen")
    # every name frozen.py assigns is a Gate built there, so no bound has a second name
    assigned = {t.id: node.value for node in frozen_tree.body if isinstance(node, ast.Assign)
                for t in node.targets}
    assert assigned.keys() == GATES
    assert all(isinstance(v, ast.Call) and v.func.id == "Gate" for v in assigned.values())
    read = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "frozen"
    }
    assert GATES <= read, GATES - read


def test_readme_gate_table_matches_frozen():
    # README's "What each gate can detect" table: each name in its bound
    # column is a Gate, each value written next to a name is that bound,
    # and every Gate has a row
    lines = (SRC_DIR.parent.parent / "README.md").read_text(encoding="utf-8").splitlines()
    (head,) = [i for i, line in enumerate(lines) if "Frozen bound (`frozen.py`)" in line]
    column = [c.strip() for c in lines[head].split("|")].index("Frozen bound (`frozen.py`)")
    named = set()
    for row in itertools.takewhile(lambda line: line.startswith("|"), lines[head + 2 :]):
        cell = row.split("|")[column]
        names = re.findall(r"`([^`]+)`", cell)
        assert set(names) <= GATES, row
        named.update(names)
        for name, value in re.findall(r"`([^`]+)` ([0-9][0-9.e+-]*%?)", cell):
            bound = float(value[:-1]) / 100 if value.endswith("%") else float(value)
            assert bound == getattr(frozen, name).bound, row
    assert named == GATES


# criterion 12's sample family: the maximal_bound config's seeds, random
# spectra, critical atom and damped critical spectrum
MAXIMAL_BOUND = experiments.load_config(CONFIG_DIR / "maximal_bound.json")
MAXIMAL_BOUND_VS = experiments.build_structure(MAXIMAL_BOUND)
CRITERION_12_FAMILY = dict(
    first_seed=MAXIMAL_BOUND.seed,
    seeds=MAXIMAL_BOUND.parameters["seeds"],
    randoms=MAXIMAL_BOUND.parameters["random_functions"],
    atom_scale=MAXIMAL_BOUND.parameters["atom_scale"],
    damping=MAXIMAL_BOUND.parameters["damping"],
    n_max=MAXIMAL_BOUND_VS.size,
)


def test_seed_maxima_for_two_p_equal_two_single_p_calls():
    vs = MAXIMAL_BOUND_VS
    both = experiments.seed_maxima(vs, (0.25, 0.5), **CRITERION_12_FAMILY)
    assert both == [experiments.seed_maxima(vs, (p,), **CRITERION_12_FAMILY)[0] for p in (0.25, 0.5)]


def test_seed_maxima_sweeps_each_spectrum_once_per_call(monkeypatch):
    # 30 random spectra and the damped one for both p, the atom once per p;
    # a second call sweeps as much again, so nothing is kept between calls
    sweeps = []
    blocks = experiments.fejer_mean_blocks

    def counted(s, n_max):
        sweeps.append(n_max)
        return blocks(s, n_max)

    monkeypatch.setattr(experiments, "fejer_mean_blocks", counted)
    for _ in range(2):
        sweeps.clear()
        experiments.seed_maxima(MAXIMAL_BOUND_VS, (0.25, 0.5), **CRITERION_12_FAMILY)
        assert len(sweeps) == 33


# the (config, p) runs criteria 6 to 10 and 12 read, as the arguments of
# the records function they take
SHIPPED_RUNS = (
    ("counterexample_2a",), ("counterexample_2a", 1 / 3), ("counterexample_2b",),
    ("kernel_scan",), ("maximal_bound",),
)


@pytest.fixture(scope="module")
def shipped_records():
    return {key: acceptance._shipped_records(*key) for key in SHIPPED_RUNS}


def test_one_run_experiment_per_shipped_run(monkeypatch):
    runs = []
    run = acceptance.run_experiment

    def counted(cfg):
        runs.append((cfg.experiment, cfg.p_values))
        return run(cfg)

    monkeypatch.setattr(acceptance, "run_experiment", counted)
    assert all(r.passed for r in acceptance.run_all())
    assert sorted(runs) == [
        ("counterexample-2a", (0.25,)), ("counterexample-2a", (1 / 3,)),
        ("counterexample-2b", (0.5,)), ("kernel-scan", (0.5,)), ("maximal-bound", (0.25, 0.5)),
    ]


@pytest.mark.parametrize(
    "number, key, column, value",
    [
        (6, ("counterexample_2b",), "law_err", frozen.ROUNDOFF_MAX.bound),
        (7, ("counterexample_2a", 1 / 3), "atoms_ok", 0.0),
        (8, ("counterexample_2a",), "ratio_power", _above(frozen.MODULUS_RATIO_POWER_MAX.bound)),
        (8, ("counterexample_2b",), "ratio_power", _above(frozen.SPARSE_MODULUS_RATIO_POWER_MAX.bound)),
        (9, ("counterexample_2a",), "weak_power", _below(frozen.WEAK_DIVERGENCE_MIN.bound)),
        (9, ("counterexample_2b",), "halfnorm_gap", _below(frozen.SPARSE_DIVERGENCE_MIN.bound)),
        (10, ("kernel_scan",), "ratio", _below(frozen.KERNEL_SCAN_RATIO_MIN.bound)),
        (12, ("maximal_bound",), "cv", frozen.MAX_RATIO_CV_MAX.bound),
    ],
    ids=["6-law", "7-atoms", "8-dense", "8-sparse", "9-dense", "9-sparse", "10-scan", "12-cv"],
)
def test_record_past_its_bound_fails_its_criterion(shipped_records, number, key, column, value):
    criterion = acceptance.CRITERIA[number - 1]
    assert criterion(lambda *k: shipped_records[k]).passed

    records = copy.deepcopy(shipped_records)
    gated = [r for r in records[key] if column in r.values]
    gated[-1].values[column] = value
    assert not criterion(lambda *k: records[k]).passed


def test_random_spectra_alone_spread_past_the_cv_gate(shipped_records):
    # The critical atom attains every seed's maximum, so the recorded cv
    # is round-off and criterion 12 cannot fail on it (ROADMAP item 4); the
    # random spectra alone spread past the gate.
    family = CRITERION_12_FAMILY
    vs, ps = MAXIMAL_BOUND_VS, MAXIMAL_BOUND.p_values
    per_seed = []  # per seed, one ratio tuple (over ps) per random spectrum
    for s in range(family["seeds"]):
        rng = XorShift64Star(family["first_seed"] + s)
        spectra = [experiments.family_character_polynomial(vs, vs.N, rng) for _ in range(family["randoms"])]
        per_seed.append([experiments.max_weighted_ratio(spec, ps, family["n_max"]) for spec in spectra])
    records = shipped_records[("maximal_bound",)]
    for i, p in enumerate(ps):
        maxima = [r.values["max_ratio"] for r in records if r.index["p"] == p and "max_ratio" in r.values]
        assert len(maxima) == family["seeds"] and len(set(maxima)) == 1
        random_maxima = [max(ratios[i] for ratios in spectra) for spectra in per_seed]
        assert experiments.ratio_cv(random_maxima) > frozen.MAX_RATIO_CV_MAX.bound
    recorded = [r.values["cv"] for r in records if "cv" in r.values]
    assert len(recorded) == 2 and all(frozen.RELATIVE_ROUNDOFF_MAX.passes(cv) for cv in recorded)
