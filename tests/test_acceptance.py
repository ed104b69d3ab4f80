"""Gate suite: every check the package must pass, one test per criterion.

The installed command-line interface runs the suite once per module
(``vilenkin-lab check`` in a subprocess); each criterion test asserts its
own PASS line and time limit from that run's output, visible with
``pytest -s`` or on failure.  The last criterion test also checks the
command's exit code and elapsed time and reruns a shipped config for
byte-identical output, and the next pins the output ``check`` prints.  The
tests after it pin the frozen gates the criteria and the experiment runners
share: each fails just past its bound, no comparison in ``src/`` reads a
bound outside its gate, and every gate is read by the package.  The last
ones show that criteria 6 to 10 and 12 read one run of each shipped config
and fail on a record past its bound, that a criterion past its time gate
fails and names it, that each runner fails each gate it reads, and that one
pass of the suite holds at most one full-size matrix.
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
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

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


def _run(number, check_run, time_gate=None):
    _, _, lines = check_run
    assert number in lines, check_run[0].stdout + check_run[0].stderr
    line, status, seconds = lines[number]
    print(line)
    assert status == "PASS", line
    assert time_gate is None or time_gate.passes(seconds), line


def test_criterion_01_orthonormality_and_parseval(check_run):
    _run(1, check_run, frozen.CRITERION_1_SECONDS_MAX)


def test_criterion_02_dirichlet_closed_form(check_run):
    _run(2, check_run)


def test_criterion_03_fejer_kernel_lower_bounds(check_run):
    _run(3, check_run, frozen.CRITERION_3_SECONDS_MAX)


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
    _run(9, check_run, frozen.CRITERION_9_SECONDS_MAX)


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


def test_check_prints_one_line_per_criterion_in_order_then_the_summary(check_run):
    # perfbench's gate-suite numbers its ops by echo order and rebinds each
    # criterion by its function name
    proc, _, _ = check_run
    *lines, summary = proc.stdout.splitlines()
    assert all(LINE.match(line) for line in lines), proc.stdout
    assert [int(LINE.match(line)[1]) for line in lines] == list(range(1, 13))
    assert re.fullmatch(r"12/12 criteria passed in [0-9.]+s", summary), summary
    assert [fn.__name__ for fn in acceptance.CRITERIA] == [f"criterion_{k}" for k in range(1, 13)]


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
        (frozen.FEJER_BOUND_MARGIN_MIN, -1e-9, _below(-1e-9)),
        (frozen.FEJER_BOUND_MARGIN_MIN, 0.0, math.nan),
        (frozen.ATOM_SUP_RATIO_MAX, 1.000000000001, _above(1.000000000001)),
        (frozen.ATOM_SUP_RATIO_MAX, 1.0, math.nan),
        (frozen.ATOM_RESIDUAL_MAX, 1e-12, _above(1e-12)),
        (frozen.ATOM_RESIDUAL_MAX, 0.0, math.nan),
        (frozen.CRITERION_1_SECONDS_MAX, _below(5.0), 5.0),
        (frozen.CRITERION_3_SECONDS_MAX, _below(30.0), 30.0),
        (frozen.CRITERION_9_SECONDS_MAX, _below(60.0), 60.0),
    ],
    ids=[
        "roundoff", "relative-roundoff", "modulus", "sparse-modulus", "weak-divergence",
        "sparse-divergence", "kernel-scan", "final-gap", "backslide", "ratio-cv",
        "ratio-cv-nan", "min-speedup", "fejer-bound-margin", "fejer-bound-margin-nan",
        "atom-sup-ratio", "atom-sup-ratio-nan", "atom-residual", "atom-residual-nan",
        "criterion-1-seconds", "criterion-3-seconds", "criterion-9-seconds",
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
# the records function they take; with p, the dense construction alone
SHIPPED_RUNS = (
    ("counterexample_2a",), ("counterexample_2a", 1 / 3), ("counterexample_2b",),
    ("kernel_scan",), ("maximal_bound",),
)


@pytest.fixture(scope="module")
def shipped_records():
    return {key: acceptance._shipped_records(*key) for key in SHIPPED_RUNS}


@pytest.fixture(scope="module")
def counted_run_all():
    """One ``run_all`` under tracemalloc: its results, the (experiment,
    p_values) of each ``run_experiment`` and the p of each dense example it
    builds, and its traced peak in bytes."""
    runs, built = [], []
    run, build = acceptance.run_experiment, experiments.build_critical_example

    def counted(cfg):
        runs.append((cfg.experiment, cfg.p_values))
        return run(cfg)

    def counted_build(p, depth, vs):
        built.append(p)
        return build(p, depth, vs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(acceptance, "run_experiment", counted)
        patch.setattr(experiments, "build_critical_example", counted_build)
        tracemalloc.start()
        try:
            results = acceptance.run_all()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return results, runs, built, peak


def test_one_run_experiment_per_shipped_run(counted_run_all):
    results, runs, built, _ = counted_run_all
    assert all(r.passed for r in results)
    assert sorted(runs) == [
        ("counterexample-2a", (0.25,)), ("counterexample-2b", (0.5,)), ("kernel-scan", (0.5,)),
        ("maximal-bound", (0.25, 0.5)),
    ]
    # the p = 1/3 dense example is built for its construction record alone
    assert sorted(built) == [0.25, 1 / 3]


def test_run_all_holds_at_most_one_gram_matrix(counted_run_all):
    # criterion 1's conjugated characters on Walsh 2^10 are the one
    # M[N] x M[N] array of the suite; a second full-size matrix in any
    # criterion breaks the bound
    results, _, _, peak = counted_run_all
    assert all(r.passed for r in results)
    assert peak <= 1.3 * 16 * 1024**2


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


@pytest.mark.parametrize("number", [1, 3, 9])
def test_criterion_past_its_time_gate_fails_and_names_it(monkeypatch, shipped_records, number):
    # the criterion timed by a clock that reads its gate's bound, or just
    # below it, at the end: only the first fails, and only it adds its seconds
    gate = getattr(frozen, f"CRITERION_{number}_SECONDS_MAX")

    def timed(seconds):
        clock = iter((0.0, seconds))
        monkeypatch.setattr(acceptance, "time", SimpleNamespace(perf_counter=lambda: next(clock)))
        return acceptance.CRITERIA[number - 1](lambda *k: shipped_records[k])

    inside, outside = timed(_below(gate.bound)), timed(gate.bound)
    assert inside.passed and "seconds=" not in inside.detail
    assert not outside.passed
    assert outside.detail == f"{inside.detail} seconds={gate.bound:.2f} (gate {gate.bound:g})"


# each shipped config, a frozen gate its runner reads, and the statistic
# the runner's message names when that gate fails
RUNNER_GATES = [
    ("gram_mixed", "ROUNDOFF_MAX", "gram_max_err"),
    ("gram_mixed", "RELATIVE_ROUNDOFF_MAX", "parseval_worst_rel"),
    ("kernels_walsh", "ROUNDOFF_MAX", "max_err"),
    ("kernels_walsh", "FEJER_BOUND_MARGIN_MIN", "worst_margin"),
    ("convergence_walsh", "FINAL_GAP_MAX", "final_gap_rel"),
    ("convergence_walsh", "BACKSLIDE_FACTOR_MAX", "backslide"),
    ("counterexample_2a", "ROUNDOFF_MAX", "law_err"),
    ("counterexample_2a", "ATOM_SUP_RATIO_MAX", "atoms_ok"),
    ("counterexample_2a", "ATOM_RESIDUAL_MAX", "atoms_ok"),
    ("counterexample_2a", "MODULUS_RATIO_POWER_MAX", "ratio_power"),
    ("counterexample_2a", "WEAK_DIVERGENCE_MIN", "weak_power"),
    ("counterexample_2b", "ROUNDOFF_MAX", "law_err"),
    ("counterexample_2b", "ATOM_SUP_RATIO_MAX", "atoms_ok"),
    ("counterexample_2b", "ATOM_RESIDUAL_MAX", "atoms_ok"),
    ("counterexample_2b", "SPARSE_MODULUS_RATIO_POWER_MAX", "ratio_power"),
    ("counterexample_2b", "SPARSE_DIVERGENCE_MIN", "halfnorm_gap"),
    ("kernel_scan", "KERNEL_SCAN_RATIO_MIN", "ratio"),
    ("maximal_bound", "MAX_RATIO_CV_MAX", "cv"),
]


@pytest.mark.parametrize("config, gate, statistic", RUNNER_GATES,
                         ids=[f"{config}-{gate}" for config, gate, _ in RUNNER_GATES])
def test_runner_fails_each_gate_it_reads(monkeypatch, config, gate, statistic):
    # the gate's comparison negated, so the shipped value, which passes it,
    # fails it; no bound moves
    held = getattr(frozen, gate)
    monkeypatch.setattr(frozen, gate, frozen.Gate(held.bound, lambda v, bound: not held.holds(v, bound)))
    result = experiments.run_experiment(experiments.load_config(CONFIG_DIR / f"{config}.json"))
    assert result.exit_code == 2
    assert any(f"{statistic}=" in message for message in result.messages), result.messages
    assert all(r.values["passed"] == 0.0 for r in result.records if "passed" in r.values)


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
