"""The batched loops of ``experiments`` against the per-item loops in
``group_oracles``, byte for byte.

``parseval_worst_rel`` draws all its functions in one sampler call, and
``max_weighted_ratio`` divides a whole block of roots by a table of weights
and re-roots only the rows near the block's largest with the scalar power.
Each must return exactly what its per-item loop returns and leave the
generator in the same state.
"""

from pathlib import Path

import numpy as np
import pytest

from vilenkin_lab import experiments, transform
from vilenkin_lab.counterexamples import critical_atom
from vilenkin_lab.rng import XorShift64Star
from vilenkin_lab.structure import VilenkinStructure
from vilenkin_lab.transform import analyze

from group_oracles import per_function_parseval, scalar_weighted_ratio

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
MAXIMAL_BOUND = experiments.load_config(CONFIG_DIR / "maximal_bound.json")
VS = experiments.build_structure(MAXIMAL_BOUND)
PS = tuple(MAXIMAL_BOUND.p_values)


@pytest.mark.parametrize("gens", [(2, 3, 2, 3), (2,) * 10])
@pytest.mark.parametrize("count", [7, 100])
def test_parseval_worst_rel_is_the_per_function_loop(gens, count):
    vs = VilenkinStructure.from_m(gens)
    batched, looped = XorShift64Star(11), XorShift64Star(11)
    got = experiments.parseval_worst_rel(vs, batched, count)
    assert got == per_function_parseval(vs, looped, count) > 0
    assert batched._state == looped._state


def criterion_12_family():
    """The spectra criterion 12's maximal_bound run sweeps, by name."""
    params = MAXIMAL_BOUND.parameters
    family = {f"atom p={p}": analyze(critical_atom(params["atom_scale"], p, VS)) for p in PS}
    family["damped"] = experiments.family_damped_critical(VS, VS.N - 1, params["damping"])
    for s in range(params["seeds"]):
        rng = XorShift64Star(MAXIMAL_BOUND.seed + s)
        for r in range(params["random_functions"]):
            family[f"seed {s} random {r}"] = experiments.family_character_polynomial(VS, VS.N, rng)
    return family


FAMILY = criterion_12_family()


@pytest.mark.parametrize("name", list(FAMILY))
def test_max_weighted_ratio_is_the_scalar_loop(name):
    s = FAMILY[name]
    for n_max in (VS.size, VS.size - 3, 1):
        assert experiments.max_weighted_ratio(s, PS, n_max) == scalar_weighted_ratio(s, PS, n_max)


def replace_rows(monkeypatch, rows):
    """Make experiments.fejer_mean_blocks yield ``rows[n]`` as the n-th mean."""
    blocks = experiments.fejer_mean_blocks

    def replaced(s, n_max):
        for first, block in blocks(s, n_max):
            for n, value in rows.items():
                if first <= n < first + len(block):
                    block[n - first] = value
            yield first, block

    monkeypatch.setattr(experiments, "fejer_mean_blocks", replaced)


BLOCK_ROWS = max(transform._BLOCK // VS.size, 1)


@pytest.mark.parametrize("rows, kind", [
    # a NaN row in each block, away from the largest ratio
    ({2: np.nan, BLOCK_ROWS + 2: complex(np.nan, 1.0)}, "clean"),
    # a whole block of NaN rows
    ({n: np.nan for n in range(1, BLOCK_ROWS + 1)}, "finite"),
    # an infinite row, and one beside a NaN row
    ({5: np.inf}, "inf"),
    ({5: np.inf, 6: np.nan}, "inf"),
])
def test_non_finite_rows_leave_best_as_the_scalar_loop_does(monkeypatch, rows, kind):
    assert VS.size > BLOCK_ROWS
    s = FAMILY["seed 0 random 0"]
    clean = scalar_weighted_ratio(s, PS, VS.size)
    replace_rows(monkeypatch, rows)
    want = scalar_weighted_ratio(s, PS, VS.size)
    assert experiments.max_weighted_ratio(s, PS, VS.size) == want
    # max() skips a NaN ratio and takes an infinite one
    if kind == "clean":
        assert want == clean
    elif kind == "finite":
        assert all(0 < r < np.inf for r in want)
    else:
        assert want == (np.inf,) * len(PS)
