import argparse
import ast
import hashlib
import json
import math
from pathlib import Path

import pytest

from vilenkin_lab import acceptance, cli
from vilenkin_lab.acceptance import CriterionResult
from vilenkin_lab.cli import main
from vilenkin_lab.experiments import (
    build_structure,
    family_smoothed_indicator,
    load_config,
    run_experiment,
)
from vilenkin_lab.errors import CapacityError
from vilenkin_lab.reporting import write_records
from vilenkin_lab.serialize import load_function
from vilenkin_lab.structure import VilenkinStructure
from vilenkin_lab.transform import Spectrum

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SRC_DIR = Path(__file__).resolve().parent.parent / "src" / "vilenkin_lab"


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def small_2a_config(tmp_path, **overrides):
    payload = {
        "experiment": "counterexample-2a",
        "structure": {"pattern": [2], "repeat_to": 8},
        "resolution": 8,
        "p_values": [0.25],
        "parameters": {
            "p": 0.25, "depth": 6,
            "modulus_lo": 1, "modulus_hi": 3,
            "divergence_lo": 3, "divergence_hi": 4,
        },
        "seed": 3,
    }
    payload.update(overrides)
    return write_config(tmp_path, "cfg.json", payload)


class TestConfigLoading:
    def test_explicit_and_pattern_structures(self):
        cfg = load_config({"experiment": "gram", "structure": {"m": [2, 3]},
                           "seed": 1})
        assert build_structure(cfg).m == (2, 3)
        cfg = load_config({"experiment": "gram",
                           "structure": {"pattern": [2, 3], "repeat_to": 5}})
        assert build_structure(cfg).m == (2, 3, 2, 3, 2)

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError):
            load_config({"experiment": "nope", "structure": {"m": [2]}})

    def test_bad_p_values_rejected(self):
        with pytest.raises(ValueError):
            load_config({"experiment": "gram", "structure": {"m": [2]},
                         "p_values": [1.5]})

    def test_cell_cap_enforced(self):
        cfg = load_config({"experiment": "gram",
                           "structure": {"pattern": [2], "repeat_to": 12}})
        with pytest.raises(CapacityError):
            build_structure(cfg, cap=1024)

    def test_missing_structure_rejected(self):
        with pytest.raises(ValueError):
            load_config({"experiment": "gram"})
        with pytest.raises(ValueError):
            load_config({"experiment": "gram", "structure": {}})

    def test_resolution_mismatch_rejected(self):
        cfg = load_config({"experiment": "gram", "structure": {"m": [2, 2]},
                           "resolution": 3})
        with pytest.raises(ValueError):
            build_structure(cfg)
        cfg = load_config({"experiment": "gram",
                           "structure": {"pattern": [2], "repeat_to": 9},
                           "resolution": 12})
        with pytest.raises(ValueError):
            build_structure(cfg)

    def test_unknown_parameter_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="dept"):
            load_config({"experiment": "counterexample-2a",
                         "structure": {"pattern": [2], "repeat_to": 8},
                         "parameters": {"dept": 2}})
        cfg = small_2a_config(tmp_path, parameters={"p": 0.25, "dept": 2})
        out = tmp_path / "x.csv"
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "payload",
        [
            {"experiment": "convergence", "structure": {"pattern": [2], "repeat_to": 6},
             "parameters": {"family": "from-file"}},
            {"experiment": "convergence", "structure": {"pattern": [2], "repeat_to": 6},
             "parameters": {"family": "from-file", "function_path": "missing.json"}},
            {"experiment": "kernels", "structure": {"pattern": [2], "repeat_to": 6},
             "output": "x.csv"},
            {"experiment": "convergence", "structure": {"pattern": [2], "repeat_to": 6},
             "parameters": {"function_path": "missing.json"}},
            # an empty range, an empty catalogue or no seeds asks for nothing
            {"experiment": "counterexample-2a", "structure": {"pattern": [2], "repeat_to": 8},
             "parameters": {"depth": 6, "modulus_lo": 9, "modulus_hi": 8,
                            "divergence_lo": 9, "divergence_hi": 8}},
            # both ranges default to 1..min(8, depth - 2) and 3..min(8, depth - 2)
            {"experiment": "counterexample-2a", "structure": {"pattern": [2], "repeat_to": 5},
             "parameters": {"depth": 2}},
            {"experiment": "counterexample-2b", "structure": {"pattern": [2], "repeat_to": 6},
             "parameters": {"depth": 1, "modulus_lo": 17, "modulus_hi": 16}},
            {"experiment": "kernels", "structure": {"pattern": [2], "repeat_to": 6},
             "parameters": {"bound_level": 2}},
            {"experiment": "kernel-scan", "structure": {"pattern": [2], "repeat_to": 8},
             "parameters": {"level_lo": 5, "level_hi": 4}},
            {"experiment": "maximal-bound", "structure": {"pattern": [2], "repeat_to": 4},
             "parameters": {"seeds": 0}},
            {"experiment": "gram", "structure": {"pattern": [2], "repeat_to": 4},
             "parameters": {"functions": 0}},
            {"experiment": "convergence", "structure": {"pattern": [2], "repeat_to": 1}},
            # misspelt keys and malformed values
            {"experiment": "kernels", "structure": {"pattern": [2], "repeat_to": 6},
             "paramters": {"bound_level": 3}},
            {"experiment": "kernels", "structure": {"pattern": [2], "repeat_to": 6, "repeat_too": 11},
             "resolution": 6},
            {"experiment": "kernels", "structure": {"pattern": [2], "repeat_to": 6},
             "output": {"fromat": "json"}},
            {"experiment": "kernels", "structure": {"pattern": [2], "repeat_to": 6},
             "output": {"format": "xml"}},
            {"experiment": "convergence", "structure": {"pattern": [2], "repeat_to": 6},
             "p_values": 0.5},
            {"experiment": "gram", "structure": {"m": 5}},
            {"experiment": "convergence", "structure": {"pattern": [2], "repeat_to": 6},
             "parameters": {"family": "smoothed-indicator", "base_cell": 64}},
            {"experiment": "kernels", "structure": {"pattern": [2], "repeat_to": 6},
             "parameters": 5},
            {"experiment": "kernels", "structure": {"pattern": [2], "repeat_to": 6}, "seed": [1]},
            {"experiment": "kernels", "structure": {"pattern": [2], "repeat_to": 6},
             "resolution": "6"},
            {"experiment": "gram", "structure": {"m": [2, 3.5]}},
            {"experiment": "gram", "structure": {"m": [2, True, 3]}},
            {"experiment": "kernels", "structure": {"pattern": [2.0], "repeat_to": 6}},
            {"experiment": "kernels", "structure": {"pattern": [2], "repeat_to": 6.7}},
            {"experiment": "gram", "structure": {"pattern": [3], "repeat_to": True}},
            {"experiment": "kernels", "structure": {"pattern": [2], "repeat_to": 6}, "seed": True},
            {"experiment": "kernels", "structure": {"pattern": [2], "repeat_to": 6},
             "output": {"path": 5}},
            # parameters read as numbers take JSON numbers only, integers where
            # they count, never a bool
            {"experiment": "counterexample-2a", "structure": {"pattern": [2], "repeat_to": 12},
             "parameters": {"depth": 10.7}},
            {"experiment": "maximal-bound", "structure": {"pattern": [2], "repeat_to": 4},
             "parameters": {"seeds": 2.9, "random_functions": 1}},
            {"experiment": "maximal-bound", "structure": {"pattern": [2], "repeat_to": 4},
             "parameters": {"random_functions": 1.5}},
            {"experiment": "convergence", "structure": {"pattern": [2], "repeat_to": 6},
             "p_values": [True]},
            {"experiment": "counterexample-2a", "structure": {"pattern": [2], "repeat_to": 12},
             "parameters": {"p": "0.25"}},
            {"experiment": "convergence", "structure": {"pattern": [2], "repeat_to": 6},
             "parameters": {"family": "damped-critical", "damping": True}},
            {"experiment": "kernel-scan", "structure": {"pattern": [2], "repeat_to": 8},
             "parameters": {"level_lo": 2.0}},
            {"experiment": "gram", "structure": {"pattern": [2], "repeat_to": 4},
             "parameters": {"functions": True}},
            {"experiment": "counterexample-2a", "structure": {"pattern": [2], "repeat_to": 12},
             "parameters": {"depth": 10, "dump_function": 5}},
            # levels outside the structure, and a zero test function
            {"experiment": "convergence", "structure": {"pattern": [2], "repeat_to": 6},
             "parameters": {"band": 99}},
            {"experiment": "convergence", "structure": {"pattern": [2], "repeat_to": 6},
             "parameters": {"band": -1}},
            {"experiment": "convergence", "structure": {"pattern": [2], "repeat_to": 6},
             "parameters": {"family": "smoothed-indicator", "window_level": 99}},
            {"experiment": "convergence", "structure": {"pattern": [2], "repeat_to": 6},
             "parameters": {"family": "damped-critical", "depth": 40}},
            {"experiment": "convergence", "structure": {"pattern": [2], "repeat_to": 6},
             "parameters": {"family": "damped-critical", "depth": 6}},
            {"experiment": "convergence", "structure": {"pattern": [2], "repeat_to": 6},
             "parameters": {"family": "damped-critical", "depth": -3}},
            {"experiment": "maximal-bound", "structure": {"pattern": [2], "repeat_to": 4},
             "parameters": {"atom_scale": -1}},
            # the weighted sweep runs orders 1..n_max of the M[N] = 16 it has
            {"experiment": "maximal-bound", "structure": {"pattern": [2], "repeat_to": 4},
             "parameters": {"n_max": 0}},
            {"experiment": "maximal-bound", "structure": {"pattern": [2], "repeat_to": 4},
             "parameters": {"n_max": 17}},
            # the order grid holds at most M[N] distinct orders
            {"experiment": "convergence", "structure": {"pattern": [2], "repeat_to": 6},
             "parameters": {"grid_points": 2**40}},
            # a damping that is not finite, or overflows a block value M[i] * damping^i
            {"experiment": "maximal-bound", "structure": {"pattern": [2], "repeat_to": 4},
             "parameters": {"damping": math.inf}},
            {"experiment": "maximal-bound", "structure": {"pattern": [2], "repeat_to": 4},
             "parameters": {"damping": 10**400}},
            {"experiment": "maximal-bound", "structure": {"pattern": [2], "repeat_to": 4},
             "parameters": {"damping": 1e300}},
            {"experiment": "convergence", "structure": {"pattern": [2], "repeat_to": 6},
             "parameters": {"family": "damped-critical", "damping": 1e300}},
            # a top level that is not an object, an experiment that is not a name
            [1, 2],
            "gram",
            None,
            {"experiment": ["gram"], "structure": {"pattern": [2], "repeat_to": 4}},
        ],
        ids=["no-function-path", "missing-function-file", "output-not-object",
             "function-path-without-from-file", "2a-empty-ranges", "2a-shallow-default-ranges",
             "2b-empty-modulus-range", "kernels-empty-catalogue", "kernel-scan-empty-levels",
             "maximal-bound-no-seeds", "gram-no-functions", "convergence-no-scales",
             "misspelt-top-level-key", "misspelt-structure-key", "misspelt-output-key",
             "unknown-output-format", "p-values-not-list", "m-not-list", "base-cell-past-last-cell",
             "parameters-not-object", "seed-not-integer", "resolution-not-integer",
             "m-entry-not-integer", "m-entry-boolean", "pattern-entry-float", "repeat-to-not-integer",
             "repeat-to-boolean", "seed-boolean", "output-path-not-string",
             "2a-depth-float", "seeds-float", "random-functions-float", "p-values-boolean",
             "2a-p-string", "damping-boolean", "level-lo-float-integral", "functions-boolean",
             "dump-function-not-string", "band-past-resolution", "band-negative",
             "window-level-past-resolution", "damped-depth-past-resolution",
             "damped-depth-at-resolution", "damped-depth-negative", "atom-scale-negative",
             "n-max-zero", "n-max-past-cells",
             "grid-points-past-cells", "damping-infinite", "damping-past-float",
             "maximal-bound-damping-overflows", "damped-critical-damping-overflows",
             "top-level-list", "top-level-string", "top-level-null", "experiment-list"],
    )
    def test_malformed_config_exits_2(self, payload, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)  # "missing.json" resolves here and does not exist
        cfg = write_config(tmp_path, "bad.json", payload)
        out = tmp_path / "x.csv"
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        assert "config error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["maximal_bound", "counterexample_2a", "convergence_walsh"])
    def test_exponent_overflowing_a_float_exits_2(self, name, tmp_path, capsys):
        # the shipped config at p = 0.001: a power 1/p = 1000 overflows a float
        payload = json.loads((CONFIG_DIR / f"{name}.json").read_text(encoding="utf-8"))
        payload["p_values"] = [0.001]
        if "p" in payload["parameters"]:
            payload["parameters"]["p"] = 0.001
        # refused with the structure, before the runner starts
        with pytest.raises(ValueError, match=r"^p = 0\.001 overflows a float in the power "
                                             r"\(M\[N\] \+ 1\)\^\(1/p\) = \d+\^1000$"):
            build_structure(load_config(payload))
        cfg = write_config(tmp_path, "p.json", payload)
        out = tmp_path / "x.csv"
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: p = 0.001 overflows") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("p", [0.00783, 0.0086])
    def test_weight_times_hardy_norm_overflowing_a_float_exits_2(self, p, tmp_path, capsys):
        # the shipped maximal_bound config at a p the structure admits, whose
        # largest weight times the critical atom's Hardy norm overflows: it
        # is refused before the sweep, where every ratio would read 0
        payload = json.loads((CONFIG_DIR / "maximal_bound.json").read_text(encoding="utf-8"))
        payload["p_values"] = [p]
        with pytest.raises(ValueError, match=rf"^p = {p} overflows a float in the product "
                                             r"weight_p\(n_max\) \* \|\|f\|\|_\(H_p\) = \S+ \* \S+$"):
            run_experiment(load_config(payload))
        cfg = write_config(tmp_path, "p.json", payload)
        out = tmp_path / "x.csv"
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: p = {p} overflows") and "Traceback" not in err
        assert not out.exists()

    def test_non_string_output_path_exits_2_without_out(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, "bad.json", {
            "experiment": "kernels", "structure": {"pattern": [2], "repeat_to": 6},
            "output": {"path": 5},
        })
        assert main(["run", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("config error: output.path must be a string")
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize(
        "experiment, parameters, p_values, error",
        [
            ("gram", {}, [0.5], "p_values [0.5]"),
            ("kernels", {}, [0.25], "p_values [0.25]"),
            # computes at the default p = 1/4
            ("counterexample-2a", {}, [0.3], "p_values [0.3]"),
            ("counterexample-2a", {"p": 0.3}, [0.25], "p_values [0.25]"),
            ("counterexample-2b", {}, [0.25], "p_values [0.25]"),
            ("kernel-scan", {}, [0.25], "p_values [0.25]"),
        ],
        ids=["gram", "kernels", "2a-default-p", "2a-explicit-p", "2b", "kernel-scan"],
    )
    def test_p_values_not_computed_exit_2(
        self, experiment, parameters, p_values, error, tmp_path, capsys
    ):
        cfg = write_config(tmp_path, "p.json", {
            "experiment": experiment, "structure": {"pattern": [2], "repeat_to": 6},
            "p_values": p_values, "parameters": parameters,
        })
        out = tmp_path / "x.csv"
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and error in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "experiment, parameters, computed",
        [
            ("gram", {}, []),
            ("kernels", {}, []),
            ("convergence", {}, [0.25, 0.5, 0.75, 1.0]),
            ("counterexample-2a", {"p": 0.3}, [0.3]),
            ("counterexample-2b", {}, [0.5]),
            ("kernel-scan", {}, [0.5]),
            ("maximal-bound", {}, [0.25, 0.5]),
        ],
        ids=["gram", "kernels", "convergence", "2a", "2b", "kernel-scan", "maximal-bound"],
    )
    def test_p_values_computed_load(self, experiment, parameters, computed):
        cfg = load_config({
            "experiment": experiment, "structure": {"pattern": [2], "repeat_to": 6},
            "p_values": computed, "parameters": parameters,
        })
        assert cfg.p_values == tuple(computed)

    def test_gram_matrix_size_guard(self):
        cfg = load_config({"experiment": "gram",
                           "structure": {"pattern": [2], "repeat_to": 13}})
        with pytest.raises(CapacityError):
            run_experiment(cfg)


class TestRunCommand:
    def test_run_writes_csv_and_exits_zero(self, tmp_path):
        cfg = small_2a_config(tmp_path)
        out = tmp_path / "out.csv"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("# schema=1, config=")
        assert "divergence" in text

    def test_byte_identical_reruns(self, tmp_path):
        cfg = small_2a_config(tmp_path)
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["run", str(cfg), "--out", str(out1)]) == 0
        assert main(["run", str(cfg), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_unwritable_output_exits_2(self, tmp_path, capsys):
        cfg = small_2a_config(tmp_path)
        # a missing directory is refused before the experiment runs
        assert main(["run", str(cfg), "--out", str(tmp_path / "nodir" / "x.csv")]) == 2
        assert "config error:" in capsys.readouterr().err
        assert not (tmp_path / "nodir").exists()
        # a failed write is reported the same way
        (tmp_path / "taken.csv").mkdir()
        assert main(["run", str(cfg), "--out", str(tmp_path / "taken.csv")]) == 2
        assert "config error:" in capsys.readouterr().err

    def test_capacity_exit_code(self, tmp_path):
        cfg = small_2a_config(tmp_path)
        assert main(["run", str(cfg), "--out", str(tmp_path / "x.csv"),
                     "--cells-cap", "64"]) == 3

    @pytest.mark.parametrize(
        "structure",
        [{"pattern": [2], "repeat_to": 20000}, {"m": [2] * 20000}],
        ids=["pattern", "m"],
    )
    def test_many_coordinates_refused_before_building(self, structure, tmp_path, capsys):
        # refused from N alone: 2^20000 cells has too many digits to print,
        # and the scale table takes O(N^2) bits to build
        cfg = write_config(tmp_path, "big.json", {"experiment": "gram", "structure": structure})
        out = tmp_path / "x.csv"
        assert main(["run", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("capacity error: structure has 20000 coordinates"), err
        assert not out.exists()

    def test_huge_radix_refused_by_bit_length(self, tmp_path, capsys):
        # two coordinates pass the coordinate check, but M[N] = 10^8000 has
        # too many digits to print in decimal
        cfg = write_config(tmp_path, "big.json",
                           {"experiment": "gram", "structure": {"m": [10**4000, 10**4000]}})
        out = tmp_path / "x.csv"
        assert main(["run", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        bits = (10**8000).bit_length()
        assert err.startswith(f"capacity error: structure has at least 2^{bits - 1} cells "
                              f"(a {bits}-bit count), over the cap of 4194304"), err
        assert not out.exists()

    def test_sparse_resolution_shortfall_is_capacity_exit(self, tmp_path):
        cfg = write_config(tmp_path, "b.json", {
            "experiment": "counterexample-2b",
            "structure": {"pattern": [2], "repeat_to": 9},
            "resolution": 9,
            "p_values": [0.5],
            "parameters": {"depth": 3},
            "seed": 1,
        })
        assert main(["run", str(cfg), "--out", str(tmp_path / "x.csv")]) == 3

    def test_dense_depth_beyond_resolution_is_capacity_exit(self, tmp_path, capsys):
        cfg = small_2a_config(tmp_path)
        payload = json.loads(cfg.read_text())
        payload["parameters"]["depth"] = 10
        cfg.write_text(json.dumps(payload))
        assert main(["run", str(cfg), "--out", str(tmp_path / "x.csv")]) == 3
        assert "depth 10 needs resolution >= 11" in capsys.readouterr().err

    @pytest.mark.parametrize("config", ["2a-small", "convergence_walsh"])
    def test_json_format_output(self, config, tmp_path):
        # the convergence grid holds Python integers, which JSON can write
        cfg = small_2a_config(tmp_path) if config == "2a-small" else CONFIG_DIR / f"{config}.json"
        out = tmp_path / "out.json"
        assert main(["run", str(cfg), "--out", str(out), "--format", "json"]) == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == 1 and payload["records"]

    def test_function_dump_round_trips(self, tmp_path):
        dump = tmp_path / "martingale.json"
        cfg = small_2a_config(tmp_path)
        payload = json.loads(cfg.read_text())
        payload["parameters"]["dump_function"] = str(dump)
        cfg.write_text(json.dumps(payload))
        assert main(["run", str(cfg), "--out", str(tmp_path / "x.csv")]) == 0
        spec = load_function(dump)
        assert isinstance(spec, Spectrum)
        assert spec.coeffs[4] == pytest.approx(4.0)


# sha256 of the CSV each shipped config writes.  A change that moves records
# on purpose updates this table and names the moved columns in CHANGES.md.
SHIPPED_CSV_SHA256 = {
    "convergence_walsh": "861666d8042be6e24ad94389680347375138d64499fa77a922de6fabc749be41",
    "counterexample_2a": "5b6484f7d878ff2ebf409abf00fa2b94791374d10fb3e3d2cc7c892b4cee72df",
    "counterexample_2b": "ecbc4b1ce0c54d2eec85a0002168cf6689eb22e77588431437b09335ef502dd1",
    "gram_mixed": "9f625f15762dd43f491e2511fa7c11f09d7a3f68a20d304638f583945c5b2b7e",
    "kernel_scan": "de127507b307d7281ee55721eb1c60ccd30fb2d06264303956ef4a31c47a3572",
    "kernels_walsh": "f5dedd4a9e154bbfa74d2da9c0109d2760d5eddd067698d308f7abb39da9bfad",
    "maximal_bound": "802cc0961edb6a9f19eca3821471ee70364731e553fe8dc19070dba78abf1ed3",
}


class TestShippedConfigs:
    def test_every_shipped_config_has_a_digest(self):
        assert sorted(path.stem for path in CONFIG_DIR.glob("*.json")) == sorted(SHIPPED_CSV_SHA256)

    @pytest.mark.parametrize("name", sorted(SHIPPED_CSV_SHA256))
    def test_quick_configs_pass(self, name, tmp_path):
        cfg = load_config(CONFIG_DIR / f"{name}.json")
        result = run_experiment(cfg)
        assert result.exit_code == 0 and result.messages == [], result.messages
        out = tmp_path / "out.csv"
        write_records(result.records, out, "csv")
        assert hashlib.sha256(out.read_bytes()).hexdigest() == SHIPPED_CSV_SHA256[name]

    def test_check_command_exit_follows_verdicts(self, capsys, monkeypatch):
        # The gate suite itself runs in test_acceptance; here only the
        # command's wiring: the verdicts set the exit.
        def fake_run_all(echo):
            results = [CriterionResult(k, f"c{k}", True, "", 0.0) for k in (1, 2)]
            results[1].passed = passing
            for r in results:
                echo(r.line())
            return results

        monkeypatch.setattr(cli, "run_all", fake_run_all)
        passing = True
        assert main(["check"]) == 0
        assert "2/2 criteria passed" in capsys.readouterr().out
        passing = False
        assert main(["check"]) == 2
        out = capsys.readouterr().out
        assert "FAIL c2" in out and "1/2 criteria passed" in out

    def test_check_without_shipped_configs_exits_2(self, tmp_path, monkeypatch, capsys):
        # Outside a source checkout there is no configs/ folder to gate on.
        monkeypatch.setattr(acceptance, "SHIPPED_DIR", tmp_path)
        assert main(["check"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")
        assert "counterexample_2a.json" in err[0]

    def test_check_takes_no_speedup_option(self, capsys):
        # the performance gate is frozen.MIN_SPEEDUP.passes, like every other bound
        with pytest.raises(SystemExit) as exc:
            main(["check", "--min-speedup", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --min-speedup" in capsys.readouterr().err

    def test_knob_inventory(self):
        # Every setting a caller can give: a new option or environment
        # variable needs a deliberate edit here.
        parser = cli.build_parser()
        (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        options = {
            name: sorted(a.dest for a in sub._actions if a.dest != "help")
            for name, sub in commands.choices.items()
        }
        assert [a.dest for a in parser._actions] == ["help", "command"]
        assert options == {"run": ["cells_cap", "config", "format", "out", "seed"], "check": []}
        env_reads = [
            f"{path.name}:{node.lineno}"
            for path in sorted(SRC_DIR.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")
            or isinstance(node, ast.ImportFrom) and node.module == "os"
        ]
        assert env_reads == []

    def test_maximal_bound_without_small_p_rejected(self, tmp_path, capsys):
        # the computed 1/4 does not excuse the ignored 3/4
        cfg = write_config(tmp_path, "mb.json", {
            "experiment": "maximal-bound",
            "structure": {"pattern": [2], "repeat_to": 4},
            "p_values": [0.25, 0.75],
            "parameters": {"seeds": 2},
        })
        out = tmp_path / "x.csv"
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "p_values [0.75]" in err
        assert not out.exists()

    def test_experiment_failure_exit_code(self, tmp_path):
        # rig the convergence gate by sweeping a family that cannot settle:
        # the undamped critical construction keeps a large top-scale gap
        cfg = load_config({
            "experiment": "convergence",
            "structure": {"pattern": [2], "repeat_to": 8},
            "p_values": [0.25],
            "parameters": {"family": "damped-critical", "depth": 7,
                           "damping": 1.0, "grid_points": 5},
            "seed": 1,
        })
        result = run_experiment(cfg)
        assert result.exit_code == 2
        assert result.messages


class TestFamilies:
    def test_smoothed_indicator_band_limited(self):
        vs = VilenkinStructure.from_pattern((2,), 8)
        spec = family_smoothed_indicator(vs, 2, 4, 0)
        assert abs(spec.coeffs[0] - 0.25) < 1e-12
        assert max(abs(spec.coeffs[vs.M[4]:])) == 0

    def test_zero_function_has_zero_ratio(self):
        import numpy as np
        from vilenkin_lab.experiments import max_weighted_ratio

        vs = VilenkinStructure.from_pattern((2,), 5)
        spec = Spectrum(vs, np.zeros(vs.size))
        assert max_weighted_ratio(spec, (0.25, 0.5), vs.size) == (0.0, 0.0)

    def test_from_file_family_round_trips_through_cli(self, tmp_path):
        # dump a construction, then feed it back as a convergence input
        import numpy as np
        from vilenkin_lab.serialize import save_function

        vs = VilenkinStructure.from_pattern((2,), 8)
        coeffs = np.zeros(vs.size, dtype=np.complex128)
        coeffs[:4] = (1.0, 0.5, 0.25, 0.125)
        path = tmp_path / "band.json"
        save_function(Spectrum(vs, coeffs), path)
        cfg = write_config(tmp_path, "ff.json", {
            "experiment": "convergence",
            "structure": {"pattern": [2], "repeat_to": 8},
            "p_values": [0.5],
            "parameters": {"family": "from-file", "function_path": str(path),
                           "grid_points": 5},
            "seed": 1,
        })
        assert main(["run", str(cfg), "--out", str(tmp_path / "out.csv")]) == 0

    def test_from_file_structure_mismatch_rejected(self, tmp_path):
        import numpy as np
        from vilenkin_lab.serialize import save_function

        other = VilenkinStructure.from_pattern((2,), 5)
        path = tmp_path / "f.json"
        save_function(Spectrum(other, np.zeros(other.size)), path)
        cfg = write_config(tmp_path, "ff.json", {
            "experiment": "convergence",
            "structure": {"pattern": [2], "repeat_to": 8},
            "p_values": [0.5],
            "parameters": {"family": "from-file", "function_path": str(path)},
            "seed": 1,
        })
        assert main(["run", str(cfg), "--out", str(tmp_path / "out.csv")]) == 2


class TestConvergenceLevels:
    def test_constant_function_reads_no_backslide(self, tmp_path):
        # band 0 is a constant: every Fejer gap is 0, and 0 over a running
        # minimum of 0 reads 1.0
        cfg = load_config({
            "experiment": "convergence",
            "structure": {"pattern": [2], "repeat_to": 6},
            "p_values": [0.5],
            "parameters": {"band": 0, "grid_points": 5},
        })
        result = run_experiment(cfg)
        assert result.exit_code == 0, result.messages
        summary = [r for r in result.records if r.index["block"] == "summary"]
        assert [(r.values["final_gap_rel"], r.values["backslide"]) for r in summary] == [(0.0, 1.0)]

    def test_scale_sweep_gates_over_a_zero_minimum(self):
        from vilenkin_lab.experiments import scale_sweep_gates

        assert scale_sweep_gates([0.5, 0.25, 0.5]) == (0.5, 2.0)
        assert scale_sweep_gates([0.0, 0.0]) == (0.0, 1.0)
        assert scale_sweep_gates([0.5, 0.0, 0.0]) == (0.0, 1.0)
        # a gap that comes back after reaching 0 fails the backslide gate
        assert scale_sweep_gates([0.5, 0.0, 1e-3]) == (1e-3, float("inf"))

    def test_zero_function_from_file_exits_2(self, tmp_path, capsys):
        import numpy as np
        from vilenkin_lab.serialize import save_function

        vs = VilenkinStructure.from_pattern((2,), 6)
        path = tmp_path / "zero.json"
        save_function(Spectrum(vs, np.zeros(vs.size)), path)
        cfg = write_config(tmp_path, "ff.json", {
            "experiment": "convergence",
            "structure": {"pattern": [2], "repeat_to": 6},
            "p_values": [0.5],
            "parameters": {"family": "from-file", "function_path": str(path)},
        })
        out = tmp_path / "out.csv"
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        assert "test function is 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "payload",
        [
            [],
            {"kind": "coeffs", "data": [[0.0, 0.0]] * 64},
            {"structure": {"m": [2] * 6}, "data": [[0.0, 0.0]] * 64},
            {"structure": {"m": [2] * 5 + [2.7]}, "kind": "coeffs", "data": [[1.0, 0.0]] * 64},
            {"structure": [2] * 6, "kind": "coeffs", "data": [[1.0, 0.0]] * 64},
            {"structure": {"m": [2] * 6}, "kind": "coeffs", "data": [["1", "0"]] * 64},
        ],
        ids=["top-level-list", "no-structure", "no-kind", "m-entry-float", "structure-not-object",
             "data-strings"],
    )
    def test_malformed_function_file_exits_2(self, payload, tmp_path, capsys):
        path = tmp_path / "f.json"
        path.write_text(json.dumps(payload))
        cfg = write_config(tmp_path, "ff.json", {
            "experiment": "convergence",
            "structure": {"pattern": [2], "repeat_to": 6},
            "p_values": [0.5],
            "parameters": {"family": "from-file", "function_path": str(path)},
        })
        out = tmp_path / "out.csv"
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        assert "config error:" in capsys.readouterr().err
        assert not out.exists()


class TestGramError:
    # Gram row blocks: 8 of 128 rows at 2^10; 120 + 120; a ragged 121 + 122;
    # six of 106 or 107 rows on (641,), where blocks of exactly 128 rows
    # would leave the last row alone, and numpy's one-row product (GEMV)
    # reads 5.87e-16, not 2.5e-16 to 2.7e-16; six of 121 or 122 on (3,)^6;
    # and 64 + 65 on (129,).  Each block spans only the upper triangle,
    # its own columns on, and the formula spans the whole matrix.
    @pytest.mark.parametrize("gens", [(2,) * 10, (3, 2, 5, 4, 2), (3,) * 5, (641,), (3,) * 6, (129,)])
    def test_equal_to_identity_difference_formula(self, gens):
        import numpy as np
        from vilenkin_lab.experiments import gram_error
        from group_oracles import character_column

        # the digit-table oracle, not the character_rows blocks gram_error reads
        vs = VilenkinStructure.from_m(gens)
        mat = np.array([character_column(n, vs) for n in range(vs.size)])
        expected = float(np.abs((mat @ mat.conj().T) / vs.size - np.eye(vs.size)).max())
        assert gram_error(vs) == expected

    # on (3,)^5: a row of the first block and the last row of the last block
    @pytest.mark.parametrize("row", [5, 242], ids=["first-block", "ragged-last-block"])
    def test_one_perturbed_row_fails_the_roundoff_gate(self, row, monkeypatch):
        import numpy as np
        from vilenkin_lab import frozen, transform
        from vilenkin_lab.experiments import gram_error

        vs = VilenkinStructure.from_m((3,) * 5)
        assert frozen.ROUNDOFF_MAX.passes(gram_error(vs))
        character_rows = transform.character_rows

        def perturbed(indices, vs):
            rows = character_rows(indices, vs)
            rows[np.asarray(indices) == row] *= 1.0 + 1e-9
            return rows

        monkeypatch.setattr(transform, "character_rows", perturbed)
        # the perturbed row's own diagonal entry reads |1 + 1e-9|^2 - 1
        assert not frozen.ROUNDOFF_MAX.passes(gram_error(vs))

    def test_peak_memory_is_one_matrix(self):
        import tracemalloc
        from vilenkin_lab.experiments import gram_error

        # the conjugated characters, plus the characters and the Gram
        # entries of one 128-row block: 1.28 x 16 M[N]^2 bytes at 2^10
        vs = VilenkinStructure.from_pattern((2,), 10)
        tracemalloc.start()
        try:
            gram_error(vs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * 16 * vs.size**2
