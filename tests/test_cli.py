import hashlib
import json
from pathlib import Path

import pytest

from vilenkin_lab import cli
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
        ],
        ids=["no-function-path", "missing-function-file", "output-not-object",
             "function-path-without-from-file", "2a-empty-ranges", "2a-shallow-default-ranges",
             "2b-empty-modulus-range", "kernels-empty-catalogue", "kernel-scan-empty-levels",
             "maximal-bound-no-seeds", "gram-no-functions", "convergence-no-scales",
             "misspelt-top-level-key", "misspelt-structure-key", "misspelt-output-key",
             "unknown-output-format", "p-values-not-list", "m-not-list", "base-cell-past-last-cell",
             "parameters-not-object", "seed-not-integer", "resolution-not-integer"],
    )
    def test_malformed_config_exits_2(self, payload, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)  # "missing.json" resolves here and does not exist
        cfg = write_config(tmp_path, "bad.json", payload)
        out = tmp_path / "x.csv"
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        assert "config error:" in capsys.readouterr().err
        assert not out.exists()

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

    def test_json_format_output(self, tmp_path):
        cfg = small_2a_config(tmp_path)
        out = tmp_path / "out.json"
        assert main(["run", str(cfg), "--out", str(out), "--format", "json"]) == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == 1 and payload["records"]

    def test_env_cell_cap(self, tmp_path, monkeypatch):
        monkeypatch.setenv("VILENKIN_CELL_CAP", "64")
        cfg = small_2a_config(tmp_path)
        assert main(["run", str(cfg), "--out", str(tmp_path / "x.csv")]) == 3

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
    @pytest.mark.parametrize("name", sorted(SHIPPED_CSV_SHA256))
    def test_quick_configs_pass(self, name, tmp_path):
        cfg = load_config(CONFIG_DIR / f"{name}.json")
        result = run_experiment(cfg)
        assert result.exit_code == 0, result.messages
        out = tmp_path / "out.csv"
        write_records(result.records, out, "csv")
        assert hashlib.sha256(out.read_bytes()).hexdigest() == SHIPPED_CSV_SHA256[name]

    def test_check_command_with_relaxed_gate(self, capsys, monkeypatch):
        # The gate suite itself runs in test_acceptance; here only the
        # command's wiring: the speed-up reaches run_all, verdicts set the exit.
        seen = []

        def fake_run_all(min_speedup, echo):
            seen.append(min_speedup)
            results = [CriterionResult(k, f"c{k}", True, "", 0.0) for k in (1, 2)]
            results[1].passed = passing
            for r in results:
                echo(r.line())
            return results

        monkeypatch.setattr(cli, "run_all", fake_run_all)
        passing = True
        assert main(["check", "--min-speedup", "1"]) == 0
        assert seen == [1.0] and isinstance(seen[0], float)
        assert "2/2 criteria passed" in capsys.readouterr().out
        passing = False
        assert main(["check", "--min-speedup", "1"]) == 2
        out = capsys.readouterr().out
        assert "FAIL c2" in out and "1/2 criteria passed" in out

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
        assert max_weighted_ratio(spec, 0.25, vs.size) == 0.0

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


class TestGramError:
    @pytest.mark.parametrize("gens", [(2,) * 10, (3, 2, 5, 4, 2)])
    def test_equal_to_identity_difference_formula(self, gens):
        import numpy as np
        from vilenkin_lab.experiments import gram_error
        from vilenkin_lab.structure import character_column

        vs = VilenkinStructure.from_m(gens)
        mat = np.array([character_column(n, vs) for n in range(vs.size)])
        expected = float(np.abs((mat @ mat.conj().T) / vs.size - np.eye(vs.size)).max())
        assert gram_error(vs) == expected

    def test_peak_memory_is_three_matrices(self):
        import tracemalloc
        from vilenkin_lab.experiments import gram_error

        vs = VilenkinStructure.from_pattern((2,), 10)
        tracemalloc.start()
        try:
            gram_error(vs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.1 * 16 * vs.size**2
