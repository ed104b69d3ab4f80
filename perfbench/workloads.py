"""The three benchmark workloads.

Each workload builds its inputs from the workload seed in ``setup`` (which
also makes one warm-up call so the library's ``lru_cache`` tables are
filled), runs a fixed list of ops in ``run_pass``, and checks every op's
output against an oracle in ``check``.  ``run_pass`` hands each op's output
to ``lap`` as soon as the op returns; the runner stops the op's clock there
and runs ``check`` outside the timed region.

Sizes default to the benchmark's; the self-tests pass smaller ones.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
import random
import tempfile
from pathlib import Path

import numpy as np

import oracles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 1
P_DENSE = 0.25


def stored_reference(workload: str):
    """Reference values stored with the benchmark (``make_reference.py``)."""
    path = HERE / "reference.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text(encoding="utf-8")).get(workload)


def derive_seed(*parts) -> int:
    """64-bit stream seed derived from the workload seed and an op label."""
    digest = hashlib.sha256(":".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:8], "little")


def rel_err(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


class Workload:
    name = ""
    # Every op's latency is averaged over at least this many passes, even
    # when one pass takes most of the run time.
    MIN_PASSES = 3

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, lap) -> None:
        raise NotImplementedError

    def check(self, label, output) -> list[str]:
        raise NotImplementedError


# ---------------------------------------------------------------------------


class CapSpectral(Workload):
    """Dense p = 1/4 block spectrum on the Walsh structure at the cell cap.

    The seed draws one level k from the admissible levels 1..depth-2 (an
    op costs about the same at every level).  The op runs the modulus of
    continuity above k, the weak divergence statistic at order M[k] + 1,
    and an analyze/synthesize round trip.  A pass is that one op.
    """

    name = "cap-spectral"
    MIN_PASSES = 2  # a pass takes 8 to 14 s; three would not fit the time limits

    # Share of the measured rounding term that the computed modulus may
    # carry on top of the exact one (see _check_modulus).
    ROUNDING_MARGIN = 1.1

    def __init__(self, seed: int, depth: int = 22) -> None:
        super().__init__(seed)
        self.depth = depth
        self.level = random.Random(f"{self.name}:{seed}").randint(1, depth - 2)
        # weak statistic per level, from the Walsh oracle at the default depth
        self.references = stored_reference(self.name) if depth == 22 else None
        self._rounding_p: dict[int, float] = {}

    def setup(self) -> None:
        from vilenkin_lab.counterexamples import CriticalExample
        from vilenkin_lab.norms import AtomicDecomposition
        from vilenkin_lab.structure import VilenkinStructure
        from vilenkin_lab.transform import Spectrum, synthesize

        self.vs = VilenkinStructure.from_pattern((2,), self.depth)
        self.M = list(self.vs.M)
        # Only the spectrum is needed: the atom list would cost two
        # full-size kernel syntheses per scale.  The oracle keeps no
        # full-size copy of it; the checks rebuild what they need.
        self.example = CriticalExample(
            P_DENSE, self.vs.N - 1, self.vs, Spectrum(self.vs, oracles.dense_coeffs(self.M, 0, self.depth - 1)),
            AtomicDecomposition((), (), P_DENSE),
        )
        synthesize(self.example.spectrum)

    def run_pass(self, lap) -> None:
        from vilenkin_lab.counterexamples import modulus_ratio_report, weak_divergence_statistic
        from vilenkin_lab.transform import analyze, synthesize

        ex, k = self.example, self.level
        omega = modulus_ratio_report(ex, [k])[0].omega
        weak = weak_divergence_statistic(ex, k)
        f = synthesize(ex.spectrum)
        back = analyze(f)
        lap(("level", k), (omega, weak, f.values, back.coeffs))

    def weak_reference(self, k: int) -> float:
        if self.references is not None:
            return self.references[str(k)]
        depth = self.depth - 1
        partial = oracles.fejer_coeffs(oracles.dense_coeffs(self.M, 0, depth), self.M[k] + 1)
        gap = oracles.subtract_dense(oracles.walsh_synthesize(partial), self.M, 0, depth)
        return oracles.weak_profile(gap, P_DENSE)[0]

    def check(self, label, output) -> list[str]:
        k = label[1]
        omega, weak, values, coeffs = output
        depth = self.depth - 1
        errs = []
        scale = max(map(abs, oracles.dense_table(self.M, 0, depth)))
        if oracles.dense_error(values, self.M, depth) > 1e-12 * scale:
            errs.append(f"k={k}: synthesized values differ from the Dirichlet closed form")
        if oracles.dense_coeff_error(coeffs, self.M, depth) > 1e-12 * self.M[depth]:
            errs.append(f"k={k}: analyze does not return the block law")
        want = self.weak_reference(k)
        if rel_err(weak, want) > 1e-9:
            errs.append(f"k={k}: weak statistic {weak!r}, oracle {want!r}")
        errs += self._check_modulus(k, omega)
        return errs

    def rounding_p(self, k: int) -> float:
        """mean((M e)^p) for the rounding residue e of the library's synthesis
        of the tail above level k; M is the oracle maximal function."""
        if k not in self._rounding_p:
            from vilenkin_lab.transform import Spectrum, synthesize

            depth = self.depth - 1
            tail = synthesize(Spectrum(self.vs, oracles.dense_coeffs(self.M, k, depth))).values
            residue = oracles.subtract_dense(tail, self.M, k, depth)
            self._rounding_p[k] = float(np.mean(oracles.maximal(residue, self.vs.m) ** P_DENSE))
        return self._rounding_p[k]

    def _check_modulus(self, k: int, omega: float) -> list[str]:
        # The modulus is the Hardy quasinorm H of the tail g above level k.
        # The library computes it from its synthesis g + e of the tail, where
        # e is rounding.  As |a + b|^p <= |a|^p + |b|^p for p < 1 and the
        # maximal function M is sublinear,
        #     H(g)^p <= H(g + e)^p <= H(g)^p + mean((M e)^p).
        # H(g) comes from the closed form.  The rounding term is measured from
        # the library's own synthesis of the tail, so the band is as wide as
        # the rounding really is; at 2^22 cells and deep k it is several
        # times H(g)^p, and the margin covers rounding in the block means.
        depth = self.depth - 1
        exact_p = oracles.dense_modulus(self.M, depth, k, P_DENSE) ** P_DENSE
        got_p = omega**P_DENSE
        if not exact_p * (1 - 1e-9) <= got_p <= exact_p * (1 + 1e-9) + self.ROUNDING_MARGIN * self.rounding_p(k):
            return [f"k={k}: modulus {omega!r} outside [{exact_p ** (1 / P_DENSE)!r}, +rounding]"]
        return []


# ---------------------------------------------------------------------------


class RandomParseval(Workload):
    """xorshift random functions on mixed structures with radices 2, 3, 4, 5.

    Three radix orders of the same size (172800 cells), so every op costs
    about the same and the median op pools all of them.
    """

    name = "random-parseval"
    STRUCTURES = (
        (2, 3, 4, 5, 2, 3, 4, 5, 3, 4),
        (3, 5, 2, 4, 3, 5, 2, 4, 3, 4),
        (5, 4, 3, 2, 5, 4, 3, 2, 4, 3),
    )
    P = 0.5
    NAIVE_SAMPLES = 4
    STREAM_PREFIX = 8

    def __init__(self, seed: int, structures=STRUCTURES) -> None:
        super().__init__(seed)
        self.structures = structures
        self.stream_seeds = [derive_seed(self.name, seed, i) for i in range(len(structures))]
        default = seed == DEFAULT_SEED and structures == self.STRUCTURES
        self.references = stored_reference(self.name) if default else None

    def setup(self) -> None:
        from vilenkin_lab.structure import VilenkinStructure
        from vilenkin_lab.transform import StepFunction, analyze

        self.vss = [VilenkinStructure.from_m(m) for m in self.structures]
        for vs in self.vss:
            analyze(StepFunction(vs, np.zeros(vs.size)))

    def run_pass(self, lap) -> None:
        from vilenkin_lab.norms import norm_report
        from vilenkin_lab.rng import XorShift64Star
        from vilenkin_lab.transform import StepFunction, analyze, synthesize

        for i, (vs, seed) in enumerate(zip(self.vss, self.stream_seeds)):
            f = StepFunction(vs, XorShift64Star(seed).complex_uniforms(vs.size))
            spec = analyze(f)
            energy = float(np.mean(np.abs(f.values) ** 2))
            parseval = abs(energy - float(np.sum(np.abs(spec.coeffs) ** 2))) / energy
            back = synthesize(spec)
            report = norm_report(f, self.P)
            lap(("structure", i), (f, spec, parseval, back.values, report))

    def check(self, label, output) -> list[str]:
        from vilenkin_lab.transform import naive_analyze

        i = label[1]
        f, spec, parseval, back, report = output
        vs, values, p = f.vs, f.values, self.P
        errs = []
        want = oracles.xorshift_complex(self.stream_seeds[i], self.STREAM_PREFIX)
        if list(values[: self.STREAM_PREFIX]) != want:
            errs.append(f"structure {i}: sampler departs from the xorshift64* formula")
        energy = float(np.mean(np.abs(values) ** 2))
        if parseval > 1e-10 or rel_err(float(np.sum(np.abs(spec.coeffs) ** 2)), energy) > 1e-10:
            errs.append(f"structure {i}: Parseval fails")
        if np.abs(back - values).max() > 1e-10 * np.abs(values).max():
            errs.append(f"structure {i}: synthesize(analyze(f)) != f")
        rng = random.Random(f"{self.name}:{self.seed}:{i}")
        idx = np.array(sorted(rng.sample(range(vs.size), self.NAIVE_SAMPLES)))
        direct = naive_analyze(f, idx)
        if np.abs(spec.coeffs[idx] - direct).max() > 1e-10 * np.abs(direct).max():
            errs.append(f"structure {i}: analyze disagrees with naive_analyze")

        weak, levels, measure = oracles.weak_profile(values, p)
        want = {
            "lp": oracles.lp(values, p),
            "weak_p_power": weak,
            "weak_root": weak ** (1 / p),
            "hardy": oracles.lp(oracles.maximal(values, vs.m), p),
        }
        for key, value in want.items():
            if rel_err(getattr(report, key), value) > 1e-9:
                errs.append(f"structure {i}: norm_report.{key} {getattr(report, key)!r}, oracle {value!r}")
        profile = np.array(report.levels)
        n = len(profile)
        if n != min(16, levels.size) or (
            n and (np.abs(profile[:, 0] - levels[:n]).max() > 0 or np.abs(profile[:, 1] - measure[:n]).max() > 1e-15)
        ):
            errs.append(f"structure {i}: weak level profile differs")
        if self.references is not None:
            for key in ("lp", "weak_p_power", "hardy"):
                if rel_err(getattr(report, key), self.references[i][key]) > 1e-9:
                    errs.append(f"structure {i}: {key} differs from the stored reference")
        return errs

    def reference_record(self, output) -> dict:
        report = output[4]
        return {"lp": report.lp, "weak_p_power": report.weak_p_power, "hardy": report.hardy}


# ---------------------------------------------------------------------------


class GateSuite(Workload):
    """acceptance.run_all() plus the shipped configs, run and written."""

    name = "gate-suite"
    # Configs whose records depend on the seed; the rest are checked
    # against the stored records on every seed.
    SEEDED = ("gram_mixed", "maximal_bound")

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.paths = sorted((ROOT / "configs").glob("*.json"))
        random.Random(f"{self.name}:{seed}").shuffle(self.paths)
        self.references = stored_reference(self.name)

    def setup(self) -> None:
        from vilenkin_lab.experiments import build_structure, load_config
        from vilenkin_lab.structure import VilenkinStructure
        from vilenkin_lab.transform import StepFunction, analyze

        self.configs = []
        for path in self.paths:
            cfg = load_config(path)
            # The shipped seed at the default workload seed, shifted otherwise.
            cfg.seed += self.seed - DEFAULT_SEED
            cfg.raw["seed"] = cfg.seed
            self.configs.append((path.stem, cfg))
        structures = {build_structure(cfg) for _, cfg in self.configs}
        # the structures the acceptance criteria build
        structures |= {VilenkinStructure.from_pattern((2,), d) for d in (5, 7, 8, 9, 10, 11, 12, 15, 16, 17)}
        structures.add(VilenkinStructure.from_m((2, 3, 2, 3)))
        for vs in structures:
            analyze(StepFunction(vs, np.zeros(vs.size)))
        self.tmp = tempfile.TemporaryDirectory(dir=HERE / "results")

    def run_pass(self, lap) -> None:
        from vilenkin_lab.acceptance import run_all
        from vilenkin_lab.experiments import run_experiment
        from vilenkin_lab.reporting import write_records

        numbers = itertools.count(1)
        run_all(echo=lambda line: lap(("criterion", next(numbers)), line))
        for stem, cfg in self.configs:
            result = run_experiment(cfg)
            path = Path(self.tmp.name) / f"{stem}.{cfg.output_format}"
            write_records(result.records, path, cfg.output_format)
            lap(("config", stem), (cfg, result, path))

    def check(self, label, output) -> list[str]:
        if label[0] == "criterion":
            return [] if "] PASS " in output else [output]
        return self._check_config(label[1], *output)

    def _check_config(self, stem, cfg, result, path) -> list[str]:
        errs = []
        if result.exit_code != 0:
            errs.append(f"{stem}: exit code {result.exit_code}: {result.messages}")
        canon = json.dumps(cfg.raw, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]
        header, rows = self.read_rows(path)
        if header != f"# schema=1, config={digest}" or any(row["config"] != digest for row in rows):
            return errs + [f"{stem}: written file does not carry the config hash {digest}"]
        got = [{k: v for k, v in row.items() if k != "config"} for row in rows]
        if self.references is not None and (stem not in self.SEEDED or self.seed == DEFAULT_SEED):
            if not _records_match(got, self.references[stem]):
                errs.append(f"{stem}: records differ from the stored reference")
        elif any(row.get("passed") == "0" for row in got) or not got:
            errs.append(f"{stem}: a gate record did not pass")
        if len(rows) != len(result.records):
            errs.append(f"{stem}: file holds {len(rows)} rows for {len(result.records)} records")
        return errs

    @staticmethod
    def read_rows(path: Path) -> tuple[str, list[dict]]:
        with open(path, encoding="utf-8", newline="") as fh:
            header = fh.readline().strip()
            return header, list(csv.DictReader(fh))


# Round-off diagnostics: errors of quantities the library knows exactly
# (Gram matrix, Parseval, closed-form kernels and laws, the spread of equal
# maxima).  Their stored values are rounding noise, so they are held to a
# limit far above that noise and far below any real defect.
ROUNDOFF_COLUMNS = ("max_err", "gram_max_err", "parseval_worst_rel", "law_err", "cv")
ROUNDOFF_LIMIT = 1e-9
RTOL = 1e-9
# A cell that is an exact zero computed in floating point sits at the
# rounding floor of its column and moves by O(1) of itself under any
# reordering of the sums, so every cell may also differ by this share of
# its column's largest value.
ATOL_SHARE = 1e-12


def _records_match(got: list[dict], want: list[dict]) -> bool:
    if len(got) != len(want) or any(g.keys() != w.keys() for g, w in zip(got, want)):
        return False
    for key in want[0] if want else ():
        differing = [(g[key], w[key]) for g, w in zip(got, want) if g[key] != w[key]]
        try:
            numbers = [(float(a), float(b)) for a, b in differing]
        except ValueError:
            return False  # a text cell differs
        if key in ROUNDOFF_COLUMNS:
            if not all(0 <= a <= ROUNDOFF_LIMIT for a, _ in numbers):
                return False
            continue
        atol = ATOL_SHARE * _column_scale(want, key) if numbers else 0.0
        for a, b in numbers:
            if not (math.isnan(a) and math.isnan(b)) and not abs(a - b) <= RTOL * abs(b) + atol:
                return False
    return True


def _column_scale(rows: list[dict], key: str) -> float:
    """Largest finite magnitude among a column's numeric cells."""
    scale = 0.0
    for row in rows:
        try:
            value = abs(float(row[key]))
        except ValueError:
            continue
        if math.isfinite(value):
            scale = max(scale, value)
    return scale


WORKLOADS = {cls.name: cls for cls in (CapSpectral, RandomParseval, GateSuite)}
