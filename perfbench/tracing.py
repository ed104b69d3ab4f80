"""Spans around the library's public functions, recorded from outside.

``Tracer.install`` rebinds each traced function in every ``vilenkin_lab``
module that holds it by name, so calls between modules (``maximal_function``
calling ``synthesize``, ``experiments`` calling ``iter_fejer_means``) become
nested spans.  Spans live in memory as tuples
``(name, start, end, parent, op, attrs)`` and are written out at the end;
``layer_metrics`` derives self time, counts and rates from them.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

# (defining module, attribute, span name); spans nest through these names.
TRACED = (
    ("structure", "cell_digit_table", "structure.cell_digit_table"),
    ("structure", "root_tables", "structure.root_tables"),
    ("structure", "character_column", "structure.character_column"),
    ("transform", "analyze", "transform.analyze"),
    ("transform", "synthesize", "transform.synthesize"),
    ("transform", "maximal_function", "transform.maximal_function"),
    ("transform", "fejer_mean", "transform.fejer_mean"),
    ("transform", "weighted_maximal_fejer", "transform.weighted_maximal_fejer"),
    ("norms", "hardy_norm", "norms.hardy_norm"),
    ("norms", "modulus_of_continuity", "norms.modulus_of_continuity"),
    ("norms", "lp_quasinorm", "norms.lp_quasinorm"),
    ("norms", "norm_report", "norms.norm_report"),
    # the weak-level scan behind both weak_lp_quasinorm and norm_report
    ("norms", "_weak_level_scan", "norms.weak_level_scan"),
    ("counterexamples", "weak_divergence_statistic", "counterexamples.weak_divergence_statistic"),
    ("counterexamples", "modulus_ratio_report", "counterexamples.modulus_ratio_report"),
    ("kernels", "dirichlet_kernel", "kernels.dirichlet_kernel"),
    ("kernels", "fejer_kernel", "kernels.fejer_kernel"),
    ("kernels", "verify_fejer_lower_bounds", "kernels.verify_fejer_lower_bounds"),
    ("reporting", "write_records", "reporting.write_records"),
) + tuple(
    ("acceptance", f"criterion_{k}", f"acceptance.criterion_{k}") for k in range(1, 13)
)

CACHED = ("cell_digit_table", "root_tables")
SETUP_OP = -1  # op id of the workload's set-up in a traced run

# One busy-time metric per experiment runner, as BENCHMARK.json names them;
# a span "experiments.run_<experiment>" wraps each run_experiment call.
EXPERIMENT_METRICS = tuple(
    m["name"]
    for m in json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    if m["name"].startswith("experiments.run_")
)


def _transform_work(vs) -> dict:
    # Computed, not measured: one radix-m_j pass per coordinate reads and
    # writes the complex128 array, and the coefficient permutation reads the
    # array and an int64 index and writes the array once.
    return {
        "cells": vs.size,
        "macs": vs.size * sum(vs.m),
        "bytes": vs.size * (32 * vs.N + 40),
    }


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.op = -1
        self.paused = True
        self.cache_deltas = {name: {"hits": 0, "misses": 0} for name in CACHED}
        self._cache_before: dict = {}
        self._caches: dict = {}
        self._digit_misses = 0

    # -- span recording -------------------------------------------------

    def _begin(self, name: str) -> tuple[int, int]:
        parent = self._stack[-1] if self._stack else -1
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        return sid, parent

    def _end(self, sid: int, parent: int, name: str, start: float, attrs) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans[sid] = (name, start, end, parent, self.op, attrs)

    def _attrs_span(self, fn, *args):
        # Work spent computing span attributes is itself a span, so it is
        # excluded from the caller's self time.
        sid, parent = self._begin("trace.attrs")
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self._end(sid, parent, "trace.attrs", start, None)

    def wrap(self, name: str, fn, attrs=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            extra = tracer._attrs_span(attrs, *args) if attrs else None
            sid, parent = tracer._begin(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._end(sid, parent, name, start, extra)
            if after:
                more = tracer._attrs_span(after, args, result)
                tracer.spans[sid] = tracer.spans[sid][:5] + ({**(extra or {}), **more},)
            return result

        return traced

    def wrap_generator(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                if tracer.paused:
                    yield from gen
                    return
                sid, parent = tracer._begin(name)
                start = time.perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    tracer._end(sid, parent, name, start, None)
                    return
                tracer._end(sid, parent, name, start, {"steps": 1})
                yield item

        return traced

    # -- installation ---------------------------------------------------

    def _rebind(self, original, replacement) -> None:
        for modname, module in list(sys.modules.items()):
            if modname.split(".")[0] != "vilenkin_lab" or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        """Rebind every traced function in the imported ``vilenkin_lab``."""
        lib = {
            name: importlib.import_module(f"vilenkin_lab.{name}")
            for name in ("structure", "transform", "norms", "counterexamples", "kernels",
                         "reporting", "acceptance", "experiments", "rng")
        }
        self._caches = {name: getattr(lib["structure"], name) for name in CACHED}
        attrs = {
            "transform.analyze": lambda f: _transform_work(f.vs),
            "transform.synthesize": lambda s: _transform_work(s.vs),
            "norms.weak_level_scan": lambda f, p: {
                "levels": int(np.count_nonzero(np.unique(np.abs(f.values))))
            },
        }
        after = {
            "structure.cell_digit_table": self._digit_table_bytes,
            "reporting.write_records": lambda args, result: {
                "file_bytes": os.path.getsize(args[1])
            },
        }
        for modname, attr, name in TRACED:
            original = getattr(lib[modname], attr, None)
            if original is None:
                continue  # renamed or removed: its metrics read 0
            self._rebind(original, self.wrap(name, original, attrs.get(name), after.get(name)))

        acceptance = lib["acceptance"]
        self._patched.append((acceptance, "CRITERIA", acceptance.CRITERIA))
        acceptance.CRITERIA = tuple(getattr(acceptance, fn.__name__) for fn in acceptance.CRITERIA)

        original = lib["transform"].iter_fejer_means
        self._rebind(original, self.wrap_generator("transform.iter_fejer_means", original))

        original = lib["experiments"].run_experiment
        self._rebind(
            original,
            self._wrap_named(
                lambda cfg, *a, **k: "experiments.run_" + cfg.experiment.replace("-", "_"),
                original,
            ),
        )

        cls = lib["rng"].XorShift64Star
        self._patched.append((cls, "complex_uniforms", cls.complex_uniforms))
        cls.complex_uniforms = self.wrap(
            "rng.complex_uniforms", cls.complex_uniforms, lambda gen, count: {"samples": int(count)}
        )

    def _wrap_named(self, namer, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            return tracer.wrap(namer(*args, **kwargs), fn)(*args, **kwargs)

        return traced

    def _digit_table_bytes(self, args, result) -> dict:
        misses = self._caches["cell_digit_table"].cache_info().misses
        fresh, self._digit_misses = misses - self._digit_misses, misses
        vs = args[0]
        return {"table_bytes": fresh * vs.N * vs.size * 8}

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._patched):
            setattr(obj, attr, original)
        self._patched.clear()

    # -- op boundaries --------------------------------------------------

    def _cache_infos(self) -> dict:
        return {name: cached.cache_info() for name, cached in self._caches.items()}

    def begin_op(self, op: int) -> None:
        self.op = op
        self._cache_before = self._cache_infos()
        self._digit_misses = self._cache_before["cell_digit_table"].misses
        self.paused = False

    def end_op(self) -> None:
        self.paused = True
        for name, info in self._cache_infos().items():
            before = self._cache_before[name]
            self.cache_deltas[name]["hits"] += info.hits - before.hits
            self.cache_deltas[name]["misses"] += info.misses - before.misses

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# ---------------------------------------------------------------------------
# derived metrics


def span_totals(spans: list, with_setup: bool = False) -> dict:
    """Per span name: calls, inclusive seconds, self seconds, summed attrs."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, op, attrs in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict = {}
    for i, (name, start, end, parent, op, attrs) in enumerate(spans):
        if op == SETUP_OP and not with_setup:
            continue
        t = totals.setdefault(name, {"calls": 0, "total_s": 0.0, "busy_s": 0.0})
        t["calls"] += 1
        t["total_s"] += end - start
        t["busy_s"] += end - start - child_time[i]
        for key, value in (attrs or {}).items():
            t[key] = t.get(key, 0) + value
    return totals


def top_span_seconds(spans: list) -> float:
    return sum(end - start for name, start, end, parent, op, attrs in spans if parent < 0 and op != SETUP_OP)


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


def layer_metrics(spans: list, cache_deltas: dict) -> dict:
    """Per-layer metric values, by the names listed in BENCHMARK.json.

    Time and call counts cover the timed ops; the cache metrics also cover
    set-up, where the tables are built.
    """
    t = span_totals(spans)
    with_setup = span_totals(spans, with_setup=True)

    def get(name: str, key: str) -> float:
        return t.get(name, {}).get(key, 0)

    out: dict = {}
    for fn in ("analyze", "synthesize"):
        name = f"transform.{fn}"
        out[f"{name}.calls"] = get(name, "calls")
        out[f"{name}.busy_s"] = get(name, "busy_s")
        out[f"{name}.cells_per_s"] = _rate(get(name, "cells"), get(name, "busy_s"))
    out["transform.stage_macs"] = get("transform.analyze", "macs") + get("transform.synthesize", "macs")
    out["transform.bytes_moved"] = get("transform.analyze", "bytes") + get("transform.synthesize", "bytes")
    for name in (
        "transform.maximal_function",
        "norms.hardy_norm",
        "norms.modulus_of_continuity",
        "norms.lp_quasinorm",
        "transform.fejer_mean",
        "structure.character_column",
    ):
        out[f"{name}.calls"] = get(name, "calls")
        out[f"{name}.busy_s"] = get(name, "busy_s")

    digit = cache_deltas["cell_digit_table"]
    lookups = digit["hits"] + digit["misses"]
    out["structure.cell_digit_table.misses"] = digit["misses"]
    out["structure.cell_digit_table.hit_ratio"] = digit["hits"] / lookups if lookups else 0.0
    out["structure.cell_digit_table.bytes"] = with_setup.get("structure.cell_digit_table", {}).get("table_bytes", 0)
    out["structure.root_tables.misses"] = cache_deltas["root_tables"]["misses"]

    scan = "norms.weak_level_scan"
    out["norms.weak_lp_quasinorm.calls"] = get(scan, "calls")
    out["norms.weak_lp_quasinorm.busy_s"] = get(scan, "busy_s")
    out["norms.weak_lp_quasinorm.levels"] = get(scan, "levels")
    out["norms.norm_report.busy_s"] = get("norms.norm_report", "busy_s")

    out["rng.complex_uniforms.calls"] = get("rng.complex_uniforms", "calls")
    out["rng.complex_uniforms.samples"] = get("rng.complex_uniforms", "samples")
    out["rng.complex_uniforms.busy_s"] = get("rng.complex_uniforms", "busy_s")
    out["rng.complex_uniforms.samples_per_s"] = _rate(
        get("rng.complex_uniforms", "samples"), get("rng.complex_uniforms", "busy_s")
    )

    sweep = "transform.iter_fejer_means"
    out[f"{sweep}.steps"] = get(sweep, "steps")
    out[f"{sweep}.busy_s"] = get(sweep, "busy_s")
    out[f"{sweep}.steps_per_s"] = _rate(get(sweep, "steps"), get(sweep, "busy_s"))

    for name in (
        "transform.weighted_maximal_fejer",
        "counterexamples.weak_divergence_statistic",
        "counterexamples.modulus_ratio_report",
        "kernels.dirichlet_kernel",
        "kernels.fejer_kernel",
        "kernels.verify_fejer_lower_bounds",
    ):
        out[f"{name}.busy_s"] = get(name, "busy_s")
    for k in range(1, 13):
        out[f"acceptance.criterion_{k}.busy_s"] = get(f"acceptance.criterion_{k}", "busy_s")
    for metric in EXPERIMENT_METRICS:
        out[metric] = get(metric.removesuffix(".busy_s"), "busy_s")
    out["reporting.write_records.calls"] = get("reporting.write_records", "calls")
    out["reporting.write_records.busy_s"] = get("reporting.write_records", "busy_s")
    out["reporting.write_records.bytes"] = get("reporting.write_records", "file_bytes")
    return out
