"""The benchmark tracer reads some library names by a bare ``getattr``.

``perfbench/tracing.py`` is loaded here as it is, so renaming or deleting a
name it needs fails this test instead of the traced benchmark run.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import vilenkin_lab.structure as structure

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

# (module, dotted name) read without a fallback by Tracer.install
BARE_NAMES = (
    ("transform", "iter_fejer_means"),
    ("experiments", "run_experiment"),
    ("rng", "XorShift64Star"),
    ("rng", "XorShift64Star.complex_uniforms"),
    ("acceptance", "CRITERIA"),
)


# (module, name) in tracing.TRACED deleted from the library on purpose: the
# tracer skips them, so their metrics read 0 until ROADMAP item 1's
# benchmark change retargets them to the name given here.
RETIRED = {
    ("structure", "character_column"): ("structure.character_rows", "transform.character_blocks"),
}


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_cached_names_are_lru_caches_of_structure():
    tracing = load_tracing()
    assert tracing.CACHED
    for name in tracing.CACHED:
        cached = getattr(structure, name, None)
        assert cached is not None, f"structure.{name} is gone"
        assert callable(getattr(cached, "cache_info", None)), f"structure.{name} is not lru_cached"


def test_bare_names_exist():
    for module, dotted in BARE_NAMES:
        obj = importlib.import_module(f"vilenkin_lab.{module}")
        for part in dotted.split("."):
            obj = getattr(obj, part, None)
            assert obj is not None, f"{module}.{dotted} is gone"
    transform = importlib.import_module("vilenkin_lab.transform")
    # the tracer wraps it as a generator and counts one step per yield
    assert inspect.isgeneratorfunction(transform.iter_fejer_means)


def test_every_bare_module_read_is_guarded():
    # Each lib["<module>"].<name> in tracing.py must be one of BARE_NAMES.
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    read = {
        (node.value.slice.value, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Subscript)
        and isinstance(node.value.value, ast.Name)
        and node.value.value.id == "lib"
        and isinstance(node.value.slice, ast.Constant)
    }
    assert read
    assert read <= {(module, dotted.split(".")[0]) for module, dotted in BARE_NAMES}


def test_every_traced_name_resolves_or_is_retired():
    # Tracer.install skips a traced name it cannot find, without a word.
    traced = {(module, attr) for module, attr, _ in load_tracing().TRACED}
    for module, attr in sorted(traced - RETIRED.keys()):
        obj = importlib.import_module(f"vilenkin_lab.{module}")
        assert getattr(obj, attr, None) is not None, f"traced {module}.{attr} is gone"
    for (module, attr), retarget in RETIRED.items():
        assert (module, attr) in traced, f"{module}.{attr} is no longer traced: drop it here"
        obj = importlib.import_module(f"vilenkin_lab.{module}")
        assert getattr(obj, attr, None) is None, f"{module}.{attr} is back: drop it here"
        for name in retarget:
            retarget_module, retarget_attr = name.split(".")
            assert hasattr(importlib.import_module(f"vilenkin_lab.{retarget_module}"), retarget_attr), name
