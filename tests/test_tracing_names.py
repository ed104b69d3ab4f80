"""The benchmark tracer reads some library names by a bare ``getattr``.

``perfbench/tracing.py`` is loaded here as it is, so renaming or deleting a
name it needs fails this test instead of the traced benchmark run.
"""

import importlib.util
from pathlib import Path

import vilenkin_lab.structure as structure

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_cached_names_are_lru_caches_of_structure():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.CACHED
    for name in tracing.CACHED:
        cached = getattr(structure, name, None)
        assert cached is not None, f"structure.{name} is gone"
        assert callable(getattr(cached, "cache_info", None)), f"structure.{name} is not lru_cached"
