"""JSON form for structures, step functions, and spectra.

The on-disk shape is ``{"structure": {"m": [...]}, "kind": "values" |
"coeffs", "data": [[re, im], ...]}``; ``data`` holds one pair per cell or
coefficient in canonical order.  Floats round-trip exactly through
``json`` (repr-based), so save/load is lossless.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

import numpy as np

from .reporting import overwrite
from .structure import VilenkinStructure
from .transform import Spectrum, StepFunction

FunctionLike = Union[StepFunction, Spectrum]


def structure_to_dict(vs: VilenkinStructure) -> dict:
    return {"m": list(vs.m)}


def structure_from_dict(d: dict) -> VilenkinStructure:
    if not isinstance(d, dict) or not isinstance(d.get("m"), list):
        raise ValueError(f"structure must be an object with a list m, got {d!r}")
    return VilenkinStructure.from_m(d["m"])


def function_to_dict(obj: FunctionLike) -> dict:
    if isinstance(obj, StepFunction):
        kind, data = "values", obj.values
    elif isinstance(obj, Spectrum):
        kind, data = "coeffs", obj.coeffs
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    return {
        "structure": structure_to_dict(obj.vs),
        "kind": kind,
        "data": [[float(z.real), float(z.imag)] for z in data],
    }


def function_from_dict(d: dict) -> FunctionLike:
    """Inverse of :func:`function_to_dict`; any other shape is a ``ValueError``."""
    if not isinstance(d, dict) or d.keys() != {"structure", "kind", "data"}:
        raise ValueError("a function must be an object with exactly structure, kind and data")
    kinds = {"values": StepFunction, "coeffs": Spectrum}
    if d["kind"] not in kinds:
        raise ValueError(f"unknown kind {d['kind']!r}")
    vs = structure_from_dict(d["structure"])
    pairs = np.asarray(d["data"])
    if pairs.shape != (vs.size, 2) or pairs.dtype.kind not in "iuf":
        raise ValueError(f"expected {vs.size} [re, im] pairs of numbers, got {pairs.dtype} of shape {pairs.shape}")
    data = pairs[:, 0] + 1j * pairs[:, 1]
    return kinds[d["kind"]](vs, data)


def save_function(obj: FunctionLike, path: str | Path) -> None:
    overwrite(path, json.dumps(function_to_dict(obj)))


def load_function(path: str | Path) -> FunctionLike:
    return function_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
