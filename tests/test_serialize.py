import numpy as np
import pytest

from vilenkin_lab.rng import XorShift64Star
from vilenkin_lab.serialize import (
    function_from_dict,
    function_to_dict,
    load_function,
    save_function,
    structure_from_dict,
    structure_to_dict,
)
from vilenkin_lab.structure import VilenkinStructure
from vilenkin_lab.transform import Spectrum, StepFunction


def test_structure_round_trip(mixed2323):
    assert structure_from_dict(structure_to_dict(mixed2323)) == mixed2323


def test_step_function_round_trip(mixed2323):
    f = StepFunction(mixed2323, XorShift64Star(5).complex_uniforms(mixed2323.size))
    d = function_to_dict(f)
    assert d["kind"] == "values"
    assert len(d["data"]) == mixed2323.size
    back = function_from_dict(d)
    assert isinstance(back, StepFunction)
    assert np.array_equal(back.values, f.values)


def test_spectrum_round_trip_on_disk(tmp_path, mixed232):
    s = Spectrum(mixed232, XorShift64Star(6).complex_uniforms(mixed232.size))
    path = tmp_path / "spec.json"
    save_function(s, path)
    back = load_function(path)
    assert isinstance(back, Spectrum)
    assert back.vs == mixed232
    assert np.array_equal(back.coeffs, s.coeffs)


def test_unsupported_object_rejected():
    with pytest.raises(TypeError):
        function_to_dict([1, 2, 3])


def test_bad_kind_rejected(mixed232):
    d = function_to_dict(Spectrum(mixed232, np.zeros(12)))
    d["kind"] = "other"
    with pytest.raises(ValueError):
        function_from_dict(d)


def test_length_mismatch_rejected(mixed232):
    d = function_to_dict(Spectrum(mixed232, np.zeros(12)))
    d["data"] = d["data"][:-1]
    with pytest.raises(ValueError):
        function_from_dict(d)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: list(d.values()),
        lambda d: {k: v for k, v in d.items() if k != "structure"},
        lambda d: {k: v for k, v in d.items() if k != "kind"},
        lambda d: {k: v for k, v in d.items() if k != "data"},
        lambda d: {**d, "extra": 1},
        lambda d: {**d, "structure": {"m": [2, 2.7]}},
        lambda d: {**d, "structure": {"m": [2, True]}},
        lambda d: {**d, "structure": {"n": [2, 2]}},
        lambda d: {**d, "structure": {"m": 4}},
        lambda d: {**d, "data": [["0", "1"]] * 4},
        lambda d: {**d, "data": [[0.0, 1.0]] * 3 + [[0.0]]},
        lambda d: {**d, "data": [[None, 1.0]] * 4},
    ],
    ids=["top-level-list", "no-structure", "no-kind", "no-data", "extra-key", "m-entry-float",
         "m-entry-bool", "no-m", "m-not-list", "data-strings", "data-ragged", "data-null"],
)
def test_malformed_dict_raises_value_error(mutate):
    vs = VilenkinStructure.from_m((2, 2))
    d = function_to_dict(Spectrum(vs, np.zeros(vs.size)))
    function_from_dict(d)
    with pytest.raises(ValueError):
        function_from_dict(mutate(d))


def test_from_m_takes_integers_only():
    assert VilenkinStructure.from_m([np.int64(3), 2]).m == (3, 2)
    for m in ([2, 2.7], [2, 2.0], [3, True], [2, "3"]):
        with pytest.raises(ValueError):
            VilenkinStructure.from_m(m)
    with pytest.raises(ValueError):
        VilenkinStructure.from_pattern([2.0], 3)
