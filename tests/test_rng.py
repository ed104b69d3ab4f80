import numpy as np
import pytest

from vilenkin_lab import rng as rng_module
from vilenkin_lab.rng import XorShift64Star


def reference_stream(seed, count):
    # independent re-implementation of the documented update formula
    mask = (1 << 64) - 1
    x = seed & mask
    if x == 0:
        x = 0x9E3779B97F4A7C15
    out = []
    for _ in range(count):
        x ^= x >> 12
        x = (x ^ (x << 25)) & mask
        x ^= x >> 27
        out.append((x * 2685821657736338717) & mask)
    return out


def test_matches_reference_formula():
    gen = XorShift64Star(123456789)
    assert [gen.next_u64() for _ in range(8)] == reference_stream(123456789, 8)


def test_zero_seed_remapped():
    assert XorShift64Star(0).next_u64() == XorShift64Star(0x9E3779B97F4A7C15).next_u64()


def test_determinism():
    a = XorShift64Star(42).complex_uniforms(100)
    b = XorShift64Star(42).complex_uniforms(100)
    assert np.array_equal(a, b)


def test_complex_uniform_box():
    z = XorShift64Star(9).complex_uniforms(500)
    parts = z.view(np.float64)
    assert np.all((-1 <= parts) & (parts < 1))
    assert abs(z.real.mean()) < 0.1 and abs(z.imag.mean()) < 0.1


def reference_doubles(seed, count):
    # the documented mapping applied to the scalar stream, one double at a time
    return [(u >> 11) * 2.0**-53 for u in reference_stream(seed, count)]


def reference_complex(seed, count):
    d = [2.0 * u - 1.0 for u in reference_doubles(seed, 2 * count)]
    return np.array([complex(re, im) for re, im in zip(d[0::2], d[1::2])], dtype=np.complex128)


# 0-3, both sides of one full lane, of whole lanes and of power-of-two lane
# counts (jump doublings), and the benchmark's 172800
LENGTH = rng_module._LANE_LENGTH
LANE_BOUNDARY_COUNTS = sorted(
    {0, 1, 2, 3, 172800}
    | {b + d for b in (LENGTH, LENGTH * 64, LENGTH * 1000, LENGTH * 1024) for d in (-1, 0, 1)}
)


@pytest.mark.parametrize("count", LANE_BOUNDARY_COUNTS)
def test_arrays_are_the_scalar_stream(count):
    gen = XorShift64Star(2024)
    z = gen.complex_uniforms(count)
    assert z.dtype == np.complex128 and z.shape == (count,)
    assert z.tobytes() == reference_complex(2024, count).tobytes()
    assert gen.next_u64() == reference_stream(2024, 2 * count + 1)[-1]


def test_interleaved_scalar_and_array_draws():
    gen = XorShift64Star(31)
    oracle = XorShift64Star(31)
    for count in (5, 700, 1, 3000, 0, 256):
        assert gen.next_u64() == oracle.next_u64()
        z = gen.complex_uniforms(count)
        expected = [2.0 * ((oracle.next_u64() >> 11) * 2.0**-53) - 1.0 for _ in range(2 * count)]
        assert z.view(np.float64).tolist() == expected
    assert gen.next_u64() == oracle.next_u64()


@pytest.mark.parametrize("count", [3, 1000])
def test_zero_seed_arrays(count):
    z = XorShift64Star(0).complex_uniforms(count)
    assert z.tobytes() == XorShift64Star(0x9E3779B97F4A7C15).complex_uniforms(count).tobytes()
    assert z.tobytes() == reference_complex(0, count).tobytes()


def test_negative_count_rejected():
    gen = XorShift64Star(5)
    with pytest.raises(ValueError):
        gen.complex_uniforms(-1)
    assert gen.next_u64() == reference_stream(5, 1)[0]


@pytest.mark.parametrize("steps", [1, 2, 63, 64, 1000, 10**5])
def test_jump_matches_scalar_steps(steps):
    gen = XorShift64Star(987654321)
    starts = np.array([gen._state, 1, 1 << 63, rng_module._MASK], dtype=np.uint64)
    expected = []
    for s in starts.tolist():
        g = XorShift64Star(s)
        for _ in range(steps):
            g.next_u64()
        expected.append(g._state)
    assert rng_module._jump(starts, steps).tolist() == expected
