"""Seedable generator for reproducible randomized inputs.

The generator is xorshift64*, defined entirely by its update formula so
the same 64-bit seed yields the same sample sequence in any language:

    state ^= state >> 12
    state ^= (state << 25) mod 2^64
    state ^= state >> 27
    output = (state * 2685821657736338717) mod 2^64

Doubles in [0, 1) take the top 53 bits: (output >> 11) * 2^-53.  A zero
seed is remapped to the constant 0x9E3779B97F4A7C15 because the all-zero
state is a fixed point of the update.

``next_u64`` is that formula step by step.  Arrays are drawn from the same
stream in lanes (the jump-ahead of Haramoto et al., "Efficient jump ahead
for F2-linear random number generators", INFORMS J. Comput. 2008): the
state update is a linear map T on 64-bit vectors over GF(2), so lane j of
length B starts at T^(jB) applied to the current state, every lane is
stepped at once in uint64 arithmetic, and the lane outputs are read back in
stream order.  The samples, and the state left behind, are bitwise those of
the scalar recurrence.
"""

from __future__ import annotations

import functools

import numpy as np

_MASK = (1 << 64) - 1
_MULT = 2685821657736338717
_ZERO_SEED = 0x9E3779B97F4A7C15

# Lanes are 16 steps long (fewer when fewer outputs are drawn): on 512 to
# 2^21 outputs, lengths 8 to 32 ran within 10% of each other, and shorter
# lanes mean more jumps, longer ones more numpy calls per output.
_LANE_LENGTH = 16


class XorShift64Star:
    def __init__(self, seed: int) -> None:
        state = int(seed) & _MASK
        self._state = state if state else _ZERO_SEED

    def next_u64(self) -> int:
        x = self._state
        x ^= x >> 12
        x = (x ^ (x << 25)) & _MASK
        x ^= x >> 27
        self._state = x
        return (x * _MULT) & _MASK

    def complex_uniforms(self, count: int) -> np.ndarray:
        """Complex samples with real and imaginary parts uniform on [-1, 1).

        Sample i takes doubles 2i (real part) and 2i + 1 (imaginary part) of
        the stream, each mapped by u -> 2u - 1.
        """
        if count < 0:
            raise ValueError("cannot draw a negative number of samples")
        if count == 0:
            return np.empty(0, np.complex128)
        n = 2 * count
        length = min(_LANE_LENGTH, n)
        lanes = -(-n // length)
        starts = np.empty(lanes, dtype=np.uint64)
        starts[0] = self._state
        done = 1
        while done < lanes:  # lane j + done starts done * length steps after lane j
            more = min(done, lanes - done)
            starts[done : done + more] = _jump(starts[:more], done * length)
            done += more
        states = np.empty((length, lanes), dtype=np.uint64)
        tmp = np.empty(lanes, dtype=np.uint64)
        x = starts
        for row in states:
            np.right_shift(x, 12, out=row)
            row ^= x
            np.left_shift(row, 25, out=tmp)
            row ^= tmp
            np.right_shift(row, 27, out=tmp)
            row ^= tmp
            x = row
        # stream step n is step (n - 1) % length of lane (n - 1) // length
        self._state = int(states[(n - 1) % length, (n - 1) // length])
        out = np.multiply(states.T, _MULT, out=np.empty((lanes, length), dtype=np.uint64))
        out >>= 11
        # 2u - 1 with u = k * 2^-53 is k * 2^-52 - 1 bit for bit: scaling
        # by a power of two is exact, so only the subtraction rounds.
        u = out.reshape(-1)[:n] * 2.0**-52
        u -= 1.0
        return u.view(np.complex128)


def _jump(states: np.ndarray, steps: int) -> np.ndarray:
    """Each uint64 state advanced by ``steps`` applications of the update."""
    out = states
    for e in range(steps.bit_length()):
        if steps >> e & 1:
            table = _jump_table(e)
            x = out
            out = table[0][x & 0xFF]
            for q in range(1, 8):
                out ^= table[q][(x >> 8 * q) & 0xFF]
    return out


@functools.cache
def _jump_table(e: int) -> np.ndarray:
    """T^(2^e) as byte tables: entry [q, v] is the image of the state v << 8q.

    The image of any state is the XOR of the entries of its eight bytes.
    """
    if e == 0:
        cols = np.empty(64, dtype=np.uint64)
        for b in range(64):
            gen = XorShift64Star(1 << b)
            gen.next_u64()
            cols[b] = gen._state
    else:
        half = 1 << (e - 1)
        units = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))
        cols = _jump(_jump(units, half), half)
    bits = (np.arange(256)[:, None] >> np.arange(8)) & 1  # [v, b]: bit b of v
    terms = np.where(bits.astype(bool), cols.reshape(8, 1, 8), np.uint64(0))
    table = np.bitwise_xor.reduce(terms, axis=2)
    table.flags.writeable = False
    return table
