"""Deterministic random number generation.

All randomness in the package flows through xoshiro256** streams seeded
from a single master seed, so runs are reproducible bit-for-bit across
platforms and across independent implementations of the same scheme.
Separate purposes (data sampling, parameter init, minibatch selection)
get separate streams derived from the master seed and a label path, so
adding draws to one consumer never perturbs another.

Stream derivation: the label path is hashed with 64-bit FNV-1a, XORed
into the master seed, and the result is expanded into the 256-bit
xoshiro state with SplitMix64 (the seeding procedure recommended for
the xoshiro family).

Each generator draws raw outputs ahead into a buffer.  A stream has one
consumer, so drawing ahead changes no value it receives; it lets the
array draws convert whole blocks with numpy.  Small fills run the serial
step on Python ints, which is the definition of the sequence.  Large
fills run lanes of consecutive steps as uint64 array operations: the
state transition is linear over GF(2), so the state a lane's worth of
steps ahead is an XOR of precomputed rows selected by the state's bits
(Blackman & Vigna, "Scrambled linear pseudorandom number generators",
ACM TOMS 2021).
"""
from __future__ import annotations

import functools
import math

import numpy as np

_MASK = (1 << 64) - 1

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

# Fills smaller than this run the serial step; larger ones run lanes of
# _LANE_STEPS steps each.  Fill sizes double per stream up to _FILL_CAP
# draws, or to the request if it is larger.
_SERIAL_MAX = 1024
_LANE_STEPS = 128
_FILL_CAP = 16384


def _fnv1a(data: bytes) -> int:
    h = _FNV_OFFSET
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & _MASK
    return h


def _splitmix64(state: int) -> tuple[int, int]:
    state = (state + 0x9E3779B97F4A7C15) & _MASK
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return state, z ^ (z >> 31)


def _run_lanes(states: np.ndarray, out: np.ndarray | None, steps: int) -> np.ndarray:
    """Advance each row of ``states`` (lanes x 4 words, uint64) by ``steps``
    steps and return the new states; row k of ``out`` (steps x lanes), if
    given, receives the outputs of step k."""
    s0, s1, s2, s3 = (states[:, w].copy() for w in range(4))
    for k in range(steps):
        if out is not None:
            r = s1 * 5
            out[k] = ((r << 7) | (r >> 57)) * 9
        t = s1 << 17
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = (s3 << 45) | (s3 >> 19)
    return np.stack((s0, s1, s2, s3), axis=1)


@functools.cache
def _jump_table() -> np.ndarray:
    """Row i is the state _LANE_STEPS steps after the state whose only set
    bit is bit i (bit i % 64 of word i // 64)."""
    basis = np.packbits(np.eye(256, dtype=np.uint8), axis=1, bitorder="little").view("<u8")
    table = _run_lanes(basis, None, _LANE_STEPS)
    table.flags.writeable = False
    return table


class Xoshiro256:
    """xoshiro256** generator over a 256-bit state.

    ``(s0, s1, s2, s3)`` is the state after the last buffered output;
    ``_buf[_pos:]`` holds the outputs drawn ahead and not yet consumed.
    """

    __slots__ = ("s0", "s1", "s2", "s3", "_buf", "_pos", "_fill")

    def __init__(self, seed: int):
        sm = seed & _MASK
        sm, self.s0 = _splitmix64(sm)
        sm, self.s1 = _splitmix64(sm)
        sm, self.s2 = _splitmix64(sm)
        sm, self.s3 = _splitmix64(sm)
        # All-zero state is a fixed point; SplitMix64 cannot produce it
        # from the four consecutive outputs, but guard anyway.
        if self.s0 == self.s1 == self.s2 == self.s3 == 0:
            self.s3 = 1
        self._buf = np.empty(0, dtype=np.uint64)
        self._pos = 0
        self._fill = 0

    def next_u64(self) -> int:
        return int(self._draw(1)[0])

    # ---- the raw output buffer ------------------------------------------

    def _draw(self, n: int) -> np.ndarray:
        """Consume the next ``n`` raw outputs, as a uint64 array."""
        pos, end = self._pos, self._pos + n
        if end > self._buf.size:
            self._refill(end - self._buf.size)
            pos, end = 0, n
        self._pos = end
        return self._buf[pos:end]

    def _refill(self, short: int) -> None:
        """Keep the unconsumed outputs and append at least ``short`` more."""
        size = max(short, min(2 * self._fill, _FILL_CAP))
        self._fill = size
        fresh = self._serial(size) if size < _SERIAL_MAX else self._lanes(-(-size // _LANE_STEPS))
        self._buf = np.concatenate((self._buf[self._pos:], fresh))
        self._pos = 0

    def _serial(self, n: int) -> np.ndarray:
        """The next ``n`` outputs by the xoshiro256** step."""
        s0, s1, s2, s3 = self.s0, self.s1, self.s2, self.s3
        out = [0] * n
        for i in range(n):
            r = (s1 * 5) & _MASK
            out[i] = ((((r << 7) | (r >> 57)) & _MASK) * 9) & _MASK
            t = (s1 << 17) & _MASK
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            s3 = ((s3 << 45) | (s3 >> 19)) & _MASK
        self.s0, self.s1, self.s2, self.s3 = s0, s1, s2, s3
        return np.array(out, dtype=np.uint64)

    def _lanes(self, lanes: int) -> np.ndarray:
        """The next ``lanes * _LANE_STEPS`` outputs: lane j runs the steps
        from ``j * _LANE_STEPS`` on, all lanes at once."""
        table = _jump_table()
        starts = np.empty((lanes, 4), dtype="<u8")
        starts[0] = (self.s0, self.s1, self.s2, self.s3)
        for j in range(1, lanes):
            bits = np.unpackbits(starts[j - 1].view(np.uint8), bitorder="little")
            starts[j] = np.bitwise_xor.reduce(table.compress(bits, axis=0), axis=0)
        out = np.empty((_LANE_STEPS, lanes), dtype=np.uint64)
        end = _run_lanes(starts, out, _LANE_STEPS)[-1]
        self.s0, self.s1, self.s2, self.s3 = (int(w) for w in end)
        return out.T.ravel()

    # ---- draws ----------------------------------------------------------

    def randint_below(self, n: int) -> int:
        """Uniform integer in [0, n), unbiased via rejection."""
        return int(self.integers(1, below=n)[0])

    def uniforms(self, count: int, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        # 53 random bits -> [0, 1)
        x = self._draw(max(count, 0))
        return low + (high - low) * ((x >> 11) * 2.0**-53)

    def normals(self, count: int) -> np.ndarray:
        """Standard normals via Box-Muller; pairs are drawn per call and
        an unused spare from an odd count is discarded, so the draw
        count is a function of `count` alone.  ``log``, ``cos`` and
        ``sin`` are libm's, element by element, as numpy's may round
        differently; blocks of at most one full fill bound the memory
        this takes."""
        out = np.empty(count, dtype=np.float64)
        for lo in range(0, count, _FILL_CAP):
            block = out[lo:lo + _FILL_CAP]
            pairs = (block.size + 1) // 2
            x = self._draw(2 * pairs)
            # u1 in (0, 1] so log(u1) is finite
            u1 = ((x[0::2] >> 11) + 1) * 2.0**-53
            a = (2.0 * math.pi) * ((x[1::2] >> 11) * 2.0**-53)
            r = np.sqrt(-2.0 * np.fromiter(map(math.log, u1.tolist()), np.float64, pairs))
            block[0::2] = r * np.fromiter(map(math.cos, a.tolist()), np.float64, pairs)
            block[1::2] = (r * np.fromiter(map(math.sin, a.tolist()), np.float64, pairs))[: block.size // 2]
        return out

    def integers(self, count: int, below: int) -> np.ndarray:
        """``count`` uniform integers in [0, below): the first ``count``
        raw outputs below the largest multiple of ``below`` under 2**64,
        each taken modulo ``below``."""
        if count <= 0:
            return np.empty(0, dtype=np.int64)
        if below <= 0:
            raise ValueError("randint_below requires n >= 1")
        top = np.uint64(((1 << 64) // below) * below - 1)
        parts, need = [], count
        # never draws past the count-th accepted output
        while need:
            x = self._draw(need)
            x = x[x <= top]
            parts.append(x)
            need -= x.size
        return (np.concatenate(parts) % np.uint64(below)).astype(np.int64)

    def permutation(self, n: int) -> np.ndarray:
        perm = np.arange(n, dtype=np.int64)
        for i in range(n - 1, 0, -1):
            j = self.randint_below(i + 1)
            perm[i], perm[j] = perm[j], perm[i]
        return perm


def stream(master_seed: int, *labels) -> Xoshiro256:
    """Derive the stream for a purpose identified by a label path.

    The same (master_seed, labels) always yields the same stream, and
    distinct label paths yield independent streams.
    """
    path = "/".join(str(part) for part in labels)
    return Xoshiro256((master_seed & _MASK) ^ _fnv1a(path.encode("utf-8")))
