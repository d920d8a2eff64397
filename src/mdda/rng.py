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
fills run lanes of consecutive steps as in-place uint64 array operations
and scramble the whole block at once.  The state transition is linear
over GF(2) (Blackman & Vigna, "Scrambled linear pseudorandom number
generators", ACM TOMS 2021), so a jump of any number of steps is an XOR
of table rows selected by the state's nibbles: lanes [m, 2m) start where
lanes [0, m) start, jumped by m lanes, one table per doubling.
"""
from __future__ import annotations

import functools
import math
import operator

import numpy as np

_MASK = (1 << 64) - 1

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

# Fills smaller than this run the serial step; larger ones run lanes of
# _LANE_STEPS steps each.  Fill sizes double per stream up to _FILL_CAP
# draws, or to the request if it is larger.
_SERIAL_MAX = 1024
_LANE_STEPS = 64
_FILL_CAP = 16384
# A jump gathers at most this many lanes at once, which bounds its
# temporary to 64 KB.  Column 16 * p of a jump table starts nibble p's
# columns, and row v of _NIBBLE_BITS holds the bits of v.
_JUMP_LANES = 32
_NIBBLE_COLS = np.arange(0, 1024, 16)
_NIBBLE_BITS = np.arange(16, dtype=np.uint64)[:, None] >> np.arange(4, dtype=np.uint64) & np.uint64(1)


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


def _steps(s: np.ndarray, out: np.ndarray | None, steps: int) -> None:
    """Advance each column of ``s`` (4 words x lanes, uint64) by ``steps``
    steps in place; row k of ``out`` (steps x lanes), if given, receives
    each lane's ``s1`` before step k, the scrambler's input."""
    s0, s1, s2, s3 = s
    t = np.empty_like(s1)
    # shift counts as whole arrays, which numpy shifts by fastest
    by17, by45, by19 = (np.full_like(s1, n) for n in (17, 45, 19))
    for k in range(steps):
        if out is not None:
            out[k] = s1
        np.left_shift(s1, by17, out=t)
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        np.left_shift(s3, by45, out=t)
        s3 >>= by19
        s3 |= t


def _jump(states: np.ndarray, table: np.ndarray, out: np.ndarray) -> None:
    """Write into ``out`` the columns of ``states`` (4 words x lanes,
    little-endian uint64) jumped by ``table``: per lane, the XOR of the 64
    table columns that its nibbles select."""
    b = states.view(np.uint8).reshape(4, -1, 8).transpose(1, 0, 2)
    cols = np.stack((b & 15, b >> 4), axis=3).reshape(len(b), 64) + _NIBBLE_COLS
    for lo in range(0, len(cols), _JUMP_LANES):
        hi = lo + _JUMP_LANES
        np.bitwise_xor.reduce(table.take(cols[lo:hi], axis=1), axis=2, out=out[:, lo:hi])


@functools.cache
def _jump_table(r: int) -> np.ndarray:
    """The jump by ``_LANE_STEPS << r`` steps: column ``16 * p + v`` is the
    state that many steps after the state whose only set bits are the bits
    of ``v`` at nibble p, bits 4p to 4p + 3 (bit i being bit i % 64 of word
    i // 64).  Each table squares the one before it."""
    if r == 0:
        rows = np.kron(np.eye(4, dtype="<u8"), np.uint64(1) << np.arange(64, dtype="<u8"))
        _steps(rows, None, _LANE_STEPS)
    else:
        prev = _jump_table(r - 1)
        rows = np.empty((4, 256), dtype="<u8")
        _jump(prev.reshape(4, 64, 16)[:, :, [1, 2, 4, 8]].reshape(4, 256), prev, rows)
    table = np.bitwise_xor.reduce(rows.reshape(4, 64, 1, 4) * _NIBBLE_BITS, axis=3).reshape(4, 1024)
    table.flags.writeable = False
    return table


def _libm(fn, v: np.ndarray) -> np.ndarray:
    """``fn`` of the math module over ``v``, element by element."""
    return np.fromiter(map(fn, v.tolist()), np.float64, v.size)


@functools.cache
def _numpy_trig_is_libm() -> bool:
    """Whether numpy's cos and sin give libm's bits on a fixed spread of
    angles in [0, 2pi): probed once, at the first ``normals`` call."""
    a = (2.0 * math.pi) * (np.arange(4093) * 0.6180339887498949 % 1.0)
    return all(f(a).tobytes() == _libm(getattr(math, f.__name__), a).tobytes() for f in (np.cos, np.sin))


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
        """Consume the next ``n`` raw outputs, as a uint64 array.  A count
        that is not an integer raises before the buffer moves."""
        pos, end = self._pos, self._pos + operator.index(n)
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
        rest = self._buf[self._pos:]
        self._buf = np.concatenate((rest, fresh)) if rest.size else fresh
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
        s = np.empty((4, lanes), dtype="<u8")
        s[:, 0] = (self.s0, self.s1, self.s2, self.s3)
        # lanes [m, 2m) start m lanes' steps after lanes [0, m)
        m, r = 1, 0
        while m < lanes:
            k = min(m, lanes - m)
            _jump(s[:, :k], _jump_table(r), s[:, m:m + k])
            m, r = m + k, r + 1
        out = np.empty((_LANE_STEPS, lanes), dtype=np.uint64)
        _steps(s, out, _LANE_STEPS)
        self.s0, self.s1, self.s2, self.s3 = (int(w) for w in s[:, -1])
        # the scrambler rotl(s1 * 5, 7) * 9, once over the block
        out *= 5
        np.bitwise_or(out << 7, out >> 57, out=out)
        out *= 9
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
        count is a function of `count` alone.  ``log`` is libm's, element
        by element, as numpy's may round differently; so are ``cos`` and
        ``sin`` unless numpy's give libm's bits on the probe angles.
        Blocks of at most one full fill bound the memory this takes."""
        numpy_trig = _numpy_trig_is_libm()
        out = np.empty(count, dtype=np.float64)
        for lo in range(0, count, _FILL_CAP):
            block = out[lo:lo + _FILL_CAP]
            pairs = (block.size + 1) // 2
            x = self._draw(2 * pairs)
            # u1 in (0, 1] so log(u1) is finite
            u1 = ((x[0::2] >> 11) + 1) * 2.0**-53
            a = (2.0 * math.pi) * ((x[1::2] >> 11) * 2.0**-53)
            r = np.sqrt(-2.0 * _libm(math.log, u1))
            cos, sin = (np.cos(a), np.sin(a)) if numpy_trig else (_libm(math.cos, a), _libm(math.sin, a))
            block[0::2] = r * cos
            block[1::2] = (r * sin)[: block.size // 2]
        return out

    def integers(self, count: int, below: int) -> np.ndarray:
        """``count`` uniform integers in [0, below), for ``below`` up to
        2**63: the first ``count`` raw outputs below the largest multiple of
        ``below`` under 2**64, each taken modulo ``below``."""
        if count <= 0:
            return np.empty(0, dtype=np.int64)
        if below <= 0:
            raise ValueError(f"integers requires below >= 1, got {below}")
        if below > 1 << 63:
            raise ValueError(f"integers requires below <= 2**63, got {below}")
        top = np.uint64(((1 << 64) // below) * below - 1)
        x = self._draw(count)
        # never draws past the count-th accepted output
        while x.max() > top:
            x = x[x <= top]
            x = np.concatenate((x, self._draw(count - x.size)))
        return (x % np.uint64(below)).astype(np.int64)

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
