"""The buffered, lane-parallel xoshiro256** streams: known answers, and
byte-for-byte parity with the pure-Python reference generator over call
sequences that cross serial fills, lane fills and lane boundaries."""
from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ReferenceXoshiro256
from mdda.rng import _FILL_CAP, Xoshiro256, stream


def test_first_outputs_of_seed_zero():
    gen = Xoshiro256(0)
    assert [gen.next_u64() for _ in range(8)] == [
        0x99EC5F36CB75F2B4, 0xBF6E1F784956452A, 0x1A5F849D4933E6E0, 0x6AA594F1262D2D2C,
        0xBBA5AD4A1F842E59, 0xFFEF8375D9EBCACA, 0x6C160DEED2F54C98, 0x8920AD648FC30A3F,
    ]


def test_first_outputs_of_a_labelled_stream():
    gen = stream(11, "seed0", "data", "near")
    assert [gen.next_u64() for _ in range(8)] == [
        0x7EF1F74F5081F8B3, 0x63B90353A10793C8, 0xB522DF0605C774DD, 0x369CB8042D4078CD,
        0x89B0A8D8680264C8, 0xD0FFA265DAAFC216, 0x98C4C7A6677DC2A8, 0x8B9C9EB297295989,
    ]


def test_array_draws_of_a_labelled_stream():
    gen = stream(11, "seed0", "data", "near")
    digest = hashlib.sha256()
    digest.update(gen.integers(1000, below=3).tobytes())
    digest.update(gen.uniforms(1000, -2.0, 2.0).tobytes())
    digest.update(gen.normals(1001).tobytes())
    assert digest.hexdigest() == "3a4be1f5cb13e9c854a77e395982b02eaaefe57ba032504582e76da7c4f45011"


def test_count_zero_draws_nothing_whatever_the_bound():
    gen, ref = Xoshiro256(5), ReferenceXoshiro256(5)
    for below in (0, -3, 7):
        assert gen.integers(0, below=below).dtype == np.int64
        assert gen.integers(0, below=below).size == 0
    assert gen.uniforms(0).size == 0 and gen.normals(0).size == 0
    assert gen.next_u64() == ref.next_u64()
    with pytest.raises(ValueError, match="n >= 1"):
        gen.integers(3, below=0)


@pytest.mark.parametrize("count", [2 * _FILL_CAP, 2 * _FILL_CAP + 1])
def test_normals_longer_than_a_fill_match_the_reference(count):
    # normals converts one fill's worth at a time
    gen, ref = Xoshiro256(9), ReferenceXoshiro256(9)
    assert gen.next_u64() == ref.next_u64()
    assert gen.normals(count).tobytes() == ref.normals(count).tobytes()
    assert gen.next_u64() == ref.next_u64()


# Small counts stay on the serial fill; large ones force lane fills.
_COUNTS = st.one_of(st.integers(0, 40), st.integers(1000, 3000))
_BOUND = st.floats(allow_nan=False, allow_infinity=False)
_CALLS = st.one_of(
    st.tuples(st.just("next_u64")),
    st.tuples(st.just("integers"), _COUNTS, st.sampled_from([1, 2, 3, 2**40, 2**63 + 1])),
    st.tuples(st.just("uniforms"), _COUNTS, _BOUND, _BOUND),
    st.tuples(st.just("normals"), _COUNTS),
    st.tuples(st.just("permutation"), st.integers(0, 40)),
)


def _as_bytes(value):
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    return value


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), calls=st.lists(_CALLS, max_size=10))
def test_draws_are_byte_equal_to_the_reference(seed, calls):
    gen, ref = Xoshiro256(seed), ReferenceXoshiro256(seed)
    for name, *args in calls:
        assert _as_bytes(getattr(gen, name)(*args)) == _as_bytes(getattr(ref, name)(*args)), (name, args)
    # The outputs drawn ahead are the reference's next ones, and the state
    # after them is the reference's state.
    ahead = gen._buf[gen._pos:].tolist()
    assert ahead == [ref.next_u64() for _ in ahead]
    assert (gen.s0, gen.s1, gen.s2, gen.s3) == (ref.s0, ref.s1, ref.s2, ref.s3)
