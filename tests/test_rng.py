"""The buffered, lane-parallel xoshiro256** streams: known answers, and
byte-for-byte parity with the pure-Python reference generator over call
sequences that cross serial fills, lane fills and lane boundaries."""
from __future__ import annotations

import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mdda.rng
from helpers import ReferenceXoshiro256
from mdda.rng import _FILL_CAP, _LANE_STEPS, Xoshiro256, _jump_table, stream


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
    with pytest.raises(ValueError, match=r"^integers requires below >= 1, got 0$"):
        gen.integers(3, below=0)


@pytest.mark.parametrize("call, error", [
    pytest.param(lambda gen: gen.integers(8, below=2**64 - 1), ValueError, id="below-2**64-1"),
    pytest.param(lambda gen: gen.integers(8, below=2**64), ValueError, id="below-2**64"),
    pytest.param(lambda gen: gen.integers(2.5, below=3), TypeError, id="integers-count-2.5"),
    pytest.param(lambda gen: gen.uniforms(2.5), TypeError, id="uniforms-count-2.5"),
])
def test_a_draw_it_cannot_honour_raises_before_the_stream_moves(call, error):
    gen, ref = Xoshiro256(3), ReferenceXoshiro256(3)
    assert gen.next_u64() == ref.next_u64()
    with pytest.raises(error):
        call(gen)
    assert gen.next_u64() == ref.next_u64()
    assert gen.integers(4, below=2**63).tolist() == ref.integers(4, below=2**63).tolist()


# Fill sizes that the workloads make (1,024 and 16,384 draws, and a request
# of 20,000, above the cap, which reaches a ninth doubling round), and one
# whose lane count is not a power of two.  The bound of `integers` rejects
# about a third of the raw draws, so a second fill follows the first.
_DRAWS = {
    "integers": lambda gen, n: gen.integers(n, below=2**64 // 3 + 1),
    "uniforms": lambda gen, n: gen.uniforms(n),
    "next_u64": lambda gen, n: [gen.next_u64() for _ in range(n)],
}


@pytest.mark.parametrize("method", sorted(_DRAWS))
@pytest.mark.parametrize("size", [1024, 5000, _FILL_CAP, 20000])
def test_fills_of_the_workload_sizes_match_the_reference(size, method):
    draw = _DRAWS[method]
    gen, ref = Xoshiro256(size), ReferenceXoshiro256(size)
    assert _as_bytes(draw(gen, size)) == _as_bytes(draw(ref, size))
    ahead = gen._buf[gen._pos:].tolist()
    assert ahead == [ref.next_u64() for _ in ahead]
    assert (gen.s0, gen.s1, gen.s2, gen.s3) == (ref.s0, ref.s1, ref.s2, ref.s3)
    # each doubling round's table is built once, on first use
    built = _jump_table.cache_info()
    assert built.misses == built.currsize >= (-(-size // _LANE_STEPS) - 1).bit_length()
    draw(Xoshiro256(size + 1), size)
    assert _jump_table.cache_info().misses == built.misses


@pytest.mark.parametrize("count", [2 * _FILL_CAP, 2 * _FILL_CAP + 1])
def test_normals_longer_than_a_fill_match_the_reference(count):
    # normals converts one fill's worth at a time
    gen, ref = Xoshiro256(9), ReferenceXoshiro256(9)
    assert gen.next_u64() == ref.next_u64()
    assert gen.normals(count).tobytes() == ref.normals(count).tobytes()
    assert gen.next_u64() == ref.next_u64()


@pytest.mark.parametrize("matches", [True, False], ids=["numpy-trig", "libm-fallback"])
@pytest.mark.parametrize("count", [1, 3, 2 * _FILL_CAP + 1, 5001])
def test_normals_match_the_reference_whatever_the_trig_probe_says(count, matches, monkeypatch):
    mapped, libm = set(), mdda.rng._libm
    monkeypatch.setattr(mdda.rng, "_libm", lambda fn, v: mapped.add(fn.__name__) or libm(fn, v))
    monkeypatch.setattr(mdda.rng, "_numpy_trig_is_libm", lambda: matches)
    gen, ref = Xoshiro256(count), ReferenceXoshiro256(count)
    assert gen.normals(count).tobytes() == ref.normals(count).tobytes()
    assert gen.next_u64() == ref.next_u64()
    assert mapped == ({"log"} if matches else {"log", "cos", "sin"})


def test_the_trig_probe_runs_at_the_first_normals_call_not_at_import():
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(mdda.rng.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    code = ("import mdda, mdda.rng as r; probed = r._numpy_trig_is_libm.cache_info; before = probed().currsize; "
            "r.stream(1).normals(3); print(before, probed().currsize)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.split()
    assert out == ["0", "1"]


# Small counts stay on the serial fill; large ones force lane fills.
_COUNTS = st.one_of(st.integers(0, 40), st.integers(1000, 3000))
_BOUND = st.floats(allow_nan=False, allow_infinity=False)
_CALLS = st.one_of(
    st.tuples(st.just("next_u64")),
    st.tuples(st.just("integers"), _COUNTS, st.sampled_from([1, 2, 3, 2**40, 2**64 // 3 + 1])),
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
