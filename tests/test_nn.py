"""Fully-connected networks: construction, initialization statistics,
forward oracles, cloning, the optimizer, trainability, and the binary
parameter-file format."""
from __future__ import annotations

import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdda.autodiff import Tape, Tensor, backward, matmul, softmax_cross_entropy
from mdda.errors import ConfigError, DataFormatError, NonFiniteError, ShapeError
from mdda.nn import (
    MlpConfig,
    _gradient_row,
    adam,
    clone_mlp,
    forward,
    init_mlp,
    load_mlp,
    load_params,
    save_params,
    step,
)
from mdda.rng import stream

from helpers import ReferenceAdam, assign


# ---------------------------------------------------------------------------
# configuration


def test_config_validation():
    cfg = MlpConfig((2, 8, 3))
    assert cfg.d_in == 2 and cfg.d_out == 3
    with pytest.raises(ConfigError):
        MlpConfig((2,))
    with pytest.raises(ConfigError):
        MlpConfig((2, 0, 3))
    with pytest.raises(ConfigError):
        MlpConfig((2, 3), activation="sigmoid")
    with pytest.raises(ConfigError):
        MlpConfig((2, 3), activation="leaky_relu", leaky_slope=1.5)
    with pytest.raises(ConfigError):
        MlpConfig((2, 3), final_activation="relu")
    with pytest.raises(ConfigError, match="learning_rate"):
        adam(math.nan)


# ---------------------------------------------------------------------------
# initialization


def test_relu_init_bounds_for_two_input_layer():
    bound = math.sqrt(3.0)
    draws = []
    for i in range(300):
        net = init_mlp(MlpConfig((2, 1)), stream(1000 + i, "init"))
        draws.extend(net.params[0].value.reshape(-1))
    draws = np.array(draws)
    assert np.all(np.abs(draws) <= bound)
    assert draws.max() > 0.9 * bound and draws.min() < -0.9 * bound


def test_tanh_init_uses_fan_sum_bounds():
    bound = math.sqrt(6.0 / (3 + 5))
    draws = []
    for i in range(200):
        net = init_mlp(MlpConfig((3, 5, 2), activation="tanh"), stream(i, "xavier"))
        draws.extend(net.params[0].value.reshape(-1))
    draws = np.abs(np.array(draws))
    assert np.all(draws <= bound)
    assert draws.max() > 0.9 * bound


def test_relu_init_variance_monte_carlo():
    draws = []
    for i in range(5):
        net = init_mlp(MlpConfig((50, 40)), stream(i, "he"))
        draws.append(net.params[0].value.reshape(-1))
    draws = np.concatenate(draws)
    assert draws.size == 10_000
    target = 2.0 / 50.0
    assert abs(draws.var() - target) <= 0.05 * target


def test_biases_start_at_zero():
    net = init_mlp(MlpConfig((3, 7, 2)), stream(2, "bias"))
    for b in net.params[1::2]:
        assert np.array_equal(b.value, np.zeros_like(b.value))


def test_init_is_deterministic_for_equal_streams():
    a = init_mlp(MlpConfig((3, 4, 2)), stream(7, "init"))
    b = init_mlp(MlpConfig((3, 4, 2)), stream(7, "init"))
    for pa, pb in zip(a.params, b.params):
        assert np.array_equal(pa.value, pb.value)


# ---------------------------------------------------------------------------
# forward evaluation


def test_forward_zero_input_gives_zero_logits():
    net = init_mlp(MlpConfig((3, 4, 2)), stream(3, "zero"))
    out = net.predict_values(np.zeros((5, 3)))
    assert np.array_equal(out, np.zeros((5, 2)))


def test_forward_diagonal_oracle():
    net = init_mlp(MlpConfig((2, 2)), stream(0, "diag"))
    assign(net.params[0], np.array([[2.0, 0.0], [0.0, 3.0]]))
    assign(net.params[1], np.zeros(2))
    np.testing.assert_array_equal(net.predict_values(np.array([[1.0, 1.0]])), [[2.0, 3.0]])


def test_forward_two_layer_relu_oracle():
    net = init_mlp(MlpConfig((2, 2, 1)), stream(0, "oracle"))
    w1 = np.array([[1.0, -1.0], [0.5, 2.0]])
    b1 = np.array([0.1, -0.2])
    w2 = np.array([[1.5, -0.5]])
    b2 = np.array([0.25])
    for p, arr in zip(net.params, (w1, b1, w2, b2)):
        assign(p, arr)
    x = np.array([[0.3, 0.7], [-1.0, 0.4]])
    expected = np.maximum(x @ w1.T + b1, 0.0) @ w2.T + b2
    np.testing.assert_allclose(net.predict_values(x), expected, rtol=0.0, atol=1e-12)


def test_final_tanh_wraps_the_last_affine_layer():
    bounded = init_mlp(MlpConfig((2, 6, 3), final_activation="tanh"), stream(9, "fin"))
    raw = init_mlp(MlpConfig((2, 6, 3)), stream(9, "fin"))
    x = stream(10, "x").uniforms(40, -3.0, 3.0).reshape(20, 2)
    out = bounded.predict_values(x)
    assert np.all(np.abs(out) <= 1.0)
    np.testing.assert_allclose(out, np.tanh(raw.predict_values(x)), rtol=0.0, atol=1e-12)


def test_predict_values_does_not_grow_the_tape():
    tape = Tape()
    net = init_mlp(MlpConfig((2, 3)), stream(1, "paused"), tape)
    before = tape.mark()
    net.predict_values(np.ones((4, 2)))
    assert tape.mark() == before


@pytest.mark.parametrize("final_activation", ["none", "tanh"])
@pytest.mark.parametrize("activation", ["relu", "leaky_relu", "tanh"])
def test_predict_values_is_bit_equal_to_forward(activation, final_activation):
    cfg = MlpConfig((3, 7, 5, 2), activation=activation, leaky_slope=0.3, final_activation=final_activation)
    net = init_mlp(cfg, stream(4, "bit-equal"))
    for b in net.params[1::2]:
        assign(b, stream(5, "bias", str(b.id)).uniforms(b.value.size, -0.5, 0.5))
    for batch in (1, 9):
        x = stream(6, "x", str(batch)).uniforms(3 * batch, -2.0, 2.0).reshape(batch, 3)
        before = net.tape.mark()
        got = net.predict_values(x)
        assert net.tape.mark() == before
        assert got.tobytes() == forward(net, x).value.tobytes()


@pytest.mark.parametrize("widths", [(1, 1), (1, 1, 1)])
def test_predict_values_rejects_an_overflowing_affine_map(widths):
    # tanh(inf) is 1: the check after each affine map must catch the overflow
    net = init_mlp(MlpConfig(widths, activation="tanh", final_activation="tanh"), stream(0, "big"))
    assign(net.params[0], np.array([[1e300]]))
    with warnings.catch_warnings(), pytest.raises(NonFiniteError):
        warnings.simplefilter("error")
        net.predict_values(np.array([[1e10]]))
    with pytest.raises(ShapeError):
        net.predict_values(np.ones((2, 2)))


# ---------------------------------------------------------------------------
# cloning


def test_clone_matches_then_diverges_independently():
    src = init_mlp(MlpConfig((2, 4, 2)), stream(5, "clone"))
    dup = clone_mlp(src)
    assert dup.tape is not src.tape
    for ps, pd in zip(src.params, dup.params):
        assert np.array_equal(ps.value, pd.value)
    assign(dup.params[0], dup.params[0].value + 1.0)
    assert not np.array_equal(src.params[0].value, dup.params[0].value)


# ---------------------------------------------------------------------------
# optimizers


def test_adam_first_step_magnitude_and_direction():
    tape = Tape()
    w = tape.leaf(np.array([[2.0]]))
    opt = adam(1e-3)
    step(opt, [w], backward((w * 3.0).sum(), [w]))
    delta = w.value[0, 0] - 2.0
    assert delta < 0.0
    assert 0.9 * 1e-3 <= abs(delta) <= 1e-3


def test_zero_gradient_leaves_parameters_unchanged():
    tape = Tape()
    w = tape.leaf(np.array([[1.5]]))
    other = tape.leaf(np.array([[2.0]]))
    grads = backward(other.square().sum(), [w, other])
    before = w.value.copy()
    step(adam(0.1), [w], grads)
    assert np.array_equal(w.value, before)


def test_missing_gradient_entry_raises():
    tape = Tape()
    w = tape.leaf(np.array([[1.0]]))
    v = tape.leaf(np.array([[2.0]]))
    grads = backward(v.square().sum(), [v])
    with pytest.raises(KeyError):
        step(adam(0.1), [w], grads)


def test_optimizer_state_is_bound_to_one_parameter_list():
    tape = Tape()
    w = tape.leaf(np.ones((2, 2)))
    opt = adam(1e-3)
    step(opt, [w], backward(w.square().sum(), [w]))
    u = tape.leaf(np.ones((3, 3)))
    v = tape.leaf(np.ones((1, 1)))
    grads = backward((u.square().sum() + v.square().sum()), [u, v])
    with pytest.raises(ShapeError):
        step(opt, [u, v], grads)


def test_learning_rate_can_be_retuned_between_steps():
    # a constant gradient keeps Adam's bias-corrected step at the learning
    # rate (up to eps), so each step moves w by the rate in force
    tape = Tape()
    w = tape.leaf(np.array([[1.0]]))
    opt = adam(0.1)
    step(opt, [w], backward(w.sum(), [w]))
    assert abs(w.value[0, 0] - 0.9) <= 1e-8
    opt.learning_rate = 0.5
    step(opt, [w], backward(w.sum(), [w]))
    assert abs(w.value[0, 0] - 0.4) <= 1e-8


def test_optimizer_state_rejects_another_list_of_the_same_size():
    tape = Tape()
    w = tape.leaf(np.ones((2, 2)))
    opt = adam(1e-3)
    step(opt, [w], backward(w.square().sum(), [w]))
    for others in ([tape.leaf(np.ones((2, 2)))], [tape.leaf(np.ones(3)), tape.leaf(np.ones(1))]):
        with pytest.raises(ShapeError, match="does not match the parameter list"):
            step(opt, others, {p.id: Tensor.of(np.ones(p.shape)) for p in others})
    assert opt.step_count == 1


def test_a_step_from_the_gradient_row_is_the_step_from_the_same_gradients():
    tape = Tape()
    a, b = tape.leaf(np.array([[1.0, -2.0]])), tape.leaf(np.array([[1.0, -2.0]]))
    opt_a, opt_b = adam(0.1), adam(0.1)
    with pytest.raises(ValueError, match="no gradient row"):
        step(opt_b, [b], None)
    grads = {a.id: Tensor.of([[0.5, -3.0]]), b.id: Tensor.of([[0.5, -3.0]])}
    step(opt_a, [a], grads)
    step(opt_b, [b], grads)
    # a plan bound to the optimizer writes the row, and the step reads it
    opt_b._rows[0][...] = [0.25, 4.0]
    step(opt_a, [a], {a.id: Tensor.of([[0.25, 4.0]])})
    step(opt_b, [b], None)
    assert a.value.tobytes() == b.value.tobytes() and opt_b.step_count == 2
    with pytest.raises(ShapeError, match="does not match the parameter list"):
        step(opt_b, [a], None)


def test_the_gradient_row_binds_an_optimizer_that_has_not_stepped():
    tape = Tape()
    a, b = tape.leaf(np.ones((2, 3))), tape.leaf(np.array([1.0, -2.0]))
    opt = adam(0.1)
    row, views = _gradient_row(opt, [a, b])
    assert row is opt._rows[0] and a.value.base is b.value.base is opt._values
    # one view per parameter, laid out in order
    assert [(v.shape, v.ctypes.data - row.ctypes.data) for v in views] == [((2, 3), 0), ((2,), 48)]
    again, views_again = _gradient_row(opt, [a, b])
    assert again is row and all(v is w for v, w in zip(views, views_again))
    views[1][...] = [0.5, -3.0]
    step(opt, [a, b], None)
    assert opt.step_count == 1 and np.array_equal(a.value, np.ones((2, 3)))


def test_the_gradient_row_of_several_sources_stacks_their_parameters_without_a_copy():
    lists = []
    for s in range(3):
        tape = Tape()
        lists.append([tape.leaf(np.full((2, 3), s)), tape.leaf(np.array(s - 0.5)), tape.leaf(np.arange(2.0) + s)])
    opt = adam(0.1)
    row, views = _gradient_row(opt, [p for ps in lists for p in ps], 3)
    assert row.shape == (3, 9) and len(views) == 9
    for s, ps in enumerate(lists):
        # each source's parameters and gradients lie in its own row, in order
        assert [v.ctypes.data - row[s].ctypes.data for v in views[3 * s : 3 * s + 3]] == [0, 48, 56]
        assert [p.value.ctypes.data - opt._values.ctypes.data for p in ps] == [72 * s, 72 * s + 48, 72 * s + 56]
    for j, (values, grads) in enumerate(opt._stacked):
        # parameter j of every source, as one view of each buffer
        assert values.shape == grads.shape == (3, *lists[0][j].shape)
        assert values.base is opt._values and np.shares_memory(grads, opt._rows[0])
        assert all(np.array_equal(values[s], lists[s][j].value) for s in range(3))
    with pytest.raises(ShapeError, match="differ in shape"):
        _gradient_row(adam(0.1), [lists[0][0], lists[1][1]], 2)


@pytest.mark.parametrize("faulty", [(1,), (0, 2), (2,)])
def test_a_non_finite_update_of_one_source_names_it_and_changes_nothing(faulty):
    tapes = [Tape() for _ in range(3)]
    params = [tape.leaf(np.full((2, 2), 1.0 + s)) for s, tape in enumerate(tapes)]
    opt = adam(0.1)
    row, views = _gradient_row(opt, params, 3)
    row[...] = 0.5
    step(opt, params, None)
    state = opt._values.tobytes(), opt._rows[1].tobytes(), opt._rows[2].tobytes(), opt.step_count
    for s in faulty:
        views[s][1, s % 2] = np.inf
    with pytest.raises(NonFiniteError, match="assign") as raised:
        step(opt, params, None)
    assert raised.value.source == faulty[0]
    assert (opt._values.tobytes(), opt._rows[1].tobytes(), opt._rows[2].tobytes(), opt.step_count) == state


def test_gradients_of_swapped_shapes_raise_naming_the_node():
    tape = Tape()
    w = tape.leaf(np.ones((2, 3)))
    v = tape.leaf(np.ones(4))
    grads = {w.id: Tensor.of(np.ones(4)), v.id: Tensor.of(np.ones((2, 3)))}
    with pytest.raises(ShapeError, match=f"parameter node {w.id}"):
        step(adam(0.1), [w, v], grads)
    assert np.array_equal(w.value, np.ones((2, 3))) and np.array_equal(v.value, np.ones(4))


def test_a_non_finite_update_raises_before_writing_any_parameter():
    # an infinite gradient makes Adam's step inf / inf for b; a comes first
    # in the list, and must keep its value, without any warning
    tape = Tape()
    a = tape.leaf(np.array([1.0]))
    b = tape.leaf(np.array([1.0]))
    grads = {a.id: Tensor.of(np.array([1.0])), b.id: Tensor(None, None, np.array([np.inf]))}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError, match="^assign produced a non-finite value$"):
            step(adam(0.1), [a, b], grads)
    assert a.value[0] == 1.0 and b.value[0] == 1.0


def test_a_raising_step_leaves_the_optimizer_as_it_was():
    # the first step raises while binding the list, the fifth after three
    # finite ones; after each, the moments, the values and the step count
    # are the reference's over the finite steps alone
    tape = Tape()
    params = [tape.leaf(np.array([1.0, -2.0])), tape.leaf(np.array([[0.5]]))]
    arrays = [p.value.copy() for p in params]
    opt, ref = adam(0.1, 0.5, 0.9), ReferenceAdam(0.1, 0.5, 0.9)
    rng = np.random.default_rng(5)
    for bad in (True, False, False, False, True, False, False):
        grads = [rng.normal(size=(2,)), rng.normal(size=(1, 1))]
        if bad:
            grads[1][0, 0] = np.inf
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NonFiniteError, match="^assign produced a non-finite value$"):
                    step(opt, params, {p.id: Tensor(None, None, g) for p, g in zip(params, grads)})
        else:
            step(opt, params, {p.id: Tensor.of(g) for p, g in zip(params, grads)})
            arrays = ref.step(arrays, grads)
        moments = (ref.m, ref.v) if ref.m is not None else (np.zeros(3), np.zeros(3))
        assert [row.tobytes() for row in opt._rows[1:3]] == [m.tobytes() for m in moments]
        assert opt.step_count == ref.step_count
        for p, want in zip(params, arrays):
            assert p.value.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_in_place_adam_is_byte_equal_to_the_allocating_reference(data):
    shapes = data.draw(st.lists(st.lists(st.integers(1, 4), min_size=1, max_size=2).map(tuple),
                                min_size=1, max_size=6))
    beta1, beta2 = data.draw(st.sampled_from([(0.9, 0.999), (0.5, 0.9)]))
    rates = data.draw(st.lists(st.floats(1e-4, 1.0), min_size=1, max_size=20))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    tape = Tape()
    params = [tape.leaf(rng.normal(size=shape)) for shape in shapes]
    arrays = [p.value.copy() for p in params]
    opt, ref = adam(rates[0], beta1, beta2), ReferenceAdam(rates[0], beta1, beta2)
    for rate in rates:
        opt.learning_rate = ref.learning_rate = rate
        grads = [rng.normal(size=shape) * 10.0 ** rng.integers(-6, 4) for shape in shapes]
        step(opt, params, {p.id: Tensor.of(g) for p, g in zip(params, grads)})
        arrays = ref.step(arrays, grads)
        for p, want in zip(params, arrays):
            assert p.value.tobytes() == want.tobytes()
            assert tape.nodes[p.id].value is p.value


def test_trained_parameters_clone_save_and_load_as_their_values(tmp_path):
    cfg = MlpConfig((3, 5, 2))
    tape = Tape()
    net = init_mlp(cfg, stream(4, "bound"), tape)
    arrays = [p.value.copy() for p in net.params]
    opt, ref = adam(1e-2), ReferenceAdam(1e-2)
    x, y = stream(5, "bound-x").normals(24).reshape(8, 3), np.arange(8) % 2
    mark = tape.mark()
    for _ in range(5):
        tape.reset(mark)
        grads = backward(softmax_cross_entropy(forward(net, tape.leaf(x)), y), net.params)
        step(opt, net.params, grads)
        arrays = ref.step(arrays, [grads[p.id].value for p in net.params])
    tape.reset(mark)
    for p, a in zip(clone_mlp(net).params, arrays):
        assert p.value.tobytes() == a.tobytes() and p.value.flags.owndata
    save_params(net, tmp_path / "bound.bin")
    save_params([Tensor.of(a) for a in arrays], tmp_path / "unbound.bin")
    assert (tmp_path / "bound.bin").read_bytes() == (tmp_path / "unbound.bin").read_bytes()
    for p, a in zip(load_mlp(cfg, tmp_path / "bound.bin", Tape()).params, arrays):
        assert p.value.tobytes() == a.tobytes()


# ---------------------------------------------------------------------------
# training behavior


def test_gradient_descent_decreases_convex_quadratic():
    tape = Tape()
    rng = stream(3, "quad")
    x = tape.leaf(rng.uniforms(20, -1.0, 1.0).reshape(10, 2))
    y = tape.leaf(rng.uniforms(10, -1.0, 1.0).reshape(10, 1))
    w = tape.leaf(np.zeros((1, 2)))
    # Adam moves each coordinate by about the learning rate per step: 15
    # steps of 0.02 stay short of the least-squares optimum (0.64, -0.51)
    opt = adam(0.02)
    mark = tape.mark()
    losses = []
    for _ in range(15):
        tape.reset(mark)
        loss = (matmul(x, w.T) - y).square().mean()
        losses.append(loss.item())
        step(opt, [w], backward(loss, [w]))
    assert all(later < earlier for earlier, later in zip(losses, losses[1:]))


def _xor_data(seed: int, n: int = 400):
    rng = stream(seed, "xor")
    quadrant = rng.integers(n, below=4)
    centers = np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])
    x = centers[quadrant] + 0.2 * rng.normals(2 * n).reshape(n, 2)
    y = np.where((quadrant == 0) | (quadrant == 2), 0, 1).astype(np.int64)
    return x, y


def test_xor_pattern_is_learnable():
    solved = 0
    for seed in range(10):
        x, y = _xor_data(seed)
        tape = Tape()
        net = init_mlp(MlpConfig((2, 16, 2)), stream(seed, "xor-init"), tape)
        opt = adam(5e-3)
        batches = stream(seed, "xor-batch")
        mark = tape.mark()
        accuracy = 0.0
        for i in range(2000):
            tape.reset(mark)
            idx = batches.integers(64, below=x.shape[0])
            loss = softmax_cross_entropy(forward(net, tape.leaf(x[idx])), y[idx])
            step(opt, net.params, backward(loss, net.params))
            if (i + 1) % 100 == 0:
                accuracy = float(np.mean(np.argmax(net.predict_values(x), axis=1) == y))
                if accuracy >= 0.99:
                    break
        solved += accuracy >= 0.99
    assert solved >= 9


# ---------------------------------------------------------------------------
# parameter files


def test_parameter_file_round_trip_is_bitwise(tmp_path):
    net = init_mlp(MlpConfig((3, 5, 2), activation="leaky_relu"), stream(8, "save"))
    path = tmp_path / "net.bin"
    save_params(net, path)
    arrays = load_params(path)
    assert len(arrays) == len(net.params)
    for arr, p in zip(arrays, net.params):
        assert np.array_equal(arr, p.value)

    twin = load_mlp(net.config, path, Tape())
    for pt, ps in zip(twin.params, net.params):
        assert np.array_equal(pt.value, ps.value)

    as_list = tmp_path / "list.bin"
    save_params(net.params, as_list)
    assert as_list.read_bytes() == path.read_bytes()


def test_parameter_file_error_reporting(tmp_path):
    net = init_mlp(MlpConfig((2, 2)), stream(1, "err"))
    path = tmp_path / "net.bin"
    save_params(net, path)
    raw = path.read_bytes()

    bad_magic = tmp_path / "magic.bin"
    bad_magic.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(DataFormatError, match="magic"):
        load_params(bad_magic)

    bad_version = tmp_path / "version.bin"
    bad_version.write_bytes(struct.pack("<4sII", raw[:4], 99, 0))
    with pytest.raises(DataFormatError, match="version"):
        load_params(bad_version)

    truncated = tmp_path / "trunc.bin"
    truncated.write_bytes(raw[:-5])
    with pytest.raises(DataFormatError, match="truncated"):
        load_params(truncated)

    short_header = tmp_path / "header.bin"
    short_header.write_bytes(raw[:8])
    with pytest.raises(DataFormatError, match="header"):
        load_params(short_header)

    with pytest.raises(DataFormatError, match="net needs 4"):
        load_mlp(MlpConfig((2, 3, 2)), path, Tape())
    with pytest.raises(DataFormatError, match=r"shape \(2, 2\) does not match \(3, 2\)"):
        load_mlp(MlpConfig((2, 3)), path, Tape())
