"""Fully-connected networks: construction, initialization statistics,
forward oracles, cloning, optimizers, trainability, and the binary
parameter-file format."""
from __future__ import annotations

import math
import struct
import warnings

import numpy as np
import pytest

from mdda.autodiff import Tape, backward, matmul, softmax_cross_entropy
from mdda.errors import ConfigError, DataFormatError, NonFiniteError, ShapeError
from mdda.nn import (
    MlpConfig,
    adam,
    clone_mlp,
    clone_params,
    config_from_dict,
    config_to_dict,
    forward,
    init_mlp,
    load_params,
    load_params_into,
    save_params,
    sgd,
    step,
)
from mdda.rng import stream


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


def test_config_dict_round_trip():
    cfg = MlpConfig((4, 6, 2), activation="leaky_relu", leaky_slope=0.1, final_activation="tanh")
    assert config_from_dict(config_to_dict(cfg)) == cfg


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
    net.params[0].assign(np.array([[2.0, 0.0], [0.0, 3.0]]))
    net.params[1].assign(np.zeros(2))
    np.testing.assert_array_equal(net.predict_values(np.array([[1.0, 1.0]])), [[2.0, 3.0]])


def test_forward_two_layer_relu_oracle():
    net = init_mlp(MlpConfig((2, 2, 1)), stream(0, "oracle"))
    w1 = np.array([[1.0, -1.0], [0.5, 2.0]])
    b1 = np.array([0.1, -0.2])
    w2 = np.array([[1.5, -0.5]])
    b2 = np.array([0.25])
    for p, arr in zip(net.params, (w1, b1, w2, b2)):
        p.assign(arr)
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
    for b in net.biases:
        b.assign(stream(5, "bias", str(b.id)).uniforms(b.value.size, -0.5, 0.5))
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
    net.params[0].assign(np.array([[1e300]]))
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
    dup.params[0].assign(dup.params[0].value + 1.0)
    assert not np.array_equal(src.params[0].value, dup.params[0].value)


def test_clone_params_requires_matching_config():
    a = init_mlp(MlpConfig((2, 3)), stream(1, "a"))
    b = init_mlp(MlpConfig((2, 4)), stream(1, "b"))
    with pytest.raises(ConfigError):
        clone_params(a, b)


# ---------------------------------------------------------------------------
# optimizers


def test_sgd_first_step():
    tape = Tape()
    w = tape.leaf(np.array([[1.0]]))
    step(sgd(0.2), [w], backward(w.sum(), [w]))
    assert w.value[0, 0] == 0.8


def test_adam_first_step_magnitude_and_direction():
    tape = Tape()
    w = tape.leaf(np.array([[2.0]]))
    opt = adam(1e-3)
    step(opt, [w], backward((w * 3.0).sum(), [w]))
    delta = w.value[0, 0] - 2.0
    assert delta < 0.0
    assert 0.9 * 1e-3 <= abs(delta) <= 1e-3


def test_zero_gradient_leaves_parameters_unchanged():
    for make in (lambda: sgd(0.1), lambda: adam(0.1)):
        tape = Tape()
        w = tape.leaf(np.array([[1.5]]))
        other = tape.leaf(np.array([[2.0]]))
        grads = backward(other.square().sum(), [w, other])
        before = w.value.copy()
        step(make(), [w], grads)
        assert np.array_equal(w.value, before)


def test_missing_gradient_entry_raises():
    tape = Tape()
    w = tape.leaf(np.array([[1.0]]))
    v = tape.leaf(np.array([[2.0]]))
    grads = backward(v.square().sum(), [v])
    with pytest.raises(KeyError):
        step(sgd(0.1), [w], grads)


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
    tape = Tape()
    w = tape.leaf(np.array([[1.0]]))
    opt = sgd(0.1)
    step(opt, [w], backward(w.sum(), [w]))
    assert abs(w.value[0, 0] - 0.9) <= 1e-15
    opt.learning_rate = 0.5
    step(opt, [w], backward(w.sum(), [w]))
    assert abs(w.value[0, 0] - 0.4) <= 1e-15


# ---------------------------------------------------------------------------
# training behavior


def test_gradient_descent_decreases_convex_quadratic():
    tape = Tape()
    rng = stream(3, "quad")
    x = tape.leaf(rng.uniforms(20, -1.0, 1.0).reshape(10, 2))
    y = tape.leaf(rng.uniforms(10, -1.0, 1.0).reshape(10, 1))
    w = tape.leaf(np.zeros((1, 2)))
    opt = sgd(0.1)
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

    twin = init_mlp(MlpConfig((3, 5, 2), activation="leaky_relu"), stream(99, "other"))
    load_params_into(twin, path)
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

    mismatched = init_mlp(MlpConfig((2, 3)), stream(1, "shape"))
    with pytest.raises(DataFormatError):
        load_params_into(mismatched, path)
