"""Tape-recorded reverse-mode differentiation: forward semantics,
gradients against finite differences, double backprop, and the error
contract for shapes, finiteness, and tape lifetime."""
from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import helpers
from mdda import autodiff, nn, pipeline
from mdda.autodiff import Tape, Tensor, backward, linear, matmul, softmax_cross_entropy
from mdda.errors import NonFiniteError, ShapeError
from mdda.nn import MlpConfig, forward, init_mlp
from mdda.rng import stream


def _leaf(tape, values):
    return tape.leaf(np.asarray(values, dtype=np.float64))


# ---------------------------------------------------------------------------
# matrix product


def test_matmul_identity_returns_same_values():
    tape = Tape()
    a = _leaf(tape, [[1.5, -2.0], [0.25, 3.0]])
    assert np.array_equal(matmul(a, _leaf(tape, np.eye(2))).value, a.value)


def test_matmul_projector_zeroes_a_coordinate():
    tape = Tape()
    x = _leaf(tape, [[3.0, 7.0]])
    projector = _leaf(tape, [[1.0, 0.0], [0.0, 0.0]])
    np.testing.assert_array_equal(matmul(x, projector).value, [[3.0, 0.0]])


def test_matmul_matches_triple_loop_oracle():
    rng = stream(42, "matmul")
    a = rng.uniforms(12, -2.0, 2.0).reshape(3, 4)
    b = rng.uniforms(8, -2.0, 2.0).reshape(4, 2)
    expected = np.zeros((3, 2))
    for i in range(3):
        for j in range(2):
            for k in range(4):
                expected[i, j] += a[i, k] * b[k, j]
    tape = Tape()
    got = matmul(_leaf(tape, a), _leaf(tape, b)).value
    np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-12)


def test_matmul_inner_dimension_mismatch():
    tape = Tape()
    with pytest.raises(ShapeError):
        matmul(_leaf(tape, np.ones((2, 3))), _leaf(tape, np.ones((2, 3))))


# ---------------------------------------------------------------------------
# elementwise operations


def test_elementwise_activation_values():
    tape = Tape()
    np.testing.assert_array_equal(_leaf(tape, [[-1.0, 0.0, 2.0]]).relu().value, [[0.0, 0.0, 2.0]])
    np.testing.assert_allclose(_leaf(tape, [[-2.0]]).leaky_relu(0.2).value, [[-0.4]], atol=1e-15)
    assert _leaf(tape, [[3.0]]).square().item() == 9.0
    assert _leaf(tape, [[0.0]]).tanh().item() == 0.0
    assert _leaf(tape, [[0.0]]).exp().item() == 1.0
    assert _leaf(tape, [[4.0]]).sqrt().item() == 2.0


def test_sqrt_of_negative_raises():
    tape = Tape()
    with pytest.raises(NonFiniteError):
        _leaf(tape, [[-1.0]]).sqrt()


def test_exp_overflow_raises():
    tape = Tape()
    with np.errstate(over="ignore"):
        with pytest.raises(NonFiniteError):
            _leaf(tape, [[1000.0]]).exp()


def test_tensor_values_must_be_finite():
    with pytest.raises(NonFiniteError):
        Tensor.of(np.array([[np.inf]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in ([1.0, np.nan, 2.0], [1.0, np.inf, 2.0], [1.0, -np.inf, 2.0], [np.inf, -np.inf]):
            with pytest.raises(NonFiniteError):
                Tensor.of(np.array(bad))
        # finite values whose sum overflows are still finite
        assert np.array_equal(Tensor.of(np.array([1e308, 1e308])).value, [1e308, 1e308])


def test_binary_ops_broadcast_equal_or_single_element():
    tape = Tape()
    a = _leaf(tape, [[1.0, 2.0], [3.0, 4.0]])
    b = _leaf(tape, [[10.0, 20.0], [30.0, 40.0]])
    np.testing.assert_array_equal((a + b).value, [[11.0, 22.0], [33.0, 44.0]])
    np.testing.assert_array_equal((a * _leaf(tape, [[2.0]])).value, [[2.0, 4.0], [6.0, 8.0]])
    np.testing.assert_array_equal((a - a).value, np.zeros((2, 2)))
    np.testing.assert_array_equal((a * 0.5).value, [[0.5, 1.0], [1.5, 2.0]])


def test_incompatible_broadcast_raises():
    tape = Tape()
    with pytest.raises(ShapeError):
        _leaf(tape, np.ones((2, 3))) + _leaf(tape, np.ones((2, 2)))


# ---------------------------------------------------------------------------
# softmax cross-entropy


def test_cross_entropy_uniform_logits():
    tape = Tape()
    loss = softmax_cross_entropy(_leaf(tape, np.zeros((1, 4))), np.array([1]))
    assert abs(loss.item() - math.log(4.0)) <= 1e-15


def test_cross_entropy_saturated_correct_class():
    tape = Tape()
    loss = softmax_cross_entropy(_leaf(tape, [[50.0, 0.0]]), np.array([0]))
    assert 0.0 <= loss.item() <= 1e-12


def test_cross_entropy_smallest_logit_oracle():
    tape = Tape()
    loss = softmax_cross_entropy(_leaf(tape, [[1.0, 2.0, 3.0]]), np.array([2]))
    expected = math.log(1.0 + math.exp(-1.0) + math.exp(-2.0))
    assert abs(loss.item() - expected) <= 1e-12


def test_cross_entropy_label_out_of_range():
    tape = Tape()
    with pytest.raises(ValueError, match="label"):
        softmax_cross_entropy(_leaf(tape, np.zeros((1, 3))), np.array([3]))


# ---------------------------------------------------------------------------
# first-order gradients


def test_backward_square_slope():
    tape = Tape()
    x = _leaf(tape, [[3.0]])
    grads = backward(x.square().sum(), [x])
    assert grads[x.id].value[0, 0] == 6.0


def test_backward_tanh_slope_at_zero():
    tape = Tape()
    x = _leaf(tape, [[0.0]])
    grads = backward(x.tanh().sum(), [x])
    assert grads[x.id].value[0, 0] == 1.0


def test_gradients_match_finite_differences():
    worst = helpers.fd_sweep(n_nets=10)
    assert worst <= 1e-6


def test_backward_is_linear_in_the_output():
    tape = Tape()
    x = _leaf(tape, [[0.7, -1.2], [0.4, 2.0]])
    w = _leaf(tape, [[0.3, -0.8], [1.1, 0.5]])
    f = matmul(x, w).square().sum()
    g = matmul(x, w.tanh()).mean()
    combined = f * 0.35 + g * (-1.6)
    gc = backward(combined, [x, w])
    gf = backward(f, [x, w])
    gg = backward(g, [x, w])
    for p in (x, w):
        np.testing.assert_allclose(
            gc[p.id].value,
            0.35 * gf[p.id].value - 1.6 * gg[p.id].value,
            rtol=0.0,
            atol=1e-12,
        )


def test_unreachable_parameter_gets_zero_gradient():
    tape = Tape()
    x = _leaf(tape, [[1.0, 2.0]])
    orphan = _leaf(tape, [[5.0]])
    grads = backward(x.square().sum(), [x, orphan])
    assert np.array_equal(grads[orphan.id].value, np.zeros((1, 1)))


def test_backward_rejects_non_scalar_output():
    tape = Tape()
    x = _leaf(tape, [[1.0, 2.0]])
    with pytest.raises(ShapeError):
        backward(x.square(), [x])


def test_backward_rejects_detached_output():
    x = Tensor.of([[2.0]])
    with pytest.raises(ValueError, match="recorded on a tape"):
        backward(x, [x])


def test_identical_replay_is_bitwise_deterministic():
    def run():
        tape = Tape()
        net = init_mlp(MlpConfig((3, 5, 2), activation="leaky_relu"), stream(21, "net"), tape)
        x = tape.leaf(stream(22, "x").uniforms(12, -1.0, 1.0).reshape(4, 3))
        loss = softmax_cross_entropy(forward(net, x), np.array([0, 1, 1, 0]))
        grads = backward(loss, net.params)
        return loss.item(), [grads[p.id].value.copy() for p in net.params]

    loss_a, grads_a = run()
    loss_b, grads_b = run()
    assert loss_a == loss_b
    for ga, gb in zip(grads_a, grads_b):
        assert np.array_equal(ga, gb)


def test_overflow_only_in_the_backward_raises_in_both_modes():
    tape = Tape()
    a, b, c = (_leaf(tape, [[v]]) for v in (1e300, 1e-300, 1e300))
    loss = ((a * b) * c).sum()
    assert loss.item() == pytest.approx(1e300)
    before = len(tape)
    # d loss / d b = a * c overflows, after the backward recorded 2 nodes:
    # a constant leaf and the product with c
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for record, left in ((False, 0), (True, 2)):
            with pytest.raises(NonFiniteError, match="mul"):
                backward(loss, [b], record=record)
            # only a first-order backward cuts the tape back when it raises
            assert len(tape) == before + left


def _pretrain_step(activation):
    """One pretrain step of the `supervised` networks, an extractor
    (2, 32, 32, 8) with a final tanh and a 3-class classifier, recorded past
    a mark: the loss, the parameters, the mark, the inputs and the labels."""
    tape = Tape()
    extractor = init_mlp(MlpConfig((2, 32, 32, 8), activation=activation, final_activation="tanh"),
                         stream(31, "ext"), tape)
    classifier = init_mlp(MlpConfig((8, 3)), stream(31, "clf"), tape)
    mark = tape.mark()
    x = stream(32, "x").uniforms(2 * 64, -2.0, 2.0).reshape(64, 2)
    y = stream(33, "y").integers(64, below=3)
    loss = softmax_cross_entropy(forward(classifier, forward(extractor, tape.leaf(x))), y)
    return loss, extractor.params + classifier.params, mark, [x], [y]


def _critic_step():
    """One critic step of `quickstart`: a (8, 64, 64, 1) leaky critic, batches
    of 64 features and the penalty on 192 points, as ``_pretrain_step``."""
    tape = Tape()
    critic = init_mlp(MlpConfig((8, 64, 64, 1), activation="leaky_relu", leaky_slope=0.2), stream(34, "critic"), tape)
    mark = tape.mark()
    s, t = (stream(35, side).uniforms(64 * 8, -2.0, 2.0).reshape(64, 8) for side in ("s", "t"))
    sf, tf = tape.leaf(s), tape.leaf(t)
    penalty = pipeline.gradient_penalty(critic, s, t, stream(36, "eps"))
    loss = 10.0 * penalty - pipeline.critic_loss(critic, sf, tf)
    return loss, critic.params, mark, [s, t, tape.nodes[mark + 2].value.copy()], []


def _edge_step():
    """A step at the edges of the rule that leaves checks out: a product
    read only through a transpose that a relu masks, and a product read
    only by products with no entries, as ``_pretrain_step``."""
    tape = Tape()
    w, empty = tape.leaf(stream(39, "w").uniforms(6, -1.0, 1.0).reshape(2, 3)), tape.leaf(np.zeros((2, 0)))
    mark = tape.mark()
    x = stream(39, "x").uniforms(6, -2.0, 2.0).reshape(3, 2)
    xs = tape.leaf(x)
    loss = matmul(xs, w).T.relu().sum() + matmul(xs * 2.0, empty).sum()
    return loss, [w, empty], mark, [x], []


def _plan(step):
    loss, params, mark, inputs, labels = step
    return autodiff.StepPlan(loss, params, mark, len(inputs)), inputs, labels


@pytest.mark.parametrize("step, n_checks", [(lambda: _pretrain_step("relu"), 15), (_critic_step, 14)],
                         ids=["pretrain", "critic"])
def test_a_replayed_step_checks_the_nodes_its_capture_keeps(monkeypatch, step, n_checks):
    produced, checked = [], []
    require_finite = autodiff._require_finite

    def counted_check(value, op):
        if op != "leaf":  # the step's inputs
            checked.append(value)
        return require_finite(value, op)

    def counted(fn):
        def run(*args):
            produced.append(fn(*args))
            return produced[-1]
        return run

    # a plan takes its forwards at capture: the checked ones from
    # ``_ARRAY_OPS``, the others from the op table
    for name, fn in vars(autodiff._ARRAY_OPS).items():
        monkeypatch.setattr(autodiff._ARRAY_OPS, name, counted(fn))
    for name, spec in autodiff._OPS.items():
        monkeypatch.setitem(autodiff._OPS, name, spec._replace(fn=counted(spec.fn)))
    plan, inputs, labels = _plan(step())
    produced.clear()
    monkeypatch.setattr(autodiff, "_require_finite", counted_check)
    plan.run(inputs, labels)

    # each forward once, in program order
    assert len(produced) == len(plan.lean)
    kept = [node for node, fn, _, _ in plan.lean
            if autodiff._OPS[node.op].checked and fn is getattr(autodiff._ARRAY_OPS, node.op)]
    expected = [i for i, (node, *_) in enumerate(plan.lean) if node in kept or node in plan.sinks]
    got = [i for v in checked for i, p in enumerate(produced) if p is v]
    assert len(got) == len(checked) and sorted(got) == expected
    # the loss and every gradient that is not a constant are checked
    assert set(plan.sinks) == {node for node in (plan.nodes[plan.out], *plan.grads.values()) if node.op != "leaf"}
    # against 31 and 75 checks when every checked op checked its result
    assert len(checked) == n_checks


def _with_fault(program, k, bad, entry):
    """``program`` with the forward at ``k`` writing ``bad`` into one entry
    of its result before the check that entry of the program runs."""
    node, fn, ins, dead = program[k]
    spec = autodiff._OPS[node.op]

    def faulty(*args):
        value = np.array(spec.fn(*args))
        if value.size:
            value.flat[entry % value.size] = bad
        if spec.checked and fn is not spec.fn:
            autodiff._require_finite(value, node.op)
        return value

    return program[:k] + [(node, faulty, ins, dead)] + program[k + 1:]


def _outcome(plan, inputs, labels):
    """The bytes of the loss and the gradients of a replay, or its error."""
    try:
        grads = plan.run(inputs, labels)
    except NonFiniteError as exc:
        return str(exc)
    return plan.nodes[plan.out].value.tobytes(), [g.value.tobytes() for g in grads.values()]


def _assert_faults_surface(plan, inputs, labels, entries):
    """With a NaN or an infinity injected into one entry of each node in
    turn, ``run`` raises the message of a replay with every check, or
    returns its bytes."""
    lean, full = plan.lean, plan.program
    try:
        for k, (node, *_) in enumerate(full):
            for bad in (np.nan, np.inf, -np.inf):
                entry = next(entries)
                plan.lean = plan.program = _with_fault(full, k, bad, entry)
                expected = _outcome(plan, inputs, labels)
                plan.lean = _with_fault(lean, k, bad, entry)
                assert _outcome(plan, inputs, labels) == expected, (k, node.op, bad)
    finally:
        plan.lean, plan.program = lean, full


def _entries(seed):
    rng = stream(seed, "entries")
    while True:
        yield from (int(i) for i in rng.integers(64, below=1 << 30))


@pytest.mark.parametrize("step", [_critic_step, *(lambda a=a: _pretrain_step(a) for a in ("relu", "leaky_relu", "tanh")),
                                  _edge_step],
                         ids=["critic", "pretrain-relu", "pretrain-leaky_relu", "pretrain-tanh", "edges"])
def test_a_fault_in_any_node_of_a_replay_raises_as_with_every_check(step):
    plan, inputs, labels = _plan(step())
    _assert_faults_surface(plan, inputs, labels, _entries(37))


@settings(max_examples=60, deadline=None, database=None)
@given(data=st.data(), seed=st.integers(0, 999))
def test_a_fault_in_any_node_of_a_random_replay_raises_as_with_every_check(data, seed):
    try:
        tape, loss, wrt = _random_dag(data.draw, seed, second_order=True, strict=True)
    except NonFiniteError:
        assume(False)
    n_inputs = next(i for i, node in enumerate(tape.nodes) if node.op != "leaf")
    inputs = [tape.nodes[i].value.copy() for i in range(n_inputs)]
    labels = [node.aux.copy() for node in tape.nodes if node.op == "softmax_xent"]
    plan = autodiff.StepPlan(loss, wrt, 0, n_inputs)
    _assert_faults_surface(plan, inputs, labels, _entries(seed))


# any float64: signed zeros, subnormals, the largest magnitudes, infinities, NaN
_ANY_FLOAT = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308,
                                                     1.7e308, -1.7e308, np.inf, -np.inf, np.nan]))


@settings(max_examples=300, deadline=None, database=None)
@given(v=hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=2, max_side=6), elements=_ANY_FLOAT),
       slope=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_the_branch_free_relu_forms_equal_the_where_forms_bit_for_bit(v, slope):
    with np.errstate(all="ignore"):
        leaky, want = np.asarray(autodiff._OPS["leaky_relu"].fn(v, slope)), np.where(v > 0.0, v, slope * v)
        for s in (slope, 0.0):  # the step mask of leaky_relu and of relu
            mask = np.asarray(autodiff._OPS["step_mask"].fn(v, s))
            assert mask.dtype == np.float64 and mask.tobytes() == np.where(v > 0.0, 1.0, s).tobytes()
    nan = np.isnan(v)
    assert leaky.dtype == np.float64 and leaky.shape == v.shape
    assert np.isnan(leaky[nan]).all() and leaky[~nan].tobytes() == want[~nan].tobytes()


# operand shapes per op that passes a non-finite entry, one-element operands
# against larger ones among them, and the op's non-tensor argument
_PASSING_CASES = {
    "add": ([(2, 3), (2, 3)], [(2, 3), ()], [(1,), (2, 3)]),
    "sub": ([(2, 3), (2, 3)], [(2, 3), (1, 1)], [(), (2, 3)]),
    "mul": ([(2, 3), (2, 3)], [(2, 3), ()], [(1,), (2, 3)]),
    "div": ([(2, 3), (2, 3)], [(2, 3), ()], [(1,), (2, 3)]),
    "neg": ([(2, 3)],),
    "matmul": ([(2, 3), (3, 4)], [(1, 3), (3, 1)], [(4, 1), (1, 5)]),
    "linear": ([(2, 3), (4, 3), (4,)], [(1, 3), (1, 3), (1,)]),
    "transpose": ([(2, 3)],),
    "reshape": ([(2, 3)],),
    "leaky_relu": ([(2, 3)],),
    "square": ([(2, 3)],),
    "sqrt": ([(2, 3)],),
    "sum": ([(2, 3)], [()]),
    "mean": ([(2, 3)], [()]),
}
_PASSING_ARGS = {"reshape": ((6,),), "leaky_relu": (0.2,)}


@pytest.mark.parametrize("op", sorted(_PASSING_CASES))
def test_a_non_finite_entry_at_a_passing_position_reaches_the_result(op):
    assert set(_PASSING_CASES) == {name for name, spec in autodiff._OPS.items() if spec.passes}
    spec, rng = autodiff._OPS[op], stream(38, op)
    for shapes in _PASSING_CASES[op]:
        for pos in spec.passes:
            for bad in (np.nan, np.inf, -np.inf):
                # half of the other entries 0, as masks and one-hot rows hold
                low = 0.5 if op == "sqrt" else -2.0
                operands = [rng.uniforms(math.prod(s), low, 2.0).reshape(s) for s in shapes]
                for a in operands:
                    a.reshape(-1)[::2] = 0.0
                operands[pos].reshape(-1)[-1] = bad
                with np.errstate(all="ignore"):
                    try:
                        value = spec.fn(*operands, *_PASSING_ARGS.get(op, ()))
                    except NonFiniteError:  # sqrt of -inf
                        continue
                assert not np.isfinite(value).all(), (shapes, pos, bad)


_NAN = [[np.nan]]

# checked op -> (operand values, the recording primitive, the op's non-tensor
# argument as its array twin takes it).  Ops that can overflow get finite
# operands that make them overflow; ops that pass finite values through get
# a NaN.
_NON_FINITE_CASES = {
    "add": ([[[1e308]], [[1e308]]], lambda a, b: a + b, ()),
    "sub": ([[[1e308]], [[-1e308]]], lambda a, b: a - b, ()),
    "mul": ([[[1e200]], [[1e200]]], lambda a, b: a * b, ()),
    "div": ([[[1e200]], [[1e-200]]], lambda a, b: a / b, ()),
    "matmul": ([[[1e200]], [[1e200]]], matmul, ()),
    "linear": ([[[1e200]], [[1e200]], [0.0]], linear, ()),
    "exp": ([[[1000.0]]], Tensor.exp, ()),
    "square": ([[[1e200]]], Tensor.square, ()),
    "sum": ([[[1e308, 1e308]]], Tensor.sum, ()),
    "mean": ([[[1e308, 1e308]]], Tensor.mean, ()),
    "softmax_xent": ([[[1e308, -1e308]]], lambda z: softmax_cross_entropy(z, [1]), (np.array([1]),)),
    "neg": ([_NAN], Tensor.__neg__, ()),
    "relu": ([_NAN], Tensor.relu, ()),
    "leaky_relu": ([_NAN], lambda x: x.leaky_relu(0.2), (0.2,)),
    "tanh": ([_NAN], Tensor.tanh, ()),
    "sqrt": ([_NAN], Tensor.sqrt, ()),
}


def test_only_ops_that_cannot_fail_skip_the_finiteness_check():
    # transpose and reshape move checked values; the step mask is 1 or the
    # validated slope, the row maxima are entries of checked logits, and
    # one-hot labels are 0 or 1, whatever their input
    unchecked = {op for op, spec in autodiff._OPS.items() if not spec.checked}
    assert unchecked == {"transpose", "reshape", "step_mask", "row_max", "one_hot"}
    assert set(_NON_FINITE_CASES) == set(autodiff._OPS) - unchecked


@pytest.mark.parametrize("twin", [False, True], ids=["primitive", "array_twin"])
@pytest.mark.parametrize("op", sorted(_NON_FINITE_CASES))
def test_each_checked_op_raises_on_a_non_finite_result(op, twin):
    operands, primitive, args = _NON_FINITE_CASES[op]
    arrays = [np.asarray(v, dtype=np.float64) for v in operands]
    # with warnings as errors, a forward that warns outside ``np.errstate``
    # fails here instead of reaching the check
    with warnings.catch_warnings(), pytest.raises(NonFiniteError, match=f"^{op} produced a non-finite value$"):
        warnings.simplefilter("error")
        if twin:
            with np.errstate(all="ignore"):  # as a replay runs the twins
                getattr(autodiff._ARRAY_OPS, op)(*arrays, *args)
        else:
            primitive(*(Tensor(None, None, a) for a in arrays))


# finite entries (some of whose squares overflow), 1e200 (whose square
# overflows) and the non-finite values
_ENTRIES = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                     st.sampled_from([1e200, -1e200, np.inf, -np.inf, np.nan]))


@settings(max_examples=300, deadline=None, database=None)
@given(array=hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5),
                        elements=_ENTRIES),
       view=st.sampled_from(["contiguous", "transposed", "strided"]))
def test_the_finiteness_check_raises_exactly_on_a_non_finite_entry(array, view):
    if view == "transposed":
        array = array.T
    elif view == "strided" and array.ndim:
        array = array[..., ::2]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if np.isfinite(array).all():
            autodiff._require_finite(array, "op")
        else:
            with pytest.raises(NonFiniteError, match="^op produced a non-finite value$"):
                autodiff._require_finite(array, "op")


# ---------------------------------------------------------------------------
# the backward's two op sets: arrays (first order) and the tape (recorded)


def _random_leaf(tape, rng, shape):
    return tape.leaf(rng.uniforms(int(np.prod(shape, dtype=np.int64)), -1.5, 1.5).reshape(shape))


def _binary_node(fn):
    def build(draw, tape, rng, pool):
        a = draw(st.sampled_from(pool))
        b = draw(st.sampled_from([t for t in pool if t.shape == a.shape or t.value.size == 1 or a.value.size == 1]))
        return fn(a, b) if draw(st.booleans()) else fn(b, a)
    return build


def _unary_node(fn):
    return lambda draw, tape, rng, pool: fn(draw(st.sampled_from(pool)))


def _matrix_node(fn):
    def build(draw, tape, rng, pool):
        return fn(draw, tape, rng, draw(st.sampled_from([t for t in pool if t.value.ndim == 2])))
    return build


def _matmul_node(draw, tape, rng, a):
    n = draw(st.integers(1, 3))
    return matmul(a, _random_leaf(tape, rng, (a.shape[1], n)))


def _linear_node(draw, tape, rng, x):
    d_out = draw(st.integers(1, 3))
    return linear(x, _random_leaf(tape, rng, (d_out, x.shape[1])), _random_leaf(tape, rng, (d_out,)))


def _reshape_node(draw, tape, rng, pool):
    x = draw(st.sampled_from(pool))
    n = x.value.size
    return x.reshape(draw(st.sampled_from([(n,), (1, n), (n, 1)] + ([()] if n == 1 else []))))


# recorded op -> a function that applies it to tensors drawn from the pool
_DAG_NODES = {
    "add": _binary_node(lambda a, b: a + b),
    "sub": _binary_node(lambda a, b: a - b),
    "mul": _binary_node(lambda a, b: a * b),
    "div": _binary_node(lambda a, b: a / b),
    "neg": _unary_node(lambda x: -x),
    "matmul": _matrix_node(_matmul_node),
    "linear": _matrix_node(_linear_node),
    "transpose": _matrix_node(lambda draw, tape, rng, x: x.T),
    "reshape": _reshape_node,
    "relu": _unary_node(Tensor.relu),
    "leaky_relu": _unary_node(lambda x: x.leaky_relu(0.2)),
    "tanh": _unary_node(Tensor.tanh),
    "exp": _unary_node(Tensor.exp),
    "square": _unary_node(Tensor.square),
    "sqrt": _unary_node(lambda x: (x.square() + 0.25).sqrt()),
    "sum": _unary_node(Tensor.sum),
    "mean": _unary_node(Tensor.mean),
    "softmax_xent": _matrix_node(
        lambda draw, tape, rng, z: softmax_cross_entropy(z, rng.integers(z.shape[0], z.shape[1]))
    ),
}


def test_the_random_dags_cover_every_vjp_rule():
    assert set(_DAG_NODES) == {op for op, spec in autodiff._OPS.items() if spec.vjp is not None}


def _recorded_gradient(draw, tape, rng, pool):
    """The recorded gradient of one pool tensor's squared sum with respect
    to that tensor or to one of its ancestors in the pool; the square makes
    the gradient depend on the inputs, so it is recorded, not a constant."""
    out = draw(st.sampled_from([t for t in pool if t.tape is not None]))
    ancestors = {out.id}
    for nid in range(out.id, -1, -1):
        if nid in ancestors:
            ancestors.update(tape.nodes[nid].inputs)
    wrt = draw(st.sampled_from([t for t in pool if t.tape is not None and t.id in ancestors]))
    return backward(out.square().sum(), [wrt], record=True)[wrt.id]


def _random_dag(draw, seed, second_order=False, tape=None, strict=False):
    """A tape of random op nodes over random leaves, the scalar sum of every
    node's sum, and handles to every input leaf.  With ``second_order`` the
    DAG holds at least one recorded backward, whose gradient later nodes may
    take as an operand; the constant leaves that backward records are not
    inputs.  The DAG is recorded on ``tape`` if given; with ``strict`` an
    overflowing forward raises instead of being left out."""
    rng = stream(seed, "dag")
    tape = Tape() if tape is None else tape
    # One-element leaves of three shapes meet every shape and each other, in
    # a binary op first of all: (1, 1) against (3,) or (1,) is where NumPy's
    # broadcasting would give another shape than the one-element rule.
    shapes = [(), (1, 1), (1,), (3,)] + draw(st.lists(st.sampled_from([(3,), (2, 3), (3, 2)]), max_size=2))
    pool = [_random_leaf(tape, rng, shape) for shape in shapes]
    n_leaves = len(pool)
    ops = [draw(st.sampled_from(["add", "sub", "mul", "div"]))]
    ops += draw(st.lists(st.sampled_from(sorted(_DAG_NODES) + ["backward"] * second_order), max_size=7))
    if second_order:
        ops.insert(draw(st.integers(1, len(ops))), "backward")
    recorded: set[int] = set()
    for op in ops:
        before = len(tape)
        build = _recorded_gradient if op == "backward" else _DAG_NODES[op]
        try:
            pool.append(build(draw, tape, rng, pool))
        except NonFiniteError:
            if strict:
                raise
            # an overflowing forward; the DAG goes on without that node
        if op == "backward":
            recorded.update(range(before, len(tape)))
    loss = pool[0].sum()
    for t in pool[n_leaves:]:
        loss = loss + t.sum()
    wrt = [tape.handle(i) for i in range(len(tape)) if tape.nodes[i].op == "leaf" and i not in recorded]
    return tape, loss, wrt


@settings(max_examples=200, deadline=None, database=None)
@given(data=st.data(), seed=st.integers(0, 999), overflow=st.booleans())
def test_first_order_backward_leaves_the_tape_as_it_found_it(data, seed, overflow):
    # With ``overflow`` the sweep raises at its end, at d/db ((a*b)*c) = a*c,
    # after it recorded the backward of the random DAG.
    tape = Tape()
    a, b, c = (_leaf(tape, [[v]]) for v in (1e300, 1e-300, 1e300 if overflow else 1.0))
    product = ((a * b) * c).sum()
    tape, loss, wrt = _random_dag(data.draw, seed, tape=tape)
    loss = loss + product
    before = len(tape)
    try:
        grads = backward(loss, wrt)
    except NonFiniteError:
        pass
    else:
        assert not overflow
        assert all(grads[t.id].tape is None and grads[t.id].id is None for t in wrt)
    assert len(tape) == before


def _logged(draw, log):
    def run(strategy):
        log.append(draw(strategy))
        return log[-1]
    return run


def _replayed(log, tape):
    """Draws that repeat ``log``, taking each drawn tensor from ``tape`` by
    its node id: the same DAG, recorded again at other leaf values."""
    values = iter(log)

    def run(strategy):
        value = next(values)
        return tape.handle(value.id) if isinstance(value, Tensor) else value
    return run


def _loss_and_gradient_bytes(run):
    """The loss's and each gradient's bytes of ``run()``, which returns the
    loss value and the gradients in order, or the NonFiniteError message."""
    try:
        loss, grads = run()
    except NonFiniteError as exc:
        return str(exc)
    return loss.tobytes(), [(g.shape, g.value.tobytes()) for g in grads]


@settings(max_examples=150, deadline=None, database=None)
@given(data=st.data(), seed=st.integers(0, 999))
def test_a_replayed_step_is_byte_equal_to_a_freshly_recorded_one(data, seed):
    log = []
    try:
        tape, loss, wrt = _random_dag(_logged(data.draw, log), seed, second_order=True, strict=True)
    except NonFiniteError:
        assume(False)  # a step whose recording fails is never captured
    # the step's inputs are the leaves recorded before its first op
    n_inputs = next(i for i, node in enumerate(tape.nodes) if node.op != "leaf")
    plan = autodiff.StepPlan(loss, wrt, 0, n_inputs)

    # the same step recorded afresh at new leaf values and labels
    fresh = Tape()

    def record():
        _, fresh_loss, fresh_wrt = _random_dag(_replayed(log, fresh), seed + 1000, second_order=True, tape=fresh, strict=True)
        grads = backward(fresh_loss, fresh_wrt)
        return fresh_loss.value, [grads[t.id] for t in fresh_wrt]

    expected = _loss_and_gradient_bytes(record)
    inputs = [fresh.nodes[i].value for i in range(n_inputs)]
    labels = [node.aux for node in fresh.nodes if node.op == "softmax_xent"]
    labels += [node.aux for node in tape.nodes if node.op == "softmax_xent"][len(labels):]
    # the later leaves stand for parameters, updated in place between steps
    for old, new in zip(tape.nodes[n_inputs:], fresh.nodes[n_inputs:]):
        if old.op == "leaf":
            old.value[...] = new.value

    bad = [np.zeros(inputs[0].shape + (2,))] + inputs[1:]
    with pytest.raises(ShapeError):
        plan.run(bad, labels)
    if labels:
        with pytest.raises(ShapeError):
            plan.run(inputs, [labels[0][:-1]] + labels[1:])

    def replay():
        grads = plan.run(inputs, labels)
        return plan.nodes[loss.id].value, [grads[t.id] for t in wrt]

    assert _loss_and_gradient_bytes(replay) == expected


def test_a_replay_recomputes_the_row_maxima_and_labels_of_a_recorded_softmax_backward():
    w = stream(41, "w").uniforms(6, -1.0, 1.0).reshape(2, 3)

    def record(x, y):
        tape = Tape()
        xs, ws = tape.leaf(x), tape.leaf(w)
        loss = softmax_cross_entropy(matmul(xs, ws), y)
        total = loss + backward(loss, [xs], record=True)[xs.id].square().sum()
        return total, [xs, ws]

    total, wrt = record(stream(42, "x").uniforms(8, -2.0, 2.0).reshape(4, 2), [0, 1, 2, 1])
    plan = autodiff.StepPlan(total, wrt, 0, 1)
    x, y = stream(43, "x").uniforms(8, -2.0, 2.0).reshape(4, 2), [2, 2, 0, 1]
    fresh, fresh_wrt = record(x, y)
    grads, want = plan.run([x], [y]), backward(fresh, fresh_wrt)
    assert plan.nodes[total.id].value.tobytes() == fresh.value.tobytes()
    for a, b in zip(wrt, fresh_wrt):
        assert grads[a.id].value.tobytes() == want[b.id].value.tobytes()
    with pytest.raises(NonFiniteError, match="^leaf produced a non-finite value$"):
        plan.run([np.full((4, 2), np.nan)], [y])


def test_the_array_ops_hold_every_op_and_the_tape_ops_the_layer_ops():
    assert set(vars(autodiff._ARRAY_OPS)) == set(autodiff._OPS)
    assert set(vars(autodiff._TAPE_OPS)) == {"linear", *nn._ACTIVATIONS}


@pytest.mark.parametrize("inner", ["relu", "leaky_relu", "softmax"])
def test_no_gradient_is_computed_toward_an_op_without_a_rule(inner):
    # a recorded relu backward multiplies by a step mask, and a recorded
    # softmax backward subtracts row maxima and one-hot labels
    tape = Tape()
    x = tape.leaf(stream(44, "x").uniforms(8, -2.0, 2.0).reshape(4, 2))
    w = tape.leaf(stream(45, "w").uniforms(6, -1.0, 1.0).reshape(2, 3))
    z = matmul(x, w)
    if inner == "softmax":
        loss = softmax_cross_entropy(z, [0, 1, 2, 1])
    else:
        loss = (z.relu() if inner == "relu" else z.leaky_relu(0.2)).square().sum()
    total = loss + backward(loss, [x], record=True)[x.id].square().sum()
    ruleless = {op for op, spec in autodiff._OPS.items() if spec.vjp is None}
    assert any(node.op in ruleless for node in tape.nodes)
    for _, node, _, needed, _ in autodiff._schedule(tape.nodes, total.id, [x.id, w.id]):
        assert not any(flag and tape.nodes[iid].op in ruleless for iid, flag in zip(node.inputs, needed))


def _replay(tape) -> float:
    """The tape's last node, recomputed from the current leaf values by each
    node's forward in the op table."""
    values = []
    with np.errstate(all="ignore"):
        for node in tape.nodes:
            if node.op == "leaf":
                values.append(node.value)
            else:
                args = () if node.aux is None else (node.aux,)
                values.append(autodiff._OPS[node.op].fn(*(values[i] for i in node.inputs), *args))
    return float(values[-1])


def _check_against_central_differences(tape, loss, wrt):
    # No probe of the difference may cross a kink, and no denominator or
    # steep value may make the step's truncation error show.
    for node in tape.nodes:
        assume(np.abs(node.value).max(initial=0.0) <= 100.0)
        if node.op in ("relu", "leaky_relu", "step_mask", "sqrt"):
            assume(np.abs(tape.nodes[node.inputs[0]].value).min() > 1e-3)
        if node.op == "div":
            assume(np.abs(tape.nodes[node.inputs[1]].value).min() > 1e-2)
    grads = backward(loss, wrt)
    fd = helpers.central_difference(lambda: _replay(tape), [t.value for t in wrt])
    assert _replay(tape) == loss.item()
    assert max(helpers.relative_error(grads[t.id].value, f) for t, f in zip(wrt, fd)) <= 1e-5


@settings(max_examples=100, deadline=None, database=None)
@given(data=st.data(), seed=st.integers(0, 999))
def test_first_order_backward_matches_central_differences(data, seed):
    _check_against_central_differences(*_random_dag(data.draw, seed))


@settings(max_examples=100, deadline=None, database=None)
@given(data=st.data(), seed=st.integers(0, 999))
def test_backward_through_a_recorded_backward_matches_central_differences(data, seed):
    # the replay reruns the recorded backward's nodes too, so the difference
    # sees the gradient move with the inputs: a second-order check
    _check_against_central_differences(*_random_dag(data.draw, seed, second_order=True))


# ---------------------------------------------------------------------------
# second-order gradients (recorded backward passes)


def test_recorded_gradient_supports_second_derivative():
    tape = Tape()
    x = _leaf(tape, [[1.5]])
    cubic = (x.square() * x).sum()
    first = backward(cubic, [x], record=True)[x.id]
    assert abs(first.value[0, 0] - 3.0 * 1.5**2) <= 1e-12
    second = backward(first.sum(), [x])
    assert abs(second[x.id].value[0, 0] - 6.0 * 1.5) <= 1e-12


def test_second_order_parameter_gradients_match_finite_differences():
    cfg = MlpConfig((2, 4, 1), activation="leaky_relu")
    x = stream(6, "x").uniforms(6, -1.5, 1.5).reshape(3, 2)
    probe = init_mlp(cfg, stream(5, "critic"))
    assert helpers.kink_margin(probe, x) > 1e-3

    def penalty(arrays=None) -> float:
        tape = Tape()
        net = init_mlp(cfg, stream(5, "critic"), tape)
        if arrays is not None:
            for p, arr in zip(net.params, arrays):
                helpers.assign(p, arr)
        xh = tape.leaf(x)
        total = forward(net, xh).sum()
        grad_x = backward(total, [xh], record=True)[xh.id]
        row_sq = matmul(grad_x.square(), tape.leaf(np.ones((2, 1))))
        norms = (row_sq + 1e-12).sqrt()
        value = (norms - 1.0).square().mean()
        grads = backward(value, net.params)
        return value.item(), [grads[p.id].value.copy() for p in net.params]

    _, recorded = penalty()
    arrays = [p.value.copy() for p in probe.params]
    fd = helpers.central_difference(lambda: penalty(arrays)[0], arrays)
    worst = max(helpers.relative_error(r, f) for r, f in zip(recorded, fd))
    assert worst <= 1e-4


# ---------------------------------------------------------------------------
# the affine layer op

_LINEAR_SHAPES = dict(
    batch=st.integers(1, 5), d_in=st.integers(1, 4), d_out=st.integers(1, 4), seed=st.integers(0, 999)
)


def _linear_arrays(batch, d_in, d_out, seed):
    rng = stream(seed, "linear")
    return (
        rng.uniforms(batch * d_in, -1.5, 1.5).reshape(batch, d_in),
        rng.uniforms(d_out * d_in, -1.0, 1.0).reshape(d_out, d_in),
        rng.uniforms(d_out, -0.5, 0.5),
    )


def _critic_values(layer, arrays, activation):
    """Two layers of ``layer`` around an activation, as in the critic: the
    forward value, first-order gradients of its sum, the recorded input
    gradient, and the parameter gradients of that gradient's squared norm."""
    x, w1, b1, w2, b2 = arrays
    tape = Tape()
    xl, *params = (tape.leaf(a) for a in (x, w1, b1, w2, b2))
    h = layer(xl, params[0], params[1])
    h = h.leaky_relu(0.2) if activation == "leaky_relu" else h.tanh()
    y = layer(h, params[2], params[3])
    first = backward(y.sum(), [xl] + params)
    grad_x = backward(y.sum(), [xl], record=True)[xl.id]
    second = backward(grad_x.square().sum(), params)
    return (
        [y.value, grad_x.value]
        + [first[t.id].value for t in [xl] + params]
        + [second[p.id].value for p in params]
    )


@settings(max_examples=30, deadline=None, database=None)
@given(hidden=st.integers(1, 4), **_LINEAR_SHAPES)
def test_linear_is_bit_equal_to_the_six_op_layer(batch, d_in, hidden, d_out, seed):
    x, w1, b1 = _linear_arrays(batch, d_in, hidden, seed)
    _, w2, b2 = _linear_arrays(1, hidden, d_out, seed + 1000)
    arrays = (x, w1, b1, w2, b2)
    for activation in ("leaky_relu", "tanh"):
        got = _critic_values(linear, arrays, activation)
        want = _critic_values(helpers.six_op_layer, arrays, activation)
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()


def test_linear_records_one_node_and_checks_shapes():
    tape = Tape()
    x, w, b = (tape.leaf(a) for a in _linear_arrays(3, 2, 4, 0))
    before = tape.mark()
    linear(x, w, b)
    assert tape.mark() == before + 1
    with pytest.raises(ShapeError):
        linear(x, w.T, b)
    with pytest.raises(ShapeError):
        linear(x, w, b.reshape((1, 4)))


@settings(max_examples=20, deadline=None, database=None)
@given(**_LINEAR_SHAPES)
def test_linear_gradients_match_finite_differences(batch, d_in, d_out, seed):
    arrays = list(_linear_arrays(batch, d_in, d_out, seed))

    def grads_of(order):
        tape = Tape()
        leaves = [tape.leaf(a) for a in arrays]
        total = linear(*leaves).tanh().sum()
        if order == 2:
            grad_x = backward(total, leaves[:1], record=True)[leaves[0].id]
            total = grad_x.square().sum()
        grads = backward(total, leaves)
        return total.item(), [grads[t.id].value for t in leaves]

    for order, bound in ((1, 1e-6), (2, 1e-4)):
        _, analytic = grads_of(order)
        fd = helpers.central_difference(lambda: grads_of(order)[0], arrays)
        assert max(helpers.relative_error(a, f) for a, f in zip(analytic, fd)) <= bound


# ---------------------------------------------------------------------------
# tape lifetime and leaf rules


def test_stale_tensor_after_reset_is_rejected():
    tape = Tape()
    keep = _leaf(tape, [[1.0]])
    mark = tape.mark()
    stale = keep.square()
    tape.reset(mark)
    with pytest.raises(ValueError, match="invalidated"):
        stale + keep
    fresh = keep.square()
    assert fresh.item() == 1.0


def test_assign_updates_leaves_only():
    tape = Tape()
    w = _leaf(tape, [[1.0, 2.0]])
    helpers.assign(w, np.array([[3.0, 4.0]]))
    assert np.array_equal(w.value, [[3.0, 4.0]])
    assert (w + w).value[0, 1] == 8.0
    with pytest.raises(ShapeError):
        helpers.assign(w, np.zeros((2, 2)))
    derived = w.square()
    with pytest.raises(ValueError):
        helpers.assign(derived, np.array([[1.0, 1.0]]))


def test_mixing_tapes_is_rejected():
    a = Tape().leaf(np.ones((1, 1)))
    b = Tape().leaf(np.ones((1, 1)))
    with pytest.raises(ValueError, match="different tapes"):
        a + b


def test_transpose_and_reshape_carry_gradients():
    tape = Tape()
    x = _leaf(tape, [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    assert x.T.shape == (3, 2)
    y = x.transpose().reshape((2, 3))
    np.testing.assert_array_equal(y.value, x.value.T.reshape(2, 3))
    grads = backward(y.square().sum(), [x])
    np.testing.assert_allclose(grads[x.id].value, 2.0 * x.value, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("shape", [(-2, -3), (-1, -6), (2, -1), (-6,), (4,)])
def test_reshape_to_a_negative_dimension_or_another_size_raises(shape):
    # (-2, -3) and (-1, -6) multiply to the six entries, which numpy rejects
    x = _leaf(Tape(), np.arange(6.0))
    with pytest.raises(ShapeError, match="^cannot reshape"):
        x.reshape(shape)
