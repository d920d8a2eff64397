"""Tape-recorded reverse-mode differentiation: forward semantics,
gradients against finite differences, double backprop, and the error
contract for shapes, finiteness, and tape lifetime."""
from __future__ import annotations

import contextlib
import math
import sys
import unittest.mock
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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


def _with_values(params, values):
    for p, v in zip(params, values):
        p.value[...] = v


def _pretrain_step(activation, values=()):
    """One pretrain step of the `supervised` networks, an extractor
    (2, 32, 32, 8) with a final tanh and a 3-class classifier, recorded past
    a mark, at the parameter ``values`` if given: the loss, the parameters,
    the mark, the inputs and the labels."""
    tape = Tape()
    extractor = init_mlp(MlpConfig((2, 32, 32, 8), activation=activation, final_activation="tanh"),
                         stream(31, "ext"), tape)
    classifier = init_mlp(MlpConfig((8, 3)), stream(31, "clf"), tape)
    _with_values(extractor.params + classifier.params, values)
    mark = tape.mark()
    x = stream(32, "x").uniforms(2 * 64, -2.0, 2.0).reshape(64, 2)
    y = stream(33, "y").integers(64, below=3)
    loss = softmax_cross_entropy(forward(classifier, forward(extractor, tape.leaf(x))), y)
    return loss, extractor.params + classifier.params, mark, [x], [y]


def _critic_step(values=(), widths=(8, 64, 64, 1), batch=64, include_endpoints=True, draw=35):
    """One critic step of `quickstart`, as the pipeline records it: a
    (8, 64, 64, 1) leaky critic, batches of 64 features and the penalty on
    192 points, its one input, as ``_pretrain_step``; the batches and the
    interpolation weights come from the streams ``draw`` and ``draw + 1``."""
    tape = Tape()
    critic = init_mlp(MlpConfig(widths, activation="leaky_relu", leaky_slope=0.2), stream(34, "critic"), tape)
    _with_values(critic.params, values)
    mark = tape.mark()
    s, t = (stream(draw, side).uniforms(batch * widths[0], -2.0, 2.0).reshape(batch, widths[0]) for side in ("s", "t"))
    cfg = pipeline.AdaptConfig(include_endpoints=include_endpoints)
    loss = pipeline._critic_objective(critic, s, t, stream(draw + 1, "eps"), cfg)
    return loss, critic.params, mark, [tape.nodes[mark].value.copy()], []


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
    return helpers.step_plan(loss, params, mark, len(inputs)), inputs, labels


@pytest.mark.parametrize("step", [_critic_step, lambda values=(): _pretrain_step("leaky_relu", values)],
                         ids=["critic", "pretrain"])
def test_a_replay_reads_the_parameters_an_optimizer_rebinds_after_capture(step):
    loss, params, mark, inputs, labels = step()
    plan = helpers.step_plan(loss, params, mark, len(inputs))
    before = [p.value for p in params]
    # the first update rebinds each parameter node to a view of one fresh
    # buffer, which then holds the new values
    plan.run(inputs, labels)
    grads = helpers.gradient_views(plan.row, params)
    nn.step(nn.adam(0.01), params, {p.id: Tensor.of(g) for p, g in zip(params, grads)})
    after = [plan.nodes[p.id].value for p in params]
    assert all(a is not b for a, b in zip(after, before))
    assert any(not np.array_equal(a, b) for a, b in zip(after, before))

    plan.run(inputs, labels)
    fresh_loss, fresh_params, *_ = step([a.copy() for a in after])
    want = backward(fresh_loss, fresh_params)
    assert plan.nodes[plan.out].value.tobytes() == fresh_loss.value.tobytes()
    assert plan.row.tobytes() == b"".join(want[q.id].value.tobytes() for q in fresh_params)


def _program_values(frame, position):
    """The program's values among a replay's locals, by program position."""
    return {position[name]: v for name, v in frame.f_locals.items() if name in position}


@pytest.mark.parametrize("step, n_checks, n_every", [(lambda: _pretrain_step("relu"), 15, 31), (_critic_step, 10, 65)],
                         ids=["pretrain", "critic"])
def test_a_replayed_step_checks_the_nodes_its_capture_keeps(monkeypatch, step, n_checks, n_every):
    plan, inputs, labels = _plan(step())
    # node k's value is the local v{k} of the generated replay
    position = {f"v{k}": pos for pos, k in enumerate(plan.program)}
    bound, checked = [], []
    require_finite = autodiff._require_finite

    def counted_check(value, op):
        if value is plan.row:  # after the replay, every gradient written into the row
            checked.extend(pos for pos, k in enumerate(plan.program) if plan.nodes[k] in plan.into)
        elif op != "leaf":  # the step's inputs
            # a value that a ufunc wrote into an operand is the latest bound
            held = [pos for pos, v in _program_values(sys._getframe(1), position).items()
                    if v is value or v.base is not None and v.base is value.base]
            checked.append(max(held))
        return require_finite(value, op)

    def replayed(call, replay):
        """``call()`` with a trace that notes each program value of
        ``replay`` as it is bound: a forward run twice would bind its local
        twice."""
        seen = {}

        def on_line(frame, event, arg):
            for pos, v in _program_values(frame, position).items():
                if seen.get(pos) is not v:
                    seen[pos] = v  # held, so that no later value reuses its id
                    bound.append(pos)
            return on_line

        previous = sys.gettrace()
        sys.settrace(lambda frame, event, arg: on_line if frame.f_code is replay.__code__ else None)
        try:
            with np.errstate(all="ignore"):
                call()
        finally:
            sys.settrace(previous)

    # the generated replays look the check up at each call
    monkeypatch.setattr(autodiff, "_require_finite", counted_check)
    replayed(lambda: plan.run(inputs, labels), plan.lean)

    # each forward once, in program order, apart from the views that only
    # shared nodes read
    run = [pos for pos, k in enumerate(plan.program) if k in plan.emitted]
    assert bound == run
    step_nodes = [plan.nodes[k] for k in plan.program]
    expected = [pos for pos, node in enumerate(step_nodes) if node in plan.own or node in plan.sinks]
    assert len(set(checked)) == len(checked) and sorted(checked) == expected
    # the loss and every gradient that is not a constant are checked
    assert set(plan.sinks) == {plan.nodes[plan.out], *plan.into}
    assert len(checked) == n_checks
    # the fallback checks every checked op that is not shared after its
    # forward, in program order: 31 and 65 checks
    bound.clear()
    checked.clear()
    replayed(plan.full, plan.full)
    assert bound == run
    assert checked == [pos for pos in run
                       if autodiff._OPS[step_nodes[pos].op].checked and plan.program[pos] not in plan.shared]
    assert len(checked) == n_every


def test_the_critic_step_takes_its_score_gap_as_rows_of_the_penalty_forward():
    # Both batches' forwards, and the step masks of their backward, are rows
    # of the penalty forward's nodes on this BLAS: the 3 products and 2
    # activations of each batch and 2 masks of each, read as views.
    plan, inputs, _ = _plan(_critic_step())
    shared = [plan.nodes[k].op for k in plan.shared]
    assert sorted(shared) == ["leaky_relu"] * 4 + ["linear"] * 6 + ["step_mask"] * 4
    points = plan.inputs[0]
    first = min(k for k in plan.program if plan.nodes[k].op == "rows")
    assert all(base < first for base, _ in plan.shared.values())
    assert sorted((part.start, part.stop) for _, part in plan.shared.values()) == [(64, 128)] * 7 + [(128, 192)] * 7
    # the batches' first products and activations, read only as views, are not run
    assert len(plan.program) - len(plan.emitted) == 4
    # a replay writes into no view: of its input array, nor of a value a view holds
    plan.run(inputs, [])
    assert points.op == "leaf" and plan.arrays == ([points.value], [])
    points.value.setflags(write=False)
    plan.replay()
    fresh_loss, *_ = _critic_step([node.value.copy() for node in plan.wrt])
    assert plan.nodes[plan.out].value.tobytes() == fresh_loss.value.tobytes()
    assert points.value.tobytes() == inputs[0].tobytes()


def _shared_step(order, values=(), draw=49):
    """A product on 192 rows and the same product on rows 64:128 of its
    input, which a replay takes as rows of the first, a tanh of the whole
    and an exp of the part, which is not shared: the exp after the tanh
    (``"part-last"``), before it (``"part-first"``), or alone
    (``"part-only"``), as ``_pretrain_step``."""
    tape = Tape()
    w, b = (_leaf(tape, stream(50, name).uniforms(math.prod(shape), -1.0, 1.0).reshape(shape))
            for name, shape in (("w", (4, 8)), ("b", (4,))))
    _with_values([w, b], values)
    mark = tape.mark()
    x = tape.leaf(stream(draw, "x").uniforms(192 * 8, -2.0, 2.0).reshape(192, 8))
    whole, part = linear(x, w, b), linear(autodiff._rows(x, 64, 128), w, b)
    if order == "part-only":
        loss = part.exp().sum()
    elif order == "part-last":
        # each may write into its operand where nothing reads it later
        loss = whole.tanh().sum() + part.exp().sum()
    else:
        loss = part.exp().sum() + whole.tanh().sum()
    return loss, [w, b], mark, [x.value.copy()], []


@pytest.mark.parametrize("order", ["part-last", "part-first", "part-only"])
def test_a_replay_writes_into_no_shared_rows_and_checks_their_base(order):
    # No ufunc writes into the whole product while its rows are read, nor
    # into the rows; the whole product, read only as rows, keeps its check.
    plan, opt, params, inputs, labels, _ = _bound(lambda values=(), draw=49: _shared_step(order, values, draw))
    assert [plan.nodes[k].op for k in plan.shared] == ["linear"]
    for draw in (51, 52):
        fresh_loss, fresh_params, _, inputs, _ = _shared_step(order, [p.value.copy() for p in params], draw)
        want = backward(fresh_loss, fresh_params)
        plan.run(inputs)
        assert plan.nodes[plan.out].value.tobytes() == fresh_loss.value.tobytes()
        assert opt._rows[0].tobytes() == b"".join(want[q.id].value.tobytes() for q in fresh_params)
    _assert_faults_surface(plan, inputs, labels, _entries(53))


@settings(max_examples=40, deadline=None, database=None)
@given(widths=st.sampled_from([(8, 64, 64, 1), (8, 32, 32, 1), (2, 32, 1)]),
       batch=st.sampled_from([1, 2, 3, 7, 63, 64, 65]), include_endpoints=st.booleans(), differ=st.booleans(),
       seed=st.integers(0, 999))
# captured rows equal to the whole's, but another order of summation for the
# one-column product's rows of the slice, which a later step's bytes show
@example(widths=(8, 32, 32, 1), batch=7, include_endpoints=True, differ=False, seed=77)
def test_a_critic_replay_is_byte_equal_to_a_fresh_record_at_any_batch(widths, batch, include_endpoints, differ,
                                                                      seed):
    """Sharing is decided at capture by bytes, which on this BLAS differ for
    one-row products and some one-column ones; taken as "differ", no node
    is shared.  Either way two replays at new parameters and points equal
    recording the step afresh."""
    def step(values=(), draw=35):
        return _critic_step(values, widths, batch, include_endpoints, draw)

    with contextlib.ExitStack() as stack:
        if differ:
            stack.enter_context(unittest.mock.patch.object(autodiff, "_same", lambda a, b: False))
        plan, opt, params, *_ = _bound(step)
    assert bool(plan.shared) == (include_endpoints and not differ and batch > 1)
    for draw in (seed, seed + 1000):
        fresh_loss, fresh_params, _, inputs, _ = step([p.value.copy() for p in params], draw=draw)
        want = backward(fresh_loss, fresh_params)
        plan.run(inputs)
        assert plan.nodes[plan.out].value.tobytes() == fresh_loss.value.tobytes()
        assert opt._rows[0].tobytes() == b"".join(want[q.id].value.tobytes() for q in fresh_params)
        nn.step(opt, params, None)


def _outcome(plan, inputs, labels):
    """The bytes of the loss and the gradient row of a replay, or its error."""
    try:
        plan.run(inputs, labels)
    except NonFiniteError as exc:
        return str(exc)
    return plan.nodes[plan.out].value.tobytes(), plan.row.tobytes()


def _regenerate(plan):
    """Drop both generated replays, so that the next replay generates them
    again from the plan's program."""
    vars(plan).pop("lean", None)
    vars(plan).pop("full", None)


def _faulty_replays(plan, k, fault):
    """The lean and the full replay of ``plan`` generated with node ``k``'s
    op swapped for one whose form calls the op's table forward and writes
    ``fault["bad"]`` into entry ``fault["entry"]`` of its value.  The caller
    drops ``_OPS["fault"]`` and ``_faulty`` and regenerates the plan."""
    node = plan.nodes[k]
    op, spec = node.op, autodiff._OPS[node.op]

    def faulty(*args):
        value = np.array(spec.fn(*args))
        if value.size:
            value.flat[fault["entry"] % value.size] = fault["bad"]
        return value

    # a replay looks its forms' names up in the module
    autodiff._faulty = faulty
    operands = [f"{{{i}}}" for i in range(len(node.inputs))] + ["{aux}"] * (node.aux is not None)
    autodiff._OPS["fault"] = spec._replace(form=f"{{v}} = _faulty({', '.join(operands)})")
    node.op = "fault"
    try:
        _regenerate(plan)
        return plan.lean, plan.full
    finally:
        node.op = op


@contextlib.contextmanager
def _restored(plan):
    try:
        yield
    finally:
        autodiff._OPS.pop("fault", None)
        vars(autodiff).pop("_faulty", None)
        _regenerate(plan)


def _run_by_op(plan):
    """The nodes that a replay of ``plan`` runs by their own op: a shared
    node is its base's rows, and a view that only shared nodes read is not
    run at all."""
    return [k for k in plan.emitted if k not in plan.shared]


def _assert_faults_surface(plan, inputs, labels, entries):
    """With a NaN or an infinity written into one entry of each node's value
    in turn, right after its forward, ``run`` raises the message of a replay
    with every check, or returns its bytes.  The fault reaches both
    generated replays (``_faulty_replays``)."""
    raised = 0
    with _restored(plan):
        for k in _run_by_op(plan):
            fault = {}
            lean, full = _faulty_replays(plan, k, fault)
            for bad in (np.nan, np.inf, -np.inf):
                fault.update(bad=bad, entry=next(entries))
                plan.lean = full
                expected = _outcome(plan, inputs, labels)
                plan.lean = lean
                got = _outcome(plan, inputs, labels)
                assert got == expected, (k, plan.nodes[k].op, bad)
                raised += isinstance(got, str)
    # the faults reached the generated code
    assert raised


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
        tape, loss, wrt = _random_dag(data.draw, seed, second_order=True, strict=True, rows=True)
    except NonFiniteError:
        assume(False)
    n_inputs = next(i for i, node in enumerate(tape.nodes) if node.op != "leaf")
    inputs = [tape.nodes[i].value.copy() for i in range(n_inputs)]
    labels = [node.aux.copy() for node in tape.nodes if node.op == "softmax_xent"]
    plan = helpers.step_plan(loss, wrt, 0, n_inputs)
    _assert_faults_surface(plan, inputs, labels, _entries(seed))


def _finetune_step(values=()):
    """One fine-tune step of `supervised`: its 3-class classifier on 64 rows
    of 8 features, as ``_pretrain_step``."""
    tape = Tape()
    classifier = init_mlp(MlpConfig((8, 3)), stream(40, "clf"), tape)
    _with_values(classifier.params, values)
    mark = tape.mark()
    x = stream(41, "x").uniforms(64 * 8, -1.0, 1.0).reshape(64, 8)
    y = stream(42, "y").integers(64, below=3)
    loss = softmax_cross_entropy(forward(classifier, tape.leaf(x)), y)
    return loss, classifier.params, mark, [x], [y]


def _bound(step):
    """The plan of ``step`` bound, as a training loop binds it, to the
    gradient row of an Adam state, which its first replay then updated: the
    plan, the optimizer, the parameters, the inputs, the labels and the row
    as the capture left it."""
    loss, params, mark, inputs, labels = step()
    opt = nn.adam(0.01)
    row, views = nn._gradient_row(opt, params)
    row[...] = np.nan  # so that the row holds only what the plan writes
    plan = autodiff.StepPlan(loss, params, mark, len(inputs), row, views)
    captured = row.copy()
    plan.run(inputs, labels)
    nn.step(opt, params, None)
    return plan, opt, params, inputs, labels, captured


_PRETRAIN = lambda values=(): _pretrain_step("leaky_relu", values)  # noqa: E731


@pytest.mark.parametrize("step", [_PRETRAIN, _critic_step, _finetune_step], ids=["pretrain", "critic", "finetune"])
def test_a_bound_replay_writes_a_freshly_recorded_steps_gradients_into_the_row(step):
    plan, opt, params, inputs, labels, captured = _bound(step)
    for _ in range(2):
        assert plan.run(inputs, labels) is None
        fresh_loss, fresh_params, *_ = step([p.value.copy() for p in params])
        want = backward(fresh_loss, fresh_params)
        assert plan.nodes[plan.out].value.tobytes() == fresh_loss.value.tobytes()
        assert opt._rows[0].tobytes() == b"".join(want[q.id].value.tobytes() for q in fresh_params)
        nn.step(opt, params, None)
    # the critic's last bias does not move the penalty: its gradient is a
    # constant, which the replay never writes
    written = [view for views in plan.into.values() for view in views]
    constants = [p for p, (_, view) in zip(params, opt._views) if not any(view is w for w in written)]
    assert constants == (params[-1:] if step is _critic_step else [])
    assert len(written) == len(params) - len(constants)
    # the capture wrote the constant into the row, and nothing else
    assert captured.tobytes() == b"".join((want[q.id].value if p in constants else np.full(q.shape, np.nan)).tobytes()
                                          for p, q in zip(params, fresh_params))


@pytest.mark.parametrize("step", [_PRETRAIN, _critic_step], ids=["pretrain", "critic"])
def test_a_fault_in_any_node_of_a_bound_replay_raises_as_with_every_check(step):
    plan, _, _, inputs, labels, _ = _bound(step)
    _assert_faults_surface(plan, inputs, labels, _entries(38))


def _step_error(plan, opt, params, inputs, labels) -> str:
    """The message of a bound replay and its Adam update, which must raise."""
    with pytest.raises(NonFiniteError) as raised:
        plan.run(inputs, labels)
        nn.step(opt, params, None)
    return str(raised.value)


@pytest.mark.parametrize("step", [_PRETRAIN, _critic_step], ids=["pretrain", "critic"])
def test_a_bound_step_that_raises_leaves_the_optimizer_as_it_was(step):
    """With a NaN or an infinity written into any node that a bound replay
    runs by its op, the step raises the message of a replay with every check, or, where
    that replay passes the fault on, of the update, as recording the step
    would; the optimizer's values, moments and step count stay as they
    were."""
    plan, opt, params, inputs, labels, _ = _bound(step)
    state = opt._values.tobytes(), opt._rows[1].tobytes(), opt._rows[2].tobytes(), opt.step_count
    entries = _entries(39)
    with _restored(plan):
        for k in _run_by_op(plan):
            fault = {}
            lean, full = _faulty_replays(plan, k, fault)
            for bad in (np.nan, np.inf, -np.inf):
                fault.update(bad=bad, entry=next(entries))
                plan.lean = full
                expected = _step_error(plan, opt, params, inputs, labels)
                plan.lean = lean
                assert _step_error(plan, opt, params, inputs, labels) == expected, (k, plan.nodes[k].op, bad)
                assert (opt._values.tobytes(), opt._rows[1].tobytes(), opt._rows[2].tobytes(),
                        opt.step_count) == state


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


# magnitudes from 1e-300 to 1e300 of either sign, and zeros
_MAGNITUDES = st.one_of(st.just(0.0), st.floats(1e-300, 1e300), st.floats(-1e300, -1e-300))


@settings(max_examples=300, deadline=None, database=None)
@given(v=hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=2, max_side=6), elements=_MAGNITUDES))
def test_the_replayed_sum_and_mean_equal_the_ndarray_reductions_bit_for_bit(v):
    # a replay reduces with np.add.reduce over every axis and divides by the size
    for op in ("sum", "mean"):
        tape = Tape()
        x = tape.leaf(np.ones(v.shape))
        plan = helpers.step_plan(getattr(x, op)(), [x], 0, 1)
        plan.run([v])
        want = np.asarray(getattr(v, op)())
        assert plan.nodes[plan.out].value.tobytes() == want.tobytes()


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
    # transpose, reshape and rows move checked values; the step mask is 1 or
    # the validated slope, the row maxima are entries of checked logits, and
    # one-hot labels are 0 or 1, whatever their input
    unchecked = {op for op, spec in autodiff._OPS.items() if not spec.checked}
    assert unchecked == {"transpose", "reshape", "rows", "step_mask", "row_max", "one_hot"}
    assert set(_NON_FINITE_CASES) == set(autodiff._OPS) - unchecked


def _array_twins(op, primitive, arrays, args):
    """The op's form run on ``arrays`` outside ``_apply``: by both replays of
    a step that holds the op with constant operands, captured at finite
    stand-ins and then given these values, and for a layer op as a frozen
    network runs it."""
    tape = Tape()
    leaves = [tape.leaf(np.ones_like(a)) for a in arrays]
    plan = helpers.step_plan(primitive(*leaves), [], 0, 0)
    for leaf, a in zip(leaves, arrays):
        plan.nodes[leaf.id].value = a
    layer_op = getattr(autodiff._ARRAY_OPS, op, None)
    return [plan.lean, plan.full] + [lambda: layer_op(*arrays, *args)] * (layer_op is not None)


@pytest.mark.parametrize("twin", [False, True], ids=["primitive", "array_twin"])
@pytest.mark.parametrize("op", sorted(_NON_FINITE_CASES))
def test_each_checked_op_raises_on_a_non_finite_result(op, twin):
    operands, primitive, args = _NON_FINITE_CASES[op]
    arrays = [np.asarray(v, dtype=np.float64) for v in operands]
    if twin:
        runs = _array_twins(op, primitive, arrays, args)
    else:
        runs = [lambda: primitive(*(Tensor(None, None, a) for a in arrays))]
    for run in runs:
        # with warnings as errors, a forward that warns outside
        # ``np.errstate`` fails here instead of reaching the check
        with warnings.catch_warnings(), pytest.raises(NonFiniteError, match=f"^{op} produced a non-finite value$"):
            warnings.simplefilter("error")
            with np.errstate(all="ignore") if twin else contextlib.nullcontext():  # as the twins run
                run()


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


def _rows_node(draw, tape, rng, pool):
    """A row-wise op on rows of a pool matrix that the op also ran on whole,
    as the critic's score gap and penalty do: the whole result joins the
    pool, and a replay may take the part as its rows."""
    x = draw(st.sampled_from([t for t in pool if t.value.ndim == 2]))
    start = draw(st.integers(0, x.shape[0] - 1))
    stop = draw(st.integers(start + 1, x.shape[0]))
    op = draw(st.sampled_from(["linear", "relu", "leaky_relu", "tanh"]))
    if op == "linear":
        d_out = draw(st.integers(1, 3))
        w, b = _random_leaf(tape, rng, (d_out, x.shape[1])), _random_leaf(tape, rng, (d_out,))
        fn = lambda v: linear(v, w, b)  # noqa: E731
    else:
        fn = {"relu": Tensor.relu, "leaky_relu": lambda v: v.leaky_relu(0.2), "tanh": Tensor.tanh}[op]
    pool.append(fn(x))
    return fn(autodiff._rows(x, start, stop))


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


def _random_dag(draw, seed, second_order=False, tape=None, strict=False, rows=False):
    """A tape of random op nodes over random leaves, the scalar sum of every
    node's sum, and handles to every input leaf.  With ``second_order`` the
    DAG holds at least one recorded backward, whose gradient later nodes may
    take as an operand; the constant leaves that backward records are not
    inputs.  With ``rows`` it may hold ``_rows_node`` pairs, whose gradient
    stops at the rows.  The DAG is recorded on ``tape`` if given; with
    ``strict`` an overflowing forward raises instead of being left out."""
    rng = stream(seed, "dag")
    tape = Tape() if tape is None else tape
    # One-element leaves of three shapes meet every shape and each other, in
    # a binary op first of all: (1, 1) against (3,) or (1,) is where NumPy's
    # broadcasting would give another shape than the one-element rule.
    shapes = [(), (1, 1), (1,), (3,)] + draw(st.lists(st.sampled_from([(3,), (2, 3), (3, 2)]), max_size=2))
    pool = [_random_leaf(tape, rng, shape) for shape in shapes]
    n_leaves = len(pool)
    ops = [draw(st.sampled_from(["add", "sub", "mul", "div"]))]
    ops += draw(st.lists(st.sampled_from(sorted(_DAG_NODES) + ["backward"] * second_order + ["rows"] * 3 * rows),
                         max_size=7))
    if second_order:
        ops.insert(draw(st.integers(1, len(ops))), "backward")
    recorded: set[int] = set()
    for op in ops:
        before = len(tape)
        build = {"backward": _recorded_gradient, "rows": _rows_node}.get(op) or _DAG_NODES[op]
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
    loss value and the gradient arrays in order, or the NonFiniteError
    message."""
    try:
        loss, grads = run()
    except NonFiniteError as exc:
        return str(exc)
    return loss.tobytes(), [(g.shape, g.tobytes()) for g in grads]


@settings(max_examples=150, deadline=None, database=None)
@given(data=st.data(), seed=st.integers(0, 999))
def test_a_replayed_step_is_byte_equal_to_a_freshly_recorded_one(data, seed):
    log = []
    try:
        tape, loss, wrt = _random_dag(_logged(data.draw, log), seed, second_order=True, strict=True, rows=True)
    except NonFiniteError:
        assume(False)  # a step whose recording fails is never captured
    # the step's inputs are the leaves recorded before its first op
    n_inputs = next(i for i, node in enumerate(tape.nodes) if node.op != "leaf")
    plan = helpers.step_plan(loss, wrt, 0, n_inputs)

    # the same step recorded afresh at new leaf values and labels
    fresh = Tape()

    def record():
        _, fresh_loss, fresh_wrt = _random_dag(_replayed(log, fresh), seed + 1000, second_order=True, tape=fresh,
                                               strict=True, rows=True)
        grads = backward(fresh_loss, fresh_wrt)
        return fresh_loss.value, [grads[t.id].value for t in fresh_wrt]

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
        plan.run(inputs, labels)
        return plan.nodes[loss.id].value, helpers.gradient_views(plan.row, wrt)

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
    plan = helpers.step_plan(total, wrt, 0, 1)
    x, y = stream(43, "x").uniforms(8, -2.0, 2.0).reshape(4, 2), [2, 2, 0, 1]
    fresh, fresh_wrt = record(x, y)
    plan.run([x], [y])
    want = backward(fresh, fresh_wrt)
    assert plan.nodes[total.id].value.tobytes() == fresh.value.tobytes()
    assert plan.row.tobytes() == b"".join(want[b.id].value.tobytes() for b in fresh_wrt)
    with pytest.raises(NonFiniteError, match="^leaf produced a non-finite value$"):
        plan.run([np.full((4, 2), np.nan)], [y])


@pytest.mark.parametrize("differs", [None, "frozen", "constant"])
def test_a_lockstep_stacks_only_plans_that_bind_the_same_values_outside_wrt(differs):
    """Two sources' plans of one program that reads a frozen layer below the
    mark and a constant past the inputs: stacked only where both are the
    same in each plan, and each source's loss and gradients are its own."""
    opt, nets = nn.adam(1e-2), []
    for s in range(2):
        tape = Tape()
        frozen = _leaf(tape, np.full((4, 3), 0.5 + 0.25 * s * (differs == "frozen")))
        w = _leaf(tape, stream(44, "w", str(s)).uniforms(8, -1.0, 1.0).reshape(2, 4))
        nets.append((tape, frozen, w, _leaf(tape, [0.1, -0.2 * s]), tape.mark()))
    row, views = nn._gradient_row(opt, [p for _, _, w, b, _ in nets for p in (w, b)], 2)

    def record(s, x, y):
        tape, frozen, w, b, mark = nets[s]
        tape.reset(mark)
        hidden = linear(tape.leaf(x), frozen, Tensor.of(np.zeros(4)))
        return softmax_cross_entropy(linear(hidden, w, b) * (1.5 + s * (differs == "constant")), y)

    x = [stream(45, "x", str(s)).uniforms(15, -2.0, 2.0).reshape(5, 3) for s in range(2)]
    y = [[0, 1, 1, 0, 1], [1, 1, 0, 0, 0]]
    plans = [autodiff.StepPlan(record(s, x[s], y[s]), nets[s][2:4], nets[s][4], 1, row[s], views[2 * s : 2 * s + 2])
             for s in range(2)]
    lockstep = autodiff.Lockstep(plans, row, opt._stacked)
    assert (lockstep.lean is None) == (differs is not None)
    x, y = [x[1] * 0.5, x[0] - 1.0], [y[1], y[0]]
    lockstep.run([[x[s]] for s in range(2)], [[y[s]] for s in range(2)])
    for s, plan in enumerate(plans):
        loss = record(s, x[s], y[s])
        grads = backward(loss, nets[s][2:4])
        assert plan.nodes[plan.out].value.tobytes() == loss.value.tobytes()
        assert row[s].tobytes() == b"".join(grads[p.id].value.tobytes() for p in nets[s][2:4])
    # a source whose rows its own plan rejects raises as it raises alone
    with pytest.raises(ShapeError, match=r"^step input shape \(4, 3\) != captured shape \(5, 3\)$"):
        lockstep.run([[x[0]], [x[1][:4]]], [[y[0]], [y[1][:4]]])


def test_the_array_ops_and_the_tape_ops_hold_the_layer_ops():
    assert set(vars(autodiff._ARRAY_OPS)) == set(vars(autodiff._TAPE_OPS)) == {"linear", *nn._ACTIVATIONS}


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
