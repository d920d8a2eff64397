"""Reverse-mode automatic differentiation over dense float64 tensors.

Every operation is recorded as a node on a :class:`Tape`.  Each op is one
entry of a table: its forward on arrays, its vector-Jacobian rule, whether
its result is checked for finiteness and which operands always pass a
non-finite entry on to its result.  The rules are written in the
recording primitives (the :class:`Tensor` methods, :func:`matmul`), so
:func:`backward` records the backward arithmetic as ordinary nodes: it
builds a schedule of the nodes that need a gradient, then sweeps it.  With
``record=True`` the gradients stay on the tape and can be differentiated
again.  That is what makes the critic's gradient penalty (a loss containing
an input gradient) trainable with a single engine.  A first-order backward
runs the same sweep, cuts the tape back and returns detached gradients.  An
op without a rule (a step mask, row maxima, one-hot labels) stops
gradients: no gradient toward it is computed.  A training loop records its
first step and captures it as a :class:`StepPlan`, which records the step's
backward onto the tape as well and replays every later step as one list of
array forwards at its new inputs, with the same operations and without
recording.  A replay checks only where a non-finite value could hide, and
raises the same error at the same op as recording the step would.

Conventions kept deliberately narrow:

- float64 everywhere; any op whose result contains NaN/Inf raises
  :class:`NonFiniteError` instead of propagating poison values.
- broadcasting is limited to equal shapes or a one-element operand
  against anything; batch reductions are explicit ``sum`` / ``mean``.
- tensors produced by ops are immutable; only leaves may be rewritten
  between computations, in place by an optimizer, which rebinds its
  parameters to views of one flat buffer.
"""
from __future__ import annotations

import math
from types import SimpleNamespace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import NonFiniteError, ShapeError

Grads = dict[int, "Tensor"]


def _as_array(value) -> np.ndarray:
    return np.asarray(value, dtype=np.float64)


def _require_finite(value: np.ndarray, op: str) -> None:
    # a finite sum of squares shows every entry finite; else the exact test decides
    if not math.isfinite(np.vdot(value, value)) and not np.isfinite(value).all():
        raise NonFiniteError(f"{op} produced a non-finite value")


class Node:
    """One recorded operation; ``inputs`` are ids of earlier nodes."""

    __slots__ = ("op", "inputs", "value", "aux")

    def __init__(self, op: str, inputs: tuple[int, ...], value: np.ndarray, aux=None):
        self.op = op
        self.inputs = inputs
        self.value = value
        self.aux = aux


class Tensor:
    """Handle to a dense float64 array, optionally bound to a tape node.

    A detached tensor (``tape is None``) is a plain value; it is lifted
    to a constant leaf automatically if it enters a recorded computation.
    """

    __slots__ = ("tape", "id", "value")

    def __init__(self, tape: "Tape | None", node_id: int | None, value: np.ndarray):
        self.tape = tape
        self.id = node_id
        self.value = value

    @staticmethod
    def of(value) -> "Tensor":
        arr = _as_array(value)
        _require_finite(arr, "tensor")
        return Tensor(None, None, arr.copy())

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def item(self) -> float:
        if self.value.size != 1:
            raise ShapeError(f"item() needs a one-element tensor, got shape {self.shape}")
        return float(self.value.reshape(()))

    # ---- arithmetic ---------------------------------------------------

    def __add__(self, other):
        return _apply("add", (self, _lift(other)))

    def __sub__(self, other):
        return _apply("sub", (self, _lift(other)))

    def __mul__(self, other):
        return _apply("mul", (self, _lift(other)))

    def __rmul__(self, other):
        return _apply("mul", (_lift(other), self))

    def __truediv__(self, other):
        return _apply("div", (self, _lift(other)))

    def __neg__(self):
        return _apply("neg", (self,))

    # ---- primitives as methods ---------------------------------------

    def relu(self) -> "Tensor":
        return _apply("relu", (self,))

    def leaky_relu(self, slope: float) -> "Tensor":
        if not 0.0 < slope < 1.0:
            raise ValueError("leaky_relu slope must lie in (0, 1)")
        return _apply("leaky_relu", (self,), slope)

    def tanh(self) -> "Tensor":
        return _apply("tanh", (self,))

    def exp(self) -> "Tensor":
        return _apply("exp", (self,))

    def square(self) -> "Tensor":
        return _apply("square", (self,))

    def sqrt(self) -> "Tensor":
        return _apply("sqrt", (self,))

    def transpose(self) -> "Tensor":
        if self.value.ndim != 2:
            raise ShapeError(f"transpose needs a matrix, got shape {self.shape}")
        return _apply("transpose", (self,))

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def reshape(self, shape) -> "Tensor":
        shape = tuple(int(s) for s in shape)
        if any(s < 0 for s in shape) or int(np.prod(shape, dtype=np.int64)) != self.value.size:
            raise ShapeError(f"cannot reshape {self.shape} to {shape}")
        return _apply("reshape", (self,), shape)

    def sum(self) -> "Tensor":
        return _apply("sum", (self,))

    def mean(self) -> "Tensor":
        return _apply("mean", (self,))

    def __repr__(self) -> str:
        tag = "detached" if self.id is None else f"node {self.id}"
        return f"Tensor({tag}, shape={self.shape})"


class Tape:
    """Append-only record of operations forming a DAG.

    ``mark``/``reset`` truncate the node list back to a watermark between
    training steps so per-step graphs do not accumulate; leaves created
    below the watermark (parameters) survive.
    """

    __slots__ = ("nodes",)

    def __init__(self):
        self.nodes: list[Node] = []

    def leaf(self, value) -> Tensor:
        arr = _as_array(value).copy()
        _require_finite(arr, "leaf")
        self.nodes.append(Node("leaf", (), arr))
        return Tensor(self, len(self.nodes) - 1, arr)

    def handle(self, node_id: int) -> Tensor:
        return Tensor(self, node_id, self.nodes[node_id].value)

    def mark(self) -> int:
        return len(self.nodes)

    def reset(self, mark: int) -> None:
        if mark < 0 or mark > len(self.nodes):
            raise ValueError(f"invalid tape mark {mark}")
        del self.nodes[mark:]

    def __len__(self) -> int:
        return len(self.nodes)


# ---------------------------------------------------------------------------
# op plumbing


def _lift(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor.of(x)


def _apply(op: str, operands: tuple[Tensor, ...], *args) -> Tensor:
    """Run ``op``'s forward on the operands' values and record the node.
    ``args`` holds the op's non-tensor argument, if any; it becomes the
    node's ``aux``."""
    spec = _OPS[op]
    tape = None
    values = []
    for t in operands:
        values.append(t.value)
        if t.tape is not None:
            if tape is None:
                tape = t.tape
            elif tape is not t.tape:
                raise ValueError(f"{op}: operands recorded on different tapes")
    with np.errstate(all="ignore"):
        value = spec.fn(*values, *args)
    if spec.checked:
        _require_finite(value, op)
    if tape is None:
        return Tensor(None, None, value)
    ids = []
    for t in operands:
        if t.tape is None:
            ids.append(tape.leaf(t.value).id)
        else:
            if t.id >= len(tape.nodes):
                raise ValueError(f"{op}: operand was invalidated by a tape reset")
            ids.append(t.id)
    tape.nodes.append(Node(op, tuple(ids), value, args[0] if args else None))
    return Tensor(tape, len(tape.nodes) - 1, value)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _lift(a), _lift(b)
    if a.value.ndim != 2 or b.value.ndim != 2:
        raise ShapeError(f"matmul needs matrices, got shapes {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape} @ {b.shape}")
    return _apply("matmul", (a, b))


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w.T + b`` for x [batch x in], w [out x in] and b [out], recorded
    as one node: the affine map of an MLP layer."""
    x, w, b = _lift(x), _lift(w), _lift(b)
    if x.value.ndim != 2 or w.value.ndim != 2 or b.shape != w.shape[:1] or x.shape[1] != w.shape[1]:
        raise ShapeError(
            f"linear needs [batch x in], [out x in] and [out], got {x.shape}, {w.shape} and {b.shape}"
        )
    return _apply("linear", (x, w, b))


# the mask of the relu rule; perfbench/opbench.py times it
def _step_mask(x: Tensor, slope: float) -> Tensor:
    return _apply("step_mask", (x,), slope)


def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log softmax probability of the labelled class."""
    logits = _lift(logits)
    if logits.value.ndim != 2:
        raise ShapeError(f"softmax_cross_entropy needs [batch x classes] logits, got {logits.shape}")
    return _apply("softmax_xent", (logits,), _labels(labels, *logits.shape))


def _labels(labels, n_batch: int, n_classes: int) -> np.ndarray:
    """``labels`` as a fresh int64 vector of ``n_batch`` classes below
    ``n_classes``: a step plan rewrites it in place."""
    y = np.array(labels, dtype=np.int64)
    if y.shape != (n_batch,):
        raise ShapeError(f"labels shape {y.shape} does not match batch size {n_batch}")
    if y.size and (y.min() < 0 or y.max() >= n_classes):
        raise ValueError(f"label out of range [0, {n_classes})")
    return y


# ---------------------------------------------------------------------------
# forwards on float64 arrays


def _broadcasting(op: str, fn):
    """``fn`` over operands of equal shape, or with a one-element operand
    taken as a scalar: the broadcast rule of every binary op."""
    def run(av: np.ndarray, bv: np.ndarray) -> np.ndarray:
        if av.shape == bv.shape:
            value = fn(av, bv)
        elif bv.size == 1:
            value = fn(av, float(bv.reshape(())))
        elif av.size == 1:
            value = fn(float(av.reshape(())), bv)
        else:
            raise ShapeError(
                f"{op}: shapes {av.shape} and {bv.shape} are neither equal "
                "nor one-element-broadcastable"
            )
        return np.asarray(value)
    return run


def _sqrt(v: np.ndarray) -> np.ndarray:
    if np.any(v < 0.0):
        raise NonFiniteError("sqrt of negative input")
    return np.sqrt(v)


def _softmax_xent(z: np.ndarray, y: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return np.asarray((lse[:, 0] - shifted[np.arange(z.shape[0]), y]).mean())


# ---------------------------------------------------------------------------
# vector-Jacobian rules, written in the recording primitives, so a backward
# records its arithmetic as ordinary nodes


def _reduce_to(g: Tensor, shape: tuple[int, ...]) -> Tensor:
    if g.shape == shape:
        return g
    return g.sum().reshape(shape)


def _shape_of(tape: Tape, nid: int) -> tuple[int, ...]:
    return tape.nodes[nid].value.shape


def _vjp_add(tape, nid, node, g, needed):
    out = []
    if needed[0]:
        out.append((0, _reduce_to(g, _shape_of(tape, node.inputs[0]))))
    if needed[1]:
        out.append((1, _reduce_to(g, _shape_of(tape, node.inputs[1]))))
    return out


def _vjp_sub(tape, nid, node, g, needed):
    out = []
    if needed[0]:
        out.append((0, _reduce_to(g, _shape_of(tape, node.inputs[0]))))
    if needed[1]:
        out.append((1, _reduce_to(-g, _shape_of(tape, node.inputs[1]))))
    return out


def _vjp_mul(tape, nid, node, g, needed):
    a, b = tape.handle(node.inputs[0]), tape.handle(node.inputs[1])
    out = []
    if needed[0]:
        out.append((0, _reduce_to(g * b, a.shape)))
    if needed[1]:
        out.append((1, _reduce_to(g * a, b.shape)))
    return out


def _vjp_div(tape, nid, node, g, needed):
    b = tape.handle(node.inputs[1])
    out = []
    if needed[0]:
        out.append((0, _reduce_to(g / b, _shape_of(tape, node.inputs[0]))))
    if needed[1]:
        out.append((1, _reduce_to(-(g * (tape.handle(nid) / b)), b.shape)))
    return out


def _vjp_neg(tape, nid, node, g, needed):
    return [(0, -g)]


def _vjp_matmul(tape, nid, node, g, needed):
    a, b = tape.handle(node.inputs[0]), tape.handle(node.inputs[1])
    out = []
    if needed[0]:
        out.append((0, matmul(g, b.T)))
    if needed[1]:
        out.append((1, matmul(a.T, g)))
    return out


def _vjp_linear(tape, nid, node, g, needed):
    # The same products, in the same order of operands, as the VJPs of the
    # transpose -> matmul -> add chain that ``linear`` stands for; the bias
    # gradient is a ones-row product, not ``g.sum()``, whose pairwise
    # summation rounds differently.
    w = tape.handle(node.inputs[1])
    out = []
    if needed[0]:
        out.append((0, matmul(g, w)))
    if needed[1]:
        out.append((1, matmul(tape.handle(node.inputs[0]).T, g).T))
    if needed[2]:
        out.append((2, matmul(Tensor.of(np.ones((1, g.shape[0]))), g).reshape(w.shape[:1])))
    return out


def _vjp_transpose(tape, nid, node, g, needed):
    return [(0, g.T)]


def _vjp_reshape(tape, nid, node, g, needed):
    return [(0, g.reshape(_shape_of(tape, node.inputs[0])))]


def _vjp_relu(tape, nid, node, g, needed):
    # leaky_relu records its slope; relu records none, and its slope is 0
    return [(0, g * _step_mask(tape.handle(node.inputs[0]), node.aux or 0.0))]


def _vjp_tanh(tape, nid, node, g, needed):
    return [(0, g * (Tensor.of(1.0) - tape.handle(nid).square()))]


def _vjp_exp(tape, nid, node, g, needed):
    return [(0, g * tape.handle(nid))]


def _vjp_square(tape, nid, node, g, needed):
    return [(0, g * (tape.handle(node.inputs[0]) * 2.0))]


def _vjp_sqrt(tape, nid, node, g, needed):
    return [(0, g * 0.5 / tape.handle(nid))]


def _vjp_sum(tape, nid, node, g, needed):
    return [(0, Tensor.of(np.ones(_shape_of(tape, node.inputs[0]))) * g)]


def _vjp_mean(tape, nid, node, g, needed):
    x = tape.nodes[node.inputs[0]].value
    return [(0, Tensor.of(np.full(x.shape, 1.0 / x.size)) * g)]


def _vjp_softmax_xent(tape, nid, node, g, needed):
    z = tape.handle(node.inputs[0])
    n_batch, n_classes = z.shape
    # Shift by the row maxima, which carry no gradient (softmax is shift
    # invariant so the derivative is exact, and max rounds nothing, so they
    # equal the forward's), then rebuild the softmax with primitives so this
    # rule is differentiable again.  The maxima and the one-hot labels are
    # ops of z, not constants, so a replayed step recomputes them.
    e = (z - _apply("row_max", (z,))).exp()
    rowsum = matmul(e, Tensor.of(np.ones((n_classes, 1))))
    tiled = matmul(rowsum, Tensor.of(np.ones((1, n_classes))))
    diff = e / tiled - _apply("one_hot", (z,), node.aux)
    return [(0, diff * (g * (1.0 / n_batch)))]


# ---------------------------------------------------------------------------
# the op table


class _Op(NamedTuple):
    """``fn`` is the forward on float64 arrays, with the op's non-tensor
    argument last; ``vjp`` is the rule, ``None`` where the derivative is
    zero almost everywhere, so the op stops gradients; ``checked`` says
    whether the result goes through ``_require_finite``, which ops that
    only move checked values skip; ``passes`` holds the operand positions
    through which a NaN or infinite entry always reaches a non-empty result,
    so that a step plan may leave the check of such an operand to the op."""

    fn: Callable
    vjp: Callable | None
    checked: bool = True
    passes: tuple[int, ...] = ()


_OPS: dict[str, _Op] = {
    "add": _Op(_broadcasting("add", np.add), _vjp_add, passes=(0, 1)),
    "sub": _Op(_broadcasting("sub", np.subtract), _vjp_sub, passes=(0, 1)),
    "mul": _Op(_broadcasting("mul", np.multiply), _vjp_mul, passes=(0, 1)),
    # x / inf is 0, so only the numerator passes
    "div": _Op(_broadcasting("div", np.divide), _vjp_div, passes=(0,)),
    "neg": _Op(np.negative, _vjp_neg, passes=(0,)),
    "matmul": _Op(np.matmul, _vjp_matmul, passes=(0, 1)),
    # the product takes a contiguous copy of w.T, as matmul(x, w.T) does
    "linear": _Op(lambda x, w, b: x @ w.T.copy() + b, _vjp_linear, passes=(0, 1, 2)),
    "transpose": _Op(lambda v: v.T.copy(), _vjp_transpose, checked=False, passes=(0,)),
    "reshape": _Op(lambda v, shape: v.reshape(shape).copy(), _vjp_reshape, checked=False, passes=(0,)),
    # relu(-inf) is 0
    "relu": _Op(lambda v: np.maximum(v, 0.0), _vjp_relu),
    # for a slope in (0, 1) the same bits as np.where(v > 0, v, slope * v),
    # without its branch
    "leaky_relu": _Op(lambda v, slope: np.maximum(v, slope * v), _vjp_relu, passes=(0,)),
    "tanh": _Op(np.tanh, _vjp_tanh),
    "exp": _Op(np.exp, _vjp_exp),
    "square": _Op(np.square, _vjp_square, passes=(0,)),
    "sqrt": _Op(_sqrt, _vjp_sqrt, passes=(0,)),
    "sum": _Op(lambda v: np.asarray(v.sum()), _vjp_sum, passes=(0,)),
    "mean": _Op(lambda v: np.asarray(v.mean()), _vjp_mean, passes=(0,)),
    "softmax_xent": _Op(_softmax_xent, _vjp_softmax_xent),
    # ops with a zero derivative, whose results are finite for any input:
    # 1 where x > 0, `slope` elsewhere (the kink at 0 takes the negative side)
    "step_mask": _Op(lambda v, slope: np.maximum(v > 0.0, slope), None, checked=False),
    # each row's maximum, repeated across the row, and one-hot labels
    "row_max": _Op(lambda v: np.repeat(v.max(axis=1, keepdims=True), v.shape[1], axis=1), None, checked=False),
    "one_hot": _Op(lambda v, y: np.eye(v.shape[1])[y], None, checked=False),
}


# The layer ops of ``nn._layers`` as recording primitives; ``linear`` is
# looked up per call, so a wrapper of it sees the call.
_TAPE_OPS = SimpleNamespace(
    linear=lambda x, w, b: linear(x, w, b),
    relu=Tensor.relu,
    leaky_relu=Tensor.leaky_relu,
    tanh=Tensor.tanh,
)


def _checked(op: str, fn):
    def run(*args):
        value = fn(*args)
        _require_finite(value, op)
        return value

    return run


# Each op's forward on plain arrays with its own check, run inside one
# ``np.errstate`` by a step plan's replay and by frozen network evaluation.
_ARRAY_OPS = SimpleNamespace(
    **{op: _checked(op, spec.fn) if spec.checked else spec.fn for op, spec in _OPS.items()}
)


def backward(output: Tensor, wrt: Sequence[Tensor], record: bool = False) -> Grads:
    """Reverse-mode gradients of a scalar output.

    Returns a mapping from each requested parameter's node id to its
    gradient tensor.  Parameters unreachable from the output get zero
    gradients.  The backward arithmetic is recorded on the tape.  With
    ``record=True`` it stays there, so the returned gradients are
    differentiable.  Without it the tape is cut back to the length it had,
    also when the sweep raises, and the gradients come back detached.
    """
    wrt_ids, tape = _wrt_ids(output, wrt), output.tape
    end = len(tape.nodes)
    try:
        grads = _sweep(tape, output.id, wrt_ids)
    finally:
        if not record:
            del tape.nodes[end:]
    return grads if record else {nid: Tensor(None, None, g.value) for nid, g in grads.items()}


def _wrt_ids(output: Tensor, wrt: Sequence[Tensor]) -> list[int]:
    if output.tape is None:
        raise ValueError("backward needs an output recorded on a tape")
    if output.value.size != 1:
        raise ShapeError(f"backward output must be scalar, got shape {output.shape}")
    if any(p.tape is not output.tape for p in wrt):
        raise ValueError("wrt tensor is not on the output's tape")
    return [p.id for p in wrt]


def _schedule(nodes: list[Node], out_id: int, wrt_ids: list[int]) -> list[tuple]:
    """The sweep from ``out_id`` down over the nodes that a gradient toward
    some wrt id flows through (other paths would only produce gradients
    nobody asked for): per node, its id, the node, its VJP rule (``None``
    where no input needs a gradient), which inputs need one, and whether it
    is a wrt id.  An op without a rule stops gradients, so its node needs
    none unless it is a wrt id.  Inputs precede their node, so no node
    before the first wrt id depends on one."""
    reach = bytearray(out_id + 1)
    wrt_set = set(wrt_ids)
    schedule = []
    for nid in range(min(wrt_ids, default=out_id + 1), out_id + 1):
        node = nodes[nid]
        needed = tuple(reach[iid] for iid in node.inputs)
        spec = _OPS.get(node.op)  # None for a leaf
        vjp = spec.vjp if spec is not None and any(needed) else None
        reach[nid] = nid in wrt_set or vjp is not None
        if reach[nid]:
            schedule.append((nid, node, vjp, needed, nid in wrt_set))
    return schedule[::-1]


def _sweep(tape: Tape, out_id: int, wrt_ids: list[int]) -> Grads:
    """Record the VJP rules of the schedule from ``out_id`` toward
    ``wrt_ids`` on ``tape``, from a unit adjoint at ``out_id``."""
    grads: Grads = {}
    adjoint = {out_id: Tensor.of(np.ones_like(tape.nodes[out_id].value))}
    with np.errstate(all="ignore"):
        for nid, node, vjp, needed, is_wrt in _schedule(tape.nodes, out_id, wrt_ids):
            g = adjoint.pop(nid, None)
            if g is None:
                continue
            if is_wrt:
                grads[nid] = g
            if vjp is None:
                continue
            for idx, gi in vjp(tape, nid, node, g, needed):
                iid = node.inputs[idx]
                prev = adjoint.get(iid)
                adjoint[iid] = gi if prev is None else prev + gi
    for nid in wrt_ids:
        if nid not in grads:
            grads[nid] = Tensor.of(np.zeros_like(tape.nodes[nid].value))
    return grads


class StepPlan:
    """A training step captured from the nodes its first run recorded past
    a tape mark, to be replayed on arrays at new inputs.

    The first ``n_inputs`` nodes past ``mark`` must be the step's input
    leaves (batch rows, penalty points).  Later leaves are constants; the
    leaves below the mark (parameters) are read as they stand at each
    replay.  The plan records the step's first-order backward onto the tape
    and keeps the nodes past the inputs that are not leaves, gradients
    included, as one forward program of its own, so the tape may be reset.
    :meth:`run` runs the same IEEE operations, in the same order, as
    recording the step afresh and calling ``backward(loss, wrt)``, and
    raises the same error at the same op.  Values other than the loss and
    the gradients are dropped at capture, and at each replay after their
    last reader.

    A replay checks a node only where a non-finite value could hide.  A
    node's own check is left out when it has readers and each reads it at
    a position that ``passes`` it, has entries, and is checked itself or
    left out by the same rule; the loss and the gradients are checked after
    the replay.  A non-finite value then always reaches a check.  If one
    fails, the step is replayed with every check, which names the op that
    recording it would have named.
    """

    def __init__(self, loss: Tensor, wrt: Sequence[Tensor], mark: int, n_inputs: int):
        wrt_ids, tape = _wrt_ids(loss, wrt), loss.tape
        self.out = loss.id
        self.inputs = tape.nodes[mark : mark + n_inputs]
        if len(self.inputs) != n_inputs or any(node.op != "leaf" for node in self.inputs):
            raise ValueError(f"the first {n_inputs} nodes past mark {mark} are not all leaves")
        end = len(tape.nodes)
        grads = _sweep(tape, loss.id, wrt_ids)
        nodes = self.nodes = tape.nodes[:]
        # a gradient that comes back detached is a constant
        self.grads = {nid: nodes[g.id] if g.tape is tape else Node("leaf", (), g.value) for nid, g in grads.items()}
        # the step's nodes up to the loss, then its recorded backward
        step = [node for node in nodes[mark + n_inputs : loss.id + 1] + nodes[end:] if node.op != "leaf"]
        # with the logits' shape; a recorded backward shares the label array
        self.softmax = [(node, nodes[node.inputs[0]].value.shape) for node in step if node.op == "softmax_xent"]
        keep = dict.fromkeys([nodes[self.out], *self.grads.values()])
        self.sinks = [node for node in keep if node.op != "leaf"]
        # each node's readers in the step, with the operand position read;
        # a reader always follows what it reads
        readers = {node: [] for node in step}
        for node in step:
            for pos, i in enumerate(node.inputs):
                readers.get(nodes[i], []).append((node, pos))
        # the nodes at which a non-finite value raises, and those of them
        # that keep their own check
        covered, own = set(self.sinks), set()
        for node in reversed(step):
            if node in covered:
                continue
            rs = readers[node]
            if rs and all(pos in _OPS[r.op].passes and r.value.size and r in covered for r, pos in rs):
                covered.add(node)
            elif _OPS[node.op].checked:
                covered.add(node)
                own.add(node)
        # each node's last reader, or itself if nothing reads it
        last = {n: node for node in step for n in (node, *(nodes[i] for i in node.inputs))}
        dead = {node: [] for node in step}
        for node in step:
            if node not in keep:
                dead[last[node]].append(node)
                node.value = None  # so that a first replay holds one set of values
        # every check, as recording the step runs them, and the checks kept
        self.program = [(node, getattr(_ARRAY_OPS, node.op), [nodes[i] for i in node.inputs], dead[node])
                        for node in step]
        self.lean = [(node, fn if node in own else _OPS[node.op].fn, ins, gone)
                     for node, fn, ins, gone in self.program]

    def run(self, inputs: Sequence, labels: Sequence = ()) -> Grads:
        """The step's first-order gradients at new input values and new
        labels, one vector per ``softmax_cross_entropy`` in recording order.
        The loss value is ``nodes[out].value``."""
        if len(inputs) != len(self.inputs) or len(labels) != len(self.softmax):
            raise ValueError(f"the step takes {len(self.inputs)} inputs and {len(self.softmax)} label vectors")
        values = [_as_array(v).copy() for v in inputs]
        for node, arr in zip(self.inputs, values):
            if arr.shape != node.value.shape:
                raise ShapeError(f"step input shape {arr.shape} != captured shape {node.value.shape}")
            _require_finite(arr, "leaf")
        ys = [_labels(y, *shape) for (_, shape), y in zip(self.softmax, labels)]
        for node, arr in zip(self.inputs, values):
            node.value = arr
        for (node, _), y in zip(self.softmax, ys):
            node.aux[...] = y
        try:
            _run_program(self.lean)
            for node in self.sinks:
                _require_finite(node.value, node.op)
        except NonFiniteError:
            _run_program(self.program)
        return {nid: Tensor(None, None, node.value) for nid, node in self.grads.items()}


def _run_program(program: list[tuple]) -> None:
    with np.errstate(all="ignore"):
        for node, fn, ins, dead in program:
            args = [n.value for n in ins]
            node.value = fn(*args) if node.aux is None else fn(*args, node.aux)
            for n in dead:
                n.value = None
