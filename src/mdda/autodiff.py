"""Reverse-mode automatic differentiation over dense float64 tensors.

Every operation is recorded as a node on a :class:`Tape`.  The backward
pass is written once over a small op set.  With ``backward(...,
record=True)`` it runs on the same forward primitives, so the produced
gradients live on the tape as ordinary nodes and can be differentiated
again.  That is what makes the critic's gradient penalty (a loss
containing an input gradient) trainable with a single engine.  A
first-order backward runs the same IEEE operations, in the same order, on
plain arrays, under the same finiteness contract.

Conventions kept deliberately narrow:

- float64 everywhere; any op whose result contains NaN/Inf raises
  :class:`NonFiniteError` instead of propagating poison values.
- broadcasting is limited to equal shapes or a one-element operand
  against anything; batch reductions are explicit ``sum`` / ``mean``.
- tensors produced by ops are immutable; only leaves may be rewritten
  (via :meth:`Tensor.assign`) between computations, which is how
  optimizers update parameters.
"""
from __future__ import annotations

from contextlib import contextmanager
from types import SimpleNamespace
from typing import Iterable, Sequence

import numpy as np

from .errors import NonFiniteError, ShapeError

Grads = dict[int, "Tensor"]


def _as_array(value) -> np.ndarray:
    return np.asarray(value, dtype=np.float64)


def _require_finite(value: np.ndarray, op: str) -> None:
    if not np.isfinite(value).all():
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

    def assign(self, value) -> None:
        """Overwrite a leaf's value in place (optimizer updates).

        Only valid for leaves, and only between computations: nodes that
        consumed the old value must be discarded (``Tape.reset``) first.
        """
        if self.tape is None or self.tape.nodes[self.id].op != "leaf":
            raise ValueError("assign is only valid for tape leaves")
        arr = _as_array(value)
        if arr.shape != self.value.shape:
            raise ShapeError(f"assign shape {arr.shape} != leaf shape {self.value.shape}")
        _require_finite(arr, "assign")
        self.value[...] = arr

    # ---- arithmetic ---------------------------------------------------

    def __add__(self, other):
        return _binary("add", self, _lift(other), np.add)

    def __radd__(self, other):
        return _binary("add", _lift(other), self, np.add)

    def __sub__(self, other):
        return _binary("sub", self, _lift(other), np.subtract)

    def __rsub__(self, other):
        return _binary("sub", _lift(other), self, np.subtract)

    def __mul__(self, other):
        return _binary("mul", self, _lift(other), np.multiply)

    def __rmul__(self, other):
        return _binary("mul", _lift(other), self, np.multiply)

    def __truediv__(self, other):
        return _binary("div", self, _lift(other), np.divide)

    def __rtruediv__(self, other):
        return _binary("div", _lift(other), self, np.divide)

    def __neg__(self):
        return _unary("neg", self, np.negative)

    def __matmul__(self, other):
        return matmul(self, _lift(other))

    # ---- primitives as methods ---------------------------------------

    def relu(self) -> "Tensor":
        return _unary("relu", self, lambda v: np.maximum(v, 0.0))

    def leaky_relu(self, slope: float) -> "Tensor":
        if not 0.0 < slope < 1.0:
            raise ValueError("leaky_relu slope must lie in (0, 1)")
        return _unary("leaky_relu", self, lambda v: np.where(v > 0.0, v, slope * v), aux=slope)

    def tanh(self) -> "Tensor":
        return _unary("tanh", self, np.tanh)

    def exp(self) -> "Tensor":
        return _unary("exp", self, np.exp)

    def square(self) -> "Tensor":
        return _unary("square", self, np.square)

    def sqrt(self) -> "Tensor":
        if np.any(self.value < 0.0):
            raise NonFiniteError("sqrt of negative input")
        return _unary("sqrt", self, np.sqrt)

    def transpose(self) -> "Tensor":
        if self.value.ndim != 2:
            raise ShapeError(f"transpose needs a matrix, got shape {self.shape}")
        return _emit("transpose", (self,), self.value.T.copy())

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def reshape(self, shape) -> "Tensor":
        shape = tuple(int(s) for s in shape)
        if int(np.prod(shape, dtype=np.int64)) != self.value.size:
            raise ShapeError(f"cannot reshape {self.shape} to {shape}")
        return _emit("reshape", (self,), self.value.reshape(shape).copy(), aux=self.shape)

    def sum(self) -> "Tensor":
        return _emit("sum", (self,), np.asarray(self.value.sum()), aux=self.shape)

    def mean(self) -> "Tensor":
        return _emit("mean", (self,), np.asarray(self.value.mean()), aux=self.shape)

    def __repr__(self) -> str:
        tag = "detached" if self.id is None else f"node {self.id}"
        return f"Tensor({tag}, shape={self.shape})"


class Tape:
    """Append-only record of operations forming a DAG.

    ``mark``/``reset`` truncate the node list back to a watermark between
    training steps so per-step graphs do not accumulate; leaves created
    below the watermark (parameters) survive.
    """

    __slots__ = ("nodes", "_recording")

    def __init__(self):
        self.nodes: list[Node] = []
        self._recording = True

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

    def paused(self):
        """Run ops without recording; results come back detached."""
        return self._forced(False)

    @contextmanager
    def _forced(self, recording: bool):
        prev = self._recording
        self._recording = recording
        try:
            yield
        finally:
            self._recording = prev

    def __len__(self) -> int:
        return len(self.nodes)


# ---------------------------------------------------------------------------
# op plumbing


def _lift(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor.of(x)


def _emit(op: str, operands: tuple[Tensor, ...], value: np.ndarray, aux=None) -> Tensor:
    _require_finite(value, op)
    tape = None
    for t in operands:
        if t.tape is not None:
            if tape is None:
                tape = t.tape
            elif tape is not t.tape:
                raise ValueError(f"{op}: operands recorded on different tapes")
    if tape is None or not tape._recording:
        return Tensor(None, None, value)
    ids = []
    for t in operands:
        if t.tape is None:
            ids.append(tape.leaf(t.value).id)
        else:
            if t.id >= len(tape.nodes):
                raise ValueError(f"{op}: operand was invalidated by a tape reset")
            ids.append(t.id)
    tape.nodes.append(Node(op, tuple(ids), value, aux))
    return Tensor(tape, len(tape.nodes) - 1, value)


def _unary(op: str, a: Tensor, fn, aux=None) -> Tensor:
    with np.errstate(all="ignore"):
        value = fn(a.value)
    return _emit(op, (a,), value, aux)


def _binary_value(op: str, av: np.ndarray, bv: np.ndarray, fn) -> np.ndarray:
    """``fn`` over operands of equal shape, or with a one-element operand
    taken as a scalar: the broadcast rule of every binary op."""
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


def _binary(op: str, a: Tensor, b: Tensor, fn) -> Tensor:
    with np.errstate(all="ignore"):
        value = _binary_value(op, a.value, b.value, fn)
    return _emit(op, (a, b), value)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _lift(a), _lift(b)
    if a.value.ndim != 2 or b.value.ndim != 2:
        raise ShapeError(f"matmul needs matrices, got shapes {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape} @ {b.shape}")
    return _emit("matmul", (a, b), a.value @ b.value)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w.T + b`` for x [batch x in], w [out x in] and b [out], recorded
    as one node: the affine map of an MLP layer."""
    x, w, b = _lift(x), _lift(w), _lift(b)
    if x.value.ndim != 2 or w.value.ndim != 2 or b.shape != w.shape[:1] or x.shape[1] != w.shape[1]:
        raise ShapeError(
            f"linear needs [batch x in], [out x in] and [out], got {x.shape}, {w.shape} and {b.shape}"
        )
    # the product takes a contiguous copy of w.T, as matmul(x, w.T) does
    with np.errstate(all="ignore"):
        value = x.value @ w.value.T.copy() + b.value
    return _emit("linear", (x, w, b), value)


def _step_mask(x: Tensor, slope: float) -> Tensor:
    # 1 where x > 0, `slope` elsewhere (the kink at 0 takes the negative
    # side).  Derivative is zero almost everywhere, so it propagates no
    # gradient of its own.
    return _unary("step_mask", x, lambda v: np.where(v > 0.0, 1.0, slope), aux=slope)


def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log softmax probability of the labelled class."""
    logits = _lift(logits)
    if logits.value.ndim != 2:
        raise ShapeError(f"softmax_cross_entropy needs [batch x classes] logits, got {logits.shape}")
    y = np.asarray(labels, dtype=np.int64)
    n_batch, n_classes = logits.shape
    if y.shape != (n_batch,):
        raise ShapeError(f"labels shape {y.shape} does not match batch size {n_batch}")
    if y.size and (y.min() < 0 or y.max() >= n_classes):
        raise ValueError(f"label out of range [0, {n_classes})")
    z = logits.value
    rowmax = z.max(axis=1, keepdims=True)
    shifted = z - rowmax
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    losses = lse[:, 0] - shifted[np.arange(n_batch), y]
    return _emit("softmax_xent", (logits,), np.asarray(losses.mean()), aux=(y, rowmax))


# ---------------------------------------------------------------------------
# the op set the vector-Jacobian rules are written in, twice: the recording
# primitives, for a differentiable backward, and their twins on plain arrays

_TAPE_OPS = SimpleNamespace(
    value=Tape.handle,
    const=Tensor.of,
    add=Tensor.__add__,
    sub=Tensor.__sub__,
    mul=Tensor.__mul__,
    div=Tensor.__truediv__,
    neg=Tensor.__neg__,
    matmul=lambda a, b: matmul(a, b),  # looked up per call, so a wrapper of it sees the call
    transpose=Tensor.transpose,
    reshape=Tensor.reshape,
    sum=Tensor.sum,
    square=Tensor.square,
    exp=Tensor.exp,
    step_mask=_step_mask,
)


def _array_op(op: str, fn):
    """``fn`` on arrays, with the finiteness check of the primitive ``op``."""
    def run(*args):
        value = fn(*args)
        _require_finite(value, op)
        return value
    return run


def _array_binary(op: str, fn):
    return _array_op(op, lambda a, b: _binary_value(op, a, b, fn))


# Run inside one ``np.errstate`` by ``backward``.  Each op checks its result
# as the primitive does, except ``transpose`` and ``reshape``, which only
# move values that were checked already; constants are built from finite
# values.
_ARRAY_OPS = SimpleNamespace(
    value=lambda tape, nid: tape.nodes[nid].value,
    const=_as_array,
    add=_array_binary("add", np.add),
    sub=_array_binary("sub", np.subtract),
    mul=_array_binary("mul", np.multiply),
    div=_array_binary("div", np.divide),
    neg=_array_op("neg", np.negative),
    matmul=_array_op("matmul", np.matmul),
    transpose=lambda v: v.T.copy(),
    reshape=lambda v, shape: v.reshape(shape).copy(),
    sum=_array_op("sum", lambda v: np.asarray(v.sum())),
    square=_array_op("square", np.square),
    exp=_array_op("exp", np.exp),
    step_mask=_array_op("step_mask", lambda v, slope: np.where(v > 0.0, 1.0, slope)),
)


# ---------------------------------------------------------------------------
# vector-Jacobian rules, each written once over an op set


def _reduce_to(ops, g, shape: tuple[int, ...]):
    if g.shape == shape:
        return g
    return ops.reshape(ops.sum(g), shape)


def _shape_of(tape: Tape, nid: int) -> tuple[int, ...]:
    return tape.nodes[nid].value.shape


def _vjp_add(ops, tape, nid, node, g, needed):
    out = []
    if needed[0]:
        out.append((0, _reduce_to(ops, g, _shape_of(tape, node.inputs[0]))))
    if needed[1]:
        out.append((1, _reduce_to(ops, g, _shape_of(tape, node.inputs[1]))))
    return out


def _vjp_sub(ops, tape, nid, node, g, needed):
    out = []
    if needed[0]:
        out.append((0, _reduce_to(ops, g, _shape_of(tape, node.inputs[0]))))
    if needed[1]:
        out.append((1, _reduce_to(ops, ops.neg(g), _shape_of(tape, node.inputs[1]))))
    return out


def _vjp_mul(ops, tape, nid, node, g, needed):
    a = ops.value(tape, node.inputs[0])
    b = ops.value(tape, node.inputs[1])
    out = []
    if needed[0]:
        out.append((0, _reduce_to(ops, ops.mul(g, b), a.shape)))
    if needed[1]:
        out.append((1, _reduce_to(ops, ops.mul(g, a), b.shape)))
    return out


def _vjp_div(ops, tape, nid, node, g, needed):
    b = ops.value(tape, node.inputs[1])
    out = []
    if needed[0]:
        out.append((0, _reduce_to(ops, ops.div(g, b), _shape_of(tape, node.inputs[0]))))
    if needed[1]:
        q = ops.value(tape, nid)
        out.append((1, _reduce_to(ops, ops.neg(ops.mul(g, ops.div(q, b))), b.shape)))
    return out


def _vjp_neg(ops, tape, nid, node, g, needed):
    return [(0, ops.neg(g))] if needed[0] else []


def _vjp_matmul(ops, tape, nid, node, g, needed):
    a = ops.value(tape, node.inputs[0])
    b = ops.value(tape, node.inputs[1])
    out = []
    if needed[0]:
        out.append((0, ops.matmul(g, ops.transpose(b))))
    if needed[1]:
        out.append((1, ops.matmul(ops.transpose(a), g)))
    return out


def _vjp_linear(ops, tape, nid, node, g, needed):
    # The same products, in the same order of operands, as the VJPs of the
    # transpose -> matmul -> add chain that ``linear`` stands for; the bias
    # gradient is a ones-row product, not ``g.sum()``, whose pairwise
    # summation rounds differently.
    w = ops.value(tape, node.inputs[1])
    out = []
    if needed[0]:
        out.append((0, ops.matmul(g, w)))
    if needed[1]:
        x = ops.value(tape, node.inputs[0])
        out.append((1, ops.transpose(ops.matmul(ops.transpose(x), g))))
    if needed[2]:
        ones = ops.const(np.ones((1, g.shape[0])))
        out.append((2, ops.reshape(ops.matmul(ones, g), w.shape[:1])))
    return out


def _vjp_transpose(ops, tape, nid, node, g, needed):
    return [(0, ops.transpose(g))] if needed[0] else []


def _vjp_reshape(ops, tape, nid, node, g, needed):
    return [(0, ops.reshape(g, node.aux))] if needed[0] else []


def _vjp_relu(ops, tape, nid, node, g, needed):
    if not needed[0]:
        return []
    x = ops.value(tape, node.inputs[0])
    return [(0, ops.mul(g, ops.step_mask(x, 0.0)))]


def _vjp_leaky_relu(ops, tape, nid, node, g, needed):
    if not needed[0]:
        return []
    x = ops.value(tape, node.inputs[0])
    return [(0, ops.mul(g, ops.step_mask(x, node.aux)))]


def _vjp_tanh(ops, tape, nid, node, g, needed):
    if not needed[0]:
        return []
    y = ops.value(tape, nid)
    return [(0, ops.mul(g, ops.sub(ops.const(1.0), ops.square(y))))]


def _vjp_exp(ops, tape, nid, node, g, needed):
    if not needed[0]:
        return []
    y = ops.value(tape, nid)
    return [(0, ops.mul(g, y))]


def _vjp_square(ops, tape, nid, node, g, needed):
    if not needed[0]:
        return []
    x = ops.value(tape, node.inputs[0])
    return [(0, ops.mul(g, ops.mul(x, ops.const(2.0))))]


def _vjp_sqrt(ops, tape, nid, node, g, needed):
    if not needed[0]:
        return []
    y = ops.value(tape, nid)
    return [(0, ops.div(ops.mul(g, ops.const(0.5)), y))]


def _vjp_sum(ops, tape, nid, node, g, needed):
    if not needed[0]:
        return []
    return [(0, ops.mul(ops.const(np.ones(node.aux)), g))]


def _vjp_mean(ops, tape, nid, node, g, needed):
    if not needed[0]:
        return []
    shape = node.aux
    size = int(np.prod(shape, dtype=np.int64)) if shape else 1
    return [(0, ops.mul(ops.const(np.full(shape, 1.0 / size)), g))]


def _vjp_softmax_xent(ops, tape, nid, node, g, needed):
    if not needed[0]:
        return []
    y, rowmax = node.aux
    z = ops.value(tape, node.inputs[0])
    n_batch, n_classes = z.shape
    # Shift by the recorded row maxima (constants; softmax is shift
    # invariant so the derivative is exact), then rebuild the softmax
    # with primitives so this rule is differentiable again.
    shift = ops.const(np.repeat(rowmax, n_classes, axis=1))
    e = ops.exp(ops.sub(z, shift))
    rowsum = ops.matmul(e, ops.const(np.ones((n_classes, 1))))
    tiled = ops.matmul(rowsum, ops.const(np.ones((1, n_classes))))
    probs = ops.div(e, tiled)
    onehot = np.zeros((n_batch, n_classes))
    onehot[np.arange(n_batch), y] = 1.0
    diff = ops.sub(probs, ops.const(onehot))
    return [(0, ops.mul(diff, ops.mul(g, ops.const(1.0 / n_batch))))]


_VJP = {
    "add": _vjp_add,
    "sub": _vjp_sub,
    "mul": _vjp_mul,
    "div": _vjp_div,
    "neg": _vjp_neg,
    "matmul": _vjp_matmul,
    "linear": _vjp_linear,
    "transpose": _vjp_transpose,
    "reshape": _vjp_reshape,
    "relu": _vjp_relu,
    "leaky_relu": _vjp_leaky_relu,
    "tanh": _vjp_tanh,
    "exp": _vjp_exp,
    "square": _vjp_square,
    "sqrt": _vjp_sqrt,
    "sum": _vjp_sum,
    "mean": _vjp_mean,
    "softmax_xent": _vjp_softmax_xent,
    "step_mask": None,  # derivative is zero almost everywhere
    "leaf": None,
}


def backward(output: Tensor, wrt: Sequence[Tensor], record: bool = False) -> Grads:
    """Reverse-mode gradients of a scalar output.

    Returns a mapping from each requested parameter's node id to its
    gradient tensor.  Parameters unreachable from the output get zero
    gradients.  With ``record=True`` the backward arithmetic is appended
    to the tape, so the returned gradients are differentiable.  Without
    it the sweep runs on plain arrays, records nothing and returns
    detached tensors.
    """
    tape = output.tape
    if tape is None:
        raise ValueError("backward needs an output recorded on a tape")
    if output.value.size != 1:
        raise ShapeError(f"backward output must be scalar, got shape {output.shape}")

    wrt_ids: list[int] = []
    for p in wrt:
        if p.tape is not tape:
            raise ValueError("wrt tensor is not on the output's tape")
        wrt_ids.append(p.id)
    wrt_set = set(wrt_ids)

    limit = output.id
    # Restrict propagation to nodes that depend on some wrt id; skipped
    # paths would only ever produce gradients nobody asked for.  Inputs
    # precede their node, so no node before the first wrt id depends on one.
    reach = bytearray(limit + 1)
    for nid in wrt_ids:
        if nid <= limit:
            reach[nid] = True
    nodes = tape.nodes
    for nid in range(min(wrt_ids, default=limit), limit + 1):
        if reach[nid]:
            continue
        for iid in nodes[nid].inputs:
            if reach[iid]:
                reach[nid] = True
                break

    grads: Grads = {}
    ops = _TAPE_OPS if record else _ARRAY_OPS
    with tape._forced(True) if record else np.errstate(all="ignore"):
        adjoint = {output.id: ops.const(np.ones_like(output.value))}
        for nid in range(limit, -1, -1):
            g = adjoint.pop(nid, None)
            if g is None:
                continue
            if nid in wrt_set:
                grads[nid] = g if record else Tensor(None, None, g)
            node = nodes[nid]
            rule = _VJP[node.op]
            if rule is None:
                continue
            needed = tuple(reach[iid] for iid in node.inputs)
            if not any(needed):
                continue
            for idx, gi in rule(ops, tape, nid, node, g, needed):
                iid = node.inputs[idx]
                prev = adjoint.get(iid)
                adjoint[iid] = gi if prev is None else ops.add(prev, gi)
    for nid in wrt_ids:
        if nid not in grads:
            grads[nid] = Tensor.of(np.zeros_like(nodes[nid].value))
    return grads
