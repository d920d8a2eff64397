"""Reverse-mode automatic differentiation over dense float64 tensors.

Every operation is recorded as a node on a :class:`Tape`.  The backward
pass is itself written in terms of the same forward primitives, so when
``backward(..., record=True)`` is used the produced gradients live on the
tape as ordinary nodes and can be differentiated again.  That is what
makes the critic's gradient penalty (a loss containing an input
gradient) trainable with a single engine.

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

    @contextmanager
    def paused(self):
        """Run ops without recording; results come back detached."""
        prev = self._recording
        self._recording = False
        try:
            yield
        finally:
            self._recording = prev

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


def _binary(op: str, a: Tensor, b: Tensor, fn) -> Tensor:
    av, bv = a.value, b.value
    with np.errstate(all="ignore"):
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
    return _emit(op, (a, b), np.asarray(value), aux=None)


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
# vector-Jacobian rules, each expressed in the primitives above


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
    a = tape.handle(node.inputs[0])
    b = tape.handle(node.inputs[1])
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
        q = tape.handle(nid)
        out.append((1, _reduce_to(-(g * (q / b)), b.shape)))
    return out


def _vjp_neg(tape, nid, node, g, needed):
    return [(0, -g)] if needed[0] else []


def _vjp_matmul(tape, nid, node, g, needed):
    a = tape.handle(node.inputs[0])
    b = tape.handle(node.inputs[1])
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
        x = tape.handle(node.inputs[0])
        out.append((1, matmul(x.T, g).T))
    if needed[2]:
        ones = Tensor.of(np.ones((1, g.shape[0])))
        out.append((2, matmul(ones, g).reshape(w.shape[:1])))
    return out


def _vjp_transpose(tape, nid, node, g, needed):
    return [(0, g.T)] if needed[0] else []


def _vjp_reshape(tape, nid, node, g, needed):
    return [(0, g.reshape(node.aux))] if needed[0] else []


def _vjp_relu(tape, nid, node, g, needed):
    if not needed[0]:
        return []
    x = tape.handle(node.inputs[0])
    return [(0, g * _step_mask(x, 0.0))]


def _vjp_leaky_relu(tape, nid, node, g, needed):
    if not needed[0]:
        return []
    x = tape.handle(node.inputs[0])
    return [(0, g * _step_mask(x, node.aux))]


def _vjp_tanh(tape, nid, node, g, needed):
    if not needed[0]:
        return []
    y = tape.handle(nid)
    return [(0, g * (1.0 - y.square()))]


def _vjp_exp(tape, nid, node, g, needed):
    if not needed[0]:
        return []
    y = tape.handle(nid)
    return [(0, g * y)]


def _vjp_square(tape, nid, node, g, needed):
    if not needed[0]:
        return []
    x = tape.handle(node.inputs[0])
    return [(0, g * (x * 2.0))]


def _vjp_sqrt(tape, nid, node, g, needed):
    if not needed[0]:
        return []
    y = tape.handle(nid)
    return [(0, (g * 0.5) / y)]


def _vjp_sum(tape, nid, node, g, needed):
    if not needed[0]:
        return []
    ones = Tensor.of(np.ones(node.aux))
    return [(0, ones * g)]


def _vjp_mean(tape, nid, node, g, needed):
    if not needed[0]:
        return []
    shape = node.aux
    size = int(np.prod(shape, dtype=np.int64)) if shape else 1
    scaled = Tensor.of(np.full(shape, 1.0 / size))
    return [(0, scaled * g)]


def _vjp_softmax_xent(tape, nid, node, g, needed):
    if not needed[0]:
        return []
    y, rowmax = node.aux
    z = tape.handle(node.inputs[0])
    n_batch, n_classes = z.shape
    # Shift by the recorded row maxima (constants; softmax is shift
    # invariant so the derivative is exact), then rebuild the softmax
    # with primitives so this rule is differentiable again.
    shift = Tensor.of(np.repeat(rowmax, n_classes, axis=1))
    e = (z - shift).exp()
    rowsum = matmul(e, Tensor.of(np.ones((n_classes, 1))))
    tiled = matmul(rowsum, Tensor.of(np.ones((1, n_classes))))
    probs = e / tiled
    onehot = np.zeros((n_batch, n_classes))
    onehot[np.arange(n_batch), y] = 1.0
    diff = probs - Tensor.of(onehot)
    return [(0, diff * (g * (1.0 / n_batch)))]


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
    to the tape, so the returned gradients are differentiable.
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
    # paths would only ever produce gradients nobody asked for.
    reach = np.zeros(limit + 1, dtype=bool)
    for nid in wrt_ids:
        if nid <= limit:
            reach[nid] = True
    nodes = tape.nodes
    for nid in range(limit + 1):
        if reach[nid]:
            continue
        for iid in nodes[nid].inputs:
            if reach[iid]:
                reach[nid] = True
                break

    grads: Grads = {}
    with tape._forced(record):
        seed = Tensor.of(np.ones_like(output.value))
        adjoint: dict[int, Tensor] = {output.id: seed}
        for nid in range(limit, -1, -1):
            g = adjoint.pop(nid, None)
            if g is None:
                continue
            if nid in wrt_set:
                grads[nid] = g
            node = nodes[nid]
            rule = _VJP[node.op]
            if rule is None:
                continue
            needed = tuple(reach[iid] for iid in node.inputs)
            if not any(needed):
                continue
            for idx, gi in rule(tape, nid, node, g, needed):
                iid = node.inputs[idx]
                prev = adjoint.get(iid)
                adjoint[iid] = gi if prev is None else prev + gi
        for nid in wrt_ids:
            if nid not in grads:
                grads[nid] = Tensor.of(np.zeros_like(nodes[nid].value))
    return grads
