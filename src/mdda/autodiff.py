"""Reverse-mode automatic differentiation over dense float64 tensors.

Every operation is recorded as a node on a :class:`Tape`.  Each op is one
entry of a table: its forward as one line of Python, its vector-Jacobian
rule, whether its result is checked for finiteness and which operands
always pass a non-finite entry on to its result.  The op's forward on
arrays, which recording and frozen networks run, is generated from that line
at import, and so are the replays of captured steps.  The rules are written
in the recording primitives (the :class:`Tensor` methods, :func:`matmul`), so
:func:`backward` records the backward arithmetic as ordinary nodes: it
builds a schedule of the nodes that need a gradient, then sweeps it.  With
``record=True`` the gradients stay on the tape and can be differentiated
again.  That is what makes the critic's gradient penalty (a loss containing
an input gradient) trainable with a single engine.  A first-order backward
runs the same sweep, cuts the tape back and returns detached gradients.  An
op without a rule (a step mask, row maxima, one-hot labels, rows of a value)
stops gradients: no gradient toward it is computed.  A training loop records
its first step and captures it as a :class:`StepPlan`, which records the
step's backward onto the tape as well and generates one straight-line Python
function that replays every later step at its new inputs, with the same
operations and without recording; the plans of several sources that train
in lockstep replay as one such function over arrays with a leading source
axis (:class:`Lockstep`).  A replay checks only where a non-finite
value could hide, and raises the same error at the same op as recording the
step would.

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

import functools
import math
import string
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


def _rows(x: Tensor, start: int, stop: int) -> Tensor:
    """Rows ``start:stop`` of ``x``, a view that carries no gradient."""
    return _apply("rows", (x,), slice(start, stop))


def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log softmax probability of the labelled class."""
    logits = _lift(logits)
    if logits.value.ndim != 2:
        raise ShapeError(f"softmax_cross_entropy needs [batch x classes] logits, got {logits.shape}")
    # a fresh copy: a step plan rewrites it in place
    return _apply("softmax_xent", (logits,), _labels(np.array(labels, dtype=np.int64), *logits.shape))


def _labels(labels, n_batch: int, n_classes: int) -> np.ndarray:
    """``labels`` as an int64 vector of ``n_batch`` classes below
    ``n_classes``, not copied if it is one already."""
    y = np.asarray(labels, dtype=np.int64)
    if y.shape != (n_batch,):
        raise ShapeError(f"labels shape {y.shape} does not match batch size {n_batch}")
    if y.size and (y.min() < 0 or y.max() >= n_classes):
        raise ValueError(f"label out of range [0, {n_classes})")
    return y


# ---------------------------------------------------------------------------
# helpers of the op forms, and their broadcast rule


# the binary ops, which take a one-element operand against anything
_BROADCASTING = frozenset(("add", "sub", "mul", "div"))


def _broadcasting(op: str, fn):
    """``fn`` over operands of equal shape, or with a one-element operand
    taken as a scalar: the broadcast rule of every binary op."""
    def run(av: np.ndarray, bv: np.ndarray) -> np.ndarray:
        if av.shape == bv.shape:
            return fn(av, bv)
        if bv.size == 1:
            return fn(av, float(bv.reshape(())))
        if av.size == 1:
            return fn(float(av.reshape(())), bv)
        raise ShapeError(
            f"{op}: shapes {av.shape} and {bv.shape} are neither equal "
            "nor one-element-broadcastable"
        )
    return run


def _sqrt(v: np.ndarray) -> np.ndarray:
    if np.any(v < 0.0):
        raise NonFiniteError("sqrt of negative input")
    return np.sqrt(v)


def _softmax_xent(z: np.ndarray, y: np.ndarray) -> np.ndarray:
    # rows along the last axis, one mean per leading index
    shifted = z - z.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1))
    picked = shifted.reshape(-1, z.shape[-1])[np.arange(y.size), y.reshape(-1)].reshape(y.shape)
    return (lse - picked).mean(axis=-1)


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
    """``form`` is the op's forward as one line that binds ``{v}`` from its
    operands ({0}, {1}, ...) and its non-tensor argument ({aux}); a ufunc
    may write into an operand of its result's shape that nothing reads later
    ({out}).  A step plan's replay runs the form at the captured shapes, with
    or without a leading source axis (:class:`Lockstep`), and ``fn``,
    generated from it at import, is the forward on float64 arrays with the
    op's argument last.  ``vjp`` is the rule, ``None`` where the
    derivative is zero almost everywhere, so the op stops gradients;
    ``checked`` says whether the result goes through ``_require_finite``,
    which ops that only move checked values skip; ``passes`` holds the
    operand positions through which a NaN or infinite entry always reaches a
    non-empty result, so that a step plan may leave the check of such an
    operand to the op."""

    form: str
    vjp: Callable | None
    checked: bool = True
    passes: tuple[int, ...] = ()
    fn: Callable | None = None


def _forward(op: str, form: str, check: bool = False) -> Callable:
    """``op``'s forward on arrays from its form, with operands ``x0, x1, ...``
    and the op argument ``aux`` last, checking its result if ``check``:
    ``linear`` reads its weight as the contiguous transposed copy, a binary
    op takes a one-element operand as a float, and a zero-dimensional result
    comes back as an array."""
    fields = {name for _, name, _, _ in string.Formatter().parse(form) if name}
    params = [f"x{i}" for i in range(sum(name.isdigit() for name in fields))]
    args = [params[0], "x1.T.copy()", *params[2:]] if op == "linear" else params
    check_line = f"    _require_finite(v, {op!r})\n" if check else ""
    source = (f"def {op}({', '.join(params + ['aux'] * ('aux' in fields))}):\n"
              f"    {form.format(*args, v='v', aux='aux', out='')}\n{check_line}    return np.asarray(v)\n")
    scope: dict = {}
    exec(compile(source, f"<{op} forward>", "exec"), globals(), scope)
    return _broadcasting(op, scope[op]) if op in _BROADCASTING else scope[op]


# ``sum`` and ``mean`` reduce as ``ndarray.sum`` and ``mean`` do
_OPS: dict[str, _Op] = {
    "add": _Op("{v} = np.add({0}, {1}{out})", _vjp_add, passes=(0, 1)),
    "sub": _Op("{v} = np.subtract({0}, {1}{out})", _vjp_sub, passes=(0, 1)),
    "mul": _Op("{v} = np.multiply({0}, {1}{out})", _vjp_mul, passes=(0, 1)),
    # x / inf is 0, so only the numerator passes
    "div": _Op("{v} = np.divide({0}, {1}{out})", _vjp_div, passes=(0,)),
    "neg": _Op("{v} = np.negative({0}{out})", _vjp_neg, passes=(0,)),
    "matmul": _Op("{v} = np.matmul({0}, {1})", _vjp_matmul, passes=(0, 1)),
    # {1} is the weight's contiguous transposed copy, as matmul(x, w.T) takes
    "linear": _Op("{v} = {0} @ {1} + {2}[..., None, :]", _vjp_linear, passes=(0, 1, 2)),
    "transpose": _Op("{v} = {0}.swapaxes(-1, -2).copy()", _vjp_transpose, checked=False, passes=(0,)),
    "reshape": _Op("{v} = {0}.reshape({aux}).copy()", _vjp_reshape, checked=False, passes=(0,)),
    # relu(-inf) is 0
    "relu": _Op("{v} = np.maximum({0}, 0.0{out})", _vjp_relu),
    # for a slope in (0, 1) the same bits as np.where(v > 0, v, slope * v),
    # without its branch
    "leaky_relu": _Op("{v} = np.maximum({0}, {aux} * {0}{out})", _vjp_relu, passes=(0,)),
    "tanh": _Op("{v} = np.tanh({0}{out})", _vjp_tanh),
    "exp": _Op("{v} = np.exp({0}{out})", _vjp_exp),
    "square": _Op("{v} = np.square({0}{out})", _vjp_square, passes=(0,)),
    "sqrt": _Op("{v} = _sqrt({0})", _vjp_sqrt, passes=(0,)),
    "sum": _Op("{v} = np.add.reduce({0}, axis=None)", _vjp_sum, passes=(0,)),
    "mean": _Op("{v} = np.add.reduce({0}, axis=None) / {0}.size", _vjp_mean, passes=(0,)),
    "softmax_xent": _Op("{v} = _softmax_xent({0}, {aux})", _vjp_softmax_xent),
    # ops with a zero derivative, whose results are finite for any input:
    # 1 where x > 0, `slope` elsewhere (the kink at 0 takes the negative side)
    "step_mask": _Op("{v} = np.maximum({0} > 0.0, {aux}{out})", None, checked=False),
    # each row's maximum, repeated across the row, and one-hot labels
    "row_max": _Op("{v} = np.repeat({0}.max(axis=-1, keepdims=True), {0}.shape[-1], axis=-1)", None, checked=False),
    "one_hot": _Op("{v} = np.eye({0}.shape[-1])[{aux}]", None, checked=False),
    # a slice of rows, which passes no operand: an entry outside it is not read
    "rows": _Op("{v} = {0}[{aux}]", None, checked=False),
}
_OPS = {op: spec._replace(fn=_forward(op, spec.form)) for op, spec in _OPS.items()}


# The layer ops of ``nn._layers`` as recording primitives; ``linear`` is
# looked up per call, so a wrapper of it sees the call.
_TAPE_OPS = SimpleNamespace(
    linear=lambda x, w, b: linear(x, w, b),
    relu=Tensor.relu,
    leaky_relu=Tensor.leaky_relu,
    tanh=Tensor.tanh,
)


# The same layer ops on plain arrays, each checking its result, run inside
# one ``np.errstate`` by frozen network evaluation.
_ARRAY_OPS = SimpleNamespace(**{op: _forward(op, _OPS[op].form, check=True) for op in vars(_TAPE_OPS)})


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


# A sink that no node reads may be a view of a value that nothing else
# reads.  An operand keeps its copy: a product with a transposed view as
# operand rounds differently on OpenBLAS.
_VIEWS = {"transpose": "{v} = {0}.swapaxes(-1, -2)", "reshape": "{v} = {0}.reshape({aux})"}

# the ops whose result's row i depends only on row i of operand 0
_ROW_WISE = frozenset(("linear", "relu", "leaky_relu", "tanh", "step_mask"))


@functools.lru_cache(maxsize=64)
def _rows_agree(op: str, shapes: tuple, aux, start: int, stop: int) -> bool:
    """Whether row-wise ``op`` on operands of ``shapes``, the whole value
    first, gives the bytes of rows ``start:stop`` of its result on those
    rows alone, for each of 8 probes with full-mantissa entries in [-2, 2).
    A BLAS may take another order of summation for some rows of a slice,
    which captured values of a few rows can hide; in a sweep of 612 product
    shapes, each slice that differed in some of 100 random draws differed
    on one of the first 4 probes."""
    ends = np.cumsum([math.prod(shape) for shape in shapes])
    fn, part, args = _OPS[op].fn, slice(start, stop), () if aux is None else (aux,)
    with np.errstate(all="ignore"):
        for j in range(8):
            # the top 53 bits of a Weyl sequence modulo 2**64, one probe at a
            # time, so that a capture's peak memory does not grow
            bits = np.arange(j * ends[-1], (j + 1) * ends[-1], dtype=np.uint64)
            probe = (bits * np.uint64(0x9E3779B97F4A7C15) >> np.uint64(11)) * 2.0**-51 - 2.0
            x, *rest = (a.reshape(shape) for a, shape in zip(np.split(probe, ends[:-1]), shapes))
            if not _same(fn(x[part], *rest, *args), fn(x, *rest, *args)[part]):
                return False
    return True


# the steps of each source domain's networks have the same program, so
# their replays share one compiled source
_compiled = functools.lru_cache(maxsize=32)(functools.partial(compile, filename="<step plan>", mode="exec"))


class StepPlan:
    """A training step captured from the nodes its first run recorded past
    a tape mark, to be replayed on arrays at new inputs.

    The first ``n_inputs`` nodes past ``mark`` must be the step's input
    leaves (batch rows, penalty points).  Later leaves are constants; the
    leaves below the mark (parameters) are read as they stand at each
    replay, so an optimizer may rebind them.  The plan records the step's
    first-order backward onto the tape and keeps the ids of the nodes past
    the inputs that are not leaves, gradients included, as its ``program``,
    so the tape may be reset.  At its first replay it generates one
    straight-line function from the program, with one line per node at the
    captured shapes.  :meth:`replay`, at the inputs and labels the plan's
    ``arrays`` hold, runs the same IEEE operations, in the same order, as
    recording the step afresh and calling ``backward(loss, wrt)``, and
    raises the same error at the same op.  The plan is bound to an
    optimizer's flat gradient ``row``: each replay writes the gradient of
    ``wrt[j]`` into ``views[j]``, its view of the row, and a gradient that is
    a constant is written there once, at capture.  Only the loss and the
    gradients (the sinks) are written out; every other value, the
    gradients' included, is dropped at capture, and at each replay after
    its last reader.

    A replay checks a node only where a non-finite value could hide.  A
    node's own check is left out when it has readers and each reads it at
    a position that ``passes`` it, has entries, and is checked itself or
    left out by the same rule; the loss is checked after the replay, and
    the gradients by one check over the row.  A non-finite value then
    always reaches a check.  If one fails, the step is replayed by a
    function generated with every check, which names the op that recording
    it would have named.

    A row-wise node on rows of a value that an earlier node of the same op
    and other operands ran on whole (the critic's score gap on rows of the
    penalty's points) is shared, where the capture finds it equal to that
    node's rows: a replay takes it as a view of them, which no ufunc writes
    into, and does not run a view that only shared nodes read.
    """

    def __init__(self, loss: Tensor, wrt: Sequence[Tensor], mark: int, n_inputs: int,
                 row: np.ndarray, views: Sequence[np.ndarray]):
        wrt_ids, tape = _wrt_ids(loss, wrt), loss.tape
        self.out = loss.id
        self.inputs = tape.nodes[mark : mark + n_inputs]
        if len(self.inputs) != n_inputs or any(node.op != "leaf" for node in self.inputs):
            raise ValueError(f"the first {n_inputs} nodes past mark {mark} are not all leaves")
        end = len(tape.nodes)
        grads = _sweep(tape, loss.id, wrt_ids)
        nodes = self.nodes = tape.nodes[:]
        self.wrt, self.views = [nodes[i] for i in wrt_ids], list(views)
        # each computed gradient's views of the row; a gradient that comes
        # back detached is a constant
        self.row, self.into = row, {}
        for nid, view in zip(wrt_ids, views, strict=True):
            if grads[nid].tape is tape:
                self.into.setdefault(nodes[grads[nid].id], []).append(view)
            else:
                view[...] = grads[nid].value
        # the step's nodes up to the loss, then its recorded backward
        self.program = [i for i in (*range(mark + n_inputs, loss.id + 1), *range(end, len(nodes)))
                        if nodes[i].op != "leaf"]
        step = [nodes[i] for i in self.program]
        # with the logits' shape; a recorded backward shares the label array
        self.softmax = [(node, nodes[node.inputs[0]].value.shape) for node in step if node.op == "softmax_xent"]
        self.sinks = list(dict.fromkeys([nodes[self.out], *self.into]))
        # A row-wise node on rows a:b of a value, directly or through shared
        # nodes, is shared with an earlier node of the same op and other
        # operands that ran on the whole value, where its captured bytes are
        # that node's rows a:b and the op's are on probes of those shapes:
        # {id: (base id, rows)}.  A replay takes it as those rows, so it reads
        # only its base, which covers it.
        self.shared, rows, whole = {}, {}, {}
        for k in self.program:
            node = nodes[k]
            if node.op == "rows":
                rows[k] = (node.inputs[0], node.aux)
            elif node.op in _ROW_WISE:
                x, part = rows.get(node.inputs[0], (None, None))
                base = whole.get((node.op, (x, *node.inputs[1:]), node.aux))
                if (base is not None and _same(node.value, nodes[base].value[part])
                        and _rows_agree(node.op, tuple(nodes[i].value.shape for i in (x, *node.inputs[1:])),
                                        node.aux, part.start, part.stop)):
                    self.shared[k] = rows[k] = (base, part)
                whole.setdefault((node.op, node.inputs, node.aux), k)
        # the nodes a replay runs: not a view that no run node reads
        self.emitted, read = [], set()
        for k in reversed(self.program):
            if k in read or nodes[k] in self.sinks or not (k in self.shared or nodes[k].op == "rows"):
                self.emitted.append(k)
                read.update(self.shared[k][:1] if k in self.shared else nodes[k].inputs)
        self.emitted.reverse()
        # each node's readers among those, with the operand position read;
        # a reader always follows what it reads
        readers = {node: [] for node in step}
        for k in self.emitted:
            for pos, i in enumerate(() if k in self.shared else nodes[k].inputs):
                readers.get(nodes[i], []).append((nodes[k], pos))
        # the nodes at which a non-finite value raises, and those of them
        # that keep their own check
        covered, self.own = {*self.sinks, *(nodes[k] for k in self.shared)}, set()
        for node in reversed(step):
            if node in covered:
                continue
            rs = readers[node]
            if rs and all(pos in _OPS[r.op].passes and r.value.size and r in covered for r, pos in rs):
                covered.add(node)
            elif _OPS[node.op].checked:
                covered.add(node)
                self.own.add(node)
        # the shapes the replay is generated for, which ``run`` holds fixed
        self.shapes = {i: nodes[i].value.shape for k in self.program for i in (k, *nodes[k].inputs)}
        for node in step:
            if node is not nodes[self.out]:
                node.value = None  # so that a first replay holds one set of values

    @functools.cached_property
    def lean(self) -> Callable[[], None]:
        """The replay with the checks kept at capture and the loss checked
        after the step; ``run`` checks the gradients in the row."""
        return self._replay(self.own, {self.nodes[self.out]})

    @functools.cached_property
    def full(self) -> Callable[[], None]:
        """The replay with every check, as recording the step runs them,
        generated when a check first fails."""
        return self._replay({self.nodes[k] for k in self.emitted
                             if _OPS[self.nodes[k].op].checked and k not in self.shared}, set())

    def _replay(self, checks: set, late: set, swap: dict | None = None) -> Callable[[], None]:
        """One straight-line function that runs ``program`` on the values
        its leaves hold when it is called.  Node ``k``'s value is the local
        ``v{k}``, checked after its forward if the node is in ``checks`` and
        deleted after its last reader; the nodes in ``late`` are checked at
        the end, the loss is written back and each gradient into its views
        of the row.  Only node ids and positions enter the source: the
        leaves, the checked nodes, the loss, the gradient views and the op
        arguments are bound as one tuple each, where ``swap`` maps the
        ``id`` of a bound object to the one bound in its place."""
        nodes, program, shapes = self.nodes, self.program, self.shapes
        computed, sinks = set(program), set(self.sinks)
        # each run node's op, operands and op argument: a shared node is its
        # base's rows
        steps = [(k, *(("rows", self.shared[k][:1], self.shared[k][1]) if k in self.shared
                       else (nodes[k].op, nodes[k].inputs, nodes[k].aux))) for k in self.emitted]
        last = {i: pos for pos, (_, _, ins, _) in enumerate(steps) for i in ins}
        # each view's base, and the last position at which a view of a value,
        # or one of a view of it, is read (a sink's at the end): no ufunc ever
        # writes into a view, nor into a value before then
        views, held = {k: ins[0] for k, op, ins, _ in steps if op == "rows"}, {}
        for pos in reversed(range(len(steps))):
            k = steps[pos][0]
            if k in views:
                until = len(steps) if nodes[k] in sinks else max(last.get(k, pos), held.get(k, pos))
                held[views[k]] = max(held.get(views[k], pos), until)
        leaves = sorted({i for _, _, ins, _ in steps for i in ins} - computed)
        bound = {"L": [nodes[i] for i in leaves], "C": [], "S": [], "G": [], "A": []}

        def ref(name: str, obj) -> str:
            bound[name].append(obj)
            return f"{name}[{len(bound[name]) - 1}]"

        lines = [f"l{i} = L[{j}].value" for j, i in enumerate(leaves)]
        for pos, (k, op, ins, aux) in enumerate(steps):
            node = nodes[k]
            args = [f"v{i}" if i in computed else f"l{i}" for i in ins]
            dead = [f"v{i}" for i in dict.fromkeys(ins)
                    if i in computed and last[i] == pos and nodes[i] not in sinks]
            if op in _BROADCASTING and shapes[ins[0]] != shapes[ins[1]]:
                # the one-element operand as a float, as ``_broadcasting``
                # takes it; a stacked one as an (S, 1, ...) array, which each
                # IEEE op rounds as it rounds the float
                j = 1 if math.prod(shapes[ins[1]]) == 1 else 0
                if swap and (ins[j] in computed or id(nodes[ins[j]]) in swap):
                    args[j] = f"{args[j]}.reshape({(-1,) + (1,) * len(shapes[ins[1 - j]])})"
                else:
                    args[j] = f"float({args[j]}.reshape(()))"
            if op == "linear":
                args[1] = f"{args[1]}.swapaxes(-1, -2).copy()"
            aux = ref("A", aux) if aux is not None else None
            # a view of a value that nothing reads later, which no ufunc
            # then writes into
            form = _VIEWS.get(op) if node in sinks and k not in last and args[0] in dead else None
            form = form or _OPS[op].form
            # a computed value that is not zero-dimensional is an array of its own
            out = [name for name, i in zip(args, ins)
                   if name in dead and shapes[i] == shapes[k] != () and i not in views and held.get(i, -1) < pos]
            lines.append(form.format(*args, v=f"v{k}", aux=aux, out=f", out={out[0]}" if out else ""))
            if node in checks:
                lines.append(f"_require_finite(v{k}, {ref('C', node)}.op)")
            if k not in last and node not in sinks:
                dead.append(f"v{k}")
            if dead:
                lines.append("del " + ", ".join(dead))
        lines.extend(f"_require_finite(v{k}, {ref('C', nodes[k])}.op)" for k in program if nodes[k] in late)
        for k in program:
            lines.extend(f"{ref('G', view)}[...] = v{k}" for view in self.into.get(nodes[k], ()))
            if k == self.out:
                # a zero-dimensional forward may give a NumPy scalar
                value = f"np.asarray(v{k})" if shapes[k] == () else f"v{k}"
                lines.append(f"{ref('S', nodes[k])}.value = {value}")
        body = "".join(f"        {line}\n" for line in lines) or "        pass\n"
        scope: dict = {}
        exec(_compiled(f"def make(L, C, S, G, A):\n    def replay():\n{body}    return replay\n"), globals(), scope)
        get = (swap or {}).get
        return scope["make"](*(tuple(get(id(obj), obj) for obj in objs) for objs in bound.values()))

    @property
    def arrays(self) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """The arrays that a replay reads its inputs and label vectors from,
        which a training loop may fill in place before :meth:`replay`."""
        return [node.value for node in self.inputs], [node.aux for node, _ in self.softmax]

    def run(self, inputs: Sequence, labels: Sequence = ()) -> None:
        """Check new input values and new labels, one vector per
        ``softmax_cross_entropy`` in recording order, write them into the
        plan's arrays and replay the step."""
        self._load(inputs, labels)
        self.replay()

    def replay(self) -> None:
        """Replay the step at the values its arrays hold: the loss value is
        then ``nodes[out].value`` and the row holds the gradients.  A replay
        writes into none of its arrays."""
        if not _passes(self.lean, self.row):
            with np.errstate(all="ignore"):
                self.full()

    def _load(self, inputs: Sequence, labels: Sequence) -> None:
        """Check ``inputs`` and ``labels`` as :meth:`run` takes them, then
        write them into the plan's arrays."""
        xs, ys = self.arrays
        if len(inputs) != len(xs) or len(labels) != len(ys):
            raise ValueError(f"the step takes {len(xs)} inputs and {len(ys)} label vectors")
        values = [np.asarray(v, dtype=np.float64) for v in inputs]
        for x, v in zip(xs, values):
            if v.shape != x.shape:
                raise ShapeError(f"step input shape {v.shape} != captured shape {x.shape}")
            _require_finite(v, "leaf")
        vectors = [_labels(y, *shape) for (_, shape), y in zip(self.softmax, labels)]
        for x, v in zip((*xs, *ys), (*values, *vectors)):
            x[...] = v


def _passes(replay: Callable[[], None], row: np.ndarray) -> bool:
    """Run ``replay``; whether it and the gradient ``row`` it wrote are finite."""
    with np.errstate(all="ignore"):
        try:
            replay()
            _require_finite(row, "gradient")
        except NonFiniteError:
            return False
    return True


def _same(a, b) -> bool:
    """Whether ``a`` and ``b`` are one object or hold the same bits."""
    a, b = np.asarray(a), np.asarray(b)
    return a is b or (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


class Lockstep:
    """The step plans of S sources, captured by the same recording at the
    same shapes on S tapes and bound to the rows of one gradient buffer
    ``row`` [S x n], replayed together.  ``stacked[j]`` holds the values and
    the gradient of every source's ``wrt[j]`` as two (S, ...) views, and
    ``inputs[j]`` and ``labels[j]`` every source's input and label vector
    ``j``, of which each plan, not yet replayed, reads its rows.

    At its first replay it generates the first plan's replay with a leading
    source axis on the parameters, inputs and labels, and with that plan's
    checks.  Every op's form works with or without the axis, and each slice
    of a stacked product or row reduction has the bits of its source's own
    on the numpy and BLAS the tests check.  Where the plans do not stack
    (:meth:`_stacks`), or a check fails, :meth:`replay` replays the sources
    one by one through their own plans, in order: an error is then the one
    the first failing source raises alone, with that source's index as its
    ``source``.
    """

    def __init__(self, plans: Sequence[StepPlan], row: np.ndarray, stacked: Sequence[tuple]):
        self.plans, self.row, self.stacked = list(plans), row, stacked
        xs, ys = zip(*(plan.arrays for plan in self.plans))
        self.inputs, self.labels = [np.stack(x) for x in zip(*xs)], [np.stack(y) for y in zip(*ys)]
        for s, (plan, own) in enumerate(zip(self.plans, ys)):
            for node, x in zip(plan.inputs, self.inputs):
                node.value = x[s]
            # the recorded backward's one-hot labels share the array
            rows = {id(y): labels[s] for y, labels in zip(own, self.labels)}
            for k in plan.program:
                plan.nodes[k].aux = rows.get(id(plan.nodes[k].aux), plan.nodes[k].aux)

    @functools.cached_property
    def lean(self) -> Callable[[], None] | None:
        """The stacked replay, or ``None`` where the plans do not stack."""
        plan, n = self.plans[0], len(self.plans)
        if n < 2 or not self._stacks():
            return None
        nodes = plan.nodes
        self.loss = Node(nodes[plan.out].op, (), None)
        swap = {id(nodes[plan.out]): self.loss}
        for node, view, (value, grad) in zip(plan.wrt, plan.views, self.stacked):
            swap.update({id(node): Node("leaf", (), value), id(view): grad})
        swap.update((id(node), Node("leaf", (), x)) for node, x in zip(plan.inputs, self.inputs))
        swap.update((id(node.aux), labels) for (node, _), labels in zip(plan.softmax, self.labels))
        swap.update((id(nodes[k].aux), (n, *nodes[k].aux)) for k in plan.program if nodes[k].op == "reshape")
        return plan._replay(plan.own, {nodes[plan.out]}, swap)

    def _stacks(self) -> bool:
        """Whether the first plan's replay, with a leading source axis on
        its ``wrt``, inputs and labels, is every plan's: each plan runs the
        same ops on the same nodes at the same shapes, binds the same values
        everywhere else (the leaves outside ``wrt`` and the inputs, the op
        arguments other than labels), and every op reads a value with the
        axis and keeps it (reduces no whole array, takes no rows)."""
        plan = self.plans[0]
        nodes, stacked = plan.nodes, {*plan.wrt, *plan.inputs}
        for k in plan.program:
            if nodes[k].op in ("sum", "mean", "rows") or not any(nodes[i] in stacked for i in nodes[k].inputs):
                return False
            stacked.add(nodes[k])
        leaves = {i for k in plan.program for i in nodes[k].inputs if nodes[i] not in stacked}
        return all(
            other.program == plan.program and other.shapes == plan.shapes
            and all(_same(other.nodes[i].value, nodes[i].value) for i in leaves)
            and all(other.nodes[k].op == nodes[k].op and other.nodes[k].inputs == nodes[k].inputs
                    and (nodes[k].op in ("softmax_xent", "one_hot") or _same(other.nodes[k].aux, nodes[k].aux))
                    for k in plan.program)
            for other in self.plans[1:])

    def run(self, inputs: Sequence[Sequence], labels: Sequence[Sequence]) -> None:
        """Write source s's ``inputs[s]`` and ``labels[s]``, checked as
        :meth:`StepPlan.run` checks them, into its rows of ``inputs`` and
        ``labels``, then replay: inputs that a source's plan rejects raise as
        they raise alone, before any source replays."""
        if len(inputs) != len(self.plans) or len(labels) != len(self.plans):
            raise ValueError(f"the step takes the inputs and labels of {len(self.plans)} sources")
        for plan, xs, ys in zip(self.plans, inputs, labels):
            plan._load(xs, ys)
        self.replay()

    def replay(self) -> None:
        """Replay every source's step at the values its rows of ``inputs``
        and ``labels`` hold: each plan's loss value is then its source's, and
        the row holds the gradients."""
        if self.lean is not None and _passes(self.lean, self.row):
            for s, plan in enumerate(self.plans):
                plan.nodes[plan.out].value = self.loss.value[s, ...]
            return
        for s, plan in enumerate(self.plans):
            try:
                plan.replay()
            except NonFiniteError as exc:
                exc.source = s
                raise
