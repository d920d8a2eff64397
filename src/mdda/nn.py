"""Multi-layer perceptrons, the Adam optimizer, and the parameter file format.

One MLP class covers the four network roles in the pipeline: feature
extractor, classifier, target encoder, and critic.  They differ only in
layer widths and activations, which live in :class:`MlpConfig`.
"""
from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .autodiff import _ARRAY_OPS, _TAPE_OPS, Grads, Tape, Tensor, _require_finite
from .errors import ConfigError, DataFormatError, NonFiniteError, ShapeError
from .rng import Xoshiro256

_ACTIVATIONS = ("relu", "leaky_relu", "tanh")
_FINAL_ACTIVATIONS = ("none", "tanh")


@dataclass(frozen=True)
class MlpConfig:
    """Architecture of one MLP: widths input -> hidden... -> output."""

    layer_widths: tuple[int, ...]
    activation: str = "relu"
    leaky_slope: float = 0.2
    final_activation: str = "none"

    def __post_init__(self):
        object.__setattr__(self, "layer_widths", tuple(int(w) for w in self.layer_widths))
        if len(self.layer_widths) < 2:
            raise ConfigError("an MLP needs at least input and output widths")
        if any(w <= 0 for w in self.layer_widths):
            raise ConfigError(f"layer widths must be positive, got {self.layer_widths}")
        if self.activation not in _ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}")
        if self.final_activation not in _FINAL_ACTIVATIONS:
            raise ConfigError(f"unknown final activation {self.final_activation!r}")
        if not 0.0 < self.leaky_slope < 1.0:
            raise ConfigError("leaky_slope must lie in (0, 1)")

    @property
    def d_in(self) -> int:
        return self.layer_widths[0]

    @property
    def d_out(self) -> int:
        return self.layer_widths[-1]


class Mlp:
    """An MLP whose parameters are leaves on a tape.

    ``params`` alternates weight matrices (shape [out x in]) and bias
    vectors (length out), layer by layer.
    """

    def __init__(self, config: MlpConfig, tape: Tape, params: list[Tensor]):
        self.config = config
        self.tape = tape
        self.params = params

    def predict_values(self, x: np.ndarray) -> np.ndarray:
        """Forward pass on plain arrays, without touching the tape (frozen
        evaluation): the same operations as :func:`forward`."""
        x = np.asarray(x, dtype=np.float64)
        if not np.isfinite(x).all():
            raise NonFiniteError("network input contains a non-finite value")
        with np.errstate(all="ignore"):
            return _layers(self.config, [p.value for p in self.params], x, _ARRAY_OPS)


def init_mlp(config: MlpConfig, rng: Xoshiro256, tape: Tape | None = None) -> Mlp:
    """He-uniform init for relu family layers, Xavier-uniform for tanh;
    biases start at zero."""
    tape = tape if tape is not None else Tape()
    params: list[Tensor] = []
    widths = config.layer_widths
    for i in range(len(widths) - 1):
        fan_in, fan_out = widths[i], widths[i + 1]
        if config.activation == "tanh":
            bound = np.sqrt(6.0 / (fan_in + fan_out))
        else:
            bound = np.sqrt(6.0 / fan_in)
        w = rng.uniforms(fan_out * fan_in, -bound, bound).reshape(fan_out, fan_in)
        params.append(tape.leaf(w))
        params.append(tape.leaf(np.zeros(fan_out)))
    return Mlp(config, tape, params)


def forward(net: Mlp, x) -> Tensor:
    """The recorded forward pass of ``net``."""
    return _layers(net.config, net.params, x if isinstance(x, Tensor) else Tensor.of(x), _TAPE_OPS)


def _layers(config: MlpConfig, params: list, h, ops):
    """Affine + activation per hidden layer, final affine plus the
    configured final activation, in the op set ``ops``."""
    if len(h.shape) != 2 or h.shape[1] != config.d_in:
        raise ShapeError(f"input shape {h.shape} does not match [batch x {config.d_in}]")
    n_layers = len(config.layer_widths) - 1
    for i in range(n_layers):
        h = ops.linear(h, params[2 * i], params[2 * i + 1])
        if i < n_layers - 1:
            if config.activation == "relu":
                h = ops.relu(h)
            elif config.activation == "leaky_relu":
                h = ops.leaky_relu(h, config.leaky_slope)
            else:
                h = ops.tanh(h)
        elif config.final_activation == "tanh":
            h = ops.tanh(h)
    return h


def clone_mlp(src: Mlp, tape: Tape | None = None) -> Mlp:
    """A fresh net with the same config and copied parameters."""
    tape = tape if tape is not None else Tape()
    return Mlp(src.config, tape, [tape.leaf(p.value) for p in src.params])


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class OptimizerState:
    """Adam state over one parameter list, or over the equally shaped lists
    of S sources one after another.  The first step copies the parameters
    into one [S x n] buffer, a row per source, and rebinds each (its tensor
    and its tape node) to a view of its source's row; every later step must
    pass the same list, and Adam updates the buffer in place."""

    learning_rate: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    # set by the first step: the values, flat, seven [S x n] buffers (gradient,
    # moments, next moments, two scratch), each parameter's value and gradient
    # views, and each parameter position's over all sources as (S, ...) views
    _values: np.ndarray | None = field(default=None, repr=False)
    _rows: list | None = field(default=None, repr=False)
    _views: list | None = field(default=None, repr=False)
    _stacked: list | None = field(default=None, repr=False)

    def __post_init__(self):
        if not self.learning_rate > 0.0:
            raise ConfigError("learning_rate must be positive")


def adam(learning_rate: float, beta1: float = 0.9, beta2: float = 0.999,
         eps: float = 1e-8) -> OptimizerState:
    return OptimizerState(learning_rate, beta1, beta2, eps)


def _bind(opt: OptimizerState, params: Sequence[Tensor], n_sources: int) -> None:
    if any(p.tape is None or p.tape.nodes[p.id].op != "leaf" for p in params):
        raise ValueError("an optimizer only updates tape leaves")
    shapes = [p.shape for p in params[: len(params) // n_sources]]
    if len(params) != n_sources * len(shapes) or any(p.shape != shapes[j % len(shapes)]
                                                     for j, p in enumerate(params)):
        raise ShapeError(f"the parameter lists of {n_sources} sources differ in shape")
    ends = np.cumsum([0] + [math.prod(shape) for shape in shapes])
    opt._values, opt._rows = np.empty(n_sources * ends[-1]), list(np.zeros((7, n_sources, ends[-1])))
    values = opt._values.reshape(n_sources, ends[-1])
    opt._stacked = [(values[:, a:b].reshape(n_sources, *shape), opt._rows[0][:, a:b].reshape(n_sources, *shape))
                    for a, b, shape in zip(ends, ends[1:], shapes)]
    opt._views = []
    for j, p in enumerate(params):
        values, grads = opt._stacked[j % len(shapes)]
        view = values[j // len(shapes), ...]
        view[...] = p.value
        p.value = p.tape.nodes[p.id].value = view
        opt._views.append((view, grads[j // len(shapes), ...]))


def _gradient_row(opt: OptimizerState, params: Sequence[Tensor],
                  n_sources: int = 1) -> tuple[np.ndarray, list[np.ndarray]]:
    """The optimizer's gradient buffer, a row per source, and each
    parameter's view of it, for step plans to write into; binds the
    optimizer to ``params``, the lists of ``n_sources`` sources one after
    another, if no step has."""
    if opt._views is None:
        _bind(opt, params, n_sources)
    return opt._rows[0], [view for _, view in opt._views]


def step(opt: OptimizerState, params: Sequence[Tensor], grads: Grads | None) -> None:
    """Apply one Adam update in place, from ``grads`` or, when it is
    ``None``, from the optimizer's gradient buffer as step plans wrote it.
    The update runs once over the whole buffer, element-wise, so each value
    gets the bits a per-parameter or per-source update would give it.  A
    non-finite result raises, naming the first source it arose in, before
    any parameter, moment or step count is written."""
    if opt._views is None:
        if grads is None:
            raise ValueError("the optimizer has no gradient row before its first step")
        _bind(opt, params, 1)
    if len(params) != len(opt._views):
        raise ShapeError("optimizer state does not match the parameter list")
    for p, (view, _) in zip(params, opt._views):
        if p.value is not view:
            raise ShapeError("optimizer state does not match the parameter list")
    if grads is not None:
        # a missing entry is a caller bug, not a zero
        for p, (_, view) in zip(params, opt._views):
            if p.id not in grads:
                raise KeyError(f"missing gradient entry for parameter node {p.id}")
            if grads[p.id].value.shape != view.shape:
                raise ShapeError(f"gradient shape {grads[p.id].value.shape} != shape {view.shape} of parameter node {p.id}")
            view[...] = grads[p.id].value
    t, b1, b2 = opt.step_count + 1, opt.beta1, opt.beta2
    g, m_old, v_old, m, v, a, b = opt._rows
    values = opt._values.reshape(g.shape)
    # the IEEE operations and order of the allocating update
    # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g g;
    # values - lr (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps)
    with np.errstate(all="ignore"):
        np.add(np.multiply(m_old, b1, out=m), np.multiply(g, 1.0 - b1, out=a), out=m)
        np.multiply(np.multiply(g, 1.0 - b2, out=a), g, out=a)
        np.add(np.multiply(v_old, b2, out=v), a, out=v)
        np.multiply(np.divide(m, 1.0 - b1**t, out=a), opt.learning_rate, out=a)
        np.add(np.sqrt(np.divide(v, 1.0 - b2**t, out=b), out=b), opt.eps, out=b)
        np.subtract(values, np.divide(a, b, out=a), out=a)
    try:
        _require_finite(a, "assign")
    except NonFiniteError as exc:
        exc.source = int(np.flatnonzero(~np.isfinite(a).all(axis=1))[0])
        raise
    opt._rows[1:5] = m, v, m_old, v_old
    values[...] = a
    opt.step_count = t


# ---------------------------------------------------------------------------
# parameter file format: magic "MDDA", version, count, then per-parameter
# rank, dims, float64 little-endian values


_MAGIC = b"MDDA"
_VERSION = 1


def save_params(params: Sequence[Tensor] | Mlp, path) -> None:
    if isinstance(params, Mlp):
        params = params.params
    arrays = [p.value for p in params]
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sII", _MAGIC, _VERSION, len(arrays)))
        for arr in arrays:
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.astype("<f8", copy=False).tobytes(order="C"))


def load_params(path) -> list[np.ndarray]:
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def read(n: int, what: str) -> bytes:
            # a corrupt count must not ask for more bytes than the file holds
            if n > size - fh.tell():
                raise DataFormatError(f"{path}: truncated {what}")
            return fh.read(n)

        magic, version, count = struct.unpack("<4sII", read(12, "header"))
        if magic != _MAGIC:
            raise DataFormatError(f"{path}: bad magic {magic!r}")
        if version != _VERSION:
            raise DataFormatError(f"{path}: unsupported version {version}")
        arrays = []
        for i in range(count):
            (rank,) = struct.unpack("<I", read(4, f"parameter {i}"))
            dims = struct.unpack(f"<{rank}I", read(4 * rank, f"dims for parameter {i}"))
            raw = read(8 * math.prod(dims), f"values for parameter {i}")
            arrays.append(np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(dims))
        return arrays


def load_mlp(config: MlpConfig, path, tape: Tape) -> Mlp:
    """A net of ``config`` with the parameters of the file at ``path``,
    which must hold one finite array of the right shape per parameter."""
    arrays = load_params(path)
    widths = config.layer_widths
    shapes = [shape for w_in, w_out in zip(widths, widths[1:]) for shape in ((w_out, w_in), (w_out,))]
    if len(arrays) != len(shapes):
        raise DataFormatError(f"{path}: has {len(arrays)} parameters, net needs {len(shapes)}")
    for i, (arr, shape) in enumerate(zip(arrays, shapes)):
        if arr.shape != shape:
            raise DataFormatError(f"{path}: parameter shape {arr.shape} does not match {shape}")
        if not np.isfinite(arr).all():
            raise DataFormatError(f"{path}: parameter {i} holds a non-finite value")
    return Mlp(config, tape, [tape.leaf(a) for a in arrays])
