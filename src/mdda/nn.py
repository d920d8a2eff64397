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
    """Adam state over one parameter list.  The first step copies the
    parameters into one flat buffer and rebinds each (its tensor and its
    tape node) to a view of it; every later step must pass the same list,
    and Adam updates the buffer in place."""

    learning_rate: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    # set by the first step: the flat values, five flat rows (gradient, the
    # two moments, two scratch) and each parameter's value and gradient views
    _values: np.ndarray | None = field(default=None, repr=False)
    _rows: np.ndarray | None = field(default=None, repr=False)
    _views: list | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.learning_rate <= 0.0:
            raise ConfigError("learning_rate must be positive")


def adam(learning_rate: float, beta1: float = 0.9, beta2: float = 0.999,
         eps: float = 1e-8) -> OptimizerState:
    return OptimizerState(learning_rate, beta1, beta2, eps)


def _bind(opt: OptimizerState, params: Sequence[Tensor]) -> None:
    if any(p.tape is None or p.tape.nodes[p.id].op != "leaf" for p in params):
        raise ValueError("an optimizer only updates tape leaves")
    n = sum(p.value.size for p in params)
    opt._values, opt._rows, opt._views = np.empty(n), np.zeros((5, n)), []
    start = 0
    for p in params:
        stop = start + p.value.size
        view = opt._values[start:stop].reshape(p.shape)
        view[...] = p.value
        p.value = p.tape.nodes[p.id].value = view
        opt._views.append((view, opt._rows[0, start:stop].reshape(p.shape)))
        start = stop


def step(opt: OptimizerState, params: Sequence[Tensor], grads: Grads) -> None:
    """Apply one Adam update in place.  Every parameter must have a
    gradient entry of its own shape; a missing one is a caller bug, not a
    zero.  The update runs once over the flat buffer, element-wise, so each
    value gets the bits a per-parameter update would give it.  A non-finite
    result raises before any parameter is written."""
    if opt._views is None:
        _bind(opt, params)
    if len(params) != len(opt._views):
        raise ShapeError("optimizer state does not match the parameter list")
    for p, (view, grad_view) in zip(params, opt._views):
        if p.value is not view:
            raise ShapeError("optimizer state does not match the parameter list")
        if p.id not in grads:
            raise KeyError(f"missing gradient entry for parameter node {p.id}")
        g = grads[p.id].value
        if g.shape != view.shape:
            raise ShapeError(f"gradient shape {g.shape} != shape {view.shape} of parameter node {p.id}")
        grad_view[...] = g
    opt.step_count += 1
    t, b1, b2 = opt.step_count, opt.beta1, opt.beta2
    g, m, v, a, b = opt._rows
    # the IEEE operations and order of the allocating update
    # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g g;
    # values - lr (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps)
    with np.errstate(all="ignore"):
        np.add(np.multiply(m, b1, out=m), np.multiply(g, 1.0 - b1, out=a), out=m)
        np.multiply(np.multiply(g, 1.0 - b2, out=a), g, out=a)
        np.add(np.multiply(v, b2, out=v), a, out=v)
        np.multiply(np.divide(m, 1.0 - b1**t, out=a), opt.learning_rate, out=a)
        np.add(np.sqrt(np.divide(v, 1.0 - b2**t, out=b), out=b), opt.eps, out=b)
        np.subtract(opt._values, np.divide(a, b, out=a), out=a)
    _require_finite(a, "assign")
    opt._values[...] = a


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
    which must hold one array of the right shape per parameter."""
    arrays = load_params(path)
    widths = config.layer_widths
    shapes = [shape for w_in, w_out in zip(widths, widths[1:]) for shape in ((w_out, w_in), (w_out,))]
    if len(arrays) != len(shapes):
        raise DataFormatError(f"{path}: has {len(arrays)} parameters, net needs {len(shapes)}")
    for arr, shape in zip(arrays, shapes):
        if arr.shape != shape:
            raise DataFormatError(f"{path}: parameter shape {arr.shape} does not match {shape}")
    return Mlp(config, tape, [tape.leaf(a) for a in arrays])
