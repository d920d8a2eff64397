"""Multi-layer perceptrons, optimizers, and the parameter file format.

One MLP class covers the four network roles in the pipeline: feature
extractor, classifier, target encoder, and critic.  They differ only in
layer widths and activations, which live in :class:`MlpConfig`.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .autodiff import Grads, Tape, Tensor, linear
from .errors import ConfigError, DataFormatError, ShapeError, json_field, json_float, json_int
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

    @property
    def weights(self) -> list[Tensor]:
        return self.params[0::2]

    @property
    def biases(self) -> list[Tensor]:
        return self.params[1::2]

    def forward(self, x) -> Tensor:
        return forward(self, x)

    def predict_values(self, x: np.ndarray) -> np.ndarray:
        """Forward pass without touching the tape (frozen evaluation)."""
        with self.tape.paused():
            return forward(self, Tensor.of(x)).value


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
    """Affine + activation per hidden layer, final affine plus the
    configured final activation."""
    if not isinstance(x, Tensor):
        x = Tensor.of(x)
    if x.value.ndim != 2 or x.shape[1] != net.config.d_in:
        raise ShapeError(
            f"input shape {x.shape} does not match [batch x {net.config.d_in}]"
        )
    n_layers = len(net.config.layer_widths) - 1
    h = x
    for i in range(n_layers):
        h = linear(h, net.params[2 * i], net.params[2 * i + 1])
        if i < n_layers - 1:
            if net.config.activation == "relu":
                h = h.relu()
            elif net.config.activation == "leaky_relu":
                h = h.leaky_relu(net.config.leaky_slope)
            else:
                h = h.tanh()
        elif net.config.final_activation == "tanh":
            h = h.tanh()
    return h


def config_to_dict(cfg: MlpConfig) -> dict:
    return {
        "layer_widths": list(cfg.layer_widths),
        "activation": cfg.activation,
        "leaky_slope": cfg.leaky_slope,
        "final_activation": cfg.final_activation,
    }


def config_from_dict(data: dict) -> MlpConfig:
    return MlpConfig(
        layer_widths=json_field(data, "layer_widths", lambda v: tuple(json_int(w) for w in v)),
        activation=json_field(data, "activation", str, "relu"),
        leaky_slope=json_field(data, "leaky_slope", json_float, 0.2),
        final_activation=json_field(data, "final_activation", str, "none"),
    )


def clone_params(src: Mlp, dst: Mlp) -> None:
    """Copy parameter values; the two nets stay fully independent."""
    if src.config != dst.config:
        raise ConfigError("clone_params needs identical configs")
    for ps, pd in zip(src.params, dst.params):
        pd.assign(ps.value)


def clone_mlp(src: Mlp, tape: Tape | None = None) -> Mlp:
    """A fresh net with the same config and copied parameters."""
    tape = tape if tape is not None else Tape()
    return Mlp(src.config, tape, [tape.leaf(p.value) for p in src.params])


# ---------------------------------------------------------------------------
# optimizers


@dataclass
class OptimizerState:
    """SGD or Adam state; moment buffers are keyed by parameter position,
    so the same parameter list must be passed to every step."""

    kind: str
    learning_rate: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    _m: list[np.ndarray] = field(default_factory=list, repr=False)
    _v: list[np.ndarray] = field(default_factory=list, repr=False)

    def __post_init__(self):
        if self.kind not in ("sgd", "adam"):
            raise ConfigError(f"unknown optimizer {self.kind!r}")
        if self.learning_rate <= 0.0:
            raise ConfigError("learning_rate must be positive")


def sgd(learning_rate: float) -> OptimizerState:
    return OptimizerState("sgd", learning_rate)


def adam(learning_rate: float, beta1: float = 0.9, beta2: float = 0.999,
         eps: float = 1e-8) -> OptimizerState:
    return OptimizerState("adam", learning_rate, beta1, beta2, eps)


def step(opt: OptimizerState, params: Sequence[Tensor], grads: Grads) -> None:
    """Apply one update in place.  Every parameter must have a gradient
    entry; a missing one is a caller bug, not a zero."""
    for p in params:
        if p.id not in grads:
            raise KeyError(f"missing gradient entry for parameter node {p.id}")
    if opt.kind == "sgd":
        for p in params:
            p.assign(p.value - opt.learning_rate * grads[p.id].value)
        opt.step_count += 1
        return
    if not opt._m:
        opt._m = [np.zeros_like(p.value) for p in params]
        opt._v = [np.zeros_like(p.value) for p in params]
    elif len(opt._m) != len(params):
        raise ShapeError("optimizer state does not match the parameter list")
    opt.step_count += 1
    t = opt.step_count
    b1, b2 = opt.beta1, opt.beta2
    for i, p in enumerate(params):
        g = grads[p.id].value
        opt._m[i] = b1 * opt._m[i] + (1.0 - b1) * g
        opt._v[i] = b2 * opt._v[i] + (1.0 - b2) * g * g
        m_hat = opt._m[i] / (1.0 - b1**t)
        v_hat = opt._v[i] / (1.0 - b2**t)
        p.assign(p.value - opt.learning_rate * m_hat / (np.sqrt(v_hat) + opt.eps))


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
        head = fh.read(12)
        if len(head) != 12:
            raise DataFormatError(f"{path}: truncated header")
        magic, version, count = struct.unpack("<4sII", head)
        if magic != _MAGIC:
            raise DataFormatError(f"{path}: bad magic {magic!r}")
        if version != _VERSION:
            raise DataFormatError(f"{path}: unsupported version {version}")
        arrays = []
        for i in range(count):
            raw = fh.read(4)
            if len(raw) != 4:
                raise DataFormatError(f"{path}: truncated parameter {i}")
            (rank,) = struct.unpack("<I", raw)
            raw = fh.read(4 * rank)
            if len(raw) != 4 * rank:
                raise DataFormatError(f"{path}: truncated dims for parameter {i}")
            dims = struct.unpack(f"<{rank}I", raw)
            n = int(np.prod(dims, dtype=np.int64)) if rank else 1
            raw = fh.read(8 * n)
            if len(raw) != 8 * n:
                raise DataFormatError(f"{path}: truncated values for parameter {i}")
            arrays.append(np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(dims))
        return arrays


def load_params_into(net: Mlp, path) -> None:
    arrays = load_params(path)
    if len(arrays) != len(net.params):
        raise DataFormatError(
            f"{path}: has {len(arrays)} parameters, net needs {len(net.params)}"
        )
    for p, arr in zip(net.params, arrays):
        if arr.shape != p.value.shape:
            raise DataFormatError(
                f"{path}: parameter shape {arr.shape} does not match {p.value.shape}"
            )
        p.assign(arr)
