"""Numerical helpers shared by the module and acceptance tests."""
from __future__ import annotations

import math

import numpy as np

from mdda.autodiff import StepPlan, Tape, Tensor, _require_finite, backward, matmul, softmax_cross_entropy
from mdda.datagen import Dataset, DomainSpec, rotation_matrix
from mdda.errors import ConfigError, ShapeError
from mdda.nn import Mlp, MlpConfig, forward, init_mlp
from mdda.pipeline import _critic_scores, gradient_penalty
from mdda.rng import _MASK, _splitmix64, stream


def assign(t: Tensor, value) -> None:
    """Overwrite a tape leaf's value in place.

    Only valid for leaves, and only between computations: nodes that
    consumed the old value must be discarded (``Tape.reset``) first.
    """
    if t.tape is None or t.tape.nodes[t.id].op != "leaf":
        raise ValueError("assign is only valid for tape leaves")
    arr = np.asarray(value, dtype=np.float64)
    if arr.shape != t.value.shape:
        raise ShapeError(f"assign shape {arr.shape} != leaf shape {t.value.shape}")
    _require_finite(arr, "assign")
    t.value[...] = arr


def central_difference(value, arrays, step=1e-5):
    """Central finite-difference gradients of ``value()`` with respect to
    each array in ``arrays``, probing by in-place mutation."""
    grads = []
    for target in arrays:
        g = np.zeros_like(target)
        flat = target.reshape(-1)
        gf = g.reshape(-1)
        for j in range(flat.size):
            keep = flat[j]
            flat[j] = keep + step
            plus = value()
            flat[j] = keep - step
            minus = value()
            flat[j] = keep
            gf[j] = (plus - minus) / (2.0 * step)
        grads.append(g)
    return grads


def relative_error(got: np.ndarray, want: np.ndarray) -> float:
    """max |got - want| / max(1, |want|), elementwise."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    return float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))


def six_op_layer(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """The affine map of an MLP layer as six recorded ops: transpose,
    matmul, a lifted ones leaf, reshape, a ones-column matmul for the bias,
    and add.  ``autodiff.linear`` must match it bit for bit."""
    ones = Tensor.of(np.ones((x.shape[0], 1)))
    return matmul(x, w.T) + matmul(ones, b.reshape((1, b.value.size)))


def kink_margin(net: Mlp, x: np.ndarray) -> float:
    """Smallest |pre-activation| any relu/leaky unit sees for inputs x.

    Finite-difference checks redraw inputs until this clears the probe
    step comfortably, so no unit changes its active side mid-difference.
    """
    h = np.asarray(x, dtype=np.float64)
    margin = np.inf
    n_affine = len(net.config.layer_widths) - 1
    for i in range(n_affine):
        z = h @ net.params[2 * i].value.T + net.params[2 * i + 1].value
        last = i == n_affine - 1
        act = net.config.final_activation if last else net.config.activation
        if act in ("relu", "leaky_relu"):
            margin = min(margin, float(np.abs(z).min()))
        if act == "relu":
            h = np.maximum(z, 0.0)
        elif act == "leaky_relu":
            h = np.where(z > 0.0, z, net.config.leaky_slope * z)
        elif act == "tanh":
            h = np.tanh(z)
        else:
            h = z
    return margin


def _net_loss(net: Mlp, x_leaf, labels: np.ndarray, kind: int):
    out = forward(net, x_leaf)
    if kind == 0:
        return out.square().mean()
    if kind == 1:
        return (out.tanh() + out * 0.5).square().sum()
    if net.config.d_out >= 2:
        return softmax_cross_entropy(out, labels)
    return out.mean()


def fd_sweep(n_nets: int, seed0: int = 0, step: float = 1e-5) -> float:
    """Worst relative error between reverse-mode and central-difference
    gradients over ``n_nets`` random networks and loss compositions."""
    worst = 0.0
    shapes = stream(99 + seed0, "sweep")
    for i in range(n_nets):
        widths = [2 + shapes.randint_below(3)]
        for _ in range(1 + shapes.randint_below(2)):
            widths.append(3 + shapes.randint_below(4))
        widths.append(1 + shapes.randint_below(3))
        act = ("relu", "leaky_relu", "tanh")[shapes.randint_below(3)]
        cfg = MlpConfig(tuple(widths), activation=act)
        kind = i % 3

        tape = Tape()
        net = init_mlp(cfg, stream(300 + i, "init"), tape)
        for attempt in range(60):
            x = stream(600 + i, "x", str(attempt)).uniforms(5 * widths[0], -2.0, 2.0).reshape(5, widths[0])
            if act == "tanh" or kink_margin(net, x) > 1e-3:
                break
        labels = stream(900 + i, "y").integers(5, below=widths[-1])

        loss = _net_loss(net, tape.leaf(x), labels, kind)
        grads = backward(loss, net.params)
        arrays = [p.value.copy() for p in net.params]

        def value():
            t2 = Tape()
            net2 = init_mlp(cfg, stream(300 + i, "init"), t2)
            for p, arr in zip(net2.params, arrays):
                assign(p, arr)
            return _net_loss(net2, t2.leaf(x), labels, kind).item()

        fd = central_difference(value, arrays, step=step)
        for p, f in zip(net.params, fd):
            worst = max(worst, relative_error(grads[p.id].value, f))
    return worst


def gp_param_grad_worst_error() -> float:
    """Worst relative error between the recorded (double-backprop) parameter
    gradient of the interpolate penalty and central finite differences."""
    cfg = MlpConfig((2, 5, 1), activation="leaky_relu")
    s = stream(11, "s").uniforms(8, -1.5, 1.5).reshape(4, 2)
    t = stream(12, "t").uniforms(8, -1.5, 1.5).reshape(4, 2)

    def build(arrays=None) -> Mlp:
        net = init_mlp(cfg, stream(13, "critic"))
        if arrays is not None:
            for p, arr in zip(net.params, arrays):
                assign(p, arr)
        return net

    critic = build()
    eps = stream(14, "eps").uniforms(4)
    points = np.vstack([eps[:, None] * s + (1.0 - eps[:, None]) * t, s, t])
    assert kink_margin(critic, points) > 1e-3

    penalty = gradient_penalty(critic, s, t, stream(14, "eps"))
    grads = backward(penalty, critic.params)
    arrays = [p.value.copy() for p in critic.params]

    def value():
        return gradient_penalty(build(arrays), s, t, stream(14, "eps")).item()

    fd = central_difference(value, arrays)
    return max(relative_error(grads[p.id].value, f) for p, f in zip(critic.params, fd))


def critic_scores(bundle, src: Dataset, tgt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two score vectors that ``estimate_wd`` and ``sample_distances``
    take: the frozen critic's score of every source row through the
    extractor and of every target row through the target encoder."""
    return _critic_scores(bundle, bundle.extractor.predict_values(src.x), tgt)


def linear_critic(weights_row, bias: float = 0.0) -> Mlp:
    """A single-affine critic D(x) = w.x + b with chosen coefficients."""
    net = init_mlp(MlpConfig((len(weights_row), 1)), stream(0, "linear-critic"))
    assign(net.params[0], np.array([weights_row], dtype=np.float64))
    assign(net.params[1], np.array([bias], dtype=np.float64))
    return net


def identity_net(width: int = 1) -> Mlp:
    """A single-affine net computing x itself."""
    net = init_mlp(MlpConfig((width, width)), stream(0, "identity"))
    assign(net.params[0], np.eye(width))
    assign(net.params[1], np.zeros(width))
    return net


class ReferenceAdam:
    """The allocating Adam update that ``mdda.nn.step`` must match byte for
    byte: moments over the concatenated gradients, fresh temporaries, new
    values returned as fresh arrays."""

    def __init__(self, learning_rate: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.learning_rate, self.beta1, self.beta2, self.eps = learning_rate, beta1, beta2, eps
        self.step_count = 0
        self.m = self.v = None

    def step(self, arrays: list[np.ndarray], grads: list[np.ndarray]) -> list[np.ndarray]:
        g = np.concatenate([grad.ravel() for grad in grads])
        if self.m is None:
            self.m = np.zeros_like(g)
            self.v = np.zeros_like(g)
        self.step_count += 1
        t = self.step_count
        b1, b2 = self.beta1, self.beta2
        self.m = b1 * self.m + (1.0 - b1) * g
        self.v = b2 * self.v + (1.0 - b2) * g * g
        m_hat = self.m / (1.0 - b1**t)
        v_hat = self.v / (1.0 - b2**t)
        values = np.concatenate([arr.ravel() for arr in arrays])
        values = values - self.learning_rate * m_hat / (np.sqrt(v_hat) + self.eps)
        out, start = [], 0
        for arr in arrays:
            out.append(values[start : start + arr.size].reshape(arr.shape))
            start += arr.size
        return out


def gradient_views(row: np.ndarray, wrt) -> list[np.ndarray]:
    """Views of ``row`` laid out as an optimizer's gradient row: one per
    tensor of ``wrt``, in order."""
    views, start = [], 0
    for t in wrt:
        views.append(row[start : start + t.value.size].reshape(t.shape))
        start += t.value.size
    return views


def step_plan(loss: Tensor, wrt, mark: int, n_inputs: int) -> StepPlan:
    """A step plan bound to a row of its own (``gradient_views``), which
    holds NaN wherever the plan has not written."""
    row = np.full(sum(t.value.size for t in wrt), np.nan)
    return StepPlan(loss, wrt, mark, n_inputs, row, gradient_views(row, wrt))


# ---------------------------------------------------------------------------
# domain helpers that only tests use


def domain_centroids(spec: DomainSpec) -> np.ndarray:
    """Exact post-transform class means, [n_classes x d]."""
    r = rotation_matrix(spec.rotation, spec.d)
    means = np.asarray(spec.base_means)
    return spec.scale * means @ r.T + np.asarray(spec.translation)


def concat_datasets(datasets: list[Dataset], name: str) -> Dataset:
    if not datasets:
        raise ConfigError("cannot concatenate zero datasets")
    x = np.concatenate([ds.x for ds in datasets], axis=0)
    y = np.concatenate([ds.y for ds in datasets])
    return Dataset(x, y, name)


def write_labelled_rows_per_value(path, columns: list[str], labels: np.ndarray, rows: np.ndarray) -> None:
    """The CSV writer that ``mdda.datagen.write_labelled_rows`` must match
    byte for byte: one f-string per value."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        for label, row in zip(labels, rows):
            fh.write(str(int(label)) + "," + ",".join(f"{v:.17g}" for v in row) + "\n")


# ---------------------------------------------------------------------------
# the pure-Python xoshiro256** that defined every stream before draws were
# buffered; ``mdda.rng.Xoshiro256`` must reproduce it byte for byte


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK


class ReferenceXoshiro256:
    """xoshiro256** generator over a 256-bit state."""

    __slots__ = ("s0", "s1", "s2", "s3")

    def __init__(self, seed: int):
        sm = seed & _MASK
        sm, self.s0 = _splitmix64(sm)
        sm, self.s1 = _splitmix64(sm)
        sm, self.s2 = _splitmix64(sm)
        sm, self.s3 = _splitmix64(sm)
        # All-zero state is a fixed point; SplitMix64 cannot produce it
        # from the four consecutive outputs, but guard anyway.
        if self.s0 == self.s1 == self.s2 == self.s3 == 0:
            self.s3 = 1

    def next_u64(self) -> int:
        s1 = self.s1
        result = (_rotl((s1 * 5) & _MASK, 7) * 9) & _MASK
        t = (s1 << 17) & _MASK
        s2 = self.s2 ^ self.s0
        s3 = self.s3 ^ s1
        self.s1 = s1 ^ s2
        self.s0 = self.s0 ^ s3
        self.s2 = s2 ^ t
        self.s3 = _rotl(s3, 45)
        return result

    # ---- scalar draws -------------------------------------------------

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        # 53 random bits -> [0, 1)
        u = (self.next_u64() >> 11) * 2.0**-53
        return low + (high - low) * u

    def randint_below(self, n: int) -> int:
        """Uniform integer in [0, n), unbiased via rejection."""
        if n <= 0:
            raise ValueError("randint_below requires n >= 1")
        threshold = ((1 << 64) // n) * n
        while True:
            x = self.next_u64()
            if x < threshold:
                return x % n

    # ---- array draws --------------------------------------------------

    def uniforms(self, count: int, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        span = high - low
        nxt = self.next_u64
        return np.array(
            [low + span * ((nxt() >> 11) * 2.0**-53) for _ in range(count)],
            dtype=np.float64,
        )

    def normals(self, count: int) -> np.ndarray:
        """Standard normals via Box-Muller; pairs are drawn per call and
        an unused spare from an odd count is discarded, so the draw
        count is a function of `count` alone."""
        out = np.empty(count, dtype=np.float64)
        nxt = self.next_u64
        i = 0
        while i < count:
            # u1 in (0, 1] so log(u1) is finite
            u1 = ((nxt() >> 11) + 1) * 2.0**-53
            u2 = (nxt() >> 11) * 2.0**-53
            r = math.sqrt(-2.0 * math.log(u1))
            a = 2.0 * math.pi * u2
            out[i] = r * math.cos(a)
            i += 1
            if i < count:
                out[i] = r * math.sin(a)
                i += 1
        return out

    def integers(self, count: int, below: int) -> np.ndarray:
        return np.array([self.randint_below(below) for _ in range(count)], dtype=np.int64)

    def permutation(self, n: int) -> np.ndarray:
        perm = np.arange(n, dtype=np.int64)
        for i in range(n - 1, 0, -1):
            j = self.randint_below(i + 1)
            perm[i], perm[j] = perm[j], perm[i]
        return perm
