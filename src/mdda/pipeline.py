"""The four-stage multi-source adaptation pipeline.

Stage 1 pre-trains a feature extractor and classifier per source.
Stage 2 freezes the extractor and trains a target encoder against a
critic so that encoded target features become indistinguishable from
source features; the converged critic gap estimates the Wasserstein
distance between the domains.  Stage 3 distills each source down to the
half of its samples scoring closest to the target and fine-tunes the
classifier on them.  Stage 4 combines the per-source predictions with
weights that decay in the estimated distance.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .autodiff import StepPlan, Tape, Tensor, backward, matmul, softmax_cross_entropy
from .datagen import Dataset
from .errors import ConfigError, DataFormatError, DivergenceError, NonFiniteError, ShapeError
from .errors import from_json, json_bool, json_field, json_float, json_str, to_json
from .nn import (
    Mlp,
    MlpConfig,
    adam,
    clone_mlp,
    forward,
    init_mlp,
    load_mlp,
    load_params,
    save_params,
    step,
)
from .nn import _gradient_row
from .rng import _FILL_CAP, Xoshiro256

_EPS_NORM = 1e-12


# ---------------------------------------------------------------------------
# configuration and result types


@dataclass(frozen=True)
class TrainConfig:
    """Minibatch schedule for supervised stages (pre-train, fine-tune)."""

    steps: int = 2000
    batch_size: int = 64
    learning_rate: float = 1e-3

    def __post_init__(self):
        if self.steps < 0:
            raise ConfigError("steps must be non-negative")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be positive")
        if not self.learning_rate > 0.0:
            raise ConfigError("learning_rate must be positive")


@dataclass(frozen=True)
class AdaptConfig:
    """Adversarial schedule for the target-encoder stage.

    steps counts encoder updates; each is preceded by n_critic critic
    updates.  steps=0 is the degenerate run that only initializes the
    encoder clone and critic.
    """

    alpha: float = 10.0
    n_critic: int = 5
    steps: int = 300
    batch_size: int = 64
    lr_critic: float = 1e-3
    lr_encoder: float = 5e-4
    include_endpoints: bool = True
    critic_hidden: tuple[int, ...] = (64, 64)
    critic_slope: float = 0.2
    lr_decay: bool = True

    def __post_init__(self):
        object.__setattr__(self, "critic_hidden", tuple(int(w) for w in self.critic_hidden))
        if not self.alpha > 0.0:
            raise ConfigError("alpha must be positive")
        if self.n_critic < 1:
            raise ConfigError("n_critic must be at least 1")
        if self.steps < 0:
            raise ConfigError("steps must be non-negative")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be positive")
        if not (self.lr_critic > 0.0 and self.lr_encoder > 0.0):
            raise ConfigError("learning rates must be positive")
        if not 0.0 < self.critic_slope < 1.0:
            raise ConfigError("critic_slope must lie in (0, 1)")


@dataclass
class SourceBundle:
    """All trained networks belonging to one source domain."""

    name: str
    extractor: Mlp
    classifier: Mlp
    target_encoder: Mlp | None = None
    critic: Mlp | None = None
    wd_estimate: float | None = None
    distilled: bool = False
    tau: np.ndarray | None = None  # each source sample's distance to the target

    def __post_init__(self):
        if self.extractor.config.d_out != self.classifier.config.d_in:
            raise ConfigError("classifier input width must equal extractor output width")
        stage2 = (self.target_encoder is not None, self.critic is not None, self.wd_estimate is not None)
        if any(stage2) and not all(stage2):
            raise ConfigError("target_encoder, critic and wd_estimate appear together")
        if (self.distilled or self.tau is not None) and self.target_encoder is None:
            raise ConfigError("distilled and tau require a completed adaptation stage")
        if self.target_encoder is not None and self.target_encoder.config != self.extractor.config:
            raise ConfigError("target encoder must share the extractor architecture")

    @property
    def stage(self) -> int:
        if self.distilled:
            return 3
        return 2 if self.target_encoder is not None else 1


@dataclass
class DistillSelection:
    """Per-sample distances and the half-set chosen for fine-tuning."""

    tau: np.ndarray
    selected_indices: np.ndarray
    rule: str = "closest"
    fraction: float = 0.5

    def __post_init__(self):
        self.tau = np.asarray(self.tau, dtype=np.float64)
        self.selected_indices = np.asarray(self.selected_indices, dtype=np.int64)
        n = self.tau.size
        k = self.selected_indices.size
        if self.rule not in ("closest", "farthest"):
            raise ConfigError(f"unknown distill rule {self.rule!r}")
        if not 0.0 < self.fraction <= 1.0:
            raise ConfigError("fraction must lie in (0, 1]")
        if k != math.ceil(n * self.fraction):
            raise ConfigError(f"selection size {k} != ceil({n} * {self.fraction})")
        if np.unique(self.selected_indices).size != k:
            raise ConfigError("selected indices must be unique")
        if k and (self.selected_indices.min() < 0 or self.selected_indices.max() >= n):
            raise ConfigError("selected indices out of range")


@dataclass
class DomainWeights:
    """Per-source relevance weights derived from distance estimates."""

    raw: np.ndarray
    normalized: np.ndarray

    def __post_init__(self):
        self.raw = np.asarray(self.raw, dtype=np.float64)
        self.normalized = np.asarray(self.normalized, dtype=np.float64)
        if self.raw.size < 1 or self.raw.shape != self.normalized.shape:
            raise ConfigError("raw and normalized weights must be non-empty and congruent")
        # far sources' raw weights underflow to 0; the comparisons reject NaN
        if not np.all((self.raw >= 0.0) & (self.raw <= 1.0)):
            raise ConfigError("raw weights must lie in [0, 1]")
        if not abs(self.normalized.sum() - 1.0) <= 1e-12:
            raise ConfigError("normalized weights must sum to 1")
        if self.raw[np.argmax(self.normalized)] != self.raw.max():
            raise ConfigError("normalization must preserve the argmax")


@dataclass
class Prediction:
    probs: np.ndarray
    labels: np.ndarray


# ---------------------------------------------------------------------------
# stage 1: per-source pre-training


def pretrain_source(
    src: Dataset,
    extractor_cfg: MlpConfig,
    classifier_cfg: MlpConfig,
    train: TrainConfig,
    rng: Xoshiro256,
    name: str | None = None,
) -> SourceBundle:
    """Jointly train extractor and classifier on labelled source data."""
    if extractor_cfg.d_in != src.d:
        raise ConfigError(f"extractor expects width {extractor_cfg.d_in}, data has {src.d}")
    if extractor_cfg.d_out != classifier_cfg.d_in:
        raise ConfigError("classifier input width must equal extractor output width")
    if src.y.max() >= classifier_cfg.d_out:
        raise ConfigError(f"label {src.y.max()} outside {classifier_cfg.d_out} classes")
    tape = Tape()
    extractor = init_mlp(extractor_cfg, rng, tape)
    classifier = init_mlp(classifier_cfg, rng, tape)
    _train_supervised((extractor, classifier), src.x, src.y, train, rng, "pre-training")
    return SourceBundle(name=name or src.domain_name, extractor=extractor, classifier=classifier)


def _train_supervised(nets: tuple[Mlp, ...], x: np.ndarray, y: np.ndarray,
                      train: TrainConfig, rng: Xoshiro256, what: str) -> None:
    """Adam on the cross-entropy of the chained ``nets`` (one tape) over
    minibatches of rows of ``x``; a non-finite value is a divergence."""
    tape = nets[0].tape
    steps = _Steps([p for net in nets for p in net.params], adam(train.learning_rate), 1)

    def record(rows: np.ndarray, labels: np.ndarray) -> Tensor:
        h = tape.leaf(rows)
        for net in nets:
            h = forward(net, h)
        return softmax_cross_entropy(h, labels)

    for i, idx in enumerate(_minibatches(rng, train.steps, train.batch_size, x.shape[0])):
        rows, labels = x[idx], y[idx]
        try:
            steps(lambda: record(rows, labels), lambda: [rows], [labels])
        except NonFiniteError as exc:
            raise DivergenceError(f"{what} diverged: {exc}", step=i) from exc
    tape.reset(steps.mark)


def _minibatches(rng: Xoshiro256, steps: int, batch_size: int, n: int):
    """Row indices below ``n`` for ``steps`` minibatches, drawn by blocks of
    whole steps of at most ``_FILL_CAP`` draws (or one step): the rows, and
    the stream position after the last step, of one ``rng.integers`` call
    per step."""
    per_block = max(1, _FILL_CAP // batch_size)
    for start in range(0, steps, per_block):
        block = min(per_block, steps - start)
        yield from rng.integers(block * batch_size, below=n).reshape(block, batch_size)


class _Steps:
    """The record-or-replay step of one Adam loop over ``params``: the first
    step is recorded past a tape mark and captured as a plan of ``n_inputs``
    inputs, bound to the optimizer's gradient row; every later step replays
    it, so ``step`` copies no gradient."""

    def __init__(self, params: list[Tensor], opt, n_inputs: int):
        self.params, self.opt, self.n_inputs, self.plan = params, opt, n_inputs, None
        self.mark = params[0].tape.mark()

    def __call__(self, record, inputs, labels=()) -> None:
        """``record()`` records the loss, its input leaves first and in
        order; ``inputs()`` gives the arrays a replay takes in their place."""
        if self.plan is None:
            self.params[0].tape.reset(self.mark)
            # bound here, before recording: binding in __init__ or after
            # recording moved the heap's layout and raised the peak RSS
            row, views = _gradient_row(self.opt, self.params)
            loss = record()
            grads = backward(loss, self.params)
            self.plan = StepPlan(loss, self.params, self.mark, self.n_inputs, row, views)
            step(self.opt, self.params, grads)
        else:
            self.plan.run(inputs(), labels)
            step(self.opt, self.params, None)


# ---------------------------------------------------------------------------
# stage 2: adversarial target adaptation


def critic_loss(critic: Mlp, src_feats: Tensor, tgt_feats: Tensor) -> Tensor:
    """Mean critic score on source features minus mean on target features."""
    if src_feats.shape[0] < 1 or tgt_feats.shape[0] < 1:
        raise ConfigError("critic_loss needs non-empty batches")
    if src_feats.shape[1] != tgt_feats.shape[1]:
        raise ShapeError(f"feature widths differ: {src_feats.shape} vs {tgt_feats.shape}")
    return forward(critic, src_feats).mean() - forward(critic, tgt_feats).mean()


def encoder_loss(critic: Mlp, tgt_feats: Tensor) -> Tensor:
    """Negative mean critic score of encoded target features."""
    if tgt_feats.shape[0] < 1:
        raise ConfigError("encoder_loss needs a non-empty batch")
    return -forward(critic, tgt_feats).mean()


def gradient_penalty(
    critic: Mlp,
    s: np.ndarray,
    t: np.ndarray,
    rng: Xoshiro256,
    include_endpoints: bool = True,
) -> Tensor:
    """Mean squared deviation of the critic's input-gradient norm from 1.

    Evaluated on random interpolates between paired source and target
    feature rows ``s`` and ``t``, plus the endpoints themselves when
    include_endpoints.  The inner input gradient is recorded so the result
    stays differentiable with respect to the critic parameters.
    """
    tape = critic.tape
    points = _penalty_points(s, t, rng, include_endpoints)
    # the points' leaf is the first node recorded, which a step plan of the
    # critic step takes as an input
    x_hat = tape.leaf(points)
    total = forward(critic, x_hat).sum()
    grad = backward(total, [x_hat], record=True)[x_hat.id]
    row_sq = matmul(grad.square(), tape.leaf(np.ones((points.shape[1], 1))))
    norms = (row_sq + _EPS_NORM).sqrt()
    return (norms - 1.0).square().mean()


def _penalty_points(s: np.ndarray, t: np.ndarray, rng: Xoshiro256, include_endpoints: bool) -> np.ndarray:
    if s.shape != t.shape:
        raise ShapeError(f"paired batches must match: {s.shape} vs {t.shape}")
    if s.ndim != 2 or s.shape[0] < 1:
        raise ConfigError("gradient_penalty needs a non-empty [batch x features] pair")
    eps = rng.uniforms(s.shape[0])[:, None]
    points = eps * s + (1.0 - eps) * t
    return np.concatenate([points, s, t], axis=0) if include_endpoints else points


def _critic_objective(critic: Mlp, s: np.ndarray, t: np.ndarray, rng: Xoshiro256, cfg: AdaptConfig) -> Tensor:
    """The critic's loss, with its input leaves first: batches, penalty points."""
    sf, tf = critic.tape.leaf(s), critic.tape.leaf(t)
    penalty = gradient_penalty(critic, s, t, rng, cfg.include_endpoints)
    return cfg.alpha * penalty - critic_loss(critic, sf, tf)


def adapt_target(
    bundle: SourceBundle,
    src: Dataset,
    tgt: np.ndarray,
    cfg: AdaptConfig,
    rng: Xoshiro256,
) -> SourceBundle:
    """Train a target encoder against a fresh critic; extractor frozen.

    The encoder starts as a clone of the source extractor, so matched
    domains begin at the zero-distance fixed point.  Critic updates
    minimize the negated score gap plus the gradient penalty; encoder
    updates minimize the negative target score.
    """
    if tgt.ndim != 2 or tgt.shape[1] != bundle.extractor.config.d_in:
        raise ShapeError(f"target data shape {tgt.shape} does not match extractor input")
    if tgt.shape[0] < 1:
        raise ConfigError("adapt_target needs non-empty target data")
    frozen_before = [p.value.copy() for p in bundle.extractor.params]
    src_feats = bundle.extractor.predict_values(src.x)

    tape = Tape()
    target_encoder = clone_mlp(bundle.extractor, tape)
    critic_cfg = MlpConfig(
        layer_widths=(bundle.extractor.config.d_out, *cfg.critic_hidden, 1),
        activation="leaky_relu",
        leaky_slope=cfg.critic_slope,
    )
    critic = init_mlp(critic_cfg, rng, tape)
    critic_steps = _Steps(critic.params, adam(cfg.lr_critic, beta1=0.5, beta2=0.9), 3)
    encoder_steps = _Steps(target_encoder.params, adam(cfg.lr_encoder, beta1=0.5, beta2=0.9), 1)
    for i in range(cfg.steps):
        if cfg.lr_decay:
            # anneal both players to zero so the endpoint is settled,
            # not a random phase of the adversarial oscillation
            factor = 1.0 - i / cfg.steps
            critic_steps.opt.learning_rate = cfg.lr_critic * factor
            encoder_steps.opt.learning_rate = cfg.lr_encoder * factor
        try:
            for _ in range(cfg.n_critic):
                si = rng.integers(cfg.batch_size, below=src.n)
                ti = rng.integers(cfg.batch_size, below=tgt.shape[0])
                s = src_feats[si]
                t = target_encoder.predict_values(tgt[ti])
                critic_steps(lambda: _critic_objective(critic, s, t, rng, cfg),
                             lambda: [s, t, _penalty_points(s, t, rng, cfg.include_endpoints)])
            rows = tgt[rng.integers(cfg.batch_size, below=tgt.shape[0])]
            encoder_steps(lambda: encoder_loss(critic, forward(target_encoder, tape.leaf(rows))), lambda: [rows])
        except NonFiniteError as exc:
            raise DivergenceError(f"adaptation diverged: {exc}", step=i) from exc
    tape.reset(critic_steps.mark)

    for p, before in zip(bundle.extractor.params, frozen_before):
        if not np.array_equal(p.value, before):
            raise ConfigError("source extractor changed during adaptation")
    adapted = SourceBundle(
        name=bundle.name,
        extractor=bundle.extractor,
        classifier=bundle.classifier,
        target_encoder=target_encoder,
        critic=critic,
        wd_estimate=0.0,
    )
    # one scoring of every row gives both the distance estimate and tau
    scores = _critic_scores(adapted, src_feats, tgt)
    adapted.wd_estimate = estimate_wd(*scores)
    adapted.tau = sample_distances(*scores)
    return adapted


def estimate_wd(src_scores: np.ndarray, tgt_scores: np.ndarray) -> float:
    """Converged critic gap over the full source and target sets: the
    mean source score minus the mean target score."""
    with np.errstate(all="ignore"):
        gap = float(src_scores.mean() - tgt_scores.mean())
    if not math.isfinite(gap):
        raise NonFiniteError("critic gap is non-finite")
    return gap


def _critic_scores(bundle: SourceBundle, src_feats: np.ndarray, tgt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The frozen critic's score of every source feature row and of every
    target row through the target encoder."""
    if bundle.critic is None or bundle.target_encoder is None:
        raise ConfigError("bundle missing critic; run adaptation first")
    src_scores = bundle.critic.predict_values(src_feats)[:, 0]
    tgt_scores = bundle.critic.predict_values(bundle.target_encoder.predict_values(tgt))[:, 0]
    return src_scores, tgt_scores


# ---------------------------------------------------------------------------
# stage 3: source distilling


def sample_distances(src_scores: np.ndarray, tgt_scores: np.ndarray) -> np.ndarray:
    """Each source sample's critic score minus the mean target score,
    in absolute value: the tau that distilling selects by."""
    return np.abs(src_scores - tgt_scores.mean())


def distill_select(tau: np.ndarray, rule: str = "closest", fraction: float = 0.5) -> DistillSelection:
    """Pick the ceil(N * fraction) samples nearest the target (rule
    "closest"; "farthest" inverts).  Ties go to the lower index."""
    tau = np.asarray(tau, dtype=np.float64)
    if tau.size < 2:
        raise ConfigError("distilling needs at least two samples")
    if rule not in ("closest", "farthest"):
        raise ConfigError(f"unknown distill rule {rule!r}")
    if not 0.0 < fraction <= 1.0:
        raise ConfigError("fraction must lie in (0, 1]")
    k = math.ceil(tau.size * fraction)
    order = np.argsort(tau if rule == "closest" else -tau, kind="stable")
    return DistillSelection(
        tau=tau,
        selected_indices=np.sort(order[:k]),
        rule=rule,
        fraction=fraction,
    )


def distill_finetune(
    bundle: SourceBundle,
    src: Dataset,
    sel: DistillSelection,
    train: TrainConfig,
    rng: Xoshiro256,
) -> SourceBundle:
    """Fine-tune a copy of the classifier on the selected samples only.

    Features come from the frozen extractor; the returned bundle shares
    every network except the classifier with the input bundle.
    """
    if bundle.target_encoder is None:
        raise ConfigError("distilling requires a completed adaptation stage")
    if sel.tau.size != src.n:
        raise ConfigError(f"selection over {sel.tau.size} samples, dataset has {src.n}")
    feats = bundle.extractor.predict_values(src.x)[sel.selected_indices]
    classifier = clone_mlp(bundle.classifier, Tape())
    _train_supervised((classifier,), feats, src.y[sel.selected_indices], train, rng, "fine-tuning")
    return SourceBundle(
        name=bundle.name,
        extractor=bundle.extractor,
        classifier=classifier,
        target_encoder=bundle.target_encoder,
        critic=bundle.critic,
        wd_estimate=bundle.wd_estimate,
        distilled=True,
        tau=bundle.tau,
    )


# ---------------------------------------------------------------------------
# stage 4: weighting and aggregation


def domain_weight(wd_estimates) -> DomainWeights:
    """Relevance weight exp(-L^2 / 2) per source, with a normalized copy."""
    arr = np.asarray(wd_estimates, dtype=np.float64)
    if arr.size < 1:
        raise ConfigError("domain_weight needs at least one estimate")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError("distance estimates must be finite")
    with np.errstate(over="ignore"):
        raw = np.exp(-(arr * arr) / 2.0)
        if raw.max() >= np.finfo(np.float64).tiny:
            return DomainWeights(raw=raw, normalized=raw / raw.sum())
        # No raw weight is a normal float: a log-space softmax of -L^2 / 2,
        # less its maximum -m^2 / 2 and factored, so that no square overflows.
        a = np.abs(arr)
        m = a.min()
        shifted = np.exp(-(a - m) * (a / 2.0 + m / 2.0))
    return DomainWeights(raw=raw, normalized=shifted / shifted.sum())


def uniform_weights(count: int) -> DomainWeights:
    if count < 1:
        raise ConfigError("need at least one source")
    return DomainWeights(raw=np.ones(count), normalized=np.full(count, 1.0 / count))


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def single_source_probs(bundle: SourceBundle, x: np.ndarray) -> np.ndarray:
    """Softmax prediction of one source's classifier on encoded target input."""
    if bundle.target_encoder is None:
        raise ConfigError(f"source {bundle.name}: bundle missing target encoder")
    return _softmax_rows(bundle.classifier.predict_values(bundle.target_encoder.predict_values(x)))


def aggregate_predict(bundles: list[SourceBundle], weights: DomainWeights, x: np.ndarray) -> Prediction:
    """Weighted sum of per-source softmax predictions; labels by argmax."""
    if not bundles:
        raise ConfigError("aggregate_predict needs at least one bundle")
    if weights.normalized.size != len(bundles):
        raise ConfigError(f"{weights.normalized.size} weights for {len(bundles)} bundles")
    total = None
    for w, bundle in zip(weights.normalized, bundles):
        contrib = w * single_source_probs(bundle, x)
        total = contrib if total is None else total + contrib
    return Prediction(probs=total, labels=np.argmax(total, axis=1))


# ---------------------------------------------------------------------------
# bundle checkpoints: parameter files plus a JSON description


_NET_FILES = ("extractor", "classifier", "target_encoder", "critic")


def save_bundle(bundle: SourceBundle, directory, experiment: str) -> None:
    """Write one parameter file per network, tau.bin for an adapted bundle,
    and meta.json, stamped with ``experiment``, the hash of the experiment
    that produced the bundle.

    meta.json is removed first and replaced last, so a write cut short
    leaves a bundle that does not load rather than one mixing old and new
    networks.
    """
    os.makedirs(directory, exist_ok=True)
    meta_path = os.path.join(directory, "meta.json")
    if os.path.exists(meta_path):
        os.remove(meta_path)
    configs = {}
    for attr in _NET_FILES:
        net = getattr(bundle, attr)
        if net is None:
            continue
        configs[attr] = to_json(net.config)
        save_params(net, os.path.join(directory, f"{attr}.bin"))
    if bundle.tau is not None:
        save_params([Tensor.of(bundle.tau)], os.path.join(directory, "tau.bin"))
    meta = {
        "schema_version": 1,
        "name": bundle.name,
        "stage": bundle.stage,
        "distilled": bundle.distilled,
        "wd_estimate": bundle.wd_estimate,
        "configs": configs,
        "experiment_hash": experiment,
    }
    with open(meta_path + ".tmp", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(meta_path + ".tmp", meta_path)


def load_bundle(directory, experiment: str) -> SourceBundle:
    """Read a checkpoint.  A bundle stamped with any experiment hash other
    than ``experiment`` is stale and rejected, and so are a parameter file
    that does not fit its network's config and an adapted bundle's unreadable tau."""
    with open(os.path.join(directory, "meta.json"), "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    version = meta.get("schema_version") if isinstance(meta, dict) else None
    if version != 1:
        raise ConfigError(f"{directory}: unsupported bundle schema {version!r}")
    try:
        name = json_field(meta, "name", json_str)
        configs = json_field(meta, "configs", lambda v: from_json(dict[str, MlpConfig], v))
        wd_estimate = json_field(meta, "wd_estimate", lambda v: None if v is None else json_float(v))
        distilled = json_field(meta, "distilled", json_bool)
    except DataFormatError as exc:
        raise DataFormatError(f"{directory}/meta.json: {exc}") from None
    if meta.get("experiment_hash") != experiment:
        raise ConfigError(
            f"{directory}: bundle {name!r} belongs to another experiment "
            "(the config or --seed differ); rerun pretrain"
        )
    if "extractor" not in configs or "classifier" not in configs:
        raise ConfigError(f"{directory}: checkpoint lacks extractor or classifier")
    tape = Tape()
    nets = {
        attr: load_mlp(configs[attr], os.path.join(directory, f"{attr}.bin"), tape)
        for attr in _NET_FILES
        if attr in configs
    }
    tau = None
    if "critic" in nets:
        try:
            (tau,) = load_params(os.path.join(directory, "tau.bin"))
        except (DataFormatError, OSError, ValueError) as exc:
            raise ConfigError(f"{directory}: bundle {name!r} has no readable tau ({exc}); rerun adapt") from None
    return SourceBundle(
        name=name,
        extractor=nets["extractor"],
        classifier=nets["classifier"],
        target_encoder=nets.get("target_encoder"),
        critic=nets.get("critic"),
        wd_estimate=wd_estimate,
        distilled=distilled,
        tau=tau,
    )
