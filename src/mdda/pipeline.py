"""The four-stage multi-source adaptation pipeline.

Stage 1 pre-trains a feature extractor and classifier per source, all
sources of a seed in lockstep, as stage 3 fine-tunes their classifiers.
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
from dataclasses import dataclass, replace

import numpy as np

from .autodiff import Lockstep, StepPlan, Tape, Tensor, _require_finite, _rows, backward, matmul, softmax_cross_entropy
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
    tau: np.ndarray | None = None  # stage 2's distance of each source sample to the target, until stage 3

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
    sources: list[Dataset],
    extractor_cfg: MlpConfig,
    classifier_cfg: MlpConfig,
    train: TrainConfig,
    rngs: list[Xoshiro256],
) -> list[SourceBundle]:
    """Jointly train an extractor and classifier on each source's labelled
    data, each source from its own stream, all of them in lockstep."""
    if extractor_cfg.d_out != classifier_cfg.d_in:
        raise ConfigError("classifier input width must equal extractor output width")
    if len(rngs) != len(sources):
        raise ConfigError(f"{len(rngs)} streams for {len(sources)} sources")
    for src in sources:
        if extractor_cfg.d_in != src.d:
            raise ConfigError(f"extractor expects width {extractor_cfg.d_in}, data has {src.d}")
    nets = []
    for rng in rngs:
        tape = Tape()
        nets.append((init_mlp(extractor_cfg, rng, tape), init_mlp(classifier_cfg, rng, tape)))
    _train_supervised(nets, [src.x for src in sources], [src.y for src in sources], train, rngs,
                      "pre-training", [src.domain_name for src in sources])
    return [SourceBundle(name=src.domain_name, extractor=e, classifier=c) for src, (e, c) in zip(sources, nets)]


def _train_supervised(nets: list[tuple[Mlp, ...]], xs: list[np.ndarray], ys: list[np.ndarray],
                      train: TrainConfig, rngs: list[Xoshiro256], what: str, names: list[str]) -> None:
    """Adam on the cross-entropy of each source's chained ``nets`` (one tape
    per source) over minibatches of its rows of ``xs`` and ``ys``, drawn from
    its own stream, all sources in lockstep, gathered into the arrays that
    the replay reads.  The data are checked first; a non-finite value is a
    divergence of the first source, in source order, at the earliest step."""
    n_classes = nets[0][-1].config.d_out
    for x, y, name in zip(xs, ys, names):
        if not np.isfinite(x).all():
            raise NonFiniteError(f"{what} of source {name}: a data row holds a non-finite value")
        if y.min() < 0 or y.max() >= n_classes:
            raise ConfigError(f"{what} of source {name}: a label lies outside [0, {n_classes})")
    steps = _Steps([[p for net in chain for p in net.params] for chain in nets], adam(train.learning_rate))

    def record(s: int, rows: np.ndarray) -> Tensor:
        h = nets[s][0].tape.leaf(xs[s][rows])
        for net in nets[s]:
            h = forward(net, h)
        return softmax_cross_entropy(h, ys[s][rows])

    batches = zip(*(_minibatches(rng, train.steps, train.batch_size, x.shape[0]) for rng, x in zip(rngs, xs)))
    for i, idx in enumerate(batches):
        if steps.plan is not None:
            for x, y, rows, (into_x,), (into_y,) in zip(xs, ys, idx, steps.inputs, steps.labels):
                x.take(rows, 0, into_x)
                y.take(rows, 0, into_y)
        try:
            steps(lambda s: record(s, idx[s]))
        except NonFiniteError as exc:
            raise DivergenceError(f"{what} of source {names[exc.source]} diverged: {exc}", step=i) from exc
    for chain, mark in zip(nets, steps.marks):
        chain[0].tape.reset(mark)


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
    """The record-or-replay step of one Adam loop over the equally shaped
    parameter lists of S sources, one tape each, with one optimizer: the
    first step records each source's loss past its tape's mark, writes its
    gradients into the source's row of the optimizer's gradient buffer and
    captures it as a plan of one input bound to that row; every later step
    replays the one plan, or all as one (``Lockstep``), at what the loop
    wrote into source s's plan's arrays ``inputs[s]`` and ``labels[s]``, the
    inputs checked as leaves if ``checked``.  ``step`` reads the gradients
    from the buffer.  A ``NonFiniteError`` names the source it arose in by
    its ``source``."""

    def __init__(self, params: list[list[Tensor]], opt, checked: bool = False):
        self.params, self.opt, self.checked = params, opt, checked
        self.flat = [p for ps in params for p in ps]
        self.marks = [ps[0].tape.mark() for ps in params]
        self.plan = self.inputs = self.labels = None

    def __call__(self, record) -> None:
        """``record(s)`` records source s's loss, its input leaf first, at
        the first step; every later step is replayed."""
        if self.plan is not None:
            for s, (x,) in enumerate(self.inputs if self.checked else ()):
                try:
                    _require_finite(x, "leaf")
                except NonFiniteError as exc:
                    exc.source = s
                    raise
            self.plan.replay()
        else:
            recorded = []
            for s, (params, mark) in enumerate(zip(self.params, self.marks)):
                params[0].tape.reset(mark)
                try:
                    loss = record(s)
                    recorded.append((loss, backward(loss, params)))
                except NonFiniteError as exc:
                    exc.source = s
                    raise
            # bound after recording, so that the optimizer's buffers lie above
            # the capture's freed values for the loop's life: bound before, the
            # heap's top was left free, and glibc trimmed and regrew it at every
            # step (72k minor page faults in stage 2 of `quickstart`, not 1.7k)
            row, views = _gradient_row(self.opt, self.flat, len(self.params))
            plans = []
            for s, (params, mark, (loss, grads)) in enumerate(zip(self.params, self.marks, recorded)):
                own = views[s * len(params) : (s + 1) * len(params)]
                plans.append(StepPlan(loss, params, mark, 1, row[s], own))
                for p, view in zip(params, own):
                    view[...] = grads[p.id].value
            if plans[0] is not None:
                self.plan = plans[0] if len(plans) == 1 else Lockstep(plans, row, self.opt._stacked)
                self.inputs, self.labels = zip(*(plan.arrays for plan in plans))
        step(self.opt, self.flat, None)


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
    # the first node recorded is one leaf of the points [interpolates; s; t],
    # which a step plan of the critic step takes as its input
    x = tape.leaf(_penalty_points(s, t, rng))
    x_hat = x if include_endpoints else _rows(x, 0, s.shape[0])
    total = forward(critic, x_hat).sum()
    grad = backward(total, [x_hat], record=True)[x_hat.id]
    row_sq = matmul(grad.square(), tape.leaf(np.ones((x.shape[1], 1))))
    norms = (row_sq + _EPS_NORM).sqrt()
    return (norms - 1.0).square().mean()


def _penalty_points(s: np.ndarray, t: np.ndarray, rng: Xoshiro256, out: np.ndarray | None = None) -> np.ndarray:
    if s.shape != t.shape:
        raise ShapeError(f"paired batches must match: {s.shape} vs {t.shape}")
    if s.ndim != 2 or s.shape[0] < 1:
        raise ConfigError("gradient_penalty needs a non-empty [batch x features] pair")
    eps = rng.uniforms(s.shape[0])[:, None]
    return np.concatenate([eps * s + (1.0 - eps) * t, s, t], axis=0, out=out)


def _critic_objective(critic: Mlp, s: np.ndarray, t: np.ndarray, rng: Xoshiro256, cfg: AdaptConfig) -> Tensor:
    """The critic's loss, with its one input leaf, the penalty's points,
    first: the score gap reads the batches as rows of it."""
    tape, n = critic.tape, s.shape[0]
    points = tape.mark()
    penalty = gradient_penalty(critic, s, t, rng, cfg.include_endpoints)
    x = tape.handle(points)
    return cfg.alpha * penalty - critic_loss(critic, _rows(x, n, 2 * n), _rows(x, 2 * n, 3 * n))


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
    if not np.isfinite(tgt).all():
        raise NonFiniteError("adapt_target: a target row holds a non-finite value")
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
    critic_steps = _Steps([critic.params], adam(cfg.lr_critic, beta1=0.5, beta2=0.9), checked=True)
    encoder_steps = _Steps([target_encoder.params], adam(cfg.lr_encoder, beta1=0.5, beta2=0.9))
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
                if critic_steps.plan is not None:
                    _penalty_points(s, t, rng, critic_steps.inputs[0][0])
                critic_steps(lambda _: _critic_objective(critic, s, t, rng, cfg))
            rows = rng.integers(cfg.batch_size, below=tgt.shape[0])
            if encoder_steps.plan is not None:
                tgt.take(rows, 0, encoder_steps.inputs[0][0])
            encoder_steps(lambda _: encoder_loss(critic, forward(target_encoder, tape.leaf(tgt[rows]))))
        except NonFiniteError as exc:
            raise DivergenceError(f"adaptation diverged: {exc}", step=i) from exc
    tape.reset(critic_steps.marks[0])

    for p, before in zip(bundle.extractor.params, frozen_before):
        if not np.array_equal(p.value, before):
            raise ConfigError("source extractor changed during adaptation")
    # one scoring of every row gives both the distance estimate and tau
    scores = _critic_scores(critic, target_encoder, src_feats, tgt)
    return SourceBundle(
        name=bundle.name,
        extractor=bundle.extractor,
        classifier=bundle.classifier,
        target_encoder=target_encoder,
        critic=critic,
        wd_estimate=estimate_wd(*scores),
        tau=sample_distances(*scores),
    )


def estimate_wd(src_scores: np.ndarray, tgt_scores: np.ndarray) -> float:
    """Converged critic gap over the full source and target sets: the
    mean source score minus the mean target score."""
    with np.errstate(all="ignore"):
        gap = float(src_scores.mean() - tgt_scores.mean())
    if not math.isfinite(gap):
        raise NonFiniteError("critic gap is non-finite")
    return gap


def _critic_scores(critic: Mlp, target_encoder: Mlp, src_feats: np.ndarray,
                   tgt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The frozen critic's score of every source feature row and of every
    target row through the target encoder."""
    src_scores = critic.predict_values(src_feats)[:, 0]
    tgt_scores = critic.predict_values(target_encoder.predict_values(tgt))[:, 0]
    return src_scores, tgt_scores


# ---------------------------------------------------------------------------
# stage 3: source distilling


def sample_distances(src_scores: np.ndarray, tgt_scores: np.ndarray) -> np.ndarray:
    """Each source sample's critic score minus the mean target score,
    in absolute value: the tau that distilling selects by."""
    return np.abs(src_scores - tgt_scores.mean())


def distill_select(tau: np.ndarray, rule: str = "closest", fraction: float = 0.5) -> np.ndarray:
    """The rows, sorted, of the ceil(N * fraction) samples nearest the
    target (rule "closest"; "farthest" inverts).  Ties go to the lower index."""
    tau = np.asarray(tau, dtype=np.float64)
    if tau.size < 2:
        raise ConfigError("distilling needs at least two samples")
    if rule not in ("closest", "farthest"):
        raise ConfigError(f"unknown distill rule {rule!r}")
    if not 0.0 < fraction <= 1.0:
        raise ConfigError("fraction must lie in (0, 1]")
    order = np.argsort(tau if rule == "closest" else -tau, kind="stable")
    return np.sort(order[: math.ceil(tau.size * fraction)])


def distill_finetune(
    bundles: list[SourceBundle],
    sources: list[Dataset],
    rows: list[np.ndarray],
    train: TrainConfig,
    rngs: list[Xoshiro256],
) -> list[SourceBundle]:
    """Fine-tune a copy of each source's classifier on its selected rows
    only, each source from its own stream, all of them in lockstep.

    Features come from the frozen extractor; each returned bundle shares
    every network except the classifier with its input bundle, and holds
    no tau, which only distilling reads.
    """
    if not len(bundles) == len(sources) == len(rows) == len(rngs):
        raise ConfigError("distilling needs one bundle, dataset, row array and stream per source")
    for bundle, src, idx in zip(bundles, sources, rows):
        if bundle.target_encoder is None:
            raise ConfigError("distilling requires a completed adaptation stage")
        if not (idx.ndim == 1 and idx.size and idx.dtype.kind in "iu" and 0 <= idx.min() and idx.max() < src.n
                and np.unique(idx).size == idx.size):
            raise ConfigError(f"source {bundle.name}: the rows to distill must be distinct integers in [0, {src.n})")
    feats = [b.extractor.predict_values(src.x)[idx] for b, src, idx in zip(bundles, sources, rows)]
    classifiers = [clone_mlp(b.classifier, Tape()) for b in bundles]
    _train_supervised([(c,) for c in classifiers], feats, [src.y[idx] for src, idx in zip(sources, rows)],
                      train, rngs, "fine-tuning", [b.name for b in bundles])
    return [replace(b, classifier=c, distilled=True, tau=None) for b, c in zip(bundles, classifiers)]


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
    """Write one parameter file per network, tau.bin where the bundle holds
    tau (an adapted bundle before distilling), and meta.json, stamped with
    ``experiment``, the hash of the experiment that produced the bundle.

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
    """Read a checkpoint's networks, without tau.bin, which only distilling
    reads.  A bundle stamped with any experiment hash other than
    ``experiment`` is stale and rejected, and so is a parameter file that
    does not fit its network's config."""
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
    return SourceBundle(
        name=name,
        extractor=nets["extractor"],
        classifier=nets["classifier"],
        target_encoder=nets.get("target_encoder"),
        critic=nets.get("critic"),
        wd_estimate=wd_estimate,
        distilled=distilled,
    )
