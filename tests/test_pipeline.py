"""Four-stage pipeline: per-source pre-training, adversarial target
adaptation with the input-gradient penalty, per-sample source
distilling, and distance-weighted prediction aggregation."""
from __future__ import annotations

import hashlib
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mdda.pipeline
from mdda.autodiff import Lockstep, StepPlan, Tape, Tensor, backward, softmax_cross_entropy
from mdda.datagen import Dataset, DomainSpec, sample_domain
from mdda.errors import (
    ConfigError,
    DataFormatError,
    DivergenceError,
    NonFiniteError,
    ShapeError,
)
from mdda.experiment import _params_checksum
from mdda.nn import MlpConfig, _gradient_row, adam, clone_mlp, forward, init_mlp, step
from mdda.pipeline import (
    AdaptConfig,
    DomainWeights,
    SourceBundle,
    TrainConfig,
    adapt_target,
    aggregate_predict,
    critic_loss,
    distill_finetune,
    distill_select,
    domain_weight,
    encoder_loss,
    estimate_wd,
    gradient_penalty,
    load_bundle,
    pretrain_source,
    sample_distances,
    save_bundle,
    single_source_probs,
    uniform_weights,
)
from mdda.rng import _FILL_CAP, stream

from helpers import (
    ReferenceAdam,
    assign,
    concat_datasets,
    critic_scores,
    gp_param_grad_worst_error,
    gradient_views,
    identity_net,
    linear_critic,
)

EXTRACTOR = MlpConfig((2, 4, 3), final_activation="tanh")
CLASSIFIER = MlpConfig((3, 2))
FAST_ADAPT = AdaptConfig(steps=4, batch_size=8, n_critic=2, critic_hidden=(6,))


def _toy_data(seed: int, n: int = 40, label: str = "") -> Dataset:
    spec = DomainSpec(name="toy", n_classes=2, d=2,
                      base_means=((0.0, 0.0), (3.0, 0.0)), cov_scale=0.3)
    return sample_domain(spec, n, stream(seed, "toy", label))


def _toy_bundle(steps: int = 30):
    src = _toy_data(1)
    (bundle,) = pretrain_source([src], EXTRACTOR, CLASSIFIER,
                                TrainConfig(steps, 16, 2e-3), [stream(2, "pre")])
    return src, bundle


def _constant_bundle(p0: float, name: str = "const") -> SourceBundle:
    """A stage-2 bundle predicting class probabilities [p0, 1-p0] for
    every input: zeroed encoders make the features constant and the
    classifier bias carries the log-probabilities."""
    extractor = init_mlp(MlpConfig((2, 3)), stream(0, "ext"))
    for p in extractor.params:
        assign(p, np.zeros_like(p.value))
    encoder = clone_mlp(extractor)
    classifier = init_mlp(MlpConfig((3, 2)), stream(0, "clf"))
    assign(classifier.params[0], np.zeros((2, 3)))
    assign(classifier.params[1], np.log(np.array([p0, 1.0 - p0])))
    critic = init_mlp(MlpConfig((3, 1)), stream(0, "critic"))
    return SourceBundle(name=name, extractor=extractor, classifier=classifier,
                        target_encoder=encoder, critic=critic, wd_estimate=0.5)


def _identity_bundle() -> SourceBundle:
    return SourceBundle(name="id", extractor=identity_net(1),
                        classifier=init_mlp(MlpConfig((1, 2)), stream(0, "clf")),
                        target_encoder=identity_net(1), critic=identity_net(1),
                        wd_estimate=0.0)


# ---------------------------------------------------------------------------
# configuration validation


def test_train_config_validation():
    with pytest.raises(ConfigError, match="steps"):
        TrainConfig(steps=-1)
    with pytest.raises(ConfigError, match="batch_size"):
        TrainConfig(batch_size=0)
    with pytest.raises(ConfigError, match="learning_rate"):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ConfigError, match="learning_rate"):
        TrainConfig(learning_rate=math.nan)


def test_adapt_config_validation():
    with pytest.raises(ConfigError, match="alpha"):
        AdaptConfig(alpha=0.0)
    with pytest.raises(ConfigError, match="alpha"):
        AdaptConfig(alpha=math.nan)
    with pytest.raises(ConfigError, match="n_critic"):
        AdaptConfig(n_critic=0)
    with pytest.raises(ConfigError, match="steps"):
        AdaptConfig(steps=-1)
    with pytest.raises(ConfigError, match="critic_slope"):
        AdaptConfig(critic_slope=1.5)
    with pytest.raises(ConfigError, match="learning rates"):
        AdaptConfig(lr_encoder=0.0)
    with pytest.raises(ConfigError, match="learning rates"):
        AdaptConfig(lr_critic=math.nan)


def test_domain_weights_validation():
    with pytest.raises(ConfigError, match=r"\[0, 1\]"):
        DomainWeights(raw=np.array([1.5, 0.5]), normalized=np.array([0.75, 0.25]))
    with pytest.raises(ConfigError, match=r"\[0, 1\]"):
        DomainWeights(raw=np.array([np.nan, 0.5]), normalized=np.array([0.5, 0.5]))
    with pytest.raises(ConfigError, match="sum"):
        DomainWeights(raw=np.array([0.5, 0.4]), normalized=np.array([0.5, 0.4]))
    with pytest.raises(ConfigError, match="argmax"):
        DomainWeights(raw=np.array([0.2, 0.8]), normalized=np.array([0.8, 0.2]))


def test_source_bundle_validation():
    with pytest.raises(ConfigError, match="width"):
        SourceBundle(name="w", extractor=identity_net(2),
                     classifier=init_mlp(MlpConfig((3, 2)), stream(0, "c")))
    with pytest.raises(ConfigError, match="together"):
        SourceBundle(name="p", extractor=identity_net(1),
                     classifier=init_mlp(MlpConfig((1, 2)), stream(0, "c")),
                     target_encoder=identity_net(1))
    with pytest.raises(ConfigError, match="distilled"):
        SourceBundle(name="d", extractor=identity_net(1),
                     classifier=init_mlp(MlpConfig((1, 2)), stream(0, "c")),
                     distilled=True)
    with pytest.raises(ConfigError, match="tau"):
        SourceBundle(name="t", extractor=identity_net(1),
                     classifier=init_mlp(MlpConfig((1, 2)), stream(0, "c")),
                     tau=np.ones(3))


# ---------------------------------------------------------------------------
# stage 1: pre-training


def test_pretrain_reaches_high_accuracy_on_separated_classes():
    spec = DomainSpec(name="easy", n_classes=2, d=2,
                      base_means=((0.0, 0.0), (3.0, 0.0)), cov_scale=0.3)
    train = sample_domain(spec, 400, stream(1, "train"))
    (bundle,) = pretrain_source([train], MlpConfig((2, 8, 4), final_activation="tanh"),
                                MlpConfig((4, 2)), TrainConfig(600, 64, 2e-3), [stream(1, "pre")])
    assert bundle.stage == 1
    assert bundle.target_encoder is None and bundle.critic is None
    assert bundle.wd_estimate is None and not bundle.distilled
    holdout = sample_domain(spec, 1000, stream(1, "holdout"))
    logits = bundle.classifier.predict_values(bundle.extractor.predict_values(holdout.x))
    accuracy = float(np.mean(np.argmax(logits, axis=1) == holdout.y))
    assert accuracy >= 0.99


def test_pretrain_zero_steps_predicts_near_uniform():
    spec = DomainSpec(name="blob", n_classes=3, d=2,
                      base_means=((0.0, 0.0), (1e-4, 0.0), (0.0, 1e-4)), cov_scale=1e-5)
    data = sample_domain(spec, 200, stream(3, "blob"))
    (bundle,) = pretrain_source([data], EXTRACTOR, MlpConfig((3, 3)),
                                TrainConfig(steps=0), [stream(3, "pre")])
    logits = bundle.classifier.predict_values(bundle.extractor.predict_values(data.x))
    shifted = logits - logits.max(axis=1, keepdims=True)
    probs = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
    cross_entropy = float(-np.mean(np.log(probs[np.arange(data.n), data.y])))
    assert abs(cross_entropy - math.log(3.0)) <= 0.01


def test_pretrain_is_deterministic():
    src = _toy_data(5)
    (a,) = pretrain_source([src], EXTRACTOR, CLASSIFIER, TrainConfig(20, 8, 1e-3), [stream(6, "pre")])
    (b,) = pretrain_source([src], EXTRACTOR, CLASSIFIER, TrainConfig(20, 8, 1e-3), [stream(6, "pre")])
    for pa, pb in zip(a.extractor.params + a.classifier.params,
                      b.extractor.params + b.classifier.params):
        assert np.array_equal(pa.value, pb.value)


def test_pretrain_divergence_reports_the_step():
    huge = Dataset(x=np.full((8, 2), 1e308), y=np.zeros(8, dtype=np.int64), domain_name="huge")
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError, match="at step 0") as excinfo:
            pretrain_source([huge], EXTRACTOR, CLASSIFIER, TrainConfig(5, 4, 1e-3), [stream(7, "pre")])
    assert excinfo.value.step == 0


def _first_new_row(batches) -> tuple[int, int]:
    """(row, step) of the first row that enters a batch after step 0."""
    return next((int(r), i) for i in range(1, len(batches)) for r in batches[i]
                if not any(r in b for b in batches[:i]))


def _divergence(run, monkeypatch) -> tuple[DivergenceError, DivergenceError]:
    """The DivergenceError of ``run()`` with its steps replayed, and with
    every step recorded afresh (no step plan is ever captured)."""
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError) as replayed:
            run()
        with monkeypatch.context() as patch:
            patch.setattr(mdda.pipeline, "StepPlan", lambda *args: None)
            with pytest.raises(DivergenceError) as recorded:
                run()
    return replayed.value, recorded.value


def test_pretrain_divergence_at_a_replayed_step(monkeypatch):
    src = _toy_data(5)
    train = TrainConfig(20, 4, 1e-3)
    # the stream's draws as pretrain_source makes them: initial weights, then
    # one batch per step
    rng = stream(7, "pre")
    init_mlp(EXTRACTOR, rng)
    init_mlp(CLASSIFIER, rng)
    row, k = _first_new_row([rng.integers(train.batch_size, below=src.n) for _ in range(train.steps)])
    x = src.x.copy()
    x[row] = 1e308
    huge = Dataset(x=x, y=src.y, domain_name="huge")
    replayed, recorded = _divergence(
        lambda: pretrain_source([huge], EXTRACTOR, CLASSIFIER, train, [stream(7, "pre")]), monkeypatch)
    assert replayed.step == recorded.step == k > 0
    assert str(replayed) == str(recorded)
    # the same rows as source 1 of two, beside a source that trains cleanly
    clean = _toy_data(6, label="clean")
    alone = str(replayed)
    rngs = lambda: [stream(7, "pre", "clean"), stream(7, "pre")]  # noqa: E731
    replayed, recorded = _divergence(
        lambda: pretrain_source([clean, huge], EXTRACTOR, CLASSIFIER, train, rngs()), monkeypatch)
    assert replayed.step == recorded.step == k
    assert str(replayed) == str(recorded) == alone
    assert alone.startswith("pre-training of source huge diverged: ")


def test_adaptation_divergence_at_a_replayed_step(monkeypatch):
    # an identity extractor passes a huge source row on to the critic
    src, tgt = _toy_data(1), _toy_data(2, n=30).x
    cfg = AdaptConfig(steps=8, batch_size=4, n_critic=2, critic_hidden=(6,))
    # the stream's draws as adapt_target makes them: the critic's weights,
    # then per step the critic steps' source and target batches and penalty
    # interpolation weights, and the encoder step's target batch
    rng = stream(9, "adapt")
    init_mlp(MlpConfig((2, 6, 1), activation="leaky_relu", leaky_slope=cfg.critic_slope), rng)
    batches = []
    for _ in range(cfg.steps):
        rows = []
        for _ in range(cfg.n_critic):
            rows.extend(rng.integers(cfg.batch_size, below=src.n))
            rng.integers(cfg.batch_size, below=tgt.shape[0])
            rng.uniforms(cfg.batch_size)
        rng.integers(cfg.batch_size, below=tgt.shape[0])
        batches.append(rows)
    row, k = _first_new_row(batches)
    x = src.x.copy()
    x[row] = 1e308
    huge = Dataset(x=x, y=src.y, domain_name="huge")
    bundle = SourceBundle(name="id", extractor=identity_net(2),
                          classifier=init_mlp(MlpConfig((2, 2)), stream(0, "clf")))
    replayed, recorded = _divergence(
        lambda: adapt_target(bundle, huge, tgt, cfg, stream(9, "adapt")), monkeypatch)
    assert replayed.step == recorded.step == k > 0
    assert str(replayed) == str(recorded)


def test_finetune_divergence_in_the_backward_of_a_replayed_step(monkeypatch):
    # logits [h, -h] of a row h = 1e308 labelled 0: the forward is finite
    # (the row's cross-entropy is 0), but the recorded softmax backward
    # subtracts the row maxima, and -h - h overflows
    n, train = 12, TrainConfig(20, 4, 1e-3)
    rng = stream(8, "fine")
    row, k = _first_new_row([rng.integers(train.batch_size, below=n) for _ in range(train.steps)])
    x = stream(9, "x").normals(n).reshape(n, 1)
    x[row] = 1e308
    y = np.arange(n) % 2
    y[row] = 0
    classifier = init_mlp(MlpConfig((1, 2)), stream(0, "clf"))
    assign(classifier.params[0], np.array([[1.0], [-1.0]]))
    bundle = SourceBundle(name="id", extractor=identity_net(1), classifier=classifier,
                          target_encoder=identity_net(1), critic=identity_net(1), wd_estimate=0.0)
    replayed, recorded = _divergence(
        lambda: distill_finetune([bundle], [Dataset(x, y, "huge")], [np.arange(n)], train, [stream(8, "fine")]),
        monkeypatch)
    assert replayed.step == recorded.step == k > 0
    assert str(replayed) == str(recorded)
    assert "sub produced a non-finite value" in str(replayed)


def _huge_row_source(name: str, after: int, train: TrainConfig):
    """A fine-tuning source built as in the test above, whose first row to
    enter a batch after step ``after`` is huge: its bundle, data, rows
    and the step at which that row enters."""
    n = 40
    rng = stream(8, "fine", name)
    batches = [rng.integers(train.batch_size, below=n) for _ in range(train.steps)]
    seen = {int(r) for b in batches[: after + 1] for r in b}
    row, k = next((int(r), i) for i in range(after + 1, train.steps) for r in batches[i] if int(r) not in seen)
    x = stream(9, "x", name).normals(n).reshape(n, 1)
    x[row] = 1e308
    y = np.arange(n) % 2
    y[row] = 0
    classifier = init_mlp(MlpConfig((1, 2)), stream(0, "clf"))
    assign(classifier.params[0], np.array([[1.0], [-1.0]]))
    bundle = SourceBundle(name=name, extractor=identity_net(1), classifier=classifier,
                          target_encoder=identity_net(1), critic=identity_net(1), wd_estimate=0.0)
    return bundle, Dataset(x, y, name), np.arange(n), k


def test_finetune_divergence_names_the_source_that_diverges_first(monkeypatch):
    # source "late", first in order, meets its huge row after source "early"
    # does: in lockstep the earlier step is reported, named and worded as
    # when "early" trains alone, replayed and recorded alike
    train = TrainConfig(20, 4, 1e-3)
    early = _huge_row_source("early", 0, train)
    late = _huge_row_source("late", early[3], train)
    assert 0 < early[3] < late[3]

    def run(*sources):
        return lambda: distill_finetune([s[0] for s in sources], [s[1] for s in sources], [s[2] for s in sources],
                                        train, [stream(8, "fine", s[1].domain_name) for s in sources])

    replayed, recorded = _divergence(run(late, early), monkeypatch)
    assert replayed.step == recorded.step == early[3]
    assert str(replayed) == str(recorded) == str(_divergence(run(early), monkeypatch)[0])
    assert str(replayed).startswith("fine-tuning of source early diverged: sub produced a non-finite value")
    assert _divergence(run(late), monkeypatch)[0].step == late[3]
    # when several sources fail in one step, the first in source order is named
    twin = (replace(early[0], name="twin"), *early[1:])
    replayed, recorded = _divergence(run(twin, early), monkeypatch)
    assert str(replayed) == str(recorded) == str(_divergence(run(early), monkeypatch)[0]).replace("early", "twin", 1)


@pytest.mark.parametrize("kind", ["critic", "supervised"])
def test_a_replay_keeps_only_the_loss_the_gradients_and_constant_leaves(kind):
    tape = Tape()
    net = init_mlp(MlpConfig((2, 6, 6, 1 if kind == "critic" else 3), activation="leaky_relu"),
                   stream(15, kind), tape)
    mark = tape.mark()
    s, t = (stream(16, kind, str(i)).uniforms(8, -1.5, 1.5).reshape(4, 2) for i in range(2))
    if kind == "critic":
        loss = mdda.pipeline._critic_objective(net, s, t, stream(17, "eps"), AdaptConfig())
        inputs, labels = [np.vstack([t, s, s])], []
    else:
        loss = softmax_cross_entropy(forward(net, tape.leaf(s)), [0, 1, 2, 1])
        inputs, labels = [t], [[2, 2, 0, 1]]
    row = np.full(sum(p.value.size for p in net.params), np.nan)
    views = gradient_views(row, net.params)
    plan = StepPlan(loss, net.params, mark, len(inputs), row, views)
    past_inputs = plan.nodes[mark + len(inputs) :]
    captured = [node for node in past_inputs if node.op != "leaf" and node.value is not None]
    plan.run(inputs, labels)
    assert plan.nodes[loss.id].value.shape == () and np.isfinite(row).all()
    assert all(node.value is not None for node in past_inputs if node.op == "leaf")
    alive = [node for node in past_inputs if node.op != "leaf" and node.value is not None]
    # the capture dropped the gradients' values, which a replay writes only into the row
    assert alive == captured == [plan.nodes[loss.id]]
    # the recorded backward made the gradients nodes of the plan, apart from
    # a constant one: the last bias does not move the penalty
    written = [view for views in plan.into.values() for view in views]
    detached = [p for p, view in zip(net.params, views) if not any(view is w for w in written)]
    assert detached == ([net.params[-1]] if kind == "critic" else [])


@settings(max_examples=60, deadline=None, database=None)
@given(data=st.data(), seed=st.integers(0, 999))
def test_minibatches_drawn_by_the_block_are_the_per_step_draws(data, seed):
    batch = data.draw(st.one_of(st.integers(1, 80), st.integers(1, _FILL_CAP + 600)), label="batch")
    steps = data.draw(st.integers(0, min(600, 300_000 // batch)), label="steps")
    # row counts from a few to 2**63, where up to a third of the raw outputs are rejected
    n = data.draw(st.one_of(st.integers(1, 100), st.integers(1, 1 << 63)), label="n")
    blocked, per_step = stream(seed, "rows"), stream(seed, "rows")
    rows = list(mdda.pipeline._minibatches(blocked, steps, batch, n))
    assert len(rows) == steps
    for idx in rows:
        assert np.array_equal(idx, per_step.integers(batch, below=n))
    # fill sizes differ, so the buffers split the stream elsewhere: the
    # unconsumed outputs followed by the generator's next ones are the same
    ahead = max(g._buf.size - g._pos for g in (blocked, per_step)) + 2 * _FILL_CAP
    assert np.array_equal(blocked._draw(ahead), per_step._draw(ahead))


def test_pretrain_width_mismatches():
    src = _toy_data(8)
    with pytest.raises(ConfigError, match="extractor expects"):
        pretrain_source([src], MlpConfig((3, 4, 3), final_activation="tanh"), CLASSIFIER,
                        TrainConfig(1), [stream(8, "pre")])
    with pytest.raises(ConfigError, match="classifier input"):
        pretrain_source([src], EXTRACTOR, MlpConfig((4, 2)), TrainConfig(1), [stream(8, "pre")])
    with pytest.raises(ConfigError, match="label"):
        pretrain_source([src], EXTRACTOR, MlpConfig((3, 1)), TrainConfig(1), [stream(8, "pre")])


# ---------------------------------------------------------------------------
# stage 2: adversarial losses


def test_critic_loss_identical_batches_is_zero():
    critic = init_mlp(MlpConfig((3, 5, 1), activation="leaky_relu"), stream(1, "critic"))
    batch = Tensor.of(stream(2, "batch").uniforms(12, -1.0, 1.0).reshape((4, 3)))
    assert critic_loss(critic, batch, batch).item() == 0.0


def test_critic_loss_identity_example():
    critic = identity_net(1)
    value = critic_loss(critic, Tensor.of(np.array([[1.0], [1.0]])),
                        Tensor.of(np.array([[0.0], [0.0]]))).item()
    assert value == 1.0


def test_critic_loss_matches_manual_means():
    critic = init_mlp(MlpConfig((2, 6, 1), activation="leaky_relu"), stream(3, "critic"))
    s = stream(4, "s").uniforms(10, -2.0, 2.0).reshape((5, 2))
    t = stream(5, "t").uniforms(8, -2.0, 2.0).reshape((4, 2))
    got = critic_loss(critic, Tensor.of(s), Tensor.of(t)).item()
    want = critic.predict_values(s).mean() - critic.predict_values(t).mean()
    assert abs(got - want) <= 1e-12


def test_critic_loss_bad_batches():
    critic = init_mlp(MlpConfig((2, 1)), stream(6, "critic"))
    with pytest.raises(ShapeError, match="widths"):
        critic_loss(critic, Tensor.of(np.zeros((3, 2))), Tensor.of(np.zeros((3, 3))))
    with pytest.raises(ConfigError, match="non-empty"):
        critic_loss(critic, Tensor.of(np.zeros((0, 2))), Tensor.of(np.zeros((3, 2))))


def test_encoder_loss_values():
    assert encoder_loss(identity_net(1), Tensor.of(np.array([[2.0], [4.0]]))).item() == -3.0
    zero = linear_critic([0.0, 0.0], 0.0)
    assert encoder_loss(zero, Tensor.of(np.ones((3, 2)))).item() == 0.0
    critic = init_mlp(MlpConfig((2, 5, 1), activation="leaky_relu"), stream(7, "critic"))
    t = stream(8, "t").uniforms(8, -1.0, 1.0).reshape((4, 2))
    want = -critic.predict_values(t).mean()
    assert abs(encoder_loss(critic, Tensor.of(t)).item() - want) <= 1e-12
    with pytest.raises(ConfigError, match="non-empty"):
        encoder_loss(critic, Tensor.of(np.zeros((0, 2))))


# ---------------------------------------------------------------------------
# stage 2: gradient penalty


def test_gradient_penalty_unit_norm_critic():
    critic = linear_critic([0.6, 0.8])
    s = stream(1, "s").uniforms(8, -1.0, 1.0).reshape((4, 2))
    t = stream(2, "t").uniforms(8, -1.0, 1.0).reshape((4, 2))
    assert gradient_penalty(critic, s, t, stream(3, "eps")).item() < 1e-10


def test_gradient_penalty_norm_three_critic():
    critic = linear_critic([0.0, 3.0])
    s = stream(4, "s").uniforms(8, -1.0, 1.0).reshape((4, 2))
    t = stream(5, "t").uniforms(8, -1.0, 1.0).reshape((4, 2))
    assert abs(gradient_penalty(critic, s, t, stream(6, "eps")).item() - 4.0) <= 1e-10


def test_gradient_penalty_zero_gradient_guard():
    critic = linear_critic([0.0, 0.0], 0.0)
    s = stream(7, "s").uniforms(6, -1.0, 1.0).reshape((3, 2))
    t = stream(8, "t").uniforms(6, -1.0, 1.0).reshape((3, 2))
    penalty = gradient_penalty(critic, s, t, stream(9, "eps"))
    guard_value = (math.sqrt(1e-12) - 1.0) ** 2
    assert abs(penalty.item() - guard_value) <= 1e-9
    grads = backward(penalty, critic.params)
    for p in critic.params:
        assert np.all(np.isfinite(grads[p.id].value))


def test_gradient_penalty_parameter_gradients_match_finite_differences():
    assert gp_param_grad_worst_error() <= 1e-4


def test_gradient_penalty_endpoint_flag_changes_the_value():
    critic = init_mlp(MlpConfig((2, 5, 1), activation="leaky_relu"), stream(10, "critic"))
    s = stream(11, "s").uniforms(8, -1.5, 1.5).reshape((4, 2))
    t = stream(12, "t").uniforms(8, -1.5, 1.5).reshape((4, 2))
    with_ends = gradient_penalty(critic, s, t, stream(13, "eps"), include_endpoints=True).item()
    without = gradient_penalty(critic, s, t, stream(13, "eps"), include_endpoints=False).item()
    assert with_ends != without


@pytest.mark.parametrize("widths, batch, value, digest", [
    ((8, 64, 64, 1), 64, "f457af8f9205eb3f", "8658f655bdebbd3acbcec82f3f96217f834f2f9f24b5d256fbd927e170bcba83"),
    ((2, 32, 1), 3, "7dfdef868769f73f", "c696f634e05c7b6dc81e3f58211df934e4f0bacbce567f3b534ac46b74788b70"),
])
def test_gradient_penalty_without_endpoints_keeps_its_bytes(widths, batch, value, digest):
    # taken over the first rows of the points' leaf, the value and the
    # parameter gradients have the bytes of the penalty over a leaf of the
    # interpolates alone
    tape = Tape()
    critic = init_mlp(MlpConfig(widths, activation="leaky_relu", leaky_slope=0.2), stream(46, "critic"), tape)
    s, t = (stream(47, side).uniforms(batch * widths[0], -2.0, 2.0).reshape(batch, widths[0]) for side in ("s", "t"))
    penalty = gradient_penalty(critic, s, t, stream(48, "eps"), include_endpoints=False)
    grads = backward(penalty, critic.params)
    assert penalty.value.tobytes().hex() == value
    assert hashlib.sha256(b"".join(grads[p.id].value.tobytes() for p in critic.params)).hexdigest() == digest


def test_gradient_penalty_batch_mismatch():
    critic = init_mlp(MlpConfig((2, 1)), stream(14, "critic"))
    with pytest.raises(ShapeError, match="paired"):
        gradient_penalty(critic, np.zeros((4, 2)), np.zeros((3, 2)), stream(15, "eps"))


# ---------------------------------------------------------------------------
# stage 2: adaptation driver


def test_adapt_zero_steps_starts_from_the_extractor_clone():
    src, bundle = _toy_bundle(steps=10)
    tgt = _toy_data(2, n=20, label="t")
    adapted = adapt_target(bundle, src, tgt.x, AdaptConfig(steps=0, critic_hidden=(6,)),
                           stream(3, "adapt"))
    assert adapted.stage == 2
    assert adapted.extractor is bundle.extractor
    assert adapted.classifier is bundle.classifier
    for enc, ext in zip(adapted.target_encoder.params, bundle.extractor.params):
        assert np.array_equal(enc.value, ext.value)
    assert isinstance(adapted.wd_estimate, float)


def test_adapt_freezes_extractor_and_records_the_critic_gap():
    src, bundle = _toy_bundle(steps=10)
    frozen = [p.value.copy() for p in bundle.extractor.params]
    tgt = _toy_data(4, n=20, label="t")
    adapted = adapt_target(bundle, src, tgt.x, FAST_ADAPT, stream(5, "adapt"))
    for p, before in zip(bundle.extractor.params, frozen):
        assert np.array_equal(p.value, before)
    assert abs(adapted.wd_estimate - estimate_wd(*critic_scores(adapted, src, tgt.x))) <= 1e-12
    assert adapted.tau.tobytes() == sample_distances(*critic_scores(adapted, src, tgt.x)).tobytes()
    probs = single_source_probs(adapted, tgt.x)
    manual = adapted.classifier.predict_values(
        adapted.target_encoder.predict_values(tgt.x))
    manual = np.exp(manual - manual.max(axis=1, keepdims=True))
    manual /= manual.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(probs, manual, atol=1e-12)


def test_adapt_is_deterministic():
    src, bundle = _toy_bundle(steps=10)
    tgt = _toy_data(6, n=20, label="t")
    a = adapt_target(bundle, src, tgt.x, FAST_ADAPT, stream(7, "adapt"))
    b = adapt_target(bundle, src, tgt.x, FAST_ADAPT, stream(7, "adapt"))
    for pa, pb in zip(a.target_encoder.params, b.target_encoder.params):
        assert np.array_equal(pa.value, pb.value)
    assert a.wd_estimate == b.wd_estimate


def _reference_step():
    """``nn.step`` as the allocating reference Adam writing each parameter
    through ``helpers.assign``, one reference per optimizer, from the
    gradients a recorded step wrote into the optimizer's gradient row."""
    opts = []

    def run(opt, params, grads):
        assert grads is None
        ref = next((r for o, r in opts if o is opt), None)
        if ref is None:
            ref = ReferenceAdam(opt.learning_rate, opt.beta1, opt.beta2, opt.eps)
            opts.append((opt, ref))
        ref.learning_rate = opt.learning_rate
        for p, value in zip(params, ref.step([p.value for p in params], _gradient_row(opt, params)[1])):
            assign(p, value)

    return run


def _trained():
    src, bundle = _toy_bundle(steps=10)
    adapted = adapt_target(bundle, src, _toy_data(4, n=20, label="t").x, FAST_ADAPT, stream(4, "adapt"))
    return bundle, adapted


def test_trained_parameters_are_views_of_their_optimizers_buffer():
    bundle, adapted = _trained()
    for params in ([*bundle.extractor.params, *bundle.classifier.params],
                   adapted.target_encoder.params, adapted.critic.params):
        buffer = params[0].value.base
        assert buffer.ndim == 1 and buffer.size == sum(p.value.size for p in params)
        offset = 0
        for p in params:
            assert p.value.base is buffer and p.tape.nodes[p.id].value is p.value
            assert p.value.ctypes.data == buffer[offset:].ctypes.data
            offset += p.value.size


def test_in_place_training_gives_the_reference_parameters_and_checksum(monkeypatch):
    bundle, adapted = _trained()
    # the reference records every step afresh and shares no replay code
    monkeypatch.setattr(mdda.pipeline, "StepPlan", lambda *args: None)
    monkeypatch.setattr(mdda.pipeline, "step", _reference_step())
    ref_bundle, ref_adapted = _trained()
    for net in ("extractor", "classifier", "target_encoder", "critic"):
        for p, q in zip(getattr(adapted, net).params, getattr(ref_adapted, net).params):
            assert p.value.tobytes() == q.value.tobytes()
    assert _params_checksum([bundle, adapted]) == _params_checksum([ref_bundle, ref_adapted])


# ---------------------------------------------------------------------------
# stages 1 and 3: every source of a seed in lockstep


def _supervised_sources(kind: str, count: int, seed: int, extractor: MlpConfig, classifier: MlpConfig):
    """``count`` sources of different sizes, as ``pretrain_source`` takes
    them, or as bundles, datasets and selected rows for ``distill_finetune``."""
    sources = []
    for s in range(count):
        n = 9 + 7 * s
        x = stream(seed, "x", str(s)).uniforms(n * extractor.d_in, -2.0, 2.0).reshape(n, extractor.d_in)
        sources.append(Dataset(x, stream(seed, "y", str(s)).integers(n, below=classifier.d_out), f"src{s}"))
    if kind == "pretrain":
        return (sources,)
    bundles = []
    for src in sources:
        extractor_net = init_mlp(extractor, stream(seed, "extractor", src.domain_name))
        bundles.append(SourceBundle(name=src.domain_name, extractor=extractor_net,
                                    classifier=init_mlp(classifier, stream(seed, "clf", src.domain_name)),
                                    target_encoder=extractor_net, critic=identity_net(1), wd_estimate=0.0))
    rows = [distill_select(stream(seed, "tau", src.domain_name).uniforms(src.n)) for src in sources]
    return bundles, sources, rows


def _supervised_run(kind: str, sources: tuple, extractor: MlpConfig, classifier: MlpConfig, train: TrainConfig,
                    seed: int, patch: pytest.MonkeyPatch):
    """One call of ``pretrain_source`` or ``distill_finetune`` over the
    sources, each from its own stream: its bundles, the streams after it,
    each source's loss per step, and how many steps replayed a source on
    its own."""
    names = [src.domain_name for src in sources[-2 if kind == "finetune" else 0]]
    rngs = [stream(seed, kind, name) for name in names]
    losses, alone = [[] for _ in names], []
    # a recorded loss is a tensor; a replay writes each plan's loss
    cross_entropy, replay, replay_alone = mdda.pipeline.softmax_cross_entropy, Lockstep.replay, StepPlan.replay

    def recorded(logits, labels):
        loss = cross_entropy(logits, labels)
        losses[sum(map(len, losses)) % len(names)].append(loss.value.tobytes())
        return loss

    def replayed(self):
        replay(self)
        for s, plan in enumerate(self.plans):
            losses[s].append(plan.nodes[plan.out].value.tobytes())

    def replayed_alone(self):
        alone.append(1)
        replay_alone(self)
        if len(names) == 1:  # the loop replays its one plan itself
            losses[0].append(self.nodes[self.out].value.tobytes())

    patch.setattr(mdda.pipeline, "softmax_cross_entropy", recorded)
    patch.setattr(Lockstep, "replay", replayed)
    patch.setattr(StepPlan, "replay", replayed_alone)
    if kind == "pretrain":
        bundles = pretrain_source(sources[0], extractor, classifier, train, rngs)
    else:
        bundles = distill_finetune(*sources, train, rngs)
    return bundles, rngs, losses, len(alone)


def _lockstep_equals_alone(kind: str, count: int, seed: int, extractor: MlpConfig, classifier: MlpConfig,
                           train: TrainConfig):
    sources = _supervised_sources(kind, count, seed, extractor, classifier)
    with pytest.MonkeyPatch.context() as patch:
        bundles, rngs, losses, alone = _supervised_run(kind, sources, extractor, classifier, train, seed, patch)
    # more than one source replays every step after the first as one program
    assert alone == (0 if count > 1 else max(train.steps - 1, 0))
    for s in range(count):
        # each source alone, every step recorded and stepped by the reference Adam
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mdda.pipeline, "StepPlan", lambda *args: None)
            patch.setattr(mdda.pipeline, "step", _reference_step())
            one = tuple(part[s : s + 1] for part in sources)
            (ref,), (ref_rng,), ref_losses, _ = _supervised_run(kind, one, extractor, classifier, train, seed, patch)
        assert losses[s] == ref_losses[0] and len(ref_losses[0]) == train.steps
        for net in ("extractor", "classifier"):
            for p, q in zip(getattr(bundles[s], net).params, getattr(ref, net).params):
                assert p.value.tobytes() == q.value.tobytes()
        assert np.array_equal(rngs[s]._draw(2 * _FILL_CAP), ref_rng._draw(2 * _FILL_CAP))


@pytest.mark.parametrize("count", [1, 2, 3])
@pytest.mark.parametrize("kind", ["pretrain", "finetune"])
def test_lockstep_training_equals_each_source_trained_alone(kind, count):
    _lockstep_equals_alone(kind, count, 29, MlpConfig((2, 8, 8, 4), final_activation="tanh"), MlpConfig((4, 3)),
                           TrainConfig(12, 16, 5e-3))


_HIDDEN = st.sampled_from(["relu", "leaky_relu", "tanh"])


@settings(max_examples=40, deadline=None, database=None)
@given(kind=st.sampled_from(["pretrain", "finetune"]), count=st.integers(1, 3), seed=st.integers(0, 999),
       widths=st.lists(st.integers(1, 6), min_size=1, max_size=3), activation=_HIDDEN,
       final=st.sampled_from(["none", "tanh"]), n_classes=st.integers(2, 4), batch=st.integers(1, 40),
       steps=st.integers(0, 5))
# a one-element hidden row, which the backward of tanh takes as a float
@example(kind="pretrain", count=2, seed=5, widths=[1], activation="relu", final="tanh", n_classes=3, batch=1,
         steps=3)
def test_lockstep_training_of_any_small_net_equals_each_source_alone(kind, count, seed, widths, activation, final,
                                                                        n_classes, batch, steps):
    extractor = MlpConfig((3, *widths), activation=activation, final_activation=final)
    classifier = MlpConfig((widths[-1], n_classes), activation=activation)
    _lockstep_equals_alone(kind, count, seed, extractor, classifier, TrainConfig(steps, batch, 1e-2))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("faulty", [(1,), (0, 2), (2,)])
def test_a_non_finite_row_in_lockstep_leaves_every_sources_optimizer_as_it_was(bad, faulty):
    tapes = [Tape() for _ in range(3)]
    nets = [(init_mlp(EXTRACTOR, stream(30, str(s)), tape), init_mlp(CLASSIFIER, stream(31, str(s)), tape))
            for s, tape in enumerate(tapes)]
    opt = adam(1e-2)
    steps = mdda.pipeline._Steps([[p for net in chain for p in net.params] for chain in nets], opt, checked=True)
    xs = [stream(32, str(s)).uniforms(16, -2.0, 2.0).reshape(8, 2) for s in range(3)]
    ys = [stream(33, str(s)).integers(8, below=2) for s in range(3)]

    def call(x):
        def record(s):
            h = tapes[s].leaf(x[s])
            for net in nets[s]:
                h = forward(net, h)
            return softmax_cross_entropy(h, ys[s])

        # a replayed step's inputs, computed by the loop, go into its arrays
        for s, (into,) in enumerate(steps.inputs or ()):
            into[...] = x[s]
        steps(record)

    for _ in range(3):
        call(xs)
    state = opt._values.tobytes(), opt._rows[1].tobytes(), opt._rows[2].tobytes(), opt.step_count
    poisoned = [x.copy() for x in xs]
    for s in faulty:
        poisoned[s][s + 1, s % 2] = bad
    with pytest.raises(NonFiniteError, match="leaf produced a non-finite value") as raised:
        call(poisoned)
    assert raised.value.source == faulty[0]
    assert (opt._values.tobytes(), opt._rows[1].tobytes(), opt._rows[2].tobytes(), opt.step_count) == state
    # and the loop goes on from the state it kept
    call(xs)
    assert opt.step_count == state[3] + 1


def _gathered_or_checked(count: int, gathered: bool) -> tuple[list, list, list]:
    """Six steps of ``count`` sources' pre-training loop with one ``_Steps``:
    after the first, each step either gathers its rows into the arrays its
    replay reads or passes fancy-indexed copies to the checked ``run``.
    Per step, each plan's loss, the gradient row, the parameters and Adam's
    moments as bytes; each replayed step's input and label arrays; and the
    plans."""
    tapes = [Tape() for _ in range(count)]
    nets = [(init_mlp(EXTRACTOR, stream(50, str(s)), tape), init_mlp(CLASSIFIER, stream(51, str(s)), tape))
            for s, tape in enumerate(tapes)]
    opt = adam(1e-2)
    steps = mdda.pipeline._Steps([[p for net in chain for p in net.params] for chain in nets], opt)
    xs = [stream(52, str(s)).uniforms(40, -2.0, 2.0).reshape(20, 2) for s in range(count)]
    ys = [stream(53, str(s)).integers(20, below=2) for s in range(count)]
    states, arrays = [], []
    for i in range(6):
        idx = [stream(54, str(s), str(i)).integers(8, below=20) for s in range(count)]

        def record(s):
            h = tapes[s].leaf(xs[s][idx[s]])
            for net in nets[s]:
                h = forward(net, h)
            return softmax_cross_entropy(h, ys[s][idx[s]])

        if steps.plan is None:
            steps(record)
        elif gathered:
            for x, y, rows, (into_x,), (into_y,) in zip(xs, ys, idx, steps.inputs, steps.labels):
                x.take(rows, 0, into_x)
                y.take(rows, 0, into_y)
            # a replay writes into none of the arrays it reads, stacked or not
            owned = [a for own in (*steps.inputs, *steps.labels) for a in (*own, own[0].base) if a is not None]
            for a in owned:
                a.setflags(write=False)
            steps(record)
            for a in reversed(owned):
                a.setflags(write=True)
            arrays.append([(x, y) for (x,), (y,) in zip(steps.inputs, steps.labels)])
        else:
            if count == 1:
                steps.plan.run([xs[0][idx[0]]], [ys[0][idx[0]]])
            else:
                steps.plan.run([[x[rows]] for x, rows in zip(xs, idx)], [[y[rows]] for y, rows in zip(ys, idx)])
            step(opt, steps.flat, None)
        plans = getattr(steps.plan, "plans", [steps.plan])
        states.append(([plan.nodes[plan.out].value.tobytes() for plan in plans] if i else [],
                       opt._rows[0].tobytes(), opt._values.tobytes(), opt._rows[1].tobytes(), opt._rows[2].tobytes()))
    return states, arrays, plans


@pytest.mark.parametrize("count, stacks", [(1, False), (3, True), (3, False)], ids=["one", "stacked", "one-by-one"])
def test_a_gathered_replay_is_byte_equal_to_the_checked_path(count, stacks, monkeypatch):
    if not stacks:  # each plan replays alone, from its rows of the stacked arrays
        monkeypatch.setattr(Lockstep, "_stacks", lambda self: False)
    checked, _, _ = _gathered_or_checked(count, gathered=False)
    gathered, arrays, plans = _gathered_or_checked(count, gathered=True)
    assert gathered == checked and len(arrays) == 5
    # every step wrote into the same arrays, which the plans read
    assert all(x is a and y is b for step_arrays in arrays for (x, y), (a, b) in zip(step_arrays, arrays[0]))
    assert all(plan.arrays[0][0] is x and plan.arrays[1][0] is y for plan, (x, y) in zip(plans, arrays[0]))
    if count > 1:
        # each source's arrays are its rows of the stacked ones
        assert all(x.base is not None and y.base is not None for x, y in arrays[0])
        assert len({id(x.base) for x, _ in arrays[0]}) == len({id(y.base) for _, y in arrays[0]}) == 1


def _supervised_data_fault(fault: str):
    """Two pre-training sources of 40 rows, the second with a NaN in a row that none
    of 3 steps of 4 rows draws (``"nan"``) or a label of a third class
    (``"label"``): the nets, the data and the schedule."""
    train, rngs = TrainConfig(3, 4, 1e-2), [stream(60, str(s)) for s in range(2)]
    nets = [(init_mlp(EXTRACTOR, stream(61, str(s)), tape), init_mlp(CLASSIFIER, stream(62, str(s)), tape))
            for s, tape in enumerate([Tape(), Tape()])]
    xs = [stream(63, str(s)).uniforms(80, -2.0, 2.0).reshape(40, 2) for s in range(2)]
    ys = [np.arange(40) % 2 for _ in range(2)]
    drawn = {int(r) for b in mdda.pipeline._minibatches(stream(60, "1"), train.steps, train.batch_size, 40)
             for r in b}
    row = min(set(range(40)) - drawn)
    if fault == "nan":
        xs[1][row, 0] = np.nan
    else:
        ys[1][row] = 2
    return nets, xs, ys, train, rngs


@pytest.mark.parametrize("fault, error", [("nan", NonFiniteError), ("label", ConfigError)])
def test_a_supervised_loop_checks_its_data_before_its_first_step(fault, error, monkeypatch):
    nets, xs, ys, train, rngs = _supervised_data_fault(fault)
    params = [p for chain in nets for net in chain for p in net.params]
    before = [p.value.tobytes() for p in params]
    stepped = []
    monkeypatch.setattr(mdda.pipeline, "step", lambda *args: stepped.append(1))
    with pytest.raises(error, match="^pre-training of source b: "):
        mdda.pipeline._train_supervised(nets, xs, ys, train, rngs, "pre-training", ["a", "b"])
    # nothing was recorded, stepped or drawn
    assert stepped == [] and [p.value.tobytes() for p in params] == before
    assert all(len(chain[0].tape) == sum(len(net.params) for net in chain) for chain in nets)
    assert all(np.array_equal(rng._draw(8), stream(60, str(s))._draw(8)) for s, rng in enumerate(rngs))


def test_adaptation_checks_the_target_rows_before_training(monkeypatch):
    src, bundle = _toy_bundle(steps=4)
    tgt = _toy_data(64, n=400).x
    tgt[0, 1] = np.inf  # a row that no step draws
    stepped = []
    monkeypatch.setattr(mdda.pipeline, "step", lambda *args: stepped.append(1))
    with pytest.raises(NonFiniteError, match="target row holds a non-finite value"):
        adapt_target(bundle, src, tgt, replace(FAST_ADAPT, steps=1, n_critic=1), stream(65, "adapt"))
    assert stepped == []


def test_estimate_wd_sign_on_identity_bundle():
    bundle = _identity_bundle()
    ones = Dataset(x=np.array([[1.0], [1.0]]), y=np.array([0, 0]), domain_name="ones")
    zeros = Dataset(x=np.array([[0.0], [0.0]]), y=np.array([0, 0]), domain_name="zeros")
    assert estimate_wd(*critic_scores(bundle, ones, zeros.x)) == 1.0
    assert estimate_wd(*critic_scores(bundle, zeros, ones.x)) == -1.0


def test_estimate_wd_equals_the_critic_loss_bit_for_bit():
    # the frozen scoring on arrays rounds exactly as the recorded training
    # loss does; sizes past 128 rows take numpy's pairwise summation
    _, bundle = _toy_bundle(steps=10)
    src = _toy_data(11, n=300, label="s")
    tgt = _toy_data(12, n=257, label="t")
    adapted = adapt_target(bundle, src, tgt.x, FAST_ADAPT, stream(13, "adapt"))
    sf = adapted.extractor.predict_values(src.x)
    tf = adapted.target_encoder.predict_values(tgt.x)
    want = critic_loss(adapted.critic, Tensor.of(sf), Tensor.of(tf)).item()
    assert estimate_wd(*critic_scores(adapted, src, tgt.x)) == want
    assert adapted.wd_estimate == want


# ---------------------------------------------------------------------------
# stage 3: distilling


def test_sample_distances_constant_critic_gives_zeros():
    bundle = SourceBundle(name="flat", extractor=identity_net(2),
                          classifier=init_mlp(MlpConfig((2, 2)), stream(0, "clf")),
                          target_encoder=identity_net(2),
                          critic=linear_critic([0.0, 0.0], 5.0), wd_estimate=0.0)
    src = Dataset(x=stream(1, "src").uniforms(8, -2.0, 2.0).reshape((4, 2)),
                  y=np.zeros(4, dtype=np.int64), domain_name="s")
    tau = sample_distances(*critic_scores(bundle, src, np.zeros((3, 2))))
    assert np.array_equal(tau, np.zeros(4))


def test_sample_distances_identity_example():
    bundle = _identity_bundle()
    src = Dataset(x=np.array([[3.0], [5.0]]), y=np.array([0, 0]), domain_name="s")
    tau = sample_distances(*critic_scores(bundle, src, np.array([[2.0], [2.0]])))
    assert np.array_equal(tau, np.array([1.0, 3.0]))


def test_sample_distances_matches_a_python_loop():
    src, bundle = _toy_bundle(steps=10)
    tgt = _toy_data(9, n=20, label="t")
    adapted = adapt_target(bundle, src, tgt.x, FAST_ADAPT, stream(10, "adapt"))
    tau = sample_distances(*critic_scores(adapted, src, tgt.x))
    src_scores = adapted.critic.predict_values(
        adapted.extractor.predict_values(src.x))[:, 0]
    tgt_scores = adapted.critic.predict_values(
        adapted.target_encoder.predict_values(tgt.x))[:, 0]
    want = np.abs(src_scores - tgt_scores.mean())
    np.testing.assert_allclose(tau, want, atol=1e-12)


def test_distill_select_examples():
    assert list(distill_select(np.array([0.1, 5.0, 0.2, 9.0]))) == [0, 2]
    assert list(distill_select(np.ones(6))) == [0, 1, 2]
    assert list(distill_select(np.array([5.0, 4.0, 3.0, 2.0, 1.0]))) == [2, 3, 4]
    assert list(distill_select(np.array([0.1, 5.0, 0.2, 9.0]), rule="farthest")) == [1, 3]
    quarter = distill_select(np.array([0.1, 5.0, 0.2, 9.0]), fraction=0.25)
    assert list(quarter) == [0] and quarter.dtype == np.int64


def test_distill_select_validation():
    with pytest.raises(ConfigError, match="two samples"):
        distill_select(np.array([1.0]))
    with pytest.raises(ConfigError, match="rule"):
        distill_select(np.ones(4), rule="median")
    with pytest.raises(ConfigError, match="fraction"):
        distill_select(np.ones(4), fraction=math.nan)


def test_distill_select_rules_partition_distinct_distances():
    tau = stream(11, "tau").uniforms(6, 0.0, 10.0)
    near = set(distill_select(tau, rule="closest"))
    far = set(distill_select(tau, rule="farthest"))
    assert near | far == set(range(6)) and not (near & far)


def test_distill_finetune_zero_steps_copies_the_classifier():
    src, bundle = _toy_bundle(steps=10)
    tgt = _toy_data(12, n=20, label="t")
    adapted = adapt_target(bundle, src, tgt.x, AdaptConfig(steps=0, critic_hidden=(6,)),
                           stream(13, "adapt"))
    rows = distill_select(sample_distances(*critic_scores(adapted, src, tgt.x)))
    (tuned,) = distill_finetune([adapted], [src], [rows], TrainConfig(steps=0), [stream(14, "ft")])
    assert tuned.stage == 3 and tuned.distilled
    # tau is stage 3's input only: the distilled bundle does not keep it
    assert adapted.tau is not None and tuned.tau is None
    assert tuned.extractor is adapted.extractor
    assert tuned.classifier is not adapted.classifier
    for pa, pb in zip(tuned.classifier.params, adapted.classifier.params):
        assert np.array_equal(pa.value, pb.value)


def test_distill_finetune_matches_a_manual_replay():
    src, bundle = _toy_bundle(steps=10)
    tgt = _toy_data(15, n=20, label="t")
    adapted = adapt_target(bundle, src, tgt.x, AdaptConfig(steps=0, critic_hidden=(6,)),
                           stream(16, "adapt"))
    rows = distill_select(sample_distances(*critic_scores(adapted, src, tgt.x)), fraction=1.0)
    (tuned,) = distill_finetune([adapted], [src], [rows], TrainConfig(6, 8, 1e-3), [stream(17, "ft")])

    rng = stream(17, "ft")
    feats = adapted.extractor.predict_values(src.x)
    tape = Tape()
    classifier = clone_mlp(adapted.classifier, tape)
    opt = adam(1e-3)
    mark = tape.mark()
    for _ in range(6):
        tape.reset(mark)
        idx = rng.integers(8, below=src.n)
        loss = softmax_cross_entropy(forward(classifier, tape.leaf(feats[idx])), src.y[idx])
        step(opt, classifier.params, backward(loss, classifier.params))
    for pa, pb in zip(tuned.classifier.params, classifier.params):
        assert np.array_equal(pa.value, pb.value)


def _assert_rows_rejected(bad):
    """``distill_finetune`` rejects each of the selected ``bad(n)`` rows of a
    toy source of ``n`` samples, naming the source and the range its rows
    must lie in, and takes rows that do lie in it."""
    src, bundle = _toy_bundle(steps=10)
    tgt = _toy_data(18, n=20, label="t")
    adapted = adapt_target(bundle, src, tgt.x, AdaptConfig(steps=0, critic_hidden=(6,)),
                           stream(19, "adapt"))
    for rows in bad(src.n):
        with pytest.raises(ConfigError, match=rf"source {src.domain_name}: .*\[0, {src.n}\)"):
            distill_finetune([adapted], [src], [rows], TrainConfig(steps=0), [stream(20, "ft")])
    (tuned,) = distill_finetune([adapted], [src], [np.array([0, src.n - 1])], TrainConfig(steps=0),
                                [stream(20, "ft")])
    assert tuned.distilled


def test_distill_finetune_selection_size_mismatch():
    # rows selected over more samples than the dataset has
    _assert_rows_rejected(lambda n: [distill_select(np.ones(2 * n + 2)), np.array([0, n])])


def test_distill_selection_validation():
    # selected rows that are not rows of the dataset: empty, 2-D, float,
    # repeated or negative
    _assert_rows_rejected(lambda n: [np.array([], dtype=np.int64), np.array([[0, 1]]), np.array([0.0, 1.0]),
                                     np.array([1, 1]), np.array([-1, 0])])


def test_distilling_prunes_a_corrupted_half():
    means = ((1.5, 0.0), (3.0, 0.0), (4.5, 0.0))
    cycled = (means[2], means[0], means[1])
    clean = DomainSpec(name="clean", n_classes=3, d=2, base_means=means, cov_scale=0.5)
    corrupt = DomainSpec(name="corrupt", n_classes=3, d=2, base_means=cycled,
                         cov_scale=0.5, rotation=1.0)
    tgt_spec = DomainSpec(name="tgt", n_classes=3, d=2, base_means=means, cov_scale=0.5)
    src = concat_datasets([sample_domain(clean, 500, stream(0, "data", "clean")),
                           sample_domain(corrupt, 500, stream(0, "data", "corrupt"))], "src")
    tgt = sample_domain(tgt_spec, 1000, stream(0, "data", "tgt"))
    tgt_eval = sample_domain(tgt_spec, 5000, stream(0, "data", "tgt-eval"))
    (bundle,) = pretrain_source([src], MlpConfig((2, 32, 8), final_activation="tanh"),
                                MlpConfig((8, 3)), TrainConfig(800, 64, 2e-3), [stream(0, "pre")])
    adapted = adapt_target(bundle, src, tgt.x,
                           AdaptConfig(steps=150, batch_size=128, lr_critic=1e-3,
                                       lr_encoder=1e-5, critic_hidden=(16, 16)),
                           stream(0, "adapt"))
    rows = distill_select(sample_distances(*critic_scores(adapted, src, tgt.x)))
    # the first 500 rows are the clean half; the critic should prefer them
    purity = float(np.mean(rows < 500))
    assert purity >= 0.8
    (tuned,) = distill_finetune([adapted], [src], [rows], TrainConfig(500, 64, 1e-3), [stream(0, "ft")])

    def accuracy(b: SourceBundle) -> float:
        labels = np.argmax(single_source_probs(b, tgt_eval.x), axis=1)
        return float(np.mean(labels == tgt_eval.y))

    assert accuracy(tuned) >= accuracy(adapted)


# ---------------------------------------------------------------------------
# stage 4: weighting


def test_domain_weight_values():
    assert domain_weight([0.0]).raw[0] == 1.0
    assert abs(domain_weight([1.0]).raw[0] - math.exp(-0.5)) <= 1e-12
    assert abs(domain_weight([2.0]).raw[0] - math.exp(-2.0)) <= 1e-12
    pair = domain_weight([0.0, 2.0])
    np.testing.assert_allclose(pair.normalized, [0.88080, 0.11920], atol=5e-5)


def test_domain_weight_properties():
    weights = domain_weight([0.3, 1.7, 0.9, 2.5])
    assert abs(weights.normalized.sum() - 1.0) <= 1e-12
    assert np.array_equal(domain_weight([-1.5]).raw, domain_weight([1.5]).raw)
    decaying = domain_weight([0.0, 0.5, 1.0, 2.0, 3.0]).raw
    assert np.all(np.diff(decaying) < 0.0)


_FAR = math.exp(-(38.7**2 - 38.6**2) / 2.0)


@pytest.mark.parametrize("wd, normalized", [
    ([40.0, 1.0], [0.0, 1.0]),
    ([40.0, 41.0], [1.0, 0.0]),
    ([41.0, 40.0], [0.0, 1.0]),
    ([1e200, -1e201], [1.0, 0.0]),
    ([38.6, 38.7], [1.0 / (1.0 + _FAR), _FAR / (1.0 + _FAR)]),  # subnormal raw weights
])
def test_domain_weight_of_far_sources(wd, normalized):
    # exp(-L^2 / 2) underflows for far sources; the normalized weights are
    # still the softmax of -L^2 / 2, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        weights = domain_weight(wd)
    with np.errstate(over="ignore"):
        assert weights.raw.tobytes() == np.exp(-(np.array(wd) * np.array(wd)) / 2.0).tobytes()
    np.testing.assert_allclose(weights.normalized, normalized, rtol=1e-12, atol=1e-12)
    assert abs(weights.normalized.sum() - 1.0) <= 1e-12
    if wd == [40.0, 1.0]:
        assert weights.normalized.tolist() == [0.0, 1.0]


def test_domain_weight_errors():
    with pytest.raises(NonFiniteError):
        domain_weight([0.5, math.nan])
    with pytest.raises(ConfigError):
        domain_weight([])


def test_uniform_weights():
    weights = uniform_weights(4)
    assert np.array_equal(weights.raw, np.ones(4))
    assert np.array_equal(weights.normalized, np.full(4, 0.25))
    with pytest.raises(ConfigError):
        uniform_weights(0)


# ---------------------------------------------------------------------------
# stage 4: aggregation


def test_aggregate_single_source_reproduces_its_probabilities():
    bundle = _constant_bundle(0.9)
    x = np.zeros((5, 2))
    alone = aggregate_predict([bundle], uniform_weights(1), x)
    assert np.array_equal(alone.probs, single_source_probs(bundle, x))
    assert np.array_equal(alone.labels, np.zeros(5, dtype=np.int64))


def test_aggregate_two_constant_sources():
    bundles = [_constant_bundle(0.9, "a"), _constant_bundle(0.2, "b")]
    weights = DomainWeights(raw=np.array([0.6, 0.2]), normalized=np.array([0.75, 0.25]))
    prediction = aggregate_predict(bundles, weights, np.zeros((3, 2)))
    np.testing.assert_allclose(prediction.probs,
                               np.tile([0.725, 0.275], (3, 1)), atol=1e-12)
    assert np.array_equal(prediction.labels, np.zeros(3, dtype=np.int64))


def test_aggregate_is_invariant_to_rescaling_raw_weights():
    bundles = [_constant_bundle(0.9, "a"), _constant_bundle(0.2, "b")]
    first = domain_weight([0.4, 1.3])
    scaled_raw = 0.5 * first.raw
    second = DomainWeights(raw=scaled_raw, normalized=scaled_raw / scaled_raw.sum())
    x = stream(21, "x").uniforms(8, -1.0, 1.0).reshape((4, 2))
    a = aggregate_predict(bundles, first, x)
    b = aggregate_predict(bundles, second, x)
    assert np.array_equal(a.labels, b.labels)
    np.testing.assert_allclose(a.probs, b.probs, atol=1e-12)


def test_aggregate_rows_sum_to_one():
    bundles = [_constant_bundle(0.7, "a"), _constant_bundle(0.4, "b")]
    prediction = aggregate_predict(bundles, domain_weight([0.2, 0.9]), np.zeros((6, 2)))
    np.testing.assert_allclose(prediction.probs.sum(axis=1), np.ones(6), atol=1e-12)


def test_aggregate_requires_adapted_bundles():
    _, bundle = _toy_bundle(steps=0)
    with pytest.raises(ConfigError, match="bundle missing target encoder"):
        aggregate_predict([bundle], uniform_weights(1), np.zeros((2, 2)))


def test_aggregate_weight_count_mismatch():
    bundles = [_constant_bundle(0.9, "a"), _constant_bundle(0.2, "b")]
    with pytest.raises(ConfigError, match="weights for"):
        aggregate_predict(bundles, uniform_weights(3), np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# checkpoints


def test_bundle_round_trip_stage_one(tmp_path):
    _, bundle = _toy_bundle(steps=10)
    save_bundle(bundle, tmp_path / "b", "stamp")
    back = load_bundle(tmp_path / "b", "stamp")
    assert back.name == bundle.name and back.stage == 1
    assert back.target_encoder is None and back.wd_estimate is None
    for pa, pb in zip(back.extractor.params + back.classifier.params,
                      bundle.extractor.params + bundle.classifier.params):
        assert np.array_equal(pa.value, pb.value)


def test_bundle_round_trip_stage_three(tmp_path):
    src, bundle = _toy_bundle(steps=10)
    tgt = _toy_data(26, n=20, label="t")
    adapted = adapt_target(bundle, src, tgt.x, FAST_ADAPT, stream(27, "adapt"))
    rows = distill_select(sample_distances(*critic_scores(adapted, src, tgt.x)))
    (tuned,) = distill_finetune([adapted], [src], [rows], TrainConfig(4, 8, 1e-3), [stream(28, "ft")])
    save_bundle(tuned, tmp_path / "b", "stamp")
    back = load_bundle(tmp_path / "b", "stamp")
    assert back.stage == 3 and back.distilled
    assert back.wd_estimate == tuned.wd_estimate
    # a distilled bundle holds no tau and writes none
    assert back.tau is None and not (tmp_path / "b" / "tau.bin").exists()
    for attr in ("extractor", "classifier", "target_encoder", "critic"):
        for pa, pb in zip(getattr(back, attr).params, getattr(tuned, attr).params):
            assert np.array_equal(pa.value, pb.value)
    assert np.array_equal(single_source_probs(back, tgt.x),
                          single_source_probs(tuned, tgt.x))


def test_bundle_stamp_must_match_the_experiment(tmp_path):
    _, bundle = _toy_bundle(steps=0)
    save_bundle(bundle, tmp_path / "b", "stamp-a")
    assert load_bundle(tmp_path / "b", "stamp-a").name == bundle.name
    with pytest.raises(ConfigError, match="rerun pretrain"):
        load_bundle(tmp_path / "b", "stamp-b")


def test_bundle_missing_network_file(tmp_path):
    _, bundle = _toy_bundle(steps=0)
    save_bundle(bundle, tmp_path / "b", "stamp")
    (tmp_path / "b" / "extractor.bin").unlink()
    with pytest.raises((DataFormatError, OSError)):
        load_bundle(tmp_path / "b", "stamp")


def test_bundle_corrupt_metadata(tmp_path):
    _, bundle = _toy_bundle(steps=0)
    save_bundle(bundle, tmp_path / "b", "stamp")
    meta = tmp_path / "b" / "meta.json"
    meta.write_text("not json at all")
    with pytest.raises((DataFormatError, ValueError)):
        load_bundle(tmp_path / "b", "stamp")
    meta.write_text('{"schema_version": 99}')
    with pytest.raises(ConfigError, match="schema"):
        load_bundle(tmp_path / "b", "stamp")
