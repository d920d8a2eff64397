"""Acceptance criteria, one test per criterion.

Each test records a one-line measured outcome via the ``criterion``
fixture; the terminal summary prints PASS/FAIL per criterion.  The
slower criteria (3-5) run the full pipeline over ten seeds with
calibrated schedules and stay well inside their time budgets.
"""
from __future__ import annotations

import json
import math
import time
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from conftest import tiny_experiment_config
from mdda.cli import main
from mdda.datagen import DomainSpec, ShiftDelta, load_csv, make_shift_family, sample_domain, save_csv
from mdda.errors import from_json, to_json
from mdda.experiment import (
    ExperimentConfig,
    MethodConfig,
    Report,
    export_report,
    load_report,
    run_experiment,
    save_config,
)
from mdda.nn import MlpConfig
from mdda.pipeline import (
    AdaptConfig,
    DomainWeights,
    TrainConfig,
    adapt_target,
    aggregate_predict,
    distill_finetune,
    distill_select,
    domain_weight,
    gradient_penalty,
    pretrain_source,
    sample_distances,
    single_source_probs,
)
from mdda.rng import stream

from helpers import concat_datasets, critic_scores, fd_sweep, gp_param_grad_worst_error, linear_critic
from test_pipeline import _constant_bundle, _toy_bundle, _toy_data

FEATURES = MlpConfig((2, 32, 8), final_activation="tanh")
HEADS = MlpConfig((8, 3))
PRETRAIN = TrainConfig(steps=800, batch_size=64, learning_rate=2e-3)


def _margins(values) -> str:
    """Per-seed margins of a criterion, in seed order."""
    return "[" + " ".join(f"{v:+.4f}" for v in values) + "]"


# ---------------------------------------------------------------------------
# criterion 1 — reverse-mode gradients match finite differences


def test_criterion_1_gradients_match_finite_differences(criterion):
    start = time.monotonic()
    sweep_error = fd_sweep(50)
    gp_error = gp_param_grad_worst_error()
    elapsed = time.monotonic() - start
    criterion(1, f"worst sweep err {sweep_error:.2e} (<=1e-6), "
                 f"penalty param err {gp_error:.2e} (<=1e-4), {elapsed:.0f}s")
    assert sweep_error <= 1e-6
    assert gp_error <= 1e-4
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# criterion 2 — gradient penalty closed forms


def test_criterion_2_penalty_closed_forms(criterion):
    s = stream(1, "s").uniforms(8, -1.0, 1.0).reshape((4, 2))
    t = stream(2, "t").uniforms(8, -1.0, 1.0).reshape((4, 2))
    unit = gradient_penalty(linear_critic([0.6, 0.8]), s, t, stream(3, "eps")).item()
    norm3 = gradient_penalty(linear_critic([0.0, 3.0]), s, t, stream(4, "eps")).item()
    criterion(2, f"unit-norm penalty {unit:.2e} (<1e-10), |norm-3 - 4| {abs(norm3 - 4.0):.2e}")
    assert unit < 1e-10
    assert abs(norm3 - 4.0) <= 1e-10


# ---------------------------------------------------------------------------
# criterion 3 — distance estimates track the size of the domain shift


@pytest.mark.slow
def test_criterion_3_distance_tracks_shift(criterion):
    start = time.monotonic()
    base = DomainSpec(name="s0", n_classes=3, d=2,
                      base_means=((1.5, 0.0), (3.0, 0.0), (4.5, 0.0)), cov_scale=0.25)
    rotations = (0.1, 0.45, 0.8, 1.15, 1.5)
    shifted = make_shift_family(
        base, [ShiftDelta(rotation=r, name=f"rot{r}") for r in rotations]
    )
    adapt_cfg = AdaptConfig(steps=300, batch_size=128, lr_critic=1e-3, lr_encoder=1e-3,
                            critic_hidden=(16, 16))
    matched_bad = 0
    worst_matched = 0.0
    monotone = 0
    steps = []  # per seed, the smallest step between consecutive estimates
    for seed in range(10):
        src = sample_domain(base, 1000, stream(seed, "data", "src"))
        bundle = pretrain_source(src, FEATURES, HEADS, PRETRAIN, stream(seed, "pre"))
        tgt = sample_domain(base, 1000, stream(seed, "data", "tgt"))
        matched = adapt_target(bundle, src, tgt.x, adapt_cfg, stream(seed, "adapt"))
        worst_matched = max(worst_matched, abs(matched.wd_estimate))
        if abs(matched.wd_estimate) > 0.05:
            matched_bad += 1
        estimates = []
        for r, spec in zip(rotations, shifted):
            tgt_r = sample_domain(spec, 1000, stream(seed, "data", f"tgt-{r}"))
            adapted = adapt_target(bundle, src, tgt_r.x, adapt_cfg,
                                   stream(seed, "adapt", f"rot-{r}"))
            estimates.append(adapted.wd_estimate)
        steps.append(min(b - a for a, b in zip(estimates, estimates[1:])))
        if all(a < b for a, b in zip(estimates, estimates[1:])):
            monotone += 1
    elapsed = time.monotonic() - start
    criterion(3, f"matched |wd| max {worst_matched:.4f} (<=0.05 on all seeds), "
                 f"strictly increasing on {monotone}/10 seeds, {elapsed:.0f}s; "
                 f"smallest step per seed {_margins(steps)}")
    assert matched_bad == 0
    assert monotone >= 9
    assert elapsed < 600.0


# ---------------------------------------------------------------------------
# criterion 4 — distance weighting beats uniform weighting


@pytest.mark.slow
def test_criterion_4_weighting_beats_uniform(criterion):
    start = time.monotonic()
    means = ((1.5, 0.0), (3.0, 0.0), (4.5, 0.0))

    def spec(name, **kw):
        return DomainSpec(name=name, n_classes=3, d=2, base_means=means,
                          cov_scale=0.35, **kw)

    cfg = ExperimentConfig(
        sources=(spec("near1", rotation=0.12), spec("near2", rotation=-0.12),
                 spec("far", rotation=1.5, translation=(2.0, -1.5))),
        target=spec("target"),
        extractor=FEATURES,
        classifier=HEADS,
        master_seed=0,
        n_source=1000,
        n_target=1000,
        pretrain=PRETRAIN,
        adapt=AdaptConfig(steps=200, batch_size=128, lr_critic=1e-3, lr_encoder=5e-4,
                          critic_hidden=(16, 16)),
        method=MethodConfig(distill=False),
        ablations=("uniform",),
        repeats=10,
    )
    report = run_experiment(cfg)
    wins = sum(
        res.accuracies["mdda"] > res.accuracies["uniform"] for res in report.per_seed
    )
    mean_weighted = report.aggregate["mdda"]["mean"]
    mean_uniform = report.aggregate["uniform"]["mean"]
    shared = all(
        len(set(res.artifact_checksums.values())) == 1 for res in report.per_seed
    )
    elapsed = time.monotonic() - start
    differences = [res.accuracies["mdda"] - res.accuracies["uniform"] for res in report.per_seed]
    criterion(4, f"weighted {mean_weighted:.4f} vs uniform {mean_uniform:.4f}, "
                 f"{wins}/10 paired wins, shared stage-1/2 artifacts, {elapsed:.0f}s; "
                 f"weighted - uniform per seed {_margins(differences)}")
    assert wins >= 7
    assert mean_weighted >= mean_uniform
    assert shared
    assert elapsed < 900.0


# ---------------------------------------------------------------------------
# criterion 5 — distilling recovers accuracy lost to corrupted samples


@pytest.mark.slow
def test_criterion_5_distilling_helps_on_corrupted_source(criterion):
    start = time.monotonic()
    means = ((1.5, 0.0), (3.0, 0.0), (4.5, 0.0))
    cycled = (means[2], means[0], means[1])
    clean = DomainSpec(name="clean", n_classes=3, d=2, base_means=means, cov_scale=0.5)
    corrupt = DomainSpec(name="corrupt", n_classes=3, d=2, base_means=cycled,
                         cov_scale=0.5, rotation=1.0)
    tgt_spec = DomainSpec(name="tgt", n_classes=3, d=2, base_means=means, cov_scale=0.5)
    adapt_cfg = AdaptConfig(steps=150, batch_size=128, lr_critic=1e-3, lr_encoder=1e-5,
                            critic_hidden=(16, 16))
    satisfied = 0
    gains = []  # per seed, distilled minus undistilled accuracy
    for seed in range(10):
        src = concat_datasets(
            [sample_domain(clean, 500, stream(seed, "data", "clean")),
             sample_domain(corrupt, 500, stream(seed, "data", "corrupt"))], "src")
        tgt = sample_domain(tgt_spec, 1000, stream(seed, "data", "tgt"))
        tgt_eval = sample_domain(tgt_spec, 5000, stream(seed, "data", "tgt-eval"))
        bundle = pretrain_source(src, FEATURES, HEADS, PRETRAIN, stream(seed, "pre"))
        adapted = adapt_target(bundle, src, tgt.x, adapt_cfg, stream(seed, "adapt"))
        sel = distill_select(sample_distances(*critic_scores(adapted, src, tgt.x)))
        tuned = distill_finetune(adapted, src, sel, TrainConfig(500, 64, 1e-3),
                                 stream(seed, "ft"))

        def acc(b):
            labels = np.argmax(single_source_probs(b, tgt_eval.x), axis=1)
            return float(np.mean(labels == tgt_eval.y))

        distilled, undistilled = acc(tuned), acc(adapted)
        gains.append(distilled - undistilled)
        if distilled >= undistilled:
            satisfied += 1
    elapsed = time.monotonic() - start
    criterion(5, f"distilled >= undistilled on {satisfied}/10 paired seeds, {elapsed:.0f}s; "
                 f"distilled - undistilled per seed {_margins(gains)}")
    assert satisfied >= 8
    assert elapsed < 600.0


# ---------------------------------------------------------------------------
# criterion 6 — single-source degeneracy and weight-rescaling invariance


def test_criterion_6_single_source_and_rescaling(criterion):
    src, bundle = _toy_bundle(steps=30)
    tgt = _toy_data(40, n=30, label="t")
    adapted = adapt_target(bundle, src, tgt.x,
                           AdaptConfig(steps=4, batch_size=8, n_critic=2, critic_hidden=(6,)),
                           stream(41, "adapt"))
    weights = domain_weight([adapted.wd_estimate])
    combined = aggregate_predict([adapted], weights, tgt.x)
    solo = single_source_probs(adapted, tgt.x)
    single_ok = np.array_equal(combined.probs, solo) and np.array_equal(
        combined.labels, np.argmax(solo, axis=1))

    trio = [_constant_bundle(0.9, "a"), _constant_bundle(0.2, "b"), _constant_bundle(0.6, "c")]
    first = domain_weight([0.3, 1.1, 0.7])
    scaled_raw = 0.5 * first.raw
    second = DomainWeights(raw=scaled_raw, normalized=scaled_raw / scaled_raw.sum())
    x = stream(42, "x").uniforms(12, -1.0, 1.0).reshape((6, 2))
    labels_a = aggregate_predict(trio, first, x).labels
    labels_b = aggregate_predict(trio, second, x).labels
    rescale_ok = np.array_equal(labels_a, labels_b)
    criterion(6, "single-source aggregate bitwise equal to solo prediction; "
                 "argmax invariant under raw-weight rescaling")
    assert single_ok
    assert rescale_ok


# ---------------------------------------------------------------------------
# criterion 7 — end-to-end reproducibility


def test_criterion_7_byte_identical_reports(criterion, tmp_path):
    conf = tmp_path / "exp.json"
    save_config(tiny_experiment_config(), conf)
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    assert main(["run", "--config", str(conf), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(conf), "--out", str(out2)]) == 0
    first = (out1 / "report.json").read_bytes()
    second = (out2 / "report.json").read_bytes()
    criterion(7, f"two runs, byte-identical report.json ({len(first)} bytes)")
    assert first == second


# ---------------------------------------------------------------------------
# criterion 8 — weight closed form


def test_criterion_8_weight_closed_form(criterion):
    got = domain_weight([0.0, 1.0, 2.0]).raw
    want = np.array([1.0, math.exp(-0.5), math.exp(-2.0)])
    err = float(np.max(np.abs(got - want)))
    criterion(8, f"max |weight - exp(-d^2/2)| {err:.2e} (<=1e-10)")
    assert err <= 1e-10


# ---------------------------------------------------------------------------
# criterion 9 — artifact formats and the exit-code contract


def test_criterion_9_artifacts_and_exit_codes(criterion, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("MDDA_OUT", raising=False)
    spec = DomainSpec(name="round", n_classes=2, d=2,
                      base_means=((0.0, 0.0), (3.0, 0.0)), cov_scale=0.4)
    ds = sample_domain(spec, 50, stream(50, "csv"))
    save_csv(ds, tmp_path / "round.csv")
    back = load_csv(tmp_path / "round.csv", domain_name="round")
    csv_ok = np.array_equal(back.x, ds.x) and np.array_equal(back.y, ds.y)

    report = run_experiment(tiny_experiment_config(repeats=1))
    export_report(report, tmp_path / "rep")
    json_ok = (from_json(Report, to_json(report)) == report
               and load_report(tmp_path / "rep" / "report.json") == report)

    from mdda.scatter import export_scatter
    export_scatter({"round": (ds.x, ds.y)}, tmp_path / "s.svg")
    svg_ok = ET.fromstring((tmp_path / "s.svg").read_text()).tag.endswith("svg")

    conf = tmp_path / "exp.json"
    save_config(tiny_experiment_config(), conf)
    out = str(tmp_path / "cli-out")
    code_ok = main(["gen-data", "--config", str(conf), "--out", out]) == 0
    code_ok = code_ok and main(["pretrain", "--config", str(conf), "--out", out]) == 0
    code_missing = main(["predict", "--config", str(conf), "--out", out])
    err = capsys.readouterr().err
    code_bogus = main(["frobnicate", "--config", str(conf)])
    capsys.readouterr()

    criterion(9, "CSV/JSON/SVG round trips intact; exit codes 0 (success), "
                 "1 (missing stage), 2 (usage) as contracted")
    assert csv_ok and json_ok and svg_ok
    assert code_ok
    assert code_missing == 1 and "bundle missing target encoder" in err
    assert code_bogus == 2
