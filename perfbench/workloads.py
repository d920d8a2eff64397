"""The benchmark's workloads: one experiment config per workload, built from
the run seed, and the operation that each workload process performs.

This module is imported by the parent runner too, so it imports ``mdda``
only inside the functions that the workload process calls.
"""
from __future__ import annotations

from typing import NamedTuple

MEANS = ((1.5, 0.0), (3.0, 0.0), (4.5, 0.0))
N_CLASSES = 3
STAGED_SUBCOMMANDS = ("gen-data", "pretrain", "adapt", "distill", "predict")


class Workload(NamedTuple):
    why: str
    acc_floor: float  # an operation below this target accuracy has failed
    output: str  # the file whose sha256 must match traced and untraced
    spans: tuple[str, ...]  # spans that must record calls when traced


_PIPELINE_SPANS = (
    "rng.integers", "rng.uniforms", "rng.normals", "rng.stream",
    "autodiff.backward", "autodiff.backward_recorded", "autodiff.matmul",
    "autodiff.softmax_cross_entropy",
    "nn.forward", "nn.step", "nn.init_mlp", "nn.clone_mlp", "nn.Mlp.predict_values",
    "datagen.sample_domain", "datagen.split_rows",
    "pipeline.pretrain_source", "pipeline.adapt_target", "pipeline.gradient_penalty",
    "pipeline.critic_loss", "pipeline.encoder_loss", "pipeline.estimate_wd",
    "pipeline.sample_distances", "pipeline.distill_select", "pipeline.distill_finetune",
    "pipeline.domain_weight", "pipeline.aggregate_predict",
)

WORKLOADS = {
    "quickstart": Workload(
        why="README quick-start defaults, one seed: most time is the critic's "
        "double backward for the gradient penalty (stage 2)",
        acc_floor=0.7,
        output="report.json",
        spans=_PIPELINE_SPANS + (
            "experiment.run_experiment", "experiment.run_seed", "experiment.export_report",
        ),
    ),
    "supervised": Workload(
        why="deeper extractor, long pretrain and finetune, 5 adapt steps: first-order "
        "training and Adam dominate and the penalty path is nearly bypassed",
        acc_floor=0.7,
        output="report.json",
        spans=_PIPELINE_SPANS + (
            "experiment.run_experiment", "experiment.run_seed", "experiment.export_report",
        ),
    ),
    "staged-cli": Workload(
        why="CLI stage by stage over checkpoints at 20k rows: datagen, RNG normals, "
        "CSV and bundle I/O and large-batch forward passes dominate",
        acc_floor=0.7,
        output="predictions.csv",
        spans=_PIPELINE_SPANS + (
            "datagen.save_csv", "datagen.save_manifest", "nn.save_params", "nn.load_params",
            "pipeline.save_bundle", "pipeline.load_bundle",
            "cli.main", "cli.parse_args", "experiment.load_config", "experiment.seed_stream",
        ) + tuple(f"cli.{sub}" for sub in STAGED_SUBCOMMANDS),
    ),
}


def build_config(name: str, seed: int):
    """The workload's experiment config; the seed is its only varying input."""
    from mdda.datagen import DomainSpec
    from mdda.experiment import ExperimentConfig
    from mdda.nn import MlpConfig
    from mdda.pipeline import AdaptConfig, TrainConfig

    def spec(domain: str, **kw) -> DomainSpec:
        return DomainSpec(name=domain, n_classes=N_CLASSES, d=2, base_means=MEANS,
                          cov_scale=0.35, **kw)

    target = spec("target")
    three_sources = (spec("near1", rotation=0.1), spec("near2", rotation=-0.2),
                     spec("far", rotation=1.2))
    if name == "quickstart":
        return ExperimentConfig(
            sources=(spec("near", rotation=0.1), spec("far", rotation=1.2)),
            target=target,
            extractor=MlpConfig((2, 32, 8), final_activation="tanh"),
            classifier=MlpConfig((8, 3)),
            ablations=("uniform", "no_distill"),
            master_seed=seed,
        )
    if name == "supervised":
        return ExperimentConfig(
            sources=three_sources,
            target=target,
            extractor=MlpConfig((2, 32, 32, 8), final_activation="tanh"),
            classifier=MlpConfig((8, 3)),
            pretrain=TrainConfig(steps=2000),
            adapt=AdaptConfig(steps=5),
            finetune=TrainConfig(steps=1500),
            master_seed=seed,
        )
    if name == "staged-cli":
        return ExperimentConfig(
            sources=three_sources,
            target=target,
            extractor=MlpConfig((2, 32, 8), final_activation="tanh"),
            classifier=MlpConfig((8, 3)),
            n_source=20000,
            n_target=20000,
            pretrain=TrainConfig(steps=1000),
            adapt=AdaptConfig(steps=10, critic_hidden=(32, 32)),
            finetune=TrainConfig(steps=300),
            master_seed=seed,
        )
    raise KeyError(name)


def run_operation(name: str, cfg, config_path: str, out_dir: str) -> None:
    """One measured operation.  Every ``mdda`` function is looked up on its
    module at call time, so a tracer that rebinds module names sees it."""
    import mdda.cli
    import mdda.experiment

    if name == "staged-cli":
        for sub in STAGED_SUBCOMMANDS:
            code = mdda.cli.main([sub, "--config", config_path, "--out", out_dir, "-q"])
            if code != 0:
                raise RuntimeError(f"mdda {sub} exited with code {code}")
        return
    report = mdda.experiment.run_experiment(cfg)
    mdda.experiment.export_report(report, out_dir)
