"""The stage chain, the multi-seed experiment harness, reports, and
ablation variants.

One experiment fixes a set of source domains, a target domain, and all
stage hyperparameters, then repeats the full pipeline over several
seeds.  Ablation variants (uniform weighting, no distilling) reuse the
same per-seed stage-1/2 networks, so each comparison isolates exactly
one mechanism.  The staged CLI subcommands run the same stage functions
as the harness, one at a time over bundle checkpoints.
"""
from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .datagen import Dataset, DomainSpec, sample_domain, split_rows
from .errors import ConfigError, DataFormatError, MddaError, from_json, to_json
from .nn import MlpConfig
from .pipeline import (
    AdaptConfig,
    Prediction,
    SourceBundle,
    TrainConfig,
    adapt_target,
    aggregate_predict,
    distill_finetune,
    distill_select,
    domain_weight,
    pretrain_source,
    single_source_probs,
    uniform_weights,
)
from .rng import stream

SCHEMA_VERSION = 1

_VALID_ABLATIONS = ("uniform", "no_distill")


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class MethodConfig:
    """Stage-3/4 switches for the primary method."""

    weighting: str = "wasserstein"
    distill: bool = True
    distill_rule: str = "closest"
    distill_fraction: float = 0.5

    def __post_init__(self):
        if self.weighting not in ("wasserstein", "uniform"):
            raise ConfigError(f"unknown weighting {self.weighting!r}")
        if self.distill_rule not in ("closest", "farthest"):
            raise ConfigError(f"unknown distill rule {self.distill_rule!r}")
        if not 0.0 < self.distill_fraction <= 1.0:
            raise ConfigError("distill_fraction must lie in (0, 1]")


@dataclass(frozen=True)
class ExperimentConfig:
    sources: tuple[DomainSpec, ...]
    target: DomainSpec
    extractor: MlpConfig
    classifier: MlpConfig
    master_seed: int = 0
    n_source: int = 1000
    n_target: int = 1000
    pretrain: TrainConfig = TrainConfig()
    adapt: AdaptConfig = AdaptConfig()
    finetune: TrainConfig = TrainConfig(steps=500)
    method: MethodConfig = MethodConfig()
    ablations: tuple[str, ...] = ()
    repeats: int = 1

    def __post_init__(self):
        object.__setattr__(self, "sources", tuple(self.sources))
        object.__setattr__(self, "ablations", tuple(self.ablations))
        if len(self.sources) < 1:
            raise ConfigError("need at least one source domain")
        if self.repeats < 1:
            raise ConfigError("repeats must be at least 1")
        if self.n_source < 1 or self.n_target < 2:
            raise ConfigError("sample counts too small (target is split in half)")
        if self.method.distill and self.n_source < 2:
            raise ConfigError("n_source must be at least 2 to distill (it selects among the source samples)")
        for name in self.ablations:
            if name not in _VALID_ABLATIONS:
                raise ConfigError(f"unknown ablation {name!r}; valid: {_VALID_ABLATIONS}")
        if len(set(s.name for s in self.sources)) != len(self.sources):
            raise ConfigError("source domain names must be unique")
        for s in self.sources:
            if s.d != self.target.d or s.n_classes != self.target.n_classes:
                raise ConfigError("all domains must share d and n_classes")
        if self.extractor.d_in != self.target.d:
            raise ConfigError("extractor input width must equal the domain dimension")
        if self.classifier.d_out < self.target.n_classes:
            raise ConfigError("classifier output width must cover all classes")


def _versioned(obj) -> dict:
    """The JSON form of a config or report, stamped with the schema version."""
    return {"schema_version": SCHEMA_VERSION, **to_json(obj)}


def _check_version(data, what: str) -> dict:
    """The JSON form of a config or report without its checked schema version."""
    version = data.get("schema_version") if isinstance(data, dict) else None
    if version != SCHEMA_VERSION:
        raise DataFormatError(f"unsupported {what} schema_version {version!r}")
    return {k: v for k, v in data.items() if k != "schema_version"}


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return from_json(ExperimentConfig, _check_version(json.load(fh), "config"))


def save_config(cfg: ExperimentConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_versioned(cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# metrics and report types


def accuracy(pred_labels, true_labels) -> float:
    """Fraction of exact label matches."""
    pred = np.asarray(pred_labels)
    true = np.asarray(true_labels)
    if pred.shape != true.shape or pred.ndim != 1:
        raise ConfigError(f"label arrays must be equal-length vectors: {pred.shape} vs {true.shape}")
    if pred.size < 1:
        raise ConfigError("accuracy needs at least one label")
    return float(np.mean(pred == true))


@dataclass
class SeedResult:
    seed: int
    accuracies: dict[str, float]
    wd_estimates: list[float]
    weights_raw: list[float]
    weights_normalized: list[float]
    solo_accuracies: list[float]
    artifact_checksums: dict[str, str]


@dataclass
class Report:
    config: dict
    variants: list[str]
    per_seed: list[SeedResult]
    aggregate: dict[str, dict[str, float]]

    def __post_init__(self):
        for res in self.per_seed:
            for name, acc in res.accuracies.items():
                if not 0.0 <= acc <= 1.0:
                    raise ConfigError(f"accuracy {acc} for {name!r} outside [0, 1]")
        for name, stats in self.aggregate.items():
            accs = np.array([res.accuracies[name] for res in self.per_seed])
            if abs(stats["mean"] - accs.mean()) > 1e-12 or abs(stats["std"] - accs.std()) > 1e-12:
                raise ConfigError(f"aggregate stats for {name!r} disagree with per-seed values")


def _aggregate(variants: list[str], per_seed: list[SeedResult]) -> dict[str, dict[str, float]]:
    out: dict[str, dict[str, float]] = {}
    for name in variants:
        accs = np.array([res.accuracies[name] for res in per_seed])
        out[name] = {"mean": float(accs.mean()), "std": float(accs.std())}
    return out


def _params_checksum(bundles: list[SourceBundle]) -> str:
    h = hashlib.sha256()
    for bundle in bundles:
        for net in (bundle.extractor, bundle.classifier, bundle.target_encoder, bundle.critic):
            if net is None:
                continue
            for p in net.params:
                h.update(np.ascontiguousarray(p.value, dtype="<f8").tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# the stage chain: each stage is defined once, over every source of one
# repetition.  run_seed chains the stages in memory; the staged CLI
# subcommands chain them over bundle checkpoints.


def seed_stream(cfg: ExperimentConfig, rep: int, *labels: str):
    """The per-purpose random stream for one repetition of an experiment."""
    return stream(cfg.master_seed, f"seed{rep}", *labels)


def experiment_hash(cfg: ExperimentConfig) -> str:
    """Digest of the whole config, stamped on bundle checkpoints so that no
    stage continues from the bundles of another experiment or seed."""
    canon = json.dumps(_versioned(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


class Domains(NamedTuple):
    sources: list[Dataset]
    target: Dataset  # every target row
    tgt_adapt: Dataset  # first half: adaptation and distilling
    tgt_test: Dataset  # second half: accuracy


def sample_sources(cfg: ExperimentConfig, rep: int) -> list[Dataset]:
    """Every source domain.  Each domain draws from its own stream, so a
    stage that samples only the domains it uses gets the same rows."""
    return [
        sample_domain(spec, cfg.n_source, seed_stream(cfg, rep, "data", spec.name))
        for spec in cfg.sources
    ]


def sample_target(cfg: ExperimentConfig, rep: int) -> tuple[Dataset, Dataset, Dataset]:
    """The target domain, then its first and its second half."""
    target = sample_domain(cfg.target, cfg.n_target, seed_stream(cfg, rep, "data", "target"))
    return (target, *split_rows(target, cfg.n_target // 2))


def sample_domains(cfg: ExperimentConfig, rep: int) -> Domains:
    """Every source domain and the target domain, the target split in half."""
    return Domains(sample_sources(cfg, rep), *sample_target(cfg, rep))


def pretrain_sources(cfg: ExperimentConfig, rep: int, sources: list[Dataset]) -> list[SourceBundle]:
    """Stage 1: an extractor and classifier per source, all sources in lockstep."""
    rngs = [seed_stream(cfg, rep, "pretrain", ds.domain_name) for ds in sources]
    return pretrain_source(sources, cfg.extractor, cfg.classifier, cfg.pretrain, rngs)


def adapt_sources(cfg: ExperimentConfig, rep: int, data: Domains, bundles) -> list[SourceBundle]:
    """Stage 2: a target encoder and critic per source bundle."""
    return [
        adapt_target(b, ds, data.tgt_adapt.x, cfg.adapt, seed_stream(cfg, rep, "adapt", b.name))
        for b, ds in zip(bundles, data.sources)
    ]


def distill_sources(cfg: ExperimentConfig, rep: int, sources: list[Dataset], bundles) -> list[SourceBundle]:
    """Stage 3: each classifier fine-tuned on the source samples that
    cfg.method selects by the tau of its adaptation, or the bundles
    unchanged when distilling is off."""
    if not cfg.method.distill:
        return bundles
    for b, ds in zip(bundles, sources):
        if b.tau is None or b.tau.shape != (ds.n,) or not np.isfinite(b.tau).all():
            raise ConfigError(f"source {b.name}: bundle has no finite tau over its {ds.n} samples; rerun adapt")
    rows = [distill_select(b.tau, rule=cfg.method.distill_rule, fraction=cfg.method.distill_fraction) for b in bundles]
    rngs = [seed_stream(cfg, rep, "finetune", b.name) for b in bundles]
    return distill_finetune(bundles, sources, rows, cfg.finetune, rngs)


def predict_target(bundles, weighting: str, x: np.ndarray) -> Prediction:
    """Stage 4: the aggregate prediction of adapted bundles, each source
    weighted by exp(-wd^2 / 2) ("wasserstein") or equally ("uniform")."""
    if weighting == "uniform":
        weights = uniform_weights(len(bundles))
    else:
        weights = domain_weight([b.wd_estimate for b in bundles])
    return aggregate_predict(bundles, weights, x)


def run_seed(cfg: ExperimentConfig, rep: int) -> SeedResult:
    """Run stages 1-4 and the enabled ablation variants for one seed."""
    stage = "datagen"
    try:
        data = sample_domains(cfg, rep)
        stage = "pretrain"
        bundles = pretrain_sources(cfg, rep, data.sources)
        stage = "adapt"
        bundles = adapt_sources(cfg, rep, data, bundles)
        checksum_stage2 = _params_checksum(bundles)
        wasserstein = domain_weight([b.wd_estimate for b in bundles])
        stage = "distill"
        distilled = distill_sources(cfg, rep, data.sources, bundles)

        stage = "predict"
        # the ablations reuse this seed's networks and change one mechanism each
        variants = {
            "mdda": (distilled, cfg.method.weighting),
            "uniform": (distilled, "uniform"),
            "no_distill": (bundles, cfg.method.weighting),
        }
        test = data.tgt_test
        accuracies = {
            name: accuracy(predict_target(nets, weighting, test.x).labels, test.y)
            for name, (nets, weighting) in variants.items()
            if name == "mdda" or name in cfg.ablations
        }
        solo = [accuracy(np.argmax(single_source_probs(b, test.x), axis=1), test.y) for b in bundles]
    except MddaError as exc:
        raise MddaError(f"seed {rep}, stage {stage}: {exc}") from exc

    return SeedResult(
        seed=rep,
        accuracies=accuracies,
        wd_estimates=[float(b.wd_estimate) for b in bundles],
        weights_raw=[float(v) for v in wasserstein.raw],
        weights_normalized=[float(v) for v in wasserstein.normalized],
        solo_accuracies=solo,
        artifact_checksums={name: checksum_stage2 for name in accuracies},
    )


def run_experiment(cfg: ExperimentConfig) -> Report:
    variants = ["mdda"] + [name for name in _VALID_ABLATIONS if name in cfg.ablations]
    per_seed = [run_seed(cfg, rep) for rep in range(cfg.repeats)]
    return Report(
        config=_versioned(cfg),
        variants=variants,
        per_seed=per_seed,
        aggregate=_aggregate(variants, per_seed),
    )


# ---------------------------------------------------------------------------
# report serialization


def export_report(report: Report, directory) -> None:
    """Write report.json (full precision) and summary.csv (6 significant
    digits, one row per method variant)."""
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(_versioned(report), fh, indent=2, sort_keys=True)
        fh.write("\n")
    n = len(report.per_seed)
    header = ["variant", "mean", "std"] + [f"seed{i}" for i in range(n)]
    lines = [",".join(header)]
    for name in report.variants:
        row = [
            name,
            f"{report.aggregate[name]['mean']:.6g}",
            f"{report.aggregate[name]['std']:.6g}",
        ] + [f"{res.accuracies[name]:.6g}" for res in report.per_seed]
        lines.append(",".join(row))
    with open(os.path.join(directory, "summary.csv"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_report(path) -> Report:
    with open(path, "r", encoding="utf-8") as fh:
        return from_json(Report, _check_version(json.load(fh), "report"))
