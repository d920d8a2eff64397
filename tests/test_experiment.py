"""Multi-seed harness: config serialization, the per-seed driver and its
ablation variants, report aggregation and export."""
from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest

from conftest import tiny_experiment_config
from mdda.datagen import DomainSpec
from mdda.errors import ConfigError, DataFormatError, MddaError, to_json
from mdda.experiment import (
    ExperimentConfig,
    MethodConfig,
    Report,
    SeedResult,
    accuracy,
    export_report,
    load_config,
    load_report,
    run_experiment,
    save_config,
    seed_stream,
)
from mdda.nn import MlpConfig

_cache: dict = {}


def _tiny_report() -> Report:
    if "report" not in _cache:
        _cache["report"] = run_experiment(tiny_experiment_config())
    return _cache["report"]


# ---------------------------------------------------------------------------
# metrics


def test_accuracy_values():
    assert accuracy([1, 0, 2], [1, 0, 2]) == 1.0
    assert accuracy([1, 1, 1], [0, 0, 0]) == 0.0
    assert accuracy([1, 0, 0, 0], [1, 0, 0, 2]) == 0.75
    with pytest.raises(ConfigError, match="equal-length"):
        accuracy([1, 0], [1, 0, 2])
    with pytest.raises(ConfigError, match="at least one"):
        accuracy([], [])


# ---------------------------------------------------------------------------
# configuration


def test_config_file_round_trip(tmp_path):
    cfg = tiny_experiment_config()
    path = tmp_path / "exp.json"
    save_config(cfg, path)
    assert load_config(path) == cfg


def test_config_rejects_unknown_schema(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({**to_json(tiny_experiment_config()), "schema_version": 99}))
    with pytest.raises(DataFormatError, match="schema_version"):
        load_config(path)


def test_config_missing_field(tmp_path):
    path = tmp_path / "exp.json"
    save_config(tiny_experiment_config(), path)
    data = json.loads(path.read_text())
    del data["sources"]
    path.write_text(json.dumps(data))
    with pytest.raises(DataFormatError, match="missing field 'sources'"):
        load_config(path)


def test_config_validation():
    cfg = tiny_experiment_config()
    with pytest.raises(ConfigError, match="ablation"):
        dataclasses.replace(cfg, ablations=("bogus",))
    with pytest.raises(ConfigError, match="unique"):
        dataclasses.replace(cfg, sources=(cfg.sources[0], cfg.sources[0]))
    wide = DomainSpec(name="wide", n_classes=2, d=3,
                      base_means=((0.0, 0.0, 0.0), (3.0, 0.0, 0.0)), cov_scale=0.4)
    with pytest.raises(ConfigError, match="share"):
        dataclasses.replace(cfg, sources=(cfg.sources[0], wide))
    with pytest.raises(ConfigError, match="counts"):
        dataclasses.replace(cfg, n_target=1)
    with pytest.raises(ConfigError, match="repeats"):
        dataclasses.replace(cfg, repeats=0)
    with pytest.raises(ConfigError, match="extractor input"):
        dataclasses.replace(cfg, extractor=MlpConfig((3, 8, 4), final_activation="tanh"))
    with pytest.raises(ConfigError, match="classifier output"):
        dataclasses.replace(cfg, classifier=MlpConfig((4, 1)))


def test_seed_stream_is_stable_and_distinct():
    cfg = tiny_experiment_config()
    assert seed_stream(cfg, 0, "data").next_u64() == seed_stream(cfg, 0, "data").next_u64()
    assert seed_stream(cfg, 0, "data").next_u64() != seed_stream(cfg, 1, "data").next_u64()
    assert seed_stream(cfg, 0, "data").next_u64() != seed_stream(cfg, 0, "adapt").next_u64()


# ---------------------------------------------------------------------------
# the harness


def test_run_experiment_smoke():
    report = _tiny_report()
    assert report.variants == ["mdda", "uniform", "no_distill"]
    assert len(report.per_seed) == 2
    for res in report.per_seed:
        assert set(res.accuracies) == {"mdda", "uniform", "no_distill"}
        assert len(res.wd_estimates) == 2
        assert len(res.weights_raw) == 2
        assert abs(sum(res.weights_normalized) - 1.0) <= 1e-12
        assert len(res.solo_accuracies) == 2
        # every variant reuses the same stage-1/2 networks within a seed
        assert set(res.artifact_checksums) == {"mdda", "uniform", "no_distill"}
        assert len(set(res.artifact_checksums.values())) == 1
    assert set(report.aggregate) == {"mdda", "uniform", "no_distill"}
    for stats in report.aggregate.values():
        assert set(stats) == {"mean", "std"}


def test_run_experiment_is_deterministic():
    again = run_experiment(tiny_experiment_config())
    assert to_json(again) == to_json(_tiny_report())


def test_no_ablations_gives_only_the_primary_column():
    report = run_experiment(tiny_experiment_config(ablations=(), repeats=1))
    assert report.variants == ["mdda"]
    assert set(report.per_seed[0].accuracies) == {"mdda"}
    assert set(report.aggregate) == {"mdda"}


def test_single_source_weighting_is_a_no_op():
    cfg = tiny_experiment_config()
    report = run_experiment(
        dataclasses.replace(cfg, sources=cfg.sources[:1], ablations=("uniform",), repeats=1)
    )
    res = report.per_seed[0]
    assert res.weights_normalized == [1.0]
    assert res.accuracies["mdda"] == res.accuracies["uniform"]


def test_variants_coincide_when_the_method_is_ablated():
    cfg = tiny_experiment_config(
        method=MethodConfig(weighting="uniform", distill=False), repeats=1
    )
    res = run_experiment(cfg).per_seed[0]
    assert res.accuracies["mdda"] == res.accuracies["uniform"]
    assert res.accuracies["mdda"] == res.accuracies["no_distill"]


def test_run_seed_wraps_stage_errors_with_context():
    cfg = tiny_experiment_config(repeats=1)
    far = dataclasses.replace(cfg.sources[0], translation=(1e308, 1e308))
    broken = dataclasses.replace(cfg, sources=(far, cfg.sources[1]))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(MddaError, match="seed 0, stage pretrain"):
            run_experiment(broken)


# ---------------------------------------------------------------------------
# reports


def test_export_report_files(tmp_path):
    report = _tiny_report()
    export_report(report, tmp_path)
    text = (tmp_path / "report.json").read_text()
    assert text == json.dumps({"schema_version": 1, **to_json(report)}, indent=2, sort_keys=True) + "\n"
    assert load_report(tmp_path / "report.json") == report

    lines = (tmp_path / "summary.csv").read_text().splitlines()
    assert lines[0] == "variant,mean,std,seed0,seed1"
    assert len(lines) == len(report.variants) + 1
    for line in lines[1:]:
        fields = line.split(",")
        name = fields[0]
        stats = report.aggregate[name]
        parsed = [float(f) for f in fields[1:]]
        exact = [stats["mean"], stats["std"]] + [
            res.accuracies[name] for res in report.per_seed
        ]
        for got, want in zip(parsed, exact):
            assert abs(got - want) <= 1e-5 * max(1.0, abs(want))


def test_report_validation():
    res = SeedResult(seed=0, accuracies={"mdda": 1.5}, wd_estimates=[0.1],
                     weights_raw=[1.0], weights_normalized=[1.0],
                     solo_accuracies=[0.9], artifact_checksums={"mdda": "x"})
    with pytest.raises(ConfigError, match="outside"):
        Report(config={}, variants=["mdda"], per_seed=[res],
               aggregate={"mdda": {"mean": 1.5, "std": 0.0}})
    good = dataclasses.replace(res, accuracies={"mdda": 0.9})
    with pytest.raises(ConfigError, match="disagree"):
        Report(config={}, variants=["mdda"], per_seed=[good],
               aggregate={"mdda": {"mean": 0.5, "std": 0.0}})


def test_report_rejects_unknown_schema(tmp_path):
    path = tmp_path / "report.json"
    path.write_text(json.dumps({**to_json(_tiny_report()), "schema_version": 2}))
    with pytest.raises(DataFormatError, match="schema_version"):
        load_report(path)
