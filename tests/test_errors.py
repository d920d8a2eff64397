"""The JSON codec: every config and report type survives a trip through
JSON text, and the file keys are the field names except where a field
declares its own."""
from __future__ import annotations

import json

import pytest

from conftest import tiny_experiment_config
from mdda.datagen import DomainSpec
from mdda.errors import from_json, to_json
from mdda.experiment import MethodConfig, Report, SeedResult
from mdda.nn import MlpConfig
from mdda.pipeline import AdaptConfig, TrainConfig

_SEED = SeedResult(
    seed=3,
    accuracies={"mdda": 0.75, "uniform": 0.5},
    wd_estimates=[0.25, 1.5],
    weights_raw=[0.96875, 0.32465246735834974],
    weights_normalized=[0.7489951278260289, 0.2510048721739711],
    solo_accuracies=[0.75, 0.25],
    artifact_checksums={"mdda": "ab12", "uniform": "ab12"},
)

_VALUES = [
    MlpConfig((4, 6, 2), activation="leaky_relu", leaky_slope=0.1, final_activation="tanh"),
    DomainSpec(name="base", n_classes=3, d=2, base_means=((0.0, 0.0), (3.0, 0.0), (0.0, 3.0)),
               cov_scale=0.3, rotation=0.25, translation=(0.5, -0.5), scale=1.1, label_noise=0.05),
    TrainConfig(steps=7, batch_size=5, learning_rate=0.25),
    AdaptConfig(alpha=2.5, n_critic=2, include_endpoints=False, critic_hidden=(3,), lr_decay=False),
    MethodConfig(weighting="uniform", distill=False, distill_rule="farthest", distill_fraction=0.25),
    tiny_experiment_config(),
    _SEED,
    Report(config={"schema_version": 1, "repeats": 1}, variants=["mdda", "uniform"], per_seed=[_SEED],
           aggregate={"mdda": {"mean": 0.75, "std": 0.0}, "uniform": {"mean": 0.5, "std": 0.0}}),
]


@pytest.mark.parametrize("value", _VALUES, ids=[type(v).__name__ for v in _VALUES])
def test_to_json_round_trips(value):
    text = json.dumps(to_json(value), sort_keys=True)
    assert from_json(type(value), json.loads(text)) == value


def test_a_field_may_declare_its_json_key():
    data = to_json(_VALUES[1])
    assert "means" in data and "base_means" not in data
