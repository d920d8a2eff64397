"""Golden bytes: the exported files of the tiny config and of a mid-size
variant, pinned by sha256.

A refactor must leave these bytes unchanged.  A change that alters the
numerics on purpose updates the digests here and says so.
"""
from __future__ import annotations

import hashlib

from conftest import tiny_experiment_config
from mdda.cli import main
from mdda.experiment import export_report, run_experiment, save_config
from mdda.pipeline import AdaptConfig, TrainConfig

REPORT_SHA256 = "9fb3e2d310081887b7d2620c8baec93badd2e64b87808971c12bc38fb3572aa9"
PREDICTIONS_SHA256 = "7331e4c98cf5f4840da7a338ccc7046d1ca409e14b6ac12684ee9b7b686c33bc"


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_report_json_bytes(tmp_path):
    export_report(run_experiment(tiny_experiment_config()), tmp_path)
    assert _sha256(tmp_path / "report.json") == REPORT_SHA256


def test_staged_predictions_csv_bytes(tmp_path, monkeypatch):
    monkeypatch.delenv("MDDA_OUT", raising=False)
    config = tmp_path / "exp.json"
    save_config(tiny_experiment_config(), config)
    out = tmp_path / "out"
    for sub in ("gen-data", "pretrain", "adapt", "distill", "predict"):
        assert main([sub, "--config", str(config), "--out", str(out), "-q"]) == 0
    assert _sha256(out / "predictions.csv") == PREDICTIONS_SHA256


MID_SIZE_REPORT_SHA256 = "14cfbe46286bc54a6f3572e944a62e4658cc97a358bdcb8b8a2e8868ebcad1be"


def test_mid_size_report_json_bytes(tmp_path):
    """Batches of 128 over 600 rows, so a change confined to large batches
    shows here too."""
    cfg = tiny_experiment_config(
        n_source=600,
        n_target=600,
        repeats=1,
        pretrain=TrainConfig(60, 128, 2e-3),
        adapt=AdaptConfig(steps=8, batch_size=128, critic_hidden=(16, 16)),
        finetune=TrainConfig(20, 128, 1e-3),
    )
    export_report(run_experiment(cfg), tmp_path)
    assert _sha256(tmp_path / "report.json") == MID_SIZE_REPORT_SHA256
