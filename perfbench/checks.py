"""Validation of a workload's outputs, written against the file formats only
(no ``mdda`` import), so a defect in the package cannot also hide itself
here.  Each check returns the target-test accuracy of the primary method or
raises ``CheckError``."""
from __future__ import annotations

import csv
import hashlib
import json
import math
import os


class CheckError(Exception):
    pass


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def check_report(out_dir: str, config: dict) -> float:
    """report.json and summary.csv of a one-seed ``run_experiment``."""
    with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    require(report.get("schema_version") == 1, "report schema_version is not 1")
    require(report.get("config") == config, "report config differs from the config written")
    variants = report.get("variants")
    require(isinstance(variants, list) and variants[:1] == ["mdda"], f"bad variants {variants!r}")
    expected = ["mdda"] + [v for v in ("uniform", "no_distill") if v in config["ablations"]]
    require(variants == expected, f"variants {variants} != {expected}")
    per_seed = report.get("per_seed")
    require(isinstance(per_seed, list) and len(per_seed) == config["repeats"], "per_seed length")
    n_sources = len(config["sources"])
    for res in per_seed:
        accs = res["accuracies"]
        require(sorted(accs) == sorted(variants), "accuracies do not cover the variants")
        require(all(_finite(a) and 0.0 <= a <= 1.0 for a in accs.values()), "accuracy outside [0, 1]")
        for key in ("wd_estimates", "weights_raw", "weights_normalized", "solo_accuracies"):
            require(len(res[key]) == n_sources and all(_finite(v) for v in res[key]),
                    f"{key} is not {n_sources} finite values")
        require(all(0.0 < w <= 1.0 for w in res["weights_raw"]), "raw weight outside (0, 1]")
        require(abs(sum(res["weights_normalized"]) - 1.0) <= 1e-9, "normalized weights do not sum to 1")
    for name in variants:
        accs = [res["accuracies"][name] for res in per_seed]
        mean = sum(accs) / len(accs)
        require(abs(report["aggregate"][name]["mean"] - mean) <= 1e-12, f"aggregate mean of {name}")
    with open(os.path.join(out_dir, "summary.csv"), encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    require(rows[0] == ["variant", "mean", "std"] + [f"seed{i}" for i in range(len(per_seed))],
            f"summary.csv header {rows[0]}")
    require([r[0] for r in rows[1:]] == variants, "summary.csv rows differ from the variants")
    return report["aggregate"]["mdda"]["mean"]


def check_staged(out_dir: str, config: dict) -> float:
    """The files of gen-data -> pretrain -> adapt -> distill -> predict;
    the accuracy is predictions.csv against the labels gen-data wrote."""
    data_dir = os.path.join(out_dir, "data")
    n_classes = config["target"]["n_classes"]
    names = [s["name"] for s in config["sources"]]
    for name in names + [config["target"]["name"]]:
        n = config["n_target"] if name == config["target"]["name"] else config["n_source"]
        labels = _labels(os.path.join(data_dir, f"{name}.csv"), config["target"]["d"])
        require(len(labels) == n, f"{name}.csv has {len(labels)} rows, expected {n}")
        require(all(0 <= y < n_classes for y in labels), f"{name}.csv has a label out of range")
    with open(os.path.join(data_dir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    require([s["name"] for s in manifest] == names + [config["target"]["name"]], "manifest domains")
    for name in names:
        bundle = os.path.join(out_dir, "bundles", name)
        with open(os.path.join(bundle, "meta.json"), encoding="utf-8") as fh:
            meta = json.load(fh)
        require(meta.get("stage") == 3 and meta.get("distilled") is True, f"bundle {name} not distilled")
        require(_finite(meta.get("wd_estimate")), f"bundle {name} wd_estimate not finite")
        for net in ("extractor", "classifier", "target_encoder", "critic"):
            require(os.path.getsize(os.path.join(bundle, f"{net}.bin")) > 12, f"bundle {name}: {net}.bin")

    target = _labels(os.path.join(data_dir, f"{config['target']['name']}.csv"), config["target"]["d"])
    test = target[config["n_target"] // 2:]
    with open(os.path.join(out_dir, "predictions.csv"), encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    require(rows[0] == ["label"] + [f"p{c}" for c in range(n_classes)], f"predictions header {rows[0]}")
    require(len(rows) - 1 == len(test), f"{len(rows) - 1} predictions for {len(test)} test rows")
    hits = 0
    for row, truth in zip(rows[1:], test):
        probs = [float(v) for v in row[1:]]
        require(all(math.isfinite(p) and p >= 0.0 for p in probs), "probability not finite and >= 0")
        require(abs(sum(probs) - 1.0) <= 1e-9, "probabilities do not sum to 1")
        label = int(row[0])
        require(label == probs.index(max(probs)), "label is not the argmax")
        hits += label == truth
    return hits / len(test)


def _labels(path: str, d: int) -> list[int]:
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    require(rows[0] == ["y"] + [f"x{i}" for i in range(d)], f"{path}: header {rows[0]}")
    require(all(len(r) == d + 1 and all(math.isfinite(float(v)) for v in r[1:]) for r in rows[1:]),
            f"{path}: malformed row")
    return [int(r[0]) for r in rows[1:]]
