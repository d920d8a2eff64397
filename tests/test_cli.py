"""Command-line interface: argument parsing, the staged checkpoint flow,
whole-experiment runs, and the exit-code contract."""
from __future__ import annotations

import contextlib
import dataclasses
import functools
import io
import json
import operator
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import tiny_experiment_config
from mdda import experiment, nn, pipeline
from mdda.autodiff import Tensor
from mdda.cli import dispatch, main, parse_args
from mdda.experiment import (
    MethodConfig,
    adapt_sources,
    distill_sources,
    predict_target,
    pretrain_sources,
    run_seed,
    sample_domains,
    save_config,
)
from mdda.nn import load_params, save_params


@pytest.fixture
def config_file(tmp_path, monkeypatch):
    monkeypatch.delenv("MDDA_OUT", raising=False)
    path = tmp_path / "exp.json"
    save_config(tiny_experiment_config(), path)
    return str(path)


# ---------------------------------------------------------------------------
# argument parsing


def test_parse_args_fields(config_file):
    inv = parse_args(["run", "--config", config_file])
    assert inv.subcommand == "run"
    assert inv.config_path == config_file
    assert inv.output_dir == "./out"
    assert inv.seed is None and not inv.quiet
    inv = parse_args(["adapt", "--config", config_file, "--out", "/tmp/x", "--seed", "7", "-q"])
    assert inv.subcommand == "adapt"
    assert inv.output_dir == "/tmp/x"
    assert inv.seed == 7 and inv.quiet


def test_parse_args_env_fallback(config_file, monkeypatch):
    monkeypatch.setenv("MDDA_OUT", "/tmp/from-env")
    assert parse_args(["run", "--config", config_file]).output_dir == "/tmp/from-env"
    flagged = parse_args(["run", "--config", config_file, "--out", "/tmp/flag"])
    assert flagged.output_dir == "/tmp/flag"


def test_parse_args_rejects_bad_invocations(config_file, tmp_path):
    with pytest.raises(SystemExit):
        parse_args(["bogus", "--config", config_file])
    with pytest.raises(SystemExit):
        parse_args(["run"])
    with pytest.raises(SystemExit):
        parse_args(["run", "--config", str(tmp_path / "missing.json")])
    assert main(["bogus", "--config", config_file]) == 2
    assert main(["run"]) == 2
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 2


def test_help_exits_cleanly(capsys):
    assert main(["--help"]) == 0
    assert "gen-data" in capsys.readouterr().out


def test_invalid_config_contents_exit_one(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("not json")
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("mdda run:")


def test_a_config_that_cannot_distill_exits_one_before_any_stage(config_file, tmp_path, capsys):
    out = tmp_path / "out"
    _set_config_field("n_source", 1)(config_file, out)
    assert main(["pretrain", "--config", config_file, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("mdda pretrain:") and "n_source" in err
    assert not out.exists()
    # without distilling, a single source sample runs through every stage
    data = json.loads(Path(config_file).read_text())
    Path(config_file).write_text(json.dumps({**data, "method": {**data["method"], "distill": False}}))
    for sub in ("pretrain", "adapt", "distill", "predict"):
        assert main([sub, "--config", config_file, "--out", str(out), "-q"]) == 0
    assert (out / "predictions.csv").is_file()


# ---------------------------------------------------------------------------
# the staged checkpoint flow


def test_staged_flow(config_file, tmp_path, capsys):
    out = str(tmp_path / "out")

    assert main(["gen-data", "--config", config_file, "--out", out]) == 0
    captured = capsys.readouterr()
    assert f"OK gen-data {out}" in captured.out
    for name in ("near.csv", "off.csv", "target.csv", "manifest.json"):
        assert (tmp_path / "out" / "data" / name).is_file()

    assert main(["pretrain", "--config", config_file, "--out", out]) == 0
    capsys.readouterr()
    assert (tmp_path / "out" / "bundles" / "near" / "meta.json").is_file()
    assert (tmp_path / "out" / "bundles" / "off" / "meta.json").is_file()

    # stage 4 before stage 2 must fail loudly
    assert main(["predict", "--config", config_file, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("mdda predict:")
    assert "bundle missing target encoder" in err

    assert main(["adapt", "--config", config_file, "--out", out]) == 0
    assert main(["distill", "--config", config_file, "--out", out]) == 0
    capsys.readouterr()

    assert main(["predict", "--config", config_file, "--out", out]) == 0
    capsys.readouterr()
    lines = (tmp_path / "out" / "predictions.csv").read_text().splitlines()
    assert lines[0] == "label,p0,p1"
    assert len(lines) == 31  # header + one row per target test sample

    assert main(["scatter", "--config", config_file, "--out", out]) == 0
    capsys.readouterr()
    svg = (tmp_path / "out" / "scatter.svg").read_text()
    assert ET.fromstring(svg).tag.endswith("svg")


@pytest.mark.parametrize("method", [MethodConfig(), MethodConfig(distill=False)],
                         ids=["default", "no-distill"])
def test_staged_predict_equals_run_seed_zero(method, tmp_path, monkeypatch):
    monkeypatch.delenv("MDDA_OUT", raising=False)
    cfg = tiny_experiment_config(method=method)
    conf, out = tmp_path / "exp.json", tmp_path / "out"
    save_config(cfg, conf)
    for sub in ("pretrain", "adapt", "distill", "predict"):
        assert main([sub, "--config", str(conf), "--out", str(out), "-q"]) == 0
    rows = np.loadtxt(out / "predictions.csv", delimiter=",", skiprows=1, ndmin=2)

    data = sample_domains(cfg, 0)
    adapted = adapt_sources(cfg, 0, data, pretrain_sources(cfg, 0, data.sources))
    pred = predict_target(distill_sources(cfg, 0, data.sources, adapted), cfg.method.weighting, data.tgt_test.x)
    assert np.array_equal(rows[:, 0].astype(np.int64), pred.labels)
    assert np.array_equal(rows[:, 1:], pred.probs)
    staged_acc = float(np.mean(pred.labels == data.tgt_test.y))
    assert staged_acc == run_seed(cfg, 0).accuracies["mdda"]


def test_bundles_of_another_experiment_are_rejected(config_file, tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["pretrain", "--config", config_file, "--out", out, "-q"]) == 0
    for sub in ("adapt", "distill", "predict"):
        assert main([sub, "--config", config_file, "--out", out, "--seed", "99", "-q"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"mdda {sub}:") and "rerun pretrain" in err
    changed = tmp_path / "changed.json"
    save_config(dataclasses.replace(tiny_experiment_config(), n_source=81), changed)
    assert main(["adapt", "--config", str(changed), "--out", out, "-q"]) == 1
    assert "rerun pretrain" in capsys.readouterr().err
    assert main(["adapt", "--config", config_file, "--out", out, "-q"]) == 0


def test_stages_run_in_order(config_file, tmp_path, capsys):
    out = str(tmp_path / "out")
    for sub in ("pretrain", "adapt"):
        assert main([sub, "--config", config_file, "--out", out, "-q"]) == 0
    assert main(["predict", "--config", config_file, "--out", out, "-q"]) == 1
    assert "bundle missing distilled classifier" in capsys.readouterr().err
    assert main(["distill", "--config", config_file, "--out", out, "-q"]) == 0
    assert main(["distill", "--config", config_file, "--out", out, "-q"]) == 1
    assert "bundle already at stage 3; rerun pretrain" in capsys.readouterr().err


def test_each_staged_subcommand_samples_only_the_domains_it_uses(config_file, tmp_path, monkeypatch):
    sampled = []
    sample_domain = experiment.sample_domain

    def noted(spec, n, rng):
        sampled.append(spec.name)
        return sample_domain(spec, n, rng)

    monkeypatch.setattr(experiment, "sample_domain", noted)
    out = str(tmp_path / "out")
    every = ["near", "off", "target"]
    expected = {"gen-data": every, "pretrain": ["near", "off"], "adapt": every, "distill": ["near", "off"],
                "predict": ["target"]}
    for sub, names in expected.items():
        sampled.clear()
        assert main([sub, "--config", config_file, "--out", out, "-q"]) == 0
        assert sampled == names, sub


def _set_config_field(key, value):
    def apply(config, out):
        path = Path(config)
        path.write_text(json.dumps({**json.loads(path.read_text()), key: value}))
    return apply


def _edit_bundle_meta(edit):
    def apply(config, out):
        assert main(["pretrain", "--config", config, "--out", out, "-q"]) == 0
        meta = Path(out, "bundles", "near", "meta.json")
        data = json.loads(meta.read_text())
        edit(data)
        meta.write_text(json.dumps(data))
    return apply


def _set_section_field(section, key, value):
    def apply(config, out):
        path = Path(config)
        data = json.loads(path.read_text())
        data[section][key] = value
        path.write_text(json.dumps(data))
    return apply


@pytest.mark.parametrize(
    "sub, corrupt, field",
    [
        ("run", _set_config_field("repeats", None), "repeats"),
        ("run", _set_config_field("n_source", None), "n_source"),
        ("run", _set_config_field("sources", 5), "sources"),
        ("run", _set_config_field("method", 3), "method"),
        ("adapt", _edit_bundle_meta(lambda meta: meta.pop("name")), "name"),
        ("run", _set_section_field("method", "distill", "false"), "distill"),
        ("run", _set_section_field("adapt", "lr_decay", "no"), "lr_decay"),
        ("run", _set_config_field("repeats", 2.9), "repeats"),
        ("run", _set_config_field("master_seed", 1.5), "master_seed"),
        ("run", _set_config_field("n_source", True), "n_source"),
        ("run", _set_section_field("target", "name", 5), "name"),
        ("run", _set_config_field("ablations", "uniform"), "ablations"),
        ("run", _set_section_field("extractor", "activation", 3), "activation"),
        ("adapt", _edit_bundle_meta(lambda meta: meta.update(name=5)), "name"),
        ("run", _set_config_field("n_sorce", 80), "n_sorce"),
        ("run", _set_section_field("adapt", "n_critc", 1), "n_critc"),
        # json.load reads NaN and Infinity
        ("run", _set_section_field("adapt", "alpha", float("nan")), "alpha"),
        ("run", _set_section_field("pretrain", "learning_rate", float("inf")), "learning_rate"),
    ],
    ids=["repeats-null", "n_source-null", "sources-int", "method-int", "meta-without-name",
         "distill-string", "lr_decay-string", "repeats-float", "master_seed-float", "n_source-bool",
         "domain-name-int", "ablations-string", "activation-int", "meta-name-int",
         "unknown-top-level-key", "unknown-nested-key", "alpha-nan", "learning_rate-infinity"],
)
def test_malformed_json_fields_exit_one(sub, corrupt, field, config_file, tmp_path, capsys):
    out = str(tmp_path / "out")
    corrupt(config_file, out)
    capsys.readouterr()
    assert main([sub, "--config", config_file, "--out", out, "-q"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"mdda {sub}:")
    assert f"field '{field}'" in err


def _truncate_params(arrays):
    return arrays[:2]


def _transpose_first_weight(arrays):
    return [arrays[0].T] + arrays[1:]


@pytest.mark.parametrize("damage", [_truncate_params, _transpose_first_weight], ids=["two-of-four", "transposed"])
def test_parameter_file_that_does_not_fit_its_config_exits_one(damage, config_file, tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["pretrain", "--config", config_file, "--out", out, "-q"]) == 0
    path = Path(out, "bundles", "near", "extractor.bin")
    save_params([Tensor.of(a) for a in damage(load_params(path))], path)
    capsys.readouterr()
    assert main(["adapt", "--config", config_file, "--out", out, "-q"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("mdda adapt:")
    assert str(path) in err
    assert "Traceback" not in err


# the file starts with magic, version and count; parameter 0's rank word
# follows at byte 12 and its first dimension word at byte 16
@pytest.mark.parametrize("offset", [15, 19], ids=["rank-high-byte", "dim-high-byte"])
def test_a_parameter_file_asking_for_more_bytes_than_it_holds_exits_one(offset, config_file, tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["pretrain", "--config", config_file, "--out", out, "-q"]) == 0
    path = Path(out, "bundles", "near", "extractor.bin")
    data = bytearray(path.read_bytes())
    data[offset] ^= 0xFF
    path.write_bytes(bytes(data))
    capsys.readouterr()
    assert main(["predict", "--config", config_file, "--out", out, "-q"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("mdda predict:")
    assert f"{path}: truncated" in err and "parameter 0" in err
    assert "Traceback" not in err


def test_an_interrupted_bundle_write_does_not_load(config_file, tmp_path, monkeypatch, capsys):
    out = str(tmp_path / "out")
    for sub in ("pretrain", "adapt"):
        assert main([sub, "--config", config_file, "--out", out, "-q"]) == 0
    calls = []

    def fail_on_second_network(net, path):
        calls.append(path)
        if len(calls) == 2:
            raise OSError("disk full")
        nn.save_params(net, path)

    with monkeypatch.context() as patch:
        patch.setattr(pipeline, "save_params", fail_on_second_network)
        assert main(["pretrain", "--config", config_file, "--out", out, "-q"]) == 1
    capsys.readouterr()
    # the bundle now holds a fresh extractor beside the adapted networks of
    # the run before; it must not load as a stage-2 bundle
    assert main(["distill", "--config", config_file, "--out", out, "-q"]) == 1
    assert "meta.json" in capsys.readouterr().err


def _drop_tau(path):
    path.unlink()


def _truncate_tau(path):
    path.write_bytes(path.read_bytes()[:-8])


def _shorten_tau(path):
    save_params([Tensor.of(load_params(path)[0][:-1])], path)


@pytest.mark.parametrize("damage", [_drop_tau, _truncate_tau, _shorten_tau],
                         ids=["missing", "truncated", "one-short"])
def test_an_adapted_bundle_without_a_fitting_tau_exits_one(damage, config_file, tmp_path, capsys):
    out = str(tmp_path / "out")
    for sub in ("pretrain", "adapt"):
        assert main([sub, "--config", config_file, "--out", out, "-q"]) == 0
    damage(Path(out, "bundles", "near", "tau.bin"))
    capsys.readouterr()
    assert main(["distill", "--config", config_file, "--out", out, "-q"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("mdda distill:") and "near" in err and "rerun adapt" in err
    assert "Traceback" not in err


def test_quiet_suppresses_progress(config_file, tmp_path, capsys):
    out = str(tmp_path / "quiet-out")
    assert main(["gen-data", "--config", config_file, "--out", out, "-q"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.startswith("OK gen-data")


# ---------------------------------------------------------------------------
# fuzzing the contract through ``predict``: a mutated input exits 1, never
# with a traceback

# the values a JSON path is set to; none asks for a large allocation
_ODD_VALUES = (None, True, False, 0, -1, 0.5, "", "x", [], {}, float("nan"), 1e308)


def _json_paths(data, prefix=()):
    """Every path into parsed JSON, the root first."""
    yield prefix
    items = data.items() if isinstance(data, dict) else enumerate(data) if isinstance(data, list) else ()
    for key, value in items:
        yield from _json_paths(value, prefix + (key,))


def _at(data, path):
    return functools.reduce(operator.getitem, path, data)


@st.composite
def _mutated_json(draw, text):
    """``text`` with one path set to an odd value, one key dropped or
    added, or the text cut short."""
    data = json.loads(text)
    paths = list(_json_paths(data))
    kind = draw(st.sampled_from(["set", "drop", "add", "cut"]))
    if kind == "cut":
        return text[: draw(st.integers(0, len(text) - 1))]
    if kind == "set":
        path = draw(st.sampled_from(paths))
        value = draw(st.sampled_from(_ODD_VALUES))
        if not path:
            return json.dumps(value)
        _at(data, path[:-1])[path[-1]] = value
    elif kind == "drop":
        path = draw(st.sampled_from([p for p in paths if p and isinstance(_at(data, p[:-1]), dict)]))
        del _at(data, path[:-1])[path[-1]]
    else:
        path = draw(st.sampled_from([p for p in paths if isinstance(_at(data, p), dict)]))
        _at(data, path)["extra"] = draw(st.sampled_from(_ODD_VALUES))
    return json.dumps(data)


@st.composite
def _damaged_bytes(draw, data):
    """``data`` cut short, or with one byte flipped."""
    if draw(st.booleans()):
        return data[: draw(st.integers(0, len(data) - 1))]
    flipped = bytearray(data)
    flipped[draw(st.integers(0, len(data) - 1))] ^= draw(st.integers(1, 255))
    return bytes(flipped)


@pytest.fixture(scope="module")
def pretrained(tmp_path_factory):
    """The tiny experiment's config and an output directory holding its
    stage-1 bundles, which ``predict`` must refuse."""
    root = tmp_path_factory.mktemp("pretrained")
    config, out = root / "exp.json", root / "out"
    save_config(tiny_experiment_config(), config)
    assert main(["pretrain", "--config", str(config), "--out", str(out), "-q"]) == 0
    return config, out


def _predict_exits_one(config, out):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["predict", "--config", str(config), "--out", str(out), "-q"])
    assert code == 1, err.getvalue()
    assert err.getvalue().startswith("mdda predict:")
    assert "Traceback" not in err.getvalue()


@contextlib.contextmanager
def _replaced(path: Path, data: bytes):
    original = path.read_bytes()
    path.write_bytes(data)
    try:
        yield
    finally:
        path.write_bytes(original)


@settings(max_examples=100, deadline=None, database=None)
@given(data=st.data())
def test_a_mutated_config_exits_one(data, pretrained):
    config, _ = pretrained
    text = data.draw(_mutated_json(config.read_text()))
    with _replaced(config, text.encode()):
        # no run gets far enough to write into it
        _predict_exits_one(config, config.parent / "empty")


@settings(max_examples=100, deadline=None, database=None)
@given(data=st.data())
def test_a_mutated_bundle_meta_exits_one(data, pretrained):
    config, out = pretrained
    meta = out / "bundles" / "near" / "meta.json"
    with _replaced(meta, data.draw(_mutated_json(meta.read_text())).encode()):
        _predict_exits_one(config, out)


@settings(max_examples=100, deadline=None, database=None)
@given(data=st.data())
def test_a_damaged_parameter_file_exits_one(data, pretrained):
    config, out = pretrained
    params = out / "bundles" / "near" / "extractor.bin"
    with _replaced(params, data.draw(_damaged_bytes(params.read_bytes()))):
        _predict_exits_one(config, out)


# ---------------------------------------------------------------------------
# whole-experiment runs


def test_run_exports_and_is_reproducible(config_file, tmp_path, capsys):
    out1, out2, out3 = (str(tmp_path / d) for d in ("r1", "r2", "r3"))
    assert main(["run", "--config", config_file, "--out", out1]) == 0
    assert f"OK run {out1}" in capsys.readouterr().out
    assert (tmp_path / "r1" / "report.json").is_file()
    assert (tmp_path / "r1" / "summary.csv").is_file()

    assert main(["run", "--config", config_file, "--out", out2]) == 0
    capsys.readouterr()
    first = (tmp_path / "r1" / "report.json").read_bytes()
    assert (tmp_path / "r2" / "report.json").read_bytes() == first

    assert main(["run", "--config", config_file, "--out", out3, "--seed", "5"]) == 0
    capsys.readouterr()
    assert (tmp_path / "r3" / "report.json").read_bytes() != first


def test_ablate_forces_both_comparisons(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("MDDA_OUT", raising=False)
    conf = tmp_path / "plain.json"
    save_config(tiny_experiment_config(ablations=(), repeats=1), conf)
    out = str(tmp_path / "ablate-out")
    assert main(["ablate", "--config", str(conf), "--out", out]) == 0
    capsys.readouterr()
    report = json.loads((tmp_path / "ablate-out" / "report.json").read_text())
    assert report["variants"] == ["mdda", "uniform", "no_distill"]


def test_dispatch_returns_zero_and_announces(config_file, tmp_path, capsys):
    inv = parse_args(["gen-data", "--config", config_file, "--out", str(tmp_path / "d")])
    assert dispatch(inv) == 0
    assert capsys.readouterr().out == f"OK gen-data {tmp_path / 'd'}\n"
