"""Every function and method that the traced benchmark names resolves to a
public function or method of ``mdda``, every pipeline span records a call
in a tiny run, the tracer names the step kind of every backward, and the
op micro-benchmark runs, so that deleting, renaming or silencing one fails
here in seconds instead of in a traced benchmark run."""
from __future__ import annotations

import importlib
import importlib.util
import inspect
import json
import math
from pathlib import Path

import pytest

from conftest import tiny_experiment_config
from helpers import critic_scores
import mdda.cli
import mdda.experiment
import mdda.pipeline
from mdda.datagen import DomainSpec, sample_domain
from mdda.nn import MlpConfig
from mdda.rng import stream

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load("tracer")
workloads = _load("workloads")

_METHOD_SPANS = {span: (layer, cls, attr) for layer, cls, attr, span in tracer.METHODS}
# spans that the tracer names per call from the arguments of another function
_DERIVED = {"autodiff.backward_recorded": "autodiff.backward"}
_DERIVED.update({f"cli.{sub}": "cli.dispatch" for sub in mdda.cli._HANDLERS})


def _resolve(span: str):
    if span in _METHOD_SPANS:
        layer, cls, attr = _METHOD_SPANS[span]
        return getattr(getattr(importlib.import_module(f"mdda.{layer}"), cls), attr)
    layer, attr = _DERIVED.get(span, span).split(".")
    fn = getattr(importlib.import_module(f"mdda.{layer}"), attr)
    assert fn.__module__ == f"mdda.{layer}", f"{span} is not defined in mdda.{layer}"
    return fn


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_spans_resolve_to_public_functions(workload):
    for span in workloads.WORKLOADS[workload].spans:
        assert not span.rsplit(".", 1)[-1].startswith("_"), span
        assert inspect.isfunction(_resolve(span)), span


def test_traced_methods_resolve():
    for span in _METHOD_SPANS:
        assert inspect.isfunction(_resolve(span)), span


def test_tracer_names_the_step_kind_of_every_backward():
    spec = DomainSpec(name="toy", n_classes=2, d=2, base_means=((0.0, 0.0), (3.0, 0.0)), cov_scale=0.3)
    src = sample_domain(spec, 40, stream(1, "src"))
    tgt = sample_domain(spec, 30, stream(2, "tgt")).x
    train = mdda.pipeline.TrainConfig(steps=3, batch_size=8)
    adapt = mdda.pipeline.AdaptConfig(steps=2, batch_size=8, n_critic=2, critic_hidden=(4,))
    t = tracer.Tracer()
    t.install()
    try:
        # looked up on the module at call time, so the wrapped functions run
        pipeline = mdda.pipeline
        bundle = pipeline.pretrain_source(src, MlpConfig((2, 4, 3)), MlpConfig((3, 2)), train, stream(3, "pre"))
        bundle = pipeline.adapt_target(bundle, src, tgt, adapt, stream(4, "adapt"))
        sel = pipeline.distill_select(pipeline.sample_distances(*critic_scores(bundle, src, tgt)))
        pipeline.distill_finetune(bundle, src, sel, train, stream(5, "fine"))
    finally:
        t.uninstall()
    # each training loop records and captures its first step of each kind,
    # and replays it without a backward call after that
    calls = {kind: sum(totals.values()) for kind, totals in t.step_nodes.items()}
    assert calls == {"pretrain_step": 1, "critic_step": 1, "encoder_step": 1, "finetune_step": 1,
                     "gp_inner": 1, "gp_inner_appended": 1}


def test_every_pipeline_span_records_a_call():
    t = tracer.Tracer()
    t.install()
    try:
        mdda.experiment.run_seed(tiny_experiment_config(), 0)
    finally:
        t.uninstall()
    calls = {name: entry["calls"] for name, entry in t.summary().items()}
    assert [span for span in workloads._PIPELINE_SPANS if not calls.get(span)] == []
    # the recorded backward of the penalty reaches the public matmul
    assert calls["autodiff.matmul"] > calls["pipeline.gradient_penalty"]


def test_every_staged_cli_span_records_a_call(tmp_path):
    config, out = tmp_path / "exp.json", tmp_path / "out"
    mdda.experiment.save_config(tiny_experiment_config(), config)
    t = tracer.Tracer()
    t.install()
    try:
        for sub in workloads.STAGED_SUBCOMMANDS:
            assert mdda.cli.main([sub, "--config", str(config), "--out", str(out), "-q"]) == 0, sub
    finally:
        t.uninstall()
    calls = {name: entry["calls"] for name, entry in t.summary().items()}
    assert [span for span in workloads.WORKLOADS["staged-cli"].spans if not calls.get(span)] == []


def test_op_microbench_reports_every_op_metric(monkeypatch):
    opbench = _load("opbench")
    monkeypatch.setattr(opbench, "REPEATS", 1)
    monkeypatch.setattr(opbench, "CALLS", 1)
    declared = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
    op_metrics = {m["name"] for m in declared if m["name"].startswith("op.")}
    out = opbench.run()
    assert len(op_metrics) == 25 and set(out) == op_metrics
    assert all(math.isfinite(v) for v in out.values())
