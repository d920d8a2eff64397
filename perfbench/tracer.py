"""In-memory span tracer for the traced benchmark run.

The tracer wraps the public functions of each ``mdda`` layer module.  Modules
import names from one another (``from .nn import forward, step`` in
``pipeline``), so it rebinds the name in every ``mdda`` module namespace that
holds the function, not only in the defining module, and restores every
binding afterwards.

A span is (name, start, end, parent span).  Self time is a span's duration
minus the durations of its direct children.  Alongside the spans the tracer
keeps deterministic counters: tape nodes at entry to each ``backward`` by step
kind and op type, nodes appended by the recorded backward, 64-bit RNG draws,
rows sampled and predicted, and bytes written and read.
"""
from __future__ import annotations

import collections
import functools
import importlib
import inspect
import json
import os
import sys
import time

import numpy as np

LAYERS = ("rng", "autodiff", "nn", "datagen", "pipeline", "experiment", "cli")

# Methods traced as spans, with the span names the benchmark reports.
METHODS = (
    ("rng", "Xoshiro256", "integers", "rng.integers"),
    ("rng", "Xoshiro256", "uniforms", "rng.uniforms"),
    ("rng", "Xoshiro256", "normals", "rng.normals"),
    ("rng", "Xoshiro256", "permutation", "rng.permutation"),
    ("nn", "Mlp", "predict_values", "nn.Mlp.predict_values"),
)

# The loss span that closes right before a first-order backward names the
# kind of training step that backward belongs to.
_STEP_KIND = {
    ("pipeline.critic_loss", "pipeline.adapt_target"): "critic_step",
    ("pipeline.encoder_loss", "pipeline.adapt_target"): "encoder_step",
    ("autodiff.softmax_cross_entropy", "pipeline.pretrain_source"): "pretrain_step",
    ("autodiff.softmax_cross_entropy", "pipeline.distill_finetune"): "finetune_step",
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.span_parent: list[int] = []
        self._stack = [-1]
        self._last_closed = -1
        self._patches: list[tuple[object, str, object]] = []
        self.counters: collections.Counter = collections.Counter()
        self._draws = [0]
        self._reset_mark = [0]
        # step kind -> Counter of the node totals seen at backward entry, counted
        # from node 0 and from the step's tape reset; op mix of the first step
        self.step_nodes: dict[str, collections.Counter] = collections.defaultdict(collections.Counter)
        self.step_since_reset: dict[str, collections.Counter] = collections.defaultdict(collections.Counter)
        self.step_ops: dict[str, dict[str, int]] = {}

    # ---- spans ----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, name: str, name_of=None, probe=None):
        """A wrapper that records one span per call.  ``name_of(args,
        kwargs)`` picks the span name per call; ``probe(args, kwargs)``
        runs before the span and may return a callable run after it."""
        static_id = self._name_id(name)
        names, starts, ends, parents = self.span_name, self.span_start, self.span_end, self.span_parent
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            after = probe(args, kwargs) if probe is not None else None
            nid = static_id if name_of is None else tracer._name_id(name_of(args, kwargs))
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                tracer._last_closed = nid
                if after is not None:
                    after()

        return functools.update_wrapper(wrapper, fn)

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    # ---- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of the layer modules at each binding
        site, and the traced methods."""
        modules = {layer: importlib.import_module(f"mdda.{layer}") for layer in LAYERS}
        wrappers: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrappers[id(obj)] = self._wrap(obj, name, *self._special(name))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "mdda" or mod_name.startswith("mdda.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patch(mod, attr, wrappers[id(obj)])

        for layer, cls_name, attr, name in METHODS:
            cls = getattr(modules[layer], cls_name)
            probe = self._rows_probe(name, 1, "x") if attr == "predict_values" else None
            self._patch(cls, attr, self._wrap(getattr(cls, attr), name, None, probe))

        rng_cls = modules["rng"].Xoshiro256
        next_u64, draws = rng_cls.next_u64, self._draws

        def counted_next_u64(gen):
            draws[0] += 1
            return next_u64(gen)

        self._patch(rng_cls, "next_u64", counted_next_u64)

        tape_cls = modules["autodiff"].Tape
        reset, reset_mark = tape_cls.reset, self._reset_mark

        def noted_reset(tape, mark):
            reset_mark[0] = mark
            return reset(tape, mark)

        self._patch(tape_cls, "reset", noted_reset)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self.counters["rng.values_drawn"] = self._draws[0]

    def _special(self, name: str):
        """(name_of, probe) for spans that need more than a timer."""
        if name == "autodiff.backward":
            return self._backward_name, self._backward_probe
        if name == "cli.dispatch":
            return (lambda args, kwargs: f"cli.{args[0].subcommand}"), None
        if name == "datagen.sample_domain":
            return None, self._rows_probe(name, 1, "n")
        if name in ("datagen.save_csv", "nn.save_params"):
            return None, self._bytes_probe(name, 1, after=True)
        if name == "nn.load_params":
            return None, self._bytes_probe(name, 0, after=False)
        return None, None

    # ---- probes -----------------------------------------------------------

    @staticmethod
    def _backward_name(args, kwargs):
        record = kwargs.get("record", args[2] if len(args) > 2 else False)
        return "autodiff.backward_recorded" if record else "autodiff.backward"

    def _backward_probe(self, args, kwargs):
        output = args[0] if args else kwargs.get("output")
        tape = getattr(output, "tape", None)
        if tape is None or output.id is None or output.id >= len(tape.nodes):
            return None
        if self._backward_name(args, kwargs) == "autodiff.backward_recorded":
            kind = "gp_inner"
        else:
            parent = self._stack[-1]
            key = (self._name_of(self._last_closed),
                   self._name_of(self.span_name[parent] if parent >= 0 else -1))
            kind = _STEP_KIND.get(key, "other")
        total = output.id + 1
        self.step_nodes[kind][total] += 1
        self.step_since_reset[kind][total - self._reset_mark[0]] += 1
        if kind not in self.step_ops:
            ops = collections.Counter(node.op for node in tape.nodes[:total])
            self.step_ops[kind] = dict(sorted(ops.items()))
        if kind != "gp_inner":
            return None
        before = len(tape.nodes)

        def appended():
            self.step_nodes["gp_inner_appended"][len(tape.nodes) - before] += 1

        return appended

    def _name_of(self, nid: int) -> str:
        return self.names[nid] if nid >= 0 else ""

    def _rows_probe(self, name: str, pos: int, keyword: str):
        """Counts rows: the argument is a row count or an array of rows."""
        key, counters = f"{name}.rows", self.counters
        counters[key] = 0

        def probe(args, kwargs):
            value = args[pos] if len(args) > pos else kwargs[keyword]
            counters[key] += value if isinstance(value, int) else len(value)

        return probe

    def _bytes_probe(self, name: str, pos: int, after: bool):
        """Adds the size of the file named by the path argument, after the
        call for a writer and before it for a reader."""
        key, counters = f"{name}.bytes", self.counters
        counters[key] = 0

        def add(path):
            if os.path.exists(path):
                counters[key] += os.path.getsize(path)

        def probe(args, kwargs):
            path = args[pos] if len(args) > pos else kwargs["path"]
            if after:
                return lambda: add(path)
            add(path)
            return None

        return probe

    # ---- analysis ---------------------------------------------------------

    def arrays(self):
        names = np.asarray(self.span_name, dtype=np.int64)
        start = np.asarray(self.span_start, dtype=np.float64)
        end = np.asarray(self.span_end, dtype=np.float64)
        parent = np.asarray(self.span_parent, dtype=np.int64)
        return names, start, end, parent

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds."""
        names, start, end, parent = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=names.size)
        self_time = dur - child_time
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        selft = np.bincount(names, weights=self_time, minlength=k)
        return {
            self.names[i]: {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(selft[i])}
            for i in range(k)
        }

    def adapt_step_ms(self) -> dict[str, list[float]]:
        """Durations of the critic and encoder steps inside adapt_target.

        A step runs from the end of the previous optimizer update (``nn.step``
        child of the same ``adapt_target`` span) to the end of its own; it is
        a critic step when it contains ``gradient_penalty`` and an encoder
        step when it contains ``encoder_loss``.  The first step of each call
        also holds the stage's set-up and is left out.
        """
        names, start, end, parent = self.arrays()
        ids = {n: self._name_ids.get(n, -2) for n in (
            "pipeline.adapt_target", "nn.step", "pipeline.gradient_penalty", "pipeline.encoder_loss")}
        out = {"critic_step": [], "encoder_step": []}
        for adapt in np.flatnonzero(names == ids["pipeline.adapt_target"]):
            children = np.flatnonzero(parent == adapt)
            prev_end, kind = None, None
            for c in children:
                if names[c] == ids["pipeline.gradient_penalty"]:
                    kind = "critic_step"
                elif names[c] == ids["pipeline.encoder_loss"]:
                    kind = "encoder_step"
                elif names[c] == ids["nn.step"]:
                    if prev_end is not None and kind is not None:
                        out[kind].append((end[c] - prev_end) * 1e3)
                    prev_end, kind = end[c], None
        return out

    def write(self, directory: str, t0: float) -> None:
        """Spans to ``spans.npz`` (start and end in seconds from t0) and the
        name table to ``span_names.json``."""
        names, start, end, parent = self.arrays()
        np.savez(os.path.join(directory, "spans.npz"), name=names, start=start - t0,
                 end=end - t0, parent=parent)
        with open(os.path.join(directory, "span_names.json"), "w", encoding="utf-8") as fh:
            json.dump(self.names, fh)
