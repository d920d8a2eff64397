"""Benchmark of the mdda pipeline, measured from outside the package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each operation runs in a fresh interpreter (``child.py``), one process at a
time, with BLAS threads set to 1 in that process's environment, pinned to
one CPU and timed with a same-core speed reference (``speedometer.py``).
The seed is the only input that varies; it becomes the experiment's master
seed.

``--trace 0`` runs set-up probes, then operations in a closed loop until
``--seconds`` would be exceeded (at least one), checks every operation's
outputs and reports the end-to-end metrics: medians over the operations, and
for ``setup_s`` over the probes and the operations.  ``--trace 1`` runs one
untraced and one traced operation, checks that both wrote the same bytes,
and reports the per-layer metrics and the tracing overhead.

Metric names and units come from ``BENCHMARK.json``.  The last line of
standard output is one JSON object; the lines before it are a readable
summary.  Exit code 0 means every check passed, 1 that some check failed
(the result is still printed) and 2 that nothing could be measured, for
example because the package is missing.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_PROBES = 5
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class Unmeasurable(Exception):
    """Nothing can be measured; the run exits 2 without a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    # every set-up compiles the package, whatever bytecode the caller's
    # environment would have cached, so setup_s does not depend on it
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.update({var: "1" for var in THREAD_VARS})
    return env


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": blas, "blas_threads": 1,
            "machine": platform.machine()}


def spawn(args, mode: str, directory: str, deadline: float, cpu: int | None = None) -> dict:
    """Runs one child process; returns its result with ``setup_s`` added,
    or raises ``checks.CheckError`` if it failed."""
    os.makedirs(directory)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--dir", directory, "--mode", mode]
    if cpu is not None:
        cmd += ["--cpu", str(cpu)]
    log_path = os.path.join(directory, "log.txt")
    with open(log_path, "w", encoding="utf-8") as log:
        started = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=child_env(),
                                cwd=directory)
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise checks.CheckError(f"{mode} process timed out") from None
    if code != 0:
        with open(log_path, encoding="utf-8", errors="replace") as fh:
            tail = fh.read().strip().splitlines()[-1:] or [""]
        raise checks.CheckError(f"{mode} process exited {code}: {tail[0]}")
    with open(os.path.join(directory, "result.json"), encoding="utf-8") as fh:
        result = json.load(fh)
    result["setup_s"] = result["ready"] - started
    return result


def operation(args, mode: str, directory: str, deadline: float, index: int) -> dict:
    """One checked operation: ``ok``, the child's result and, when ok, the
    accuracy and the output's sha256; otherwise ``error``.  Operations
    take the CPUs in turn, so a run samples the speed of every core."""
    spec = workloads.WORKLOADS[args.workload]
    cpus = sorted(os.sched_getaffinity(0))
    started = time.monotonic()
    record = {"ok": False}
    try:
        record.update(spawn(args, mode, directory, deadline, cpus[index % len(cpus)]))
        out_dir = os.path.join(directory, "out")
        with open(os.path.join(directory, "exp.json"), encoding="utf-8") as fh:
            config = json.load(fh)
        checks.require(config["master_seed"] == args.seed, "config master_seed is not the run seed")
        check = checks.check_staged if args.workload == "staged-cli" else checks.check_report
        acc = check(out_dir, config)
        checks.require(acc >= spec.acc_floor, f"accuracy {acc} below the floor {spec.acc_floor}")
        record.update(ok=True, acc=acc, sha256=checks.sha256(os.path.join(out_dir, spec.output)))
    except (checks.CheckError, OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        record["error"] = f"{type(exc).__name__}: {exc}"
    record["duration_s"] = time.monotonic() - started
    return record


def setup_samples(args, work: str, deadline: float, count: int) -> list[float]:
    """One uncounted warm-up (it fills the page cache), then
    ``count`` timed set-ups."""
    samples = []
    for i in range(count + 1):
        try:
            res = spawn(args, "setup", os.path.join(work, f"setup{i}"), deadline)
        except checks.CheckError as exc:
            raise Unmeasurable(f"set-up failed: {exc}") from None
        if i:
            samples.append(res["setup_s"])
    return samples


def untraced(args, work: str, deadline: float, summary: dict) -> dict:
    measure_start = time.monotonic()
    setups = setup_samples(args, work, deadline, SETUP_PROBES)
    ops = []
    while True:
        ops.append(operation(args, "plain", os.path.join(work, f"op{len(ops)}"), deadline, len(ops)))
        typical = statistics.median(op["duration_s"] for op in ops)
        now = time.monotonic()
        if now - measure_start + typical > args.seconds or now + 2 * typical > deadline:
            break
    summary["ops"] = ops
    good = [op for op in ops if op["ok"]]
    if not good:
        raise Unmeasurable(f"every operation failed: {ops[0].get('error')}")
    shas = {op["sha256"] for op in good}
    summary["problems"] += [f"op{i}: {op['error']}" for i, op in enumerate(ops) if not op["ok"]]
    if len(shas) > 1:
        summary["problems"].append(f"operations of one seed wrote different outputs: {sorted(shas)}")
    summary["sha256"] = sorted(shas)
    summary["wall_s"] = statistics.median(op["wall_s"] for op in good)
    return {
        "setup_s": statistics.median(setups + [op["setup_s"] for op in ops if "setup_s" in op]),
        "wall_ref_s": statistics.median(op["wall_ref_s"] for op in good),
        "peak_rss_mb": statistics.median(op["peak_rss_mb"] for op in good),
        "acc_mdda": statistics.median(op["acc"] for op in good),
    }


def traced(args, work: str, deadline: float, summary: dict) -> dict:
    setup_samples(args, work, deadline, 0)
    plain = operation(args, "plain", os.path.join(work, "plain"), deadline, 0)
    trace = operation(args, "traced", os.path.join(work, "traced"), deadline, 1)
    summary["ops"] = [plain, trace]
    for label, op in (("untraced", plain), ("traced", trace)):
        if not op["ok"]:
            summary["problems"].append(f"{label}: {op['error']}")
    if "spans" not in trace:
        raise Unmeasurable("the traced operation produced no spans")
    if plain["ok"] and trace["ok"] and plain["sha256"] != trace["sha256"]:
        summary["problems"].append(
            f"tracing changed {workloads.WORKLOADS[args.workload].output}: "
            f"{plain['sha256']} untraced, {trace['sha256']} traced")
    summary["sha256"] = {"untraced": plain.get("sha256"), "traced": trace.get("sha256")}
    spans = trace["spans"]
    silent = [s for s in workloads.WORKLOADS[args.workload].spans if spans.get(s, {}).get("calls", 0) == 0]
    if silent:
        summary["problems"].append(f"declared spans recorded no calls: {silent}")
    steps = trace["adapt_step_ms"]
    values = {
        "trace.wall_ref_s_untraced": plain.get("wall_ref_s", 0.0),
        "trace.wall_ref_s_traced": trace["wall_ref_s"],
        "trace.overhead_s": trace["wall_ref_s"] - plain.get("wall_ref_s", 0.0),
        "trace.spans": trace["span_count"],
        "pipeline.critic_step_ms": steps["critic_step"],
        "pipeline.encoder_step_ms": steps["encoder_step"],
    }
    values.update(trace["counters"])
    values.update(trace["ops"])
    for kind, seen in trace["step_nodes"].items():
        values[f"autodiff.nodes.{kind}"] = max(int(n) for n in seen)
    for kind, seen in trace["step_nodes_since_reset"].items():
        values[f"autodiff.nodes.{kind}.step"] = max(int(n) for n in seen)
    values["autodiff.nodes.critic_step.leaf"] = trace["step_ops"].get("critic_step", {}).get("leaf", 0)
    for name, stats in spans.items():
        for field in ("calls", "s", "self_s"):
            values[f"{name}.{field}"] = stats[field]
    for sub in workloads.STAGED_SUBCOMMANDS:
        values.setdefault(f"cli.{sub}.s", 0.0)
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    if not os.path.isfile(os.path.join(ROOT, "src", "mdda", "__init__.py")):
        print(f"perfbench: no mdda package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    work = os.path.join(WORK, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "why": workloads.WORKLOADS[args.workload].why, "environment": environment(),
               "problems": []}
    try:
        values = (traced if args.trace else untraced)(args, work, deadline, summary)
    except Unmeasurable as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 2

    attempted = len(summary["ops"])
    failed = sum(not op["ok"] for op in summary["ops"])
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    summary["metrics"] = metrics
    with open(os.path.join(work, "run.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)

    env = summary["environment"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"operations={attempted} failed={failed} failed_frac={failed / attempted:g}")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    if "wall_s" in summary:
        print(f"  {'wall_s (not scaled)':40s} {summary['wall_s']:.6g} s")
    print(f"  output sha256: {summary['sha256']}")
    for problem in summary["problems"]:
        print(f"  FAILED CHECK: {problem}")
    correct = not summary["problems"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
