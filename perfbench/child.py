"""One workload process: set up, then run the workload's operation once.

Run by ``run.py`` in a fresh interpreter per operation:

    python3 perfbench/child.py --workload NAME --seed N --dir DIR --mode MODE

MODE is ``setup`` (set up and exit), ``plain`` (run the operation) or
``traced`` (run it under the span tracer, then the op micro-bench).  With
``--cpu`` the operation and its speedometer are pinned to that CPU.  The
process writes ``result.json`` into DIR; the workload's files go to
``DIR/out``.  Set-up ends at ``ready``, a CLOCK_MONOTONIC reading that the
parent compares with its own reading taken before it started the process.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--mode", choices=("setup", "plain", "traced"), required=True)
    parser.add_argument("--cpu", type=int, help="CPU that the operation is pinned to")
    args = parser.parse_args()

    sys.path.insert(0, SRC)
    import mdda
    import mdda.experiment

    if not os.path.abspath(mdda.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported mdda from {mdda.__file__}, not from {SRC}")
    sys.path.insert(0, HERE)
    import workloads
    from speedometer import Speedometer

    cfg = workloads.build_config(args.workload, args.seed)
    config_path = os.path.join(args.dir, "exp.json")
    mdda.experiment.save_config(cfg, config_path)
    result = {"ready": time.monotonic()}

    if args.mode != "setup":
        out_dir = os.path.join(args.dir, "out")
        tracer = None
        if args.mode == "traced":
            import tracer as tracing

            tracer = tracing.Tracer()
            tracer.install()
        if args.cpu is not None:
            os.sched_setaffinity(0, {args.cpu})
        with Speedometer() as speed:
            t0 = time.perf_counter()
            try:
                workloads.run_operation(args.workload, cfg, config_path, out_dir)
            finally:
                wall = time.perf_counter() - t0
                if tracer is not None:
                    tracer.uninstall()
        result["wall_s"] = wall
        result["wall_ref_s"] = speed.wall_ref_s(wall)
        result["speed_samples"] = len(speed.samples)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            import opbench

            tracer.write(args.dir, t0)
            result["spans"] = tracer.summary()
            result["span_count"] = len(tracer.span_name)
            result["adapt_step_ms"] = {
                kind: statistics.median(ms) if ms else 0.0 for kind, ms in tracer.adapt_step_ms().items()
            }
            result["counters"] = dict(tracer.counters)
            result["step_nodes"] = {k: dict(v) for k, v in tracer.step_nodes.items()}
            result["step_nodes_since_reset"] = {k: dict(v) for k, v in tracer.step_since_reset.items()}
            result["step_ops"] = tracer.step_ops
            result["ops"] = opbench.run()

    with open(os.path.join(args.dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)


if __name__ == "__main__":
    main()
