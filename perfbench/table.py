"""Runs every workload untraced, one after another, and prints one row each
with setup_s, wall_s, wall_ref_s, peak_rss_mb, failed_frac and acc_mdda and
their units (wall_s is the unscaled median, from the run's ``run.json``).

    python3 perfbench/table.py [--seed N] [--seconds S]

``--seconds`` defaults to ``run_seconds`` of BENCHMARK.json.  Exits 1 if any
run failed a check.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
COLUMNS = (("setup_s", "s"), ("wall_s", "s"), ("wall_ref_s", "s"), ("peak_rss_mb", "MB"),
           ("failed_frac", "1"), ("acc_mdda", "fraction"))


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()

    print(f"{'workload':12s} " + " ".join(f"{f'{name} [{unit}]':>20s}" for name, unit in COLUMNS))
    status = 0
    for workload in (w["name"] for w in bench["workloads"]):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 2 or not lines:
            print(f"{workload:12s} not measured: {proc.stderr.strip()}")
            status = 1
            continue
        result = json.loads(lines[-1])
        values = {name: m["value"] for name, m in result["metrics"].items()}
        values["failed_frac"] = result["failed"] / result["attempted"]
        with open(os.path.join(ROOT, ".perfbench_work", workload, "run.json"), encoding="utf-8") as fh:
            values["wall_s"] = json.load(fh)["wall_s"]
        print(f"{workload:12s} " + " ".join(f"{values[name]:20.6g}" for name, _ in COLUMNS))
        if not result["correct"]:
            status = 1
            print("\n".join(line for line in lines if "FAILED CHECK" in line))
    return status


if __name__ == "__main__":
    sys.exit(main())
