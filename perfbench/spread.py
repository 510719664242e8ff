"""Run-to-run spread of the end-to-end metrics across seeds.

    python3 perfbench/spread.py --workloads certify_corpus,cli_cold --seeds 1-10

Runs ``run.py`` once per (workload, seed), one after another, and prints
per metric the median and the interquartile range as a share of the median
(quartiles as ``statistics.quantiles(values, n=4)`` gives them), next to
the metric's bound from BENCHMARK.json.  Uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from summary import ROOT, load_spec


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst: dict[str, tuple[float, str]] = {}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {name: [] for name in bounds}
        failed = 0
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            failed += result["failed"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v[-1]:.5g}" for k, v in values.items()), flush=True)
        print(f"== {workload}: {failed} failed ops")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / med if med else float("inf")
            group = "setup" if name == "setup_s" else "gated"
            worst[group] = max(worst.get(group, (0.0, "")), (share / bounds[name], f"{workload} {name}"))
            print(f"  {name:20s} median {med:12.6g}  iqr/median {share:7.4f}  bound {bounds[name]}")
    # The driver bounds the spread of every metric but setup_s; setup_s is
    # bounded only by the drift of its median between two sets of runs.
    for group, label in (("gated", "every metric but setup_s"), ("setup", "setup_s (spread not bounded)")):
        if group in worst:
            share, where = worst[group]
            print(f"largest spread as a share of its bound, {label}: {share:.3f} ({where})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
