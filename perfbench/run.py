"""povmsim benchmark: four workloads, end-to-end metrics, and a traced run.

Run from the root of a checkout::

    python3 perfbench/run.py --workload certify_corpus --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer ones.  ``--workload all`` runs every workload in turn.  The
program under test is the source tree in ``src/``; nothing is installed.
The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is the full
report (run metadata, tail percentiles, failures, set-up samples).

This file uses the standard library only.  Measuring happens in
``worker.py`` subprocesses, one at a time.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import summary

HERE = Path(__file__).resolve().parent
ROOT = summary.ROOT
# A run is PROCESSES measuring processes in turn, each timed for an equal
# share of --seconds, with their ops pooled: speed differs from one process
# to the next on a shared machine, and pooling averages that out.  Set-up
# is timed in each of them; setup_s is the median.
PROCESSES = 3
WORKER_TIMEOUT_S = 150
BLAS_THREADS = "1"


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def spawn(args: list[str], timeout: float) -> tuple[float, list[str]]:
    """Run a worker; return seconds from spawn to its READY line, and its stdout."""
    lines: list[tuple[float, str]] = []
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
    )

    def pump():
        for line in proc.stdout:
            lines.append((time.perf_counter(), line.rstrip("\n")))

    reader = threading.Thread(target=pump)
    reader.start()
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"worker {args} exceeded {timeout} s")
    finally:
        reader.join()
        proc.stdout.close()
    if code != 0:
        raise BenchError(f"worker {args} exited with code {code}")
    ready = [t for t, line in lines if line == "READY"]
    if not ready:
        raise BenchError(f"worker {args} never reported READY")
    return ready[0] - t0, [line for _, line in lines]


def metadata() -> dict:
    src = ROOT / "src"
    files = sorted(p for p in src.rglob("*") if p.is_file() and "__pycache__" not in p.parts)
    digest = hashlib.sha256()
    for p in files:
        digest.update(str(p.relative_to(src)).encode() + b"\0" + p.read_bytes())
    lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in files if p.suffix == ".py")
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        commit = proc.stdout.strip() or None
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": int(BLAS_THREADS),
        "python": platform.python_version(),
        **versions,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_py_lines": lines,
        "platform": platform.platform(),
    }


def measure(common: list[str], seconds: float) -> dict:
    """End-to-end metrics pooled over PROCESSES measuring processes."""
    setups, phases, results = [], [], []
    for k in range(PROCESSES):
        setup_s, out = spawn(common + ["--seconds", str(seconds / PROCESSES)], WORKER_TIMEOUT_S)
        result = json.loads(out[-1])
        setups.append(setup_s)
        phases.append(result["phase"])
        results.append(result)
        for f in result["phase"]["failures"]:
            f["process"] = k
    # cli_cold: each process checks repeats against its own first stdout of
    # a subcommand; these first outputs must agree across processes too.
    digests = [r["report"].get("stdout_sha256", {}) for r in results]
    for k in range(1, PROCESSES):
        for cmd in sorted(digests[k]):
            if digests[k][cmd] != digests[0].get(cmd):
                phases[k]["failed"] += 1
                phases[k]["failures"].append({
                    "op": None, "input": f"first {cmd} invocation", "process": k,
                    "reason": "stdout differs from measuring process 0",
                })
    phase = summary.merge(phases)
    metrics = summary.end_to_end(phase)
    report = dict(results[0]["report"])
    report["op_tail"] = metrics.pop("tail")
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = max(r["peak_rss_mb"] for r in results)
    report["processes"] = [
        dict(summary.phase_summary(p), **{k: v for k, v in r["report"].items() if k == "warmup_find_frame_ms"})
        for p, r in zip(phases, results)
    ]
    report["setup_samples_s"] = setups
    return {
        "metrics": metrics,
        "attempted": phase["attempted"],
        "failed": phase["failed"],
        "failures": phase["failures"],
        "report": report,
    }


def run_workload(name: str, seed: int, seconds: float, trace: int, units: dict) -> dict:
    common = ["--workload", name, "--seed", str(seed), "--trace", str(trace)]
    if trace:
        result = json.loads(spawn(common + ["--seconds", str(seconds)], WORKER_TIMEOUT_S)[1][-1])
    else:
        result = measure(common, seconds)
    metrics, report = result["metrics"], result["report"]
    if set(metrics) != set(units):
        raise BenchError(
            f"{name}: metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json"
        )
    report["failures"] = result["failures"]
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
        "report": report,
    }


def main() -> int:
    spec = summary.load_spec()
    workloads = tuple(w["name"] for w in spec["workloads"])
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "povmsim" / "__init__.py").is_file():
        print(f"error: no povmsim source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    names = workloads if args.workload == "all" else (args.workload,)
    meta = metadata()
    try:
        results = {n: run_workload(n, args.seed, args.seconds, args.trace, units) for n in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, res in results.items():
        print(f"== {name} (seed {args.seed}, trace {args.trace})")
        for metric, v in res["metrics"].items():
            print(f"  {metric:44s} {v['value']:>14.6g} {v['unit']}")
        print(f"  attempted {res['attempted']}, failed {res['failed']}")
        for f in res["report"]["failures"]:
            where = f"op {f['op']}" + (f" of process {f['process']}" if "process" in f else "")
            print(f"  FAILED {where} [{f['input']}]: {f['reason']}")
    print(json.dumps({"metadata": meta, "reports": {n: r["report"] for n, r in results.items()}}))
    if len(results) == 1:
        (res,) = results.values()
        metrics = res["metrics"]
    else:
        metrics = {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()}
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
