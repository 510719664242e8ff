"""One measuring process: set up a workload, print READY, run, print results.

Started by ``run.py`` with ``src`` on ``PYTHONPATH`` and BLAS pinned to one
thread.  The last stdout line is a JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
from pathlib import Path

import summary
from tracing import NullTracer, Tracer

WORKLOADS = tuple(w["name"] for w in summary.load_spec()["workloads"])
# Fixed work for the traced run: cycles of the workload itself (run once
# untraced and once traced), and of each other workload as a short probe.
TRACE_CYCLES = {"cli_cold": 2, "certify_corpus": 20, "sample_stream": 4, "werner_tables": 30}
PROBE_CYCLES = {"cli_cold": 1, "certify_corpus": 4, "sample_stream": 1, "werner_tables": 4}


def make_workload(name: str, root: Path, seed: int, workdir: Path):
    if name == "cli_cold":
        from cli_cold import CliCold

        return CliCold(root, seed, dict(os.environ), workdir)
    import inprocess
    import povmsim

    if not Path(povmsim.__file__).resolve().is_relative_to(root / "src"):
        raise SystemExit(f"povmsim was imported from {povmsim.__file__}, not {root / 'src'}")
    if name == "certify_corpus":
        return inprocess.CertifyCorpus(seed)
    if name == "sample_stream":
        return inprocess.SampleStream(seed, root)
    return inprocess.WernerTables(seed)


def peak_rss_mb(name: str) -> float:
    who = resource.RUSAGE_CHILDREN if name == "cli_cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def untraced(wl, args) -> dict:
    """The raw timed phase; ``run.py`` pools the phases of several processes."""
    phase = summary.timed_loop(wl, NullTracer(), summary.schedule(wl), seconds=args.seconds)
    report = {"unit": wl.unit}
    if hasattr(wl, "reference"):
        # cli_cold's first stdout per subcommand, for run.py to compare across processes.
        report["stdout_sha256"] = {
            cmd: hashlib.sha256(out).hexdigest() for cmd, out in wl.reference.items()
        }
    return {"phase": phase, "peak_rss_mb": peak_rss_mb(args.workload), "report": report}


def traced(wl, args, root: Path, workdir: Path) -> dict:
    import layers

    # Each cycle of the schedule runs twice, untraced and traced, in an
    # order that alternates from cycle to cycle: both passes do the same
    # work, and drift in machine speed falls on both sides alike.
    tracer = Tracer()
    plain, spanned = [], []
    blocks = summary.schedule(wl)
    for k in range(TRACE_CYCLES[args.workload]):
        block = next(blocks)
        passes = [(NullTracer(), plain), (tracer, spanned)]
        for tr, sink in passes if k % 2 == 0 else passes[::-1]:
            sink.append(summary.timed_loop(wl, tr, iter([block]), cycles=1))
    plain, spanned = summary.merge(plain), summary.merge(spanned)
    phases = {"untraced": plain, "traced": spanned}
    for other in WORKLOADS:
        if other != args.workload:
            probe = make_workload(other, root, args.seed, workdir)
            phases[f"probe.{other}"] = summary.timed_loop(
                probe, tracer, summary.schedule(probe), cycles=PROBE_CYCLES[other]
            )
    layers.micro_probes(tracer, args.seed)
    tight_share, tight_missed = layers.tight_probe(tracer, args.seed)
    probes = layers.import_probes(root, dict(os.environ), args.seed)
    metrics, details = layers.derive(tracer, probes)
    metrics["frames.tight_certified_share"] = tight_share
    metrics["trace.overhead_share"] = spanned["wall_s"] / plain["wall_s"] - 1.0
    out_dir = root / "perfbench" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    spans_path = out_dir / f"spans-{args.workload}-{args.seed}.jsonl"
    tracer.write(spans_path)
    return {
        "metrics": metrics,
        "attempted": sum(p["attempted"] for p in phases.values()),
        "failed": sum(p["failed"] for p in phases.values()),
        "failures": [dict(f, phase=k) for k, p in phases.items() for f in p["failures"]],
        "report": {
            "phases": {k: summary.phase_summary(p) for k, p in phases.items()},
            "tails": details,
            "self_times": tracer.self_times(),
            "layer_self_s": tracer.layer_self_times(),
            "first_calls_ms": probes["_first_calls_ms"],
            "import_samples_s": probes["_import_samples_s"],
            "tight_frame_not_found": tight_missed,
            "spans_file": str(spans_path.relative_to(root)),
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    root = summary.ROOT
    workdir = root / "perfbench" / "out" / f"work-{os.getpid()}"
    try:
        wl = make_workload(args.workload, root, args.seed, workdir)
        print("READY", flush=True)
        result = traced(wl, args, root, workdir) if args.trace else untraced(wl, args)
        report = result["report"]
        report["route_mix"] = wl.route_mix()
        if hasattr(wl, "warmup_ms"):
            report["warmup_find_frame_ms"] = [round(x, 3) for x in wl.warmup_ms]
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
