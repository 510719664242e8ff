"""The timed loop, and the order statistics that turn its phases into metrics.

Standard library only: ``run.py`` pools phases from several processes here.
"""

from __future__ import annotations

import json
import statistics
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TAIL_BEYOND = 10
TAIL_WINDOWS = 5
TAIL_WINDOW_MIN = 200


def load_spec() -> dict:
    """``BENCHMARK.json``: the one list of workloads and metrics."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def median(values) -> float:
    return float(statistics.median(values)) if values else float("nan")


def tail(values, beyond: int = TAIL_BEYOND) -> dict:
    """The highest percentile that still has ``beyond`` samples above it.

    With ``n`` samples sorted ascending this is the sample of rank
    ``n - beyond`` (1-based), i.e. percentile ``100 (n - beyond) / n``.
    With ``n <= beyond`` no sample qualifies; the minimum is returned and
    ``short`` is set.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        return {"value": float("nan"), "percentile": 0.0, "samples": 0, "short": True}
    rank = max(n - beyond, 1)
    return {
        "value": float(xs[rank - 1]),
        "percentile": round(100.0 * rank / n, 3),
        "samples": n,
        "short": n <= beyond,
    }


class OpResult:
    """Outcome of one op: program time, units of work, and a failure reason."""

    __slots__ = ("latency_s", "units", "failure")

    def __init__(self, latency_s: float, units: int, failure: str | None = None):
        self.latency_s = latency_s
        self.units = units
        self.failure = failure


def run_op(workload, op, tracer) -> OpResult:
    """Run one op; any exception is recorded as the op's failure, never raised."""
    with tracer.op(op["kind"]):
        try:
            return workload.run_op(op, tracer)
        except Exception as exc:  # the loop must keep running; the failure is reported
            where = traceback.extract_tb(exc.__traceback__)[-1]
            reason = f"{type(exc).__name__}: {exc} (at {where.filename}:{where.lineno})"
            return OpResult(float("nan"), 0, reason)


def schedule(workload):
    """Successive cycles of the workload's op schedule, as lists of ops.

    One generator per workload instance: each cycle taken from it moves on
    through the workload's inputs.
    """
    ops = workload.ops()
    while True:
        yield [next(ops) for _ in range(workload.cycle_len)]


def timed_loop(workload, tracer, blocks, seconds: float | None = None, cycles: int | None = None) -> dict:
    """Closed loop over whole cycles taken from ``blocks`` (see ``schedule``).

    With ``seconds`` a new cycle starts only while it is expected to end in
    time (at least one cycle always runs), so every run covers the same op
    mix.  With ``cycles`` exactly that many cycles run.
    """
    results, failures = [], []
    start = time.perf_counter()
    done = 0
    while True:
        elapsed = time.perf_counter() - start
        if cycles is not None and done >= cycles:
            break
        if seconds is not None and done and elapsed + elapsed / done > seconds:
            break
        for op in next(blocks):
            res = run_op(workload, op, tracer)
            if res.failure is not None:
                failures.append({"op": len(results), "input": op["label"], "reason": res.failure})
            results.append(res)
        done += 1
    wall = time.perf_counter() - start
    latencies = [r.latency_s for r in results if r.failure is None]
    return {
        "wall_s": wall,
        "cycles": done,
        "attempted": len(results),
        "failed": len(failures),
        "units": sum(r.units for r in results if r.failure is None),
        "latencies_s": latencies,
        "failures": failures,
    }


def phase_summary(phase: dict) -> dict:
    return {k: v for k, v in phase.items() if k not in ("latencies_s", "failures")}


def merge(phases: list[dict]) -> dict:
    """One phase from several phases run back to back."""
    out = {key: sum(p[key] for p in phases) for key in ("wall_s", "cycles", "attempted", "failed", "units")}
    out["latencies_s"] = [x for p in phases for x in p["latencies_s"]]
    out["failures"] = [f for p in phases for f in p["failures"]]
    return out


def windowed_tail(values, windows: int = TAIL_WINDOWS, per_window: int = TAIL_WINDOW_MIN) -> dict:
    """Median over consecutive windows of each window's ``tail``.

    The run is cut, in op order, into as many windows (at most ``windows``)
    as leave ``per_window`` samples in each; a burst of contention from
    outside the benchmark then moves one window's tail, not the median.
    """
    k = max(1, min(windows, len(values) // per_window))
    size = len(values) // k
    parts = [tail(values[i * size:(i + 1) * size if i < k - 1 else None]) for i in range(k)]
    return {
        "value": median([p["value"] for p in parts]),
        "windows": parts,
        "whole_run": tail(values),
    }


def end_to_end(phase: dict) -> dict:
    """The end-to-end metrics a timed phase yields (all but set-up and memory)."""
    lat_ms = [1e3 * x for x in phase["latencies_s"]]
    t = windowed_tail(lat_ms)
    return {
        "throughput_per_s": phase["units"] / phase["wall_s"],
        "op_p50_ms": median(lat_ms),
        "op_tail_ms": t["value"],
        "ok_ratio": (phase["attempted"] - phase["failed"]) / phase["attempted"],
        "tail": t,
    }
