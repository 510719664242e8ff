"""Per-layer metrics of the traced run, derived from spans and small probes.

Layer names follow povmsim's modules: ``povm``, ``frames``, ``jointmeas``,
``bloch``, ``werner``, ``stats`` and ``cli``, plus the package ``import``.
Every number here comes from a span the benchmark recorded around a public
call, or from a probe listed below; nothing is timed inside ``src/``.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

import inputs
from cli_cold import COMMANDS
from summary import median, tail

COLD_PROBES = 3
PROBE_TIMEOUT_S = 60
MICRO_CHUNK = 1 << 17  # the package's Monte Carlo chunk size
MICRO_REPS = 16
TIGHT_PROBES = 100
FRAME_BUCKETS = {"n_le4": (2, 4), "n5to10": (5, 10), "n11to30": (11, 30)}
ROUTES = tuple(inputs.ROUTES.values())
SMALL_PAIR = 64  # n_a * n_b at or below this is a "small" Werner pair
_IMPORTTIME = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s*(\S+)")


def _dur(span) -> float:
    return span["end"] - span["start"]


def _median_of(spans, scale: float) -> float:
    return median([scale * _dur(s) for s in spans])


def import_probes(root: Path, env: dict, seed: int) -> dict:
    """Cold import and first frame search, each in a fresh interpreter."""
    rng = np.random.default_rng([seed, 4])
    docs = json.dumps([inputs.closed(rng, 6), inputs.closed(rng, 6)])
    probe = str(Path(__file__).with_name("probe_cold.py"))
    cold = []
    for _ in range(COLD_PROBES):
        proc = subprocess.run(
            [sys.executable, probe, docs], cwd=root, env=env, capture_output=True,
            text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        cold.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import povmsim"], cwd=root, env=env,
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    cumulative, own = {}, 0
    for line in proc.stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if m:
            self_us, cum_us, module = int(m.group(1)), int(m.group(2)), m.group(3)
            cumulative.setdefault(module, cum_us)
            if module == "povmsim" or module.startswith("povmsim."):
                own += self_us
    return {
        "import.cold_s": median([c["import_s"] for c in cold]),
        "import.scipy_optimize_s": 1e-6 * cumulative.get("scipy.optimize", float("nan")),
        "import.scipy_stats_s": 1e-6 * cumulative.get("scipy.stats", float("nan")),
        "import.povmsim_self_s": 1e-6 * own,
        "frames.first_call_ms": median([1e3 * c["find_frame_s"][0] for c in cold]),
        "_first_calls_ms": [[1e3 * t for t in c["find_frame_s"]] for c in cold],
        "_import_samples_s": [c["import_s"] for c in cold],
    }


def micro_probes(tracer, seed: int) -> None:
    """Direction draws and octant lookup at the sampling chunk size."""
    from povmsim import octant_index, random_unit_vectors

    rng = np.random.default_rng([seed, 5])
    rotation = inputs.random_rotation(rng)
    for _ in range(MICRO_REPS):
        with tracer.span("bloch.random_unit_vectors", samples=MICRO_CHUNK):
            lam = random_unit_vectors(MICRO_CHUNK, rng)
        with tracer.span("jointmeas.octant_index", samples=MICRO_CHUNK):
            octant_index(rotation, lam)


def tight_probe(tracer, seed: int) -> tuple[float, list]:
    """Frame search on near-projective POVMs, the tightest family generated.

    A ``FrameNotFoundError`` here is a search failure on a valid POVM; it is
    counted into ``frames.tight_certified_share``, and the failing documents
    are returned so they can be replayed.
    """
    from povmsim import FrameNotFoundError, find_frame, povm_from_dict

    rng = np.random.default_rng([seed, 6])
    missed = []
    for k in range(TIGHT_PROBES):
        n = (5, 8)[k % 2]
        doc = inputs.make(rng, "near_projective", n)
        povm = povm_from_dict(doc)
        with tracer.span("frames.find_frame_tight", n=n):
            try:
                find_frame(povm)
            except FrameNotFoundError as exc:
                missed.append({"probe": k, "n": n, "reason": str(exc), "doc": doc})
    return 1.0 - len(missed) / TIGHT_PROBES, missed


def _rate(spans) -> float:
    """Units per second over spans that carry a ``samples`` attribute."""
    busy = sum(_dur(s) for s in spans)
    return sum(s["attrs"]["samples"] for s in spans) / busy if busy else float("nan")


def derive(tracer, probes: dict) -> tuple[dict, dict]:
    """Per-layer metrics and the details (tail percentiles, counts) behind them."""
    m: dict = {k: v for k, v in probes.items() if not k.startswith("_")}
    details: dict = {}
    named = tracer.named

    cli = {cmd: named(f"cli.{cmd}") for cmd in COMMANDS}
    for cmd, spans in cli.items():
        m[f"cli.{cmd}_ms"] = _median_of(spans, 1e3)
    every_cli = [_dur(s) for spans in cli.values() for s in spans]
    m["cli.import_share"] = m["import.cold_s"] / median(every_cli)

    m["povm.load_validate_us"] = _median_of(named("povm.load_validate"), 1e6)

    frames = named("frames.find_frame")
    groups = {route: [s for s in frames if s["attrs"]["route"] == route] for route in ROUTES}
    for bucket, (lo, hi) in FRAME_BUCKETS.items():
        groups[bucket] = [s for s in frames if lo <= s["attrs"]["n"] <= hi]
    for key, spans in groups.items():
        ms = [1e3 * _dur(s) for s in spans]
        t = tail(ms)
        m[f"frames.find_frame_p50_ms.{key}"] = median(ms)
        m[f"frames.find_frame_tail_ms.{key}"] = t["value"]
        details[f"frames.find_frame_tail_ms.{key}"] = t
    for route in ROUTES:
        m[f"frames.route_count.{route}"] = len(groups[route])
    certify_ops = [s for s in named("op") if s["attrs"]["kind"] == "certify"]
    m["frames.busy_share"] = sum(map(_dur, frames)) / sum(map(_dur, certify_ops))
    # Two-outcome frames sit at max_value = 1 exactly by construction.
    m["frames.margin_min"] = min(
        s["attrs"]["margin"] for s in frames if s["attrs"]["route"] != "two_outcome"
    )

    m["jointmeas.build_table_us"] = _median_of(named("jointmeas.build_table"), 1e6)
    verify = named("jointmeas.verify_decomposition")
    m["jointmeas.verify_decomposition_us"] = _median_of(verify, 1e6)
    m["jointmeas.max_residual"] = max(s["attrs"]["residual"] for s in verify)
    simulate = named("jointmeas.simulate_statistics")
    for w in (1, 2):
        spans = [s for s in simulate if s["attrs"]["workers"] == w]
        m[f"jointmeas.simulate_samples_per_s.w{w}"] = _rate(spans)
        if w == 2:
            wall = sum(map(_dur, spans))
            m["jointmeas.simulate_cpu_per_wall.w2"] = sum(s["cpu"] for s in spans) / wall
    m["jointmeas.octant_index_per_s"] = _rate(named("jointmeas.octant_index"))
    m["bloch.random_unit_vectors_per_s"] = _rate(named("bloch.random_unit_vectors"))

    quantum = named("werner.joint_quantum")
    m["werner.joint_quantum_ms.small"] = _median_of(
        [s for s in quantum if s["attrs"]["size"] <= SMALL_PAIR], 1e3
    )
    m["werner.joint_quantum_ms.large"] = _median_of(
        [s for s in quantum if s["attrs"]["size"] > SMALL_PAIR], 1e3
    )
    m["werner.lhs_model_ms"] = _median_of(named("werner.lhs_model"), 1e3)
    exact = named("werner.joint_exact")
    m["werner.joint_exact_us"] = _median_of(exact, 1e6)
    m["werner.chsh_value_ms"] = _median_of(named("werner.chsh_value"), 1e3)
    m["werner.max_deviation"] = max(s["attrs"]["deviation"] for s in exact)
    counts = named("werner.sample_counts")
    for w in (1, 2):
        m[f"werner.sample_counts_rounds_per_s.w{w}"] = _rate(
            [s for s in counts if s["attrs"]["workers"] == w]
        )

    m["stats.chi_squared_test_us"] = _median_of(named("stats.chi_squared_test"), 1e6)
    m["stats.z_scores_us"] = _median_of(named("stats.z_scores"), 1e6)
    return m, details
