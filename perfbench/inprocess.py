"""In-process workloads: ``certify_corpus``, ``sample_stream``, ``werner_tables``.

Each workload builds its inputs from the seed, warms up, and then serves
ops from a fixed cyclic schedule.  An op's latency covers the povmsim calls
only; the benchmark's own correctness checks run after the clock stops.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from pathlib import Path

import numpy as np

from povmsim import (
    build_table,
    chi_squared_test,
    chsh_optimal_settings,
    chsh_value,
    find_frame,
    lhs_model,
    povm_from_dict,
    simulate_statistics,
    validate,
    verify_decomposition,
    werner_joint_quantum,
    z_scores,
)

import inputs
from summary import OpResult
from tracing import NullTracer

FRAME_ATOL = 1e-9
RESIDUAL_ATOL = 1e-10
# Two-sided normal tail beyond 5.5 is 3.8e-8 per cell; the chi-squared
# p-value floor is a 1e-6 false-failure rate per call.
Z_LIMIT = 5.5
CHI2_PVALUE_FLOOR = 1e-6
WARMUP_FRAMES = 24


def warm_frames(seed: int) -> list[float]:
    """Fresh-process warm-up of the frame search, timed per call in ms.

    The first dozen or so scans of the rotation grid in a process run far
    slower than later ones, and the grid itself is built on the first call.
    """
    rng = np.random.default_rng([seed, 99])
    times = []
    for k in range(WARMUP_FRAMES):
        povm = povm_from_dict(inputs.closed(rng, 4 + (k * 7) % 27))
        t0 = time.perf_counter()
        find_frame(povm)
        times.append(1e3 * (time.perf_counter() - t0))
    return times


def _count_routes(members) -> dict:
    """Frame-search calls per route for (family, outcome count) members."""
    mix: dict = {}
    for family, n in members:
        route = inputs.expected_route(family, n)
        mix[route] = mix.get(route, 0) + 1
    return mix


def _check_table(cpt) -> str | None:
    table = cpt.table
    if table.min() < 0.0 or table.max() > 1.0:
        return "table entry outside [0, 1]"
    if np.max(np.abs(table.sum(axis=1) - 1.0)) > 1e-12:
        return "table rows do not sum to 1"
    # Reconstruction, computed here independently of verify_decomposition.
    p, a = cpt.povm.weights, cpt.povm.directions
    verts = cpt.frame.cube.vertices
    recon_t = table.sum(axis=0) / 8.0
    recon_w = table.T @ verts / 16.0
    gap = max(np.max(np.abs(recon_t - p / 2.0)), np.max(np.abs(recon_w - p[:, None] * a / 4.0)))
    if gap > RESIDUAL_ATOL:
        return f"table reconstructs the noisy POVM only to {gap:.3g}"
    return None


# ---------------------------------------------------------------------------


class CertifyCorpus:
    """Load, validate, certify a frame, build and verify the table, per document."""

    unit = "POVMs"
    # One cycle of the corpus: (family, outcome count).  Two-outcome,
    # coplanar 3/4, general-position 4, and 5-30 outcomes from the two
    # general families, so all three routes and the refinement tail run.
    BLOCK = (
        ("two_outcome", 2), ("coplanar", 3), ("coplanar", 4), ("closed", 4), ("closed", 4),
        ("two_outcome", 2), ("coplanar", 3), ("coplanar", 4), ("closed", 4), ("closed", 4),
        ("closed", 5), ("closed", 7), ("closed", 10), ("closed", 14), ("closed", 20), ("closed", 30),
        ("split", 5), ("split", 6), ("split", 8), ("split", 10), ("split", 16), ("split", 24),
    )
    N_BLOCKS = 100
    cycle_len = len(BLOCK)

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 1])
        self.corpus = []
        for b in range(self.N_BLOCKS):
            for k, (family, n) in enumerate(self.BLOCK):
                self.corpus.append(
                    {
                        "kind": "certify",
                        "doc": inputs.make(rng, family, n),
                        "n": n,
                        "route": inputs.expected_route(family, n),
                        "label": f"block {b} item {k}: {family} n={n}",
                    }
                )
        self.warmup_ms = warm_frames(seed)

    def ops(self):
        return itertools.cycle(self.corpus)

    def route_mix(self) -> dict:
        return {"per_cycle": _count_routes(self.BLOCK)}

    def run_op(self, op, tracer) -> OpResult:
        t0 = time.perf_counter()
        with tracer.span("povm.load_validate", n=op["n"]):
            povm = povm_from_dict(op["doc"])
            report = validate(povm)
        with tracer.span("frames.find_frame", n=op["n"]) as span:
            frame = find_frame(povm)
        with tracer.span("jointmeas.build_table"):
            cpt = build_table(povm, frame)
        with tracer.span("jointmeas.verify_decomposition") as vspan:
            decomposition = verify_decomposition(cpt)
        latency = time.perf_counter() - t0
        route = inputs.ROUTES[frame.method.value]
        span.set(route=route, margin=1.0 - frame.max_value)
        vspan.set(residual=decomposition.max_residual)
        failure = None
        if not report.passed:
            failure = "validate() rejected a valid POVM"
        elif route != op["route"]:
            failure = f"dispatched to {route}, expected {op['route']}"
        elif frame.max_value > 1.0 + FRAME_ATOL:
            failure = f"certificate max_value {frame.max_value!r}"
        elif not decomposition.passed:
            failure = f"verify_decomposition residual {decomposition.max_residual:.3g}"
        else:
            failure = _check_table(cpt)
        return OpResult(latency, 1, failure)


# ---------------------------------------------------------------------------


class SampleStream:
    """Monte Carlo calls on pre-certified frames, alternating worker counts."""

    unit = "samples"
    SAMPLES = 1 << 21  # 16 chunks of the package's 2**17 sampling chunk
    SCHEDULE = (("sic", 1), ("sic", 2), ("p16", 1), ("p16", 2), ("lhs", 1), ("lhs", 2))
    cycle_len = len(SCHEDULE)

    def __init__(self, seed: int, root: Path):
        rng = np.random.default_rng([seed, 2])
        sic_doc = json.loads((root / "src/povmsim/fixtures/sic.json").read_text(encoding="utf-8"))
        self.povms = {"sic": povm_from_dict(sic_doc), "p16": povm_from_dict(inputs.closed(rng, 16))}
        self.frames = {key: find_frame(p) for key, p in self.povms.items()}
        self.alice = povm_from_dict(inputs.closed(rng, 4))
        self.bob = povm_from_dict(inputs.split(rng, 6))
        self.model = lhs_model(self.alice, self.bob)
        self.state = 0.8 * inputs.unit_vectors(rng, 1)[0]
        self.call_seed = int(rng.integers(0, 2**31))
        # Independent targets for the checks.
        self.born = {
            key: p.weights / 2.0 * (1.0 + 0.5 * p.directions @ self.state)
            for key, p in self.povms.items()
        }
        self.joint = (
            np.outer(self.alice.weights, self.bob.weights)
            / 4.0
            * (1.0 - 0.5 * self.alice.directions @ self.bob.directions.T)
        )
        # Warm-up: one chunk of each call, both worker counts.
        for target, workers in self.SCHEDULE:
            self._call(target, workers, 1 << 17, self.call_seed, NullTracer())

    def route_mix(self) -> dict:
        members = [("closed", 4), ("closed", 16), ("closed", 4)]  # SIC, p16, Alice
        return {"setup": _count_routes(members), "per_cycle": {}}

    def ops(self):
        for k in itertools.count():
            target, workers = self.SCHEDULE[k % self.cycle_len]
            yield {
                "kind": f"{target}.w{workers}",
                "target": target,
                "workers": workers,
                "seed": self.call_seed + k,
                "label": f"{target} workers={workers} samples={self.SAMPLES} seed={self.call_seed + k}",
            }

    def _call(self, target, workers, n, seed, tracer):
        if target == "lhs":
            with tracer.span("werner.sample_counts", workers=workers, samples=n):
                counts = self.model.sample_counts(n, seed, workers=workers)
            with tracer.span("stats.chi_squared_test"):
                chi = chi_squared_test(counts, self.joint)
            with tracer.span("stats.z_scores"):
                z = z_scores(counts.ravel(), self.joint.ravel(), n)
            return counts.ravel(), None, z, chi.pvalue
        with tracer.span("jointmeas.simulate_statistics", workers=workers, samples=n):
            report = simulate_statistics(
                self.povms[target], self.state, n, seed, workers=workers, frame=self.frames[target]
            )
        return report.counts, report.born, report.z, None

    def run_op(self, op, tracer) -> OpResult:
        n = self.SAMPLES
        t0 = time.perf_counter()
        counts, targets, z_prog, pvalue = self._call(
            op["target"], op["workers"], n, op["seed"], tracer
        )
        latency = time.perf_counter() - t0
        probs = self.joint.ravel() if targets is None else self.born[op["target"]]
        if targets is not None and np.max(np.abs(targets - probs)) > 1e-12:
            return OpResult(latency, n, "Born targets disagree with the closed form")
        if int(counts.sum()) != n:
            return OpResult(latency, n, f"counts sum to {int(counts.sum())}, expected {n}")
        live = probs > 0
        z = (counts[live] - n * probs[live]) / np.sqrt(n * probs[live] * (1.0 - probs[live]))
        if np.max(np.abs(z - z_prog[live])) > 1e-6:
            return OpResult(latency, n, "program z-scores differ from the benchmark's")
        if np.max(np.abs(z)) > Z_LIMIT:
            return OpResult(latency, n, f"max |z| = {np.max(np.abs(z)):.2f} > {Z_LIMIT}")
        if pvalue is not None and pvalue < CHI2_PVALUE_FLOOR:
            return OpResult(latency, n, f"chi-squared p = {pvalue:.3g} < {CHI2_PVALUE_FLOOR}")
        return OpResult(latency, n)


# ---------------------------------------------------------------------------


class WernerTables:
    """Quantum Werner table against the hidden-state model, plus CHSH values."""

    unit = "ops"
    # (Alice family, n_a, Bob family, n_b); "chsh" marks a CHSH evaluation.
    BLOCK = (
        ("two_outcome", 2, "closed", 6),
        ("two_outcome", 2, "split", 16),
        ("closed", 4, "two_outcome", 2),
        ("split", 5, "closed", 10),
        "chsh",
        ("closed", 8, "coplanar", 3),
        ("split", 12, "closed", 16),
        ("closed", 20, "split", 8),
        ("closed", 30, "closed", 30),
        "chsh",
    )
    N_BLOCKS = 100
    cycle_len = len(BLOCK)

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 3])
        settings = chsh_optimal_settings()
        self.schedule = []
        for b in range(self.N_BLOCKS):
            for k, item in enumerate(self.BLOCK):
                if item == "chsh":
                    rot = inputs.random_rotation(rng)
                    eta = float(rng.uniform(0.0, 1.0))
                    self.schedule.append(
                        {
                            "kind": "chsh",
                            "settings": [rot @ v for v in settings],
                            "eta": eta,
                            "label": f"block {b} item {k}: chsh eta={eta!r}",
                        }
                    )
                    continue
                fa, na, fb, nb = item
                alice = povm_from_dict(inputs.make(rng, fa, na))
                bob = povm_from_dict(inputs.make(rng, fb, nb))
                self.schedule.append(
                    {
                        "kind": "pair",
                        "alice": alice,
                        "bob": bob,
                        "closed_form": np.outer(alice.weights, bob.weights)
                        / 4.0
                        * (1.0 - 0.5 * alice.directions @ bob.directions.T),
                        "label": f"block {b} item {k}: alice {fa} n={na}, bob {fb} n={nb}",
                    }
                )
        self.warmup_ms = warm_frames(seed)

    def route_mix(self) -> dict:
        alices = [(item[0], item[1]) for item in self.BLOCK if item != "chsh"]
        return {"per_cycle": _count_routes(alices)}

    def ops(self):
        return itertools.cycle(self.schedule)

    def run_op(self, op, tracer) -> OpResult:
        if op["kind"] == "chsh":
            t0 = time.perf_counter()
            with tracer.span("werner.chsh_value"):
                value = chsh_value(*op["settings"], op["eta"])
            latency = time.perf_counter() - t0
            expected = 2.0 * math.sqrt(2.0) * op["eta"]
            if abs(value - expected) > 1e-12:
                return OpResult(latency, 1, f"chsh value {value!r}, expected {expected!r}")
            return OpResult(latency, 1)
        alice, bob = op["alice"], op["bob"]
        size = alice.n_outcomes * bob.n_outcomes
        t0 = time.perf_counter()
        with tracer.span("werner.joint_quantum", size=size):
            quantum = werner_joint_quantum(alice, bob, 0.5)
        with tracer.span("werner.lhs_model", n=alice.n_outcomes):
            model = lhs_model(alice, bob)
        with tracer.span("werner.joint_exact") as span:
            exact = model.joint_exact()
        latency = time.perf_counter() - t0
        deviation = float(np.max(np.abs(exact.table - quantum.table)))
        span.set(deviation=deviation)
        if deviation > RESIDUAL_ATOL:
            return OpResult(latency, 1, f"hidden-state table deviates by {deviation:.3g}")
        if np.max(np.abs(quantum.table - op["closed_form"])) > 1e-12:
            return OpResult(latency, 1, "quantum table disagrees with the closed form")
        return OpResult(latency, 1)
