"""Workload ``cli_cold``: one client running ``python -m povmsim`` in a loop.

Each op is a fresh interpreter, so it pays the package import and the
first-call costs (rotation grid, first grid scans) that a CLI user pays on
every invocation.  This module does not import povmsim itself.
"""

from __future__ import annotations

import itertools
import json
import math
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import inputs
from summary import OpResult

COMMANDS = ("verify", "simulate", "werner", "chsh", "random")
# One cycle: the sampling subcommands run with 1 and with 2 workers.
CYCLE = (
    ("verify", None), ("simulate", 1), ("simulate", 2), ("werner", 1), ("werner", 2),
    ("chsh", None), ("random", None),
)
SAMPLES = 20_000
TIMEOUT_S = 120
_WORKERS_FIELD = re.compile(rb'"workers": \d+')


class CliCold:
    cycle_len = len(CYCLE)
    unit = "invocations"

    def __init__(self, root: Path, seed: int, env: dict, workdir: Path):
        self.root, self.env = root, env
        rng = np.random.default_rng([seed, 10])
        fixtures = root / "src" / "povmsim" / "fixtures"
        workdir.mkdir(parents=True, exist_ok=True)
        verify_doc = inputs.closed(rng, 6)
        alice_doc = inputs.split(rng, 5)
        (workdir / "verify.json").write_text(json.dumps(verify_doc), encoding="utf-8")
        (workdir / "alice.json").write_text(json.dumps(alice_doc), encoding="utf-8")
        state = 0.8 * inputs.unit_vectors(rng, 1)[0]
        self.eta = float(rng.uniform(0.05, 1.0))
        self.n_random = int(rng.integers(5, 13))
        cli_seed = str(int(rng.integers(0, 2**31)))
        self.argv = {
            "verify": ["verify", "-p", str(workdir / "verify.json")],
            "simulate": [
                "simulate", "-p", str(fixtures / "sic.json"),
                # One token: argparse reads a leading "-0.3,..." as an option.
                "--state=" + ",".join(repr(float(x)) for x in state),
                "-n", str(SAMPLES), "--seed", cli_seed,
            ],
            "werner": [
                "werner", "--alice", str(workdir / "alice.json"),
                "--bob", str(fixtures / "trine.json"),
                "-n", str(SAMPLES), "--seed", cli_seed,
            ],
            "chsh": ["chsh", "--eta", repr(self.eta)],
            "random": ["random", str(self.n_random), "--seed", cli_seed],
        }
        # First stdout seen per subcommand, with the workers count masked;
        # every later invocation, repeat or other worker count, must
        # reproduce it byte for byte.
        self.reference: dict[str, bytes] = {}

    def route_mix(self) -> dict:
        # verify (closed, 6), simulate (SIC) twice, werner (Alice split, 5) twice.
        return {"per_cycle": {"minimax": 5}}

    def ops(self):
        for cmd, workers in itertools.cycle(CYCLE):
            argv = list(self.argv[cmd])
            if workers is not None:
                argv += ["--workers", str(workers)]
            yield {"kind": cmd, "argv": argv, "label": " ".join(["povmsim"] + argv)}

    def run_op(self, op, tracer) -> OpResult:
        cmd = op["kind"]
        argv = [sys.executable, "-m", "povmsim"] + op["argv"]
        with tracer.span(f"cli.{cmd}"):
            t0 = time.perf_counter()
            proc = subprocess.run(
                argv, cwd=self.root, env=self.env, capture_output=True, timeout=TIMEOUT_S
            )
            latency = time.perf_counter() - t0
        return OpResult(latency, 1, self.check(cmd, proc))

    def check(self, cmd: str, proc) -> str | None:
        if proc.returncode != 0:
            err = proc.stderr.decode(errors="replace").strip().splitlines()
            return f"exit code {proc.returncode}: {err[-1] if err else ''}"
        masked = _WORKERS_FIELD.sub(b'"workers": W', proc.stdout)
        ref = self.reference.setdefault(cmd, masked)
        if masked != ref:
            return "stdout differs from the first invocation of the same command"
        out = json.loads(proc.stdout)
        if cmd == "random":
            return inputs.check_document(out, self.n_random)
        if cmd == "chsh":
            expected = 2.0 * math.sqrt(2.0) * self.eta
            if abs(out["value"] - expected) > 1e-10 or out["violates"] != (out["value"] > 2.0):
                return f"chsh value {out['value']!r}, expected {expected!r}"
            return None
        if out.get("passed") is not True:
            return "report says passed=false"
        if cmd == "verify" and not (
            out["residuals"]["max"] <= 1e-10 and out["certificate"]["max_value"] <= 1.0 + 1e-9
        ):
            return "verify residual or certificate out of tolerance"
        if cmd == "werner" and not out["max_deviation"] <= 1e-10:
            return f"werner deviation {out['max_deviation']!r}"
        return None
