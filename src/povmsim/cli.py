"""Command-line interface.

Subcommands::

    povmsim verify  -p POVM.json                 frame + table + reconstruction check
    povmsim simulate -p POVM.json --state X,Y,Z  Monte Carlo vs Born probabilities
    povmsim werner  --alice A.json --bob B.json  hidden-state model vs quantum table
    povmsim chsh    --eta ETA                    CHSH value at the given visibility
    povmsim random  N --seed S --out FILE        generate a random POVM file

Exit codes: 0 success, 1 verification/statistics failure, 2 parse or
validation error, 3 internal failure: a frame that is not a rotation, does
not certify or was certified for another POVM, or a non-finite value in a
report (printed neither as JSON nor as CSV; stdout stays empty).  All
stochastic paths are seeded, so a repeated invocation produces
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

import numpy as np

from . import __version__
from .bloch import VALIDATION_ATOL
from .frames import FrameNotFoundError, find_frame
from .jointmeas import InvalidFrameError, build_table, simulate_statistics, verify_decomposition
from .povm import (
    GenerationFailedError,
    load_povm,
    povm_to_dict,
    random_povm,
    validate,
)
from .stats import chi_squared_test
from .werner import (
    chsh_optimal_settings,
    chsh_value,
    lhs_model,
    werner_joint_quantum,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT = 2
EXIT_FRAME = 3


class NonFiniteOutputError(RuntimeError):
    """A report holds a NaN or an infinity: an internal numerical failure."""


def _fmt(value):
    """Round floats to 12 significant digits, recursively."""
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, np.floating):
        return float(f"{float(value):.12g}")
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.ndarray):
        return _fmt(value.tolist())
    if isinstance(value, dict):
        return {k: _fmt(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_fmt(v) for v in value]
    return value


def _json(document) -> str:
    """Strict JSON text: a NaN or an infinity raises ``NonFiniteOutputError``."""
    try:
        return json.dumps(document, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NonFiniteOutputError(f"report holds a non-finite value ({exc})") from None


def _csv_field(x) -> str:
    if not isinstance(x, float):
        return str(x)
    if not math.isfinite(x):
        raise NonFiniteOutputError(f"report holds a non-finite value ({x})")
    return f"{x:.12g}"


def _write(text: str, out) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(report: dict, csv_rows, args) -> None:
    if args.format == "csv":
        text = "\n".join(",".join(_csv_field(x) for x in row) for row in csv_rows) + "\n"
    else:
        text = _json(_fmt(report))
    _write(text, args.out)


def _parse_vec(text: str) -> np.ndarray:
    parts = [float(x) for x in text.split(",")]
    if len(parts) != 3:
        raise ValueError(f"expected three comma-separated numbers, got {text!r}")
    return np.array(parts)


def _rng_header(seed: int, n_samples: int, workers: int) -> dict:
    from .jointmeas import _MC_CHUNK, _n_chunks

    return {
        "seed": seed,
        "chunk_size": _MC_CHUNK,
        "n_chunks": _n_chunks(n_samples),
        "workers": workers,
        "policy": "seed-sequence spawn per fixed chunk; workers only schedule chunks",
    }


def cmd_verify(args) -> int:
    povm = load_povm(args.povm)
    report = validate(povm)
    frame = find_frame(povm)
    cpt = build_table(povm, frame)
    decomposition = verify_decomposition(cpt)
    payload = {
        "povm": povm_to_dict(povm),
        "validation": {
            "weight_sum_residual": report.weight_sum_residual,
            "closure_residual": report.closure_residual,
            "unit_norm_residual": report.unit_norm_residual,
        },
        "certificate": frame.to_dict(),
        "alphas": cpt.alphas,
        "table": cpt.table,
        "residuals": {
            "max": decomposition.max_residual,
            "per_outcome": decomposition.per_outcome,
            "deterministic_term": decomposition.deterministic_residual,
            "noise_term": decomposition.noise_residual,
            "renormalization": cpt.renorm_residual,
        },
        "passed": decomposition.passed,
    }
    _emit(payload, [list(row) for row in cpt.table], args)
    return EXIT_OK if decomposition.passed else EXIT_CHECK_FAILED


def cmd_simulate(args) -> int:
    povm = load_povm(args.povm)
    state = _parse_vec(args.state)
    report = simulate_statistics(povm, state, args.samples, args.seed, workers=args.workers)
    ok = args.samples == 0 or report.max_abs_z <= 5.0
    payload = {
        "state": state,
        "samples": args.samples,
        "rng": _rng_header(args.seed, args.samples, args.workers),
        "outcomes": None
        if args.samples == 0
        else [
            {"count": int(c), "empirical": f, "born": b, "z": z}
            for c, f, b, z in zip(report.counts, report.frequencies, report.born, report.z)
        ],
        "born": report.born,
        "max_abs_z": report.max_abs_z,
        "passed": ok,
    }
    rows = [["outcome", "empirical", "born", "z"]] + [
        [i, float(f), float(b), float(z)]
        for i, (f, b, z) in enumerate(zip(report.frequencies, report.born, report.z))
    ]
    _emit(payload, rows, args)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_werner(args) -> int:
    alice = load_povm(args.alice)
    bob = load_povm(args.bob)
    quantum = werner_joint_quantum(alice, bob, 0.5)
    model = lhs_model(alice, bob)
    exact = model.joint_exact()
    deviation = float(np.max(np.abs(exact.table - quantum.table)))
    ok = deviation <= VALIDATION_ATOL
    payload = {
        "quantum": quantum.table,
        "lhs_exact": exact.table,
        "max_deviation": deviation,
        "samples": args.samples,
        "empirical": None,
        "chi_squared": None,
        "passed": ok,
    }
    if args.samples > 0:
        counts = model.sample_counts(args.samples, args.seed, workers=args.workers)
        chi = chi_squared_test(counts, exact.table)
        payload["rng"] = _rng_header(args.seed, args.samples, args.workers)
        payload["empirical"] = counts / args.samples
        payload["chi_squared"] = {
            "statistic": chi.statistic,
            "dof": chi.dof,
            "pvalue": chi.pvalue,
        }
        ok = ok and chi.pvalue >= 1e-3
        payload["passed"] = ok
    _emit(payload, [list(row) for row in exact.table], args)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_chsh(args) -> int:
    if args.settings:
        vecs = [_parse_vec(part) for part in args.settings.split(";")]
        if len(vecs) != 4:
            raise ValueError("settings must be four ;-separated x,y,z vectors")
        norms = [np.linalg.norm(v) for v in vecs]
        if not all(np.isfinite(n) and n > 0.0 for n in norms):
            raise ValueError("each settings vector must be finite and nonzero")
        a, a_prime, b, b_prime = (v / n for v, n in zip(vecs, norms))
    else:
        a, a_prime, b, b_prime = chsh_optimal_settings()
    value = chsh_value(a, a_prime, b, b_prime, args.eta)
    payload = {
        "eta": args.eta,
        "settings": {"a": a, "a_prime": a_prime, "b": b, "b_prime": b_prime},
        "value": value,
        "violates": bool(value > 2.0),
    }
    _emit(payload, [["eta", args.eta], ["value", float(value)], ["violates", value > 2.0]], args)
    return EXIT_OK


def cmd_random(args) -> int:
    povm = random_povm(args.n_outcomes, args.seed)
    _write(_json(povm_to_dict(povm)), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="povmsim", description=__doc__.split("\n")[0])
    parser.add_argument("--version", action="version", version=f"povmsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def nonneg(text: str) -> int:
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError("must be >= 0")
        return value

    def add_common(p):
        p.add_argument("--out", help="write the report to this path instead of stdout")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--samples", "-n", type=nonneg, default=1_000_000)
        p.add_argument("--workers", type=int, default=1)

    p_verify = sub.add_parser("verify", help="certify a frame and verify the reconstruction")
    p_verify.add_argument("--povm", "-p", required=True)
    add_common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_sim = sub.add_parser("simulate", help="Monte Carlo the protocol against Born's rule")
    p_sim.add_argument("--povm", "-p", required=True)
    p_sim.add_argument("--state", default="0,0,0", help="Bloch vector x,y,z of the input state")
    add_common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_werner = sub.add_parser("werner", help="hidden-state model vs the quantum Werner table")
    p_werner.add_argument("--alice", required=True)
    p_werner.add_argument("--bob", required=True)
    add_common(p_werner)
    p_werner.set_defaults(func=cmd_werner)

    p_chsh = sub.add_parser("chsh", help="CHSH value for projective measurements")
    p_chsh.add_argument("--eta", type=float, required=True)
    p_chsh.add_argument(
        "--settings",
        help="four ;-separated x,y,z vectors a;a';b;b' (default: optimal settings)",
    )
    add_common(p_chsh)
    p_chsh.set_defaults(func=cmd_chsh)

    p_rand = sub.add_parser("random", help="generate a random POVM file")
    p_rand.add_argument("n_outcomes", type=int)
    add_common(p_rand)
    p_rand.set_defaults(func=cmd_random)

    return parser


# Options whose value is a comma-separated vector, and a value that starts
# like a negative number.
_VECTOR_OPTIONS = ("--state", "--settings")
_NEGATIVE_VALUE = re.compile(r"-\.?\d")


def _attach_vector_values(argv: list[str]) -> list[str]:
    """Rewrite ``--state -0.3,0.1,0.2`` as ``--state=-0.3,0.1,0.2``.

    argparse reads a token that starts with ``-`` as an option unless it is
    a single negative number, so a vector with a negative first component
    would otherwise be rejected as a missing value.
    """
    out = []
    for token in argv:
        if out and out[-1] in _VECTOR_OPTIONS and _NEGATIVE_VALUE.match(token):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_attach_vector_values(argv))
    try:
        if args.workers < 1:
            raise ValueError(f"workers must be at least 1, got {args.workers}")
        return args.func(args)
    # InvalidFrameError is a ValueError, but the CLI builds every frame
    # itself, so here it is a program fault, not bad input.
    except (FrameNotFoundError, InvalidFrameError, NonFiniteOutputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FRAME
    except (ValueError, GenerationFailedError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
