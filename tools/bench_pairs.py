"""Paired benchmark runs of a parent checkout and a change, written to ``BENCH_<workload>.json``.

    python3 tools/bench_pairs.py --workload certify_corpus --pairs 10
    python3 tools/bench_pairs.py --workload werner_tables --parent HEAD~2 --change HEAD --pairs 4 --seeds 1-4

Each side is a directory holding a checkout: ``--parent`` and ``--change``
take a directory as it is, or a git revision of this repository, which is
exported with ``git archive`` into a temporary directory, so that only
committed files are measured.  The defaults are ``HEAD^`` and the working
tree.  Pair ``k`` runs the unchanged ``perfbench/run.py --workload W --seed
s_k --seconds T --trace 0`` once in each checkout, at the benchmark's own
run length ``T`` (``run_seconds`` in ``BENCHMARK.json``), the parent first
in even pairs and the change first in odd ones, so drift in machine speed
falls on both sides alike.  ``--seeds`` names one seed per pair, as
``perfbench/spread.py`` reads it.

The output holds, per end-to-end metric of ``BENCHMARK.json``, each side's
median and quartiles (as ``statistics.quantiles(values, n=4)`` gives
them), the change's relative median shift, its number of winning pairs, and
whether the medians differ by more than the parent's interquartile range;
then every run, the seeds, ``nproc``, the BLAS thread count, the Python and
numpy versions, both commits and both ``src/`` line counts and digests.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900

sys.path.insert(0, str(ROOT / "perfbench"))
from spread import parse_seeds  # noqa: E402


def git(*args: str) -> str:
    proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True)
    return proc.stdout.strip()


def checkout(where: str, scratch: Path, name: str) -> tuple[Path, str | None]:
    """A directory for ``where`` and its commit.

    A directory's commit is its git ``HEAD``, or None without ``.git``; it
    may hold uncommitted edits, which its runs' ``src_sha256`` shows.
    """
    path = Path(where)
    if path.is_dir():
        path = path.resolve()
        commit = None
        if (path / ".git").exists():
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=path, capture_output=True, text=True
            )
            commit = proc.stdout.strip() or None
        return path, commit
    commit = git("rev-parse", "--verify", f"{where}^{{commit}}")
    target = scratch / name
    target.mkdir()
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", str(target)], input=archive.stdout, check=True)
    return target, commit


def src_lines(path: Path) -> int:
    """``wc -l src/povmsim/*.py``: newline characters over the package's modules."""
    return sum(p.read_bytes().count(b"\n") for p in sorted((path / "src" / "povmsim").glob("*.py")))


def run_once(path: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=path, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {path} exited {proc.returncode}: {proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result, report = json.loads(lines[-1]), json.loads(lines[-2])
    return {
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metadata": report["metadata"],
    }


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        v = values[0] if values else float("nan")
        return {"q1": v, "median": v, "q3": v}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": med, "q3": q3}


def summarize(runs: list[dict], spec: dict) -> dict:
    """Per metric: both sides' quartiles, the median shift, wins and the IQR test."""
    out = {}
    pairs = sorted({r["pair"] for r in runs})
    for m in spec["end_to_end"]:
        name, higher = m["name"], m["better"] == "higher"
        side = {
            s: [r["metrics"][name] for r in sorted(runs, key=lambda r: r["pair"]) if r["side"] == s]
            for s in ("parent", "change")
        }
        by_pair = {(r["pair"], r["side"]): r["metrics"][name] for r in runs}
        wins = sum(
            (by_pair[k, "change"] > by_pair[k, "parent"]) if higher
            else (by_pair[k, "change"] < by_pair[k, "parent"])
            for k in pairs
        )
        parent, change = quartiles(side["parent"]), quartiles(side["change"])
        gap = change["median"] - parent["median"]
        out[name] = {
            "unit": m["unit"],
            "better": m["better"],
            "bound": m["bound"],
            "parent": parent,
            "change": change,
            "median_shift": gap / parent["median"] if parent["median"] else float("nan"),
            "wins": wins,
            "pairs": len(pairs),
            "parent_iqr": parent["q3"] - parent["q1"],
            "gap_exceeds_parent_iqr": abs(gap) > parent["q3"] - parent["q1"],
        }
    return out


def meta_of(runs: list[dict], side: str) -> dict:
    return next(r["metadata"] for r in runs if r["side"] == side)


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seeds", default="1-10", help="one seed per pair: 1-10 or 1,4,7")
    parser.add_argument("--parent", default="HEAD^", help="directory or git revision")
    parser.add_argument("--change", default=str(ROOT), help="directory or git revision")
    args = parser.parse_args(argv)
    seconds, out = spec["run_seconds"], ROOT / f"BENCH_{args.workload}.json"
    seeds = parse_seeds(args.seeds)
    if len(seeds) != args.pairs:
        parser.error(f"--seeds names {len(seeds)} seeds for {args.pairs} pairs")
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        sides = {
            "parent": checkout(args.parent, Path(tmp), "parent"),
            "change": checkout(args.change, Path(tmp), "change"),
        }
        runs = []
        for k, seed in enumerate(seeds):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for position, side in enumerate(order):
                res = run_once(sides[side][0], args.workload, seed, seconds)
                runs.append({"pair": k, "seed": seed, "side": side, "position": position, **res})
                p50 = res["metrics"].get("op_p50_ms")
                print(f"pair {k} seed {seed} {side:6s} op_p50_ms={p50:.5g} failed={res['failed']}",
                      file=sys.stderr, flush=True)
        meta = runs[0]["metadata"]
        doc = {
            "workload": args.workload,
            "seconds": seconds,
            "pairs": args.pairs,
            "seeds": seeds,
            "environment": {
                "nproc": meta["nproc"],
                "affinity_cpus": meta["affinity_cpus"],
                "blas_threads": meta["blas_threads"],
                "python": meta["python"],
                "numpy": meta["numpy"],
                "scipy": meta.get("scipy"),
                "platform": meta["platform"],
                "load_average": os.getloadavg(),
            },
            "sides": {
                side: {"where": "directory" if Path(where).is_dir() else where, "commit": commit,
                       "src_lines": src_lines(path), "src_sha256": meta_of(runs, side)["src_sha256"]}
                for (side, (path, commit)), where in zip(sides.items(), (args.parent, args.change))
            },
            "metrics": summarize(runs, spec),
            "runs": [{k: v for k, v in r.items() if k != "metadata"} for r in runs],
        }
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    for name, m in doc["metrics"].items():
        print(f"{name:18s} parent {m['parent']['median']:.5g}  change {m['change']['median']:.5g}"
              f"  shift {m['median_shift']:+.3%}  wins {m['wins']}/{m['pairs']}"
              f"  gap>IQR {m['gap_exceeds_parent_iqr']}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
