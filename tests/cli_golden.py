"""Golden seeded CLI output: the command set, its replay, and regeneration.

Every command runs in-process through ``povmsim.cli.main``; its exit code,
stdout and first stderr line are compared byte for byte with
``tests/golden/cli.json``.  An argument ``@name`` stands for a file path: a
bundled fixture, one of the ``RANDOM_FILES`` written first with ``povmsim
random N --seed S --out``, or one of the ``BAD_FILES``; in stderr the path
reads as its placeholder again.  The ``FAILURES`` pin the error exits.

The bytes depend on the numpy and BLAS build, so the golden file records
the Python and numpy versions and the BLAS build it was generated with.

Regenerate after an intended output change, and list the changed commands
in CHANGES.md::

    PYTHONPATH=src python tests/cli_golden.py          # rewrite, print changes
    PYTHONPATH=src python tests/cli_golden.py --check  # print changes only
"""

from __future__ import annotations

import contextlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from povmsim import fixture_path
from povmsim.cli import main

GOLDEN_PATH = Path(__file__).parent / "golden" / "cli.json"

FIXTURES = ("projective_z.json", "trine.json", "sic.json")

# name -> (n_outcomes, seed); 3 outcomes are collinear and 4 coplanar.
RANDOM_FILES = {
    "r3s0": (3, 0),
    "r4s1": (4, 1),
    "r5s2": (5, 2),
    "r6s3": (6, 3),
    "r8s0": (8, 0),
    "r10s1": (10, 1),
    "r12s2": (12, 2),
    "r16s3": (16, 3),
}

# name -> document; none loads as a POVM.  The loader drops only weights
# with |p| < ROUND_OFF, so a negative or non-finite weight fails validation.
_BAD_WEIGHT = (
    '{"outcomes": [{"p": %s, "a": [1, 0, 0]}, {"p": 1, "a": [0, 0, 1]}, {"p": 1, "a": [0, 0, -1]}]}'
)
BAD_FILES = {
    "malformed.json": '{"outcomes": [',
    "invalid.json": '{"outcomes": [{"p": 1.0, "a": [0, 0, 1]}]}',
    "negative_weight.json": _BAD_WEIGHT % "-0.5",
    "nan_weight.json": _BAD_WEIGHT % "NaN",
    "minus_infinity_weight.json": _BAD_WEIGHT % "-Infinity",
}

# Each exits 2 with empty stdout and one stderr line.
FAILURES = (
    ["simulate", "-p", "@sic.json", "--state", "2,0,0"],
    ["simulate", "-p", "@sic.json", "--state", "nan,0,0"],
    ["verify", "-p", "@malformed.json"],
    ["verify", "-p", "@invalid.json"],
    ["verify", "-p", "@negative_weight.json"],
    ["verify", "-p", "@nan_weight.json"],
    ["verify", "-p", "@minus_infinity_weight.json"],
    ["simulate", "-p", "@sic.json", "--workers", "0"],
    ["chsh", "--eta", "1.2"],
    ["random", "1"],
)

SIMULATIONS = (
    ("sic.json", "0,0,1"),
    ("trine.json", "0.2,-0.3,0.4"),
    ("projective_z.json", "-0.3,0.1,0.2"),
    ("r4s1", "0,0,0"),
    ("r6s3", "0.1,0.2,0.3"),
    ("r10s1", "0,0,0.9"),
    ("r16s3", "-0.5,0.5,0.5"),
)

WERNER_PAIRS = (
    [(a, b) for a in FIXTURES for b in FIXTURES]
    + [(name, FIXTURES[k % 3]) for k, name in enumerate(RANDOM_FILES)]
    + [
        ("sic.json", "r16s3"),
        ("trine.json", "r8s0"),
        ("projective_z.json", "r5s2"),
        ("r12s2", "r10s1"),
    ]
)


def commands() -> list[list[str]]:
    """Every golden command line, with ``@name`` file placeholders."""
    out = [["random", str(n), "--seed", str(s)] for n, s in RANDOM_FILES.values()]
    out += [["verify", "-p", f"@{name}"] for name in FIXTURES + tuple(RANDOM_FILES)]
    simulations = [
        ["simulate", "-p", f"@{name}", "--state", state, "-n", "200000", "--seed", str(k)]
        for k, (name, state) in enumerate(SIMULATIONS, start=1)
    ]
    out += simulations
    out += [
        ["werner", "--alice", f"@{a}", "--bob", f"@{b}", "-n", "100000", "--seed", str(k)]
        for k, (a, b) in enumerate(WERNER_PAIRS, start=1)
    ]
    # Multi-chunk runs on two workers, which share the chunks between
    # threads; stdout equals the one-worker run's apart from the header.
    werner_chunks = [
        "werner", "--alice", "@trine.json", "--bob", "@r6s3", "-n", "300000", "--seed", "7"
    ]
    out += [[*simulations[0], "--workers", "2"], werner_chunks, [*werner_chunks, "--workers", "2"]]
    out += [["chsh", "--eta", eta] for eta in ("0.5", "0.7071067811865476", "1.0")]
    out += [["chsh", "--eta", "0.9", "--settings", "1,0,0;0,1,0;1,1,0;1,-1,0"]]
    out += FAILURES
    return out


def write_files(directory: Path) -> dict[str, Path]:
    """Write the random and the bad POVM files; returns every placeholder's path."""
    paths = {name: fixture_path(name) for name in FIXTURES}
    for name, (n, seed) in RANDOM_FILES.items():
        path = directory / f"{name}.json"
        with contextlib.redirect_stdout(io.StringIO()):
            if main(["random", str(n), "--seed", str(seed), "--out", str(path)]) != 0:
                raise RuntimeError(f"could not write {name}")
        paths[name] = path
    for name, text in BAD_FILES.items():
        paths[name] = directory / name
        paths[name].write_text(text, encoding="utf-8")
    return paths


def run(argv: list[str], paths: dict[str, Path]) -> tuple[int, str, str]:
    """Exit code, stdout and first stderr line of one command, placeholders resolved."""
    resolved = [str(paths[a[1:]]) if a.startswith("@") else a for a in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(resolved)
    first = (stderr.getvalue().splitlines() or [""])[0]
    for placeholder, path in zip(argv, resolved):
        if placeholder.startswith("@"):
            first = first.replace(path, placeholder)
    return code, stdout.getvalue(), first


def versions() -> dict[str, str]:
    """Python, numpy and the BLAS build, whose kernels set the last bits."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    build = " ".join(str(blas.get("openblas configuration", blas.get("version", ""))).split())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {build}".strip(),
    }


def record(directory: Path) -> dict:
    paths = write_files(directory)
    entries = []
    for argv in commands():
        code, stdout, stderr = run(argv, paths)
        entries.append({"argv": argv, "exit": code, "stdout": stdout, "stderr": stderr})
    return {**versions(), "commands": entries}


def differences(old: dict, new: dict) -> list[str]:
    """Command lines whose exit code, stdout or stderr line differ, or on one side only."""
    before = {" ".join(e["argv"]): e for e in old["commands"]}
    after = {" ".join(e["argv"]): e for e in new["commands"]}
    changed = []
    for line in sorted(before.keys() | after.keys()):
        a, b = before.get(line), after.get(line)
        if a is None or b is None:
            changed.append(f"{line} ({'added' if a is None else 'removed'})")
        elif any(a[key] != b[key] for key in ("exit", "stdout", "stderr")):
            changed.append(line)
    return changed


def main_regenerate(argv: list[str]) -> int:
    check_only = "--check" in argv
    with tempfile.TemporaryDirectory() as tmp:
        new = record(Path(tmp))
    old = json.loads(GOLDEN_PATH.read_text(encoding="utf-8")) if GOLDEN_PATH.exists() else None
    changed = differences(old, new) if old else [" ".join(e["argv"]) for e in new["commands"]]
    for line in changed:
        print(f"changed: {line}")
    print(f"{len(changed)} of {len(new['commands'])} commands changed")
    if not check_only:
        GOLDEN_PATH.parent.mkdir(exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(new, indent=1) + "\n", encoding="utf-8")
    return 1 if check_only and changed else 0


if __name__ == "__main__":
    sys.exit(main_regenerate(sys.argv[1:]))
