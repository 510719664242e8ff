"""Golden certificate digests: every output bit of the certify chain, per family.

For each POVM of a family the chain is ``validate`` (fresh, before any
stored report) → ``find_frame`` → ``build_table`` → ``verify_decomposition``.
A family's SHA-256 runs over the raw float64 bytes of the validation
residuals, the rotation, the vertex values, the projection matrix, the
alphas, the table and the per-outcome residuals, and over the method string,
POVM by POVM in order.  ``tests/golden/certify.json`` holds one digest per
family, so any drift in the last bit of a certificate shows, and names its
family.

The bytes depend on the numpy and BLAS build, so the golden file records
the Python and numpy versions and the BLAS build it was generated with.

Regenerate only after an intended output change, and list the changed
families in CHANGES.md::

    PYTHONPATH=src python tests/certify_golden.py            # print changes only
    PYTHONPATH=src python tests/certify_golden.py --regen    # rewrite, print changes
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

from povm_families import (  # noqa: E402
    duplicate_direction_povm,
    general_position_povm,
    near_coplanar_povm,
    near_projective_povm,
    octahedral_povm,
    planar_povm,
    zero_weight_povm,
)
from oracles import random_rotations  # noqa: E402

from povmsim.frames import find_frame  # noqa: E402
from povmsim.jointmeas import build_table, verify_decomposition  # noqa: E402
from povmsim.povm import (  # noqa: E402
    fixture_path,
    load_povm,
    povm_from_dict,
    povm_to_dict,
    random_povm,
    validate,
)

GOLDEN_PATH = Path(__file__).parent / "golden" / "certify.json"


def _octahedral(count: int):
    rng = np.random.default_rng(70)
    return [octahedral_povm(rot, rng) for rot in random_rotations(count, rng)]


def _duplicates(count: int):
    rng = np.random.default_rng(71)
    return [
        duplicate_direction_povm(
            (general_position_povm if k % 2 else near_projective_povm)(5 + k % 10, 71_000 + k), rng
        )
        for k in range(count)
    ]


def _zero_weights(count: int):
    rng = np.random.default_rng(72)
    return [
        zero_weight_povm(general_position_povm(4 + k % 12, 72_000 + k), 1 + k % 3, rng)
        for k in range(count)
    ]


def _documents(count: int):
    """The bundled fixtures, then general-position POVMs parsed from their documents."""
    loaded = [load_povm(fixture_path(name)) for name in ("projective_z.json", "trine.json", "sic.json")]
    parsed = [
        povm_from_dict(povm_to_dict(general_position_povm(4 + k % 27, 79_000 + k)))
        for k in range(count)
    ]
    return loaded + parsed


def _near_coplanar(count: int, seed: int):
    rng = np.random.default_rng(seed)
    return [near_coplanar_povm(rng) for _ in range(count)]


# name -> POVM list.  ``planar`` spans 3 to 60 outcomes, all labelled
# coplanar; ``near_coplanar`` sits just above the ``COPLANAR_SVAL`` label
# threshold.  ``documents`` goes through the JSON loader, which normalises
# the directions and stores the validation report.
FAMILIES = {
    "general_position": lambda: [general_position_povm(4 + k % 27, 73_000 + k) for k in range(108)],
    "near_projective": lambda: [near_projective_povm(5 + k % 26, 74_000 + k) for k in range(104)],
    "octahedral": lambda: _octahedral(40),
    "duplicate_direction": lambda: _duplicates(40),
    "zero_weight": lambda: _zero_weights(40),
    "random_povm": lambda: [random_povm(n, 75_000 + 31 * n + k) for n in range(2, 14) for k in range(10)],
    "planar": lambda: [planar_povm(n, 76_000 + 97 * n + k) for n in range(3, 61) for k in range(2)],
    "near_coplanar": lambda: _near_coplanar(100, 77),
    "documents": lambda: _documents(40),
}


def _f64(*values) -> bytes:
    return b"".join(np.ascontiguousarray(v, dtype=np.float64).tobytes() for v in values)


def certify_bytes(povm) -> bytes:
    """Every output bit of one pass of the certify chain."""
    report = validate(povm)
    head = _f64(
        report.min_weight,
        report.unit_norm_residual,
        report.weight_sum_residual,
        report.closure_residual,
    ) + bytes([report.weights_nonnegative])
    frame = find_frame(povm)
    cpt = build_table(povm, frame)
    decomposition = verify_decomposition(cpt)
    return (
        head
        + frame.method.value.encode()
        + _f64(frame.rotation, frame.vertex_values, frame.max_value, frame.projections)
        + _f64(cpt.alphas, cpt.table, cpt.renorm_residual)
        + _f64(
            decomposition.per_outcome,
            decomposition.max_residual,
            decomposition.deterministic_residual,
            decomposition.noise_residual,
        )
    )


def digest(name: str) -> tuple[int, str]:
    """Number of POVMs and SHA-256 of one family."""
    povms = FAMILIES[name]()
    sha = hashlib.sha256()
    for povm in povms:
        sha.update(certify_bytes(povm))
    return len(povms), sha.hexdigest()


def versions() -> dict[str, str]:
    """Python, numpy and the BLAS build, whose kernels set the last bits."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    build = " ".join(str(blas.get("openblas configuration", blas.get("version", ""))).split())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {build}".strip(),
    }


def record() -> dict:
    families = {}
    for name in FAMILIES:
        count, sha = digest(name)
        families[name] = {"count": count, "sha256": sha}
    return {**versions(), "families": families}


def differences(old: dict, new: dict) -> list[str]:
    """Families whose count or digest differ, or that exist on one side only."""
    before, after = old["families"], new["families"]
    return sorted(
        name for name in before.keys() | after.keys() if before.get(name) != after.get(name)
    )


def main(argv: list[str]) -> int:
    regen = "--regen" in argv
    new = record()
    old = json.loads(GOLDEN_PATH.read_text(encoding="utf-8")) if GOLDEN_PATH.exists() else None
    changed = differences(old, new) if old else sorted(new["families"])
    for name in changed:
        print(f"changed: {name}")
    print(f"{len(changed)} of {len(new['families'])} families changed")
    if regen:
        GOLDEN_PATH.parent.mkdir(exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(new, indent=1) + "\n", encoding="utf-8")
        return 0
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
