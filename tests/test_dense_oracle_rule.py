"""Dense 2x2 and 4x4 oracles live on the test side, not in the package.

Every formula in ``povmsim`` works on ``(t, w)`` pairs and weighted
directions, so no module of it needs a complex matrix, a tensor product or
a tensor contraction.  ``tests/oracles.py`` holds the dense forms.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "povmsim").glob("*.py"))
DENSE_NAMES = {"kron", "tensordot"}


def dense_constructs(source: str) -> list[tuple[int, str]]:
    """``(line, construct)`` for each complex dtype, imaginary literal, ``kron`` or ``tensordot``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, complex):
            found.append((node.lineno, repr(node.value)))
            continue
        else:
            continue
        if name.startswith("complex") or name in DENSE_NAMES:
            found.append((node.lineno, name))
    return found


def test_rule_sees_each_construct():
    snippet = "a = np.eye(2, dtype=complex) + 1j * np.kron(x, y)\nb = tensordot(w, np.complex128(p))\n"
    assert sorted(dense_constructs(snippet)) == [
        (1, "1j"), (1, "complex"), (1, "kron"), (2, "complex128"), (2, "tensordot")
    ]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_dense_construct_in_package(path):
    assert dense_constructs(path.read_text(encoding="utf-8")) == []
