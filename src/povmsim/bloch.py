"""Small exact linear algebra on the Bloch sphere.

Conventions used everywhere in this package:

* a Bloch vector is a plain ``numpy`` array of shape ``(3,)``,
* a rotation is a proper-orthogonal ``(3, 3)`` array,
* a Hermitian qubit operator is stored in the Pauli basis as a pair
  ``(t, w)`` meaning ``t * I + w . sigma``.

Every formula in this package is linear in ``(t, w)``; dense 2x2 matrices
exist only as test oracles (``tests/oracles.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# The tolerance ladder: every slack on a numerical identity is one of these
# three rungs.  The README ("Tolerances") derives them.
#
# Round-off on an identity that holds exactly: a rotation's orthogonality,
# noise weights that all vanish.  An outcome lighter than this never fires
# and is dropped.
ROUND_OFF = 1e-12
# The POVM invariants of an input, and the residuals of everything built
# from it.  Looser than ROUND_OFF so POVMs parsed from decimal JSON pass.
VALIDATION_ATOL = 1e-10
# Vertex values of a certified frame, and the table entries built from
# them.  Input residuals at VALIDATION_ATOL move a vertex value by at most
# about 2.4e-10 (``frames`` module docstring).
FRAME_ATOL = 1e-9

def _det3(rows) -> float:
    """Determinant of a 3x3 matrix given as nested lists, by cofactors of the first row."""
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def is_rotation(mat) -> bool:
    """True when ``mat`` is orthogonal with determinant +1 within ``ROUND_OFF``.

    Checks the six column dot products of ``mat^T mat = I`` and the
    determinant in Python floats; a NaN or inf fails every comparison.
    """
    mat = np.asarray(mat, dtype=float)
    if mat.shape != (3, 3):
        return False
    rows = mat.tolist()
    (a, b, c), (d, e, f), (g, h, i) = rows
    residuals = (
        a * a + d * d + g * g - 1.0,
        b * b + e * e + h * h - 1.0,
        c * c + f * f + i * i - 1.0,
        a * b + d * e + g * h,
        a * c + d * f + g * i,
        b * c + e * f + h * i,
        _det3(rows) - 1.0,
    )
    return all(abs(r) <= ROUND_OFF for r in residuals)


def require_rotation(mat) -> np.ndarray:
    mat = np.asarray(mat, dtype=float)
    if not is_rotation(mat):
        raise ValueError("matrix is not a proper rotation")
    return mat


def rotation_from_euler_zyz(alpha: float, beta: float, gamma: float) -> np.ndarray:
    """Rotation Rz(alpha) @ Ry(beta) @ Rz(gamma)."""
    ca, cb, cg = math.cos(alpha), math.cos(beta), math.cos(gamma)
    sa, sb, sg = math.sin(alpha), math.sin(beta), math.sin(gamma)
    return np.array(
        [
            [ca * cb * cg - sa * sg, -ca * cb * sg - sa * cg, ca * sb],
            [sa * cb * cg + ca * sg, -sa * cb * sg + ca * cg, sa * sb],
            [-sb * cg, sb * sg, cb],
        ]
    )


def random_unit_vectors(n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` directions uniform on the unit sphere, shape ``(n, 3)``.

    Built from uniform deviates only (z uniform in [-1, 1], azimuth uniform
    in [0, 2pi)) so the stream is stable across numpy versions: ``n``
    uniforms for ``z``, then ``n`` for the azimuth.
    """
    out = np.empty((n, 3))
    z = rng.random(n)
    _directions(z, rng.random(n), out)
    return out


def _directions(z: np.ndarray, phi: np.ndarray, out: np.ndarray) -> None:
    """Fill ``out`` with the directions of uniforms ``z`` and ``phi`` in [0, 1).

    Overwrites ``z`` and ``phi``.  The columns are written in place; the
    trig runs on contiguous buffers.
    """
    z *= 2.0
    z -= 1.0
    phi *= 2.0 * np.pi
    out[:, 2] = z
    # r = sqrt(max(0, 1 - z z)) in z's buffer, each step the same operation
    # on the same operands as the out-of-place expression, so the same bits.
    r = np.multiply(z, z, out=z)
    np.subtract(1.0, r, out=r)
    np.maximum(0.0, r, out=r)
    np.sqrt(r, out=r)
    trig = np.cos(phi)
    np.multiply(r, trig, out=out[:, 0])
    np.sin(phi, out=trig)
    np.multiply(r, trig, out=out[:, 1])


@dataclass(frozen=True, eq=False)
class PauliOperator:
    """Hermitian qubit operator ``t * I + w . sigma``."""

    t: float
    w: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "t", float(self.t))
        w = np.array(self.w, dtype=float)
        if w.shape != (3,):
            raise ValueError("w must be a 3-vector")
        w.setflags(write=False)
        object.__setattr__(self, "w", w)

    def __repr__(self):  # pragma: no cover
        return f"PauliOperator(t={self.t!r}, w={self.w.tolist()!r})"

