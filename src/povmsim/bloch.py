"""Small exact linear algebra on the Bloch sphere.

Conventions used everywhere in this package:

* a Bloch vector is a plain ``numpy`` array of shape ``(3,)``,
* a rotation is a proper-orthogonal ``(3, 3)`` array,
* a Hermitian qubit operator is stored in the Pauli basis as a pair
  ``(t, w)`` meaning ``t * I + w . sigma``.

Dense 2x2 complex matrices are produced only by :func:`to_dense` and serve
as oracles in tests; all production formulas are linear in ``(t, w)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# The tolerance ladder: every slack outside the coplanar frame route is one
# of these three rungs.  The README ("Tolerances") derives them.
#
# Round-off on an identity that holds exactly: a rotation's orthogonality,
# t >= |w| for a PSD operator, noise weights that all vanish.  An outcome
# lighter than this never fires and is dropped.
ROUND_OFF = 1e-12
# The POVM invariants of an input, and the residuals of everything built
# from it.  Looser than ROUND_OFF so POVMs parsed from decimal JSON pass.
VALIDATION_ATOL = 1e-10
# Vertex values of a certified frame, and the table entries built from
# them.  Input residuals at VALIDATION_ATOL move a vertex value by at most
# about 2.4e-10 (``frames`` module docstring).
FRAME_ATOL = 1e-9

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
ID2 = np.eye(2, dtype=complex)

_PAULIS = np.stack([PAULI_X, PAULI_Y, PAULI_Z])
_EYE3 = np.eye(3)


class NotPositiveError(ValueError):
    """Raised when an operator required to be PSD has a negative eigenvalue."""


def _as_vec3(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector has non-finite components")
    return v


def is_rotation(mat) -> bool:
    """True when ``mat`` is orthogonal with determinant +1 within ``ROUND_OFF``."""
    mat = np.asarray(mat, dtype=float)
    if mat.shape != (3, 3):
        return False
    (a, b, c), (d, e, f), (g, h, i) = mat.tolist()
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    return bool(np.max(np.abs(mat.T @ mat - _EYE3)) <= ROUND_OFF) and abs(det - 1.0) <= ROUND_OFF


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
    in [0, 2pi)) so the stream is stable across numpy versions.
    """
    z = 2.0 * rng.random(n) - 1.0
    phi = 2.0 * np.pi * rng.random(n)
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


def orthonormal_frame(x_axis) -> np.ndarray:
    """Rotation whose first column is ``x_axis`` (a unit vector).

    The remaining columns are a deterministic right-handed completion, so
    the same input always yields the same frame.
    """
    x = _as_vec3(x_axis)
    nx = np.linalg.norm(x)
    if abs(nx - 1.0) > FRAME_ATOL:
        raise ValueError("x_axis must be a unit vector")
    x = x / nx
    # Seed the completion with the standard basis vector least aligned to x.
    e = np.zeros(3)
    e[int(np.argmin(np.abs(x)))] = 1.0
    y = e - (e @ x) * x
    y /= np.linalg.norm(y)
    z = np.cross(x, y)
    return np.column_stack([x, y, z])


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

    def __add__(self, other: "PauliOperator") -> "PauliOperator":
        return PauliOperator(self.t + other.t, self.w + other.w)

    def __sub__(self, other: "PauliOperator") -> "PauliOperator":
        return PauliOperator(self.t - other.t, self.w - other.w)

    def __mul__(self, scale: float) -> "PauliOperator":
        return PauliOperator(self.t * scale, self.w * scale)

    __rmul__ = __mul__

    def __repr__(self):  # pragma: no cover
        return f"PauliOperator(t={self.t!r}, w={self.w.tolist()!r})"

    @property
    def trace(self) -> float:
        return 2.0 * self.t


def to_dense(op: PauliOperator) -> np.ndarray:
    """Explicit 2x2 complex matrix ``t * I + w . sigma`` (oracle path)."""
    return op.t * ID2 + np.tensordot(op.w, _PAULIS, axes=1)


def is_psd(op: PauliOperator) -> bool:
    """A Pauli-basis operator is PSD exactly when t >= |w|."""
    return op.t >= float(np.linalg.norm(op.w)) - ROUND_OFF


def eigen_rank1_split(op: PauliOperator):
    """Split a PSD operator into two weighted rank-1 projectors.

    Returns ``((p_plus, d_plus), (p_minus, d_minus))`` where each piece is
    the operator ``p * (I + d . sigma) / 2`` and the two pieces sum to the
    input exactly.  The weights are the eigenvalues ``t +/- |w|``.  An
    isotropic operator (|w| ~ 0) has no preferred axis; by convention it is
    split along +z / -z.
    """
    wnorm = float(np.linalg.norm(op.w))
    if op.t < wnorm - ROUND_OFF:
        raise NotPositiveError(f"operator not PSD: t={op.t}, |w|={wnorm}")
    if wnorm <= 1e-14:
        axis = np.array([0.0, 0.0, 1.0])
        return (op.t, axis), (op.t, -axis)
    axis = op.w / wnorm
    return (op.t + wnorm, axis), (op.t - wnorm, -axis)
