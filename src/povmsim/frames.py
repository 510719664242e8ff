"""Certified coordinate frames for the parent-measurement construction.

For a rank-1 POVM ``{(p_i, a_i)}`` define the even, positively homogeneous
function

    mass(x) = sum_i p_i * max(x . a_i, 0) = (1/2) sum_i p_i |x . a_i|,

where the second form uses closure, ``sum_i p_i a_i = 0``.  The simulation
protocol needs a rotated cube, vertices ``v_s = R s`` with
``s in {+1, -1}^3``, on which ``mass(v_s) <= 1`` for all eight vertices.
Such a frame always exists, and has a closed form:

1. Let ``M = sum_i p_i a_i a_i^T``; then ``tr M = sum_i p_i = 2``.
2. Let the columns of ``R`` be eigenvectors of ``M``.  For every vertex,
   ``v_s^T M v_s = s^T (R^T M R) s = tr M = 2``, since ``R^T M R`` is
   diagonal and ``s_k^2 = 1``.
3. Cauchy-Schwarz:
   ``mass(v_s) <= (1/2) sqrt(sum_i p_i) sqrt(sum_i p_i (v_s . a_i)^2)
   = (1/2) sqrt(2) sqrt(2) = 1``.

For the tetrahedral (SIC) POVM ``M = (2/3) I``, so every frame certifies.
The bound is tight exactly when all ``|v_s . a_i|`` are equal, as for the
octahedral POVM in its own frame.

Tolerances.  This derives the ``FRAME_ATOL`` rung of the ladder in
``bloch``; the README ("Tolerances") gives all three rungs.  A POVM accepted
by ``require_valid`` meets its invariants only to ``VALIDATION_ATOL =
1e-10``.  A closure residual ``r`` adds ``(1/2) v_s . r``, at most
``(sqrt(3)/2) |r|`` or about 0.9e-10, to the positive-part form.  A
weight-sum residual ``e_w`` and unit-norm residual ``e_n`` enter through
``sum_i p_i = 2 + e_w`` and ``tr M = sum_i p_i |a_i|^2``, and raise the
bound of step 3 to about ``1 + e_w / 2 + e_n``, at most 1 + 1.5e-10.  With
the round-off of ``eigh`` the total stays below ``FRAME_ATOL = 1e-9``, the
slack every certificate is checked against.

:func:`find_frame` tries the identity, then the eigenframe of ``M``, for
every POVM: two-outcome (``M`` of rank 1) and coplanar (rank 2) ones
included.  Each certificate carries its POVM and ``8 x n`` matrix
``max(v_s . a_i, 0)``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .bloch import FRAME_ATOL, _det3, require_rotation, rotation_from_euler_zyz
from .povm import QubitPovm, require_valid

# Smallest singular value of the direction matrix below which a POVM is
# labelled coplanar.  It picks the certificate's label only.
COPLANAR_SVAL = 1e-9

# Octant sign patterns in a fixed order: lexicographic with +1 before -1.
OCTANT_SIGNS = np.array(
    [[sx, sy, sz] for sx in (1, -1) for sy in (1, -1) for sz in (1, -1)], dtype=float
)
OCTANT_LABELS = tuple(
    "".join("+" if s > 0 else "-" for s in signs) for signs in OCTANT_SIGNS
)


class FrameNotFoundError(RuntimeError):
    """Neither candidate certified a frame: an internal numerical failure."""


class FrameMethod(str, Enum):
    """The class of the input POVM, as a frozen identifier.

    One construction serves every class; the names come from the routes it
    replaced.  They are frozen: serialised certificates carry them, and
    readers match on them.

    * ``TwoOutcomeExact``: two outcomes.  Every certified frame has all
      eight values equal to 1, since ``sum_s (v_s . a)^2 = 8``.
    * ``CoplanarBisection``: the smallest singular value of the direction
      matrix is below ``COPLANAR_SVAL``.
    * ``MinimaxSearch``: every other POVM.
    """

    TWO_OUTCOME_EXACT = "TwoOutcomeExact"
    COPLANAR_BISECTION = "CoplanarBisection"
    MINIMAX_SEARCH = "MinimaxSearch"


def positive_part(x):
    """max(x, 0), elementwise; equals (|x| + x) / 2."""
    return np.maximum(x, 0.0)


@dataclass(frozen=True, eq=False)
class CubeVertices:
    """The eight rotated cube vertices ``v_s = R s`` with their rotation."""

    rotation: np.ndarray
    vertices: np.ndarray

    @classmethod
    def from_rotation(cls, rotation) -> "CubeVertices":
        rotation = require_rotation(np.asarray(rotation, dtype=float))
        verts = np.empty((8, 3))
        verts[:4] = OCTANT_SIGNS[:4] @ rotation.T
        # Store antipodes as exact negations so the pairing v_{-s} = -v_s
        # holds bit for bit.
        verts[4:] = -verts[:4][::-1]
        verts.setflags(write=False)
        rot = rotation.copy()
        rot.setflags(write=False)
        return cls(rot, verts)


def projection_mass(povm: QubitPovm, x) -> float | np.ndarray:
    """``sum_i p_i * max(x . a_i, 0)`` for one point or a batch of points."""
    x = np.asarray(x, dtype=float)
    values = positive_part(x @ povm.directions.T) @ povm.weights
    return float(values) if values.ndim == 0 else values


def total_vertex_mass(povm: QubitPovm, cube: CubeVertices) -> float:
    """Sum of the eight vertex values; bounded by 8 for every valid POVM."""
    return float(np.sum(projection_mass(povm, cube.vertices)))


@dataclass(frozen=True, eq=False)
class FrameCertificate:
    """A rotation plus the eight vertex values proving ``mass(v_s) <= 1``.

    ``method`` labels the class of the POVM (see :class:`FrameMethod`), not
    the candidate that certified.  A certificate from :func:`find_frame` has
    ``max_value <= 1 + FRAME_ATOL``.  ``povm`` is the POVM it was evaluated
    for, and ``projections`` the read-only ``8 x n`` matrix ``max(v_s . a_i,
    0)``, so ``vertex_values = projections @ povm.weights``.  Neither is
    serialised.
    """

    cube: CubeVertices
    vertex_values: np.ndarray
    max_value: float
    method: FrameMethod
    povm: QubitPovm
    projections: np.ndarray

    @property
    def rotation(self) -> np.ndarray:
        return self.cube.rotation

    def to_dict(self) -> dict:
        return {
            "rotation": [float(x) for x in self.rotation.ravel()],
            "vertex_values": [float(v) for v in self.vertex_values],
            "max_value": float(self.max_value),
            "method": self.method.value,
        }


def _certificate(povm: QubitPovm, cube: CubeVertices, method: FrameMethod) -> FrameCertificate:
    projections = cube.vertices @ povm.directions.T
    np.maximum(projections, 0.0, out=projections)
    values = projections @ povm.weights
    projections.setflags(write=False)
    values.setflags(write=False)
    return FrameCertificate(cube, values, float(values.max()), method, povm, projections)


def _second_moment_frame(povm: QubitPovm) -> tuple[np.ndarray, float]:
    """Eigenbasis of ``M = sum_i p_i a_i a_i^T`` as a rotation, and ``M``'s smallest eigenvalue.

    The rotation is deterministic: columns follow ascending eigenvalues, the
    largest-magnitude entry of each column is positive, and the last column
    is negated if needed to make the determinant +1.
    """
    d = povm.directions
    values, vecs = np.linalg.eigh((d.T * povm.weights) @ d)
    pivots = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(3)]
    vecs = vecs * np.where(pivots < 0, -1.0, 1.0)
    if _det3(vecs.tolist()) < 0:
        vecs[:, 2] = -vecs[:, 2]
    return vecs, float(values[0])


def _label(povm: QubitPovm, smallest_eigenvalue: float | None) -> FrameMethod:
    """The :class:`FrameMethod` of ``povm``, without an SVD where ``eigh`` decides it.

    ``M = D^T W D`` for the direction matrix ``D`` and weights ``W``, so
    ``lambda_min(M) <= w_max sigma_min(D)^2``, and a valid POVM has ``w_max
    <= 2 + 1e-10``.  An eigenvalue above ``1e-12`` (``eigh`` is accurate to
    about 1e-15 here) proves ``sigma_min(D) > 7e-7``, far above
    ``COPLANAR_SVAL``: the label is ``MinimaxSearch``, as the SVD would say.
    """
    if povm.n_outcomes == 2:
        return FrameMethod.TWO_OUTCOME_EXACT
    if smallest_eigenvalue is not None and smallest_eigenvalue > 1e-12:
        return FrameMethod.MINIMAX_SEARCH
    if np.linalg.svd(povm.directions, compute_uv=False)[-1] < COPLANAR_SVAL:
        return FrameMethod.COPLANAR_BISECTION
    return FrameMethod.MINIMAX_SEARCH


# The identity cube, built and checked once.  Its rotation is the zero
# z-y-z Euler rotation, which carries -0.0 at [0, 1] and [2, 0].
# Certificates print those signed zeros, so seeded `verify` output depends
# on this exact matrix, not just on its values.
_IDENTITY_CUBE = CubeVertices.from_rotation(rotation_from_euler_zyz(0.0, 0.0, 0.0))


def find_frame(povm: QubitPovm) -> FrameCertificate:
    """Certify a coordinate frame with all eight vertex values at most 1.

    One construction serves every POVM: the identity, then the eigenframe
    of ``M = sum_i p_i a_i a_i^T``; the first that certifies is returned.
    The eigenframe always certifies (see the module docstring).  Trying the
    identity first keeps the standard basis wherever it certifies.  The
    certificate's ``method`` labels the class of the POVM (see
    :class:`FrameMethod`).

    Raises :class:`FrameNotFoundError` if the eigenframe is not a proper
    rotation or its eight re-evaluated vertex values fail the check, which
    signals an internal numerical failure since a valid frame always exists.
    """
    require_valid(povm)
    cert = _certificate(povm, _IDENTITY_CUBE, FrameMethod.MINIMAX_SEARCH)
    smallest = None
    if cert.max_value > 1.0 + FRAME_ATOL:
        rotation, smallest = _second_moment_frame(povm)
        try:
            cube = CubeVertices.from_rotation(rotation)
        except ValueError as exc:
            raise FrameNotFoundError(f"eigenframe: {exc}") from exc
        cert = _certificate(povm, cube, FrameMethod.MINIMAX_SEARCH)
    method = _label(povm, smallest)
    if method is not cert.method:
        cert = replace(cert, method=method)
    if cert.max_value > 1.0 + FRAME_ATOL:
        raise FrameNotFoundError(
            f"{cert.method.value} frame does not certify: max vertex value {cert.max_value}"
        )
    return cert
