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
"""

from __future__ import annotations

from dataclasses import dataclass
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
        rotation = require_rotation(rotation)
        verts = np.empty((8, 3))
        np.matmul(OCTANT_SIGNS[:4], rotation.T, out=verts[:4])
        # Store antipodes as exact negations so the pairing v_{-s} = -v_s
        # holds bit for bit.
        np.negative(verts[3::-1], out=verts[4:])
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


def _evaluate(povm: QubitPovm, cube: CubeVertices) -> tuple[np.ndarray, np.ndarray, float]:
    """The ``8 x n`` matrix ``max(v_s . a_i, 0)``, the eight vertex values and their maximum."""
    projections = cube.vertices @ povm.directions.T
    np.maximum(projections, 0.0, out=projections)
    values = projections @ povm.weights
    return projections, values, max(values.tolist())


def _second_moment_frame(povm: QubitPovm) -> tuple[np.ndarray, float]:
    """Eigenbasis of ``M = sum_i p_i a_i a_i^T`` as a rotation, and ``M``'s smallest eigenvalue.

    The rotation is deterministic: columns follow ascending eigenvalues, the
    first largest-magnitude entry of each column is positive, and the last
    column is negated if needed to make the determinant +1 (in Python
    floats).  It is in C order, as ``eigh`` gives it, for the vertex product.
    """
    d = povm.directions
    values, vecs = np.linalg.eigh((d.T * povm.weights) @ d)
    columns = []
    for column in vecs.T.tolist():
        sizes = list(map(abs, column))
        columns.append([-x for x in column] if column[sizes.index(max(sizes))] < 0 else column)
    # det R = det R^T, and |det R| is 1 to round-off, so its sign is exact.
    if _det3(columns) < 0:
        columns[2] = [-x for x in columns[2]]
    return np.array(columns).T.copy(), float(values[0])


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

    Returns the identity where it certifies, else the eigenframe of ``M``,
    which always does (module docstring); ``method`` labels the POVM's class
    (:class:`FrameMethod`).  An eigenframe that is not a proper rotation or
    does not certify raises :class:`FrameNotFoundError`: an internal
    numerical failure, since a valid frame always exists.
    """
    require_valid(povm)
    cube, smallest = _IDENTITY_CUBE, None
    projections, values, max_value = _evaluate(povm, cube)
    if max_value > 1.0 + FRAME_ATOL:
        rotation, smallest = _second_moment_frame(povm)
        try:
            cube = CubeVertices.from_rotation(rotation)
        except ValueError as exc:
            raise FrameNotFoundError(f"eigenframe: {exc}") from exc
        projections, values, max_value = _evaluate(povm, cube)
    method = _label(povm, smallest)
    if max_value > 1.0 + FRAME_ATOL:
        raise FrameNotFoundError(
            f"{method.value} frame does not certify: max vertex value {max_value}"
        )
    projections.setflags(write=False)
    values.setflags(write=False)
    return FrameCertificate(cube, values, max_value, method, povm, projections)
