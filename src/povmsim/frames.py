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

:func:`find_frame` keeps three routes: an exact frame for two outcomes, an
in-plane bisection for coplanar directions, and, in general, the identity
or the eigenframe of ``M``, whichever certifies first.

A bisection step at angle ``t`` needs two vertices, ``(c - s, c + s, 1)`` and
``(c + s, s - c, 1)`` in start-frame coordinates (``c, s = cos t, sin t``).
The step is scalar: it loops in Python floats over one ``(x, y, z, p)``
tuple per outcome, the directions transformed into the start frame once per
call.  Its gap differs from the per-vertex one by round-off only, far inside
``_GAP_BAND``; within that band of an exit threshold a step is re-evaluated
per vertex.  So every exit and sign decision, and every output bit, is that
of the per-vertex bisection in ``tests/oracles.py``.  The loop is linear in
``n`` in Python: faster than a numpy step for the few outcomes coplanar
POVMs have in practice, even at 30, slower beyond (measured on 2 cores,
numpy 2.4: ``find_frame`` at 3 to 4 coplanar outcomes takes about 0.11 ms
against 0.27 ms with a numpy step, at 60 about 0.42 ms against 0.28 ms).
Each certificate carries its POVM and ``8 x n`` matrix ``max(v_s . a_i, 0)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .bloch import FRAME_ATOL, _det3, orthonormal_frame, require_rotation, rotation_from_euler_zyz
from .povm import QubitPovm, require_valid

# Smallest singular value of the direction matrix below which the POVM is
# treated as coplanar.
COPLANAR_SVAL = 1e-9

# Band around a bisection exit threshold inside which a step's closed-form
# gap is re-evaluated per vertex: ten times the largest disagreement between
# the two that tests/test_frames.py measures.
_GAP_BAND = 1e-14

# Octant sign patterns in a fixed order: lexicographic with +1 before -1.
OCTANT_SIGNS = np.array(
    [[sx, sy, sz] for sx in (1, -1) for sy in (1, -1) for sz in (1, -1)], dtype=float
)
OCTANT_LABELS = tuple(
    "".join("+" if s > 0 else "-" for s in signs) for signs in OCTANT_SIGNS
)


class FrameNotFoundError(RuntimeError):
    """No route certified a frame: an internal numerical failure."""


class FrameMethod(str, Enum):
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

    ``method`` names the route that produced the rotation.  A certificate
    from :func:`find_frame` has ``max_value <= 1 + FRAME_ATOL``; one from
    :func:`evaluate_frame` with ``check=False`` need not.  ``povm`` is the
    POVM it was evaluated for, and ``projections`` the read-only ``8 x n``
    matrix ``max(v_s . a_i, 0)``, so ``vertex_values = projections @
    povm.weights``.  Neither is serialised.
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


def evaluate_frame(
    povm: QubitPovm, rotation, method: FrameMethod = FrameMethod.MINIMAX_SEARCH, check: bool = True
) -> FrameCertificate:
    """Build the certificate for an explicit rotation.

    With ``check`` enabled the rotation must actually certify, i.e. have
    ``max_value <= 1 + FRAME_ATOL``.
    """
    cert = _certificate(povm, CubeVertices.from_rotation(rotation), method)
    if check and cert.max_value > 1.0 + FRAME_ATOL:
        raise ValueError(f"rotation does not certify: max vertex value {cert.max_value}")
    return cert


def _certificate(povm: QubitPovm, cube: CubeVertices, method: FrameMethod) -> FrameCertificate:
    projections = cube.vertices @ povm.directions.T
    np.maximum(projections, 0.0, out=projections)
    values = projections @ povm.weights
    projections.setflags(write=False)
    values.setflags(write=False)
    return FrameCertificate(cube, values, float(values.max()), method, povm, projections)


def _second_moment_frame(povm: QubitPovm) -> np.ndarray:
    """Eigenbasis of ``M = sum_i p_i a_i a_i^T`` as a deterministic rotation.

    Columns follow ascending eigenvalues, the largest-magnitude entry of
    each column is positive, and the last column is negated if needed to
    make the determinant +1.
    """
    d = povm.directions
    _, vecs = np.linalg.eigh((d.T * povm.weights) @ d)
    pivots = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(3)]
    vecs = vecs * np.where(pivots < 0, -1.0, 1.0)
    if _det3(vecs.tolist()) < 0:
        vecs[:, 2] = -vecs[:, 2]
    return vecs


# The identity cube, built and checked once.  Its rotation is the zero
# z-y-z Euler rotation, which carries -0.0 at [0, 1] and [2, 0].
# Certificates print those signed zeros, so seeded `verify` output depends
# on this exact matrix, not just on its values.
_IDENTITY_CUBE = CubeVertices.from_rotation(rotation_from_euler_zyz(0.0, 0.0, 0.0))


def _find_frame_minimax(povm: QubitPovm) -> FrameCertificate:
    cert = _certificate(povm, _IDENTITY_CUBE, FrameMethod.MINIMAX_SEARCH)
    if cert.max_value <= 1.0 + FRAME_ATOL:
        return cert
    return evaluate_frame(povm, _second_moment_frame(povm), FrameMethod.MINIMAX_SEARCH, check=False)


def _vertex_gap(outcomes, angle: float) -> float:
    """Gap between the two vertex classes at ``angle``.

    ``outcomes`` holds one ``(x, y, z, p)`` tuple per outcome: its direction
    in start-frame coordinates and its weight.
    """
    c, s = math.cos(angle), math.sin(angle)
    u, v = c - s, c + s
    c1 = c2 = 0.0
    for x, y, z, p in outcomes:
        # Vertices (c - s, c + s, 1) and (c + s, s - c, 1); s - c is -u exactly.
        d1 = u * x + v * y + z
        d2 = v * x - u * y + z
        if d1 > 0.0:
            c1 += p * d1
        if d2 > 0.0:
            c2 += p * d2
    return c1 - c2


def _find_frame_coplanar(povm: QubitPovm) -> FrameCertificate:
    # Plane normal: least-significant right-singular vector of the
    # direction matrix, with a sign convention for determinism.
    _, _, vt = np.linalg.svd(povm.directions)
    normal = vt[2]
    if normal[np.argmax(np.abs(normal))] < 0:
        normal = -normal
    frame0 = orthonormal_frame(normal)[:, [1, 2, 0]]
    outcomes = list(zip(*(frame0.T @ povm.directions.T).tolist(), povm.weights.tolist()))

    def rotation_at(angle: float) -> np.ndarray:
        c, s = np.cos(angle), np.sin(angle)
        return frame0 @ np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])

    def gap_at(angle: float, exit_gap: float) -> float:
        gap = _vertex_gap(outcomes, angle)
        if abs(abs(gap) - exit_gap) <= _GAP_BAND:
            rot = rotation_at(angle)
            c1, c2 = (projection_mass(povm, rot @ [1.0, sign, 1.0]) for sign in (1.0, -1.0))
            gap = c1 - c2
        return gap

    gap = gap_at(0.0, 1e-12)
    if abs(gap) <= 1e-12:
        return evaluate_frame(povm, frame0, FrameMethod.COPLANAR_BISECTION, check=False)
    # A quarter turn swaps the two vertex classes, so the gap changes sign
    # on [0, pi/2]; bisect to the crossing, where both values are <= 1.
    lo, hi = 0.0, np.pi / 2.0
    gap_lo = gap
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        gap_mid = gap_at(mid, 1e-13)
        if abs(gap_mid) <= 1e-13:
            lo = hi = mid
            break
        if (gap_mid > 0) == (gap_lo > 0):
            lo, gap_lo = mid, gap_mid
        else:
            hi = mid
    return evaluate_frame(
        povm, rotation_at(0.5 * (lo + hi)), FrameMethod.COPLANAR_BISECTION, check=False
    )


def find_frame(povm: QubitPovm) -> FrameCertificate:
    """Certify a coordinate frame with all eight vertex values at most 1.

    Dispatch:

    * 2 outcomes: align the x axis with the first direction; all eight
      values equal 1 exactly.
    * coplanar directions (every 3-outcome POVM in particular): z axis
      normal to the plane, bisection over the in-plane angle.
    * general: the identity, then the eigenframe of ``M = sum_i p_i a_i
      a_i^T``; the first that certifies is returned.  The eigenframe always
      certifies (see the module docstring).  Trying the identity first
      keeps the standard basis wherever it certifies.

    Every route ends in the same check on all eight re-evaluated vertex
    values.  Raises :class:`FrameNotFoundError` if it fails, which signals
    an internal numerical failure since a valid frame always exists.
    """
    require_valid(povm)
    if povm.n_outcomes == 2:
        rotation = orthonormal_frame(povm.directions[0])
        cert = evaluate_frame(povm, rotation, FrameMethod.TWO_OUTCOME_EXACT, check=False)
    elif np.linalg.svd(povm.directions, compute_uv=False)[-1] < COPLANAR_SVAL:
        cert = _find_frame_coplanar(povm)
    else:
        cert = _find_frame_minimax(povm)
    if cert.max_value > 1.0 + FRAME_ATOL:
        raise FrameNotFoundError(
            f"{cert.method.value} frame does not certify: max vertex value {cert.max_value}"
        )
    return cert
