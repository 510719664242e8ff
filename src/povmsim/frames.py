"""Coordinate-frame search for the parent-measurement construction.

For a rank-1 POVM ``{(p_i, a_i)}`` define the even, positively homogeneous
function

    mass(x) = sum_i p_i * max(x . a_i, 0) = (1/2) sum_i p_i |x . a_i|.

The simulation protocol needs a rotated cube, vertices
``v_s = R (s_x, s_y, s_z)^T`` with ``s_k = +/-1``, on which ``mass(v_s) <= 1``
for all eight vertices.  Such a frame always exists because the eight values
sum to at most 8 in every frame and an equalising rotation exists for any
continuous even function on the sphere.  This module certifies frames:

* two-outcome POVMs admit an exact frame (x axis along the first direction),
* coplanar POVMs (all three-outcome ones in particular) are handled by
  bisecting an in-plane rotation angle until the two distinct vertex values
  cross,
* the general case runs a minimax grid-plus-refinement search over
  rotations.

Closure (``sum_i p_i a_i = 0``) makes ``mass`` even, so antipodal vertices
carry equal values and the grid search evaluates only the four vertices
``OCTANT_SIGNS[:4]`` of each rotation.  It scans the grid in fixed blocks
and returns the first rotation that certifies, so a typical search touches
one block; a full scan happens only when no grid point certifies, and then
each simplex refinement stops as soon as it reaches a value of at most 1.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np
from scipy.optimize import minimize

from .bloch import euler_zyz_matrices, orthonormal_frame, random_unit_vectors, require_rotation
from .povm import QubitPovm, require_valid

# A frame certifies when the largest vertex value is below 1 + FRAME_ATOL.
FRAME_ATOL = 1e-9

# Smallest singular value of the direction matrix below which the POVM is
# treated as coplanar.
COPLANAR_SVAL = 1e-9

# Octant sign patterns in a fixed order: lexicographic with +1 before -1.
OCTANT_SIGNS = np.array(
    [[sx, sy, sz] for sx in (1, -1) for sy in (1, -1) for sz in (1, -1)], dtype=float
)
OCTANT_LABELS = tuple(
    "".join("+" if s > 0 else "-" for s in signs) for signs in OCTANT_SIGNS
)


class FrameNotFoundError(RuntimeError):
    """Search budget exhausted without certifying a frame."""


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


def projection_mass_abs(povm: QubitPovm, x) -> float | np.ndarray:
    """Equivalent absolute-value form ``(1/2) sum_i p_i |x . a_i|``.

    Kept as an independent evaluation path for cross-checks.
    """
    x = np.asarray(x, dtype=float)
    values = 0.5 * np.abs(x @ povm.directions.T) @ povm.weights
    return float(values) if values.ndim == 0 else values


def total_vertex_mass(povm: QubitPovm, cube: CubeVertices) -> float:
    """Sum of the eight vertex values; bounded by 8 for every valid POVM."""
    return float(np.sum(projection_mass(povm, cube.vertices)))


@dataclass(frozen=True)
class CubeIdentityReport:
    """Residuals of the four cube-vertex projection identities.

    For any vector ``a`` and any rotated cube the following hold:

    1. ``sum_s |v_s . a| <= 8 |a|``
    2. ``sum_s max(v_s . a, 0) <= 4 |a|``
    3. ``sum_s (v_s . a) v_s = 8 a``
    4. ``sum_s max(v_s . a, 0) v_s = 4 a``
    """

    abs_sum: float
    abs_sum_bound: float
    positive_sum: float
    positive_sum_bound: float
    linear_residual: float
    positive_part_residual: float
    atol: float = 1e-10

    @property
    def abs_sum_ok(self) -> bool:
        return self.abs_sum <= self.abs_sum_bound + self.atol

    @property
    def positive_sum_ok(self) -> bool:
        return self.positive_sum <= self.positive_sum_bound + self.atol

    @property
    def linear_ok(self) -> bool:
        return self.linear_residual <= self.atol

    @property
    def positive_part_ok(self) -> bool:
        return self.positive_part_residual <= self.atol

    @property
    def all_ok(self) -> bool:
        return self.abs_sum_ok and self.positive_sum_ok and self.linear_ok and self.positive_part_ok


def cube_vertex_identities(a, cube: CubeVertices, atol: float = 1e-10) -> CubeIdentityReport:
    """Evaluate the four vertex-sum identities for one vector ``a``."""
    a = np.asarray(a, dtype=float)
    dots = cube.vertices @ a
    pos = positive_part(dots)
    norm_a = float(np.linalg.norm(a))
    linear = dots @ cube.vertices
    positive = pos @ cube.vertices
    return CubeIdentityReport(
        abs_sum=float(np.sum(np.abs(dots))),
        abs_sum_bound=8.0 * norm_a,
        positive_sum=float(np.sum(pos)),
        positive_sum_bound=4.0 * norm_a,
        linear_residual=float(np.max(np.abs(linear - 8.0 * a))),
        positive_part_residual=float(np.max(np.abs(positive - 4.0 * a))),
        atol=atol,
    )


@dataclass(frozen=True, eq=False)
class FrameCertificate:
    """A rotation plus the eight vertex values proving ``mass(v_s) <= 1``.

    ``grid_scanned`` counts the grid rotations the minimax search evaluated
    and ``refine_evals`` the objective calls of its simplex refinement; both
    are 0 on the other routes and when a hint certifies.  The counters are
    deterministic and are not part of :meth:`to_dict`.
    """

    cube: CubeVertices
    vertex_values: np.ndarray
    max_value: float
    method: FrameMethod
    grid_scanned: int = 0
    refine_evals: int = 0

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
    cube = CubeVertices.from_rotation(rotation)
    values = projection_mass(povm, cube.vertices)
    values.setflags(write=False)
    max_value = float(values.max())
    if check and max_value > 1.0 + FRAME_ATOL:
        raise ValueError(f"rotation does not certify: max vertex value {max_value}")
    return FrameCertificate(cube=cube, vertex_values=values, max_value=max_value, method=method)


# ---------------------------------------------------------------------------
# Minimax search machinery.

_GRID_STEP_DEG = 5.0
# Rotations per grid block; the scan stops at the end of the first block
# holding a certifying rotation.
_GRID_BLOCK = 512
_GRID_CACHE: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None


def _euler_grid() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cached rotation grid: Euler triples, matrices and four cube vertices.

    The objective is invariant under the 24 rotations of the cube, so the
    grid only needs one representative per symmetry class.  Right
    multiplication by a cube rotation can send the frame's z column to any
    of the +/- columns, one of which always lies within 54.74 degrees of
    the z axis, and quarter turns about z cover gamma periods of 90
    degrees.  Hence beta <= 60 degrees (with slack) and gamma < 90 degrees
    suffice.  The objective is also even, so each rotation keeps only the
    vertices ``R s`` for ``s`` in ``OCTANT_SIGNS[:4]``, whose antipodes are
    the other four; the vertex array has shape ``(n_rotations, 4, 3)``.
    """
    global _GRID_CACHE
    if _GRID_CACHE is None:
        step = np.deg2rad(_GRID_STEP_DEG)
        alphas = np.arange(0.0, 2.0 * np.pi - 1e-9, step)
        betas = np.arange(0.0, np.deg2rad(60.0) + 1e-9, step)
        gammas = np.arange(0.0, np.deg2rad(90.0) - 1e-9, step)
        grid = np.stack(np.meshgrid(alphas, betas, gammas, indexing="ij"), axis=-1)
        angles = grid.reshape(-1, 3)
        mats = euler_zyz_matrices(angles)
        verts = np.einsum("gij,sj->gsi", mats, OCTANT_SIGNS[:4])
        _GRID_CACHE = (angles, mats, verts)
    return _GRID_CACHE


def _grid_maxima(povm: QubitPovm, start: int, stop: int) -> np.ndarray:
    """Largest vertex value for grid rotations ``start:stop``, in scan order."""
    _, _, verts = _euler_grid()
    values = positive_part(verts[start:stop].reshape(-1, 3) @ povm.directions.T) @ povm.weights
    return values.reshape(-1, 4).max(axis=1)


def _euler_objective(povm: QubitPovm):
    signs = OCTANT_SIGNS

    def objective(angles: np.ndarray) -> float:
        rot = euler_zyz_matrices(angles[None, :])[0]
        verts = signs @ rot.T
        return float((positive_part(verts @ povm.directions.T) @ povm.weights).max())

    return objective


def _stop_once_certified(intermediate_result) -> None:
    # Refinement only has to certify, not converge.  scipy passes the
    # current best point as an OptimizeResult to a callback whose single
    # parameter is named ``intermediate_result``, and ends the run on
    # StopIteration.
    if intermediate_result.fun <= 1.0:
        raise StopIteration


def _find_frame_minimax(povm: QubitPovm, hint) -> FrameCertificate:
    bound = 1.0 + FRAME_ATOL
    if hint is not None:
        cert = evaluate_frame(povm, hint, FrameMethod.MINIMAX_SEARCH, check=False)
        if cert.max_value <= bound:
            return cert
    angles, mats, _ = _euler_grid()
    n_grid = len(angles)
    # Acceptance is decided on the certificate's own re-evaluated values;
    # up to 32 hits are tried, in scan order, in case one sits within
    # rounding of the bound.
    rechecks_left = 32
    blocks = []
    for start in range(0, n_grid, _GRID_BLOCK):
        stop = min(start + _GRID_BLOCK, n_grid)
        block = _grid_maxima(povm, start, stop)
        blocks.append(block)
        for idx in start + np.flatnonzero(block <= bound)[:rechecks_left]:
            rechecks_left -= 1
            cert = evaluate_frame(povm, mats[idx], FrameMethod.MINIMAX_SEARCH, check=False)
            if cert.max_value <= bound:
                return replace(cert, grid_scanned=stop)
    # No grid point certifies; polish the best candidates with a simplex
    # search (10 multistarts, at most 2000 iterations each).
    maxima = np.concatenate(blocks)
    objective = _euler_objective(povm)
    evals = 0
    for idx in np.argsort(maxima, kind="stable")[:10]:
        result = minimize(
            objective,
            angles[idx],
            method="Nelder-Mead",
            callback=_stop_once_certified,
            options={"maxiter": 2000, "xatol": 1e-10, "fatol": 1e-14},
        )
        evals += result.nfev
        if result.fun <= bound:
            rot = euler_zyz_matrices(result.x[None, :])[0]
            cert = evaluate_frame(povm, rot, FrameMethod.MINIMAX_SEARCH, check=False)
            if cert.max_value <= bound:
                return replace(cert, grid_scanned=n_grid, refine_evals=evals)
    raise FrameNotFoundError(
        f"no frame with max vertex value <= {bound} found within the search budget"
    )


def _find_frame_coplanar(povm: QubitPovm) -> FrameCertificate:
    # Plane normal: least-significant right-singular vector of the
    # direction matrix, with a sign convention for determinism.
    _, _, vt = np.linalg.svd(povm.directions)
    normal = vt[2]
    if normal[np.argmax(np.abs(normal))] < 0:
        normal = -normal
    base = orthonormal_frame(normal)
    frame0 = np.column_stack([base[:, 1], base[:, 2], base[:, 0]])

    def rotation_at(angle: float) -> np.ndarray:
        c, s = np.cos(angle), np.sin(angle)
        return frame0 @ np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])

    def vertex_pair(angle: float) -> tuple[float, float]:
        rot = rotation_at(angle)
        c1 = projection_mass(povm, rot @ np.array([1.0, 1.0, 1.0]))
        c2 = projection_mass(povm, rot @ np.array([1.0, -1.0, 1.0]))
        return c1, c2

    c1, c2 = vertex_pair(0.0)
    gap = c1 - c2
    if abs(gap) <= 1e-12:
        return evaluate_frame(povm, frame0, FrameMethod.COPLANAR_BISECTION)
    # A quarter turn swaps the two vertex classes, so the gap changes sign
    # on [0, pi/2]; bisect to the crossing, where both values are <= 1.
    lo, hi = 0.0, np.pi / 2.0
    gap_lo = gap
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        c1, c2 = vertex_pair(mid)
        gap_mid = c1 - c2
        if abs(gap_mid) <= 1e-13:
            lo = hi = mid
            break
        if (gap_mid > 0) == (gap_lo > 0):
            lo, gap_lo = mid, gap_mid
        else:
            hi = mid
    return evaluate_frame(povm, rotation_at(0.5 * (lo + hi)), FrameMethod.COPLANAR_BISECTION)


def find_frame(povm: QubitPovm, hint=None) -> FrameCertificate:
    """Certify a coordinate frame with all eight vertex values at most 1.

    Dispatch:

    * 2 outcomes: align the x axis with the first direction; all eight
      values equal 1 exactly.
    * coplanar directions (every 3-outcome POVM in particular): z axis
      normal to the plane, bisection over the in-plane angle.
    * general: ``hint`` (a rotation) is tried first.  Then a 5-degree
      Euler-angle grid is scanned in blocks of ``_GRID_BLOCK`` rotations,
      four vertex values each (the other four are their antipodes); the
      first grid rotation, in scan order, that certifies on all eight
      re-evaluated vertices is returned without scanning later blocks.
      Only if no grid point certifies are the 10 best grid points refined
      by Nelder-Mead, each run stopping once its best value is at most 1;
      its result is re-evaluated on all eight vertices before it is
      accepted.

    Raises :class:`FrameNotFoundError` if the search budget is exhausted,
    which signals a numerical pathology since a valid frame always exists.
    """
    require_valid(povm)
    if povm.n_outcomes == 2:
        rotation = orthonormal_frame(povm.directions[0])
        return evaluate_frame(povm, rotation, FrameMethod.TWO_OUTCOME_EXACT)
    smallest_sval = np.linalg.svd(povm.directions, compute_uv=False)[-1]
    if smallest_sval < COPLANAR_SVAL:
        return _find_frame_coplanar(povm)
    return _find_frame_minimax(povm, hint)


# ---------------------------------------------------------------------------
# SIC-specific check: for the tetrahedral POVM every frame certifies.

_SIC_GRAM_OFFDIAG = -1.0 / 3.0


@dataclass(frozen=True)
class SicBoundReport:
    n_samples: int
    n_violations: int
    max_value: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.n_violations == 0


def check_sic_universal_frame(
    povm: QubitPovm, n_samples: int, rng_seed: int, tolerance: float = 1e-12
) -> SicBoundReport:
    """Probe ``mass(x) <= 1`` on random points of radius sqrt(3).

    Valid for the tetrahedral (SIC) POVM, where the bound holds in every
    frame; the input is checked to be SIC-like (four weight-1/2 outcomes
    with pairwise direction overlaps of -1/3) before sampling.
    """
    if povm.n_outcomes != 4 or np.max(np.abs(povm.weights - 0.5)) > 1e-9:
        raise ValueError("expected a 4-outcome POVM with all weights 1/2")
    gram = povm.directions @ povm.directions.T
    off = gram[~np.eye(4, dtype=bool)]
    if np.max(np.abs(off - _SIC_GRAM_OFFDIAG)) > 1e-9:
        raise ValueError("directions are not tetrahedral")
    rng = np.random.default_rng(rng_seed)
    points = np.sqrt(3.0) * random_unit_vectors(n_samples, rng)
    values = projection_mass(povm, points)
    return SicBoundReport(
        n_samples=n_samples,
        n_violations=int(np.sum(values > 1.0 + tolerance)),
        max_value=float(values.max()) if n_samples else 0.0,
        tolerance=tolerance,
    )
