"""Reference computations that the production closed forms are checked against.

Production computes every quantity in closed form; these evaluate the same
quantities along independent routes, so tests can compare the two:

* dense 4x4 Werner oracles for ``povmsim.werner``: the state and the tensor
  traces for ``p(i, j) = (p_i q_j / 4)(1 - eta a_i . b_j)`` and
  ``E(u, v) = -eta u . v``;
* spherical quadrature of the octant operators ``I/8 + v_s . sigma / 16``;
* the absolute-value form of the projection mass and the four cube-vertex
  identities behind the frame bounds;
* ``rotate``, a rotation applied to one vector or a batch of row vectors,
  and ``random_rotations``, Haar-random rotations for seeded tests;
* the coplanar bisection with a rotation and two ``projection_mass`` calls
  per step, which ``frames._find_frame_coplanar`` must match bit for bit;
* the SIC any-frame bound probed at random points of radius sqrt(3).
"""

from dataclasses import dataclass

import numpy as np

from povmsim.bloch import PauliOperator, orthonormal_frame, random_unit_vectors, to_dense
from povmsim.frames import (
    OCTANT_SIGNS,
    CubeVertices,
    FrameCertificate,
    positive_part,
    projection_mass,
)
from povmsim.povm import QubitPovm, projective_povm, require_visibility

# |psi-> = (|01> - |10>) / sqrt(2), basis order |00>, |01>, |10>, |11>.
SINGLET = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)


def werner_dense(eta: float) -> np.ndarray:
    """Dense 4x4 Werner state ``eta |psi-><psi-| + (1 - eta) I/4``."""
    require_visibility(eta)
    singlet = np.outer(SINGLET, SINGLET).astype(complex)
    return eta * singlet + (1.0 - eta) * np.eye(4, dtype=complex) / 4.0


def werner_joint_dense(alice: QubitPovm, bob: QubitPovm, eta: float) -> np.ndarray:
    """Joint distribution ``tr[(A_i x B_j) rho_W]`` from explicit tensor products."""
    rho = werner_dense(eta)
    out = np.empty((alice.n_outcomes, bob.n_outcomes))
    dense_a = [to_dense(alice.element(i)) for i in range(alice.n_outcomes)]
    dense_b = [to_dense(bob.element(j)) for j in range(bob.n_outcomes)]
    for i, ai in enumerate(dense_a):
        for j, bj in enumerate(dense_b):
            out[i, j] = float(np.trace(np.kron(ai, bj) @ rho).real)
    return out


def chsh_correlator_dense(u, v, eta: float) -> float:
    """Sign-weighted dense table ``sum_ij s_i s_j p(i, j)`` of sharp measurements."""
    joint = werner_joint_dense(projective_povm(u), projective_povm(v), eta)
    signs = np.array([1.0, -1.0])
    return float(signs @ joint @ signs)


def rotate(rotation, v):
    """Apply a rotation to one vector or to a batch of row vectors."""
    rotation = np.asarray(rotation, dtype=float)
    v = np.asarray(v, dtype=float)
    return v @ rotation.T


def random_rotations(n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` Haar-random rotation matrices, shape ``(n, 3, 3)``.

    Uses the uniform-quaternion construction of Shoemake.
    """
    u1, u2, u3 = rng.random(n), rng.random(n), rng.random(n)
    qx = np.sqrt(1.0 - u1) * np.sin(2.0 * np.pi * u2)
    qy = np.sqrt(1.0 - u1) * np.cos(2.0 * np.pi * u2)
    qz = np.sqrt(u1) * np.sin(2.0 * np.pi * u3)
    qw = np.sqrt(u1) * np.cos(2.0 * np.pi * u3)
    out = np.empty((n, 3, 3))
    out[:, 0, 0] = 1 - 2 * (qy * qy + qz * qz)
    out[:, 0, 1] = 2 * (qx * qy - qz * qw)
    out[:, 0, 2] = 2 * (qx * qz + qy * qw)
    out[:, 1, 0] = 2 * (qx * qy + qz * qw)
    out[:, 1, 1] = 1 - 2 * (qx * qx + qz * qz)
    out[:, 1, 2] = 2 * (qy * qz - qx * qw)
    out[:, 2, 0] = 2 * (qx * qz - qy * qw)
    out[:, 2, 1] = 2 * (qy * qz + qx * qw)
    out[:, 2, 2] = 1 - 2 * (qx * qx + qy * qy)
    return out


def octant_operators_quadrature(
    frame: FrameCertificate, n_theta: int = 400, n_phi: int = 400
) -> list[PauliOperator]:
    """Numerically integrated octant operators (midpoint rule).

    Integrates ``(1/4pi)(I + lambda . sigma)`` over each octant of the
    certified frame on an ``n_theta x n_phi`` grid in spherical coordinates
    of the rotated frame; the Bloch part is mapped back with the frame
    rotation.
    """
    rotation = frame.rotation
    results = []
    for sx, sy, sz in OCTANT_SIGNS:
        theta_lo, theta_hi = (0.0, np.pi / 2.0) if sz > 0 else (np.pi / 2.0, np.pi)
        if sx > 0 and sy > 0:
            phi_lo = 0.0
        elif sx < 0 and sy > 0:
            phi_lo = np.pi / 2.0
        elif sx < 0 and sy < 0:
            phi_lo = np.pi
        else:
            phi_lo = 3.0 * np.pi / 2.0
        phi_hi = phi_lo + np.pi / 2.0
        dt = (theta_hi - theta_lo) / n_theta
        dp = (phi_hi - phi_lo) / n_phi
        theta = theta_lo + dt * (np.arange(n_theta) + 0.5)
        phi = phi_lo + dp * (np.arange(n_phi) + 0.5)
        sin_t, cos_t = np.sin(theta), np.cos(theta)
        area = dt * dp / (4.0 * np.pi)
        t_part = area * sin_t.sum() * n_phi
        wx = area * (sin_t * sin_t).sum() * np.cos(phi).sum()
        wy = area * (sin_t * sin_t).sum() * np.sin(phi).sum()
        wz = area * (cos_t * sin_t).sum() * n_phi
        results.append(PauliOperator(t_part, rotation @ np.array([wx, wy, wz])))
    return results


def projection_mass_abs(povm: QubitPovm, x) -> float | np.ndarray:
    """Absolute-value form ``(1/2) sum_i p_i |x . a_i|`` of the projection mass."""
    x = np.asarray(x, dtype=float)
    values = 0.5 * np.abs(x @ povm.directions.T) @ povm.weights
    return float(values) if values.ndim == 0 else values


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


def coplanar_bisection_rotation(povm: QubitPovm) -> np.ndarray:
    """The coplanar bisection evaluated per vertex: the reference for ``frames``.

    Same start frame, exit thresholds, lo/hi updates and step count as
    ``frames._find_frame_coplanar``, but every step builds the rotation and
    evaluates the two vertex classes with ``projection_mass``.
    """
    _, _, vt = np.linalg.svd(povm.directions)
    normal = vt[2]
    if normal[np.argmax(np.abs(normal))] < 0:
        normal = -normal
    base = orthonormal_frame(normal)
    frame0 = np.column_stack([base[:, 1], base[:, 2], base[:, 0]])

    def rotation_at(angle: float) -> np.ndarray:
        c, s = np.cos(angle), np.sin(angle)
        return frame0 @ np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])

    def gap_at(angle: float) -> float:
        rot = rotation_at(angle)
        c1 = projection_mass(povm, rot @ np.array([1.0, 1.0, 1.0]))
        c2 = projection_mass(povm, rot @ np.array([1.0, -1.0, 1.0]))
        return c1 - c2

    gap = gap_at(0.0)
    if abs(gap) <= 1e-12:
        return frame0
    lo, hi = 0.0, np.pi / 2.0
    gap_lo = gap
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        gap_mid = gap_at(mid)
        if abs(gap_mid) <= 1e-13:
            lo = hi = mid
            break
        if (gap_mid > 0) == (gap_lo > 0):
            lo, gap_lo = mid, gap_mid
        else:
            hi = mid
    return rotation_at(0.5 * (lo + hi))


# The tetrahedral (SIC) POVM: every frame certifies, since M = (2/3) I.

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
