"""Reference computations that the production closed forms are checked against.

Production computes every quantity in closed form; these evaluate the same
quantities along independent routes, so tests can compare the two:

* ``to_dense``, the explicit 2x2 complex matrix of a ``(t, w)`` operator,
  with the Pauli matrices;
* dense 4x4 Werner oracles for ``povmsim.werner``: the state and the tensor
  traces for ``p(i, j) = (p_i q_j / 4)(1 - eta a_i . b_j)`` and
  ``E(u, v) = -eta u . v``;
* the operator route of ``random_povm``: ``canonicalize``, which splits PSD
  operators summing to the identity into rank-1 form by ``is_psd`` and
  ``eigen_rank1_split``, and ``random_povm_operator_route``, whose weights
  and directions the closed form must match byte for byte;
* spherical quadrature of the octant operators ``I/8 + v_s . sigma / 16``;
* the absolute-value form of the projection mass and the four cube-vertex
  identities behind the frame bounds;
* ``rotate``, a rotation applied to one vector or a batch of row vectors,
  and ``random_rotations``, Haar-random rotations for seeded tests;
* ``evaluate_frame``, the certificate of an explicit rotation, for tests
  that need a frame ``find_frame`` would not return;
* the SIC any-frame bound probed at random points of radius sqrt(3);
* the numpy forms of the certify kernels, whose exact steps production
  runs in Python floats or with fewer numpy calls: ``is_rotation`` with
  ``mat.T @ mat``, ``validate`` with ``np.linalg.norm``, the cube vertices,
  the eigenframe's sign fix-up by ``np.argmax``, and ``build_table`` and
  ``verify_decomposition`` with one reduction per term;
* ``save_povm``, the JSON writer the loader's round trip is checked with;
* the Monte Carlo engine as it was written before its in-place kernel (the
  ``column_stack`` draw, ``(u < 0) @ bits`` octants, the ``np.where`` flip and
  ``below.sum(axis=1)`` for Bob), chunk by chunk in order, which
  ``simulate_statistics`` and ``LhsModel.sample_counts`` must match count for
  count.
"""

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from povmsim.bloch import (
    FRAME_ATOL,
    ROUND_OFF,
    VALIDATION_ATOL,
    PauliOperator,
    random_unit_vectors,
)
from povmsim.frames import (
    OCTANT_SIGNS,
    CubeVertices,
    FrameCertificate,
    FrameMethod,
    _evaluate,
    positive_part,
    projection_mass,
)
from povmsim.jointmeas import _MC_CHUNK, build_table
from povmsim.povm import (
    _MAX_RETRIES,
    GenerationFailedError,
    NotAPovmError,
    PovmValidation,
    QubitPovm,
    povm_to_dict,
    projective_povm,
    require_valid,
    require_visibility,
    validate,
)

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
ID2 = np.eye(2, dtype=complex)

_PAULIS = np.stack([PAULI_X, PAULI_Y, PAULI_Z])


def to_dense(op: PauliOperator) -> np.ndarray:
    """Explicit 2x2 complex matrix ``t * I + w . sigma`` (oracle path)."""
    return op.t * ID2 + np.tensordot(op.w, _PAULIS, axes=1)


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


# ---------------------------------------------------------------------------
# The operator route of random_povm: build the PSD operators, split each.


def is_psd(op: PauliOperator) -> bool:
    """A Pauli-basis operator is PSD exactly when t >= |w|."""
    return op.t >= float(np.linalg.norm(op.w)) - ROUND_OFF


def eigen_rank1_split(op: PauliOperator):
    """Split a PSD operator into two weighted rank-1 projectors.

    Returns ``((p_plus, d_plus), (p_minus, d_minus))`` where each piece is
    the operator ``p * (I + d . sigma) / 2`` and the two pieces sum to the
    input exactly.  The weights are the eigenvalues ``t +/- |w|``.  An
    isotropic operator (|w| ~ 0) has no preferred axis; by convention it is
    split along +z / -z.  A non-PSD operator raises ``ValueError``.
    """
    wnorm = float(np.linalg.norm(op.w))
    if op.t < wnorm - ROUND_OFF:
        raise ValueError(f"operator not PSD: t={op.t}, |w|={wnorm}")
    if wnorm <= 1e-14:
        axis = np.array([0.0, 0.0, 1.0])
        return (op.t, axis), (op.t, -axis)
    axis = op.w / wnorm
    return (op.t + wnorm, axis), (op.t - wnorm, -axis)


def canonicalize(raw) -> tuple[QubitPovm, list[int]]:
    """Split arbitrary PSD operators summing to the identity into rank-1 form.

    Returns the rank-1 POVM and the relabelling map: entry ``k`` is the
    index of the original operator that canonical outcome ``k`` coarse-grains
    back to.  Pieces below ``ROUND_OFF`` are dropped.
    """
    total_t = sum(op.t for op in raw)
    total_w = np.sum([op.w for op in raw], axis=0)
    if abs(total_t - 1.0) > VALIDATION_ATOL or np.linalg.norm(total_w) > VALIDATION_ATOL:
        raise NotAPovmError("operators do not sum to the identity")
    weights, directions, relabel = [], [], []
    for idx, op in enumerate(raw):
        if not is_psd(op):
            raise NotAPovmError(f"element {idx} is not positive semidefinite")
        for p, axis in eigen_rank1_split(op):
            if p < ROUND_OFF:
                continue
            weights.append(p)
            directions.append(axis)
            relabel.append(idx)
    povm = QubitPovm(np.array(weights), np.array(directions))
    return require_valid(povm), relabel


def random_povm_operator_route(n_outcomes: int, rng_seed: int) -> QubitPovm:
    """``random_povm`` with its deficit split through ``canonicalize``."""
    if n_outcomes < 2:
        raise ValueError("a POVM needs at least 2 outcomes")
    rng = np.random.default_rng(rng_seed)
    for _ in range(_MAX_RETRIES):
        if n_outcomes == 2:
            axis = random_unit_vectors(1, rng)[0]
            povm = QubitPovm(np.array([1.0, 1.0]), np.array([axis, -axis]))
        else:
            m = n_outcomes - 2
            dirs = random_unit_vectors(m, rng)
            w = 0.2 + 0.8 * rng.random(m)
            cap = 2.0 / (w.sum() + np.linalg.norm(w @ dirs))
            scale = cap * (0.3 + 0.65 * rng.random())
            w = scale * w
            deficit = PauliOperator(1.0 - w.sum() / 2.0, -(w @ dirs) / 2.0)
            ops = [PauliOperator(w[k] / 2.0, w[k] * dirs[k] / 2.0) for k in range(m)]
            try:
                povm, _ = canonicalize(ops + [deficit])
            except NotAPovmError:
                continue
        if povm.n_outcomes != n_outcomes:
            continue
        povm = QubitPovm(povm.weights * (2.0 / povm.weights.sum()), povm.directions)
        if validate(povm).passed:
            return povm
    raise GenerationFailedError(f"could not generate a {n_outcomes}-outcome POVM")


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


def evaluate_frame(
    povm: QubitPovm, rotation, method: FrameMethod = FrameMethod.MINIMAX_SEARCH, check: bool = True
) -> FrameCertificate:
    """Build the certificate for an explicit rotation.

    With ``check`` enabled the rotation must actually certify, i.e. have
    ``max_value <= 1 + FRAME_ATOL``.
    """
    cube = CubeVertices.from_rotation(rotation)
    projections, values, max_value = _evaluate(povm, cube)
    projections.setflags(write=False)
    values.setflags(write=False)
    cert = FrameCertificate(cube, values, max_value, method, povm, projections)
    if check and cert.max_value > 1.0 + FRAME_ATOL:
        raise ValueError(f"rotation does not certify: max vertex value {cert.max_value}")
    return cert


# ---------------------------------------------------------------------------
# Certify kernels in their numpy form.


def is_rotation_numpy(mat) -> bool:
    """``is_rotation`` with the orthogonality residual taken from ``mat.T @ mat``."""
    mat = np.asarray(mat, dtype=float)
    if mat.shape != (3, 3):
        return False
    (a, b, c), (d, e, f), (g, h, i) = mat.tolist()
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    return bool(np.max(np.abs(mat.T @ mat - np.eye(3))) <= ROUND_OFF) and abs(det - 1.0) <= ROUND_OFF


def validate_numpy(povm: QubitPovm) -> PovmValidation:
    """``validate`` with its norms taken by ``np.linalg.norm``."""
    w, d = povm.weights, povm.directions
    live = w > 0
    norms = np.linalg.norm(d[live], axis=1) if np.any(live) else np.zeros(0)
    return PovmValidation(
        weights_nonnegative=bool(np.all(w >= 0)),
        min_weight=float(w.min()) if w.size else 0.0,
        unit_norm_residual=float(np.max(np.abs(norms - 1.0))) if norms.size else 0.0,
        weight_sum_residual=abs(float(w.sum()) - 2.0),
        closure_residual=float(np.linalg.norm(w @ d)),
    )


def cube_vertices_numpy(rotation: np.ndarray) -> np.ndarray:
    """``CubeVertices.from_rotation``'s vertices by a product and a reversed negation."""
    verts = np.empty((8, 3))
    verts[:4] = OCTANT_SIGNS[:4] @ rotation.T
    verts[4:] = -verts[:4][::-1]
    return verts


def second_moment_frame_numpy(povm: QubitPovm) -> tuple[np.ndarray, float]:
    """The eigenframe with its sign fix-up by ``np.argmax`` pivots and ``np.where``."""
    d = povm.directions
    values, vecs = np.linalg.eigh((d.T * povm.weights) @ d)
    pivots = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(3)]
    vecs = vecs * np.where(pivots < 0, -1.0, 1.0)
    if np.linalg.det(vecs) < 0:
        vecs[:, 2] = -vecs[:, 2]
    return vecs, float(values[0])


def build_table_numpy(povm: QubitPovm, frame: FrameCertificate) -> tuple[np.ndarray, np.ndarray, float]:
    """``build_table``'s alphas, table and renormalisation residual, reductions in numpy."""
    deterministic = frame.projections * povm.weights
    vertex_mass = deterministic.sum(axis=1)
    alphas = povm.weights / 2.0 - deterministic.sum(axis=0) / 8.0
    alpha_sum = float(alphas.sum())
    if alpha_sum < ROUND_OFF:
        table = deterministic.copy()
    else:
        table = (1.0 - vertex_mass)[:, None] * (alphas / alpha_sum)
        table += deterministic
    if table.min() < 0.0 or table.max() > 1.0:
        np.clip(table, 0.0, 1.0, out=table)
    row_sums = table.sum(axis=1)
    return alphas, table / row_sums[:, None], float(np.abs(row_sums - 1.0).max())


def verify_decomposition_numpy(cpt) -> tuple[np.ndarray, float, float, float]:
    """``verify_decomposition``'s residuals, each of the three terms reconstructed on its own."""
    povm, vertices = cpt.povm, cpt.frame.cube.vertices
    target_t = povm.weights / 2.0
    target_w = povm.weights[:, None] * povm.directions / 4.0
    deterministic = cpt.frame.projections * povm.weights
    residuals = []
    for term, t_target, w_target in (
        (cpt.table, target_t, target_w),
        (deterministic, target_t - cpt.alphas, target_w),
        (cpt.table - deterministic, cpt.alphas, 0.0),
    ):
        recon_t = term.sum(axis=0) / 8.0
        recon_w = term.T @ vertices / 16.0
        residuals.append(
            np.maximum(np.abs(recon_t - t_target), np.abs(recon_w - w_target).max(axis=1))
        )
    return residuals[0], *(float(r.max()) for r in residuals)


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


def save_povm(povm: QubitPovm, path) -> None:
    Path(path).write_text(
        json.dumps(povm_to_dict(povm), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


# ---------------------------------------------------------------------------
# The Monte Carlo engine before its in-place kernel, chunk by chunk.

_OCTANT_BITS = np.array([4, 2, 1])


def unit_vectors_column_stack(n: int, rng: np.random.Generator) -> np.ndarray:
    """The out-of-place direction draw ``random_unit_vectors`` must match."""
    z = 2.0 * rng.random(n) - 1.0
    phi = 2.0 * np.pi * rng.random(n)
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


def octants_matmul(coords: np.ndarray) -> np.ndarray:
    return (coords < 0) @ _OCTANT_BITS


def _table_counts_serial(table, n_cols, classify, n_samples, rng_seed) -> np.ndarray:
    n_chunks = max(1, -(-n_samples // _MC_CHUNK)) if n_samples else 0
    seeds = np.random.SeedSequence(rng_seed).spawn(n_chunks) if n_chunks else []
    counts = np.zeros((table.shape[1], n_cols), dtype=np.int64)
    for k, ss in enumerate(seeds):
        m = min(_MC_CHUNK, n_samples - k * _MC_CHUNK)
        rng = np.random.default_rng(ss)
        u = unit_vectors_column_stack(m, rng)
        octants, cols = classify(u, rng)
        cells = np.bincount(octants * n_cols + cols, minlength=8 * n_cols)
        counts += rng.multinomial(cells.reshape(8, n_cols), table[:, None, :]).sum(axis=0).T
    return counts


def simulate_counts_reference(povm: QubitPovm, state, n_samples: int, rng_seed: int, frame):
    """Outcome counts of ``simulate_statistics`` from the reference engine."""
    cpt = build_table(povm, frame)
    frame_state = np.asarray(state, dtype=float) @ frame.rotation

    def classify(u, rng):
        octants = octants_matmul(u)
        flip = rng.random(len(u)) >= 0.5 * (1.0 + u @ frame_state)
        return np.where(flip, 7 - octants, octants), 0

    return _table_counts_serial(cpt.table, 1, classify, n_samples, rng_seed).ravel()


def lhs_counts_reference(model, n_samples: int, rng_seed: int) -> np.ndarray:
    """Joint counts of ``LhsModel.sample_counts`` from the reference engine."""
    half = model.bob.weights / 2.0
    bob_dirs = model.bob.directions @ model.frame.rotation
    cdf_const = np.cumsum(half)[:-1]
    cdf_lin = np.cumsum(half[:, None] * bob_dirs, axis=0)[:-1]

    def classify(lam, rng):
        below = lam @ cdf_lin.T + cdf_const <= rng.random(len(lam))[:, None]
        return octants_matmul(lam), below.sum(axis=1)

    return _table_counts_serial(
        model.table.table, model.bob.n_outcomes, classify, n_samples, rng_seed
    )
