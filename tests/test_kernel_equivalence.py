"""The certify kernels against their numpy forms in ``oracles``.

``is_rotation`` must take the same decision; ``validate`` must report equal
residuals; the cube vertices, the eigenframe, the table and the
decomposition residuals must agree byte for byte.
``tests/golden/certify.json`` pins the same kernels end to end.
"""

import itertools

import numpy as np
from oracles import (
    build_table_numpy,
    cube_vertices_numpy,
    is_rotation_numpy,
    random_rotations,
    second_moment_frame_numpy,
    validate_numpy,
    verify_decomposition_numpy,
)
from povm_families import (
    duplicate_direction_povm,
    general_position_povm,
    near_coplanar_povm,
    near_projective_povm,
    octahedral_povm,
    planar_povm,
    zero_weight_povm,
)

from povmsim.bloch import _det3, is_rotation, rotation_from_euler_zyz
from povmsim.frames import CubeVertices, _label, _second_moment_frame, find_frame
from povmsim.jointmeas import build_table, verify_decomposition
from povmsim.povm import QubitPovm, povm_from_dict, povm_to_dict, random_povm, validate


def test_is_rotation_same_decision():
    rng = np.random.default_rng(82)
    rots = random_rotations(500, rng)
    reflect = np.diag([1.0, 1.0, -1.0])
    cases = [(r, True) for r in rots]
    cases += [(r + 1e-14 * rng.standard_normal((3, 3)), True) for r in rots]
    cases += [(r + 1e-10 * rng.standard_normal((3, 3)), False) for r in rots]
    cases += [(-r, False) for r in rots[:100]]
    cases += [(r @ reflect, False) for r in rots[:100]]
    cases += [(scale * r, False) for r in rots[:100] for scale in (0.999, 1.001, 2.0)]
    # Each residual alone: a shear between two columns breaks one dot
    # product, a squeeze of one column against another breaks two norms but
    # keeps the determinant.
    for r, (j, k) in itertools.product(rots[:50], itertools.permutations(range(3), 2)):
        sheared = r.copy()
        sheared[:, k] += 1e-10 * r[:, j]
        sheared[:, k] /= np.linalg.norm(sheared[:, k])
        squeezed = r.copy()
        squeezed[:, j] *= 1.0 + 1e-10
        squeezed[:, k] /= 1.0 + 1e-10
        cases += [(sheared, False), (squeezed, False)]
    for r, value in itertools.product(rots[:20], (np.nan, np.inf, -np.inf)):
        for k in range(9):
            bad = r.copy()
            bad.flat[k] = value
            cases.append((bad, False))
    cases += [(np.eye(3), True), (np.zeros((3, 3)), False), (np.eye(4), False), (np.ones(3), False)]
    for mat, expected in cases:
        assert is_rotation(mat) is is_rotation_numpy(mat) is expected


def test_eigenframe_determinant_sign():
    for seed in range(300):
        povm = general_position_povm(4 + seed % 27, 83_000 + seed)
        d = povm.directions
        _, vecs = np.linalg.eigh((d.T * povm.weights) @ d)
        for basis in (vecs, vecs * [1.0, 1.0, -1.0]):
            assert (_det3(basis.tolist()) < 0) == (np.linalg.det(basis) < 0)
        assert np.linalg.det(_second_moment_frame(povm)[0]) > 0


def validation_families():
    rng = np.random.default_rng(84)
    for seed in range(60):
        yield general_position_povm(4 + seed % 27, 84_000 + seed)
        yield near_projective_povm(5 + seed % 26, 85_000 + seed)
        yield planar_povm(3 + seed % 58, 86_000 + seed)
        yield near_coplanar_povm(rng)
        yield random_povm(2 + seed % 12, 87_000 + seed)
        base = general_position_povm(4 + seed % 12, 88_000 + seed)
        yield duplicate_direction_povm(base, rng)
        yield zero_weight_povm(base, 1 + seed % 3, rng)
        yield octahedral_povm(random_rotations(1, rng)[0], rng)
        # Invalid ones: perturbed weights and directions, a negative weight,
        # and no live outcome at all.
        yield QubitPovm(base.weights * (1.0 + 1e-6 * rng.standard_normal(base.n_outcomes)), base.directions)
        yield QubitPovm(base.weights, base.directions * (1.0 + 1e-8 * seed))
        yield QubitPovm(np.append(base.weights, -1e-3), np.vstack([base.directions, [0.0, 0.0, 1.0]]))
    yield QubitPovm(np.zeros(3), rng.standard_normal((3, 3)))


def test_validate_reports_equal():
    for povm in validation_families():
        fresh = QubitPovm(povm.weights, povm.directions)
        assert validate(fresh) == validate_numpy(povm)


def test_loader_normalises_as_linalg_norm():
    rng = np.random.default_rng(85)
    for seed in range(100):
        povm = general_position_povm(4 + seed % 27, 89_000 + seed)
        doc = povm_to_dict(povm)
        for outcome, scale in zip(doc["outcomes"], rng.uniform(0.5, 2.0, povm.n_outcomes)):
            outcome["a"] = [c * scale for c in outcome["a"]]
        directions = np.array([o["a"] for o in doc["outcomes"]])
        loaded = povm_from_dict(doc)
        want = directions / np.linalg.norm(directions, axis=1)[:, None]
        assert loaded.directions.tobytes() == want.tobytes()
        assert validate(loaded) == validate_numpy(loaded)


def test_cube_vertices_bytes_equal():
    rng = np.random.default_rng(86)
    euler = [rotation_from_euler_zyz(*angles) for angles in ((0.0, 0.0, 0.0), (np.pi, 0.0, 0.0))]
    for rot in euler + list(random_rotations(300, rng)):
        assert CubeVertices.from_rotation(rot).vertices.tobytes() == cube_vertices_numpy(rot).tobytes()


def test_certify_chain_bytes_equal():
    for povm in validation_families():
        if not validate(povm).passed:
            continue
        rotation, smallest = _second_moment_frame(povm)
        want_rotation, want_smallest = second_moment_frame_numpy(povm)
        assert rotation.tobytes() == want_rotation.tobytes() and smallest == want_smallest
        frame = find_frame(povm)
        cpt = build_table(povm, frame)
        alphas, table, renorm = build_table_numpy(povm, frame)
        assert cpt.alphas.tobytes() == alphas.tobytes() and cpt.table.tobytes() == table.tobytes()
        assert np.float64(cpt.renorm_residual).tobytes() == np.float64(renorm).tobytes()
        report = verify_decomposition(cpt)
        per_outcome, *maxima = verify_decomposition_numpy(cpt)
        assert report.per_outcome.tobytes() == per_outcome.tobytes()
        got = (report.max_residual, report.deterministic_residual, report.noise_residual)
        assert np.array(got).tobytes() == np.array(maxima).tobytes()


def test_label_bounds_agree_with_the_svd():
    """The eigenvalue bound gives the SVD's label, across the threshold."""
    rng = np.random.default_rng(87)
    povms = [p for p in validation_families() if validate(p).passed]
    for k, eps in enumerate(np.logspace(-16, -4, 97)):
        base = planar_povm(3 + k % 20, 90_000 + k)
        pair = rng.uniform(0.05, 0.5)
        normal = np.cross(base.directions[0], base.directions[1])
        tilt = base.directions[0] * np.cos(eps) + normal / np.linalg.norm(normal) * np.sin(eps)
        povms.append(
            QubitPovm(
                np.append(base.weights * (1.0 - pair / 2.0), [pair, pair]),
                np.vstack([base.directions, tilt, -tilt]),
            )
        )
    labels = set()
    for povm in povms:
        _, smallest = _second_moment_frame(povm)
        labels.add(_label(povm, smallest))
        assert _label(povm, smallest) is _label(povm, None)
    assert len(labels) == 3
