"""The certify kernels against their numpy forms in ``oracles``.

``is_rotation`` must take the same decision; ``validate`` must report equal
residuals.  ``tests/golden/certify.json`` pins the same kernels end to end.
"""

import itertools

import numpy as np
from oracles import is_rotation_numpy, random_rotations, validate_numpy
from povm_families import (
    duplicate_direction_povm,
    general_position_povm,
    near_coplanar_povm,
    near_projective_povm,
    octahedral_povm,
    planar_povm,
    zero_weight_povm,
)

from povmsim.bloch import _det3, is_rotation
from povmsim.frames import _second_moment_frame
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
