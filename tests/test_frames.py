import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from povmsim.bloch import random_rotations, random_unit_vectors
from povmsim.frames import (
    _GRID_BLOCK,
    FRAME_ATOL,
    OCTANT_SIGNS,
    CubeVertices,
    FrameMethod,
    _euler_grid,
    _grid_maxima,
    check_sic_universal_frame,
    cube_vertex_identities,
    evaluate_frame,
    find_frame,
    positive_part,
    projection_mass,
    projection_mass_abs,
    total_vertex_mass,
)
from povmsim.povm import QubitPovm, projective_povm, random_povm, sic_povm, trine_povm

finite = st.floats(min_value=-1e6, max_value=1e6)


def general_position_povm(n: int, seed: int) -> QubitPovm:
    """``n - 1`` weighted random directions plus the direction closing them.

    ``random_povm(4, .)`` is always coplanar; this family is in general
    position from 4 outcomes on.
    """
    rng = np.random.default_rng(seed)
    dirs = random_unit_vectors(n - 1, rng)
    weights = rng.uniform(0.2, 1.0, n - 1)
    rest = weights @ dirs
    norm = np.linalg.norm(rest)
    weights = np.append(weights, norm)
    return QubitPovm(2.0 * weights / weights.sum(), np.vstack([dirs, -rest / norm]))


def full_grid_scan(povm: QubitPovm):
    """Grid index the full 8-vertex scan certifies, or None.

    Reference for the blocked 4-vertex search: every grid rotation is
    evaluated on all eight vertices, and the first of the first 32 grid
    hits whose re-evaluated certificate passes is returned.
    """
    _, mats, _ = _euler_grid()
    verts = np.einsum("gij,sj->gsi", mats, OCTANT_SIGNS).reshape(-1, 3)
    maxima = projection_mass(povm, verts).reshape(-1, 8).max(axis=1)
    for idx in np.flatnonzero(maxima <= 1.0 + FRAME_ATOL)[:32]:
        if evaluate_frame(povm, mats[idx], check=False).max_value <= 1.0 + FRAME_ATOL:
            return idx
    return None


class TestPositivePart:
    def test_examples(self):
        assert positive_part(2.5) == 2.5
        assert positive_part(-1.0) == 0.0
        assert positive_part(0.0) == 0.0

    @settings(deadline=None)
    @given(x=finite)
    def test_halfsum_identity(self, x):
        assert positive_part(x) == (abs(x) + x) / 2
        assert positive_part(x) - positive_part(-x) == x
        assert positive_part(x) + positive_part(-x) == abs(x)


class TestProjectionMass:
    def test_projective_at_cube_vertex(self):
        assert projection_mass(projective_povm([0, 0, 1]), [1.0, 1.0, 1.0]) == pytest.approx(1.0)

    def test_zero_at_origin(self):
        assert projection_mass(sic_povm(), np.zeros(3)) == 0.0

    def test_sic_value_at_first_vertex(self):
        assert projection_mass(sic_povm(), [1.0, 1.0, 1.0]) == pytest.approx(0.811, abs=5e-4)

    def test_agrees_with_absolute_form(self):
        rng = np.random.default_rng(0)
        for seed in range(20):
            povm = random_povm(2 + seed % 7, seed)
            xs = rng.standard_normal((100, 3)) * 3.0
            np.testing.assert_allclose(
                projection_mass(povm, xs), projection_mass_abs(povm, xs), atol=1e-12
            )

    def test_even_and_homogeneous(self):
        rng = np.random.default_rng(1)
        povm = random_povm(5, 42)
        xs = rng.standard_normal((200, 3))
        scales = rng.standard_normal(200) * 4.0
        f = projection_mass(povm, xs)
        np.testing.assert_allclose(projection_mass(povm, -xs), f, atol=1e-12)
        np.testing.assert_allclose(
            projection_mass(povm, xs * scales[:, None]), np.abs(scales) * f, atol=1e-11
        )


class TestCubeVertices:
    def test_norms_and_antipodes(self):
        rng = np.random.default_rng(2)
        for rot in random_rotations(20, rng):
            cube = CubeVertices.from_rotation(rot)
            np.testing.assert_allclose(
                np.linalg.norm(cube.vertices, axis=1), np.sqrt(3.0), atol=1e-12
            )
            # Antipodal pairing is exact by construction.
            np.testing.assert_array_equal(cube.vertices[range(8)], -cube.vertices[range(7, -1, -1)])

    def test_identity_cube_is_sign_table(self):
        cube = CubeVertices.from_rotation(np.eye(3))
        np.testing.assert_array_equal(cube.vertices, OCTANT_SIGNS)


class TestCubeIdentities:
    def test_axis_aligned_linear_sum(self):
        cube = CubeVertices.from_rotation(np.eye(3))
        a = np.array([1.0, 0.0, 0.0])
        dots = cube.vertices @ a
        np.testing.assert_allclose(dots @ cube.vertices, [8.0, 0.0, 0.0], atol=1e-14)
        assert cube_vertex_identities(a, cube).all_ok

    def test_diagonal_vector(self):
        cube = CubeVertices.from_rotation(np.eye(3))
        a = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
        report = cube_vertex_identities(a, cube)
        # Brute-force oracle for the absolute projection sum.
        brute = sum(abs(v @ a) for v in cube.vertices)
        assert report.abs_sum == pytest.approx(brute, abs=1e-14)
        assert brute <= 8.0 + 1e-12
        assert report.all_ok

    def test_thousand_random_pairs(self):
        rng = np.random.default_rng(3)
        rots = random_rotations(1000, rng)
        vecs = rng.standard_normal((1000, 3)) * 2.0
        for rot, a in zip(rots, vecs):
            assert cube_vertex_identities(a, CubeVertices.from_rotation(rot)).all_ok


class TestVertexMassSum:
    def test_projective_axis_aligned_is_eight(self):
        povm = projective_povm([1, 0, 0])
        cube = CubeVertices.from_rotation(np.eye(3))
        assert total_vertex_mass(povm, cube) == pytest.approx(8.0, abs=1e-12)

    def test_sic_canonical_frame(self):
        cube = CubeVertices.from_rotation(np.eye(3))
        assert total_vertex_mass(sic_povm(), cube) == pytest.approx(7.152, abs=1e-3)

    def test_bounded_by_eight(self):
        rng = np.random.default_rng(4)
        for seed in range(200):
            povm = random_povm(2 + seed % 7, 1000 + seed)
            rot = random_rotations(1, rng)[0]
            assert total_vertex_mass(povm, CubeVertices.from_rotation(rot)) <= 8.0 + 1e-10


class TestFindFrame:
    def test_projective_frame_is_exact(self):
        cert = find_frame(projective_povm([0.3, -0.4, 0.87]))
        assert cert.method is FrameMethod.TWO_OUTCOME_EXACT
        np.testing.assert_allclose(cert.vertex_values, 1.0, atol=1e-12)

    def test_trine_uses_bisection(self):
        cert = find_frame(trine_povm())
        assert cert.method is FrameMethod.COPLANAR_BISECTION
        assert cert.max_value <= 1.0 + FRAME_ATOL
        # The two vertex classes meet at the crossing.
        assert abs(cert.vertex_values[0] - cert.vertex_values[2]) <= 1e-9

    def test_sic_with_identity_hint(self):
        cert = find_frame(sic_povm(), hint=np.eye(3))
        assert cert.method is FrameMethod.MINIMAX_SEARCH
        np.testing.assert_array_equal(cert.rotation, np.eye(3))
        assert cert.max_value == pytest.approx(0.977, abs=5e-4)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_random_povm_certificates(self, n):
        for seed in range(10):
            povm = random_povm(n, 31 * n + seed)
            cert = find_frame(povm)
            assert cert.max_value <= 1.0 + FRAME_ATOL
            if n == 2:
                assert cert.method is FrameMethod.TWO_OUTCOME_EXACT
            if n == 3:
                assert cert.method is FrameMethod.COPLANAR_BISECTION
            # Re-evaluation reproduces the certified values.
            again = projection_mass(povm, cert.cube.vertices)
            np.testing.assert_allclose(again, cert.vertex_values, atol=1e-12)
            # Evenness across antipodal vertices.
            np.testing.assert_allclose(
                cert.vertex_values, cert.vertex_values[::-1], atol=1e-12
            )

    def test_rejects_invalid_candidate_rotation(self):
        # The identity frame does not certify an off-axis projective pair.
        povm = projective_povm(np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0))
        cube = CubeVertices.from_rotation(np.eye(3))
        assert projection_mass(povm, cube.vertices).max() > 1.0 + FRAME_ATOL
        with pytest.raises(ValueError):
            evaluate_frame(povm, np.eye(3))


class TestGridSearch:
    def test_four_values_equal_their_antipodes(self):
        _, _, verts = _euler_grid()
        assert verts.shape[1:] == (4, 3)
        flat = verts.reshape(-1, 3)
        for seed in range(5):
            povm = general_position_povm(4 + 6 * seed, 500 + seed)
            np.testing.assert_allclose(
                projection_mass(povm, flat), projection_mass(povm, -flat), atol=1e-12
            )
            eight = projection_mass(povm, np.concatenate([flat, -flat])).reshape(2, -1, 4)
            np.testing.assert_allclose(
                _grid_maxima(povm, 0, len(verts)), eight.max(axis=(0, 2)), atol=1e-12
            )

    def test_matches_full_eight_vertex_scan(self):
        _, mats, _ = _euler_grid()
        compared = later_blocks = 0
        for seed in range(220):
            povm = general_position_povm(4 + seed % 27, 2000 + seed)
            idx = full_grid_scan(povm)
            if idx is None:
                continue
            cert = find_frame(povm)
            np.testing.assert_array_equal(cert.rotation, mats[idx])
            # The scan stops at the end of the block holding the hit.
            assert cert.grid_scanned == min((idx // _GRID_BLOCK + 1) * _GRID_BLOCK, len(mats))
            assert cert.refine_evals == 0
            compared += 1
            later_blocks += idx >= _GRID_BLOCK
        assert compared >= 200
        assert later_blocks > 0

    def test_grid_miss_refines_to_a_certificate(self):
        _, mats, _ = _euler_grid()
        povm = next(
            p for p in (random_povm(5 + seed % 6, 7000 + seed) for seed in range(500))
            if full_grid_scan(p) is None
        )
        cert = find_frame(povm)
        assert cert.method is FrameMethod.MINIMAX_SEARCH
        assert cert.max_value <= 1.0 + FRAME_ATOL
        assert cert.grid_scanned == len(mats)
        assert cert.refine_evals > 0

    def test_counters_zero_off_the_grid(self):
        hinted = find_frame(sic_povm(), hint=np.eye(3))
        assert hinted.method is FrameMethod.MINIMAX_SEARCH
        for cert in (hinted, find_frame(projective_povm([0, 0, 1])), find_frame(trine_povm())):
            assert cert.grid_scanned == 0
            assert cert.refine_evals == 0
        # The counters stay out of the serialised certificate.
        assert set(hinted.to_dict()) == {"rotation", "vertex_values", "max_value", "method"}


class TestSicUniversalFrame:
    def test_no_violations(self):
        report = check_sic_universal_frame(sic_povm(), 100_000, rng_seed=7)
        assert report.passed
        assert report.max_value <= 1.0 + 1e-12

    def test_value_along_first_direction(self):
        povm = sic_povm()
        x = np.sqrt(3.0) * povm.directions[0]
        assert projection_mass(povm, x) == pytest.approx(np.sqrt(3.0) / 2.0, abs=1e-12)

    def test_rejects_non_sic_input(self):
        with pytest.raises(ValueError):
            check_sic_universal_frame(trine_povm(), 10, rng_seed=0)
        rng = np.random.default_rng(8)
        skew = sic_povm().directions.copy()
        skew[1] = random_unit_vectors(1, rng)[0]
        with pytest.raises(ValueError):
            check_sic_universal_frame(QubitPovm(np.full(4, 0.5), skew), 10, rng_seed=0)
