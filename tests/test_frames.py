import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    check_sic_universal_frame,
    coplanar_bisection_rotation,
    cube_vertex_identities,
    projection_mass_abs,
    random_rotations,
)
from povm_families import (
    duplicate_direction_povm,
    general_position_povm,
    near_coplanar_povm,
    near_projective_povm,
    octahedral_povm,
    planar_povm,
    smallest_sval,
    zero_weight_povm,
)

from povmsim import frames
from povmsim.bloch import random_unit_vectors, require_rotation
from povmsim.frames import (
    COPLANAR_SVAL,
    FRAME_ATOL,
    OCTANT_SIGNS,
    CubeVertices,
    FrameMethod,
    FrameNotFoundError,
    _find_frame_coplanar,
    _GAP_BAND,
    _second_moment_frame,
    _vertex_gap,
    evaluate_frame,
    find_frame,
    positive_part,
    projection_mass,
    total_vertex_mass,
)
from povmsim.povm import (
    VALIDATION_ATOL,
    QubitPovm,
    povm_from_dict,
    projective_povm,
    random_povm,
    sic_povm,
    trine_povm,
    validate,
)

finite = st.floats(min_value=-1e6, max_value=1e6)


def assert_certified(povm: QubitPovm, method=FrameMethod.MINIMAX_SEARCH):
    cert = find_frame(povm)
    assert cert.method is method
    assert cert.max_value <= 1.0 + FRAME_ATOL
    return cert


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


class TestClosedFormFrame:
    def test_unhinted_sic_is_identity(self):
        np.testing.assert_array_equal(find_frame(sic_povm()).rotation, np.eye(3))

    def test_certifying_hint_is_returned_unchanged(self):
        # Every frame certifies the SIC POVM, so every rotation is a
        # certifying hint.
        for hint in random_rotations(20, np.random.default_rng(9)):
            np.testing.assert_array_equal(find_frame(sic_povm(), hint=hint).rotation, hint)

    def test_failing_hint_falls_through_to_the_eigenframe(self):
        povm = near_projective_povm(6, 3)
        hint = random_rotations(1, np.random.default_rng(10))[0]
        for rotation in (hint, np.eye(3)):
            assert evaluate_frame(povm, rotation, check=False).max_value > 1.0 + FRAME_ATOL
        cert = find_frame(povm, hint=hint)
        assert cert.max_value <= 1.0 + FRAME_ATOL
        np.testing.assert_array_equal(cert.rotation, _second_moment_frame(povm))

    def test_repeat_is_bit_identical(self):
        for seed in range(50):
            povm = general_position_povm(4 + seed % 27, 3000 + seed)
            first, second = find_frame(povm), find_frame(povm)
            np.testing.assert_array_equal(first.rotation, second.rotation)
            np.testing.assert_array_equal(first.vertex_values, second.vertex_values)
            require_rotation(first.rotation)

    def test_eigenframe_convention(self):
        for seed in range(50):
            povm = general_position_povm(4 + seed % 27, 4000 + seed)
            rot = _second_moment_frame(povm)
            require_rotation(rot)
            moment = (povm.directions.T * povm.weights) @ povm.directions
            diag = rot.T @ moment @ rot
            np.testing.assert_allclose(diag, np.diag(np.diag(diag)), atol=1e-14)
            assert np.all(np.diff(np.diag(diag)) >= 0)
            pivots = rot[np.argmax(np.abs(rot), axis=0), range(3)]
            assert np.all(pivots[:2] > 0)

    def test_uncertified_route_raises(self, monkeypatch):
        povm = near_projective_povm(6, 3)
        bad = random_rotations(1, np.random.default_rng(10))[0]
        assert evaluate_frame(povm, bad, check=False).max_value > 1.0 + FRAME_ATOL
        monkeypatch.setattr(frames, "_second_moment_frame", lambda _: bad)
        with pytest.raises(FrameNotFoundError):
            find_frame(povm)

    def test_certificate_carries_its_projection_matrix(self):
        for seed in range(40):
            povm = random_povm(2 + seed % 9, 5000 + seed)
            cert = find_frame(povm)
            assert cert.povm is povm
            assert cert.projections.shape == (8, povm.n_outcomes)
            assert not cert.projections.flags.writeable
            np.testing.assert_array_equal(
                cert.projections, positive_part(cert.cube.vertices @ povm.directions.T)
            )
            np.testing.assert_array_equal(cert.vertex_values, cert.projections @ povm.weights)

    def test_serialised_keys(self):
        cert = find_frame(sic_povm())
        assert set(cert.to_dict()) == {"rotation", "vertex_values", "max_value", "method"}


class TestFrameBoundAcrossPovmSpace:
    """``find_frame`` certifies every family; 11,000 seeded documents in all."""

    def test_general_position(self):
        for seed in range(3000):
            assert_certified(general_position_povm(4 + seed % 27, 10_000 + seed))

    @settings(deadline=None, max_examples=200)
    @given(n=st.integers(4, 30), seed=st.integers(0, 2**32 - 1))
    def test_general_position_hypothesis(self, n, seed):
        assert_certified(general_position_povm(n, seed))

    def test_near_projective(self):
        for seed in range(3000):
            assert_certified(near_projective_povm(5 + seed % 26, 20_000 + seed))

    @settings(deadline=None, max_examples=200)
    @given(
        n=st.integers(5, 30),
        seed=st.integers(0, 2**32 - 1),
        share=st.floats(1e-6, 0.3),
    )
    def test_near_projective_hypothesis(self, n, seed, share):
        assert_certified(near_projective_povm(n, seed, scale=(share, share)))

    def test_octahedral_is_tight(self):
        # Weighted octahedra: +/- each axis of a random frame with weight
        # w_k.  All |v . a_i| are 1 in that frame, so the bound holds with
        # equality on every vertex.
        rng = np.random.default_rng(30)
        for rot in random_rotations(1000, rng):
            povm = octahedral_povm(rot, rng)
            assert_certified(povm)
            eigen = evaluate_frame(povm, _second_moment_frame(povm), check=False)
            np.testing.assert_allclose(eigen.vertex_values, 1.0, atol=1e-12)
        signs = np.tile([1.0, -1.0], 3)[:, None]
        axes = QubitPovm(np.full(6, 1.0 / 3.0), np.repeat(np.eye(3), 2, axis=0) * signs)
        np.testing.assert_allclose(assert_certified(axes).vertex_values, 1.0, atol=1e-15)

    def test_duplicate_directions(self):
        rng = np.random.default_rng(31)
        for seed in range(1000):
            base = (general_position_povm if seed % 2 else near_projective_povm)(
                5 + seed % 10, 30_000 + seed
            )
            assert_certified(duplicate_direction_povm(base, rng))

    def test_zero_weights(self):
        rng = np.random.default_rng(32)
        for seed in range(1000):
            base = general_position_povm(4 + seed % 12, 40_000 + seed)
            assert_certified(zero_weight_povm(base, 1 + seed % 3, rng))
        trine = trine_povm()
        lifted = QubitPovm(np.append(trine.weights, 0.0), np.vstack([trine.directions, [0.3, 0.1, 0.9]]))
        assert_certified(lifted)
        sic = sic_povm()
        outcomes = [{"p": float(p), "a": a.tolist()} for p, a in zip(sic.weights, sic.directions)]
        doc = {"outcomes": [{"p": 0.0, "a": [0.0, 0.0, 0.0]}] + outcomes}
        assert_certified(povm_from_dict(doc))

    def test_near_coplanar(self):
        rng = np.random.default_rng(33)
        svals = []
        for _ in range(1000):
            povm = near_coplanar_povm(rng)
            svals.append(smallest_sval(povm))
            assert_certified(povm)
        assert COPLANAR_SVAL < min(svals) and max(svals) < 6 * COPLANAR_SVAL

    def test_residuals_at_validation_tolerance(self):
        # Closure, weight-sum and unit-norm residuals each at 0.9 of
        # VALIDATION_ATOL; the module docstring bounds their effect on the
        # vertex values well below FRAME_ATOL.
        rng = np.random.default_rng(34)
        delta = 0.9 * VALIDATION_ATOL
        for seed in range(1000):
            base = general_position_povm(4 + seed % 27, 50_000 + seed)
            dirs = base.directions.copy()
            r = np.cross(dirs[0], random_unit_vectors(1, rng)[0])
            dirs[0] += delta * r / np.linalg.norm(r) / base.weights[0]
            sign_w, sign_n = rng.choice([-1.0, 1.0], 2)
            weights = base.weights * (1.0 + sign_w * delta / 2.0)
            povm = QubitPovm(weights, dirs * (1.0 + sign_n * delta))
            report = validate(povm)
            assert report.passed
            residuals = (report.closure_residual, report.weight_sum_residual, report.unit_norm_residual)
            assert min(residuals) >= 0.8 * VALIDATION_ATOL
            assert_certified(povm)


class TestCoplanarBisection:
    """The closed-form step against the per-vertex reference in ``oracles``."""

    FAMILIES = {
        "coplanar": lambda k, rng: planar_povm(3 + k % 10, 60_000 + k),
        "collinear": lambda k, rng: random_povm(3, 61_000 + k),
        "near_coplanar": lambda k, rng: near_coplanar_povm(rng),
    }

    @pytest.mark.parametrize("family", FAMILIES)
    def test_bit_identical_to_per_vertex_reference(self, family):
        rng = np.random.default_rng(35)
        for k in range(1000):
            povm = self.FAMILIES[family](k, rng)
            # The near-coplanar family is off the route, so call it directly.
            cert = _find_frame_coplanar(povm) if family == "near_coplanar" else find_frame(povm)
            assert cert.method is FrameMethod.COPLANAR_BISECTION
            reference = evaluate_frame(povm, coplanar_bisection_rotation(povm), check=False)
            np.testing.assert_array_equal(cert.rotation, reference.rotation)
            np.testing.assert_array_equal(cert.vertex_values, reference.vertex_values)

    def test_closed_form_gap_inside_the_band(self):
        # The per-vertex gap rotates the cube first; the closed form rotates
        # the directions into the start frame once.  Any start frame works.
        rng = np.random.default_rng(36)
        worst = 0.0
        for k in range(600):
            family = ("coplanar", "collinear", "near_coplanar")[k % 3]
            povm = self.FAMILIES[family](k, rng)
            frame0 = random_rotations(1, rng)[0]
            coords = frame0.T @ povm.directions.T
            for angle in rng.uniform(0.0, np.pi / 2.0, 20):
                c, s = np.cos(angle), np.sin(angle)
                rot = frame0 @ np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
                per_vertex = projection_mass(povm, rot @ [1.0, 1.0, 1.0]) - projection_mass(
                    povm, rot @ [1.0, -1.0, 1.0]
                )
                worst = max(worst, abs(_vertex_gap(coords, povm.weights, angle) - per_vertex))
        assert worst <= _GAP_BAND / 10.0


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
