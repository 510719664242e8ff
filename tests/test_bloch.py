import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import random_rotations, rotate

from povmsim.bloch import (
    NotPositiveError,
    PauliOperator,
    eigen_rank1_split,
    is_psd,
    is_rotation,
    orthonormal_frame,
    random_unit_vectors,
    rotation_from_euler_zyz,
    to_dense,
)

angles3 = st.tuples(
    st.floats(0, 2 * np.pi), st.floats(0, np.pi), st.floats(0, 2 * np.pi)
)
coords = st.floats(min_value=-10.0, max_value=10.0)


def test_rotate_identity():
    v = np.array([1.0, 2.0, 3.0])
    np.testing.assert_array_equal(rotate(np.eye(3), v), v)


def test_rotate_quarter_turn_about_z():
    r = rotation_from_euler_zyz(np.pi / 2, 0.0, 0.0)
    np.testing.assert_allclose(rotate(r, [1.0, 0.0, 0.0]), [0.0, 1.0, 0.0], atol=1e-15)


@settings(deadline=None)
@given(angles=angles3, v=st.tuples(coords, coords, coords))
def test_rotation_preserves_norm(angles, v):
    r = rotation_from_euler_zyz(*angles)
    v = np.array(v)
    assert abs(np.linalg.norm(rotate(r, v)) - np.linalg.norm(v)) <= 1e-12


def test_rotation_composition_associative_and_norm_preserving():
    rng = np.random.default_rng(5)
    rots = random_rotations(30, rng)
    vecs = rng.standard_normal((30, 3))
    for a, b, v in zip(rots[::3], rots[1::3], vecs):
        left = (a @ b) @ v
        right = a @ (b @ v)
        np.testing.assert_allclose(left, right, atol=1e-12)
        assert abs(np.linalg.norm(left) - np.linalg.norm(v)) <= 1e-12


def test_random_rotations_are_rotations():
    rng = np.random.default_rng(0)
    for r in random_rotations(50, rng):
        assert is_rotation(r)


def test_is_rotation_rejects_improper_and_non_orthogonal():
    rng = np.random.default_rng(6)
    for r in random_rotations(50, rng):
        reflection = r * np.array([1.0, 1.0, -1.0])
        assert not is_rotation(reflection)
        assert is_rotation(r + 1e-14 * rng.standard_normal((3, 3)))
        assert not is_rotation(r + 1e-10 * rng.standard_normal((3, 3)))
        assert not is_rotation((1.0 + 1e-10) * r)
    assert not is_rotation(np.eye(2))
    assert not is_rotation(np.full((3, 3), np.nan))


def test_orthonormal_frame_first_column():
    rng = np.random.default_rng(2)
    for u in random_unit_vectors(25, rng):
        frame = orthonormal_frame(u)
        np.testing.assert_allclose(frame[:, 0], u, atol=1e-15)
        assert is_rotation(frame)


class TestDenseConversion:
    def test_projector_up(self):
        op = PauliOperator(0.5, [0.0, 0.0, 0.5])
        np.testing.assert_allclose(to_dense(op), [[1, 0], [0, 0]], atol=1e-15)

    def test_maximally_mixed(self):
        np.testing.assert_allclose(
            to_dense(PauliOperator(0.5, np.zeros(3))), np.eye(2) / 2, atol=1e-15
        )

    def test_octant_closed_form_trace(self):
        op = PauliOperator(1 / 8, np.full(3, 1 / 16))
        dense = to_dense(op)
        assert abs(np.trace(dense).real - 0.25) <= 1e-15
        assert np.allclose(dense, dense.conj().T)

    @settings(deadline=None)
    @given(
        t1=coords, t2=coords,
        w1=st.tuples(coords, coords, coords),
        w2=st.tuples(coords, coords, coords),
    )
    def test_additivity(self, t1, t2, w1, w2):
        a = PauliOperator(t1, w1)
        b = PauliOperator(t2, w2)
        np.testing.assert_allclose(to_dense(a + b), to_dense(a) + to_dense(b), atol=1e-14)

    def test_trace_is_twice_t(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            op = PauliOperator(rng.standard_normal(), rng.standard_normal(3))
            assert abs(np.trace(to_dense(op)).real - 2 * op.t) <= 1e-14
            assert abs(op.trace - 2 * op.t) <= 1e-15


class TestEigenSplit:
    def test_degenerate_splits_along_z(self):
        (p_plus, d_plus), (p_minus, d_minus) = eigen_rank1_split(
            PauliOperator(0.5, np.zeros(3))
        )
        assert p_plus == p_minus == 0.5
        np.testing.assert_array_equal(d_plus, [0, 0, 1])
        np.testing.assert_array_equal(d_minus, [0, 0, -1])

    def test_weights_are_dense_eigenvalues(self):
        op = PauliOperator(0.5, [0.0, 0.0, 0.25])
        (p_plus, _), (p_minus, _) = eigen_rank1_split(op)
        # Oracle: eigendecomposition of the dense matrix.
        evals = np.sort(np.linalg.eigvalsh(to_dense(op)))
        assert p_plus == pytest.approx(evals[1], abs=1e-12) == pytest.approx(0.75)
        assert p_minus == pytest.approx(evals[0], abs=1e-12) == pytest.approx(0.25)

    def test_projector_splits_into_itself_plus_zero(self):
        (p_plus, d_plus), (p_minus, _) = eigen_rank1_split(
            PauliOperator(0.5, [0.5, 0.0, 0.0])
        )
        assert p_plus == pytest.approx(1.0, abs=1e-15)
        assert p_minus == pytest.approx(0.0, abs=1e-15)
        np.testing.assert_allclose(d_plus, [1, 0, 0], atol=1e-15)

    def test_pieces_sum_to_input(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            w = rng.standard_normal(3) * 0.4
            t = np.linalg.norm(w) + rng.random()
            op = PauliOperator(t, w)
            (p1, d1), (p2, d2) = eigen_rank1_split(op)
            total = PauliOperator(p1 / 2, p1 * d1 / 2) + PauliOperator(p2 / 2, p2 * d2 / 2)
            assert abs(total.t - op.t) <= 1e-12
            np.testing.assert_allclose(total.w, op.w, atol=1e-12)
            assert p1 >= -1e-12 and p2 >= -1e-12

    def test_rejects_non_psd(self):
        assert not is_psd(PauliOperator(0.1, [0.0, 0.0, 0.5]))
        with pytest.raises(NotPositiveError):
            eigen_rank1_split(PauliOperator(0.1, [0.0, 0.0, 0.5]))
