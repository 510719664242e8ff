import numpy as np
import pytest
from oracles import octant_operators_quadrature, random_rotations

from povmsim.bloch import PauliOperator, random_unit_vectors, to_dense
from povmsim.frames import evaluate_frame, find_frame
from povmsim.jointmeas import (
    InvalidFrameError,
    build_table,
    noise_weights,
    octant_index,
    octant_operators,
    simulate_statistics,
    verify_decomposition,
)
from povmsim.povm import (
    QubitPovm,
    born_probabilities,
    projective_povm,
    random_povm,
    sic_povm,
    trine_povm,
)
from povmsim.stats import chi_squared_test


@pytest.fixture(scope="module")
def sic_frame():
    povm = sic_povm()
    return povm, find_frame(povm, hint=np.eye(3))


class TestOctantOperators:
    def test_identity_frame_closed_forms(self, sic_frame):
        _, frame = sic_frame
        ops = octant_operators(frame)
        first = ops[0]
        assert first.signs == (1, 1, 1)
        assert first.operator.t == 0.125
        np.testing.assert_allclose(first.operator.w, [1 / 16, 1 / 16, 1 / 16], atol=1e-15)
        last = ops[7]
        assert last.signs == (-1, -1, -1)
        np.testing.assert_allclose(last.operator.w, [-1 / 16, -1 / 16, -1 / 16], atol=1e-15)

    def test_sum_is_identity_and_antipodal_pairs(self):
        rng = np.random.default_rng(0)
        for rot in random_rotations(10, rng):
            frame = evaluate_frame(sic_povm(), rot, check=False)
            ops = octant_operators(frame)
            total_t = sum(o.operator.t for o in ops)
            total_w = np.sum([o.operator.w for o in ops], axis=0)
            assert abs(total_t - 1.0) <= 1e-14
            assert np.max(np.abs(total_w)) <= 1e-14
            for k in range(4):
                pair = ops[k].operator + ops[7 - k].operator
                assert abs(pair.t - 0.25) <= 1e-14
                assert np.max(np.abs(pair.w)) <= 1e-14

    def test_quadrature_matches_closed_form(self, sic_frame):
        _, frame = sic_frame
        closed = octant_operators(frame)
        numeric = octant_operators_quadrature(frame)
        for c, q in zip(closed, numeric):
            assert abs(c.operator.t - q.t) <= 1e-6
            assert np.max(np.abs(c.operator.w - q.w)) <= 1e-6

    def test_quadrature_matches_in_random_frames(self):
        povm = random_povm(5, 77)
        frame = find_frame(povm)
        for c, q in zip(octant_operators(frame), octant_operators_quadrature(frame)):
            assert abs(c.operator.t - q.t) <= 1e-6
            assert np.max(np.abs(c.operator.w - q.w)) <= 1e-6


class TestNoiseWeights:
    def test_sic_golden_values(self, sic_frame):
        povm, frame = sic_frame
        alphas = noise_weights(povm, frame)
        np.testing.assert_allclose(alphas, [0.0, 0.014, 0.046, 0.046], atol=5e-4)

    def test_projective_weights_vanish(self):
        povm = projective_povm([0.6, 0.0, 0.8])
        frame = find_frame(povm)
        np.testing.assert_allclose(noise_weights(povm, frame), 0.0, atol=1e-14)

    def test_nonnegative_and_sum_identity(self):
        for seed in range(50):
            povm = random_povm(2 + seed % 7, 500 + seed)
            frame = find_frame(povm)
            alphas = noise_weights(povm, frame)
            assert np.all(alphas >= -1e-12)
            # 8 * sum(alpha) equals the total vertex-mass deficit.
            deficit = np.sum(1.0 - frame.vertex_values)
            assert 8.0 * alphas.sum() == pytest.approx(deficit, abs=1e-12)


class TestConditionalTable:
    def test_projective_table_is_hemisphere_indicator(self):
        povm = projective_povm([0, 0, 1])
        cpt = build_table(povm, find_frame(povm))
        dots = cpt.frame.cube.vertices @ povm.directions[0]
        expected = np.where(dots >= 0, 1.0, 0.0)
        np.testing.assert_allclose(cpt.table[:, 0], expected, atol=1e-12)
        np.testing.assert_allclose(cpt.table.sum(axis=1), 1.0, atol=1e-12)

    def test_sic_golden_rows(self, sic_frame):
        povm, frame = sic_frame
        cpt = build_table(povm, frame)
        np.testing.assert_allclose(cpt.table[4], [0.5, 0.003, 0.487, 0.010], atol=5e-4)
        np.testing.assert_allclose(cpt.table[1], [0.0, 0.641, 0.349, 0.010], atol=5e-4)

    def test_rows_sum_to_one_and_entries_in_range(self):
        for seed in range(60):
            povm = random_povm(2 + seed % 7, 900 + seed)
            cpt = build_table(povm, find_frame(povm))
            assert cpt.table.min() >= 0.0
            assert cpt.table.max() <= 1.0
            np.testing.assert_allclose(cpt.table.sum(axis=1), 1.0, atol=1e-12)
            # Column sums are fixed by the outcome weights.
            np.testing.assert_allclose(cpt.table.sum(axis=0), 4.0 * povm.weights, atol=1e-9)

    def test_rejects_non_certified_frame(self):
        povm = projective_povm(np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0))
        bad = evaluate_frame(povm, np.eye(3), check=False)
        with pytest.raises(InvalidFrameError):
            build_table(povm, bad)


    def test_rejects_certificate_of_another_povm(self):
        povm = random_povm(5, 21)
        for other in (random_povm(5, 22), random_povm(6, 23), povm.flipped()):
            frame = find_frame(other)
            with pytest.raises(InvalidFrameError, match="different POVM"):
                build_table(povm, frame)
            with pytest.raises(InvalidFrameError, match="different POVM"):
                noise_weights(povm, frame)
            with pytest.raises(InvalidFrameError, match="different POVM"):
                simulate_statistics(povm, [0, 0, 0], 1000, rng_seed=0, frame=frame)

    def test_accepts_certificate_of_an_equal_povm(self):
        povm = random_povm(5, 24)
        frame = find_frame(povm)
        assert frame.povm is povm
        twin = QubitPovm(povm.weights, povm.directions)
        np.testing.assert_array_equal(build_table(twin, frame).table, build_table(povm, frame).table)
        report = simulate_statistics(povm, [0.1, 0.2, 0.3], 1000, rng_seed=5, frame=frame)
        assert report.counts.sum() == 1000


class TestDecomposition:
    def test_projective_residual_is_tiny(self):
        povm = projective_povm([0.28, -0.96, 0.0])
        report = verify_decomposition(build_table(povm, find_frame(povm)))
        assert report.max_residual <= 1e-14

    def test_sic_decomposition(self, sic_frame):
        povm, frame = sic_frame
        report = verify_decomposition(build_table(povm, frame))
        assert report.passed
        assert report.deterministic_residual <= 1e-10
        assert report.noise_residual <= 1e-10

    def test_random_povms_reconstruct(self):
        for seed in range(100):
            povm = random_povm(2 + seed % 7, 2024 + seed)
            report = verify_decomposition(build_table(povm, find_frame(povm)))
            assert report.passed, f"seed {seed}: residual {report.max_residual}"

    def test_reconstruction_matches_dense_oracle(self, sic_frame):
        povm, frame = sic_frame
        cpt = build_table(povm, frame)
        ops = octant_operators(frame)
        for i in range(povm.n_outcomes):
            dense = sum(
                cpt.table[s, i] * to_dense(ops[s].operator) for s in range(8)
            )
            p, a = povm.weights[i], povm.directions[i]
            target = to_dense(PauliOperator(p / 2.0, p * a / 4.0))
            np.testing.assert_allclose(dense, target, atol=1e-12)


class TestLambdaSampling:
    def test_unit_norm_and_reproducible(self):
        rng = np.random.default_rng(42)
        lam = random_unit_vectors(1, rng)[0]
        assert np.linalg.norm(lam) == pytest.approx(1.0, abs=1e-12)
        again = random_unit_vectors(1, np.random.default_rng(42))[0]
        np.testing.assert_array_equal(lam, again)

    def test_moments(self):
        rng = np.random.default_rng(123)
        lams = random_unit_vectors(1_000_000, rng)
        assert np.linalg.norm(lams.mean(axis=0)) < 0.004
        np.testing.assert_allclose((lams**2).mean(axis=0), 1.0 / 3.0, atol=0.002)


class TestOctantIndex:
    def test_axis_signs(self):
        rot = np.eye(3)
        assert octant_index(rot, [0.5, 0.5, 0.5]) == 0
        assert octant_index(rot, [-0.5, 0.5, 0.5]) == 4
        assert octant_index(rot, [-0.5, -0.5, -0.5]) == 7

    def test_zero_coordinate_counts_as_plus(self):
        assert octant_index(np.eye(3), [0.0, 0.0, 1.0]) == 0
        assert octant_index(np.eye(3), [0.0, -1.0, 0.0]) == 2

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(9)
        rot = random_rotations(1, rng)[0]
        lams = random_unit_vectors(100, rng)
        batch = octant_index(rot, lams)
        for lam, idx in zip(lams, batch):
            assert octant_index(rot, lam) == idx


class TestSimulation:
    def test_statistics_match_born(self):
        report = simulate_statistics(sic_povm(), [0, 0, 1], 400_000, rng_seed=21)
        assert report.max_abs_z <= 5.0
        np.testing.assert_allclose(
            report.born, born_probabilities(sic_povm(), [0, 0, 1], eta=0.5), atol=1e-15
        )

    def test_statistics_match_born_in_rotated_frames(self):
        """Every frame certifies the SIC POVM, so the state must follow the frame.

        Three chi-squared checks at p >= 1e-3: a correct sampler on a new RNG
        stream fails one with probability about 0.3%.
        """
        povm, state = sic_povm(), [0.1, -0.5, 0.7]
        for k, rot in enumerate(random_rotations(3, np.random.default_rng(31))):
            frame = evaluate_frame(povm, rot)
            report = simulate_statistics(povm, state, 200_000, rng_seed=300 + k, frame=frame)
            assert chi_squared_test(report.counts, report.born).pvalue >= 1e-3

    def test_projective_on_pure_state(self):
        report = simulate_statistics(projective_povm([0, 0, 1]), [0, 0, 1], 200_000, rng_seed=3)
        assert report.born[0] == pytest.approx(0.75)
        assert report.max_abs_z <= 5.0

    def test_trine_on_mixed_state(self):
        povm = trine_povm()
        report = simulate_statistics(povm, [0, 0, 0], 200_000, rng_seed=4)
        np.testing.assert_allclose(report.born, povm.weights / 2.0, atol=1e-15)
        assert report.max_abs_z <= 5.0

    def test_deterministic_and_worker_invariant(self):
        a = simulate_statistics(sic_povm(), [0.2, 0.1, -0.4], 300_000, rng_seed=8)
        b = simulate_statistics(sic_povm(), [0.2, 0.1, -0.4], 300_000, rng_seed=8)
        c = simulate_statistics(sic_povm(), [0.2, 0.1, -0.4], 300_000, rng_seed=8, workers=4)
        np.testing.assert_array_equal(a.counts, b.counts)
        np.testing.assert_array_equal(a.counts, c.counts)

    def test_zero_samples(self):
        report = simulate_statistics(sic_povm(), [0, 0, 0], 0, rng_seed=0)
        assert report.n_samples == 0
        np.testing.assert_array_equal(report.counts, 0)
        np.testing.assert_array_equal(report.z, 0.0)

    @pytest.mark.parametrize("workers", [0, -1])
    def test_rejects_fewer_than_one_worker(self, workers):
        with pytest.raises(ValueError, match="workers must be at least 1"):
            simulate_statistics(sic_povm(), [0, 0, 0], 1000, rng_seed=0, workers=workers)

    def test_chi_squared_pass_rate_over_many_seeds(self):
        """At least 99 of 100 seeded runs stay below the 99.9% quantile.

        With a calibrated test each run fails with probability 1e-3, so on a
        new RNG stream a correct sampler fails two or more runs, and with them
        this test, with probability 1 - 0.999**100 - 100e-3 * 0.999**99, about
        0.46%.
        """
        povm = sic_povm()
        state = [0.2, -0.1, 0.6]
        passes = sum(
            chi_squared_test(
                simulate_statistics(povm, state, 20_000, rng_seed=seed).counts,
                born_probabilities(povm, state, eta=0.5),
            ).pvalue
            >= 1e-3
            for seed in range(100)
        )
        assert passes >= 99
