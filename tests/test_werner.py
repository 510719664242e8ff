import warnings

import numpy as np
import pytest
from oracles import (
    chsh_correlator_dense,
    evaluate_frame,
    random_rotations,
    to_dense,
    werner_dense,
    werner_joint_dense,
)

from povmsim.jointmeas import build_table
from povmsim.povm import projective_povm, random_povm, sic_povm, trine_povm
from povmsim.stats import chi_squared_test
from povmsim.werner import (
    LhsModel,
    bob_conditional_state,
    chsh_optimal_settings,
    chsh_value,
    lhs_model,
    werner_joint_quantum,
)


class TestWernerState:
    @pytest.mark.parametrize("eta", [0.0, 0.3, 0.5, 1.0])
    def test_dense_form_is_a_state(self, eta):
        rho = werner_dense(eta)
        assert abs(np.trace(rho).real - 1.0) <= 1e-14
        np.testing.assert_allclose(rho, rho.conj().T, atol=1e-15)
        assert np.linalg.eigvalsh(rho).min() >= -1e-14

    def test_visibility_range_enforced(self):
        with pytest.raises(ValueError):
            werner_dense(1.5)


class TestQuantumJoint:
    def test_singlet_anticorrelation(self):
        povm = projective_povm([0, 0, 1])
        joint = werner_joint_quantum(povm, povm, 1.0).table
        np.testing.assert_allclose(joint, [[0.0, 0.5], [0.5, 0.0]], atol=1e-14)

    def test_fully_mixed_is_product(self):
        a, b = trine_povm(), sic_povm()
        joint = werner_joint_quantum(a, b, 0.0).table
        np.testing.assert_allclose(joint, np.outer(a.weights / 2, b.weights / 2), atol=1e-14)

    def test_half_visibility_projective_value(self):
        povm = projective_povm([0, 0, 1])
        joint = werner_joint_quantum(povm, povm, 0.5).table
        # Oracle: dense 4x4 trace.
        dense = werner_joint_dense(povm, povm, 0.5)
        np.testing.assert_allclose(joint, dense, atol=1e-12)
        assert joint[0, 0] == pytest.approx(1.0 / 8.0, abs=1e-14)

    def test_closed_form_agrees_with_dense_for_random_pairs(self):
        rng = np.random.default_rng(2)
        for seed in range(25):
            a = random_povm(2 + seed % 7, seed)
            b = random_povm(2 + (seed + 3) % 7, 70 + seed)
            eta = rng.random()
            joint = werner_joint_quantum(a, b, eta).table
            np.testing.assert_allclose(joint, werner_joint_dense(a, b, eta), atol=1e-12)

    def test_closed_form_agrees_with_dense_on_criterion_07_pairs(self):
        # The pairs of acceptance criterion 07, at the model's visibility.
        worst = 0.0
        for k in range(500):
            a = random_povm(2 + k % 7, 70_000 + k)
            b = random_povm(2 + (k + 3) % 7, 80_000 + k)
            gap = werner_joint_quantum(a, b, 0.5).table - werner_joint_dense(a, b, 0.5)
            worst = max(worst, float(np.max(np.abs(gap))))
        assert worst <= 1e-12

    @pytest.mark.parametrize("eta", [0.0, 1.0])
    def test_closed_form_agrees_with_dense_at_extreme_visibility(self, eta):
        povms = [projective_povm([0, 0, 1]), trine_povm(), sic_povm()] + [
            random_povm(2 + seed % 7, 90_000 + seed) for seed in range(12)
        ]
        for a in povms:
            for b in povms:
                joint = werner_joint_quantum(a, b, eta).table
                np.testing.assert_allclose(joint, werner_joint_dense(a, b, eta), atol=1e-12)

    def test_no_signaling_marginals(self):
        a, b = sic_povm(), trine_povm()
        joint = werner_joint_quantum(a, b, 0.7)
        np.testing.assert_allclose(joint.marginal_alice, a.weights / 2.0, atol=1e-10)
        np.testing.assert_allclose(joint.marginal_bob, b.weights / 2.0, atol=1e-10)
        assert joint.table.sum() == pytest.approx(1.0, abs=1e-10)


class TestHiddenStateModel:
    def test_projective_pair_matches_quantum(self):
        povm = projective_povm([0, 0, 1])
        lhs = lhs_model(povm, povm).joint_exact().table
        quantum = werner_joint_quantum(povm, povm, 0.5).table
        np.testing.assert_allclose(lhs, quantum, atol=1e-12)

    def test_sic_against_projective_x(self):
        lhs = lhs_model(sic_povm(), projective_povm([1, 0, 0])).joint_exact().table
        quantum = werner_joint_quantum(sic_povm(), projective_povm([1, 0, 0]), 0.5).table
        assert np.max(np.abs(lhs - quantum)) <= 1e-10

    def test_random_pairs_match_quantum(self):
        worst = 0.0
        for seed in range(50):
            a = random_povm(2 + seed % 7, 3000 + seed)
            b = random_povm(2 + (seed + 2) % 7, 4000 + seed)
            lhs = lhs_model(a, b).joint_exact().table
            quantum = werner_joint_quantum(a, b, 0.5).table
            worst = max(worst, float(np.max(np.abs(lhs - quantum))))
        assert worst <= 1e-10

    def test_bob_conditional_state_identity(self):
        model = lhs_model(projective_povm([0, 0, 1]), projective_povm([1, 0, 0]))
        state = bob_conditional_state(model.table, 0)
        assert state.t == pytest.approx(0.25, abs=1e-12)
        np.testing.assert_allclose(state.w, [0, 0, -0.125], atol=1e-12)

    def test_bob_conditional_state_random_povms(self):
        for seed in range(20):
            alice = random_povm(2 + seed % 7, 5000 + seed)
            model = lhs_model(alice, sic_povm())
            total_t, total_w = 0.0, np.zeros(3)
            for i in range(alice.n_outcomes):
                state = bob_conditional_state(model.table, i)
                p, a = alice.weights[i], alice.directions[i]
                assert state.t == pytest.approx(p / 4.0, abs=1e-12)
                np.testing.assert_allclose(state.w, -p * a / 8.0, atol=1e-12)
                total_t, total_w = total_t + state.t, total_w + state.w
            # Unconditioned, Bob holds the maximally mixed state.
            assert total_t == pytest.approx(0.5, abs=1e-12)
            np.testing.assert_allclose(total_w, 0.0, atol=1e-12)

    def test_bob_state_matches_dense_partial_trace(self):
        alice = sic_povm()
        model = lhs_model(alice, projective_povm([0, 1, 0]))
        rho = werner_dense(0.5)
        for i in range(alice.n_outcomes):
            dense_a = to_dense(alice.element(i))
            kron = np.kron(dense_a, np.eye(2, dtype=complex))
            after = kron @ rho
            partial = np.array(
                [
                    [after[0, 0] + after[2, 2], after[0, 1] + after[2, 3]],
                    [after[1, 0] + after[3, 2], after[1, 1] + after[3, 3]],
                ]
            )
            np.testing.assert_allclose(
                to_dense(bob_conditional_state(model.table, i)), partial, atol=1e-12
            )


class TestSampling:
    def test_counts_deterministic_and_worker_invariant(self):
        model = lhs_model(sic_povm(), trine_povm())
        c1 = model.sample_counts(200_000, rng_seed=5)
        c2 = model.sample_counts(200_000, rng_seed=5, workers=3)
        np.testing.assert_array_equal(c1, c2)

    def test_zero_samples(self):
        model = lhs_model(sic_povm(), trine_povm())
        counts = model.sample_counts(0, rng_seed=5)
        assert counts.shape == (4, 3)
        np.testing.assert_array_equal(counts, 0)

    @pytest.mark.parametrize("workers", [0, -1])
    def test_rejects_fewer_than_one_worker(self, workers):
        model = lhs_model(sic_povm(), trine_povm())
        with pytest.raises(ValueError, match="workers must be at least 1"):
            model.sample_counts(1000, rng_seed=5, workers=workers)

    def test_counts_in_rotated_frames(self):
        """Every frame certifies the flipped SIC POVM; Bob must follow the frame.

        Three chi-squared checks at p >= 1e-3: a correct sampler on a new RNG
        stream fails one with probability about 0.3%.
        """
        alice, bob = sic_povm(), trine_povm()
        flipped = alice.flipped()
        quantum = werner_joint_quantum(alice, bob, 0.5).table
        for k, rot in enumerate(random_rotations(3, np.random.default_rng(32))):
            frame = evaluate_frame(flipped, rot)
            model = LhsModel(alice, bob, flipped, frame, build_table(flipped, frame))
            counts = model.sample_counts(200_000, rng_seed=400 + k)
            assert chi_squared_test(counts, quantum).pvalue >= 1e-3

    def test_projective_pair_frequencies(self):
        povm = projective_povm([0, 0, 1])
        model = lhs_model(povm, povm)
        n = 500_000
        counts = model.sample_counts(n, rng_seed=13)
        # Quantum value p(+,-) = 3/8 at half visibility.
        p = counts[0, 1] / n
        sigma = np.sqrt(0.375 * 0.625 / n)
        assert abs(p - 0.375) <= 4.0 * sigma

    def test_empirical_table_passes_chi_squared(self):
        model = lhs_model(sic_povm(), projective_povm([1, 0, 0]))
        counts = model.sample_counts(400_000, rng_seed=17)
        result = chi_squared_test(counts, model.joint_exact().table)
        assert result.pvalue >= 1e-3


class TestChsh:
    def test_maximal_violation_at_full_visibility(self):
        assert chsh_value(*chsh_optimal_settings(), 1.0) == pytest.approx(
            2.0 * np.sqrt(2.0), abs=1e-10
        )

    def test_half_visibility_below_classical_bound(self):
        value = chsh_value(*chsh_optimal_settings(), 0.5)
        assert value == pytest.approx(np.sqrt(2.0), abs=1e-10)
        assert value <= 2.0

    def test_threshold_visibility(self):
        assert chsh_value(*chsh_optimal_settings(), 1.0 / np.sqrt(2.0)) == pytest.approx(
            2.0, abs=1e-10
        )

    def test_linear_in_visibility(self):
        rng = np.random.default_rng(3)
        settings = chsh_optimal_settings()
        base = chsh_value(*settings, 1.0)
        for eta in rng.random(10):
            assert chsh_value(*settings, eta) == pytest.approx(eta * base, abs=1e-12)

    # With a' = a and b' = b, chsh_value is |E + E + E - E| = 2 |E(u, v)|.

    def test_correlator_closed_form(self):
        rng = np.random.default_rng(4)
        u = rng.standard_normal(3)
        u /= np.linalg.norm(u)
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        assert chsh_value(u, u, v, v, 0.8) == pytest.approx(2.0 * abs(0.8 * u @ v), abs=1e-14)

    def test_correlator_matches_dense_table(self):
        rng = np.random.default_rng(12)
        a, a_prime, b, b_prime = chsh_optimal_settings()
        pairs = [(a, b), (a, b_prime), (a_prime, b), (a_prime, b_prime)]
        while len(pairs) < 200:
            u, v = rng.standard_normal((2, 3))
            pairs.append((u / np.linalg.norm(u), v / np.linalg.norm(v)))
        etas = np.concatenate([[0.0, 0.5, 1.0 / np.sqrt(2.0), 1.0], rng.random(196)])
        for (u, v), eta in zip(pairs, etas):
            dense = 2.0 * abs(chsh_correlator_dense(u, v, eta))
            assert abs(chsh_value(u, u, v, v, eta) - dense) <= 1e-12
        for eta in etas[:4]:
            ab, ab_prime, a_prime_b, a_prime_b_prime = (
                chsh_correlator_dense(u, v, eta) for u, v in pairs[:4]
            )
            dense = abs(ab + ab_prime + a_prime_b - a_prime_b_prime)
            assert abs(chsh_value(a, a_prime, b, b_prime, eta) - dense) <= 1e-12

    @pytest.mark.parametrize(
        "setting",
        [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0 + 1e-9], [0.0, 0.0, 0.5], [np.nan, 0.0, 1.0],
         [np.inf, 0.0, 0.0], [0.0, 1.0]],
    )
    def test_correlator_rejects_non_unit_settings(self, setting):
        z = [0.0, 0.0, 1.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k in range(4):
                settings = [z, z, z, z]
                settings[k] = setting
                with pytest.raises(ValueError):
                    chsh_value(*settings, 0.5)

    def test_correlator_accepts_settings_within_tolerance(self):
        u = np.array([0.0, 0.0, 1.0 + 5e-11])
        z = [0.0, 0.0, 1.0]
        # Every term is E = -(1 + 5e-11): the setting is used as given.
        assert chsh_value(u, u, z, z, 1.0) == pytest.approx(2.0 * (1.0 + 5e-11), abs=1e-15)

    def test_correlator_rejects_visibility_out_of_range(self):
        with pytest.raises(ValueError):
            chsh_value([0, 0, 1], [0, 0, 1], [0, 0, 1], [0, 0, 1], 1.5)
