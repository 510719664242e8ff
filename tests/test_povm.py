import json

import numpy as np
import pytest

from povmsim import povm as povm_module
from povmsim.bloch import PauliOperator, to_dense
from povmsim.cli import EXIT_INPUT, main
from povmsim.frames import find_frame
from povmsim.povm import (
    InvalidStateError,
    NotAPovmError,
    QubitPovm,
    born,
    born_probabilities,
    canonicalize,
    load_povm,
    noisy_element,
    povm_from_dict,
    projective_povm,
    random_povm,
    save_povm,
    sic_povm,
    povm_to_dict,
    require_valid,
    trine_povm,
    validate,
)
from povmsim.werner import lhs_model, werner_joint_quantum


def dense_born(op: PauliOperator, state: np.ndarray) -> float:
    """Oracle: trace against the dense density matrix."""
    rho = to_dense(PauliOperator(0.5, state / 2.0))
    return float(np.trace(to_dense(op) @ rho).real)


class TestValidate:
    def test_projective_passes(self):
        assert validate(projective_povm([0, 0, 1])).passed

    def test_sic_passes(self):
        assert validate(sic_povm()).passed

    def test_unbalanced_pair_fails(self):
        bad = QubitPovm(np.array([1.0, 0.5]), np.array([[0, 0, 1], [0, 0, -1]], float))
        report = validate(bad)
        assert not report.passed
        assert report.weight_sum_residual == pytest.approx(0.5)
        assert report.closure_residual == pytest.approx(0.5)


@pytest.fixture
def validate_calls(monkeypatch):
    """Count the full checks that ``require_valid`` runs."""
    calls = []
    real = povm_module.validate

    def counting(povm):
        calls.append(povm)
        return real(povm)

    monkeypatch.setattr(povm_module, "validate", counting)
    return calls


def off_closure_pair(tilt: float) -> QubitPovm:
    """Unit weights and directions, but ``|sum p_i a_i|`` is about ``tilt``."""
    return QubitPovm(
        np.array([1.0, 1.0]), np.array([[np.sin(tilt), 0.0, np.cos(tilt)], [0.0, 0.0, -1.0]])
    )


class TestValidateOnce:
    def test_loaded_povms_are_not_revalidated(self, validate_calls):
        docs = [povm_to_dict(sic_povm()), povm_to_dict(random_povm(6, 3))]
        validate_calls.clear()
        alice, bob = (povm_from_dict(doc) for doc in docs)
        assert len(validate_calls) == 2
        find_frame(alice)
        lhs_model(alice, bob)
        werner_joint_quantum(alice, bob, 0.5)
        assert len(validate_calls) == 2

    def test_directly_built_povm_is_validated_once(self, validate_calls):
        povm = sic_povm()
        find_frame(povm)
        find_frame(povm)
        assert validate_calls == [povm]

    def test_off_closure_povm_still_rejected(self, validate_calls):
        bad = off_closure_pair(1e-6)
        assert 0.5e-6 < validate(bad).closure_residual < 2e-6
        good = sic_povm()
        with pytest.raises(NotAPovmError):
            find_frame(bad)
        with pytest.raises(NotAPovmError):
            lhs_model(bad, good)
        with pytest.raises(NotAPovmError):
            lhs_model(good, bad)
        with pytest.raises(NotAPovmError):
            werner_joint_quantum(bad, good, 0.5)
        with pytest.raises(NotAPovmError):
            werner_joint_quantum(good, bad, 0.5)
        # A failed check is not recorded, so every call checks again.
        assert len(validate_calls) >= 5
        with pytest.raises(NotAPovmError):
            require_valid(bad.flipped())

    def test_verify_rejects_off_closure_file(self, tmp_path, capsys):
        path = tmp_path / "off_closure.json"
        path.write_text(json.dumps(povm_to_dict(off_closure_pair(1e-6))))
        assert main(["verify", "-p", str(path)]) == EXIT_INPUT
        assert "invalid POVM" in capsys.readouterr().err

    def test_flipped_inherits_the_record(self, validate_calls):
        povm = povm_from_dict(povm_to_dict(random_povm(7, 11)))
        assert povm._validation is not None
        calls = len(validate_calls)
        flipped = povm.flipped()
        assert require_valid(flipped) is flipped
        assert len(validate_calls) == calls
        np.testing.assert_array_equal(flipped.directions, -povm.directions)
        unchecked = QubitPovm(povm.weights, povm.directions).flipped()
        require_valid(unchecked)
        assert len(validate_calls) == calls + 1

    def test_flipping_keeps_residuals_bit_identical(self):
        for seed in range(200):
            povm = random_povm(2 + seed % 29, 600 + seed)
            assert validate(povm) == validate(povm.flipped())

    def test_validate_returns_the_stored_report(self):
        povm = povm_from_dict(povm_to_dict(random_povm(9, 12)))
        stored = validate(povm)
        assert stored is povm._validation and stored is validate(povm)
        fresh = validate(QubitPovm(povm.weights, povm.directions))
        assert fresh is not stored and fresh == stored
        assert validate(povm.flipped()) is stored

    def test_directly_built_povm_is_checked_afresh(self):
        povm = sic_povm()
        first, second = validate(povm), validate(povm)
        assert first is not second and first == second
        assert povm._validation is None


class TestNoisyElement:
    def test_projective_half_visibility(self):
        op = noisy_element(projective_povm([0, 0, 1]), 0, 0.5)
        assert op.t == 0.5
        np.testing.assert_allclose(op.w, [0, 0, 0.25])

    def test_full_depolarisation(self):
        op = noisy_element(sic_povm(), 2, 0.0)
        assert op.t == 0.25
        np.testing.assert_array_equal(op.w, [0, 0, 0])

    def test_sic_first_element(self):
        op = noisy_element(sic_povm(), 0, 0.5)
        assert op.t == 0.25
        np.testing.assert_allclose(op.w, [0, 0, 0.125])

    def test_noisy_elements_sum_to_identity(self):
        rng = np.random.default_rng(3)
        for seed in range(30):
            povm = random_povm(2 + seed % 7, seed)
            eta = rng.random()
            total = PauliOperator(0.0, np.zeros(3))
            for i in range(povm.n_outcomes):
                total = total + noisy_element(povm, i, eta)
            assert abs(total.t - 1.0) <= 1e-12
            assert np.max(np.abs(total.w)) <= 1e-12

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            noisy_element(sic_povm(), 4, 0.5)


class TestBorn:
    def test_projector_on_own_axis(self):
        up = PauliOperator(0.5, [0, 0, 0.5])
        assert born(up, [0, 0, 1]) == pytest.approx(1.0, abs=1e-15)
        assert born(up, [0, 0, -1]) == pytest.approx(0.0, abs=1e-15)

    def test_noisy_element_on_mixed_state(self):
        op = noisy_element(projective_povm([0, 0, 1]), 0, 0.5)
        assert born(op, [0, 0, 0]) == pytest.approx(dense_born(op, np.zeros(3)), abs=1e-14)
        assert born(op, [0, 0, 0]) == pytest.approx(0.5)

    def test_matches_dense_trace_on_random_inputs(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            w = rng.standard_normal(3) * 0.3
            op = PauliOperator(np.linalg.norm(w) + rng.random() * 0.3, w)
            state = rng.standard_normal(3)
            state *= rng.random() / np.linalg.norm(state)
            assert born(op, state) == pytest.approx(dense_born(op, state), abs=1e-13)

    def test_rejects_state_outside_ball(self):
        with pytest.raises(InvalidStateError):
            born(PauliOperator(0.5, np.zeros(3)), [1.0, 1.0, 0.0])

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(5)
        for seed in range(20):
            povm = random_povm(2 + seed % 7, 100 + seed)
            state = rng.standard_normal(3)
            state *= rng.random() / np.linalg.norm(state)
            probs = born_probabilities(povm, state, eta=rng.random())
            assert probs.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(probs >= -1e-12)


class TestCanonicalize:
    def test_identity_halves(self):
        povm, relabel = canonicalize(
            [PauliOperator(0.5, np.zeros(3)), PauliOperator(0.5, np.zeros(3))]
        )
        assert povm.n_outcomes == 4
        np.testing.assert_allclose(povm.weights, 0.5)
        assert relabel == [0, 0, 1, 1]

    def test_rank1_input_unchanged(self):
        trine = trine_povm()
        ops = [trine.element(i) for i in range(3)]
        povm, relabel = canonicalize(ops)
        assert relabel == [0, 1, 2]
        np.testing.assert_allclose(povm.weights, trine.weights, atol=1e-14)
        np.testing.assert_allclose(povm.directions, trine.directions, atol=1e-14)

    def test_preserves_coarse_grained_born_statistics(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            # Random 3-element PSD decomposition of the identity.
            t1, t2 = 0.15 + 0.15 * rng.random(2)
            w1 = rng.standard_normal(3)
            w1 *= 0.6 * t1 * rng.random() / np.linalg.norm(w1)
            w2 = rng.standard_normal(3)
            w2 *= 0.6 * t2 * rng.random() / np.linalg.norm(w2)
            raw = [
                PauliOperator(t1, w1),
                PauliOperator(t2, w2),
                PauliOperator(1 - t1 - t2, -(w1 + w2)),
            ]
            povm, relabel = canonicalize(raw)
            relabel = np.array(relabel)
            for _ in range(5):
                state = rng.standard_normal(3)
                state *= rng.random() / np.linalg.norm(state)
                fine = born_probabilities(povm, state)
                for k, op in enumerate(raw):
                    coarse = fine[relabel == k].sum()
                    assert coarse == pytest.approx(dense_born(op, state), abs=1e-12)

    def test_rejects_incomplete_sum(self):
        with pytest.raises(NotAPovmError):
            canonicalize([PauliOperator(0.4, np.zeros(3))])

    def test_rejects_non_psd_element(self):
        with pytest.raises(NotAPovmError):
            canonicalize(
                [PauliOperator(0.5, [0, 0, 0.9]), PauliOperator(0.5, [0, 0, -0.9])]
            )


class TestRandomPovm:
    def test_two_outcomes_is_antipodal_unit_pair(self):
        for seed in (0, 1, 2, 3):
            povm = random_povm(2, seed)
            np.testing.assert_allclose(povm.weights, [1.0, 1.0], atol=1e-12)
            np.testing.assert_allclose(povm.directions[0], -povm.directions[1], atol=1e-12)
            assert validate(povm).passed

    @pytest.mark.parametrize("n", range(2, 9))
    def test_outcome_count_and_validity(self, n):
        for seed in range(5):
            povm = random_povm(n, 17 * n + seed)
            assert povm.n_outcomes == n
            assert validate(povm).passed

    def test_deterministic_for_seed(self):
        a = random_povm(5, 123)
        b = random_povm(5, 123)
        np.testing.assert_array_equal(a.weights, b.weights)
        np.testing.assert_array_equal(a.directions, b.directions)


class TestJsonFormat:
    def test_round_trip(self, tmp_path):
        povm = random_povm(6, 9)
        path = tmp_path / "povm.json"
        save_povm(povm, path)
        loaded = load_povm(path)
        np.testing.assert_allclose(loaded.weights, povm.weights, atol=1e-12)
        np.testing.assert_allclose(loaded.directions, povm.directions, atol=1e-12)

    def test_loader_normalises_directions(self):
        data = {
            "outcomes": [
                {"p": 1.0, "a": [0.0, 0.0, 2.0]},
                {"p": 1.0, "a": [0.0, 0.0, -5.0]},
            ]
        }
        povm = povm_from_dict(data)
        np.testing.assert_allclose(np.linalg.norm(povm.directions, axis=1), 1.0)

    def test_loader_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(NotAPovmError):
            load_povm(path)
        path.write_text(json.dumps({"outcomes": [{"p": 1.0}]}))
        with pytest.raises(NotAPovmError):
            load_povm(path)


def xz_parent_povm() -> QubitPovm:
    """Four-outcome parent for the two 1/sqrt(2)-noisy x and z observables."""
    s = 1.0 / np.sqrt(2.0)
    pairs = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
    dirs = np.array([[i * s, 0.0, j * s] for i, j in pairs])
    return QubitPovm(np.full(4, 0.5), dirs)


def test_xz_four_outcome_parent_is_valid_and_marginalises_exactly():
    povm = xz_parent_povm()
    assert validate(povm).passed
    s = 1.0 / np.sqrt(2.0)
    pairs = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
    # Marginal over the second index reproduces the noisy x observable and
    # over the first index the noisy z observable, with zero residual.
    for component, axis in ((0, np.array([1.0, 0.0, 0.0])), (1, np.array([0.0, 0.0, 1.0]))):
        for sign in (1, -1):
            target = noisy_element(projective_povm(sign * axis), 0, s)
            group = [k for k, ij in enumerate(pairs) if ij[component] == sign]
            total = PauliOperator(0.0, np.zeros(3))
            for k in group:
                total = total + povm.element(k)
            assert total.t == target.t
            assert np.array_equal(total.w, target.w)


def test_xz_parent_survives_canonicalisation():
    povm = xz_parent_povm()
    raw = [povm.element(k) for k in range(4)]
    canonical, relabel = canonicalize(raw)
    assert relabel == [0, 1, 2, 3]
    assert validate(canonical).passed
    np.testing.assert_allclose(canonical.weights, povm.weights, atol=1e-15)
    np.testing.assert_allclose(canonical.directions, povm.directions, atol=1e-15)
