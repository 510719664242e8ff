"""Acceptance suite: one test per headline guarantee, with runtime budgets.

Each test prints a single pass/fail line; run with ``pytest -s`` to see them
live.  Tolerances are fixed here and not meant to be tuned.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest
from oracles import (
    check_sic_universal_frame,
    octant_operators_quadrature,
    projection_mass_abs,
    random_rotations,
)

from povmsim.bloch import PauliOperator
from povmsim.frames import (
    OCTANT_SIGNS,
    CubeVertices,
    FrameMethod,
    evaluate_frame,
    find_frame,
    positive_part,
    projection_mass,
)
from povmsim.jointmeas import (
    build_table,
    octant_operators,
    simulate_statistics,
    verify_decomposition,
)
from povmsim.povm import (
    QubitPovm,
    noisy_element,
    projective_povm,
    random_povm,
    sic_povm,
    trine_povm,
    validate,
)
from povmsim.stats import chi_squared_test
from povmsim.werner import (
    bob_conditional_state,
    chsh_optimal_settings,
    chsh_value,
    lhs_model,
    werner_joint_quantum,
)


@contextmanager
def criterion(name: str, budget: float | None = None):
    start = time.perf_counter()
    status = "FAIL"
    try:
        yield
        elapsed = time.perf_counter() - start
        if budget is not None and elapsed >= budget:
            raise AssertionError(f"{name}: runtime {elapsed:.2f} s exceeds budget {budget} s")
        status = "PASS"
    finally:
        elapsed = time.perf_counter() - start
        print(f"[criterion] {name}: {status} ({elapsed:.2f} s)")


def seeded_povms(count: int, base_seed: int):
    """Deterministic stream of random POVMs with 2 to 8 outcomes."""
    for k in range(count):
        yield random_povm(2 + k % 7, base_seed + k)


# Reference values for the tetrahedral POVM in its canonical frame.
# Octant order: +++, ++-, +-+, +--, -++, -+-, --+, ---.
SIC_VERTEX_VALUES = np.array([0.811, 0.977, 0.811, 0.977, 0.977, 0.811, 0.977, 0.811])
SIC_ALPHAS = np.array([0.0, 0.014, 0.046, 0.046])
SIC_DETERMINISTIC_TERM = np.array(
    [
        [0.5, 0.305, 0.006, 0.0],
        [0.0, 0.638, 0.339, 0.0],
        [0.5, 0.305, 0.0, 0.006],
        [0.0, 0.638, 0.0, 0.339],
        [0.5, 0.0, 0.477, 0.0],
        [0.0, 0.0, 0.811, 0.0],
        [0.5, 0.0, 0.0, 0.477],
        [0.0, 0.0, 0.0, 0.811],
    ]
)
SIC_CONDITIONAL_TABLE = np.array(
    [
        [0.5, 0.330, 0.088, 0.082],
        [0.0, 0.641, 0.349, 0.010],
        [0.5, 0.330, 0.082, 0.088],
        [0.0, 0.641, 0.010, 0.349],
        [0.5, 0.003, 0.487, 0.010],
        [0.0, 0.026, 0.893, 0.082],
        [0.5, 0.003, 0.010, 0.487],
        [0.0, 0.026, 0.082, 0.893],
    ]
)


def test_criterion_01_sic_golden_tables():
    with criterion("1 SIC golden tables", budget=1.0):
        povm = sic_povm()
        frame = find_frame(povm, hint=np.eye(3))
        np.testing.assert_array_equal(frame.rotation, np.eye(3))
        np.testing.assert_allclose(frame.vertex_values, SIC_VERTEX_VALUES, atol=1e-3)
        assert float(frame.vertex_values.sum()) == pytest.approx(7.152, abs=1e-3)
        cpt = build_table(povm, frame)
        np.testing.assert_allclose(cpt.alphas, SIC_ALPHAS, atol=1e-3)
        deterministic = (
            positive_part(frame.cube.vertices @ povm.directions.T) * povm.weights
        )
        np.testing.assert_allclose(deterministic, SIC_DETERMINISTIC_TERM, atol=1e-3)
        np.testing.assert_allclose(cpt.table, SIC_CONDITIONAL_TABLE, atol=1e-3)


def test_criterion_02_decomposition_identity():
    with criterion("2 octant-mixture reconstruction", budget=30.0):
        fixtures = [
            projective_povm([0, 0, 1]),
            projective_povm([0.48, -0.6, 0.64]),
            trine_povm(),
            sic_povm(),
        ]
        for povm in fixtures:
            report = verify_decomposition(build_table(povm, find_frame(povm)))
            assert report.max_residual <= 1e-10
        worst = 0.0
        for povm in seeded_povms(1000, base_seed=20_000):
            report = verify_decomposition(build_table(povm, find_frame(povm)))
            worst = max(worst, report.max_residual)
        assert worst <= 1e-10, f"worst residual {worst}"


def test_criterion_03_octant_integrals():
    with criterion("3 octant integrals vs quadrature", budget=5.0):
        frames = [evaluate_frame(sic_povm(), np.eye(3))]
        rng = np.random.default_rng(77)
        for rot in random_rotations(2, rng):
            frames.append(evaluate_frame(sic_povm(), rot, check=False))
        for frame in frames:
            closed = octant_operators(frame)
            numeric = octant_operators_quadrature(frame, n_theta=400, n_phi=400)
            for c, q in zip(closed, numeric):
                assert abs(c.operator.t - q.t) <= 1e-6
                assert np.max(np.abs(c.operator.w - q.w)) <= 1e-6
            total_t = sum(c.operator.t for c in closed)
            total_w = np.sum([c.operator.w for c in closed], axis=0)
            assert abs(total_t - 1.0) <= 1e-14
            assert np.max(np.abs(total_w)) <= 1e-14


def test_criterion_04_projection_identities_and_bounds():
    with criterion("4 projection identities and bounds", budget=10.0):
        rng = np.random.default_rng(4_000)
        # Four vertex identities on 1e4 random (vector, rotation) pairs.
        rots = random_rotations(10_000, rng)
        vecs = rng.standard_normal((10_000, 3))
        verts = np.einsum("gij,sj->gsi", rots, OCTANT_SIGNS)
        dots = np.einsum("gsi,gi->gs", verts, vecs)
        norms = np.linalg.norm(vecs, axis=1)
        assert np.all(np.abs(dots).sum(axis=1) <= 8.0 * norms + 1e-10)
        assert np.all(positive_part(dots).sum(axis=1) <= 4.0 * norms + 1e-10)
        recon_linear = np.einsum("gs,gsi->gi", dots, verts)
        assert np.max(np.abs(recon_linear - 8.0 * vecs)) <= 1e-10
        recon_positive = np.einsum("gs,gsi->gi", positive_part(dots), verts)
        assert np.max(np.abs(recon_positive - 4.0 * vecs)) <= 1e-10
        # Equivalent absolute form, evenness and homogeneity on 1e4 inputs.
        povms = [random_povm(2 + k % 7, 40_000 + k) for k in range(100)]
        for povm in povms:
            xs = rng.standard_normal((100, 3))
            scales = -3.0 + 6.0 * rng.random(100)
            f = projection_mass(povm, xs)
            assert np.max(np.abs(f - projection_mass_abs(povm, xs))) <= 1e-12
            assert np.max(np.abs(projection_mass(povm, -xs) - f)) <= 1e-12
            scaled = projection_mass(povm, xs * scales[:, None])
            assert np.max(np.abs(scaled - np.abs(scales) * f)) <= 1e-12
        # Vertex-mass sum bounded by 8 on 1e4 random (POVM, frame) pairs.
        for povm in seeded_povms(2000, base_seed=50_000):
            for rot in random_rotations(5, rng):
                cube = CubeVertices.from_rotation(rot)
                assert projection_mass(povm, cube.vertices).sum() <= 8.0 + 1e-10


def test_criterion_05_frame_search_dispatch():
    with criterion("5 frame search over random POVMs", budget=60.0):
        for k, povm in enumerate(seeded_povms(1000, base_seed=60_000)):
            cert = find_frame(povm)
            assert cert.max_value <= 1.0 + 1e-9, f"povm {k}: {cert.max_value}"
            if povm.n_outcomes == 2:
                assert cert.method is FrameMethod.TWO_OUTCOME_EXACT
            elif povm.n_outcomes == 3:
                assert cert.method is FrameMethod.COPLANAR_BISECTION


def test_criterion_06_sic_universal_frame_bound():
    with criterion("6 SIC any-frame bound", budget=5.0):
        report = check_sic_universal_frame(sic_povm(), 1_000_000, rng_seed=66, tolerance=1e-12)
        assert report.n_violations == 0
        assert report.max_value <= 1.0 + 1e-12


def test_criterion_07_werner_lhs_exactness():
    with criterion("7 hidden-state model equals quantum table", budget=60.0):
        worst_joint = 0.0
        worst_state = 0.0
        for k in range(500):
            alice = random_povm(2 + k % 7, 70_000 + k)
            bob = random_povm(2 + (k + 3) % 7, 80_000 + k)
            model = lhs_model(alice, bob)
            quantum = werner_joint_quantum(alice, bob, 0.5).table
            worst_joint = max(
                worst_joint, float(np.max(np.abs(model.joint_exact().table - quantum)))
            )
            for i in range(alice.n_outcomes):
                state = bob_conditional_state(model.table, i)
                p, a = alice.weights[i], alice.directions[i]
                worst_state = max(
                    worst_state,
                    abs(state.t - p / 4.0),
                    float(np.max(np.abs(state.w + p * a / 8.0))),
                )
        assert worst_joint <= 1e-10, f"worst joint deviation {worst_joint}"
        assert worst_state <= 1e-12, f"worst conditional-state deviation {worst_state}"


SIMULATION_SCENARIOS = [
    (lambda: projective_povm([0, 0, 1]), [0.0, 0.0, 1.0], 101),
    (lambda: projective_povm([1, 0, 0]), [0.3, 0.1, -0.2], 102),
    (trine_povm, [0.0, 0.0, 0.0], 103),
    (trine_povm, [0.2, -0.3, 0.4], 104),
    (sic_povm, [0.0, 0.0, 1.0], 105),
    (sic_povm, [0.0, 0.0, 0.0], 106),
    (sic_povm, [-0.5, 0.5, 0.5], 107),
    (lambda: random_povm(4, 1), [0.1, 0.2, 0.3], 108),
    (lambda: random_povm(5, 2), [0.0, 0.0, 0.9], 109),
    (lambda: random_povm(6, 3), [0.0, 0.0, 0.0], 110),
    (lambda: random_povm(7, 4), [0.5, 0.0, 0.0], 111),
    (lambda: random_povm(8, 5), [-0.2, 0.6, 0.1], 112),
]

LHS_SCENARIOS = [
    (lambda: projective_povm([0, 0, 1]), lambda: projective_povm([1, 0, 0]), 201),
    (lambda: projective_povm([0, 0, 1]), lambda: projective_povm([0, 0, 1]), 202),
    (sic_povm, lambda: projective_povm([1, 0, 0]), 203),
    (sic_povm, trine_povm, 204),
    (trine_povm, sic_povm, 205),
    (lambda: random_povm(4, 11), lambda: random_povm(5, 12), 206),
    (lambda: random_povm(6, 13), lambda: random_povm(3, 14), 207),
    (lambda: random_povm(8, 15), lambda: random_povm(8, 16), 208),
]


def test_criterion_08_monte_carlo_consistency():
    """20 chi-squared checks (12 simulations, 8 hidden-state tables) at p >= 1e-3.

    The test is calibrated (``tests/test_stats.py``), so a correct sampler on
    a new RNG stream fails at least one check with probability
    1 - 0.999**20, about 2.0%.
    """
    with criterion("8 Monte Carlo chi-squared at 99.9%"):
        n = 1_000_000
        for factory, state, seed in SIMULATION_SCENARIOS:
            povm = factory()
            report = simulate_statistics(povm, state, n, rng_seed=seed)
            result = chi_squared_test(report.counts, report.born)
            assert result.pvalue >= 1e-3, f"simulate seed {seed}: p={result.pvalue}"
        for alice_factory, bob_factory, seed in LHS_SCENARIOS:
            model = lhs_model(alice_factory(), bob_factory())
            counts = model.sample_counts(n, rng_seed=seed)
            result = chi_squared_test(counts, model.joint_exact().table)
            assert result.pvalue >= 1e-3, f"lhs seed {seed}: p={result.pvalue}"


def test_criterion_09_chsh_thresholds():
    with criterion("9 CHSH thresholds and linearity"):
        settings = chsh_optimal_settings()
        assert chsh_value(*settings, 1.0) == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-10)
        assert chsh_value(*settings, 1.0 / np.sqrt(2.0)) == pytest.approx(2.0, abs=1e-10)
        assert chsh_value(*settings, 0.5) == pytest.approx(np.sqrt(2.0), abs=1e-10)
        base = chsh_value(*settings, 1.0)
        rng = np.random.default_rng(9)
        for eta in rng.random(20):
            assert abs(chsh_value(*settings, eta) - eta * base) <= 1e-12


def test_criterion_10_xz_four_outcome_example():
    with criterion("10 x/z four-outcome parent example"):
        s = 1.0 / np.sqrt(2.0)
        pairs = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
        povm = QubitPovm(
            np.full(4, 0.5), np.array([[i * s, 0.0, j * s] for i, j in pairs])
        )
        assert validate(povm).passed
        for component, axis in ((0, [1.0, 0.0, 0.0]), (1, [0.0, 0.0, 1.0])):
            for sign in (1, -1):
                target = noisy_element(projective_povm(np.multiply(sign, axis)), 0, s)
                total = PauliOperator(0.0, np.zeros(3))
                for k, ij in enumerate(pairs):
                    if ij[component] == sign:
                        total = total + povm.element(k)
                assert total.t == target.t
                assert np.array_equal(total.w, target.w)
