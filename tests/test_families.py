"""The construction downstream of the frame, on every POVM family.

For each family member the table reconstructs the half-visibility POVM and
the hidden-state model reproduces the quantum Werner table, with the member
as Alice and as Bob.  Criteria 02 and 07 cover ``random_povm`` only.
"""

import numpy as np
import pytest
from oracles import random_rotations
from povm_families import (
    duplicate_direction_povm,
    general_position_povm,
    near_coplanar_povm,
    near_projective_povm,
    octahedral_povm,
    planar_povm,
    zero_weight_povm,
)

from povmsim.frames import find_frame
from povmsim.jointmeas import build_table, verify_decomposition
from povmsim.povm import random_povm
from povmsim.werner import lhs_model, werner_joint_quantum

PER_FAMILY = 200

FAMILIES = {
    "general_position": lambda k, rng: general_position_povm(4 + k % 27, 70_000 + k),
    "near_projective": lambda k, rng: near_projective_povm(5 + k % 26, 71_000 + k),
    "planar": lambda k, rng: planar_povm(3 + k % 10, 72_000 + k),
    "near_coplanar": lambda k, rng: near_coplanar_povm(rng),
    "octahedral": lambda k, rng: octahedral_povm(random_rotations(1, rng)[0], rng),
    "duplicate_directions": lambda k, rng: duplicate_direction_povm(
        general_position_povm(5 + k % 10, 73_000 + k), rng
    ),
    "zero_weights": lambda k, rng: zero_weight_povm(
        general_position_povm(4 + k % 12, 74_000 + k), 1 + k % 3, rng
    ),
}


@pytest.mark.parametrize("family", FAMILIES)
def test_table_and_hidden_state_model(family):
    rng = np.random.default_rng(75)
    for k in range(PER_FAMILY):
        povm = FAMILIES[family](k, rng)
        report = verify_decomposition(build_table(povm, find_frame(povm)))
        assert report.passed, (k, report.max_residual)
        partner = random_povm(6, 76_000 + k)
        for alice, bob in ((povm, partner), (partner, povm)):
            exact = lhs_model(alice, bob).joint_exact().table
            quantum = werner_joint_quantum(alice, bob, 0.5).table
            assert np.max(np.abs(exact - quantum)) <= 1e-10, k
