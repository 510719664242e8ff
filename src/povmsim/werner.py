"""Local hidden state model for two-qubit Werner states at visibility 1/2.

The Werner state is ``rho_W = eta |psi-><psi-| + (1 - eta) I/4`` with the
singlet ``|psi-> = (|01> - |10>) / sqrt(2)``.  Local POVM correlations on it
have a closed form

    p(i, j) = (p_i q_j / 4) (1 - eta * a_i . b_j),

which this module evaluates directly; the dense 4x4 tensor-trace oracle is
test-side (``tests/oracles.py``).  At eta = 1/2 the correlations admit a
local hidden state model:

1. Bob holds the pure state ``(I + lambda . sigma) / 2`` for a Haar-uniform
   direction ``lambda``.
2. Alice flips her directions (singlet anticorrelation), certifies a frame
   for the flipped POVM, and outputs via the conditional-probability table.
3. Bob samples his own POVM on his state, ``p(j) = q_j (1 + b_j . lambda)/2``.

Averaged over ``lambda`` this reproduces the quantum table exactly, and the
state Bob holds conditioned on Alice's outcome equals the true
post-measurement state ``p_i (I - a_i . sigma / 2) / 4``.

``LhsModel.sample_counts`` runs the protocol on the Monte Carlo engine of
``povmsim.jointmeas``, shared with ``simulate_statistics``: ``lambda`` is
drawn in frame coordinates, Alice needs only its octant, and her outcomes
are drawn with one multinomial per (octant, Bob outcome) cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bloch import VALIDATION_ATOL, PauliOperator
from .frames import FrameCertificate, find_frame
from .jointmeas import ConditionalProbabilityTable, _sample_table, _Thresholds, build_table
from .povm import QubitPovm, require_valid, require_visibility


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """Joint outcome table, rows Alice, columns Bob."""

    table: np.ndarray

    def __post_init__(self):
        t = np.atleast_2d(np.asarray(self.table, dtype=float)).copy()
        t.setflags(write=False)
        object.__setattr__(self, "table", t)

    @property
    def marginal_alice(self) -> np.ndarray:
        return self.table.sum(axis=1)

    @property
    def marginal_bob(self) -> np.ndarray:
        return self.table.sum(axis=0)


def werner_joint_quantum(alice: QubitPovm, bob: QubitPovm, eta: float) -> JointDistribution:
    """Quantum joint distribution ``(p_i q_j / 4)(1 - eta a_i . b_j)``.

    Closed form only; the tests check it against ``tr[(A_i x B_j) rho_W]``.
    """
    require_valid(alice)
    require_valid(bob)
    eta = require_visibility(eta)
    return JointDistribution(
        np.outer(alice.weights, bob.weights)
        / 4.0
        * (1.0 - eta * alice.directions @ bob.directions.T)
    )


@dataclass(frozen=True, eq=False)
class LhsModel:
    """Prepared hidden-state model for one (Alice, Bob) POVM pair."""

    alice: QubitPovm
    bob: QubitPovm
    flipped: QubitPovm
    frame: FrameCertificate
    table: ConditionalProbabilityTable

    def joint_exact(self) -> JointDistribution:
        """Joint distribution of the model, computed in closed form.

        Integrating Bob's Born weights over one octant gives half an octant
        operator, so ``p(i, j) = sum_s p(i|s) q_j (1/16 + b_j . v_s / 32)``.
        """
        vertices = self.frame.cube.vertices
        bob_octant = self.bob.weights[None, :] * (
            1.0 / 16.0 + (vertices @ self.bob.directions.T) / 32.0
        )
        return JointDistribution(self.table.table.T @ bob_octant)

    def sample_counts(self, n_samples: int, rng_seed: int, workers: int = 1) -> np.ndarray:
        """Joint outcome counts over ``n_samples`` rounds, shape ``(n_a, n_b)``.

        Each round's ``lambda`` is drawn in frame coordinates, Bob answers by
        his Born weights on it, and Alice's outcomes are drawn per (octant,
        Bob outcome) cell.  Bob's CDF ``C_k = sum_{j<=k} q_j (1 + b_j .
        lambda) / 2`` is linear in ``lambda``, so its coefficients are rotated
        into the frame once; the last entry is 1 and is left out.
        ``workers`` below 1 raises ``ValueError``.
        """
        half = self.bob.weights / 2.0
        bob_dirs = self.bob.directions @ self.frame.rotation
        cdf_const = np.cumsum(half)[:-1]
        cdf_lin = np.cumsum(half[:, None] * bob_dirs, axis=0)[:-1]
        thresholds = _Thresholds(cdf_lin, cdf_const)
        return _sample_table(self.table.table, thresholds, n_samples, rng_seed, workers)


def lhs_model(alice: QubitPovm, bob: QubitPovm) -> LhsModel:
    """Prepare the hidden-state model (frame search runs on the flipped POVM)."""
    require_valid(alice)
    require_valid(bob)
    flipped = alice.flipped()
    frame = find_frame(flipped)
    return LhsModel(
        alice=alice, bob=bob, flipped=flipped, frame=frame, table=build_table(flipped, frame)
    )


def bob_conditional_state(cpt: ConditionalProbabilityTable, i: int) -> PauliOperator:
    """Bob's unnormalised state given Alice's outcome ``i``.

    ``sum_s p(i|s) G_s / 2`` for a table built on the flipped POVM; equals
    the true post-measurement state ``p_i (I - a_i . sigma / 2) / 4``.
    """
    if not 0 <= i < cpt.n_outcomes:
        raise IndexError(f"outcome index {i} out of range")
    column = cpt.table[:, i]
    vertices = cpt.frame.cube.vertices
    return PauliOperator(column.sum() / 16.0, (column @ vertices) / 32.0)


# ---------------------------------------------------------------------------
# CHSH evaluation for projective measurements on the Werner state.


def _unit_setting(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (3,) or not all(map(math.isfinite, x.tolist())):
        raise ValueError(f"a setting must be a finite 3-vector, got {x!r}")
    norm = float(np.linalg.norm(x))
    if abs(norm - 1.0) > VALIDATION_ATOL:
        raise ValueError(f"a setting must be a unit vector, got norm {norm!r}")
    return x


def chsh_value(a, a_prime, b, b_prime, eta: float) -> float:
    """CHSH combination |E(a,b) + E(a,b') + E(a',b) - E(a',b')| at visibility eta.

    Each term is the correlator ``E(u, v) = -eta u . v`` of sharp
    measurements along unit ``u`` and ``v``, the closed form of the
    sign-weighted Werner table, which the tests check.  A setting that is
    not a finite unit vector, or ``eta`` outside ``[0, 1]``, raises
    ``ValueError``.
    """
    a, a_prime, b, b_prime = (_unit_setting(x) for x in (a, a_prime, b, b_prime))
    eta = require_visibility(eta)
    ab, ab_prime, a_prime_b, a_prime_b_prime = (
        -eta * float(u @ v) for u, v in ((a, b), (a, b_prime), (a_prime, b), (a_prime, b_prime))
    )
    return abs(ab + ab_prime + a_prime_b - a_prime_b_prime)


def chsh_optimal_settings() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Measurement axes achieving the maximal quantum value 2 sqrt(2) at eta = 1."""
    z = np.array([0.0, 0.0, 1.0])
    x = np.array([1.0, 0.0, 0.0])
    b = -(z + x) / np.sqrt(2.0)
    b_prime = (x - z) / np.sqrt(2.0)
    return z, x, b, b_prime
