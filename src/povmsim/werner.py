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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bloch import PauliOperator
from .frames import FrameCertificate, find_frame
from .jointmeas import (
    ConditionalProbabilityTable,
    _chunk_counts,
    _run_chunks,
    build_table,
    octant_index,
    sample_lambda,
    sample_lambda_batch,
    simulate_outcome,
)
from .povm import VALIDATION_ATOL, QubitPovm, require_valid, require_visibility


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """Joint outcome table, rows Alice, columns Bob."""

    table: np.ndarray

    def __post_init__(self):
        t = np.atleast_2d(np.asarray(self.table, dtype=float)).copy()
        t.setflags(write=False)
        object.__setattr__(self, "table", t)

    @property
    def n_alice(self) -> int:
        return self.table.shape[0]

    @property
    def n_bob(self) -> int:
        return self.table.shape[1]

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

    def sample_round(self, rng: np.random.Generator) -> tuple[int, int]:
        """One protocol round: returns (Alice outcome, Bob outcome)."""
        lam = sample_lambda(rng)
        i = simulate_outcome(self.table, lam, rng)
        bob_probs = self.bob.weights * (1.0 + self.bob.directions @ lam) / 2.0
        cdf = np.cumsum(bob_probs)
        cdf[-1] = 1.0
        j = int(np.searchsorted(cdf, rng.random(), side="right"))
        return i, j

    def sample_counts(self, n_samples: int, rng_seed: int, workers: int = 1) -> np.ndarray:
        """Joint outcome counts over ``n_samples`` rounds, vectorised."""
        rotation = self.frame.rotation
        alice_cdf = self.table.cdf()
        n_a, n_b = self.alice.n_outcomes, self.bob.n_outcomes
        bw, bd = self.bob.weights, self.bob.directions

        def sampler(m: int, rng: np.random.Generator) -> np.ndarray:
            lam = sample_lambda_batch(m, rng)
            octants = octant_index(rotation, lam)
            i = (alice_cdf[octants] <= rng.random(m)[:, None]).sum(axis=1)
            bob_probs = bw[None, :] * (1.0 + lam @ bd.T) / 2.0
            bob_cdf = np.cumsum(bob_probs, axis=1)
            bob_cdf[:, -1] = 1.0
            j = (bob_cdf <= rng.random(m)[:, None]).sum(axis=1)
            return np.bincount(i * n_b + j, minlength=n_a * n_b).reshape(n_a, n_b)

        sizes, seeds = _chunk_counts(n_samples, rng_seed)
        return _run_chunks(sampler, sizes, seeds, workers, (n_a, n_b))


def lhs_model(alice: QubitPovm, bob: QubitPovm) -> LhsModel:
    """Prepare the hidden-state model (frame search runs on the flipped POVM)."""
    require_valid(alice)
    require_valid(bob)
    flipped = alice.flipped()
    frame = find_frame(flipped)
    return LhsModel(
        alice=alice, bob=bob, flipped=flipped, frame=frame, table=build_table(flipped, frame)
    )


def lhs_joint_exact(alice: QubitPovm, bob: QubitPovm) -> JointDistribution:
    """Exact joint distribution of the hidden-state model.

    Matches ``werner_joint_quantum(alice, bob, 1/2)`` entrywise; the two
    are computed along independent routes and compared in tests.
    """
    return lhs_model(alice, bob).joint_exact()


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


def lhs_sample(alice: QubitPovm, bob: QubitPovm, rng: np.random.Generator) -> tuple[int, int]:
    """One round of the protocol; builds the model first.

    Prefer :func:`lhs_model` plus :meth:`LhsModel.sample_round` when many
    rounds are needed, so the frame search runs once.
    """
    return lhs_model(alice, bob).sample_round(rng)


# ---------------------------------------------------------------------------
# CHSH evaluation for projective measurements on the Werner state.


def _unit_setting(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (3,) or not np.all(np.isfinite(x)):
        raise ValueError(f"a setting must be a finite 3-vector, got {x!r}")
    norm = float(np.linalg.norm(x))
    if abs(norm - 1.0) > VALIDATION_ATOL:
        raise ValueError(f"a setting must be a unit vector, got norm {norm!r}")
    return x


def chsh_correlator(u, v, eta: float) -> float:
    """Correlator ``E = -eta u . v`` of sharp measurements along unit ``u``, ``v``.

    Closed form of the sign-weighted Werner table, which the tests check; a
    setting that is not a finite unit vector raises ``ValueError``.
    """
    u, v = _unit_setting(u), _unit_setting(v)
    return -require_visibility(eta) * float(u @ v)


def chsh_value(a, a_prime, b, b_prime, eta: float) -> float:
    """CHSH combination |E(a,b) + E(a,b') + E(a',b) - E(a',b')| at visibility eta."""
    return abs(
        chsh_correlator(a, b, eta)
        + chsh_correlator(a, b_prime, eta)
        + chsh_correlator(a_prime, b, eta)
        - chsh_correlator(a_prime, b_prime, eta)
    )


def chsh_optimal_settings() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Measurement axes achieving the maximal quantum value 2 sqrt(2) at eta = 1."""
    z = np.array([0.0, 0.0, 1.0])
    x = np.array([1.0, 0.0, 0.0])
    b = -(z + x) / np.sqrt(2.0)
    b_prime = (x - z) / np.sqrt(2.0)
    return z, x, b, b_prime
