"""Parent-measurement post-processing for eta = 1/2 noisy qubit POVMs.

The parent measurement is a sharp projective measurement along a Haar-random
direction ``lambda``.  Coarse-graining its outcomes over the octants of a
certified frame yields the eight operators

    G_s = I/8 + v_s . sigma / 16,

and for a target POVM ``{(p_i, a_i)}`` the conditional probabilities

    p(i | octant s) = p_i * max(a_i . v_s, 0)
                      + (1 - mass(v_s)) * alpha_i / sum(alpha)

with noise weights ``alpha_i = (p_i / 2) (1 - (1/4) sum_s max(a_i . v_s, 0))``
reconstruct every half-visibility outcome operator exactly:

    sum_s p(i|s) G_s = p_i (I + a_i . sigma / 2) / 2.

This module builds those tables, verifies the reconstruction, and simulates
the whole protocol by Monte Carlo.  One engine serves both samplers, this
module's :func:`simulate_statistics` and the Werner hidden-state model's
``LhsModel.sample_counts``: Haar directions are drawn directly in frame
coordinates (the inputs are rotated into the frame once), the octant comes
from sign bits, and the table's outcomes are drawn with one multinomial per
octant row, or per (octant, Bob outcome) cell.  The chunk layout is fixed by
the seed, so counts do not depend on the worker count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .bloch import FRAME_ATOL, ROUND_OFF, VALIDATION_ATOL, PauliOperator, random_unit_vectors
from .frames import OCTANT_SIGNS, FrameCertificate, find_frame
from .povm import QubitPovm, born_probabilities
from .stats import z_scores

_MC_CHUNK = 1 << 17


class InvalidFrameError(ValueError):
    """Raised when a table is requested for a frame not certified for its POVM."""


@dataclass(frozen=True, eq=False)
class OctantOperator:
    """Coarse-grained parent observable for one octant."""

    signs: tuple[int, int, int]
    operator: PauliOperator


def octant_operators(frame: FrameCertificate) -> list[OctantOperator]:
    """The eight closed-form octant operators ``I/8 + v_s . sigma / 16``."""
    return [
        OctantOperator(
            signs=tuple(int(s) for s in signs),
            operator=PauliOperator(0.125, vertex / 16.0),
        )
        for signs, vertex in zip(OCTANT_SIGNS, frame.cube.vertices)
    ]


def _projections(povm: QubitPovm, frame: FrameCertificate) -> np.ndarray:
    """The certificate's ``max(v_s . a_i, 0)``, once it is known to be for ``povm``."""
    other = frame.povm
    if other is not povm and not (
        np.array_equal(other.weights, povm.weights) and np.array_equal(other.directions, povm.directions)
    ):
        raise InvalidFrameError("frame was certified for a different POVM")
    return frame.projections


def noise_weights(povm: QubitPovm, frame: FrameCertificate) -> np.ndarray:
    """Per-outcome noise weights; nonnegative for every POVM and frame."""
    theta_sum = _projections(povm, frame).sum(axis=0)
    return povm.weights / 2.0 * (1.0 - theta_sum / 4.0)


@dataclass(frozen=True, eq=False)
class ConditionalProbabilityTable:
    """Row-stochastic table ``p(outcome | octant)``, one row per octant."""

    povm: QubitPovm
    frame: FrameCertificate
    alphas: np.ndarray
    table: np.ndarray
    renorm_residual: float

    @property
    def n_outcomes(self) -> int:
        return self.povm.n_outcomes


def build_table(povm: QubitPovm, frame: FrameCertificate) -> ConditionalProbabilityTable:
    """Conditional probabilities realising the parent-measurement protocol.

    ``frame`` must certify ``povm`` (or a POVM with equal arrays) to ``1 +
    FRAME_ATOL``, else :class:`InvalidFrameError`; the deterministic term is
    its projection matrix times the weights.
    """
    projections = _projections(povm, frame)
    if frame.max_value > 1.0 + FRAME_ATOL:
        raise InvalidFrameError(
            f"frame max vertex value {frame.max_value} exceeds 1 + {FRAME_ATOL}"
        )
    deterministic = projections * povm.weights
    vertex_mass = deterministic.sum(axis=1)
    alphas = povm.weights / 2.0 - deterministic.sum(axis=0) / 8.0
    alpha_sum = float(alphas.sum())
    if alpha_sum < ROUND_OFF:
        # All vertex values equal 1, the deterministic term already
        # normalises and the noise term would be 0/0.
        table = deterministic.copy()
    else:
        table = deterministic + np.outer(1.0 - vertex_mass, alphas / alpha_sum)
    # Entries within FRAME_ATOL outside [0, 1], possible when the frame sits
    # at its acceptance tolerance, are clamped into [0, 1].
    if table.min() < -FRAME_ATOL or table.max() > 1.0 + FRAME_ATOL:
        raise InvalidFrameError("conditional probabilities escape [0, 1] beyond tolerance")
    np.clip(table, 0.0, 1.0, out=table)
    row_sums = table.sum(axis=1)
    renorm_residual = float(np.max(np.abs(row_sums - 1.0)))
    table /= row_sums[:, None]
    table.setflags(write=False)
    alphas.setflags(write=False)
    return ConditionalProbabilityTable(
        povm=povm, frame=frame, alphas=alphas, table=table, renorm_residual=renorm_residual
    )


@dataclass(frozen=True)
class DecompositionReport:
    """Residuals of the octant-mixture reconstruction of the noisy POVM."""

    per_outcome: np.ndarray
    max_residual: float
    deterministic_residual: float
    noise_residual: float

    @property
    def passed(self) -> bool:
        return self.max_residual <= VALIDATION_ATOL


def verify_decomposition(cpt: ConditionalProbabilityTable) -> DecompositionReport:
    """Check ``sum_s p(i|s) G_s = p_i (I + a_i . sigma / 2) / 2`` per outcome.

    Also checks the two constituent identities: the deterministic term
    alone reconstructs the target minus ``alpha_i I``, and the noise term
    contributes exactly ``alpha_i I``.
    """
    povm, frame = cpt.povm, cpt.frame
    vertices = frame.cube.vertices
    table = cpt.table
    # Reconstruction in (t, w) components; G_s has t = 1/8, w = v_s / 16.
    recon_t = table.sum(axis=0) / 8.0
    recon_w = table.T @ vertices / 16.0
    target_t = povm.weights / 2.0
    target_w = povm.weights[:, None] * povm.directions / 4.0
    residuals = np.maximum(
        np.abs(recon_t - target_t),
        np.max(np.abs(recon_w - target_w), axis=1),
    )
    deterministic = frame.projections * povm.weights
    det_t = deterministic.sum(axis=0) / 8.0
    det_w = deterministic.T @ vertices / 16.0
    det_res = np.maximum(
        np.abs(det_t - (target_t - cpt.alphas)),
        np.max(np.abs(det_w - target_w), axis=1),
    )
    noise = table - deterministic
    noise_t = noise.sum(axis=0) / 8.0
    noise_w = noise.T @ vertices / 16.0
    noise_res = np.maximum(np.abs(noise_t - cpt.alphas), np.max(np.abs(noise_w), axis=1))
    return DecompositionReport(
        per_outcome=residuals,
        max_residual=float(residuals.max()),
        deterministic_residual=float(det_res.max()),
        noise_residual=float(noise_res.max()),
    )


# ---------------------------------------------------------------------------
# Monte Carlo: one engine behind simulate_statistics and LhsModel.sample_counts.

_OCTANT_BITS = np.array([4, 2, 1])


def _octants(coords: np.ndarray) -> np.ndarray:
    """Octant index of frame coordinates from their sign bits; zero counts as +."""
    return (coords < 0) @ _OCTANT_BITS


def octant_index(rotation: np.ndarray, lam) -> int | np.ndarray:
    """Octant of ``lambda`` in the rotated frame; a zero coordinate counts as +.

    Accepts a single vector or a batch of row vectors.
    """
    index = _octants(np.asarray(lam, dtype=float) @ rotation)
    return int(index) if index.ndim == 0 else index


def _chunk_counts(total: int, seed: int):
    """Fixed chunk layout with one spawned RNG stream per chunk.

    The layout depends only on (total, seed), never on how many workers
    consume the chunks, so results are worker-count independent.
    """
    n_chunks = max(1, -(-total // _MC_CHUNK)) if total else 0
    seeds = np.random.SeedSequence(seed).spawn(n_chunks) if n_chunks else []
    sizes = [min(_MC_CHUNK, total - k * _MC_CHUNK) for k in range(n_chunks)]
    return sizes, seeds


def _run_chunks(sampler, sizes, seeds, workers: int, shape) -> np.ndarray:
    counts = np.zeros(shape, dtype=np.int64)
    if not sizes:
        return counts
    jobs = [(m, np.random.default_rng(ss)) for m, ss in zip(sizes, seeds)]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for part in pool.map(lambda job: sampler(*job), jobs):
                counts += part
    else:
        for job in jobs:
            counts += sampler(*job)
    return counts


def _sample_table(
    table: np.ndarray, n_cols: int, classify, n_samples: int, rng_seed: int, workers: int
) -> np.ndarray:
    """Counts of (table outcome, column) over ``n_samples`` rounds.

    Each chunk draws its Haar directions directly in frame coordinates: the
    measure is rotation invariant, so callers rotate their inputs into the
    frame instead of rotating every sample.  ``classify(u, rng)`` maps the
    directions to an octant row of ``table`` and a column below ``n_cols``.
    The outcome depends on a direction only through its octant and uses its
    own randomness, so the outcomes of each (octant, column) cell are one
    exact multinomial draw from that octant's row.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    rows = table[:, None, :]

    def sampler(m: int, rng: np.random.Generator) -> np.ndarray:
        u = random_unit_vectors(m, rng)
        octants, cols = classify(u, rng)
        cells = np.bincount(octants * n_cols + cols, minlength=8 * n_cols)
        return rng.multinomial(cells.reshape(8, n_cols), rows).sum(axis=0).T

    sizes, seeds = _chunk_counts(n_samples, rng_seed)
    return _run_chunks(sampler, sizes, seeds, workers, (table.shape[1], n_cols))


@dataclass(frozen=True, eq=False)
class SimulationReport:
    """Empirical outcome frequencies against the exact Born targets."""

    n_samples: int
    counts: np.ndarray
    born: np.ndarray
    z: np.ndarray
    seed: int
    chunk_size: int
    n_chunks: int

    @property
    def frequencies(self) -> np.ndarray:
        if self.n_samples == 0:
            return np.zeros_like(self.born)
        return self.counts / self.n_samples

    @property
    def max_abs_z(self) -> float:
        return float(np.max(np.abs(self.z))) if self.z.size else 0.0


def simulate_statistics(
    povm: QubitPovm,
    state_bloch,
    n_samples: int,
    rng_seed: int,
    workers: int = 1,
    frame: FrameCertificate | None = None,
) -> SimulationReport:
    """Run the full protocol ``n_samples`` times and compare to Born's rule.

    Each round measures the parent observable on the state (a Haar direction
    ``u`` accepted as ``+u`` or ``-u`` with the projective Born weights) and
    post-processes the result through the conditional table.  In frame
    coordinates, accepting ``-u`` maps octant ``o`` to ``7 - o``.  Targets are
    the Born probabilities of the half-visibility POVM.  ``workers`` below 1
    raises ``ValueError``.
    """
    state = np.asarray(state_bloch, dtype=float)
    targets = born_probabilities(povm, state, eta=0.5)
    if frame is None:
        frame = find_frame(povm)
    cpt = build_table(povm, frame)
    frame_state = state @ frame.rotation

    def classify(u: np.ndarray, rng: np.random.Generator):
        octants = _octants(u)
        flip = rng.random(len(u)) >= 0.5 * (1.0 + u @ frame_state)
        return np.where(flip, 7 - octants, octants), 0

    counts = _sample_table(cpt.table, 1, classify, n_samples, rng_seed, workers).ravel()
    return SimulationReport(
        n_samples=n_samples,
        counts=counts,
        born=targets,
        z=z_scores(counts, targets, n_samples),
        seed=rng_seed,
        chunk_size=_MC_CHUNK,
        n_chunks=len(_chunk_counts(n_samples, rng_seed)[0]),
    )
