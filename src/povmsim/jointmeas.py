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
``LhsModel.sample_counts``.  A run is cut into chunks of ``_MC_CHUNK``
samples, each with its own PCG64 stream spawned from the seed, so the
counts do not depend on the worker count.  A chunk of ``m`` samples reads
its stream at fixed offsets, one double per output: ``[0, m)`` are the
directions' ``z`` and ``[m, 2m)`` their azimuths (Haar directions drawn
directly in frame coordinates, the inputs rotated into the frame once),
``[2m, 3m)`` the classifier's one uniform per sample (the parent
measurement's accept/flip, or Bob's inverse CDF), and from ``3m`` on one
multinomial per octant row or (octant, Bob outcome) cell.  So the chunk
runs in blocks of ``_MC_BLOCK`` samples, reading each block's slice of
the first three ranges.  Every buffer belongs to one chunk and holds one
block, not one chunk.  The filter's output buffer holds ``k + 3`` float32
rows of a block, for ``k`` thresholds and ``x``, ``y``, ``z``: ``n_b + 2``
for a Bob POVM of ``n_b`` outcomes.  So the hidden-state model's engine
memory is O(block x workers x n_b), not O(block x workers); item 17 of
``ROADMAP.md`` plans a bound for every ``n_b``.  No buffer is kept
between chunks or shared between threads.

One decision rule serves both samplers: ``k`` linear thresholds ``T_j(u) =
c_j + w_j . u`` on the frame direction ``u``, compared with the sample's
uniform ``v``.  ``simulate_statistics`` has ``k = 1``, the parent's accept
weight ``T = 1/2 + (s/2) . u``, and flips ``u`` to ``-u`` iff ``T <= v``;
the hidden-state model has the ``n_b - 1`` rows of Bob's CDF.  A sample's
cell code is ``octant(u) * (k + 1) + #{j : T_j(u) <= v}``, the octant from
sign bits, so a block makes one ``bincount``.

The rule in float64 is the definition of every decision; a float32 filter
evaluates it first (a filtered predicate, as in Shewchuk's adaptive
geometric predicates).  From the ``z`` uniform ``u_z`` the filter forms
``z / 2 = u_z - 1/2`` and ``(r / 2)^2 = u_z (1 - u_z)`` in float64 (a
float32 ``z`` would move ``r = sqrt(1 - z^2)`` by up to 3e-4 near the
poles) before rounding to float32; it rounds the rule's float64 azimuth to
float32 and takes float32 ``cos`` and ``sin``, SIMD in numpy where float64
trig calls libm.  A float32 product gives every ``T_j - v`` and ``x``,
``y``, ``z``, shifted to one edge of the band ``[-_GUARD, _GUARD]``; the
code from their signs at the two edges is the same exactly when none of
them lies in the band, and the sample then takes it.  The rest are kept
and classified by the float64 rule once per chunk, from their uniforms.
Stream offsets do not change, and every direction is still sampled.
About 2.4e-4 of the samples of ``simulate_statistics`` fall back: ``x`` is
uniform on ``[-1, 1]``, so its band holds 6.1e-5 of them, as does ``y``'s,
and the threshold's 1.2e-4.  Each further threshold of the model adds about
1.2e-4.

Error bound behind ``_GUARD = 2^-14`` (about 6.1e-5).  With ``|w_j| <= 1``,
``|c_j| <= 1`` and ``v < 1``:

* float32 ``cos``/``sin`` of the rounded azimuth are within ``e_t`` of the
  float64 ones; ``e_t`` measured 2.6e-7 and is tested below 1e-6;
* ``r``, ``x`` and ``y`` take three more float32 roundings, so
  ``|x~ - x|, |y~ - y| <= e_t + 1.5e-7``, and ``|z~ - z| <= 2^-25``;
* so ``|w_j . (u~ - u)| <= 1.42 (e_t + 1.5e-7)``; rounding the rows to
  float32 adds ``1.3e-7``, rounding ``v`` adds ``3e-8``, and the five-term
  float32 product at most ``5 * 2^-24 * 3 = 9e-7``.

In all ``|T~_j - v~ - (T_j - v)| <= 1.42 e_t + 1.3e-6``, about 1.7e-6 at the
measured ``e_t`` (``_GUARD`` is 37 times that) and 2.7e-6 at the tested one
(23 times).  The float64 rule's own rounding moves these values by less
than 1e-8 (``r`` near the poles) and 1e-15 elsewhere.  So outside the band
the float32 sign is the float64 one, and no decision of the filter sits on
a tie.  The same bound holds for ``x~`` and ``y~``, and ``z``'s float32
sign is exact: its row is scaled by 2^21 so that its band, needed only for
``z = 0``, costs about 1e-10 of the samples.

Equality.  A decision the filter takes equals that of the float64 rule
however the rule's dot products are rounded.  Those do depend on BLAS: the
row results of ``u @ s`` and ``lam @ cdf_lin.T`` depend on the row count
(with OpenBLAS 0.3.31, Haswell kernels, 2 of 1.32 M gemv rows and 14
gemm elements differed in the last bit between a 2^17-row chunk and its
2^14-row blocks or row subsets).  So the engine and a chunk-level float64 reference agree on a
decision unless a uniform lies within an ulp of a threshold, about 2^-53
per threshold per sample; the fallback, run on a subset of rows, has the
same property.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .bloch import FRAME_ATOL, ROUND_OFF, VALIDATION_ATOL, PauliOperator, _directions
from .frames import OCTANT_SIGNS, FrameCertificate, find_frame
from .povm import QubitPovm, born_probabilities
from .stats import z_scores

_MC_CHUNK = 1 << 17
_MC_BLOCK = 1 << 14
# Half-width of the band around each float32 decision inside which a
# sample is recomputed in float64 (module docstring).
_GUARD = 2.0**-14
# Scales of a reconstruction's (t, w) rows: G_s has t = 1/8, w = v_s / 16.
_TW_SCALE = np.array([[1 / 8], [1 / 16], [1 / 16], [1 / 16]])


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
        raise InvalidFrameError(f"frame max vertex value {frame.max_value} exceeds 1 + {FRAME_ATOL}")
    w = povm.weights
    deterministic = projections * w
    alphas = w / 2.0 - np.add.reduce(deterministic, axis=0) / 8.0
    alpha_sum = float(np.add.reduce(alphas))
    if alpha_sum < ROUND_OFF:
        # All vertex values equal 1, the deterministic term already
        # normalises and the noise term would be 0/0.
        table = deterministic
    else:
        table = (1.0 - np.add.reduce(deterministic, axis=1))[:, None] * (alphas / alpha_sum)
        table += deterministic
    # Entries within FRAME_ATOL outside [0, 1], possible when the frame sits
    # at its acceptance tolerance, are clamped into [0, 1].  A table inside
    # [0, 1] is left as it is, as np.clip would leave it.
    low, high = np.minimum.reduce(table, axis=None), np.maximum.reduce(table, axis=None)
    if low < -FRAME_ATOL or high > 1.0 + FRAME_ATOL:
        raise InvalidFrameError("conditional probabilities escape [0, 1] beyond tolerance")
    if low < 0.0 or high > 1.0:
        np.clip(table, 0.0, 1.0, out=table)
    row_sums = np.add.reduce(table, axis=1)
    renorm_residual = max([abs(r - 1.0) for r in row_sums.tolist()])
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
    w = povm.weights
    # The table, its deterministic term and its noise term, reconstructed
    # together as (t, w) rows; G_s has t = 1/8 and w = v_s / 16.
    terms = np.empty((3,) + cpt.table.shape)
    terms[0] = cpt.table
    np.multiply(frame.projections, w, out=terms[1])
    np.subtract(terms[0], terms[1], out=terms[2])
    recon = np.empty((3, 4, len(w)))
    np.add.reduce(terms, axis=1, out=recon[:, 0])
    np.matmul(frame.cube.vertices.T, terms, out=recon[:, 1:])
    recon *= _TW_SCALE
    # Less their targets: the half-visibility outcome, it minus alpha_i I, and alpha_i I.
    half = w / 2.0
    recon[0, 0] -= half
    recon[1, 0] -= half - cpt.alphas
    recon[2, 0] -= cpt.alphas
    recon[:2, 1:] -= povm.directions.T * w / 4.0
    residuals = np.maximum.reduce(np.abs(recon, out=recon), axis=1)
    total, deterministic, noise = np.maximum.reduce(residuals, axis=1).tolist()
    return DecompositionReport(
        per_outcome=residuals[0],
        max_residual=total,
        deterministic_residual=deterministic,
        noise_residual=noise,
    )


# ---------------------------------------------------------------------------
# Monte Carlo: one engine behind simulate_statistics and LhsModel.sample_counts.


def _octants(coords: np.ndarray) -> np.ndarray:
    """Octant index of frame coordinates from their sign bits; zero counts as +.

    The index is ``4 [x < 0] + 2 [y < 0] + [z < 0]``, built by shifts and ORs.
    """
    negative = coords < 0
    index = negative[..., 0].astype(np.intp)
    index <<= 1
    index |= negative[..., 1]
    index <<= 1
    index |= negative[..., 2]
    return index


def octant_index(rotation: np.ndarray, lam) -> int | np.ndarray:
    """Octant of ``lambda`` in the rotated frame; a zero coordinate counts as +.

    Accepts a single vector or a batch of row vectors.
    """
    index = _octants(np.asarray(lam, dtype=float) @ rotation)
    return int(index) if index.ndim == 0 else index


def _n_chunks(total: int) -> int:
    """Number of chunks of at most ``_MC_CHUNK`` samples in a run of ``total``."""
    return max(1, -(-total // _MC_CHUNK)) if total else 0


def _chunk_counts(total: int, seed: int):
    """Fixed chunk layout with one spawned RNG stream per chunk.

    The layout depends only on (total, seed), never on how many workers
    consume the chunks, so results are worker-count independent.
    """
    n_chunks = _n_chunks(total)
    seeds = np.random.SeedSequence(seed).spawn(n_chunks) if n_chunks else []
    sizes = [min(_MC_CHUNK, total - k * _MC_CHUNK) for k in range(n_chunks)]
    return sizes, seeds


def _run_chunks(sampler, sizes, seeds, workers: int, shape) -> np.ndarray:
    counts = np.zeros(shape, dtype=np.int64)
    if not sizes:
        return counts
    jobs = zip(sizes, seeds)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for part in pool.map(lambda job: sampler(*job), jobs):
                counts += part
    else:
        for job in jobs:
            counts += sampler(*job)
    return counts


class _Thresholds:
    """The decision rule of both samplers: ``k`` linear thresholds on a direction.

    A sample with frame direction ``u`` and uniform ``v`` gets the cell code
    ``octant(u) * (k + 1) + #{j : T_j(u) <= v}``, with ``T_j(u) = const_j +
    lin_j . u``.  :meth:`exact` is the definition, in float64;
    :meth:`estimate` is the float32 filter in front of it (module docstring).
    """

    def __init__(self, lin: np.ndarray, const: np.ndarray):
        k = len(const)
        self.lin, self.const, self.n_cols = lin, const, k + 1
        self.n_codes = 8 * (k + 1)
        # Rows of the float32 product with [x/2, y/2, z/2, 1, v]: the k
        # differences T_j - v, then x, y, and z scaled up so that its band
        # is negligible.  The two copies are shifted by +_GUARD and -_GUARD,
        # the two edges of the band.
        rows = np.zeros((2, k + 3, 5))
        rows[:, :k, :3] = 2.0 * lin
        rows[:, :k, 3] = const
        rows[:, :k, 4] = -1.0
        rows[:, k:, :3] = np.diag([2.0, 2.0, 2.0**21])
        rows[:, :, 3] += [[_GUARD], [-_GUARD]]
        self.rows = rows.astype(np.float32)
        # The code is these weights dotted with the rows' sign bits.
        self.weights = np.array([1] * k + [4 * k + 4, 2 * k + 2, k + 1], dtype=np.float32)

    def exact(self, z: np.ndarray, phi: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
        """Codes in float64 from each sample's three uniforms; overwrites ``z`` and ``phi``."""
        directions = np.empty((len(z), 3))
        _directions(z, phi, directions)
        thresholds = directions @ self.lin.T
        thresholds += self.const
        codes = _octants(directions)
        codes *= self.n_cols
        codes += (thresholds <= uniforms[:, None]).sum(axis=1)
        return codes

    def estimate(self, draws: np.ndarray, work: _Workspace) -> tuple[np.ndarray, np.ndarray]:
        """Float32 codes of a block of draws, rows ``z``, ``phi`` and ``v``.

        Returns the codes and the indices of the samples inside the guard
        band, whose code is set to ``n_codes``; every other code equals
        :meth:`exact`'s.  ``draws`` is left as it is.
        """
        z, phi, uniforms = draws
        b = len(z)
        est, out, edges = work.est[:, :b], work.out[:, :b], work.edges[:, :b]
        # z / 2 = u - 1/2, and r / 2 = sqrt(u (1 - u)) with u (1 - u) in float64.
        np.subtract(z, 0.5, out=est[2])
        t = np.subtract(1.0, z, out=work.t[:b])
        r = np.multiply(t, z, out=work.r[:b])
        np.sqrt(r, out=r)
        # The float64 azimuth rounded once to float32, and its float32 trig.
        phi32 = np.multiply(phi, 2.0 * np.pi, out=est[4])
        np.cos(phi32, out=est[0])
        np.sin(phi32, out=est[1])
        est[:2] *= r
        est[4] = uniforms
        # The code at each edge of the band; they differ inside it.
        for rows, edge in zip(self.rows, edges):
            np.matmul(rows, est, out=out)
            np.less(out, 0.0, out=out)
            np.matmul(self.weights, out, out=edge)
        unsure = np.flatnonzero(edges[0] != edges[1])
        codes = work.codes[:b]
        codes[...] = edges[0]
        codes[unsure] = self.n_codes
        return codes, unsure


class _Workspace:
    """One chunk's buffers for blocks of up to ``size`` samples."""

    def __init__(self, thresholds: _Thresholds, size: int):
        self.est = np.empty((5, size), dtype=np.float32)
        self.est[3] = 1.0
        self.t = np.empty(size)
        self.r = np.empty(size, dtype=np.float32)
        self.out = np.empty((thresholds.rows.shape[1], size), dtype=np.float32)
        self.edges = np.empty((2, size), dtype=np.float32)
        self.codes = np.empty(size, dtype=np.intp)


def _sample_table(
    table: np.ndarray,
    thresholds: _Thresholds,
    n_samples: int,
    rng_seed: int,
    workers: int,
    flips: bool = False,
) -> np.ndarray:
    """Counts of (table outcome, column) over ``n_samples`` rounds.

    Each chunk draws its Haar directions directly in frame coordinates: the
    measure is rotation invariant, so callers rotate their inputs into the
    frame instead of rotating every sample.  ``thresholds`` maps each
    direction and one uniform to a cell (octant, count), and the count is
    the column, or with ``flips`` the parent's flip of ``u`` to ``-u``,
    octant ``o`` to ``7 - o``, with one column.  The outcome depends on a
    direction only through its octant and uses its own randomness, so the
    outcomes of each (octant, column) cell are one exact multinomial draw
    from that octant's row.

    A chunk reads its stream at the fixed offsets of the module docstring,
    in blocks of ``_MC_BLOCK`` samples; the samples the float32 filter
    leaves undecided are kept and classified exactly once per chunk.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    rows = table[:, None, :]
    n_codes = thresholds.n_codes

    def sampler(m: int, ss: np.random.SeedSequence) -> np.ndarray:
        rngs = [np.random.Generator(np.random.PCG64(ss).advance(k * m)) for k in range(4)]
        size = min(m, _MC_BLOCK)
        draws = np.empty((3, size))
        work = _Workspace(thresholds, size)
        cells = np.zeros(n_codes + 1, dtype=np.intp)
        held = []
        for start in range(0, m, _MC_BLOCK):
            b = min(_MC_BLOCK, m - start)
            for rng, row in zip(rngs, draws):
                rng.random(out=row[:b])
            codes, unsure = thresholds.estimate(draws[:, :b], work)
            if unsure.size:
                held.append(draws[:, unsure])
            cells += np.bincount(codes, minlength=n_codes + 1)
        if held:
            codes = thresholds.exact(*np.concatenate(held, axis=1))
            cells[:n_codes] += np.bincount(codes, minlength=n_codes)
        cells = cells[:n_codes].reshape(8, thresholds.n_cols)
        if flips:
            cells = (cells[:, 0] + cells[::-1, 1])[:, None]
        return rngs[3].multinomial(cells, rows).sum(axis=0).T

    sizes, seeds = _chunk_counts(n_samples, rng_seed)
    n_cols = 1 if flips else thresholds.n_cols
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
    coordinates, accepting ``-u`` maps octant ``o`` to ``7 - o = o ^ 7``.
    Targets are the Born probabilities of the half-visibility POVM.
    ``workers`` below 1 raises ``ValueError``.
    """
    state = np.asarray(state_bloch, dtype=float)
    targets = born_probabilities(povm, state, eta=0.5)
    if frame is None:
        frame = find_frame(povm)
    cpt = build_table(povm, frame)
    # The parent flips u when its accept weight (1 + u . s) / 2 is at or
    # below the uniform: one threshold 1/2 + (s / 2) . u.
    thresholds = _Thresholds((state @ frame.rotation / 2.0)[None, :], np.array([0.5]))
    counts = _sample_table(
        cpt.table, thresholds, n_samples, rng_seed, workers, flips=True
    ).ravel()
    return SimulationReport(
        n_samples=n_samples,
        counts=counts,
        born=targets,
        z=z_scores(counts, targets, n_samples),
        seed=rng_seed,
        chunk_size=_MC_CHUNK,
        n_chunks=_n_chunks(n_samples),
    )
