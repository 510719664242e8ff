"""The sampling engine reproduces the reference engine count for count.

``tests/oracles.py`` keeps the engine as it was written out of place and
runs its chunks serially, in float64; production runs the same chunk layout
through the float32 filter, with the float64 rule on the samples inside its
guard band, once per chunk.  A decision of the filter is the float64
rule's whatever the rounding of its dot products.  Those go through BLAS,
whose row results can depend on the row count, so the two engines agree on
a decision unless a uniform lies within an ulp of a threshold, about 2^-53
per threshold per sample: every count must be equal here, at block- and
chunk-boundary sample sizes (a chunk reads its stream in blocks of
``_MC_BLOCK`` samples).  Workers only schedule chunks, so a run of one chunk
is checked on one worker and a run of several on 1, 2 and 3.
"""

import numpy as np
import pytest
from oracles import (
    lhs_counts_reference,
    octants_matmul,
    simulate_counts_reference,
    unit_vectors_column_stack,
)

from povmsim.bloch import random_unit_vectors
from povmsim.frames import find_frame
from povmsim.jointmeas import _MC_BLOCK, _MC_CHUNK, octant_index, simulate_statistics
from povmsim.povm import projective_povm, random_povm, sic_povm, trine_povm
from povmsim.werner import lhs_model

SIZES = (0, 1, _MC_CHUNK - 1, _MC_CHUNK, _MC_CHUNK + 1, 3 * _MC_CHUNK + 17)
# Block boundaries inside one chunk; appended, so each earlier size keeps its seed.
SIZES += (_MC_BLOCK - 1, _MC_BLOCK, _MC_BLOCK + 1)


def _workers(n: int) -> tuple[int, ...]:
    return (1, 2, 3) if n > _MC_CHUNK else (1,)


def _random_state(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(3)
    return rng.random() * v / np.linalg.norm(v)


@pytest.mark.parametrize("n", [0, 1, 1 << 17])
def test_direction_draw_matches_column_stack(n):
    new = random_unit_vectors(n, np.random.default_rng(n + 3))
    old = unit_vectors_column_stack(n, np.random.default_rng(n + 3))
    assert new.shape == old.shape == (n, 3)
    assert new.tobytes() == old.tobytes()


def test_octant_index_matches_matmul_form():
    rng = np.random.default_rng(8)
    lam = random_unit_vectors(1000, rng)
    lam[:10] = [0.0, -0.0, 1.0]
    lam[10:20, 1] = 0.0
    batch = octant_index(np.eye(3), lam)
    assert batch.dtype == octants_matmul(lam).dtype
    np.testing.assert_array_equal(batch, octants_matmul(lam))
    assert isinstance(octant_index(np.eye(3), lam[0]), int)


@pytest.mark.parametrize(
    "povm",
    [sic_povm(), trine_povm(), projective_povm([0.3, -0.4, 0.5]), random_povm(16, 7)],
    ids=["sic", "trine", "projective", "random16"],
)
def test_simulate_counts_match_reference(povm):
    frame = find_frame(povm)
    for k, n in enumerate(SIZES):
        state = _random_state(k)
        expected = simulate_counts_reference(povm, state, n, 100 + k, frame)
        for workers in _workers(n):
            report = simulate_statistics(povm, state, n, 100 + k, workers=workers, frame=frame)
            np.testing.assert_array_equal(report.counts, expected, err_msg=f"n={n} w={workers}")


@pytest.mark.parametrize("n_b", [2, 6, 16, 30])
def test_lhs_counts_match_reference(n_b):
    model = lhs_model(random_povm(4, n_b), random_povm(n_b, 50 + n_b))
    for k, n in enumerate(SIZES):
        expected = lhs_counts_reference(model, n, 200 + k)
        for workers in _workers(n):
            counts = model.sample_counts(n, 200 + k, workers=workers)
            np.testing.assert_array_equal(counts, expected, err_msg=f"n={n} w={workers}")
