"""The sampling engine holds one block of samples per worker, not one chunk.

Each worker's arrays are ``_MC_BLOCK`` rows long whatever the run's size,
so the traced peak of a call stays under a fixed bound per worker: about
1.45 MB for ``simulate_statistics`` and 3.3 MB for the hidden-state model at
30 Bob outcomes, whose float32 threshold block is ``32 x _MC_BLOCK`` (29
CDF rows and the three coordinates), measured at ``_MC_BLOCK = 2^14``.
Whole-chunk arrays would take 6 MB and 37 MB per worker.
"""

import tracemalloc

import pytest

from povmsim.frames import find_frame
from povmsim.jointmeas import simulate_statistics
from povmsim.povm import random_povm, sic_povm
from povmsim.werner import lhs_model

N_SAMPLES = 1 << 18
MB = 1 << 20
SIMULATE_BOUND = 2 * MB
LHS_BOUND = 4 * MB


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("workers", [1, 2])
def test_simulate_peak_is_bounded_per_worker(workers):
    sic = sic_povm()
    frame = find_frame(sic)
    state = [0.0, 0.0, 1.0]
    peak = _traced_peak(
        lambda: simulate_statistics(sic, state, N_SAMPLES, 5, workers=workers, frame=frame)
    )
    assert peak < workers * SIMULATE_BOUND, f"{peak / MB:.2f} MB on {workers} workers"


def test_lhs_peak_is_bounded_per_worker():
    model = lhs_model(random_povm(4, 1), random_povm(30, 2))
    peak = _traced_peak(lambda: model.sample_counts(N_SAMPLES, 5, workers=2))
    assert peak < 2 * LHS_BOUND, f"{peak / MB:.2f} MB on 2 workers"
