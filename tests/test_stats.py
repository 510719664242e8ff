"""Calibration of ``chi_squared_test`` under the null hypothesis.

Counts are seeded multinomial draws from the exact table itself, so every
rejection is a false failure.  The rejection count over ``DRAWS`` draws must
lie inside binomial bounds at tail ``TAIL`` for a rejection rate equal to
alpha.  For a calibrated test and a fresh seed, each bound therefore fails
with probability at most 1e-4: at most 2e-4 per alpha at 0.05 (two bounds),
at most 1e-4 at 1e-3 (whose lower bound is 0, hence vacuous), and at most
6e-4 for each table.
"""

import numpy as np
import pytest
from scipy.stats import binom

from povmsim.povm import random_povm, sic_povm, trine_povm
from povmsim.stats import chi_squared_test
from povmsim.werner import werner_joint_quantum

DRAWS = 5000
SAMPLES = 1000
TAIL = 1e-4


def sic_trine_table():
    """12 cells, each expecting at least 44 of 1000 samples: no pooling."""
    return werner_joint_quantum(sic_povm(), trine_povm(), 0.5).table


def eight_by_eight_table():
    """64 cells, 26 of which expect fewer than 5 of 1000 samples: pooled."""
    return werner_joint_quantum(random_povm(8, 1), random_povm(8, 2), 0.5).table


@pytest.mark.parametrize(
    "make_table,pooled", [(sic_trine_table, False), (eight_by_eight_table, True)]
)
def test_null_rejection_rate_within_binomial_bounds(make_table, pooled):
    table = make_table()
    rng = np.random.default_rng(20_260)
    draws = rng.multinomial(SAMPLES, table.ravel(), size=DRAWS)
    results = [chi_squared_test(counts.reshape(table.shape), table) for counts in draws]
    assert all((r.n_pooled > 0) == pooled for r in results)
    pvalues = np.array([r.pvalue for r in results])
    for alpha in (1e-3, 0.05):
        rejected = int(np.sum(pvalues < alpha))
        low = binom.ppf(TAIL, DRAWS, alpha)
        high = binom.isf(TAIL, DRAWS, alpha)
        assert low <= rejected <= high, f"alpha {alpha}: {rejected} of {DRAWS} rejected"
