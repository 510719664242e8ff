"""Statistical helpers for Monte Carlo verification."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.stats import chi2

# Cells expecting fewer counts than this are pooled before the test.
_MIN_EXPECTED = 5.0


def z_scores(counts, probs, n_samples: int) -> np.ndarray:
    """Binomial z-scores of observed counts against target probabilities.

    Cells with zero binomial variance score 0 when the count matches the
    expectation exactly and +inf otherwise.
    """
    counts = np.asarray(counts, dtype=float)
    probs = np.asarray(probs, dtype=float)
    if n_samples == 0:
        return np.zeros_like(probs)
    expected = n_samples * probs
    var = n_samples * probs * (1.0 - probs)
    z = np.zeros_like(probs)
    ok = var > 0
    z[ok] = (counts[ok] - expected[ok]) / np.sqrt(var[ok])
    z[~ok] = np.where(counts[~ok] == expected[~ok], 0.0, np.inf)
    return z


@dataclass(frozen=True)
class ChiSquaredResult:
    statistic: float
    dof: int
    pvalue: float
    n_cells: int
    n_pooled: int


def chi_squared_test(counts, probs) -> ChiSquaredResult:
    """Pearson goodness-of-fit test with pooling of low-expectation cells.

    Cells expecting fewer than five counts are pooled into a single bucket
    before forming the statistic.
    """
    counts = np.asarray(counts, dtype=float).ravel()
    probs = np.asarray(probs, dtype=float).ravel()
    n = counts.sum()
    expected = n * probs
    big = expected >= _MIN_EXPECTED
    obs = list(counts[big])
    exp = list(expected[big])
    n_pooled = int(np.sum(~big))
    if n_pooled:
        pooled_obs, pooled_exp = counts[~big].sum(), expected[~big].sum()
        if exp and pooled_exp < _MIN_EXPECTED:
            # Fold the leftovers into the smallest regular cell.
            k = int(np.argmin(exp))
            obs[k] += pooled_obs
            exp[k] += pooled_exp
        else:
            obs.append(pooled_obs)
            exp.append(pooled_exp)
    obs_arr, exp_arr = np.array(obs), np.array(exp)
    keep = exp_arr > 0
    obs_arr, exp_arr = obs_arr[keep], exp_arr[keep]
    dof = obs_arr.size - 1
    if dof <= 0:
        return ChiSquaredResult(0.0, 0, 1.0, counts.size, n_pooled)
    stat = float(np.sum((obs_arr - exp_arr) ** 2 / exp_arr))
    return ChiSquaredResult(stat, dof, float(chi2.sf(stat, dof)), counts.size, n_pooled)
