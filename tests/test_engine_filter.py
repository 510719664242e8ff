"""The float32 filter of the sampling engine against its float64 rule.

``_Thresholds.estimate`` decides a block from float32 estimates and names
the samples inside its guard band; ``_Thresholds.exact`` is the float64
rule that defines every decision.  Fed chosen uniforms (poles, azimuths at
the sign changes of ``cos`` and ``sin``, uniforms set exactly to the
thresholds), every code the filter decides must equal the rule's.  The
engine with every sample forced through the fallback must give the same
counts as the default, and the default must take the fast path for nearly
every sample.
"""

import numpy as np
import pytest

from povmsim import jointmeas
from povmsim.bloch import _directions
from povmsim.frames import find_frame
from povmsim.jointmeas import _MC_BLOCK, _Thresholds, _Workspace, simulate_statistics
from povmsim.povm import random_povm, sic_povm
from povmsim.werner import lhs_model


def _parent(state) -> _Thresholds:
    """``simulate_statistics``'s rule for a state already in frame coordinates."""
    return _Thresholds((np.asarray(state, dtype=float) / 2.0)[None, :], np.array([0.5]))


def _bob(n_b: int, seed: int) -> _Thresholds:
    """The hidden-state model's rule: Bob's CDF rows in the model's frame."""
    model = lhs_model(random_povm(4, seed), random_povm(n_b, seed + 1))
    half = model.bob.weights / 2.0
    bob_dirs = model.bob.directions @ model.frame.rotation
    return _Thresholds(np.cumsum(half[:, None] * bob_dirs, axis=0)[:-1], np.cumsum(half)[:-1])


RULES = {
    "state_0": lambda: _parent([0.0, 0.0, 0.0]),
    "state_unit": lambda: _parent(np.array([0.48, -0.6, 0.64])),
    "state_z": lambda: _parent([0.0, 0.0, -1.0]),
    "n_b_2": lambda: _bob(2, 3),
    "n_b_6": lambda: _bob(6, 5),
    "n_b_30": lambda: _bob(30, 7),
}


def _codes(rule: _Thresholds, draws: np.ndarray):
    """The filter's codes with its undecided samples, and the rule's codes."""
    codes, unsure = rule.estimate(draws, _Workspace(rule, draws.shape[1]))
    exact = rule.exact(*draws.copy())
    return codes.copy(), unsure, exact


def _assert_filter_agrees(rule: _Thresholds, draws: np.ndarray) -> np.ndarray:
    before = draws.copy()
    codes, unsure, exact = _codes(rule, draws)
    assert np.array_equal(draws, before), "estimate must leave its draws as they are"
    decided = np.ones(len(codes), dtype=bool)
    decided[unsure] = False
    np.testing.assert_array_equal(codes[decided], exact[decided])
    assert np.all(codes[unsure] == rule.n_codes)
    assert np.all((0 <= exact) & (exact < rule.n_codes))
    return unsure


def _thresholds_at(rule: _Thresholds, draws: np.ndarray) -> np.ndarray:
    """The float64 thresholds ``T_j`` of each sample, as the rule computes them."""
    z, phi = draws[0].copy(), draws[1].copy()
    directions = np.empty((len(z), 3))
    _directions(z, phi, directions)
    thresholds = directions @ rule.lin.T
    thresholds += rule.const
    return thresholds


@pytest.mark.parametrize("name", RULES)
class TestFilterAgainstTheRule:
    def test_random_draws(self, name):
        rng = np.random.default_rng(1)
        unsure = _assert_filter_agrees(RULES[name](), rng.random((3, 50_000)))
        assert unsure.size < 50_000 * 5e-3

    def test_poles_and_zero_azimuth(self, name):
        rng = np.random.default_rng(2)
        draws = rng.random((3, 4000))
        draws[0, :1000] = 0.0  # z = -1, r = 0
        draws[0, 1000:2000] = 0.5  # z = 0
        draws[0, 2000:3000] = 1.0 - 2.0**-53  # the largest z below 1
        draws[1, ::2] = 0.0  # azimuth 0
        unsure = _assert_filter_agrees(RULES[name](), draws)
        # r = 0 puts x and y on their bands, and z = 0 puts z on its own.
        assert set(range(2000)) <= set(unsure.tolist())

    def test_azimuths_at_the_sign_changes(self, name):
        rng = np.random.default_rng(3)
        n = 6000
        draws = rng.random((3, n))
        quarter = np.repeat([0.25, 0.5, 0.75], n // 3)
        offsets = rng.uniform(-1e-9, 1e-9, n) / (2.0 * np.pi)
        offsets[::5] = 0.0
        draws[1] = quarter + offsets
        unsure = _assert_filter_agrees(RULES[name](), draws)
        # Within 1e-9 of pi/2, pi or 3 pi / 2, x or y is inside its band.
        assert unsure.size == n

    def test_uniforms_on_the_thresholds(self, name):
        rule = RULES[name]()
        rng = np.random.default_rng(4)
        draws = rng.random((3, 9000))
        thresholds = _thresholds_at(rule, draws)
        pick = thresholds[np.arange(9000), rng.integers(0, thresholds.shape[1], 9000)]
        on_grid = (0.0 <= pick) & (pick < 1.0)
        draws[2, on_grid] = pick[on_grid]
        # One ulp either side of the threshold as well.
        third = np.arange(9000) % 3
        draws[2, on_grid & (third == 1)] = np.nextafter(pick, -np.inf)[on_grid & (third == 1)]
        draws[2, on_grid & (third == 2)] = np.nextafter(pick, np.inf)[on_grid & (third == 2)]
        unsure = _assert_filter_agrees(rule, draws)
        assert set(np.flatnonzero(on_grid).tolist()) <= set(unsure.tolist())
        # A uniform equal to a threshold counts it as reached: T_j <= v.
        tie = on_grid & (third == 0)
        above = draws.copy()
        above[2, tie] = np.nextafter(pick, np.inf)[tie]
        at_tie = rule.exact(*draws[:, tie].copy())
        np.testing.assert_array_equal(at_tie, rule.exact(*above[:, tie].copy()))


class TestEngine:
    @pytest.fixture
    def counting(self, monkeypatch):
        undecided = []
        estimate = _Thresholds.estimate

        def counted(self, draws, work):
            codes, unsure = estimate(self, draws, work)
            undecided.append((draws.shape[1], unsure.size))
            return codes, unsure

        monkeypatch.setattr(_Thresholds, "estimate", counted)
        return undecided

    def test_forced_fallback_gives_the_same_counts(self, monkeypatch):
        sic = sic_povm()
        frame = find_frame(sic)
        model = lhs_model(random_povm(4, 11), random_povm(30, 12))
        n = 3 * _MC_BLOCK + 5
        state = [0.1, -0.7, 0.2]
        calls = (
            lambda w: simulate_statistics(sic, state, n, 21, workers=w, frame=frame).counts,
            lambda w: model.sample_counts(n, 22, workers=w),
        )
        default = [call(1) for call in calls]
        monkeypatch.setattr(jointmeas, "_GUARD", 1.0)
        for call, expected in zip(calls, default):
            for workers in (1, 2):
                np.testing.assert_array_equal(call(workers), expected)

    def test_forced_fallback_reaches_every_sample(self, monkeypatch, counting):
        monkeypatch.setattr(jointmeas, "_GUARD", 1.0)
        simulate_statistics(sic_povm(), [0.0, 0.0, 0.5], 1000, 3)
        assert counting == [(1000, 1000)]

    def test_fast_path_share(self, counting):
        sic = sic_povm()
        n = 1 << 18
        simulate_statistics(sic, [0.3, 0.2, -0.5], n, 9, frame=find_frame(sic))
        assert sum(size for size, _ in counting) == n
        share = sum(unsure for _, unsure in counting) / n
        assert 0 < share < 1e-3


def test_float32_trig_error_bound():
    """float32 ``cos``/``sin`` of the float32-rounded azimuth stay within 1e-6 of float64.

    The module docstring's error bound rests on this; 2.6e-7 was measured.
    """
    rng = np.random.default_rng(2024)
    phi = [2.0 * np.pi * rng.random(1_000_000)]
    quarters = rng.integers(0, 5, 100_000) * (np.pi / 2.0)
    near = quarters + rng.uniform(-1e-3, 1e-3, 100_000)
    phi.append(np.clip(near, 0.0, np.nextafter(2.0 * np.pi, 0.0)))
    for azimuth in phi:
        rounded = azimuth.astype(np.float32)
        for trig in (np.cos, np.sin):
            assert trig(rounded).dtype == np.float32
            assert np.max(np.abs(trig(rounded) - trig(azimuth))) <= 1e-6
