"""Qubit POVMs in canonical rank-1 form, and the depolarising noise map.

A POVM is stored as a list of weighted unit directions ``{(p_i, a_i)}``
with the outcome operators ``p_i * (I + a_i . sigma) / 2``.  Summing to the
identity is equivalent to the two closure constraints

    sum_i p_i = 2        and        sum_i p_i a_i = 0.

The JSON interchange format is::

    {"outcomes": [{"p": <float>, "a": [<x>, <y>, <z>]}, ...]}

Directions in a file need not be exactly unit; the loader normalises and
re-validates.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from .bloch import ROUND_OFF, VALIDATION_ATOL, PauliOperator, random_unit_vectors

# Draws random_povm makes before it gives up.
_MAX_RETRIES = 1000


class NotAPovmError(ValueError):
    """Raised when a set of operators fails the POVM constraints."""


class InvalidStateError(ValueError):
    """Raised when a Bloch vector is non-finite or lies outside the unit ball."""


class GenerationFailedError(RuntimeError):
    """Raised when random POVM generation exhausts its retry budget."""


@dataclass(frozen=True, eq=False)
class QubitPovm:
    """Rank-1 qubit POVM ``{(p_i, a_i)}`` with unit directions."""

    weights: np.ndarray
    directions: np.ndarray
    # Passing report, stored by require_valid; sound as the arrays are read-only.
    _validation: PovmValidation | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        w = np.array(self.weights, dtype=float, ndmin=1)
        d = np.array(self.directions, dtype=float, ndmin=2)
        if d.shape != (w.shape[0], 3):
            raise ValueError("directions must have shape (n_outcomes, 3)")
        w.setflags(write=False)
        d.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "directions", d)

    @property
    def n_outcomes(self) -> int:
        return int(self.weights.shape[0])

    def element(self, i: int) -> PauliOperator:
        """Noiseless outcome operator ``p_i * (I + a_i . sigma) / 2``."""
        if not 0 <= i < self.n_outcomes:
            raise IndexError(f"outcome index {i} out of range")
        p = self.weights[i]
        return PauliOperator(p / 2.0, p * self.directions[i] / 2.0)

    def flipped(self) -> "QubitPovm":
        """Same weights with every direction negated (closure is preserved).

        Every validation residual is bit-identical, so the stored report
        carries over.
        """
        out = QubitPovm(self.weights, -self.directions)
        object.__setattr__(out, "_validation", self._validation)
        return out


@dataclass(frozen=True)
class PovmValidation:
    """Per-invariant residuals for a candidate POVM, each checked against ``VALIDATION_ATOL``."""

    weights_nonnegative: bool
    min_weight: float
    unit_norm_residual: float
    weight_sum_residual: float
    closure_residual: float

    @property
    def passed(self) -> bool:
        """Weights nonnegative and every residual at most ``VALIDATION_ATOL``; NaN fails."""
        return self.weights_nonnegative and all(
            r <= VALIDATION_ATOL
            for r in (self.unit_norm_residual, self.weight_sum_residual, self.closure_residual)
        )


def validate(povm: QubitPovm) -> PovmValidation:
    """Report-style check of the four POVM invariants.

    Returns the report :func:`require_valid` stored, if any.  numpy forms
    the sums and products; minimum and maximum run on Python floats, with
    NaN and signed zeros as ``ndarray.min`` and ``max`` give them.
    """
    if povm._validation is not None:
        return povm._validation
    w, d = povm.weights, povm.directions
    weights = w.tolist()
    total = float(np.add.reduce(w))
    # np.linalg.norm's reductions for these shapes, without its wrapper.
    norms = np.sqrt(np.add.reduce(d * d, axis=1)).tolist()
    if math.isfinite(total):
        closure = w @ d
    else:  # an infinite weight times a zero component: NaN, without numpy's warning
        with np.errstate(invalid="ignore"):
            closure = w @ d
    off_unit = [abs(r - 1.0) for p, r in zip(weights, norms) if p > 0]
    unit = math.nan if math.isnan(sum(off_unit)) else max(off_unit, default=0.0)
    lowest = min(weights, default=0.0)
    # A sum free of NaN rules out NaN weights; a tie of zeros takes numpy's sign.
    if weights and (lowest == 0.0 or math.isnan(total)):
        lowest = float(w.min())
    return PovmValidation(
        weights_nonnegative=lowest >= 0,
        min_weight=lowest,
        unit_norm_residual=unit,
        weight_sum_residual=abs(total - 2.0),
        closure_residual=math.sqrt(closure.dot(closure)),
    )


def require_valid(povm: QubitPovm) -> QubitPovm:
    """Return ``povm`` if it passes :func:`validate`, else raise ``NotAPovmError``.

    A pass stores its report on the POVM and is not repeated.
    """
    if povm._validation is not None:
        return povm
    report = validate(povm)
    if not report.passed:
        raise NotAPovmError(
            "invalid POVM: "
            f"min_weight={report.min_weight:.3g}, "
            f"unit_norm_residual={report.unit_norm_residual:.3g}, "
            f"weight_sum_residual={report.weight_sum_residual:.3g}, "
            f"closure_residual={report.closure_residual:.3g}"
        )
    object.__setattr__(povm, "_validation", report)
    return povm


def require_visibility(eta: float) -> float:
    eta = float(eta)
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"visibility must lie in [0, 1], got {eta}")
    return eta


def noisy_element(povm: QubitPovm, i: int, eta: float) -> PauliOperator:
    """Depolarised outcome operator ``p_i * (I + eta * a_i . sigma) / 2``."""
    require_visibility(eta)
    if not 0 <= i < povm.n_outcomes:
        raise IndexError(f"outcome index {i} out of range")
    p = povm.weights[i]
    return PauliOperator(p / 2.0, eta * p * povm.directions[i] / 2.0)


def _bloch_state(state_bloch) -> np.ndarray:
    """The state's Bloch vector; non-finite or outside the unit ball raises."""
    x = np.asarray(state_bloch, dtype=float)
    if not np.all(np.isfinite(x)):
        raise InvalidStateError(f"Bloch vector has non-finite components: {x.tolist()}")
    if np.linalg.norm(x) > 1.0 + VALIDATION_ATOL:
        raise InvalidStateError(f"Bloch vector has norm {np.linalg.norm(x)} > 1")
    return x


def born(element: PauliOperator, state_bloch) -> float:
    """Outcome probability ``tr[E rho] = t + w . x`` for state ``(I + x.sigma)/2``."""
    return float(element.t + element.w @ _bloch_state(state_bloch))


def born_probabilities(povm: QubitPovm, state_bloch, eta: float = 1.0) -> np.ndarray:
    """Born probabilities of all outcomes of the eta-depolarised POVM."""
    x = _bloch_state(state_bloch)
    require_visibility(eta)
    return povm.weights / 2.0 * (1.0 + eta * povm.directions @ x)


_Z = np.array([0.0, 0.0, 1.0])


def _rank1_outcomes(w: np.ndarray, dirs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weights and directions of the drawn pieces and their deficit, in rank-1 form.

    The operators are ``t I + v . sigma`` with ``(t, v) = (w_k / 2, w_k d_k /
    2)`` for each drawn piece, then the deficit ``(1 - sum_k w_k / 2,
    -sum_k w_k d_k / 2)``.  Each contributes ``t + |v|`` along ``v / |v|``
    and ``t - |v|`` along ``-v / |v|``, or ``t`` along ``+z`` and ``-z``
    when ``|v| <= 1e-14``; a piece lighter than ``ROUND_OFF`` is dropped.
    """
    ts = np.append(w / 2.0, 1.0 - w.sum() / 2.0).tolist()
    vs = np.vstack([w[:, None] * dirs / 2.0, -(w @ dirs) / 2.0])
    weights, directions = [], []
    for t, v in zip(ts, vs):
        norm = float(np.linalg.norm(v))
        norm, axis = (norm, v / norm) if norm > 1e-14 else (0.0, _Z)
        for p, a in ((t + norm, axis), (t - norm, -axis)):
            if p >= ROUND_OFF:
                weights.append(p)
                directions.append(a)
    return np.array(weights), np.array(directions)


def random_povm(n_outcomes: int, rng_seed: int) -> QubitPovm:
    """Random valid POVM with exactly ``n_outcomes`` outcomes.

    Draws ``n - 2`` weighted Haar directions, then closes the sum to the
    identity with the deficit operator ``t I + u . sigma``, whose two
    outcomes are ``(t + |u|, u / |u|)`` and ``(t - |u|, -u / |u|)``.  The
    sampled weights are rescaled so that ``t - |u|`` stays clearly
    positive.  Deterministic for a given seed.

    The deficit's axis lies in the span of the drawn directions, so every
    3-outcome POVM is collinear and every 4-outcome POVM coplanar; only from
    5 outcomes on are the directions in general position.  The
    general-position, near-projective, octahedral, duplicate-direction and
    zero-weight families live in ``tests/povm_families.py``.
    """
    if n_outcomes < 2:
        raise ValueError("a POVM needs at least 2 outcomes")
    rng = np.random.default_rng(rng_seed)
    for _ in range(_MAX_RETRIES):
        if n_outcomes == 2:
            # Closure with two unit-weight rank-1 outcomes forces an
            # antipodal pair; only the axis is random.
            axis = random_unit_vectors(1, rng)[0]
            povm = QubitPovm(np.array([1.0, 1.0]), np.array([axis, -axis]))
        else:
            m = n_outcomes - 2
            dirs = random_unit_vectors(m, rng)
            w = 0.2 + 0.8 * rng.random(m)
            # Largest scale keeping the deficit PSD, then back off randomly
            # so both deficit eigenvalues stay clearly positive.
            cap = 2.0 / (w.sum() + np.linalg.norm(w @ dirs))
            scale = cap * (0.3 + 0.65 * rng.random())
            povm = QubitPovm(*_rank1_outcomes(scale * w, dirs))
            if not validate(povm).passed:
                continue
        if povm.n_outcomes != n_outcomes:
            continue
        povm = QubitPovm(povm.weights * (2.0 / povm.weights.sum()), povm.directions)
        if validate(povm).passed:
            return povm
    raise GenerationFailedError(f"could not generate a {n_outcomes}-outcome POVM")


def projective_povm(axis) -> QubitPovm:
    """Sharp two-outcome measurement along ``axis``."""
    a = np.asarray(axis, dtype=float)
    a = a / np.linalg.norm(a)
    return QubitPovm(np.array([1.0, 1.0]), np.array([a, -a]))


def trine_povm() -> QubitPovm:
    """Symmetric three-outcome POVM, directions 120 degrees apart in the xy plane."""
    angles = 2.0 * np.pi * np.arange(3) / 3.0
    dirs = np.column_stack([np.cos(angles), np.sin(angles), np.zeros(3)])
    return QubitPovm(np.full(3, 2.0 / 3.0), dirs)


def sic_povm() -> QubitPovm:
    """Four-outcome SIC POVM: tetrahedral directions, all weights 1/2."""
    dirs = np.array(
        [
            [0.0, 0.0, 1.0],
            [np.sqrt(8.0) / 3.0, 0.0, -1.0 / 3.0],
            [-np.sqrt(2.0) / 3.0, np.sqrt(6.0) / 3.0, -1.0 / 3.0],
            [-np.sqrt(2.0) / 3.0, -np.sqrt(6.0) / 3.0, -1.0 / 3.0],
        ]
    )
    return QubitPovm(np.full(4, 0.5), dirs)


def povm_to_dict(povm: QubitPovm) -> dict:
    return {
        "outcomes": [
            {"p": float(p), "a": [float(c) for c in a]}
            for p, a in zip(povm.weights, povm.directions)
        ]
    }


def povm_from_dict(data: dict) -> QubitPovm:
    """POVM of a JSON document.  An outcome with ``|p| < ROUND_OFF`` is dropped;
    a negative or non-finite weight is kept, and fails :func:`require_valid`."""
    try:
        outcomes = data["outcomes"]
        weights = np.array([o["p"] for o in outcomes], dtype=float)
        directions = np.array([o["a"] for o in outcomes], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise NotAPovmError(f"malformed POVM document: {exc}") from exc
    if weights.ndim != 1 or directions.ndim != 2 or directions.shape[1] != 3:
        raise NotAPovmError("each outcome needs a number p and a 3-vector a")
    # min() passes over a NaN unless it comes first; NaN is kept either way.
    if not min(map(abs, weights.tolist()), default=1.0) >= ROUND_OFF:
        kept = [k for k, p in enumerate(weights.tolist()) if not abs(p) < ROUND_OFF]
        weights, directions = weights[kept], directions[kept]
    norms = np.sqrt(np.add.reduce(directions * directions, axis=1))
    if 0.0 in norms.tolist():
        raise NotAPovmError("outcome with nonzero weight has a zero direction")
    return require_valid(QubitPovm(weights, directions / norms[:, None]))


def load_povm(path) -> QubitPovm:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise NotAPovmError(f"{path}: not valid JSON ({exc})") from exc
    return povm_from_dict(data)


def fixture_path(name: str) -> Path:
    """Path of a bundled POVM file (projective_z.json, trine.json, sic.json)."""
    return Path(str(resources.files("povmsim").joinpath("fixtures", name)))
