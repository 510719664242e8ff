"""Seeded benchmark inputs, built with numpy alone.

Every generator takes a ``numpy.random.Generator`` and returns a POVM
document in the package's JSON interchange format::

    {"outcomes": [{"p": <float>, "a": [x, y, z]}, ...]}

The families are chosen for the frame-search route they reach:

* ``two_outcome``: a projective measurement (exact route).
* ``coplanar``: every direction in one random plane (bisection route).
* ``closed``: ``n - 1`` weighted random directions plus the direction that
  closes their sum; general position from 4 outcomes on (minimax route).
  ``povmsim.random_povm`` never gives a general-position 4-outcome POVM,
  which is why the benchmark builds its own.
* ``split``: ``n - 2`` weighted random directions, with the rest of the
  identity split into its two eigenprojectors (an antipodal pair).  This
  is the construction ``povmsim.random_povm`` uses; from 5 outcomes on it
  is in general position, and at 5 to 10 outcomes it sometimes needs the
  simplex refinement after the grid.
* ``near_projective``: ``split`` with the random outcomes scaled down to a
  few percent of their cap, so one antipodal pair carries almost all the
  weight.  A projective POVM certifies only in frames aligned with its
  axis, so these are tight-margin inputs; at 5 to 8 outcomes about half of
  them need the simplex refinement.
"""

from __future__ import annotations

import numpy as np

def unit_vectors(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1)[:, None]


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 2] = -q[:, 2]
    return q


def document(weights, directions) -> dict:
    weights = np.asarray(weights, dtype=float)
    weights = weights * (2.0 / weights.sum())
    return {
        "outcomes": [
            {"p": float(p), "a": [float(x) for x in a]} for p, a in zip(weights, directions)
        ]
    }


def two_outcome(rng: np.random.Generator) -> dict:
    axis = unit_vectors(rng, 1)[0]
    return document([1.0, 1.0], [axis, -axis])


def closed(rng: np.random.Generator, n: int, coplanar: bool = False) -> dict:
    plane = random_rotation(rng)[:, :2] if coplanar else None
    while True:
        if plane is None:
            dirs = unit_vectors(rng, n - 1)
        else:
            theta = rng.uniform(0.0, 2.0 * np.pi, n - 1)
            dirs = np.cos(theta)[:, None] * plane[:, 0] + np.sin(theta)[:, None] * plane[:, 1]
        weights = rng.uniform(0.2, 1.0, n - 1)
        rest = weights @ dirs
        norm = float(np.linalg.norm(rest))
        # Keep the closing outcome from being negligibly light.
        if norm >= 0.05 * weights.mean():
            return document(np.append(weights, norm), np.vstack([dirs, -rest / norm]))


def split(rng: np.random.Generator, n: int, scale=(0.3, 0.95)) -> dict:
    m = n - 2
    dirs = unit_vectors(rng, m)
    weights = rng.uniform(0.2, 1.0, m)
    # A scale below 1 keeps both eigenvalues of the remainder positive.
    weights *= rng.uniform(*scale) * 2.0 / (weights.sum() + np.linalg.norm(weights @ dirs))
    t = 1.0 - weights.sum() / 2.0
    w = -(weights @ dirs) / 2.0
    norm = float(np.linalg.norm(w))
    axis = w / norm
    return document(np.append(weights, [t + norm, t - norm]), np.vstack([dirs, axis, -axis]))


def make(rng: np.random.Generator, family: str, n: int) -> dict:
    if family == "two_outcome":
        return two_outcome(rng)
    if family == "coplanar":
        return closed(rng, n, coplanar=True)
    if family == "closed":
        return closed(rng, n)
    if family == "split":
        return split(rng, n)
    if family == "near_projective":
        return split(rng, n, scale=(0.05, 0.15))
    raise ValueError(f"unknown family {family!r}")


# Frame-search route names, keyed by the ``FrameMethod`` value that reports them.
ROUTES = {
    "TwoOutcomeExact": "two_outcome",
    "CoplanarBisection": "coplanar",
    "MinimaxSearch": "minimax",
}


def expected_route(family: str, n: int) -> str:
    """Frame-search route the dispatch rule assigns to a family member."""
    if n == 2:
        return "two_outcome"
    if family == "coplanar" or (family in ("split", "near_projective") and n <= 4) or n == 3:
        return "coplanar"
    return "minimax"


def check_document(doc: dict, n: int, atol: float = 1e-10) -> str | None:
    """Independent POVM check of a document; returns a reason or None."""
    outcomes = doc.get("outcomes")
    if not isinstance(outcomes, list) or len(outcomes) != n:
        return f"expected {n} outcomes"
    p = np.array([o["p"] for o in outcomes], dtype=float)
    a = np.array([o["a"] for o in outcomes], dtype=float)
    if a.shape != (n, 3) or np.any(p < 0):
        return "bad shape or negative weight"
    if abs(p.sum() - 2.0) > atol:
        return f"weights sum to {p.sum()!r}"
    if np.max(np.abs(np.linalg.norm(a, axis=1) - 1.0)) > atol:
        return "directions are not unit vectors"
    if np.linalg.norm(p @ a) > atol:
        return "weighted directions do not sum to zero"
    return None
