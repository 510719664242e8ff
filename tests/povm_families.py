"""Seeded POVM families that cover the POVM space beyond ``random_povm``.

``random_povm`` is collinear at 3 outcomes and coplanar at 4.  These
families add general-position, tight-margin, planar, near-coplanar,
octahedral, duplicate-direction and zero-weight POVMs.  ``test_frames.py``
runs them through ``find_frame``; ``test_families.py`` runs them through
the table, its reconstruction and the Werner hidden-state model.
"""

import numpy as np
from oracles import random_rotations

from povmsim.bloch import random_unit_vectors
from povmsim.frames import COPLANAR_SVAL
from povmsim.povm import QubitPovm


def general_position_povm(n: int, seed: int) -> QubitPovm:
    """``n - 1`` weighted random directions plus the direction closing them.

    ``random_povm(4, .)`` is always coplanar; this family is in general
    position from 4 outcomes on.
    """
    rng = np.random.default_rng(seed)
    dirs = random_unit_vectors(n - 1, rng)
    weights = rng.uniform(0.2, 1.0, n - 1)
    rest = weights @ dirs
    norm = np.linalg.norm(rest)
    weights = np.append(weights, norm)
    return QubitPovm(2.0 * weights / weights.sum(), np.vstack([dirs, -rest / norm]))


def near_projective_povm(n: int, seed: int, scale=(0.05, 0.15)) -> QubitPovm:
    """``n - 2`` light random outcomes plus an antipodal pair carrying the rest.

    The random outcomes take a ``scale`` share of their cap, so the POVM is
    close to the projective measurement along the pair's axis: the
    tight-margin family.
    """
    rng = np.random.default_rng(seed)
    dirs = random_unit_vectors(n - 2, rng)
    weights = rng.uniform(0.2, 1.0, n - 2)
    weights *= rng.uniform(*scale) * 2.0 / (weights.sum() + np.linalg.norm(weights @ dirs))
    t = 1.0 - weights.sum() / 2.0
    w = -(weights @ dirs) / 2.0
    norm = np.linalg.norm(w)
    return QubitPovm(
        np.append(weights, [t + norm, t - norm]), np.vstack([dirs, w / norm, -w / norm])
    )


def planar_povm(n: int, seed: int) -> QubitPovm:
    """``n - 1`` weighted directions in a random plane plus the one closing them."""
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, 2.0 * np.pi, n - 1)
    dirs = np.column_stack([np.cos(theta), np.sin(theta), np.zeros(n - 1)])
    weights = rng.uniform(0.2, 1.0, n - 1)
    rest = weights @ dirs
    norm = np.linalg.norm(rest)
    weights = np.append(weights, norm)
    dirs = np.vstack([dirs, -rest / norm]) @ random_rotations(1, rng)[0].T
    return QubitPovm(2.0 * weights / weights.sum(), dirs)


def smallest_sval(povm: QubitPovm) -> float:
    return np.linalg.svd(povm.directions, compute_uv=False)[-1]


def near_coplanar_povm(rng: np.random.Generator) -> QubitPovm:
    """A closed planar set plus an antipodal pair tilted out of the plane by eps.

    The smallest singular value grows linearly in eps; eps is scaled to put
    it at 1.5 to 5 times COPLANAR_SVAL: labelled general position, with a
    nearly singular M.
    """
    n_plane = int(rng.integers(3, 12))
    theta = rng.uniform(0.0, 2.0 * np.pi, n_plane - 1)
    dirs = np.column_stack([np.cos(theta), np.sin(theta), np.zeros(n_plane - 1)])
    weights = rng.uniform(0.2, 1.0, n_plane - 1)
    rest = weights @ dirs
    dirs = np.vstack([dirs, -rest / np.linalg.norm(rest)])
    weights = np.append(weights, np.linalg.norm(rest))
    pair = rng.uniform(0.05, 0.5)
    weights = np.append(weights * (2.0 - 2.0 * pair) / weights.sum(), [pair, pair])
    phi = rng.uniform(0.0, 2.0 * np.pi)
    rot = random_rotations(1, rng)[0]

    def tilted(eps):
        tilt = [np.cos(phi) * np.cos(eps), np.sin(phi) * np.cos(eps), np.sin(eps)]
        return QubitPovm(weights, np.vstack([dirs, tilt, np.negative(tilt)]) @ rot.T)

    eps = 1e-6 / smallest_sval(tilted(1e-6)) * rng.uniform(1.5, 5.0) * COPLANAR_SVAL
    return tilted(eps)


def octahedral_povm(rot: np.ndarray, rng: np.random.Generator) -> QubitPovm:
    """A weighted octahedron: +/- each axis of ``rot``, the pair on axis k weighted w_k.

    All ``|v . a_i|`` are 1 in the frame ``rot``, so the frame bound holds
    with equality on every vertex.
    """
    signs = np.tile([1.0, -1.0], 3)[:, None]
    weights = rng.uniform(0.1, 1.0, 3)
    return QubitPovm(np.repeat(weights / weights.sum(), 2), np.repeat(rot.T, 2, axis=0) * signs)


def duplicate_direction_povm(base: QubitPovm, rng: np.random.Generator) -> QubitPovm:
    """``base`` with each outcome split into 1 to 3 copies of random shares."""
    copies = rng.integers(1, 4, base.n_outcomes)
    shares = rng.uniform(0.1, 1.0, copies.sum())
    owner = np.repeat(np.arange(base.n_outcomes), copies)
    shares /= np.bincount(owner, shares)[owner]
    return QubitPovm(base.weights[owner] * shares, base.directions[owner])


def zero_weight_povm(base: QubitPovm, extra: int, rng: np.random.Generator) -> QubitPovm:
    """``base`` plus ``extra`` zero-weight outcomes with random, non-unit directions.

    Zero-weight outcomes need no unit direction, and one may lift a coplanar
    POVM out of the coplanar label.
    """
    junk = rng.standard_normal((extra, 3)) * rng.uniform(0.0, 5.0)
    weights = np.append(base.weights, np.zeros(extra))
    return QubitPovm(weights, np.vstack([base.directions, junk]))
