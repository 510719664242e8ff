"""POVM plumbing: representation, validation, noise, canonical form.

A qubit POVM is stored as weighted unit directions {(p_i, a_i)} with
outcome operators p_i (I + a_i . sigma) / 2.  Summing to the identity
pins sum(p) = 2 and sum(p a) = 0, which `validate` checks with residuals.
"""

import json

import numpy as np

from povmsim import (
    QubitPovm,
    born,
    born_probabilities,
    noisy_element,
    povm_to_dict,
    random_povm,
    sic_povm,
    validate,
)

# Validation reports residuals instead of raising.
good = sic_povm()
bad = QubitPovm(np.array([1.0, 0.5]), np.array([[0, 0, 1.0], [0, 0, -1.0]]))
for name, povm in [("SIC", good), ("unbalanced pair", bad)]:
    report = validate(povm)
    print(
        f"{name:16s} passed={report.passed}  "
        f"weight_sum_residual={report.weight_sum_residual:.3g}  "
        f"closure_residual={report.closure_residual:.3g}"
    )

# The depolarising map shrinks the Bloch part by the visibility.
element = noisy_element(good, 0, eta=0.5)
print(f"\nnoisy SIC element 0 at eta=1/2: t={element.t}, w={element.w}")
print(f"Born probability on the +z state: {born(element, [0, 0, 1])}")
print("all outcomes on +z:", born_probabilities(good, [0, 0, 1], eta=0.5))

# Any PSD decomposition of the identity, given as pairs (t, w) of
# t I + w . sigma, has a rank-1 form in closed form: each pair gives the
# outcomes (t + |w|, w / |w|) and (t - |w|, -w / |w|), its two eigenvalues.
t = np.array([0.3, 0.7])
w = np.array([[0.1, 0.05, -0.08], [-0.1, -0.05, 0.08]])
norms = np.linalg.norm(w, axis=1)
axes = w / norms[:, None]
canonical = QubitPovm(np.concatenate([t + norms, t - norms]), np.concatenate([axes, -axes]))
print("\ncanonical weights:", np.round(canonical.weights, 4))
print("canonical outcomes sum to identity:", validate(canonical).passed)

# Seeded generation and the JSON interchange format.
povm = random_povm(5, rng_seed=2024)
print("\nrandom 5-outcome POVM passes validation:", validate(povm).passed)
print(json.dumps(povm_to_dict(povm), indent=1)[:200], "...")
