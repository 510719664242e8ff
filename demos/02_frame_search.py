"""Finding a certified coordinate frame for arbitrary POVMs.

The conditional probabilities are only well defined in a frame where the
projection mass at every rotated cube vertex is at most one.  One closed
form certifies such a frame for every POVM: the eigenbasis of the
second-moment matrix ``sum_i p_i a_i a_i^T`` (the identity is kept when it
already certifies).  The printed ``method`` labels the POVM's class:
two-outcome, coplanar, or general.
"""

import numpy as np

from povmsim import (
    CubeVertices,
    find_frame,
    projection_mass,
    projective_povm,
    random_povm,
    rotation_from_euler_zyz,
    total_vertex_mass,
    trine_povm,
)

examples = [
    ("projective pair", projective_povm([0.3, -0.5, 0.81])),
    ("symmetric trine", trine_povm()),
    ("random 4-outcome", random_povm(4, 7)),
    ("random 6-outcome", random_povm(6, 8)),
    ("random 8-outcome", random_povm(8, 9)),
]

for name, povm in examples:
    cert = find_frame(povm)
    values = np.array2string(cert.vertex_values, precision=3)
    print(f"{name:18s} method={cert.method.value:18s} max={cert.max_value:.6f}")
    print(f"{'':18s} vertex values {values}")

# In any frame the eight values sum to at most 8; a certified frame pins
# each individual value at or below 1.
povm = random_povm(5, 10)
rng = np.random.default_rng(0)
sums = []
for _ in range(1000):
    angles = 2 * np.pi * rng.random(3)
    cube = CubeVertices.from_rotation(rotation_from_euler_zyz(*angles))
    sums.append(total_vertex_mass(povm, cube))
print(f"\nvertex-mass sums over 1000 random frames: max {max(sums):.4f} (bound 8)")

cert = find_frame(povm)
again = projection_mass(povm, cert.cube.vertices)
print(f"certified frame re-evaluation matches: {np.allclose(again, cert.vertex_values)}")
