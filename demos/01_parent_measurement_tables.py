"""Simulating a four-outcome SIC POVM with a single parent measurement.

Measuring a Haar-random direction on the Bloch sphere and post-processing
the result through an 8-row conditional-probability table reproduces any
qubit POVM at visibility 1/2.  This script builds the table for the
tetrahedral (SIC) POVM in its canonical frame and verifies that mixing the
eight octant operators with those probabilities returns each noisy outcome
operator exactly.
"""

import numpy as np

from povmsim import (
    OCTANT_LABELS,
    build_table,
    find_frame,
    noise_weights,
    octant_operators,
    sic_povm,
    verify_decomposition,
)

povm = sic_povm()
print("SIC POVM outcomes (weight, direction):")
for p, a in zip(povm.weights, povm.directions):
    print(f"  p={p:.3f}  a=({a[0]:+.3f}, {a[1]:+.3f}, {a[2]:+.3f})")

# The identity rotation, tried first, already certifies this POVM: all
# eight cube-vertex values stay at or below 1.
frame = find_frame(povm)
print(f"\nframe method: {frame.method.value}, max vertex value {frame.max_value:.3f}")
print("vertex values:", np.array2string(frame.vertex_values, precision=3))
print("noise weights:", np.array2string(noise_weights(povm, frame), precision=3))

cpt = build_table(povm, frame)
print("\nconditional probabilities p(outcome | octant):")
header = "octant  " + "".join(f"  out{i}" for i in range(povm.n_outcomes))
print(header)
for label, row in zip(OCTANT_LABELS, cpt.table):
    print(f"  {label}  " + "".join(f"{x:6.3f}" for x in row))

report = verify_decomposition(cpt)
print(f"\nreconstruction residual: {report.max_residual:.3e} (pass: {report.passed})")

# The octant operators themselves sum back to the identity.
ops = octant_operators(frame)
total_t = sum(o.operator.t for o in ops)
total_w = np.sum([o.operator.w for o in ops], axis=0)
print(f"sum of octant operators: t={total_t}, |w|={np.linalg.norm(total_w):.2e}")
